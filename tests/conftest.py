import os
from pathlib import Path

import pytest
from hypothesis import settings

import susyqm

# Property tests repeat their examples run to run and keep no example
# database, so a Tier-1 verdict never depends on an earlier run.
settings.register_profile("susyqm", derandomize=True, database=None, deadline=None)
settings.load_profile("susyqm")


@pytest.fixture(scope="session")
def package_env():
    """Environment for a child interpreter that imports this susyqm."""
    src = str(Path(susyqm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
