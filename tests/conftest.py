import os
from pathlib import Path

import pytest

import susyqm


@pytest.fixture(scope="session")
def package_env():
    """Environment for a child interpreter that imports this susyqm."""
    src = str(Path(susyqm.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env
