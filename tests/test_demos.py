"""The narrated demos and README's Quick tour run to completion without
writing to stderr."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs_cleanly(script, tmp_path, package_env):
    proc = subprocess.run([sys.executable, str(script)], env=package_env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout != ""


def test_readme_quick_tour_runs(tmp_path, package_env):
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    proc = subprocess.run([sys.executable, "-c", blocks[0]], env=package_env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert float(proc.stdout.split()[0]) == pytest.approx(3.0, abs=1e-9)
