"""The CLI's help texts and usage errors, byte for byte.

``data/cli_surface.json`` holds the stdout of the top-level ``--help`` and of
every ``COMMAND --help``, and the exit code and stderr of each usage-error
input of the cli-cold workload (``perfbench/cli_cold.py``'s ``_malformed``
usage list and its ``a=nan``/``a=inf`` inputs, with the seeded literals
fixed).  The help texts read the transform kinds, their knobs and the
default budget, so they change when those do.  argparse wraps its text to
the terminal width, so every call runs with COLUMNS=80.

To record the file again, from the root of a source checkout::

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import contextlib
import io
import json
import os
from pathlib import Path

import pytest

from susyqm.cli import main

DATA = Path(__file__).parent / "data" / "cli_surface.json"

COMMANDS = ("solve", "partner", "hierarchy", "si-check", "spectrum", "wavefunctions",
            "classify", "algebra-check", "catalog")

HELP_CALLS = [["--help"], *([command, "--help"] for command in COMMANDS)]

USAGE_CALLS = [
    ["solve", "--catalog", "no-such-record-7"],
    ["partner", "--w", "a*x", "--param", "a=1.2345", "--points", "2"],
    ["solve", "--catalog", "morse", "--w", "x"],
    ["algebra-check"],
    ["classify", "--w", "a*x", "--param", "a"],
    ["partner", "--w", "foo(1.2345*x)"],
    ["solve", "--catalog", "morse", "--levels", "-1"],
    ["si-check", "--catalog", "morse", "--alpha", "1.2345"],
    ["hierarchy", "--catalog", "morse", "--depth", "2"],
    ["solve", "--catalog", "scaling-demo"],
    ["classify", "--w", "a*x", "--param", "a=nan"],
    ["classify", "--w", "a*x", "--param", "a=inf"],
]


def _run(argv: list[str]) -> dict:
    """Exit code, stdout and stderr of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def _surface() -> dict:
    return {"help": [_run(argv) for argv in HELP_CALLS],
            "usage": [_run(argv) for argv in USAGE_CALLS]}


@pytest.fixture(scope="module")
def surface():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("COLUMNS", "80")
        return _surface()


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("index", range(len(HELP_CALLS)),
                         ids=[" ".join(argv) for argv in HELP_CALLS])
def test_help_text_is_byte_identical(surface, recorded, index):
    got, want = surface["help"][index], recorded["help"][index]
    assert got["argv"] == want["argv"]
    assert (got["exit"], got["stderr"]) == (0, "")
    assert got["stdout"] == want["stdout"]


@pytest.mark.parametrize("index", range(len(USAGE_CALLS)),
                         ids=[" ".join(argv) for argv in USAGE_CALLS])
def test_usage_error_is_byte_identical(surface, recorded, index):
    got, want = surface["usage"][index], recorded["usage"][index]
    assert got["argv"] == want["argv"]
    assert (got["exit"], got["stdout"]) == (1, "")
    assert got["stderr"] == want["stderr"]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    DATA.write_text(json.dumps(_surface(), indent=1, ensure_ascii=False) + "\n")
