"""A derandomized fuzz of the CLI's grid commands, run in process.

Hypothesis draws argv lists from a grammar biased toward valid input: the
eight grid commands; a catalog record, an expression or a tabulated file
as input; parameter names the input knows, with values near its defaults;
grid bounds around the input's own domain; up to 401 points; small levels,
depth and budget; and si-check's transform knobs and --on.  Each list runs
through ``cli.main`` with warnings turned into errors, and must end as the
CLI promises: exit 0 with strict JSON or finite CSV on stdout, or exit 1
(usage) or 2 (computation failure) with a one-line message.
"""

import contextlib
import io
import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from susyqm import GridFunction, make_grid
from susyqm.cli import main

GRID_COMMANDS = ("solve", "partner", "hierarchy", "si-check", "spectrum",
                 "wavefunctions", "classify", "algebra-check")
TAKES_TABULATED = ("solve", "hierarchy", "classify")
TAKES_FORMAT = ("solve", "partner", "spectrum", "wavefunctions")

#: Record -> (parameter names, grid domain or None).
RECORDS = {
    "shifted-harmonic": (("omega",), (-10.0, 10.0)),
    "morse": (("A",), (-3.5, 10.0)),
    "poschl-teller": (("A",), (-10.0, 10.0)),
    "coulomb-radial": (("l", "q"), (0.001, 160.0)),
    "scaling-demo": (("a",), None),
    "cyclic-demo": (("c",), None),
}

#: Expression -> parameter names; both shape-invariant and cubic families.
EXPRESSIONS = {
    "x": (),
    "a*x": ("a",),
    "A*tanh(x)": ("A",),
    "A - exp(-x)": ("A",),
    "a*x^3 + 0.3": ("a",),
    "a*x + b": ("a", "b"),
    "a*x^3 + c*x + 0.3": ("a", "c"),
}

#: (kind, knob flags with values) for si-check; an empty list restricts a search.
TRANSFORMS = [
    ("translation", [[], ["--alpha", "-1"], ["--alpha", "1"], ["--alpha", "0"]]),
    ("scaling", [[], ["--q", "0.5"]]),
    ("power-scaling", [[], ["--q", "0.5", "--p", "2"]]),
    ("projective", [[], ["--q", "0.5", "--p", "0.25"]]),
]

VALUES = st.one_of(st.sampled_from(["0.5", "1", "1.5", "2", "3", "0", "-1"]),
                   st.floats(-4.0, 4.0, allow_nan=False).map(repr))
POINTS = st.one_of(st.integers(13, 401), st.integers(3, 12))


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """A tabulated well with bound states, one without, and a hierarchy
    output directory."""
    root = tmp_path_factory.mktemp("fuzz")
    grid = make_grid(-8.0, 8.0, 201)
    (root / "well.csv").write_text(GridFunction(grid, grid.x**2 - 1.0).to_csv())
    (root / "hill.csv").write_text(GridFunction(grid, 1.0 - grid.x**2 / 64.0).to_csv())
    return root


@st.composite
def argvs(draw, root):
    command = draw(st.sampled_from(GRID_COMMANDS))
    argv = [command]
    sources = ["catalog", "w"] + (["tabulated"] if command in TAKES_TABULATED else [])
    source = draw(st.sampled_from(sources))
    domain = (-10.0, 10.0)
    names: tuple = ()
    if source == "catalog":
        # the records without a superpotential serve spectrum and classify only
        record = draw(st.sampled_from([r for r, (_, d) in sorted(RECORDS.items())
                                       if d or command in ("spectrum", "classify")]))
        names, domain = RECORDS[record]
        domain = domain or (-10.0, 10.0)
        argv += ["--catalog", record]
    elif source == "w":
        text = draw(st.sampled_from(sorted(EXPRESSIONS)))
        names = EXPRESSIONS[text]
        argv += ["--w", text]
    else:
        argv += ["--tabulated", str(root / draw(st.sampled_from(["well.csv", "hill.csv"])))]
    # A --w input needs every parameter; a record takes any subset.
    for name in names:
        if source == "w" or draw(st.booleans()):
            argv += ["--param", f"{name}={draw(VALUES)}"]
    grid_flags = source != "tabulated" and not (command == "classify" and source == "catalog")
    if grid_flags and draw(st.booleans()):
        lo, hi = domain
        span = hi - lo
        if draw(st.booleans()):
            argv.append(f"--x-min={lo + draw(st.sampled_from([0.0, 0.25, 0.5])) * span}")
        if draw(st.booleans()):
            argv += ["--x-max", repr(hi - draw(st.sampled_from([0.0, 0.25, 0.4])) * span)]
    if grid_flags:  # the default grids hold up to 6401 points
        argv += ["--points", str(draw(POINTS))]
    if command in ("solve", "spectrum", "wavefunctions"):
        argv += ["--levels", str(draw(st.integers(0, 3)))]
    if command in ("si-check", "spectrum", "wavefunctions", "classify"):
        argv += ["--budget", str(draw(st.integers(1, 9)))]
    if command == "hierarchy":
        argv += ["--depth", str(draw(st.integers(1, 3))), "--output", str(root / "levels")]
    if command == "si-check":
        if draw(st.booleans()):
            kind, knob_sets = draw(st.sampled_from(TRANSFORMS))
            argv += ["--transform", kind, *draw(st.sampled_from(knob_sets))]
        if names and draw(st.booleans()):
            argv += ["--on", draw(st.sampled_from(names))]
        if source == "catalog" and draw(st.booleans()):
            argv.append("--search")
    if command in TAKES_FORMAT and draw(st.booleans()):
        argv += ["--format", "json"]
    return argv


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _reject_constant(name: str):
    raise ValueError(f"non-finite JSON constant {name}")


def _check_csv(text: str) -> None:
    header, *rows = text.splitlines()
    for row in rows:
        cells = row.split(",")
        assert len(cells) == len(header.split(","))
        assert all(cell == "" or math.isfinite(float(cell)) for cell in cells), row


def test_cli_fuzz(files):
    @settings(max_examples=80, suppress_health_check=[HealthCheck.too_slow])
    @given(argvs(files))
    def run(argv):
        code, out, err = _run(argv)
        assert code in (0, 1, 2), (argv, code, err)
        if code == 0:
            assert err == ""
            if argv[0] in TAKES_FORMAT and "json" not in argv:
                _check_csv(out)
            else:
                json.loads(out, parse_constant=_reject_constant)
        elif code == 2:
            assert out == ""
            assert len(err.splitlines()) == 1, (argv, err)
        else:
            # argparse prints its usage lines first; the message is one line
            assert [ln for ln in err.splitlines() if ": error: " in ln] == \
                [err.splitlines()[-1]], (argv, err)

    run()
