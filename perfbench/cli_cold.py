"""cli-cold: one ``python -m susyqm.cli`` subprocess per operation, one at a time.

Interpreter start, import and the catalog build at import are most of every
call here, so this is the workload on which import-time work shows.

Calls follow a fixed pattern of eight slots: five cheap calls, one
search-backed call (``si-check --search`` in even cycles, ``classify --w``
in odd ones), one malformed input whose handling the README specifies, and
one input behind a known defect.  The cheap slots walk through seeded
permutations of the nine subcommands, so two cycles cover all nine.  The
seed picks the variants, records, parameters and literals; the fixed
pattern keeps the share of each kind the same for every seed.

Every call is checked against the README contract and a reference
computed here; for ``GOLDEN_SEED`` the stdout bytes must also match those
recorded in ``golden/``.  Known-defect inputs are checked like the rest,
but their failures are counted apart (``known_defect``), since the fix is
expected to change their output.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import susyqm as sq

from checks import (CATALOG_NAMES, DECLARED_VERDICT, ENERGY_TOL, NON_SI_VERDICT,
                    R_TOL, SI_VERDICT, close, count_nodes, trapezoid_norm2,
                    verdict)

HERE = Path(__file__).resolve().parent
SPANS_PY = HERE / "spans.py"
GOLDEN_SEED = 0
GOLDEN_PATH = HERE / "golden" / f"cli-cold-seed{GOLDEN_SEED}.json"
GOLDEN_OPS = 32
WORK = "{work}"  # replaced by the run's temporary directory when executed
TIMEOUT_S = 120

SLOTS = ("cheap", "cheap", "search", "cheap", "malformed", "cheap", "cheap", "defect")
COMMANDS = ("catalog", "solve", "partner", "hierarchy", "si-check", "spectrum",
            "wavefunctions", "classify", "algebra-check")
FAMILY_RECORDS = ("shifted-harmonic", "morse", "poschl-teller", "coulomb-radial")

#: Whether operations run in the benchmark process (and are traced there).
IN_PROCESS = False


@dataclass(frozen=True)
class Op:
    kind: str
    argv: tuple
    ref: dict  # what the check needs: expected exits, parameters, reference functions
    known_defect: bool = False

    def __str__(self) -> str:
        return " ".join(self.argv)


# -- input generation -------------------------------------------------------------


def _num(x: float) -> str:
    return f"{x:.4f}"


def _record_params(rng: random.Random, record: str) -> tuple[dict, int]:
    """Seeded parameters and the number of excited levels well inside the box.

    Morse and Pöschl-Teller level n is bound while A - n > 0; levels with
    A - n >= 1 are the ones the default box resolves.  Coulomb keeps l >= 1
    (see oracle_verify for why).
    """
    def u(lo, hi):
        return round(rng.uniform(lo, hi), 4)

    if record == "shifted-harmonic":
        return {"omega": u(0.5, 2.0)}, 3
    if record == "coulomb-radial":
        return {"q": u(2.0, 3.0), "l": float(rng.choice((1, 2)))}, 2
    a = u(2.6, 4.5)
    return {"A": a}, min(3, int(a) - 1)


def _param_flags(params: dict) -> list[str]:
    out = []
    for name, value in params.items():
        out += ["--param", f"{name}={_num(value)}"]
    return out


def _expression(rng: random.Random) -> tuple[list[str], dict]:
    """A partner/algebra-check input: argv fragment plus numpy w and w'."""
    def u(lo, hi):
        return round(rng.uniform(lo, hi), 4)

    shape = rng.choice(("oscillator", "tanh", "morse", "cubic"))
    if shape == "oscillator":
        a, b = u(0.5, 2.0), u(-0.5, 0.5)
        text = f"a*x + {_num(b)}" if b >= 0 else f"a*x - {_num(-b)}"
        return (["--w", text] + _param_flags({"a": a}),
                {"w": lambda x: a * x + b, "dw": lambda x: a + 0 * x})
    if shape == "tanh":
        a, k = u(1.0, 4.0), u(0.5, 1.5)
        return (["--w", f"A*tanh({_num(k)}*x)"] + _param_flags({"A": a}),
                {"w": lambda x: a * np.tanh(k * x),
                 "dw": lambda x: a * k / np.cosh(k * x) ** 2})
    if shape == "morse":
        a, c = u(1.0, 3.0), u(0.5, 1.5)
        return (["--w", f"A - {_num(c)}*exp(-x)"] + _param_flags({"A": a})
                + ["--x-min", "-3.5", "--x-max", "10"],
                {"w": lambda x: a - c * np.exp(-x), "dw": lambda x: c * np.exp(-x)})
    a, c = u(0.5, 1.5), u(0.2, 1.0)
    return (["--w", "a*x^3 + c*x"] + _param_flags({"a": a, "c": c})
            + ["--x-min", "-4", "--x-max", "4"],
            {"w": lambda x: a * x**3 + c * x, "dw": lambda x: 3 * a * x**2 + c})


def _cheap(rng: random.Random, command: str) -> Op:
    if command == "catalog":
        variant = rng.choice(("list", "json", "show"))
        if variant == "list":
            return Op(command, ("catalog",), {"variant": variant})
        if variant == "json":
            return Op(command, ("catalog", "--format", "json"), {"variant": variant})
        name = rng.choice(CATALOG_NAMES)
        return Op(command, ("catalog", name), {"variant": variant, "name": name})
    if command in ("solve", "hierarchy", "wavefunctions"):
        record = rng.choice(FAMILY_RECORDS)
        params, n_well = _record_params(rng, record)
        argv = [command, "--catalog", record] + _param_flags(params)
        if command == "solve":
            argv += ["--levels", str(n_well)]
            levels = n_well
        elif command == "hierarchy":
            levels = min(3, n_well + 1)
            argv += ["--depth", str(levels), "--output", f"{WORK}/hierarchy"]
        else:
            levels = min(2, n_well)
            argv += ["--levels", str(levels)]
        return Op(command, tuple(argv),
                  {"record": record, "params": params, "levels": levels})
    if command == "spectrum":
        record = rng.choice(FAMILY_RECORDS + ("scaling-demo", "cyclic-demo"))
        if record == "scaling-demo":
            params, n_well = {"a": round(rng.uniform(0.5, 2.0), 4)}, 3
        elif record == "cyclic-demo":
            params, n_well = {}, 3
        else:
            params, n_well = _record_params(rng, record)
        argv = ["spectrum", "--catalog", record] + _param_flags(params)
        return Op(command, tuple(argv + ["--levels", str(n_well)]),
                  {"record": record, "params": params, "levels": n_well})
    if command == "si-check":
        if rng.random() < 0.5:
            record = rng.choice(FAMILY_RECORDS)
            params, _ = _record_params(rng, record)
            return Op(command, ("si-check", "--catalog", record, *_param_flags(params)),
                      {"record": record, "params": params})
        a, k = round(rng.uniform(2.0, 4.0), 4), round(rng.uniform(0.5, 1.5), 4)
        return Op(command, ("si-check", "--w", f"A*tanh({_num(k)}*x)",
                            *_param_flags({"A": a}), "--transform", "translation",
                            "--alpha", f"-{_num(k)}", "--on", "A"),
                  {"r": a * a - (a - k) ** 2})
    if command == "classify":
        record = rng.choice(CATALOG_NAMES)
        params = _record_params(rng, record)[0] if record in FAMILY_RECORDS else {}
        want = SI_VERDICT if record in FAMILY_RECORDS else DECLARED_VERDICT
        return Op(command, ("classify", "--catalog", record, *_param_flags(params)),
                  {"verdict": want})
    argv, ref = _expression(rng)
    points = str(rng.randrange(201, 1002, 100))
    if command == "partner":
        fmt = rng.choice(("csv", "json"))
        return Op(command, ("partner", *argv, "--points", points, "--format", fmt),
                  dict(ref, fmt=fmt))
    return Op(command, ("algebra-check", *argv, "--points", points), {})


def _search(rng: random.Random, block: int) -> Op:
    if block % 2 == 0:
        record = rng.choice(("shifted-harmonic", "morse", "poschl-teller"))
        params, _ = _record_params(rng, record)
        return Op("si-check-search", ("si-check", "--catalog", record,
                                      *_param_flags(params), "--search", "--budget", "17"),
                  {"record": record, "params": params})
    a, b = round(rng.uniform(0.5, 1.5), 4), round(rng.uniform(0.1, 0.5), 4)
    return Op("classify-w", ("classify", "--w", f"a*x^3 + {_num(b)}",
                             *_param_flags({"a": a}), "--x-min", "-6", "--x-max", "6",
                             "--points", "601", "--budget", "9"),
              {"verdict": NON_SI_VERDICT})


def _malformed(rng: random.Random) -> Op:
    v = _num(rng.uniform(0.5, 2.0))
    usage = [
        ("solve", "--catalog", f"no-such-record-{rng.randrange(100)}"),
        ("partner", "--w", "a*x", "--param", f"a={v}", "--points", "2"),
        ("solve", "--catalog", "morse", "--w", "x"),
        ("algebra-check",),
        ("classify", "--w", "a*x", "--param", "a"),
        ("partner", "--w", f"foo({v}*x)"),
        ("solve", "--catalog", "morse", "--levels", "-1"),
        ("si-check", "--catalog", "morse", "--alpha", v),
        ("hierarchy", "--catalog", "morse", "--depth", "2"),
        ("solve", "--catalog", "scaling-demo"),
    ]
    failure = [
        ("partner", "--w", f"exp({_num(rng.uniform(1.0, 2.0))}*x)", "--x-max", "1000"),
        ("solve", "--tabulated", f"{WORK}/missing.csv"),
        ("wavefunctions", "--catalog", "morse", "--param", "A=0.5", "--levels", "2"),
        ("spectrum", "--catalog", "morse", "--param", f"A=-{v}"),
    ]
    if rng.random() < len(usage) / (len(usage) + len(failure)):
        return Op("malformed", rng.choice(usage), {"exits": (1,)})
    return Op("malformed", rng.choice(failure), {"exits": (2,)})


def _defect(rng: random.Random) -> Op:
    """Inputs behind known defects, with the behaviour the README asks for
    as the expectation."""
    v = _num(rng.uniform(0.5, 2.0))
    variant = rng.randrange(5)
    if variant == 0:  # traceback instead of a one-line message
        return Op("defect", ("partner", "--w", f"{v}*x/0"), {"exits": (1, 2)}, True)
    if variant == 1:  # non-finite parameter accepted
        return Op("defect", ("classify", "--w", "a*x", "--param", "a=nan"),
                  {"exits": (1,)}, True)
    if variant == 2:
        return Op("defect", ("classify", "--w", "a*x", "--param", "a=inf"),
                  {"exits": (1,)}, True)
    if variant == 3:  # w finite but w² overflows: numpy's warning reaches stderr
        return Op("defect", ("partner", "--w", f"exp({_num(rng.uniform(0.4, 0.65))}*x)",
                             "--x-max", "1000"), {"exits": (2,)}, True)
    # a negative bound in scientific notation read as a flag
    a = float(v)
    return Op("defect", ("partner", "--w", "a*x", "--param", f"a={v}", "--x-min", "-1e1",
                         "--x-max", "1e1", "--points", "201", "--format", "csv"),
              {"w": lambda x: a * x, "dw": lambda x: a + 0 * x, "fmt": "csv"}, True)


def blocks(seed: int):
    """One call per block, so a run stops within one call of its deadline;
    the slot pattern repeats every eight calls."""
    rng = random.Random(f"cli-cold:{seed}")
    commands: list[str] = []
    for index in itertools.count():
        slot = SLOTS[index % len(SLOTS)]
        if slot == "cheap":
            if not commands:
                commands = list(COMMANDS)
                rng.shuffle(commands)
            yield [_cheap(rng, commands.pop())]
        elif slot == "search":
            yield [_search(rng, index // len(SLOTS))]
        elif slot == "malformed":
            yield [_malformed(rng)]
        else:
            yield [_defect(rng)]


# -- execution --------------------------------------------------------------------


def execute(op: Op, ctx) -> subprocess.CompletedProcess:
    argv = [a.replace(WORK, str(ctx.workdir)) for a in op.argv]
    if ctx.trace:
        spans = ctx.workdir / "spans.json"
        cmd = [sys.executable, str(SPANS_PY), str(spans), *argv]
    else:
        cmd = [sys.executable, "-m", "susyqm.cli", *argv]
    proc = subprocess.run(cmd, cwd=ctx.workdir, env=ctx.env, capture_output=True,
                          timeout=TIMEOUT_S)
    if ctx.trace:
        ctx.span_lists.append(json.loads(spans.read_text()))
        spans.unlink()
    return proc


# -- checks -----------------------------------------------------------------------


def _contract(proc, exits: tuple) -> list[str]:
    """README: exit 1 usage, 2 computation; a one-line message, no traceback.

    argparse prints its usage block before the message; those lines are
    not counted as the message.
    """
    if proc.returncode not in exits:
        return [f"exit {proc.returncode}, expected {' or '.join(map(str, exits))}"]
    lines = proc.stderr.decode(errors="replace").splitlines()
    if any(ln.startswith("Traceback") for ln in lines):
        return [f"traceback on stderr ({len(lines)} lines)"]
    if lines and lines[0].startswith("usage:"):
        lines = lines[1:]
        while lines and lines[0].startswith(" "):
            lines = lines[1:]
    if len(lines) != 1 or not lines[0].startswith("susyqm"):
        return [f"stderr message has {len(lines)} lines"]
    return []


def _rows(text: str) -> list[list[str]]:
    return [ln.split(",") for ln in text.splitlines()[1:]]


def _check_energies(got: list[float], want: list[float], tol: float, what: str) -> list[str]:
    if len(got) < len(want):
        return [f"{what}: {len(got)} levels, expected {len(want)}"]
    return [f"{what} level {n}: {g!r} vs {w!r}"
            for n, (g, w) in enumerate(zip(got, want)) if not close(g, w, tol)]


def _closed(ref: dict) -> list[float]:
    spec = sq.closed_form_spectrum(ref["record"], ref["params"], ref["levels"])
    return [e.energy for e in spec.entries if e.valid]


def _r_next(record: str, doc: dict) -> float:
    return sq.get_record(record).r_function(doc["params_next"])


def _check_partner(text: str, ref: dict) -> list[str]:
    if ref["fmt"] == "csv":
        if not text.startswith("x,v_minus,v_plus,w\n"):
            return ["partner CSV header"]
        x, vm, vp, w = np.array(_rows(text), dtype=float).T
    else:
        doc = json.loads(text)
        x, vm, vp, w = (np.array(doc[k]) for k in ("x", "v_minus", "v_plus", "w"))
    w_ref, dw_ref = ref["w"](x), ref["dw"](x)
    for name, got, want in (("w", w, w_ref), ("v_minus", vm, w_ref**2 - dw_ref),
                            ("v_plus", vp, w_ref**2 + dw_ref)):
        if not np.all(np.abs(got - want) <= 1e-9 * (1.0 + np.abs(want))):
            return [f"partner {name} off by {np.max(np.abs(got - want)):.3e}"]
    return []


def _check_output(op: Op, text: str) -> list[str]:
    kind, ref = op.kind, op.ref
    if kind == "catalog":
        if ref["variant"] == "list":
            ok = text.splitlines() == CATALOG_NAMES
        elif ref["variant"] == "json":
            ok = [e["name"] for e in json.loads(text)] == CATALOG_NAMES
        else:
            ok = json.loads(text)["name"] == ref["name"]
        return [] if ok else ["catalog listing differs from the README's records"]
    if kind == "solve":
        energies = [float(r[1]) for r in _rows(text)]
        return _check_energies([e - energies[0] for e in energies], _closed(ref),
                               ENERGY_TOL, "oracle")
    if kind == "hierarchy":
        doc = json.loads(text)
        got = [lv["ground_energy"] for lv in doc["levels"] if lv["ground_energy"] is not None]
        return _check_energies(got, _closed(dict(ref, levels=ref["levels"] - 1)),
                               ENERGY_TOL, "hierarchy")
    if kind == "wavefunctions":
        table = np.array(_rows(text), dtype=float)
        fails = []
        for n in range(ref["levels"] + 1):
            psi = table[:, n + 1]
            if count_nodes(psi) != n:
                fails.append(f"psi_{n} has {count_nodes(psi)} nodes")
            if not close(trapezoid_norm2(table[:, 0], psi), 1.0, R_TOL):
                fails.append(f"psi_{n} is not normalized")
        return fails
    if kind == "spectrum":
        rows = _rows(text)
        want = _closed(ref)
        fails = _check_energies([float(r[1]) for r in rows], want, R_TOL, "algebraic")
        if ref["record"] in FAMILY_RECORDS:
            fails += _check_energies([float(r[2]) for r in rows], want, ENERGY_TOL, "oracle")
        return fails
    if kind in ("si-check", "si-check-search"):
        doc = json.loads(text)
        if not doc["found"]:
            return ["no shape-invariant transform found"]
        r = ref["r"] if "r" in ref else _r_next(ref["record"], doc)
        mean = doc["report"]["residual_mean"]
        return [] if close(mean, r, R_TOL) else [f"residual mean {mean!r} vs R {r!r}"]
    if kind in ("classify", "classify-w"):
        got = verdict(json.loads(text))
        return [] if got == ref["verdict"] else [f"verdict {got}, expected {ref['verdict']}"]
    if kind == "algebra-check":
        doc = json.loads(text)
        ok = doc["passed"] and doc["q_squared"] == 0.0 and doc["q_dagger_squared"] == 0.0
        return [] if ok else ["charge algebra not verified"]
    return _check_partner(text, ref)


def check(op: Op, proc, ctx) -> list[str]:
    if "exits" in op.ref:
        fails = _contract(proc, op.ref["exits"])
    elif proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()[-1:]
        fails = [f"exit {proc.returncode}: {tail}"]
    else:
        try:
            fails = _check_output(op, proc.stdout.decode())
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            fails = [f"unreadable output: {exc!r}"]
    golden = ctx.golden.get(ctx.index) if ctx.golden else None
    if golden is not None and not op.known_defect:
        if golden["argv"] != list(op.argv):
            raise RuntimeError(f"golden file does not match operation {ctx.index}")
        if hashlib.sha256(proc.stdout).hexdigest() != golden["stdout_sha256"]:
            fails.append("stdout differs from the recorded bytes")
    return fails


def load_golden(seed: int) -> dict:
    if seed != GOLDEN_SEED:
        return {}
    ops = json.loads(GOLDEN_PATH.read_text())["ops"]
    return {i: op for i, op in enumerate(ops)}


def golden_entry(op: Op, proc) -> dict:
    return {"argv": list(op.argv), "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest(),
            "stdout_bytes": len(proc.stdout), "exit": proc.returncode}
