"""Per-layer timing spans around susyqm's public functions, installed from outside.

``install`` replaces each traced function with a wrapper that records a span
(layer name, parent span, operation id, start, end) and, for a few layers, a
count.  ``classify``, ``cli`` and ``catalog`` import these functions by name,
so the wrapper is written into every loaded ``susyqm`` module that holds the
original object, not just the defining one.  Spans stay in memory until the
run ends; ``aggregate`` turns them into per-layer figures.  Self time is a
span's duration minus the time its child spans cover.

Run as a script, this file executes one traced CLI call in place of
``python -m susyqm.cli``: ``python spans.py SPANS_OUT ARG...`` writes the
call's spans to SPANS_OUT and exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import subprocess
import sys
import time

#: Layer name -> (module, attribute) pairs it covers.  "Class.method" names a
#: method patched on the class itself.
LAYERS = {
    "expressions.parse_expression": [("susyqm.expressions", "parse_expression")],
    "expressions.compile": [("susyqm.expressions", "compile_on_grid"),
                            ("susyqm.expressions", "compile_scalar")],
    "susy.w_eval": [("susyqm.susy", "SuperpotentialFamily.w_grid"),
                    ("susyqm.susy", "SuperpotentialFamily.w_prime_grid")],
    "susy.partner_potentials": [("susyqm.susy", "partner_potentials")],
    "susy.zero_mode": [("susyqm.susy", "zero_mode")],
    "susy.charge_algebra": [("susyqm.susy", "charge_matrices"),
                            ("susyqm.susy", "verify_algebra")],
    "susy.block_spectra": [("susyqm.susy", "block_spectra")],
    "susy.build_hierarchy": [("susyqm.susy", "build_hierarchy")],
    "eigensolver.solve_lowest": [("susyqm.eigensolver", "solve_lowest")],
    "shape_invariance.si_residual": [("susyqm.shape_invariance", "si_residual")],
    "shape_invariance.search_transform": [("susyqm.shape_invariance", "search_transform")],
    "shape_invariance.wavefunction_chain": [("susyqm.shape_invariance",
                                             "wavefunction_chain")],
    "classify.classify_family": [("susyqm.classify", "classify_family")],
}

SEARCH = "shape_invariance.search_transform"
RESIDUAL = "shape_invariance.si_residual"
SOLVE = "eigensolver.solve_lowest"

# Span fields, stored as lists to keep the per-call cost small.
NAME, PARENT, OP, START, END, COUNT = range(6)


class Recorder:
    """In-memory span store for one process; single-threaded callers only."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, parent, self.op, 0.0, 0.0, 0]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()


def _count(layer: str, args: tuple, kwargs: dict, out) -> int:
    """Work count attached to a span: nodes solved, or 1 for a search hit."""
    if layer == SOLVE:
        ham = args[0] if args else kwargs["ham"]
        k = args[1] if len(args) > 1 else kwargs["k"]
        return ham.dim * k
    if layer == SEARCH:
        return int(out is not None)
    return 0


def _wrap(rec: Recorder, layer: str, fn):
    counted = layer in (SOLVE, SEARCH)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = rec.open(layer)
        try:
            out = fn(*args, **kwargs)
            if counted:
                span[COUNT] = _count(layer, args, kwargs, out)
            return out
        finally:
            rec.close(span)

    return traced


def install(rec: Recorder) -> None:
    """Wrap every LAYERS target in all ``susyqm`` modules loaded so far."""
    loaded = [m for n, m in sys.modules.items()
              if n == "susyqm" or n.startswith("susyqm.")]
    for layer, targets in LAYERS.items():
        for modname, attr in targets:
            mod = importlib.import_module(modname)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                setattr(cls, meth, _wrap(rec, layer, cls.__dict__[meth]))
                continue
            orig = getattr(mod, attr)
            wrapped = _wrap(rec, layer, orig)
            for m in loaded:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)


def aggregate(span_lists: list[list[list]]) -> dict:
    """Per-layer calls, self and inclusive ms, and the search counters.

    Each list holds one process's spans; parent indices are local to it.
    """
    calls = {layer: 0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    incl_s = {layer: 0.0 for layer in LAYERS}
    nodes = hits = evals_in_search = 0
    for spans in span_lists:
        child_s = [0.0] * len(spans)
        for span in spans:
            if span[PARENT] >= 0:
                child_s[span[PARENT]] += span[END] - span[START]
        for i, span in enumerate(spans):
            name, dur = span[NAME], span[END] - span[START]
            calls[name] += 1
            incl_s[name] += dur
            self_s[name] += dur - child_s[i]
            if name == SOLVE:
                nodes += span[COUNT]
            elif name == SEARCH:
                hits += span[COUNT]
            elif name == RESIDUAL:
                p = span[PARENT]
                while p >= 0 and spans[p][NAME] != SEARCH:
                    p = spans[p][PARENT]
                evals_in_search += p >= 0
    searches = calls[SEARCH]
    return {
        "calls": calls,
        "self_ms": {k: 1e3 * v for k, v in self_s.items()},
        "incl_ms": {k: 1e3 * v for k, v in incl_s.items()},
        "nodes_solved": nodes,
        "searches": searches,
        "search_hits": hits,
        "evals_per_search": evals_in_search / searches if searches else 0.0,
        "search_hit_ratio": hits / searches if searches else 0.0,
    }


def _traced_cli(spans_out: str, argv: list[str]) -> int:
    import susyqm.cli

    rec = Recorder()
    install(rec)
    rec.op = 0
    try:
        code = susyqm.cli.main(argv)
    except SystemExit as exc:  # argparse usage errors exit from inside main
        code = 0 if exc.code is None else exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(spans_out, "w") as fh:
            json.dump(rec.spans, fh)
    return code


# -- CLI import and dispatch probe --------------------------------------------------

PROBE_REPEATS = 3

#: One cheap call per subcommand, timed through ``susyqm.cli.main`` after import.
PROBE_ARGV = [
    ["catalog"],
    ["solve", "--catalog", "morse"],
    ["partner", "--w", "2*tanh(x)", "--points", "401"],
    ["hierarchy", "--catalog", "shifted-harmonic", "--depth", "2", "--output", "{work}"],
    ["si-check", "--catalog", "poschl-teller"],
    ["spectrum", "--catalog", "morse"],
    ["wavefunctions", "--catalog", "poschl-teller", "--levels", "1"],
    ["classify", "--catalog", "morse"],
    ["algebra-check", "--w", "2*tanh(x)", "--points", "401"],
]

_PROBE = r"""
import contextlib, io, json, sys, time
import susyqm.cli as cli
sys.stderr.write("PROBE-IMPORTED\n")
main_s, sympy_loaded = 0.0, None
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        t = time.perf_counter()
        code = cli.main(argv)
        main_s += time.perf_counter() - t
    if sympy_loaded is None:
        sympy_loaded = "sympy" in sys.modules
    if code != 0:
        raise SystemExit(f"probe call {argv} exited {code}")
print(json.dumps({"main_ms": 1e3 * main_s, "sympy_loaded": sympy_loaded}))
"""


def _importtime(lines: list[str]) -> list[tuple[int, str, float, float]]:
    """(depth, module, self ms, cumulative ms) rows of ``-X importtime`` output."""
    rows = []
    for line in lines:
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        head, cum, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        rows.append((depth, name.strip(), float(head) / 1e3, float(cum) / 1e3))
    return rows


def _outermost_ms(rows, prefix: str) -> float:
    """Cumulative ms of modules under ``prefix`` not imported by another such module.

    importtime prints a module after the modules it imports, so walking the
    rows backwards visits each importer before its imports.
    """
    total, stack = 0.0, []
    for depth, name, _, cum in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        mine = name == prefix or name.startswith(prefix + ".")
        if mine and not any(n == prefix or n.startswith(prefix + ".") for _, n in stack):
            total += cum
        stack.append((depth, name))
    return total


def _probe_once(env: dict, workdir) -> dict:
    argv = [[a.replace("{work}", str(workdir)) for a in call] for call in PROBE_ARGV]
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", _PROBE, json.dumps(argv)],
                          env=env, cwd=workdir, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"CLI probe failed: {proc.stderr[-2000:]}")
    lines = proc.stderr.splitlines()
    rows = _importtime(lines[:lines.index("PROBE-IMPORTED")])
    result = json.loads(proc.stdout.splitlines()[-1])
    return {
        "cli.import_ms": sum(cum for depth, name, _, cum in rows
                             if depth == 0 and name.split(".")[0] == "susyqm"),
        "cli.import_sympy_ms": _outermost_ms(rows, "sympy"),
        "cli.import_scipy_ms": _outermost_ms(rows, "scipy"),
        # 0 once the catalog module is no longer imported with the CLI
        "catalog.import_self_ms": next((s for _, name, s, _ in rows
                                        if name == "susyqm.catalog"), 0.0),
        "cli.sympy_loaded": int(result["sympy_loaded"]),
        "cli.main_ms": result["main_ms"],
    }


def cli_probe(env: dict, workdir) -> dict:
    """Import figures, sympy presence and main() time from fresh interpreters.

    ``cli.import_*`` come from ``-X importtime`` while ``susyqm.cli`` is
    imported; ``cli.sympy_loaded`` is read after an in-process ``catalog``
    call; ``cli.main_ms`` is the summed main() time over PROBE_ARGV.  Each
    figure is the median over PROBE_REPEATS interpreters: one import can
    read 30% off on a shared two-core machine.
    """
    runs = [_probe_once(env, workdir) for _ in range(PROBE_REPEATS)]
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}

if __name__ == "__main__":
    sys.exit(_traced_cli(sys.argv[1], sys.argv[2:]))
