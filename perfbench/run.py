"""susyqm benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload from the root of a source checkout (it imports susyqm from
``src/``), one operation at a time, and checks every operation's result.  A
workload generates its inputs in blocks whose mix of operations is the same
for every seed; the run ends at the first block boundary after ``--seconds``
(a cli-cold block is a single call).  The last stdout line is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones (END_TO_END); with
``--trace 1`` every susyqm layer is wrapped in timing spans and the metrics
are the per-layer ones, plus this run's own op latency so the tracing
overhead can be read off against an untraced run.

BLAS runs one thread and SUSY_SPECTRA_THREADS is removed from the
environment, so the library's default ``threads=1`` path is the one timed.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = {"cli-cold": "cli_cold", "search-sweep": "search_sweep",
             "oracle-verify": "oracle_verify"}
#: Extra set-ups in fresh interpreters; setup_s is the median with this run's own.
SETUP_REPEATS = 4

END_TO_END = {"setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "ops_per_s": "1/s", "ok_frac": "ratio", "peak_rss_mb": "MB"}


@dataclass
class Context:
    """What an operation needs besides its input: a temporary directory,
    the child environment, and, for cli-cold, traced spans and golden bytes."""

    workdir: Path
    env: dict
    trace: bool
    golden: dict = field(default_factory=dict)
    span_lists: list = field(default_factory=list)
    index: int = 0


@dataclass
class Outcome:
    lat_ms: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    failed: int = 0  # failed operations, known-defect inputs excluded
    defects: int = 0  # known-defect inputs not handled as the README requires
    blocks: int = 0
    golden: list = field(default_factory=list)


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--blocks", type=int, default=None,
                   help="run exactly this many blocks instead of --seconds")
    p.add_argument("--setup-only", action="store_true",
                   help="time import and input generation, print it, and exit")
    p.add_argument("--record-golden", action="store_true",
                   help="cli-cold: record the golden seed's stdout hashes")
    return p.parse_args(argv)


def _pin_threads() -> None:
    """Run before numpy loads; children inherit it.  One BLAS thread also
    removes the 10x outliers a two-thread OpenBLAS shows on the 16001-point
    tridiagonal solve on two cores."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.pop("SUSY_SPECTRA_THREADS", None)


def _setup(workload: str, seed: int):
    """Import susyqm and the workload, and generate the first block of inputs."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import susyqm  # noqa: F401

    module = importlib.import_module(WORKLOADS[workload])
    blocks = module.blocks(seed)
    first = next(blocks)
    return module, blocks, first, time.perf_counter() - t0


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def environment() -> dict:
    def version(pkg):
        return importlib.metadata.version(pkg)

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"), "scipy": version("scipy"), "sympy": version("sympy"),
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "SUSY_SPECTRA_THREADS": os.environ.get("SUSY_SPECTRA_THREADS", "unset"),
        "load": "one benchmark process, at most one child at a time",
    }


def _run_ops(module, blocks, block, ctx: Context, rec, args) -> Outcome:
    """Execute and check whole blocks until the deadline (or block count)."""
    out = Outcome()
    start = time.perf_counter()
    while True:
        for op in block:
            if rec is not None:
                rec.op = ctx.index
            t = time.perf_counter()
            try:
                result = module.execute(op, ctx)
            except Exception as exc:  # a failed operation, counted below
                result = exc
            out.lat_ms.append(1e3 * (time.perf_counter() - t))
            if isinstance(result, Exception):
                fails = [f"raised {type(result).__name__}: {result}"]
            else:
                fails = module.check(op, result, ctx)
                if args.record_golden:
                    out.golden.append(module.golden_entry(op, result))
            if fails:
                defect = getattr(op, "known_defect", False)
                out.defects += defect
                out.failed += not defect
                out.failures.append(f"op {ctx.index} {'(known defect) ' if defect else ''}"
                                    f"{op}: {'; '.join(fails)}")
            ctx.index += 1
        out.blocks += 1
        if (out.blocks >= args.blocks if args.blocks is not None
                else time.perf_counter() - start >= args.seconds):
            return out
        block = next(blocks)


def _tail(lat_ms: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples above it."""
    s = sorted(lat_ms)
    if len(s) < 11:
        return s[-1], 100.0
    return s[-11], 100.0 * (len(s) - 10) / len(s)


def _setup_repeats(args) -> list[float]:
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return times


def _end_to_end(args, out: Outcome, setup_s: float, peak_kb: float) -> dict:
    setups = [setup_s] + _setup_repeats(args)
    n = len(out.lat_ms)
    tail_ms, pct = _tail(out.lat_ms)
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_ms": statistics.median(out.lat_ms),
        "op_tail_ms": tail_ms,
        "ops_per_s": 1e3 * n / sum(out.lat_ms),
        "ok_frac": (n - out.failed - out.defects) / n,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    print(f"setup runs (s): {', '.join(f'{s:.4f}' for s in setups)}")
    print(f"op_tail_ms is p{pct:.1f} of {n} samples; failed_frac "
          f"{(out.failed + out.defects) / n:.4f} = 1 - ok_frac")
    return {k: (v, END_TO_END[k]) for k, v in values.items()}


def _layer_metrics(ctx: Context, module, rec, lat_ms: list[float]) -> dict:
    import spans

    agg = spans.aggregate([rec.spans] if module.IN_PROCESS else ctx.span_lists)
    m = {}
    for layer in spans.LAYERS:
        m[f"{layer}.calls"] = (agg["calls"][layer], "count")
        m[f"{layer}.self_ms"] = (agg["self_ms"][layer], "ms")
    m["shape_invariance.search_transform.incl_ms"] = (agg["incl_ms"][spans.SEARCH], "ms")
    m["eigensolver.nodes_solved"] = (agg["nodes_solved"], "count")
    m["shape_invariance.evals_per_search"] = (agg["evals_per_search"], "count")
    m["shape_invariance.search_hit_ratio"] = (agg["search_hit_ratio"], "ratio")
    for name, value in spans.cli_probe(ctx.env, ctx.workdir).items():
        m[name] = (value, "bool" if name == "cli.sympy_loaded" else "ms")
    m["trace.op_p50_ms"] = (statistics.median(lat_ms), "ms")
    m["trace.ops_ms"] = (sum(lat_ms), "ms")
    print(f"searches: {agg['searches']}, {agg['search_hits']} returned a transform")
    return m


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "susyqm" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no susyqm sources under {SRC}; run from a checkout\n")
        return 2
    _pin_threads()
    if args.record_golden:
        args.workload, args.trace = "cli-cold", 0
    module, blocks, block, setup_s = _setup(args.workload, args.seed)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.record_golden:
        args.seed, args.blocks = module.GOLDEN_SEED, module.GOLDEN_OPS
        blocks = module.blocks(args.seed)
        block = next(blocks)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("env:", json.dumps(environment()))
    ctx = Context(Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)), _child_env(),
                  bool(args.trace))
    if args.workload == "cli-cold" and not args.record_golden:
        ctx.golden = module.load_golden(args.seed)
    rec = None
    if ctx.trace and module.IN_PROCESS:
        import spans

        rec = spans.Recorder()
        spans.install(rec)
    try:
        out = _run_ops(module, blocks, block, ctx, rec, args)
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
        peak_kb = resource.getrusage(usage).ru_maxrss
        metrics = _layer_metrics(ctx, module, rec, out.lat_ms) if ctx.trace else {}
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)

    if args.record_golden:
        module.GOLDEN_PATH.parent.mkdir(exist_ok=True)
        module.GOLDEN_PATH.write_text(json.dumps(
            {"seed": args.seed, "ops": out.golden}, indent=1) + "\n")
        print(f"recorded {len(out.golden)} operations to {module.GOLDEN_PATH}")
    for line in out.failures:
        print("failure:", line)
    print(f"ops: {len(out.lat_ms)} attempted in {out.blocks} blocks, {out.failed} failed, "
          f"{out.defects} known-defect inputs not handled as the README requires")
    if not ctx.trace:
        metrics = _end_to_end(args, out, setup_s, peak_kb)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value} {unit}")
    print(json.dumps({
        "correct": out.failed == 0, "attempted": len(out.lat_ms), "failed": out.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
