"""Determinism check: every count repeats exactly across two traced runs.

    python3 perfbench/selfcheck.py [--seed N]

Runs each workload twice with ``--trace 1`` on one seed and a fixed number
of blocks, and exits 1 if any count differs: every ``*.calls``,
``eigensolver.nodes_solved``, ``shape_invariance.evals_per_search``,
``shape_invariance.search_hit_ratio``, ``cli.sympy_loaded``, and the
attempted and failed operation counts.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: Blocks per run: one cycle of cli-cold's eight call kinds, one search-sweep
#: block, two oracle-verify blocks.
BLOCKS = {"cli-cold": 8, "search-sweep": 1, "oracle-verify": 2}
COUNTS = ("eigensolver.nodes_solved", "shape_invariance.evals_per_search",
          "shape_invariance.search_hit_ratio", "cli.sympy_loaded")


def counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--blocks", str(BLOCKS[workload]), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} failed:\n{proc.stderr[-3000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    out = {k: m["value"] for k, m in result["metrics"].items()
           if k.endswith(".calls") or k in COUNTS}
    out["attempted"], out["failed"] = result["attempted"], result["failed"]
    return out


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args()
    ok = True
    for workload in BLOCKS:
        first, second = counts(workload, args.seed), counts(workload, args.seed)
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        ok &= not diff
        print(f"{workload}: {len(first)} counts, "
              + (f"DIFFER {diff}" if diff else "all repeat exactly"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
