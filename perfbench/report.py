"""Every workload's end-to-end metrics, then its traced per-layer figures.

    python3 perfbench/report.py [--seed N] [--seconds S]

For each workload this makes one untraced run (the end-to-end metrics) and
one traced run (the per-layer metrics), and prints the tracing overhead, the
run environment, and the share of operation time taken by the layer the
workload is built to stress.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli-cold", "search-sweep", "oracle-verify")


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace} failed:\n{proc.stderr[-3000:]}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), lines[:-1]


def dominant_share(workload: str, layers: dict) -> str:
    def v(name):
        return layers[name]["value"]

    if workload == "cli-cold":
        share = v("cli.import_ms") / v("trace.op_p50_ms")
        return f"import (cli.import_ms) is {share:.0%} of the traced op_p50_ms"
    if workload == "search-sweep":
        share = v("shape_invariance.search_transform.incl_ms") / v("trace.ops_ms")
        return f"search_transform with its callees is {share:.0%} of traced op time"
    busy = sum(m["value"] for k, m in layers.items()
               if k.endswith(".self_ms") and k.split(".")[0] in ("eigensolver", "susy"))
    return f"eigensolver + susy self time is {busy / v('trace.ops_ms'):.0%} of traced op time"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    args = p.parse_args()
    for workload in WORKLOADS:
        e2e, log = run(workload, args.seed, args.seconds, 0)
        layers, _ = run(workload, args.seed, args.seconds, 1)
        print(f"== {workload} (seed {args.seed}, {args.seconds:g} s): "
              f"{e2e['attempted']} ops, {e2e['failed']} failed, correct={e2e['correct']}")
        for line in log:
            if line.startswith(("env:", "ops:", "op_tail_ms", "failure:")):
                print("  " + line)
        for name, m in e2e["metrics"].items():
            print(f"  {name:16s} {m['value']:14.6g} {m['unit']}")
        overhead = (layers["metrics"]["trace.op_p50_ms"]["value"]
                    / e2e["metrics"]["op_p50_ms"]["value"] - 1.0)
        print(f"  traced run ({layers['attempted']} ops): tracing overhead on op_p50_ms "
              f"{overhead:+.1%}; {dominant_share(workload, layers['metrics'])}")
        for name, m in layers["metrics"].items():
            print(f"    {name:44s} {m['value']:14.6g} {m['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
