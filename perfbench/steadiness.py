#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's end-to-end metrics.

Runs perfbench/run.py once per seed on each named workload and prints, per
metric, the median, the first and third quartiles of the per-run values
and their spread (q3 - q1) / median next to the metric's bound from
BENCHMARK.json. Run from the repository root:

    python3 perfbench/steadiness.py --seeds 1-10 [--workloads a,b] [--seconds S]
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workloads.split(","):
        values = {}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if out.returncode != 0:
                print(out.stderr[-2000:], file=sys.stderr)
                return 1
            result = json.loads(out.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed runs")
                status = 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
                flush=True)
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)[0], \
                statistics.median(vals), statistics.quantiles(vals, n=4)[2]
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]
            flag = "ok" if spread < bound / 3 else \
                "within bound" if spread <= bound else "OVER BOUND"
            print(f"  {workload:<15} {name:<15} median {med:.6g}  q1 {q1:.6g}"
                  f"  q3 {q3:.6g}  spread {spread:.4f}  bound {bound}  {flag}",
                  flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
