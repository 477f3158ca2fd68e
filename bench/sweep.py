#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 bench/sweep.py --workloads g20-panel,structure --seeds 301-310 \
        --seconds 50 --trace 0 [--out bench/out/sweep.json]

For every workload and metric it prints the median of the runs, their first
and third quartiles (``statistics.quantiles(values, n=4)``) and the spread,
the distance between the quartiles as a share of the median, next to the
metric's bound in ``BENCHMARK.json``. Runs are made one after another.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="N or FIRST-LAST")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            print(f"{workload} seed {seed}: {result['failed']}/{result['attempted']} failed, "
                  f"correct={result['correct']}", flush=True)
        metrics = {name: dict(summary([r["metrics"][name]["value"] for r in runs]),
                              unit=runs[0]["metrics"][name]["unit"])
                   for name in runs[0]["metrics"]}
        report[workload] = {"seeds": args.seeds,
                            "attempted": [r["attempted"] for r in runs],
                            "failed": [r["failed"] for r in runs],
                            "correct": all(r["correct"] for r in runs),
                            "metrics": metrics}
        for name, row in metrics.items():
            bound = bounds.get(name)
            print(f"  {name:48s} median {row['median']:<12.6g} q1 {row['q1']:<12.6g} "
                  f"q3 {row['q3']:<12.6g} spread {row['spread']:.3f}"
                  + (f" (bound {bound})" if bound is not None else ""))
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
