"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/spread.py --workload kx5-q --seeds 1-10 --seconds 30 \\
        [--trace 0|1] [--out runs.json]

For every metric it prints the median of the per-run values, the quartiles
as ``statistics.quantiles(values, n=4)`` gives them, and the spread
(q3 - q1) / median next to the metric's bound in BENCHMARK.json.  Runs are
sequential, so they never compete with each other for the CPU.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write every run's result here")
    args = p.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    runs = []
    for seed in _seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        runs.append(result)
        print(f"seed {seed}: " + "  ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            if k in bounds or args.trace), flush=True)

    print(f"{'metric':36} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    summary = {}
    for name in runs[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else None
        summary[name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
        bound = bounds.get(name)
        print(f"{name:36} {med:12.6g} {q1:12.6g} {q3:12.6g} "
              f"{'-' if spread is None else f'{spread:.4f}':>8} "
              f"{'' if bound is None else bound:>6}")
    if args.out:
        Path(args.out).write_text(json.dumps({
            "workload": args.workload, "seconds": seconds, "trace": args.trace,
            "summary": summary, "runs": runs}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
