#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

From the repository root:

    python3 perfbench/spread.py --workload run-miss --seeds 1-10 --seconds 20

For every metric it prints the median and the quartile spread
(Q3 - Q1) / median over the runs, with quartiles as
statistics.quantiles(values, n=4) gives them, next to the bound in
BENCHMARK.json. Use --trace 1 for the per-layer metrics (no bounds).
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--values", action="store_true", help="also print every run's value")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    units = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed", str(seed),
                                  "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        if not last["correct"]:
            sys.exit(f"seed {seed}: incorrect run: {last}")
        for name, m in last["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed}: attempted={last['attempted']} failed={last['failed']}", file=sys.stderr)

    print(f"{'metric':40} {'median':>14} {'spread':>8} {'bound':>6}  unit")
    for name, vals in values.items():
        med = statistics.median(vals)
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
        spread = (q[2] - q[0]) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or name == "setup_s" or spread <= bound / 3 else "  WIDE"
        print(f"{name:40} {med:14.6g} {spread:8.4f} {bound if bound is not None else '-':>6}  {units[name]}{flag}")
        if args.values:
            print("    " + " ".join(f"{v:.6g}" for v in vals))


if __name__ == "__main__":
    main()
