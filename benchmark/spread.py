#!/usr/bin/env python3
"""Runs the benchmark over several seeds and prints each metric's spread.

Run from the repository root:

    python3 benchmark/spread.py --workload durable-2part --seeds 1-10 [--trace 0]

For every metric it prints the median, the first and third quartiles as
statistics.quantiles(values, n=4) gives them, and the spread: the distance
between the quartiles as a share of the median. For end-to-end metrics it
also prints the bound BENCHMARK.json fixes and whether the spread is below
a third of it. The raw result lines are appended to --log when given.
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
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds")
    ap.add_argument("--log")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    seconds = args.seconds or str(spec["run_seconds"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    units = {}
    for seed in seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", seconds, "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else ""
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        result = json.loads(last)
        if args.log:
            with open(args.log, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, "result": result}) + "\n")
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: correct={result['correct']} failed={result['failed']}")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
            units[name] = m["unit"]
        print(f"seed {seed} done", file=sys.stderr)

    print(f"{'metric':40} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0], 0, vals[0])
        spread = (q3 - q1) / med if med else 0.0
        line = f"{name:40} {med:12.4f} {q1:12.4f} {q3:12.4f} {spread:8.4f}"
        if name in bounds:
            b = bounds[name]
            flag = "ok" if spread < b / 3 else ("WIDE" if spread < b else "OVER")
            line += f" {b:6.2f} {flag}"
        print(line + f" {units[name]}")


if __name__ == "__main__":
    main()
