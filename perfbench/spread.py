#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

For every workload, runs `bash perfbench/run.sh` once per seed and prints,
for each metric of the last JSON line, the median of the values, their
quartile spread as a share of the median (statistics.quantiles, n=4), and
the bound from BENCHMARK.json where it has one.

    python3 perfbench/spread.py --workloads sweep,serve --seeds 11-20 [--trace 0]

Run from the repository root.
"""
import argparse
import json
import statistics
import subprocess
import sys


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace", default="0")
    ap.add_argument("--values", action="store_true", help="print every value")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    for workload in args.workloads.split(","):
        values, bad = {}, 0
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                bad += 1
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                bad += 1
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        print(f"{workload}: {len(args.seeds)} seeds, {bad} failed or incorrect")
        for name, xs in sorted(values.items()):
            med = statistics.median(xs)
            q = statistics.quantiles(xs, n=4) if len(xs) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None else ("  ok" if spread <= bound / 3 else "  WIDE")
            if name == "setup_s":
                flag = "  (only its median is gated)"
            print(f"  {name:40s} median {med:12.5g}  spread {spread:7.4f}  bound {bound}{flag}")
            if args.values:
                print("    " + " ".join(f"{x:.5g}" for x in xs))


if __name__ == "__main__":
    main()
