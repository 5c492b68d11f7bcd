#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs every named workload untraced once per seed and prints each
end-to-end metric's median and quartile spread ((q3 - q1) / median, from
statistics.quantiles(values, n=4)) next to the bound BENCHMARK.json
fixes. Run from the repository root:

    python3 perfbench/steady.py --seeds 1-10 fig5-adaptive quote-miss stream-feed

--repeat K runs each seed K times, so `--seeds 1 --repeat 10` separates
run-to-run noise from seed-to-seed variation. --sets 2 makes two sets of
the same runs, interleaved run by run (alternating which set goes first),
and also prints how far the second set's median is worse than the
first's, as a share of the first.
"""
import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(args, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed} reported an incorrect run:\n{proc.stdout[-2000:]}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("workloads", nargs="+")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    seeds = [s for s in parse_seeds(args.seeds) for _ in range(args.repeat)]
    print("| workload | set | metric | median | q1 | q3 | spread | bound | spread/bound | worse than set 1 |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for workload in args.workloads:
        sets = [[] for _ in range(args.sets)]
        for i, seed in enumerate(seeds):
            order = range(args.sets) if i % 2 == 0 else reversed(range(args.sets))
            for k in order:
                sets[k].append(run(spec["command"], workload, seed, spec["run_seconds"]))
        first = {}
        for k, rows in enumerate(sets, 1):
            for m in metrics:
                name = m["name"]
                values = [r[name] for r in rows]
                q1, med, q3 = statistics.quantiles(values, n=4)
                spread = (q3 - q1) / med
                worse = ""
                if k == 1:
                    first[name] = med
                else:
                    sign = 1 if m["better"] == "lower" else -1
                    worse = f"{sign * (med - first[name]) / first[name]:+.4f}"
                print(f"| {workload} | {k} | {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | {m['bound']} | {spread / m['bound']:.2f} | {worse} |", flush=True)


if __name__ == "__main__":
    main()
