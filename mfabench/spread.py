#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance check
measures it: run the benchmark command once per seed, then report for
each end-to-end metric the median and the interquartile range
(statistics.quantiles(values, n=4)) as a share of the median, next to
the metric's bound from BENCHMARK.json.

    python3 mfabench/spread.py --workload place --seeds 1-10 [--trace 0]

Run from the repository root. Prints one row per metric and exits 1 if
a run failed, was incorrect, or a spread (setup_s excepted) reaches a
third of its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()
    spec = json.load(open("BENCHMARK.json"))
    values = {}
    ok = True
    for seed in seeds_of(args.seeds):
        cmd = spec["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", args.trace,
        ]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None or not result["correct"] or result["failed"]:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
            ok = False
            continue
        row = {k: v["value"] for k, v in result["metrics"].items()}
        print(f"seed {seed}: attempted {result['attempted']} "
              + " ".join(f"{k}={v:.4g}" for k, v in row.items()), flush=True)
        for k, v in row.items():
            values.setdefault(k, []).append(v)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for name, vals in values.items():
        if len(vals) < 2:
            continue
        q1, med, q3 = statistics.quantiles(vals, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound is not None:
            steady = spread < bound / 3 or name == "setup_s"
            verdict = f"bound {bound:.2f} {'ok' if steady else 'WIDE'}"
            ok &= steady
        print(f"{name:28s} median {statistics.median(vals):12.6g} "
              f"iqr/median {spread:7.2%} {verdict}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
