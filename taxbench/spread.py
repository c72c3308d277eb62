"""Run the benchmark on several seeds and report each end-to-end metric's
spread: the interquartile range of its values over their median, as
`statistics.quantiles(values, n=4)` gives the quartiles.

    python3 taxbench/spread.py --seeds 301-310 --out taxbench/runs/seeds-301-310.jsonl
    python3 taxbench/spread.py --report taxbench/runs/seeds-301-310.jsonl

Run it from the root of the repository. Each run's result line is kept
in the JSON-lines file given by --out, so a set's figures can be checked
later with --report. Workloads run interleaved (seed by seed), so a slow
phase of the machine falls on every workload alike.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time


# A metric line as the benchmark prints it: name, value, unit, counts.
METRIC_LINE = re.compile(r"^(\S+)\s+(-?[0-9.]+)\s+(\S+)\s+\(n=")


def seeds_of(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(bench, workload, seed, trace):
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    t = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True, env=env)
    lines = p.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    printed = {}
    for line in lines:
        m = METRIC_LINE.match(line)
        if m:
            printed[m.group(1)] = float(m.group(2))
    return {
        "workload": workload,
        "seed": seed,
        "exit": p.returncode,
        "elapsed_s": round(time.time() - t, 1),
        "result": result,
        "printed": printed,
    }


def spread_of(values):
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q[2] - q[0]) / med


def report(records, bench):
    for w in [w["name"] for w in bench["workloads"]]:
        runs = [r for r in records if r["workload"] == w and r["result"]]
        if not runs:
            continue
        bad = [r["seed"] for r in runs if not r["result"]["correct"] or r["exit"]]
        print(f"== {w}: {len(runs)} runs, incorrect or failed: {bad or 'none'}")
        for m in bench["end_to_end"]:
            values = [r["result"]["metrics"][m["name"]]["value"] for r in runs
                      if m["name"] in r["result"]["metrics"]]
            if len(values) < 2:
                print(f"{m['name']:<26} {len(values)} values")
                continue
            med, spread = spread_of(values)
            verdict = "ok" if spread <= m["bound"] / 3 else (
                "within" if spread <= m["bound"] else "OVER")
            print(f"{m['name']:<26} median {med:>12.3f} spread {spread:6.3f} "
                  f"bound {m['bound']} {verdict}")
        bounded = {m["name"] for m in bench["end_to_end"]}
        for name in runs[0].get("printed", {}):
            values = [r["printed"][name] for r in runs if name in r.get("printed", {})]
            if name in bounded or len(values) < 2:
                continue
            med, spread = spread_of(values)
            print(f"{name:<26} median {med:>12.3f} spread {spread:6.3f} (no bound)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", help="e.g. 301-310 or 1,5,9")
    ap.add_argument("--workloads", help="comma-separated; default all")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", help="JSON-lines file the runs are appended to")
    ap.add_argument("--report", help="only report the spreads of this file")
    args = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    if args.report:
        report([json.loads(l) for l in open(args.report) if l.strip()], bench)
        return
    if not args.seeds:
        sys.exit("--seeds or --report is required")
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    records = []
    out = open(args.out, "a") if args.out else None
    for seed in seeds_of(args.seeds):
        for w in workloads:
            rec = run(bench, w, seed, args.trace)
            records.append(rec)
            res = rec["result"]
            print(f"{w} seed {seed}: exit {rec['exit']} {rec['elapsed_s']} s "
                  + (f"correct={res['correct']} attempted={res['attempted']} "
                     f"failed={res['failed']}" if res else "no result"),
                  flush=True)
            if out:
                out.write(json.dumps(rec) + "\n")
                out.flush()
    if args.trace == 0:
        report(records, bench)


if __name__ == "__main__":
    main()
