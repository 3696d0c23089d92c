#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

From the repository root:

    python3 perfbench/spread.py [--workloads paper_kv,fio_range] \
        [--seeds 1-10] [--trace 0] [--out results.json]
    python3 perfbench/spread.py --load new.json --compare old.json

For every workload and end-to-end metric it prints the median, the
quartiles (Python's statistics.quantiles, n=4) and the spread, i.e. the
interquartile distance as a share of the median, next to the metric's
bound from BENCHMARK.json. A spread above a third of the bound is
flagged (setup_s excepted: its bound limits the median's drift only).

--load reads the runs from an earlier --out file instead of running;
--compare prints, per metric, how far this set's median moved from
another set's in the metric's worse direction, flagging moves past the
bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    ap.add_argument("--load")
    ap.add_argument("--compare")
    opts = ap.parse_args()
    loaded = None
    if opts.load:
        with open(opts.load) as f:
            loaded = json.load(f)
        opts.workloads = ",".join(loaded)
    metrics = bench["end_to_end"] if opts.trace == 0 else bench["per_layer"]
    results = {}
    flagged = 0
    for workload in opts.workloads.split(","):
        runs = []
        seeds = [None] * len(loaded[workload]) if loaded else parse_seeds(opts.seeds)
        for i, seed in enumerate(seeds):
            if loaded:
                r = loaded[workload][i]
            else:
                r = run(bench["command"], workload, seed, bench["run_seconds"], opts.trace)
            if not r["correct"] or r["failed"]:
                print(f"{workload} seed {seed}: {r['failed']} failed checks")
                flagged += 1
            runs.append(r)
        results[workload] = runs
        print(f"\n{workload}: {len(runs)} runs, seeds {opts.seeds}")
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else 0.0
            bound = m.get("bound")
            flag = ""
            if bound is not None and m["name"] != "setup_s" and spread >= bound / 3:
                flag = "  <-- spread >= bound/3"
                flagged += 1
            print(f"  {m['name']:<28} median {med:<14.6g} q1 {q1:<14.6g} q3 {q3:<14.6g} "
                  f"spread {spread:.4f}" + (f" bound {bound}" if bound is not None else "") + flag)
    if opts.compare:
        with open(opts.compare) as f:
            other = json.load(f)
        print("\nmedian drift against", opts.compare, "(+ = worse)")
        for workload, runs in results.items():
            for m in metrics:
                med = lambda rs: statistics.median(r["metrics"][m["name"]]["value"] for r in rs)
                new, old = med(runs), med(other[workload])
                worse = (new - old) / abs(old) if old else 0.0
                if m["better"] == "higher":
                    worse = -worse
                flag = ""
                if "bound" in m and worse > m["bound"]:
                    flag = "  <-- worse than bound"
                    flagged += 1
                print(f"  {workload:<16} {m['name']:<28} {old:<14.6g} -> {new:<14.6g} {worse:+.4f}{flag}")
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(results, f, indent=1)
    sys.exit(1 if flagged else 0)


if __name__ == "__main__":
    main()
