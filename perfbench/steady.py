#!/usr/bin/env python3
"""Steadiness check: run each workload N times on one build and report,
per end-to-end metric, the median, the quartiles and the interquartile
spread as a share of the median, next to the metric's bound in
BENCHMARK.json. Run from the repository root:

    python3 perfbench/steady.py --runs 10 --seed 100
    python3 perfbench/steady.py --runs 5 --seed 7 --workload admission

Run i uses seed `--seed + i`. Every spread must stay within the metric's
bound for the benchmark to be usable; the tuning target is a third of the
bound. The runs are untraced; traced runs go through run.sh directly.
The per-run results and the summary are also written to
.perfbench/steady-<seed>.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    wall = time.monotonic() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result, wall


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=100)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--workload", action="append",
                    help="repeatable; default: every workload in BENCHMARK.json")
    args = ap.parse_args()
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    summary = {"seed": args.seed, "runs": args.runs, "seconds": args.seconds,
               "workloads": {}}
    worst_ok = True
    for w in workloads:
        values, walls, shares, correct = {}, [], set(), True
        for i in range(args.runs):
            result, wall = run_once(w, args.seed + i, args.seconds)
            walls.append(wall)
            correct = correct and result["correct"]
            shares.add((result["failed"], result["attempted"]) if result["failed"] else 0)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(f"  {w} seed {args.seed + i}: {wall:.1f}s attempted={result['attempted']} "
                  f"failed={result['failed']}", flush=True)
        print(f"{w}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f}s, "
              f"correct={correct}, failed shares={sorted(map(str, shares))}")
        print(f"  {'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        rows = {}
        for name, vs in values.items():
            med = statistics.median(vs)
            q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if spread > bound:
                    flag = "  OVER BOUND"
                    worst_ok = False
                elif spread > bound / 3:
                    flag = "  over a third"
            print(f"  {name:<34} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.2%} "
                  f"{'' if bound is None else bound:>6}{flag}")
            rows[name] = {"values": vs, "median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bound}
        summary["workloads"][w] = {"metrics": rows, "walls": walls, "correct": correct}
    out = f".perfbench/steady-{args.seed}.json"
    with open(out, "w") as f:
        json.dump(summary, f, indent=1)
    print(f"written {out}")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
