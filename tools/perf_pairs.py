#!/usr/bin/env python3
"""Compare two checkouts on one benchmark workload over 10 alternating pairs.

Usage: python3 tools/perf_pairs.py PARENT_DIR CHANGE_DIR --workload W [--seed 1]

Runs BENCHMARK.json's command (perfbench/run.py) inside each checkout for the
benchmark's run_seconds with tracing off, so each checkout builds and runs
its own binary under its own .bench_build. The order flips every pair: the
parent runs first in pairs 1, 3, 5, 7 and 9, the change in the other five.
Ten pairs is the fewest a gain may be claimed from, so it is not settable.
The script reads only CHANGE_DIR's BENCHMARK.json and writes no file itself.

For each end-to-end metric it prints both medians with their interquartile
ranges (inclusive quartiles), the pairs the change wins (ties count for
neither side) and a verdict:
  gain        the change wins at least 9 of 10 pairs and its median is
              better than the parent's by more than the parent's IQR;
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json;
  unresolved  either side's IQR is wider than the bound, unless every change
              run reads better than every parent run;
  within      none of these.
It also says whether the simulated metrics read the same in every run, and
prints each run's pass count (the `pass` lines of its stdout), since a run's
peak RSS grows with its passes.

Exit 1 when a run fails (nonzero exit, `correct` false or failed operations)
or a metric regresses.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

# The numbers CI's simulated-number gate pins: equal in every run of one
# seed, whatever the host did.
SIMULATED = ("sim_mcycles", "syscall_p50_cycles", "syscall_p99_cycles")
PAIRS = 10


def run_once(checkout, command, workload, seed, seconds):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)  # each checkout builds in its own tree
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") \
        else {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    return {
        "exit": done.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "passes": sum(1 for line in lines if line.startswith("pass")),
    }


def quartiles(values):
    return statistics.quantiles(values, n=4, method="inclusive")


def better(a, b, lower_is_better):
    return a < b if lower_is_better else a > b


def verdict(metric, parent, change):
    lower = metric["better"] == "lower"
    bound = metric["bound"]
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    wins = sum(better(c, p, lower) for p, c in zip(parent, change))
    gap = (pmed - cmed) if lower else (cmed - pmed)
    if wins >= 9 and gap > p3 - p1:
        return wins, "gain"
    if pmed != 0 and -gap / abs(pmed) > bound:
        return wins, "regression"
    every_better = all(better(c, p, lower) for c in change for p in parent)
    if pmed != 0 and max(p3 - p1, c3 - c1) / abs(pmed) > bound \
            and not every_better:
        return wins, "unresolved"
    return wins, "within"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_dir")
    ap.add_argument("change_dir")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(args.change_dir, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        ap.error(f"workload must be one of {', '.join(names)}")
    sides = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}
    runs = {"parent": [], "change": []}
    for i in range(PAIRS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            r = run_once(sides[side], bench["command"], args.workload,
                         args.seed, bench["run_seconds"])
            runs[side].append(r)
            print(f"pair {i + 1:2d} {side:6s} exit {r['exit']} passes "
                  f"{r['passes']} host_wall_s "
                  f"{r['metrics'].get('host_wall_s', float('nan')):.6g}",
                  file=sys.stderr, flush=True)

    ok = True
    print(f"workload {args.workload}, seed {args.seed}, {PAIRS} pairs "
          f"of {bench['run_seconds']} s runs, order flipped every pair")
    for side in ("parent", "change"):
        bad = [r for r in runs[side]
               if r["exit"] != 0 or not r["correct"] or r["failed"] != 0]
        ok = ok and not bad
        print(f"{side}: {len(bad)} failed runs; failed operations "
              f"{sum(r['failed'] for r in runs[side])} of "
              f"{sum(r['attempted'] for r in runs[side])}; passes per run "
              f"{[r['passes'] for r in runs[side]]}")
    if not ok:
        print("runs failed: no verdict")
        return 1

    sim = {tuple(r["metrics"].get(m) for m in SIMULATED)
           for side in runs for r in runs[side]}
    print("simulated metrics identical in every run: "
          + ("yes, " + " / ".join(f"{v:.12g}" for v in next(iter(sim)))
             if len(sim) == 1 else f"NO, {len(sim)} distinct readings"))

    print(f"{'metric':20s} {'parent median (IQR)':>26s} "
          f"{'change median (IQR)':>26s} {'move':>8s} {'wins':>6s} verdict")
    for metric in bench["end_to_end"]:
        name = metric["name"]
        parent = [r["metrics"][name] for r in runs["parent"]]
        change = [r["metrics"][name] for r in runs["change"]]
        p1, pmed, p3 = quartiles(parent)
        c1, cmed, c3 = quartiles(change)
        wins, v = verdict(metric, parent, change)
        ok = ok and v != "regression"
        move = f"{100 * (cmed - pmed) / pmed:+.1f}%" if pmed else "n/a"
        print(f"{name:20s} {f'{pmed:.6g} ({p3 - p1:.3g})':>26s} "
              f"{f'{cmed:.6g} ({c3 - c1:.3g})':>26s} {move:>8s} "
              f"{f'{wins}/{PAIRS}':>6s} {v}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
