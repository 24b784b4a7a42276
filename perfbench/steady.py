#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs two sets of ten runs of every workload, the second set started a
minute after the first ended, each run with its own seed (the first set
seeds 1000-1009, the second 1100-1109). Prints for every end-to-end metric
the median and the spread of each set (the distance between the first and
third quartile as a share of the median) and how far the second median is
from the first, against the metric's bound in BENCHMARK.json. Run it from
the root of the repository:

    python3 perfbench/steady.py

A metric passes when each set's spread is within its bound and the two
medians differ by no more than the bound, in either direction. setup_s is
held to the second rule only: each run times one cold set-up, from the
process's start, so its spread is that of single samples, and only the
median over a set's runs is a figure to compare. The failed share of
operations must be the same in every run, and every run correct.
The runs themselves go to .bench_out/steady-<time>.json.
"""

import json
import os
import statistics
import subprocess
import sys
import time

SETS = 2
RUNS = 10
GAP_S = 60
SEED_BASE = 1000


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    t0 = time.time()
    p = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                       text=True, timeout=900)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(p.stdout.strip().splitlines()[-1])
    res["wall_s"] = time.time() - t0
    return res


def spread(values):
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def worse(first, second, better):
    """How much worse the second median is, as a share of the first."""
    if better == "lower":
        return (second - first) / first
    return (first - second) / first


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd = bench["command"]
    seconds = bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    sets = []
    for s in range(SETS):
        if s > 0:
            time.sleep(GAP_S)
        runs = {}
        for w in names:
            runs[w] = []
            for i in range(RUNS):
                seed = SEED_BASE + 100 * s + i
                r = run_once(cmd, w, seed, seconds)
                runs[w].append(r)
                print(f"set {s + 1} {w} seed {seed}: correct={r['correct']} "
                      f"attempted={r['attempted']} failed={r['failed']} "
                      f"wall={r['wall_s']:.1f}s", flush=True)
        sets.append(runs)

    ok = True
    summary = {}
    for w in names:
        print(f"\n== {w}")
        print(f"{'metric':24} {'bound':>6} " +
              " ".join(f"{'median' + str(i + 1):>12} {'spread' + str(i + 1):>8}" for i in range(SETS)) +
              f" {'worse':>8}  verdict")
        shares = {r["failed"] / r["attempted"] for st in sets for r in st[w]}
        correct = all(r["correct"] for st in sets for r in st[w])
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols, meds, verdict = [], [], "ok"
            for st in sets:
                vals = [r["metrics"][name]["value"] for r in st[w]]
                med = statistics.median(vals)
                sp = spread(vals)
                meds.append(med)
                cols.append(f"{med:12.4g} {sp:8.3f}")
                if sp > bound and name != "setup_s":
                    verdict = "SPREAD"
            wz = worse(meds[0], meds[-1], m["better"])
            if abs(wz) > bound:
                verdict = "MOVED"
            ok = ok and verdict == "ok"
            summary.setdefault(w, {})[name] = {"medians": meds, "worse": wz, "verdict": verdict}
            print(f"{name:24} {bound:6.2f} {' '.join(cols)} {wz:8.3f}  {verdict}")
        print(f"failed share per run: {sorted(shares)}  all correct: {correct}")
        ok = ok and len(shares) == 1 and correct

    os.makedirs(".bench_out", exist_ok=True)
    out = os.path.join(".bench_out", time.strftime("steady-%Y%m%d-%H%M%S.json"))
    with open(out, "w") as f:
        json.dump({"sets": sets, "summary": summary}, f, indent=1)
    print(f"\n{'STEADY' if ok else 'NOT STEADY'} (runs in {out})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
