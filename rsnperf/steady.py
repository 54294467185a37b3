#!/usr/bin/env python3
"""Steadiness check for the rsnperf benchmark.

Runs the benchmark command of BENCHMARK.json several times per workload,
each run with another seed, in one or two sets, and reports per
end-to-end metric and workload:

  * the spread of each set: the distance between the first and third
    quartile of its values (statistics.quantiles(values, n=4)) as a share
    of their median, which must stay within the metric's bound (setup_s
    is exempt);
  * with two sets, whether the second set's median is worse than the
    first's by more than the metric's bound.

Run from the repository root:

  python3 rsnperf/steady.py --runs 10 --sets 2
  python3 rsnperf/steady.py --workloads served-mix --runs 5 --sets 1

Exit status is 0 when every checked metric is within its bound.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.stderr.write(p.stdout + p.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {p.returncode}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        raise SystemExit(f"{workload} seed {seed}: output check failed")
    return {k: v["value"] for k, v in res["metrics"].items()}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def worse(first, second, better):
    """Share by which the second median is worse than the first."""
    a, b = statistics.median(first), statistics.median(second)
    if a == 0:
        return 0.0
    return (b - a) / a if better == "lower" else (a - b) / a


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--bench", default="BENCHMARK.json")
    ap.add_argument("--workloads", nargs="*", help="default: every workload")
    ap.add_argument("--runs", type=int, default=10, help="runs per set and workload")
    ap.add_argument("--sets", type=int, choices=(1, 2), default=2)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    a = ap.parse_args()

    bench = json.load(open(a.bench))
    seconds = a.seconds or bench["run_seconds"]
    workloads = a.workloads or [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]
    ok = True
    for wl in workloads:
        sets = []
        for s in range(a.sets):
            vals = {m["name"]: [] for m in metrics}
            for i in range(a.runs):
                seed = a.seed_base + s * a.runs + i
                got = run_once(bench["command"], wl, seed, seconds)
                for m in metrics:
                    vals[m["name"]].append(got[m["name"]])
                print(f"{wl} set {s + 1} seed {seed}: " +
                      " ".join(f"{k}={v:.4g}" for k, v in sorted(got.items())), flush=True)
            sets.append(vals)
        print(f"\n{wl}: {'metric':<14} {'bound':>6} " +
              " ".join(f"{'median' + str(s + 1):>11} {'spread' + str(s + 1):>8}" for s in range(a.sets)) +
              ("   worse   verdict" if a.sets == 2 else "   verdict"))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols, verdict = [], "ok"
            for vals in sets:
                sp = spread(vals[name])
                cols.append(f"{statistics.median(vals[name]):>11.5g} {sp:>8.3f}")
                if name != "setup_s" and sp > bound:
                    verdict = "SPREAD"
            line = f"{wl}: {name:<14} {bound:>6.2f} " + " ".join(cols)
            if a.sets == 2:
                w = worse(sets[0][name], sets[1][name], m["better"])
                if w > bound:
                    verdict = "WORSE"
                line += f" {w:>7.3f}"
            if verdict != "ok":
                ok = False
            print(line + f"   {verdict}")
        print(flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
