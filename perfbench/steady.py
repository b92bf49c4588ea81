"""Steadiness check: run the whole benchmark repeatedly and compare.

Runs every workload ``--runs`` times, one fresh ``run.py`` process per
run, each with another ``--seed``, alternating the workload order from
round to round.  For each end-to-end metric it prints the median, the
quartiles, the spread (``(q3 - q1) / median``) and that spread as a
share of the metric's bound in ``BENCHMARK.json``.  With ``--sets 2``
it repeats the whole set and also prints how far the second median
moved in the metric's worse direction, against the bound, and whether
the share of failed operations is the same in both sets.

    python3 perfbench/steady.py --runs 10 --sets 2 --json perfbench/out/steady.json

``--seconds`` defaults to the ``run_seconds`` of ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if out.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}"
        )
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_set(workloads: List[str], runs: int, seed_base: int,
            seconds: int) -> Dict[str, List[dict]]:
    results: Dict[str, List[dict]] = {w: [] for w in workloads}
    for r in range(runs):
        order = workloads if r % 2 == 0 else list(reversed(workloads))
        for workload in order:
            result = run_once(workload, seed_base + r, seconds)
            results[workload].append(result)
            print(f"  run {r + 1}/{runs} {workload}: "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} "
                  f"correct={result['correct']}", flush=True)
    return results


def summarize(results: Dict[str, List[dict]], spec: dict) -> Dict:
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    summary: Dict[str, Dict] = {}
    for workload, runs in results.items():
        rows = {}
        for name, meta in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            rows[name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread,
                "bound": meta["bound"],
                "spread_over_bound": spread / meta["bound"],
                "values": values,
            }
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        summary[workload] = {
            "metrics": rows,
            "failed_shares": sorted({
                f"{r['failed']}/{r['attempted']}" for r in runs
            }),
            "failed_share": failed / attempted,
            "all_correct": all(r["correct"] for r in runs),
        }
    return summary


def worse_shift(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=1)
    parser.add_argument("--seed-base", type=int, default=100)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--workloads", default=None,
                        help="comma-separated subset (default: all)")
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    sets = []
    for s in range(args.sets):
        print(f"set {s + 1}: {args.runs} runs x {len(workloads)} "
              f"workloads, {seconds} s each", flush=True)
        results = run_set(workloads, args.runs,
                          args.seed_base + 1000 * s, seconds)
        sets.append(summarize(results, spec))

    worst = 0.0
    for workload in workloads:
        first = sets[0][workload]
        print(f"\n{workload}: failed share {first['failed_shares']} "
              f"correct={first['all_correct']}")
        print(f"  {'metric':20s} {'median':>14s} {'q1':>14s} {'q3':>14s}"
              f" {'spread':>8s} {'bound':>6s} {'spr/bnd':>7s}"
              + (f" {'shift':>8s} {'sh/bnd':>7s}" if len(sets) > 1 else ""))
        for name, row in first["metrics"].items():
            line = (f"  {name:20s} {row['median']:14.6g} {row['q1']:14.6g}"
                    f" {row['q3']:14.6g} {row['spread']:8.4f}"
                    f" {row['bound']:6.3f} {row['spread_over_bound']:7.3f}")
            if name != "setup_s":
                worst = max(worst, row["spread_over_bound"])
            if len(sets) > 1:
                second = sets[1][workload]["metrics"][name]
                shift = worse_shift(row["median"], second["median"],
                                    better[name])
                line += f" {shift:8.4f} {shift / row['bound']:7.3f}"
                worst = max(worst, shift / row["bound"],
                            0.0 if name == "setup_s"
                            else second["spread_over_bound"])
            print(line)
        if len(sets) > 1:
            same = (sets[0][workload]["failed_share"]
                    == sets[1][workload]["failed_share"])
            print(f"  failed share equal across sets: {same}")
    print(f"\nworst deviation against its bound: {worst:.3f} "
          f"(spreads exclude setup_s; 1.0 = at the bound)")
    if args.json:
        os.makedirs(os.path.dirname(os.path.abspath(args.json)),
                    exist_ok=True)
        with open(args.json, "w") as fh:
            json.dump({"seconds": seconds, "sets": sets}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
