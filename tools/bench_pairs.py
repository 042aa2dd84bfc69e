#!/usr/bin/env python3
"""Paired benchmark runs of two source checkouts, summarised as JSON.

    python3 tools/bench_pairs.py --parent ../parent --change . --pairs 10 \\
        --workloads grad-1e6 --seconds 30 --out BENCH_11.json

Runs ``perfbench/run.py --trace 0`` of each checkout, in that checkout, for
``--pairs`` pairs per workload, then ``--trace 1`` once per checkout, whose
per-layer metrics go under the workload's ``per_layer``.  The side that
runs first alternates from pair to pair, and both runs of a pair use the
same workload seed (``--seed`` plus the pair's index in this invocation).  An existing
``--out`` file is extended: its runs are kept and new pairs are numbered
after them.  The output holds every run (its ``failed`` count, metrics,
import time and set-up repeat times), the environment of the first run,
each side's crashed runs and share of failed ops, and per end-to-end
metric of BENCHMARK.json: each side's median and quartiles over the
pairs where both sides completed, the pairs the change wins, loses and ties by the metric's ``better``
direction, and whether the gain rule holds (wins in at least nine tenths
of all pairs run, a pair with a crashed side counting as not won; medians
apart by more than the parent's interquartile range; and no larger share
of failed ops than the parent's).  It also holds the bound rule that every
change must meet: ``within_bound`` when the change's median is no worse
than the parent's by more than the metric's ``bound`` times the parent's
median, and ``unresolved`` when the parent's interquartile range is wider
than that margin and not every change run beats every parent run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int = 0) -> dict:
    """One benchmark run: its result line, plus the env line's environment,
    import time and set-up repeat times, so that a move in ``setup_s`` can
    be split into import and set-up work.  The metrics are the end-to-end
    ones untraced, the per-layer ones with ``trace`` 1."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return {"returncode": proc.returncode, "failed": None,
                "error": (proc.stdout + proc.stderr)[-2000:]}
    info, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {"returncode": 0, "failed": result["failed"],
            "attempted": result["attempted"], "env": info["env"],
            "import_s": info["import_s"],
            "setup_repeats_s": info["setup_repeats_s"],
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def quartiles(values: list) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarise(runs: list, declared: list) -> dict:
    """Per side: crashed runs and the share of ops that failed.  Per metric:
    both sides' medians and quartiles over the complete pairs, the pair
    tally over every pair run, where a pair missing a side is not won, and
    the gain and bound rules (see the module docstring)."""
    pairs = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})
        if run["failed"] is not None:
            pairs[run["pair"]][run["side"]] = run["metrics"]
    complete = [p for p in pairs.values() if len(p) == 2]
    sides_runs = {s: [r for r in runs if r["side"] == s] for s in SIDES}
    crashed = {s: sum(r["failed"] is None for r in rs)
               for s, rs in sides_runs.items()}
    fail_share = {s: sum(r["failed"] or 0 for r in rs)
                  / max(1, sum(r.get("attempted", 0) for r in rs))
                  for s, rs in sides_runs.items()}
    summary = {}
    for metric in declared:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        if not complete:
            continue
        sides = {s: [p[s][name] for p in complete] for s in SIDES}
        diffs = [sign * (c - p) for p, c in zip(sides["parent"], sides["change"])]
        stats = {s: quartiles(v) for s, v in sides.items()}
        parent_iqr = stats["parent"]["q3"] - stats["parent"]["q1"]
        gap = sign * (stats["change"]["median"] - stats["parent"]["median"])
        wins = sum(d > 0 for d in diffs)
        margin = metric["bound"] * abs(stats["parent"]["median"])
        separated = (min(sign * c for c in sides["change"])
                     > max(sign * p for p in sides["parent"]))
        summary[name] = {
            "unit": metric["unit"], "better": metric["better"], **stats,
            "ratio": (stats["change"]["median"] / stats["parent"]["median"]
                      if stats["parent"]["median"] else None),
            "wins": wins, "losses": sum(d < 0 for d in diffs),
            "ties": sum(d == 0 for d in diffs), "pairs": len(pairs),
            "complete_pairs": len(complete),
            "gain_rule_met": (wins >= 0.9 * len(pairs) and gap > parent_iqr
                              and fail_share["change"] <= fail_share["parent"]),
            "within_bound": gap >= -margin,
            "unresolved": parent_iqr > margin and not separated,
        }
    return {"crashed": crashed, "fail_share": fail_share, "metrics": summary}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workloads", required=True,
                    help="comma-separated workload names")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    report = {"env": None, "workloads": {}}
    if args.out.exists():  # add workloads, or pairs of a workload, to it
        report = json.loads(args.out.read_text())
    for workload in args.workloads.split(","):
        runs = report["workloads"].get(workload, {"runs": []})["runs"]
        first = 1 + max((run["pair"] for run in runs), default=-1)
        for i in range(args.pairs):
            pair, seed = first + i, args.seed + i
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                run = run_once(checkouts[side], workload, seed, args.seconds)
                env = run.pop("env", None)
                if env and report["env"] is None:
                    report["env"] = env
                runs.append({"pair": pair, "side": side, "position": position,
                             "seed": seed, "seconds": args.seconds, **run})
                print(f"{workload} pair {pair} {side}: failed={run['failed']}",
                      file=sys.stderr)
        per_layer = {}
        for side in SIDES:
            run = run_once(checkouts[side], workload, args.seed, args.seconds,
                           trace=1)
            run.pop("env", None)
            per_layer[side] = {"seed": args.seed, "seconds": args.seconds,
                               **run}
            print(f"{workload} traced {side}: failed={run['failed']}",
                  file=sys.stderr)
        report["workloads"][workload] = {
            **summarise(runs, declared["end_to_end"]), "runs": runs,
            "per_layer": per_layer}
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
