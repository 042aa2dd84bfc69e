#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --workload grad-1e6 --seeds 1-10

Runs ``perfbench/run.py`` once per seed, one run at a time, with the
``command`` and ``run_seconds`` of BENCHMARK.json, and prints for each metric
its median and the distance between the first and third quartiles as a
share of the median, next to a third of the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-5"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        cmd = bench["command"] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        wall = time.perf_counter() - t0
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: wall {wall:.1f} s, correct {result['correct']}, "
              f"attempted {result['attempted']}, failed {result['failed']}",
              flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])

    for name, vals in values.items():
        mid = median(vals)
        q1, _, q3 = quantiles(vals, n=4) if len(vals) > 1 else (mid, 0, mid)
        spread = (q3 - q1) / mid if mid else float("nan")
        bound = bounds.get(name)
        target = f"  (bound/3 {bound / 3:.3f})" if bound else ""
        print(f"{name:24s} median {mid:12.6g}  spread {spread:.4f}{target}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
