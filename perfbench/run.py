#!/usr/bin/env python3
"""Benchmark of the mcadjoint library: one workload per invocation.

    python3 perfbench/run.py --workload grad-1e6 --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the library from its
``src`` directory.  Set-up is timed, ops run for ``--seconds``, every op is
checked, and the last line of stdout is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json;
with ``--trace 1`` the ops run under span recording and the metrics are the
per-layer ones, and the spans are written to ``perfbench/out/``.  The line
before the result holds the environment and every op's time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median

# one process, no hidden BLAS/OpenMP threads; set before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
SETUP_REPEATS = 3
K_PATHS = 8192


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _read(path) -> str | None:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return None


def environment(mc, seed) -> dict:
    """Machine and library versions, recorded with every result."""
    import platform

    import numpy
    import scipy

    cpu = next((ln.split(":", 1)[1].strip()
                for ln in (_read("/proc/cpuinfo") or "").splitlines()
                if ln.startswith("model name")), platform.processor())
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache")
                        .glob("index*")):
        level, size = _read(index / "level"), _read(index / "size")
        if level in ("2", "3"):
            caches[f"l{level}"] = size
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "caches": caches,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "mcadjoint": mc.__version__,
        "generator_id": "philox", "workload_seed": seed,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "mcadjoint" / "__init__.py").is_file():
        print(f"error: no mcadjoint sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    t0 = time.perf_counter()
    import mcadjoint as mc
    import_s = time.perf_counter() - t0

    import checks
    import workloads
    from layers import per_layer_metrics
    from tracing import Recorder, instrument, span_cost_s

    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tally = checks.Tally()
    rec = Recorder() if args.trace else None
    setups = []
    with instrument(rec, mc) if rec else nullcontext():
        for _ in range(SETUP_REPEATS):
            t = time.perf_counter()
            with rec.root("bench.setup", -1) if rec else nullcontext():
                fx = workloads.set_up(mc, wl, args.seed)
            setups.append(time.perf_counter() - t)
        ops, first = workloads.timed_ops(mc, fx, wl, args.seed, args.seconds,
                                         tally, rec)

    def guarded(what, fn, *fn_args, default=0.0):
        """fn(*fn_args), or ``default`` with the exception counted as failed."""
        try:
            return fn(*fn_args)
        except Exception as exc:  # counted as failed; the run goes on
            tally.crashed(what, exc)
            return default

    problems = guarded("tape == payoffs", workloads.tape_matches_payoffs,
                       mc, fx, args.seed, default=None)
    if problems is not None:
        tally.record("tape == payoffs", problems)

    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": float(value), "unit": unit}

    if rec is None:
        put("setup_s", import_s + median(setups), "s")
        for alg in workloads.ALGS:
            rates = [p / dt for a, dt, p in ops if a == alg]
            put(f"alg{alg}_paths_per_s", median(rates) if rates else 0.0,
                "paths/s")
        for alg in workloads.ALGS:
            value = 0.0
            if len(first[alg]) == wl.min_rounds:  # else an op failed: counted
                value = guarded(f"rel_se (alg {alg})", workloads.rel_se, mc,
                                fx, wl, alg, first[alg], args.seed, tally)
            put(f"alg{alg}_rel_se", value, "ratio")
        put("peak_mb", guarded("memory op", workloads.peak_mb, mc, fx, wl,
                               args.seed), "MB")
    else:
        k_paths = mc.rng_paths.generate(
            workloads.derive_seed(args.seed, workloads.CHECK, 1), K_PATHS,
            fx.tape.n_inputs)
        k_report = mc.estimators.measure_correction_coefficients(
            fx.tape, fx.x0, k_paths, workloads.WIDTH, repeats=3)
        metrics = per_layer_metrics(rec.spans, fx.tape, k_report,
                                    span_cost_s(), tally.fail_frac)
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        rec.write(out / f"spans-{wl.name}-seed{args.seed}.json")

    print(json.dumps({
        "env": environment(mc, args.seed), "workload": wl.name,
        "trace": args.trace, "import_s": import_s, "setup_repeats_s": setups,
        "ops": [{"alg": a, "s": dt, "paths": p} for a, dt, p in ops],
    }))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
