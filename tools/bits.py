#!/usr/bin/env python3
"""Bit-for-bit comparison of the outputs of two source checkouts.

    python3 tools/bits.py --parent ../parent [--change .] [--small]

Runs this file once per checkout, each in its own subprocess with that
checkout's ``src/`` first on the path, and compares what the two runs
computed, item by item:

- the ``calibrate`` traces (loss, gradient norm, parameters, F/R, status
  and fitted vols) of algorithms 1/2/3 at seeds 1 and 2 and at 10 007 and
  10^5 paths, with ``LbfgsConfig(max_iter=25)``;
- ``loss`` expectations at n = 1, 2, 8191, 8192, 8193, 3*8192 + 17 and
  10^5, on the default fixture and on markets of its first option and of
  its first two options;
- grad, variance and F/R of ``grad_est1/2/3`` and of width-8
  ``grad_est_batched``, at 10^5 and 10^6 paths, and at 300 017 paths,
  whose 4687-lane blocks straddle chunk edges of a batch too large to
  hold its draws, so that each read draws its own (``loss`` at 300 017
  paths too, on the three markets above);
- on the 96-quote surface ``tests/surface96.cfg``, ``loss`` expectations
  at n = 8193 and 2*10^4, and the estimates above at 2*10^4 paths;
- every CSV the four CLI subcommands write at seed 3 and 2*10^4 paths
  (``calibrate`` at 40 iterations), without the timing columns, compared
  as the text of their cells;
- ``generate_rows`` draws of both generators over 16 386 rows from start
  rows 0, 1, 3 and 16 383, with 1, 3 and 5 inputs: a sha256 of the rows'
  bytes and the two rows 16 383 rows after the start.

Each item prints ``same`` when every value has the same bits on both
sides, or ``differs`` with the largest relative difference.  ``--small``
runs a reduced set in seconds.  The exit status is 1 when an item differs.
Compare checkouts on one host and one install only: numpy picks its SIMD
kernels by CPU, and scipy's ``ndtri`` can change between versions, so
last bits move with either.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

# CSV columns that hold wall times or ratios of them
TIMING = {"time_us", "millis", "k_f", "k_r", "t_scalar_f_us", "t_scalar_r_us",
          "t_batched_f_us", "t_batched_r_us", "k_f_spread", "k_r_spread"}

SURFACE = Path(__file__).parents[1] / "tests" / "surface96.cfg"

# "surface" is (loss n, estimate n, algorithms) on SURFACE; "window" is
# (n, algorithms) of estimates on more paths than a batch holds; "draws" is
# (generators, start rows, input counts)
FULL = {"calibrate": ((1, 2), (10_007, 100_000), 25),
        "loss_n": (1, 2, 8191, 8192, 8193, 3 * 8192 + 17, 100_000, 300_017),
        "estimate_n": (100_000, 1_000_000),
        "window": (300_017, (1, 2, 3)),
        "surface": ((8193, 20_000), (20_000,), (1, 2, 3)),
        "cli": ("20000", "40"),
        "draws": (("philox", "pcg64"), (0, 1, 3, 16_383), (1, 3, 5))}
SMALL = {"calibrate": ((1,), (2000,), 2),
         "loss_n": (1, 2, 8193),
         "estimate_n": (10_000,),
         "window": (150_001, (1, 3)),
         "surface": ((), (2000,), (3,)),
         "cli": ("2000", "2"),
         "draws": (("philox", "pcg64"), (16_383,), (3,))}


def draws(items: dict, generators, starts, input_counts) -> None:
    """``generate_rows`` over 16 386 rows, as items ``generate_rows
    <generator> start <s> inputs <k>``: the sha256 of the rows' bytes, then
    rows 16 383 and 16 384 of them."""
    from mcadjoint.rng_paths import generate_rows

    for gen in generators:
        for start in starts:
            for k in input_counts:
                rows = generate_rows(7, gen, start, start + 16_386, k)
                items[f"generate_rows {gen} start {start} inputs {k}"] = [
                    hashlib.sha256(rows.tobytes()).hexdigest(),
                    *rows[16_383:16_385].ravel().tolist()]


def estimates(items: dict, label: str, spec, curve, n: int, algs) -> None:
    """Grad, variance and F/R of ``grad_est<alg>`` and of width-8
    ``grad_est_batched`` on ``n`` paths, as items ending ``label n <n>``."""
    import mcadjoint.estimators as est
    import mcadjoint.model as mdl
    from mcadjoint.rng_paths import generate

    tape = mdl.build_model_tape(spec, curve)
    scalar = {1: est.grad_est1, 2: est.grad_est2, 3: est.grad_est3}
    args = (tape, curve.knot_vols, generate(1, n, tape.n_inputs), spec.prices)
    for alg in algs:
        for name, e in ((f"grad_est{alg}", scalar[alg](*args)),
                        (f"grad_est_batched alg {alg} width 8",
                         est.grad_est_batched(alg, *args, 8))):
            items[f"{name}{label} n {n}"] = [*e.grad, *e.variance, e.f_evals,
                                             e.r_evals]


def collect(sizes: dict) -> dict:
    """Item name -> flat list of the numbers, or for a CSV the cells' text,
    that the importable ``mcadjoint`` computes."""
    import mcadjoint.cli as cli
    import mcadjoint.model as mdl
    from mcadjoint.optimizer import LbfgsConfig, calibrate
    from mcadjoint.rng_paths import generate

    items = {}
    spec, curve = mdl.default_fixture()
    seeds, n_mcs, max_iter = sizes["calibrate"]
    for alg in (1, 2, 3):
        for seed in seeds:
            for n_mc in n_mcs:
                fitted, trace = calibrate(spec, curve, alg, n_mc, seed,
                                          LbfgsConfig(max_iter=max_iter))
                items[f"calibrate alg {alg} seed {seed} n {n_mc}"] = [
                    trace.status, *fitted.knot_vols,
                    *[v for r in trace.records
                      for v in (r.iteration, r.loss, r.grad_norm, *r.params,
                                r.f_evals, r.r_evals)]]

    surface, surface_curve = mdl.load_market_file(SURFACE)
    surface_loss_n, surface_estimate_n, surface_algs = sizes["surface"]
    markets = {
        "fixture": (spec, curve, sizes["loss_n"]),
        "one-option": (mdl.MarketSpec(spec.spot, spec.options[:1]), curve,
                       sizes["loss_n"]),
        "two-option": (mdl.MarketSpec(spec.spot, spec.options[:2]), curve,
                       sizes["loss_n"]),
        "surface": (surface, surface_curve, surface_loss_n)}
    for name, (market, market_curve, loss_n) in markets.items():
        for n in loss_n:
            paths = generate(1, n, market.n_drivers)
            items[f"loss {name} n {n}"] = list(
                mdl.loss(market, market_curve, paths).expectations)

    draws(items, *sizes["draws"])
    for n in sizes["estimate_n"]:
        estimates(items, "", spec, curve, n, (1, 2, 3))
    estimates(items, "", spec, curve, *sizes["window"])
    for n in surface_estimate_n:
        estimates(items, " surface", surface, surface_curve, n, surface_algs)

    n_mc, max_iter = sizes["cli"]
    with tempfile.TemporaryDirectory() as out:
        for sub in ("variance-table", "gradient", "calibrate",
                    "measure-speedup"):
            argv = [sub, "--seed", "3", "--nmc", n_mc, "--out", out] + (
                ["--max-iter", max_iter] if sub == "calibrate"
                else ["--repeats", "1"])
            if cli.main(argv) != 0:
                raise RuntimeError(f"mcadjoint {' '.join(argv)} failed")
        for path in sorted(Path(out).glob("*.csv")):
            with open(path, newline="") as fh:
                rows = list(csv.reader(fh))  # the cells' text, as written
            keep = [i for i, h in enumerate(rows[0]) if h not in TIMING]
            items[f"cli {path.name}"] = [row[i] for row in rows for i in keep]
    return items


def _same(x, y) -> bool:
    """Equal text, or numbers with equal bits (any NaN equals any NaN)."""
    if isinstance(x, str) or isinstance(y, str):
        return x == y
    if math.isnan(x) or math.isnan(y):
        return math.isnan(x) and math.isnan(y)
    return x == y and math.copysign(1, x) == math.copysign(1, y)


def compare(a: list, b: list) -> tuple:
    """(same, largest relative difference) of two items' values.  Differing
    text is compared as the numbers it spells; a length mismatch, other
    text, a NaN or an infinity against a number differs infinitely."""
    if len(a) != len(b):
        return False, math.inf
    same, worst = True, 0.0
    for x, y in zip(a, b):
        if _same(x, y):
            continue
        same = False
        try:
            x, y = float(x), float(y)
        except ValueError:
            return False, math.inf
        scale = max(abs(x), abs(y))
        if not math.isfinite(scale):  # also a NaN against a number
            return False, math.inf
        worst = max(worst, abs(x - y) / scale if scale else 0.0)
    return same, worst


def run_side(checkout: Path, small: bool) -> dict:
    """This file's ``--worker`` run in ``checkout``: its items."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker",
         str(checkout)] + (["--small"] if small else []),
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path)
    ap.add_argument("--change", type=Path, default=Path(__file__).parents[1])
    ap.add_argument("--small", action="store_true",
                    help="a reduced set, for a quick check")
    ap.add_argument("--worker", type=Path, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sizes = SMALL if args.small else FULL
    if args.worker:  # compute the items with the checkout's src/ first
        src = (args.worker / "src").resolve()
        sys.path.insert(0, str(src))
        import mcadjoint
        if Path(mcadjoint.__file__).resolve().parents[1] != src:
            raise RuntimeError(f"imported {mcadjoint.__file__}, not {src}")
        with contextlib.redirect_stdout(io.StringIO()):
            items = collect(sizes)
        print(json.dumps(items))
        return 0
    if args.parent is None:
        ap.error("--parent is required")
    sides = [run_side(path.resolve(), args.small)
             for path in (args.parent, args.change)]
    print(f"parent {args.parent.resolve()}\nchange {args.change.resolve()}")
    differs = 0
    for name in dict.fromkeys([*sides[0], *sides[1]]):
        if name not in sides[0] or name not in sides[1]:
            same, worst = False, math.inf
        else:
            same, worst = compare(sides[0][name], sides[1][name])
        differs += not same
        print(f"{name:<46} " + ("same" if same else
                                f"differs  max rel diff {worst:.3g}"))
    print(f"{differs} of {len(set(sides[0]) | set(sides[1]))} items differ")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
