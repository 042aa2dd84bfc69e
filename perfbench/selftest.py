#!/usr/bin/env python3
"""Self-test of the benchmark's checks: wrong targets and counts must fail.

    python3 perfbench/selftest.py

Runs one small op per algorithm through the same loop and checks as
``run.py``: once as is (no failures allowed), then against a deliberately
wrong closed-form gradient, wrong closed-form F/R counts and a wrong
calibration target, each of which must make ``fail_frac`` > 0.  Exits 1 if
any case comes out otherwise.  Takes about half a minute.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import mcadjoint as mc  # noqa: E402

import checks  # noqa: E402
import workloads as wk  # noqa: E402

N = 2 ** 15


def fail_frac(wl, fx, seed=7) -> float:
    tally = checks.Tally()
    wk.timed_ops(mc, fx, wl, seed, 0.0, tally)
    return tally.fail_frac


def main() -> int:
    grad = wk.Workload("selftest-grad", N, 4096, 1, wk._grad_op(N),
                       wk._check_gradient(N), wk._grad_op(N))
    batched = wk.Workload("selftest-batched", N // 8, 512, 1,
                          wk._batched_op(N // 8),
                          wk._check_gradient(N // 8, wk.WIDTH),
                          wk._batched_op(N // 8))
    calibrate = wk.Workload("selftest-calibrate", N, 4096, 1,
                            wk._calibrate_op(N), wk._check_calibration(N),
                            wk._calibrate_op(N, 2))
    fx = wk.set_up(mc, grad, 7)
    # targets priced at vol 0.25 instead of 0.2; at this N the z-check sees
    # that error for algorithms 1 and 3 (algorithm 2 is noisier)
    wrong_spec, _ = mc.model.default_fixture(wk.START_VOL,
                                             wk.REFERENCE_VOL + 0.05)
    cases = [
        ("correct gradient workload", grad, fx, False),
        ("correct batched workload", batched, fx, False),
        ("gradient against wrong targets", grad, fx._replace(
            grad_true=checks.closed_form_gradient(
                mc.model, wrong_spec, fx.x0)), True),
        ("wrong closed-form F/R counts", replace(
            grad, check=wk._check_gradient(N + 1)), fx, True),
        ("batched with wrong chunk width", replace(
            batched, check=wk._check_gradient(N // 8, wk.WIDTH // 2)), fx,
         True),
        ("correct calibration workload", calibrate, fx, False),
        ("calibration against a wrong reference vol", replace(
            calibrate, check=lambda mc_, fx_, alg, res:
            checks.calibration_problems(*res, alg, N,
                                        wk.REFERENCE_VOL + 0.05)), fx, True),
    ]
    bad = 0
    for label, wl, fixture, must_fail in cases:
        frac = fail_frac(wl, fixture)
        ok = (frac > 0) == must_fail
        bad += not ok
        print(f"{'PASS' if ok else 'FAIL'}: {label}: fail_frac {frac:.2f}"
              f" (expected {'> 0' if must_fail else '0'})", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
