"""Correctness checks made on every benchmark op, and the failure tally.

Each check returns a list of problems (empty when the op is correct).  A
problem is counted, reported on stderr and never stops the run, so a broken
op shows as ``failed`` in the result line instead of a crash or a silent
pass.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy.special import ndtr

# |estimate - closed form| above this many standard errors fails.  Even the
# corrected SE below leaves z spreads of up to 1.5 at the start point, so 8
# SE is over 5 sigma: a correct estimator fails about once in 10^7
# coordinates, while a wrong target or pairing misses by hundreds of SE
Z_MAX = 8.0
# The estimator's reported variance treats the residual seeds as fixed.  The
# noise of those seeds adds SEED_NOISE[alg] * Var(y_k) * vega_k^2 / n to
# coordinate k: the full-sample mean for alg 1, the running means (whose
# errors sum to twice a sample mean's variance) for alg 3; alg 2's lagged
# seeds are per-path noise that the batch means already see
SEED_NOISE = {1: 1.0, 2: 0.0, 3: 2.0}
# largest |fitted knot vol - reference vol| a 1e5-path calibration may leave;
# seed-to-seed fits land within 0.003
VOL_TOL = 0.01


class Tally:
    """Checked operations attempted and the problems found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"check failed: {what}: {p}", file=sys.stderr)

    def crashed(self, what: str, exc: BaseException) -> None:
        self.record(what, [f"raised {type(exc).__name__}: {exc}"])

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def closed_form_gradient(mdl, spec, vols) -> np.ndarray:
    """Exact gradient of g = 0.5 sum (E y_k - C_k)^2 on the default fixture.

    Knots sit at the option expiries, so option k depends on knot k alone
    and dg/dvol_k = (BS(vol_k) - C_k) * vega_k.
    """
    return np.array([
        (mdl.black_scholes_call(spec.spot, o.strike, v, o.expiry) - o.price)
        * mdl.bs_vega(spec.spot, o.strike, v, o.expiry)
        for o, v in zip(spec.options, vols)
    ])


def seed_noise_variance(mdl, spec, vols) -> np.ndarray:
    """Var(y_k) * vega_k^2 per path, from the lognormal payoff moments."""
    out = []
    for o, v in zip(spec.options, vols):
        s, k = spec.spot, o.strike
        sd = v * math.sqrt(o.expiry)
        d1 = (math.log(s / k) + 0.5 * sd * sd) / sd
        d2 = d1 - sd
        second = (s * s * math.exp(sd * sd) * ndtr(d1 + sd)
                  - 2 * k * s * ndtr(d1) + k * k * ndtr(d2))
        price = mdl.black_scholes_call(s, k, v, o.expiry)
        out.append((second - price ** 2)
                   * mdl.bs_vega(s, k, v, o.expiry) ** 2)
    return np.array(out)


def count_problems(f_evals, r_evals, f_expected, r_expected) -> list[str]:
    if (f_evals, r_evals) == (f_expected, r_expected):
        return []
    return [f"F/R counts ({f_evals}, {r_evals}) != closed form "
            f"({f_expected}, {r_expected})"]


def expected_counts(algorithm: int, n: int, width: int | None = None):
    """Closed-form (F, R): block engine, or width-c batched when ``width``."""
    if algorithm == 1:
        return 2 * n, n
    return n, n - (width or 1)


def gradient_problems(est, grad_true, seed_noise, f_expected,
                      r_expected) -> list[str]:
    """Closed-form F/R counts, and every coordinate within Z_MAX SE of the
    closed-form gradient; ``seed_noise`` is :func:`seed_noise_variance`."""
    problems = count_problems(est.f_evals, est.r_evals, f_expected, r_expected)
    se = np.sqrt(est.variance
                 + SEED_NOISE[est.algorithm] * seed_noise / est.n_paths)
    if not (np.all(np.isfinite(est.grad)) and np.all(se > 0)):
        return problems + ["non-finite gradient or zero standard error"]
    z = np.abs(est.grad - grad_true) / se
    if np.any(z > Z_MAX):
        problems.append(f"gradient {z.max():.1f} SE from closed form "
                        f"(limit {Z_MAX})")
    return problems


def calibration_problems(curve, trace, algorithm: int, n_mc: int,
                         reference_vol: float) -> list[str]:
    """Fit error within VOL_TOL; trace counts add up to whole calls.

    Every gradient call costs n_mc loss forwards plus the estimator's
    closed-form (F, R); every value probe costs n_mc forwards.  So R must be
    a whole number of gradient calls and the F left over a whole number of
    probes.
    """
    problems = []
    err = float(np.abs(curve.knot_vols - reference_vol).max())
    if not err <= VOL_TOL:
        problems.append(f"knot vol error {err:.4g} > {VOL_TOL}")
    if trace.status == "non_finite_abort":
        problems.append("calibration aborted on a non-finite value")
    f_call, r_call = expected_counts(algorithm, n_mc)
    last = trace.records[-1]
    calls, rem = divmod(last.r_evals, r_call)
    probes_f = last.f_evals - calls * (f_call + n_mc)
    if rem or calls < 1 or probes_f < 0 or probes_f % n_mc:
        problems.append(f"trace counts F={last.f_evals} R={last.r_evals} are "
                        f"not whole gradient calls and probes")
    return problems


def relative_se(estimates) -> float:
    """Median over coordinates of sqrt(variance) / |gradient|.

    Variance and gradient are averaged over ``estimates``: equal-size
    estimates of one algorithm on independent path sets.
    """
    var = np.mean([e.variance for e in estimates], axis=0)
    grad = np.mean([e.grad for e in estimates], axis=0)
    return float(np.median(np.sqrt(var) / np.abs(grad)))
