"""A 96-quote surface: exact costs, adjoints and bit checks beyond m = 5.

``surface96.cfg`` was written by ``save_market_file``: 8 expiries from 0.5
to 4 y, strikes ``np.linspace(80, 130, 12)`` against spot 100, knots at
the expiries with start vol 0.4, and prices from ``black_scholes_call`` at
vol 0.2.  ``test_file_holds_the_surface`` checks the file against that
recipe.
"""

from pathlib import Path

import numpy as np
import pytest

import mcadjoint.estimators as est
import mcadjoint.model as mdl
from mcadjoint.optimizer import LbfgsConfig, calibrate
from mcadjoint.rng_paths import generate

SURFACE = Path(__file__).with_name("surface96.cfg")
N_MC = 20_000


@pytest.fixture(scope="module")
def surface():
    spec, curve = mdl.load_market_file(SURFACE)
    return spec, curve, mdl.build_model_tape(spec, curve)


def test_file_holds_the_surface(surface):
    spec, curve, tape = surface
    expiries = np.linspace(0.5, 4.0, 8)
    strikes = np.linspace(80.0, 130.0, 12)
    assert spec.spot == 100.0
    assert (curve.knot_times == expiries).all()
    assert (curve.knot_vols == 0.4).all()
    assert (spec.expiries == np.repeat(expiries, 12)).all()
    assert (spec.strikes == np.tile(strikes, 8)).all()
    prices = [mdl.black_scholes_call(100.0, k, 0.2, t)
              for k, t in zip(spec.strikes, spec.expiries)]
    np.testing.assert_allclose(spec.prices, prices, rtol=1e-12)
    assert (tape.n_params, tape.n_inputs, tape.n_outputs) == (8, 8, 96)


@pytest.mark.parametrize("algorithm, width", [(1, None), (2, None), (3, None),
                                              (1, 8), (2, 8), (3, 8)])
def test_exact_cost_counts(surface, algorithm, width):
    spec, curve, tape = surface
    paths = generate(5, N_MC, tape.n_inputs)
    if width is None:
        fn = {1: est.grad_est1, 2: est.grad_est2, 3: est.grad_est3}[algorithm]
        e = fn(tape, curve.knot_vols, paths, spec.prices)
        lag = 1
    else:
        e = est.grad_est_batched(algorithm, tape, curve.knot_vols, paths,
                                 spec.prices, width)
        lag = width
    if algorithm == 1:
        assert (e.f_evals, e.r_evals) == (2 * N_MC, N_MC)
    else:
        assert (e.f_evals, e.r_evals) == (N_MC, N_MC - lag)
    assert e.grad.shape == (8,) and np.isfinite(e.grad).all()


def test_lagged_estimators_agree_with_two_pass(surface):
    # criterion 6 on the surface: on one path set, algorithms 2 and 3 are
    # within 4 combined standard errors of algorithm 1, coordinate by
    # coordinate
    spec, curve, tape = surface
    paths = generate(21, 10**5, tape.n_inputs)
    e1, e2, e3 = (fn(tape, curve.knot_vols, paths, spec.prices,
                     batch_count=128)
                  for fn in (est.grad_est1, est.grad_est2, est.grad_est3))
    for e in (e2, e3):
        assert (np.abs(e.grad - e1.grad)
                < 4 * np.sqrt(e1.variance + e.variance)).all()


def test_adjoints_match_central_differences(surface):
    # criterion 7 on the surface: per-path adjoints against central
    # differences at rel 1e-5, clear of the payoff kinks
    spec, curve, tape = surface
    rng = np.random.default_rng(17)
    lam = rng.standard_normal(96)
    _, cols = spec.driver_layout()
    checked = 0
    while checked < 50:
        vols = rng.uniform(0.12, 0.5, 8)
        w = rng.standard_normal(8)
        s = np.array([
            mdl.terminal_price(spec.spot, curve.with_vols(vols), o.expiry,
                               w[cols[i]])
            for i, o in enumerate(spec.options)
        ])
        if np.min(np.abs(s - spec.strikes)) < 1e-3:
            continue
        grad = tape.reverse(vols, w, lam)
        oracle = np.empty(8)
        for k in range(8):
            step = 1e-6 * max(1.0, vols[k])
            up, dn = vols.copy(), vols.copy()
            up[k] += step
            dn[k] -= step
            oracle[k] = float(lam @ (tape.forward(up, w)
                                     - tape.forward(dn, w))) / (2 * step)
        np.testing.assert_allclose(grad, oracle, rtol=1e-5, atol=1e-9)
        checked += 1


def test_tape_equals_payoffs_bitwise_on_one_block(surface):
    spec, curve, tape = surface
    w = generate(6, est.BLOCK_PATHS, tape.n_inputs).draws
    replayed, _ = tape.replay_forward(curve.knot_vols, w)
    assert (replayed == mdl.payoffs(spec, curve, w)).all()


@pytest.mark.parametrize("algorithm", [1, 2, 3])
def test_calibration_costs_are_whole_calls(surface, algorithm):
    # every record's F/R is whole gradient calls, at (2n, n) or (n, n - 1)
    # each, plus n forwards per loss value computed
    spec, curve, _ = surface
    n = 2000
    f_call, r_call = (2 * n, n) if algorithm == 1 else (n, n - 1)
    _, trace = calibrate(spec, curve, algorithm, n, seed=8,
                         config=LbfgsConfig(max_iter=2))
    assert trace.status == "max_iter" and len(trace) == 3
    for r in trace.records:
        calls, rest = divmod(r.r_evals, r_call)
        assert rest == 0
        values, rest = divmod(r.f_evals - calls * f_call, n)
        assert rest == 0 and values >= 1
    # one call at the start, then per iteration one at the accepted point
    # and, but for the last, one on the next iteration's path set
    assert calls == 4 and values >= 4
