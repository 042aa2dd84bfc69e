"""Acceptance suite: one test per exit criterion, one PASS line each.

Every statistical check runs on frozen seeds, so the suite is
deterministic; tolerances are the stated acceptance bounds.  Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines.
"""

import statistics
import time

import numpy as np
import pytest

import mcadjoint.estimators as est
import mcadjoint.model as mdl
import mcadjoint.tape as tp
from mcadjoint.optimizer import LbfgsConfig, calibrate
from mcadjoint.rng_paths import generate

GRAD_FNS = {1: est.grad_est1, 2: est.grad_est2, 3: est.grad_est3}
NMC_GRID = (10**4, 10**5, 10**6)


def report(line):
    print(f"\n{line}", flush=True)


@pytest.fixture(scope="module")
def fixture():
    spec, curve = mdl.default_fixture()
    tape = mdl.build_model_tape(spec, curve)
    return spec, curve, tape


@pytest.fixture(scope="module")
def variance_sweep(fixture):
    """Per-coordinate Var(Est) estimates averaged over 8 independent seeds.

    Averaging tightens the batch-means estimates enough to resolve the
    slope band; 128 batches keep each single-run estimate well-behaved.
    """
    spec, curve, tape = fixture
    t0 = time.perf_counter()
    seeds = range(1000, 1008)
    table = {}
    for n in NMC_GRID:
        batches = [generate(s, n, tape.n_inputs) for s in seeds]
        for alg in (1, 2, 3):
            runs = [GRAD_FNS[alg](tape, curve.knot_vols, b, spec.prices,
                                  batch_count=128).variance for b in batches]
            table[(alg, n)] = np.mean(runs, axis=0)
    return table, time.perf_counter() - t0


def test_criterion_1_unbiasedness():
    """Each estimator's mean over 200 seeds hits the analytic toy gradient."""
    t0 = time.perf_counter()
    tape = tp.record(lambda p, w: [p[0] * w[0] + p[1]], n_params=2, n_inputs=1)
    params = np.array([0.7, 1.3])
    targets = np.array([0.4])
    analytic = np.array([0.0, 0.9])  # (Ey - C) * E[dy/da] = 0.9 * [0, 1]
    n_seeds, n_mc = 200, 10**4
    batches = [generate(3000 + r, n_mc, 1) for r in range(n_seeds)]
    worst = {}
    for alg in (1, 2, 3):
        grads = np.array([GRAD_FNS[alg](tape, params, b, targets).grad
                          for b in batches])
        se = grads.std(axis=0, ddof=1) / np.sqrt(n_seeds)
        z = np.abs(grads.mean(axis=0) - analytic) / se
        worst[alg] = float(z.max())
        assert (z < 4.0).all(), f"algorithm {alg}: z={z}"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 120
    report(f"PASS criterion 1 (unbiasedness, 200 seeds): max |z| per algorithm "
           f"{ {a: round(v, 2) for a, v in worst.items()} } < 4  [{elapsed:.0f}s]")


def test_criterion_2_variance_rate(variance_sweep):
    """log Var vs log N_mc slopes: -1 +/- 0.15 (alg 3 also <= -2/3)."""
    table, sweep_time = variance_sweep
    t0 = time.perf_counter()
    logs_n = np.log10(NMC_GRID)
    slopes = {}
    for alg in (1, 2, 3):
        mat = np.vstack([table[(alg, n)] for n in NMC_GRID])
        per_coord = [np.polyfit(logs_n, np.log10(mat[:, k]), 1)[0]
                     for k in range(mat.shape[1])]
        slopes[alg] = per_coord
        for k, s in enumerate(per_coord):
            assert abs(s + 1.0) <= 0.15, f"alg {alg} coord {k}: slope {s:.3f}"
            if alg == 3:
                assert s <= -2.0 / 3.0
    elapsed = sweep_time + time.perf_counter() - t0
    assert elapsed <= 600
    rng_txt = {a: f"[{min(v):.2f},{max(v):.2f}]" for a, v in slopes.items()}
    report(f"PASS criterion 2 (variance rate): slope ranges {rng_txt} "
           f"within -1±0.15  [{elapsed:.0f}s]")


def test_criterion_3_variance_ordering(variance_sweep):
    """At 1e6 paths: Var2/Var1 > 5 and Var3/Var1 <= 1.5 per coordinate."""
    table, sweep_time = variance_sweep
    v1 = table[(1, 10**6)]
    r21 = table[(2, 10**6)] / v1
    r31 = table[(3, 10**6)] / v1
    assert (r21 > 5.0).all(), f"Var2/Var1 = {r21}"
    assert (r31 <= 1.5).all(), f"Var3/Var1 = {r31}"
    assert sweep_time <= 300
    report(f"PASS criterion 3 (variance ordering): Var2/Var1 in "
           f"[{r21.min():.1f},{r21.max():.1f}], Var3/Var1 in "
           f"[{r31.min():.2f},{r31.max():.2f}]")


def test_criterion_4_cost_exactness(fixture):
    """f/r counters match their closed forms for every algorithm and N."""
    spec, curve, tape = fixture
    for n in (2, 3, 257, 1000):
        paths = generate(77, n, tape.n_inputs)
        e1 = est.grad_est1(tape, curve.knot_vols, paths, spec.prices)
        assert (e1.f_evals, e1.r_evals) == (2 * n, n)
        e2 = est.grad_est2(tape, curve.knot_vols, paths, spec.prices)
        assert (e2.f_evals, e2.r_evals) == (n, n - 1)
        e3 = est.grad_est3(tape, curve.knot_vols, paths, spec.prices)
        assert (e3.f_evals, e3.r_evals) == (n, n - 1)
    report("PASS criterion 4 (cost exactness): alg1 = (2N, N), "
           "alg2 = alg3 = (N, N-1) at N in {2, 3, 257, 1000}")


def test_criterion_5_wall_clock_ordering(fixture):
    """Single-pass algorithms beat the two-pass one by >= 1.3x at 1e6.

    Each round times algorithms 1, 2 and 3 in turn, so drift in the host's
    speed lands on all three alike rather than on one algorithm.
    """
    spec, curve, tape = fixture
    paths = generate(42, 10**6, tape.n_inputs)
    times = {1: [], 2: [], 3: []}
    for _ in range(7):
        for alg in (1, 2, 3):
            t0 = time.perf_counter()
            GRAD_FNS[alg](tape, curve.knot_vols, paths, spec.prices)
            times[alg].append(time.perf_counter() - t0)
    medians = {alg: statistics.median(t) for alg, t in times.items()}
    r12 = medians[1] / medians[2]
    r13 = medians[1] / medians[3]
    assert r12 >= 1.3, f"t1/t2 = {r12:.2f}"
    assert r13 >= 1.3, f"t1/t3 = {r13:.2f}"
    report(f"PASS criterion 5 (wall clock): t1/t2 = {r12:.2f}, "
           f"t1/t3 = {r13:.2f} (>= 1.3)")


def test_criterion_6_cross_algorithm_agreement(fixture):
    """Pairwise gradient spread <= 1% per coordinate at 1e6 paths.

    Evaluated at the reference-level curve (flat 0.2) against targets
    priced at sigma = 0.5: large residuals against light payoff tails put
    every coordinate's Monte-Carlo noise well under the band.  The
    closed-form finite-difference gradient is asserted alongside.
    """
    spec, curve, tape = fixture
    eval_vols = np.full(5, 0.2)
    targets = np.array([mdl.black_scholes_call(spec.spot, o.strike, 0.5, o.expiry)
                        for o in spec.options])
    h = 1e-6
    g_true = np.array([
        (mdl.black_scholes_call(spec.spot, o.strike, 0.2, o.expiry) - c)
        * (mdl.black_scholes_call(spec.spot, o.strike, 0.2 + h, o.expiry)
           - mdl.black_scholes_call(spec.spot, o.strike, 0.2 - h, o.expiry)) / (2 * h)
        for o, c in zip(spec.options, targets)
    ])
    paths = generate(7, 10**6, tape.n_inputs)
    grads = {}
    for alg in (1, 2, 3):
        e = GRAD_FNS[alg](tape, eval_vols, paths, targets, batch_count=128)
        grads[alg] = e.grad
        z = np.abs(e.grad - g_true) / np.sqrt(e.variance)
        assert (z < 4.0).all(), f"alg {alg} vs closed-form oracle: z={z}"
    stacked = np.vstack([grads[a] for a in (1, 2, 3)])
    spread = (stacked.max(axis=0) - stacked.min(axis=0)) / np.abs(stacked.mean(axis=0))
    assert (spread <= 0.01).all(), f"spread = {spread}"
    report(f"PASS criterion 6 (agreement): max pairwise spread "
           f"{spread.max():.3%} <= 1%, all within 4 SE of the "
           f"finite-difference oracle")


def test_criterion_7_ad_correctness(fixture):
    """Adjoints match central differences; batch replay is lane-exact."""
    spec, curve, tape = fixture
    rng = np.random.default_rng(123)
    lam = np.array([1.0, 0.7, -1.3, 0.4, 2.0])
    checked = 0
    while checked < 100:
        vols = rng.uniform(0.12, 0.5, 5)
        w = rng.standard_normal(5)
        s = np.array([
            mdl.terminal_price(spec.spot, curve.with_vols(vols), o.expiry, w[i])
            for i, o in enumerate(spec.options)
        ])
        if np.min(np.abs(s - spec.strikes)) < 1e-3:
            continue
        grad = tape.reverse(vols, w, lam)
        oracle = np.empty(5)
        for k in range(5):
            step = 1e-6 * max(1.0, vols[k])
            up, dn = vols.copy(), vols.copy()
            up[k] += step
            dn[k] -= step
            oracle[k] = float(lam @ (tape.forward(up, w) - tape.forward(dn, w))) / (2 * step)
        np.testing.assert_allclose(grad, oracle, rtol=1e-5, atol=1e-9)
        checked += 1

    block = rng.standard_normal((8, 5))
    seeds = rng.standard_normal((8, 5))
    out, buf = tape.replay_forward(curve.knot_vols, block)
    adj = tape.replay_reverse(buf, seeds)
    for j in range(8):
        assert (out[j] == tape.forward(curve.knot_vols, block[j])).all()
        assert (adj[j] == tape.reverse(curve.knot_vols, block[j], seeds[j])).all()
    report("PASS criterion 7 (AD correctness): 100 finite-difference checks "
           "at rel 1e-5; batch replay lane-exact")


def test_criterion_8_oracle_pricing(fixture):
    """Monte-Carlo expectations match Black-Scholes within 3 SE at 1e6."""
    spec, curve, tape = fixture
    paths = generate(4, 10**6, tape.n_inputs)
    y = mdl.payoffs(spec, curve, paths.draws)
    se = y.std(axis=0, ddof=1) / np.sqrt(paths.n_paths)
    zs = []
    for i, o in enumerate(spec.options):
        bs = mdl.black_scholes_call(spec.spot, o.strike,
                                    mdl.vol_at(curve, o.expiry), o.expiry)
        zs.append(abs(y[:, i].mean() - bs) / se[i])
    zs = np.array(zs)
    assert (zs < 3.0).all(), f"pricing z-scores: {zs}"
    report(f"PASS criterion 8 (oracle pricing): max |z| = {zs.max():.2f} < 3")


def test_criterion_9_calibration_recovery():
    """From flat 0.4 against sigma=0.2 targets: alg 1 recovers the knots;
    algorithms 2 and 3 drive the loss below 1% of its initial value."""
    t0 = time.perf_counter()
    spec, curve = mdl.default_fixture(start_vol=0.4, reference_vol=0.2)
    cfg = LbfgsConfig(max_iter=25, grad_norm_tol=1.0, param_floor=1e-4,
                      max_step=0.1)
    fitted, trace = calibrate(spec, curve, 1, 10**6, seed=42, config=cfg)
    err = np.abs(fitted.knot_vols - 0.2).max()
    assert err <= 0.005, f"alg 1 knot error {err:.5f}"
    assert trace.records[-1].loss < 1e-2 * trace.records[0].loss

    ratios = {}
    for alg in (2, 3):
        _, tr = calibrate(spec, curve, alg, 10**6, seed=42, config=cfg)
        ratios[alg] = tr.records[-1].loss / tr.records[0].loss
        assert ratios[alg] < 1e-2, f"alg {alg}: final/initial = {ratios[alg]:.2e}"
    elapsed = time.perf_counter() - t0
    assert elapsed <= 900
    report(f"PASS criterion 9 (calibration): alg1 max knot error {err:.4f} "
           f"<= 0.005; loss ratios alg2 {ratios[2]:.1e}, alg3 {ratios[3]:.1e} "
           f"< 1e-2  [{elapsed:.0f}s]")
