"""Option model: curve interpolation, terminal law, loss, pricing oracle.

The closed-form price is itself validated here against numerical
quadrature of the lognormal payoff integral, and the Monte-Carlo pieces
are validated against the closed form.
"""

import copy
import math
import pickle
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad

import mcadjoint.model as mdl
from mcadjoint import PathBatch, generate
from mcadjoint.model import MarketSpec, OptionQuote, VolCurve
from mcadjoint.rng_paths import generate_rows


TWO_KNOTS = VolCurve([1.0, 2.0], [0.2, 0.3])


def quadrature_call_price(spot, strike, sigma, expiry):
    """Integrate (spot*exp(-s^2/2 + s z) - strike)^+ phi(z) dz directly."""
    sd = sigma * math.sqrt(expiry)

    def integrand(z):
        s = spot * math.exp(-0.5 * sd * sd + sd * z)
        return (s - strike) * math.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)

    z_star = (math.log(strike / spot) + 0.5 * sd * sd) / sd
    value, err = quad(integrand, z_star, z_star + 40.0, limit=500,
                      epsabs=1e-12, epsrel=1e-12)
    assert err < 1e-9
    return value


class TestVolCurve:
    def test_knot_hit(self):
        assert mdl.vol_at(TWO_KNOTS, 1.0) == pytest.approx(0.2)

    def test_midpoint(self):
        assert mdl.vol_at(TWO_KNOTS, 1.5) == pytest.approx(0.25)

    def test_flat_extrapolation(self):
        assert mdl.vol_at(TWO_KNOTS, 3.0) == pytest.approx(0.3)
        assert mdl.vol_at(TWO_KNOTS, 0.25) == pytest.approx(0.2)

    def test_validation(self):
        with pytest.raises(ValueError):
            VolCurve([2.0, 1.0], [0.2, 0.2])
        with pytest.raises(ValueError):
            VolCurve([1.0], [-0.1])
        with pytest.raises(ValueError):
            VolCurve([], [])

    def test_single_knot_everywhere_flat(self):
        curve = VolCurve([2.0], [0.17])
        for t in (0.0, 1.0, 2.0, 9.0):
            assert mdl.vol_at(curve, t) == pytest.approx(0.17)


@pytest.mark.parametrize("name, build", [
    ("strike", lambda: OptionQuote(math.nan, 1.0, 1.0)),
    ("expiry", lambda: OptionQuote(100.0, math.inf, 1.0)),
    ("price", lambda: OptionQuote(100.0, 1.0, -math.inf)),
    ("spot", lambda: MarketSpec(math.nan, (OptionQuote(100.0, 1.0, 8.0),))),
    ("knot_times", lambda: VolCurve([math.nan], [0.2])),
    ("knot_vols", lambda: VolCurve([1.0], [math.inf])),
], ids=["strike", "expiry", "price", "spot", "knot_times", "knot_vols"])
def test_non_finite_field_rejected(name, build):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        build()


class TestTerminalPrice:
    def test_zero_draw(self):
        curve = VolCurve([1.0], [0.2])
        s = mdl.terminal_price(100.0, curve, 1.0, 0.0)
        assert s == pytest.approx(100.0 * math.exp(-0.02))

    def test_zero_vol_limit(self):
        curve = VolCurve([1.0], [1e-12])
        for w in (-2.0, 0.0, 3.0):
            assert mdl.terminal_price(100.0, curve, 1.0, w) == pytest.approx(100.0)

    def test_martingale(self):
        curve = VolCurve([1.0], [0.2])
        w = generate(3, 10**6, 1).draws[:, 0]
        s = mdl.terminal_price(100.0, curve, 1.0, w)
        se = s.std() / math.sqrt(len(s))
        assert abs(s.mean() - 100.0) < 3 * se

    def test_increasing_in_draw(self):
        curve = VolCurve([1.0], [0.3])
        w = np.linspace(-3, 3, 101)
        s = mdl.terminal_price(100.0, curve, 2.0, w)
        assert (np.diff(s) > 0).all()


class TestPayoffs:
    def setup_method(self):
        self.spec = MarketSpec(spot=100.0, options=(
            OptionQuote(100.0, 1.0, 8.0),
            OptionQuote(110.0, 2.0, 6.0),
        ))
        self.curve = VolCurve([1.0, 2.0], [0.2, 0.25])

    def test_out_of_money_zero(self):
        y = mdl.payoffs(self.spec, self.curve, np.zeros(2))
        assert y[0] == 0.0  # S(1) = 98.02 < 100

    def test_in_the_money_intrinsic(self):
        spec = MarketSpec(spot=100.0, options=(OptionQuote(100.0, 1.0, 8.0),))
        curve = VolCurve([1.0], [0.2])
        # pick w so that S(T) = 110 exactly
        w = (math.log(1.1) + 0.02) / 0.2
        y = mdl.payoffs(spec, curve, np.array([w]))
        assert y[0] == pytest.approx(10.0)

    def test_shared_expiry_uses_one_driver(self):
        spec = MarketSpec(spot=100.0, options=(
            OptionQuote(100.0, 1.0, 8.0),
            OptionQuote(105.0, 1.0, 5.0),
        ))
        assert spec.n_drivers == 1
        y = mdl.payoffs(spec, VolCurve([1.0], [0.2]), np.array([0.8]))
        assert y.shape == (2,)
        assert (y >= 0).all()

    def test_driver_layout_is_read_only(self):
        spec = MarketSpec(spot=100.0, options=(
            OptionQuote(100.0, 2.0, 8.0),
            OptionQuote(105.0, 1.0, 5.0),
            OptionQuote(110.0, 2.0, 4.0),
        ))
        for copy_ in (spec, pickle.loads(pickle.dumps(spec)),
                      copy.deepcopy(spec), copy.copy(spec)):
            assert copy_ == spec
            distinct, cols = copy_.driver_layout()
            assert distinct.tolist() == [1.0, 2.0]
            assert cols.tolist() == [1, 0, 1]
            for array in (distinct, cols):
                with pytest.raises(ValueError, match="read-only"):
                    array[0] = 0
        assert spec.driver_layout()[1].tolist() == [1, 0, 1]

    def test_monotone_in_terminal_price(self):
        w = np.linspace(-2, 2, 41)[:, None] * np.ones((1, 2))
        y = mdl.payoffs(self.spec, self.curve, w)
        assert (np.diff(y[:, 0]) >= 0).all()

    def test_driver_count_mismatch(self):
        with pytest.raises(ValueError, match="driver"):
            mdl.payoffs(self.spec, self.curve, np.zeros(3))


class TestLoss:
    def test_residual_zero_by_construction(self):
        spec, curve = mdl.default_fixture()
        paths = generate(1, 4000, spec.n_drivers)
        ey = mdl.payoffs(spec, curve, paths.draws).mean(axis=0)
        matched = MarketSpec(spot=spec.spot, options=tuple(
            OptionQuote(o.strike, o.expiry, e)
            for o, e in zip(spec.options, ey)))
        lv = mdl.loss(matched, curve, paths)
        assert lv.g == 0.0
        np.testing.assert_array_equal(lv.residuals, np.zeros(spec.n_options))

    def test_known_residual(self):
        spec = MarketSpec(spot=100.0, options=(OptionQuote(100.0, 1.0, 8.0),))
        curve = VolCurve([1.0], [0.2])
        paths = generate(2, 50_000, 1)
        lv = mdl.loss(spec, curve, paths)
        assert lv.g == pytest.approx(0.5 * lv.residuals[0] ** 2)

    def test_single_option_residual_three(self):
        # Ey - C = 3 must give g = 4.5 exactly as assembled
        spec = MarketSpec(spot=100.0, options=(OptionQuote(100.0, 1.0, 8.0),))
        curve = VolCurve([1.0], [0.2])
        paths = generate(7, 10_000, 1)
        ey = mdl.payoffs(spec, curve, paths.draws).mean(axis=0)[0]
        shifted = MarketSpec(spot=100.0,
                             options=(OptionQuote(100.0, 1.0, ey - 3.0),))
        lv = mdl.loss(shifted, curve, paths)
        assert lv.g == pytest.approx(4.5)

    def test_loss_matches_closed_form_within_mc_error(self):
        spec, curve = mdl.default_fixture()
        paths = generate(11, 10**6, spec.n_drivers)
        y = mdl.payoffs(spec, curve, paths.draws)
        lv = mdl.loss(spec, curve, paths)
        bs = np.array([
            mdl.black_scholes_call(spec.spot, o.strike,
                                   mdl.vol_at(curve, o.expiry), o.expiry)
            for o in spec.options
        ])
        se = y.std(axis=0, ddof=1) / math.sqrt(paths.n_paths)
        assert (np.abs(lv.expectations - bs) < 3 * se).all()
        g_bs = 0.5 * float(((bs - spec.prices) ** 2).sum())
        # propagate the expectation error bars through g
        g_err = float(np.abs(lv.expectations - spec.prices) @ (3 * se)) + float(se @ se)
        assert abs(lv.g - g_bs) < 3 * g_err


def _paths(seed, n, n_drivers):
    return PathBatch(generate_rows(seed, "philox", 0, n, n_drivers), seed,
                     "philox")


TWO_OPTIONS = MarketSpec(spot=100.0, options=(OptionQuote(95.0, 1.0, 9.0),
                                              OptionQuote(110.0, 2.0, 7.0)))
ONE_OPTION = MarketSpec(spot=100.0, options=(OptionQuote(100.0, 1.0, 8.0),))


class TestBlockedLoss:
    """``loss`` sums the payoffs block by block, in path order, and holds no
    (n_paths, n_options) matrix; two or more options keep the full-matrix
    formula's bits."""

    def test_block_is_8192_paths(self):
        # the path counts below straddle this block size
        assert mdl._LOSS_ROWS == 8192

    @pytest.mark.parametrize("n", [1, 2, 8191, 8192, 8193, 3 * 8192 + 17,
                                   10**5])
    @pytest.mark.parametrize("market", ["default", "two options"])
    def test_equals_full_matrix_formula_bitwise(self, n, market):
        spec, curve = (mdl.default_fixture() if market == "default"
                       else (TWO_OPTIONS, TWO_KNOTS))
        paths = _paths(5, n, spec.n_drivers)
        expectations = mdl.payoffs(spec, curve, paths.draws).mean(axis=0)
        residuals = expectations - spec.prices
        lv = mdl.loss(spec, curve, paths)
        assert lv.expectations.tobytes() == expectations.tobytes()
        assert lv.residuals.tobytes() == residuals.tobytes()
        assert lv.g == 0.5 * float(residuals @ residuals)

    @pytest.mark.parametrize("n", [2, 8193, 3 * 8192 + 17, 10**5])
    def test_one_option_within_summation_error(self, n):
        # numpy sums a lone column pairwise, loss in path order; for n
        # non-negative terms either sum is within (n - 1) u of the exact one
        # (u = eps / 2), so the two means are within n eps of each other
        curve = VolCurve([1.0], [0.2])
        paths = _paths(6, n, 1)
        full = mdl.payoffs(ONE_OPTION, curve, paths.draws).mean(axis=0)
        lv = mdl.loss(ONE_OPTION, curve, paths)
        assert abs(lv.expectations[0] - full[0]) <= \
            n * np.finfo(float).eps * full[0]

    @pytest.mark.parametrize("n", [8193, 3 * 8192 + 17, 10**5])
    def test_one_option_sums_in_path_order(self, n, monkeypatch):
        # a lone column too: the sequential sum, whatever the block size
        curve = VolCurve([1.0], [0.2])
        paths = _paths(6, n, 1)
        total = 0.0
        for y in mdl.payoffs(ONE_OPTION, curve, paths.draws)[:, 0].tolist():
            total += y
        expectations = np.array([total]) / n
        lv = mdl.loss(ONE_OPTION, curve, paths)
        assert lv.expectations.tobytes() == expectations.tobytes()
        monkeypatch.setattr(mdl, "_LOSS_ROWS", 1024)
        lv = mdl.loss(ONE_OPTION, curve, paths)
        assert lv.expectations.tobytes() == expectations.tobytes()

    @pytest.mark.parametrize("n_drivers", [4, 6])
    def test_driver_count_checked_at_the_edge(self, n_drivers, monkeypatch):
        # the batch is checked before any payoff block runs
        spec, curve = mdl.default_fixture()
        monkeypatch.setattr(mdl, "_call_payoffs", None)
        with pytest.raises(ValueError,
                           match=f"expected 5 drivers .*got {n_drivers}"):
            mdl.loss(spec, curve, _paths(3, 10, n_drivers))

    def test_peak_memory_independent_of_path_count(self):
        spec, curve = mdl.default_fixture()
        paths = generate(8, 10**5, spec.n_drivers)
        tracemalloc.start()
        try:
            mdl.loss(spec, curve, paths)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the (10^5, 5) payoff matrix alone is 4 MB
        assert peak < 2e6


class TestBlackScholes:
    def test_intrinsic_at_zero_vol(self):
        assert mdl.black_scholes_call(110.0, 100.0, 0.0, 1.0) == pytest.approx(10.0)
        assert mdl.black_scholes_call(110.0, 100.0, 1e-12, 1.0) == pytest.approx(10.0)

    def test_zero_strike_is_spot(self):
        assert mdl.black_scholes_call(100.0, 0.0, 0.3, 2.0) == pytest.approx(100.0)

    @pytest.mark.parametrize("spot,strike,sigma,expiry", [
        (100.0, 100.0, 0.2, 1.0),
        (100.0, 120.0, 0.4, 5.0),
        (100.0, 80.0, 0.15, 0.5),
        (90.0, 100.0, 0.35, 2.5),
    ])
    def test_matches_quadrature(self, spot, strike, sigma, expiry):
        closed = mdl.black_scholes_call(spot, strike, sigma, expiry)
        numeric = quadrature_call_price(spot, strike, sigma, expiry)
        assert closed == pytest.approx(numeric, abs=1e-8)

    def test_mc_prices_match_closed_form(self):
        spec, curve = mdl.default_fixture()
        paths = generate(4, 10**6, spec.n_drivers)
        y = mdl.payoffs(spec, curve, paths.draws)
        se = y.std(axis=0, ddof=1) / math.sqrt(paths.n_paths)
        for i, o in enumerate(spec.options):
            bs = mdl.black_scholes_call(spec.spot, o.strike,
                                        mdl.vol_at(curve, o.expiry), o.expiry)
            assert abs(y[:, i].mean() - bs) < 3 * se[i]


# knots at the expiries; expiries before the first knot, between knots
# (shared by two options) and after the last; a single-knot curve
TAPE_SPECS = [
    mdl.default_fixture(),
    (MarketSpec(spot=100.0, options=(
        OptionQuote(95.0, 0.5, 9.0),
        OptionQuote(100.0, 1.7, 8.0),
        OptionQuote(110.0, 1.7, 5.0),
        OptionQuote(105.0, 4.3, 12.0),
        OptionQuote(120.0, 6.0, 10.0),
    )), VolCurve([1.0, 3.0, 5.0], [0.27, 0.19, 0.33])),
    (MarketSpec(spot=100.0, options=(
        OptionQuote(100.0, 1.0, 8.0),
        OptionQuote(90.0, 2.0, 15.0),
        OptionQuote(115.0, 2.0, 6.0),
        OptionQuote(100.0, 3.0, 14.0),
    )), VolCurve([2.0], [0.22])),
]


class TestModelTape:
    def test_dimensions(self):
        spec, curve = mdl.default_fixture()
        tape = mdl.build_model_tape(spec, curve)
        assert tape.n_params == 5
        assert tape.n_inputs == 5
        assert tape.n_outputs == 5

    def test_tape_equals_payoffs_bitwise(self):
        rng = np.random.default_rng(8)
        for spec, curve in TAPE_SPECS:
            tape = mdl.build_model_tape(spec, curve)
            w = rng.standard_normal((100, spec.n_drivers))
            direct = mdl.payoffs(spec, curve, w)
            replayed, _ = tape.replay_forward(curve.knot_vols, w)
            assert (direct == replayed).all()
            _, cols = spec.driver_layout()
            for i, o in enumerate(spec.options):
                s = mdl.terminal_price(spec.spot, curve, o.expiry, w[:, cols[i]])
                assert (np.maximum(s - o.strike, 0.0) == direct[:, i]).all()
                expected = np.interp(o.expiry, curve.knot_times, curve.knot_vols)
                assert mdl.vol_at(curve, o.expiry) == pytest.approx(expected,
                                                                   rel=1e-15)

    def test_tape_equals_payoffs_at_other_vols(self):
        spec, curve = mdl.default_fixture()
        tape = mdl.build_model_tape(spec, curve)
        vols = np.array([0.15, 0.22, 0.31, 0.27, 0.18])
        w = np.random.default_rng(9).standard_normal((50, 5))
        direct = mdl.payoffs(spec, curve.with_vols(vols), w)
        replayed, _ = tape.replay_forward(vols, w)
        assert (direct == replayed).all()

    def test_adjoints_match_finite_differences(self):
        spec, curve = mdl.default_fixture()
        tape = mdl.build_model_tape(spec, curve)
        rng = np.random.default_rng(10)
        lam = np.array([1.0, -0.5, 2.0, 0.3, -1.2])
        checked = 0
        while checked < 30:
            vols = rng.uniform(0.15, 0.5, 5)
            w = rng.standard_normal(5)
            s = np.array([
                mdl.terminal_price(spec.spot, curve.with_vols(vols), o.expiry, w[i])
                for i, o in enumerate(spec.options)
            ])
            if np.min(np.abs(s - spec.strikes)) < 1e-3:
                continue  # keep clear of payoff kinks
            grad = tape.reverse(vols, w, lam)
            oracle = np.empty(5)
            for k in range(5):
                h = 1e-6 * max(1.0, vols[k])
                up, dn = vols.copy(), vols.copy()
                up[k] += h
                dn[k] -= h
                oracle[k] = float(lam @ (tape.forward(up, w) - tape.forward(dn, w))) / (2 * h)
            np.testing.assert_allclose(grad, oracle, rtol=1e-5, atol=1e-6)
            checked += 1

    def test_mc_vega_consistent_with_bs_vega(self):
        # average pathwise d y_i / d sigma_i must reproduce the closed-form
        # vega (via finite differences of the pricing oracle)
        spec, curve = mdl.default_fixture()
        tape = mdl.build_model_tape(spec, curve)
        paths = generate(12, 200_000, 5)
        _, buf = tape.replay_forward(curve.knot_vols, paths.draws)
        per_path = np.empty((paths.n_paths, 5))
        for i in range(5):
            lam = np.zeros(5)
            lam[i] = 1.0
            seeds = np.broadcast_to(lam, (paths.n_paths, 5))
            per_path[:, i] = tape.replay_reverse(buf, seeds)[:, i]
        h = 1e-5
        for i, o in enumerate(spec.options):
            sig = mdl.vol_at(curve, o.expiry)
            fd_vega = (mdl.black_scholes_call(spec.spot, o.strike, sig + h, o.expiry)
                       - mdl.black_scholes_call(spec.spot, o.strike, sig - h, o.expiry)) / (2 * h)
            assert mdl.bs_vega(spec.spot, o.strike, sig, o.expiry) == \
                pytest.approx(fd_vega, rel=1e-6)
            mean = per_path[:, i].mean()
            se = per_path[:, i].std(ddof=1) / math.sqrt(paths.n_paths)
            assert abs(mean - fd_vega) < 3 * se


class TestMarketFile:
    def test_roundtrip(self, tmp_path):
        spec, curve = mdl.default_fixture()
        path = tmp_path / "market.cfg"
        mdl.save_market_file(path, spec, curve)
        spec2, curve2 = mdl.load_market_file(path)
        assert spec2.spot == spec.spot
        np.testing.assert_array_equal(curve2.knot_vols, curve.knot_vols)
        np.testing.assert_array_equal(spec2.prices, spec.prices)
        np.testing.assert_array_equal(spec2.expiries, spec.expiries)

    def test_parse_errors_carry_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("spot = 100\nknot 1.0 0.2\n")
        with pytest.raises(ValueError, match="bad.cfg:2"):
            mdl.load_market_file(path)

    @pytest.mark.parametrize("entry", [
        "spot =",                # no number
        "spot = abc",            # not a number
        "spot = 100 7",          # one number too many
        "spot = -5",             # not positive
        "spot = 100\nspot = 99", # a second spot
        "option = -100 1 8",     # negative strike
        "option = 100 1 nan",    # non-finite price
        "option = 100 inf 8",    # non-finite expiry
        "knot = nan 0.4",        # non-finite time
        "knot = 1 inf",          # non-finite vol
        "knot = 2 0",            # vol not positive
        "knot = 1 0.3",          # repeats the time of line 2
    ])
    def test_bad_entries_raise_located_errors(self, tmp_path, entry):
        # the last line of entry is the bad one; a spot follows unless
        # entry has one
        path = tmp_path / "bad.cfg"
        spot = "" if "spot" in entry else "spot = 100\n"
        path.write_text(f"option = 100 1 8\nknot = 1 0.2\n{entry}\n{spot}")
        bad_line = 2 + len(entry.splitlines())
        with pytest.raises(ValueError, match=re.escape(f"{path}:{bad_line}: ")):
            mdl.load_market_file(path)

    def test_missing_sections(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("spot = 100\n")
        with pytest.raises(ValueError, match="option"):
            mdl.load_market_file(path)
