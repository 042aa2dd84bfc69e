"""L-BFGS minimizer and the calibration driver."""

import weakref

import numpy as np
import pytest

import rng_oracle as oracle
import mcadjoint.model as mdl
import mcadjoint.optimizer as opt
from mcadjoint.optimizer import (
    CalibrationTrace,
    LbfgsConfig,
    TraceRecord,
    calibrate,
    lbfgs_minimize,
    read_csv_table,
    read_trace_csv,
    write_trace_csv,
)


def quadratic(x):
    return 0.5 * float(x @ x), x.copy()


def rosenbrock(x):
    a, b = x
    f = (1 - a) ** 2 + 100 * (b - a * a) ** 2
    g = np.array([-2 * (1 - a) - 400 * a * (b - a * a), 200 * (b - a * a)])
    return f, g


class TestLbfgs:
    def test_exact_quadratic(self):
        x, trace = lbfgs_minimize(quadratic, np.array([3.0, -4.0]),
                                  LbfgsConfig(max_iter=5, grad_norm_tol=1e-10))
        assert np.linalg.norm(x) <= 1e-8
        assert trace.records[-1].iteration <= 5
        assert trace.status == "converged"

    def test_rosenbrock(self):
        x, trace = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]),
                                  LbfgsConfig(max_iter=200, grad_norm_tol=1e-9))
        np.testing.assert_allclose(x, [1.0, 1.0], atol=1e-6)

    def test_random_spd_quadratic_matches_linear_solve(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((10, 10))
        h = a @ a.T + 10 * np.eye(10)
        b = rng.standard_normal(10)

        def f(x):
            return 0.5 * float(x @ h @ x) - float(b @ x), h @ x - b

        x, _ = lbfgs_minimize(f, np.zeros(10),
                              LbfgsConfig(max_iter=200, grad_norm_tol=1e-12))
        expected = np.linalg.solve(h, b)
        f_star = 0.5 * float(expected @ h @ expected) - float(b @ expected)
        assert f(x)[0] == pytest.approx(f_star, abs=1e-10)
        np.testing.assert_allclose(x, expected, atol=1e-6)

    def test_deterministic_loss_non_increasing(self):
        _, trace = lbfgs_minimize(rosenbrock, np.array([-1.2, 1.0]),
                                  LbfgsConfig(max_iter=60, grad_norm_tol=0.0))
        losses = trace.losses
        assert (np.diff(losses) <= 1e-12).all()

    def test_zero_iteration_budget(self):
        x, trace = lbfgs_minimize(quadratic, np.array([2.0, 2.0]),
                                  LbfgsConfig(max_iter=0))
        assert len(trace) == 1
        np.testing.assert_array_equal(x, [2.0, 2.0])

    def test_non_finite_objective_aborts_with_last_good(self):
        def f(x):
            if x[0] < 0.5:
                return np.nan, x.copy()
            return 0.5 * float(x @ x), x.copy()

        x, trace = lbfgs_minimize(f, np.array([3.0]),
                                  LbfgsConfig(max_iter=50))
        assert trace.status in ("non_finite_abort", "line_search_failure")
        assert np.isfinite(x).all()

    def test_non_finite_reanchor_aborts_without_probes(self):
        # the sample drawn after the first step makes the objective NaN: the
        # run stops at that re-anchor instead of line-searching on NaN probes
        sample = {"k": 0}
        calls = []

        def loss(x):
            return np.nan if sample["k"] >= 1 else 0.5 * float(x @ x)

        def fg(x):
            calls.append("fg")
            return loss(x), x.copy()

        def value_fn(x):
            calls.append("value")
            return loss(x)

        def step_setup(k):
            sample["k"] = k

        x, trace = lbfgs_minimize(fg, np.array([3.0, -4.0]),
                                  LbfgsConfig(max_iter=10), value_fn=value_fn,
                                  step_setup=step_setup)
        assert trace.status == "non_finite_abort"
        # start, one accepted probe, the accepted point, the re-anchor
        assert calls == ["fg", "value", "fg", "fg"]
        assert trace.records[-1].iteration == 1
        assert np.isnan(trace.records[-1].loss)
        np.testing.assert_array_equal(x, trace.records[-1].params)

    def test_non_finite_gradient_at_accepted_step_aborts(self):
        # the value is finite and falls, so the first probe is accepted, but
        # the gradient there is NaN: stop before recording the new point
        x0 = np.array([3.0, -4.0])

        def fg(x):
            g = x.copy() if (x == x0).all() else np.full_like(x, np.nan)
            return 0.5 * float(x @ x), g

        x, trace = lbfgs_minimize(fg, x0, LbfgsConfig(max_iter=10))
        assert trace.status == "non_finite_abort"
        assert len(trace) == 1
        np.testing.assert_array_equal(x, x0)

    def test_projection_respects_floor(self):
        x, _ = lbfgs_minimize(quadratic, np.array([3.0, -4.0]),
                              LbfgsConfig(max_iter=30, param_floor=0.5))
        assert (x >= 0.5).all()

    def test_max_step_caps_moves(self):
        seen = []

        def f(x):
            seen.append(x.copy())
            return 0.5 * float(x @ x), x.copy()

        lbfgs_minimize(f, np.array([100.0]),
                       LbfgsConfig(max_iter=3, max_step=1.0))
        steps = np.abs(np.diff([s[0] for s in seen]))
        assert steps.max() <= 1.0 + 1e-12

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LbfgsConfig(max_step=-1.0)

    @pytest.mark.parametrize("max_iter", [-1, -5])
    def test_negative_iteration_budget_rejected(self, max_iter):
        with pytest.raises(ValueError, match="max_iter must be >= 0"):
            LbfgsConfig(max_iter=max_iter)


class TestTrace:
    def test_iterations_strictly_increasing(self):
        trace = CalibrationTrace()
        trace.append(TraceRecord(0, 1.0, 1.0, np.array([1.0]), 0, 0, 0.0))
        with pytest.raises(ValueError):
            trace.append(TraceRecord(0, 0.5, 1.0, np.array([1.0]), 0, 0, 0.0))

    def test_csv_roundtrip(self, tmp_path):
        trace = CalibrationTrace()
        trace.append(TraceRecord(0, 12.5, 3.25, np.array([0.4, 0.3]), 10, 5, 1.5))
        trace.append(TraceRecord(1, 2.25, 1.125, np.array([0.2, 0.21]), 30, 15, 3.75))
        path = tmp_path / "trace.csv"
        write_trace_csv(path, trace)
        back = read_trace_csv(path)
        assert len(back) == 2
        for a, b in zip(trace.records, back.records):
            assert a.iteration == b.iteration
            assert a.loss == b.loss
            assert a.f_evals == b.f_evals
            np.testing.assert_array_equal(a.params, b.params)
        # the generic table reader reads the same file
        header, rows = read_csv_table(path)
        assert header == ["iter", "loss", "grad_norm", "param_1", "param_2",
                          "f_evals", "r_evals", "millis"]
        assert rows == [[r.iteration, r.loss, r.grad_norm, *r.params,
                         r.f_evals, r.r_evals, r.millis]
                        for r in trace.records]


class TestCalibrate:
    def test_zero_iterations_returns_initial_curve(self):
        spec, curve = mdl.default_fixture()
        fitted, trace = calibrate(spec, curve, 1, 1000, seed=1,
                                  config=LbfgsConfig(max_iter=0))
        np.testing.assert_array_equal(fitted.knot_vols, curve.knot_vols)
        assert len(trace) == 1

    def test_recovers_flat_curve_small(self):
        spec, curve = mdl.default_fixture()
        cfg = LbfgsConfig(max_iter=15, grad_norm_tol=1.0, param_floor=1e-4)
        fitted, trace = calibrate(spec, curve, 1, 10**5, seed=42, config=cfg)
        assert np.abs(fitted.knot_vols - 0.2).max() < 0.01
        assert trace.records[-1].loss < 1e-2 * trace.records[0].loss

    def test_fixed_seed_determinism(self):
        spec, curve = mdl.default_fixture()
        cfg = LbfgsConfig(max_iter=4, grad_norm_tol=1e-6, param_floor=1e-4)
        runs = [calibrate(spec, curve, 2, 4000, seed=9, config=cfg)
                for _ in range(2)]
        (c1, t1), (c2, t2) = runs
        np.testing.assert_array_equal(c1.knot_vols, c2.knot_vols)
        assert t1.losses.tolist() == t2.losses.tolist()
        assert [r.f_evals for r in t1.records] == [r.f_evals for r in t2.records]

    def test_trace_tracks_path_level_costs(self):
        spec, curve = mdl.default_fixture()
        n_mc = 3000
        cfg = LbfgsConfig(max_iter=2, grad_norm_tol=1e-9, param_floor=1e-4)
        _, trace = calibrate(spec, curve, 1, n_mc, seed=3, config=cfg)
        # every gradient call runs algorithm 1's 2*n_mc forwards and n_mc
        # reverses; every loss value computed adds n_mc forwards (each probe
        # computes one, and so does each gradient call that does not reuse
        # its accepted probe's value)
        assert trace.records[-1].r_evals % n_mc == 0
        assert trace.records[-1].f_evals % n_mc == 0
        assert trace.records[-1].f_evals > trace.records[-1].r_evals

    @pytest.mark.parametrize("algorithm", [1, 2, 3])
    def test_single_path_rejected(self, algorithm):
        spec, curve = mdl.default_fixture()
        with pytest.raises(ValueError, match="n_mc must be >= 2 paths"):
            calibrate(spec, curve, algorithm, 1, seed=1)

    @pytest.mark.parametrize("n_mc, seed, name", [
        (1000, 1.5, "seed"), (1000, -1, "seed"), (1000, np.float64(2), "seed"),
        (1e4, 1, "n_mc"), (np.float64(1000), 1, "n_mc"),
    ])
    def test_bad_seed_or_path_count_rejected(self, n_mc, seed, name):
        spec, curve = mdl.default_fixture()
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            calibrate(spec, curve, 1, n_mc, seed=seed)

    @pytest.mark.parametrize("algorithm", [1, 2, 3])
    def test_one_loss_call_per_gradient_and_probe(self, algorithm,
                                                  monkeypatch):
        # one loss call per gradient call and probe, less one per accepted
        # line search: the gradient call after it reuses the accepted
        # probe's value.  The benchmark reads model.loss calls and optimizer
        # value/gradient calls from this accounting
        spec, curve = mdl.default_fixture()
        n_mc = 2000
        calls = {"loss": 0, "grad": 0, "probe": 0, "est_f": 0, "est_r": 0}
        loss, estimator, minimize = (mdl.loss, opt._ESTIMATORS[algorithm],
                                     opt.lbfgs_minimize)

        def counted_loss(*args):
            calls["loss"] += 1
            return loss(*args)

        def counted_estimator(*args, **kwargs):
            est = estimator(*args, **kwargs)
            calls["est_f"] += est.f_evals
            calls["est_r"] += est.r_evals
            return est

        def counted_minimize(fg, x0, config, *, value_fn, **kwargs):
            def grad(x):
                calls["grad"] += 1
                return fg(x)

            def probe(x):
                calls["probe"] += 1
                return value_fn(x)

            return minimize(grad, x0, config, value_fn=probe, **kwargs)

        monkeypatch.setattr(mdl, "loss", counted_loss)
        monkeypatch.setitem(opt._ESTIMATORS, algorithm, counted_estimator)
        monkeypatch.setattr(opt, "lbfgs_minimize", counted_minimize)
        _, trace = calibrate(spec, curve, algorithm, n_mc, seed=4,
                             config=LbfgsConfig(max_iter=3))
        # the last record follows every call: no probe ran after it
        assert trace.status == "max_iter" and calls["probe"] >= 3
        accepted = len(trace) - 1
        assert accepted == 3
        assert calls["loss"] == calls["grad"] + calls["probe"] - accepted
        assert trace.records[-1].f_evals == \
            calls["est_f"] + n_mc * calls["loss"]
        assert trace.records[-1].r_evals == calls["est_r"]

    @pytest.mark.parametrize("algorithm", [1, 2, 3])
    def test_every_value_is_the_loss_on_the_current_path_set(self, algorithm,
                                                             monkeypatch):
        # a reused value must be the loss at that very point on the set
        # drawn for this iteration.  The set is watched through a weak
        # reference, so a freed set's memory is free for the next draw, as
        # in a plain run: a cache keyed on id() of the draws then hands out
        # the previous set's value
        spec, curve = mdl.default_fixture()
        # calibrate draws each set whole through the internal constructor
        generate, minimize, loss = (opt.rng._unfilled, opt.lbfgs_minimize,
                                    mdl.loss)
        current, checked = [], []

        def tracked_generate(*args, **kwargs):
            batch = generate(*args, **kwargs)
            current[:] = [weakref.ref(batch)]
            return batch

        def check(x, value):
            fresh = loss(spec, curve.with_vols(x), current[0]()).g
            assert np.float64(value).tobytes() == np.float64(fresh).tobytes()
            checked.append(value)

        def checked_minimize(fg, x0, config, *, value_fn, **kwargs):
            def grad(x):
                value, g = fg(x)
                check(x, value)
                return value, g

            def probe(x):
                value = value_fn(x)
                check(x, value)
                return value

            return minimize(grad, x0, config, value_fn=probe, **kwargs)

        monkeypatch.setattr(opt.rng, "_unfilled", tracked_generate)
        monkeypatch.setattr(opt, "lbfgs_minimize", checked_minimize)
        _, trace = calibrate(spec, curve, algorithm, 4000, seed=6,
                             config=LbfgsConfig(max_iter=6))
        assert trace.status == "max_iter" and len(checked) > 2 * 6

    @pytest.mark.parametrize("algorithm", [1, 2, 3])
    def test_holds_one_path_set(self, algorithm, monkeypatch):
        # each iteration's draw finds every earlier path set already freed
        spec, curve = mdl.default_fixture()
        generate, alive = opt.rng._unfilled, []

        def tracked_generate(*args, **kwargs):
            assert all(ref() is None for ref in alive), \
                f"{sum(ref() is not None for ref in alive)} earlier refs alive"
            batch = generate(*args, **kwargs)
            alive.extend([weakref.ref(batch), weakref.ref(batch.draws)])
            return batch

        monkeypatch.setattr(opt.rng, "_unfilled", tracked_generate)
        _, trace = calibrate(spec, curve, algorithm, 4000, seed=5,
                             config=LbfgsConfig(max_iter=3))
        # sets drawn for iterations 0, 1 and 2; the last needs no fresh set
        assert trace.status == "max_iter" and len(alive) == 2 * 3

    def test_a_set_above_the_window_is_held_whole(self, monkeypatch):
        # the line search reads each set about four times: each set draws
        # every row exactly once, and the trace is that of finished draws
        spec, curve = mdl.default_fixture()
        n_mc = opt.rng._HOLD_ROWS + 1
        config = LbfgsConfig(max_iter=2)
        fill_rows, fills = opt.rng._fill_rows, {}

        def counted(out, seed, generator_id, start):
            fills.setdefault(seed, []).append((start, start + len(out)))
            fill_rows(out, seed, generator_id, start)

        monkeypatch.setattr(opt.rng, "_fill_rows", counted)
        _, trace = calibrate(spec, curve, 1, n_mc, seed=4, config=config)
        monkeypatch.undo()
        assert len(fills) == min(len(trace), config.max_iter)
        for seed, drawn in fills.items():
            drawn.sort()
            assert drawn[0][0] == 0 and drawn[-1][1] == n_mc, seed
            assert all(a[1] == b[0] for a, b in zip(drawn, drawn[1:])), seed

        def finished(seed, generator_id, start, stop, n_inputs, whole=False):
            draws = oracle.generate(seed, stop - start, n_inputs, generator_id)
            return opt.rng.PathBatch(draws, seed, generator_id)

        monkeypatch.setattr(opt.rng, "_unfilled", finished)
        _, expect = calibrate(spec, curve, 1, n_mc, seed=4, config=config)
        assert trace.status == expect.status
        for got, want in zip(trace.records, expect.records, strict=True):
            assert (got.loss, got.grad_norm, got.f_evals, got.r_evals) == (
                want.loss, want.grad_norm, want.f_evals, want.r_evals)
            assert got.params.tobytes() == want.params.tobytes()

    def test_algorithm_validation(self):
        spec, curve = mdl.default_fixture()
        with pytest.raises(ValueError, match="algorithm"):
            calibrate(spec, curve, 4, 1000, seed=1)
