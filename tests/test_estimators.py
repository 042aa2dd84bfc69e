"""Gradient estimators: oracles, evaluation counts, variance machinery.

The main correctness oracle is a slow path-by-path reimplementation of
each estimator built directly on scalar tape replays; the vectorized
estimators must agree with it to rounding.  Statistical assertions use
fixed seeds and standard-error bands.
"""

import math
import tracemalloc

import numpy as np
import pytest

import mcadjoint.estimators as est
import mcadjoint.model as mdl
import mcadjoint.rng_paths as rng
import mcadjoint.tape as tp
from mcadjoint.rng_paths import PathBatch, generate


def linear_toy_tape():
    """y = a1 w + a2: Ey = a2, dy/da1 = w, dy/da2 = 1."""
    return tp.record(lambda p, w: [p[0] * w[0] + p[1]], n_params=2, n_inputs=1)


def constant_tape(value=5.0):
    """y = value regardless of the parameter."""
    return tp.record(lambda p, w: [p[0] * 0.0 + value], n_params=1, n_inputs=1)


def fixture_tape():
    spec, curve = mdl.default_fixture()
    return spec, curve, mdl.build_model_tape(spec, curve)


def slow_est1(tape, params, paths, targets):
    y = np.array([tape.forward(params, w) for w in paths.draws])
    lam = y.mean(axis=0) - targets
    terms = np.array([tape.reverse(params, w, lam) for w in paths.draws])
    return terms.mean(axis=0)


def slow_est2(tape, params, paths, targets):
    y = np.array([tape.forward(params, w) for w in paths.draws])
    terms = [tape.reverse(params, paths.draws[j], y[j - 1] - targets)
             for j in range(1, paths.n_paths)]
    return np.mean(terms, axis=0)


def slow_est3(tape, params, paths, targets):
    y = np.array([tape.forward(params, w) for w in paths.draws])
    terms = []
    for j in range(1, paths.n_paths):
        s = y[:j].sum(axis=0) / j
        terms.append(tape.reverse(params, paths.draws[j], s - targets))
    return np.mean(terms, axis=0)


def slow_chunk_lag(algorithm, tape, params, paths, targets, width):
    """Path j seeded from path j - c (alg 2) or the mean of paths
    [0, floor(j/c) c) (alg 3), for j >= c."""
    y = np.array([tape.forward(params, w) for w in paths.draws])
    terms = []
    for j in range(width, paths.n_paths):
        if algorithm == 2:
            s = y[j - width]
        else:
            m = j // width * width
            s = y[:m].sum(axis=0) / m
        terms.append(tape.reverse(params, paths.draws[j], s - targets))
    return np.mean(terms, axis=0)


def stack_bytes(tape, lanes):
    """Bytes of an estimate's reduction stack: the carry row and one block
    of ``lanes`` paths' terms."""
    return (1 + lanes) * max(2, tape.n_params) * 8


class TestAlgorithm1:
    def test_constant_payoff_zero_gradient(self):
        tape = constant_tape()
        e = est.grad_est1(tape, [0.3], generate(1, 64, 1), [0.0])
        assert (e.grad == 0.0).all()

    def test_costs_exact(self):
        tape = linear_toy_tape()
        e = est.grad_est1(tape, [0.7, 1.3], generate(2, 100, 1), [0.0])
        assert e.f_evals == 200
        assert e.r_evals == 100
        assert e.algorithm == 1

    def test_matches_slow_oracle(self):
        spec, curve, tape = fixture_tape()
        paths = generate(3, 40, 5)
        e = est.grad_est1(tape, curve.knot_vols, paths, spec.prices)
        oracle = slow_est1(tape, curve.knot_vols, paths, spec.prices)
        np.testing.assert_allclose(e.grad, oracle, rtol=1e-12)

    def test_linear_toy_within_three_ses(self):
        # d G / d a = (Ey - C) * E(dy/da) = (a2 - C) * [0, 1] symbolically;
        # the error band comes from independent replications because the
        # internal variance conditions on the pass-one mean
        tape = linear_toy_tape()
        params = np.array([0.7, 1.3])
        runs = np.array([
            est.grad_est1(tape, params, generate(400 + r, 10**5, 1), [0.4]).grad
            for r in range(30)
        ])
        analytic = np.array([0.0, 0.9])
        se = runs.std(axis=0, ddof=1) / np.sqrt(len(runs))
        assert (np.abs(runs.mean(axis=0) - analytic) < 3 * se).all()

    def test_single_param_toy_against_algebra_oracle(self):
        # y = a w + a, C = 0: Ey = a, so dG/da = (Ey - C) E[dy/da] = a.
        # The estimate itself is a (mean(w) + 1)^2, whose standard deviation
        # is 2a/sqrt(N) to leading order; both come from the same algebra.
        tape = tp.record(lambda p, w: [p[0] * w[0] + p[0]],
                         n_params=1, n_inputs=1)
        a, n = 1.5, 10**6
        e = est.grad_est1(tape, [a], generate(21, n, 1), [0.0])
        assert abs(e.grad[0] - a) < 3 * (2 * a / np.sqrt(n))

    def test_holds_no_output_matrix(self):
        spec, curve, tape = fixture_tape()
        paths = generate(5, 10**5, 5)
        tracemalloc.start()
        try:
            est.grad_est1(tape, curve.knot_vols, paths, spec.prices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # above the draws: one reduction stack and one 2048-lane block
        # buffer with its stacks, 0.8 MB; no N x m matrix of outputs and no
        # N x M matrix of terms
        assert peak < stack_bytes(tape, 2048) + 1e6

    def test_peak_within_two_block_buffers(self):
        self.check_peak_within_two_block_buffers(5 * 10**4, 2048)

    def test_peak_within_two_block_buffers_at_full_width(self):
        self.check_peak_within_two_block_buffers(2**19, 8192)

    @pytest.mark.parametrize("n, lanes", [(5 * 10**4, 2048), (2**19, 8192)])
    def test_peak_within_two_block_buffers_algorithm3(self, n, lanes):
        self.check_peak_within_two_block_buffers(n, lanes, est.grad_est3)

    def test_peak_within_two_block_buffers_batched_width8(self):
        def width8(tape, params, paths, targets):
            return est.grad_est_batched(3, tape, params, paths, targets,
                                        width=8)

        self.check_peak_within_two_block_buffers(5 * 10**4, 2048, width8)

    @staticmethod
    def check_peak_within_two_block_buffers(n, lanes, run=est.grad_est1):
        # every pass shares one block buffer, which holds the forward
        # values and the adjoints alike, and nothing the tape keeps holds
        # it after the call: the peak above the pre-drawn paths is that
        # buffer, at the width the run uses, plus at most four block-sized
        # stacks (the sums, algorithm 1's variance mask and its pass-one
        # sum, and one reduction temporary), well within two buffers,
        # however many paths there are; the draws are finished, since a
        # batch above the hold limit draws each read into slots of its own
        spec, curve, tape = fixture_tape()
        paths = PathBatch(generate(6, n, 5).draws, 6, "philox")
        assert est._block_ranges(n, 1)[0] == (0, lanes)
        run(tape, curve.knot_vols, paths, spec.prices)  # warm up
        tracemalloc.start()
        try:
            run(tape, curve.knot_vols, paths, spec.prices)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block_bytes = tape.alloc_buffer(lanes).nbytes
        assert peak <= block_bytes + 4 * stack_bytes(tape, lanes) + 2**16

    def test_rejects_empty(self):
        tape = linear_toy_tape()
        empty = PathBatch(draws=np.zeros((0, 1)), seed=0, generator_id="philox")
        with pytest.raises(ValueError):
            est.grad_est1(tape, [1.0, 1.0], empty, [0.0])

    def test_non_finite_adjoint_raises(self):
        # max0(p * log(w)) at w = 0 has the finite output 0 and a NaN adjoint
        tape = tp.record(lambda p, w: [tp.max0(p[0] * tp.log(w[0]))],
                         n_params=1, n_inputs=1)
        zeros = PathBatch(draws=np.zeros((4, 1)), seed=0, generator_id="philox")
        with pytest.raises(tp.NonFiniteError) as exc:
            est.grad_est1(tape, [1.0], zeros, [0.0])
        assert exc.value.node_index == 3


    @pytest.mark.parametrize("run", [est.grad_est1, est.grad_est3],
                             ids=["alg1", "alg3"])
    def test_peak_of_a_large_batch_is_its_window(self, run):
        # a batch from generate above the hold limit holds no draws, and
        # each read draws into its own block slots, so a generate-and-
        # estimate peaks at one read's slots plus what the estimate holds
        # on finished draws, however many paths it has; the finished run
        # has the 8192-lane blocks of both sizes
        spec, curve, tape = fixture_tape()
        args = [tape, curve.knot_vols, None, spec.prices]
        args[2] = PathBatch(generate(7, 2**19, 5).draws, 7, "philox")
        run(*args)  # warm up
        tracemalloc.start()
        try:
            run(*args)
            footprint = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        args[2] = None
        slots = rng._SLOTS * est.BLOCK_PATHS * tape.n_inputs * 8
        for n in (10**6, 4 * 10**6):
            tracemalloc.start()
            try:
                args[2] = generate(8, n, 5)
                run(*args)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                args[2] = None
            assert peak <= slots + footprint + 2**16, n


class TestAlgorithm2:
    def test_matched_constant_zero(self):
        tape = constant_tape(5.0)
        e = est.grad_est2(tape, [0.3], generate(1, 64, 1), [5.0])
        assert (e.grad == 0.0).all()

    def test_costs_exact(self):
        tape = linear_toy_tape()
        e = est.grad_est2(tape, [0.7, 1.3], generate(2, 100, 1), [0.0])
        assert e.f_evals == 100
        assert e.r_evals == 99

    def test_matches_slow_oracle(self):
        spec, curve, tape = fixture_tape()
        paths = generate(6, 40, 5)
        e = est.grad_est2(tape, curve.knot_vols, paths, spec.prices)
        oracle = slow_est2(tape, curve.knot_vols, paths, spec.prices)
        np.testing.assert_allclose(e.grad, oracle, rtol=1e-12)

    def test_rejects_single_path(self):
        tape = linear_toy_tape()
        one = PathBatch(draws=np.zeros((1, 1)), seed=0, generator_id="philox")
        with pytest.raises(ValueError, match="2"):
            est.grad_est2(tape, [1.0, 1.0], one, [0.0])


class TestAlgorithm3:
    def test_matched_constant_zero(self):
        tape = constant_tape(2.5)
        e = est.grad_est3(tape, [0.3], generate(1, 64, 1), [2.5])
        assert (e.grad == 0.0).all()

    def test_costs_exact(self):
        tape = linear_toy_tape()
        e = est.grad_est3(tape, [0.7, 1.3], generate(2, 100, 1), [0.0])
        assert e.f_evals == 100
        assert e.r_evals == 99

    def test_matches_slow_oracle(self):
        spec, curve, tape = fixture_tape()
        paths = generate(7, 40, 5)
        e = est.grad_est3(tape, curve.knot_vols, paths, spec.prices)
        oracle = slow_est3(tape, curve.knot_vols, paths, spec.prices)
        np.testing.assert_allclose(e.grad, oracle, rtol=1e-12)


class TestCrossAgreement:
    def test_lagged_estimators_agree_with_two_pass(self):
        spec, curve, tape = fixture_tape()
        paths = generate(8, 10**6, 5)
        e1 = est.grad_est1(tape, curve.knot_vols, paths, spec.prices)
        for fn in (est.grad_est2, est.grad_est3):
            e = fn(tape, curve.knot_vols, paths, spec.prices)
            combined = np.sqrt(e1.variance + e.variance)
            assert (np.abs(e.grad - e1.grad) < 3 * combined).all()


class TestVarianceEstimate:
    def test_constant_terms_zero(self):
        terms = np.ones((640, 2))
        assert (est.estimate_variance(terms, 1) == 0.0).all()
        assert (est.estimate_variance(terms, 2) == 0.0).all()

    def test_iid_terms_match_analytic(self):
        n = 10**5
        terms = np.random.default_rng(1).standard_normal((n, 1))
        for alg in (1, 2, 3):
            # 256 batches keep the batch-means estimate inside a 20% band
            v = est.estimate_variance(terms, alg, batch_count=256)[0]
            assert abs(v - 1.0 / n) < 0.2 / n

    def test_algorithm1_formula_exact(self):
        terms = np.random.default_rng(2).standard_normal((100, 3))
        v = est.estimate_variance(terms, 1)
        np.testing.assert_allclose(v, terms.var(axis=0, ddof=1) / 100)

    def test_algorithm1_makes_no_term_sized_copy(self):
        terms = np.random.default_rng(4).standard_normal((10**5, 5))
        before = terms.copy()
        tracemalloc.start()
        try:
            est.estimate_variance(terms, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6  # the term matrix itself is 4 MB
        np.testing.assert_array_equal(terms, before)

    def test_tiles_reduce_as_the_whole_matrix(self):
        # six BLOCK_PATHS blocks and a ragged one; batches split by block
        # edges
        terms = np.random.default_rng(7).standard_normal((3 * 16384 + 17, 5))
        for batch_count in (32, 7, 1000):
            expect = batch_means_variance(terms, batch_count)
            for alg in (2, 3):
                v = est.estimate_variance(terms, alg, batch_count)
                assert v.tobytes() == expect.tobytes()
        np.testing.assert_allclose(
            est.estimate_variance(terms, 1),
            terms.var(axis=0, ddof=1) / len(terms), rtol=1e-10, atol=0)

    @pytest.mark.parametrize("n, shape", [
        (10**5, "offset"), (10**4, "far-first"), (10**6, "mostly-zero")])
    def test_algorithm1_keeps_its_digits(self, n, shape):
        # offset: every term near 1e6 with unit spread; far-first: the first
        # term, from which the sums are shifted, 10^3 SDs out; mostly-zero:
        # 70 % zero terms, as paths that carry no gradient give, which a
        # shifted in-order sum would add as one rounded offset, n times
        rng = np.random.default_rng(26)
        terms = rng.standard_normal((n, 2))
        if shape == "offset":
            terms += 1e6
        elif shape == "far-first":
            terms[0] = 1e3
        else:
            terms = terms * 5000 + 3000
            terms[rng.random((n, 2)) < 0.7] = 0.0
            terms[0] = [1234.5678, 987.654321]
        exact = exact_variance(terms)
        rtol = {"offset": 1e-9, "far-first": 1e-8, "mostly-zero": 1e-12}
        np.testing.assert_allclose(est.estimate_variance(terms, 1), exact,
                                   rtol=rtol[shape], atol=0)

    def test_one_dimensional_terms_are_one_column(self):
        terms = np.random.default_rng(5).standard_normal(1000)
        for alg in (1, 2, 3):
            v = est.estimate_variance(terms, alg)
            assert v.shape == (1,) and np.isfinite(v).all()
            np.testing.assert_array_equal(
                v, est.estimate_variance(terms[:, None], alg))

    def test_too_few_paths_rejected(self):
        with pytest.raises(ValueError, match="batch"):
            est.estimate_variance(np.zeros((100, 1)), 2, batch_count=32)

    def test_variance_scales_inversely_with_paths(self):
        # coordinate 1 variance drops by ~10x from 1e5 to 1e6 paths
        spec, curve, tape = fixture_tape()
        v = {}
        for n in (10**5, 10**6):
            e = est.grad_est1(tape, curve.knot_vols, generate(9, n, 5),
                              spec.prices)
            v[n] = e.variance[0]
        ratio = v[10**5] / v[10**6]
        assert 10 / 1.25 < ratio < 10 * 1.25


def exact_variance(terms):
    """The variance of the column means, from correctly rounded sums."""
    n = len(terms)
    out = []
    for col in terms.T.tolist():
        mean = math.fsum(col) / n
        out.append(math.fsum((x - mean) ** 2 for x in col) / (n - 1) / n)
    return np.array(out)


class TestBatched:
    def test_width1_bit_identical_to_scalar(self):
        spec, curve, tape = fixture_tape()
        paths = generate(10, 3000, 5)
        scalar = {1: est.grad_est1, 2: est.grad_est2, 3: est.grad_est3}
        for alg in (1, 2, 3):
            a = scalar[alg](tape, curve.knot_vols, paths, spec.prices)
            b = est.grad_est_batched(alg, tape, curve.knot_vols, paths,
                                     spec.prices, width=1)
            assert (a.grad == b.grad).all(), f"algorithm {alg}"

    def test_algorithm1_any_width_matches_scalar(self):
        spec, curve, tape = fixture_tape()
        paths = generate(11, 1000, 5)
        a = est.grad_est1(tape, curve.knot_vols, paths, spec.prices)
        for width in (3, 8, 64):
            b = est.grad_est_batched(1, tape, curve.knot_vols, paths,
                                     spec.prices, width=width)
            np.testing.assert_allclose(b.grad, a.grad, rtol=1e-12)

    def test_chunk_lag_pairing_small_case(self, monkeypatch):
        # width 2, five paths: reverses paths 2..4, lane-aligned seeds from
        # the previous chunk (algorithm 2) or the running mean over all
        # earlier chunks (algorithm 3)
        spec, curve, tape = fixture_tape()
        paths = generate(12, 5, 5)
        vols, targets = curve.knot_vols, spec.prices
        y = np.array([tape.forward(vols, w) for w in paths.draws])

        expect2 = np.mean([
            tape.reverse(vols, paths.draws[2], y[0] - targets),
            tape.reverse(vols, paths.draws[3], y[1] - targets),
            tape.reverse(vols, paths.draws[4], y[2] - targets),
        ], axis=0)
        got2 = est.grad_est_batched(2, tape, vols, paths, targets, width=2)
        np.testing.assert_allclose(got2.grad, expect2, rtol=1e-12)

        expect3 = np.mean([
            tape.reverse(vols, paths.draws[2], y[:2].mean(axis=0) - targets),
            tape.reverse(vols, paths.draws[3], y[:2].mean(axis=0) - targets),
            tape.reverse(vols, paths.draws[4], y[:4].mean(axis=0) - targets),
        ], axis=0)
        got3 = est.grad_est_batched(3, tape, vols, paths, targets, width=2)
        np.testing.assert_allclose(got3.grad, expect3, rtol=1e-12)

        # lagged rows and prefix sums carried across block edges
        monkeypatch.setattr(est, "BLOCK_PATHS", 16)
        paths = generate(12, 100, 5)
        for width in (1, 3, 8, 40):  # 40: one chunk per block
            for alg in (2, 3):
                got = est.grad_est_batched(alg, tape, vols, paths, targets,
                                           width=width)
                expect = slow_chunk_lag(alg, tape, vols, paths, targets, width)
                np.testing.assert_allclose(got.grad, expect, rtol=1e-12,
                                           err_msg=f"alg {alg} width {width}")

    def test_batched_costs(self):
        spec, curve, tape = fixture_tape()
        paths = generate(13, 50, 5)
        e1 = est.grad_est_batched(1, tape, curve.knot_vols, paths, spec.prices,
                                  width=8)
        assert (e1.f_evals, e1.r_evals) == (100, 50)
        e2 = est.grad_est_batched(2, tape, curve.knot_vols, paths, spec.prices,
                                  width=8)
        assert (e2.f_evals, e2.r_evals) == (50, 42)

    def test_lagged_batched_agree_with_two_pass(self):
        spec, curve, tape = fixture_tape()
        paths = generate(14, 20000, 5)
        e1 = est.grad_est1(tape, curve.knot_vols, paths, spec.prices)
        for alg in (2, 3):
            e = est.grad_est_batched(alg, tape, curve.knot_vols, paths,
                                     spec.prices, width=8)
            combined = np.sqrt(e1.variance + e.variance)
            assert (np.abs(e.grad - e1.grad) < 3 * combined).all()

    def test_too_few_paths_for_width(self):
        spec, curve, tape = fixture_tape()
        paths = generate(15, 8, 5)
        with pytest.raises(ValueError, match="width"):
            est.grad_est_batched(2, tape, curve.knot_vols, paths, spec.prices,
                                 width=8)


def every_estimate(tape, params, paths, targets):
    """grad_est1/2/3, then grad_est_batched(1/2/3) at width 8."""
    return ([fn(tape, params, paths, targets)
             for fn in (est.grad_est1, est.grad_est2, est.grad_est3)]
            + [est.grad_est_batched(alg, tape, params, paths, targets, width=8)
               for alg in (1, 2, 3)])


class TestBlocking:
    def test_block_size_does_not_change_results(self, monkeypatch):
        spec, curve, tape = fixture_tape()
        paths = generate(20, 5000, 5)
        runs = []
        for block in (2048, 96):
            monkeypatch.setattr(est, "BLOCK_PATHS", block)
            runs.append(every_estimate(tape, curve.knot_vols, paths,
                                       spec.prices))
        for a, b in zip(*runs):
            assert (a.grad == b.grad).all() and (a.variance == b.variance).all()

    def test_run_sized_blocks_match_narrow_blocks(self, monkeypatch):
        # 300 017 paths get 4687-lane blocks (4680 at lag 8) and a ragged
        # tail; forced 1024-lane blocks give the same bits
        spec, curve, tape = fixture_tape()
        n = 300_017
        assert est._block_ranges(n, 1)[0] == (0, 4687)
        assert est._block_ranges(n, 8)[0] == (0, 4680)
        paths = generate(22, n, 5)
        wide = every_estimate(tape, curve.knot_vols, paths, spec.prices)
        monkeypatch.setattr(est, "BLOCK_PATHS", 1024)
        assert est._block_ranges(n, 1)[0] == (0, 1024)
        narrow = every_estimate(tape, curve.knot_vols, paths, spec.prices)
        for a, b in zip(wide, narrow):
            assert (a.grad == b.grad).all() and (a.variance == b.variance).all()
            assert (a.f_evals, a.r_evals) == (b.f_evals, b.r_evals)

    def test_one_column_tape_does_not_depend_on_the_blocking(self,
                                                           monkeypatch):
        # one parameter and one output: numpy adds a lone column pairwise,
        # so the output and term sums stay in path order only because a
        # zero column pads them
        tape = tp.record(lambda p, w: [tp.max0(p[0] * w[0] - 0.2)],
                         n_params=1, n_inputs=1)
        paths = generate(25, 300_017, 1)
        runs = []
        for block, width in ((8192, 4687), (1024, 1024), (96, 96)):
            monkeypatch.setattr(est, "BLOCK_PATHS", block)
            assert est._block_ranges(300_017, 1)[0] == (0, width)
            runs.append(every_estimate(tape, [0.8], paths, [0.1]))
        for first, *others in zip(*runs):
            for e in others:
                assert e.grad.tobytes() == first.grad.tobytes()
                assert e.variance.tobytes() == first.variance.tobytes()


def materialised_terms(algorithm, tape, params, paths, targets, lag):
    """The N x M term matrix of an estimate at lag ``lag`` (0 for algorithm
    1): one wide forward and one wide reverse replay, with the seeds
    computed in path order.  Lane determinism makes each row the one the
    block sweep reduces."""
    n = paths.n_paths
    buffer = tape.alloc_buffer(n)
    y, _ = tape.replay_forward(params, paths.draws, buffer=buffer)
    pre = np.zeros((n + 1, tape.n_outputs))  # in-order prefix sums of y
    np.cumsum(y, axis=0, out=pre[1:])
    if algorithm == 1:
        seeds = np.broadcast_to(pre[n] / n - targets, y.shape)
    elif algorithm == 2:
        seeds = y[: n - lag] - targets
    else:
        starts = np.arange(lag, n) // lag * lag
        seeds = pre[starts] / starts[:, None].astype(float) - targets
    return tape.replay_reverse(buffer[:, lag:], seeds, params=params)


def batch_means_variance(terms, batch_count=32):
    """The lagged algorithms' variance, from the whole term matrix, with the
    batch count capped as a small run caps it."""
    count = min(batch_count, len(terms) // 16)
    size = len(terms) // count
    batches = terms[: count * size].reshape(count, size, -1)
    means = np.einsum("bij->bj", batches) / size
    return means.var(axis=0, ddof=1) / count


class TestAgainstMaterialisedTerms:
    @pytest.mark.parametrize("n, block", [
        (5000, None), (3 * 16384 + 17, None), (3 * 16384 + 17, 96),
    ], ids=["small", "tile-edges", "block-96"])
    def test_reductions_match_the_term_matrix(self, monkeypatch, n, block):
        if block is not None:
            monkeypatch.setattr(est, "BLOCK_PATHS", block)
            assert est._block_ranges(n, 1)[0] == (0, block)
        spec, curve, tape = fixture_tape()
        vols, targets = curve.knot_vols, spec.prices
        paths = generate(23, n, 5)
        runs = [(alg, 0 if alg == 1 else 1, fn) for alg, fn in
                ((1, est.grad_est1), (2, est.grad_est2), (3, est.grad_est3))]
        runs += [(alg, 0 if alg == 1 else 8,
                  lambda *a, alg=alg: est.grad_est_batched(alg, *a, width=8))
                 for alg in (1, 2, 3)]
        for alg, lag, run in runs:
            terms = materialised_terms(alg, tape, vols, paths, targets, lag)
            e = run(tape, vols, paths, targets)
            where = f"alg {alg} lag {lag}"
            expect = np.einsum("ij->j", terms) / len(terms)
            assert e.grad.tobytes() == expect.tobytes(), where
            if alg == 1:
                np.testing.assert_allclose(
                    e.variance, terms.var(axis=0, ddof=1) / n, rtol=1e-10,
                    atol=0, err_msg=where)
            else:
                expect = batch_means_variance(terms)
                assert e.variance.tobytes() == expect.tobytes(), where


class TestPhases:
    def test_phases_account_for_the_run(self):
        spec, curve, tape = fixture_tape()
        paths = generate(24, 10**6, 5)
        for fn in (est.grad_est1, est.grad_est2, est.grad_est3):
            e = fn(tape, curve.knot_vols, paths, spec.prices)
            assert list(e.phases) == ["generate", "forward", "seed",
                                      "reverse", "reduce"]
            assert all(t > 0 for t in e.phases.values())
            total = sum(e.phases.values())
            assert abs(total - e.millis) <= 0.05 * e.millis, (
                f"algorithm {e.algorithm}: phases {e.phases}, "
                f"millis {e.millis}")


class TestBlockWidthRule:
    @pytest.mark.parametrize("n, lanes", [
        (5 * 10**4, 2048), (131_071, 2048), (131_072, 2048),
        (300_017, 4687), (2**19, 8192), (10**6, 8192),
    ])
    def test_width_is_n_over_64_clamped(self, n, lanes):
        ranges = list(est._block_ranges(n, 1))
        assert ranges[0] == (0, lanes)
        assert all(hi - lo == lanes for lo, hi in ranges[:-1])

    @pytest.mark.parametrize("n, lag, size", [
        (5 * 10**4, 8, 2048), (5 * 10**4, 40, 2040),
        (300_017, 8, 4680), (300_017, 40, 4680),
        (10**6, 8, 8192), (10**6, 40, 8160),
    ])
    def test_blocks_start_at_multiples_of_the_lag(self, n, lag, size):
        ranges = list(est._block_ranges(n, lag))
        assert ranges[0] == (0, size)
        assert all(lo % lag == 0 for lo, _ in ranges)
        # contiguous, in path order, covering every path
        assert [lo for lo, _ in ranges] == [0] + [hi for _, hi in ranges[:-1]]
        assert ranges[-1][1] == n

    @pytest.mark.parametrize("n, lag", [(5 * 10**4, 3000), (10**6, 10_000)])
    def test_lag_wider_than_the_width_gets_one_chunk_blocks(self, n, lag):
        ranges = list(est._block_ranges(n, lag))
        assert all(hi - lo == lag for lo, hi in ranges[:-1])
        lo, hi = ranges[-1]
        assert lo % lag == 0 and 0 < hi - lo <= lag and hi == n


NO_VARIANCE_RUNS = [
    est.grad_est1, est.grad_est2, est.grad_est3,
    *(lambda *a, alg=alg, **kw: est.grad_est_batched(alg, *a, width=8, **kw)
      for alg in (1, 2, 3)),
]
NO_VARIANCE_IDS = ["alg1", "alg2", "alg3",
                   "batched1-w8", "batched2-w8", "batched3-w8"]


class TestNoVariance:
    """``batch_count=0``: the same gradient and counts, no variance."""

    @pytest.mark.parametrize("n", [10_007, 3 * 8192 + 17])
    @pytest.mark.parametrize("run", NO_VARIANCE_RUNS, ids=NO_VARIANCE_IDS)
    def test_same_gradient_and_counts_nan_variance(self, run, n):
        spec, curve, tape = fixture_tape()
        paths = generate(23, n, 5)
        args = (tape, curve.knot_vols, paths, spec.prices)
        full, bare = run(*args), run(*args, batch_count=0)
        assert bare.grad.tobytes() == full.grad.tobytes()
        assert (bare.f_evals, bare.r_evals) == (full.f_evals, full.r_evals)
        assert np.isfinite(full.variance).all()
        assert bare.variance.shape == full.variance.shape
        assert np.isnan(bare.variance).all()

    @pytest.mark.parametrize("algorithm", [1, 2, 3])
    def test_builds_no_variance_accumulators(self, algorithm, monkeypatch):
        built = []

        class Spy(est._Sums):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self)

        monkeypatch.setattr(est, "_Sums", Spy)
        spec, curve, tape = fixture_tape()
        run = est.grad_est_batched(algorithm, tape, curve.knot_vols,
                                   generate(23, 10_000, 5), spec.prices, 1,
                                   batch_count=0)
        # the gradient's sums, and algorithm 1's pass-one output sum
        sums, *outputs = built
        assert len(outputs) == (algorithm == 1)
        for name in ("mask", "s1", "s2", "nonzero", "sums"):
            assert not [s for s in built if hasattr(s, name)]
        assert sums.done == run.r_evals
        assert np.isnan(sums.finish()).all()


class TestInputChecks:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("run", [
        est.grad_est1, est.grad_est2, est.grad_est3,
        lambda *a: est.grad_est_batched(3, *a, width=4),
    ], ids=["alg1", "alg2", "alg3", "batched"])
    def test_non_finite_targets_rejected(self, run, bad):
        spec, curve, tape = fixture_tape()
        targets = spec.prices.copy()
        targets[2] = bad
        with pytest.raises(ValueError, match="targets"):
            run(tape, curve.knot_vols, generate(19, 64, 5), targets)

    @pytest.mark.parametrize("batch_count", [0, 1, -2])
    def test_lagged_batch_count_below_two_rejected(self, batch_count):
        # estimate_variance's batch means need two batches; the estimators
        # read 0 as "no variance" (TestNoVariance)
        terms = np.random.default_rng(6).standard_normal((1000, 2))
        for alg in (2, 3):
            with pytest.raises(ValueError, match="batch_count must be >= 2"):
                est.estimate_variance(terms, alg, batch_count)
        # algorithm 1 does not read it
        assert np.isfinite(est.estimate_variance(terms, 1, batch_count)).all()

    @pytest.mark.parametrize("batch_count", [1, -1])
    @pytest.mark.parametrize("run", NO_VARIANCE_RUNS,
                             ids=NO_VARIANCE_IDS)
    def test_batch_count_is_zero_or_at_least_two(self, run, batch_count):
        spec, curve, tape = fixture_tape()
        paths = generate(20, 64, 5)
        with pytest.raises(ValueError, match=r"batch_count must be 0 or >= 2"):
            run(tape, curve.knot_vols, paths, spec.prices,
                batch_count=batch_count)


class TestSerialSweep:
    def test_more_than_one_thread_rejected(self):
        spec, curve, tape = fixture_tape()
        paths = generate(17, 64, 5)
        for fn in (est.grad_est1, est.grad_est2, est.grad_est3):
            assert fn(tape, curve.knot_vols, paths, spec.prices,
                      n_threads=1).n_paths == 64
            with pytest.raises(ValueError, match="n_threads must be 1"):
                fn(tape, curve.knot_vols, paths, spec.prices, n_threads=2)

    def test_accounting_guard_fires(self, monkeypatch):
        # reverse sweeps that stop counting must fail the run, not return
        # an estimate with wrong costs
        spec, curve, tape = fixture_tape()
        paths = generate(17, est.BLOCK_PATHS + 321, 5)
        counted = tp.Tape.replay_reverse

        def uncounted(self, buffer, seeds, *, counters=None, **kwargs):
            return counted(self, buffer, seeds, **kwargs)

        monkeypatch.setattr(tp.Tape, "replay_reverse", uncounted)
        for fn in (est.grad_est1, est.grad_est2, est.grad_est3):
            with pytest.raises(AssertionError,
                               match="evaluation accounting drifted"):
                fn(tape, curve.knot_vols, paths, spec.prices)


class TestSpeedupMeasurement:
    def test_width1_degenerate(self):
        spec, curve, tape = fixture_tape()
        paths = generate(18, 64, 5)
        report = est.measure_correction_coefficients(tape, curve.knot_vols,
                                                     paths, width=1)
        assert report.degenerate
        assert report.k_f == 1.0 and report.k_r == 1.0

    def test_width8_positive_finite(self):
        spec, curve, tape = fixture_tape()
        paths = generate(19, 2048, 5)
        report = est.measure_correction_coefficients(tape, curve.knot_vols,
                                                     paths, width=8, repeats=2)
        assert np.isfinite(report.k_f) and report.k_f > 0
        assert np.isfinite(report.k_r) and report.k_r > 0
        assert len(report.k_f_runs) == 2

    def test_width8_times_block_replays_only(self, monkeypatch):
        spec, curve, tape = fixture_tape()

        def refuse(*args, **kwargs):
            raise AssertionError("scalar replay is a one-lane block replay")

        monkeypatch.setattr(tp.Tape, "forward", refuse)
        monkeypatch.setattr(tp.Tape, "reverse", refuse)
        report = est.measure_correction_coefficients(
            tape, curve.knot_vols, generate(20, 512, 5), width=8, repeats=1)
        for k in (report.k_f, report.k_r):
            assert np.isfinite(k) and k > 0

    def test_times_are_medians_over_runs(self, monkeypatch):
        # scripted (forward, reverse) per-path seconds, scalar then batched
        # in each run; the last run differs from the median in every column
        costs = iter([(2e-6, 4e-6), (8e-6, 16e-6),
                      (3e-6, 6e-6), (24e-6, 48e-6),
                      (1e-6, 2e-6), (40e-6, 80e-6)])
        monkeypatch.setattr(est, "_replay_cost", lambda *a: next(costs))
        spec, curve, tape = fixture_tape()
        report = est.measure_correction_coefficients(
            tape, curve.knot_vols, generate(20, 64, 5), width=8, repeats=3)
        times = (report.t_scalar_f_us, report.t_scalar_r_us,
                 report.t_batched_f_us, report.t_batched_r_us)
        assert times == pytest.approx((2.0, 4.0, 24.0, 48.0))
        assert report.k_f_runs == pytest.approx([32.0, 64.0, 320.0])
        assert report.k_f == pytest.approx(64.0)
        assert report.k_r == pytest.approx(64.0)

    @pytest.mark.parametrize("width", [0, -3])
    def test_width_below_one_rejected(self, width):
        spec, curve, tape = fixture_tape()
        paths = generate(19, 64, 5)
        with pytest.raises(ValueError, match="width must be >= 1"):
            est.measure_correction_coefficients(tape, curve.knot_vols, paths,
                                                width=width)

    @pytest.mark.parametrize("repeats", [0, -3])
    def test_repeats_below_one_rejected(self, repeats):
        spec, curve, tape = fixture_tape()
        paths = generate(19, 64, 5)
        with pytest.raises(ValueError, match="repeats must be >= 1"):
            est.measure_correction_coefficients(tape, curve.knot_vols, paths,
                                                8, repeats=repeats)
