"""Tape recording, replay and adjoint correctness.

The independent oracle for every gradient assertion here is a central
finite difference of the replayed forward program; reverse-mode results
must match it at points kept away from the max0 kink.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mcadjoint.tape as tp


def central_diff(f, x, k, h):
    xp = x.copy()
    xm = x.copy()
    xp[k] += h
    xm[k] -= h
    return (f(xp) - f(xm)) / (2 * h)


def fd_gradient(tape, params, inputs, lam, rel_step=1e-6):
    """Finite-difference oracle for sum_i lam_i y_i w.r.t. the parameters."""
    params = np.asarray(params, dtype=np.float64)

    def weighted(p):
        return float(lam @ tape.forward(p, inputs))

    grad = np.empty(tape.n_params)
    for k in range(tape.n_params):
        h = rel_step * max(1.0, abs(params[k]))
        grad[k] = central_diff(weighted, params, k, h)
    return grad


def call_payoff_tape():
    """y = (s0 * exp(-sig^2 T / 2 + sig sqrt(T) w) - K)^+ with sig, K params."""

    def program(p, w):
        sig, strike = p
        t_exp = 1.0
        z = sig * sig * (-0.5 * t_exp) + sig * np.sqrt(t_exp) * w[0]
        return [tp.max0(100.0 * tp.exp(z) - strike)]

    return tp.record(program, n_params=2, n_inputs=1)


class TestRecord:
    def test_single_multiplication(self):
        tape = tp.record(lambda p, w: [p[0] * w[0]], n_params=1, n_inputs=1)
        assert tape.n_nodes == 3
        assert tape.n_params == 1 and tape.n_inputs == 1 and tape.n_outputs == 1

    def test_call_payoff_has_max0_node(self):
        tape = call_payoff_tape()
        names = [tape.op_name(i) for i in range(tape.n_nodes)]
        assert "max-with-zero" in names
        assert "exp" in names

    def test_two_output_program(self):
        tape = tp.record(lambda p, w: [p[0] + w[0], p[0] * w[0]],
                         n_params=1, n_inputs=1)
        assert tape.n_outputs == 2
        assert len(tape.output_slots) == 2

    def test_slots_disjoint_even_for_identity(self):
        tape = tp.record(lambda p, w: [p[0]], n_params=1, n_inputs=0)
        slots = set(tape.param_slots) | set(tape.input_slots) | set(tape.output_slots)
        assert len(slots) == tape.n_params + tape.n_inputs + tape.n_outputs

    def test_unsupported_primitive_named(self):
        with pytest.raises(tp.UnsupportedPrimitiveError, match="exponent"):
            tp.record(lambda p, w: [p[0] ** w[0]], n_params=1, n_inputs=1)

    def test_no_branching_on_traced_values(self):
        def bad(p, w):
            if p[0]:  # pragma: no cover - raises before the branch resolves
                return [w[0]]
            return [p[0]]

        with pytest.raises(tp.UnsupportedPrimitiveError):
            tp.record(bad, n_params=1, n_inputs=1)


class TestForward:
    def test_product(self):
        tape = tp.record(lambda p, w: [p[0] * w[0]], n_params=1, n_inputs=1)
        assert tape.forward([2.0], [3.0]) == pytest.approx(6.0)

    def test_max0_clips_negative(self):
        tape = tp.record(lambda p, w: [tp.max0(w[0])], n_params=0, n_inputs=1)
        assert tape.forward([], [-1.0])[0] == 0.0

    def test_atm_call_with_zero_draw_is_worthless(self):
        # forward drift exp(-sig^2 T/2) < 1 pushes spot below the strike
        tape = call_payoff_tape()
        y = tape.forward([0.2, 100.0], [0.0])
        assert y[0] == 0.0

    def test_dimension_mismatch(self):
        tape = call_payoff_tape()
        with pytest.raises(ValueError, match="param"):
            tape.forward([0.2], [0.0])
        with pytest.raises(ValueError, match="input"):
            tape.forward([0.2, 100.0], [0.0, 1.0])

    def test_non_finite_reports_node_index(self):
        tape = tp.record(lambda p, w: [p[0] / w[0]], n_params=1, n_inputs=1)
        with pytest.raises(tp.NonFiniteError, match="div") as exc:
            tape.forward([1.0], [0.0])
        assert exc.value.node_index == 2

    def test_replay_is_deterministic(self):
        tape = call_payoff_tape()
        a = tape.forward([0.2, 90.0], [0.5])
        b = tape.forward([0.2, 90.0], [0.5])
        assert (a == b).all()


class TestReverse:
    def test_identity(self):
        tape = tp.record(lambda p, w: [p[0]], n_params=1, n_inputs=0)
        grad = tape.reverse([4.0], [], [1.0])
        assert grad == pytest.approx([1.0])

    def test_product_rule(self):
        tape = tp.record(lambda p, w: [p[0] * p[1]], n_params=2, n_inputs=0)
        grad = tape.reverse([2.0, 3.0], [], [1.0])
        assert grad == pytest.approx([3.0, 2.0])

    def test_non_finite_adjoint_reports_node_index(self):
        # max0(p * log(w)) at w = 0: the output max0(-inf) = 0 is finite,
        # but the product's step computes the adjoint 0 * -inf
        tape = tp.record(lambda p, w: [tp.max0(p[0] * tp.log(w[0]))],
                         n_params=1, n_inputs=1)
        out, buf = tape.replay_forward([1.0], np.zeros((2, 1)))
        assert (out == 0.0).all()
        with pytest.raises(tp.NonFiniteError, match="mul") as exc:
            tape.replay_reverse(buf, np.ones((2, 1)))
        assert exc.value.node_index == 3

    def test_repeated_output_gets_its_own_slot(self):
        tape = tp.record(lambda p, w: (lambda z: [z, z])(p[0] * w[0]),
                         n_params=1, n_inputs=1)
        assert len(set(tape.output_slots)) == 2
        assert tape.reverse([2.0], [3.0], [1.0, 0.5]) == pytest.approx([4.5])

    def test_call_vega_matches_finite_difference(self):
        tape = call_payoff_tape()
        params = np.array([0.2, 90.0])
        inputs = np.array([0.5])
        lam = np.array([1.0])
        grad = tape.reverse(params, inputs, lam)
        oracle = fd_gradient(tape, params, inputs, lam)
        assert grad[0] == pytest.approx(oracle[0], rel=1e-6)

    def test_every_primitive_gradient(self):
        # one composed program touching the whole primitive set
        def program(p, w):
            a, b = p
            x = w[0]
            u = (a + x) * (b - 2.0)
            v = tp.exp(a * 0.3) + tp.log(b) + tp.sqrt(a + 4.0)
            s = (-a) / b + b ** 2.5
            return [u + v + s + tp.max0(a * x - 0.1)]

        tape = tp.record(program, n_params=2, n_inputs=1)
        rng = np.random.default_rng(11)
        for _ in range(25):
            params = rng.uniform(0.5, 2.0, 2)
            inputs = rng.uniform(0.5, 2.0, 1)
            if abs(params[0] * inputs[0] - 0.1) < 1e-3:
                continue  # stay away from the kink
            grad = tape.reverse(params, inputs, [1.0])
            oracle = fd_gradient(tape, params, inputs, np.array([1.0]))
            np.testing.assert_allclose(grad, oracle, rtol=1e-5)

    def test_kink_derivative_defined_as_zero(self):
        tape = tp.record(lambda p, w: [tp.max0(p[0])], n_params=1, n_inputs=0)
        assert tape.reverse([0.0], [], [1.0])[0] == 0.0

    def test_seed_linearity(self):
        tape = call_payoff_tape()
        params = np.array([0.25, 95.0])
        inputs = np.array([0.7])
        lam = np.array([0.6])
        mu = np.array([-1.1])
        left = tape.reverse(params, inputs, 2.0 * lam + 3.0 * mu)
        right = 2.0 * tape.reverse(params, inputs, lam) + 3.0 * tape.reverse(params, inputs, mu)
        np.testing.assert_allclose(left, right, rtol=1e-12)

    def test_adjoint_seed_validates(self):
        with pytest.raises(ValueError):
            tp.AdjointSeed(np.array([np.inf]))
        seed = tp.AdjointSeed(np.array([1.0]))
        tape = tp.record(lambda p, w: [p[0] * w[0]], n_params=1, n_inputs=1)
        assert tape.reverse([2.0], [3.0], seed) == pytest.approx([3.0])

    @settings(max_examples=30, deadline=None)
    @given(
        a=st.floats(0.1, 3.0),
        b=st.floats(0.1, 3.0),
        x=st.floats(-2.0, 2.0),
        lam=st.floats(-5.0, 5.0),
    )
    def test_reverse_matches_fd_property(self, a, b, x, lam):
        def program(p, w):
            u = p[0] * w[0] + p[1]
            return [tp.exp(u * 0.2) + p[0] * p[1]]

        tape = tp.record(program, n_params=2, n_inputs=1)
        params = np.array([a, b])
        inputs = np.array([x])
        grad = tape.reverse(params, inputs, [lam])
        oracle = fd_gradient(tape, params, inputs, np.array([lam]))
        np.testing.assert_allclose(grad, oracle, rtol=1e-4, atol=1e-7)


class TestBatch:
    def test_identical_rows_give_identical_outputs(self):
        tape = call_payoff_tape()
        block = np.full((4, 1), 0.3)
        out, _ = tape.replay_forward([0.2, 95.0], block)
        assert (out == out[0]).all()

    def test_lanewise_equality_with_scalar_forward(self):
        tape = call_payoff_tape()
        rng = np.random.default_rng(5)
        block = rng.standard_normal((8, 1))
        out, _ = tape.replay_forward([0.2, 95.0], block)
        for j in range(8):
            scalar = tape.forward([0.2, 95.0], block[j])
            assert (out[j] == scalar).all()

    def test_lanewise_equality_with_scalar_reverse(self):
        tape = call_payoff_tape()
        rng = np.random.default_rng(6)
        block = rng.standard_normal((8, 1))
        seeds = rng.standard_normal((8, 1))
        _, buf = tape.replay_forward([0.2, 95.0], block)
        adj = tape.replay_reverse(buf, seeds)
        for j in range(8):
            scalar = tape.reverse([0.2, 95.0], block[j], seeds[j])
            assert (adj[j] == scalar).all()

    def test_identical_lanes_and_seeds(self):
        tape = call_payoff_tape()
        block = np.full((2, 1), 0.4)
        seeds = np.ones((2, 1))
        _, buf = tape.replay_forward([0.2, 95.0], block)
        adj = tape.replay_reverse(buf, seeds)
        assert (adj[0] == adj[1]).all()

    def test_zero_seed_zero_adjoint(self):
        tape = call_payoff_tape()
        block = np.array([[0.4], [1.2]])
        _, buf = tape.replay_forward([0.2, 95.0], block)
        adj = tape.replay_reverse(buf, np.zeros((2, 1)))
        assert (adj == 0.0).all()

    def test_width_mismatch_rejected(self):
        tape = call_payoff_tape()
        _, buf = tape.replay_forward([0.2, 95.0], np.zeros((4, 1)))
        with pytest.raises(ValueError, match="shape"):
            tape.replay_forward([0.2, 95.0], np.zeros((3, 1)), buffer=buf)
        with pytest.raises(ValueError, match="shape"):
            tape.replay_reverse(buf, np.zeros((3, 1)))

    def test_counters_track_scalar_equivalents(self):
        tape = call_payoff_tape()
        counters = tp.ReplayCounters()
        block = np.zeros((4, 1))
        tape.replay_forward([0.2, 95.0], block, counters=counters)
        _, buf = tape.replay_forward([0.2, 95.0], block, counters=counters)
        tape.replay_reverse(buf, np.ones((4, 1)), counters=counters)
        assert counters.f_evals == 8
        assert counters.r_evals == 4
        assert counters.f_batch_calls == 2 and counters.r_batch_calls == 1

    def test_buffer_reuse_skips_forward(self):
        tape = call_payoff_tape()
        counters = tp.ReplayCounters()
        block = np.ones((4, 1))
        buf = tape.alloc_buffer(4)
        _, filled = tape.replay_forward([0.2, 95.0], block, buffer=buf,
                                        counters=counters)
        assert filled is buf
        tape.replay_reverse(buf, np.ones((4, 1)), counters=counters)
        assert counters.f_evals == 4
        assert counters.r_evals == 4
