"""Tape recording, replay and adjoint correctness.

The independent oracle for every gradient assertion here is a central
finite difference of the replayed forward program; reverse-mode results
must match it at points kept away from the max0 kink.  The compiled replay
is also checked byte for byte against the node-by-node reference sweeps in
``tape_oracle``.
"""

import sys
import threading
import weakref
from pathlib import Path

import numpy as np
import pytest
import tape_oracle as oracle
from hypothesis import given, settings
from hypothesis import strategies as st

import mcadjoint.model as mdl
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


def assert_same_bits(a, b):
    """Equal shapes and bytes; NaN matches NaN whatever its payload."""
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    assert a.shape == b.shape
    same = (a.view(np.uint64) == b.view(np.uint64)) | (np.isnan(a) & np.isnan(b))
    assert same.all()


def sample_values(rng, shape):
    """Mostly moderate values, with exact zeros of either sign mixed in."""
    v = rng.uniform(-1.0, 2.0, shape)
    return np.where(rng.random(shape) < 0.1, rng.choice([0.0, -0.0], shape), v)


PRIMITIVES = ("add", "sub", "mul", "div", "neg", "exp", "log", "sqrt",
              "pow", "max0", "const")
LITERALS = (0.0, -0.0, 1.0, -0.5, 2.0, 3.5)
EXPONENTS = (2.0, 0.5, -1.0, 3.0, 1.5)


@st.composite
def random_programs(draw):
    """``(program, n_params, n_inputs)`` over the whole primitive set.

    Operands are drawn from every earlier value, so programs hold
    lane-invariant (param/constant-only) subgraphs, unused params, and
    outputs that are params, inputs, constants or repeats.  Every fourth
    operand pick is a float literal instead.
    """
    n_params = draw(st.integers(0, 3))
    n_inputs = draw(st.integers(0 if n_params else 1, 3))
    index = st.integers(0, 1000)
    steps = draw(st.lists(st.tuples(st.sampled_from(PRIMITIVES), index, index,
                                    st.integers(0, 4)), min_size=1, max_size=14))
    picks = draw(st.lists(index, min_size=1, max_size=4))

    def program(p, w):
        pool = [*p, *w]
        for name, i, j, c in steps:
            x = pool[i % len(pool)]
            y = LITERALS[c] if j % 4 == 0 else pool[j % len(pool)]
            if name == "const":
                v = x.builder.const(LITERALS[c])
            elif name == "add":
                v = x + y
            elif name == "sub":
                v = x - y
            elif name == "mul":
                v = x * y
            elif name == "div":
                v = x / y
            elif name == "neg":
                v = -x
            elif name == "pow":
                v = x ** EXPONENTS[c]
            else:
                v = {"exp": tp.exp, "log": tp.log, "sqrt": tp.sqrt,
                     "max0": tp.max0}[name](x)
            pool.append(v)
        return [pool[k % len(pool)] for k in picks]

    return program, n_params, n_inputs


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

    def test_slots_must_name_matching_nodes(self):
        ops = [(tp._PARAM, 0, -1, 0.0), (tp._INPUT, 0, -1, 0.0),
               (tp._MUL, 0, 1, 0.0)]
        tp.Tape(ops, [0], [1], [2])
        for params, inputs, outputs in (([1], [0], [2]), ([0], [1], [3])):
            with pytest.raises(tp.TapeError, match="slot"):
                tp.Tape(ops, params, inputs, outputs)

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

    def test_reflected_sub_and_div(self):
        # 2.0 - u and 3.0 / u trace with the literal as the left operand
        tape = tp.record(lambda p, w: [2.0 - p[0] * w[0],
                                       3.0 / (p[0] * w[0])],
                         n_params=1, n_inputs=1)
        for a, x in ((0.7, 1.3), (-1.1, 0.4)):
            u = np.float64(a) * np.float64(x)
            assert_same_bits(tape.forward([a], [x]),
                             np.array([2.0 - u, 3.0 / u]))
            np.testing.assert_allclose(tape.reverse([a], [x], [1.0, 0.0]), [-x],
                                       rtol=1e-15)
            np.testing.assert_allclose(tape.reverse([a], [x], [0.0, 1.0]),
                                       [-3.0 / (a * a * x)], rtol=1e-14)

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
        tape = tp.record(lambda p, w: [p[0] * w[0]], n_params=1, n_inputs=1)
        with pytest.raises(ValueError, match="finite"):
            tape.reverse([2.0], [3.0], np.array([np.inf]))
        with pytest.raises(ValueError, match="seed weights"):
            tape.reverse([2.0], [3.0], np.array([1.0, 1.0]))
        assert tape.reverse([2.0], [3.0], np.array([1.0])) == pytest.approx([3.0])

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


class TestReplayLayout:
    """Outputs are views of the buffer, seeds may be any strided view, and
    the parameter adjoints can be written into a caller's array."""

    def fixture_replay(self, lanes, seed=7):
        spec, curve = mdl.default_fixture()
        tape = mdl.build_model_tape(spec, curve)
        rng = np.random.default_rng(seed)
        block = rng.standard_normal((lanes, tape.n_inputs))
        seeds_lm = rng.standard_normal((tape.n_outputs, lanes))
        return tape, curve.knot_vols, block, seeds_lm

    def test_outputs_are_the_buffers_output_rows(self):
        tape, params, block, _ = self.fixture_replay(16)
        out, buf = tape.replay_forward(params, block)
        rows = buf[-tape.n_outputs:]
        assert out.shape == (16, tape.n_outputs)
        assert np.shares_memory(out, rows) and (out.T == rows).all()
        ref = oracle.forward(tape, params, block)
        assert_same_bits(out, ref[tape.output_slots].T)

    def test_out_is_filled_and_returned(self):
        tape, params, block, seeds_lm = self.fixture_replay(16)
        _, buf = tape.replay_forward(params, block)
        fresh = tape.replay_reverse(buf, seeds_lm.T)
        terms = np.full((20, tape.n_params), np.nan)
        got = tape.replay_reverse(buf, seeds_lm.T, out=terms[2:18])
        assert got.base is terms
        assert_same_bits(terms[2:18], fresh)
        assert np.isnan(terms[:2]).all() and np.isnan(terms[18:]).all()
        for bad in (np.empty((15, tape.n_params)),
                    np.empty((16, tape.n_params), dtype=np.float32)):
            with pytest.raises(ValueError, match="out"):
                tape.replay_reverse(buf, seeds_lm.T, out=bad)

    @pytest.mark.parametrize("lanes", [1, 7, 2048])
    def test_lane_major_seeds_match_contiguous(self, lanes):
        tape, params, block, seeds_lm = self.fixture_replay(lanes)
        _, buf = tape.replay_forward(params, block)
        contiguous = np.ascontiguousarray(seeds_lm.T)
        assert not seeds_lm.T.flags.c_contiguous or lanes == 1
        assert_same_bits(tape.replay_reverse(buf, seeds_lm.T),
                         tape.replay_reverse(buf, contiguous))

    def test_bound_buffer_matches_and_is_released(self):
        tape, params, block, seeds_lm = self.fixture_replay(64)
        out, buf = tape.replay_forward(params, block)
        expect = (out.copy(), tape.replay_reverse(buf, seeds_lm.T))
        bound = tape.alloc_buffer(64)
        with tape.bound(bound):
            for p in (params, params * 1.1, params):
                out = tape.replay_forward(p, block, buffer=bound)[0]
                got = (out.copy(), tape.replay_reverse(bound, seeds_lm.T))
            # the last lanes, as a lagged sweep reverses them: not bound
            tail = tape.replay_reverse(bound[:, 10:], seeds_lm[:, 10:].T)
        for a, b in zip(got, expect):
            assert_same_bits(a, b)
        assert_same_bits(tail, expect[1][10:])
        released = weakref.ref(bound)
        del bound, out
        assert released() is None


class TestCompiledReplay:
    """The compiled schedules against the node-by-node reference sweeps."""

    def test_buffer_holds_no_params_or_invariant_nodes(self):
        # exp(p) does not depend on the input: it is hoisted, not stored,
        # and the parameter keys the invariant cache without a row.  The
        # rows: the input (the reverse reads it), the parameter's adjoint,
        # the seed and the output
        tape = tp.record(lambda p, w: [tp.exp(p[0]) * w[0]],
                         n_params=1, n_inputs=1)
        assert tape.n_nodes == 4
        assert tape.alloc_buffer(2).shape == (4, 2)

    def test_non_finite_invariant_node_named(self):
        # log(p0) does not depend on the input; at p0 = 0 it is the first
        # bad node although the replay evaluates it once, off the buffer
        tape = tp.record(lambda p, w: [tp.log(p[0]) * w[0]],
                         n_params=1, n_inputs=1)
        for call in (lambda: tape.replay_forward([0.0], np.ones((3, 1))),
                     lambda: tape.forward([0.0], [1.0])):
            with pytest.raises(tp.NonFiniteError, match="log") as exc:
                call()
            assert exc.value.node_index == 2

    def test_reverse_reads_the_buffers_own_params(self):
        tape = call_payoff_tape()
        block = np.random.default_rng(3).standard_normal((16, 1))
        seeds = np.ones((16, 1))
        vectors = ([0.2, 95.0], [0.3, 90.0])
        filled = [tape.replay_forward(p, block) for p in vectors]
        # no buffer row holds the parameters: the first buffer's reverse
        # without them raises rather than read the second vector's
        # invariants, and given them it recomputes its own
        with pytest.raises(ValueError, match="pass the params"):
            tape.replay_reverse(filled[0][1], seeds)
        for p, (out, buf) in reversed(list(zip(vectors, filled))):
            ref = oracle.forward(tape, p, block)
            expect = oracle.reverse(tape, ref, seeds)[tape.param_slots].T
            assert_same_bits(out, ref[tape.output_slots].T)
            assert_same_bits(tape.replay_reverse(buf, seeds, params=p), expect)
        # the latest forward's buffer, or lanes of it, may omit them
        latest = filled[1][1]
        assert_same_bits(tape.replay_reverse(latest[:, 4:], seeds[4:]),
                         tape.replay_reverse(latest, seeds)[4:])
        with pytest.raises(ValueError, match="pass the params"):
            tape.replay_reverse(latest.copy(), seeds)

    def test_threads_with_different_params_match_reference(self):
        # more threads than cores, each with its own parameter vector, and a
        # short switch interval: a replay that read invariants cached for
        # another thread's parameters would break the match
        spec, curve = mdl.default_fixture()
        tape = mdl.build_model_tape(spec, curve)
        block = np.random.default_rng(4).standard_normal((64, tape.n_inputs))
        seeds = np.ones((64, tape.n_outputs))
        vectors = [curve.knot_vols * s + 0.05 * k
                   for k, s in enumerate((1.0, 0.5, 0.8, 1.3))]

        def replay(params):
            out, buf = tape.replay_forward(params, block)
            return out, tape.replay_reverse(buf, seeds, params=params)

        def reference(params):
            ref = oracle.forward(tape, params, block)
            return (ref[tape.output_slots].T,
                    oracle.reverse(tape, ref, seeds)[tape.param_slots].T)

        serial = [reference(p) for p in vectors]
        barrier = threading.Barrier(len(vectors))
        matches = [0] * len(vectors)

        def worker(k):
            barrier.wait()
            for _ in range(200):
                out, grads = replay(vectors[k])
                matches[k] += bool((out == serial[k][0]).all()
                                   and (grads == serial[k][1]).all())

        threads = [threading.Thread(target=worker, args=(k,))
                   for k in range(len(vectors))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert matches == [200] * len(vectors)

    @pytest.mark.parametrize("market, max_steps, max_rows", [
        (None, 54, 32), ("surface96.cfg", 351, 225)])
    def test_reverse_schedule_copies_no_adjoint(self, market, max_steps,
                                                max_rows):
        # write-once values and adjoints placed in rows by one pass: an
        # adjoint that starts two operands' adjoints is shared, never
        # copied, and a block holds at most max_rows rows per lane, forward
        # values and adjoints alike (47 and 337 before the forward shared
        # its rows)
        spec, curve = (mdl.default_fixture() if market is None else
                       mdl.load_market_file(Path(__file__).with_name(market)))
        tape = mdl.build_model_tape(spec, curve)
        assert not any(f is np.positive for f, *_ in tape._rev)
        assert len(tape._rev) <= max_steps
        assert tape.alloc_buffer(1).shape[0] <= max_rows
        # the parameter adjoints end the shared rows as one run: the fold
        # reads a view of the buffer, not a gathered copy
        assert isinstance(tape._grad_rows, slice)

    @settings(max_examples=300, deadline=None)
    @given(program=random_programs(), lanes=st.sampled_from([1, 7, 2048]),
           seed=st.integers(0, 2**32 - 1))
    def test_replay_matches_reference(self, program, lanes, seed):
        tape = tp.record(*program)
        rng = np.random.default_rng(seed)
        params = sample_values(rng, tape.n_params)
        inputs = sample_values(rng, (lanes, tape.n_inputs))
        seeds = sample_values(rng, (lanes, tape.n_outputs))

        ref = oracle.forward(tape, params, inputs)
        buf = tape.alloc_buffer(lanes)
        try:
            out, _ = tape.replay_forward(params, inputs, buffer=buf)
            node = None
        except tp.NonFiniteError as exc:
            # the outputs are the buffer's last rows, filled before the check
            out, node = buf[-tape.n_outputs:].T, exc.node_index
        assert_same_bits(out, ref[tape.output_slots].T)
        if np.isfinite(out).all():
            assert node is None
        else:
            assert node == oracle.first_non_finite(tape, ref)

        ref_grads = oracle.reverse(tape, ref, seeds)[tape.param_slots].T
        if np.isfinite(ref_grads).all():
            assert_same_bits(tape.replay_reverse(buf, seeds), ref_grads)
        else:
            with pytest.raises(tp.NonFiniteError) as exc:
                tape.replay_reverse(buf, seeds)
            assert exc.value.node_index == oracle.reverse(tape, ref, seeds,
                                                          locate=True)


class TestNonFiniteContract:
    """One lane behaves the same at every replay width: the same value, or
    the same exception naming the same node."""

    @pytest.mark.parametrize("lanes", [1, 8])
    def test_masked_overflow_same_at_every_width(self, lanes):
        # exp(1000) overflows, max0(-inf) masks it: the output is 0.0, but
        # the exp step's adjoint is 0 * inf
        tape = tp.record(lambda p, w: [tp.max0(-tp.exp(p[0] * w[0]))],
                         n_params=1, n_inputs=1)
        assert tape.op_name(3) == "exp"
        out, buf = tape.replay_forward([1000.0], np.ones((lanes, 1)))
        assert (out == 0.0).all()
        assert tape.forward([1000.0], [1.0])[0] == 0.0
        for call in (lambda: tape.replay_reverse(buf, np.ones((lanes, 1)),
                                                 params=[1000.0]),
                     lambda: tape.reverse([1000.0], [1.0], [1.0])):
            with pytest.raises(tp.NonFiniteError, match="exp") as exc:
                call()
            assert exc.value.node_index == 3

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_seed_in_one_lane_is_a_value_error(self, bad):
        spec, curve = mdl.default_fixture()
        tape = mdl.build_model_tape(spec, curve)
        rng = np.random.default_rng(8)
        _, buf = tape.replay_forward(curve.knot_vols,
                                     rng.standard_normal((8, tape.n_inputs)))
        seeds = rng.standard_normal((8, tape.n_outputs))
        seeds[5, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            tape.replay_reverse(buf, seeds)

    @pytest.mark.parametrize("lanes", [1, 8, 8192])
    def test_shared_row_intermediate_named_at_every_width(self, lanes):
        # 3 exp(w) overflows at w = 709 while exp(w) does not: the product
        # is the first bad node, and the reverse never reads it, so it
        # shares its row with the difference after it
        tape = tp.record(lambda p, w: [(tp.exp(p[0] * w[0]) * 3.0 - 1.0)
                                       * 0.5],
                         n_params=1, n_inputs=1)
        assert tape.op_name(5) == "mul"
        written = [z for *_, z in tape._fwd]
        assert len(set(written)) < len(written)
        block = np.full((lanes, 1), 0.5)
        block[-1] = 709.0
        buf = tape.alloc_buffer(lanes)
        for call in (lambda: tape.replay_forward([1.0], block, buffer=buf),
                     lambda: tape.forward([1.0], [709.0])):
            with pytest.raises(tp.NonFiniteError, match="mul") as exc:
                call()
            assert exc.value.node_index == 5
        # the outputs are filled, the bad lane's with the overflow
        assert np.isinf(buf[-1, -1]) and np.isfinite(buf[-1, :-1]).all()

    @pytest.mark.parametrize("lanes", [1, 8])
    def test_input_row_reused_in_place_is_reloaded_for_the_locate(self, lanes):
        # the reverse never reads w, so w + 1 and then exp(w + 1) overwrite
        # its row: the locate must replay from the inputs, not from that row
        tape = tp.record(lambda p, w: [p[0] * tp.exp(w[0] + 1.0)],
                         n_params=1, n_inputs=1)
        assert tape.op_name(4) == "exp"
        block = np.zeros((lanes, 1))
        block[-1] = 709.0
        buf = tape.alloc_buffer(lanes)
        with pytest.raises(tp.NonFiniteError, match="exp") as exc:
            tape.replay_forward([2.0], block, buffer=buf)
        assert exc.value.node_index == 4
        assert (buf[-1, :-1] == 2.0 * np.exp(1.0)).all()

    def test_reverse_after_a_forward_raise_reads_the_full_run(self):
        # exp(w0) takes w0's row in place and the reverse reads it; the bad
        # node log(w1) comes first, and the locate's rerun must still leave
        # exp(w0), not the reloaded w0, in that row
        tape = tp.record(lambda p, w: [tp.log(w[1]), tp.exp(w[0]) * p[0]],
                         n_params=1, n_inputs=2)
        block = np.array([[0.5, 1.0], [0.25, -1.0]])
        buf = tape.alloc_buffer(2)
        with pytest.raises(tp.NonFiniteError, match="log") as exc:
            tape.replay_forward([3.0], block, buffer=buf)
        assert exc.value.node_index == 3
        grads = tape.replay_reverse(buf, np.ones((2, 2)), params=[3.0])
        assert (grads[:, 0] == np.exp(block[:, 0])).all()

    def test_seeds_written_in_place_are_kept_for_the_locate(self):
        # seeds written into the seed rows are read there, not copied, and
        # the sweep leaves them intact: a non-finite adjoint is still
        # located, and a non-finite seed still reported as one
        tape = tp.record(lambda p, w: [tp.max0(-tp.exp(p[0] * w[0]))],
                         n_params=1, n_inputs=1)
        _, buf = tape.replay_forward([1000.0], np.ones((8, 1)))
        seeds = buf[tape.seed_rows]
        seeds[...] = 1.0
        with pytest.raises(tp.NonFiniteError, match="exp") as exc:
            tape.replay_reverse(buf, seeds.T)
        assert exc.value.node_index == 3
        assert (seeds == 1.0).all()
        seeds[0, 5] = np.nan
        with pytest.raises(ValueError, match="finite"):
            tape.replay_reverse(buf, seeds.T)
