"""Path generation: determinism, addressability and sample quality."""

import copy
import os
import pickle
import select
import signal
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import rng_oracle as oracle
from mcadjoint import estimators as est
from mcadjoint import model as mdl
from mcadjoint import rng_paths as rng

C = rng.CHUNK_ROWS


def same_bytes(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def needs_fork(test):
    # Python 3.12 warns when a process that runs threads forks
    quiet = pytest.mark.filterwarnings("ignore::DeprecationWarning")
    return pytest.mark.skipif(not hasattr(os, "fork"),
                              reason="needs os.fork")(quiet(test))


def bytes_from_child(work, timeout=60):
    """The bytes ``work()`` returns in a forked child, which must finish
    within ``timeout`` seconds."""
    r, w = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns into the test runner
        code = 1
        try:
            os.close(r)
            with os.fdopen(w, "wb") as pipe:
                pipe.write(work())
            code = 0
        finally:
            os._exit(code)
    os.close(w)
    got, finished = bytearray(), False
    deadline = time.monotonic() + timeout
    try:
        with os.fdopen(r, "rb", buffering=0) as pipe:
            while True:
                left = deadline - time.monotonic()
                if left <= 0 or not select.select([pipe], [], [], left)[0]:
                    break
                block = pipe.read(1 << 16)
                if not block:
                    finished = True
                    break
                got += block
    finally:
        if not finished:
            os.kill(pid, signal.SIGKILL)
        status = os.waitpid(pid, 0)[1]
    assert finished, "the forked child did not return"
    assert os.waitstatus_to_exitcode(status) == 0
    return bytes(got)


class TestGenerate:
    def test_same_seed_bit_identical(self):
        a = rng.generate(42, 4, 1)
        b = rng.generate(42, 4, 1)
        assert (a.draws == b.draws).all()

    def test_different_seeds_differ(self):
        a = rng.generate(1, 16, 2)
        b = rng.generate(2, 16, 2)
        assert not (a.draws == b.draws).all()

    def test_shape_and_distinct_rows(self):
        batch = rng.generate(7, 2, 3)
        assert batch.draws.shape == (2, 3)
        assert not (batch.draws[0] == batch.draws[1]).all()

    def test_single_path_is_the_first_row(self):
        # one path is a draw like any other; the lagged estimators, which
        # need two, reject it themselves
        one = rng.generate(1, 1, 3)
        assert same_bytes(one.draws, rng.generate_rows(1, "philox", 0, 1, 3))
        with pytest.raises(ValueError, match="n_paths must be an integer >= 1"):
            rng.generate(1, 0, 3)
        spec, curve = mdl.default_fixture()
        tape = mdl.build_model_tape(spec, curve)
        with pytest.raises(ValueError, match="needs at least 2 paths"):
            est.grad_est2(tape, curve.knot_vols, rng.generate(1, 1, 5),
                          spec.prices)

    def test_rejects_zero_inputs(self):
        with pytest.raises(ValueError):
            rng.generate(1, 4, 0)

    @pytest.mark.parametrize("args, name", [
        ((1, 1e4, 5), "n_paths"),
        ((1, np.float64(16), 5), "n_paths"),
        ((1, 16, 5.0), "n_inputs"),
    ])
    def test_rejects_non_integer_count(self, args, name):
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            rng.generate(*args)

    def test_unknown_generator(self):
        with pytest.raises(ValueError, match="generator_id"):
            rng.generate(1, 4, 1, generator_id="mt19937")

    @pytest.mark.parametrize("gen_id", rng.GENERATOR_IDS)
    def test_column_moments(self, gen_id):
        n = 10**5
        batch = rng.generate(42, n, 2, generator_id=gen_id)
        bound = 4.0 / np.sqrt(n)
        for col in batch.draws.T:
            assert abs(col.mean()) < bound
            assert 1 - 5.0 / np.sqrt(n) < col.var() < 1 + 5.0 / np.sqrt(n)

    def test_peak_memory_bounded_by_draws(self, monkeypatch):
        # each chunk is drawn, shifted and transformed where it lies: the
        # draws and no temporary, on one filling thread or on two; the
        # batch is read inside the trace, since generate draws nothing
        for cpus in (1, 2):
            monkeypatch.setattr(rng, "_usable_cpus", lambda: cpus)
            tracemalloc.start()
            try:
                draws = rng.generate(4, 10**5, 5).draws
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert same_bytes(draws, oracle.generate(4, 10**5, 5))
            assert peak <= draws.nbytes + 2**16, cpus

    def test_peak_memory_of_a_sweep_that_fills(self, monkeypatch):
        # an unread batch read block by block by grad_est1 peaks at its
        # draws plus what the estimate holds on finished draws
        spec, curve = mdl.default_fixture()
        tape = mdl.build_model_tape(spec, curve)
        n = 10**5
        finished = rng.PathBatch(oracle.generate(4, n, 5), 4, "philox")
        run = [tape, curve.knot_vols, finished, spec.prices]
        est.grad_est1(*run)  # warm up
        tracemalloc.start()
        try:
            expect = est.grad_est1(*run)
            footprint = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        for cpus in (1, 2):
            monkeypatch.setattr(rng, "_usable_cpus", lambda: cpus)
            tracemalloc.start()
            try:
                run[2] = rng.generate(4, n, 5)
                got = est.grad_est1(*run)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert got.grad.tobytes() == expect.grad.tobytes(), cpus
            assert peak <= finished.draws.nbytes + footprint + 2**16, cpus

    def test_lag1_autocorrelation_small(self):
        n = 10**5
        col = rng.generate(9, n, 1).draws[:, 0]
        c = np.corrcoef(col[:-1], col[1:])[0, 1]
        assert abs(c) <= 4.0 / np.sqrt(n)

    @pytest.mark.parametrize("gen_id", rng.GENERATOR_IDS)
    def test_row_addressing_matches_full_matrix(self, gen_id):
        full = rng.generate(3, 3 * C + 7, 3, generator_id=gen_id)
        # a span inside one chunk, spans across one or more chunk
        # boundaries, and an empty span
        for lo, hi in [(37, 61), (C - 5, C + 5), (1, 2 * C + 1),
                       (C - 1, 3 * C + 7), (C, C)]:
            part = rng.generate_rows(3, gen_id, lo, hi, 3)
            assert same_bytes(part, full.draws[lo:hi]), (lo, hi)

    def test_peak_memory_draws_plus_chunk_words(self, monkeypatch):
        # a filling thread once held a chunk of raw words beside the draws
        # (0.66 MB at 5 inputs); now rows from any offset, with an input
        # count that splits Philox's four-word steps, cost the draws alone
        for cpus in (1, 2):
            monkeypatch.setattr(rng, "_usable_cpus", lambda: cpus)
            tracemalloc.start()
            try:
                rows = rng.generate_rows(4, "philox", 3, 3 + 4 * C + 7, 7)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= rows.nbytes + 2**16, cpus


class TestChunkedFill:
    """The threaded in-place fill against the serial reference, byte for byte."""

    @pytest.mark.parametrize("n_inputs", [1, 3, 5, 7])
    @pytest.mark.parametrize("n_paths", [2, C - 1, C, C + 1, 3 * C + 7,
                                         10**5 + 3])
    @pytest.mark.parametrize("gen_id", rng.GENERATOR_IDS)
    def test_matches_serial_oracle(self, gen_id, n_paths, n_inputs):
        got = rng.generate(21, n_paths, n_inputs, generator_id=gen_id).draws
        assert same_bytes(got, oracle.generate(21, n_paths, n_inputs, gen_id))

    @pytest.mark.parametrize("threads", [1, 4])
    def test_bytes_independent_of_thread_count(self, threads, monkeypatch):
        monkeypatch.setattr(rng, "_usable_cpus", lambda: threads)
        got = rng.generate(6, 5 * C + 11, 5).draws
        assert same_bytes(got, oracle.generate(6, 5 * C + 11, 5))

    def test_concurrent_callers_leave_no_threads(self, monkeypatch):
        # four callers race, each with its own helper threads, and every
        # helper is joined before its call returns
        monkeypatch.setattr(rng, "_usable_cpus", lambda: 2)
        cases = [(11, "philox", 3), (12, "pcg64", 5), (13, "philox", 7),
                 (14, "pcg64", 1)]
        n = 3 * C + 7

        def call(case):
            seed, gen_id, m = case
            return rng.generate(seed, n, m, generator_id=gen_id).draws

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(cases)) as callers:
                futures = [callers.submit(call, case) for case in cases]
                results = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("rng_paths")]
        for (seed, gen_id, m), got in zip(cases, results):
            assert same_bytes(got, oracle.generate(seed, n, m, gen_id))

    @pytest.mark.parametrize("bad_chunk", [0, 2])
    def test_chunk_error_reaches_caller(self, bad_chunk, monkeypatch):
        real = rng._stream

        def one_chunk_fails(seed, generator_id, start):
            if start == bad_chunk * C * 3:
                raise RuntimeError("chunk failed")
            return real(seed, generator_id, start)

        monkeypatch.setattr(rng, "_stream", one_chunk_fails)
        batch = rng.generate(8, 4 * C, 3)  # draws nothing: no error yet
        with pytest.raises(RuntimeError, match="chunk failed"):
            batch.draws
        assert not rng_threads()
        monkeypatch.undo()
        assert same_bytes(rng.generate(8, 4 * C, 3).draws,
                          oracle.generate(8, 4 * C, 3))

    @pytest.mark.parametrize("args, name", [
        ((3, "philox", -5, 3, 3), "start"),
        ((3, "philox", 5, 3, 3), "stop"),
        ((3, "philox", 0, 4, 0), "n_inputs"),
        ((3, "mt19937", 0, 4, 3), "generator_id"),
        ((-1, "philox", 0, 4, 3), "seed"),
        ((2.5, "pcg64", 0, 4, 3), "seed"),
        ((3, "philox", 0.0, 4, 3), "start"),
        ((3, "philox", 0, 4.0, 3), "stop"),
        ((3, "philox", 0, 4, 3.0), "n_inputs"),
    ])
    def test_generate_rows_rejects_bad_arguments(self, args, name,
                                                 monkeypatch):
        def no_fill(*_):
            raise AssertionError("a chunk was started before validation")

        monkeypatch.setattr(rng, "_fill_rows", no_fill)
        with pytest.raises(ValueError, match=name):
            rng.generate_rows(*args)

    @needs_fork
    def test_generate_in_forked_child(self, monkeypatch):
        # the parent's fill threads have run before the fork; a child that
        # waited on them would hang
        monkeypatch.setattr(rng, "_usable_cpus", lambda: 2)
        n = 3 * C + 7
        expected = rng.generate(5, n, 3).draws.tobytes()
        assert bytes_from_child(
            lambda: rng.generate(5, n, 3).draws.tobytes()) == expected


def fixture_run():
    spec, curve = mdl.default_fixture()
    return mdl.build_model_tape(spec, curve), curve.knot_vols, spec.prices


def rng_threads():
    return [t for t in threading.enumerate() if t.name.startswith("rng_paths")]


class TestReadersFill:
    """``generate`` draws nothing; whoever reads a batch fills it."""

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_sweep_in_path_order(self, cpus, monkeypatch):
        monkeypatch.setattr(rng, "_usable_cpus", lambda: cpus)
        tape, vols, targets = fixture_run()
        n = 3 * C + 7
        expect = oracle.generate(31, n, 5)
        batch = rng.generate(31, n, 5)
        got = est.grad_est3(tape, vols, batch, targets)
        assert not rng_threads()
        assert same_bytes(batch.draws, expect)
        finished = est.grad_est3(
            tape, vols, rng.PathBatch(expect, 31, "philox"), targets)
        assert got.grad.tobytes() == finished.grad.tobytes()
        assert got.variance.tobytes() == finished.variance.tobytes()
        assert got.phases["generate"] > finished.phases["generate"]

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_two_readers_at_once(self, cpus, monkeypatch):
        # one thread reads the whole matrix while another reads blocks
        # from the far end, each with its own helpers
        monkeypatch.setattr(rng, "_usable_cpus", lambda: cpus)
        n = 5 * C + 11
        expect = oracle.generate(32, n, 3)
        batch = rng.generate(32, n, 3)

        def backwards():
            with batch.reading():
                return [(lo, batch.rows(lo, lo + 5000).copy())
                        for lo in range(n - 5000, -1, -5000)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=2) as readers:
                whole = readers.submit(lambda: batch.draws)
                blocks = readers.submit(backwards)
                got = whole.result(timeout=60)
                parts = blocks.result(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not rng_threads()
        assert same_bytes(got, expect)
        for lo, rows in parts:
            assert same_bytes(rows, expect[lo:lo + 5000]), lo

    @pytest.mark.parametrize("cpus", [1, 2, 4])
    def test_spans_across_chunks(self, cpus, monkeypatch):
        # each span is the first read of a fresh batch, then the rest
        monkeypatch.setattr(rng, "_usable_cpus", lambda: cpus)
        n = 3 * C + 7
        expect = oracle.generate(33, n, 5, "pcg64")
        for lo, hi in [(37, 61), (C - 5, C + 5), (1, 2 * C + 1),
                       (C - 1, n), (2 * C, 2 * C), (n - 3, n + 40)]:
            batch = rng.generate(33, n, 5, generator_id="pcg64")
            with batch.reading():
                assert same_bytes(batch.rows(lo, hi), expect[lo:hi]), (lo, hi)
            assert same_bytes(batch.draws, expect), (lo, hi)
            assert not rng_threads()

    def test_counts_fill_nothing(self, monkeypatch):
        def no_fill(*_):
            raise AssertionError("a chunk was filled")

        monkeypatch.setattr(rng, "_fill_rows", no_fill)
        batch = rng.generate(34, 2 * C, 5)
        assert (batch.n_paths, batch.n_inputs) == (2 * C, 5)
        with pytest.raises(AssertionError, match="a chunk was filled"):
            batch.rows(0, 1)

    @pytest.mark.parametrize("read", ["grad_est3", "loss"])
    def test_chunk_error_reaches_the_sweep(self, read, monkeypatch):
        monkeypatch.setattr(rng, "_usable_cpus", lambda: 2)
        real = rng._stream

        def third_chunk_fails(seed, generator_id, start):
            if start == 2 * C * 5:
                raise RuntimeError("chunk failed")
            return real(seed, generator_id, start)

        monkeypatch.setattr(rng, "_stream", third_chunk_fails)
        spec, curve = mdl.default_fixture()
        tape = mdl.build_model_tape(spec, curve)
        batch = rng.generate(35, 4 * C, 5)
        with pytest.raises(RuntimeError, match="chunk failed"):
            if read == "loss":
                mdl.loss(spec, curve, batch)
            else:
                est.grad_est3(tape, curve.knot_vols, batch, spec.prices)
        assert not rng_threads()
        # the failure stays with the batch, and the rows filled before it
        # are right
        with pytest.raises(RuntimeError, match="chunk failed"):
            batch.draws
        assert same_bytes(batch.rows(0, C), oracle.generate(35, C, 5))

    @pytest.mark.parametrize("copy_of", [
        lambda b: pickle.loads(pickle.dumps(b)), copy.deepcopy])
    def test_copies_of_an_unread_batch_are_full(self, copy_of):
        n = 2 * C + 3
        batch = rng.generate(36, n, 4)
        twin = copy_of(batch)
        assert (twin.seed, twin.generator_id) == (36, "philox")
        assert same_bytes(twin.draws, oracle.generate(36, n, 4))
        assert same_bytes(batch.draws, twin.draws)

    @needs_fork
    def test_child_reads_a_batch_generated_before_the_fork(self,
                                                          monkeypatch):
        monkeypatch.setattr(rng, "_usable_cpus", lambda: 2)
        n = 3 * C + 7
        batch = rng.generate(37, n, 3)
        got = bytes_from_child(lambda: batch.draws.tobytes())
        assert got == oracle.generate(37, n, 3).tobytes()

    @needs_fork
    def test_child_forked_while_a_sweep_fills(self, monkeypatch):
        # the parent's sweep thread and its helper each hold a chunk when
        # the child is forked; the child fills those chunks itself
        monkeypatch.setattr(rng, "_usable_cpus", lambda: 2)
        parent, real = os.getpid(), rng._fill_rows
        taken, release = threading.Event(), threading.Event()

        def held(*args):
            if os.getpid() == parent:
                taken.set()
                release.wait(60)
            real(*args)

        monkeypatch.setattr(rng, "_fill_rows", held)
        tape, vols, targets = fixture_run()
        n = 3 * C + 7
        expect = oracle.generate(38, n, 5)
        batch = rng.generate(38, n, 5)
        done = {}
        sweep = threading.Thread(target=lambda: done.update(
            e=est.grad_est3(tape, vols, batch, targets)))
        sweep.start()
        try:
            assert taken.wait(60)
            got = bytes_from_child(lambda: batch.draws.tobytes())
        finally:
            release.set()
            sweep.join(60)
        assert not sweep.is_alive()
        assert got == expect.tobytes()
        assert same_bytes(batch.draws, expect)
        finished = est.grad_est3(
            tape, vols, rng.PathBatch(expect, 38, "philox"), targets)
        assert done["e"].grad.tobytes() == finished.grad.tobytes()
