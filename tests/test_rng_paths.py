"""Path generation: determinism, addressability and sample quality."""

import os
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
        # draws and no temporary, on one filling thread or on two
        for cpus in (1, 2):
            monkeypatch.setattr(rng, "_usable_cpus", lambda: cpus)
            tracemalloc.start()
            try:
                batch = rng.generate(4, 10**5, 5)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= batch.draws.nbytes + 2**16, cpus

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
        with pytest.raises(RuntimeError, match="chunk failed"):
            rng.generate(8, 4 * C, 3)
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

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    @pytest.mark.filterwarnings("ignore::DeprecationWarning")
    def test_generate_in_forked_child(self, monkeypatch):
        # the parent's pool has run before the fork; a child that reused
        # it would hang on submit
        monkeypatch.setattr(rng, "_usable_cpus", lambda: 2)
        n = 3 * C + 7
        expected = rng.generate(5, n, 3).draws.tobytes()
        r, w = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: never returns into the test runner
            code = 1
            try:
                os.close(r)
                with os.fdopen(w, "wb") as pipe:
                    pipe.write(rng.generate(5, n, 3).draws.tobytes())
                code = 0
            finally:
                os._exit(code)
        os.close(w)
        got, finished = bytearray(), False
        deadline = time.monotonic() + 60
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
        assert finished, "generate in the forked child did not return"
        assert os.waitstatus_to_exitcode(status) == 0
        assert bytes(got) == expected

