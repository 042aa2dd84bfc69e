"""Path generation: determinism, addressability and sample quality."""

import tracemalloc

import numpy as np
import pytest

from mcadjoint import rng_paths as rng


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

    def test_rejects_single_path(self):
        with pytest.raises(ValueError, match="algorithm"):
            rng.generate(1, 1, 1)

    def test_rejects_zero_inputs(self):
        with pytest.raises(ValueError):
            rng.generate(1, 4, 0)

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

    def test_peak_memory_bounded_by_draws(self):
        # the raw words and one float array: twice the draws, not three times
        tracemalloc.start()
        try:
            batch = rng.generate(4, 10**5, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * batch.draws.nbytes

    def test_lag1_autocorrelation_small(self):
        n = 10**5
        col = rng.generate(9, n, 1).draws[:, 0]
        c = np.corrcoef(col[:-1], col[1:])[0, 1]
        assert abs(c) <= 4.0 / np.sqrt(n)

    @pytest.mark.parametrize("gen_id", rng.GENERATOR_IDS)
    def test_row_addressing_matches_full_matrix(self, gen_id):
        full = rng.generate(3, 100, 3, generator_id=gen_id)
        part = rng.generate_rows(3, gen_id, 37, 61, 3)
        assert (part == full.draws[37:61]).all()

