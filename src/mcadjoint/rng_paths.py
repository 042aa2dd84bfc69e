"""Deterministic generation of i.i.d. standard-normal path vectors.

Draws are defined by a counter-based mapping, not by generator call order:
path j, input k consumes raw 64-bit word ``j * n_inputs + k`` of the keyed
stream, so any chunk of paths can be (re)generated independently and the
result is bit-identical however the work is scheduled.  Normals come from
the inverse normal CDF applied to fixed-point uniforms in (0, 1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Philox
from scipy.special import ndtri

__all__ = ["PathBatch", "generate", "GENERATOR_IDS"]

# raw 64-bit words produced per advance(1) step of each bit generator
_GENERATORS = {
    "philox": (Philox, 4),
    "pcg64": (PCG64, 1),
}

GENERATOR_IDS = tuple(sorted(_GENERATORS))

_INV_2_53 = 2.0 ** -53


@dataclass(frozen=True)
class PathBatch:
    """Matrix of i.i.d. N(0,1) draws; row j is Monte-Carlo path j."""

    draws: np.ndarray
    seed: int
    generator_id: str

    @property
    def n_paths(self) -> int:
        return self.draws.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.draws.shape[1]


def _raw_words(seed: int, generator_id: str, start: int, count: int) -> np.ndarray:
    """Raw 64-bit words [start, start+count) of the keyed counter stream."""
    try:
        cls, words_per_step = _GENERATORS[generator_id]
    except KeyError:
        raise ValueError(
            f"unknown generator_id {generator_id!r}; choose from {GENERATOR_IDS}"
        ) from None
    bg = cls(seed)
    bg.advance(start // words_per_step)
    skip = start % words_per_step
    return bg.random_raw(count + skip)[skip:]


def _normals_from_words(words: np.ndarray) -> np.ndarray:
    # 53-bit fixed point mapped to the open interval (0, 1): ndtri stays
    # finite.  In place after the one cast (the words are overwritten), so
    # the peak is the words plus one float array.
    words >>= np.uint64(11)
    u = words.astype(np.float64)
    u += 0.5
    u *= _INV_2_53
    return ndtri(u, out=u)


def generate(seed: int, n_paths: int, n_inputs: int,
             generator_id: str = "philox") -> PathBatch:
    """Materialize the full n_paths x n_inputs draw matrix. Deterministic."""
    if n_paths < 2:
        raise ValueError(
            "n_paths must be >= 2: the lagged estimators (algorithms 2 and 3) "
            "pair each path with its predecessor"
        )
    if n_inputs < 1:
        raise ValueError("n_inputs must be >= 1")
    words = _raw_words(seed, generator_id, 0, n_paths * n_inputs)
    draws = _normals_from_words(words).reshape(n_paths, n_inputs)
    return PathBatch(draws=draws, seed=int(seed), generator_id=generator_id)


def generate_rows(seed: int, generator_id: str, start: int, stop: int,
                  n_inputs: int) -> np.ndarray:
    """Rows [start, stop) of the draw matrix, without the preceding rows.

    Bit-identical to ``generate(...).draws[start:stop]``.
    """
    count = (stop - start) * n_inputs
    words = _raw_words(seed, generator_id, start * n_inputs, count)
    return _normals_from_words(words).reshape(stop - start, n_inputs)

