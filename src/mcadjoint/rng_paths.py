"""Deterministic generation of i.i.d. standard-normal path vectors.

Draws are defined by a counter-based mapping, not by generator call order:
path j, input k consumes raw 64-bit word ``j * n_inputs + k`` of the keyed
stream, so any chunk of paths can be (re)generated independently and the
result is bit-identical however the work is scheduled.  Normals come from
the inverse normal CDF applied to fixed-point uniforms in (0, 1).

The draw matrix is filled in place in chunks of ``CHUNK_ROWS`` rows, each
drawn from its own offset of the stream.  The caller's thread fills chunks
and, on a request of more than one chunk, workers of one thread pool per
process help, up to one thread per usable CPU (numpy's raw-word draw, casts
and ``ndtri`` release the GIL).  Every element goes through the same
operations whichever thread fills its chunk, so the bytes do not depend on
the worker count.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
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

# rows per task; the transient per filling thread is one chunk of raw words
CHUNK_ROWS = 16384

_INV_2_53 = 2.0 ** -53

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()


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


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _get_pool() -> ThreadPoolExecutor:
    """The generation pool, created on first use."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=_usable_cpus(),
                                       thread_name_prefix="rng_paths")
        return _pool


def _forget_pool() -> None:
    # A forked child has none of the parent's worker threads: submitting to
    # the inherited executor would hang, so the child builds its own.
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _check_stream(generator_id: str, n_inputs: int) -> None:
    if generator_id not in _GENERATORS:
        raise ValueError(
            f"unknown generator_id {generator_id!r}; choose from {GENERATOR_IDS}"
        )
    if n_inputs < 1:
        raise ValueError("n_inputs must be >= 1")


def _raw_words(seed: int, generator_id: str, start: int, count: int) -> np.ndarray:
    """Raw 64-bit words [start, start+count) of the keyed counter stream."""
    cls, words_per_step = _GENERATORS[generator_id]
    bg = cls(seed)
    bg.advance(start // words_per_step)
    skip = start % words_per_step
    return bg.random_raw(count + skip)[skip:]


def _fill_rows(out: np.ndarray, seed: int, generator_id: str,
               start: int) -> None:
    """Write rows [start, start + len(out)) of the draw matrix into ``out``."""
    words = _raw_words(seed, generator_id, start * out.shape[1], out.size)
    # 53-bit fixed point mapped to the open interval (0, 1): ndtri stays
    # finite.  The cast to float is the write into ``out``; the rest is in
    # place there, so the only transient is this chunk's words.
    words >>= np.uint64(11)
    out[...] = words.reshape(out.shape)
    out += 0.5
    out *= _INV_2_53
    ndtri(out, out=out)


def _fill(out: np.ndarray, seed: int, generator_id: str, start: int) -> None:
    """Rows [start, start + len(out)) into ``out``, chunk by chunk.

    The caller fills chunks itself and pool workers help with the rest, so
    a worker that starts late (its CPU busy elsewhere) holds up at most the
    one chunk it took.
    """
    n_rows = out.shape[0]
    los = iter(range(0, n_rows, CHUNK_ROWS))
    take = threading.Lock()

    def drain() -> None:
        while True:
            with take:
                lo = next(los, None)
            if lo is None:
                return
            try:
                _fill_rows(out[lo:lo + CHUNK_ROWS], seed, generator_id,
                           start + lo)
            except BaseException:
                with take:  # a failed chunk ends the fill for every thread
                    for _ in los:
                        pass
                raise

    n_helpers = min(_usable_cpus(), -(-n_rows // CHUNK_ROWS)) - 1
    helpers = [_get_pool().submit(drain) for _ in range(n_helpers)]
    try:
        drain()
    finally:
        for helper in helpers:
            helper.result()


def generate(seed: int, n_paths: int, n_inputs: int,
             generator_id: str = "philox") -> PathBatch:
    """Materialize the full n_paths x n_inputs draw matrix. Deterministic.

    The rows are filled in place in chunks, by the calling thread and the
    workers of the generation pool; the bytes are the same for any number
    of workers.
    """
    if n_paths < 2:
        raise ValueError(
            "n_paths must be >= 2: the lagged estimators (algorithms 2 and 3) "
            "pair each path with its predecessor"
        )
    _check_stream(generator_id, n_inputs)
    draws = np.empty((n_paths, n_inputs))
    _fill(draws, seed, generator_id, 0)
    return PathBatch(draws=draws, seed=int(seed), generator_id=generator_id)


def generate_rows(seed: int, generator_id: str, start: int, stop: int,
                  n_inputs: int) -> np.ndarray:
    """Rows [start, stop) of the draw matrix, without the preceding rows.

    Bit-identical to ``generate(...).draws[start:stop]``.
    """
    if start < 0:
        raise ValueError(f"start must be >= 0, got {start}")
    if stop < start:
        raise ValueError(f"stop must be >= start, got stop={stop} < start={start}")
    _check_stream(generator_id, n_inputs)
    rows = np.empty((stop - start, n_inputs))
    _fill(rows, seed, generator_id, start)
    return rows
