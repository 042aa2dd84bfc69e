"""Deterministic generation of i.i.d. standard-normal path vectors.

Draws are defined by a counter-based mapping, not by generator call order:
path j, input k consumes raw 64-bit word ``j * n_inputs + k`` of the keyed
stream, so any chunk of paths can be (re)generated independently and the
result is bit-identical however the work is scheduled.  Normals come from
the inverse normal CDF applied to fixed-point uniforms in (0, 1).

The draw matrix is filled in place in chunks of ``CHUNK_ROWS`` rows, each
drawn from its own offset of the stream.  The caller's thread fills chunks
and, on a request of more than one chunk, helper threads started for that
call help, up to one thread per usable CPU (numpy's uniform draw and
``ndtri`` release the GIL); they are joined before the call returns.  Each
chunk is drawn, shifted and transformed where it lies, so a fill needs no
memory beyond the draws.  Every element goes through the same operations
whichever thread fills its chunk, so the bytes do not depend on the thread
count.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

import numpy as np
from numpy.random import PCG64, Generator, Philox
from scipy.special import ndtri

__all__ = ["PathBatch", "generate", "GENERATOR_IDS"]

# raw 64-bit words produced per advance(1) step of each bit generator
_GENERATORS = {
    "philox": (Philox, 4),
    "pcg64": (PCG64, 1),
}

GENERATOR_IDS = tuple(sorted(_GENERATORS))

# rows per task: a thread fills one chunk of the draws in place
CHUNK_ROWS = 16384

_HALF_STEP = 2.0 ** -54


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


def _stream(seed: int, generator_id: str, start: int):
    """The keyed counter stream's bit generator, positioned at raw 64-bit
    word ``start``."""
    cls, words_per_step = _GENERATORS[generator_id]
    bg = cls(seed)
    bg.advance(start // words_per_step)
    bg.random_raw(start % words_per_step)
    return bg


def _fill_rows(out: np.ndarray, seed: int, generator_id: str,
               start: int) -> None:
    """Write rows [start, start + len(out)) of the draw matrix into ``out``."""
    bits = _stream(seed, generator_id, start * out.shape[1])
    # 53-bit fixed point mapped to the open interval (0, 1), so ndtri stays
    # finite: ((w >> 11) + 0.5) * 2^-53.  random() writes (w >> 11) * 2^-53
    # into ``out``, one word per element in order, and scaling by a power
    # of two commutes with rounding, so adding 2^-54 gives those bits; the
    # fill makes no temporary.
    Generator(bits).random(out=out)
    out += _HALF_STEP
    ndtri(out, out=out)


def _fill(out: np.ndarray, seed: int, generator_id: str, start: int) -> None:
    """Rows [start, start + len(out)) into ``out``, chunk by chunk.

    The caller fills chunks itself and helper threads, joined before this
    returns, take the rest, so a helper that starts late (its CPU busy
    elsewhere) holds up at most the one chunk it took.  The first failed
    chunk ends the fill for every thread and is raised here.
    """
    n_rows = out.shape[0]
    los = iter(range(0, n_rows, CHUNK_ROWS))
    take = threading.Lock()
    errors = []

    def drain() -> None:
        while True:
            with take:
                lo = None if errors else next(los, None)
            if lo is None:
                return
            try:
                _fill_rows(out[lo:lo + CHUNK_ROWS], seed, generator_id,
                           start + lo)
            except BaseException as exc:  # re-raised after the join
                errors.append(exc)

    n_helpers = min(_usable_cpus(), -(-n_rows // CHUNK_ROWS)) - 1
    helpers = [threading.Thread(target=drain, name="rng_paths")
               for _ in range(n_helpers)]
    for helper in helpers:
        helper.start()
    try:
        drain()
    finally:
        for helper in helpers:
            helper.join()
    if errors:
        raise errors[0]


def _check_integer(name: str, value, low: int = 0) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer >= low.

    With the default bound this is the seed rule of every draw, which
    ``optimizer.calibrate`` applies to its seed too.
    """
    if not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def generate(seed: int, n_paths: int, n_inputs: int,
             generator_id: str = "philox") -> PathBatch:
    """Materialize the full n_paths x n_inputs draw matrix. Deterministic.

    The draws are ``generate_rows`` over rows [0, n_paths).
    """
    _check_integer("n_paths", n_paths, 1)
    draws = generate_rows(seed, generator_id, 0, n_paths, n_inputs)
    return PathBatch(draws=draws, seed=int(seed), generator_id=generator_id)


def generate_rows(seed: int, generator_id: str, start: int, stop: int,
                  n_inputs: int) -> np.ndarray:
    """Rows [start, stop) of the draw matrix, without the preceding rows.

    Bit-identical to ``generate(...).draws[start:stop]``.  The rows are
    filled in place in chunks, by the calling thread and helper threads
    that end with the call; the bytes are the same for any thread count.
    """
    _check_integer("seed", seed)
    _check_integer("start", start)
    _check_integer("stop", stop, start)
    if generator_id not in _GENERATORS:
        raise ValueError(
            f"unknown generator_id {generator_id!r}; choose from {GENERATOR_IDS}"
        )
    _check_integer("n_inputs", n_inputs, 1)
    rows = np.empty((stop - start, n_inputs))
    _fill(rows, seed, generator_id, start)
    return rows
