"""Deterministic generation of i.i.d. standard-normal path vectors.

Draws are defined by a counter-based mapping, not by generator call order:
path j, input k consumes raw 64-bit word ``j * n_inputs + k`` of the keyed
stream, so any chunk of paths can be (re)generated independently and the
result is bit-identical however the work is scheduled.  Normals come from
the inverse normal CDF applied to fixed-point uniforms in (0, 1).

The draw matrix is filled in place in chunks of ``CHUNK_ROWS`` rows, each
drawn from its own offset of the stream, by whoever reads it.  ``generate``
allocates the matrix and draws nothing; a read (``PathBatch.rows``, or
``PathBatch.draws`` for every row) fills the lowest pending chunk itself
while the rows it needs are not ready, and waits only when no chunk is
pending.  Within a reading call (``PathBatch.reading``: the estimators'
block sweep, ``model.loss``, ``.draws``, ``generate_rows``) helper threads,
one per usable CPU beyond the caller's, fill ahead in chunk order (numpy's
uniform draw and ``ndtri`` release the GIL); they are joined before the
reading call returns, raise or not.  A forked child fills again the chunks
that its parent's threads held at the fork.  Each chunk is drawn, shifted
and transformed where it lies, so a fill needs no memory beyond the draws.
Every element goes through the same operations whichever thread fills its
chunk and whenever, so the bytes do not depend on the thread count or on
the order of the reads.
"""

from __future__ import annotations

import os
import threading
import weakref
from contextlib import contextmanager

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

# the states of a chunk of the draws
_PENDING, _TAKEN, _DONE, _FAILED = range(4)


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


# every fill state alive, so that a forked child can release the chunks
# its parent's threads had taken
_FILLS = weakref.WeakSet()


class _Fill:
    """The chunk-fill state of rows [start, start + len(out)) of the draws.

    Each chunk of ``CHUNK_ROWS`` rows is pending, taken (a thread is
    filling it), done or failed; one condition guards the states and is
    notified whenever a chunk ends.  Chunks are taken lowest pending first.
    The first failed chunk ends the fill: no chunk is taken after it, and
    every read that needs a chunk not done raises its error.
    """

    def __init__(self, out: np.ndarray, seed: int, generator_id: str,
                 start: int):
        self.out, self.seed, self.generator_id = out, seed, generator_id
        self.start = start
        self.state = [_PENDING] * -(-len(out) // CHUNK_ROWS)
        self.left = len(self.state)  # chunks not done
        self.next = 0  # every chunk below it is taken, done or failed
        self.error = None
        self.changed = threading.Condition()
        _FILLS.add(self)

    def _take(self):
        """The lowest pending chunk, now taken; None when no chunk is
        pending or a chunk failed.  Called with the lock held."""
        state, c = self.state, self.next
        while c < len(state) and state[c] != _PENDING:
            c += 1
        self.next = c
        if c == len(state) or self.error is not None:
            return None
        state[c] = _TAKEN
        return c

    def _run(self, c: int):
        """Fill chunk c; the exception that failed it, or None."""
        lo = c * CHUNK_ROWS
        try:
            _fill_rows(self.out[lo:lo + CHUNK_ROWS], self.seed,
                       self.generator_id, self.start + lo)
        except BaseException as exc:  # raised by the reads that need it
            with self.changed:
                self.state[c] = _FAILED
                if self.error is None:
                    self.error = exc
                self.changed.notify_all()
            return exc
        with self.changed:
            self.state[c] = _DONE
            self.left -= 1
            self.changed.notify_all()
        return None

    def read(self, lo: int, hi: int) -> None:
        """Return once rows [lo, hi) are filled.

        While they are not, the calling thread fills the lowest pending
        chunk, so a read far into an unread batch fills the chunks before
        its rows too; it waits only when no chunk is pending.
        """
        if hi <= lo:
            return
        c, last = lo // CHUNK_ROWS, (hi - 1) // CHUNK_ROWS
        while True:
            with self.changed:
                while c <= last and self.state[c] == _DONE:
                    c += 1
                if c > last:
                    return
                if self.error is not None:
                    raise self.error
                taken = self._take()
                if taken is None:
                    self.changed.wait()
                    continue
            error = self._run(taken)
            if error is not None:
                raise error

    def _help(self, stop: threading.Event) -> None:
        while True:
            with self.changed:
                taken = None if stop.is_set() else self._take()
            if taken is None:
                return
            self._run(taken)

    @contextmanager
    def helping(self):
        """Helper threads fill pending chunks in chunk order while the
        ``with`` body runs: one per usable CPU beyond the caller's, and no
        more than the pending chunks need.  On exit they finish the chunk
        in hand, take no other, and are joined, also when the body raises.
        """
        with self.changed:
            pending = self.state.count(_PENDING)
        stop = threading.Event()
        helpers = [threading.Thread(target=self._help, args=(stop,),
                                    name="rng_paths")
                   for _ in range(min(_usable_cpus(), pending) - 1)]
        try:
            for helper in helpers:
                helper.start()
            yield
        finally:
            stop.set()
            for helper in helpers:
                if helper.ident is not None:  # started
                    helper.join()


def _release_taken_chunks() -> None:
    """In a forked child: the threads that had taken chunks are gone, so
    their chunks are pending again, under a new lock."""
    for fill in list(_FILLS):
        fill.changed = threading.Condition()
        for c, state in enumerate(fill.state):
            if state == _TAKEN:
                fill.state[c] = _PENDING
                fill.next = min(fill.next, c)


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_release_taken_chunks)


class PathBatch:
    """Matrix of i.i.d. N(0,1) draws; row j is Monte-Carlo path j.

    ``PathBatch(draws, seed, generator_id)`` holds finished draws.  A batch
    from ``generate`` is filled by its readers: ``rows`` and ``draws`` fill
    what is still pending before they return, and ``n_paths`` and
    ``n_inputs`` fill nothing.  Pickling or copying a batch fills it and
    gives the full draws.
    """

    def __init__(self, draws: np.ndarray, seed: int, generator_id: str):
        self._draws = draws
        self.seed = seed
        self.generator_id = generator_id
        self._fill = None  # the chunk-fill state while chunks are not done

    @property
    def n_paths(self) -> int:
        return self._draws.shape[0]

    @property
    def n_inputs(self) -> int:
        return self._draws.shape[1]

    @property
    def draws(self) -> np.ndarray:
        """The whole matrix, filled by the calling thread and helper
        threads that end with this call."""
        with self.reading():
            self.rows(0, self.n_paths)
        return self._draws

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """A view of rows [lo, hi) (clipped to the batch), once filled.

        Pending chunks are filled as ``_Fill.read`` says; a failed chunk's
        error is raised here.
        """
        fill = self._fill
        if fill is not None:
            fill.read(lo, min(hi, self.n_paths))
            if not fill.left:
                self._fill = None
        return self._draws[lo:hi]

    @contextmanager
    def reading(self):
        """Within the ``with`` body, helper threads fill pending chunks
        ahead of the caller's reads; they are joined before it ends."""
        fill = self._fill
        if fill is None:
            yield
            return
        with fill.helping():
            yield

    def __reduce__(self):
        return PathBatch, (self.draws, self.seed, self.generator_id)


def _check_integer(name: str, value, low: int = 0) -> None:
    """Raise ValueError naming ``name`` unless ``value`` is an integer >= low.

    With the default bound this is the seed rule of every draw, which
    ``optimizer.calibrate`` applies to its seed too.
    """
    if not isinstance(value, (int, np.integer)) or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")


def _unfilled(seed: int, generator_id: str, start: int, stop: int,
              n_inputs: int) -> PathBatch:
    """Rows [start, stop) of the draw matrix as a batch that its readers
    fill, allocated after every argument is checked; nothing is drawn."""
    _check_integer("seed", seed)
    _check_integer("start", start)
    _check_integer("stop", stop, start)
    if generator_id not in _GENERATORS:
        raise ValueError(
            f"unknown generator_id {generator_id!r}; choose from {GENERATOR_IDS}"
        )
    _check_integer("n_inputs", n_inputs, 1)
    batch = PathBatch(np.empty((stop - start, n_inputs)), int(seed),
                      generator_id)
    batch._fill = _Fill(batch._draws, seed, generator_id, start)
    return batch


def generate(seed: int, n_paths: int, n_inputs: int,
             generator_id: str = "philox") -> PathBatch:
    """The n_paths x n_inputs draw matrix, allocated and filled by its
    readers.  Deterministic.

    The draws are ``generate_rows`` over rows [0, n_paths), whenever and by
    whichever thread they are filled; no chunk is drawn before the batch is
    read.
    """
    _check_integer("n_paths", n_paths, 1)
    return _unfilled(seed, generator_id, 0, n_paths, n_inputs)


def generate_rows(seed: int, generator_id: str, start: int, stop: int,
                  n_inputs: int) -> np.ndarray:
    """Rows [start, stop) of the draw matrix, without the preceding rows.

    Bit-identical to ``generate(...).draws[start:stop]``.  The rows are
    filled in place in chunks, by the calling thread and helper threads
    that end with the call; the bytes are the same for any thread count.
    """
    return _unfilled(seed, generator_id, start, stop, n_inputs).draws
