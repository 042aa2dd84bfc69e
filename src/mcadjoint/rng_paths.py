"""Deterministic generation of i.i.d. standard-normal path vectors.

Draws are defined by a counter-based mapping, not by generator call order:
path j, input k consumes raw 64-bit word ``j * n_inputs + k`` of the keyed
stream, so any block of paths can be (re)generated independently and the
result is bit-identical however the work is scheduled.  Normals come from
the inverse normal CDF applied to fixed-point uniforms in (0, 1).

``generate`` draws nothing: a batch is drawn by its reads.  One read,
``PathBatch.blocks(ranges)``, yields the rows of each (lo, hi) range in
order.  A batch of at most ``_HOLD_ROWS`` rows (and each of
``calibrate``'s path sets) holds its whole matrix: a read draws it in
place, in ``CHUNK_ROWS`` chunks in order, as far as its ranges need, and
once every row is drawn, later reads are views.  A larger batch holds no
draws, so its memory stays bounded however many paths it has: each read
draws its ranges into ``_SLOTS`` block slots of its own, range j in slot
j mod ``_SLOTS``, and a second read draws them again.  Each chunk or range
is drawn from its own offset of the stream.  Within a read, helper
threads, one per usable CPU beyond the reader's, draw its chunks or ranges
ahead in order, never more than ``_SLOTS`` - 1 beyond the one the reader
holds (numpy's uniform draw and ``ndtri`` release the GIL); when the one
it needs is not ready, the reader draws the lowest untaken one itself.
The helpers are joined when the read ends.  Each chunk or range is drawn,
shifted and transformed where it lies, so a read needs no memory beyond
the matrix or its slots.  Every element goes through the same operations
whichever thread draws it, whenever and however often, so the bytes do
not depend on the thread count, on the ranges or on the order of the reads.
"""

from __future__ import annotations

import os
import threading
import weakref
from contextlib import closing

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

# rows per draw of a held matrix: fewer, longer draws than the readers'
# blocks, since each costs a stream set-up and lock handoffs between threads
CHUNK_ROWS = 16384
# rows a batch from ``generate`` holds whole at most: 5.2 MB at 5 inputs
_HOLD_ROWS = 8 * CHUNK_ROWS
# block slots of a read of a larger batch: 1.3 MB at 8192 x 5; with two,
# helpers had too little lead and grad_est2/3 ran about a third slower at
# 10^6 paths on 2 CPUs
_SLOTS = 4

_HALF_STEP = 2.0 ** -54


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


class _Read:
    """The draws of one read: range j of ``ranges`` goes to the batch's own
    matrix or, given ``slots``, to slot j mod ``_SLOTS``.

    Ranges are taken lowest first, by the reader or a helper, and only
    while they lie fewer than ``_SLOTS`` ranges beyond the one the reader
    waits for or holds, so a taken range's slot is free.  One condition
    guards the state and is notified whenever a range is drawn or the
    reader moves on.  A failed draw ends the read: nothing is taken after
    it, and the reader raises its error when it comes to that range.
    """

    def __init__(self, batch: PathBatch, ranges, slots=None):
        self.batch, self.ranges, self.slots = batch, ranges, slots
        self.taken = 0  # ranges taken so far: all of them once the read ends
        self.at = 0  # the range the reader waits for or holds
        self.drawn = [-1] * _SLOTS  # the range drawn in each slot
        self.error = self.failed = None  # the lowest failed range's error
        self.changed = threading.Condition()

    def _place(self, j: int) -> np.ndarray:
        lo, hi = self.ranges[j]
        return (self.batch._draws[lo:hi] if self.slots is None
                else self.slots[j % _SLOTS, :hi - lo])

    def _draw(self, j: int) -> None:
        batch = self.batch
        try:
            _fill_rows(self._place(j), batch.seed, batch.generator_id,
                       batch._start + self.ranges[j][0])
        except BaseException as exc:  # raised by the reader
            with self.changed:
                if self.error is None or j < self.failed:
                    self.error, self.failed = exc, j
                self.taken = len(self.ranges)
                self.changed.notify_all()
            return
        with self.changed:
            self.drawn[j % _SLOTS] = j
            self.changed.notify_all()

    def _work(self, i: int = None) -> None:
        """Draw ranges, lowest untaken first: until range i is drawn (the
        reader, which raises the error of a failed draw at or before range
        i), or, without i, until none is left to take (a helper).  Wait
        while none is within reach."""
        while True:
            with self.changed:
                if i is not None:
                    if self.drawn[i % _SLOTS] == i:
                        return
                    if self.error is not None and self.failed <= i:
                        raise self.error
                if self.taken < min(len(self.ranges), self.at + _SLOTS):
                    j = self.taken
                    self.taken += 1
                elif i is None and self.taken == len(self.ranges):
                    return
                else:
                    self.changed.wait()  # for a draw, or the reader to move on
                    continue
            self._draw(j)

    def rows(self):
        """Each range's rows, in order, with helper threads that draw ahead
        and are joined when the read ends, returns or raises."""
        n = len(self.ranges)
        # daemons: a read left suspended does not block the interpreter's exit
        helpers = [threading.Thread(target=self._work, name="rng_paths",
                                    daemon=True)
                   for _ in range(min(_usable_cpus(), n) - 1)]
        try:
            for helper in helpers:
                helper.start()
            for i in range(n):
                with self.changed:
                    self.at = i  # frees range i - 1's slot
                    self.changed.notify_all()
                self._work(i)
                yield self._place(i)
        finally:
            with self.changed:
                self.taken = n  # nothing is left to take
                self.changed.notify_all()
            for helper in helpers:
                if helper.ident is not None:  # started
                    helper.join()


class PathBatch:
    """Matrix of i.i.d. N(0,1) draws; row j is Monte-Carlo path j.

    ``PathBatch(draws, seed, generator_id)`` holds finished draws.  A batch
    from ``generate`` is drawn by its reads (``blocks``): it holds its whole
    matrix, finished once a read has drawn every row, or, above
    ``_HOLD_ROWS`` rows, none, each read drawing its own.  ``n_paths`` and
    ``n_inputs`` draw nothing; ``draws``, pickling and copying give the
    full matrix (see ``draws``).
    """

    def __init__(self, draws: np.ndarray, seed: int, generator_id: str):
        self._draws = draws  # the draws, or None when each read draws its own
        self._n_paths, self._n_inputs = draws.shape
        self.seed = seed
        self.generator_id = generator_id
        self._start = 0  # the row of the draw matrix that is row 0
        self._filling = None  # the claim on held draws not yet finished
        self._whole = None  # a weak reference to the last full matrix drawn

    @property
    def n_paths(self) -> int:
        return self._n_paths

    @property
    def n_inputs(self) -> int:
        return self._n_inputs

    @property
    def draws(self) -> np.ndarray:
        """The whole matrix.  A batch that holds its draws finishes them
        here; one that holds none, or whose draws another read is drawing,
        draws a new array, or returns the last one while it is still held
        elsewhere."""
        claim = self._filling
        if claim is not None and claim.acquire(blocking=False):
            for _ in self._draw_held([(0, self.n_paths)], claim):
                pass
        if self._draws is not None and self._filling is None:
            return self._draws
        whole = self._whole and self._whole()
        if whole is None:
            whole = generate_rows(self.seed, self.generator_id, self._start,
                                  self._start + self.n_paths, self.n_inputs)
            self._whole = weakref.ref(whole)
        return whole

    def blocks(self, ranges):
        """Rows [lo, hi) of the draws for each (lo, hi) of the sequence
        ``ranges``, in order; each stays valid until the next is taken.
        Raises ValueError unless 0 <= lo <= hi <= n_paths for every range.

        Finished draws are read as views; else the read draws as the module
        docstring says, into slots of its own if another read is drawing
        the batch's matrix: the claim is taken without waiting, so a forked
        child never waits on one its parent's threads held.  Exhaust the
        iterator, or close it, to join the read's helpers.
        """
        n = self.n_paths
        for lo, hi in ranges:
            if not 0 <= lo <= hi <= n:
                raise ValueError(f"range ({lo}, {hi}) is not within [0, {n}]")
        claim = self._filling
        if claim is not None and claim.acquire(blocking=False):
            yield from self._draw_held(ranges, claim)
        elif self._draws is not None and self._filling is None:
            for lo, hi in ranges:
                yield self._draws[lo:hi]
        else:
            slots = np.empty((min(_SLOTS, len(ranges)), max(
                (hi - lo for lo, hi in ranges), default=0), self.n_inputs))
            yield from _Read(self, ranges, slots).rows()

    def _draw_held(self, ranges, claim):
        """Each range's rows of the held matrix, drawn in place in
        ``CHUNK_ROWS`` chunks in order as far as it needs unless finished;
        releases ``claim``, which the caller took, when it ends."""
        try:
            n = self.n_paths
            end = 0 if self._filling is not None else n
            chunks = _Read(self, [(a, min(a + CHUNK_ROWS, n))
                                  for a in range(0, n, CHUNK_ROWS)]).rows()
            with closing(chunks):
                for lo, hi in ranges:
                    while end < hi:
                        end += len(next(chunks))
                    if end == n:
                        self._filling = None
                    yield self._draws[lo:hi]
        finally:
            claim.release()

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
              n_inputs: int, whole: bool = False) -> PathBatch:
    """Rows [start, stop) of the draw matrix as a batch that its reads
    draw, allocated after every argument is checked; nothing is drawn.

    The batch holds its whole matrix when it has at most ``_HOLD_ROWS``
    rows, or with ``whole`` however many; else it holds no draws.
    """
    _check_integer("seed", seed)
    _check_integer("start", start)
    _check_integer("stop", stop, start)
    if generator_id not in _GENERATORS:
        raise ValueError(
            f"unknown generator_id {generator_id!r}; choose from {GENERATOR_IDS}"
        )
    _check_integer("n_inputs", n_inputs, 1)
    n = stop - start
    hold = whole or n <= _HOLD_ROWS
    batch = PathBatch(np.empty((n if hold else 0, n_inputs)), int(seed),
                      generator_id)
    batch._n_paths, batch._start = n, start
    if hold:
        batch._filling = threading.Lock()
    else:
        batch._draws = None
    return batch


def generate(seed: int, n_paths: int, n_inputs: int,
             generator_id: str = "philox") -> PathBatch:
    """The n_paths x n_inputs draw matrix, drawn by its reads.
    Deterministic.

    The draws are ``generate_rows`` over rows [0, n_paths), whenever, by
    whichever thread and however often they are drawn; nothing is drawn
    before the batch is read.  A batch of more than ``_HOLD_ROWS`` paths
    holds no draws: each read draws its rows into block slots of its own.
    """
    _check_integer("n_paths", n_paths, 1)
    return _unfilled(seed, generator_id, 0, n_paths, n_inputs)


def generate_rows(seed: int, generator_id: str, start: int, stop: int,
                  n_inputs: int) -> np.ndarray:
    """Rows [start, stop) of the draw matrix, without the preceding rows.

    Bit-identical to ``generate(...).draws[start:stop]``.  The rows are
    drawn in place in ``CHUNK_ROWS`` ranges, by the calling thread and
    helper threads that end with the call; the bytes are the same for any
    thread count.
    """
    return _unfilled(seed, generator_id, start, stop, n_inputs,
                     whole=True).draws
