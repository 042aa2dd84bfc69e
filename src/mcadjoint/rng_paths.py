"""Deterministic generation of i.i.d. standard-normal path vectors.

Draws are defined by a counter-based mapping, not by generator call order:
path j, input k consumes raw 64-bit word ``j * n_inputs + k`` of the keyed
stream, so any chunk of paths can be (re)generated independently and the
result is bit-identical however the work is scheduled.  Normals come from
the inverse normal CDF applied to fixed-point uniforms in (0, 1).

The draws are filled in place in chunks of ``CHUNK_ROWS`` rows, each
drawn from its own offset of the stream, by whoever reads them.
``generate`` allocates and draws nothing more than a window of
``_WINDOW_CHUNKS`` chunks: a batch that fits the window holds its whole
matrix, and a larger one holds a ring of chunk slots, chunk c in slot c
mod K, so its memory stays bounded however many paths it has.  A read
(``PathBatch.rows``) fills the lowest pending chunk of the window itself
while the rows it needs are not ready, and waits only when no chunk is
pending; a read that comes back to a chunk the ring has since evicted
draws it again.  Within a reading call (``PathBatch.reading``: the
estimators' block sweep, ``model.loss``, ``.draws``, ``generate_rows``)
helper threads, one per usable CPU beyond the caller's, fill ahead in
chunk order, never beyond the window (numpy's uniform draw and ``ndtri``
release the GIL); they are joined before the reading call returns, raise
or not.  A forked child fills again the chunks that its parent's threads
held at the fork.  Each chunk is drawn, shifted and transformed where it
lies, so a fill needs no memory beyond the ring.  Every element goes
through the same operations whichever thread fills its chunk, whenever,
and however often, so the bytes do not depend on the thread count, on the
order of the reads or on the window.
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
# chunks a batch from ``generate`` holds at most: 5.2 MB at 5 inputs
_WINDOW_CHUNKS = 8

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
    """The chunk-fill state of rows [start, start + n_rows) of the draws,
    held in ``ring``: chunk c in slot c mod K of its K chunk slots (every
    chunk has its own slot when the rows fit the ring, which then never
    wraps).

    Each chunk is pending (not in the ring), taken (a thread is filling
    its slot), done or failed; one condition guards the states and is
    notified whenever a chunk ends or the window moves.  Each reading
    thread pins the chunks of its last read, and the window is the K
    chunks from the lowest pinned one (every chunk, when the ring never
    wraps).  Chunks are taken lowest pending first within the window, and
    taking one evicts the done chunk in its slot, which no thread may pin.
    The first failed chunk ends the fill: no chunk is taken after it, and
    every read that needs a chunk not done raises its error.
    """

    def __init__(self, ring: np.ndarray, n_rows: int, seed: int,
                 generator_id: str, start: int):
        self.ring, self.seed, self.generator_id = ring, seed, generator_id
        self.n_rows, self.start = n_rows, start
        self.state = [_PENDING] * -(-n_rows // CHUNK_ROWS)
        self.slots = -(-len(ring) // CHUNK_ROWS)
        self.held = [-1] * self.slots  # the chunk in each slot
        self.wraps = len(self.state) > self.slots
        self.left = len(self.state)  # chunks not done
        self.pins = {}  # reading thread -> first and last chunk it pins
        self.base = 0  # the lowest pinned chunk: where the window starts
        self.error = None
        self.changed = threading.Condition()
        self.local = threading.local()  # each thread's copied rows
        self.whole = None  # a weak reference to the last full matrix drawn
        _FILLS.add(self)

    def _pinned(self, c: int) -> bool:
        return any(f <= c <= l for f, l in self.pins.values())

    def _free(self, c: int) -> bool:
        """Whether chunk c's slot may take it: empty, holding c, or holding
        a chunk neither taken nor pinned.  Called with the lock held."""
        o = self.held[c % self.slots]
        return o in (-1, c) or not (self.state[o] == _TAKEN or self._pinned(o))

    def _claim(self, c: int) -> int:
        """Take chunk c, evicting the chunk in its slot."""
        slot = c % self.slots
        o = self.held[slot]
        if o not in (-1, c) and self.state[o] == _DONE:
            self.state[o] = _PENDING
            self.left += 1
        self.held[slot] = c
        self.state[c] = _TAKEN
        return c

    def _take(self):
        """The lowest pending chunk of the window whose slot is free, now
        taken; None when there is none or a chunk failed.  Called with the
        lock held."""
        if self.error is not None:
            return None
        lo = self.base if self.wraps else 0
        for c in range(lo, min(len(self.state), lo + self.slots)):
            if self.state[c] == _PENDING and self._free(c):
                return self._claim(c)
        return None

    def _run(self, c: int):
        """Fill chunk c into its slot; the exception that failed it, or
        None."""
        lo, at = c * CHUNK_ROWS, c % self.slots * CHUNK_ROWS
        try:
            _fill_rows(self.ring[at:at + min(CHUNK_ROWS, self.n_rows - lo)],
                       self.seed, self.generator_id, self.start + lo)
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

    def _pin(self, first: int, last: int) -> None:
        """Pin chunks [first, last] for the calling thread in place of its
        last read's; the pins of threads that have ended go."""
        with self.changed:
            pins = self.pins
            for thread in [t for t in pins if not t.is_alive()]:
                del pins[thread]
            pins[threading.current_thread()] = first, last
            base = min(f for f, _ in pins.values())
            if base != self.base:
                self.base = base
                self.changed.notify_all()

    def _ensure(self, c: int) -> bool:
        """True once chunk c is done in its slot; False when its slot holds
        a chunk another thread pins, so that c cannot go there.

        While chunk c is not done, the calling thread fills the lowest
        pending chunk of the window (c itself when c lies beyond it), so a
        read far into an unread batch that fits the window fills the
        chunks before its rows too; it waits only when it can take none.
        """
        while True:
            with self.changed:
                state = self.state[c]
                if state == _DONE:
                    return True
                if self.error is not None:
                    raise self.error
                o = self.held[c % self.slots]
                if (state == _PENDING and o not in (-1, c)
                        and self.state[o] != _TAKEN and self._pinned(o)):
                    return False
                taken = self._take() if c < self.base + self.slots else None
                if taken is None and state == _PENDING and self._free(c):
                    taken = self._claim(c)
                if taken is None:
                    self.changed.wait()
                    continue
            error = self._run(taken)
            if error is not None:
                raise error

    def read(self, lo: int, hi: int) -> np.ndarray:
        """Rows [lo, hi) of the draws, 0 <= lo < hi <= n_rows, once filled:
        a view of the ring when their chunks lie side by side in it, else a
        copy in the calling thread's copy rows.

        The view's chunks stay pinned, and the copy rows unchanged, until
        the thread's next read.  A chunk whose slot another thread pins is
        drawn straight into the copy.
        """
        first, last = lo // CHUNK_ROWS, (hi - 1) // CHUNK_ROWS
        if first % self.slots + last - first < self.slots:
            self._pin(first, last)
            if all(self._ensure(c) for c in range(first, last + 1)):
                at = first % self.slots * CHUNK_ROWS - first * CHUNK_ROWS
                return self.ring[at + lo:at + hi]
        out = getattr(self.local, "rows", None)
        if out is None or len(out) < hi - lo:
            out = self.local.rows = np.empty((hi - lo, self.ring.shape[1]))
        out = out[:hi - lo]
        for c in range(first, last + 1):
            a, b = max(lo, c * CHUNK_ROWS), min(hi, (c + 1) * CHUNK_ROWS)
            self._pin(c, c)
            if self._ensure(c):
                at = c % self.slots * CHUNK_ROWS - c * CHUNK_ROWS
                out[a - lo:b - lo] = self.ring[at + a:at + b]
            else:
                _fill_rows(out[a - lo:b - lo], self.seed, self.generator_id,
                           self.start + a)
        return out

    def _help(self, stop: threading.Event) -> None:
        """Fill chunks of the window until stopped, or until none is
        pending in a ring that never wraps; wait for the window to move."""
        while True:
            with self.changed:
                while True:
                    taken = None if stop.is_set() else self._take()
                    if taken is not None:
                        break
                    if (stop.is_set() or not self.wraps
                            or self.error is not None):
                        return
                    self.changed.wait()  # for the window to move
            self._run(taken)

    @contextmanager
    def helping(self):
        """Helper threads fill pending chunks of the window in chunk order
        while the ``with`` body runs: one per usable CPU beyond the
        caller's, and no more than the pending chunks need.  On exit they
        finish the chunk in hand, take no other, and are joined, also when
        the body raises.
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
            with self.changed:
                self.changed.notify_all()
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


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_release_taken_chunks)


class PathBatch:
    """Matrix of i.i.d. N(0,1) draws; row j is Monte-Carlo path j.

    ``PathBatch(draws, seed, generator_id)`` holds finished draws.  A batch
    from ``generate`` is filled by its readers and holds at most a window
    of ``_WINDOW_CHUNKS`` chunks of its rows: ``rows`` fills what it needs
    before it returns, and ``n_paths`` and ``n_inputs`` fill nothing.
    ``draws``, pickling and copying give the full matrix: a batch that fits
    the window fills and returns its own, a larger one draws a new one.
    """

    def __init__(self, draws: np.ndarray, seed: int, generator_id: str):
        self._draws = draws  # the draws, or the ring that holds a window
        self._n_paths = draws.shape[0]
        self.seed = seed
        self.generator_id = generator_id
        self._fill = None  # the chunk-fill state while chunks are not done

    @property
    def n_paths(self) -> int:
        return self._n_paths

    @property
    def n_inputs(self) -> int:
        return self._draws.shape[1]

    @property
    def draws(self) -> np.ndarray:
        """The whole matrix, filled by the calling thread and helper
        threads that end with this call.  A batch larger than its window
        draws a new array, or returns the last one while it is still held
        elsewhere."""
        fill = self._fill
        if fill is not None and fill.wraps:
            if fill.error is not None:
                raise fill.error
            draws = fill.whole and fill.whole()
            if draws is None:
                draws = generate_rows(self.seed, self.generator_id, fill.start,
                                      fill.start + self.n_paths, self.n_inputs)
                fill.whole = weakref.ref(draws)
            return draws
        with self.reading():
            self.rows(0, self.n_paths)
        return self._draws

    def rows(self, lo: int, hi: int) -> np.ndarray:
        """Rows [lo, hi) (clipped to the batch), once filled.

        Pending chunks are filled as ``_Fill.read`` says, and a failed
        chunk's error is raised here.  The rows are a view, or a copy where
        they cross the seam of a batch larger than its window; either stays
        valid until the calling thread's next read of the batch.
        """
        fill = self._fill
        if fill is None:
            return self._draws[lo:hi]
        hi = min(hi, self.n_paths)
        if hi <= lo:
            return self._draws[:0]
        rows = fill.read(lo, hi)
        if not fill.left:
            self._fill = None
        return rows

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
              n_inputs: int, whole: bool = False) -> PathBatch:
    """Rows [start, stop) of the draw matrix as a batch that its readers
    fill, allocated after every argument is checked; nothing is drawn.

    The batch holds a window of ``_WINDOW_CHUNKS`` chunks, or with
    ``whole`` every row, however many.
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
    rows = n if whole else min(n, _WINDOW_CHUNKS * CHUNK_ROWS)
    batch = PathBatch(np.empty((rows, n_inputs)), int(seed), generator_id)
    batch._n_paths = n
    batch._fill = _Fill(batch._draws, n, seed, generator_id, start)
    return batch


def generate(seed: int, n_paths: int, n_inputs: int,
             generator_id: str = "philox") -> PathBatch:
    """The n_paths x n_inputs draw matrix, filled by its readers.
    Deterministic.

    The draws are ``generate_rows`` over rows [0, n_paths), whenever, by
    whichever thread and however often they are filled; no chunk is drawn
    before the batch is read.  At most ``_WINDOW_CHUNKS`` chunks of
    ``CHUNK_ROWS`` rows are held: a batch of more paths keeps them in a
    ring of chunk slots and draws a chunk again when a read comes back to
    it after its slot took another.  Its ``rows`` are then a copy where
    they cross the ring's seam.
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
    return _unfilled(seed, generator_id, start, stop, n_inputs,
                     whole=True).draws
