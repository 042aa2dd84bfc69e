"""Monte-Carlo adjoint estimators for gradients of g = 0.5 sum (Ey_i - C_i)^2.

Three estimators, all run by one block sweep that differs between them
only in the seeds of each path's reverse sweep:

* algorithm 1: two passes. Pass one replays every path forward and keeps
  only the running sum of the outputs, in path order, to get Ey.  Pass
  two sweeps every path in reverse seeded with the fixed residuals
  Ey_i - C_i (and recomputes the forward values it needs, so forward work
  is paid twice).
* algorithm 2: one pass.  Path j is swept with the residuals of the
  *previous* path, y_i(w_{j-1}) - C_i; path independence keeps the
  estimator unbiased.  Path 1 is forward-only.
* algorithm 3: like algorithm 2, but the lagged single-path output is
  replaced by the running mean S_i over all earlier paths, which removes
  most of the extra variance while keeping the single-pass cost.

The lagged algorithms take a lag ``g`` (``grad_est_batched``'s width c;
1 for ``grad_est2/3``): path j is seeded from path j - g (algorithm 2) or
from the mean over paths [0, floor(j/g) g) (algorithm 3), so paths j < g are
forward-only.  This is the seeding of evaluating c paths at a time, each
seeded from the chunks before it.

No estimator keeps a matrix of its per-path contributions (or of its
outputs).  Paths are processed one block at a time, in path order, with
lane-wise vectorized replay: ``n_paths // 64`` paths per block, clamped to
[2048, ``BLOCK_PATHS``] and rounded down to a multiple of the lag, so long
runs pay the per-step dispatch of fewer, wider blocks.  Every pass of an
estimate replays into one block buffer, bound to the tape (``Tape.bound``)
so that its row views are built once.  The seeding steps work lane-major,
as the buffer holds the values: they read a block's outputs as one row per
output and write the seeds straight into the buffer's seed rows, where the
reverse sweep reads them.  The reverse sweep writes each
path's parameter adjoints straight into one block-sized stack (``_Sums``),
which reduces them as soon as they land into the gradient's running sum
and the accumulators of its per-coordinate variance.  Every sum is taken
in path order, so with the lane determinism of the engine no result
depends on the blocking.  Every estimate also carries exact
scalar-equivalent forward/reverse evaluation counts, checked against their
closed forms on every run, and the time it spent in each phase of the
sweep.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from contextlib import closing
from dataclasses import dataclass, field

import numpy as np

from .rng_paths import PathBatch
from .tape import ReplayCounters, Tape

__all__ = [
    "GradientEstimate",
    "grad_est1",
    "grad_est2",
    "grad_est3",
    "grad_est_batched",
    "estimate_variance",
    "measure_correction_coefficients",
    "SpeedupReport",
    "BLOCK_PATHS",
]

# widest replay block (paths; see _block_ranges): wide enough to amortize
# per-step dispatch, narrow enough to keep the block buffer (one double per
# path per row, forward values and adjoints alike: 27 rows on the default
# fixture's 75 nodes, 1.8 MB at 8192 lanes, 0.44 MB at 2048) small
BLOCK_PATHS = 8192
# paths replayed one lane at a time for the scalar baseline of K_F/K_R
_SCALAR_PATHS = 256
# the phases of a sweep, in GradientEstimate.phases
_PHASES = ("generate", "forward", "seed", "reverse", "reduce")


@dataclass
class GradientEstimate:
    """A gradient estimate with its variance and exact evaluation counts.

    ``variance`` is the per-coordinate variance of ``grad`` with the
    residual seeds treated as fixed (all NaN when the estimate was asked
    for none, ``batch_count=0``).  It leaves out the noise of the seeds
    themselves (the sample mean for algorithm 1, the running means for
    algorithm 3), so for those algorithms it understates the standard
    error: by up to about 3x at the default fixture's start point, and by
    more as the residuals shrink towards the optimum.
    """

    grad: np.ndarray
    variance: np.ndarray
    n_paths: int
    f_evals: int
    r_evals: int
    algorithm: int
    millis: float = 0.0
    # milliseconds spent in each phase of the sweep: drawing or waiting
    # for draw rows (both of algorithm 1's passes: the second draws its rows
    # again when the batch holds no draws), forward replay,
    # seeding, reverse replay, reduction of the contributions
    phases: dict = field(default_factory=dict)


def estimate_variance(per_path_terms, algorithm: int, batch_count: int = 32) -> np.ndarray:
    """Per-coordinate variance of the estimator from its per-path terms.

    Algorithm 1 terms are i.i.d., so the variance of their mean is the
    sample variance over the term count.  Algorithms 2 and 3 carry lag-1
    dependence between consecutive terms, which the means of ``batch_count``
    >= 2 non-overlapping batches absorb (algorithm 1 does not read it).  A
    1-D input is one column of terms.
    The rows go through the estimators' own reductions, ``BLOCK_PATHS`` at a
    time, so no copy of the terms is made.
    """
    terms = np.asarray(per_path_terms, dtype=np.float64)
    if terms.ndim == 1:
        terms = terms[:, None]
    n, m = terms.shape
    if algorithm in (2, 3):
        if batch_count < 2:
            raise ValueError(f"batch_count must be >= 2, got {batch_count}")
        if n < 16 * batch_count:
            raise ValueError(
                f"too few paths for the batch count: {n} terms cannot fill "
                f"{batch_count} batches of at least 16"
            )
        sums = _Sums(m, min(n, BLOCK_PATHS), batches=batch_count, n_terms=n)
    elif algorithm == 1:
        sums = _Sums(m, min(n, BLOCK_PATHS), iid=True)
    else:
        raise ValueError(f"unknown algorithm {algorithm}")
    for lo in range(0, n, BLOCK_PATHS):
        rows = terms[lo: lo + BLOCK_PATHS]
        sums.rows(len(rows))[...] = rows
        sums.commit(len(rows))
    return sums.finish()


class _Sums:
    """In-order reductions of per-path terms, one block at a time.

    ``rows(k)`` is a view of the k rows after row 0 of a (1 + rows,
    max(2, M)) stack, into which the terms come in path order, and
    ``commit(k)`` reduces them at once.  ``np.einsum`` adds the rows of two
    or more columns in order but a lone column pairwise, hence the zero
    column that pads M = 1; with each running sum carried in row 0, every
    sum is taken in path order, whatever the blocks.

    ``total`` is the terms' running sum, by default the only one kept (the
    variance is NaN).  For i.i.d. terms' sample variance ``iid`` keeps
    running sums of the nonzero terms' offsets from the first term and of
    their squares (shifted data: Chan, Golub & LeVeque, 1983), and counts
    the zero terms (paths that carry no gradient) instead of adding them:
    one rounded offset added in order 10^6 times drifts the fixture's
    variance by up to 1e-10 relative.  Otherwise ``batches`` >= 2 keeps the
    in-order sum of each of that many batches of ``n_terms // batches``
    terms, a batch that a block edge splits carrying its partial sum.
    """

    def __init__(self, n_cols: int, rows: int, *, iid: bool = False,
                 batches: int = 0, n_terms: int = 0):
        self.n_cols = n_cols
        width = max(2, n_cols)
        self.stack = np.zeros((1 + rows, width))
        self.total = self.stack[0, :n_cols]
        self.done = 0  # rows reduced
        self.iid = iid
        self.batches = batches if batches >= 2 else 0
        if iid:
            self.s1, self.s2, self.nonzero = np.zeros((3, width))
            self.mask = np.empty((rows, width))
        elif self.batches:
            self.size = n_terms // batches
            self.sums = np.zeros((batches, width))

    def rows(self, k: int) -> np.ndarray:
        return self.stack[1: 1 + k, : self.n_cols]

    def commit(self, k: int) -> None:
        lo, stack = self.done, self.stack[: 1 + k]
        total = np.einsum("ij->j", stack)
        self.done += k
        if self.iid:
            rows, mask = stack[1:], self.mask[:k]
            if not lo:
                self.shift = rows[0].copy()
            np.not_equal(rows, 0, out=mask)  # 0/1 floats: they sum exactly
            self.nonzero += np.einsum("ij->j", mask)
            mask *= self.shift
            rows -= mask  # only the nonzero terms are shifted
            stack[0] = self.s1
            self.s1 = np.einsum("ij->j", stack)
            np.multiply(rows, rows, out=rows)
            stack[0] = self.s2
            self.s2 = np.einsum("ij->j", stack)
        elif self.batches:
            self._add_batches(lo, min(self.done, self.batches * self.size))
        stack[0] = total

    def finish(self) -> np.ndarray:
        """The variance of the terms' mean."""
        n, m = self.done, self.n_cols
        if self.iid and n >= 2:
            zeros = n - self.nonzero
            s1 = self.s1 - zeros * self.shift
            s2 = self.s2 + zeros * self.shift * self.shift
            return np.maximum(s2 - s1 * s1 / n, 0.0)[:m] / (n - 1) / n
        if self.batches:
            means = self.sums[:, :m] / self.size
            return means.var(axis=0, ddof=1) / self.batches
        return np.full(m, np.nan)

    def _add_batches(self, lo: int, hi: int) -> None:
        """Add rows [lo, hi), in stack rows 1.., to their batches' sums."""
        size, r = self.size, lo
        if r < hi and r % size:  # the batch a block edge split: continue it
            b = r // size
            r = min(hi, (b + 1) * size)
            self.stack[0] = self.sums[b]
            self.sums[b] = np.einsum("ij->j", self.stack[: 1 + r - lo])
        whole = max(0, hi - r) // size
        if whole:
            rows = self.stack[1 + r - lo: 1 + r - lo + whole * size]
            np.einsum("bij->bj", rows.reshape(whole, size, -1),
                      out=self.sums[r // size: r // size + whole])
            r += whole * size
        if r < hi:  # a batch the block edge splits: start it
            self.sums[r // size] = np.einsum(
                "ij->j", self.stack[1 + r - lo: 1 + hi - lo])


# -- the block engine ---------------------------------------------------------


class _Blocks(Sequence):
    """The (lo, hi) of blocks of ``size`` paths over [0, n_paths), in path
    order, made as they are read: a run holds no list of its blocks."""

    def __init__(self, n_paths: int, size: int):
        self.starts, self.n_paths, self.size = (range(0, n_paths, size),
                                                n_paths, size)

    def __len__(self) -> int:
        return len(self.starts)

    def __getitem__(self, i: int):
        lo = self.starts[i]
        return lo, min(lo + self.size, self.n_paths)


def _block_ranges(n_paths: int, lag: int) -> _Blocks:
    """Blocks of n_paths // 64 paths, clamped to [2048, BLOCK_PATHS] and
    rounded down to a multiple of lag (never below lag), in path order."""
    width = min(BLOCK_PATHS, max(2048, n_paths // 64))
    return _Blocks(n_paths, max(lag, width // lag * lag))


def _check_inputs(tape: Tape, params, paths: PathBatch, targets) -> tuple:
    params = np.asarray(params, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if targets.shape != (tape.n_outputs,):
        raise ValueError(
            f"expected {tape.n_outputs} targets, got shape {targets.shape}"
        )
    if not np.all(np.isfinite(targets)):
        raise ValueError(f"targets must be finite, got {targets}")
    if paths.n_inputs != tape.n_inputs:
        raise ValueError(
            f"path batch has {paths.n_inputs} inputs per path, tape expects "
            f"{tape.n_inputs}"
        )
    return params, targets


def _check_counts(counters: ReplayCounters, f_expected: int, r_expected: int) -> None:
    if counters.f_evals != f_expected or counters.r_evals != r_expected:
        raise AssertionError(
            f"evaluation accounting drifted: counted F={counters.f_evals} "
            f"R={counters.r_evals}, expected F={f_expected} R={r_expected}"
        )


def _sweep(tape: Tape, params, paths: PathBatch, ranges, buffer,
           counters: ReplayCounters, seed, phases: dict,
           sums: _Sums = None) -> None:
    """Replay the blocks of ``ranges`` in path order, counting into ``counters``.

    The blocks' draws come from one read, ``paths.blocks(ranges)``, which
    draws them if the batch does not hold them finished, with helper
    threads drawing ahead; each block is forwarded into the leading lanes
    of ``buffer`` before the next is taken.
    ``seed(lo, hi, y, s)`` gets the block's outputs and its seed rows
    (``tape.seed_rows``), both lane-major of shape (n_outputs, hi - lo); it
    writes the seeds of the block's last k paths into the last k lanes of
    ``s`` and returns k (it alone decides how many), 0 for a forward-only
    block.  The reverse sweep reads the seeds where they were written and
    reverses the seeded lanes straight into the rows of ``sums``, which
    then reduces them.  The seconds spent in each phase are added to
    ``phases``.
    """
    clock = time.perf_counter
    seed_rows = buffer[tape.seed_rows]
    t0 = clock()
    with closing(paths.blocks(ranges)) as rows:
        for w, (lo, hi) in zip(rows, ranges):
            t1 = clock()
            n = hi - lo
            # a full block replays into the bound buffer object itself, so
            # that its row views are reused
            block = buffer if n == buffer.shape[1] else buffer[:, :n]
            y, _ = tape.replay_forward(params, w, buffer=block,
                                       counters=counters)
            t2 = clock()
            k = seed(lo, hi, y.T, seed_rows[:, :n])
            t3 = clock()
            phases["generate"] += t1 - t0
            phases["forward"] += t2 - t1
            phases["seed"] += t3 - t2
            if k:
                tape.replay_reverse(block if k == n else block[:, n - k:],
                                    seed_rows[:, n - k: n].T, params=params,
                                    out=sums.rows(k), counters=counters)
                t4 = clock()
                sums.commit(k)
                phases["reverse"] += t4 - t3
                phases["reduce"] += clock() - t4
            t0 = clock()


def _lagged_seeds(algorithm: int, lag: int, targets, size: int):
    """The per-block seeding step of algorithm 2 or 3 at lag ``lag``.

    Path j >= lag is seeded from y_{j-lag} (algorithm 2) or from the mean over
    paths [0, floor(j/lag) lag) (algorithm 3); calls must come in path order.
    Seeds are written lane-major into the block's seed rows, one row per
    output; paths 0..lag-1 seed nothing.
    """
    m = len(targets)
    t_col = targets[:, None]

    if algorithm == 2:
        carry = np.empty((m, lag))  # y - C of the lag paths before the block

        def seed(lo, hi, y, s):
            n = hi - lo
            if lo:
                s[:, :min(lag, n)] = carry[:, :n]
            if n > lag:
                np.subtract(y[:, :n - lag], t_col, out=s[:, lag:])
            if n >= lag:
                np.subtract(y[:, n - lag:], t_col, out=carry)
            return n if lo else n - lag

        return seed

    carry = np.zeros(m)  # the sum of y over the paths before the block
    starts = np.arange(0, size, lag, dtype=np.float64)
    divisor = np.empty_like(starts)

    def seed(lo, hi, y, s):
        n = hi - lo
        # s[:, k]: the sum of y over paths [0, lo + k), summed in path order
        s[:, 0] = carry
        s[:, 1:] = y[:, :n - 1]
        np.cumsum(s, axis=1, out=s)
        np.add(s[:, n - 1], y[:, n - 1], out=carry)
        # each chunk of lag paths is seeded from the mean before it; chunk
        # starts 0, lag, 2 lag, ... are offset into the path counts before
        # each chunk
        skip = lag if lo == 0 else 0
        heads = s[:, skip: n: lag]
        k = heads.shape[1]
        np.add(starts[:k], lo + skip, out=divisor[:k])
        np.divide(heads, divisor[:k], out=heads)
        np.subtract(heads, t_col, out=heads)
        if lag > 1:  # the rest of each chunk copies its first lane
            whole = skip + (n - skip) // lag * lag
            # a view: the lanes of each row are contiguous
            chunks = s[:, skip: whole].reshape(m, -1, lag)
            chunks[:, :, 1:] = chunks[:, :, :1]
            s[:, whole + 1: n] = s[:, whole: whole + 1]
        return n - skip

    return seed


def _estimate(algorithm: int, tape: Tape, params, paths: PathBatch, targets,
              batch_count: int, n_threads: int, lag: int = 1) -> GradientEstimate:
    """Run algorithm 1, 2 or 3 on the block engine (algorithm 1 ignores lag)."""
    # the sweep is serial: n_threads stays only for perfbench/workloads.py's
    # calls (lines 76, 151 and 175), and ROADMAP item 4 deletes it
    if n_threads != 1:
        raise ValueError(f"n_threads must be 1, got {n_threads}")
    t0 = time.perf_counter()
    params, targets = _check_inputs(tape, params, paths, targets)
    if batch_count < 2 and batch_count != 0:
        raise ValueError(f"batch_count must be 0 or >= 2, got {batch_count}")
    n = paths.n_paths
    if algorithm == 1:
        if n < 1:
            raise ValueError("paths must be nonempty")
        lag = 0
    elif n <= lag:
        raise ValueError(
            f"algorithm {algorithm} at width {lag} needs at least {lag + 1} "
            "paths: each reverse sweep is seeded from an earlier path"
        )
    ranges = _block_ranges(n, max(1, lag))
    size = ranges[0][1]
    if algorithm != 1 and batch_count:  # small runs cap the count
        sums = _Sums(tape.n_params, size, n_terms=n - lag,
                     batches=min(batch_count, (n - lag) // 16))
    else:  # algorithm 1's variance or none
        sums = _Sums(tape.n_params, size, iid=batch_count > 0)
    phases = dict.fromkeys(_PHASES, 0.0)
    counters = ReplayCounters()
    # one block buffer serves every pass: a buffer freed after each block
    # lets malloc return its pages, and every block faults them back in
    # (algorithm 1 ran 2.5x slower on a 2-vCPU Xeon VM)
    buffer = tape.alloc_buffer(size)
    with tape.bound(buffer):
        if algorithm == 1:
            # pass one sums the outputs in path order; pass two reads the
            # blocks again, which a batch that holds no draws draws again
            outputs = _Sums(tape.n_outputs, size)

            def add_outputs(lo, hi, y, s):
                outputs.rows(hi - lo)[...] = y.T
                outputs.commit(hi - lo)
                return 0

            _sweep(tape, params, paths, ranges, buffer, counters, add_outputs,
                   phases)
            lam = outputs.total[:, None] / n - targets[:, None]
            del outputs  # its rows are freed before pass two

            def seed(lo, hi, y, s):
                s[...] = lam
                return hi - lo
        else:
            seed = _lagged_seeds(algorithm, lag, targets, size)
        _sweep(tape, params, paths, ranges, buffer, counters, seed, phases,
               sums)

    _check_counts(counters, 2 * n if algorithm == 1 else n, n - lag)
    t1 = time.perf_counter()
    variance = sums.finish()
    grad = sums.total / (n - lag)
    phases["reduce"] += time.perf_counter() - t1
    return GradientEstimate(
        grad=grad,
        variance=variance,
        n_paths=n,
        f_evals=counters.f_evals,
        r_evals=counters.r_evals,
        algorithm=algorithm,
        millis=(time.perf_counter() - t0) * 1e3,
        phases={k: v * 1e3 for k, v in phases.items()},
    )


# -- the estimators -----------------------------------------------------------


def grad_est1(tape: Tape, params, paths: PathBatch, targets, *,
              batch_count: int = 32, n_threads: int = 1) -> GradientEstimate:
    """Two-pass estimator with fixed residual seeds Ey_i - C_i.

    Pass one replays every path forward and keeps only the running sum of
    the outputs; pass two replays the forward values again for the reverse
    sweep, so f_evals = 2 N and r_evals = N.  Each pass is one read of the
    batch (``PathBatch.blocks``), so a batch from ``rng_paths.generate``
    that holds no draws is drawn once per pass.  The variance
    is the terms' sample variance over N; ``batch_count=0`` skips it (all
    NaN), any other count must be >= 2 and is not read.
    """
    return _estimate(1, tape, params, paths, targets, batch_count, n_threads)


def grad_est2(tape: Tape, params, paths: PathBatch, targets, *,
              batch_count: int = 32, n_threads: int = 1) -> GradientEstimate:
    """Single-pass estimator seeded with the previous path's residuals.

    The variance comes from the means of ``batch_count`` batches (capped at
    one per 16 terms; fewer than 2 give NaN).  ``batch_count=0`` skips it
    (all NaN); any other count must be >= 2.  grad and the F/R counts do
    not depend on it.
    """
    return _estimate(2, tape, params, paths, targets, batch_count, n_threads)


def grad_est3(tape: Tape, params, paths: PathBatch, targets, *,
              batch_count: int = 32, n_threads: int = 1) -> GradientEstimate:
    """Single-pass estimator seeded with running-mean residuals.

    ``batch_count`` is read as by :func:`grad_est2`.
    """
    return _estimate(3, tape, params, paths, targets, batch_count, n_threads)


def grad_est_batched(algorithm: int, tape: Tape, params, paths: PathBatch,
                     targets, width: int, *,
                     batch_count: int = 32) -> GradientEstimate:
    """Run an estimator as if c = ``width`` paths were evaluated at a time.

    Algorithm 1's seeds do not depend on the path order, so its estimate is
    ``grad_est1``'s at any width.  For the lagged algorithms the seed source
    moves to chunk granularity: lane l of chunk t is seeded from lane l of
    chunk t-1 (algorithm 2) or from the running mean over all chunks before
    t (algorithm 3); chunk 0 is forward-only, so those algorithms reverse
    n_paths - c paths.  At width 1 every estimate is bit-identical to its
    scalar counterpart.  ``batch_count`` is read as by the scalar
    estimators: 0 skips the variance.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if algorithm not in (1, 2, 3):
        raise ValueError(f"unknown algorithm {algorithm}")
    return _estimate(algorithm, tape, params, paths, targets, batch_count, 1,
                     lag=width)


@dataclass
class SpeedupReport:
    """Empirical batched-vs-scalar replay cost comparison; each K and time
    is the median over the runs."""

    width: int
    k_f: float
    k_r: float
    t_scalar_f_us: float    # per-path scalar forward, microseconds
    t_scalar_r_us: float
    t_batched_f_us: float   # per-path batched forward, microseconds
    t_batched_r_us: float
    repeats: int
    k_f_runs: list = field(default_factory=list)
    k_r_runs: list = field(default_factory=list)
    degenerate: bool = False


def _replay_cost(tape: Tape, params, paths: PathBatch, n_rows: int,
                 width: int) -> tuple:
    """Per-path forward and reverse seconds of ``width``-lane replays.

    The full ``width``-row blocks of the first ``n_rows`` paths go through
    ``_sweep`` with unit seeds, bound as the estimators bind their buffer;
    the sweep's forward and reverse phases are the times.
    """
    n = min(n_rows, paths.n_paths) // width * width
    ranges = [(lo, lo + width) for lo in range(0, n, width)]
    phases = dict.fromkeys(_PHASES, 0.0)
    buffer = tape.alloc_buffer(width)

    def unit(lo, hi, y, s):
        s[...] = 1.0
        return width

    with tape.bound(buffer):
        _sweep(tape, params, paths, ranges, buffer, ReplayCounters(), unit,
               phases, _Sums(tape.n_params, width))
    return phases["forward"] / n, phases["reverse"] / n


def measure_correction_coefficients(tape: Tape, params, paths: PathBatch,
                                    width: int, *,
                                    repeats: int = 3) -> SpeedupReport:
    """Measure K_F and K_R: width * (batched per-path time) / (scalar per-path time).

    Scalar replay is a one-lane block replay, timed on the first 256 paths;
    batched replay runs on consecutive ``width``-row slices of all the
    draws.  A perfectly lane-parallel replay would give 1.  Both are
    measured, never assumed; at width 1 the coefficients are 1 by
    definition and no timing is attempted.
    """
    if width < 1:
        raise ValueError(f"width must be >= 1, got {width}")
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    params = np.asarray(params, dtype=np.float64)
    if width == 1:
        return SpeedupReport(width=1, k_f=1.0, k_r=1.0,
                             t_scalar_f_us=0.0, t_scalar_r_us=0.0,
                             t_batched_f_us=0.0, t_batched_r_us=0.0,
                             repeats=0, degenerate=True)
    if paths.n_paths < width:
        raise ValueError("need at least one full-width chunk to measure")
    # finished draws, so that no fill runs beside a timed replay
    paths = PathBatch(paths.draws, paths.seed, paths.generator_id)

    # per run: scalar forward, scalar reverse, batched forward, batched reverse
    runs = np.array([_replay_cost(tape, params, paths, _SCALAR_PATHS, 1)
                     + _replay_cost(tape, params, paths, paths.n_paths, width)
                     for _ in range(repeats)])
    k_f_runs = (width * runs[:, 2] / runs[:, 0]).tolist()
    k_r_runs = (width * runs[:, 3] / runs[:, 1]).tolist()
    t_sf, t_sr, t_bf, t_br = (np.median(runs, axis=0) * 1e6).tolist()
    return SpeedupReport(
        width=width,
        k_f=float(np.median(k_f_runs)),
        k_r=float(np.median(k_r_runs)),
        t_scalar_f_us=t_sf,
        t_scalar_r_us=t_sr,
        t_batched_f_us=t_bf,
        t_batched_r_us=t_br,
        repeats=repeats,
        k_f_runs=k_f_runs,
        k_r_runs=k_r_runs,
    )
