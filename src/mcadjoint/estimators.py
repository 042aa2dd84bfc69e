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

Every estimator materializes the per-path contribution matrix (one row
per reversed path; no matrix of outputs is kept), takes its mean for the
gradient, estimates the per-coordinate variance of the estimator from the
same rows, and carries exact scalar-equivalent forward/reverse evaluation
counts that are checked against their closed forms on every run.

Paths are processed one block at a time, in path order, with lane-wise
vectorized replay: ``n_paths // 64`` paths per block, clamped to [2048,
``BLOCK_PATHS``] and rounded down to a multiple of the lag, so long runs
pay the per-step dispatch of fewer, wider blocks.  Running sums are taken
in path order, so with the lane determinism of the engine the result is
independent of the blocking.  Every pass of an estimate replays into one
block buffer, bound to the tape (``Tape.bound``) so that its row views are
built once.  The seeding steps work lane-major, as the buffer holds the
values: they read a block's outputs as one row per output and write the
seeds the same way, and the reverse sweep writes each path's parameter
adjoints straight into that path's row of the term matrix.
"""

from __future__ import annotations

import time
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
# per-step dispatch, narrow enough to keep a block's buffers (one double per
# path per buffer row, a parameter or lane-dependent node: 40 of the default
# fixture's 75 nodes, 2.6 MB at 8192 lanes, 0.66 MB at 2048) small
BLOCK_PATHS = 8192
# rows per chunk of algorithm 1's variance reduction; fixed, so that the
# variance does not depend on the blocking
_VAR_ROWS = 4096
# paths replayed one lane at a time for the scalar baseline of K_F/K_R
_SCALAR_PATHS = 256


@dataclass
class GradientEstimate:
    """A gradient estimate with its variance and exact evaluation counts.

    ``variance`` is the per-coordinate variance of ``grad`` with the
    residual seeds treated as fixed.  It leaves out the noise of the seeds
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


def estimate_variance(per_path_terms, algorithm: int, batch_count: int = 32) -> np.ndarray:
    """Per-coordinate variance of the estimator from its per-path terms.

    Algorithm 1 terms are i.i.d., so the variance of their mean is the
    sample variance over the term count.  Algorithms 2 and 3 carry lag-1
    dependence between consecutive terms, which the means of ``batch_count``
    >= 2 non-overlapping batches absorb.  A 1-D input is one column of terms.
    """
    terms = np.asarray(per_path_terms, dtype=np.float64)
    if terms.ndim == 1:
        terms = terms[:, None]
    n = terms.shape[0]
    if algorithm == 1:
        if n < 2:
            return np.full(terms.shape[1], np.nan)
        return _sum_sq_dev(terms) / (n - 1) / n
    if algorithm in (2, 3):
        _check_batch_count(batch_count)
        if n < 16 * batch_count:
            raise ValueError(
                f"too few paths for the batch count: {n} terms cannot fill "
                f"{batch_count} batches of at least 16"
            )
        size = n // batch_count
        batches = terms[: batch_count * size].reshape(batch_count, size, -1)
        # einsum adds each batch's rows in order, as mean(axis=1) does for
        # more than one column, at a third of the cost per row
        means = np.einsum("bij->bj", batches) / size
        return means.var(axis=0, ddof=1) / batch_count
    raise ValueError(f"unknown algorithm {algorithm}")


def _check_batch_count(batch_count: int) -> None:
    if batch_count < 2:
        raise ValueError(f"batch_count must be >= 2, got {batch_count}")


def _sum_sq_dev(terms) -> np.ndarray:
    """Per-column sum of squared deviations from the mean, two-pass.

    Works through ``_VAR_ROWS`` rows at a time instead of an n x M copy.
    The running sum is row 0 of each chunk, so rows are summed in order.
    """
    mean = terms.mean(axis=0)
    chunk = np.empty((_VAR_ROWS + 1, terms.shape[1]))
    chunk[0] = 0.0
    for lo in range(0, terms.shape[0], _VAR_ROWS):
        rows = terms[lo: lo + _VAR_ROWS]
        dev = chunk[1: len(rows) + 1]
        np.subtract(rows, mean, out=dev)
        np.multiply(dev, dev, out=dev)
        chunk[0] = chunk[: len(rows) + 1].sum(axis=0)
    return chunk[0]


def _variance_or_nan(terms, algorithm, batch_count) -> np.ndarray:
    """Internal: cap the batch count at small n instead of failing the run."""
    if algorithm == 1:
        return estimate_variance(terms, 1)
    n = terms.shape[0]
    capped = min(batch_count, n // 16)
    if capped < 2:
        return np.full(terms.shape[1], np.nan)
    return estimate_variance(terms, algorithm, capped)


# -- the block engine ---------------------------------------------------------


def _block_ranges(n_paths: int, lag: int):
    """Blocks of n_paths // 64 paths, clamped to [2048, BLOCK_PATHS] and
    rounded down to a multiple of lag (never below lag), in path order."""
    width = min(BLOCK_PATHS, max(2048, n_paths // 64))
    size = max(lag, width // lag * lag)
    return [(lo, min(lo + size, n_paths)) for lo in range(0, n_paths, size)]


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
           counters: ReplayCounters, seed, terms=None, lag: int = 0) -> None:
    """Replay the blocks of ``ranges`` in path order, counting into ``counters``.

    Each block is forwarded into the leading lanes of ``buffer``.
    ``seed(lo, hi, y)`` gets the block's outputs lane-major, shape
    (n_outputs, hi - lo), and returns lane-major seed rows for the block's
    last paths (it alone decides how many), or None for a forward-only
    block.  The seeded lanes are reversed straight into ``terms``, whose row
    r belongs to path r + lag.
    """
    for lo, hi in ranges:
        n = hi - lo
        # a full block replays into the bound buffer object itself, so that
        # its row views are reused
        block = buffer if n == buffer.shape[1] else buffer[:, :n]
        y, _ = tape.replay_forward(params, paths.draws[lo:hi], buffer=block,
                                   counters=counters)
        seeds = seed(lo, hi, y.T)
        if seeds is not None:
            k = seeds.shape[1]
            tape.replay_reverse(block if k == n else block[:, n - k:],
                                seeds.T, out=terms[hi - k - lag: hi - lag],
                                counters=counters)


def _lagged_seeds(algorithm: int, lag: int, targets, size: int):
    """The per-block seeding step of algorithm 2 or 3 at lag ``lag``.

    Path j >= lag is seeded from y_{j-lag} (algorithm 2) or from the mean over
    paths [0, floor(j/lag) lag) (algorithm 3); calls must come in path order.
    Seeds are written lane-major, one row per output; paths 0..lag-1 seed
    nothing.
    """
    m = len(targets)
    t_col = targets[:, None]
    prev = 0  # paths in the previous block

    if algorithm == 2:
        # the residuals y - C of the last lag paths before the block, then
        # of the block's paths
        resid = np.empty((m, lag + size))

        def seed(lo, hi, y):
            nonlocal prev
            n = hi - lo
            resid[:, :lag] = resid[:, prev: prev + lag]
            prev = n
            np.subtract(y, t_col, out=resid[:, lag: lag + n])
            return resid[:, lag if lo == 0 else 0: n]

        return seed

    # pre[:, k]: the sum of y over paths [0, lo + k), summed in path order;
    # chunk starts 0, lag, 2 lag, ... are offset per block into the path
    # counts before each chunk
    pre = np.empty((m, size + 1))
    pre[:, 0] = 0.0
    starts = np.arange(0, size, lag, dtype=np.float64)
    divisor = np.empty_like(starts)
    means = np.empty((m, len(starts)))

    def seed(lo, hi, y):
        nonlocal prev
        n = hi - lo
        pre[:, 0] = pre[:, prev]
        prev = n
        pre[:, 1: n + 1] = y
        np.cumsum(pre[:, : n + 1], axis=1, out=pre[:, : n + 1])
        # each chunk of lag paths is seeded from the mean before it
        skip = lag if lo == 0 else 0
        sums = pre[:, skip: n: lag]
        k = sums.shape[1]
        np.add(starts[:k], lo + skip, out=divisor[:k])
        seeds = np.divide(sums, divisor[:k], out=means[:, :k])
        if lag > 1:
            seeds = np.repeat(seeds, lag, axis=1)[:, : n - skip]
        return np.subtract(seeds, t_col, out=seeds)

    return seed


def _estimate(algorithm: int, tape: Tape, params, paths: PathBatch, targets,
              batch_count: int, n_threads: int, lag: int = 1) -> GradientEstimate:
    """Run algorithm 1, 2 or 3 on the block engine (algorithm 1 ignores lag)."""
    # grad_est1/2/3 keep n_threads for old callers; the sweep is serial
    if n_threads != 1:
        raise ValueError(f"n_threads must be 1, got {n_threads}")
    t0 = time.perf_counter()
    params, targets = _check_inputs(tape, params, paths, targets)
    n = paths.n_paths
    if algorithm == 1:
        if n < 1:
            raise ValueError("paths must be nonempty")
        lag = 0
    else:
        _check_batch_count(batch_count)
        if n <= lag:
            raise ValueError(
                f"algorithm {algorithm} at width {lag} needs at least {lag + 1} "
                "paths: each reverse sweep is seeded from an earlier path"
            )
    ranges = _block_ranges(n, max(1, lag))
    size = ranges[0][1]
    terms = np.empty((n - lag, tape.n_params), dtype=np.float64)
    counters = ReplayCounters()
    # one block buffer serves every pass: a buffer freed after each block
    # lets malloc return its pages, and every block faults them back in
    # (algorithm 1 ran 2.5x slower on a 2-vCPU Xeon VM)
    buffer = tape.alloc_buffer(size)
    with tape.bound(buffer):
        if algorithm == 1:
            # pass one keeps the running sum of the outputs as row 0 of a
            # stack over each block, so rows add in path order, as
            # y.mean(axis=0) adds
            stack = np.zeros((size + 1, tape.n_outputs))

            def add_outputs(lo, hi, y):
                stack[1: hi - lo + 1] = y.T
                stack[0] = stack[: hi - lo + 1].sum(axis=0)

            _sweep(tape, params, paths, ranges, buffer, counters, add_outputs)
            lam = stack[0] / n - targets

            def seed(lo, hi, y):
                return np.broadcast_to(lam[:, None], y.shape)
        else:
            seed = _lagged_seeds(algorithm, lag, targets, size)
        _sweep(tape, params, paths, ranges, buffer, counters, seed, terms, lag)

    _check_counts(counters, 2 * n if algorithm == 1 else n, n - lag)
    return GradientEstimate(
        # einsum adds the rows in order, as mean(axis=0) does for more than
        # one column, in about a third of the time
        grad=np.einsum("ij->j", terms) / len(terms),
        variance=_variance_or_nan(terms, algorithm, batch_count),
        n_paths=n,
        f_evals=counters.f_evals,
        r_evals=counters.r_evals,
        algorithm=algorithm,
        millis=(time.perf_counter() - t0) * 1e3,
    )


# -- the estimators -----------------------------------------------------------


def grad_est1(tape: Tape, params, paths: PathBatch, targets, *,
              batch_count: int = 32, n_threads: int = 1) -> GradientEstimate:
    """Two-pass estimator with fixed residual seeds Ey_i - C_i.

    Pass one replays every path forward and keeps only the running sum of
    the outputs; pass two replays the forward values again for the reverse
    sweep, so f_evals = 2 N and r_evals = N.
    """
    return _estimate(1, tape, params, paths, targets, batch_count, n_threads)


def grad_est2(tape: Tape, params, paths: PathBatch, targets, *,
              batch_count: int = 32, n_threads: int = 1) -> GradientEstimate:
    """Single-pass estimator seeded with the previous path's residuals."""
    return _estimate(2, tape, params, paths, targets, batch_count, n_threads)


def grad_est3(tape: Tape, params, paths: PathBatch, targets, *,
              batch_count: int = 32, n_threads: int = 1) -> GradientEstimate:
    """Single-pass estimator seeded with running-mean residuals."""
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
    scalar counterpart.
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


def _replay_cost(tape: Tape, params, draws, width: int) -> tuple:
    """Per-path forward and reverse seconds of ``width``-lane replays.

    Each full ``width``-row slice of ``draws`` is replayed forward, then in
    reverse, through one reused buffer, bound as the estimators bind theirs.
    """
    buf = tape.alloc_buffer(width)
    seeds = np.ones((tape.n_outputs, width)).T  # lane-major, as _sweep's
    n = len(draws) // width * width
    t_f = t_r = 0.0
    with tape.bound(buf):
        for lo in range(0, n, width):
            t0 = time.perf_counter()
            tape.replay_forward(params, draws[lo: lo + width], buffer=buf)
            t1 = time.perf_counter()
            tape.replay_reverse(buf, seeds)
            t_f += t1 - t0
            t_r += time.perf_counter() - t1
    return t_f / n, t_r / n


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

    # per run: scalar forward, scalar reverse, batched forward, batched reverse
    runs = np.array([_replay_cost(tape, params, paths.draws[:_SCALAR_PATHS], 1)
                     + _replay_cost(tape, params, paths.draws, width)
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
