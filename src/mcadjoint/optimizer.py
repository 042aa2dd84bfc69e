"""Minimal L-BFGS minimizer and the volatility-curve calibration driver.

The minimizer is the standard two-loop recursion with a backtracking
Armijo line search and an optional elementwise lower bound enforced by
projection.  The calibration driver feeds it stochastic gradients from one
of the Monte-Carlo adjoint estimators; the path set is regenerated from
(seed, iteration) at the start of every iteration and frozen while that
iteration's line search runs, so each line search sees a coherent
objective.  The previous iteration's path set is released before the next
is drawn, so at most one path set is alive at a time, and each set is held
whole at any size, since the line search reads it again.  On a path set the
loss is evaluated once per point: the gradient call that follows an
accepted line search reuses the accepted probe's value, and the estimator
computes no variance, which the driver never reads.  The module also
holds the package's one CSV writer and reader: traces and CLI tables.
"""

from __future__ import annotations

import csv
import time
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from . import estimators as est
from . import model as mdl
from . import rng_paths as rng
from .tape import ReplayCounters

__all__ = [
    "LbfgsConfig",
    "TraceRecord",
    "CalibrationTrace",
    "lbfgs_minimize",
    "calibrate",
    "write_trace_csv",
    "read_trace_csv",
]

_ESTIMATORS = {1: est.grad_est1, 2: est.grad_est2, 3: est.grad_est3}

_MEMORY = 8            # curvature pairs kept
_ARMIJO_C1 = 1e-4      # Armijo sufficient-decrease constant
_MAX_BACKTRACKS = 20   # step halvings before the line search gives up


@dataclass
class LbfgsConfig:
    max_iter: int = 100
    grad_norm_tol: float = 1e-8
    param_floor: float | None = None
    max_step: float | None = None   # cap on the per-iteration step, inf-norm

    def __post_init__(self):
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {self.max_iter}")
        if self.max_step is not None and self.max_step <= 0:
            raise ValueError("max_step must be positive")


# the settings of ``calibrate`` and the CLI's calibrate command.  A capped
# step keeps iterates out of the near-zero-vol region, where out-of-the-money
# payoffs (and their adjoints) vanish on almost every path and the sampled
# gradient goes dead.
_CALIBRATION = LbfgsConfig(max_iter=40, grad_norm_tol=1e-3, param_floor=1e-4,
                           max_step=0.1)


@dataclass
class TraceRecord:
    iteration: int
    loss: float
    grad_norm: float
    params: np.ndarray
    f_evals: int
    r_evals: int
    millis: float


@dataclass
class CalibrationTrace:
    records: list = field(default_factory=list)
    status: str = "running"

    def append(self, rec: TraceRecord) -> None:
        if self.records and rec.iteration <= self.records[-1].iteration:
            raise ValueError("trace iterations must be strictly increasing")
        self.records.append(rec)

    def __len__(self) -> int:
        return len(self.records)

    @property
    def losses(self) -> np.ndarray:
        return np.array([r.loss for r in self.records])


def _project(x, floor):
    return x if floor is None else np.maximum(x, floor)


def _finite(f, g) -> bool:
    return bool(np.isfinite(f) and np.all(np.isfinite(g)))


def _direction(g, history, max_step):
    """Two-loop recursion over ``(s, y, rho)`` pairs, oldest first; returns
    the search direction, capped at max_step in the inf-norm, and its slope."""
    q = g.copy()
    alphas = []
    for s, y, rho in reversed(history):
        a = rho * (s @ q)
        alphas.append(a)
        q -= a * y
    if history:
        s, y, _ = history[-1]
        q *= (s @ y) / (y @ y)
    else:
        # no curvature yet: cap the first trial step at unit length
        q /= max(1.0, float(np.linalg.norm(q)))
    for (s, y, rho), a in zip(history, reversed(alphas)):
        q += (a - rho * (y @ q)) * s
    d = -q

    slope = float(g @ d)
    if slope >= 0:  # not a descent direction; fall back to steepest descent
        d = -g
        slope = float(g @ d)
    if max_step is not None:
        longest = float(np.max(np.abs(d)))
        if longest > max_step:
            d *= max_step / longest
            slope = float(g @ d)
    return d, slope


def lbfgs_minimize(fg, x0, config: LbfgsConfig = None, *, value_fn=None,
                   cost_tracker=None, step_setup=None):
    """Minimize a callback returning ``(value, gradient)``.

    value_fn, when given, supplies cheap value-only evaluations for line
    search probes.  step_setup(k), when given, is called at the start of
    every iteration and the objective is re-evaluated afterwards (for
    stochastic objectives whose sample changes per iteration).  The trace's
    F/R counts are read from cost_tracker, a :class:`ReplayCounters` the
    callbacks update themselves (by default a fresh one, so they read 0).
    Returns ``(x, trace)``: x is the point of the last record, and
    ``trace.status`` says how iteration ended (``non_finite_abort`` on a
    non-finite value or gradient).
    """
    config = config or LbfgsConfig()
    x = _project(np.asarray(x0, dtype=np.float64).copy(), config.param_floor)
    counter = cost_tracker if cost_tracker is not None else ReplayCounters()
    value = value_fn or (lambda z: fg(z)[0])

    def eval_fg(z):
        f, g = fg(z)
        return float(f), np.asarray(g, dtype=np.float64)

    trace = CalibrationTrace()
    t_start = time.perf_counter()

    def log_state(k):
        trace.append(TraceRecord(k, f, float(np.linalg.norm(g)), x.copy(),
                                 counter.f_evals, counter.r_evals,
                                 (time.perf_counter() - t_start) * 1e3))

    if step_setup is not None:
        step_setup(0)
    f, g = eval_fg(x)
    history = deque(maxlen=_MEMORY)
    trace.status = "max_iter"

    for k in range(config.max_iter + 1):
        if k:
            d, slope = _direction(g, history, config.max_step)
            # backtracking Armijo line search on value-only probes
            t = 1.0
            for _ in range(_MAX_BACKTRACKS + 1):
                x_new = _project(x + t * d, config.param_floor)
                f_new = float(value(x_new))
                if np.isfinite(f_new) and f_new <= f + _ARMIJO_C1 * t * slope:
                    break
                t *= 0.5
            else:
                trace.status = "line_search_failure"
                break

            f_new, g_new = eval_fg(x_new)
            if not _finite(f_new, g_new):
                trace.status = "non_finite_abort"
                break
            s, y = x_new - x, g_new - g
            sy = float(s @ y)
            if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
                history.append((s, y, 1.0 / sy))

            x, f, g = x_new, f_new, g_new
            if step_setup is not None and k < config.max_iter:
                # fresh sample for the next iteration: re-anchor value and gradient
                step_setup(k)
                f, g = eval_fg(x)
        log_state(k)
        if not _finite(f, g):
            trace.status = "non_finite_abort"
            break
        if np.linalg.norm(g) <= config.grad_norm_tol:
            trace.status = "converged"
            break

    return x, trace


def _step_seed(seed: int, iteration: int) -> int:
    ss = np.random.SeedSequence(entropy=[int(seed), int(iteration)])
    return int(ss.generate_state(1, np.uint64)[0])


def calibrate(spec: mdl.MarketSpec, curve0: mdl.VolCurve, algorithm: int,
              n_mc: int, seed: int, config: LbfgsConfig = None, *,
              generator_id: str = "philox"):
    """Fit the knot vols to the observed prices with a chosen estimator.

    Each iteration draws a fresh path set from (seed, iteration), evaluates
    the Monte-Carlo loss and the algorithm's gradient estimate on it, and
    keeps that set frozen, and whole at any n_mc, for the whole line
    search; the previous set is released before the next is drawn.  The
    estimator runs with ``batch_count=0``: only its gradient is read.  The
    last loss value is kept with the bytes of its point until the next set
    is drawn, so the gradient call after an accepted line search reuses the
    accepted probe's value instead of evaluating the loss again.  ``config``
    defaults to the module's ``_CALIBRATION`` settings, which also fill an
    unset ``param_floor`` or ``max_step``.  Returns
    ``(calibrated_curve, trace)``; the trace carries exact cumulative
    path-level forward/reverse counts of the replays and loss forwards
    actually run: n_mc forwards per loss value computed, plus each
    estimator call's (F, R).
    """
    if algorithm not in _ESTIMATORS:
        raise ValueError(f"algorithm must be 1, 2 or 3, got {algorithm}")
    rng._check_integer("seed", seed)
    rng._check_integer("n_mc", n_mc)
    if n_mc < 2:
        raise ValueError(f"n_mc must be >= 2 paths per iteration, got {n_mc}")
    config = config or _CALIBRATION
    unset = [k for k in ("param_floor", "max_step") if getattr(config, k) is None]
    config = replace(config, **{k: getattr(_CALIBRATION, k) for k in unset})
    tape = mdl.build_model_tape(spec, curve0)
    targets = spec.prices
    grad_fn = _ESTIMATORS[algorithm]
    cost = ReplayCounters()
    # the path set, and the last loss value on it with its point's bytes
    # (never keyed on id(): a freed array's address is reused)
    state = {"paths": None, "last": (None, None)}

    def step_setup(iteration):
        # let the last set go before drawing the next
        state["paths"], state["last"] = None, (None, None)
        # held whole at any n_mc: the line search reads it about four times
        state["paths"] = rng._unfilled(_step_seed(seed, iteration),
                                       generator_id, 0, n_mc, tape.n_inputs,
                                       whole=True)

    def value_only(x):
        key = x.tobytes()
        if state["last"][0] != key:
            lv = mdl.loss(spec, curve0.with_vols(x), state["paths"])
            cost.f_evals += n_mc
            state["last"] = key, lv.g
        return state["last"][1]

    def fg(x):
        g_est = grad_fn(tape, x, state["paths"], targets, batch_count=0)
        cost.f_evals += g_est.f_evals
        cost.r_evals += g_est.r_evals
        return value_only(x), g_est.grad

    x_final, trace = lbfgs_minimize(fg, curve0.knot_vols, config,
                                    value_fn=value_only, cost_tracker=cost,
                                    step_setup=step_setup)
    return curve0.with_vols(x_final), trace


# -- CSV tables ---------------------------------------------------------------


def _write_csv(path, header, rows):
    """A header line, then one line per row; floats as repr, so they read
    back bit for bit."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                        else v for v in row])
    return path


def read_csv_table(path):
    """Re-read any CSV the package writes: (header, rows of floats)."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, rows


def write_trace_csv(path, trace: CalibrationTrace) -> None:
    """Columns: iter, loss, grad_norm, params..., f_evals, r_evals, millis."""
    if not trace.records:
        raise ValueError("cannot serialize an empty trace")
    n_params = trace.records[0].params.size
    header = (["iter", "loss", "grad_norm"]
              + [f"param_{i + 1}" for i in range(n_params)]
              + ["f_evals", "r_evals", "millis"])
    _write_csv(path, header, ([r.iteration, float(r.loss), float(r.grad_norm),
                               *r.params.astype(float), r.f_evals, r.r_evals,
                               float(r.millis)] for r in trace.records))


def read_trace_csv(path) -> CalibrationTrace:
    header, rows = read_csv_table(path)
    n_params = len(header) - 6
    trace = CalibrationTrace()
    for row in rows:
        trace.append(TraceRecord(
            iteration=int(row[0]), loss=row[1], grad_norm=row[2],
            params=np.array(row[3:3 + n_params]),
            f_evals=int(row[3 + n_params]), r_evals=int(row[4 + n_params]),
            millis=row[5 + n_params]))
    trace.status = "loaded"
    return trace
