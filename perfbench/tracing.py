"""In-memory spans around the library's public calls, for the traced run.

A span is ``[name, start, end, parent, op, size, info]``: ``parent`` is the
index of the enclosing span (-1 for a root), ``op`` the benchmark op the span
belongs to (-1 for set-up), ``size`` the number of lanes or paths the call
handled and ``info`` a dict of per-call results (evaluation counts, the
calibration trace summary).  Spans stay in a list until the run ends.

Nothing here is active in the untraced run: :func:`instrument` patches the
library's entry points only inside its ``with`` block and restores them on
exit.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, OP, SIZE, INFO = range(7)


class Recorder:
    """Span list plus the stack of open spans; single-threaded by design."""

    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []

    def wrap(self, name, fn, size=None, post=None):
        """``fn`` recorded as span ``name``; ``size(args)`` gives its lanes."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                   self.op, size(args) if size else 0, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                self._stack.pop()
            if post is not None:
                rec[INFO] = post(args, result)
            return result

        return traced

    @contextmanager
    def root(self, name, op):
        """A span opened by the benchmark itself (set-up or one timed op)."""
        self.op = op
        rec = [name, perf_counter(), 0.0, -1, op, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            self._stack.pop()
            self.op = -1

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op",
                                  "size", "info"], "spans": self.spans}, fh)


def _estimate_counts(args, est):
    return {"f": est.f_evals, "r": est.r_evals, "alg": est.algorithm}


def _calibration_summary(args, result):
    _, trace = result
    last = trace.records[-1]
    return {"alg": args[2], "iterations": len(trace) - 1,
            "status": trace.status, "f": last.f_evals, "r": last.r_evals}


@contextmanager
def instrument(rec: Recorder, mc):
    """Record spans around every layer entry point for the ``with`` body.

    ``calibrate`` reaches its estimator through the optimizer's algorithm
    table and the model and path layers through module attributes, so those
    are the names patched; the tape is patched on its class.
    """
    est, mdl, opt, rng, tape = (mc.estimators, mc.model, mc.optimizer,
                                mc.rng_paths, mc.tape)
    patches = [
        (rng, "generate", "rng_paths.generate", lambda a: a[1], None),
        (tape.Tape, "replay_forward", "tape.replay_forward",
         lambda a: len(a[2]), None),
        (tape.Tape, "replay_reverse", "tape.replay_reverse",
         lambda a: a[1].shape[1], None),
        (mdl, "loss", "model.loss", lambda a: a[2].n_paths, None),
        (mdl, "build_model_tape", "model.build_model_tape", None, None),
        (est, "grad_est1", "estimators.grad_est1",
         lambda a: a[2].n_paths, _estimate_counts),
        (est, "grad_est2", "estimators.grad_est2",
         lambda a: a[2].n_paths, _estimate_counts),
        (est, "grad_est3", "estimators.grad_est3",
         lambda a: a[2].n_paths, _estimate_counts),
        (est, "grad_est_batched", "estimators.grad_est_batched",
         lambda a: a[3].n_paths, _estimate_counts),
        (opt, "calibrate", "optimizer.calibrate", lambda a: a[3],
         _calibration_summary),
    ]
    saved = []
    for owner, attr, name, size, post in patches:
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, rec.wrap(name, original, size, post))
    table = opt._ESTIMATORS
    saved_table = dict(table)
    for alg in table:
        table[alg] = getattr(est, f"grad_est{alg}")
    try:
        yield rec
    finally:
        table.update(saved_table)
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def span_cost_s(repeats: int = 20000) -> float:
    """Measured cost of recording one span, from wrapping a no-op."""
    def noop(*args):
        return None

    traced = Recorder().wrap("noop", noop, size=lambda a: 0)
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        for _ in range(repeats):
            noop(1)
        t1 = perf_counter()
        for _ in range(repeats):
            traced(1)
        t2 = perf_counter()
        best = min(best, ((t2 - t1) - (t1 - t0)) / repeats)
    return max(best, 0.0)


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover.

    Children of one span never overlap: the workloads run one thread.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]
