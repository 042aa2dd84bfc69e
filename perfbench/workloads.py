"""The three benchmark workloads: their set-up, op, checks and probes.

Every op cycles the estimator algorithm 1, 2, 3 and draws its own path set
from (workload seed, op index); all estimator calls use one thread.  Why
each workload exists is in README.md.
"""

from __future__ import annotations

import time
import tracemalloc
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

import checks

ALGS = (1, 2, 3)
START_VOL, REFERENCE_VOL = 0.4, 0.2
# Batch means over 64-path batches (n // 64 batches) for the variance of the
# lagged estimators: long enough to hold the lag-1 (block) or lag-8 (width-8)
# dependence, and with far more degrees of freedom than the default 32
# batches, whose variance estimate alone moves rel_se by ~10 % between seeds
BATCH_PATHS = 64
WIDTH = 8
CALIBRATION_ITERATIONS = 25

# purposes of the seed streams derived from the workload seed
OP, PROBE, CHECK, WARM = range(4)


def derive_seed(seed: int, purpose: int, index: int) -> int:
    ss = np.random.SeedSequence([int(seed), purpose, index])
    return int(ss.generate_state(1, np.uint64)[0])


class Fixture(NamedTuple):
    spec: object
    curve: object
    tape: object
    x0: np.ndarray
    targets: np.ndarray
    grad_true: np.ndarray
    seed_noise: np.ndarray


@dataclass(frozen=True)
class Workload:
    name: str
    n_paths: int             # paths per estimator call (per iteration for calibrate)
    warm_paths: int          # paths per warm-up estimator call
    min_rounds: int          # ops per algorithm that always run
    op: Callable             # (mc, fx, alg, seed) -> (paths drawn, result)
    check: Callable          # (mc, fx, alg, result) -> problems
    memory_op: Callable      # the op whose peak memory is peak_mb
    se_probes: int = 0       # estimator calls pooled for rel_se; 0: the ops


def _estimator(mc, alg):
    # looked up per call so the traced run's wrappers are the ones called
    return getattr(mc.estimators, f"grad_est{alg}")


def _calibration_config(mc, max_iter):
    return mc.optimizer.LbfgsConfig(max_iter=max_iter, grad_norm_tol=1e-3,
                                    param_floor=1e-4, max_step=0.1)


def _grad_op(n):
    def op(mc, fx, alg, seed):
        paths = mc.rng_paths.generate(seed, n, fx.tape.n_inputs)
        return n, _estimator(mc, alg)(fx.tape, fx.x0, paths, fx.targets,
                                      batch_count=n // BATCH_PATHS,
                                      n_threads=1)
    return op


def _batched_op(n):
    def op(mc, fx, alg, seed):
        paths = mc.rng_paths.generate(seed, n, fx.tape.n_inputs)
        return n, mc.estimators.grad_est_batched(
            alg, fx.tape, fx.x0, paths, fx.targets, WIDTH,
            batch_count=n // BATCH_PATHS)
    return op


def _calibrate_op(n, max_iter=CALIBRATION_ITERATIONS):
    def op(mc, fx, alg, seed):
        curve, trace = mc.optimizer.calibrate(
            fx.spec, fx.curve, alg, n, seed, _calibration_config(mc, max_iter))
        # one fresh path set per iteration started, at most max_iter
        return n * min(len(trace), max_iter), (curve, trace)
    return op


def _check_gradient(n, width=None):
    def check(mc, fx, alg, est):
        return checks.gradient_problems(
            est, fx.grad_true, fx.seed_noise,
            *checks.expected_counts(alg, n, width))
    return check


def _check_calibration(n):
    def check(mc, fx, alg, result):
        curve, trace = result
        return checks.calibration_problems(curve, trace, alg, n, REFERENCE_VOL)
    return check


WORKLOADS = {
    "grad-1e6": Workload("grad-1e6", 10**6, 2 * 65536, 3,
                         _grad_op(10**6), _check_gradient(10**6),
                         _grad_op(10**6)),
    # the memory op stops after 2 iterations: every iteration allocates the
    # same arrays, and the second already overlaps a fresh path set with the
    # previous one.  A calibration moves its evaluation point, so rel_se
    # pools 6 estimator calls at the start vols instead of the ops
    "calibrate-1e5": Workload("calibrate-1e5", 10**5, 4096, 1,
                              _calibrate_op(10**5), _check_calibration(10**5),
                              _calibrate_op(10**5, 2), se_probes=6),
    "batched-w8": Workload("batched-w8", 5 * 10**4, 4096, 3,
                           _batched_op(5 * 10**4),
                           _check_gradient(5 * 10**4, WIDTH),
                           _batched_op(5 * 10**4)),
}


def set_up(mc, wl: Workload, seed: int) -> Fixture:
    """Fixture, recorded tape, and one warm-up call into every layer.

    The warm-up draws one full-size path set (the first draw of that size
    page-faults its memory) and calls every estimator, the loss and a
    one-iteration calibration on a few paths, so first-call costs land in
    set-up rather than in the first timed op.
    """
    spec, curve = mc.model.default_fixture(START_VOL, REFERENCE_VOL)
    tape = mc.model.build_model_tape(spec, curve)
    fx = Fixture(spec, curve, tape, curve.knot_vols, spec.prices,
                 checks.closed_form_gradient(mc.model, spec, curve.knot_vols),
                 checks.seed_noise_variance(mc.model, spec, curve.knot_vols))
    warm_seed = derive_seed(seed, WARM, 0)
    full = mc.rng_paths.generate(warm_seed, wl.n_paths, tape.n_inputs)
    small = mc.PathBatch(full.draws[: wl.warm_paths], warm_seed,
                         full.generator_id)
    tiny = mc.PathBatch(full.draws[:512], warm_seed, full.generator_id)
    mc.model.loss(spec, curve, small)
    for alg in ALGS:
        _estimator(mc, alg)(tape, fx.x0, small, fx.targets, n_threads=1)
        mc.estimators.grad_est_batched(alg, tape, fx.x0, tiny, fx.targets,
                                       WIDTH)
    mc.optimizer.calibrate(spec, curve, 3, 4096, warm_seed,
                           _calibration_config(mc, 1))
    return fx


def rel_se(mc, fx, wl: Workload, alg: int, estimates: list, seed: int,
           tally: checks.Tally) -> float:
    """rel_se of algorithm ``alg`` at the start vols.

    Pools ``estimates`` (the first ``min_rounds`` ops of that algorithm), or
    with ``se_probes`` that many checked estimator calls of the workload's
    path count.
    """
    if wl.se_probes:
        estimates = []
        for i in range(wl.se_probes):
            paths = mc.rng_paths.generate(
                derive_seed(seed, PROBE, 10 * alg + i), wl.n_paths,
                fx.tape.n_inputs)
            est = _estimator(mc, alg)(fx.tape, fx.x0, paths, fx.targets,
                                      batch_count=wl.n_paths // BATCH_PATHS,
                                      n_threads=1)
            tally.record(f"rel_se probe {i} (alg {alg})",
                         checks.gradient_problems(
                             est, fx.grad_true, fx.seed_noise,
                             *checks.expected_counts(alg, wl.n_paths)))
            estimates.append(est)
    return checks.relative_se(estimates)


def tape_matches_payoffs(mc, fx, seed: int) -> list[str]:
    """Tape replay and the direct payoff code agree bit for bit on a block."""
    draws = mc.rng_paths.generate(derive_seed(seed, CHECK, 0), 65536,
                                  fx.tape.n_inputs).draws
    out, _ = fx.tape.replay_forward(fx.x0, draws)
    if np.array_equal(out, mc.model.payoffs(fx.spec, fx.curve, draws)):
        return []
    return ["tape outputs differ from model.payoffs"]


def timed_ops(mc, fx, wl: Workload, seed: int, seconds: float,
              tally: checks.Tally, rec=None):
    """Ops in algorithm order 1, 2, 3, 1, ... until the next would end
    after ``seconds``; the first ``min_rounds`` ops of each algorithm always
    run.

    Returns ``(ops, first)``: (alg, seconds, paths) per completed op, and
    the results of each algorithm's first ``min_rounds`` ops.  With a
    recorder, each op is a root span.
    """
    ops, last = [], {}
    first = {alg: [] for alg in ALGS}
    start = time.perf_counter()
    i = 0
    while True:
        alg = ALGS[i % len(ALGS)]
        if i >= wl.min_rounds * len(ALGS) and \
                time.perf_counter() - start + last.get(alg, 0.0) > seconds:
            break
        what = f"op {i} (alg {alg})"
        try:
            with rec.root("bench.op", i) if rec else nullcontext():
                t0 = time.perf_counter()
                paths, result = wl.op(mc, fx, alg, derive_seed(seed, OP, i))
                dt = time.perf_counter() - t0
        except Exception as exc:  # counted as a failed op; the run goes on
            tally.crashed(what, exc)
        else:
            tally.record(what, wl.check(mc, fx, alg, result))
            ops.append((alg, dt, paths))
            if i < wl.min_rounds * len(ALGS):
                first[alg].append(result)
            last[alg] = dt
        i += 1
    return ops, first


def peak_mb(mc, fx, wl: Workload, seed: int) -> float:
    """Peak traced memory of an algorithm-1 memory op on op 0's seed, in MB.

    Algorithm 1 holds the most at once: draws, outputs and per-path terms.
    """
    tracemalloc.start()
    try:
        wl.memory_op(mc, fx, 1, derive_seed(seed, OP, 0))
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()
