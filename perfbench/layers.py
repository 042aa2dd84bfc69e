"""Per-layer metrics of a traced run, computed from its spans.

All spans of the run count: set-up (three repeats, each warming every
layer) and the timed ops.  Layer self times plus ``bench.residual_s`` (time
in the benchmark's own code between calls) add up to ``bench.wall_s``.
"""

from __future__ import annotations

from collections import defaultdict
from statistics import median

from tracing import END, INFO, NAME, OP, PARENT, SIZE, START, self_times

# operands read per lane by each tape node, for the computed byte count
ARITY = {"const": 0, "param": 0, "input": 0, "add": 2, "sub": 2, "mul": 2,
         "div": 2, "neg": 1, "exp": 1, "log": 1, "sqrt": 1, "pow-const": 1,
         "max-with-zero": 1}
ESTIMATORS = ("grad_est1", "grad_est2", "grad_est3", "grad_est_batched")


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer_metrics(spans, tape, k_report, span_cost_s, fail_frac) -> dict:
    self_s = self_times(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    own = defaultdict(float)
    size = defaultdict(int)
    for s, own_s in zip(spans, self_s):
        calls[s[NAME]] += 1
        total[s[NAME]] += s[END] - s[START]
        own[s[NAME]] += own_s
        size[s[NAME]] += s[SIZE]

    m = {}

    def put(name, value, unit):
        m[name] = {"value": float(value), "unit": unit}

    put("rng_paths.generate.calls", calls["rng_paths.generate"], "count")
    put("rng_paths.generate.s", total["rng_paths.generate"], "s")
    put("rng_paths.paths_per_s",
        _ratio(size["rng_paths.generate"], total["rng_paths.generate"]),
        "paths/s")

    operand_bytes = 8 * sum(ARITY[tape.op_name(i)] for i in range(tape.n_nodes))
    ns_per_lane = {}
    for sweep in ("replay_forward", "replay_reverse"):
        key = f"tape.{sweep}"
        ns_per_lane[sweep] = 1e9 * _ratio(total[key], size[key])
        put(f"{key}.calls", calls[key], "count")
        put(f"{key}.lanes", size[key], "count")
        put(f"{key}.s", total[key], "s")
        put(f"{key}.ns_per_lane", ns_per_lane[sweep], "ns")
        put(f"{key}.us_per_call", 1e6 * _ratio(total[key], calls[key]), "us")
        put(f"{key}.bytes_computed", operand_bytes * size[key], "B")

    f, r = ns_per_lane["replay_forward"], ns_per_lane["replay_reverse"]
    put("cost.r_over_f", _ratio(r, f), "ratio")
    put("cost.t1_over_t2_model", _ratio(2 * f + r, f + r), "ratio")
    est_s = {1: [], 2: []}
    f_evals = r_evals = 0
    for s in spans:
        if s[NAME].startswith("estimators.") and s[INFO]:
            f_evals += s[INFO]["f"]
            r_evals += s[INFO]["r"]
            if s[OP] >= 0 and s[INFO]["alg"] in est_s:
                est_s[s[INFO]["alg"]].append(s[END] - s[START])
    put("cost.t1_over_t2_measured",
        _ratio(median(est_s[1]), median(est_s[2])) if all(est_s.values())
        else 0.0, "ratio")

    for name in ESTIMATORS:
        put(f"estimators.{name}.self_s", own[f"estimators.{name}"], "s")
    put("estimators.f_evals", f_evals, "count")
    put("estimators.r_evals", r_evals, "count")
    put("estimators.r_per_f", _ratio(r_evals, f_evals), "ratio")
    put("estimators.k_f", k_report.k_f, "ratio")
    put("estimators.k_r", k_report.k_r, "ratio")

    put("model.loss.calls", calls["model.loss"], "count")
    put("model.loss.s", total["model.loss"], "s")
    put("model.build_model_tape.s", total["model.build_model_tape"], "s")

    # calibrate reaches the estimator once per gradient call and the loss
    # once per gradient call and once per line-search probe
    child_calls = defaultdict(int)
    for s in spans:
        parent = s[PARENT]
        if parent >= 0 and spans[parent][NAME] == "optimizer.calibrate":
            kind = "fg" if s[NAME].startswith("estimators.") else s[NAME]
            child_calls[kind] += 1
    cal = [s[INFO] for s in spans
           if s[NAME] == "optimizer.calibrate" and s[INFO]]
    iterations = sum(c["iterations"] for c in cal)
    line_searches = iterations + sum(c["status"] == "line_search_failure"
                                     for c in cal)
    value_calls = child_calls["model.loss"] - child_calls["fg"]
    put("optimizer.iterations", iterations, "count")
    put("optimizer.fg_calls", child_calls["fg"], "count")
    put("optimizer.value_calls", value_calls, "count")
    put("optimizer.backtracks", value_calls - line_searches, "count")
    put("optimizer.f_evals", sum(c["f"] for c in cal), "count")
    put("optimizer.r_evals", sum(c["r"] for c in cal), "count")
    put("optimizer.self_s", own["optimizer.calibrate"], "s")

    roots = [i for i, s in enumerate(spans) if s[PARENT] < 0]
    wall = sum(spans[i][END] - spans[i][START] for i in roots)
    put("bench.wall_s", wall, "s")
    put("bench.residual_s", sum(self_s[i] for i in roots), "s")
    put("trace.spans", len(spans), "count")
    put("trace.overhead_frac", _ratio(span_cost_s * len(spans), wall), "ratio")
    put("fail_frac", fail_frac, "ratio")
    return m
