"""The pair tally of tools/bench_pairs.py on synthetic runs."""

import importlib.util
import json
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

DECLARED = [{"name": "t", "unit": "s", "better": "lower", "bound": 0.25}]


def run(pair, side, t, failed=0):
    if t is None:  # the run crashed: no result line
        return {"pair": pair, "side": side, "failed": None}
    return {"pair": pair, "side": side, "failed": failed, "attempted": 10,
            "metrics": {"t": t}}


def pairs_of(parent, change, change_failed=()):
    """Runs of pairs 0, 1, ...; ``change_failed`` maps a pair to failed ops."""
    runs = []
    for i, (p, c) in enumerate(zip(parent, change)):
        runs += [run(i, "parent", p),
                 run(i, "change", c, dict(change_failed).get(i, 0))]
    return runs


PARENT = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]


def test_lower_is_better_with_a_tie():
    change = [t - 0.2 for t in PARENT[:9]] + [PARENT[9]]
    summary = bench_pairs.summarise(pairs_of(PARENT, change), DECLARED)
    t = summary["metrics"]["t"]
    assert (t["wins"], t["losses"], t["ties"], t["pairs"]) == (9, 0, 1, 10)
    assert t["gain_rule_met"]
    assert summary["crashed"] == {"parent": 0, "change": 0}


@pytest.mark.parametrize("n_pairs", [5, 10])
def test_crashed_change_run_is_not_won(n_pairs):
    # every completed pair is won; one change run crashed
    change = [t - 0.2 for t in PARENT[:n_pairs - 1]] + [None]
    summary = bench_pairs.summarise(pairs_of(PARENT[:n_pairs], change),
                                    DECLARED)
    t = summary["metrics"]["t"]
    assert (t["wins"], t["pairs"], t["complete_pairs"]) == (
        n_pairs - 1, n_pairs, n_pairs - 1)
    assert t["gain_rule_met"] == (n_pairs - 1 >= 0.9 * n_pairs)
    assert summary["crashed"] == {"parent": 0, "change": 1}


def test_more_failed_ops_than_parent_is_no_gain():
    change = [t - 0.2 for t in PARENT]
    summary = bench_pairs.summarise(pairs_of(PARENT, change, {3: 1}),
                                    DECLARED)
    t = summary["metrics"]["t"]
    assert t["wins"] == 10 and not t["gain_rule_met"]
    assert summary["fail_share"] == {"parent": 0.0, "change": 1 / 100}


@pytest.mark.parametrize("loss, within", [(0.10, True), (0.30, False)])
def test_bound_rule(loss, within):
    # a uniform loss against the 0.25 bound, parent spread far inside it
    change = [v * (1 + loss) for v in PARENT]
    summary = bench_pairs.summarise(pairs_of(PARENT, change), DECLARED)
    t = summary["metrics"]["t"]
    assert t["within_bound"] == within
    assert not t["unresolved"] and not t["gain_rule_met"]


def test_parent_spread_wider_than_bound_is_unresolved():
    parent = [0.5, 1.5, 0.6, 1.4, 1.0, 0.7, 1.3, 0.8, 1.2, 1.0]
    t = bench_pairs.summarise(pairs_of(parent, parent[::-1]),
                              DECLARED)["metrics"]["t"]
    spread = t["parent"]["q3"] - t["parent"]["q1"]
    assert spread > 0.25 * t["parent"]["median"]
    assert t["within_bound"] and t["unresolved"]
    # the same spread resolves when every change run beats every parent run
    change = [v * 0.3 for v in parent]
    summary = bench_pairs.summarise(pairs_of(parent, change), DECLARED)
    t = summary["metrics"]["t"]
    assert not t["unresolved"]


STUB_RUN = '''import json
print(json.dumps({"env": {"nproc": 2}, "workload": "w", "trace": 0,
                  "import_s": 0.31, "setup_repeats_s": [0.03, 0.02, 0.025],
                  "ops": []}))
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": {"setup_s": {"value": 0.335, "unit": "s"}}}))
'''


def test_run_once_keeps_import_and_setup_times(tmp_path):
    # a checkout whose benchmark prints the env line and the result line
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(STUB_RUN)
    run = bench_pairs.run_once(tmp_path, "w", 1, 0.0)
    assert run == {"returncode": 0, "failed": 0, "attempted": 3,
                   "env": {"nproc": 2}, "import_s": 0.31,
                   "setup_repeats_s": [0.03, 0.02, 0.025],
                   "metrics": {"setup_s": 0.335}}


TRACED_STUB_RUN = '''import json, sys
trace = int(sys.argv[sys.argv.index("--trace") + 1])
print(json.dumps({"env": {"nproc": 2}, "workload": "w", "trace": trace,
                  "import_s": 0.3, "setup_repeats_s": [0.02], "ops": []}))
metrics = ({"estimators.grad_est1.self_s": {"value": %r, "unit": "s"}}
           if trace else {"t": {"value": %r, "unit": "s"}})
print(json.dumps({"correct": True, "attempted": 3, "failed": 0,
                  "metrics": metrics}))
'''


def test_per_layer_metrics_from_one_traced_run_per_side(tmp_path):
    # each stub checkout reports its own end-to-end and per-layer numbers
    for side, self_s, t in (("parent", 0.5, 1.0), ("change", 0.4, 0.9)):
        (tmp_path / side / "perfbench").mkdir(parents=True)
        (tmp_path / side / "perfbench" / "run.py").write_text(
            TRACED_STUB_RUN % (self_s, t))
    (tmp_path / "change" / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": DECLARED}))
    out = tmp_path / "bench.json"
    assert bench_pairs.main([
        "--parent", str(tmp_path / "parent"),
        "--change", str(tmp_path / "change"), "--workloads", "w",
        "--pairs", "2", "--seconds", "0", "--out", str(out)]) == 0
    w = json.loads(out.read_text())["workloads"]["w"]
    assert len(w["runs"]) == 4 and w["metrics"]["t"]["wins"] == 2
    for side, self_s in (("parent", 0.5), ("change", 0.4)):
        traced = w["per_layer"][side]
        assert traced["failed"] == 0 and traced["seed"] == 1
        assert traced["metrics"] == {"estimators.grad_est1.self_s": self_s}
