"""The benchmark's calls into the library: its self-test, a traced run and
an untraced run that reports the end-to-end metrics.

All run from a temporary copy of ``perfbench/`` whose ``src`` links to
this checkout, so nothing is written under the tree.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("bench")
    shutil.copytree(ROOT / "perfbench", root / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    return root


def run(root, *args):
    result = subprocess.run([sys.executable, *args], cwd=root,
                            capture_output=True, text=True, timeout=600)
    assert result.returncode == 0, (result.stdout[-2000:]
                                    + result.stderr[-2000:])
    return result.stdout


def test_selftest_passes(bench_root):
    run(bench_root, "perfbench/selftest.py")


def test_traced_batched_run(bench_root):
    stdout = run(bench_root, "perfbench/run.py", "--workload", "batched-w8",
                 "--seed", "1", "--seconds", "0", "--trace", "1")
    result = json.loads(stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    for name in ("estimators.k_f", "estimators.k_r"):
        value = result["metrics"][name]["value"]
        assert math.isfinite(value) and value > 0, name


def test_untraced_run_reports_end_to_end_metrics(bench_root):
    # each run also runs its workload's checks: grad-1e6 on three ops per
    # algorithm at 8192-lane replay blocks (closed-form F/R counts, the
    # gradient within 8 SE, tape == payoffs), calibrate-1e5 on three
    # calibrations (whole-call F/R counts, the fitted-vol tolerance, no
    # non-finite abort)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    for workload in ("batched-w8", "calibrate-1e5", "grad-1e6"):
        stdout = run(bench_root, "perfbench/run.py", "--workload", workload,
                     "--seed", "1", "--seconds", "0", "--trace", "0")
        result = json.loads(stdout.strip().splitlines()[-1])
        assert result["failed"] == 0, workload
        for name in (metric["name"] for metric in declared):
            value = result["metrics"][name]["value"]
            assert math.isfinite(value) and value > 0, (workload, name)
