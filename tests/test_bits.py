"""tools/bits.py: the item comparison, and a small set run end to end."""

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location("bits", ROOT / "tools" / "bits.py")
bits = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bits)


def test_working_tree_against_itself_is_same(capsys):
    # no digest is pinned: last bits move between hosts and installs
    assert bits.main(["--parent", str(ROOT), "--change", str(ROOT),
                      "--small"]) == 0
    lines = capsys.readouterr().out.splitlines()
    results = {line.rsplit(maxsplit=1)[0]: line.rsplit(maxsplit=1)[1]
               for line in lines[2:-1]}
    assert set(results.values()) == {"same"}
    kinds = {name.split()[0] for name in results}
    assert kinds == {"calibrate", "loss", "grad_est1", "grad_est2",
                     "grad_est3", "grad_est_batched", "cli", "generate_rows"}
    # one draw item per generator, 16 386 rows from start row 16 383
    assert {"philox", "pcg64"} == {name.split()[1] for name in results
                                   if name.startswith("generate_rows")}
    # the widest tape: the 96-quote surface runs one estimate end to end
    assert {"grad_est3 surface n 2000",
            "grad_est_batched alg 3 width 8 surface n 2000"} <= set(results)
    # estimates on more paths than a batch holds: algorithm 1 reads its
    # batch twice, drawing it each time
    assert {"grad_est1 n 150001", "grad_est_batched alg 1 width 8 n 150001",
            "grad_est3 n 150001",
            "grad_est_batched alg 3 width 8 n 150001"} <= set(results)
    assert lines[-1] == f"0 of {len(results)} items differ"


@pytest.mark.parametrize("a, b, expected", [
    ([1.0, "iter", 2], [1.0, "iter", 2], (True, 0.0)),
    ([math.nan], [math.nan], (True, 0.0)),
    ([4.0, 1.0], [4.004, 1.0], (False, pytest.approx(0.004 / 4.004))),
    ([0.0], [-0.0], (False, 0.0)),            # equal, but not in their bits
    (["5"], ["5.0"], (False, 0.0)),           # the same number, other text
    (["1.5"], ["1.5000015"], (False, pytest.approx(1e-6, rel=1e-5))),
    ([math.nan], [1.0], (False, math.inf)),
    (["iter"], ["step"], (False, math.inf)),
    ([1.0], [1.0, 2.0], (False, math.inf)),
], ids=["equal", "nan", "relative", "signed-zero", "text-format",
        "text-number", "nan-vs-number", "text", "length"])
def test_compare(a, b, expected):
    assert bits.compare(a, b) == expected
