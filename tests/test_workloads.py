"""Each benchmark workload's warm-up pass yields a result line.

`perfbench/run.py` prints a workload's result only when
`workloads.accuracy` can combine every figure of a pass; an exact-zero
figure that it combines by geometric mean raises instead.  This runs the
small pass that `workloads.setup` runs as its warm-up and checks that no
case raises and that every accuracy metric is finite and above 0.
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import workloads  # noqa: E402


@pytest.mark.parametrize("name", workloads.NAMES)
def test_warm_up_pass_gives_finite_positive_accuracy(name):
    _, results = workloads.run_pass(workloads.build(name, 0, small=True))
    assert [r.error for r in results if r.error is not None] == []
    metrics = workloads.accuracy(results)
    assert set(metrics) == set(workloads.ACCURACY)
    bad = {k: v for k, v in metrics.items() if not (math.isfinite(v) and v > 0)}
    assert bad == {}
