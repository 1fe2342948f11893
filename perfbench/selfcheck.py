"""The benchmark's own checks.  Run with

    python -m pytest -q perfbench/selfcheck.py

They hold BENCHMARK.json to the runner, the traced run to its bypass table
(functions a workload must not reach get 0 calls), and the work counters to
exact repeats across processes.  About two minutes on one core.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads
from shellwrinkle import characteristics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HERRINGBONE_LAYERS = [p for p, *_ in tracing.LAYERS if p.startswith("herringbone.")]


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True,
    )
    lines = proc.stdout.strip().split("\n")
    return json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


@pytest.fixture(scope="module")
def traced_defect_neg():
    cases = workloads.setup("defect-neg", 0)
    _, results, stats = run.traced_pass(cases)
    return results, stats


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    table = json.loads((HERE / "layers.json").read_text())
    assert table["workloads"] == {w["name"]: w["why"] for w in spec["workloads"]}
    for row in table["layers"]:
        assert set(row["metrics"]) <= set(tracing.metric_units())
        assert set(row["moves"]) <= set(run.E2E_UNITS)
        assert set(row["on"]) <= set(workloads.NAMES)


def test_defect_neg_bypasses_residual_roof_and_herringbone(traced_defect_neg):
    results, stats = traced_defect_neg
    assert not [r.unexpected() for r in results if r.unexpected()]
    assert stats["characteristics.curlcurl_residual.calls"] == 0
    assert stats["airy.convex_roof.calls"] == 0
    for prefix in HERRINGBONE_LAYERS:
        assert stats[prefix + ".calls"] == 0, prefix
    assert stats["characteristics.solve_line.calls"] > 10_000
    assert stats["render.defect_csv.calls"] == 1


def test_spans_account_for_the_traced_pass(traced_defect_neg):
    _, stats = traced_defect_neg
    assert 0.95 < stats["trace.attributed_frac"] <= 1.0


def test_uninstall_restores_every_binding(traced_defect_neg):
    assert characteristics.solve_line.__module__ == "shellwrinkle.characteristics"
    assert not hasattr(characteristics.solve_line, "__wrapped__")
    assert not hasattr(characteristics.interior_bumps, "__wrapped__")


def test_weakform_pos_bypasses_herringbone():
    _, results, stats = run.traced_pass(workloads.setup("weakform-pos", 0))
    assert [r.unexpected() for r in results] == [[], [], [], []]
    for prefix in HERRINGBONE_LAYERS:
        assert stats[prefix + ".calls"] == 0, prefix
    assert stats["characteristics.curlcurl_residual.calls"] == 3
    assert stats["characteristics.curlcurl_residual.bump_cells"] > 0
    assert stats["airy.convex_roof.points"] == 900


def test_seed_moves_query_points_not_their_count():
    a, b = workloads.roof_points(1, 900), workloads.roof_points(2, 900)
    assert a.shape == b.shape == (900, 2)
    assert (a == workloads.roof_points(1, 900)).all()
    assert not (a == b).all()


def test_roof_points_lie_inside_the_boundary_sample_polygon():
    from scipy.spatial import Delaunay

    from shellwrinkle.geometry import Ellipse

    samples = Ellipse(2.0, 1.0).boundary_sample(512)
    hull = Delaunay([bp.position for bp in samples])
    for seed in range(1, 41):
        assert (hull.find_simplex(workloads.roof_points(seed, 900)) >= 0).all(), seed


def test_counters_repeat_across_processes_on_a_second_seed():
    reports, results = zip(*(_run("--workload", "defect-neg", "--seed", "7", "--seconds", "1",
                                  "--trace", "1") for _ in range(2)))
    assert all(r["seed"] == 7 for r in reports)
    assert all(res["correct"] for res in results)
    first, second = (res["metrics"] for res in results)
    assert set(first) == set(tracing.metric_units())
    for name in first:
        if tracing.repeatable(name):
            assert first[name]["value"] == second[name]["value"], name


def test_end_to_end_run_prints_every_metric_with_its_unit():
    report, result = _run("--workload", "weakform-pos", "--seed", "3", "--seconds", "1")
    assert report["seed"] == 3
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.E2E_UNITS
    assert all(v["value"] > 0 for v in result["metrics"].values())
