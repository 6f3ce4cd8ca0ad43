"""``tools/bench_record.py``: pairing parent and change runs."""

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="module")
def bench_record():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
    spec = importlib.util.spec_from_file_location("bench_record", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(bench_record, value):
    metrics = {m["name"]: {"value": value} for m in bench_record.SPEC["end_to_end"]}
    return {"attempted": 1, "failed": 0, "metrics": metrics}


def test_compare_skips_a_pair_with_an_errored_run(bench_record):
    error = {"error": "boom", "attempted": 0, "failed": 0, "metrics": {}}
    runs = {
        "base": [_run(bench_record, v) for v in (1.0, 4.0, 5.0)],
        "head": [error, _run(bench_record, 3.0), _run(bench_record, 4.5)],
    }
    out = bench_record.compare(runs)["work_per_yardstick"]
    # pairs 2 and 3 stay paired: the change loses both, it does not win (1, 3) and (4, 4.5)
    assert (out["base_runs"], out["head_runs"]) == ([4.0, 5.0], [3.0, 4.5])
    assert (out["head_wins"], out["pairs"], out["skipped_pairs"]) == (0, 2, 1)
    assert out["base"]["median"] == 4.5 and out["head"]["median"] == 3.75


def test_compare_with_no_clean_pair_is_unresolved(bench_record):
    error = {"error": "boom", "attempted": 0, "failed": 0, "metrics": {}}
    runs = {"base": [_run(bench_record, 1.0), error], "head": [error, _run(bench_record, 2.0)]}
    assert all("unresolved" in m for m in bench_record.compare(runs).values())



def _traced(self_s, anger_calls, warnings=0):
    metrics = {"vdw.self_s": self_s, "radial.anger.calls": anger_calls, "cli.warnings": warnings}
    return {"attempted": 1, "failed": 0, "metrics": {k: {"value": v} for k, v in metrics.items()}}


def test_per_layer_is_the_median_of_the_traced_runs(bench_record):
    # vdw.self_s is a time, radial.anger.calls a count; one run errored and reports nothing
    traced = [_traced(0.009, 4), {"error": "boom", "attempted": 0, "failed": 0, "metrics": {}},
              _traced(0.005, 4), _traced(0.006, 4)]
    medians, unsteady = bench_record.per_layer(traced)
    assert medians == {"vdw.self_s": 0.006, "radial.anger.calls": 4, "cli.warnings": 0}
    assert unsteady == {}


def test_per_layer_reports_a_counter_that_differs_and_keeps_null(bench_record):
    traced = [_traced(0.005, 4, None), _traced(0.007, 5, None), _traced(0.006, 4, None)]
    medians, unsteady = bench_record.per_layer(traced)
    assert medians == {"vdw.self_s": 0.006, "radial.anger.calls": 4, "cli.warnings": None}
    assert unsteady == {"radial.anger.calls": [4, 5, 4]}  # times are expected to differ
