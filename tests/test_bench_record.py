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
