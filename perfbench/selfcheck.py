"""Self-check of the benchmark itself; exits 0 when every check passes.

    python3 perfbench/selfcheck.py

Checks that BENCHMARK.json declares exactly the metrics the code emits,
with valid names and units; that a short run of every workload, traced
and untraced, emits each declared metric with its unit and no failure;
and that an output corrupted on purpose is counted as a failure. Takes
about two minutes.
"""

from __future__ import annotations

import json
import re
import sys

sys.dont_write_bytecode = True

import run  # noqa: E402  (sibling modules)
from tracer import LAYER_METRICS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
# operations that reach the first corruptible output of each workload and
# give every figure of its summary at least one sample
CORRUPT_OPS = {"coeff-sweep": 1, "mc-scan": 12, "cli-session": 1}


def check_declaration(spec: dict) -> list[str]:
    problems = []
    declared = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer") for m in spec[key]}
    for name, unit in declared.items():
        if not NAME.fullmatch(name) or not UNIT.fullmatch(unit):
            problems.append(f"bad metric name or unit: {name!r} {unit!r}")
    if {w["name"] for w in spec["workloads"]} != set(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    if e2e != run.END_TO_END:
        problems.append(f"end_to_end {e2e} differs from run.END_TO_END")
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if layers != LAYER_METRICS:
        problems.append("per_layer differs from tracer.LAYER_METRICS")
    return problems


def check_emitted(workload: str, trace: int, declared: dict) -> list[str]:
    out = run.run_child(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        timeout=180,
    )
    result = json.loads(out.splitlines()[-1])
    where = f"{workload} --trace {trace}"
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: failures on a clean run")
    if set(result["metrics"]) != set(declared):
        problems.append(f"{where}: emitted {sorted(result['metrics'])}")
    for name, metric in result["metrics"].items():
        value = metric["value"]
        if metric.get("unit") != declared.get(name):
            problems.append(f"{where}: {name} has unit {metric.get('unit')!r}")
        if value is None and not metric.get("reason"):
            problems.append(f"{where}: {name} is null without a reason")
        if value is not None and not isinstance(value, (int, float)):
            problems.append(f"{where}: {name} is not a number")
    return problems


def check_corruption(workload: str) -> list[str]:
    out = run.run_child(
        [sys.executable, str(run.HERE / "workloads.py"), "--workload", workload,
         "--seed", "1", "--ops", str(CORRUPT_OPS[workload]), "--corrupt"],
        timeout=180,
    )
    result = json.loads(out.splitlines()[-1])
    if result["failed"] != 1:
        return [f"{workload}: corrupted output counted {result['failed']} failures, not 1"]
    return []


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = check_declaration(spec)
    for key, trace in (("end_to_end", 0), ("per_layer", 1)):
        declared = {m["name"]: m["unit"] for m in spec[key]}
        for workload in run.WORKLOADS:
            problems += check_emitted(workload, trace, declared)
    for workload in run.WORKLOADS:
        problems += check_corruption(workload)
    for p in problems:
        print(f"FAIL {p}")
    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
