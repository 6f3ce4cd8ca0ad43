"""The rydex benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload coeff-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; nothing needs installing. The
benchmark drives rydex from outside in a closed loop, one client and one
process at a time, with BLAS threads pinned to 1. Every workload runs in
a fresh interpreter with ``PYTHONPATH=src`` and
``PYTHONDONTWRITEBYTECODE=1``, so caches start cold and nothing is
written under ``src/`` or ``tests/``.

With ``--trace 0`` the result holds the end-to-end metrics: ``setup_s``
(median of five fresh ``import rydex`` plus
``QuantumDefectModel.default()``), then the workload's ``peak_rss_mb``,
``work_per_yardstick`` and ``op_cost_p50``. Times are measured against
a yardstick, a reference kernel timed next to every operation (see
``workloads.yardstick``); setup_s is scaled back to seconds. With ``--trace 1`` the same fixed operations
run once untraced and once traced, each in a fresh interpreter, and the
result holds the per-layer metrics plus ``trace.overhead``. The line
before the result holds the run record and the workload's figures in
seconds under their own names (pairs_per_s, cli_total_s, fail_ratio,
...). ``attempted`` and ``failed`` count operations; an operation fails
if it raises or its output check fails.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True

from workloads import yardstick  # noqa: E402  (sibling module)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("coeff-sweep", "mc-scan", "cli-session")
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_yardstick": "1/yardstick",
    "op_cost_p50": "yardstick",
}
# what one unit of work and one operation are, per workload
WORK_UNIT = {
    "coeff-sweep": ("pair", "pair"),
    "mc-scan": ("MC sample of a 100k scan", "1k scan"),
    "cli-session": ("distinct CLI command", "CLI command"),
}
# The traced run does a fixed amount of work, so its counts compare
# across commits: 12 pairs; the couplings and three blocks of ten 1k
# scans and one 100k scan, both criterion-7 scans among them; one round
# of CLI commands.
TRACE_OPS = {"coeff-sweep": 12, "mc-scan": 34, "cli-session": 14}
SETUP_RUNS = 5
YARDSTICK_REF_S = 0.002  # about the yardstick's time on a 2-core x86-64 VM
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import rydex\n"
    "from rydex.atoms import QuantumDefectModel\n"
    "QuantumDefectModel.default()\n"
    "print(time.perf_counter() - t)\n"
)
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list[str], timeout: float) -> str:
    """stdout of a child process; its whole process group dies on timeout."""
    proc = subprocess.Popen(
        argv,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{argv[1:3]} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{argv[1:3]} exited {proc.returncode}: {err.strip()[-2000:]}")
    return out


def setup_seconds() -> tuple[float, list[float]]:
    """setup_s and the raw probe times.

    Each probe's time is scaled by the yardstick timed around it to the
    speed at which the yardstick takes YARDSTICK_REF_S, so setup_s does
    not move with the load of a shared machine.
    """
    raw, scaled = [], []
    before = yardstick()
    for _ in range(SETUP_RUNS):
        t = float(run_child([sys.executable, "-c", SETUP_CODE], timeout=60).split()[-1])
        after = yardstick()
        raw.append(t)
        scaled.append(t * YARDSTICK_REF_S / ((before + after) / 2))
        before = after
    return statistics.median(scaled), raw


def workload(name: str, seed: int, trace: int, seconds=None, ops=None) -> dict:
    argv = [sys.executable, str(HERE / "workloads.py"), "--workload", name, "--seed", str(seed)]
    argv += ["--trace", str(trace)]
    argv += ["--seconds", str(seconds)] if ops is None else ["--ops", str(ops)]
    return json.loads(run_child(argv, CHILD_TIMEOUT_S).splitlines()[-1])


def _version(dist: str):
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return None


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True, timeout=30
    ).stdout


def run_record(blas: dict) -> dict:
    """Where and on what the numbers were measured."""
    if (ROOT / ".git").exists():
        try:
            git = {
                "sha": _git("rev-parse", "HEAD").strip(),
                "dirty": bool(_git("status", "--porcelain", "--untracked-files=no").strip()),
            }
        except (OSError, subprocess.SubprocessError) as exc:
            git = {"sha": None, "dirty": None, "reason": f"git failed: {exc}"}
    else:
        git = {"sha": None, "dirty": None, "reason": "checkout is not a git repository"}
    return {
        "git": git,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "mpmath": _version("mpmath"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "blas": dict(blas, threads={var: "1" for var in THREAD_VARS}),
        "src_lines": sum(
            len(p.read_bytes().splitlines()) for p in sorted(SRC.rglob("*.py"))
        ),
    }


def measure(args) -> tuple[dict, dict]:
    """(figures for the detail line, the result line)."""
    if args.trace:
        from tracer import layer_metrics

        ops = TRACE_OPS[args.workload]
        plain = workload(args.workload, args.seed, 0, ops=ops)
        traced = workload(args.workload, args.seed, 1, ops=ops)
        snaps = traced["trace"]
        overhead = traced["cost"] / plain["cost"] - 1.0
        extra = {
            "vdw.near_resonant.excluded": traced["log_records"]
            + sum(s.get("log_records", 0) for s in snaps),
            "cli.warnings": sum(s.get("warnings", 0) for s in snaps),
            "trace.overhead": overhead,
        }
        metrics = layer_metrics(snaps, extra)
        detail = {
            "untraced_wall_s": plain["wall_s"],
            "traced_wall_s": traced["wall_s"],
            "ops": ops,
        }
        runs = (plain, traced)
    else:
        setup_s, setups = setup_seconds()
        plain = workload(args.workload, args.seed, 0, seconds=args.seconds)
        values = dict(plain, setup_s=setup_s)
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
        work, op = WORK_UNIT[args.workload]
        detail = dict(plain["detail"], setup_runs_s=setups, work_unit=work, op_unit=op)
        detail["metrics"].update(
            {
                "setup_s": metrics["setup_s"],
                "setup_raw_s": {"value": statistics.median(setups), "unit": "s"},
                "peak_rss_mb": metrics["peak_rss_mb"],
                "fail_ratio": {"value": plain["failed"] / plain["attempted"], "unit": "ratio"},
            }
        )
        runs = (plain,)
    detail["warnings"] = sum(r["warnings"] for r in runs)
    detail["problems"] = [p for r in runs for p in r["problems"]][:10]
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "record": run_record(plain["blas"]),
        "detail": detail,
    }
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return info, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="rydex benchmark: one workload run")
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "rydex" / "__init__.py").is_file():
        print(f"error: no rydex sources under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    try:
        info, result = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
