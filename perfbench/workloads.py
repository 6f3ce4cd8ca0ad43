"""One benchmark workload in a fresh interpreter; prints one JSON line.

run.py starts this with ``PYTHONPATH=src`` and BLAS threads pinned:

    python perfbench/workloads.py --workload coeff-sweep --seed 1 --seconds 20
    python perfbench/workloads.py --workload mc-scan --seed 1 --ops 44 --trace 1

Each workload is a generator of operations built from the seed alone.
Every operation is timed, its output is checked, and it counts as
failed if it raises or its check finds a problem. With ``--seconds`` no
operation starts after the time is up (``cli-session`` stops only at the
end of a round of commands); with ``--ops`` exactly that many run.
Operation costs are wall times divided by the ``yardstick`` timed around
them.
``--corrupt`` damages the first checkable output on purpose, so the
self-check can see the damage counted as a failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

sys.dont_write_bytecode = True

import numpy as np  # noqa: E402

from tracer import TRACE_MARK, RecordCounter, Tracer  # noqa: E402  (sibling module)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference"

# published (n_a, n_b, C6, C6_exchange) in GHz um^6 and the acceptance
# tolerances of criterion 1
TABLE_I = (
    (59, 61, -196.0, 194.0),
    (73, 75, 4080.0, -4025.0),
    (97, 100, -59780.0, 58800.0),
    (121, 124, 1104000.0, -1124000.0),
)
TABLE_I_REL_TOL = 0.10
TABLE_I_RATIO_TOL = 0.02

# criterion 7: (epsilon, threshold) at seed 12345 with 100k samples; at
# least 95% of samples must lie above the threshold
CRITERION_7 = {0.1: "0.95", 0.2: "0.85"}
CRITERION_7_SEED = 12345
LARGE_SCAN = 100_000
SMALL_SCAN = 1_000
SMALL_PER_LARGE = 10

# The CLI session: the ROADMAP's default command list, each command in a
# fresh process. robustness and figure 4 run at 10k samples, because at
# 100k they would repeat mc-scan's load and take 40% of the session.
CLI_COMMANDS = (
    ("coeffs", ("coeffs", "--na", "73", "--nb", "75")),
    ("critical-radius", ("critical-radius", "--na", "73", "--nb", "75")),
    ("pair-sim", ("pair-sim",)),
    ("pair-sim-optimize", ("pair-sim", "--optimize")),
    ("swap-sim", ("swap-sim",)),
    ("chain-4", ("chain", "--atoms", "4")),
    ("chain-16", ("chain", "--atoms", "16", "--format", "csv")),
    ("robustness", ("robustness", "--samples", "10000")),
    ("table-I", ("table", "I")),
    ("table-II", ("table", "II")),
    ("table-III", ("table", "III")),
    ("table-IV", ("table", "IV", "--format", "csv")),
    ("figure-3", ("figure", "3")),
    ("figure-4", ("figure", "4", "--samples", "10000", "--format", "csv")),
)
CLI_TIMEOUT_S = 60

# the yardstick's eigensolve: bound before a traced run patches numpy,
# so the tracer never counts it
_EIGH = np.linalg.eigh
_YARDSTICK_H = np.random.default_rng(0).standard_normal((64, 8, 8))
_YARDSTICK_H = _YARDSTICK_H + _YARDSTICK_H.transpose(0, 2, 1)


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def csv_rows(text: str) -> list[list[str]]:
    """Rows of a rectangular CSV text with a header and at least one row."""
    rows = list(csv.reader(io.StringIO(text)))
    if len(rows) < 2 or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError("CSV is not rectangular with a header and data rows")
    return rows


def _finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


# ---------------------------------------------------------------------------
# coeff-sweep: radial and vdw layers, cold on new levels, warm on repeats


def coeff_sweep(seed: int, model):
    from rydex import vdw

    rng = random.Random(seed)
    table = [(a, b) for a, b, _, _ in TABLE_I]
    rest = [(a, a + d) for a in range(40, 131) for d in (1, 2, 3)]
    rest = [p for p in rest if p not in table]
    rng.shuffle(rest)
    for n_a, n_b in table + rest:
        factors = sorted(rng.uniform(1.1, 3.0) for _ in range(3))
        yield "pair", f"{n_a},{n_b}", functools.partial(
            _pair_op, vdw, model, n_a, n_b, factors
        ), check_pair


def _pair_op(vdw, model, n_a, n_b, factors):
    pair = vdw.c6_pair(model, n_a, n_b, dn_cutoff=10)
    cr = vdw.critical_radius(model, n_a, n_b, dn_cutoff=3)
    spacings = [cr.radius_um * f for f in factors]
    matrices = [vdw.interaction_matrix(model, n_a, n_b, s) for s in spacings]
    terms = vdw.interference_decomposition(model, n_a, n_b, dn_cutoff=10)
    shifts = [vdw.v_plus_minus(pair, s) for s in spacings]
    return {"pair": pair, "cr": cr, "matrices": matrices, "terms": terms, "shifts": shifts}


def check_pair(out) -> list[str]:
    pair, cr, terms = out["pair"], out["cr"], out["terms"]
    problems = []
    values = [pair.c6, pair.c6_exchange, *pair.channel_sums]
    values += [cr.radius_um, cr.defect_ghz, cr.rrr_ghz_um3]
    for m in out["matrices"]:
        values += [m.vs_khz, m.vc_khz, *m.v1_khz.ravel(), *m.v2_khz.ravel()]
    for t in terms:
        values += [t.defect_ghz, t.c6_plus, t.c6_minus]
    for v in out["shifts"]:
        values += [v.v_plus_khz, v.v_minus_khz]
    if not _finite(values):
        problems.append("non-finite value")

    scale = math.fsum(abs(t.c6_plus) + abs(t.c6_minus) for t in terms)
    plus = math.fsum(t.c6_plus for t in terms)
    minus = math.fsum(t.c6_minus for t in terms)
    if not (
        abs(plus - (pair.c6 + pair.c6_exchange)) <= 1e-9 * scale
        and abs(minus - (pair.c6 - pair.c6_exchange)) <= 1e-9 * scale
    ):
        problems.append("interference terms do not sum to c6 +- c6_exchange")

    for m, v in zip(out["matrices"], out["shifts"]):
        tol = 1e-9 * (abs(m.vs_khz) + abs(m.vc_khz))
        if not (
            abs(v.v_plus_khz - (m.vs_khz + m.vc_khz)) <= tol
            and abs(v.v_minus_khz - (m.vs_khz - m.vc_khz)) <= tol
        ):
            problems.append("v_plus_minus disagrees with interaction_matrix")
            break

    for n_a, n_b, ref_c6, ref_ex in TABLE_I:
        if (pair.n_a, pair.n_b) != (n_a, n_b):
            continue
        ratio, ref_ratio = abs(pair.c6_exchange / pair.c6), abs(ref_ex / ref_c6)
        if not (
            math.copysign(1, pair.c6) == math.copysign(1, ref_c6)
            and math.copysign(1, pair.c6_exchange) == math.copysign(1, ref_ex)
            and abs(pair.c6 - ref_c6) / abs(ref_c6) < TABLE_I_REL_TOL
            and abs(pair.c6_exchange - ref_ex) / abs(ref_ex) < TABLE_I_REL_TOL
            and abs(ratio - ref_ratio) < TABLE_I_RATIO_TOL
        ):
            problems.append(f"Table I pair ({n_a}, {n_b}) outside tolerance")
    return problems


def corrupt_pair(out):
    return dict(out, pair=replace(out["pair"], c6=out["pair"].c6 * 1.5))


# ---------------------------------------------------------------------------
# mc-scan: the Monte Carlo sampler and batched pulse-3 eigensolve


def mc_scan(seed: int, model):
    from rydex import harness

    rng = random.Random(seed)
    held = {}

    def couplings():
        held["c"] = harness.pair_couplings(model, 73, 75, 15.0)
        return held["c"]

    yield "couplings", "73,75", couplings, check_couplings
    # blocks of ten 1k scans and one 100k scan; the first two 100k scans
    # are the criterion-7 checks, so even a short run has both kinds
    checks = [(eps, CRITERION_7_SEED) for eps in CRITERION_7]
    while True:
        for _ in range(SMALL_PER_LARGE):
            eps = round(rng.uniform(0.05, 0.25), 6)
            op = functools.partial(_scan_op, harness, held, eps, rng.randrange(2**32), SMALL_SCAN)
            yield "small", f"{eps}", op, check_scan
        if checks:
            eps, scan_seed = checks.pop(0)
        else:
            eps, scan_seed = round(rng.uniform(0.05, 0.25), 6), rng.randrange(2**32)
        op = functools.partial(_scan_op, harness, held, eps, scan_seed, LARGE_SCAN)
        yield "large", f"{eps}", op, check_scan


def _scan_op(harness, held, eps, scan_seed, samples):
    c = held["c"]
    cfg = harness.RobustnessConfig(
        epsilon=eps,
        samples=samples,
        seed=scan_seed,
        omega_khz=c.nominal_omega_khz,
        v_plus_khz=c.v_plus_khz,
        v_minus_khz=c.v_minus_khz,
    )
    hist = harness.robustness_scan(cfg)
    return {
        "epsilon": eps,
        "seed": scan_seed,
        "samples": samples,
        "json": harness.dumps_json(harness.histogram_payload(cfg, hist)),
        "csv": harness.rows_to_csv(*harness.histogram_rows(hist)),
    }


def check_couplings(c) -> list[str]:
    values = (c.v_plus_khz, c.v_minus_khz, c.corner_khz)
    if not _finite(values) or c.v_minus_khz == 0.0:
        return ["pair couplings not finite and nonzero"]
    return []


@functools.cache
def _mc_reference() -> dict:
    return json.loads((REFERENCE / "mc-scan.json").read_text())


def check_scan(out) -> list[str]:
    samples = out["samples"]
    try:
        data = strict_json(out["json"])
        rows = csv_rows(out["csv"])
    except ValueError as exc:
        return [f"unparseable scan output: {exc}"]
    problems = []
    if data["samples"] != samples or sum(data["counts"]) != samples:
        problems.append("JSON counts do not sum to the sample count")
    if sum(int(r[2]) for r in rows[1:]) != samples:
        problems.append("CSV counts do not sum to the sample count")
    if not (_finite((data["mean"], data["minimum"])) and 0 <= data["minimum"] <= data["mean"] <= 1):
        problems.append("mean or minimum fidelity out of [0, 1]")
    threshold = CRITERION_7.get(out["epsilon"])
    if threshold and out["seed"] == CRITERION_7_SEED and samples == LARGE_SCAN:
        if data["fraction_above"][threshold] < 0.95:
            problems.append(f"criterion 7 fails at epsilon {out['epsilon']}")
        digest = hashlib.sha256(out["json"].encode()).hexdigest()
        if digest != _mc_reference()[str(out["epsilon"])]:
            problems.append(f"epsilon {out['epsilon']} payload differs from the reference")
    return problems


def corrupt_scan(out):
    data = json.loads(out["json"])
    data["counts"][-1] += 1
    return dict(out, json=json.dumps(data))


# ---------------------------------------------------------------------------
# cli-session: one fresh `python -m rydex.cli` process per command


def cli_session(seed: int, sink: list, traced: bool):
    rng = random.Random(seed)
    while True:
        order = list(CLI_COMMANDS)
        rng.shuffle(order)
        for label, argv in order:
            yield "cli", label, functools.partial(_cli_op, label, argv, traced, sink), check_cli


def _cli_op(label, argv, traced, sink):
    if traced:
        cmd = [sys.executable, str(HERE / "cli_shim.py"), *argv]
    else:
        cmd = [sys.executable, "-m", "rydex.cli", *argv]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, timeout=CLI_TIMEOUT_S)
    err_lines = proc.stderr.decode(errors="replace").splitlines()
    trace = [line for line in err_lines if line.startswith(TRACE_MARK)]
    if trace:
        sink.append(json.loads(trace[-1][len(TRACE_MARK):]))
    return {
        "label": label,
        "csv": "csv" in argv,
        "code": proc.returncode,
        "stdout": proc.stdout,
        "stderr_lines": len(err_lines) - len(trace),
    }


def check_cli(out) -> list[str]:
    if out["code"] != 0:
        return [f"{out['label']} exited {out['code']}"]
    problems = []
    try:
        text = out["stdout"].decode("utf-8")
        csv_rows(text) if out["csv"] else strict_json(text)
    except ValueError as exc:
        problems.append(f"{out['label']} stdout does not parse: {exc}")
    reference = (REFERENCE / "cli" / f"{out['label']}.out").read_bytes()
    if out["stdout"] != reference:
        problems.append(f"{out['label']} stdout differs from the reference")
    return problems


def corrupt_cli(out):
    return dict(out, stdout=out["stdout"][:-2] + b"#\n")


CORRUPT = {"pair": corrupt_pair, "small": corrupt_scan, "large": corrupt_scan, "cli": corrupt_cli}


# ---------------------------------------------------------------------------
# running the operations


def yardstick() -> float:
    """Seconds of a fixed reference kernel, the best of three short runs.

    The kernel does the two kinds of work rydex does, interpreted Python
    and a batched LAPACK eigensolve, and belongs to the benchmark, so no
    change to rydex moves it. Timed next to each operation it tracks how
    fast the machine runs at that moment: on a shared machine the same
    work took up to twice as long from one minute to the next, while an
    operation's cost in yardsticks moved by a few percent.
    """
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(20_000):
            acc += math.sqrt(i)
        _EIGH(_YARDSTICK_H)
        best = min(best, time.perf_counter() - t0)
    return best


def drive(ops, seconds, max_ops, round_len, corrupt):
    """Run operations until the time or the count is used up."""
    records, problems = [], []
    start = time.perf_counter()
    ref = yardstick()
    for i, (kind, label, thunk, check) in enumerate(ops):
        elapsed = time.perf_counter() - start
        if max_ops is not None:
            if i >= max_ops:
                break
        elif i and i % round_len == 0:
            # a round of CLI commands is never cut; another starts when at
            # least half of it fits in the time left
            if elapsed + (0.5 * elapsed * round_len / i if round_len > 1 else 0) >= seconds:
                break
        t0 = time.perf_counter()
        try:
            out = thunk()
        except Exception as exc:  # an operation that raises counts as failed
            dt = time.perf_counter() - t0
            out, found = {}, [f"{kind} {label} raised {type(exc).__name__}: {exc}"]
        else:
            dt = time.perf_counter() - t0
            if corrupt and kind in CORRUPT:
                out, corrupt = CORRUPT[kind](out), False
            found = check(out)
        after = yardstick()
        # samples of a scan, stderr lines of a command
        n = out.get("samples", out.get("stderr_lines", 0)) if isinstance(out, dict) else 0
        records.append(
            {"kind": kind, "label": label, "s": dt, "ref": (ref + after) / 2, "ok": not found, "n": n}
        )
        ref = after
        problems += found
    return records, problems


def tail(values: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, sample count); with ten samples or fewer
    there is no such percentile and the maximum is reported as p100.
    """
    xs = sorted(values)
    k = len(xs) - 11
    if k < 0:
        return xs[-1], 100.0, len(xs)
    return xs[k], 100.0 * (k + 1) / len(xs), len(xs)


def figures(workload: str, records: list[dict], value) -> dict:
    """Work rate, median and tail of one measure of the operations.

    The rate is pairs, Monte Carlo samples (the median over the 100k
    scans), or distinct CLI commands per unit of the measure; the median
    and tail are over pairs, 1k scans, or CLI commands.
    """
    if workload == "mc-scan":
        timed = [value(r) for r in records if r["kind"] == "small"]
        rate = statistics.median(r["n"] / value(r) for r in records if r["kind"] == "large")
    elif workload == "cli-session":
        timed = [value(r) for r in records]
        per_command: dict[str, list[float]] = {}
        for r in records:
            per_command.setdefault(r["label"], []).append(value(r))
        rate = len(per_command) / sum(statistics.median(v) for v in per_command.values())
    else:
        timed = [value(r) for r in records]
        rate = len(timed) / sum(timed)
    tail_value, percentile, count = tail(timed)
    return {
        "rate": rate,
        "p50": statistics.median(timed),
        "tail": tail_value,
        "tail_percentile": percentile,
        "tail_samples": count,
    }


def summarize(workload: str, records: list[dict]) -> dict:
    """End-to-end figures in yardsticks, and in seconds under their own names.

    The tail stays out of the end-to-end metrics: on a shared machine it
    did not repeat within a tenth from run to run.
    """
    cost = figures(workload, records, lambda r: r["s"] / r["ref"])
    raw = figures(workload, records, lambda r: r["s"])
    if workload == "coeff-sweep":
        named = {
            "pairs_per_s": (raw["rate"], "1/s"),
            "pair_p50_ms": (1e3 * raw["p50"], "ms"),
            "pair_tail_ms": (1e3 * raw["tail"], "ms"),
        }
    elif workload == "mc-scan":
        named = {
            "mc_samples_per_s": (raw["rate"], "1/s"),
            "scan_p50_ms": (1e3 * raw["p50"], "ms"),
        }
    else:
        commands = len({r["label"] for r in records})
        named = {
            "cli_total_s": (commands / raw["rate"], "s"),
            "cli_p50_s": (raw["p50"], "s"),
            "cli_stderr_lines": (sum(r["n"] for r in records), "count"),
        }
    named["op_cost_tail"] = (cost["tail"], "yardstick")
    detail = {
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
        "tail_percentile": cost["tail_percentile"],
        "tail_samples": cost["tail_samples"],
        "yardstick_ms": 1e3 * statistics.median(r["ref"] for r in records),
        "ops": {k: sum(r["kind"] == k for r in records) for k in sorted({r["kind"] for r in records})},
    }
    return {
        "work_per_yardstick": cost["rate"],
        "op_cost_p50": cost["p50"],
        "detail": detail,
    }


def blas_info() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        return {"name": None, "version": None}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=("coeff-sweep", "mc-scan", "cli-session"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--ops", type=int, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", action="store_true")
    args = p.parse_args(argv)
    if (args.seconds is None) == (args.ops is None):
        p.error("give exactly one of --seconds and --ops")

    tracer = Tracer() if args.trace and args.workload != "cli-session" else None
    if tracer is not None:
        tracer.install()
    import rydex
    from rydex.atoms import QuantumDefectModel

    if Path(rydex.__file__).resolve().parent != ROOT / "src" / "rydex":
        print(f"rydex imported from {rydex.__file__}, not from the checkout", file=sys.stderr)
        return 2
    model = QuantumDefectModel.default()
    sink: list[dict] = []
    if args.workload == "coeff-sweep":
        ops, round_len = coeff_sweep(args.seed, model), 1
    elif args.workload == "mc-scan":
        ops, round_len = mc_scan(args.seed, model), 1
    else:
        ops = cli_session(args.seed, sink, traced=bool(args.trace))
        round_len = len(CLI_COMMANDS)

    counter = RecordCounter("rydex.vdw")
    with warnings.catch_warnings(record=True) as caught:
        records, problems = drive(ops, args.seconds, args.ops, round_len, args.corrupt)
    counter.close()
    if tracer is not None:
        sink.append(tracer.snapshot())

    who = resource.RUSAGE_CHILDREN if args.workload == "cli-session" else resource.RUSAGE_SELF
    result = summarize(args.workload, records)
    result.update(
        {
            "attempted": len(records),
            "failed": sum(not r["ok"] for r in records),
            "problems": problems[:10],
            "wall_s": sum(r["s"] for r in records),
            "cost": sum(r["s"] / r["ref"] for r in records),
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
            "warnings": len(caught),
            "log_records": counter.count,
            "trace": sink if args.trace else None,
            "blas": blas_info(),
        }
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
