"""Record a BENCH file: the benchmark at a base commit and at a head commit, side by side.

    python3 tools/bench_record.py --out BENCH_1.json --base HEAD~1 --pairs 3 --pairs-for mc-scan=10

Both commits are exported with ``git archive`` into a temporary directory
(deleted afterwards), so uncommitted edits are never measured. Each side
runs its own unchanged ``perfbench/run.py``; the record states whether the
two benchmark trees are identical. Per workload it runs K pairs of
untraced runs, alternating which side goes first, with seeds 1..K, then
three ``--trace 1`` runs per side, interleaved the same way. Each side's
per-layer value is the median of its three traced runs, since one traced
run cannot resolve a per-layer time delta under about 40%. A traced run
does a fixed set of operations, so its counters repeat: any count metric
that differs across a side's runs is listed under ``unsteady_counters``.
A traced run takes about 0.5 s on coeff-sweep, 1 s on mc-scan and 4 s on
cli-session on a 2-core VM, so the two extra runs per side add about 20 s
to a record. Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"}
TRACED_RUNS = 3


def git(*args: str, binary: bool = False):
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout
    return out if binary else out.decode().strip()


def export(rev: str, into: Path) -> dict:
    """Unpack ``rev`` into ``into``; describe it."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    with tarfile.open(fileobj=io.BytesIO(git("archive", sha, binary=True))) as tar:
        tar.extractall(into, filter="data")
    src_lines = sum(len(p.read_bytes().splitlines()) for p in (into / "src").rglob("*.py"))
    trees = {d: git("rev-parse", f"{sha}:{d}") for d in ("src", "perfbench")}
    return {"sha": sha, "src_lines": src_lines, "trees": trees, "dir": into}


def run(side: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=side["dir"], capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-2000:], "attempted": 0, "failed": 0, "metrics": {}}
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def compare(runs: dict[str, list[dict]]) -> dict:
    """Per end-to-end metric: each side's quartiles, the change ratio and pair wins.

    ``runs[side][i]`` is side's run of pair i (same seed and order on both sides).
    A pair with an errored run on either side is skipped whole, so the rest stay paired.
    """
    ok = [pair for pair in zip(runs["base"], runs["head"]) if not any("error" in r for r in pair)]
    out = {}
    for spec in SPEC["end_to_end"]:
        name, lower = spec["name"], spec["better"] == "lower"
        if not ok:
            out[name] = {"unresolved": "no pair ran without error on both sides"}
            continue
        vals = {s: [pair[i]["metrics"][name]["value"] for pair in ok]
                for i, s in enumerate(("base", "head"))}
        side = {s: quartiles(v) for s, v in vals.items()}
        ratio = side["head"]["median"] / side["base"]["median"]
        wins = sum((h < b) if lower else (h > b) for b, h in zip(vals["base"], vals["head"]))
        worse = ratio - 1.0 if lower else 1.0 - ratio
        out[name] = dict(side, unit=spec["unit"], better=spec["better"], ratio=ratio,
                         bound=spec["bound"], within_bound=worse <= spec["bound"],
                         head_wins=wins, pairs=len(ok), skipped_pairs=len(runs["base"]) - len(ok),
                         base_runs=vals["base"], head_runs=vals["head"])
    return out


def per_layer(traced: list[dict]) -> tuple[dict, dict]:
    """Each per-layer metric's median over the traced runs that report it (null if
    one reports null), and the count metrics whose runs differ, with every run's value."""
    values: dict[str, list] = {}
    for t in traced:
        for name, metric in t["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    medians = {k: None if None in v else statistics.median(v) for k, v in values.items()}
    unsteady = {k: v for k, v in values.items() if k in COUNTS and len(set(v)) > 1}
    return medians, unsteady


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    p.add_argument("--base", default="HEAD~1", help="commit measured as the parent")
    p.add_argument("--head", default="HEAD", help="commit measured as the change")
    p.add_argument("--pairs", type=int, default=3, help="untraced pairs per workload")
    p.add_argument("--pairs-for", action="append", default=[], metavar="WORKLOAD=K",
                   help="a different pair count for one workload")
    p.add_argument("--workload", action="append", choices=WORKLOADS, help="default: all")
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be >= 1")
    pairs = {w: args.pairs for w in WORKLOADS}
    for item in args.pairs_for:
        name, _, k = item.partition("=")
        if name not in pairs or not k.isdigit() or int(k) < 1:
            p.error(f"--pairs-for wants WORKLOAD=K with K >= 1, got {item!r}")
        pairs[name] = int(k)
    with tempfile.TemporaryDirectory(prefix="bench_record_") as tmp:
        sides = {s: export(rev, Path(tmp) / s) for s, rev in (("base", args.base), ("head", args.head))}
        result = {}
        for w in args.workload or WORKLOADS:
            runs = {"base": [], "head": []}
            for i in range(pairs[w]):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for s in order:
                    runs[s].append(run(sides[s], w, i + 1, 0))
                    print(f"{w} pair {i + 1}/{pairs[w]} {s} done", file=sys.stderr)
            traced = {"base": [], "head": []}
            for i in range(TRACED_RUNS):
                for s in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    traced[s].append(run(sides[s], w, 1, 1))
            layers = {s: per_layer(traced[s]) for s in sides}
            result[w] = {
                "end_to_end": compare(runs),
                "per_layer": {s: medians for s, (medians, _) in layers.items()},
                "unsteady_counters": {s: unsteady for s, (_, unsteady) in layers.items() if unsteady},
                "attempted": {s: sum(r["attempted"] for r in runs[s] + traced[s]) for s in sides},
                "failed": {s: sum(r["failed"] for r in runs[s] + traced[s]) for s in sides},
                "errors": [r["error"] for s in sides for r in runs[s] + traced[s] if "error" in r],
            }
    record = {
        "sides": {s: {k: v for k, v in d.items() if k != "dir"} for s, d in sides.items()},
        "same_benchmark": sides["base"]["trees"]["perfbench"] == sides["head"]["trees"]["perfbench"],
        "python": platform.python_version(),
        "versions": {d: metadata.version(d) for d in ("numpy", "scipy", "mpmath")},
        "cores": {"nproc": os.cpu_count(), "usable": len(os.sched_getaffinity(0))},
        "seconds": SPEC["run_seconds"],
        "pairs": {w: pairs[w] for w in result},
        "workloads": result,
    }
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    return 1 if any(r["errors"] for r in result.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
