"""Record a BENCH file: the benchmark at a base commit and at a head commit, side by side.

    python3 tools/bench_record.py --out BENCH_1.json --base HEAD~1 --pairs 3 --pairs-for mc-scan=10

Both commits are exported with ``git archive`` into a temporary directory
(deleted afterwards), so uncommitted edits are never measured. Each side's
record gives its src line count, also by kind (``line_kinds``). Each side
runs its own unchanged ``perfbench/run.py``; the record states whether the
two benchmark trees are identical. Per workload it runs K pairs of
untraced runs, alternating which side goes first, with seeds 1..K, then
seven ``--trace 1`` runs per side, interleaved the same way. Each side's
per-layer value is the median of its seven traced runs, since one traced
run cannot resolve a per-layer time delta under about 40%, and three could
not resolve a 10-15% one; every traced value is kept too, in run order
(``per_layer_runs``, null for a run that reports none), so run i of the two
sides is a pair whose wins a reader can count. A traced run does a fixed set
of operations, so its counters repeat: any count metric that differs across
a side's runs is listed under ``unsteady_counters``.
Next to each untraced run the tool runs the two-core probe (``two_core``):
one pure-Python loop alone, then the same loop in this process and in one
forked child at once; it records each one's wall time over the lone loop's,
so 1.0 means two free cores and 2.0 one. A forked scan gains only while the
second core is free, so the ratios sit beside the runs; they gate nothing.
A traced run takes about 0.5 s on coeff-sweep, 1 s on mc-scan and 4 s on
cli-session on a 2-core VM, so the six extra runs per side add about 70 s
to a record. Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import platform
import statistics
import struct
import subprocess
import sys
import tarfile
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
COUNTS = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"}
TRACED_RUNS = 7
PROBE_LOOP = 3_000_000  # the two-core probe's iterations, about 0.1 s on one core
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)  # docstring owners


def git(*args: str, binary: bool = False):
    out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, check=True).stdout
    return out if binary else out.decode().strip()


def line_kinds(paths) -> dict[str, int]:
    """The lines of ``paths`` by kind: a docstring's are those of its ``ast`` span,
    and the rest are comment-only, blank or code."""
    kinds = {"code": 0, "docstring": 0, "comment": 0, "blank": 0}
    for path in paths:
        data = path.read_bytes()
        spans = set()
        for node in ast.walk(ast.parse(data)):
            if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
                spans.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        for number, line in enumerate(data.splitlines(), 1):
            text = line.strip()
            kind = ("docstring" if number in spans else "blank" if not text
                    else "comment" if text.startswith(b"#") else "code")
            kinds[kind] += 1
    return kinds


def export(rev: str, into: Path) -> dict:
    """Unpack ``rev`` into ``into``; describe it, with its src lines by kind."""
    sha = git("rev-parse", "--verify", f"{rev}^{{commit}}")
    with tarfile.open(fileobj=io.BytesIO(git("archive", sha, binary=True))) as tar:
        tar.extractall(into, filter="data")
    kinds = line_kinds(sorted((into / "src").rglob("*.py")))
    trees = {d: git("rev-parse", f"{sha}:{d}") for d in ("src", "perfbench")}
    return {"sha": sha, "src_lines": sum(kinds.values()), "src_kinds": kinds, "trees": trees,
            "dir": into}


def run(side: dict, workload: str, seed: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=side["dir"], capture_output=True, text=True)
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-2000:], "attempted": 0, "failed": 0, "metrics": {}}
    return json.loads(proc.stdout.splitlines()[-1])


def spin() -> float:
    """Seconds of the two-core probe's loop."""
    start = time.perf_counter()
    s = 0
    for i in range(PROBE_LOOP):
        s += i
    return time.perf_counter() - start


def two_core_probe() -> dict:
    """The wall time of the probe's loop in this process and in one forked child, run at
    once, each over that of one loop run alone (the child's is null if it reports none)."""
    alone = spin()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            os.write(write, struct.pack("d", spin()))
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    try:
        parent = spin()
        reported = os.read(read, 8)
    finally:
        os.close(read)
        os.waitpid(pid, 0)
    child = struct.unpack("d", reported)[0] / alone if len(reported) == 8 else None
    return {"parent": parent / alone, "child": child}


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


def traced_values(traced: list[dict]) -> dict[str, list]:
    """Each per-layer metric's value in every traced run, in run order: null where a
    run reports none or null, so run i of two sides' lists stays a pair."""
    names = dict.fromkeys(name for t in traced for name in t["metrics"])
    return {name: [t["metrics"].get(name, {}).get("value") for t in traced] for name in names}


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
            probes = {"base": [], "head": []}
            for i in range(pairs[w]):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                for s in order:
                    probes[s].append(two_core_probe())
                    runs[s].append(run(sides[s], w, i + 1, 0))
                    print(f"{w} pair {i + 1}/{pairs[w]} {s} done", file=sys.stderr)
            traced = {"base": [], "head": []}
            for i in range(TRACED_RUNS):
                for s in ("base", "head") if i % 2 == 0 else ("head", "base"):
                    traced[s].append(run(sides[s], w, 1, 1))
            layers = {s: per_layer(traced[s]) for s in sides}
            result[w] = {
                "end_to_end": compare(runs),
                "two_core": probes,
                "per_layer": {s: medians for s, (medians, _) in layers.items()},
                "per_layer_runs": {s: traced_values(traced[s]) for s in sides},
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
