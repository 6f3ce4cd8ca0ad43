"""Print in-process medians of a robustness scan's stages, interleaved.

    PYTHONPATH=src python3 tools/scan_stages.py [--samples 8 1000 100000] [--rounds 21]
    PYTHONPATH=src python3 tools/scan_stages.py --against DIR [--samples ...] [--rounds ...]

Each sample count gets a config at the (73, 75) couplings at 15 um, epsilon 0.15
and seed 12345. One round runs, for every sample count in turn, the stages of one
scan operation, each timed alone on the previous stage's output: the sampler
(``scan._sample_omegas``), the pulse-3 kernel inline
(``scan._batched_pulse3_fidelities``), ``scan._histogram``,
``harness.histogram_payload``, ``harness.dumps_json``, ``harness.histogram_rows``
and ``harness.rows_to_csv``; then the whole operation, ``robustness_scan`` (which
forks a large scan where it can) and the four serializer stages. Interleaving
the stages round by round lets a drift of the machine reach every stage alike,
so compare stages and sizes within one printout. The first round warms the
pulse-2 state, the float memos and numpy, and is not counted. Prints each
stage's median over the counted rounds, in microseconds.

With ``--against DIR`` it instead times the whole operation of this tree against
that of a second rydex tree, in one process: ``DIR`` is a copy of another
commit's ``src/rydex`` under another package name, imported by that name (its
data files are read from this tree's ``rydex.data``), for example

    mkdir -p /tmp/ab && git archive HEAD~1 src/rydex | tar -x -C /tmp/ab
    mv /tmp/ab/src/rydex /tmp/ab/rydex_base
    PYTHONPATH=src python3 tools/scan_stages.py --against /tmp/ab/rydex_base --samples 1000

Each round runs one operation per tree and sample count, the tree that goes first
alternating, and asserts that both wrote the same JSON and CSV text. Prints, per
sample count, each tree's median in microseconds, their ratio (this tree over the
other) and the rounds this tree was faster in. Stdlib and rydex only.
"""

from __future__ import annotations

import argparse
import importlib
import statistics
import sys
import time
from pathlib import Path

from rydex import QuantumDefectModel, harness, scan

STAGES = ("sampler", "kernel", "_histogram", "histogram_payload", "dumps_json",
          "histogram_rows", "rows_to_csv", "operation")


def scan_operation(cfg, tree=harness) -> tuple[str, str]:
    """One scan operation, from config to JSON and CSV text, by ``tree``'s harness."""
    hist = tree.robustness_scan(cfg)
    return (tree.dumps_json(tree.histogram_payload(cfg, hist)),
            tree.rows_to_csv(*tree.histogram_rows(hist)))


def one_round(cfg, point: tuple) -> dict[str, int]:
    """Each stage's time for ``cfg`` in nanoseconds, stage by stage."""
    _, tau3, v_s, v_c, psi2 = point
    clock, times = time.perf_counter_ns, {}

    def timed(stage: str, func, *args):
        start = clock()
        result = func(*args)
        times[stage] = clock() - start
        return result

    omegas = timed("sampler", scan._sample_omegas, cfg)
    fids = timed("kernel", scan._batched_pulse3_fidelities, psi2, omegas, v_s, v_c, tau3)
    hist = timed("_histogram", scan._histogram, fids, cfg.samples)
    payload = timed("histogram_payload", harness.histogram_payload, cfg, hist)
    timed("dumps_json", harness.dumps_json, payload)
    columns, rows = timed("histogram_rows", harness.histogram_rows, hist)
    timed("rows_to_csv", harness.rows_to_csv, columns, rows)
    timed("operation", scan_operation, cfg)
    return times


def scan_configs(tree, sizes) -> dict:
    """One config per sample count, by ``tree``'s harness."""
    c = tree.pair_couplings(QuantumDefectModel.default(), 73, 75, 15.0)
    drives = (c.nominal_omega_khz, c.v_plus_khz, c.v_minus_khz)
    return {n: tree.RobustnessConfig(0.15, n, 12345, *drives) for n in sizes}


def stage_medians(sizes, rounds: int) -> dict[int, dict[str, float]]:
    """The median of each stage in microseconds, by sample count, over ``rounds``
    counted rounds after one warm-up round."""
    configs = scan_configs(harness, sizes)
    cfg = configs[sizes[0]]
    point = scan._pulse2_point(*map(scan._float_key,
                                    (cfg.omega_khz, cfg.v_plus_khz, cfg.v_minus_khz)))
    seen = {n: {stage: [] for stage in STAGES} for n in sizes}
    for counted in [False] + [True] * rounds:
        for n, cfg in configs.items():
            times = one_round(cfg, point)
            for stage in STAGES if counted else ():
                seen[n][stage].append(times[stage])
    return {n: {stage: statistics.median(t) / 1e3 for stage, t in by_stage.items()}
            for n, by_stage in seen.items()}


def load_tree(directory: str):
    """The harness of the rydex copy at ``directory``, imported by its directory name."""
    path = Path(directory).resolve()
    if path.name == "rydex" or not (path / "harness.py").is_file():
        raise SystemExit(f"--against wants a rydex package copied under another name, got {path}")
    sys.path.insert(0, str(path.parent))
    return importlib.import_module(f"{path.name}.harness")


def against(other, sizes, rounds: int) -> dict[int, tuple[float, float, int]]:
    """(this tree's median, the other's, the rounds this tree was faster in), in
    microseconds, by sample count, over ``rounds`` counted rounds after one warm-up
    round; each round's two operations give the same text, or AssertionError."""
    clock, trees = time.perf_counter_ns, (harness, other)
    by_tree = [scan_configs(tree, sizes) for tree in trees]
    seen = {n: ([], []) for n in sizes}
    for i in range(rounds + 1):
        for n in sizes:
            outputs, times = [None, None], [0, 0]
            for side in (0, 1) if i % 2 else (1, 0):
                start = clock()
                outputs[side] = scan_operation(by_tree[side][n], trees[side])
                times[side] = clock() - start
            assert outputs[0] == outputs[1], f"the trees' outputs differ at {n} samples"
            for kept, t in zip(seen[n], times) if i else ():
                kept.append(t)
    return {n: (statistics.median(mine) / 1e3, statistics.median(theirs) / 1e3,
                sum(a < b for a, b in zip(mine, theirs)))
            for n, (mine, theirs) in seen.items()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, nargs="+", default=[8, 1000, 100_000],
                        help="the scans' sample counts")
    parser.add_argument("--rounds", type=int, default=21, help="counted rounds")
    parser.add_argument("--against", metavar="DIR",
                        help="time the whole operation against the rydex copy in DIR")
    args = parser.parse_args(argv)
    if args.against:
        print(f"{'samples':>10}{'this (us)':>12}{'other (us)':>12}{'ratio':>8}{'this faster':>13}")
        for n, (mine, theirs, wins) in against(load_tree(args.against), args.samples,
                                               args.rounds).items():
            print(f"{n:>10}{mine:>12.1f}{theirs:>12.1f}{mine / theirs:>8.3f}"
                  f"{f'{wins}/{args.rounds}':>13}")
        return
    medians = stage_medians(args.samples, args.rounds)
    print(f"{'stage (us, median of ' + str(args.rounds) + ')':<28}"
          + "".join(f"{n:>12}" for n in medians))
    for stage in STAGES:
        print(f"{stage:<28}" + "".join(f"{m[stage]:>12.1f}" for m in medians.values()))


if __name__ == "__main__":
    main()
