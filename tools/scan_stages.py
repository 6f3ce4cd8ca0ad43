"""Print in-process medians of a robustness scan's stages, interleaved.

    PYTHONPATH=src python3 tools/scan_stages.py [--samples 8 1000 100000] [--rounds 21]

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
stage's median over the counted rounds, in microseconds. Stdlib and rydex only.
"""

from __future__ import annotations

import argparse
import statistics
import time

from rydex import QuantumDefectModel, harness, scan

STAGES = ("sampler", "kernel", "_histogram", "histogram_payload", "dumps_json",
          "histogram_rows", "rows_to_csv", "operation")


def scan_operation(cfg) -> tuple[str, str]:
    """One scan operation, from config to JSON and CSV text."""
    hist = harness.robustness_scan(cfg)
    return (harness.dumps_json(harness.histogram_payload(cfg, hist)),
            harness.rows_to_csv(*harness.histogram_rows(hist)))


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


def stage_medians(sizes, rounds: int) -> dict[int, dict[str, float]]:
    """The median of each stage in microseconds, by sample count, over ``rounds``
    counted rounds after one warm-up round."""
    c = harness.pair_couplings(QuantumDefectModel.default(), 73, 75, 15.0)
    drives = (c.nominal_omega_khz, c.v_plus_khz, c.v_minus_khz)
    configs = {n: harness.RobustnessConfig(0.15, n, 12345, *drives) for n in sizes}
    point = scan._pulse2_point(*map(scan._float_key, drives))
    seen = {n: {stage: [] for stage in STAGES} for n in sizes}
    for counted in [False] + [True] * rounds:
        for n, cfg in configs.items():
            times = one_round(cfg, point)
            for stage in STAGES if counted else ():
                seen[n][stage].append(times[stage])
    return {n: {stage: statistics.median(t) / 1e3 for stage, t in by_stage.items()}
            for n, by_stage in seen.items()}


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--samples", type=int, nargs="+", default=[8, 1000, 100_000],
                        help="the scans' sample counts")
    parser.add_argument("--rounds", type=int, default=21, help="counted rounds")
    args = parser.parse_args(argv)
    medians = stage_medians(args.samples, args.rounds)
    print(f"{'stage (us, median of ' + str(args.rounds) + ')':<28}"
          + "".join(f"{n:>12}" for n in medians))
    for stage in STAGES:
        print(f"{stage:<28}" + "".join(f"{m[stage]:>12.1f}" for m in medians.values()))


if __name__ == "__main__":
    main()
