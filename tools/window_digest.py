"""Print one SHA-256 over a section of pinned outputs.

    python3 tools/window_digest.py [--section window|robustness|protocols|batches|sampler|
                                    serialize|histogram|chain|optimize|radial|levels|clebsch]

Each section hashes its outputs with every float as its hex, so equal
digests mean bit-equal outputs. Run the same file against the commit before
a change (copy it into that checkout's ``tools/``) and after it. The sections
read the result records as named tuples (``tuple`` and ``_replace``), so a
checkout from before they were named tuples runs its own copy of this file.

``window`` (the default) hashes every output the channel windows feed. The
windows are every (n, n + d) with d = 1..3 and n = 40..130, in both
atom orders, at dn 10 and dn 3: 1,092 in all. Per window the digest takes
each ``interference_decomposition`` row (each field's type and float hex),
``c6_pair`` (``c6``, ``c6_exchange`` and ``channel_sums`` as hex),
``channel_c6`` for k = 1..4, ``critical_radius`` and ``v_plus_minus`` of that
``c6_pair`` at twice the radius; at dn 10 also the bytes of
``interaction_matrix`` at that spacing. It also takes the near-resonant log
lines of all those calls, in order, which each summing call repeats. Only
public names are used, so the same file checks a refactor against the commit
before it: equal digests mean bit-equal outputs. The log lines and the
critical-radius warning are not printed. Takes about 15 s on a 2-core VM.

``robustness`` hashes the batched pulse-3 fidelities,
``dynamics._batched_pulse3_fidelities``, of 300 fixed draws for two psi2
(one with every row nonzero, one zero on the five rows a robustness scan's
psi2 never reaches), two (V_s, V_c) and eight pulse-3 durations: short,
long and negative ones on the Chebyshev kernel, the longest on the eigh
one. It also hashes the ``histogram_payload`` of three 1,000-sample
``robustness_scan`` runs, one of them on the eigh kernel. Takes about 2 s.

``protocols`` hashes, on fixed grids, every field of 48 ``pairwise_entangle``
runs (drives, couplings from the working hierarchy to V+ = 0 with V- = 1e9 kHz,
closed-form and given durations, zero and nonzero phases) with each run's final
amplitudes; every field of 96 ``swap_gate`` runs (V- and the blockade up to
1e9 kHz, a weak blockade, two windows and phases); and ``propagate`` and
``propagate_sampled`` from every basis state of an 8-state, an exchange-sector
and a blocked Hamiltonian over zero, forward and backward durations. Takes
about 1 s.

``batches`` hashes the batched pulse-3 fidelities at the kernel's default
``chunk`` for the first 1, 2047, 2049, 5119, 5121, 8191, 8193, 10241 and
20,000 of 20,000 fixed draws, for the two psi2 of ``robustness``: sizes on
both sides of one and two chunks of 2048 (the old default), 5120 (the
default, past which two workers run) and 8192 samples. It also hashes the
``histogram_payload`` of one 20,000-sample ``robustness_scan``. Takes
about 1 s.

``sampler`` hashes the float hex of the Monte Carlo draws,
``harness._sample_omegas``, for the seeds 0, 1, 12345, 2**63 and
2**64 - 1 (the last two wrap key word 0 on its first bump), at 1, 4095, 4096,
4097, 8191, 8192, 8193, 16385 and 100,000 samples (on both sides of one
and two passes of the old 4096 keys and the current 8192), each at
epsilon 0, 0.1 and 0.2. Takes about 6 s.

``serialize`` hashes the ``dumps_json`` and ``rows_to_csv`` bytes of
``run_table`` I, II, III and IV, ``run_figure(3)`` and
``run_figure(4, samples=1000)``. Takes under 1 s.

``histogram`` hashes the ``dumps_json`` bytes of ``histogram_payload`` and the
``rows_to_csv`` bytes of ``histogram_rows`` of eleven ``robustness_scan`` runs
of 1,000, 10,000 and 100,000 samples at several (epsilon, seed) pairs on two
working points, in an order that returns to each working point after a scan
at the other, so a scan that repeats a working point is digested after one
that first reaches it. Takes under 1 s.

``chain`` hashes ``chain_protocol`` of the (73, 75) chain at 15 um for 4, 6,
8, 16 and 4,096 atoms, at a nonzero decay rate, once with f1, f_swap and tau
given and once simulated. Each schedule slot is expanded atom by atom to
(step, pulse index, label, n), followed by every ``PulseSpec`` field; then the
step durations and total, the estimate, the spectator shift and the f1,
f_swap and tau used. It also hashes ``chain_ideal_state`` for 4 and 6 atoms.
Takes under 1 s.

``optimize`` hashes every field of ``optimize_pairwise`` (the result's fields,
the start fidelity and ``converged``) for the seeds 0, 1 and 7 at the (73, 75)
couplings at 15 um, and again with V+ and V- negated. Takes under 1 s.

``radial`` hashes the s -> p radial rows a window reads, ``radial._sp_row``.
For every n_s from 20 to 200 and both p_j series it takes the p window of
dn 3, 10 and 20 centred |n_a - n_b| = 0..4 levels to either side of n_s, cut
at the series' lowest level, and rows that cross the bundled table's
DN_MAX = 24 edge: dn 20 centred 5 levels off and dn 25 centred on n_s. It
also takes rows at n_s 201 to 210, past the table, and two rows of a model
whose p_3/2 delta0 is edited by 1e-6, which the table cannot answer; then
``radial_integral`` of single elements on the table and off it (past its
edges, with the s and p orbitals swapped, and a p -> d element). Takes about
1 s.

``levels`` hashes the three lists of ``_rydberg_ritz`` (defects, effective
numbers and energies) for every series of the bundled model, from its lowest n
above delta0 to n = 500, in one call per series and again one call per level.
Takes under 1 s.

``clebsch`` hashes ``clebsch_gordan`` at every argument with j1, j2 and j in
0, 1/2, ..., 5 and each m running over -j..j: 287,496 calls, most of them 0.0
by a selection rule. Takes about 1 s.

Recorded digests (equal at the commit that added ``sampler`` and
``serialize`` and at its parent, with the tool copied in):
``window`` cd0213e2..., ``robustness`` 207fc321..., ``protocols``
dea71713..., ``batches`` 0efd21e8..., ``sampler`` 07315d5a... and
``serialize`` 3965c586.... ``histogram`` was written before the pulse-2
cache and the one-pass writers and read ebb013c9... at their parent. ``chain``
was written before the schedule held its atoms as ranges and read 5859a581...
at that change's parent and after it. ``optimize`` was written before the
search held its records as named tuples and read 1eeb4f94... at that change's
parent. ``radial`` was written before a window's rows were served as table
slices and read 89a573e0... at that change's parent. ``levels`` and
``clebsch`` were written before the int-domain checks of ``atoms`` took their
bounds and read 6faf63b9... and 65582683... at that change's parent.

Stdlib, numpy and rydex only.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import itertools
import logging
import math
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from rydex.atoms import DefectSeries, QuantumDefectModel, _rydberg_ritz  # noqa: E402
from rydex.atoms import clebsch_gordan  # noqa: E402
from rydex.dynamics import _batched_pulse3_fidelities  # noqa: E402
from rydex.dynamics import (  # noqa: E402
    PulseSpec,
    QuantumState,
    build_blocked2,
    build_full8,
    build_swap_2pi,
    propagate,
    propagate_sampled,
)
from rydex.harness import (  # noqa: E402
    RobustnessConfig,
    _sample_omegas,
    dumps_json,
    histogram_payload,
    histogram_rows,
    robustness_scan,
    rows_to_csv,
    run_figure,
    run_table,
)
from rydex.radial import _sp_row, _sp_table, radial_integral  # noqa: E402
from rydex.protocols import (  # noqa: E402
    ChainSpec,
    chain_ideal_state,
    chain_protocol,
    optimize_pairwise,
    pairwise_entangle,
    swap_gate,
)
from rydex.vdw import (  # noqa: E402
    _p_levels,
    c6_pair,
    channel_c6,
    critical_radius,
    interaction_matrix,
    interference_decomposition,
    v_plus_minus,
)


def windows() -> list[tuple[int, int, int]]:
    """(n_a, n_b, dn_cutoff) of every digested window, in digest order."""
    pairs = [(n, n + d) for n in range(40, 131) for d in (1, 2, 3)]
    return [(a, b, dn) for p in pairs for a, b in (p, p[::-1]) for dn in (10, 3)]


def encode(value) -> str:
    """``value`` with every float as its hex, every other scalar as its repr."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(encode(v) for v in value) + ")"
    if isinstance(value, dict):
        return "{" + ",".join(f"{k!r}:{encode(v)}" for k, v in sorted(value.items())) + "}"
    return repr(value)


class Lines(logging.Handler):
    """Keeps each log record's message."""

    def __init__(self) -> None:
        super().__init__()
        self.lines: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.lines.append(record.getMessage())


def digest(model: QuantumDefectModel, log: Lines) -> str:
    h = hashlib.sha256()
    for n_a, n_b, dn in windows():
        h.update(f"[{n_a},{n_b},{dn}]".encode())
        for row in interference_decomposition(model, n_a, n_b, dn):
            h.update(encode([(type(x).__name__, x) for x in row]).encode())
        pair = c6_pair(model, n_a, n_b, dn)
        h.update(encode((pair.c6, pair.c6_exchange, pair.channel_sums)).encode())
        h.update(encode([channel_c6(model, n_a, n_b, k, dn) for k in (1, 2, 3, 4)]).encode())
        radius = critical_radius(model, n_a, n_b, dn)
        h.update(encode(tuple(radius)).encode())
        spacing = 2.0 * radius.radius_um
        h.update(encode(tuple(v_plus_minus(pair, spacing))).encode())
        if dn == 10:
            im = interaction_matrix(model, n_a, n_b, spacing)
            h.update(im.v1_khz.tobytes() + im.v2_khz.tobytes())
        h.update(encode(log.lines).encode())
        log.lines.clear()
    return h.hexdigest()


def window_section() -> str:
    log = Lines()
    logger = logging.getLogger("rydex.vdw")
    logger.addHandler(log)
    logger.propagate = False  # kept, not printed
    return digest(QuantumDefectModel.default(), log)


# the (73, 75) pair at 15 um: V+, V- and the drive sqrt(V+ V-), in kHz
V_PLUS, V_MINUS, OMEGA = 4.86528311708787, 711.2447292433305, 58.8


def robustness_section() -> str:
    h = hashlib.sha256()
    rng = np.random.Generator(np.random.Philox(key=[2027, 0]))
    general = rng.normal(size=8) + 1j * rng.normal(size=8)
    omegas = OMEGA * rng.uniform(0.8, 1.2, size=(300, 4))
    for psi2 in (general, np.where(np.arange(8) < 5, 0.0, general)):
        psi2 = psi2 / np.linalg.norm(psi2)
        for v_s, v_c in ((358.05, -353.19), (-40.0, 25.0)):
            for tau3 in (0.0, 1e-3, 8.5, -8.5, 40.0, 120.0, -120.0, 400.0):
                h.update(f"[{v_s},{v_c},{tau3}]".encode())
                fids = _batched_pulse3_fidelities(psi2, omegas, v_s, v_c, tau3)
                h.update(encode(fids.tolist()).encode())
    for epsilon, seed, omega in ((0.1, 1, OMEGA), (0.3, 2, OMEGA), (0.1, 3, 5.0)):
        cfg = RobustnessConfig(epsilon, 1000, seed, omega, V_PLUS, V_MINUS)
        h.update(encode(histogram_payload(cfg, robustness_scan(cfg))).encode())
    return h.hexdigest()


def batches_section() -> str:
    h = hashlib.sha256()
    rng = np.random.Generator(np.random.Philox(key=[2029, 0]))
    general = rng.normal(size=8) + 1j * rng.normal(size=8)
    omegas = OMEGA * rng.uniform(0.8, 1.2, size=(20_000, 4))
    for psi2 in (general, np.where(np.arange(8) < 5, 0.0, general)):
        psi2 = psi2 / np.linalg.norm(psi2)
        for n in (1, 2047, 2049, 5119, 5121, 8191, 8193, 10241, 20_000):
            h.update(f"[{n}]".encode())
            fids = _batched_pulse3_fidelities(psi2, omegas[:n], 358.05, -353.19, 8.5)
            h.update(encode(fids.tolist()).encode())
    cfg = RobustnessConfig(0.1, 20_000, 4, OMEGA, V_PLUS, V_MINUS)
    h.update(encode(histogram_payload(cfg, robustness_scan(cfg))).encode())
    return h.hexdigest()


def sampler_section() -> str:
    h = hashlib.sha256()
    sizes = (1, 4095, 4096, 4097, 8191, 8192, 8193, 16385, 100_000)
    for seed, samples, epsilon in itertools.product((0, 1, 12345, 2**63, 2**64 - 1), sizes,
                                                    (0.0, 0.1, 0.2)):
        h.update(f"[{seed},{samples},{epsilon}]".encode())
        cfg = RobustnessConfig(epsilon, samples, seed, OMEGA, V_PLUS, V_MINUS)
        h.update(encode(_sample_omegas(cfg).ravel().tolist()).encode())
    return h.hexdigest()


def serialize_section() -> str:
    h = hashlib.sha256()
    model = QuantumDefectModel.default()
    outputs = [run_table(table_id, model) for table_id in ("I", "II", "III", "IV")]
    outputs += [run_figure(3, model), run_figure(4, model, samples=1000)]
    for data in outputs:
        h.update(dumps_json(data).encode())
        h.update(rows_to_csv(data["columns"], data["rows"]).encode())
    return h.hexdigest()


# a second working point: drive, V+ and V- in kHz, V+ negative
OTHER_POINT = (41.5, -3.25, 530.0)


def histogram_section() -> str:
    h = hashlib.sha256()
    first = (OMEGA, V_PLUS, V_MINUS)
    scans = ((first, 1000, 0.1, 1), (first, 1000, 0.2, 2), (OTHER_POINT, 1000, 0.1, 3),
             (first, 1000, 0.15, 2**64 - 1), (OTHER_POINT, 10_000, 0.05, 4),
             (first, 10_000, 0.25, 5), (OTHER_POINT, 1000, 0.0, 6), (first, 100_000, 0.1, 12345),
             (OTHER_POINT, 100_000, 0.2, 7), (first, 1000, 0.3, 8), (OTHER_POINT, 1000, 0.12, 9))
    for (omega, v_plus, v_minus), samples, epsilon, seed in scans:
        h.update(f"[{omega},{v_plus},{v_minus},{samples},{epsilon},{seed}]".encode())
        cfg = RobustnessConfig(epsilon, samples, seed, omega, v_plus, v_minus)
        hist = robustness_scan(cfg)
        h.update(dumps_json(histogram_payload(cfg, hist)).encode())
        h.update(rows_to_csv(*histogram_rows(hist)).encode())
    return h.hexdigest()


def amplitudes(values) -> str:
    """Complex amplitudes as the float hex of their real and imaginary parts."""
    return encode(np.asarray(values, dtype=complex).view(float).tolist())


def protocols_section() -> str:
    h = hashlib.sha256()
    phases = ((0.0, 0.0, 0.0, 0.0), (0.3, -0.2, 0.1, 0.5))
    couplings = ((5.0, 711.0), (V_PLUS, V_MINUS), (0.0, 1e9))
    durations = ((None, None), (12.0, 8.5))
    for omega2, omega3 in ((59.0, 59.0), (89.0, 64.0)):
        for (v_plus, v_minus), (tau2, tau3), phi in itertools.product(couplings, durations, phases):
            h.update(f"[{omega2},{omega3},{v_plus},{v_minus},{tau2},{tau3},{phi}]".encode())
            run = pairwise_entangle(omega2, omega3, v_plus, v_minus, tau2, tau3, phi, True)
            fields = run._replace(trajectory=None)
            h.update(encode(tuple(fields)).encode())
            h.update(amplitudes(run.trajectory.amplitudes[-1]).encode())
            h.update(encode(run.trajectory.pulse_boundaries_us).encode())
    grid = itertools.product((89.0, 150.0), (0.0, 5.0), (711.0, 1e9), (535.0, 1e9, 100.0),
                             (11.12, 1e3 / 150.0), (0.0, 0.3))
    for omega, v_plus, v_minus, v_blockade, t_2pi, phi in grid:
        h.update(f"[{omega},{v_plus},{v_minus},{v_blockade},{t_2pi},{phi}]".encode())
        result = swap_gate(omega, v_plus, v_minus, v_blockade, t_2pi, phi=phi)
        h.update(encode(tuple(result)).encode())
    pulse = PulseSpec(59.0, 61.0, 57.0, 60.0, 0.3, -0.2, 0.1, 0.5, 8.5)
    hamiltonians = (build_full8(pulse, 358.05, -353.19), build_swap_2pi(89.0, 0.3, 5.0, 711.0),
                    build_blocked2(89.0, 0.3, 535.0))
    for hamiltonian in hamiltonians:
        for label, t_us in itertools.product(hamiltonian.basis, (0.0, 1.0, 8.5, -3.0)):
            state = QuantumState.from_label(hamiltonian.basis, label)
            h.update(f"[{label},{t_us}]".encode())
            h.update(amplitudes(propagate(state, hamiltonian, t_us).amplitudes).encode())
            times, amps = propagate_sampled(state, hamiltonian, t_us, 5)
            h.update((encode(times.tolist()) + amplitudes(amps)).encode())
    return h.hexdigest()


def slot_atoms(pulse) -> list[tuple[str, int]]:
    """(label, n) of each atom one schedule slot addresses, in schedule order; the
    atom at 0-based position p is labelled A1, B1, C1, D1, A2, ... for p = 0, 1, ..."""
    return [("ABCD"[p % 4] + str(p // 4 + 1), n)
            for atoms, n in zip(pulse.targets, pulse.rydberg_n) for p in atoms]


def chain_section() -> str:
    h = hashlib.sha256()
    model = QuantumDefectModel.default()
    for count in (4, 6, 8, 16, 4096):
        spec = ChainSpec(count, 15.0, (73, 75), gamma_per_ms=1.0 / 0.45)
        for given in ((0.9906, 0.9831, 6.3699), (None, None, None)):
            h.update(f"[{count},{given}]".encode())
            chain = chain_protocol(model, spec, *given)
            for pulse in chain.schedule.pulses:
                h.update(encode((pulse.step, pulse.pulse_index, slot_atoms(pulse))).encode())
                h.update(encode(dataclasses.astuple(pulse.spec)).encode())
            schedule = chain.schedule
            h.update(encode((schedule.step_durations_us, schedule.total_duration_us)).encode())
            h.update(encode(tuple(chain.estimate)).encode())
            h.update(encode(tuple(chain.spectator)).encode())
            h.update(encode((chain.f1, chain.f_swap, chain.tau_us)).encode())
    for count in (4, 6):
        state = chain_ideal_state(count)
        h.update((encode(state.basis) + amplitudes(state.amplitudes)).encode())
    return h.hexdigest()


def optimize_section() -> str:
    h = hashlib.sha256()
    for sign, seed in itertools.product((1.0, -1.0), (0, 1, 7)):
        h.update(f"[{sign},{seed}]".encode())
        opt = optimize_pairwise(sign * V_PLUS, sign * V_MINUS, seed)
        h.update(encode(tuple(opt)).encode())
    return h.hexdigest()


def radial_rows(model: QuantumDefectModel, ns: range, windows) -> list[tuple[float, list]]:
    """(nu_s, nus) of the p rows of ``model`` around each n_s of ``ns``: per p_j series,
    the levels within dn of n_s + offset for each (dn, offset) of ``windows``."""
    rows = []
    for n_s, nu_s in zip(ns, _rydberg_ritz(model, 0, 0.5, ns)[1]):
        for lowest, nus, _ in _p_levels(model).values():
            for dn, offset in windows:
                centre = n_s + offset - lowest
                rows.append((nu_s, nus[max(centre - dn, 0):centre + dn + 1]))
    return rows


def radial_section() -> str:
    h = hashlib.sha256()
    model = QuantumDefectModel.default()
    s = model.series[(1, 1.5)]
    edited = dataclasses.replace(model, series={
        **model.series, (1, 1.5): DefectSeries(1, 1.5, s.delta0 + 1e-6, s.delta2)})
    windows = [(dn, offset) for dn in (3, 10, 20) for offset in range(-4, 5)]
    rows = (radial_rows(model, range(20, 201), windows + [(20, -5), (20, 5), (25, 0)])
            + radial_rows(model, range(201, 211), [(10, 0), (3, 2)])
            + radial_rows(edited, range(73, 76, 2), [(10, 0)])[1::2])
    for nu_s, nus in rows:
        h.update(encode((nu_s, len(nus), _sp_row(nu_s, nus))).encode())
    nu_s, nu_p, _ = _sp_table()
    on = [(nu_s[i], 0, nu_p[i], 1) for i in range(0, len(nu_p), 997)]
    off = [(p, 1, s, 0) for s, _, p, _ in on[::4]] + [
        (nu_s[-1] + 1.0, 0, nu_p[-1], 1), (69.87, 0, 69.37, 1), (50.3, 2, 49.8, 1)]
    for args in on + off:
        h.update(encode((args, radial_integral(*args))).encode())
    return h.hexdigest()


def levels_section() -> str:
    h = hashlib.sha256()
    model = QuantumDefectModel.default()
    for (l, j), s in sorted(model.series.items()):
        ns = range(math.floor(s.delta0) + 1, 501)
        h.update(f"[{l},{j},{ns.start}]".encode())
        h.update(encode(_rydberg_ritz(model, l, j, ns)).encode())
        h.update(encode([_rydberg_ritz(model, l, j, (n,)) for n in ns]).encode())
    return h.hexdigest()


def clebsch_section() -> str:
    h = hashlib.sha256()
    pairs = [(tj / 2, (tj - 2 * k) / 2) for tj in range(11) for k in range(tj + 1)]
    for (j1, m1), (j2, m2) in itertools.product(pairs, pairs):
        h.update(f"[{j1},{m1},{j2},{m2}]".encode())
        h.update(encode([clebsch_gordan(j1, m1, j2, m2, j, m) for j, m in pairs]).encode())
    return h.hexdigest()


SECTIONS = {"window": window_section, "robustness": robustness_section,
            "protocols": protocols_section, "batches": batches_section,
            "sampler": sampler_section, "serialize": serialize_section,
            "histogram": histogram_section, "chain": chain_section,
            "optimize": optimize_section, "radial": radial_section,
            "levels": levels_section, "clebsch": clebsch_section}


def main() -> None:
    parser = argparse.ArgumentParser(description="SHA-256 over one section of pinned outputs.")
    parser.add_argument("--section", choices=SECTIONS, default="window")
    section = SECTIONS[parser.parse_args().section]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        print(section())


if __name__ == "__main__":
    main()
