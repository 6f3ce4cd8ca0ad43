"""End-to-end acceptance checks against published reference values.

One test per criterion. Each prints the computed values next to their
targets and enforces its own wall-clock budget, so ``pytest -v`` gives
a single pass/fail line per criterion.
"""

import math
import time

import numpy as np
import pytest

from rydex.atoms import QuantumDefectModel, clebsch_gordan
from rydex.dynamics import (
    PRODUCT_BASIS_8,
    PulseSpec,
    QuantumState,
    build_full8,
    propagate,
    tau2_approximate,
)
from rydex.chain import ChainSpec, chain_fidelity_estimate, chain_ideal_state
from rydex.harness import dumps_json, histogram_payload, robustness_scan
from rydex.protocols import pair_couplings, pairwise_entangle, swap_gate
from rydex.scan import RobustnessConfig
from rydex.tables import REFERENCE_TABLE_I, run_table
from rydex.vdw import _D_MATRICES, _M_MATRICES, c6_pair, channel_c6, critical_radius

from chain_states import chain_state_by_gate_matrix as _chain_state_by_gate_matrix
from sector_reference import relabeling_matrix

MODEL = QuantumDefectModel.default()

# quoted working point of the default (73, 75) pair at 15 um
QUOTED_V_PLUS = 5.0
QUOTED_V_MINUS = 711.0


def test_criterion_1_pair_coefficients_match_reference():
    """Direct and exchange coefficients of all four published pairs."""
    t0 = time.perf_counter()
    results = {(na, nb): c6_pair(MODEL, na, nb) for na, nb, _, _ in REFERENCE_TABLE_I}
    elapsed = time.perf_counter() - t0
    for na, nb, ref_c6, ref_ex in REFERENCE_TABLE_I:
        pair = results[(na, nb)]
        ratio = abs(pair.c6_exchange / pair.c6)
        ref_ratio = abs(ref_ex / ref_c6)
        print(
            f"({na},{nb}): c6 {pair.c6:.1f} vs {ref_c6}, "
            f"exchange {pair.c6_exchange:.1f} vs {ref_ex}, "
            f"ratio {ratio:.4f} vs {ref_ratio:.4f}"
        )
        assert math.copysign(1, pair.c6) == math.copysign(1, ref_c6)
        assert math.copysign(1, pair.c6_exchange) == math.copysign(1, ref_ex)
        assert abs(pair.c6 - ref_c6) / abs(ref_c6) < 0.10
        assert abs(pair.c6_exchange - ref_ex) / abs(ref_ex) < 0.10
        assert abs(ratio - ref_ratio) < 0.02
    print(f"criterion 1 elapsed {elapsed:.2f}s (budget 10s)")
    assert elapsed < 10.0


def test_criterion_2_channel_sum_convergence():
    """Second-order channel-2 sum of (100, 100) and its window saturation."""
    t0 = time.perf_counter()
    near = channel_c6(MODEL, 100, 100, 2, dn_cutoff=1)
    wide = channel_c6(MODEL, 100, 100, 2, dn_cutoff=10)
    wider = channel_c6(MODEL, 100, 100, 2, dn_cutoff=20)
    elapsed = time.perf_counter() - t0
    change = abs(wider - wide) / abs(wide)
    print(f"dn=1: {near:.1f} vs 71841.8, dn=10: {wide:.1f} vs 71930.0")
    print(f"dn 10 -> 20 relative change {change:.2e} (budget 1e-4)")
    assert near == pytest.approx(71841.8, rel=0.02)
    assert wide == pytest.approx(71930.0, rel=0.02)
    assert change < 1e-4
    print(f"criterion 2 elapsed {elapsed:.2f}s (budget 5s)")
    assert elapsed < 5.0


def test_criterion_3_channel_tables_match_reference():
    """Energy defects and radial factors of every published channel row."""
    t0 = time.perf_counter()
    tables = {tid: run_table(tid, MODEL) for tid in ("III", "IV")}
    elapsed = time.perf_counter() - t0
    for tid, data in tables.items():
        for row in data["rows"]:
            limit = 0.50 if row["rr_ghz_um3_reference"] < 1.0 else 0.05
            print(
                f"{tid} {row['atom1']},{row['atom2']}: "
                f"defect {row['defect_mhz_computed']:.1f} vs "
                f"{row['defect_mhz_reference']} MHz, "
                f"rr {row['rr_ghz_um3_computed']:.2f} vs "
                f"{row['rr_ghz_um3_reference']} ({limit:.0%} allowed)"
            )
            assert abs(row["defect_mhz_deviation"]) < 3.0
            assert abs(row["rr_rel_dev"]) < limit
    print(f"criterion 3 elapsed {elapsed:.2f}s (budget 5s)")
    assert elapsed < 5.0


def test_criterion_4_critical_radii():
    """Crossover radii to the resonant dipole regime for both pairs."""
    high = critical_radius(MODEL, 97, 100)
    low = critical_radius(MODEL, 73, 75)
    print(f"(97,100): {high.radius_um:.2f} um vs 9.6, "
          f"(73,75): {low.radius_um:.2f} um vs 6.1")
    assert high.radius_um == pytest.approx(9.6, rel=0.10)
    assert low.radius_um == pytest.approx(6.1, rel=0.10)


def test_criterion_5_pairwise_entanglement_fidelities():
    """Bell-state preparation at the quoted couplings, both drive points."""
    t0 = time.perf_counter()
    moderate = pairwise_entangle(59.0, 59.0, QUOTED_V_PLUS, QUOTED_V_MINUS)
    optimized = pairwise_entangle(
        119.0,
        128.0,
        QUOTED_V_PLUS,
        QUOTED_V_MINUS,
        tau2_us=tau2_approximate(119.0, QUOTED_V_PLUS),
    )
    elapsed = time.perf_counter() - t0
    total = sum(optimized.per_pulse_durations_us)
    print(f"moderate drive: {moderate.fidelity:.4f} vs 0.985 +- 0.003")
    print(f"optimized drive: {optimized.fidelity:.4f} vs 0.9906 +- 0.003, "
          f"total {total:.2f} us (budget 10 us)")
    assert moderate.fidelity == pytest.approx(0.985, abs=0.003)
    assert optimized.fidelity == pytest.approx(0.9906, abs=0.003)
    assert total < 10.0
    print(f"criterion 5 elapsed {elapsed:.3f}s (budget 1s)")
    assert elapsed < 1.0


def test_criterion_6_swap_gate_fidelities():
    """Signed SWAP at the computed couplings of (73, 75) at 15 um."""
    coup = pair_couplings(MODEL, 73, 75, 15.0)
    t0 = time.perf_counter()
    result = swap_gate(
        89.0, coup.v_plus_khz, coup.v_minus_khz, coup.corner_khz, 11.12
    )
    elapsed = time.perf_counter() - t0
    fid = result.basis_fidelities
    print(f"du {fid['du']:.5f} vs 0.96649 +- 0.003, "
          f"uu {fid['uu']:.5f} vs 0.99976 +- 0.0005, "
          f"gate {result.gate_fidelity:.5f} vs 0.9831 +- 0.003")
    assert fid["du"] == pytest.approx(0.96649, abs=0.003)
    assert fid["ud"] == pytest.approx(0.96649, abs=0.003)
    assert fid["uu"] == pytest.approx(0.99976, abs=0.0005)
    assert fid["dd"] == pytest.approx(0.99976, abs=0.0005)
    assert result.gate_fidelity == pytest.approx(0.9831, abs=0.003)
    print(f"criterion 6 elapsed {elapsed:.3f}s (budget 1s)")
    assert elapsed < 1.0


def test_criterion_7_robustness_distributions():
    """Fidelity spread under drive dispersion at full sample count."""
    coup = pair_couplings(MODEL, 73, 75, 15.0)
    t0 = time.perf_counter()
    fractions = {}
    for epsilon, threshold in ((0.1, 0.95), (0.2, 0.85)):
        cfg = RobustnessConfig(
            epsilon=epsilon,
            samples=100000,
            seed=12345,
            omega_khz=coup.nominal_omega_khz,
            v_plus_khz=coup.v_plus_khz,
            v_minus_khz=coup.v_minus_khz,
        )
        hist = robustness_scan(cfg)
        assert sum(hist.counts) == cfg.samples
        fractions[epsilon] = hist.fraction_above[threshold]
        print(f"epsilon {epsilon}: fraction above {threshold} = "
              f"{fractions[epsilon]:.4f} (need >= 0.95)")
    elapsed = time.perf_counter() - t0
    assert fractions[0.1] >= 0.95
    assert fractions[0.2] >= 0.95
    print(f"criterion 7 elapsed {elapsed:.1f}s (budget 120s)")
    assert elapsed < 120.0


def test_criterion_8_chain_target_state():
    """Closed-form four-atom target and agreement of both constructions."""
    state = chain_ideal_state(4)
    amps = dict(zip(state.basis, state.amplitudes))
    expected = {"uddu": 0.5, "duud": 0.5, "uudd": -0.5, "dduu": -0.5}
    for label, target in expected.items():
        print(f"|{label}>: {amps[label].real:+.15f} vs {target:+.1f}")
        assert abs(amps[label].real - target) < 1e-15
        assert amps[label].imag == 0.0
    others = [a for lbl, a in amps.items() if lbl not in expected]
    assert max(abs(a) for a in others) < 1e-15

    alt = _chain_state_by_gate_matrix(4)
    overlap = abs(np.vdot(state.amplitudes, alt.amplitudes))
    print(f"construction overlap {overlap:.15f} (need 1 +- 1e-12)")
    assert overlap == pytest.approx(1.0, abs=1e-12)


def test_criterion_9_chain_fidelity_estimates():
    """Decay-limited chain fidelities and linearity of the error in N."""
    coup = pair_couplings(MODEL, 73, 75, 15.0)
    pair = pairwise_entangle(
        119.0,
        128.0,
        QUOTED_V_PLUS,
        QUOTED_V_MINUS,
        tau2_us=tau2_approximate(119.0, QUOTED_V_PLUS),
    )
    swap = swap_gate(
        89.0, coup.v_plus_khz, coup.v_minus_khz, coup.corner_khz, 11.12
    )
    tau = (2.0 * pair.rydberg_exposure_us + swap.rydberg_exposure_us) / 3.0
    print(f"exposure-weighted tau = {tau:.4f} us")

    for gamma, target, width in ((1.0 / 0.45, 0.90, 0.03), (1.0, 0.94, 0.02)):
        spec = ChainSpec(
            atom_count=4, spacing_um=15.0, pair=(73, 75), gamma_per_ms=gamma
        )
        est = chain_fidelity_estimate(spec, 0.9906, 0.9831, tau_us=tau)
        print(f"gamma {gamma:.3f}/ms: fidelity {est.fidelity:.4f} "
              f"vs {target} +- {width}")
        assert est.fidelity == pytest.approx(target, abs=width)

    # decay-limited scaling: 1 - F grows linearly with chain length
    # while gamma * tau stays at or below 1e-2
    ns = np.arange(1, 9)
    errors = []
    for n in ns:
        spec = ChainSpec(
            atom_count=4 * int(n), spacing_um=15.0, pair=(73, 75),
            gamma_per_ms=1.0,
        )
        est = chain_fidelity_estimate(spec, 1.0, 1.0, tau_us=10.0)
        errors.append(1.0 - est.fidelity)
    c2, c1, _ = np.polyfit(ns, errors, 2)
    ratio = abs(c2 / c1)
    print(f"quadratic/linear coefficient ratio {ratio:.4f} (need < 0.05)")
    assert ratio < 0.05


def test_criterion_10_structural_invariants():
    """Unitarity, sector decoupling, angular algebra, reproducibility."""
    rng = np.random.default_rng(987654321)

    # norm preservation over 1000 random pulses
    worst_norm = 0.0
    for _ in range(1000):
        pulse = PulseSpec(
            omega_dU_A=rng.uniform(0.0, 200.0),
            omega_uD_A=rng.uniform(0.0, 200.0),
            omega_dU_B=rng.uniform(0.0, 200.0),
            omega_uD_B=rng.uniform(0.0, 200.0),
            phi_dU_A=rng.uniform(-np.pi, np.pi),
            phi_uD_A=rng.uniform(-np.pi, np.pi),
            phi_dU_B=rng.uniform(-np.pi, np.pi),
            phi_uD_B=rng.uniform(-np.pi, np.pi),
            duration_us=rng.uniform(0.0, 20.0),
        )
        h = build_full8(pulse, rng.uniform(-500, 500), rng.uniform(-500, 500))
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)
        state = QuantumState(basis=PRODUCT_BASIS_8, amplitudes=v)
        out = propagate(state, h, pulse.duration_us)
        worst_norm = max(worst_norm, abs(np.linalg.norm(out.amplitudes) - 1.0))
    print(f"worst norm drift {worst_norm:.2e} (need < 1e-10)")
    assert worst_norm < 1e-10

    # per-atom phases keep the dressed +/- sectors decoupled
    worst_cross = 0.0
    for _ in range(50):
        omega = rng.uniform(10.0, 200.0)
        a, b = rng.uniform(-np.pi, np.pi, 2)
        pulse = PulseSpec(omega_dU_A=omega, omega_uD_A=omega,
                          omega_dU_B=omega, omega_uD_B=omega,
                          phi_dU_A=a, phi_uD_A=a, phi_dU_B=b, phi_uD_B=b)
        h8 = build_full8(pulse, rng.uniform(-500, 500), rng.uniform(-500, 500))
        r = relabeling_matrix(phi_dU_A=a, phi_uD_A=a, phi_dU_B=b, phi_uD_B=b)
        hs = r @ h8.matrix @ r.conj().T
        worst_cross = max(worst_cross, float(np.abs(hs[:4, 4:]).max()))
    print(f"worst sector cross coupling {worst_cross:.2e} (need < 1e-10)")
    assert worst_cross < 1e-10

    # Clebsch-Gordan completeness on the angular momenta in use
    worst_cg = 0.0
    for j1, j2 in ((0.5, 0.5), (1.0, 0.5), (1.5, 1.0)):
        js = []
        j = abs(j1 - j2)
        while j <= j1 + j2:
            js.append(j)
            j += 1.0
        ms1 = [-j1 + k for k in range(int(2 * j1) + 1)]
        ms2 = [-j2 + k for k in range(int(2 * j2) + 1)]
        pairs = [(j, -j + k) for j in js for k in range(int(2 * j) + 1)]
        for ja, ma in pairs:
            for jb, mb in pairs:
                s = sum(
                    clebsch_gordan(j1, m1, j2, m2, ja, ma)
                    * clebsch_gordan(j1, m1, j2, m2, jb, mb)
                    for m1 in ms1
                    for m2 in ms2
                )
                want = 1.0 if (ja, ma) == (jb, mb) else 0.0
                worst_cg = max(worst_cg, abs(s - want))
    print(f"worst CG orthonormality deviation {worst_cg:.2e} (need <= 1e-12)")
    assert worst_cg <= 1e-12

    # angular weights are exact Gram matrices with exact fractions
    for k, (diag, off, cor) in {1: (26, 8, 22), 2: (10, -8, 14),
                                3: (10, -8, 14), 4: (8, 8, 4)}.items():
        d, m = _D_MATRICES[k], _M_MATRICES[k]
        assert np.abs(m.T @ m - d).max() <= 1e-15
        assert d[1, 1] == d[2, 2] == diag / 81.0
        assert d[1, 2] == d[2, 1] == off / 81.0
        assert d[0, 0] == d[3, 3] == cor / 81.0
    print("angular weight matrices exact")

    # byte-identical reruns of serialized outputs
    assert dumps_json(run_table("I", MODEL)) == dumps_json(run_table("I", MODEL))
    cfg = RobustnessConfig(
        epsilon=0.1, samples=300, seed=7, omega_khz=58.8,
        v_plus_khz=QUOTED_V_PLUS, v_minus_khz=QUOTED_V_MINUS,
    )
    first = dumps_json(histogram_payload(cfg, robustness_scan(cfg)))
    second = dumps_json(histogram_payload(cfg, robustness_scan(cfg)))
    assert first == second
    print("serialized reruns byte-identical")
