"""Entanglement protocols for Rydberg pairs and chains.

Composes the pulse Hamiltonians into complete protocols:

* ``pair_couplings``: V+, V- and the blockade corner of a pair, whose
  working drive omega = sqrt|V+ V-| sets every protocol default,
* ``pairwise_entangle``: the three-pulse sequence taking a ground pair
  |du> to the Bell state g+ through the doubly excited Bell state r+,
* ``optimize_pairwise``: restarted simplex search over the two Rabi
  frequencies and two pulse durations,
* ``swap_gate``: the pi / 2pi / pi sequence realizing a signed SWAP
  between neighboring atoms.

The optimizer's search lives in ``optimizer``, and the chain (its schedule,
ideal states, fidelity estimate and ``chain_protocol``) in ``chain``:
``optimize_pairwise`` imports its search when it runs, and only the chain
command loads ``chain``.

Conventions: frequencies in kHz (ordinary), times in microseconds,
decay rates in 1/ms. Ideal pi pulses are instantaneous relabelings;
their phase conventions cancel in every reported population.
"""

from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from .atoms import QuantumDefectModel, _require_finite, _require_int
from .dynamics import (
    _SQRT2,
    CHANNELS,
    PRODUCT_BASIS_8,
    PulseSpec,
    QuantumState,
    _phasor,
    build_blocked2,
    build_full8,
    build_swap_2pi,
    propagate,
    propagate_sampled,
    pulse2_analytics,
)
from .vdw import interaction_matrix

__all__ = [
    "RYDBERG_POPULATION_THRESHOLD",
    "PairCouplings",
    "pair_couplings",
    "Trajectory",
    "ProtocolResult",
    "pairwise_entangle",
    "PairwiseOptimum",
    "optimize_pairwise",
    "SwapGateResult",
    "swap_gate",
    "SWAP_MATRIX_IDEAL",
]

# A state counts as "in the Rydberg manifold" for duration bookkeeping
# when its total Rydberg population exceeds this threshold.
RYDBERG_POPULATION_THRESHOLD = 1e-3

# Most restarts optimize_pairwise takes, to bound its time; the starts are drawn first
MAX_RESTARTS = 1000

# Propagation samples per pulse, each end included, of every sampled run
_SAMPLES_PER_PULSE = 400

# Signed SWAP on the ground-spin basis (uu, ud, du, dd): the swap block
# is +1 and the parallel-spin states pick up -1. The physical pulse
# composition realizes this matrix times a global -1.
SWAP_MATRIX_IDEAL = np.array(
    [
        [-1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, -1],
    ]
)


class PairCouplings(NamedTuple):
    """Interaction scales of an (n_a, n_b) pair at a given spacing."""

    v_plus_khz: float
    v_minus_khz: float
    corner_khz: float

    @property
    def nominal_omega_khz(self) -> float:
        return _nominal_omega(self.v_plus_khz, self.v_minus_khz)


def pair_couplings(
    model: QuantumDefectModel, n_a: int, n_b: int, spacing_um: float
) -> PairCouplings:
    """V+, V- and the parallel-spin blockade corner from one interaction matrix."""
    inter = interaction_matrix(model, n_a, n_b, spacing_um)
    v_plus, v_minus = inter.v_plus_minus_khz
    coup = PairCouplings(v_plus_khz=v_plus, v_minus_khz=v_minus,
                         corner_khz=float(inter.v1_khz[0, 0]))
    if not math.isfinite(coup.nominal_omega_khz):
        raise ValueError(f"spacing {spacing_um} um overflows the working drive sqrt|V+ V-|")
    return coup


def _nominal_omega(v_plus_khz: float, v_minus_khz: float) -> float:
    return math.sqrt(abs(v_plus_khz * v_minus_khz))


def _exchange_split(v_plus_khz: float, v_minus_khz: float) -> tuple[float, float]:
    """(V_s, V_c) = ((V+ + V-)/2, (V+ - V-)/2), the Hamiltonian's shifts."""
    return (v_plus_khz + v_minus_khz) / 2.0, (v_plus_khz - v_minus_khz) / 2.0


def _half_period(name: str, omega_khz: float, derived: str = "its half period",
                 per: float = 2.0) -> float:
    """``derived``, 1/(per omega) in us, of drive ``name`` in kHz: by default the pi time."""
    if omega_khz == 0:
        raise ValueError(f"{name} must be nonzero to derive {derived}")
    if omega_khz < 0:
        raise ValueError(f"{name} must be positive to derive {derived}, got {omega_khz}")
    return 1e3 / (per * omega_khz)


def _nominal_point(v_plus_khz: float, v_minus_khz: float) -> tuple[float, float, float]:
    """(omega, tau2, tau3): the working drive, its closed-form pulse-2
    time and its pulse-3 half period."""
    omega = _nominal_omega(v_plus_khz, v_minus_khz)
    tau2 = pulse2_analytics(omega, v_plus_khz, v_minus_khz).tau2_us
    return omega, tau2, _half_period("omega_khz", omega)


def _swap_point(omega_khz: float | None, omega_swap: float | None = None,
                t_2pi: float | None = None) -> tuple[float, float]:
    """(SWAP drive, 2pi window) for pair drive omega: 1.5 omega and one
    period of that drive, unless given; omega is read only when the SWAP drive is not."""
    omega_swap = 1.5 * omega_khz if omega_swap is None else omega_swap
    if t_2pi is None:  # 1.0 * omega_swap is omega_swap exactly
        t_2pi = _half_period("SWAP drive omega_khz", omega_swap, "t_2pi_us", 1.0)
    return omega_swap, t_2pi


# Rydberg-population masks of atom A and atom B on PRODUCT_BASIS_8
_RYDBERG_A = np.array([1.0 if b[0] in "DU" else 0.0 for b in PRODUCT_BASIS_8])
_RYDBERG_B = np.array([1.0 if b[1] in "DU" else 0.0 for b in PRODUCT_BASIS_8])


def _trapezoid(values: np.ndarray, dt: float) -> float:
    return float(0.5 * dt * (values[1:] + values[:-1]).sum())


class Trajectory(NamedTuple):
    """Sampled amplitudes on PRODUCT_BASIS_8 of a protocol run, pulses concatenated."""

    times_us: np.ndarray
    amplitudes: np.ndarray
    pulse_boundaries_us: tuple[float, ...]


def _exposure(*pulses: tuple[np.ndarray, np.ndarray]) -> tuple[float, float]:
    """(per-atom Rydberg exposure, thresholded Rydberg time) in us.

    Each pulse is (times, amplitudes on PRODUCT_BASIS_8) on its own local
    time axis. Exposure is the two-atom average of integral(P_Rydberg dt);
    the thresholded time counts samples whose total Rydberg population
    exceeds RYDBERG_POPULATION_THRESHOLD.
    """
    exposure = thresholded = 0.0
    for times, amps in pulses:
        dt = float(times[1] - times[0])
        pops = np.abs(amps) ** 2
        p_a, p_b = pops @ _RYDBERG_A, pops @ _RYDBERG_B
        exposure += 0.5 * (_trapezoid(p_a, dt) + _trapezoid(p_b, dt))
        above = np.count_nonzero((p_a + p_b)[:-1] > RYDBERG_POPULATION_THRESHOLD)
        thresholded += dt * float(above)
    return exposure, thresholded


class ProtocolResult(NamedTuple):
    """Outcome of one protocol run.

    ``total_rydberg_time_us`` is the sampled duration with total
    Rydberg population above RYDBERG_POPULATION_THRESHOLD, reported
    only; ``rydberg_exposure_us`` is the per-atom time integral of
    Rydberg population, the quantity that multiplies a per-atom decay
    rate in chain estimates (``chain_protocol`` weights it).
    """

    fidelity: float
    per_pulse_durations_us: tuple[float, ...]
    total_rydberg_time_us: float
    rydberg_exposure_us: float
    omega_pulse2_khz: float
    omega_pulse3_khz: float
    tau2_us: float
    tau3_us: float
    trajectory: Trajectory | None = None


def pairwise_entangle(
    omega_pulse2_khz: float,
    omega_pulse3_khz: float,
    v_plus_khz: float,
    v_minus_khz: float,
    tau2_us: float | None = None,
    tau3_us: float | None = None,
    phases: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0),
    keep_trajectory: bool = False,
) -> ProtocolResult:
    """Three-pulse Bell-state preparation |du> -> |g+>.

    Pulse 1 is an ideal instantaneous pi map |du> -> |Uu>. Pulse 2
    drives only atom B's u <-> D channel at ``omega_pulse2_khz`` for
    ``tau2_us`` (closed-form duration if not given), transferring to
    the Rydberg Bell state r+. Pulse 3 drives all four channels at
    ``omega_pulse3_khz`` for ``tau3_us`` (a pi time 1/(2 omega) if not
    given), carrying r+ to the Bell ground state. Fidelity is the g+
    population (phase-dressed when ``phases`` is nonzero; order
    (phi_dU_A, phi_uD_A, phi_dU_B, phi_uD_B)).

    The protocol assumes the hierarchy |V-| >> omega >> |V+|; a warning
    is emitted when it is violated by less than a factor of 5. Drives
    and couplings must be finite, given durations finite and >= 0, and
    ``phases`` four finite numbers.
    """
    try:
        phi = {f"phi_{c}": p for c, p in zip(CHANNELS, phases, strict=True)}
    except (TypeError, ValueError):  # not iterable, or not four long
        raise ValueError(f"phases must be four numbers, one per channel, got {phases!r}") from None
    for p in phi.values():
        _require_finite("phases", p)
    _require_finite("v_plus_khz", v_plus_khz)
    _require_finite("v_minus_khz", v_minus_khz)
    _require_finite("omega_pulse2_khz", omega_pulse2_khz)
    _require_finite("omega_pulse3_khz", omega_pulse3_khz)
    if tau2_us is not None:
        _require_finite("tau2_us", tau2_us, 0.0)
    if tau3_us is not None:
        _require_finite("tau3_us", tau3_us, 0.0)
    else:
        tau3_us = _half_period("omega_pulse3_khz", omega_pulse3_khz)
    omegas = (abs(omega_pulse2_khz), abs(omega_pulse3_khz))
    if abs(v_minus_khz) < 5.0 * max(omegas) or min(omegas) < 5.0 * abs(v_plus_khz):
        warnings.warn(
            "outside the working hierarchy |V-| >> omega >> |V+|: "
            f"V-={v_minus_khz:.3g} kHz, omegas={omegas}, V+={v_plus_khz:.3g} kHz",
            stacklevel=2,
        )
    if tau2_us is None:
        tau2_us = pulse2_analytics(omega_pulse2_khz, v_plus_khz, v_minus_khz).tau2_us
    v_s, v_c = _exchange_split(v_plus_khz, v_minus_khz)

    state = QuantumState.from_label(PRODUCT_BASIS_8, "Uu")  # after ideal pulse 1

    pulse2 = PulseSpec(
        omega_uD_B=omega_pulse2_khz, phi_uD_B=phi["phi_uD_B"], duration_us=tau2_us
    )
    h2 = build_full8(pulse2, v_s, v_c)
    t2, a2 = propagate_sampled(state, h2, tau2_us, _SAMPLES_PER_PULSE)
    state = QuantumState(basis=PRODUCT_BASIS_8, amplitudes=a2[-1])

    pulse3 = PulseSpec(
        duration_us=tau3_us, **phi, **{f"omega_{c}": omega_pulse3_khz for c in CHANNELS}
    )
    h3 = build_full8(pulse3, v_s, v_c)
    t3, a3 = propagate_sampled(state, h3, tau3_us, _SAMPLES_PER_PULSE)
    final = a3[-1]

    g_plus = np.zeros(8, dtype=complex)  # <g+|: |du> and |ud> dressed as pulse 3 drives them
    g_plus[0] = _phasor(phi["phi_dU_A"] + phi["phi_uD_B"]).conjugate() / _SQRT2
    g_plus[1] = _phasor(phi["phi_uD_A"] + phi["phi_dU_B"]).conjugate() / _SQRT2
    fidelity = float(abs(g_plus @ final) ** 2)
    exposure, thresholded = _exposure((t2, a2), (t3, a3))
    trajectory = None
    if keep_trajectory:
        times = np.concatenate([t2, tau2_us + t3[1:]])
        amps = np.concatenate([a2, a3[1:]], axis=0)
        trajectory = Trajectory(
            times_us=times,
            amplitudes=amps,
            pulse_boundaries_us=(0.0, tau2_us, tau2_us + tau3_us),
        )
    return ProtocolResult(
        fidelity=fidelity,
        per_pulse_durations_us=(0.0, tau2_us, tau3_us),
        total_rydberg_time_us=thresholded,
        rydberg_exposure_us=exposure,
        omega_pulse2_khz=omega_pulse2_khz,
        omega_pulse3_khz=omega_pulse3_khz,
        tau2_us=tau2_us,
        tau3_us=tau3_us,
        trajectory=trajectory,
    )


class PairwiseOptimum(NamedTuple):
    """Best run found by ``optimize_pairwise``: ``result`` carries its drives and durations."""

    result: ProtocolResult
    start_fidelity: float
    converged: bool


def optimize_pairwise(
    v_plus_khz: float,
    v_minus_khz: float,
    seed: int = 0,
    restarts: int = 10,
) -> PairwiseOptimum:
    """Maximize pairwise fidelity over (omega2, omega3, tau2, tau3).

    Restarted Nelder-Mead inside the box of 0.5-3x the working drive and 0.25-2x
    its durations: the first start is the working point (omega2 = omega3 =
    sqrt|V+ V-| with closed-form durations), the rest are drawn uniformly from the
    box as ``np.random.Generator(np.random.Philox(seed))`` draws them
    (``optimizer._restart_points``), so results are deterministic for a seed. The
    restarts take scipy's Nelder-Mead steps (xatol 1e-6, fatol 1e-9, maxiter 400)
    bit for bit on plain floats, in lockstep (``optimizer._lockstep_nelder_mead``), each
    round scored in one stacked batch (``_sector_fidelities``); ``converged`` if any stops
    on its tolerance test. The start and the result run the 8-state
    ``pairwise_entangle``, and the result is never below the start. ``seed`` is an
    int >= 0 and ``restarts`` an int from 1 to MAX_RESTARTS.
    """
    _require_finite("v_plus_khz", v_plus_khz)
    _require_finite("v_minus_khz", v_minus_khz)
    seed = _require_int("seed", seed, 0)
    _require_int("restarts", restarts, 1, MAX_RESTARTS)
    from .optimizer import _lockstep_nelder_mead, _restart_points

    omega, tau2, tau3 = _nominal_point(v_plus_khz, v_minus_khz)  # all > 0
    start = np.array([omega, omega, tau2, tau3])
    lo, hi = start * np.array([0.5, 0.5, 0.25, 0.25]), start * np.array([3.0, 3.0, 2.0, 2.0])

    def run(x: np.ndarray) -> ProtocolResult:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return pairwise_entangle(x[0], x[1], v_plus_khz, v_minus_khz,
                                     tau2_us=x[2], tau3_us=x[3])

    at_start = run(start)
    starts = [start, *_restart_points(seed, restarts - 1, lo.tolist(), hi.tolist())]
    best_x, converged = _lockstep_nelder_mead(starts, lo, hi, 1e-6, v_plus_khz, v_minus_khz)

    final = run(best_x)
    if final.fidelity < at_start.fidelity:  # the sectors' rounding picked a worse point
        final = at_start
    return PairwiseOptimum(result=final, start_fidelity=at_start.fidelity, converged=converged)


class SwapGateResult(NamedTuple):
    """Fidelities of the pi / 2pi / pi SWAP sequence.

    ``basis_fidelities`` maps the ground-spin inputs 'uu', 'ud', 'du',
    'dd' (u = spin up, d = spin down, atom order preserved) to their
    return/transfer probabilities; ``gate_fidelity`` is their mean.
    The ideal sequence realizes SWAP_MATRIX_IDEAL up to a global phase.
    """

    basis_fidelities: dict[str, float]
    gate_fidelity: float
    total_duration_us: float
    rydberg_exposure_us: float
    total_rydberg_time_us: float


def swap_gate(
    omega_khz: float,
    v_plus_khz: float,
    v_minus_khz: float,
    v_blockade_khz: float,
    t_2pi_us: float,
    phi: float = 0.0,
) -> SwapGateResult:
    """Signed-SWAP gate: ideal pi pulses on atom B around a 2pi on atom A.

    The antiparallel inputs pass through the exchange sector (the 2pi
    drive detours |dD> / |uU> through the Rydberg Bell states), the
    parallel inputs sit in a blockaded two-level system with shift
    ``v_blockade_khz`` and ideally just return. Large finite V- and
    V_blockade, such as 1e9 kHz, reach the ideal limit.

    The pre-condition V_blockade >> omega keeps the parallel channels
    closed; a warning is emitted below a factor of 3. The drive, the
    phase and the couplings must be finite, the window finite and >= 0.
    """
    _require_finite("omega_khz", omega_khz)
    _require_finite("t_2pi_us", t_2pi_us, 0.0)
    _require_finite("phi", phi)
    _require_finite("v_plus_khz", v_plus_khz)
    _require_finite("v_minus_khz", v_minus_khz)
    _require_finite("v_blockade_khz", v_blockade_khz)
    if abs(v_blockade_khz) < 3.0 * abs(omega_khz):
        warnings.warn(
            f"blockade shift {v_blockade_khz:.3g} kHz is not large against "
            f"the drive {omega_khz:.3g} kHz; parallel-spin channels leak",
            stacklevel=2,
        )

    # Exchange (antiparallel) channels. Ideal pulse 7 maps du -> dD and
    # ud -> uU; pulse 9 maps the target back. Success amplitude of
    # du -> ud is <uU| U(t) |dD>, and ud -> du is the transpose element.
    h_ex = build_swap_2pi(omega_khz, phi, v_plus_khz, v_minus_khz)
    t_ex, a_ex = propagate_sampled(
        QuantumState.from_label(h_ex.basis, "dD"), h_ex, t_2pi_us, _SAMPLES_PER_PULSE
    )
    fid_du = float(abs(a_ex[-1][h_ex.basis.index("uU")]) ** 2)
    state_uu = QuantumState.from_label(h_ex.basis, "uU")
    final_from_uu = propagate(state_uu, h_ex, t_2pi_us)
    fid_ud = float(final_from_uu.population("dD"))

    # Exposure: atom B is in the Rydberg manifold for the whole 2pi
    # window in every channel; atom A only while on the Bell states
    # (exchange) or the doubly excited blocked state.
    bell_idx = [i for i, b in enumerate(h_ex.basis) if b.startswith("r")]
    exposure_a_ex = _trapezoid(
        (np.abs(a_ex[:, bell_idx]) ** 2).sum(axis=1), float(t_ex[1] - t_ex[0])
    )

    # Blocked (parallel) channels: both have the same corner shift, so
    # one two-level run covers uu and dd.
    h_bl = build_blocked2(omega_khz, phi, v_blockade_khz)
    t_bl, a_bl = propagate_sampled(
        QuantumState.from_label(h_bl.basis, "ground"), h_bl, t_2pi_us, _SAMPLES_PER_PULSE
    )
    fid_block = float(abs(a_bl[-1][0]) ** 2)
    exposure_a_bl = _trapezoid(np.abs(a_bl[:, 1]) ** 2, float(t_bl[1] - t_bl[0]))

    fidelities = {"uu": fid_block, "ud": fid_ud, "du": fid_du, "dd": fid_block}
    blocked = 0.5 * (exposure_a_bl + t_2pi_us)
    exchange = 0.5 * (exposure_a_ex + t_2pi_us)
    return SwapGateResult(
        basis_fidelities=fidelities,
        gate_fidelity=float(sum(fidelities.values()) / 4.0),
        total_duration_us=t_2pi_us,
        rydberg_exposure_us=float((blocked + exchange + exchange + blocked) / 4.0),
        total_rydberg_time_us=t_2pi_us,
    )
