"""Entanglement protocols for Rydberg pairs and chains.

Composes the pulse Hamiltonians into complete protocols:

* ``pairwise_entangle``: the three-pulse sequence taking a ground pair
  |du> to the Bell state g+ through the doubly excited Bell state r+,
* ``optimize_pairwise``: restarted simplex search over the two Rabi
  frequencies and two pulse durations,
* ``swap_gate``: the pi / 2pi / pi sequence realizing a signed SWAP
  between neighboring atoms,
* the chain schedule, ideal chain states, and the decay-limited chain
  fidelity estimate.

Conventions: frequencies in kHz (ordinary), times in microseconds,
decay rates in 1/ms. Ideal pi pulses are instantaneous relabelings;
their phase conventions cancel in every reported population.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .atoms import QuantumDefectModel
from .dynamics import (
    PRODUCT_BASIS_8,
    HamiltonianMatrix,
    PulseSpec,
    QuantumState,
    build_blocked2,
    build_full8,
    build_swap_2pi,
    propagate,
    propagate_sampled,
    pulse2_analytics,
    relabeling_matrix,
)
from .vdw import critical_radius, interaction_matrix

__all__ = [
    "RYDBERG_POPULATION_THRESHOLD",
    "Trajectory",
    "ProtocolResult",
    "pairwise_entangle",
    "PairwiseOptimum",
    "optimize_pairwise",
    "SwapGateResult",
    "swap_gate",
    "SWAP_MATRIX_IDEAL",
    "ChainSpec",
    "SchedulePulse",
    "PulseSchedule",
    "chain_schedule",
    "chain_ideal_state",
    "ChainFidelityEstimate",
    "chain_fidelity_estimate",
    "SpectatorBlockade",
    "spectator_blockade",
]

# A state counts as "in the Rydberg manifold" for duration bookkeeping
# when its total Rydberg population exceeds this threshold.
RYDBERG_POPULATION_THRESHOLD = 1e-3

_SQRT2 = math.sqrt(2.0)

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


def _rydberg_masks(basis: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    mask_a = np.array([1.0 if b[0] in "DU" else 0.0 for b in basis])
    mask_b = np.array([1.0 if b[1] in "DU" else 0.0 for b in basis])
    return mask_a, mask_b


def _trapezoid(values: np.ndarray, dt: float) -> float:
    return float(0.5 * dt * (values[1:] + values[:-1]).sum())


@dataclass(frozen=True)
class Trajectory:
    """Sampled amplitudes of a protocol run, pulses concatenated."""

    basis: tuple[str, ...]
    times_us: np.ndarray
    amplitudes: np.ndarray
    pulse_boundaries_us: tuple[float, ...]


@dataclass(frozen=True)
class _Exposure:
    per_atom_us: float
    thresholded_us: float


def _accumulate_exposure(
    segments: list[tuple[np.ndarray, np.ndarray, tuple[str, ...]]],
) -> _Exposure:
    """Per-atom Rydberg exposure and thresholded Rydberg time.

    ``segments`` holds (times, amplitudes, basis) per pulse, each with
    its own local time axis. Exposure is the two-atom average of
    integral(P_Rydberg dt); the thresholded time counts samples whose
    total Rydberg population exceeds RYDBERG_POPULATION_THRESHOLD.
    """
    exposure = 0.0
    thresholded = 0.0
    for times, amps, basis in segments:
        if len(times) < 2:
            continue
        dt = float(times[1] - times[0])
        pops = np.abs(amps) ** 2
        mask_a, mask_b = _rydberg_masks(basis)
        p_a = pops @ mask_a
        p_b = pops @ mask_b
        exposure += 0.5 * (_trapezoid(p_a, dt) + _trapezoid(p_b, dt))
        total = p_a + p_b
        thresholded += dt * float(
            np.count_nonzero(total[:-1] > RYDBERG_POPULATION_THRESHOLD)
        )
    return _Exposure(per_atom_us=exposure, thresholded_us=thresholded)


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of one protocol run.

    ``total_rydberg_time_us`` is the sampled duration with total
    Rydberg population above RYDBERG_POPULATION_THRESHOLD (used as the
    decay-exposure default); ``rydberg_exposure_us`` is the per-atom
    time integral of Rydberg population, the quantity that multiplies a
    per-atom decay rate in chain estimates.
    """

    fidelity: float
    per_pulse_durations_us: tuple[float, ...]
    total_rydberg_time_us: float
    rydberg_exposure_us: float
    omega_pulse2_khz: float
    omega_pulse3_khz: float
    tau2_us: float
    tau3_us: float
    v_plus_khz: float
    v_minus_khz: float
    trajectory: Trajectory | None = None


def pairwise_entangle(
    omega_pulse2_khz: float,
    omega_pulse3_khz: float,
    v_plus_khz: float,
    v_minus_khz: float,
    tau2_us: float | None = None,
    tau3_us: float | None = None,
    phases: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0),
    samples_per_pulse: int = 400,
    keep_trajectory: bool = False,
    warn_regime: bool = True,
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
    is emitted when it is violated by less than a factor of 5.
    """
    if warn_regime:
        omegas = (abs(omega_pulse2_khz), abs(omega_pulse3_khz))
        if abs(v_minus_khz) < 5.0 * max(omegas) or min(omegas) < 5.0 * abs(v_plus_khz):
            warnings.warn(
                "outside the working hierarchy |V-| >> omega >> |V+|: "
                f"V-={v_minus_khz:.3g} kHz, omegas={omegas}, V+={v_plus_khz:.3g} kHz",
                stacklevel=2,
            )
    if tau2_us is None:
        tau2_us = pulse2_analytics(omega_pulse2_khz, v_plus_khz, v_minus_khz).tau2_us
    if tau3_us is None:
        tau3_us = 1e3 / (2.0 * omega_pulse3_khz)
    phi_a, phi_as, phi_b, phi_bs = phases
    v_s = (v_plus_khz + v_minus_khz) / 2.0
    v_c = (v_plus_khz - v_minus_khz) / 2.0

    n = max(2, samples_per_pulse)
    state = QuantumState.from_label(PRODUCT_BASIS_8, "Uu")  # after ideal pulse 1

    pulse2 = PulseSpec(
        omega_uD_B=omega_pulse2_khz,
        phi_uD_B=phi_bs,
        duration_us=tau2_us,
        channel_mask=frozenset({"uD_B"}),
    )
    h2 = build_full8(pulse2, v_s, v_c)
    t2, a2 = propagate_sampled(state, h2, tau2_us, n)
    state = QuantumState(basis=PRODUCT_BASIS_8, amplitudes=a2[-1])

    pulse3 = PulseSpec(
        omega_dU_A=omega_pulse3_khz,
        omega_uD_A=omega_pulse3_khz,
        omega_dU_B=omega_pulse3_khz,
        omega_uD_B=omega_pulse3_khz,
        phi_dU_A=phi_a,
        phi_uD_A=phi_as,
        phi_dU_B=phi_b,
        phi_uD_B=phi_bs,
        duration_us=tau3_us,
    )
    h3 = build_full8(pulse3, v_s, v_c)
    t3, a3 = propagate_sampled(state, h3, tau3_us, n)
    final = a3[-1]

    relabel = relabeling_matrix(
        phi_dU_A=phi_a, phi_uD_A=phi_as, phi_dU_B=phi_b, phi_uD_B=phi_bs
    )
    g_plus_row = relabel[0]  # SUPERPOSITION_BASIS_8 starts with g+
    fidelity = float(abs(g_plus_row @ final) ** 2)

    exposure = _accumulate_exposure(
        [(t2, a2, PRODUCT_BASIS_8), (t3, a3, PRODUCT_BASIS_8)]
    )
    trajectory = None
    if keep_trajectory:
        times = np.concatenate([t2, tau2_us + t3[1:]])
        amps = np.concatenate([a2, a3[1:]], axis=0)
        trajectory = Trajectory(
            basis=PRODUCT_BASIS_8,
            times_us=times,
            amplitudes=amps,
            pulse_boundaries_us=(0.0, tau2_us, tau2_us + tau3_us),
        )
    return ProtocolResult(
        fidelity=fidelity,
        per_pulse_durations_us=(0.0, tau2_us, tau3_us),
        total_rydberg_time_us=exposure.thresholded_us,
        rydberg_exposure_us=exposure.per_atom_us,
        omega_pulse2_khz=omega_pulse2_khz,
        omega_pulse3_khz=omega_pulse3_khz,
        tau2_us=tau2_us,
        tau3_us=tau3_us,
        v_plus_khz=v_plus_khz,
        v_minus_khz=v_minus_khz,
        trajectory=trajectory,
    )


@dataclass(frozen=True)
class PairwiseOptimum:
    """Best parameters found by ``optimize_pairwise``."""

    omega_pulse2_khz: float
    omega_pulse3_khz: float
    tau2_us: float
    tau3_us: float
    result: ProtocolResult
    start_fidelity: float
    converged: bool


_BOUND_KEYS = ("omega_pulse2", "omega_pulse3", "tau2", "tau3")


def _default_bounds(v_plus: float, v_minus: float) -> dict[str, tuple[float, float]]:
    base = math.sqrt(abs(v_plus * v_minus))
    tau2_base = pulse2_analytics(base, v_plus, v_minus).tau2_us
    tau3_base = 1e3 / (2.0 * base)
    return {
        "omega_pulse2": (0.5 * base, 3.0 * base),
        "omega_pulse3": (0.5 * base, 3.0 * base),
        "tau2": (0.25 * tau2_base, 2.0 * tau2_base),
        "tau3": (0.25 * tau3_base, 2.0 * tau3_base),
    }


def optimize_pairwise(
    v_plus_khz: float,
    v_minus_khz: float,
    bounds: dict[str, tuple[float, float]] | None = None,
    seed: int = 0,
    restarts: int = 10,
    tol: float = 1e-6,
) -> PairwiseOptimum:
    """Maximize pairwise fidelity over (omega2, omega3, tau2, tau3).

    Restarted Nelder-Mead inside box bounds: the first start is the
    analytic point (omega2 = omega3 = sqrt|V+ V-| with closed-form
    durations, clipped into the box), the remaining starts are drawn
    uniformly from the box with a counter-based generator, so results
    are deterministic for a given seed. The returned fidelity is never
    below the starting point's. Bounds default to ``_default_bounds``;
    pass single-point intervals to pin parameters.
    """
    box = _default_bounds(v_plus_khz, v_minus_khz)
    if bounds:
        unknown = set(bounds) - set(_BOUND_KEYS)
        if unknown:
            raise ValueError(f"unknown bound keys {sorted(unknown)}")
        box.update(bounds)
    lo = np.array([box[k][0] for k in _BOUND_KEYS])
    hi = np.array([box[k][1] for k in _BOUND_KEYS])
    if np.any(lo > hi):
        raise ValueError("empty bounds box")

    best: dict = {"x": None, "fid": -1.0}

    def objective(x: np.ndarray) -> float:
        if np.any(x < lo) or np.any(x > hi):
            return 2.0
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = pairwise_entangle(
                x[0], x[1], v_plus_khz, v_minus_khz,
                tau2_us=x[2], tau3_us=x[3],
                samples_per_pulse=2, warn_regime=False,
            )
        if res.fidelity > best["fid"]:
            best["fid"] = res.fidelity
            best["x"] = np.array(x)
        return 1.0 - res.fidelity

    base = math.sqrt(abs(v_plus_khz * v_minus_khz))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        start = np.array(
            [
                base,
                base,
                pulse2_analytics(base, v_plus_khz, v_minus_khz).tau2_us,
                1e3 / (2.0 * base),
            ]
        )
    start = np.clip(start, lo, hi)
    start_fid = 1.0 - objective(start)

    converged = False
    if np.any(hi > lo):
        from scipy import optimize as _sciopt  # heavy; only the search needs it

        rng = np.random.Generator(np.random.Philox(seed))
        starts = [start] + [rng.uniform(lo, hi) for _ in range(restarts - 1)]
        for x0 in starts:
            res = _sciopt.minimize(
                objective,
                x0,
                method="Nelder-Mead",
                options={"xatol": tol, "fatol": 1e-9, "maxiter": 400},
            )
            converged = converged or bool(res.success)
    else:
        converged = True  # degenerate box: nothing to search

    x = best["x"]
    final = pairwise_entangle(
        x[0], x[1], v_plus_khz, v_minus_khz,
        tau2_us=x[2], tau3_us=x[3],
        warn_regime=False,
    )
    return PairwiseOptimum(
        omega_pulse2_khz=float(x[0]),
        omega_pulse3_khz=float(x[1]),
        tau2_us=float(x[2]),
        tau3_us=float(x[3]),
        result=final,
        start_fidelity=start_fid,
        converged=converged,
    )


@dataclass(frozen=True)
class SwapGateResult:
    """Fidelities of the pi / 2pi / pi SWAP sequence.

    ``basis_fidelities`` maps the ground-spin inputs 'uu', 'ud', 'du',
    'dd' (u = spin up, d = spin down, atom order preserved) to their
    return/transfer probabilities; ``gate_fidelity`` is their mean.
    ``gate_matrix_ideal`` is the signed SWAP the ideal sequence
    realizes up to a global phase.
    """

    basis_fidelities: dict[str, float]
    gate_fidelity: float
    gate_matrix_ideal: np.ndarray
    total_duration_us: float
    rydberg_exposure_us: float
    total_rydberg_time_us: float


def swap_gate(
    omega_khz: float,
    v_plus_khz: float | None,
    v_minus_khz: float | None,
    v_blockade_khz: float,
    t_2pi_us: float,
    phi: float = 0.0,
    samples_per_pulse: int = 400,
) -> SwapGateResult:
    """Signed-SWAP gate: ideal pi pulses on atom B around a 2pi on atom A.

    The antiparallel inputs pass through the exchange sector (the 2pi
    drive detours |dD> / |uU> through the Rydberg Bell states), the
    parallel inputs sit in a blockaded two-level system with shift
    ``v_blockade_khz`` and ideally just return. Pass ``v_minus_khz
    = None`` to decouple the antisymmetric Bell state (ideal-limit
    check), and ``v_blockade_khz = inf`` for a perfect blockade.

    The pre-condition V_blockade >> omega keeps the parallel channels
    closed; a warning is emitted below a factor of 3.
    """
    if not math.isinf(v_blockade_khz) and abs(v_blockade_khz) < 3.0 * abs(omega_khz):
        warnings.warn(
            f"blockade shift {v_blockade_khz:.3g} kHz is not large against "
            f"the drive {omega_khz:.3g} kHz; parallel-spin channels leak",
            stacklevel=2,
        )
    n = max(2, samples_per_pulse)

    # Exchange (antiparallel) channels. Ideal pulse 7 maps du -> dD and
    # ud -> uU; pulse 9 maps the target back. Success amplitude of
    # du -> ud is <uU| U(t) |dD>, and ud -> du is the transpose element.
    if v_minus_khz is None:
        # r- is sliced away, so the V- passed here never enters
        full = build_swap_2pi(omega_khz, phi, v_plus_khz or 0.0, 0.0)
        h_ex = HamiltonianMatrix(basis=full.basis[:3], matrix=full.matrix[:3, :3])
    else:
        h_ex = build_swap_2pi(omega_khz, phi, v_plus_khz, v_minus_khz)

    t_ex, a_ex_from_dd = propagate_sampled(
        QuantumState.from_label(h_ex.basis, "dD"), h_ex, t_2pi_us, n
    )
    fid_du = float(abs(a_ex_from_dd[-1][h_ex.basis.index("uU")]) ** 2)
    state_uu = QuantumState.from_label(h_ex.basis, "uU")
    final_from_uu = propagate(state_uu, h_ex, t_2pi_us)
    fid_ud = float(final_from_uu.population("dD"))

    # Blocked (parallel) channels: both have the same corner shift, so
    # one two-level run covers uu and dd.
    if math.isinf(v_blockade_khz):
        fid_block = 1.0
        t_bl = np.linspace(0.0, t_2pi_us, n)
        a_bl = np.zeros((n, 2), dtype=complex)
        a_bl[:, 0] = 1.0
    else:
        h_bl = build_blocked2(omega_khz, phi, v_blockade_khz)
        t_bl, a_bl = propagate_sampled(
            QuantumState.from_label(h_bl.basis, "ground"), h_bl, t_2pi_us, n
        )
        fid_block = float(abs(a_bl[-1][0]) ** 2)

    fidelities = {"uu": fid_block, "ud": fid_ud, "du": fid_du, "dd": fid_block}

    # Exposure: atom B is in the Rydberg manifold for the whole 2pi
    # window in every channel; atom A only while on the Bell states
    # (exchange) or the doubly excited blocked state.
    dt_ex = float(t_ex[1] - t_ex[0])
    pops_ex = np.abs(a_ex_from_dd) ** 2
    bell_idx = [i for i, b in enumerate(h_ex.basis) if b.startswith("r")]
    exposure_a_ex = _trapezoid(pops_ex[:, bell_idx].sum(axis=1), dt_ex)
    dt_bl = float(t_bl[1] - t_bl[0])
    exposure_a_bl = _trapezoid(np.abs(a_bl[:, 1]) ** 2, dt_bl)
    per_channel = {
        "uu": 0.5 * (exposure_a_bl + t_2pi_us),
        "ud": 0.5 * (exposure_a_ex + t_2pi_us),
        "du": 0.5 * (exposure_a_ex + t_2pi_us),
        "dd": 0.5 * (exposure_a_bl + t_2pi_us),
    }
    exposure = sum(per_channel.values()) / 4.0

    return SwapGateResult(
        basis_fidelities=fidelities,
        gate_fidelity=float(sum(fidelities.values()) / 4.0),
        gate_matrix_ideal=SWAP_MATRIX_IDEAL.copy(),
        total_duration_us=t_2pi_us,
        rydberg_exposure_us=float(exposure),
        total_rydberg_time_us=t_2pi_us,
    )


@dataclass(frozen=True)
class ChainSpec:
    """Parameters of the chain protocol.

    ``atom_count`` must be 4, 6, or a multiple of 4. Omega and duration
    overrides are optional; ``chain_schedule`` fills them from the
    nominal working point sqrt|V+ V-| when absent.
    """

    atom_count: int
    spacing_um: float
    pair: tuple[int, int]
    gamma_per_ms: float = 0.0
    omega_pulse2_khz: float | None = None
    omega_pulse3_khz: float | None = None
    omega_swap_khz: float | None = None
    swap_duration_us: float | None = None

    def __post_init__(self) -> None:
        ok = self.atom_count == 6 or (
            self.atom_count >= 4 and self.atom_count % 4 == 0
        )
        if not ok:
            raise ValueError(
                f"atom_count must be 4, 6, or a multiple of 4, got {self.atom_count}"
            )
        if self.spacing_um <= 0:
            raise ValueError(f"spacing must be positive, got {self.spacing_um}")
        if self.gamma_per_ms < 0:
            raise ValueError(f"decay rate must be >= 0, got {self.gamma_per_ms}")


@dataclass(frozen=True)
class SchedulePulse:
    """One pulse slot of the chain schedule.

    ``targets`` lists the atoms addressed in parallel; ``rydberg_n``
    the principal quantum number each target couples to.
    """

    step: int
    pulse_index: int
    targets: tuple[str, ...]
    spec: PulseSpec
    rydberg_n: tuple[int, ...]


@dataclass(frozen=True)
class PulseSchedule:
    """The four-step, twelve-slot chain schedule.

    ``step_durations_us`` always has four entries: the step structure
    is fixed, and a 4-atom chain simply leaves the step-4 slot
    unoccupied, so the total duration is independent of chain length.
    """

    atom_count: int
    pulses: tuple[SchedulePulse, ...]
    step_durations_us: tuple[float, float, float, float]

    @property
    def total_duration_us(self) -> float:
        return float(sum(self.step_durations_us))


def _atom_label(position: int) -> str:
    return "ABCD"[position % 4] + str(position // 4 + 1)


def chain_schedule(model: QuantumDefectModel, spec: ChainSpec) -> PulseSchedule:
    """Pulse-by-pulse schedule of the chain protocol.

    Steps: 1 entangles all (A_j, B_j) pairs in parallel (pulses 1-3),
    2 entangles (C_j, D_j) (pulses 4-6), 3 swaps across (B_j, C_j)
    (pulses 7-9), 4 swaps across (D_j, A_{j+1}) (pulses 10-12). The pi
    pulses are ideal (zero-duration) maps; step durations are set by
    pulse 2, pulse 3 and the 2pi windows, independent of chain length.
    """
    n_a, n_b = spec.pair
    lc = critical_radius(model, n_a, n_b).radius_um
    if spec.spacing_um <= lc:
        raise ValueError(
            f"spacing {spec.spacing_um} um must exceed the critical radius "
            f"{lc:.2f} um of the ({n_a}, {n_b}) pair"
        )
    inter = interaction_matrix(model, n_a, n_b, spec.spacing_um)
    v_plus = inter.vs_khz + inter.vc_khz
    v_minus = inter.vs_khz - inter.vc_khz
    base = math.sqrt(abs(v_plus * v_minus))
    omega2 = spec.omega_pulse2_khz if spec.omega_pulse2_khz is not None else base
    omega3 = spec.omega_pulse3_khz if spec.omega_pulse3_khz is not None else base
    omega_swap = (
        spec.omega_swap_khz if spec.omega_swap_khz is not None else 1.5 * base
    )
    t_swap = (
        spec.swap_duration_us
        if spec.swap_duration_us is not None
        else 1e3 / omega_swap
    )
    tau2 = pulse2_analytics(omega2, v_plus, v_minus).tau2_us
    tau3 = 1e3 / (2.0 * omega3)

    positions = list(range(spec.atom_count))
    n_of = {p: (n_a if p % 2 == 0 else n_b) for p in positions}

    def pair_positions(first_offset: int) -> list[tuple[int, int]]:
        out = []
        for p in range(first_offset, spec.atom_count - 1, 4):
            out.append((p, p + 1))
        return out

    step_pairs = {
        1: pair_positions(0),  # (A_j, B_j)
        2: pair_positions(2),  # (C_j, D_j)
        3: [(p, p + 1) for p in range(1, spec.atom_count - 1, 4)],  # (B_j, C_j)
        4: [(p, p + 1) for p in range(3, spec.atom_count - 1, 4)],  # (D_j, A_j+1)
    }

    def pi_spec(channels: frozenset) -> PulseSpec:
        # ideal instantaneous pi map; amplitudes recorded as the nominal
        # drive for bookkeeping, duration zero
        amps = {f"omega_{c}": omega3 for c in channels}
        return PulseSpec(duration_us=0.0, channel_mask=channels, **amps)

    pulses: list[SchedulePulse] = []
    for step, pairs in step_pairs.items():
        if not pairs:
            continue
        firsts = tuple(_atom_label(a) for a, _ in pairs)
        seconds = tuple(_atom_label(b) for _, b in pairs)
        n_firsts = tuple(n_of[a] for a, _ in pairs)
        n_seconds = tuple(n_of[b] for _, b in pairs)
        base_index = (step - 1) * 3
        if step in (1, 2):
            # pairwise entanglement: pi on the first atom, pulse 2 on
            # the second, pulse 3 on both
            pulses.append(
                SchedulePulse(step, base_index + 1, firsts,
                              pi_spec(frozenset({"dU_A"})), n_firsts)
            )
            pulses.append(
                SchedulePulse(
                    step, base_index + 2, seconds,
                    PulseSpec(omega_uD_B=omega2, duration_us=tau2,
                              channel_mask=frozenset({"uD_B"})),
                    n_seconds,
                )
            )
            pulses.append(
                SchedulePulse(
                    step, base_index + 3, firsts + seconds,
                    PulseSpec(
                        omega_dU_A=omega3, omega_uD_A=omega3,
                        omega_dU_B=omega3, omega_uD_B=omega3,
                        duration_us=tau3,
                    ),
                    n_firsts + n_seconds,
                )
            )
        else:
            # SWAP: pi pulses on the second atom around a 2pi on the first
            b_channels = frozenset({"dU_B", "uD_B"})
            a_channels = frozenset({"dU_A", "uD_A"})
            pulses.append(
                SchedulePulse(step, base_index + 1, seconds,
                              pi_spec(b_channels), n_seconds)
            )
            pulses.append(
                SchedulePulse(
                    step, base_index + 2, firsts,
                    PulseSpec(omega_dU_A=omega_swap, omega_uD_A=omega_swap,
                              duration_us=t_swap, channel_mask=a_channels),
                    n_firsts,
                )
            )
            pulses.append(
                SchedulePulse(step, base_index + 3, seconds,
                              pi_spec(b_channels), n_seconds)
            )
    return PulseSchedule(
        atom_count=spec.atom_count,
        pulses=tuple(pulses),
        step_durations_us=(tau2 + tau3, tau2 + tau3, t_swap, t_swap),
    )


def _ground_basis(atom_count: int) -> tuple[str, ...]:
    return tuple(
        "".join(bits) for bits in itertools.product("ud", repeat=atom_count)
    )


def _apply_signed_swap(
    basis: tuple[str, ...], amps: np.ndarray, i: int, j: int, physical: bool
) -> np.ndarray:
    """Apply the signed SWAP to atoms i, j of a ground product state.

    ``physical=True`` applies the pulse-composition map (swap with -1,
    parallel spins +1, i.e. -SWAP_MATRIX_IDEAL); ``physical=False``
    applies SWAP_MATRIX_IDEAL itself.
    """
    out = np.zeros_like(amps)
    for idx, label in enumerate(basis):
        if amps[idx] == 0:
            continue
        si, sj = label[i], label[j]
        if si == sj:
            sign = -1.0 if not physical else 1.0
            out[idx] += sign * amps[idx]
        else:
            swapped = label[:i] + sj + label[i + 1 : j] + si + label[j + 1 :]
            sign = 1.0 if not physical else -1.0
            out[basis.index(swapped)] += sign * amps[idx]
    return out


def chain_ideal_state(atom_count: int) -> QuantumState:
    """Exact chain target state from the ideal pulse maps.

    Starts from the product of Bell pairs g+ produced by steps 1 and 2
    and applies the composed SWAP pulse maps (pi, 2pi lambda with its
    -1 phases, blockade-protected identity) across the linking pairs.
    Only the 4- and 6-atom cases have printed closed forms; larger
    chains follow the same construction but are not enumerated here.
    """
    if atom_count not in (4, 6):
        raise ValueError(f"closed-form chain state only for 4 or 6 atoms, got {atom_count}")
    basis = _ground_basis(atom_count)
    bell = np.zeros(4)
    bell[1] = bell[2] = 1.0 / _SQRT2  # (|du> + |ud>)/sqrt(2) on one pair
    amps = bell
    for _ in range(atom_count // 2 - 1):
        amps = np.kron(amps, bell)
    amps = amps.astype(complex)
    for link in range(1, atom_count - 1, 2):
        amps = _apply_signed_swap(basis, amps, link, link + 1, physical=True)
    return QuantumState(basis=basis, amplitudes=amps)


def _chain_state_by_gate_matrix(atom_count: int) -> QuantumState:
    """Alternative construction: compose Bell pairs with SWAP_MATRIX_IDEAL.

    Differs from ``chain_ideal_state`` by at most a global sign; used
    as an independent cross-check of the chain algebra.
    """
    basis = _ground_basis(atom_count)
    bell = np.zeros(4)
    bell[1] = bell[2] = 1.0 / _SQRT2
    amps = bell
    for _ in range(atom_count // 2 - 1):
        amps = np.kron(amps, bell)
    amps = amps.astype(complex)
    for link in range(1, atom_count - 1, 2):
        amps = _apply_signed_swap(basis, amps, link, link + 1, physical=False)
    return QuantumState(basis=basis, amplitudes=amps)


@dataclass(frozen=True)
class ChainFidelityEstimate:
    """Closed-form decay-limited chain fidelity.

    ``fidelity = (F1 e^{-2 gamma tau})^P (F_swap e^{-2 gamma tau})^S``
    with P pairwise and S SWAP operations; ``linear_error`` is the
    first-order expansion of 1 - fidelity.
    """

    fidelity: float
    linear_error: float
    gamma_tau: float
    pairwise_ops: int
    swap_ops: int


def chain_fidelity_estimate(
    spec: ChainSpec,
    f1: float,
    f_swap: float,
    tau_us: float | None = None,
) -> ChainFidelityEstimate:
    """Estimate the entangled-chain fidelity including Rydberg decay.

    ``tau_us`` is the per-operation Rydberg exposure per atom; each
    operation involves two atoms, hence the 2 gamma tau per factor.
    When no simulated exposure is available the nominal 10 us operation
    scale is used. Warns when gamma tau approaches 1 (the exponential
    estimate stops being a small correction).
    """
    if not 0.0 <= f1 <= 1.0 or not 0.0 <= f_swap <= 1.0:
        raise ValueError("fidelities must lie in [0, 1]")
    if tau_us is None:
        tau_us = 10.0
    gamma_tau = spec.gamma_per_ms * tau_us * 1e-3
    if gamma_tau >= 1.0:
        warnings.warn(
            f"gamma tau = {gamma_tau:.3g} is not small; the decay estimate "
            "is outside its domain",
            stacklevel=2,
        )
    pairwise_ops = spec.atom_count // 2
    swap_ops = spec.atom_count // 2 - 1
    decay = math.exp(-2.0 * gamma_tau)
    fidelity = (f1 * decay) ** pairwise_ops * (f_swap * decay) ** swap_ops
    linear_error = (
        pairwise_ops * (1.0 - f1)
        + swap_ops * (1.0 - f_swap)
        + 2.0 * gamma_tau * (pairwise_ops + swap_ops)
    )
    return ChainFidelityEstimate(
        fidelity=float(fidelity),
        linear_error=float(linear_error),
        gamma_tau=float(gamma_tau),
        pairwise_ops=pairwise_ops,
        swap_ops=swap_ops,
    )


@dataclass(frozen=True)
class SpectatorBlockade:
    """Strongest parasitic blockade between parallel operations."""

    shift_khz: float
    separation_um: float
    v_plus_khz: float
    ratio_to_v_plus: float
    negligible: bool


def spectator_blockade(
    model: QuantumDefectModel, spec: ChainSpec
) -> SpectatorBlockade:
    """Blockade shift between simultaneously excited non-partner atoms.

    In every parallel step the closest simultaneously excited atoms of
    different pairs are 3 lattice spacings apart and share the same
    spin projection, so the relevant coefficient is the corner of the
    direct interaction block. The shift is flagged negligible when it
    is below 20% of V+, the smallest intra-pair scale.
    """
    inter = interaction_matrix(model, spec.pair[0], spec.pair[1], spec.spacing_um)
    corner_khz = float(inter.v1_khz[0, 0])
    separation = 3.0 * spec.spacing_um
    shift = corner_khz / 3.0**6
    v_plus = inter.vs_khz + inter.vc_khz
    ratio = abs(shift / v_plus) if v_plus != 0 else math.inf
    return SpectatorBlockade(
        shift_khz=shift,
        separation_um=separation,
        v_plus_khz=float(v_plus),
        ratio_to_v_plus=float(ratio),
        negligible=bool(ratio < 0.2),
    )
