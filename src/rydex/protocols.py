"""Entanglement protocols for Rydberg pairs and chains.

Composes the pulse Hamiltonians into complete protocols:

* ``pair_couplings``: V+, V- and the blockade corner of a pair, whose
  working drive omega = sqrt|V+ V-| sets every protocol default,
* ``pairwise_entangle``: the three-pulse sequence taking a ground pair
  |du> to the Bell state g+ through the doubly excited Bell state r+,
* ``optimize_pairwise``: restarted simplex search over the two Rabi
  frequencies and two pulse durations,
* ``swap_gate``: the pi / 2pi / pi sequence realizing a signed SWAP
  between neighboring atoms,
* the chain schedule, ideal chain states, the decay-limited chain
  fidelity estimate, and ``chain_protocol`` composing them all.

Conventions: frequencies in kHz (ordinary), times in microseconds,
decay rates in 1/ms. Ideal pi pulses are instantaneous relabelings;
their phase conventions cancel in every reported population.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .atoms import QuantumDefectModel, _require_finite, _require_int
from .dynamics import (
    CHANNELS,
    PRODUCT_BASIS_8,
    PulseSpec,
    QuantumState,
    _evolve,
    _phasor,
    _pulse2_matrices,
    _pulse3_matrices,
    build_blocked2,
    build_full8,
    build_swap_2pi,
    propagate,
    propagate_sampled,
    pulse2_analytics,
)
from .vdw import critical_radius, interaction_matrix

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
    "ChainSpec",
    "SchedulePulse",
    "PulseSchedule",
    "chain_ideal_state",
    "ChainFidelityEstimate",
    "chain_fidelity_estimate",
    "SpectatorBlockade",
    "ChainResult",
    "chain_protocol",
]

# A state counts as "in the Rydberg manifold" for duration bookkeeping
# when its total Rydberg population exceeds this threshold.
RYDBERG_POPULATION_THRESHOLD = 1e-3

# Largest chain a ChainSpec accepts: its operation counts and their sums are exact floats
MAX_CHAIN_ATOMS = 2**53
# Most restarts optimize_pairwise takes: each costs about 4 ms (2-core x86 VM), and
# the starts are drawn before the first step
MAX_RESTARTS = 1000

_SQRT2 = math.sqrt(2.0)

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


def _half_period(name: str, omega_khz: float) -> float:
    """Pulse-3 pi time 1/(2 omega) in us for drive ``name`` in kHz."""
    if omega_khz == 0:
        raise ValueError(f"{name} must be nonzero to derive its half period")
    if omega_khz < 0:
        raise ValueError(f"{name} must be positive to derive its half period, got {omega_khz}")
    return 1e3 / (2.0 * omega_khz)


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
    if t_2pi is None and omega_swap == 0:
        raise ValueError("SWAP drive omega_khz must be nonzero to derive t_2pi_us")
    if t_2pi is None and omega_swap < 0:
        raise ValueError(f"SWAP drive omega_khz must be positive to derive t_2pi_us, "
                         f"got {omega_swap}")
    return omega_swap, 1e3 / omega_swap if t_2pi is None else t_2pi


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
    and couplings must be finite, given durations finite and >= 0.
    """
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
    phi = {f"phi_{c}": p for c, p in zip(CHANNELS, phases, strict=True)}
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


_UU_3, _G_PLUS_4 = np.eye(3)[0], np.eye(4)[3]  # |Uu> and |g+> in their pulse's sector


def _sector_fidelities(x: np.ndarray, v_plus_khz: float, v_minus_khz: float) -> list[float]:
    """``pairwise_entangle``'s zero-phase fidelity at each row x = (omega2, omega3, tau2,
    tau3) of a (k, 4) array, in its sectors: |Uu> evolves in (Uu, r+, r-), then (a_r+,
    a_Uu/sqrt2, 0, 0) in (r+, e_up+, e_dn+, g+), whose propagator U is symmetric:
    <g+|U|psi> = (U|g+>).psi. One stacked ``np.linalg.eigh`` per pulse, also for k = 0;
    the last product runs row by row on numpy scalars, as a vectorized one rounds
    differently, so each row has its own bits."""
    a = _evolve(_pulse2_matrices(x[:, 0], v_plus_khz, v_minus_khz), _UU_3, x[:, 2])
    u = _evolve(_pulse3_matrices(x[:, 1], v_plus_khz), _G_PLUS_4, x[:, 3])
    return [float(abs(ug[0] * ar[1] + ug[1] * ar[0] / _SQRT2) ** 2) for ar, ug in zip(a, u)]


def _vertex_order(f: list[float]) -> list[int]:
    """``np.argsort(f)``: ``sorted``'s order when the scores are distinct, else numpy's
    own, whose (SIMD) sort may order tied scores differently from a stable one."""
    if len(set(f)) == len(f):
        return sorted(range(len(f)), key=f.__getitem__)
    return np.argsort(np.array(f)).tolist()


def _nelder_mead(x0: list[float], xatol: float, fatol: float):
    """scipy.optimize.minimize's non-adaptive Nelder-Mead (maxiter 400) step for step,
    in plain floats, as a generator: it yields each list of points (lists of n floats)
    it needs scored, is sent their scores, and returns whether it stopped on the
    xatol/fatol test. Every float operation is scipy's, with its rho = 1, chi = 2 and
    psi = sigma = 0.5 written out, on the same operands in the same order, so each
    point has scipy's bits."""
    n = len(x0)
    sim = [x0] + [x0[:k] + [1.05 * x if x != 0 else 0.00025] + x0[k + 1:]
                  for k, x in enumerate(x0)]
    fsim = yield sim
    order = _vertex_order(fsim)  # scipy sorts here and after every iteration; argsort
    sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]  # may reorder ties
    for _ in range(399):  # iterations 1 .. maxiter - 1
        order = _vertex_order(fsim)  # of a sorted list, so sort as often
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
        s0, f0, worst = sim[0], fsim[0], sim[-1]
        # fsim ascends, so its last |f0 - f| is the largest (rounding is monotone)
        if abs(f0 - fsim[-1]) <= fatol and all(
                abs(v - b) <= xatol for s in sim[1:] for v, b in zip(s, s0)):
            return True
        # ((s0 + s1) + s2) + ..., as numpy's reduce over rows adds
        xbar = [functools.reduce(operator.add, column) / n for column in zip(*sim[:-1])]
        xr = [2 * b - w for b, w in zip(xbar, worst)]  # (1 + rho) xbar - rho x_worst
        (fxr,) = yield [xr]
        if fxr < f0:  # expand: (1 + rho chi) xbar - rho chi x_worst
            xe = [3 * b - 2 * w for b, w in zip(xbar, worst)]
            (fxe,) = yield [xe]
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:  # reflect
            sim[-1], fsim[-1] = xr, fxr
        else:  # contract outside or inside, else shrink towards the best vertex
            outside = fxr < fsim[-1]
            xc = ([1.5 * b - 0.5 * w for b, w in zip(xbar, worst)] if outside
                  else [0.5 * b + 0.5 * w for b, w in zip(xbar, worst)])
            (fxc,) = yield [xc]
            if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:
                sim[1:] = [[b + 0.5 * (v - b) for v, b in zip(s, s0)] for s in sim[1:]]
                fsim[1:] = yield sim[1:]
    return False


def _lockstep_nelder_mead(starts: list[np.ndarray], lo: np.ndarray, hi: np.ndarray, tol: float,
                          v_plus_khz: float, v_minus_khz: float) -> tuple[np.ndarray, bool]:
    """A ``_nelder_mead`` on 1 - fidelity from each start, in lockstep: each round scores
    all pending points in one ``_sector_fidelities`` batch, 2 outside [lo, hi] unevaluated.
    Returns the first best point (start by start, then in evaluation order) and whether
    any search stopped on its tolerance test."""
    lo, hi = [float(v) for v in lo], [float(v) for v in hi]
    starts = [[float(v) for v in x0] for x0 in starts]
    searches = [_nelder_mead(x0, tol, 1e-9) for x0 in starts]
    pending = {i: next(search) for i, search in enumerate(searches)}
    best, converged = [(-1.0, x0) for x0 in starts], False  # (fidelity, point) per search
    while pending:
        points = [x for batch in pending.values() for x in batch]
        inside = [all(map(operator.le, lo, x)) and all(map(operator.le, x, hi)) for x in points]
        rows = np.array([x for x, ok in zip(points, inside) if ok]).reshape(-1, len(lo))
        scored = iter(_sector_fidelities(rows, v_plus_khz, v_minus_khz))
        fids = [next(scored) if ok else -math.inf for ok in inside]
        scores, begin = [1.0 - fid if ok else 2.0 for fid, ok in zip(fids, inside)], 0
        for i, batch in list(pending.items()):
            end = begin + len(batch)
            for fid, x in zip(fids[begin:end], batch):
                if fid > best[i][0]:  # the first best of the batch, if strictly better
                    best[i] = (fid, x)
            try:
                pending[i] = searches[i].send(scores[begin:end])
            except StopIteration as stop:
                converged = converged or stop.value
                del pending[i]
            begin = end
    return np.array(max(best, key=lambda entry: entry[0])[1]), converged


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
    box by a counter-based generator, so results are deterministic for a seed. The
    restarts take scipy's Nelder-Mead steps (xatol 1e-6, fatol 1e-9, maxiter 400)
    bit for bit on plain floats, in lockstep (``_lockstep_nelder_mead``), each round
    scored in one stacked batch (``_sector_fidelities``); ``converged`` if any stops
    on its tolerance test. The start and the result run the 8-state
    ``pairwise_entangle``, and the result is never below the start. ``seed`` is an
    int >= 0 and ``restarts`` an int from 1 to MAX_RESTARTS.
    """
    _require_finite("v_plus_khz", v_plus_khz)
    _require_finite("v_minus_khz", v_minus_khz)
    _require_int("seed", seed, 0)
    _require_int("restarts", restarts, 1, MAX_RESTARTS)
    omega, tau2, tau3 = _nominal_point(v_plus_khz, v_minus_khz)  # all > 0
    start = np.array([omega, omega, tau2, tau3])
    lo, hi = start * np.array([0.5, 0.5, 0.25, 0.25]), start * np.array([3.0, 3.0, 2.0, 2.0])

    def run(x: np.ndarray) -> ProtocolResult:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return pairwise_entangle(x[0], x[1], v_plus_khz, v_minus_khz,
                                     tau2_us=x[2], tau3_us=x[3])

    at_start = run(start)
    rng = np.random.Generator(np.random.Philox(seed))
    starts = [start] + [rng.uniform(lo, hi) for _ in range(restarts - 1)]
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


@dataclass(frozen=True)
class ChainSpec:
    """Parameters of the chain protocol.

    ``atom_count`` must be 4, 6, or a multiple of 4, and at most
    MAX_CHAIN_ATOMS = 2**53, the largest count whose N/2 pairwise and
    N/2 - 1 SWAP operations, and their sums, are exact floats; the
    schedule costs the same at every count. ``pair`` is a tuple of two
    ints (n_a, n_b). Every drive and duration follows from the pair's
    working point.
    """

    atom_count: int
    spacing_um: float
    pair: tuple[int, int]
    gamma_per_ms: float = 0.0

    def __post_init__(self) -> None:
        count = _require_int("atom_count", self.atom_count, hi=MAX_CHAIN_ATOMS)
        if not (count == 6 or count >= 4 and count % 4 == 0):
            raise ValueError(f"atom_count must be 4, 6, or a multiple of 4, got {count}")
        _require_finite("spacing_um", self.spacing_um, 0.0, inclusive=False)
        _require_finite("decay rate gamma_per_ms", self.gamma_per_ms, 0.0)
        if not (isinstance(self.pair, tuple) and len(self.pair) == 2) or any(
            isinstance(n, bool) or not isinstance(n, numbers.Integral) for n in self.pair
        ):
            raise ValueError(f"pair must be a tuple of two integers (n_a, n_b), got {self.pair!r}")


class SchedulePulse(NamedTuple):
    """One pulse slot of the chain schedule.

    ``targets`` holds the 0-based positions of the atoms addressed in
    parallel as one stride-4 range per addressed member of a pair: the
    first atoms, then for pulse 3 the second ones. ``rydberg_n`` holds
    the principal quantum number of each range (a stride of 4 keeps it).
    """

    step: int
    pulse_index: int
    targets: tuple[range, ...]
    spec: PulseSpec
    rydberg_n: tuple[int, ...]


class PulseSchedule(NamedTuple):
    """The four-step, twelve-slot chain schedule.

    ``step_durations_us`` always has four entries: the step structure
    is fixed, and a 4-atom chain simply leaves the step-4 slot
    unoccupied, so the total duration is independent of chain length,
    and so is the schedule's size: ranges describe the atoms of a slot.
    """

    pulses: tuple[SchedulePulse, ...]
    step_durations_us: tuple[float, float, float, float]

    @property
    def total_duration_us(self) -> float:
        return float(sum(self.step_durations_us))


def _chain_schedule(model: QuantumDefectModel,
                    spec: ChainSpec) -> tuple[PairCouplings, PulseSchedule]:
    """The pair's couplings and the pulse-by-pulse schedule of the chain
    protocol, the paper's table of four steps with three slots each.

    Steps 1 and 2 entangle every (A_j, B_j), then every (C_j, D_j) pair
    in parallel: pi on the first atom, pulse 2 on the second, pulse 3 on
    both. Steps 3 and 4 SWAP across every (B_j, C_j), then (D_j, A_j+1)
    link: pi on the second atom, 2pi at 1.5 omega on the first, pi on
    the second. The pi pulses are ideal zero-duration maps, so the step
    durations, and the total, do not depend on chain length.
    """
    n_a, n_b = spec.pair
    lc = critical_radius(model, n_a, n_b).radius_um
    if spec.spacing_um <= lc:
        raise ValueError(
            f"spacing {spec.spacing_um} um must exceed the critical radius "
            f"{lc:.2f} um of the ({n_a}, {n_b}) pair"
        )
    coup = pair_couplings(model, n_a, n_b, spec.spacing_um)
    omega, tau2, tau3 = _nominal_point(coup.v_plus_khz, coup.v_minus_khz)
    omega_swap, t_swap = _swap_point(omega)

    # slot: (addressed atoms of each pair, channels, drive, duration)
    first, second, both = (0,), (1,), (0, 1)
    entangle = (
        (first, ("dU_A",), omega, 0.0),
        (second, ("uD_B",), omega, tau2),
        (both, CHANNELS, omega, tau3),
    )
    swap = (
        (second, ("dU_B", "uD_B"), omega, 0.0),
        (first, ("dU_A", "uD_A"), omega_swap, t_swap),
        (second, ("dU_B", "uD_B"), omega, 0.0),
    )
    # step: (position of the first atom of its first pair, slots)
    table = ((0, entangle), (2, entangle), (1, swap), (3, swap))

    pulses: list[SchedulePulse] = []
    for step, (offset, slots) in enumerate(table, start=1):
        for who, channels, drive, duration in slots:
            targets = tuple(range(offset + k, spec.atom_count - 1 + k, 4) for k in who)
            if targets[0]:
                pulses.append(SchedulePulse(
                    step, len(pulses) + 1, targets,
                    PulseSpec(duration_us=duration, **{f"omega_{c}": drive for c in channels}),
                    tuple((n_a, n_b)[(offset + k) % 2] for k in who),
                ))
    return coup, PulseSchedule(
        pulses=tuple(pulses),
        step_durations_us=tuple(sum(slot[3] for slot in slots) for _, slots in table),
    )


def chain_ideal_state(atom_count: int) -> QuantumState:
    """Exact chain target state from the ideal pulse maps.

    Starts from the product of Bell pairs g+ produced by steps 1 and 2
    and applies the composed SWAP pulse maps (pi, 2pi lambda with its
    -1 phases, blockade-protected identity) across the linking pairs:
    antiparallel spins swap and pick up -1, parallel spins are left alone,
    so each link applies -SWAP_MATRIX_IDEAL to its two axes of the spin
    tensor. Only the 4- and 6-atom cases have printed closed forms; larger
    chains follow the same construction but are not enumerated here.
    """
    if _require_int("atom_count", atom_count) not in (4, 6):
        raise ValueError(f"atom_count must be 4 or 6 for a closed-form state, got {atom_count}")
    bell = np.zeros(4)
    bell[1] = bell[2] = 1.0 / _SQRT2  # (|du> + |ud>)/sqrt(2) on one pair
    amps = bell
    for _ in range(atom_count // 2 - 1):
        amps = np.kron(amps, bell)
    spins = amps.astype(complex).reshape((2,) * atom_count)  # one axis per atom, u then d
    swap = -SWAP_MATRIX_IDEAL.reshape(2, 2, 2, 2)  # (out i, out j, in i, in j)
    for link in range(1, atom_count - 1, 2):
        pair = (link, link + 1)
        spins = np.moveaxis(np.tensordot(swap, spins, axes=((2, 3), pair)), (0, 1), pair)
    basis = tuple("".join(bits) for bits in itertools.product("ud", repeat=atom_count))
    return QuantumState(basis=basis, amplitudes=spins.reshape(-1))


class ChainFidelityEstimate(NamedTuple):
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


def _operation_counts(spec: ChainSpec) -> tuple[int, int]:
    """P pairwise operations, one per pair, and S SWAPs, one per link between pairs."""
    return spec.atom_count // 2, spec.atom_count // 2 - 1


def chain_fidelity_estimate(
    spec: ChainSpec,
    f1: float,
    f_swap: float,
    tau_us: float,
) -> ChainFidelityEstimate:
    """Estimate the entangled-chain fidelity including Rydberg decay.

    ``tau_us`` is the per-operation Rydberg exposure per atom; each
    operation involves two atoms, hence the 2 gamma tau per factor.
    The fidelities must lie in [0, 1], the exposure must be finite and
    >= 0, and gamma tau finite. Warns when gamma tau approaches 1 (the
    exponential estimate stops being a small correction).
    """
    for name, fidelity in (("f1", f1), ("f_swap", f_swap)):
        _require_finite(name, fidelity, 0.0)
        if fidelity > 1.0:
            raise ValueError(f"fidelities must lie in [0, 1], got {name} = {fidelity}")
    _require_finite("tau_us", tau_us, 0.0)
    gamma_tau = spec.gamma_per_ms * tau_us * 1e-3
    _require_finite("gamma tau = gamma_per_ms * tau_us", gamma_tau)
    if gamma_tau >= 1.0:
        warnings.warn(
            f"gamma tau = {gamma_tau:.3g} is not small; the decay estimate "
            "is outside its domain",
            stacklevel=2,
        )
    pairwise_ops, swap_ops = _operation_counts(spec)
    decay = math.exp(-2.0 * gamma_tau)
    fidelity = (f1 * decay) ** pairwise_ops * (f_swap * decay) ** swap_ops
    linear_error = (
        pairwise_ops * (1.0 - f1)
        + swap_ops * (1.0 - f_swap)
        + 2.0 * gamma_tau * (pairwise_ops + swap_ops)
    )
    return ChainFidelityEstimate(fidelity=float(fidelity), linear_error=float(linear_error),
                                 gamma_tau=float(gamma_tau), pairwise_ops=pairwise_ops,
                                 swap_ops=swap_ops)


class SpectatorBlockade(NamedTuple):
    """Strongest parasitic blockade between parallel operations."""

    shift_khz: float
    separation_um: float
    ratio_to_v_plus: float
    negligible: bool


def _spectator(spec: ChainSpec, coup: PairCouplings) -> SpectatorBlockade:
    """Blockade shift between simultaneously excited non-partner atoms.

    In every parallel step the closest simultaneously excited atoms of
    different pairs are 3 lattice spacings apart and share the same
    spin projection, so the relevant coefficient is the corner of the
    direct interaction block. The shift is flagged negligible when it
    is below 20% of V+, the smallest intra-pair scale.
    """
    shift = coup.corner_khz / 3.0**6
    v_plus = coup.v_plus_khz
    ratio = abs(shift / v_plus) if v_plus != 0 else math.inf
    return SpectatorBlockade(shift_khz=shift, separation_um=3.0 * spec.spacing_um,
                             ratio_to_v_plus=float(ratio), negligible=bool(ratio < 0.2))


class ChainResult(NamedTuple):
    """What ``chain_protocol`` derived, with the f1, f_swap and tau it used."""

    schedule: PulseSchedule
    estimate: ChainFidelityEstimate
    spectator: SpectatorBlockade
    f1: float
    f_swap: float
    tau_us: float


def chain_protocol(
    model: QuantumDefectModel,
    spec: ChainSpec,
    f1: float | None = None,
    f_swap: float | None = None,
    tau_us: float | None = None,
) -> ChainResult:
    """Schedule, fidelity estimate and spectator shift from one set of couplings.

    A missing ``f1`` or ``f_swap`` is simulated at the schedule's own
    pulse-2/3 and 2pi drives and durations; a missing ``tau_us`` is the
    operation-weighted exposure (P tau_pair + S tau_swap) / (P + S). With all
    three given nothing is simulated: the schedule and spectator shift alone.
    """
    coup, schedule = _chain_schedule(model, spec)
    slot = {p.pulse_index: p.spec for p in schedule.pulses}
    pulse2, pulse3, swap_2pi = slot[2], slot[3], slot[8]  # step 1 and the step-3 2pi
    pair_result = swap_result = None
    if f1 is None or tau_us is None:
        pair_result = pairwise_entangle(
            pulse2.omega_uD_B, pulse3.omega_dU_A, coup.v_plus_khz, coup.v_minus_khz,
            tau2_us=pulse2.duration_us, tau3_us=pulse3.duration_us,
        )
        if f1 is None:
            f1 = pair_result.fidelity
    if f_swap is None or tau_us is None:
        swap_result = swap_gate(
            swap_2pi.omega_dU_A, coup.v_plus_khz, coup.v_minus_khz,
            coup.corner_khz, swap_2pi.duration_us,
        )
        if f_swap is None:
            f_swap = swap_result.gate_fidelity
    if tau_us is None:
        n_pair, n_swap = _operation_counts(spec)
        tau_us = (n_pair * pair_result.rydberg_exposure_us
                  + n_swap * swap_result.rydberg_exposure_us) / (n_pair + n_swap)
    return ChainResult(
        schedule=schedule,
        estimate=chain_fidelity_estimate(spec, f1, f_swap, tau_us=tau_us),
        spectator=_spectator(spec, coup),
        f1=f1,
        f_swap=f_swap,
        tau_us=tau_us,
    )
