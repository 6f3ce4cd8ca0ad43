"""The N-atom chain: its schedule, ideal state and decay-limited fidelity estimate.

``chain_protocol`` lays out the paper's four steps of parallel pairwise entanglement
and SWAP links, whose duration does not depend on the chain's length, and simulates
one pair and one link with ``protocols``. Only the chain command loads this module;
the package resolves its public names on first use.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .atoms import QuantumDefectModel, _require_finite, _require_int, _shown
from .dynamics import _SQRT2, CHANNELS, PulseSpec, QuantumState
from .protocols import (
    SWAP_MATRIX_IDEAL,
    PairCouplings,
    _nominal_point,
    _swap_point,
    pair_couplings,
    pairwise_entangle,
    swap_gate,
)
from .vdw import critical_radius

__all__ = ["ChainSpec", "SchedulePulse", "PulseSchedule", "chain_ideal_state",
           "ChainFidelityEstimate", "chain_fidelity_estimate", "SpectatorBlockade", "ChainResult",
           "chain_protocol"]

# Largest chain a ChainSpec accepts: its operation counts and their sums are exact floats
MAX_CHAIN_ATOMS = 2**53


@dataclass(frozen=True)
class ChainSpec:
    """Parameters of the chain protocol.

    ``atom_count`` must be 4, 6, or a multiple of 4, and at most
    MAX_CHAIN_ATOMS = 2**53, the largest count whose N/2 pairwise and
    N/2 - 1 SWAP operations, and their sums, are exact floats; the
    schedule costs the same at every count. ``pair`` is a tuple of two
    distinct ints (n_a, n_b). Every drive and duration follows from the
    pair's working point.
    """

    atom_count: int
    spacing_um: float
    pair: tuple[int, int]
    gamma_per_ms: float = 0.0

    def __post_init__(self) -> None:
        count = _require_int("atom_count", self.atom_count, hi=MAX_CHAIN_ATOMS)
        if not (count == 6 or count >= 4 and count % 4 == 0):
            raise ValueError(f"atom_count must be 4, 6, or a multiple of 4, got {_shown(count)}")
        _require_finite("spacing_um", self.spacing_um, 0.0, ends="(]")
        _require_finite("decay rate gamma_per_ms", self.gamma_per_ms, 0.0)
        if not (isinstance(self.pair, tuple) and len(self.pair) == 2):
            raise ValueError(f"pair must be a tuple of two integers (n_a, n_b), "
                             f"got {_shown(self.pair, repr)}")
        if len({_require_int("pair", n) for n in self.pair}) < 2:
            raise ValueError(f"pair must hold two distinct principal numbers, "
                             f"got {_shown(self.pair, repr)}")


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
        raise ValueError(f"atom_count must be 4 or 6 for a closed-form state, "
                         f"got {_shown(atom_count)}")
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
        _require_finite(name, fidelity, 0.0, 1.0)
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
