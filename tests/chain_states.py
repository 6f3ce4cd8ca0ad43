"""Test-side chain states: the ideal one by gate matrices, and one composed
from the simulated pair and SWAP maps on the chain schedule."""

import functools
import itertools
import math

import numpy as np

from rydex.dynamics import PRODUCT_BASIS_8, QuantumState, build_blocked2, build_swap_2pi, propagate
from rydex.protocols import SWAP_MATRIX_IDEAL, ProtocolResult, PulseSchedule, SchedulePulse

GROUND_BASIS = ("uu", "ud", "du", "dd")  # one pair's ground spins, the first atom first


def chain_state_by_gate_matrix(atom_count: int) -> QuantumState:
    """Bell pairs g+ with SWAP_MATRIX_IDEAL applied across each link.

    Built with Kronecker products, independently of the label walk in
    ``chain_ideal_state``; the two agree up to a global sign.
    """
    bell = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)  # (|ud> + |du>)/sqrt 2
    amps = bell
    for _ in range(atom_count // 2 - 1):
        amps = np.kron(amps, bell)
    amps = amps.astype(complex)
    for link in range(1, atom_count - 1, 2):
        gate = np.kron(
            np.kron(np.eye(2**link), SWAP_MATRIX_IDEAL),
            np.eye(2 ** (atom_count - link - 2)),
        )
        amps = gate @ amps
    basis = tuple("".join(b) for b in itertools.product("ud", repeat=atom_count))
    return QuantumState(basis=basis, amplitudes=amps)


def pair_ground_vector(result: ProtocolResult) -> np.ndarray:
    """The pair's final amplitudes on GROUND_BASIS, from a ``pairwise_entangle`` run
    with ``keep_trajectory``; what is left in the Rydberg states is lost."""
    final = dict(zip(PRODUCT_BASIS_8, result.trajectory.amplitudes[-1]))
    return np.array([final.get(label, 0.0) for label in GROUND_BASIS], dtype=complex)


def swap_ground_map(omega_khz: float, v_plus_khz: float, v_minus_khz: float,
                    v_blockade_khz: float, t_2pi_us: float) -> np.ndarray:
    """The 4x4 map (out, in) on GROUND_BASIS of ``swap_gate``'s sequence, the 2pi atom
    first: ideal pi maps on the second atom (du -> dD, ud -> uU, uu -> uD, dd -> dU)
    around the 2pi propagated in the exchange sector and in the blockaded pair."""
    h_ex = build_swap_2pi(omega_khz, 0.0, v_plus_khz, v_minus_khz)
    ex = {label: propagate(QuantumState.from_label(h_ex.basis, label), h_ex, t_2pi_us)
          for label in ("uU", "dD")}
    h_bl = build_blocked2(omega_khz, 0.0, v_blockade_khz)
    blocked = propagate(QuantumState.from_label(h_bl.basis, "ground"), h_bl, t_2pi_us)
    gate = np.zeros((4, 4), dtype=complex)
    gate[0, 0] = gate[3, 3] = blocked.amplitude("ground")
    for i, label_in in ((1, "uU"), (2, "dD")):
        for j, label_out in ((1, "uU"), (2, "dD")):
            gate[j, i] = ex[label_in].amplitude(label_out)
    return gate


def atom_label(position: int) -> str:
    """The paper's label of the atom at 0-based ``position``: A1, B1, C1, D1, A2, ..."""
    return "ABCD"[position % 4] + str(position // 4 + 1)


def slot_atoms(pulse: SchedulePulse) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """The label and the principal quantum number of each atom one schedule slot
    addresses, expanded from its ranges in schedule order."""
    atoms = [(atom_label(p), n) for span, n in zip(pulse.targets, pulse.rydberg_n)
             for p in span]
    return tuple(zip(*atoms))


def composed_chain_amplitudes(schedule: PulseSchedule, pair: np.ndarray,
                              link: np.ndarray) -> np.ndarray:
    """Amplitudes of the chain after ``schedule``, on ``chain_ideal_state``'s basis.

    ``pair`` goes on every pair that a pulse-3 slot drives (steps 1 and 2), then
    the 4x4 ``link`` map on every link of a 2pi slot (steps 3 and 4), the 2pi
    target first and the pi target before it second. Both act on the (2,)*N spin
    tensor as in ``chain_ideal_state``; lost population leaves it unnormalized.
    """
    steps: dict[int, list] = {}
    for pulse in schedule.pulses:
        steps.setdefault(pulse.step, []).append(pulse.targets)
    pairs, links = [], []
    for step, (pi, second, third) in sorted(steps.items()):
        if step < 3:  # pulse 3 drives the first atoms, then the second ones
            pairs += zip(*third)
        else:  # the 2pi on each first atom, the pi before it on the second
            links += zip(*second, *pi)
    order = [atom for p in pairs for atom in p]
    spins = functools.reduce(np.multiply.outer, [pair.reshape(2, 2)] * len(pairs))
    spins = np.transpose(spins, np.argsort(order))
    gate = link.reshape(2, 2, 2, 2)  # (out i, out j, in i, in j)
    for axes in links:
        spins = np.moveaxis(np.tensordot(gate, spins, axes=((2, 3), axes)), (0, 1), axes)
    return spins.reshape(-1)
