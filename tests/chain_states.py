"""Test-side reference construction of the ideal chain state."""

import itertools
import math

import numpy as np

from rydex.dynamics import QuantumState
from rydex.protocols import SWAP_MATRIX_IDEAL


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
