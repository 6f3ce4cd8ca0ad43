"""Test-side reference for the superposition basis of the 8-state sector."""

import math

import numpy as np

from rydex.dynamics import PRODUCT_BASIS_8

_SQRT2 = math.sqrt(2.0)

# Superposition labels: g(round) Bell pair, singly excited with spin up
# or down shared, and the doubly excited Bell pair. "+" states form the
# driven sector when both atoms are driven symmetrically.
SUPERPOSITION_BASIS_8 = ("g+", "e_up+", "e_dn+", "r+", "g-", "e_up-", "e_dn-", "r-")


def relabeling_matrix(
    phi_dU_A: float = 0.0,
    phi_uD_A: float = 0.0,
    phi_dU_B: float = 0.0,
    phi_uD_B: float = 0.0,
) -> np.ndarray:
    """Unitary taking product amplitudes to superposition amplitudes.

    Row i, column j is <superposition_i | product_j> for the bases
    SUPERPOSITION_BASIS_8 and PRODUCT_BASIS_8. With nonzero drive
    phases the superposition states are dressed so that the symmetric
    sector stays the driven one:

        g+-   = [e^{i(phi_dU_A + phi_uD_B)} |du> +- e^{i(phi_uD_A + phi_dU_B)} |ud>] / sqrt 2
        e_up+- = [e^{i phi_uD_B} |Uu> +- e^{i phi_dU_A} |uU>] / sqrt 2
        e_dn+- = [e^{i phi_dU_B} |Dd> +- e^{i phi_uD_A} |dD>] / sqrt 2
        r+-   = [|UD> +- |DU>] / sqrt 2
    """

    def bra(*pairs: tuple[str, complex]) -> np.ndarray:
        row = np.zeros(8, dtype=complex)
        for label, coeff in pairs:
            row[PRODUCT_BASIS_8.index(label)] = coeff.conjugate() / _SQRT2
        return row

    e = lambda p: complex(math.cos(p), math.sin(p))
    rows = {
        "g+": bra(("du", e(phi_dU_A + phi_uD_B)), ("ud", e(phi_uD_A + phi_dU_B))),
        "g-": bra(("du", e(phi_dU_A + phi_uD_B)), ("ud", -e(phi_uD_A + phi_dU_B))),
        "e_up+": bra(("Uu", e(phi_uD_B)), ("uU", e(phi_dU_A))),
        "e_up-": bra(("Uu", e(phi_uD_B)), ("uU", -e(phi_dU_A))),
        "e_dn+": bra(("Dd", e(phi_dU_B)), ("dD", e(phi_uD_A))),
        "e_dn-": bra(("Dd", e(phi_dU_B)), ("dD", -e(phi_uD_A))),
        "r+": bra(("UD", 1.0 + 0.0j), ("DU", 1.0 + 0.0j)),
        "r-": bra(("UD", 1.0 + 0.0j), ("DU", -(1.0 + 0.0j))),
    }
    return np.array([rows[label] for label in SUPERPOSITION_BASIS_8])
