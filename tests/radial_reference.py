"""Test-side scalar reference for the vectorized channel window."""

from rydex.radial import E2A02_GHZ_UM3, radial_integral

from level_reference import effective_orbital


def rrr_coefficient(model, initial, final) -> float:
    """Product coupling coefficient e^2 r_A r_B in GHz um^3.

    ``initial`` and ``final`` are the two-atom level pairs before and
    after the dipole-dipole flip, atom A first. The product runs
    (E2A02 r_A) r_B, the order in which ``vdw._pair_terms`` multiplies
    its window, so the two agree bit for bit.
    """
    (a0, b0), (a1, b1) = initial, final
    r_a = radial_integral(*effective_orbital(model, a0), *effective_orbital(model, a1))
    r_b = radial_integral(*effective_orbital(model, b0), *effective_orbital(model, b1))
    return E2A02_GHZ_UM3 * r_a * r_b
