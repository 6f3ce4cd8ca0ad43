"""Quasiclassical radial dipole matrix elements between Rydberg states.

Implements the quasiclassical (Kaulakys) form of the radial integral
<n1 l1 | r | n2 l2> for dipole-allowed transitions between high-n
states, written in terms of Anger functions of the effective-quantum-
number difference. For the near-degenerate, high-n pairs treated here
it agrees with direct model-potential integration at the fraction of a
percent level, while being cheap enough to evaluate thousands of times
inside perturbative channel sums.

The element is returned in units of the Bohr radius. The product of
two such elements converts to interaction units through
``E2A02_GHZ_UM3`` below, so that C6-type coefficients come out in
GHz um^6 when divided by an energy defect in GHz.
"""

from __future__ import annotations

import math
import sys
import warnings
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cache, lru_cache
from importlib import resources

from .atoms import QuantumDefectModel, RydbergLevel, quantum_defect

__all__ = [
    "E2A02_GHZ_UM3",
    "RadialOrbital",
    "effective_orbital",
    "radial_integral",
]


def __getattr__(name: str):
    # mpmath is imported by the live element only, when the bundled table misses;
    # ``radial.mpmath`` still resolves for perfbench's tracer, which counts the
    # ``mpmath.angerj`` calls of this module
    if name == "mpmath":
        import mpmath

        return mpmath
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# e^2 a0^2 / (4 pi eps0 h), expressed in GHz um^3. With both radial
# elements in units of a0, multiplying their product by this constant
# gives a dipole-dipole coupling coefficient in GHz um^3 (divide by a
# distance cubed in um to get a frequency in GHz). 2018 CODATA values:
# e = 1.602176634e-19 C, a0 = 5.29177210903e-11 m,
# eps0 = 8.8541878128e-12 F/m, h = 6.62607015e-34 J s.
E2A02_GHZ_UM3 = 9.750085633e-7


@dataclass(frozen=True)
class RadialOrbital:
    """A radial wavefunction identified by effective quantum number and l."""

    n_eff: float
    l: int

    def __post_init__(self) -> None:
        if self.n_eff <= 0:
            raise ValueError(f"n_eff must be positive, got {self.n_eff}")
        if self.l < 0:
            raise ValueError(f"l must be non-negative, got {self.l}")


def effective_orbital(model: QuantumDefectModel, level: RydbergLevel) -> RadialOrbital:
    """Reduce a |n, l, j> level to its radial orbital (n_eff, l)."""
    nu = level.n - quantum_defect(model, level.l, level.j, level.n)
    return RadialOrbital(n_eff=nu, l=level.l)


def _centre(nu1: float, l1: int, nu2: float, l2: int) -> tuple[float, float]:
    """(l_c, nu_c) of a transition; refused when no region is classically allowed."""
    lc = (l1 + l2 + 1) / 2.0
    nc = math.sqrt(nu1 * nu2)
    if lc >= nc:
        raise ValueError(
            f"quasiclassical radial element undefined for l_c={lc} >= nu_c={nc:.3f}"
        )
    return lc, nc


def _live_element(nu1: float, l1: int, nu2: float, l2: int) -> float:
    """The Kaulakys element itself: the module's one ``mpmath`` caller."""
    import mpmath

    lc, nc = _centre(nu1, l1, nu2, l2)
    dnu = nu1 - nu2
    dl = l2 - l1
    gamma = dl * lc / nc
    if dnu == 0:
        g0, g1, g2, g3 = 1.0, 0.0, 0.0, 0.0
    else:
        try:
            a_minus = float(mpmath.angerj(dnu - 1, -dnu))
            a_plus = float(mpmath.angerj(dnu + 1, -dnu))
        except mpmath.libmp.NoConvergence:
            raise ValueError(
                f"Anger functions do not converge for n_eff {nu1} and {nu2}"
            ) from None
        g0 = (a_minus - a_plus) / (3.0 * dnu)
        g1 = -(a_minus + a_plus) / (3.0 * dnu)
        g2 = g0 - math.sin(math.pi * dnu) / (math.pi * dnu)
        g3 = (dnu / 2.0) * g0 + g1
    radial_part = g0 + gamma * g1 + gamma**2 * g2 + gamma**3 * g3
    return 1.5 * nc**2 * math.sqrt(1.0 - (lc / nc) ** 2) * radial_part


@cache
def _sp_table() -> tuple[array, array, array]:
    """Columns (nu_s, nu_p, element) of the bundled Rb-87 s -> p elements sorted
    by (nu_s, nu_p): the live element's outputs, as ``tools/radial_table.py`` writes them."""
    flat = array("d", resources.files("rydex.data").joinpath("radial_sp.f64").read_bytes())
    if sys.byteorder == "big":
        flat.byteswap()
    return flat[0::3], flat[1::3], flat[2::3]


@lru_cache(maxsize=65536)
def _kaulakys(nu1: float, l1: int, nu2: float, l2: int) -> float:
    _centre(nu1, l1, nu2, l2)
    if (l1, l2) == (0, 1):
        # exact float keys: one an edited model no longer produces misses
        s, p, element = _sp_table()
        lo = bisect_left(s, nu1)
        hi = bisect_right(s, nu1, lo)
        i = bisect_left(p, nu2, lo, hi)
        if i < hi and p[i] == nu2:
            return element[i]
    return _live_element(nu1, l1, nu2, l2)


def radial_integral(bra: RadialOrbital, ket: RadialOrbital) -> float:
    """<bra | r | ket> in units of the Bohr radius.

    Parameters
    ----------
    bra, ket : RadialOrbital
        The two radial orbitals; their l must differ by exactly one.

    Notes
    -----
    The quasiclassical form is an expansion around large, nearly equal
    effective quantum numbers. A warning is emitted below n_eff = 10,
    where its accuracy degrades.
    """
    if abs(bra.l - ket.l) != 1:
        raise ValueError(
            f"dipole selection rule requires |l1 - l2| = 1, got l1={bra.l}, l2={ket.l}"
        )
    if min(bra.n_eff, ket.n_eff) < 10.0:
        warnings.warn(
            f"quasiclassical radial element marginal at n_eff="
            f"{min(bra.n_eff, ket.n_eff):.2f} (< 10)",
            stacklevel=2,
        )
    return _kaulakys(bra.n_eff, bra.l, ket.n_eff, ket.l)

