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
from functools import cache, lru_cache
from importlib import resources

from .atoms import _require_finite, _require_int

__all__ = [
    "E2A02_GHZ_UM3",
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


def _centre(nu1: float, l1: int, nu2: float, l2: int) -> tuple[float, float]:
    """(l_c, nu_c) of a transition; refused when no region is classically allowed."""
    lc = (l1 + l2 + 1) / 2.0
    nc = math.sqrt(nu1 * nu2)
    if lc >= nc:
        raise ValueError(f"quasiclassical radial element undefined for n_eff {nu1} and {nu2}: "
                         f"l_c={lc} >= nu_c={nc:.3g}")
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
        except (mpmath.libmp.NoConvergence, ZeroDivisionError):  # a series pole at 1e300
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


@lru_cache(maxsize=1024)  # nu_s values: one per s level of each model in use
def _s_block(nu_s: float) -> tuple[int, int]:
    """The [lo, hi) rows of the bundled table keyed by ``nu_s``; empty off the table.
    Keys match as exact floats, so a level an edited model no longer produces misses."""
    s = _sp_table()[0]
    lo = bisect_left(s, nu_s)
    return lo, bisect_right(s, nu_s, lo)


@lru_cache(maxsize=65536)
def _kaulakys(nu1: float, l1: int, nu2: float, l2: int) -> float:
    _centre(nu1, l1, nu2, l2)
    if (l1, l2) == (0, 1):
        _, p, element = _sp_table()
        lo, hi = _s_block(nu1)
        i = bisect_left(p, nu2, lo, hi)
        if i < hi and p[i] == nu2:
            return element[i]
    return _live_element(nu1, l1, nu2, l2)


def radial_integral(n_eff1: float, l1: int, n_eff2: float, l2: int) -> float:
    """<n_eff1 l1 | r | n_eff2 l2> in units of the Bohr radius.

    Parameters
    ----------
    n_eff1, n_eff2 : float
        Effective quantum numbers of the two radial orbitals, finite and positive.
    l1, l2 : int
        Their orbital quantum numbers, non-negative and differing by exactly one.

    Notes
    -----
    The quasiclassical form is an expansion around large, nearly equal
    effective quantum numbers. A warning is emitted below n_eff = 10,
    where its accuracy degrades.
    """
    for name, n_eff in (("n_eff1", n_eff1), ("n_eff2", n_eff2)):
        _require_finite(name, n_eff, 0.0, inclusive=False)
    for name, l in (("l1", l1), ("l2", l2)):
        _require_int(name, l, 0)
    if abs(l1 - l2) != 1:
        raise ValueError(
            f"dipole selection rule requires |l1 - l2| = 1, got l1={l1}, l2={l2}"
        )
    if min(n_eff1, n_eff2) < 10.0:
        warnings.warn(
            f"quasiclassical radial element marginal at n_eff={min(n_eff1, n_eff2):.2f} (< 10)",
            stacklevel=2,
        )
    return _kaulakys(n_eff1, l1, n_eff2, l2)


def _sp_row(nu_s: float, nus: list[float]) -> list[float]:
    """``radial_integral(nu_s, 0, nu, 1)`` for each ``nu`` of ``nus``, its checks run once
    on the row (a finite sum, a least n_eff of 10), element by element where one would
    fire: from one source line, so the console shows each distinct warning once.

    In each nu_s block of the bundled table the two p_j series interleave by nu_p, so
    a row of one series whose every key is in the table is one stride-2 slice of it,
    read without the element cache. Any other row is looked up element by element."""
    if math.isfinite(nu_s + sum(nus)) and min(nu_s, *nus) >= 10.0:
        _, p, element = _sp_table()
        lo, hi = _s_block(nu_s)
        start = bisect_left(p, nus[0], lo, hi)
        row = slice(start, start + 2 * len(nus), 2)
        if start + 2 * len(nus) - 2 < hi and p[row].tolist() == nus:
            return element[row].tolist()
        return [_kaulakys(nu_s, 0, nu, 1) for nu in nus]
    return [radial_integral(nu_s, 0, nu, 1) for nu in nus]
