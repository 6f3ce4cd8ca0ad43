"""Second-order van der Waals interactions between two s-state Rydberg atoms.

Two atoms prepared in |n_A s_1/2> and |n_B s_1/2> interact through the
dipole-dipole coupling to intermediate two-atom p-state channels. At
second order this produces an effective 4x4 operator on the product
space of the two electron spin projections (m_A, m_B), with a direct
block V1 (atoms keep their principal quantum numbers) and an exchange
block V2 (atoms trade n_A and n_B). The middle 2x2 block of V1 carries
the spin-exchange physics: its diagonal entry is the C6 shift and its
off-diagonal entry the C6-exchange coefficient, giving symmetric and
antisymmetric Bell combinations with strengths

    V+- = (C6 +- C6ex) / L^6.

Each intermediate channel k = 1..4 is one assignment of p-state fine
structure (j_A, j_B); the angular algebra of that channel enters only
through a rational matrix D_k = M_k^T M_k, where M_k collects the
signed products of Clebsch-Gordan factors of the two dipole flips over
all intermediate Zeeman states (Walker & Saffman, PRA 77, 032723
(2008)). Both are derived at import (``_M_MATRICES``, ``_D_MATRICES``);
every entry of D_k is a multiple of 1/81.

Radial physics enters through perturbative channel sums over a window
of principal quantum numbers around (n_A, n_B); see ``channel_c6``.
Each term is -R R' / defect with R = e^2 r_A r_B. The product is
separable, R[da, db] = (E2A02 r_A[da]) r_B[db], so one call builds the
whole window per channel from four per-atom radial vectors (own and
crossed s -> p elements of each atom) and two per-atom energy vectors,
and every returned quantity is a reduction over those arrays. Sums run
left to right in window order (da outer, db inner), as a scalar loop
adds them: a pairwise ``np.sum`` would move the last digits of
published values.
All coefficients are in GHz um^6, all pair interactions in kHz.
"""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .atoms import (
    CHANNEL_FINE_STRUCTURE,
    QuantumDefectModel,
    RydbergLevel,
    clebsch_gordan,
    level_energy,
    quantum_defect,
)
from .radial import E2A02_GHZ_UM3, effective_orbital, radial_integral

__all__ = [
    "SingularChannelError",
    "channel_c6",
    "C6Pair",
    "c6_pair",
    "InteractionMatrix",
    "interaction_matrix",
    "VPlusMinus",
    "v_plus_minus",
    "CriticalRadius",
    "critical_radius",
    "ChannelContribution",
    "interference_decomposition",
    "SPIN_BASIS",
]

logger = logging.getLogger(__name__)

# Two-atom spin basis (m_A, m_B) ordering every 4x4 matrix below uses.
SPIN_BASIS: tuple[tuple[float, float], ...] = (
    (-0.5, -0.5),
    (-0.5, 0.5),
    (0.5, -0.5),
    (0.5, 0.5),
)

# Energy defects smaller than this (in GHz) are treated as accidental
# Foerster resonances: perturbation theory does not apply to them, so
# they are excluded from channel sums with a logged warning.
NEAR_RESONANCE_GHZ = 1e-3


class SingularChannelError(ValueError):
    """An intermediate channel is exactly resonant (zero energy defect)."""


def _m_rows(j_a: float, j_b: float) -> tuple[tuple[float, float], ...]:
    def projections(j: float) -> list[float]:
        return [m - j for m in range(int(2 * j) + 1)]

    return tuple((ma, mb) for ma in projections(j_a) for mb in projections(j_b))


def _transition_matrix(j_a: float, j_b: float) -> np.ndarray:
    """Transition matrix M of fine structure (j_A, j_B), with D = M^T M.

    One row per intermediate Zeeman pair (``_m_rows``), one column per
    SPIN_BASIS state. The entry at row (m_A', m_B') and column (m_A, m_B)
    is w(q) f(j_A, m_A', m_A) f(j_B, m_B', m_B), nonzero only for
    q = m_A' - m_A = m_B - m_B' in {-1, 0, 1}. The weight w(0) = -2,
    w(+-1) = -1 comes from d_A . d_B - 3 d_Az d_Bz, and
    f(j, m', m) = <1 q; 1/2 m | j m'> / sqrt(3) is the s_1/2 -> p_j
    dipole factor, with the photon coupled first in ``clebsch_gordan``.
    The largest |entry| sets the strongest first-order dipole coupling
    of the channel and hence the critical radius.
    """
    rows = _m_rows(j_a, j_b)
    m = np.zeros((len(rows), len(SPIN_BASIS)))
    for i, (fa, fb) in enumerate(rows):
        for c, (ma, mb) in enumerate(SPIN_BASIS):
            q = fa - ma
            if abs(q) <= 1 and fb - mb == -q:
                m[i, c] = (
                    (-2.0 if q == 0 else -1.0)
                    * (clebsch_gordan(1, q, 0.5, ma, j_a, fa) / math.sqrt(3.0))
                    * (clebsch_gordan(1, -q, 0.5, mb, j_b, fb) / math.sqrt(3.0))
                )
    return m


def _exact_gram(m: np.ndarray) -> np.ndarray:
    """D = M^T M snapped to the exact multiples of 1/81 it must consist of."""
    d = m.T @ m
    n = np.rint(81.0 * d)
    err = float(np.abs(d - n / 81.0).max())
    if err > 1e-12:
        raise ArithmeticError(f"angular Gram matrix is {err:.1e} off the 1/81 lattice")
    return n / 81.0


_M_MATRICES: dict[int, np.ndarray] = {
    k: _transition_matrix(j_a, j_b) for k, (j_a, j_b) in CHANNEL_FINE_STRUCTURE.items()
}
_D_MATRICES: dict[int, np.ndarray] = {k: _exact_gram(m) for k, m in _M_MATRICES.items()}


class _ChannelTerms(NamedTuple):
    """One channel's window, flattened with da outer and db inner."""

    ns: np.ndarray
    nt: np.ndarray
    defect: np.ndarray
    rr: np.ndarray
    rr_cross: np.ndarray


def _lowest_bound_p(model: QuantumDefectModel, j: float) -> int:
    """Lowest n of the p_j series with a positive effective quantum number.

    n - delta(n) > 0 means (n - delta0)^3 > delta2, so the search starts
    at the closed-form floor and only steps over rounding.
    """
    s = model.series_for(1, j)
    n = max(
        2,
        math.floor(s.delta0) + 1,
        math.floor(s.delta0 + max(s.delta2, 0.0) ** (1.0 / 3.0)),
    )
    while n - quantum_defect(model, 1, j, n) <= 0:
        n += 1
    return n


def _pair_terms(
    model: QuantumDefectModel, n_a: int, n_b: int, dn_cutoff: int
) -> dict[int, _ChannelTerms]:
    """Every intermediate pair of the window, per channel, as flat arrays.

    The window is a full square: ns = n_a + da and nt = n_b + db with da,
    db in [-dn_cutoff, dn_cutoff]. ``rr`` is the coupling with each atom
    keeping its own transition, ``rr_cross`` re-emits into the
    atom-exchanged pair. Both factorize into per-atom radial vectors, so
    each atom costs 2 dn_cutoff + 1 levels per p_j component instead of
    one level per term.
    """
    if dn_cutoff < 0:
        raise ValueError(f"dn_cutoff must be non-negative, got {dn_cutoff}")
    floor_n = max(_lowest_bound_p(model, j) for j in (0.5, 1.5))
    for name, n in (("n_a", n_a), ("n_b", n_b)):
        if n - dn_cutoff < floor_n:
            raise ValueError(
                f"{name}={n} with dn_cutoff={dn_cutoff} reaches n={n - dn_cutoff}, "
                f"below the lowest bound p level n={floor_n}"
            )
    s_a = RydbergLevel(n_a, 0, 0.5)
    s_b = RydbergLevel(n_b, 0, 0.5)
    e_sa = level_energy(model, s_a)
    e_sb = level_energy(model, s_b)
    orb_sa = effective_orbital(model, s_a)
    orb_sb = effective_orbital(model, s_b)
    offsets = range(-dn_cutoff, dn_cutoff + 1)

    def atom_vectors(n, own, other):
        # per p_j: energies, <own s|r|p> and <other s|r|p> over the window
        out = {}
        for j in (0.5, 1.5):
            levels = [RydbergLevel(n + d, 1, j) for d in offsets]
            orbs = [effective_orbital(model, p) for p in levels]
            out[j] = (
                np.array([level_energy(model, p) for p in levels]),
                np.array([radial_integral(own, o) for o in orbs]),
                np.array([radial_integral(other, o) for o in orbs]),
            )
        return out

    vec_a = atom_vectors(n_a, orb_sa, orb_sb)
    vec_b = atom_vectors(n_b, orb_sb, orb_sa)
    width = 2 * dn_cutoff + 1
    ns = np.repeat(np.arange(n_a - dn_cutoff, n_a + dn_cutoff + 1), width)
    nt = np.tile(np.arange(n_b - dn_cutoff, n_b + dn_cutoff + 1), width)
    terms = {}
    for k, (j_a, j_b) in CHANNEL_FINE_STRUCTURE.items():
        e_pa, r_a, x_a = vec_a[j_a]
        e_pb, r_b, x_b = vec_b[j_b]
        terms[k] = _ChannelTerms(
            ns=ns,
            nt=nt,
            defect=(((e_pa[:, None] + e_pb[None, :]) - e_sa) - e_sb).ravel(),
            rr=((E2A02_GHZ_UM3 * r_a)[:, None] * r_b[None, :]).ravel(),
            rr_cross=((E2A02_GHZ_UM3 * x_a)[:, None] * x_b[None, :]).ravel(),
        )
    return terms


def _included(terms: _ChannelTerms, k: int, n_a: int, n_b: int) -> np.ndarray:
    """Mask of the terms the channel sums keep; exact resonance raises.

    Terms with |defect| below NEAR_RESONANCE_GHZ are dropped and logged
    one by one in window order.
    """
    near = np.abs(terms.defect) < NEAR_RESONANCE_GHZ
    for i in np.flatnonzero(near):
        ns, nt, defect = int(terms.ns[i]), int(terms.nt[i]), float(terms.defect[i])
        if defect == 0.0:
            raise SingularChannelError(
                f"channel {k} intermediate pair ({ns}p, {nt}p) is exactly "
                f"resonant with ({n_a}s, {n_b}s)"
            )
        logger.warning(
            "excluding near-resonant channel %d term (%dp, %dp): "
            "defect %.3g GHz below %.0e GHz",
            k,
            ns,
            nt,
            defect,
            NEAR_RESONANCE_GHZ,
        )
    return ~near


def _ordered_sum(values: np.ndarray) -> float:
    """Left-to-right sum from 0.0, as a scalar loop adds; np.sum pairs terms."""
    return float(np.cumsum(np.concatenate(([0.0], values)))[-1])


def _channel_sums(
    terms: dict[int, _ChannelTerms], n_a: int, n_b: int
) -> tuple[dict[int, float], dict[int, float]]:
    """Direct and exchange channel sums of -R R' / defect over kept terms."""
    direct, cross = {}, {}
    for k, t in terms.items():
        keep = _included(t, k, n_a, n_b)
        rr, defect = t.rr[keep], t.defect[keep]
        direct[k] = _ordered_sum(-rr * rr / defect)
        cross[k] = _ordered_sum(-rr * t.rr_cross[keep] / defect)
    return direct, cross


def channel_c6(
    model: QuantumDefectModel,
    n_a: int,
    n_b: int,
    k: int,
    dn_cutoff: int = 10,
    exchange: bool = False,
) -> float:
    """Perturbative C6 sum of one channel, in GHz um^6.

    Sums -R_k R_k' / defect over the square window of intermediate
    principal numbers; with ``exchange=False`` both factors are the
    direct coupling, with ``exchange=True`` the second factor re-emits
    into the atom-exchanged pair (the V2 block). Terms with an energy
    defect below NEAR_RESONANCE_GHZ are excluded with a logged warning;
    an exactly resonant term raises SingularChannelError.
    """
    if k not in CHANNEL_FINE_STRUCTURE:
        raise ValueError(f"channel must be 1..4, got {k}")
    direct, cross = _channel_sums(_pair_terms(model, n_a, n_b, dn_cutoff), n_a, n_b)
    return (cross if exchange else direct)[k]


@dataclass(frozen=True)
class C6Pair:
    """Scalar van der Waals coefficients of one (n_A, n_B) pair.

    ``c6`` multiplies the identity-like (spin-preserving) middle-block
    diagonal and ``c6_exchange`` the spin-exchange off-diagonal; both in
    GHz um^6. ``channel_sums`` records the per-channel direct sums.
    """

    n_a: int
    n_b: int
    dn_cutoff: int
    c6: float
    c6_exchange: float
    channel_sums: tuple[float, float, float, float]


def c6_pair(
    model: QuantumDefectModel, n_a: int, n_b: int, dn_cutoff: int = 10
) -> C6Pair:
    """Spin-preserving and spin-exchange C6 coefficients, in GHz um^6.

    Requires n_a != n_b: the spin-exchange structure treated here lives
    on a pair of distinguishable principal quantum numbers.
    """
    if n_a == n_b:
        raise ValueError("c6_pair requires two distinct principal quantum numbers")
    direct, _ = _channel_sums(_pair_terms(model, n_a, n_b, dn_cutoff), n_a, n_b)
    c6_v1 = _assemble(direct)  # the V1 block interaction_matrix builds
    return C6Pair(
        n_a=n_a,
        n_b=n_b,
        dn_cutoff=dn_cutoff,
        c6=float(c6_v1[1, 1]),
        c6_exchange=float(c6_v1[1, 2]),
        channel_sums=tuple(direct.values()),
    )


def _khz_per_ghz_um6(spacing_um: float, *coefficients):
    """GHz um^6 ``coefficients`` in kHz at spacing L (um), each times 1e6 / L^6."""
    if not math.isfinite(spacing_um) or spacing_um <= 0:
        raise ValueError(f"spacing must be positive and finite, got {spacing_um}")
    try:
        scale = 1e6 / spacing_um**6
    except ArithmeticError:  # L^6 overflows, or underflows to zero
        scale = 0.0
    if not 0.0 < scale < math.inf:
        raise ValueError(f"spacing {spacing_um} um puts 1/L^6 outside the float range")
    with np.errstate(over="ignore"):
        scaled = [c * scale for c in coefficients]
    return _finite_couplings(spacing_um, *scaled)


def _finite_couplings(spacing_um: float, *couplings):
    """``couplings`` as given, if none has overflowed; else name the spacing."""
    if not all(np.isfinite(c).all() for c in couplings):
        raise ValueError(f"spacing {spacing_um} um puts the couplings outside the float range")
    return couplings


def _v_plus_minus(spacing_um: float, vs_khz: float, vc_khz: float) -> tuple[float, float]:
    """(V+, V-) = (vs + vc, vs - vc) in kHz; names the spacing if either overflows."""
    return _finite_couplings(spacing_um, float(vs_khz + vc_khz), float(vs_khz - vc_khz))


def _assemble(sums: dict[int, float]) -> np.ndarray:
    m = np.zeros((4, 4))
    for k, s in sums.items():
        m += s * _D_MATRICES[k]
    return m


@dataclass(frozen=True)
class InteractionMatrix:
    """Second-order interaction blocks of a two-atom pair at spacing L.

    ``v1_khz`` acts within the ordered pair |n_A s, n_B s> and
    ``v2_khz`` couples it to the atom-exchanged pair |n_B s, n_A s>;
    both are 4x4 on SPIN_BASIS, in kHz. The GHz um^6 coefficient
    matrices (spacing-independent) are kept alongside. ``vs_khz`` and
    ``vc_khz`` are the middle-block diagonal and off-diagonal of v1.
    """

    n_a: int
    n_b: int
    spacing_um: float
    dn_cutoff: int
    basis: tuple[tuple[float, float], ...]
    c6_v1_ghz_um6: np.ndarray
    c6_v2_ghz_um6: np.ndarray
    v1_khz: np.ndarray
    v2_khz: np.ndarray
    vs_khz: float
    vc_khz: float

    @property
    def v_plus_minus_khz(self) -> tuple[float, float]:
        """(V+, V-) of the exchange block; raises naming the spacing if either overflows."""
        return _v_plus_minus(self.spacing_um, self.vs_khz, self.vc_khz)


def interaction_matrix(
    model: QuantumDefectModel,
    n_a: int,
    n_b: int,
    spacing_um: float,
    dn_cutoff: int = 10,
) -> InteractionMatrix:
    """Direct and exchange 4x4 interaction matrices at spacing L (um)."""
    if n_a == n_b:
        raise ValueError("interaction_matrix requires distinct principal numbers")
    direct, cross = _channel_sums(_pair_terms(model, n_a, n_b, dn_cutoff), n_a, n_b)
    c6_v1 = _assemble(direct)
    c6_v2 = _assemble(cross)
    v1, v2 = _khz_per_ghz_um6(spacing_um, c6_v1, c6_v2)
    lc = critical_radius(model, n_a, n_b).radius_um
    if spacing_um < lc:
        warnings.warn(
            f"spacing {spacing_um} um is inside the critical radius {lc:.2f} um; "
            "the perturbative interaction matrix is unreliable there",
            stacklevel=2,
        )
    return InteractionMatrix(
        n_a=n_a,
        n_b=n_b,
        spacing_um=spacing_um,
        dn_cutoff=dn_cutoff,
        basis=SPIN_BASIS,
        c6_v1_ghz_um6=c6_v1,
        c6_v2_ghz_um6=c6_v2,
        v1_khz=v1,
        v2_khz=v2,
        vs_khz=float(v1[1, 1]),
        vc_khz=float(v1[1, 2]),
    )


@dataclass(frozen=True)
class VPlusMinus:
    """Bell-basis interaction strengths of the spin-exchange block.

    The symmetric and antisymmetric combinations of the two middle
    states diagonalize the 2x2 exchange block:

        |r+-> = (|up dn> +- |dn up>) / sqrt(2),
        V+-  = (C6 +- C6ex) / L^6.
    """

    v_plus_khz: float
    v_minus_khz: float
    spacing_um: float


def v_plus_minus(pair: C6Pair, spacing_um: float) -> VPlusMinus:
    """Evaluate V+ and V- (kHz) of a coefficient pair at spacing L (um)."""
    vs, vc = _khz_per_ghz_um6(spacing_um, pair.c6, pair.c6_exchange)
    v_plus, v_minus = _v_plus_minus(spacing_um, vs, vc)
    return VPlusMinus(v_plus_khz=v_plus, v_minus_khz=v_minus, spacing_um=spacing_um)


@dataclass(frozen=True)
class CriticalRadius:
    """Blockade-crossover radius and the channel that sets it.

    Below ``radius_um`` the strongest first-order dipole coupling of the
    dominant near-resonant channel exceeds its energy defect and the
    perturbative C6 picture breaks down.
    """

    radius_um: float
    channel: int
    ns: int
    nt: int
    defect_ghz: float
    rrr_ghz_um3: float
    max_coupling: float


def critical_radius(
    model: QuantumDefectModel, n_a: int, n_b: int, dn_cutoff: int = 3
) -> CriticalRadius:
    """Radius where first-order mixing with the dominant channel is order 1.

    The dominant channel is the intermediate pair with the smallest
    |energy defect| among those with appreciable radial coupling (at
    least 1% of the window maximum); ties go to the larger coupling.
    The radius solves max|M_k| * R / L^3 = |defect|.
    """
    terms = _pair_terms(model, n_a, n_b, dn_cutoff)
    rrs = np.stack([t.rr for t in terms.values()])  # (channel, window term)
    defects = np.stack([t.defect for t in terms.values()])
    candidates = np.flatnonzero(np.abs(rrs) >= 0.01 * np.abs(rrs).max())
    # smallest |defect| first, ties to the larger coupling, then window order
    order = np.lexsort(
        (-np.abs(rrs.flat[candidates]), np.abs(defects.flat[candidates]))
    )
    c, i = divmod(int(candidates[order[0]]), rrs.shape[1])
    k = list(terms)[c]
    ns, nt = int(terms[k].ns[i]), int(terms[k].nt[i])
    defect, rr = float(defects[c, i]), float(rrs[c, i])
    mmax = float(np.abs(_M_MATRICES[k]).max())
    if defect == 0.0:
        raise SingularChannelError(
            f"dominant channel ({ns}p, {nt}p) is exactly resonant; "
            "no finite critical radius"
        )
    radius = (mmax * abs(rr) / abs(defect)) ** (1.0 / 3.0)
    return CriticalRadius(
        radius_um=float(radius),
        channel=k,
        ns=ns,
        nt=nt,
        defect_ghz=float(defect),
        rrr_ghz_um3=float(rr),
        max_coupling=mmax,
    )


@dataclass(frozen=True)
class ChannelContribution:
    """One intermediate pair's contribution to V+ and V- (GHz um^6)."""

    channel: int
    ns: int
    nt: int
    defect_ghz: float
    c6_plus: float
    c6_minus: float


def interference_decomposition(
    model: QuantumDefectModel, n_a: int, n_b: int, dn_cutoff: int = 10
) -> tuple[ChannelContribution, ...]:
    """Per-channel, per-intermediate-pair breakdown of C6 +- C6ex.

    Useful for reading off how fine-structure channels interfere: the
    j=1/2 x 3/2 channels (2 and 3) push V+ and V- apart (1:9 weight
    ratio), channel 1 adds with 17:9, and channel 4 feeds only V+.
    Contributions sum exactly to c6 +- c6_exchange of ``c6_pair`` under
    the same window and exclusion rules.
    """
    out = []
    for k, t in _pair_terms(model, n_a, n_b, dn_cutoff).items():
        d_diag = _D_MATRICES[k][1, 1]
        d_off = _D_MATRICES[k][1, 2]
        keep = _included(t, k, n_a, n_b)
        rr, defect = t.rr[keep], t.defect[keep]
        term = -rr * rr / defect
        out.extend(
            ChannelContribution(
                channel=k, ns=ns, nt=nt, defect_ghz=d, c6_plus=p, c6_minus=m
            )
            for ns, nt, d, p, m in zip(
                t.ns[keep].tolist(),
                t.nt[keep].tolist(),
                defect.tolist(),
                (term * (d_diag + d_off)).tolist(),
                (term * (d_diag - d_off)).tolist(),
            )
        )
    return tuple(out)
