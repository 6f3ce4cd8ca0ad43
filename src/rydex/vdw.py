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
separable, R[da, db] = (E2A02 r_A[da]) r_B[db], so a window is built
from per-atom radial vectors (own and crossed s -> p elements of each
atom) and per-atom energy vectors, as one record of (channel, term)
arrays. The p levels are computed once per series and model (an immutable
value, so equal models share them), and each window slices its own. A pair's
windows are cached together: a narrower one is cut from a wider one the pair
already holds, and one is built only when the pair holds none wider, so a cut
never computes a level or element the request does not read. Each window's
reductions (kept-term mask, channel sums, blocks, critical radius,
decomposition) are computed once on it. Its near-resonant exclusions are
collected once per window and replayed per call: their log lines and the
exact-resonance error repeat on every summing call. Sums run left to right in
window order (da outer, db inner), as a scalar loop adds them: a pairwise
``np.sum`` would move the last digits of published values.
All coefficients are in GHz um^6, all pair interactions in kHz.
"""

from __future__ import annotations

import logging
import math
import operator
import warnings
from collections.abc import Iterator, Sequence
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .atoms import (
    CHANNEL_FINE_STRUCTURE,
    QuantumDefectModel,
    _require_finite,
    _require_int,
    _rydberg_ritz,
    _shown,
    clebsch_gordan,
    quantum_defect,
)
from .radial import E2A02_GHZ_UM3, _sp_row

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
    "InterferenceDecomposition",
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

# Highest principal number a channel window may reach. Above n ~ 550 the
# NEAR_RESONANCE_GHZ exclusion drops terms systematically, not by accident
# (3% of them at n = 1000, all from n = 6000), and C6 goes wrong without an
# error. Table II's windows reach n = 120.
MAX_PRINCIPAL_N = 500


class SingularChannelError(ValueError):
    """An intermediate channel is exactly resonant (zero energy defect), or the
    dominant one is so close to resonance that no finite critical radius follows."""


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
_CHANNELS = np.array(list(CHANNEL_FINE_STRUCTURE))  # the channel of each window row
# each channel's weight in C6 + C6ex and in C6 - C6ex, (2, channel)
_PLUS_MINUS = np.array([(d[1, 1] + d[1, 2], d[1, 1] - d[1, 2]) for d in _D_MATRICES.values()]).T


@lru_cache(maxsize=8)  # models
def _p_levels(model: QuantumDefectModel) -> dict[float, tuple[int, list, list]]:
    """Per p_j series of ``model``: its lowest n with a positive effective quantum
    number, and the nu and E lists from there to MAX_PRINCIPAL_N, which every
    window slices. nu(n) > 0 means (n - delta0)^3 > delta2, so the search starts
    at the closed-form floor and only steps over rounding."""
    levels = {}
    for j in (0.5, 1.5):
        s = model.series_for(1, j)
        n = max(2, math.floor(s.delta0) + 1,
                math.floor(s.delta0 + max(s.delta2, 0.0) ** (1.0 / 3.0)))
        while n <= quantum_defect(model, 1, j, n):  # nu(n) <= 0, exactly in floats
            n += 1
        levels[j] = (n, *_rydberg_ritz(model, 1, j, range(n, MAX_PRINCIPAL_N + 1))[1:])
    return levels


def _pair_terms(
    model: QuantumDefectModel, n_a: int, n_b: int, dn_cutoff: int
) -> _Window:
    """Every intermediate pair of the window, as one read-only ``_Window`` record.

    The window is a full square: ns = n_a + da and nt = n_b + db with da,
    db in [-dn_cutoff, dn_cutoff], one row of terms per channel. ``rr`` is
    the coupling with each atom keeping its own transition, ``rr_cross``
    re-emits into the atom-exchanged pair. The integer and domain checks run
    before the cache, which would let a warm int entry answer an equal float or
    bool. Exclusion log lines (``_Window.replay_exclusions``) stay per call.
    """
    n_a, n_b = _require_int("n_a", n_a), _require_int("n_b", n_b)
    dn_cutoff = _require_int("dn_cutoff", dn_cutoff, 0)
    name, n = ("n_a", n_a) if n_a >= n_b else ("n_b", n_b)
    if n + dn_cutoff > MAX_PRINCIPAL_N:
        raise ValueError(
            f"{name}={_shown(n)} with dn_cutoff={_shown(dn_cutoff)} reaches "
            f"n={_shown(n + dn_cutoff)}, above the channel-sum domain n <= {MAX_PRINCIPAL_N}"
        )
    built = _pair_windows(model, n_a, n_b)
    if dn_cutoff not in built:
        wider = [dn for dn in built if dn > dn_cutoff]
        built[dn_cutoff] = (built[min(wider)].cut(dn_cutoff) if wider
                            else _build_window(model, n_a, n_b, dn_cutoff))
    return built[dn_cutoff]


@lru_cache(maxsize=4)  # 8 windows: a dn-10 and its dn-3 cut per pair; 8 pairs cost 0.6 MB of RSS
def _pair_windows(model: QuantumDefectModel, n_a: int, n_b: int) -> dict[int, _Window]:
    """The windows of one pair of ``model`` built or cut so far, by dn_cutoff."""
    return {}


@lru_cache(maxsize=4)
def _term_offsets(dn_cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Each term's (n_s - n_a, n_t - n_b) over a window, da outer and db inner, read-only."""
    offsets, width = np.arange(-dn_cutoff, dn_cutoff + 1), 2 * dn_cutoff + 1
    return _read_only(np.repeat(offsets, width)), _read_only(np.tile(offsets, width))


def _build_window(model: QuantumDefectModel, n_a: int, n_b: int, dn_cutoff: int) -> _Window:
    """``_pair_terms`` of ``model``, built from its levels and radial rows.

    ``rr`` and ``rr_cross`` factorize into per-atom radial vectors, so
    each atom costs 2 dn_cutoff + 1 levels per p_j component instead of
    one level per term.
    """
    p_levels = _p_levels(model)
    floor_n = max(lowest for lowest, _, _ in p_levels.values())
    for name, n in (("n_a", n_a), ("n_b", n_b)):
        if n - dn_cutoff < floor_n:
            raise ValueError(
                f"{name}={_shown(n)} with dn_cutoff={dn_cutoff} reaches n={_shown(n - dn_cutoff)}, "
                f"below the lowest bound p level n={floor_n}"
            )
    _, (nu_sa, nu_sb), (e_sa, e_sb) = _rydberg_ritz(model, 0, 0.5, (n_a, n_b))

    def atom_vectors(n, own, other, js):
        # energies, <own s|r|p> and <other s|r|p> over the window, (channel, level) each
        out = {}
        for j in (0.5, 1.5):
            lowest, nus, energies = p_levels[j]
            levels = slice(n - dn_cutoff - lowest, n + dn_cutoff + 1 - lowest)
            out[j] = (energies[levels], _sp_row(own, nus[levels]), _sp_row(other, nus[levels]))
        return (np.array([out[j][v] for j in js]) for v in range(3))

    js_a, js_b = zip(*CHANNEL_FINE_STRUCTURE.values())
    e_a, r_a, x_a = atom_vectors(n_a, nu_sa, nu_sb, js_a)
    e_b, r_b, x_b = atom_vectors(n_b, nu_sb, nu_sa, js_b)
    rows = (len(js_a), -1)
    da, db = _term_offsets(dn_cutoff)
    return _Window(
        n_a=n_a,
        n_b=n_b,
        dn_cutoff=dn_cutoff,
        ns=da + n_a,
        nt=db + n_b,
        defect=(((e_a[:, :, None] + e_b[:, None, :]) - e_sa) - e_sb).reshape(rows),
        rr=((E2A02_GHZ_UM3 * r_a)[:, :, None] * r_b[:, None, :]).reshape(rows),
        rr_cross=((E2A02_GHZ_UM3 * x_a)[:, :, None] * x_b[:, None, :]).reshape(rows),
    )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)  # one window serves every caller
    return array


class _ArrayRecord:
    """A record of arrays whose fields, the ``__init__`` parameters (``_fields``), live
    in the instance ``__dict__`` and cannot be reassigned or deleted. == and hash go by
    identity, as an ndarray has no truth value; ``pickle`` and ``copy`` restore the
    ``__dict__`` directly. A plain class: a dataclass's generated methods cost every
    process their compilation."""

    _fields: tuple[str, ...]

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1:code.co_argcount]

    def _fill(self, arguments: dict) -> None:
        """Keeps ``__init__``'s ``locals()``, taken first, as the fields."""
        fields = vars(self)
        fields.update(arguments)
        del fields["self"]

    def __setattr__(self, name: str, value) -> None:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({fields})"


class _Window(_ArrayRecord):
    """One window as read-only (channel, term) arrays, channels in
    CHANNEL_FINE_STRUCTURE order and terms da outer, db inner; ``ns`` and ``nt``
    label the term axis. Its reductions are computed on first use and kept on
    the window, so the ``_pair_windows`` cache bounds them too."""

    def __init__(self, n_a: int, n_b: int, dn_cutoff: int, ns: np.ndarray, nt: np.ndarray,
                 defect: np.ndarray, rr: np.ndarray, rr_cross: np.ndarray) -> None:
        self._fill(locals())
        for array in (ns, nt, defect, rr, rr_cross):
            _read_only(array)

    def cut(self, dn_cutoff: int) -> _Window:
        """The window of a smaller ``dn_cutoff``: the (channel, da, db) square of
        each array sliced out, bit-equal to a build and computing no new level
        or radial element."""
        width, lo = 2 * self.dn_cutoff + 1, self.dn_cutoff - dn_cutoff

        def square(a):
            return a.reshape(*a.shape[:-1], width, width)[..., lo:width - lo, lo:width - lo]

        arrays = (self.ns, self.nt, self.defect, self.rr, self.rr_cross)
        return _Window(self.n_a, self.n_b, dn_cutoff,
                       *(square(a).reshape(*a.shape[:-1], -1) for a in arrays))

    @cached_property
    def keep(self) -> np.ndarray:
        """The terms with |defect| at least NEAR_RESONANCE_GHZ."""
        return _read_only(np.abs(self.defect) >= NEAR_RESONANCE_GHZ)

    @cached_property
    def sums(self) -> np.ndarray:
        """Direct and exchange channel sums of -R R' / defect over the kept terms,
        (2, channel). Each adds left to right from 0.0, as a scalar loop adds:
        np.sum pairs terms. A dropped term adds 0.0, which moves no sum started at
        +0.0, and an exactly resonant one is never divided."""
        terms = np.zeros((2, len(self.rr), self.rr.shape[1] + 1))  # column 0 starts each sum
        np.divide(-self.rr * np.stack((self.rr, self.rr_cross)), self.defect,
                  out=terms[..., 1:], where=self.keep)
        return _read_only(np.cumsum(terms, axis=-1)[..., -1])

    @cached_property
    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The direct and exchange blocks V1 and V2 in GHz um^6, read-only: each
        channel's sum times its D_k, added in channel order."""
        weighted = (map(operator.mul, sums, _D_MATRICES.values()) for sums in self.sums)
        return tuple(_read_only(sum(terms, np.zeros((4, 4)))) for terms in weighted)

    @cached_property
    def decomposition(self) -> InterferenceDecomposition:
        """``interference_decomposition`` of this window, from the kept terms."""
        keep, counts = self.keep, self.keep.sum(axis=1)  # a mask reads in C order, as nonzero
        rr, defect = self.rr[keep], self.defect[keep]
        term = -rr * rr / defect
        plus, minus = np.repeat(_PLUS_MINUS, counts, axis=1)  # each kept term's channel weights
        ns, nt = (np.broadcast_to(n, keep.shape)[keep] for n in (self.ns, self.nt))
        return InterferenceDecomposition(np.repeat(_CHANNELS, counts), ns, nt, defect,
                                         term * plus, term * minus)

    @cached_property
    def critical_radius(self) -> CriticalRadius:
        """``critical_radius`` of this window; an exact resonance, or a defect too small
        for a finite radius, raises each time."""
        rrs, defects = self.rr, self.defect
        candidates = np.flatnonzero(np.abs(rrs) >= 0.01 * np.abs(rrs).max())
        # smallest |defect| first, ties to the larger coupling, then window order
        order = np.lexsort((-np.abs(rrs.flat[candidates]), np.abs(defects.flat[candidates])))
        c, i = divmod(int(candidates[order[0]]), rrs.shape[1])
        k, ns, nt = int(_CHANNELS[c]), int(self.ns[i]), int(self.nt[i])
        defect, rr = float(defects[c, i]), float(rrs[c, i])
        mmax = float(np.abs(_M_MATRICES[k]).max())
        if defect == 0.0:
            raise SingularChannelError(
                f"dominant channel ({ns}p, {nt}p) is exactly resonant; "
                "no finite critical radius"
            )
        radius = (mmax * abs(rr) / abs(defect)) ** (1.0 / 3.0)
        if not math.isfinite(radius):  # a defect so small that the ratio overflows
            raise SingularChannelError(
                f"dominant channel {k} ({ns}p, {nt}p) of ({self.n_a}s, {self.n_b}s) has "
                f"defect {defect:.3g} GHz against coupling {rr:.3g} GHz um^3; "
                "no finite critical radius"
            )
        return CriticalRadius(float(radius), k, ns, nt, float(defect), float(rr), mmax)

    @cached_property
    def exclusions(self) -> tuple[tuple[int, int, int, float], ...]:
        """(channel, ns, nt, defect) of each dropped term, in window order."""
        c, i = np.nonzero(~self.keep)
        columns = (_CHANNELS[c], self.ns[i], self.nt[i], self.defect[c, i])
        return tuple(zip(*(column.tolist() for column in columns)))

    def replay_exclusions(self) -> None:
        """Log the dropped near-resonant terms one by one in window order, on every
        summing call; an exactly resonant term raises instead."""
        for k, ns, nt, defect in self.exclusions:
            if defect == 0.0:
                raise SingularChannelError(
                    f"channel {k} intermediate pair ({ns}p, {nt}p) is exactly "
                    f"resonant with ({self.n_a}s, {self.n_b}s)"
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


def channel_c6(
    model: QuantumDefectModel, n_a: int, n_b: int, k: int, dn_cutoff: int = 10
) -> float:
    """Perturbative direct C6 sum of one channel, in GHz um^6.

    Sums -R_k^2 / defect over the square window of intermediate
    principal numbers, each atom keeping its own transition. Terms with
    an energy defect below NEAR_RESONANCE_GHZ are excluded with a logged
    warning; an exactly resonant term raises SingularChannelError.
    """
    k = _require_int("k", k, 1, len(CHANNEL_FINE_STRUCTURE))
    window = _pair_terms(model, n_a, n_b, dn_cutoff)
    window.replay_exclusions()
    return float(window.sums[0, k - 1])  # rows in CHANNEL_FINE_STRUCTURE order


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
    window = _pair_terms(model, n_a, n_b, dn_cutoff)
    window.replay_exclusions()
    c6_v1 = window.blocks[0]  # the V1 block interaction_matrix scales
    return C6Pair(
        n_a=n_a,
        n_b=n_b,
        dn_cutoff=dn_cutoff,
        c6=float(c6_v1[1, 1]),
        c6_exchange=float(c6_v1[1, 2]),
        channel_sums=tuple(window.sums[0].tolist()),
    )


def _khz_per_ghz_um6(spacing_um: float, *coefficients):
    """GHz um^6 ``coefficients`` (arrays) in kHz at spacing L (um), each times 1e6 / L^6."""
    scale = _khz_scale(spacing_um)
    # rounding is monotone: no entry overflows unless the largest in magnitude does
    if not all(math.isfinite(float(np.abs(c).max()) * scale) for c in coefficients):
        raise ValueError(f"spacing {spacing_um} um puts the couplings outside the float range")
    return [c * scale for c in coefficients]


def _khz_scale(spacing_um: float) -> float:
    """1e6 / L^6, the kHz per GHz um^6 at spacing L (um); names a bad spacing."""
    _require_finite("spacing", spacing_um, 0.0, ends="(]")
    try:
        scale = 1e6 / spacing_um**6
    except ArithmeticError:  # L^6 overflows, or underflows to zero
        scale = 0.0
    if not 0.0 < scale < math.inf:
        raise ValueError(f"spacing {spacing_um} um puts 1/L^6 outside the float range")
    return scale


def _v_plus_minus(spacing_um: float, vs_khz: float, vc_khz: float) -> tuple[float, float]:
    """(V+, V-) = (vs + vc, vs - vc) in kHz; names the spacing if either overflows."""
    v_plus, v_minus = float(vs_khz + vc_khz), float(vs_khz - vc_khz)
    if not (math.isfinite(v_plus) and math.isfinite(v_minus)):
        raise ValueError(f"spacing {spacing_um} um puts the couplings outside the float range")
    return v_plus, v_minus


class InteractionMatrix(_ArrayRecord):
    """Second-order interaction blocks of a two-atom pair at spacing L.

    ``v1_khz`` acts within the ordered pair |n_A s, n_B s> and
    ``v2_khz`` couples it to the atom-exchanged pair |n_B s, n_A s>;
    both are 4x4 on SPIN_BASIS, in kHz. ``vs_khz`` and ``vc_khz`` are
    the middle-block diagonal and off-diagonal of v1. Read-only, and
    == compares by identity.
    """

    def __init__(self, spacing_um: float, v1_khz: np.ndarray, v2_khz: np.ndarray,
                 vs_khz: float, vc_khz: float) -> None:
        self._fill(locals())

    @property
    def v_plus_minus_khz(self) -> tuple[float, float]:
        """(V+, V-) of the exchange block; raises naming the spacing if either overflows."""
        return _v_plus_minus(self.spacing_um, self.vs_khz, self.vc_khz)


def interaction_matrix(
    model: QuantumDefectModel,
    n_a: int,
    n_b: int,
    spacing_um: float,
) -> InteractionMatrix:
    """Direct and exchange 4x4 interaction matrices at spacing L (um)."""
    if n_a == n_b:
        raise ValueError("interaction_matrix requires distinct principal numbers")
    window = _pair_terms(model, n_a, n_b, 10)
    window.replay_exclusions()
    v1, v2 = _khz_per_ghz_um6(spacing_um, *window.blocks)
    lc = critical_radius(model, n_a, n_b).radius_um  # the dn-3 window's cached radius
    if spacing_um < lc:
        warnings.warn(
            f"spacing {spacing_um} um is inside the critical radius {lc:.2f} um; "
            "the perturbative interaction matrix is unreliable there",
            stacklevel=2,
        )
    return InteractionMatrix(
        spacing_um=spacing_um,
        v1_khz=v1,
        v2_khz=v2,
        vs_khz=float(v1[1, 1]),
        vc_khz=float(v1[1, 2]),
    )


class VPlusMinus(NamedTuple):
    """Bell-basis interaction strengths of the spin-exchange block.

    The symmetric and antisymmetric combinations of the two middle
    states diagonalize the 2x2 exchange block:

        |r+-> = (|up dn> +- |dn up>) / sqrt(2),
        V+-  = (C6 +- C6ex) / L^6.
    """

    v_plus_khz: float
    v_minus_khz: float


def v_plus_minus(pair: C6Pair, spacing_um: float) -> VPlusMinus:
    """Evaluate V+ and V- (kHz) of a coefficient pair at spacing L (um)."""
    c6, c6_exchange = float(pair.c6), float(pair.c6_exchange)  # numpy's would warn on overflow
    _require_finite("c6", c6)
    _require_finite("c6_exchange", c6_exchange)
    scale = _khz_scale(spacing_um)
    # an overflowed product makes V+ or V- infinite or nan
    return VPlusMinus(*_v_plus_minus(spacing_um, c6 * scale, c6_exchange * scale))


class CriticalRadius(NamedTuple):
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
    return _pair_terms(model, n_a, n_b, dn_cutoff).critical_radius


class ChannelContribution(NamedTuple):
    """One intermediate pair's contribution to V+ and V- (GHz um^6)."""

    channel: int
    ns: int
    nt: int
    defect_ghz: float
    c6_plus: float
    c6_minus: float


class InterferenceDecomposition(_ArrayRecord, Sequence):
    """A window's kept terms in window order, as read-only columns named as the
    ``ChannelContribution`` fields; as a sequence, the rows, built only when read,
    of Python ints and floats bit-equal to the columns. == compares by identity."""

    def __init__(self, channel: np.ndarray, ns: np.ndarray, nt: np.ndarray,
                 defect_ghz: np.ndarray, c6_plus: np.ndarray, c6_minus: np.ndarray) -> None:
        self._fill(locals())
        for column in vars(self).values():
            column.setflags(write=False)  # one record serves every caller

    def __len__(self) -> int:
        return len(self.channel)

    def __getitem__(self, i: int) -> ChannelContribution:  # IndexError out of range
        return ChannelContribution._make(c[operator.index(i)].item() for c in vars(self).values())

    def __iter__(self) -> Iterator[ChannelContribution]:
        return map(ChannelContribution._make, zip(*(c.tolist() for c in vars(self).values())))


def interference_decomposition(
    model: QuantumDefectModel, n_a: int, n_b: int, dn_cutoff: int = 10
) -> InterferenceDecomposition:
    """Per-channel, per-intermediate-pair breakdown of C6 +- C6ex.

    Useful for reading off how fine-structure channels interfere: the
    j=1/2 x 3/2 channels (2 and 3) push V+ and V- apart (1:9 weight
    ratio), channel 1 adds with 17:9, and channel 4 feeds only V+.
    The rows sum to c6 +- c6_exchange of ``c6_pair`` under the same window
    and exclusion rules only to rounding (a few 1e-14 relative on Table I), as
    ``c6_pair`` weights each channel's sum and a row its own term. The
    record is cached on the window; each call still replays the exclusions.
    """
    window = _pair_terms(model, n_a, n_b, dn_cutoff)
    window.replay_exclusions()
    return window.decomposition
