"""Pulse Hamiltonians and exact propagation for two driven Rydberg atoms.

Each atom carries four relevant internal states: two ground hyperfine
spins and two Rydberg spins, written per atom as

    d, u  : ground spin down / up,
    D, U  : Rydberg spin down / up,

so a two-atom product label is a two-character string with atom A
first, e.g. "uU" = A in ground-up, B in Rydberg-up. Two two-photon
drive channels exist per atom: "dU" couples d <-> U and "uD" couples
u <-> D. All four channel amplitudes are ordinary frequencies in kHz;
times are microseconds; the factor of 2 pi enters only in this
module, where a pulse is propagated: in ``_evolve`` (behind
``propagate``), ``propagate_sampled`` and the batched pulse-3 kernel
``_batched_pulse3_fidelities``.

The full one-excitation-exchange sector spans eight product states.
Interactions enter through the symmetric and antisymmetric doubly
excited combinations: the pair states |DU> and |UD> carry a diagonal
shift V_s and are coupled by the spin-exchange amplitude V_c, so the
Bell states r+- = (|UD> +- |DU>)/sqrt(2) shift by V+- = V_s +- V_c.

Pulses are piecewise constant, so propagation is by spectral
decomposition of the (Hermitian) pulse matrix, one checked eigensolve
for one matrix or a stack of them; no ODE stepping. Batches of
pulse-3 samples run on an exact Chebyshev expansion instead, while
that is the cheaper of the two.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .atoms import _require_finite

__all__ = [
    "CHANNELS",
    "PRODUCT_BASIS_8",
    "SUPERPOSITION_BASIS_8",
    "PulseSpec",
    "QuantumState",
    "HamiltonianMatrix",
    "build_full8",
    "build_swap_2pi",
    "build_blocked2",
    "relabeling_matrix",
    "propagate",
    "propagate_sampled",
    "Pulse2Analytics",
    "pulse2_analytics",
    "tau2_approximate",
]

_SQRT2 = math.sqrt(2.0)

# Drive channels: "<ground symbol><Rydberg symbol>_<atom>".
CHANNELS = ("dU_A", "uD_A", "dU_B", "uD_B")

# Product basis of the spin-exchange sector (one u and one d among the
# ground/Rydberg spin labels), atom A first.
PRODUCT_BASIS_8 = ("du", "ud", "dD", "uU", "Dd", "Uu", "DU", "UD")

# Superposition labels: g(round) Bell pair, singly excited with spin up
# or down shared, and the doubly excited Bell pair. "+" states form the
# driven sector when both atoms are driven symmetrically.
SUPERPOSITION_BASIS_8 = ("g+", "e_up+", "e_dn+", "r+", "g-", "e_up-", "e_dn-", "r-")

# One-photon links of the sector: (row, column) in PRODUCT_BASIS_8 and
# the index in CHANNELS of the drive that connects them.
_SECTOR_LINKS = (
    (0, 2, 3),  # du <-> dD, uD_B
    (0, 5, 0),  # du <-> Uu, dU_A
    (1, 3, 2),  # ud <-> uU, dU_B
    (1, 4, 1),  # ud <-> Dd, uD_A
    (2, 7, 0),  # dD <-> UD, dU_A
    (3, 6, 1),  # uU <-> DU, uD_A
    (4, 6, 2),  # Dd <-> DU, dU_B
    (5, 7, 3),  # Uu <-> UD, uD_B
)

# Each sector state has two drive links; row j of these (2, 8) tables holds every
# state's j-th linked state and its channel, sorted out of _SECTOR_LINKS.
_LINKED = np.array(sorted(x for r, c, ch in _SECTOR_LINKS for x in ((r, c, ch), (c, r, ch))))
_NEIGHBOURS, _NEIGHBOUR_CHANNELS = (_LINKED[:, i].reshape(8, 2).T for i in (1, 2))
# (-i)^k is real for even k and imaginary for odd k; its nonzero part by k mod 4
_MINUS_I_POWER_PARTS = np.array([1.0, -1.0, -1.0, 1.0])
# Break-even of the two pulse-3 kernels: one batched 8x8 eigh costs about as much
# per sample as this many Chebyshev terms (2-core x86 VM, BLAS at 1 thread).
_CHEBYSHEV_MAX_TERMS = 250


@dataclass(frozen=True)
class PulseSpec:
    """One piecewise-constant two-photon pulse on a two-atom pair.

    Amplitudes are ordinary frequencies in kHz: ``omega_dU_A`` drives
    d <-> U on atom A with phase ``phi_dU_A``, and so on. A pulse
    addresses exactly the channels whose drive it sets.
    """

    omega_dU_A: float = 0.0
    omega_uD_A: float = 0.0
    omega_dU_B: float = 0.0
    omega_uD_B: float = 0.0
    phi_dU_A: float = 0.0
    phi_uD_A: float = 0.0
    phi_dU_B: float = 0.0
    phi_uD_B: float = 0.0
    duration_us: float = 0.0

    def __post_init__(self) -> None:
        _require_finite("duration_us", self.duration_us, 0.0)

    def amplitude(self, channel: str) -> complex:
        """Complex amplitude omega * exp(i phi) of one channel."""
        if channel not in CHANNELS:
            raise ValueError(f"unknown channel {channel!r}")
        omega = getattr(self, f"omega_{channel}")
        phi = getattr(self, f"phi_{channel}")
        return omega * complex(math.cos(phi), math.sin(phi))


@dataclass(frozen=True)
class QuantumState:
    """Complex amplitudes over an ordered, labeled basis."""

    basis: tuple[str, ...]
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (len(self.basis),):
            raise ValueError(
                f"amplitude shape {amps.shape} does not match basis size {len(self.basis)}"
            )
        norm = float(np.sum(np.abs(amps) ** 2))
        if not abs(norm - 1.0) <= 1e-8:
            raise ValueError(f"state norm^2 = {norm} is not 1")
        object.__setattr__(self, "amplitudes", amps)

    @classmethod
    def from_label(cls, basis: tuple[str, ...], label: str) -> "QuantumState":
        amps = np.zeros(len(basis), dtype=complex)
        amps[basis.index(label)] = 1.0
        return cls(basis=basis, amplitudes=amps)

    def amplitude(self, label: str) -> complex:
        return complex(self.amplitudes[self.basis.index(label)])

    def population(self, label: str) -> float:
        return float(abs(self.amplitude(label)) ** 2)


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Hermitian pulse matrix (kHz) over an ordered, labeled basis."""

    basis: tuple[str, ...]
    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=complex)
        n = len(self.basis)
        if m.shape != (n, n):
            raise ValueError(f"matrix shape {m.shape} does not match basis size {n}")
        if not np.isfinite(m).all():
            raise ValueError("pulse matrix has non-finite entries")
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.conj().T).max()) > 1e-12 * scale:
            raise ValueError("pulse matrix is not Hermitian")
        object.__setattr__(self, "matrix", m)


def _pulse2_matrices(omega, v_plus: float, v_minus: float) -> np.ndarray:
    """3x3 pulse-2 matrix on (|Uu>, |r+>, |r->), entries in kHz, or a (..., 3, 3)
    stack of them for an array of drives.

    A single drive on atom B's u <-> D channel couples the singly
    excited state to both doubly excited Bell states with amplitude
    omega / (2 sqrt(2)); the Bell states sit at V+ and V-.
    """
    o1 = np.asarray(omega) / (2.0 * _SQRT2)
    m = np.zeros(o1.shape + (3, 3), dtype=complex)
    m[..., 0, 1:] = m[..., 1:, 0] = o1[..., None]
    m[..., 1, 1], m[..., 2, 2] = v_plus, v_minus
    return m


def _pulse3_matrices(omega, v_plus: float) -> np.ndarray:
    """4x4 pulse-3 matrix on (|r+>, |e_up+>, |e_dn+>, |g+>), in kHz, or a
    (..., 4, 4) stack of them for an array of drives.

    All four channels driven at equal amplitude omega with equal
    phases: the symmetric sector forms a four-level chain that carries
    |r+> down to the Bell ground state |g+>.
    """
    h = (np.asarray(omega) / 2.0)[..., None]
    m = np.zeros(h.shape[:-1] + (4, 4), dtype=complex)
    m[..., 0, 1:3] = m[..., 1:3, 0] = m[..., 3, 1:3] = m[..., 1:3, 3] = h
    m[..., 0, 0] = v_plus
    return m


def build_full8(pulse: PulseSpec, v_s: float, v_c: float) -> HamiltonianMatrix:
    """Full 8x8 matrix of the spin-exchange sector for one pulse.

    ``v_s`` is the diagonal shift of the doubly excited product states
    and ``v_c`` their spin-exchange coupling, both in kHz.
    """
    amps = np.array([pulse.amplitude(ch) for ch in CHANNELS])
    return HamiltonianMatrix(
        basis=PRODUCT_BASIS_8, matrix=_sector_matrices(amps, v_s, v_c)
    )


def _sector_matrices(amps: np.ndarray, v_s: float, v_c: float) -> np.ndarray:
    """(..., 8, 8) sector matrices from (..., 4) amplitudes in CHANNELS order.

    Real amplitudes give real float64 matrices, so batched eigensolves
    stay on the real symmetric path.
    """
    h = np.zeros(amps.shape[:-1] + (8, 8), dtype=np.result_type(amps, 1.0))
    for row, col, ch in _SECTOR_LINKS:
        h[..., row, col] = amps[..., ch]
    h = h + np.swapaxes(h, -1, -2).conj()
    h[..., 6, 6] = h[..., 7, 7] = 2.0 * v_s
    h[..., 6, 7] = h[..., 7, 6] = 2.0 * v_c
    return h / 2.0


def build_swap_2pi(
    omega: float, phi: float, v_plus: float, v_minus: float
) -> HamiltonianMatrix:
    """4x4 matrix of the exchange-sector 2 pi pulse on atom A.

    Basis (|uU>, |dD>, |r+>, |r->): the drive connects both singly
    excited states to the Bell pair with amplitude omega/(2 sqrt 2),
    with a sign flip of the |uU> <-> |r-> leg.
    """
    c = omega / (2.0 * _SQRT2) * complex(math.cos(phi), math.sin(phi))
    m = np.zeros((4, 4), dtype=complex)
    m[0, 2] = c
    m[0, 3] = -c
    m[1, 2] = c
    m[1, 3] = c
    m = m + m.conj().T
    m[2, 2] = v_plus
    m[3, 3] = v_minus
    return HamiltonianMatrix(basis=("uU", "dD", "r+", "r-"), matrix=m)


def build_blocked2(omega: float, phi: float, v_blockade: float) -> HamiltonianMatrix:
    """2x2 matrix of a blockaded drive: [[0, O/2 e^{i phi}], [c.c., V]]."""
    c = omega / 2.0 * complex(math.cos(phi), math.sin(phi))
    m = np.array([[0.0, c], [c.conjugate(), v_blockade]], dtype=complex)
    return HamiltonianMatrix(basis=("ground", "blocked"), matrix=m)


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


def _eigen_coefficients(h: np.ndarray, psi: np.ndarray, t_us):
    """(w, v, v^H psi) of one Hermitian matrix or a stack, (..., n, n), checking
    that 2 pi H t is finite for each matrix's duration (one ``t_us`` for all or
    one per matrix): the package's one eigensolve."""
    w, v = np.linalg.eigh(h)
    w_max = np.abs(w).max(axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        finite = np.isfinite(2.0 * math.pi * w_max * t_us)
    if not finite.all():
        w_bad = float(np.broadcast_to(w_max, finite.shape)[~finite][0])
        if math.isinf(2.0 * math.pi * w_bad):
            raise ValueError(f"eigenvalue {w_bad} kHz of H overflows the phase 2 pi H t")
        t = np.broadcast_to(t_us, finite.shape)[~finite][0]
        raise ValueError(f"pulse duration {t} us overflows the phase 2 pi H t")
    return w, v, v.conj().swapaxes(-1, -2) @ psi


def _evolve(h: np.ndarray, psi: np.ndarray, t_us) -> np.ndarray:
    """exp(-i 2 pi H t) psi for one matrix or a (b, n, n) stack with one duration
    per matrix; a stacked row has the bits of its matrix evolved alone."""
    w, v, coef = _eigen_coefficients(h, psi, t_us)
    phases = np.exp(-2j * np.pi * w * np.asarray(t_us)[..., None] * 1e-3)
    return (v @ (phases * coef)[..., None])[..., 0]


def propagate(state: QuantumState, h: HamiltonianMatrix, t_us: float) -> QuantumState:
    """Evolve a state by exp(-i 2 pi H t) for a constant pulse matrix.

    H entries are ordinary frequencies in kHz and t is in microseconds;
    the phase is 2 pi H t * 1e-3 radians.
    """
    if state.basis != h.basis:
        raise ValueError(f"state basis {state.basis} does not match Hamiltonian basis {h.basis}")
    amps = _evolve(h.matrix, state.amplitudes, t_us)
    return QuantumState(basis=state.basis, amplitudes=amps)


def propagate_sampled(
    state: QuantumState, h: HamiltonianMatrix, t_us: float, n_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes on a uniform time grid over one pulse.

    Returns (times, amps) with times of shape (n_samples,) spanning
    [0, t_us] inclusive and amps of shape (n_samples, dim). Used for
    trajectory export and Rydberg-exposure integrals.
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    if state.basis != h.basis:
        raise ValueError(f"state basis {state.basis} does not match Hamiltonian basis {h.basis}")
    w, v, coef = _eigen_coefficients(h.matrix, state.amplitudes, t_us)
    times = np.linspace(0.0, t_us, n_samples)
    phases = np.exp(-2j * np.pi * np.outer(times * 1e-3, w))
    amps = (phases * coef) @ v.T
    return times, amps


def _chebyshev_terms(x: float) -> np.ndarray | None:
    """J_0(x) .. J_K-1(x), K the first order past x with J_K < 1e-17, or None
    when K would pass _CHEBYSHEV_MAX_TERMS (or x is not finite)."""
    if not x < _CHEBYSHEV_MAX_TERMS:
        return None
    if x < 1e-20:  # J_0 = 1 - x^2/4 rounds to 1 and J_1 = x/2 < 1e-17
        return np.ones(1)
    # Miller's backward recurrence from J_m+1 = 0 and J_m = 1, started past
    # x + 12 x^(1/3) where J_k reaches 1e-17, then J_0 + 2 (J_2 + J_4 + ...) = 1
    m = int(x + 16.0 * x ** (1.0 / 3.0)) + 32
    j = np.zeros(m + 2)
    j[m] = 1.0
    for k in range(m, 0, -1):
        j[k - 1] = 2.0 * k / x * j[k] - j[k + 1]
        if abs(j[k - 1]) > 1e250:
            j[k - 1 :] *= 1e-250
    j = j[: m + 1] / (j[0] + 2.0 * j[2 : m + 1 : 2].sum())
    k = int(np.argmax((np.arange(m + 1) > x) & (np.abs(j) < 1e-17)))
    return j[:k] if 0 < k <= _CHEBYSHEV_MAX_TERMS else None


def _batched_pulse3_fidelities(
    psi2: np.ndarray,
    omegas_khz: np.ndarray,
    v_s: float,
    v_c: float,
    tau3_us: float,
    chunk: int = 2048,
) -> np.ndarray:
    """Fidelities |<g+| exp(-2 pi i H t) |psi2>|^2 after pulse 3 for stacked draws.

    Row b of ``omegas_khz`` holds the (dU_A, uD_A, dU_B, uD_B) drives of
    sample b; phases are zero, so the target is g+ = (|du> + |ud>)/sqrt(2).
    H is real symmetric, so <g+|U|psi2> = (U g+) . psi2, and U g+ is expanded
    in Chebyshev polynomials (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
    (1984)): with the spectrum of H inside c +- r and x = 2 pi r t,

        U g+ = exp(-i x c/r) sum_k (2 - [k = 0]) (-i)^k J_k(x) T_k((H - c)/r) g+.

    Each T_k g+ is real and follows T_k+1 = 2 (H - c)/r T_k - T_k-1, where H
    applied to a batch is two gathers along the sector links plus the V_s, V_c
    terms; the even and odd terms are summed apart and projected on psi2 once.
    The sum runs until J_k < 1e-17, about |x| + 12 |x|^(1/3) terms, and matches
    an eigensolve to ~1e-14; a negative t (a negative drive makes a negative
    half-period) flips the sign of the odd terms. Only elementwise arithmetic
    touches the samples, so ``chunk``, the number of samples per pass, does
    not change a bit.

    One Gershgorin bound (c, r) holds for every sample's matrix: it takes each
    channel's largest drive over the whole array, so the term count is the
    same for every pass. Past _CHEBYSHEV_MAX_TERMS terms (long pulses, wide
    spectra such as a huge V-) each pass instead goes through
    ``_eigen_coefficients``, one 8x8 eigensolve per sample whose cost does not
    grow with x, and its check names a duration whose phase overflows.

    The kernel sits here, next to _SECTOR_LINKS, its only data;
    ``harness.robustness_scan`` calls it under the same name.
    """
    n = omegas_khz.shape[0]
    fids = np.empty(n)
    h0 = _sector_matrices(np.zeros(4), v_s, v_c)  # the drive-free part of every H
    centre, coupling = h0.diagonal(), h0 - np.diag(h0.diagonal())
    drive = np.maximum(omegas_khz.max(axis=0), -omegas_khz.min(axis=0))
    radius = drive[_NEIGHBOUR_CHANNELS].sum(axis=0) / 2.0 + np.abs(coupling).sum(axis=1)
    lo, hi = (centre - radius).min(), (centre + radius).max()
    c, r = (lo + hi) / 2.0, (hi - lo) / 2.0
    x = 2.0 * math.pi * float(r) * tau3_us * 1e-3  # a Python float overflows to inf quietly
    terms = _chebyshev_terms(abs(x))
    if terms is None:
        for start in range(0, n, chunk):
            h = _sector_matrices(omegas_khz[start : start + chunk], v_s, v_c)
            w, v, coef = _eigen_coefficients(h, psi2, tau3_us)
            amps = np.einsum("bij,bj->bi", v, np.exp(-2j * np.pi * w * tau3_us * 1e-3) * coef)
            fids[start : start + chunk] = 0.5 * np.abs(amps[:, 0] + amps[:, 1]) ** 2
        return fids
    weights = 2.0 * terms * _MINUS_I_POWER_PARTS[np.arange(len(terms)) % 4]
    weights[0] = terms[0]
    if x < 0.0:  # a negative duration: J_k(-x) = (-1)^k J_k(x)
        weights[1::2] *= -1.0
    diagonal = (2.0 * (centre - c) / r)[:, None]  # 2 (H - c)/r without the links
    rows, cols = np.nonzero(coupling)
    off = (2.0 * coupling[rows, cols] / r)[:, None]
    for start in range(0, n, chunk):
        om = omegas_khz[start : start + chunk]
        links = [om[:, ch].T / r for ch in _NEIGHBOUR_CHANNELS]  # 2 x link entry / r
        cur, nxt, g = np.zeros((3, 8, om.shape[0]))
        cur[:2] = 1.0  # sqrt(2) g+
        parts = np.zeros((2,) + cur.shape)  # sums of the even and of the odd terms
        parts[0] += weights[0] * cur
        for k in range(1, len(terms)):
            # nxt <- 2 (H - c)/r cur - nxt; then (T_k-1, T_k) <- (T_k, T_k+1)
            np.subtract(np.multiply(np.take(cur, _NEIGHBOURS[0], 0, g), links[0], g), nxt, nxt)
            nxt += np.multiply(np.take(cur, _NEIGHBOURS[1], 0, g), links[1], g)
            nxt += np.multiply(cur, diagonal, g)
            nxt[rows] += off * cur[cols]
            if k == 1:
                nxt /= 2.0  # T_1 = (H - c)/r T_0
            cur, nxt = nxt, cur
            parts[k % 2] += np.multiply(cur, weights[k], g)
        # sqrt(2) <g+|U|psi2> up to a phase, summed state by state in a fixed order
        amp = sum(p * (e + 1j * o) for p, e, o in zip(psi2, *parts))
        fids[start : start + chunk] = 0.5 * np.abs(amp) ** 2
    return fids


@dataclass(frozen=True)
class Pulse2Analytics:
    """Closed-form pulse-2 duration and peak Bell amplitude.

    ``peak_amplitude`` is the closed-form |amplitude| on |r+> at the
    peak; its square is the transferred population. The closed form is
    perturbative in omega1/|V-| and can exceed 1 slightly outside its
    validity range, which is why the amplitude rather than a clipped
    population is stored.
    """

    tau2_us: float
    peak_amplitude: float


def pulse2_analytics(
    omega_uD_B: float, v_plus: float, v_minus: float
) -> Pulse2Analytics:
    """Closed-form pulse-2 timing for drive omega (kHz) and shifts V+-.

    tau2 = 1 / (2 sqrt(V+^2 + 4 o1^2 - 4 o1^3 / V-)), o1 = omega/(2 sqrt 2),
    in ordinary-frequency form (result in microseconds). Valid for
    |V-| >> o1; a warning is emitted when |V-| < 10 o1.
    """
    o1 = omega_uD_B / (2.0 * _SQRT2)
    if v_minus == 0:
        raise ValueError("pulse2_analytics requires a nonzero V-")
    if abs(v_minus) < 10.0 * abs(o1):
        warnings.warn(
            f"pulse-2 closed form is marginal: |V-| = {abs(v_minus):.3g} kHz "
            f"is not >> omega1 = {abs(o1):.3g} kHz",
            stacklevel=2,
        )
    try:
        rate_sq = v_plus**2 + 4.0 * o1**2 - 4.0 * o1**3 / v_minus
    except OverflowError:  # a power past the float range
        rate_sq = math.nan
    if not math.isfinite(rate_sq):
        raise ValueError(f"pulse-2 drive {omega_uD_B} kHz with V+ = {v_plus} kHz and V- = "
                         f"{v_minus} kHz puts the closed-form rate outside the float range")
    if rate_sq <= 0:
        raise ValueError("pulse-2 closed form has no real oscillation rate here")
    rate = math.sqrt(rate_sq)  # kHz
    return Pulse2Analytics(
        tau2_us=1e3 / (2.0 * rate),
        peak_amplitude=2.0 * o1 / rate,
    )


def tau2_approximate(omega_uD_B: float, v_plus: float) -> float:
    """Leading-order pulse-2 duration (us): (sqrt2/(2 omega)) (1 - (V+/omega)^2)."""
    if omega_uD_B == 0:
        raise ValueError("tau2_approximate requires a nonzero drive")
    try:
        tau2 = 1e3 * _SQRT2 / (2.0 * omega_uD_B) * (1.0 - (v_plus / omega_uD_B) ** 2)
    except OverflowError:  # (V+/omega)^2 past the float range
        tau2 = math.nan
    if not 0.0 <= tau2 < math.inf:
        raise ValueError(
            f"pulse-2 drive {omega_uD_B} kHz with V+ = {v_plus} kHz gives no duration: "
            "(sqrt2/(2 omega)) (1 - (V+/omega)^2) must be finite and >= 0"
        )
    return tau2
