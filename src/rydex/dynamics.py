"""Pulse Hamiltonians and exact propagation for two driven Rydberg atoms.

Each atom carries four relevant internal states: two ground hyperfine
spins and two Rydberg spins, written per atom as

    d, u  : ground spin down / up,
    D, U  : Rydberg spin down / up,

so a two-atom product label is a two-character string with atom A
first, e.g. "uU" = A in ground-up, B in Rydberg-up. Two two-photon
drive channels exist per atom: "dU" couples d <-> U and "uD" couples
u <-> D, so channel "gR_X" links each product label whose atom X
holds the ground spin g to the label with R in that place: these links,
derived from the labels, are the sector's whole drive topology. All
four channel amplitudes are ordinary frequencies in kHz; times are
microseconds; the factor of 2 pi enters only where a pulse is
propagated: here in ``_evolve`` (behind ``propagate``) and
``propagate_sampled``, and in the batched pulse-3 kernel of ``scan``.

The full one-excitation-exchange sector spans eight product states.
Interactions enter through the symmetric and antisymmetric doubly
excited combinations: the pair states |DU> and |UD> carry a diagonal
shift V_s and are coupled by the spin-exchange amplitude V_c, so the
Bell states r+- = (|UD> +- |DU>)/sqrt(2) shift by V+- = V_s +- V_c.

Pulses are piecewise constant, so propagation is by spectral
decomposition of the (Hermitian) pulse matrix, one checked eigensolve
for one matrix or a stack of them; no ODE stepping.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .atoms import _require_finite, _require_int

__all__ = [
    "CHANNELS",
    "PRODUCT_BASIS_8",
    "PulseSpec",
    "QuantumState",
    "HamiltonianMatrix",
    "build_full8",
    "build_swap_2pi",
    "build_blocked2",
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

# One-photon links (row, column, channel index) of the sector: channel "gR_X" takes
# each label whose atom X holds ground spin g (the row) to the label with R there.
_SECTOR_LINKS = tuple(
    (row, PRODUCT_BASIS_8.index(label[:x] + rydberg + label[x + 1 :]), k)
    for k, (ground, rydberg, _, atom) in enumerate(CHANNELS)
    for x in ["AB".index(atom)]
    for row, label in enumerate(PRODUCT_BASIS_8)
    if label[x] == ground
)


def _phasor(phi: float) -> complex:
    """e^{i phi}, the phase factor of every drive."""
    return complex(math.cos(phi), math.sin(phi))


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
        for f in fields(self):  # drives and phases finite, the duration also >= 0
            lower = 0.0 if f.name == "duration_us" else -math.inf
            _require_finite(f.name, getattr(self, f.name), lower)

    def amplitude(self, channel: str) -> complex:
        """Complex amplitude omega * exp(i phi) of one channel."""
        if channel not in CHANNELS:
            raise ValueError(f"unknown channel {channel!r}")
        omega = getattr(self, f"omega_{channel}")
        phi = getattr(self, f"phi_{channel}")
        return omega * _phasor(phi)


def _label_index(basis: tuple[str, ...], label: str) -> int:
    """Where ``label`` sits in ``basis``; a label not there is refused with both named."""
    if label not in basis:
        raise ValueError(f"label {label!r} is not in the basis {basis}")
    return basis.index(label)


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
        amps[_label_index(basis, label)] = 1.0
        return cls(basis=basis, amplitudes=amps)

    def amplitude(self, label: str) -> complex:
        return complex(self.amplitudes[_label_index(self.basis, label)])

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
    and ``v_c`` their spin-exchange coupling, both in kHz and finite.
    """
    for name, value in (("v_s", v_s), ("v_c", v_c)):
        _require_finite(name, value)
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
    for name, value in (("omega", omega), ("phi", phi), ("v_plus", v_plus), ("v_minus", v_minus)):
        _require_finite(name, value)
    c = omega / (2.0 * _SQRT2) * _phasor(phi)
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
    for name, value in (("omega", omega), ("phi", phi), ("v_blockade", v_blockade)):
        _require_finite(name, value)
    c = omega / 2.0 * _phasor(phi)
    m = np.array([[0.0, c], [c.conjugate(), v_blockade]], dtype=complex)
    return HamiltonianMatrix(basis=("ground", "blocked"), matrix=m)


def _eigen_coefficients(h: np.ndarray, psi: np.ndarray, t_us):
    """(w, v, v^H psi) of one Hermitian matrix or a stack, (..., n, n), checking
    that 2 pi H t is finite for each matrix's duration (one ``t_us`` for all or
    one per matrix): the package's one eigensolve. One Python-float bound, 2 pi
    max|w| max|t|, passes for every matrix at once (rounding is monotone), so the
    per-matrix check runs only when it fails, and names what overflows."""
    w, v = np.linalg.eigh(h)
    w_abs, t_abs = float(np.abs(w).max(initial=0.0)), float(np.abs(t_us).max(initial=0.0))
    if not math.isfinite(2.0 * math.pi * w_abs * t_abs):
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

    H entries are ordinary frequencies in kHz and t is in microseconds,
    finite; the phase is 2 pi H t * 1e-3 radians.
    """
    _require_finite("t_us", t_us)
    if state.basis != h.basis:
        raise ValueError(f"state basis {state.basis} does not match Hamiltonian basis {h.basis}")
    amps = _evolve(h.matrix, state.amplitudes, t_us)
    return QuantumState(basis=state.basis, amplitudes=amps)


def propagate_sampled(
    state: QuantumState, h: HamiltonianMatrix, t_us: float, n_samples: int
) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes on a uniform time grid over one pulse.

    Returns (times, amps) with times of shape (n_samples,) spanning
    [0, t_us] inclusive and amps of shape (n_samples, dim), ``t_us``
    finite and ``n_samples`` an int of at least 2 and at most
    np.iinfo(np.intp).max // (16 dim), past which numpy cannot describe
    the complex amplitudes. Used for trajectory export and
    Rydberg-exposure integrals.
    """
    _require_finite("t_us", t_us)
    _require_int("n_samples", n_samples, 2, np.iinfo(np.intp).max // (16 * len(h.basis)))
    if state.basis != h.basis:
        raise ValueError(f"state basis {state.basis} does not match Hamiltonian basis {h.basis}")
    w, v, coef = _eigen_coefficients(h.matrix, state.amplitudes, t_us)
    times = np.linspace(0.0, t_us, n_samples)
    phases = np.exp(-2j * np.pi * np.outer(times * 1e-3, w))
    amps = (phases * coef) @ v.T
    return times, amps


class Pulse2Analytics(NamedTuple):
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
    for name, value in (("omega_uD_B", omega_uD_B), ("v_plus", v_plus), ("v_minus", v_minus)):
        _require_finite(name, value)
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
    if not 0 < rate_sq < math.inf:
        why = ("puts the closed-form rate outside the float range" if not math.isfinite(rate_sq)
               else "leaves the closed form no real oscillation rate")
        raise ValueError(f"pulse-2 drive {omega_uD_B} kHz with V+ = {v_plus} kHz and V- = "
                         f"{v_minus} kHz {why}")
    rate = math.sqrt(rate_sq)  # kHz
    return Pulse2Analytics(tau2_us=1e3 / (2.0 * rate), peak_amplitude=2.0 * o1 / rate)


def tau2_approximate(omega_uD_B: float, v_plus: float) -> float:
    """Leading-order pulse-2 duration (us): (sqrt2/(2 omega)) (1 - (V+/omega)^2)."""
    for name, value in (("omega_uD_B", omega_uD_B), ("v_plus", v_plus)):
        _require_finite(name, value)
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
