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
microseconds; the factor of 2 pi enters only in this module, where a
pulse is propagated: in ``_evolve`` (behind ``propagate``),
``propagate_sampled`` and the batched pulse-3 kernel
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
that is the cheaper, on a layout of the sector's two 4-cycles of drive
links where each state's partners are strided views.
"""

from __future__ import annotations

import math
import os
import threading
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

# Each sector state has two drive links; row j of these (2, 8) tables holds every
# state's j-th linked state and its channel, sorted out of _SECTOR_LINKS.
_LINKED = np.array(sorted(x for r, c, ch in _SECTOR_LINKS for x in ((r, c, ch), (c, r, ch))))
_NEIGHBOURS, _NEIGHBOUR_CHANNELS = (_LINKED[:, i].reshape(8, 2).T for i in (1, 2))
# The links form two 4-cycles, [[du, UD], [dD, Uu]] and [[ud, DU], [uU, Dd]] as (cycle,
# group, member): the _NEIGHBOURS[j] partner of [c, g, m] is [c, 1-g, j]; V_c pairs [:, 0, 1]
_CYCLES = np.array([[[s, _NEIGHBOURS[1, _NEIGHBOURS[0, s]]], _NEIGHBOURS[:, s]] for s in (0, 1)])
_PARTNERS = [np.s_[:, ::-1, j : j + 1] for j in (0, 1)]  # as views, broadcast over m
# The channel of the link to partner 0 depends on cycle and member only; partner 1's is
# partner 0's with the members swapped: one (cycle, 1, member) table serves both
_LINK_CHANNELS = _NEIGHBOUR_CHANNELS[0][_CYCLES][:, :1]
# (-i)^k is real for even k and imaginary for odd k; its nonzero part by k mod 4
_MINUS_I_POWER_PARTS = np.array([1.0, -1.0, -1.0, 1.0])
# Break-even of the two pulse-3 kernels: one batched 8x8 eigh costs as much per sample
# as 230-280 Chebyshev terms, 260-380 on 3 nonzero rows (2-core x86 VM, BLAS 1 thread).
_CHEBYSHEV_MAX_TERMS = 250
# Most 8x8 matrices one pass of the eigh fallback solves: each takes about 3.5 kB of
# stacks at once, so 5120 of them raised a 20k-sample scan's peak RSS by 11 MB over 2048
_EIGH_PASS = 2048


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
    _require_int("n_samples", n_samples, 2)
    most = np.iinfo(np.intp).max // (16 * len(h.basis))
    if n_samples > most:
        raise ValueError(f"n_samples must be at most {most} for {len(h.basis)} states, "
                         f"got {n_samples}")
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
    # x + 12 x^(1/3) where J_k reaches 1e-17, on Python floats (which round as
    # float64 elements do), then numpy's sum for J_0 + 2 (J_2 + J_4 + ...) = 1
    m = int(x + 16.0 * x ** (1.0 / 3.0)) + 32
    down = [0.0, 1.0]  # J_m+1, J_m, ... J_0
    after, at = 0.0, 1.0
    for k in range(m, 0, -1):
        after, at = at, 2.0 * k / x * at - after
        down.append(at)
        if abs(at) > 1e250:
            down = [v * 1e-250 for v in down]
            after, at = down[-2], down[-1]
    j = np.array(down[:0:-1])  # J_0 .. J_m
    j = j / (j[0] + 2.0 * j[2::2].sum())
    k = int(np.argmax((np.arange(m + 1) > x) & (np.abs(j) < 1e-17)))
    return j[:k] if 0 < k <= _CHEBYSHEV_MAX_TERMS else None


def _usable_cpus() -> int:
    """CPUs this process may run on (all of them where affinity is unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _aligned_empty(*shape: int) -> np.ndarray:
    """An uninitialized float64 array whose data starts on a 64-byte boundary."""
    size = math.prod(shape) * 8
    raw = np.empty(size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + size].view(np.float64).reshape(shape)


class _ChebyshevBuffers:
    """One worker's arrays for passes of m samples, ``rows`` of them summed.

    The calling thread allocates them, since glibc would grow a thread's own
    arena for what the thread allocates, and the worker reuses them, with the
    views built here, for every pass; each pass writes into them with ``out=``.
    Each starts on a 64-byte boundary: a 1k-sample kernel call took 0.94 ms
    with the scratch array there and 1.13-1.30 ms with it 16, 32 or 48 bytes
    off (AVX-512 x86 VM), where malloc put it on 3 calls of 4 as the heap
    changed.
    """

    def __init__(self, m: int, rows: int) -> None:
        self.t = _aligned_empty(2, 2, 2, 2, m)  # T_k-1 and T_k in turn, cycle layout
        self.flat = self.t.reshape(2, 8, m)
        self.g = _aligned_empty(2, 2, 2, m)  # scratch: one product, or the rows summed
        self.g_pair, self.gathered = self.g[:, 0, 1], self.g.reshape(8, m)[:rows]
        # and after the last term the projection's amplitude, term and product (complex
        # multiply rounds differently in place, so the product has its own out)
        self.amp, self.term, self.product = self.g.ravel().view(complex)[: 3 * m].reshape(3, m)
        self.links = _aligned_empty(2, 1, 2, m)  # 2 x link entry / r, broadcast over the group
        self.partner_links = (self.links, self.links[:, :, ::-1])
        self.parts = _aligned_empty(2, rows, m)  # sums of the even and odd terms
        # what term k reads and writes, by the parity p of k: T_k-1 = t[1 - p] through
        # its two link partners (_PARTNERS), its V_c partners and whole; T_k = t[p]
        # whole, at its V_c slots and flat; and the sum of the terms of parity p
        t = self.t
        self.steps = [
            (*(t[1 - p][v] for v in _PARTNERS), t[1 - p, ::-1, 0, 1], t[1 - p], t[p],
             t[p, :, 0, 1], self.flat[p], self.parts[p])
            for p in (0, 1)
        ]


def _chebyshev_pass(b: _ChebyshevBuffers, om, out, weights, diagonal, off, r, slots, coeffs):
    """One pass of the pulse-3 expansion: the fidelities of the (4, m) drives ``om``
    into ``out``, in the buffers ``b``; the sum runs on psi2's ``slots`` rows of the
    cycle layout, whose amplitudes are ``coeffs``. A term reads its views from
    ``b.steps`` and its weight as a Python float, and every ufunc has an out, so a
    term allocates and indexes nothing."""
    multiply = np.multiply
    np.divide(om.take(_LINK_CHANNELS, 0, b.links, "clip"), r, out=b.links)
    g, g_pair, gathered, (link0, link1) = b.g, b.g_pair, b.gathered, b.partner_links
    b.t.fill(0.0)
    b.t[0, :, 0, 0] = 1.0  # sqrt(2) g+
    b.parts.fill(0.0)
    w = weights.tolist()
    b.parts[0] += multiply(b.flat[0].take(slots, 0, gathered, "clip"), w[0], gathered)
    for k in range(1, len(w)):
        # nxt <- 2 (H - c)/r cur - nxt, so t[k % 2] becomes T_k
        first, second, across, cur, nxt, nxt_pair, nxt_flat, part = b.steps[k & 1]
        np.subtract(multiply(first, link0, g), nxt, nxt)
        nxt += multiply(second, link1, g)
        nxt += multiply(cur, diagonal, g)
        nxt_pair += multiply(off, across, g_pair)
        if k == 1:
            nxt /= 2.0  # T_1 = (H - c)/r T_0
        part += multiply(nxt_flat.take(slots, 0, gathered, "clip"), w[k], gathered)
    # sqrt(2) <g+|U|psi2> up to a phase, summed state by state in a fixed order
    amp, term, product = b.amp, b.term, b.product
    amp.fill(0.0)
    for p, e, o in zip(coeffs, *b.parts):
        np.add(e, np.multiply(1j, o, term), term)
        amp += np.multiply(p, term, product)
    np.square(np.abs(amp, out), out)
    out *= 0.5


def _batched_pulse3_fidelities(
    psi2: np.ndarray,
    omegas_khz: np.ndarray,
    v_s: float,
    v_c: float,
    tau3_us: float,
    chunk: int = 5120,
) -> np.ndarray:
    """Fidelities |<g+| exp(-2 pi i H t) |psi2>|^2 after pulse 3 for stacked draws.

    Row b of ``omegas_khz`` holds the (dU_A, uD_A, dU_B, uD_B) drives of
    sample b; phases are zero, so the target is g+ = (|du> + |ud>)/sqrt(2).
    H is real symmetric, so <g+|U|psi2> = (U g+) . psi2, and U g+ is expanded
    in Chebyshev polynomials (Tal-Ezer & Kosloff, J. Chem. Phys. 81, 3967
    (1984)): with the spectrum of H inside c +- r and x = 2 pi r t,

        U g+ = exp(-i x c/r) sum_k (2 - [k = 0]) (-i)^k J_k(x) T_k((H - c)/r) g+.

    Each T_k g+ is real and follows T_k+1 = 2 (H - c)/r T_k - T_k-1. It sits in
    the _CYCLES layout, where H reads each state's two link partners as strided
    views of one buffer (_PARTNERS) and V_c as a slice, no copies; each state
    still adds ((N0 l0 - T_k-1) + N1 l1) + diag T_k, then V_c, as a gather did.
    The even and odd terms are summed apart, only on psi2's nonzero rows (pulse
    2 from |Uu> reaches Uu, DU and UD), and projected on psi2 once: a zero row
    would add exactly +-0. The sum runs until J_k < 1e-17, about |x| + 12
    |x|^(1/3) terms, and matches an eigensolve to ~1e-14; a negative t (only a
    direct call passes one: ``_half_period`` refuses a negative drive) flips the
    sign of the odd terms.

    ``chunk`` is the most samples one pass holds. A batch of more than one
    chunk runs on two workers when the process may use two CPUs: the caller
    and one thread, each on its own contiguous half of the rows, in buffers
    the caller allocates once (_ChebyshevBuffers). Each worker cuts its rows
    into equal passes of at most ``chunk`` samples, the last one ending at the
    block's end and so redoing a few rows, and runs them with numpy's ufunc
    buffer no larger than one row: a buffer that holds two rows makes numpy
    copy each broadcast operand (the links, the diagonal) through it, up to 3x
    the cost of a multiply. A batch of one chunk, or a process on one CPU,
    runs inline and starts no thread. Only elementwise arithmetic touches the
    samples, so neither the layout, ``chunk``, the buffer nor the workers
    change a bit. A worker's exception is raised in the caller once every
    worker has ended, and no partly filled result is returned.

    One Gershgorin bound (c, r) holds for every sample's matrix: it takes each
    channel's largest drive over the whole array, so the term count is the
    same for every pass. Past _CHEBYSHEV_MAX_TERMS terms (long pulses, wide
    spectra such as a huge V-), or at r = 0 (every H zero, nothing to scale
    by), each pass of at most ``chunk`` and _EIGH_PASS samples instead goes
    through ``_evolve`` in the caller, one 8x8 eigensolve per sample whose cost
    does not grow with x, and its check names a duration whose phase overflows.

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
    terms = _chebyshev_terms(abs(x)) if r > 0 else None
    if terms is None:
        step = min(chunk, _EIGH_PASS)
        for start in range(0, n, step):
            h = _sector_matrices(omegas_khz[start : start + step], v_s, v_c)
            amps = _evolve(h, psi2, tau3_us)
            fids[start : start + step] = 0.5 * np.abs(amps[:, 0] + amps[:, 1]) ** 2
        return fids
    weights = 2.0 * terms * _MINUS_I_POWER_PARTS[np.arange(len(terms)) % 4]
    weights[0] = terms[0]
    if x < 0.0:  # a negative duration: J_k(-x) = (-1)^k J_k(x)
        weights[1::2] *= -1.0
    diagonal = (2.0 * (centre - c) / r)[_CYCLES, None]  # 2 (H - c)/r without the links
    off = (2.0 * coupling[_CYCLES[:, 0, 1], _CYCLES[::-1, 0, 1]] / r)[:, None]
    support = psi2 != 0  # a zero row of psi2 would add exactly +-0 to amp
    slots = np.argsort(_CYCLES, axis=None)[support]
    step = (weights, diagonal, off, r, slots, psi2[support])
    workers = 2 if n > chunk and _usable_cpus() >= 2 else 1  # two are measured, more not
    edges = [n * i // workers for i in range(workers + 1)]
    jobs = []
    for start, stop in zip(edges, edges[1:]):
        passes = -(-(stop - start) // chunk)
        jobs.append((start, stop, _ChebyshevBuffers(-(-(stop - start) // passes), len(slots))))

    errors = []

    def work(start: int, stop: int, buffers: _ChebyshevBuffers) -> None:
        m = buffers.t.shape[-1]
        # a ufunc buffer no larger than a row (numpy takes multiples of 16)
        bufsize = np.setbufsize(max(16, min(m, np.getbufsize()) // 16 * 16))
        try:
            for at in range(start, stop, m):
                at = min(at, stop - m)  # the last pass ends at stop
                _chebyshev_pass(buffers, omegas_khz[at : at + m].T, fids[at : at + m], *step)
        except BaseException as exc:  # raised in the caller once every worker has ended
            errors.append(exc)
        finally:
            np.setbufsize(bufsize)

    threads = []
    try:
        for job in jobs[1:]:
            thread = threading.Thread(target=work, args=job)
            thread.start()
            threads.append(thread)
        work(*jobs[0])
    finally:
        for thread in threads:
            thread.join()
    if errors:
        raise errors[0]
    return fids


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
