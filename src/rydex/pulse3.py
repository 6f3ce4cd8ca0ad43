"""The batched pulse-3 kernel of a robustness scan, ``_batched_pulse3_fidelities``:
every sample's fidelity after pulse 3 at once, on a Chebyshev expansion or one
eigensolve per sample. Only the commands that scan load it, through ``harness``
and ``scan``.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .dynamics import _SECTOR_LINKS, _evolve, _sector_matrices

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
# Most Chebyshev terms: one batched 8x8 eigh per sample costs about as much as 250
_CHEBYSHEV_MAX_TERMS = 250
# Most samples one pass of the Chebyshev kernel holds by default
_CHUNK = 5120
# Most 8x8 matrices one pass of the eigh fallback solves, to bound a scan's peak RSS
_EIGH_PASS = 2048


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


def _aligned_empty(*shape: int) -> np.ndarray:
    """An uninitialized float64 array whose data starts on a 64-byte boundary."""
    size = math.prod(shape) * 8
    raw = np.empty(size + 64, dtype=np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start : start + size].view(np.float64).reshape(shape)


class _ChebyshevBuffers:
    """One call's arrays for passes of m samples, ``rows`` of them summed, and the views
    each pass writes through (``out=``); each starts on 64 bytes, for wide vector loads."""

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


def _chebyshev_rows(omegas_khz: np.ndarray, out: np.ndarray, step: tuple, chunk: int) -> None:
    """The fidelities of the drives ``omegas_khz`` into ``out``, in equal passes of at
    most ``chunk`` samples, rounded up to a multiple of 8 where that fits, so every
    buffer row starts on 64 bytes (the last pass ends at the block's end, redoing a few
    rows), through buffers allocated here, with numpy's ufunc buffer no larger than one
    row; ``step`` is the rest of ``_chebyshev_pass``'s arguments."""
    n = len(out)
    m = -(-n // -(-n // chunk))
    m = min(-(-m // 8) * 8, chunk, n)
    buffers = _ChebyshevBuffers(m, len(step[4]))
    # a ufunc buffer no larger than a row (numpy takes multiples of 16): a larger one
    # makes numpy copy each broadcast operand (the links, the diagonal) through it
    bufsize = np.setbufsize(max(16, min(m, np.getbufsize()) // 16 * 16))
    try:
        for at in range(0, n, m):
            at = min(at, n - m)  # the last pass ends at n
            _chebyshev_pass(buffers, omegas_khz[at : at + m].T, out[at : at + m], *step)
    finally:
        np.setbufsize(bufsize)


def _drive_bound(omegas_khz: np.ndarray) -> np.ndarray:
    """Each channel's largest drive magnitude over the rows of ``omegas_khz``: its
    maximum or minus its minimum, both exact, so the bound over two halves is the
    elementwise maximum of theirs; on a scan's drives each reduces a contiguous column."""
    return np.maximum(omegas_khz.max(axis=0), -omegas_khz.min(axis=0))


@functools.lru_cache(maxsize=8)
def _setup(v_s_key: tuple, v_c_key: tuple, dtype: str, psi2_bytes: bytes) -> tuple:
    """The drive-free part of a working point's kernel, read-only: h0's diagonal, the
    absolute row sums of its coupling, the V_c entries at (_CYCLES[:, 0, 1],
    _CYCLES[::-1, 0, 1]), and psi2's nonzero rows as cycle-layout slots and amplitudes.
    A V key is (type, value, sign), as ``scan._pulse2_point`` keys its floats."""
    h0 = _sector_matrices(np.zeros(4), v_s_key[1], v_c_key[1])
    centre, coupling = h0.diagonal(), h0 - np.diag(h0.diagonal())
    psi2 = np.frombuffer(psi2_bytes, dtype)
    support = psi2 != 0  # a zero row of psi2 would add exactly +-0 to amp
    parts = (centre, np.abs(coupling).sum(axis=1),
             coupling[_CYCLES[:, 0, 1], _CYCLES[::-1, 0, 1]],
             np.argsort(_CYCLES, axis=None)[support], psi2[support])
    for part in parts:
        part.flags.writeable = False
    return parts


def _batched_pulse3_fidelities(psi2: np.ndarray, omegas_khz: np.ndarray, v_s: float, v_c: float,
                               tau3_us: float, chunk: int = _CHUNK,
                               drive: np.ndarray | None = None) -> np.ndarray:
    """Fidelities |<g+| exp(-2 pi i H t) |psi2>|^2 after pulse 3 for stacked draws.

    Row b of ``omegas_khz`` holds the (dU_A, uD_A, dU_B, uD_B) drives of
    sample b, in either memory order; a scan's are channel-contiguous, so a pass
    reads four contiguous rows. Phases are zero: the target is g+ = (|du> + |ud>)/sqrt(2).
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

    ``chunk`` is the most samples one pass holds (_chebyshev_rows). Only
    elementwise arithmetic touches the samples, so neither the layouts, the
    passes nor the buffer change a bit, and rows cut into ranges give the bits
    of the whole batch under the same bound. The drive-free set-up is kept per
    working point and psi2 (``_setup``); the rest is computed per call.

    One Gershgorin bound (c, r) holds for every sample's matrix: it takes each
    channel's largest drive magnitude, ``drive``, by default over the rows
    given (_drive_bound), so the term count is the same for every pass. A
    forked scan passes the bound of the whole scan to each half. Past
    _CHEBYSHEV_MAX_TERMS terms (long pulses, wide spectra such as a huge V-),
    or at r = 0 (every H zero, nothing to scale by), each pass of at most
    ``chunk`` and _EIGH_PASS samples instead goes through ``_evolve``, one
    8x8 eigensolve per sample whose cost and bits do not depend on the
    passes, and its check names a duration whose phase overflows.

    ``harness.robustness_scan`` reads it as ``harness._batched_pulse3_fidelities``.
    """
    n = omegas_khz.shape[0]
    fids = np.empty(n)
    centre, coupling_sums, pair, slots, coeffs = _setup(
        *((type(v), v, math.copysign(1.0, v)) for v in (v_s, v_c)), psi2.dtype.str, psi2.tobytes())
    if drive is None:
        drive = _drive_bound(omegas_khz)
    radius = drive[_NEIGHBOUR_CHANNELS].sum(axis=0) / 2.0 + coupling_sums
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
    off = (2.0 * pair / r)[:, None]
    _chebyshev_rows(omegas_khz, fids, (weights, diagonal, off, r, slots, coeffs), chunk)
    return fids
