"""The robustness scan's records and stages: its settings (``RobustnessConfig``), its
histogram (``FidelityHistogram``), the Philox sampler ``_sample_omegas``, the pulse-2
state of each working point, kept for the next scans there, the batched pulse-3 kernel
``_batched_pulse3_fidelities`` and the fork that runs a large scan's two halves at once
(``_forked_fidelities``). ``harness.robustness_scan`` runs them, reading the sampler
and the kernel through ``harness``; only the commands that scan load this module.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .atoms import _require_finite, _require_int
from .dynamics import _SECTOR_LINKS, _evolve, _sector_matrices

__all__ = ["RobustnessConfig", "FidelityHistogram"]

HISTOGRAM_BIN_COUNT = 200
HISTOGRAM_RANGE = (0.8, 1.0)
FRACTION_THRESHOLDS = (0.85, 0.90, 0.95)

# Most samples a scan takes: its largest array, the (samples, 4) float64 draws, must
# have a byte count numpy's index type holds
MAX_SAMPLES = np.iinfo(np.intp).max // 32


@dataclass(frozen=True)
class RobustnessConfig:
    """Dispersion scan settings.

    Each sample redraws the four pulse-3 Rabi frequencies uniformly in
    [1-epsilon, 1+epsilon] times ``omega_khz``; pulse 2 always runs at
    the nominal frequency with the quadratic-correction duration.
    ``samples`` is an int from 1 to MAX_SAMPLES, past which numpy cannot
    describe the scan's (samples, 4) draws; a count below it that the
    memory cannot hold raises MemoryError when the scan runs.
    """

    epsilon: float
    samples: int
    seed: int
    omega_khz: float
    v_plus_khz: float
    v_minus_khz: float

    def __post_init__(self) -> None:
        _require_finite("epsilon", self.epsilon, 0.0, 1.0, "[)")
        _require_int("samples", self.samples, 1, MAX_SAMPLES)
        _require_int("seed", self.seed, 0, 2**64 - 1)
        for name in ("omega_khz", "v_plus_khz", "v_minus_khz"):
            _require_finite(name, getattr(self, name))


@dataclass(frozen=True)
class FidelityHistogram:
    """Histogram of sampled fidelities.

    ``counts`` has one entry per bin plus a leading underflow bin for
    fidelities below ``bin_edges[0]``, so the counts always sum to the
    sample count. ``fraction_above`` maps each threshold to the
    fraction of raw samples strictly above it.
    """

    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    fraction_above: dict[float, float]
    samples: int
    mean: float
    minimum: float

    def __post_init__(self) -> None:
        if sum(self.counts) != self.samples:
            raise ValueError("histogram counts do not sum to the sample count")


# Philox4x64-10 (Salmon et al., SC'11): round multipliers and key increments; the key
# increment _W1, the low-word mask, the shifts, each multiplier with its 32-bit halves and
# the scale of 53 random bits to [0, 1) are 0-d arrays, as ufunc operands (_sample_omegas)
_M0, _M1, _W0 = 0xD2E7470EE14C6C93, 0xCA5A826395121157, 0x9E3779B97F4A7C15
_W1, _LOW32, _SHIFT32, _SHIFT11 = (np.array(v, np.uint64)
                                   for v in (0xBB67AE8584CAA73B, 0xFFFFFFFF, 32, 11))
_MULTIPLIERS = [tuple(np.array(v, np.uint64) for v in (m, m >> 32, m & 0xFFFFFFFF))
                for m in (_M0, _M1)]
_UNIT = np.array(2.0**-53)
# Keys per pass: enough to spread a pass's fixed ufunc calls, few enough to bound peak RSS
_SAMPLE_CHUNK = 8192
# Idle scratch of the sampler (by pass width) and of the kernel (by pass shape), kept for
# the next call in this process: a call takes its shape's set out with dict.pop, which is
# atomic under the GIL, so no two threads or nested calls share one (a call that finds
# none builds its own), and gives it back when done (_keep_idle)
_IDLE_WORDS: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_IDLE_BUFFERS: dict[tuple[int, int], _ChebyshevBuffers] = {}


def _keep_idle(store: dict, key, scratch) -> None:
    """Gives ``scratch`` back to ``store`` as its key's idle set; only the sets of the two
    most recently returned keys stay (a 1k scan and a 100k scan's passes differ)."""
    store[key] = scratch
    for old in list(store)[:-2]:
        store.pop(old, None)


def _mulhilo(m: tuple, x: np.ndarray, hi: np.ndarray, t: np.ndarray, u: np.ndarray,
             v: np.ndarray) -> None:
    """The 128-bit products m * x (``m`` a _MULTIPLIERS entry): high words into ``hi``,
    low words over ``x``, from 32-bit halves (t, u and v are scratch): with t = lh +
    (ll >> 32) and u = hl + (t & M32), the high word is hh + (t >> 32) + (u >> 32)."""
    m, mh, ml = m
    np.bitwise_and(x, _LOW32, t)  # xl
    np.right_shift(x, _SHIFT32, hi)  # xh
    np.multiply(x, m, x)
    np.multiply(t, ml, u)  # ll
    np.multiply(t, mh, t)  # lh
    np.right_shift(u, _SHIFT32, u)
    np.add(t, u, t)
    np.multiply(hi, ml, u)  # hl
    np.multiply(hi, mh, hi)  # hh
    np.bitwise_and(t, _LOW32, v)
    np.add(u, v, u)
    np.right_shift(t, _SHIFT32, t)
    np.right_shift(u, _SHIFT32, u)
    np.add(hi, t, hi)
    np.add(hi, u, hi)


def _sample_omegas(cfg: RobustnessConfig, begin: int = 0, end: int | None = None) -> np.ndarray:
    """Per-sample Rabi frequencies of samples ``begin`` to ``end`` (by default all of
    them), (end - begin, 4), in kHz, channel-contiguous (order "F"): sample i is
    ``Generator(Philox(key=[seed, i])).uniform(lo, hi, 4)`` with an exact uint64 key,
    so any partition draws the same.

    Key word 0 is the seed for every sample, so its bumps are made once per call.
    numpy's counter starts at (1, 0, 0, 0), so round 1 gives (seed, 0, k1, M0) and
    round 2 has one array mulhilo. The array words live in nine uint64 rows; each
    round writes over the words it has read, so the four counter rows rotate, and
    uint64 arithmetic wraps silently, as Philox needs. The rows and the index row
    are kept for the next call of the same pass width (_IDLE_WORDS, two widths at
    most): a fresh 576 KB block's pages fault in again on every scan, and where the
    allocator serves it from moved a 100k scan's sampler time by up to 10%.
    Round 1 names the rows so that the rounds leave the output words in rows 0 to 3
    in column order, and each conversion step is one (4, m) call. A pass makes about
    300 ufunc calls, so every operand is an array (constants and per-call words 0-d)
    and every out positional: a numpy scalar or Python int operand costs a call about
    0.2 us more than a 0-d array does.
    """
    n = (cfg.samples if end is None else end) - begin
    out = np.empty((n, 4), order="F")
    lo = 1.0 - cfg.epsilon
    lo, width = np.array(lo), np.array((1.0 + cfg.epsilon) - lo)
    m = min(n, _SAMPLE_CHUNK)
    # four counter words, k1, high and scratch, and each column's index
    words, index = (_IDLE_WORDS.pop(m, None)
                    or (np.empty((9, m), dtype=np.uint64), np.arange(m, dtype=np.uint64)))
    k0 = [np.array((cfg.seed + r * _W0) % 2**64, np.uint64) for r in range(10)]
    h0, l0 = divmod(_M0 * cfg.seed, 2**64)  # round 2's mulhilo(M0, seed)
    h0_m0 = np.array(h0 ^ _M0, np.uint64)
    m0, m1 = _MULTIPLIERS
    for start in range(0, n, m):
        rows = words[:, : min(m, n - start)]
        c0, c2, c1, c3, k1, high, *scratch = rows
        np.add(index[: rows.shape[1]], np.array(begin + start, np.uint64), c2)  # k1 of round 1
        np.add(c2, _W1, k1)
        _mulhilo(m1, c2, c0, *scratch)
        np.bitwise_xor(c0, k0[1], c0)
        np.bitwise_xor(k1, h0_m0, c1)
        c3.fill(l0)
        c = [c0, c2, c1, c3]  # after round 2
        for r in range(2, 10):
            np.add(k1, _W1, k1)
            _mulhilo(m0, c[0], high, *scratch)
            np.bitwise_xor(c[3], high, c[3])
            np.bitwise_xor(c[3], k1, c[3])
            _mulhilo(m1, c[2], high, *scratch)
            np.bitwise_xor(c[1], high, c[1])
            np.bitwise_xor(c[1], k0[r], c[1])
            c = [c[1], c[2], c[3], c[0]]  # (h1 ^ c1 ^ k0, l1, h0 ^ c3 ^ k1, l0)
        drawn, columns = rows[:4], out[start : start + m].T
        np.right_shift(drawn, _SHIFT11, drawn)
        np.multiply(drawn, _UNIT, columns)
        np.multiply(columns, width, columns)
        np.add(columns, lo, columns)
    _keep_idle(_IDLE_WORDS, m, (words, index))
    out *= cfg.omega_khz
    return out


def _float_key(x: float) -> tuple:
    """``x`` as a ``_pulse2_point`` key that tells 0.0 from -0.0 and 5 from 5.0."""
    return type(x), x, math.copysign(1.0, x)


@functools.lru_cache(maxsize=8)
def _pulse2_point(*key: tuple) -> tuple[float, float, float, float, np.ndarray]:
    """(tau2, tau3, V_s, V_c, psi2) of one working point, psi2 read-only.

    ``key`` holds the ``_float_key`` of the drive, V+ and V-; an error is raised
    again on every call, since it is not kept.
    """
    # read when called: perfbench's tracer loads this module before it wraps these
    from .dynamics import (PRODUCT_BASIS_8, PulseSpec, QuantumState, build_full8, propagate,
                           tau2_approximate)
    from .protocols import _exchange_split, _half_period

    (_, omega, _), (_, v_plus, _), (_, v_minus, _) = key
    tau3 = _half_period("omega_khz", omega)
    tau2 = tau2_approximate(omega, v_plus)
    v_s, v_c = _exchange_split(v_plus, v_minus)
    start = QuantumState.from_label(PRODUCT_BASIS_8, "Uu")
    pulse2 = PulseSpec(omega_uD_B=omega, duration_us=tau2)
    psi2 = propagate(start, build_full8(pulse2, v_s, v_c), tau2).amplitudes
    psi2.flags.writeable = False
    return tau2, tau3, v_s, v_c, psi2


# the histogram's bin edges, as an array and as the floats of its records; and the right
# cuts: the last edge (the last bin is closed), each threshold and +inf (only NaNs past it)
_EDGES = np.linspace(*HISTOGRAM_RANGE, HISTOGRAM_BIN_COUNT + 1)
_EDGE_FLOATS = tuple(_EDGES.tolist())
_RIGHT_CUTS = np.array([_EDGE_FLOATS[-1], *FRACTION_THRESHOLDS, math.inf])


def _histogram(fids: np.ndarray, samples: int) -> FidelityHistogram:
    """The histogram of a scan's ``samples`` fidelities ``fids``: each count, the
    underflow first, and each count above a threshold is a difference of positions
    in the sorted fidelities. The mean and minimum are taken on ``fids`` as given:
    numpy's pairwise sum depends on the order, and a NaN is the minimum."""
    ordered = np.sort(fids)
    cuts = ordered.searchsorted(_EDGES).tolist()
    top, *above, finite = ordered.searchsorted(_RIGHT_CUTS, "right").tolist()
    cuts[-1] = top
    return FidelityHistogram(
        bin_edges=_EDGE_FLOATS,
        counts=tuple(map(int.__sub__, cuts, [0, *cuts[:-1]])),
        fraction_above={thr: float((finite - at) / samples)
                        for thr, at in zip(FRACTION_THRESHOLDS, above)},
        samples=samples,
        mean=float(fids.mean()),
        minimum=float(fids.min()),
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
# Where V_s and V_c sit in every sector matrix: the states V_s shifts, the rows V_c
# couples and the (_CYCLES[:, 0, 1], _CYCLES[::-1, 0, 1]) pairs that hold it
_H0 = _sector_matrices(np.zeros(4), 1.0, 1.0)
_SHIFTED, _COUPLED = _H0.diagonal() != 0, (_H0 - np.diag(_H0.diagonal()) != 0).any(axis=1)
_PAIRED = _H0[_CYCLES[:, 0, 1], _CYCLES[::-1, 0, 1]] != 0
_SLOTS = np.argsort(_CYCLES, axis=None)  # each state's slot in the cycle layout
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
        # whole, at its V_c slots and through its flat view's take; and the sum of the
        # terms of parity p
        t = self.t
        self.steps = [
            (*(t[1 - p][v] for v in _PARTNERS), t[1 - p, ::-1, 0, 1], t[1 - p], t[p],
             t[p, :, 0, 1], self.flat[p].take, self.parts[p])
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
        first, second, across, cur, nxt, nxt_pair, nxt_take, part = b.steps[k & 1]
        np.subtract(multiply(first, link0, g), nxt, nxt)
        nxt += multiply(second, link1, g)
        nxt += multiply(cur, diagonal, g)
        nxt_pair += multiply(off, across, g_pair)
        if k == 1:
            nxt /= 2.0  # T_1 = (H - c)/r T_0
        part += multiply(nxt_take(slots, 0, gathered, "clip"), w[k], gathered)
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
    rows), with numpy's ufunc buffer no larger than one row; ``step`` is the rest of
    ``_chebyshev_pass``'s arguments. The buffers of the pass shape are taken from
    _IDLE_BUFFERS and given back, so a scan does not fault a fresh set's pages in
    again; a pass overwrites all it reads, and at most two shapes are kept (a 1k
    scan's and a 100k scan's)."""
    n = len(out)
    m = -(-n // -(-n // chunk))
    m = min(-(-m // 8) * 8, chunk, n)
    shape = (m, len(step[4]))
    buffers = _IDLE_BUFFERS.pop(shape, None) or _ChebyshevBuffers(*shape)
    # a ufunc buffer no larger than a row (numpy takes multiples of 16): a larger one
    # makes numpy copy each broadcast operand (the links, the diagonal) through it
    bufsize = np.setbufsize(max(16, min(m, np.getbufsize()) // 16 * 16))
    try:
        for at in range(0, n, m):
            at = min(at, n - m)  # the last pass ends at n
            _chebyshev_pass(buffers, omegas_khz[at : at + m].T, out[at : at + m], *step)
    finally:
        np.setbufsize(bufsize)
        _keep_idle(_IDLE_BUFFERS, shape, buffers)


def _drive_bound(omegas_khz: np.ndarray) -> np.ndarray:
    """Each channel's largest drive magnitude over the rows of ``omegas_khz``: its
    maximum or minus its minimum, both exact, so the bound over two halves is the
    elementwise maximum of theirs; on a scan's drives each reduces a contiguous column."""
    return np.maximum(omegas_khz.max(axis=0), -omegas_khz.min(axis=0))


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
    of the whole batch under the same bound. Where V_s and V_c sit is read once
    at import (_SHIFTED, _COUPLED, _PAIRED); each call places them.

    One Gershgorin bound (c, r) holds for every sample's matrix: it takes each
    channel's largest drive magnitude, ``drive``, by default over the rows
    given (_drive_bound), so the term count is the same for every pass. A
    forked scan passes the bound of the whole scan to each half. Past
    _CHEBYSHEV_MAX_TERMS terms (long pulses, wide spectra such as a huge V-),
    or at r = 0 (every H zero, nothing to scale by), each pass of at most
    ``chunk`` and _EIGH_PASS samples instead goes through ``_evolve``, one
    8x8 eigensolve per sample whose cost and bits do not depend on the
    passes, and its check names a duration whose phase overflows.
    """
    n = omegas_khz.shape[0]
    fids = np.empty(n)
    # np.where, not v_s * mask: a negative V_s would put -0.0 in the zero rows
    centre, pair = np.where(_SHIFTED, v_s, 0.0), np.where(_PAIRED, v_c, 0.0)
    coupling_sums = np.where(_COUPLED, abs(v_c), 0.0)  # Gershgorin's off-diagonal row sums
    support = psi2 != 0  # a zero row of psi2 would add exactly +-0 to amp
    slots, coeffs = _SLOTS[support], psi2[support]
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


# Kernel passes (_CHUNK) a scan must pass to fork: below, forking costs what it saves
_FORK_CHUNKS = 4
# this process's cgroups, the v2 one on its "0::" line, and where the v2 hierarchy is
# mounted; each cgroup's cpu.max holds "max" or a quota, then a period, in us
_PROC_CGROUP = "/proc/self/cgroup"
_CGROUP_ROOT = "/sys/fs/cgroup"


def _usable_cpus() -> int:
    """CPUs this process may run on: one where the quota of its cgroup or of an
    ancestor is less than two CPUs' time, else its affinity mask (all CPUs where
    that is unknown)."""
    try:
        with open(_PROC_CGROUP) as f:
            path = next(line[3:].strip() for line in f if line.startswith("0::"))
    except (OSError, StopIteration):  # no cgroup v2 membership to read
        path = "/"
    parts = [part for part in path.split("/") if part]
    if ".." in parts:  # a cgroup outside this namespace: only the root can be read
        parts = []
    for depth in range(len(parts) + 1):
        try:
            with open(os.path.join(_CGROUP_ROOT, *parts[:depth], "cpu.max")) as f:
                quota, period = f.read().split()
            if quota != "max" and int(quota) < 2 * int(period):
                return 1
        except (OSError, ValueError):  # no cgroup v2 limit to read at this depth
            pass
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forked_fidelities(cfg: RobustnessConfig, sample, propagate, psi2: np.ndarray,
                       v_s: float, v_c: float, tau3: float) -> np.ndarray | None:
    """A scan's fidelities, the caller's half of the rows and one forked child's, by
    the stages ``sample`` and ``propagate``; None where the scan is to run inline: at
    most _FORK_CHUNKS passes, off Linux, with another Python thread (whose locks a
    child would inherit) or one usable CPU, where no mapping or process is to be had,
    or where the child ends before the exchange. Each process draws its rows and swaps
    their drive bound (``_drive_bound``) for the other's through a pipe, whose
    unused ends it closes, so both propagate under the whole scan's bound. The child
    writes into an anonymous shared mapping and leaves by ``os._exit``, 0 only once it
    has. A child that ends otherwise after the exchange (an exception, a signal, reaped
    unseen under an ignored SIGCHLD) leaves its half to the caller: the same bits, or
    the real error. A failure in the caller's half kills and reaps the child first."""
    n, half = cfg.samples, cfg.samples // 2
    if not (n > _FORK_CHUNKS * _CHUNK and sys.platform.startswith("linux") and hasattr(os, "fork")
            and threading.active_count() == 1 and _usable_cpus() >= 2):
        return None
    import mmap
    import signal

    def exchange(begin: int, end: int, out: int, into: int):
        # (the whole scan's bound, fidelities of rows begin..end), or Nones if the other ended
        omegas = sample(cfg, begin, end)
        bound = _drive_bound(omegas)
        with contextlib.suppress(BrokenPipeError):
            os.write(out, bound.tobytes())
        other = os.read(into, bound.nbytes)  # one atomic write: all of it, or b""
        if not other:
            return None, None
        drive = np.maximum(bound, np.frombuffer(other))
        return drive, propagate(psi2, omegas, v_s, v_c, tau3, drive=drive)

    try:
        shared = mmap.mmap(-1, (n - half) * 8)
    except OSError:  # ENOMEM
        return None
    held = []  # the pipe ends this process still holds
    try:
        held += os.pipe()  # caller to child
        held += os.pipe()  # child to caller
        child_in, caller_out, caller_in, child_out = held
        try:
            pid = os.fork()
        except OSError:  # EAGAIN, ENOMEM
            return None
        if pid == 0:
            code = 1
            try:
                os.close(caller_in)
                os.close(caller_out)
                _, fids = exchange(half, n, child_out, child_in)
                if fids is not None:
                    np.frombuffer(shared)[:] = fids
                    code = 0
            finally:
                os._exit(code)
        os.close(child_in)
        os.close(child_out)
        held = [caller_in, caller_out]
        try:
            drive, mine = exchange(0, half, caller_out, caller_in)
            try:
                status = os.waitpid(pid, 0)[1]
            except ChildProcessError:  # SIGCHLD ignored: reaped unseen, its end unknown
                status = -1
        except BaseException:
            try:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            except OSError:  # ended and reaped already
                pass
            raise
        if mine is None:
            return None
        if status != 0:
            theirs = propagate(psi2, sample(cfg, half, n), v_s, v_c, tau3, drive=drive)
            return np.concatenate((mine, theirs))
        return np.concatenate((mine, np.frombuffer(shared)))
    finally:
        for fd in held:
            os.close(fd)
        shared.close()
