"""Test-side reference for the batched pulse-3 kernel: the gather form it had
before the cycle layout, and ``_chebyshev_terms`` with its recurrence on a
numpy array, as it was before it ran on Python floats, each kept verbatim
(name and docstring included) so the fast forms can be checked bit for bit
against them."""

import math

import numpy as np

from rydex.dynamics import (
    _CHEBYSHEV_MAX_TERMS,
    _MINUS_I_POWER_PARTS,
    _NEIGHBOUR_CHANNELS,
    _NEIGHBOURS,
    _evolve,
    _sector_matrices,
)


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
    spectra such as a huge V-) each pass instead goes through ``_evolve``, one
    8x8 eigensolve per sample whose cost does not grow with x, and its check
    names a duration whose phase overflows.

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
            amps = _evolve(h, psi2, tau3_us)
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
