"""The optimizer's search: scipy's Nelder-Mead on plain floats, run in lockstep
from every start of ``protocols.optimize_pairwise``, each round scored in one
stacked batch, and the restart points it starts from. Only ``pair-sim
--optimize`` loads it, through that function.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .dynamics import _SQRT2, _evolve, _pulse2_matrices, _pulse3_matrices

_UU_3, _G_PLUS_4 = np.eye(3)[0], np.eye(4)[3]  # |Uu> and |g+> in their pulse's sector

_MASK32, _MASK64 = 2**32 - 1, 2**64 - 1
# numpy's SeedSequence hash constants, and Philox4x64-10's round multipliers and key
# increments (Salmon et al., SC'11), which ``scan`` holds as uint64 for its sampler
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_M0, _M1, _W0, _W1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157, 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B


def _philox_key(seed: int) -> tuple[int, int]:
    """``np.random.SeedSequence(seed).generate_state(2, np.uint64)``: the 32-bit words
    of ``seed``, least significant first, hashed into a pool of four words, which are
    hashed out again as two little-endian 64-bit words."""
    words = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    hash_a = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_a
        value ^= hash_a
        hash_a = hash_a * _MULT_A & _MASK32
        value = value * hash_a & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):  # each pool word into every other, then the words past the pool
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_b, state = _INIT_B, []
    for value in pool:
        value ^= hash_b
        hash_b = hash_b * _MULT_B & _MASK32
        value = value * hash_b & _MASK32
        state.append(value ^ value >> 16)
    return state[0] | state[1] << 32, state[2] | state[3] << 32


def _restart_points(seed: int, count: int, lo: list[float], hi: list[float]) -> list[list[float]]:
    """``count`` draws of ``np.random.Generator(np.random.Philox(seed)).uniform(lo, hi)``
    for 4-vectors lo and hi, bit for bit: draw i is the Philox4x64-10 block of counter
    (i, 0, 0, 0) under the seed's key, each word x giving lo + (hi - lo) (x >> 11) 2**-53.
    Each hi - lo must be finite, as numpy requires; the optimizer's box stays below 1e165.
    """
    width = [h - l for l, h in zip(lo, hi)]
    key, points = _philox_key(seed), []
    for counter in range(1, count + 1):
        (k0, k1), c = key, [counter, 0, 0, 0]
        for _ in range(10):  # each round, then the key's bump
            p0, p1 = _M0 * c[0], _M1 * c[2]
            c = [p1 >> 64 ^ c[1] ^ k0, p1 & _MASK64, p0 >> 64 ^ c[3] ^ k1, p0 & _MASK64]
            k0, k1 = (k0 + _W0) & _MASK64, (k1 + _W1) & _MASK64
        points.append([l + w * ((x >> 11) * 2.0**-53) for l, w, x in zip(lo, width, c)])
    return points


def _sector_fidelities(x: np.ndarray, v_plus_khz: float, v_minus_khz: float) -> list[float]:
    """``pairwise_entangle``'s zero-phase fidelity at each row x = (omega2, omega3, tau2,
    tau3) of a (k, 4) array, in its sectors: |Uu> evolves in (Uu, r+, r-), then (a_r+,
    a_Uu/sqrt2, 0, 0) in (r+, e_up+, e_dn+, g+), whose propagator U is symmetric:
    <g+|U|psi> = (U|g+>).psi. One stacked ``np.linalg.eigh`` per pulse, also for k = 0;
    the last product runs row by row on numpy scalars, as a vectorized one rounds
    differently, so each row has its own bits."""
    a = _evolve(_pulse2_matrices(x[:, 0], v_plus_khz, v_minus_khz), _UU_3, x[:, 2])
    u = _evolve(_pulse3_matrices(x[:, 1], v_plus_khz), _G_PLUS_4, x[:, 3])
    return [float(abs(ug[0] * ar[1] + ug[1] * ar[0] / _SQRT2) ** 2) for ar, ug in zip(a, u)]


def _vertex_order(f: list[float]) -> list[int]:
    """``np.argsort(f)``: ``sorted``'s order when the scores are distinct, else numpy's
    own, whose (SIMD) sort may order tied scores differently from a stable one."""
    if len(set(f)) == len(f):
        return sorted(range(len(f)), key=f.__getitem__)
    return np.argsort(np.array(f)).tolist()


def _nelder_mead(x0: list[float], xatol: float, fatol: float):
    """scipy.optimize.minimize's non-adaptive Nelder-Mead (maxiter 400) step for step,
    in plain floats, as a generator: it yields each list of points (lists of n floats)
    it needs scored, is sent their scores, and returns whether it stopped on the
    xatol/fatol test. Every float operation is scipy's, with its rho = 1, chi = 2 and
    psi = sigma = 0.5 written out, on the same operands in the same order, so each
    point has scipy's bits."""
    n = len(x0)
    sim = [x0] + [x0[:k] + [1.05 * x if x != 0 else 0.00025] + x0[k + 1:]
                  for k, x in enumerate(x0)]
    fsim = yield sim
    order = _vertex_order(fsim)  # scipy sorts here and after every iteration; argsort
    sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]  # may reorder ties
    for _ in range(399):  # iterations 1 .. maxiter - 1
        order = _vertex_order(fsim)  # of a sorted list, so sort as often
        sim, fsim = [sim[i] for i in order], [fsim[i] for i in order]
        s0, f0, worst = sim[0], fsim[0], sim[-1]
        # fsim ascends, so its last |f0 - f| is the largest (rounding is monotone)
        if abs(f0 - fsim[-1]) <= fatol and all(
                abs(v - b) <= xatol for s in sim[1:] for v, b in zip(s, s0)):
            return True
        # ((s0 + s1) + s2) + ..., as numpy's reduce over rows adds
        xbar = [functools.reduce(operator.add, column) / n for column in zip(*sim[:-1])]
        xr = [2 * b - w for b, w in zip(xbar, worst)]  # (1 + rho) xbar - rho x_worst
        (fxr,) = yield [xr]
        if fxr < f0:  # expand: (1 + rho chi) xbar - rho chi x_worst
            xe = [3 * b - 2 * w for b, w in zip(xbar, worst)]
            (fxe,) = yield [xe]
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:  # reflect
            sim[-1], fsim[-1] = xr, fxr
        else:  # contract outside or inside, else shrink towards the best vertex
            outside = fxr < fsim[-1]
            xc = ([1.5 * b - 0.5 * w for b, w in zip(xbar, worst)] if outside
                  else [0.5 * b + 0.5 * w for b, w in zip(xbar, worst)])
            (fxc,) = yield [xc]
            if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:
                sim[1:] = [[b + 0.5 * (v - b) for v, b in zip(s, s0)] for s in sim[1:]]
                fsim[1:] = yield sim[1:]
    return False


def _lockstep_nelder_mead(starts: list[np.ndarray], lo: np.ndarray, hi: np.ndarray, tol: float,
                          v_plus_khz: float, v_minus_khz: float) -> tuple[np.ndarray, bool]:
    """A ``_nelder_mead`` on 1 - fidelity from each start, in lockstep: each round scores
    all pending points in one ``_sector_fidelities`` batch, 2 outside [lo, hi] unevaluated.
    Returns the first best point (start by start, then in evaluation order) and whether
    any search stopped on its tolerance test."""
    lo, hi = [float(v) for v in lo], [float(v) for v in hi]
    starts = [[float(v) for v in x0] for x0 in starts]
    searches = [_nelder_mead(x0, tol, 1e-9) for x0 in starts]
    pending = {i: next(search) for i, search in enumerate(searches)}
    best, converged = [(-1.0, x0) for x0 in starts], False  # (fidelity, point) per search
    while pending:
        points = [x for batch in pending.values() for x in batch]
        inside = [all(map(operator.le, lo, x)) and all(map(operator.le, x, hi)) for x in points]
        rows = np.array([x for x, ok in zip(points, inside) if ok]).reshape(-1, len(lo))
        scored = iter(_sector_fidelities(rows, v_plus_khz, v_minus_khz))
        fids = [next(scored) if ok else -math.inf for ok in inside]
        scores, begin = [1.0 - fid if ok else 2.0 for fid, ok in zip(fids, inside)], 0
        for i, batch in list(pending.items()):
            end = begin + len(batch)
            for fid, x in zip(fids[begin:end], batch):
                if fid > best[i][0]:  # the first best of the batch, if strictly better
                    best[i] = (fid, x)
            try:
                pending[i] = searches[i].send(scores[begin:end])
            except StopIteration as stop:
                converged = converged or stop.value
                del pending[i]
            begin = end
    return np.array(max(best, key=lambda entry: entry[0])[1]), converged
