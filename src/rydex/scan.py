"""The robustness scan's records and stages: its settings (``RobustnessConfig``), its
histogram (``FidelityHistogram``), the Philox sampler ``_sample_omegas``, the
pulse-2 state of each working point, kept for the next scans there, and the fork
that runs a large scan's two halves at once (``_forked_fidelities``).
``harness.robustness_scan`` runs them; only the commands that scan load this module.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import threading
from dataclasses import dataclass

import numpy as np

from .atoms import _require_finite, _require_int
from .pulse3 import _CHUNK, _drive_bound

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
        _require_finite("epsilon", self.epsilon)
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")
        _require_int("samples", self.samples, 1, MAX_SAMPLES)
        if not 0 <= _require_int("seed", self.seed) < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
        for name in ("omega_khz", "v_plus_khz", "v_minus_khz"):
            value = getattr(self, name)
            if isinstance(value, np.ndarray):  # keys the pulse-2 cache, so it must hash
                raise ValueError(f"{name} must be a number, got {value!r}")
            _require_finite(name, value)


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


# Philox4x64-10 (Salmon et al., SC'11): round multipliers and key increments
_M0, _M1, _W0, _W1 = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157,
                               0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
_LOW32 = np.uint64(0xFFFFFFFF)
# Keys per pass: enough to spread a pass's fixed ufunc calls, few enough to bound peak RSS
_SAMPLE_CHUNK = 8192


def _mulhilo(m: np.uint64, x: np.ndarray, hi: np.ndarray, t: np.ndarray, u: np.ndarray,
             v: np.ndarray) -> None:
    """The 128-bit products m * x: the high words into ``hi`` and the low words over
    ``x``, from 32-bit halves (t, u and v are scratch): with t = lh + (ll >> 32) and
    u = hl + (t & M32), the high word is hh + (t >> 32) + (u >> 32)."""
    mh, ml = m >> np.uint64(32), m & _LOW32
    np.bitwise_and(x, _LOW32, out=t)  # xl
    np.right_shift(x, 32, out=hi)  # xh
    x *= m
    np.multiply(t, ml, out=u)  # ll
    t *= mh  # lh
    u >>= 32
    t += u
    np.multiply(hi, ml, out=u)  # hl
    hi *= mh  # hh
    np.bitwise_and(t, _LOW32, out=v)
    u += v
    t >>= 32
    u >>= 32
    hi += t
    hi += u


def _sample_omegas(cfg: RobustnessConfig, begin: int = 0, end: int | None = None) -> np.ndarray:
    """Per-sample Rabi frequencies of samples ``begin`` to ``end`` (by default all of
    them), (end - begin, 4), in kHz, channel-contiguous (order "F"), so each pass writes
    four contiguous runs: sample i is ``Generator(Philox(key=[seed, i])).uniform(lo, hi,
    4)`` with an exact uint64 key, so any partition draws the same.

    Key word 0 is the seed for every sample, so it and its bumps are Python ints.
    numpy's counter starts at (1, 0, 0, 0), so round 1 gives (seed, 0, k1, M0) and
    round 2 has one array mulhilo. The array words live in nine uint64 rows made
    once per call; each round writes over the words it has read, so the four
    counter rows rotate, and uint64 arithmetic wraps silently, as Philox needs.
    """
    n = (cfg.samples if end is None else end) - begin
    out = np.empty((n, 4), order="F")
    lo = 1.0 - cfg.epsilon
    width = (1.0 + cfg.epsilon) - lo
    m = min(n, _SAMPLE_CHUNK)
    words = np.empty((9, m), dtype=np.uint64)  # four counter words, k1, high and scratch
    index = np.arange(m, dtype=np.uint64)
    k0 = [np.uint64((cfg.seed + r * int(_W0)) % 2**64) for r in range(10)]
    h0, l0 = divmod(int(_M0) * cfg.seed, 2**64)  # round 2's mulhilo(M0, seed)
    for start in range(0, n, m):
        c0, c1, c2, c3, k1, high, *scratch = (w[: min(m, n - start)] for w in words)
        np.add(index[: len(k1)], np.uint64(begin + start), out=c2)  # k1 of round 1
        np.add(c2, _W1, out=k1)
        _mulhilo(_M1, c2, c0, *scratch)
        c0 ^= k0[1]
        np.bitwise_xor(k1, np.uint64(h0) ^ _M0, out=c1)
        c3.fill(l0)
        c = [c0, c2, c1, c3]  # after round 2
        for r in range(2, 10):
            k1 += _W1
            _mulhilo(_M0, c[0], high, *scratch)
            c[3] ^= high
            c[3] ^= k1
            _mulhilo(_M1, c[2], high, *scratch)
            c[1] ^= high
            c[1] ^= k0[r]
            c = [c[1], c[2], c[3], c[0]]  # (h1 ^ c1 ^ k0, l1, h0 ^ c3 ^ k1, l0)
        for word, column in zip(c, out[start : start + m].T):
            word >>= 11
            np.multiply(word, 2.0**-53, out=column)
            column *= width
            column += lo
    out *= cfg.omega_khz
    return out


@functools.lru_cache(maxsize=8)
def _pulse2_point(*key: tuple) -> tuple[float, float, float, float, np.ndarray]:
    """(tau2, tau3, V_s, V_c, psi2) of one working point, psi2 read-only.

    ``key`` holds (type, value, sign) of the drive, V+ and V-, so the cache
    tells 0.0 from -0.0 and 5 from 5.0 and computes from the very floats a
    scan passed; an error is raised again on every call, since it is not kept.
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


# the histogram's bin edges, as an array and as the floats of its records
_EDGES = np.linspace(*HISTOGRAM_RANGE, HISTOGRAM_BIN_COUNT + 1)
_EDGE_FLOATS = tuple(_EDGES.tolist())


def _histogram(fids: np.ndarray, samples: int) -> FidelityHistogram:
    """The histogram of a scan's ``samples`` fidelities ``fids``."""
    counts, _ = np.histogram(fids, bins=_EDGES)
    underflow = int(np.count_nonzero(fids < _EDGE_FLOATS[0]))
    fraction_above = {
        thr: float(np.count_nonzero(fids > thr) / samples)
        for thr in FRACTION_THRESHOLDS
    }
    return FidelityHistogram(
        bin_edges=_EDGE_FLOATS,
        counts=(underflow, *counts.tolist()),
        fraction_above=fraction_above,
        samples=samples,
        mean=float(fids.mean()),
        minimum=float(fids.min()),
    )


# Kernel passes (pulse3._CHUNK) a scan must pass to fork: below, forking costs what it saves
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
    their drive bound (``pulse3._drive_bound``) for the other's through a pipe, whose
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
