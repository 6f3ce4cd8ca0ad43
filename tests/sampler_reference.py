"""Test-side reference for the Monte Carlo sampler: ``_sample_omegas`` as it was
before the in-place passes, every Philox word an array allocated per round, kept
verbatim, so the in-place sampler can be checked bit for bit against it."""

import numpy as np

from rydex.scan import RobustnessConfig

# Philox4x64-10 (Salmon et al., SC'11): round multipliers and key increments
_M0, _M1, _W0, _W1 = np.array([0xD2E7470EE14C6C93, 0xCA5A826395121157,
                               0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B], dtype=np.uint64)
_SAMPLE_CHUNK = 4096  # keys per pass; one 100k-key pass raised peak RSS 55.9 -> 64.8 MB


def _mulhilo(m: np.uint64, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(high, low) words of the 128-bit products m * x; high from 32-bit halves."""
    s, lo32 = np.uint64(32), np.uint64(0xFFFFFFFF)
    a, b = (m & lo32) * (x >> s), (m >> s) * (x & lo32)
    mid = ((m & lo32) * (x & lo32) >> s) + (a & lo32) + (b & lo32)
    return (m >> s) * (x >> s) + (a >> s) + (b >> s) + (mid >> s), m * x


def _sample_omegas(cfg: RobustnessConfig) -> np.ndarray:
    """Per-sample Rabi frequencies, (samples, 4), in kHz: sample i is
    ``Generator(Philox(key=[seed, i])).uniform(lo, hi, 4)`` with an exact uint64 key,
    so any partition draws the same; each pass computes the first block of its keys."""
    out = np.empty((cfg.samples, 4))
    lo, hi = 1.0 - cfg.epsilon, 1.0 + cfg.epsilon
    for start in range(0, cfg.samples, _SAMPLE_CHUNK):
        k1 = np.arange(start, min(start + _SAMPLE_CHUNK, cfg.samples), dtype=np.uint64)
        # numpy increments its zero counter before the first block: counter (1, 0, 0, 0)
        k0, c = np.full_like(k1, cfg.seed), [np.ones_like(k1)] + 3 * [np.zeros_like(k1)]
        for _ in range(10):
            (h0, l0), (h1, l1) = _mulhilo(_M0, c[0]), _mulhilo(_M1, c[2])
            c = [h1 ^ c[1] ^ k0, l1, h0 ^ c[3] ^ k1, l0]
            k0, k1 = k0 + _W0, k1 + _W1  # uint64 arrays wrap silently, as Philox needs
        u = (np.stack(c, axis=1) >> np.uint64(11)) * 2.0**-53
        out[start : start + _SAMPLE_CHUNK] = lo + (hi - lo) * u
    return cfg.omega_khz * out

