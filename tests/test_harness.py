"""Robustness scans, table/figure reproduction, serialization, and the CLI."""

import argparse
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rydex.atoms import QuantumDefectModel
from rydex.cli import _flatten, build_parser, main
from rydex.dynamics import (
    PRODUCT_BASIS_8,
    PulseSpec,
    QuantumState,
    _CHEBYSHEV_MAX_TERMS,
    _CYCLES,
    _LINK_CHANNELS,
    _NEIGHBOUR_CHANNELS,
    _NEIGHBOURS,
    _PARTNERS,
    _batched_pulse3_fidelities,
    _chebyshev_terms,
    _sector_matrices,
    build_full8,
    propagate,
)
from rydex.harness import (
    REFERENCE_TABLE_III,
    REFERENCE_TABLE_IV,
    TABLE_PAIRS,
    FidelityHistogram,
    RobustnessConfig,
    _sample_omegas,
    dumps_json,
    histogram_payload,
    histogram_rows,
    pair_couplings,
    robustness_scan,
    rows_to_csv,
    run_figure,
    run_table,
    to_jsonable,
)
from rydex.protocols import pairwise_entangle, swap_gate
from rydex import dynamics, harness, vdw
from rydex.vdw import interaction_matrix

from level_reference import RydbergLevel, level_energy
from pulse3_reference import _batched_pulse3_fidelities as gather_pulse3_fidelities
from pulse3_reference import _chebyshev_terms as reference_chebyshev_terms
from radial_reference import rrr_coefficient
from sampler_reference import _sample_omegas as array_per_round_sampler
from sector_reference import SUPERPOSITION_BASIS_8, relabeling_matrix
import serialize_reference

MODEL = QuantumDefectModel.default()

# computed couplings of the default (73, 75) pair at 15 um
V_PLUS = 4.86528311708787
V_MINUS = 711.2447292433305
CORNER = 534.6498677117698
NOMINAL_OMEGA = 58.82522395456994


def _default_couplings():
    return pair_couplings(MODEL, 73, 75, 15.0)


# ---------------------------------------------------------------------------
# pair couplings


def test_pair_couplings_frozen_values():
    coup = _default_couplings()
    assert coup.v_plus_khz == pytest.approx(V_PLUS, rel=1e-12)
    assert coup.v_minus_khz == pytest.approx(V_MINUS, rel=1e-12)
    assert coup.corner_khz == pytest.approx(CORNER, rel=1e-12)
    assert coup.nominal_omega_khz == pytest.approx(NOMINAL_OMEGA, rel=1e-12)


def test_pair_couplings_match_interaction_matrix():
    coup = _default_couplings()
    inter = interaction_matrix(MODEL, 73, 75, 15.0)
    assert coup.v_plus_khz == inter.vs_khz + inter.vc_khz
    assert coup.v_minus_khz == inter.vs_khz - inter.vc_khz
    assert coup.corner_khz == inter.v1_khz[0, 0]
    assert coup.nominal_omega_khz == math.sqrt(
        abs(coup.v_plus_khz * coup.v_minus_khz)
    )


# ---------------------------------------------------------------------------
# robustness configuration and histogram invariants


@pytest.mark.parametrize(
    "kwargs, fragment",
    [
        (dict(epsilon=-0.1), "epsilon"),
        (dict(epsilon=1.0), "epsilon"),
        (dict(samples=0), "samples"),
        (dict(seed=-1), "64 unsigned bits"),
        (dict(seed=2**64), "64 unsigned bits"),
        (dict(omega_khz=math.nan), "omega_khz must be finite, got nan"),
        (dict(omega_khz=math.inf), "omega_khz must be finite, got inf"),
        (dict(v_plus_khz=math.nan), "v_plus_khz must be finite, got nan"),
        (dict(v_minus_khz=-math.inf), "v_minus_khz must be finite, got -inf"),
        (dict(samples=2.5), "samples must be an integer, got 2.5"),
        (dict(samples=math.nan), "samples must be an integer, got nan"),
        (dict(seed=1.5), "seed must be an integer, got 1.5"),
        (dict(seed=True), "seed must be an integer, got True"),
        (dict(omega_khz=True), "omega_khz must be a number, got True"),
        (dict(epsilon=math.nan), "epsilon must be finite, got nan"),
        (dict(epsilon=True), "epsilon must be a number, got True"),
        (dict(epsilon=False), "epsilon must be a number, got False"),
        (dict(omega_khz=np.array(NOMINAL_OMEGA)), r"omega_khz must be a number, got array\("),
        (dict(v_minus_khz=np.array([V_MINUS])), r"v_minus_khz must be a number, got array\("),
    ],
)
def test_robustness_config_validation(kwargs, fragment):
    base = dict(
        epsilon=0.1,
        samples=10,
        seed=0,
        omega_khz=NOMINAL_OMEGA,
        v_plus_khz=V_PLUS,
        v_minus_khz=V_MINUS,
    )
    base.update(kwargs)
    with pytest.raises(ValueError, match=fragment):
        RobustnessConfig(**base)


def test_histogram_counts_must_sum_to_samples():
    with pytest.raises(ValueError, match="do not sum"):
        FidelityHistogram(
            bin_edges=(0.8, 0.9, 1.0),
            counts=(0, 1, 1),
            fraction_above={},
            samples=5,
            mean=0.95,
            minimum=0.9,
        )


def _scan(epsilon, samples, seed, omega=NOMINAL_OMEGA):
    cfg = RobustnessConfig(
        epsilon=epsilon,
        samples=samples,
        seed=seed,
        omega_khz=omega,
        v_plus_khz=V_PLUS,
        v_minus_khz=V_MINUS,
    )
    return cfg, robustness_scan(cfg)


def test_robustness_scan_frozen_smoke():
    """Small scan at a fixed seed reproduces frozen statistics."""
    _, hist = _scan(0.1, 200, 7, omega=58.8)
    assert hist.mean == pytest.approx(0.9711168559720206, rel=1e-12)
    assert hist.minimum == pytest.approx(0.9460998592277354, rel=1e-12)
    assert hist.fraction_above[0.85] == 1.0
    assert hist.fraction_above[0.90] == 1.0
    assert hist.fraction_above[0.95] == 0.995


def test_robustness_counts_sum_and_layout():
    _, hist = _scan(0.1, 200, 7)
    assert len(hist.bin_edges) == 201
    assert len(hist.counts) == 201
    assert sum(hist.counts) == 200
    assert hist.bin_edges[0] == 0.8
    assert hist.bin_edges[-1] == 1.0


def test_fraction_above_is_monotone():
    _, hist = _scan(0.2, 500, 21)
    assert (
        hist.fraction_above[0.85]
        >= hist.fraction_above[0.90]
        >= hist.fraction_above[0.95]
    )


def test_zero_dispersion_collapses_to_a_point():
    """With epsilon = 0 every draw is the nominal frequency."""
    _, hist = _scan(0.0, 4, 0, omega=58.8)
    assert hist.minimum == hist.mean
    assert sum(1 for c in hist.counts if c) == 1


def test_scan_is_deterministic_to_the_byte():
    cfg, hist_a = _scan(0.15, 300, 11, omega=60.0)
    _, hist_b = _scan(0.15, 300, 11, omega=60.0)
    assert dumps_json(histogram_payload(cfg, hist_a)) == dumps_json(
        histogram_payload(cfg, hist_b)
    )


def _scan_bytes(cfg):
    hist = robustness_scan(cfg)
    return dumps_json(histogram_payload(cfg, hist)), rows_to_csv(*histogram_rows(hist))


def test_scan_at_a_cached_working_point_writes_the_bytes_of_a_fresh_one():
    """Pulse 2 runs once per working point: a second scan there hits the cache and
    writes the bytes of a scan after the cache is cleared; psi2 is read-only."""
    cfg = RobustnessConfig(0.15, 1000, 11, NOMINAL_OMEGA, V_PLUS, V_MINUS)
    harness._pulse2_point.cache_clear()
    fresh = _scan_bytes(cfg)
    again = _scan_bytes(dataclasses.replace(cfg, seed=12))
    assert harness._pulse2_point.cache_info()[:2] == (1, 1)  # (hits, misses)
    harness._pulse2_point.cache_clear()
    assert _scan_bytes(dataclasses.replace(cfg, seed=12)) == again
    assert _scan_bytes(cfg) == fresh
    psi2 = harness._pulse2_point(*((type(x), x, 1.0) for x in (NOMINAL_OMEGA, V_PLUS, V_MINUS)))[-1]
    with pytest.raises(ValueError, match="read-only"):
        psi2[0] = 0.0


def test_pulse2_cache_keeps_signed_zeros_and_types_apart():
    harness._pulse2_point.cache_clear()
    for v_plus in (0.0, -0.0, 0, np.float64(0.0)):
        robustness_scan(RobustnessConfig(0.1, 10, 1, 60.0, v_plus, 700.0))
    assert harness._pulse2_point.cache_info()[:2] == (0, 4)


def test_scan_errors_are_the_same_on_every_call():
    """A working point pulse 2 refuses is not cached: each scan raises afresh."""
    cfg = RobustnessConfig(0.1, 10, 1, 5.0, 6.0, 711.0)  # V+ > omega: no pulse-2 time
    harness._pulse2_point.cache_clear()
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match="gives no duration") as raised:
            robustness_scan(cfg)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert harness._pulse2_point.cache_info()[:3] == (0, 2, 8)  # (hits, misses, maxsize)


def test_mean_fidelity_is_seed_insensitive():
    """Different seeds agree on the mean to sampling accuracy."""
    _, h1 = _scan(0.1, 4000, 1)
    _, h2 = _scan(0.1, 4000, 2)
    assert h1.mean == pytest.approx(0.9707125435520011, rel=1e-12)
    assert h2.mean == pytest.approx(0.9707437626811373, rel=1e-12)
    assert abs(h1.mean - h2.mean) < 5e-4


def _generator_loop(seed, samples, epsilon, key_dtype=None):
    """The per-sample reference: one numpy Philox generator per (seed, index)."""
    out = np.empty((samples, 4))
    for i in range(samples):
        key = [seed, i] if key_dtype is None else np.array([seed, i], dtype=key_dtype)
        rng = np.random.Generator(np.random.Philox(key=key))
        out[i] = rng.uniform(1.0 - epsilon, 1.0 + epsilon, 4)
    return NOMINAL_OMEGA * out


def _omegas(seed, samples, epsilon=0.1):
    cfg = RobustnessConfig(epsilon, samples, seed, NOMINAL_OMEGA, V_PLUS, V_MINUS)
    return _sample_omegas(cfg)


def test_sampler_matches_generator_loop():
    for seed in (0, 1, 12345, 2**32 - 1, 2**63 - 1):
        reference = _generator_loop(seed, 777, 0.1)
        for samples in (1, 777):
            assert np.array_equal(_omegas(seed, samples), reference[:samples])
    assert np.array_equal(_omegas(12345, 777, 0.0), _generator_loop(12345, 777, 0.0))
    # 4096 and 4097 sat on and just past the sampler's old chunk boundary; 8191, 8192
    # and 8193 sit around the current one, and 16385 is two reused passes and a short one
    reference = _generator_loop(12345, 16385, 0.2)
    for samples in (4096, 4097, 8191, 8192, 8193, 10000, 16385):
        assert np.array_equal(_omegas(12345, samples, 0.2), reference[:samples])


def test_sampler_key_word_0_wraps_on_its_first_bump():
    """Seed 2**64 - 1 plus the first key increment wraps past 2**64: key word 0 is a
    Python int in the sampler, reduced mod 2**64 as numpy's uint64 key wraps."""
    reference = _generator_loop(2**64 - 1, 4097, 0.1, key_dtype=np.uint64)
    assert np.array_equal(_omegas(2**64 - 1, 4097), reference)


@pytest.mark.parametrize("samples", [1, 8191, 8192, 8193, 3 * 8192 + 5])
@pytest.mark.parametrize("seed", [0, 12345, 2**63, 2**64 - 1])
def test_sampler_is_the_array_per_round_form_bit_for_bit(seed, samples):
    """The in-place passes give the bits of the sampler that allocated every Philox
    word per round, at a partial, a full and a reused pass; seeds past 2**63 too."""
    for epsilon in (0.0, 0.2):
        cfg = RobustnessConfig(epsilon, samples, seed, NOMINAL_OMEGA, V_PLUS, V_MINUS)
        assert _sample_omegas(cfg).tobytes() == array_per_round_sampler(cfg).tobytes()


def test_seeds_from_2_63_keep_every_bit():
    """Keys are exact uint64, so seeds past 2**63 neither collide nor warn."""
    assert not np.array_equal(_omegas(2**63, 50), _omegas(2**63 + 1, 50))
    _, low = _scan(0.1, 50, 2**63)
    _, high = _scan(0.1, 50, 2**63 + 1)
    assert low.mean != high.mean
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        top = _omegas(2**64 - 1, 50)
        _, hist = _scan(0.1, 50, 2**64 - 1)
    assert not np.array_equal(top, _omegas(0, 50))
    assert hist.mean != _scan(0.1, 50, 0)[1].mean
    assert np.array_equal(top, _generator_loop(2**64 - 1, 50, 0.1, key_dtype=np.uint64))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1),
    samples=st.integers(1, 9000),
    fraction=st.floats(0.0, 1.0),
)
def test_sampler_prefix_is_the_shorter_scan(seed, samples, fraction):
    k = max(1, int(fraction * samples))
    assert np.array_equal(_omegas(seed, samples)[:k], _omegas(seed, k))


def test_batched_fidelities_ignore_chunk_size():
    rng = np.random.Generator(np.random.Philox(key=[99, 0]))
    psi2 = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi2 /= np.linalg.norm(psi2)
    omegas = 58.8 * rng.uniform(0.9, 1.1, size=(40, 4))
    small = _batched_pulse3_fidelities(psi2, omegas, 358.05, -353.19, 8.5, chunk=7)
    full = _batched_pulse3_fidelities(psi2, omegas, 358.05, -353.19, 8.5)
    assert np.array_equal(small, full)


@pytest.mark.parametrize("offset", [8, 16, 32, 48])
def test_batched_fidelities_ignore_buffer_alignment(monkeypatch, offset):
    """The kernel's buffers start on 64-byte boundaries for speed only: buffers
    ``offset`` bytes off one give the same bits, for a psi2 nonzero on every row
    and one nonzero on a single row."""
    def shifted(*shape):
        size = math.prod(shape) * 8
        raw = np.empty(size + 128, dtype=np.uint8)
        start = -raw.ctypes.data % 64 + offset
        return raw[start : start + size].view(np.float64).reshape(shape)

    assert dynamics._aligned_empty(3, 1001).ctypes.data % 64 == 0
    rng = np.random.Generator(np.random.Philox(key=[98, 0]))
    general = rng.normal(size=8) + 1j * rng.normal(size=8)
    omegas = 58.8 * rng.uniform(0.9, 1.1, size=(1001, 4))
    for psi2 in (general / np.linalg.norm(general), np.eye(8)[5].astype(complex)):
        aligned = _batched_pulse3_fidelities(psi2, omegas, 358.05, -353.19, 8.5)
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_aligned_empty", shifted)
            assert _batched_pulse3_fidelities(psi2, omegas, 358.05, -353.19, 8.5).tobytes() == (
                aligned.tobytes())


DEFAULT_CHUNK = inspect.signature(_batched_pulse3_fidelities).parameters["chunk"].default


def _inline_and_threaded(*args, **kwargs):
    """The kernel's fids with one usable CPU (inline) and with two (two workers once
    the batch spans more than one chunk), asserted bit-equal."""
    runs = []
    for cpus in (1, 2):
        with mock.patch.object(dynamics, "_usable_cpus", return_value=cpus):
            runs.append(_batched_pulse3_fidelities(*args, **kwargs))
    assert np.array_equal(*runs)
    return runs[0]


class _CountedThread(threading.Thread):
    started = 0

    def start(self):
        type(self).started += 1
        super().start()


@pytest.mark.parametrize("chunk", [7, DEFAULT_CHUNK])
def test_batched_fidelities_are_the_same_bits_on_two_workers(monkeypatch, chunk):
    """Inline and two workers against the gather form, at 1, chunk - 1, chunk,
    chunk + 1 and 2 chunk + 1 rows, and 20,000 at the default chunk; a thread
    starts exactly when the batch spans more than one chunk."""
    rng = np.random.Generator(np.random.Philox(key=[29, 0]))
    psi2 = np.where(np.arange(8) < 5, 0.0, rng.normal(size=8) + 1j * rng.normal(size=8))
    psi2 /= np.linalg.norm(psi2)
    monkeypatch.setattr(threading, "Thread", _CountedThread)
    bufsize = np.getbufsize()  # the passes run with a smaller one, then restore it
    rows = [1, chunk - 1, chunk, chunk + 1, 2 * chunk + 1]
    for n in rows + [20_000] * (chunk == DEFAULT_CHUNK):
        omegas = 58.8 * rng.uniform(0.8, 1.2, size=(n, 4))
        _CountedThread.started = 0
        fids = _inline_and_threaded(psi2, omegas, 358.05, -353.19, 8.5, chunk=chunk)
        assert _CountedThread.started == (n > chunk) and np.getbufsize() == bufsize
        gather = gather_pulse3_fidelities(psi2, omegas, 358.05, -353.19, 8.5, chunk=chunk)
        assert np.array_equal(fids, gather), n


@pytest.mark.parametrize("failing", ["worker", "caller"])
def test_batched_fidelities_raise_a_failed_pass_in_the_caller(monkeypatch, failing):
    """A pass that raises, in the thread or in the caller's own block, reaches the
    caller once every worker has ended; no partial fids come back, and numpy's
    ufunc buffer size is the caller's again."""
    passes = dynamics._chebyshev_pass

    def failing_pass(*args):
        if (threading.current_thread() is threading.main_thread()) == (failing == "caller"):
            raise RuntimeError(f"pass failed in the {failing}")
        passes(*args)

    monkeypatch.setattr(dynamics, "_chebyshev_pass", failing_pass)
    monkeypatch.setattr(dynamics, "_usable_cpus", lambda: 2)
    omegas = 58.8 * np.random.default_rng(3).uniform(0.9, 1.1, size=(50, 4))
    psi2 = np.eye(8)[5].astype(complex)
    alive, bufsize = threading.active_count(), np.getbufsize()
    with pytest.raises(RuntimeError, match=f"pass failed in the {failing}"):
        _batched_pulse3_fidelities(psi2, omegas, 358.05, -353.19, 8.5, chunk=7)
    assert threading.active_count() == alive and np.getbufsize() == bufsize


def test_batched_fidelities_start_no_thread_for_one_chunk_or_one_cpu(monkeypatch):
    def no_thread(*args, **kwargs):
        raise AssertionError("a thread was started")

    monkeypatch.setattr(threading, "Thread", no_thread)
    psi2 = np.eye(8)[5].astype(complex)
    omegas = 58.8 * np.random.default_rng(4).uniform(0.9, 1.1, size=(30, 4))
    expected = gather_pulse3_fidelities(psi2, omegas, 358.05, -353.19, 8.5)
    assert np.array_equal(_batched_pulse3_fidelities(psi2, omegas, 358.05, -353.19, 8.5), expected)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    small = _batched_pulse3_fidelities(psi2, omegas, 358.05, -353.19, 8.5, chunk=7)
    assert np.array_equal(small, expected)
    # where the affinity call is missing, the CPU count decides
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    small = _batched_pulse3_fidelities(psi2, omegas, 358.05, -353.19, 8.5, chunk=7)
    assert np.array_equal(small, expected)


def test_batched_fidelities_match_single_pulse_propagation():
    rng = np.random.Generator(np.random.Philox(key=[7, 0]))
    psi2 = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi2 /= np.linalg.norm(psi2)
    omegas = 58.8 * rng.uniform(0.8, 1.2, size=(5, 4))
    v_s, v_c, tau3 = 358.05, -353.19, 8.5
    batched = _batched_pulse3_fidelities(psi2, omegas, v_s, v_c, tau3)
    g_plus = relabeling_matrix()[SUPERPOSITION_BASIS_8.index("g+")]
    start = QuantumState(basis=PRODUCT_BASIS_8, amplitudes=psi2)
    for om, fid in zip(omegas, batched):
        pulse = PulseSpec(*om, duration_us=tau3)
        final = propagate(start, build_full8(pulse, v_s, v_c), tau3)
        assert fid == pytest.approx(abs(g_plus @ final.amplitudes) ** 2, abs=1e-12)


def _propagated_fidelities(psi2, omegas, v_s, v_c, tau3):
    """The per-sample reference: one 8x8 propagate per draw, projected on g+.
    H is real, so running it back by |t| from psi2 conjugates the forward run
    from conj(psi2): |g+ . exp(i H |t|) psi2| = |g+ . exp(-i H |t|) conj(psi2)|."""
    if tau3 < 0:
        psi2, tau3 = psi2.conj(), -tau3
    g_plus = relabeling_matrix()[SUPERPOSITION_BASIS_8.index("g+")]
    start = QuantumState(basis=PRODUCT_BASIS_8, amplitudes=psi2)
    return np.array([
        abs(g_plus @ propagate(start, build_full8(PulseSpec(*om, duration_us=tau3), v_s, v_c),
                               tau3).amplitudes) ** 2
        for om in omegas
    ])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    psi=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
    epsilon=st.floats(0.0, 0.99),
    omega=st.floats(20.0, 120.0),
    v_s=st.floats(-1000.0, 1000.0),
    v_c=st.floats(-1000.0, 1000.0),
    turns=st.floats(-150.0, 150.0),
)
def test_batched_pulse3_is_the_propagated_fidelity(psi, epsilon, omega, v_s, v_c, turns):
    """Both kernels against 8x8 propagation; pulses up to 150 turns of the widest
    spectrum, forward or backward in time, run from one Chebyshev term to past
    the break-even."""
    psi2 = np.array(psi[:8]) + 1j * np.array(psi[8:])
    assume(np.linalg.norm(psi2) > 0.1)
    psi2 /= np.linalg.norm(psi2)
    tau3 = 1e3 * turns / (abs(v_s) + 2.0 * abs(v_c) + 4.0 * omega)
    omegas = omega * np.random.default_rng(0).uniform(1 - epsilon, 1 + epsilon, (9, 4))
    fids = _batched_pulse3_fidelities(psi2, omegas, v_s, v_c, tau3)
    np.testing.assert_allclose(
        fids, _propagated_fidelities(psi2, omegas, v_s, v_c, tau3), rtol=0, atol=1e-12
    )
    for chunk in (1, 7):  # inline and on two workers
        chunked = _inline_and_threaded(psi2, omegas, v_s, v_c, tau3, chunk=chunk)
        assert np.array_equal(chunked, fids)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    psi=st.lists(st.floats(-1.0, 1.0), min_size=16, max_size=16),
    zeros=st.lists(st.booleans(), min_size=8, max_size=8),
    samples=st.integers(1, 40),
    chunk=st.sampled_from([1, 7, 2048, None]),
    omega=st.floats(-150.0, 150.0),
    v_s=st.floats(-800.0, 800.0),
    v_c=st.floats(-800.0, 800.0),
    turns=st.one_of(st.just(0.0), st.floats(-55.0, 55.0)),
)
def test_batched_pulse3_is_the_gather_kernel_bit_for_bit(
    psi, zeros, samples, chunk, omega, v_s, v_c, turns
):
    """The cycle-layout kernel against the gather form it replaced, with psi2
    exactly zero on any rows, chunks from 1 to past the sample count, forward
    or backward pulses from one Chebyshev term to about the break-even."""
    psi2 = np.where(zeros, 0.0, np.array(psi[:8]) + 1j * np.array(psi[8:]))
    # H = 0 has r = 0, which the kernel sends to eigh but the gather reference divides by
    assume(np.linalg.norm(psi2) > 0.1 and (omega, v_s, v_c) != (0.0, 0.0, 0.0))
    psi2 /= np.linalg.norm(psi2)
    tau3 = 1e3 * turns / (abs(v_s) + 2.0 * abs(v_c) + 4.0 * abs(omega) + 1.0)
    omegas = omega * np.random.default_rng(samples).uniform(0.5, 1.5, (samples, 4))
    chunk = samples + 5 if chunk is None else chunk
    assert np.array_equal(
        _inline_and_threaded(psi2, omegas, v_s, v_c, tau3, chunk=chunk),
        gather_pulse3_fidelities(psi2, omegas, v_s, v_c, tau3, chunk=chunk),
    )


def test_batched_pulse3_of_a_zero_hamiltonian_is_the_start_overlap():
    """Every H zero gives a Gershgorin radius r = 0, nothing to scale by: the batch
    goes to eigh, without a 0/0, and U = 1 leaves 0.5 |psi2[0] + psi2[1]|^2."""
    rng = np.random.Generator(np.random.Philox(key=[12, 0]))
    psi2 = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi2 /= np.linalg.norm(psi2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fids = _batched_pulse3_fidelities(psi2, np.zeros((3, 4)), 0.0, 0.0, 8.5)
    np.testing.assert_allclose(fids, 0.5 * abs(psi2[0] + psi2[1]) ** 2, rtol=1e-14, atol=0)


def test_cycle_layout_views_are_the_sector_links():
    """Each state of the kernel's (cycle, group, member) layout finds its
    _NEIGHBOURS[j] partner through view j and that link's channel through the
    _LINK_CHANNELS table, and V_c pairs the [:, 0, 1] states."""
    assert sorted(_CYCLES.ravel()) == list(range(8))
    assert [PRODUCT_BASIS_8[s] for s in _CYCLES[:, 0, 0]] == ["du", "ud"]  # g+
    for j, view in enumerate(_PARTNERS):
        partners = np.broadcast_to(_CYCLES[view], _CYCLES.shape)
        assert np.array_equal(partners, _NEIGHBOURS[j][_CYCLES])
        buffer = np.zeros((2, 2, 2, 3))
        assert buffer[view].base is buffer  # a view of the same buffer, not a copy
    h0 = _sector_matrices(np.zeros(4), 0.0, 1.0)
    rows, cols = np.nonzero(h0)
    assert set(zip(rows, cols)) == set(zip(_CYCLES[:, 0, 1], _CYCLES[::-1, 0, 1]))
    # one (cycle, 1, member) channel table, broadcast over the group, serves both partners
    for j, table in enumerate((_LINK_CHANNELS, _LINK_CHANNELS[:, :, ::-1])):
        channels = np.broadcast_to(table, _CYCLES.shape)
        assert np.array_equal(channels, _NEIGHBOUR_CHANNELS[j][_CYCLES])


def test_chebyshev_terms_are_the_bessel_values():
    from scipy import special

    for x in (0.0, 1e-30, 1e-15, 1e-8, 1e-3, 0.5, 3.0, 22.4, 100.0, 180.0):
        terms = _chebyshev_terms(x)
        exact = special.jv(np.arange(len(terms) + 40), x)
        np.testing.assert_allclose(terms, exact[: len(terms)], rtol=0, atol=1e-14)
        # the sum stops at the first order past x where J_k falls below 1e-17
        assert len(terms) > x and np.all(np.abs(exact[len(terms):]) < 1e-17)
        assert abs(exact[len(terms) - 1]) >= 1e-17 or len(terms) - 1 <= x
    for x in (_CHEBYSHEV_MAX_TERMS, 1e300, math.inf, math.nan):
        assert _chebyshev_terms(x) is None


@settings(max_examples=300, deadline=None, derandomize=True)
@given(x=st.one_of(st.floats(0.0, 260.0), st.floats(1e-22, 1.0),
                   st.sampled_from([0.0, 5e-324, 1e-20, 1e-21, 249.99, 250.0, math.inf, math.nan])))
def test_chebyshev_terms_are_the_array_recurrence_bit_for_bit(x):
    """The recurrence on Python floats gives the bits of the one on a numpy array."""
    terms, reference = _chebyshev_terms(x), reference_chebyshev_terms(x)
    assert (terms is None) == (reference is None)
    if terms is not None:
        assert terms.dtype == reference.dtype and terms.tobytes() == reference.tobytes()


@pytest.mark.parametrize("tau3,eigh_calls", [(8.5, 0), (120.0, 1), (-8.5, 0), (-120.0, 1)])
def test_batched_pulse3_takes_eigh_only_past_the_break_even(monkeypatch, tau3, eigh_calls):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape) or eigh(h))
    rng = np.random.Generator(np.random.Philox(key=[11, 0]))
    psi2 = rng.normal(size=8) + 1j * rng.normal(size=8)
    psi2 /= np.linalg.norm(psi2)
    omegas = 58.8 * rng.uniform(0.9, 1.1, size=(30, 4))
    fids = _batched_pulse3_fidelities(psi2, omegas, 358.05, -353.19, tau3)
    assert calls == eigh_calls * [(30, 8, 8)]
    reference = _propagated_fidelities(psi2, omegas, 358.05, -353.19, tau3)
    np.testing.assert_allclose(fids, reference, rtol=0, atol=1e-12)


@pytest.mark.parametrize(
    "argv,digest",
    [
        (["robustness", "--v-plus", "5", "--v-minus", "1e300", "--samples", "10"],
         "f11dcac421a83229433267f1868f6e7739dd5342302aaaf11f001baf6350464c"),
        (["robustness", "--omega", "5", "--samples", "2000"],
         "760d2db46b7cc350f99c52440045532d18e50778d481afb09e63d9a01c652462"),
    ],
)
def test_cli_robustness_keeps_recorded_output(capsys, argv, digest):
    """Spectra whose Chebyshev sum would be long (run on eigh) keep their
    recorded output."""
    rc, out, err = _run_cli(capsys, argv)
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_histogram_payload_and_rows():
    cfg, hist = _scan(0.1, 150, 5)
    payload = histogram_payload(cfg, hist)
    assert payload["schema"] == "rydex/1"
    assert payload["command"] == "robustness"
    assert payload["samples"] == 150
    assert set(payload["fraction_above"]) == {"0.85", "0.90", "0.95"}
    assert len(payload["counts"]) == 201

    columns, rows = histogram_rows(hist)
    assert columns == ["bin_lo", "bin_hi", "count"]
    assert len(rows) == 201
    assert rows[0] == [0.0, 0.8, hist.counts[0]]
    assert rows[1][0] == 0.8
    assert sum(r[2] for r in rows) == 150


# ---------------------------------------------------------------------------
# table reproduction


def test_table_i_rows_deviations():
    data = run_table("I", MODEL)
    assert data["table"] == "I"
    rows = data["rows"]
    assert len(rows) == 4
    assert [(r["n_a"], r["n_b"]) for r in rows] == [
        (59, 61), (73, 75), (97, 100), (121, 124),
    ]
    for row in rows:
        assert math.copysign(1, row["c6_computed"]) == math.copysign(
            1, row["c6_reference"]
        )
        assert math.copysign(1, row["c6_exchange_computed"]) == math.copysign(
            1, row["c6_exchange_reference"]
        )
        assert abs(row["c6_rel_dev"]) < 0.10
        assert abs(row["c6_exchange_rel_dev"]) < 0.10
        assert abs(row["ratio_difference"]) < 0.02
    assert data["columns"] == list(rows[0].keys())


def test_table_ii_rows_deviations():
    data = run_table("II", MODEL)
    rows = data["rows"]
    assert [r["dn_cutoff"] for r in rows] == [1, 2, 3, 6, 10, 15, 20]
    for row in rows:
        assert abs(row["rel_dev"]) < 0.02


@pytest.mark.parametrize("table_id, expected_rows", [("III", 12), ("IV", 7)])
def test_channel_tables_match_reference(table_id, expected_rows):
    """Energy defects within 3 MHz and radial factors within tolerance."""
    data = run_table(table_id, MODEL)
    rows = data["rows"]
    assert len(rows) == expected_rows
    for row in rows:
        assert abs(row["defect_mhz_deviation"]) < 3.0
        limit = 0.50 if row["rr_ghz_um3_reference"] < 1.0 else 0.05
        assert abs(row["rr_rel_dev"]) < limit


@pytest.mark.parametrize("table_id", ["III", "IV"])
def test_channel_tables_match_scalar_path(table_id):
    """Each row agrees with the public scalar API: R_rr exactly, the
    defect up to the order in which the four level energies are added."""
    n_a, n_b = TABLE_PAIRS[table_id]
    reference = REFERENCE_TABLE_III if table_id == "III" else REFERENCE_TABLE_IV
    s_a, s_b = RydbergLevel(n_a, 0, 0.5), RydbergLevel(n_b, 0, 0.5)
    rows = run_table(table_id, MODEL)["rows"]
    for ((n1, j1), (n2, j2), _, _), row in zip(reference, rows, strict=True):
        p1, p2 = RydbergLevel(n1, 1, j1), RydbergLevel(n2, 1, j2)
        defect_mhz = 1e3 * (
            level_energy(MODEL, p1) + level_energy(MODEL, p2)
            - level_energy(MODEL, s_a) - level_energy(MODEL, s_b)
        )
        assert abs(row["defect_mhz_computed"] - defect_mhz) < 1e-9
        assert row["rr_ghz_um3_computed"] == abs(
            rrr_coefficient(MODEL, (s_a, s_b), (p1, p2))
        )


def test_table_id_is_case_insensitive():
    assert run_table("iii", MODEL) == run_table("III", MODEL)


def test_unknown_table_rejected():
    with pytest.raises(ValueError, match="unknown table id"):
        run_table("V", MODEL)


@pytest.mark.parametrize("table_id", [1, None, b"I", ["I"]])
def test_table_id_must_be_a_str(table_id):
    with pytest.raises(ValueError, match=r"^table_id must be a str, got "):
        run_table(table_id, MODEL)


def test_table_rerun_is_byte_identical():
    assert dumps_json(run_table("I", MODEL)) == dumps_json(run_table("I", MODEL))


# ---------------------------------------------------------------------------
# figure reproduction


def test_trajectory_figure_populations():
    data = run_figure(3, MODEL)
    assert data["figure"] == 3
    assert data["columns"] == ["t_us", "p_bell_ground", "p_bell_rydberg", "p_other"]
    rows = data["rows"]
    assert len(rows) == 799  # 400 samples per pulse, the shared boundary once
    for t, p_g, p_r, p_o in rows:
        assert p_o > -1e-9
        assert p_g + p_r + p_o == pytest.approx(1.0, abs=1e-9)
    assert rows[0][0] == 0.0
    b0, b1, b2 = data["pulse_boundaries_us"]
    assert b0 == 0.0
    assert 0.0 < b1 < b2
    assert rows[-1][0] == pytest.approx(b2, rel=1e-12)
    assert data["final_bell_ground"] == pytest.approx(0.9903991610746705, rel=1e-9)


def test_histogram_figure_structure():
    data = run_figure(4, MODEL, samples=120, seed=3)
    assert data["figure"] == 4
    assert data["columns"] == ["bin_lo", "bin_hi", "count_eps_0.1", "count_eps_0.2"]
    assert len(data["rows"]) == 201
    assert sum(r[2] for r in data["rows"]) == 120
    assert sum(r[3] for r in data["rows"]) == 120
    assert set(data["fraction_above"]) == {"eps_0.1", "eps_0.2"}
    assert data["omega_khz"] == pytest.approx(NOMINAL_OMEGA, rel=1e-12)


def test_unknown_figure_rejected():
    for figure_id in (5, 0, -1):
        with pytest.raises(ValueError, match="unknown figure id") as error:
            run_figure(figure_id, MODEL)
        assert str(error.value).endswith(f"figure_id must be 3 or 4, got {figure_id}")


@pytest.mark.parametrize("figure_id", [3.0, 4.0, True, "3", None])
def test_figure_id_must_be_an_integer(figure_id):
    with pytest.raises(ValueError, match=r"^figure_id must be an integer, got "):
        run_figure(figure_id, MODEL, samples=10)


def test_figure_id_may_be_a_numpy_integer():
    assert run_figure(np.int64(3), MODEL) == run_figure(3, MODEL)


# ---------------------------------------------------------------------------
# serialization


def test_to_jsonable_conversions():
    out = to_jsonable(
        {
            "f": 0.12345678912345,
            "b": np.bool_(True),
            "i": np.int64(7),
            "t": (1.0, 2.0),
        }
    )
    assert out["f"] == 0.123456789
    assert out["b"] is True
    assert out["i"] == 7
    assert isinstance(out["i"], int)
    assert out["t"] == [1.0, 2.0]


class _Float(float):
    """A float subclass, which the serializers take through their generic path."""


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
# distinct floats whose 9-digit texts are the same, so a memo keyed on the text would fail
_NEAR_TWINS = [0.1234567891, 0.1234567894, 0.12345678912345, 1.7e308, 1.7000000001e308,
               -1.7e308, 1e-310, 1.0000000001e-310, 0.8, math.nextafter(0.8, 1.0)]
_LEAVES = st.one_of(
    _FINITE,
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1.0, *_NEAR_TWINS]),
    _FINITE.map(np.float64),
    st.floats(allow_nan=False, allow_infinity=False, width=32).map(np.float32),
    _FINITE.map(_Float),
    st.integers(-(2**70), 2**70),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.booleans(),
    st.booleans().map(np.bool_),
    st.none(),
    st.text(max_size=4),
    st.sampled_from(['a,b', 'say "hi"', "two\nlines", "cr\r", "é ✓ \u2028", "\x00\x1f", ""]),
)
_KEYS = st.one_of(st.text(max_size=3), st.integers(-3, 3), st.tuples(st.integers(0, 2), st.integers(0, 2)))
_NESTED = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(_KEYS, inner, max_size=4),
    ),
    max_leaves=24,
)
_COLUMNS = ["a", "b", "c"]
_ROWS = st.lists(
    st.one_of(
        st.lists(_LEAVES, min_size=3, max_size=3),
        st.fixed_dictionaries({c: _LEAVES for c in _COLUMNS}),
    ),
    max_size=6,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(payload=st.dictionaries(_KEYS, _NESTED, max_size=5), rows=_ROWS,
       twins=st.lists(st.sampled_from(_NEAR_TWINS + [-0.0, 0.0]), max_size=12))
def test_serializers_write_the_reference_bytes(payload, rows, twins):
    """dumps_json writes what json.dumps writes of the reference to_jsonable's
    copy, and rows_to_csv what csv.writer writes of freshly formatted cells,
    with the float memos cold and warm: nested dicts, lists and tuples of numpy
    scalars, bools, float subclasses, signed zeros, subnormals, +-1.7e308,
    distinct floats with the same 9 digits, None, int and tuple keys, and
    strings with quotes, commas, newlines or non-ASCII characters."""
    payload = {**payload, "twins": twins, "tuple": tuple(twins)}
    rows = rows + [twins[i : i + 3] for i in range(0, len(twins) - 2, 3)]
    for cold in (True, False):
        if cold:
            harness._json_floats.clear()
            harness._csv_floats.clear()
        assert dumps_json(payload) == serialize_reference.dumps_json(payload)
        assert rows_to_csv(_COLUMNS, rows) == serialize_reference.rows_to_csv(_COLUMNS, rows)


def test_float_memos_stay_bounded_and_exact():
    """Past _FLOAT_TEXTS distinct floats a memo starts over, and the bytes hold."""
    values = np.random.default_rng(3).standard_normal(3 * harness._FLOAT_TEXTS + 7).tolist()
    payload = {"v": values + values[:50]}
    assert dumps_json(payload) == serialize_reference.dumps_json(payload)
    rows = [values[i : i + 3] for i in range(0, len(values) - 2, 3)]
    assert rows_to_csv(_COLUMNS, rows) == serialize_reference.rows_to_csv(_COLUMNS, rows)
    assert 0 < len(harness._json_floats) <= harness._FLOAT_TEXTS
    assert 0 < len(harness._csv_floats) <= harness._FLOAT_TEXTS


# A bare object's repr carries its memory address, so that case gets a fixed name.
@pytest.mark.parametrize(
    "bad", [pytest.param(object(), id="object()"), {1, 2}, np.arange(2), 1j], ids=repr
)
def test_dumps_json_refuses_what_json_refuses(bad):
    """A value json cannot write raises the json module's TypeError, nested or not."""
    for payload in ({"x": bad}, {"x": [1.0, {"y": (bad,)}]}):
        with pytest.raises(TypeError) as raised:
            dumps_json(payload)
        with pytest.raises(TypeError) as expected:
            serialize_reference.dumps_json(payload)
        assert str(raised.value) == str(expected.value)


def test_to_jsonable_recurses_under_its_own_name_once(monkeypatch):
    """Only the outer call goes through the public name, so a tracer that wraps
    it opens one span per call, not one per nested value."""
    calls = []
    inner = harness.to_jsonable
    monkeypatch.setattr(harness, "to_jsonable", lambda obj: calls.append(obj) or inner(obj))
    payload = {"a": [1.0, {"b": (2, np.float64(3.5))}], "c": {"d": [True, None]}}
    assert harness.to_jsonable(payload) == serialize_reference.to_jsonable(payload)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "bad",
    [math.nan, math.inf, -math.inf, np.float64(math.nan), np.float64(-math.inf),
     np.float32(math.inf), _Float(math.nan), _Float(math.inf)],
    ids=repr,
)
def test_serializers_refuse_non_finite_floats_as_the_reference(bad):
    """NaN and +-inf, bare or nested, raise the reference's ValueError in JSON and CSV."""
    cases = [
        (dumps_json, serialize_reference.dumps_json, "not JSON compliant", payload)
        for payload in ({"x": bad}, {"x": [1.0, {"y": (bad,)}]})
    ] + [
        (lambda rows: rows_to_csv(["x"], rows), lambda rows: serialize_reference.rows_to_csv(["x"], rows),
         "not CSV compliant", rows)
        for rows in ([[bad]], [{"x": bad}], [[1.0], [bad]])
    ]
    for fast, reference, fragment, data in cases:
        with pytest.raises(ValueError, match=fragment) as raised:
            fast(data)
        with pytest.raises(ValueError, match=fragment) as expected:
            reference(data)
        assert type(raised.value) is type(expected.value)
        assert str(raised.value) == str(expected.value)


def test_dumps_json_sorted_and_terminated():
    text = dumps_json({"b": 1, "a": 2})
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": 2, "b": 1}


def test_rows_to_csv_formats_cells():
    text = rows_to_csv(
        ["name", "value", "flag"],
        [
            {"name": "x", "value": 0.12345678912345, "flag": True},
            ["y", 2, False],
        ],
    )
    lines = text.splitlines()
    assert lines[0] == "name,value,flag"
    assert lines[1] == "x,0.123456789,true"
    assert lines[2] == "y,2,false"
    assert text.endswith("\n")


def test_write_json_and_csv_round_trip(capsys, tmp_path):
    # --out writes exactly the bytes the command prints, in either format
    argv = ["critical-radius", "--na", "73", "--nb", "75"]
    for fmt in ("json", "csv"):
        path = tmp_path / f"out.{fmt}"
        assert main(argv + ["--format", fmt]) == 0
        printed = capsys.readouterr().out
        assert main(argv + ["--format", fmt, "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == printed.encode()
        assert printed.endswith("\n")
    assert json.loads((tmp_path / "out.json").read_text())["command"] == "critical-radius"


# ---------------------------------------------------------------------------
# command line


def _run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_cli_critical_radius_computes_no_wider_window(capsys):
    # the dn-3 window of (20, 22) stays above n_eff 10; a dn-10 one would warn marginal
    vdw._pair_windows.cache_clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, _, err = _run_cli(capsys, ["critical-radius", "--na", "20", "--nb", "22"])
    assert (rc, err, caught) == (0, "", [])


def test_cli_coeffs_json(capsys):
    rc, out, err = _run_cli(capsys, ["coeffs", "--na", "73", "--nb", "75"])
    assert rc == 0
    assert err == ""
    data = json.loads(out)
    assert data["schema"] == "rydex/1"
    assert data["command"] == "coeffs"
    assert data["c6_ghz_um6"] == pytest.approx(4078.470304771446, rel=1e-8)
    assert data["c6_exchange_ghz_um6"] == pytest.approx(-4023.051689265867, rel=1e-8)
    assert set(data["channel_sums_ghz_um6"]) == {"1", "2", "3", "4"}


def test_cli_coeffs_csv_flattens_payload(capsys):
    rc, out, _ = _run_cli(
        capsys, ["coeffs", "--na", "73", "--nb", "75", "--dn", "2", "--format", "csv"]
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "key,value"
    keys = [line.split(",")[0] for line in lines[1:]]
    assert "c6_ghz_um6" in keys
    assert "channel_sums_ghz_um6.1" in keys


def _dotted(data, prefix=""):
    for key, value in data.items():
        if isinstance(value, dict):
            yield from _dotted(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value


def _csv_cell(text):
    """A key,value cell as JSON reads it: true/false, numbers and lists decoded."""
    if text in ("true", "false"):
        return text == "true"
    try:
        return json.loads(text)
    except ValueError:
        return text


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--na", "73", "--nb", "75"],
        ["critical-radius", "--na", "73", "--nb", "75"],
        ["pair-sim"],
        ["pair-sim", "--optimize"],
        ["swap-sim"],
        ["chain"],
    ],
    ids=" ".join,
)
def test_cli_csv_and_json_carry_the_same_payload(capsys, argv):
    rc, out, _ = _run_cli(capsys, argv)
    assert rc == 0
    expected = {k: (isinstance(v, bool), v) for k, v in _dotted(json.loads(out))}
    rc, out, _ = _run_cli(capsys, [*argv, "--format", "csv"])
    assert rc == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert header == ["key", "value"]
    cells = {key: _csv_cell(text) for key, text in rows}
    assert {k: (isinstance(v, bool), v) for k, v in cells.items()} == expected


def test_cli_out_file_reruns_byte_identical(capsys, tmp_path):
    argv = ["critical-radius", "--na", "73", "--nb", "75"]
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    assert main(argv + ["--out", str(path_a)]) == 0
    assert main(argv + ["--out", str(path_b)]) == 0
    capsys.readouterr()
    assert path_a.read_bytes() == path_b.read_bytes()
    data = json.loads(path_a.read_text())
    assert data["radius_um"] == pytest.approx(6.086205115301881, rel=1e-8)


_PAIR = ["coeffs", "--na", "73", "--nb", "75"]


def test_cli_config_fills_gaps_and_flags_win(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# settings for a coefficient run\n"
        "na 97\n"
        "nb = 100\n"
        "dn 3\n"
        "format csv\n"
    )
    rc, out, _ = _run_cli(capsys, ["coeffs", "--config", str(cfg)])
    assert rc == 0
    assert out.splitlines()[0] == "key,value"
    assert "n_a,97" in out

    rc, out, _ = _run_cli(
        capsys,
        ["coeffs", "--config", str(cfg), "--na", "73", "--nb", "75",
         "--format", "json"],
    )
    assert rc == 0
    data = json.loads(out)
    assert data["n_a"] == 73
    assert data["n_b"] == 75
    assert data["dn_cutoff"] == 3

    # a switch set false adds nothing, a key only another command takes is
    # skipped, and a negative value reaches its flag intact
    for argv, content, typed in [
        (["pair-sim"], "optimize false\n", ["pair-sim"]),
        (_PAIR, "spacing 15\n", _PAIR),
        (["swap-sim"], "phi = -0.5\n", ["swap-sim", "--phi", "-0.5"]),
    ]:
        cfg.write_text(content)
        rc, out, _ = _run_cli(capsys, [*argv, "--config", str(cfg)])
        assert (rc, out) == _run_cli(capsys, typed)[:2]

    def optimizer_reached(v_plus, v_minus, seed):
        raise ValueError(f"optimizer reached with seed {seed}")

    monkeypatch.setattr("rydex.protocols.optimize_pairwise", optimizer_reached)
    cfg.write_text("optimize yes\nseed 7\n")
    rc, out, err = _run_cli(capsys, ["pair-sim", "--config", str(cfg)])
    assert (rc, out, err) == (1, "", "error: optimizer reached with seed 7\n")


@pytest.mark.parametrize(
    "content, argv, message",
    [
        ("frobnicate 3\n", _PAIR, "unknown config key 'frobnicate'"),
        ("na notanint\n", _PAIR, "invalid int value: 'notanint'"),
        ("justakey\n", _PAIR, "expected 'key value' pairs"),
        ("optimize maybe\n", ["pair-sim"], "config key 'optimize': not a boolean: 'maybe'"),
        ("dn 3\n", ["coeffs"], "the following arguments are required: --na, --nb"),
    ],
    ids=["frobnicate 3\n", "na notanint\n", "justakey\n", "optimize maybe\n", "dn 3\n"],
)
def test_cli_bad_config_exits_2(capsys, tmp_path, content, argv, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(content)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--config", str(cfg)])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_cli_missing_pair_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["coeffs"])
    assert exc.value.code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--na", "73", "--nb", "73"],
        ["coeffs", "--na", "73", "--nb", "75", "--defects", "/nonexistent.txt"],
        ["swap-sim", "--v-plus", "5"],
        ["swap-sim", "--v-plus", "5", "--v-minus", "711"],
    ],
)
def test_cli_computation_errors_return_1(capsys, argv):
    rc, out, err = _run_cli(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error:")


def _tiny_rydberg_defects(tmp_path) -> str:
    """The bundled defect file with a Rydberg constant of 1e-300 GHz, which scales
    every energy defect of a window below the near-resonance cut."""
    text = (Path(__file__).resolve().parents[1] / "src/rydex/data/rb87_defects.txt").read_text()
    path = tmp_path / "tiny_rydberg.txt"
    path.write_text(text.replace("rydberg_constant_ghz 3289821.194553", "rydberg_constant_ghz 1e-300"))
    return str(path)


@pytest.mark.parametrize("command,message", [
    ("critical-radius", "dominant channel 2 (73p, 74p) of (73s, 75s) has defect -1.25e-308 GHz "
                        "against coupling 29.5 GHz um^3; no finite critical radius"),
    ("coeffs", "C6 of (73s, 75s) at dn_cutoff 10 sums to exactly 0, "
               "so the ratio C6_exchange / C6 is undefined"),
], ids=["critical-radius", "coeffs"])
def test_cli_names_a_window_with_no_finite_answer(capsys, tmp_path, command, message):
    # before, both built an inf (the radius, or |C6_exchange / 0|) and failed in the
    # JSON writer with "Out of range float values are not JSON compliant: inf"
    argv = [command, "--na", "73", "--nb", "75", "--defects", _tiny_rydberg_defects(tmp_path)]
    rc, out, err = _run_cli(capsys, argv)
    assert (rc, out, err.splitlines()[-1]) == (1, "", f"error: {message}")
    proc = _fresh_process("-m", "rydex.cli", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr.splitlines()[-1]) == (1, "", f"error: {message}")


_ZERO_WORKING_DRIVE = (
    "the working drive sqrt|V+ V-| is 0 for V+ = 0.0 kHz and V- = 0.0 kHz: "
    "derived drives need a nonzero --v-plus and --v-minus"
)
_INFINITE_WORKING_DRIVE = (
    "the working drive sqrt|V+ V-| is inf for V+ = 1e+200 kHz and V- = 1e+200 kHz: "
    "derived drives need a finite --v-plus and --v-minus"
)


@pytest.mark.parametrize(
    "argv,message",
    [
        (["coeffs", "--na", "3", "--nb", "5"],
         "n_a=3 with dn_cutoff=10 reaches n=-7, below the lowest bound p level n=4"),
        (["critical-radius", "--na", "75", "--nb", "5"], "n_b=5 with dn_cutoff=3"),
        (["pair-sim", "--spacing", "nan"], "spacing must be positive and finite, got nan"),
        (["pair-sim", "--spacing", "inf"], "spacing must be positive and finite, got inf"),
        (["chain", "--gamma", "nan"], "decay rate gamma_per_ms must be finite and >= 0, got nan"),
        (["chain", "--gamma", "nan", "--format", "csv"],
         "decay rate gamma_per_ms must be finite and >= 0, got nan"),
        (["chain", "--tau", "-3"], "tau_us must be finite and >= 0, got -3.0"),
        (["swap-sim", "--t2pi", "-1"], "t_2pi_us must be finite and >= 0, got -1.0"),
        (["pair-sim", "--omega2", "nan"], "omega_pulse2_khz must be finite, got nan"),
        (["swap-sim", "--omega", "nan"], "omega_khz must be finite, got nan"),
        (["robustness", "--omega", "nan", "--samples", "10"],
         "omega_khz must be finite, got nan"),
        (["pair-sim", "--omega3", "0"],
         "omega_pulse3_khz must be nonzero to derive its half period"),
        (["swap-sim", "--omega", "0"], "omega_khz must be nonzero to derive t_2pi_us"),
        (["pair-sim", "--spacing", "1e308"],
         "spacing 1e+308 um puts 1/L^6 outside the float range"),
        (["swap-sim", "--spacing", "1e-300"],
         "spacing 1e-300 um puts 1/L^6 outside the float range"),
        (["pair-sim", "--tau2", "1e308", "--format", "csv"],
         "pulse duration 1e+308 us overflows the phase 2 pi H t"),
        (["swap-sim", "--t2pi", "1e308", "--format", "csv"],
         "pulse duration 1e+308 us overflows the phase 2 pi H t"),
        # a non-finite blockade is refused by its flag, not by the writer
        (["swap-sim", "--v-blockade", "inf", "--format", "csv"],
         "--v-blockade must be finite, got inf"),
        (["chain", "--tau", "1e308", "--format", "csv"],
         "gamma tau = gamma_per_ms * tau_us must be finite, got inf"),
        (["pair-sim", "--spacing", "1e-50"],
         "spacing 1e-50 um puts the couplings outside the float range"),
        (["coeffs", "--na", "73", "--nb", "99999"],
         "n_b=99999 with dn_cutoff=10 reaches n=100009, above the channel-sum domain n <= 500"),
        # inside the critical radius, so a warning precedes the error
        pytest.param(["pair-sim", "--spacing", "1.85e-50"],
                     "spacing 1.85e-50 um puts the couplings outside the float range",
                     marks=pytest.mark.filterwarnings("ignore::UserWarning")),
        pytest.param(["pair-sim", "--spacing", "1.0245e-49"],
                     "spacing 1.0245e-49 um overflows the working drive sqrt|V+ V-|",
                     marks=pytest.mark.filterwarnings("ignore::UserWarning")),
        (["robustness", "--omega", "1e-3"],
         "pulse-2 drive 0.001 kHz with V+ = 4.86528311708787 kHz gives no duration"),
        (["robustness", "--omega", "1e-300"],
         "pulse-2 drive 1e-300 kHz with V+ = 4.86528311708787 kHz gives no duration"),
        # 28 PiB is past any address space, so the allocation fails at once
        (["robustness", "--samples", "1000000000000000"], "Unable to allocate"),
        # pulse 3 past the Chebyshev break-even takes the checked eigensolve
        (["robustness", "--v-plus", "0.05", "--v-minus", "1e307", "--omega", "0.05",
          "--samples", "10"], "pulse duration 10000.0 us overflows the phase 2 pi H t"),
        (["chain", "--atoms", "18446744073709551616"],
         "atom_count must be at most 9007199254740992, got 18446744073709551616"),
        # a negative drive whose duration is derived is refused by its name
        (["pair-sim", "--omega3=-100"],
         "omega_pulse3_khz must be positive to derive its half period, got -100.0"),
        (["swap-sim", "--omega=-80"],
         "SWAP drive omega_khz must be positive to derive t_2pi_us, got -80.0"),
        # injected couplings with a zero working drive, wherever a default derives from it
        (["robustness", "--v-plus", "0", "--v-minus", "0"], _ZERO_WORKING_DRIVE),
        (["pair-sim", "--v-plus", "0", "--v-minus", "0"], _ZERO_WORKING_DRIVE),
        (["pair-sim", "--optimize", "--v-plus", "0", "--v-minus", "0"], _ZERO_WORKING_DRIVE),
        (["swap-sim", "--v-plus", "0", "--v-minus", "0", "--v-blockade", "5"],
         _ZERO_WORKING_DRIVE),
        # a negative scan drive would run pulse 3 backward in time
        (["robustness", "--omega=-3"],
         "omega_khz must be positive to derive its half period, got -3.0"),
        (["robustness", "--omega=-4.5", "--epsilon", "0.3"],
         "omega_khz must be positive to derive its half period, got -4.5"),
        # 2 pi |lambda| overflows before any duration multiplies it
        (["robustness", "--v-plus", "0.05", "--v-minus", "1e308", "--omega", "0.05",
          "--samples", "10"], "eigenvalue 1e+308 kHz of H overflows the phase 2 pi H t"),
        # the pulse-2 closed form overflows in its drive or in V+; a hierarchy warning first
        pytest.param(["pair-sim", "--omega2=1e308"],
                     "pulse-2 drive 1e+308 kHz with V+ = 4.86528311708787 kHz and "
                     "V- = 711.2447292433305 kHz puts the closed-form rate outside the float range",
                     marks=pytest.mark.filterwarnings("ignore::UserWarning")),
        pytest.param(["pair-sim", "--v-plus", "1e200", "--v-minus", "1", "--omega2", "1",
                      "--omega3", "1"],
                     "pulse-2 drive 1.0 kHz with V+ = 1e+200 kHz and V- = 1.0 kHz puts the "
                     "closed-form rate outside the float range",
                     marks=pytest.mark.filterwarnings("ignore::UserWarning")),
        # injected couplings whose working drive overflows
        (["pair-sim", "--v-plus", "1e200", "--v-minus", "1e200"], _INFINITE_WORKING_DRIVE),
        (["pair-sim", "--optimize", "--v-plus", "1e200", "--v-minus", "1e200"],
         _INFINITE_WORKING_DRIVE),
        (["robustness", "--v-plus", "1e200", "--v-minus", "1e200"], _INFINITE_WORKING_DRIVE),
        (["swap-sim", "--v-blockade", "inf"], "--v-blockade must be finite, got inf"),
        (["swap-sim", "--v-blockade", "nan"], "--v-blockade must be finite, got nan"),
        # past the domain cap C6 / C6ex would be inf, which no writer takes
        (["coeffs", "--na", "100000", "--nb", "100003"],
         "n_b=100003 with dn_cutoff=10 reaches n=100013, above the channel-sum domain"),
        # a negative seed is refused by name, not by numpy's bit generator
        (["pair-sim", "--optimize", "--seed", "-1"], "seed must be >= 0, got -1"),
        (["robustness", "--seed", "-1"], "seed must fit in 64 unsigned bits, got -1"),
        # one chain past MAX_CHAIN_ATOMS = 2**53
        (["chain", "--atoms", "9007199254740996"],
         "atom_count must be at most 9007199254740992, got 9007199254740996"),
    ],
)
def test_cli_rejects_out_of_domain_input_in_one_line(capsys, argv, message):
    rc, out, err = _run_cli(capsys, argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert message in err


_SUBCOMMANDS = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction)).choices
# values fed to every option and positional, and the inputs a command needs to run
_FUZZ_VALUES = ("0", "-1", "nan", "inf", "1e308")
_FUZZ_REQUIRED = {"coeffs": {"--na": "73", "--nb": "75"},
                  "critical-radius": {"--na": "73", "--nb": "75"},
                  "table": {"table_id": "I"}, "figure": {"figure_id": "4"}}


def _reject_constant(name):
    raise ValueError(f"{name} in JSON output")


def test_cli_chain_takes_the_largest_count(capsys):
    """2**53 atoms, MAX_CHAIN_ATOMS, print finite strict JSON with a 4-atom chain's keys
    and step durations, 12 slots and exact operation counts."""
    outputs = []
    for atoms in ("4", "9007199254740992"):
        rc, out, _ = _run_cli(capsys, ["chain", "--atoms", atoms])
        assert rc == 0
        outputs.append(json.loads(out, parse_constant=_reject_constant))
    small, large = outputs
    assert large.keys() == small.keys()
    assert large["atom_count"] == 2**53
    assert (large["pairwise_ops"], large["swap_ops"]) == (2**52, 2**52 - 1)
    assert large["schedule"]["step_durations_us"] == small["schedule"]["step_durations_us"]
    assert large["schedule"]["pulse_count"] == 12


@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize("command", sorted(_SUBCOMMANDS))
def test_cli_fuzz_every_option(capsys, monkeypatch, tmp_path, command):
    """Each option and positional of the parser, fed 0, -1, nan, inf and 1e308: a
    clean exit 0 with strict JSON, one ``error:`` line with exit 1, or a usage error."""
    monkeypatch.chdir(tmp_path)  # --out writes files named by the fuzzed values here
    actions = [a for a in _SUBCOMMANDS[command]._actions if a.nargs != 0]  # not switches
    flags = {s for a in actions for s in a.option_strings}
    problems = []
    for action in actions:
        key = action.option_strings[0] if action.option_strings else action.dest
        for value in _FUZZ_VALUES:
            given = {**_FUZZ_REQUIRED.get(command, {}), key: value}
            if "--samples" in flags and key != "--samples":
                given["--samples"] = "200"
            argv = [command, *(v for k, v in given.items() if not k.startswith("-")),
                    *(f"{k}={v}" for k, v in given.items() if k.startswith("-"))]
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse's usage errors
                rc = exc.code
            out, err = capsys.readouterr()
            if rc not in (0, 1, 2) or "Traceback" in err:
                problems.append((argv, rc, err))
            elif rc == 0:
                text = (tmp_path / value).read_text() if key == "--out" else out
                try:
                    json.loads(text, parse_constant=_reject_constant)
                except ValueError as exc:
                    problems.append((argv, rc, str(exc)))
            elif rc == 1 and (out or not err.splitlines()[-1].startswith("error: ")):
                problems.append((argv, rc, err))
    assert problems == []


@pytest.mark.filterwarnings("ignore:outside the working hierarchy:UserWarning")
def test_cli_zero_couplings_run_with_explicit_drives_and_durations(capsys):
    rc, out, _ = _run_cli(capsys, ["pair-sim", "--v-plus", "0", "--v-minus", "0",
                                   "--omega2", "100", "--omega3", "100",
                                   "--tau2", "5", "--tau3", "5"])
    assert rc == 0
    result = pairwise_entangle(100.0, 100.0, 0.0, 0.0, tau2_us=5.0, tau3_us=5.0)
    assert json.loads(out)["fidelity"] == pytest.approx(result.fidelity, rel=1e-8)


def test_dumps_json_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not JSON compliant"):
            dumps_json({"x": bad})


def test_rows_to_csv_rejects_non_finite():
    for bad in (math.nan, math.inf, -math.inf, np.float64(math.nan)):
        with pytest.raises(ValueError, match="not CSV compliant"):
            rows_to_csv(["x"], [[bad]])
        with pytest.raises(ValueError, match="not CSV compliant"):
            rows_to_csv(["x"], [{"x": bad}])
    # list cells are JSON text, which refuses them the same way
    with pytest.raises(ValueError, match="not JSON compliant"):
        _flatten({"x": [1.0, math.nan]})


def _fresh_process(*argv: str) -> subprocess.CompletedProcess:
    root = Path(__file__).resolve().parents[1]
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(root / "src")), cwd=root)


def test_cli_bare_config_is_reported_by_the_subcommand():
    proc = _fresh_process("-m", "rydex.cli", "coeffs", "--na", "73", "--nb", "75", "--config")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "usage: rydex coeffs" in proc.stderr
    assert "rydex coeffs: error: argument --config: expected one argument" in proc.stderr
    assert "cli.py" not in proc.stderr


def test_console_command_out_file_in_a_fresh_process(tmp_path):
    """``python -m rydex.cli`` runs ``run``: ``--out`` holds exactly the recorded bytes
    and stdout stays empty; a computation error exits 1 and writes no file."""
    recorded = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "cli"
    for argv, reference in ((["coeffs", "--na", "73", "--nb", "75"], "coeffs.out"),
                            (["table", "IV", "--format", "csv"], "table-IV.out")):
        path = tmp_path / reference
        proc = _fresh_process("-m", "rydex.cli", *argv, "--out", str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
        assert path.read_bytes() == (recorded / reference).read_bytes()
    path = tmp_path / "error.out"
    proc = _fresh_process("-m", "rydex.cli", "coeffs", "--na", "73", "--nb", "73",
                          "--out", str(path))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: c6_pair requires two distinct principal quantum numbers\n"
    assert not path.exists()


def test_console_command_exit_keeps_normal_finalization():
    """``run`` skips teardown's collections only: atexit handlers still run after the
    output is flushed, and ``cProfile`` still prints its profile."""
    code = ("import atexit, sys; from rydex.cli import run; "
            "atexit.register(print, 'atexit ran'); "
            "sys.argv = ['rydex', 'coeffs', '--na', '73', '--nb', '75']; sys.exit(run())")
    proc = _fresh_process("-c", code)
    recorded = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "cli"
    assert proc.returncode == 0
    assert proc.stdout == (recorded / "coeffs.out").read_text(encoding="utf-8") + "atexit ran\n"
    proc = _fresh_process("-m", "cProfile", "-m", "rydex.cli", "table", "I")
    assert proc.returncode == 0
    assert proc.stdout.startswith((recorded / "table-I.out").read_text(encoding="utf-8"))
    assert "function calls" in proc.stdout and "Ordered by" in proc.stdout


_VDW_ONLY =("rydex.dynamics", "rydex.protocols", "mpmath")


@pytest.mark.parametrize(
    "code, absent",
    [
        ("import rydex", ("rydex.", "numpy", "mpmath")),
        ("from rydex.cli import main; main(['coeffs', '--na', '73', '--nb', '75'])", _VDW_ONLY),
        ("from rydex.cli import main; main(['table', 'I'])", _VDW_ONLY),
        # scipy is a test-only dependency
        ("import rydex, rydex.cli; rydex.optimize_pairwise(5.0, 711.0, restarts=2)", ("scipy",)),
    ],
    ids=["import", "coeffs", "table-I", "optimizer"],
)
def test_start_up_loads_only_what_a_command_runs(code, absent):
    """In a fresh process, a bare import loads no layer, and a command no layer,
    nor mpmath, that it does not run."""
    listing = "import sys; print(*sorted(sys.modules), file=sys.stderr)"
    proc = _fresh_process("-c", f"{code}\n{listing}")
    assert proc.returncode == 0
    loaded = proc.stderr.split()
    assert "rydex" in loaded
    assert [m for m in loaded if m.startswith(absent)] == []


@pytest.mark.parametrize(
    "argv, fragments",
    [
        (["pair-sim", "--v-plus", "50", "--v-minus", "100"],
         ["outside the working hierarchy", "pulse-2 closed form is marginal"]),
        (["swap-sim", "--v-blockade", "10"], ["blockade shift 10 kHz is not large"]),
        (["chain", "--gamma", "500"], ["gamma tau = 5.49 is not small"]),
        (["pair-sim", "--seed", "7"], ["--seed 7 has no effect without --optimize"]),
        # logged, not raised: near-resonant terms the channel sums leave out
        (["coeffs", "--na", "180", "--nb", "183"],
         ["excluding near-resonant channel 1 term (180p, 182p)",
          "excluding near-resonant channel 1 term (182p, 180p)"]),
        (["pair-sim", "--optimize", "--omega2", "300", "--tau3", "1"],
         ["--optimize ignores --omega2, --tau3: it sets its own drives and times"]),
    ],
)
def test_cli_prints_each_warning_as_one_line(capsys, caplog, argv, fragments):
    """The console command prints ``warning: <message>`` lines and the same stdout
    as ``main``, which still raises each warning as a ``UserWarning`` or logs it
    to the ``rydex`` logger."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, out, _ = _run_cli(capsys, argv)
    assert all(w.category is UserWarning for w in caught)
    messages = [str(w.message) for w in caught]
    messages += [r.getMessage() for r in caplog.records if r.name.startswith("rydex")]
    proc = _fresh_process("-m", "rydex.cli", *argv)
    assert rc == proc.returncode == 0
    assert proc.stdout == out
    lines = proc.stderr.splitlines()
    assert lines == [f"warning: {m}" for m in messages]
    assert len(lines) == len(fragments)
    assert all(fragment in line for fragment, line in zip(fragments, lines))


def test_cli_prints_each_distinct_radial_warning_once():
    """``coeffs --na 14 --nb 15`` reaches p levels below n_eff = 10: the console shows
    each distinct "marginal" message once, though the own and the crossed radial
    rows both raise it."""
    proc = _fresh_process("-m", "rydex.cli", "coeffs", "--na", "14", "--nb", "15")
    assert proc.returncode == 0
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("warning: quasiclassical radial element marginal")
                         for line in lines)
    assert len(lines) == len(set(lines))


@pytest.mark.parametrize(
    "command, flag, value, rest",
    [
        ("pair-sim", "--v-plus", "-5e0", ["--v-minus", "711"]),
        ("swap-sim", "--v-blockade", "-1e9", []),
        ("robustness", "--v-plus", "-.5E+1", ["--v-minus", "711", "--samples", "100"]),
    ],
)
def test_cli_reads_a_spaced_negative_exponent_as_a_value(capsys, command, flag, value, rest):
    """argparse alone takes "-5e0" for an option; the spaced form must print what
    the "--flag=value" form prints."""
    spaced = _run_cli(capsys, [command, flag, value, *rest])
    joined = _run_cli(capsys, [command, f"{flag}={value}", *rest])
    assert spaced[0] == joined[0] == 0
    assert spaced[1] == joined[1] != ""


@pytest.mark.parametrize("argv", [["coeffs", "--na", "73", "--nb", "75"],
                                  ["robustness", "--samples", "100"]])
def test_benchmark_tracer_finds_every_probe(argv):
    """perfbench's tracer reaches every name it wraps or counts, wherever rydex
    imports it."""
    proc = _fresh_process("perfbench/cli_shim.py", *argv)
    assert proc.returncode == 0
    line = next(x for x in proc.stderr.splitlines() if x.startswith("perfbench-trace "))
    assert json.loads(line.split(" ", 1)[1])["missing"] == {}


def test_cli_swap_sim_injected_matches_library(capsys):
    rc, out, _ = _run_cli(
        capsys,
        ["swap-sim", "--v-plus", "5", "--v-minus", "711",
         "--v-blockade", "535", "--omega", "89", "--t2pi", "11.12"],
    )
    assert rc == 0
    data = json.loads(out)
    result = swap_gate(89.0, 5.0, 711.0, 535.0, 11.12)
    assert data["gate_fidelity"] == pytest.approx(result.gate_fidelity, rel=1e-8)
    assert data["basis_fidelities"]["du"] == pytest.approx(
        result.basis_fidelities["du"], rel=1e-8
    )
    assert data["v_blockade_khz"] == 535.0
    assert data["total_duration_us"] == 11.12


def test_cli_pair_sim_default_point(capsys):
    rc, out, _ = _run_cli(capsys, ["pair-sim"])
    assert rc == 0
    data = json.loads(out)
    assert data["v_plus_khz"] == pytest.approx(V_PLUS, rel=1e-8)
    assert data["v_minus_khz"] == pytest.approx(V_MINUS, rel=1e-8)
    assert data["omega_pulse2_khz"] == pytest.approx(NOMINAL_OMEGA, rel=1e-8)
    assert 0.9 < data["fidelity"] < 1.0
    assert data["total_duration_us"] == pytest.approx(
        sum(data["per_pulse_durations_us"]), rel=1e-8
    )


def test_cli_pair_sim_optimize(capsys):
    rc, out, _ = _run_cli(capsys, ["pair-sim", "--optimize", "--seed", "1"])
    assert rc == 0
    data = json.loads(out)
    assert data["optimizer"]["converged"] is True
    assert data["optimizer"]["seed"] == 1
    assert data["fidelity"] >= data["optimizer"]["start_fidelity"]
    assert data["fidelity"] > 0.98


def test_cli_chain_injected_inputs(capsys):
    rc, out, _ = _run_cli(
        capsys,
        ["chain", "--f1", "0.9906", "--fswap", "0.9831", "--tau", "6.3699"],
    )
    assert rc == 0
    data = json.loads(out)
    assert data["fidelity"] == pytest.approx(0.8861532700907033, rel=1e-8)
    assert data["pairwise_ops"] == 2
    assert data["swap_ops"] == 1
    assert data["schedule"]["pulse_count"] == 9
    assert data["spectator"]["negligible"] is True


def test_cli_chain_derives_exposure_from_protocols(capsys):
    """Without overrides the chain command simulates its own inputs."""
    rc, out, _ = _run_cli(capsys, ["chain"])
    assert rc == 0
    data = json.loads(out)
    assert 0.9 < data["f1"] < 1.0
    assert 0.9 < data["f_swap"] < 1.0
    assert 0.0 < data["tau_us"] < 20.0
    assert 0.0 < data["fidelity"] < data["f1"]


@pytest.mark.parametrize(
    "argv,reference",
    [
        (["chain"], "chain-4.out"),
        (["chain", "--atoms", "16", "--format", "csv"], "chain-16.out"),
        (["coeffs", "--na", "73", "--nb", "75"], "coeffs.out"),
        (["critical-radius", "--na", "73", "--nb", "75"], "critical-radius.out"),
        (["pair-sim"], "pair-sim.out"),
        (["swap-sim"], "swap-sim.out"),
        (["chain", "--atoms", "4"], "chain-4.out"),
        (["robustness", "--samples", "10000"], "robustness.out"),
        (["table", "I"], "table-I.out"),
        (["table", "II"], "table-II.out"),
        (["table", "III"], "table-III.out"),
        (["table", "IV", "--format", "csv"], "table-IV.out"),
        (["figure", "3"], "figure-3.out"),
        (["figure", "4", "--samples", "10000", "--format", "csv"], "figure-4.out"),
        (["pair-sim", "--optimize"], "pair-sim-optimize.out"),
    ],
)
def test_cli_chain_matches_recorded_output(capsys, tmp_path, argv, reference):
    """Each command's stdout is byte-identical to the recorded run, also
    with its ``--key value`` flags read from a config file instead."""
    recorded = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "cli"
    rc, out, _ = _run_cli(capsys, argv)
    assert rc == 0
    assert out == (recorded / reference).read_text(encoding="utf-8")

    # a switch such as --optimize stays on the command line
    flags = [i for i, token in enumerate(argv[:-1])
             if token.startswith("--") and not argv[i + 1].startswith("--")]
    if flags:
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{argv[i][2:]} {argv[i + 1]}\n" for i in flags))
        rest = [t for i, t in enumerate(argv) if i not in flags and i - 1 not in flags]
        assert _run_cli(capsys, [*rest, "--config", str(cfg)])[:2] == (0, out)


def test_criterion_7_payloads_match_recorded_digests():
    """Both criterion-7 scans serialize to the payloads recorded for the benchmark."""
    recorded = Path(__file__).resolve().parents[1] / "perfbench" / "reference" / "mc-scan.json"
    coup = pair_couplings(MODEL, 73, 75, 15.0)
    for epsilon, digest in json.loads(recorded.read_text()).items():
        cfg = RobustnessConfig(
            epsilon=float(epsilon),
            samples=100000,
            seed=12345,
            omega_khz=coup.nominal_omega_khz,
            v_plus_khz=coup.v_plus_khz,
            v_minus_khz=coup.v_minus_khz,
        )
        payload = dumps_json(histogram_payload(cfg, robustness_scan(cfg)))
        assert hashlib.sha256(payload.encode()).hexdigest() == digest


def test_cli_robustness_small_run(capsys):
    rc, out, _ = _run_cli(
        capsys, ["robustness", "--samples", "50", "--seed", "3"]
    )
    assert rc == 0
    data = json.loads(out)
    assert data["samples"] == 50
    assert sum(data["counts"]) == 50
    assert 0.9 < data["mean"] <= 1.0
    assert data["omega_khz"] == pytest.approx(NOMINAL_OMEGA, rel=1e-8)


def test_cli_robustness_csv_rows(capsys):
    rc, out, _ = _run_cli(
        capsys,
        ["robustness", "--samples", "40", "--seed", "3", "--format", "csv"],
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 202
    assert sum(int(line.split(",")[2]) for line in lines[1:]) == 40


def test_cli_table_csv(capsys):
    rc, out, _ = _run_cli(capsys, ["table", "I", "--format", "csv"])
    assert rc == 0
    lines = out.splitlines()
    assert len(lines) == 5
    header = lines[0].split(",")
    assert header[:4] == ["n_a", "n_b", "c6_computed", "c6_reference"]
    assert lines[1].startswith("59,61,")


def test_cli_figure_trajectory(capsys):
    rc, out, _ = _run_cli(capsys, ["figure", "3"])
    assert rc == 0
    data = json.loads(out)
    assert data["figure"] == 3
    assert len(data["rows"]) == 799
    assert data["final_bell_ground"] == pytest.approx(0.9906, abs=0.003)


def test_cli_rejects_unknown_table(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["table", "V"])
    assert exc.value.code == 2
    capsys.readouterr()
