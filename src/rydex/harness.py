"""Monte Carlo robustness scans, reference-table reproduction, serialization.

The reference values bundled here are the published interaction
coefficients, scattering-channel parameters, and convergence series
that the calculator is expected to reproduce; ``run_table`` reports
computed and reference values side by side with deviations.
``robustness_scan`` reruns the pairwise protocol with dispersed Rabi
frequencies and histograms the resulting fidelities: pulse 2 runs once,
the samples are drawn in one vectorized Philox pass, and pulse 3 of
every sample is propagated in batches by ``dynamics``'
``_batched_pulse3_fidelities``: a Chebyshev expansion or, where that
would cost more, one 8x8 eigensolve per sample.

All output helpers serialize floats with 9 significant digits and sort
keys, so a fixed seed and config produce byte-identical files.
"""

from __future__ import annotations

import csv
import importlib
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from .atoms import CHANNEL_FINE_STRUCTURE, QuantumDefectModel, _require_finite, _require_int
from .vdw import _pair_terms, c6_pair, channel_c6

__all__ = [
    "SCHEMA",
    "RobustnessConfig",
    "FidelityHistogram",
    "robustness_scan",
    "pair_couplings",
    "run_table",
    "run_figure",
    "to_jsonable",
    "dumps_json",
    "rows_to_csv",
]

SCHEMA = "rydex/1"

# names read through this module whose homes load only where a scan or figure
# runs, so the tables and the serializers cost no dynamics
_LAZY = {"pair_couplings": "protocols", "_batched_pulse3_fidelities": "dynamics"}


def __getattr__(name: str):
    if name in _LAZY:
        return getattr(importlib.import_module(f"{__package__}.{_LAZY[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


HISTOGRAM_BIN_COUNT = 200
HISTOGRAM_RANGE = (0.8, 1.0)
FRACTION_THRESHOLDS = (0.85, 0.90, 0.95)


# ---------------------------------------------------------------------------
# reference tables (published values the calculator is compared against)

# (n_a, n_b, C6, C6_exchange) in GHz um^6
REFERENCE_TABLE_I = (
    (59, 61, -196.0, 194.0),
    (73, 75, 4080.0, -4025.0),
    (97, 100, -59780.0, 58800.0),
    (121, 124, 1104000.0, -1124000.0),
)

# (dn_cutoff, C6 channel-2 sum for (100, 100)) in GHz um^6
REFERENCE_TABLE_II = (
    (1, 71841.8),
    (2, 71922.5),
    (3, 71928.5),
    (6, 71929.9),
    (10, 71930.0),
    (15, 71930.0),
    (20, 71930.0),
)

# rows: (atom1 p-level, atom2 p-level, energy defect MHz, R_rr GHz um^3)
# for the (97, 100) pair state; atom1 is reached from the n_a = 97 s
# state and atom2 from the n_b = 100 s state.
REFERENCE_TABLE_III = (
    ((96, 0.5), (100, 0.5), -779.0, 98.3),
    ((96, 0.5), (100, 1.5), -685.0, 96.8),
    ((96, 1.5), (100, 0.5), -672.0, 100.1),
    ((96, 1.5), (100, 1.5), -578.0, 98.5),
    ((97, 0.5), (99, 0.5), -62.0, 98.4),
    ((97, 0.5), (99, 1.5), 35.0, 100.2),
    ((97, 1.5), (99, 0.5), 42.0, 96.8),
    ((97, 1.5), (99, 1.5), 139.0, 98.6),
    ((98, 0.5), (98, 0.5), 177.0, 1.7),
    ((98, 0.5), (98, 1.5), 277.0, 1.6),
    ((98, 1.5), (98, 0.5), 277.0, 1.7),
    ((98, 1.5), (98, 1.5), 378.0, 1.7),
)

# same layout for the (73, 75) pair state
REFERENCE_TABLE_IV = (
    ((73, 0.5), (74, 1.5), -51.0, 30.5),
    ((73, 1.5), (74, 0.5), -41.0, 29.5),
    ((73, 1.5), (74, 1.5), 198.0, 30.1),
    ((74, 0.5), (73, 0.5), -291.0, 0.5),
    ((74, 0.5), (73, 1.5), -41.0, 0.5),
    ((74, 1.5), (73, 0.5), -51.0, 0.5),
    ((74, 1.5), (73, 1.5), 198.0, 0.5),
)

TABLE_PAIRS = {"III": (97, 100), "IV": (73, 75)}

# working points used by figure reproduction and CLI defaults
DEFAULT_PAIR = (73, 75)
DEFAULT_SPACING_UM = 15.0
# couplings quoted for the (73, 75) pair at 15 um, used where the
# published working point is taken as given rather than recomputed
QUOTED_V_PLUS_KHZ = 5.0
QUOTED_V_MINUS_KHZ = 711.0
FIGURE3_OMEGA2_KHZ = 119.0
FIGURE3_OMEGA3_KHZ = 128.0


# ---------------------------------------------------------------------------
# robustness scan


@dataclass(frozen=True)
class RobustnessConfig:
    """Dispersion scan settings.

    Each sample redraws the four pulse-3 Rabi frequencies uniformly in
    [1-epsilon, 1+epsilon] times ``omega_khz``; pulse 2 always runs at
    the nominal frequency with the quadratic-correction duration.
    """

    epsilon: float
    samples: int
    seed: int
    omega_khz: float
    v_plus_khz: float
    v_minus_khz: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon < 1.0:
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")
        for name in ("samples", "seed"):
            _require_int(name, getattr(self, name))
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must fit in 64 unsigned bits, got {self.seed}")
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


def robustness_scan(cfg: RobustnessConfig) -> FidelityHistogram:
    """Fidelity distribution of the protocol under drive dispersion.

    Pulse 2 runs once at the nominal frequency (its duration fixed by
    the quadratic-correction formula); every sample then propagates
    pulse 3 with four independently dispersed Rabi frequencies for the
    fixed nominal half-period.
    """
    from .dynamics import (
        PRODUCT_BASIS_8,
        PulseSpec,
        QuantumState,
        _batched_pulse3_fidelities,
        build_full8,
        propagate,
        tau2_approximate,
    )
    from .protocols import _exchange_split, _half_period

    tau3 = _half_period("omega_khz", cfg.omega_khz)
    tau2 = tau2_approximate(cfg.omega_khz, cfg.v_plus_khz)
    v_s, v_c = _exchange_split(cfg.v_plus_khz, cfg.v_minus_khz)

    start = QuantumState.from_label(PRODUCT_BASIS_8, "Uu")
    pulse2 = PulseSpec(omega_uD_B=cfg.omega_khz, duration_us=tau2)
    psi2 = propagate(start, build_full8(pulse2, v_s, v_c), tau2).amplitudes

    omegas = _sample_omegas(cfg)
    fids = _batched_pulse3_fidelities(psi2, omegas, v_s, v_c, tau3)

    edges = np.linspace(*HISTOGRAM_RANGE, HISTOGRAM_BIN_COUNT + 1)
    counts, _ = np.histogram(fids, bins=edges)
    underflow = int(np.count_nonzero(fids < edges[0]))
    fraction_above = {
        thr: float(np.count_nonzero(fids > thr) / cfg.samples)
        for thr in FRACTION_THRESHOLDS
    }
    return FidelityHistogram(
        bin_edges=tuple(float(e) for e in edges),
        counts=(underflow,) + tuple(int(c) for c in counts),
        fraction_above=fraction_above,
        samples=cfg.samples,
        mean=float(fids.mean()),
        minimum=float(fids.min()),
    )


def histogram_payload(cfg: RobustnessConfig, hist: FidelityHistogram) -> dict:
    return {
        "schema": SCHEMA,
        "command": "robustness",
        "epsilon": cfg.epsilon,
        "samples": cfg.samples,
        "seed": cfg.seed,
        "omega_khz": cfg.omega_khz,
        "v_plus_khz": cfg.v_plus_khz,
        "v_minus_khz": cfg.v_minus_khz,
        "bin_edges": list(hist.bin_edges),
        "counts": list(hist.counts),
        "fraction_above": {f"{t:.2f}": v for t, v in hist.fraction_above.items()},
        "mean": hist.mean,
        "minimum": hist.minimum,
    }


def histogram_rows(hist: FidelityHistogram) -> tuple[list[str], list[list]]:
    """CSV view: one row per bin, the first row being the underflow bin."""
    columns = ["bin_lo", "bin_hi", "count"]
    rows: list[list] = [[0.0, hist.bin_edges[0], hist.counts[0]]]
    for i in range(len(hist.bin_edges) - 1):
        rows.append([hist.bin_edges[i], hist.bin_edges[i + 1], hist.counts[i + 1]])
    return columns, rows


# ---------------------------------------------------------------------------
# table reproduction


def _rel_dev(computed: float, reference: float) -> float:
    return (computed - reference) / abs(reference)


def _table_i(model: QuantumDefectModel) -> dict:
    rows = []
    for n_a, n_b, ref_c6, ref_ex in REFERENCE_TABLE_I:
        pair = c6_pair(model, n_a, n_b)
        ratio = abs(pair.c6_exchange / pair.c6)
        ref_ratio = abs(ref_ex / ref_c6)
        rows.append(
            {
                "n_a": n_a,
                "n_b": n_b,
                "c6_computed": pair.c6,
                "c6_reference": ref_c6,
                "c6_rel_dev": _rel_dev(pair.c6, ref_c6),
                "c6_exchange_computed": pair.c6_exchange,
                "c6_exchange_reference": ref_ex,
                "c6_exchange_rel_dev": _rel_dev(pair.c6_exchange, ref_ex),
                "ratio_computed": ratio,
                "ratio_reference": ref_ratio,
                "ratio_difference": ratio - ref_ratio,
            }
        )
    columns = list(rows[0].keys())
    return {"schema": SCHEMA, "table": "I", "columns": columns, "rows": rows}


def _table_ii(model: QuantumDefectModel) -> dict:
    rows = []
    for dn, ref in REFERENCE_TABLE_II:
        value = channel_c6(model, 100, 100, 2, dn_cutoff=dn)
        rows.append(
            {
                "dn_cutoff": dn,
                "c6_channel2_computed": value,
                "c6_channel2_reference": ref,
                "rel_dev": _rel_dev(value, ref),
            }
        )
    columns = list(rows[0].keys())
    return {"schema": SCHEMA, "table": "II", "columns": columns, "rows": rows}


def _format_p_level(n: int, j: float) -> str:
    return f"{n}p{'1/2' if j == 0.5 else '3/2'}"


def _table_channels(model: QuantumDefectModel, table_id: str) -> dict:
    n_a, n_b = TABLE_PAIRS[table_id]
    reference = REFERENCE_TABLE_III if table_id == "III" else REFERENCE_TABLE_IV
    terms = _pair_terms(model, n_a, n_b, 2)  # every tabulated row lies within dn 2
    channel = {js: k for k, js in CHANNEL_FINE_STRUCTURE.items()}
    rows = []
    for (n1, j1), (n2, j2), ref_defect_mhz, ref_rr in reference:
        t = terms[channel[j1, j2]]
        i = int(np.flatnonzero((t.ns == n1) & (t.nt == n2))[0])
        defect_mhz = 1e3 * float(t.defect[i])
        rr = abs(float(t.rr[i]))
        rows.append(
            {
                "atom1": _format_p_level(n1, j1),
                "atom2": _format_p_level(n2, j2),
                "defect_mhz_computed": defect_mhz,
                "defect_mhz_reference": ref_defect_mhz,
                "defect_mhz_deviation": defect_mhz - ref_defect_mhz,
                "rr_ghz_um3_computed": rr,
                "rr_ghz_um3_reference": ref_rr,
                "rr_rel_dev": _rel_dev(rr, ref_rr),
            }
        )
    columns = list(rows[0].keys())
    return {"schema": SCHEMA, "table": table_id, "columns": columns, "rows": rows}


def run_table(table_id: str, model: QuantumDefectModel) -> dict:
    """Computed-vs-reference rows for one of the bundled tables."""
    normalized = table_id.strip().upper()
    if normalized == "I":
        return _table_i(model)
    if normalized == "II":
        return _table_ii(model)
    if normalized in TABLE_PAIRS:
        return _table_channels(model, normalized)
    raise ValueError(f"unknown table id {table_id!r}; expected I, II, III, or IV")


# ---------------------------------------------------------------------------
# figure reproduction


def _figure_trajectory() -> dict:
    """Population curves of pulses 2 and 3 at the high-fidelity point.

    Uses the quoted couplings of the default pair and the optimized
    drive pair; emits the ground Bell, Rydberg Bell, and remaining
    population at each sample time.
    """
    from .dynamics import tau2_approximate
    from .protocols import pairwise_entangle

    result = pairwise_entangle(
        FIGURE3_OMEGA2_KHZ,
        FIGURE3_OMEGA3_KHZ,
        QUOTED_V_PLUS_KHZ,
        QUOTED_V_MINUS_KHZ,
        tau2_us=tau2_approximate(FIGURE3_OMEGA2_KHZ, QUOTED_V_PLUS_KHZ),
        keep_trajectory=True,
    )
    traj = result.trajectory
    assert traj is not None
    amps = traj.amplitudes
    p_ground_bell = 0.5 * np.abs(amps[:, 0] + amps[:, 1]) ** 2
    p_rydberg_bell = 0.5 * np.abs(amps[:, 6] + amps[:, 7]) ** 2
    p_total = (np.abs(amps) ** 2).sum(axis=1)
    p_other = p_total - p_ground_bell - p_rydberg_bell
    rows = [
        [float(t), float(g), float(r), float(o)]
        for t, g, r, o in zip(traj.times_us, p_ground_bell, p_rydberg_bell, p_other)
    ]
    return {
        "schema": SCHEMA,
        "figure": 3,
        "columns": ["t_us", "p_bell_ground", "p_bell_rydberg", "p_other"],
        "rows": rows,
        "final_bell_ground": float(p_ground_bell[-1]),
        "pulse_boundaries_us": list(traj.pulse_boundaries_us),
    }


def _figure_histograms(
    model: QuantumDefectModel, samples: int, seed: int
) -> dict:
    from .protocols import pair_couplings

    coup = pair_couplings(model, *DEFAULT_PAIR, DEFAULT_SPACING_UM)
    hists = {}
    for eps in (0.1, 0.2):
        cfg = RobustnessConfig(
            epsilon=eps,
            samples=samples,
            seed=seed,
            omega_khz=coup.nominal_omega_khz,
            v_plus_khz=coup.v_plus_khz,
            v_minus_khz=coup.v_minus_khz,
        )
        hists[eps] = robustness_scan(cfg)
    h1, h2 = hists[0.1], hists[0.2]
    rows = [row + [count] for row, count in zip(histogram_rows(h1)[1], h2.counts)]
    return {
        "schema": SCHEMA,
        "figure": 4,
        "columns": ["bin_lo", "bin_hi", "count_eps_0.1", "count_eps_0.2"],
        "rows": rows,
        "samples": samples,
        "seed": seed,
        "omega_khz": coup.nominal_omega_khz,
        "fraction_above": {
            "eps_0.1": {f"{t:.2f}": v for t, v in h1.fraction_above.items()},
            "eps_0.2": {f"{t:.2f}": v for t, v in h2.fraction_above.items()},
        },
    }


def run_figure(
    figure_id: int,
    model: QuantumDefectModel,
    samples: int = 100000,
    seed: int = 12345,
) -> dict:
    """Plot data for the trajectory figure (3) or histogram figure (4)."""
    if figure_id == 3:
        return _figure_trajectory()
    if figure_id == 4:
        return _figure_histograms(model, samples, seed)
    raise ValueError(f"unknown figure id {figure_id!r}; expected 3 or 4")


# ---------------------------------------------------------------------------
# serialization


def _round_float(x: float) -> float:
    if math.isnan(x) or math.isinf(x):
        return x
    return float(f"{x:.9g}")


def to_jsonable(obj):
    """Recursively convert to JSON-ready types with 9-digit floats."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round_float(float(obj))
    if isinstance(obj, complex):
        return {"re": _round_float(obj.real), "im": _round_float(obj.imag)}
    return obj


def dumps_json(data: dict) -> str:
    """Strict JSON text, keys sorted; a NaN or infinity raises ValueError."""
    text = json.dumps(to_jsonable(data), sort_keys=True, indent=2, allow_nan=False)
    return text + "\n"


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not CSV compliant: {value}")
        return f"{float(value):.9g}"
    return str(value)


def rows_to_csv(columns: list[str], rows: list) -> str:
    """CSV text with a header row; rows may be lists or dicts; NaN/inf raise."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        if isinstance(row, dict):
            writer.writerow([_format_cell(row[c]) for c in columns])
        else:
            writer.writerow([_format_cell(v) for v in row])
    return buf.getvalue()
