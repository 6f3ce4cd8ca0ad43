"""Defect-model parsing, level energies, and angular algebra."""

import dataclasses
import math
import re

import numpy as np
import pytest

from rydex.atoms import (
    CHANNEL_FINE_STRUCTURE,
    DefectDataError,
    QuantumDefectModel,
    _require_finite,
    _require_int,
    clebsch_gordan,
    quantum_defect,
)
from rydex.vdw import _pair_terms

from level_reference import RydbergLevel, level_energy

MODEL = QuantumDefectModel.default()

GOOD_TEXT = """\
format_version 1
species Rb-87
rydberg_constant_ghz 3289821.194553
series s 0.5 3.1311804 0.1784
series p 0.5 2.6548849 0.2900
series p 1.5 2.6416737 0.2950
"""


def test_default_model_contents():
    assert MODEL.species == "Rb-87"
    assert MODEL.rydberg_constant_ghz == 3289821.194553
    assert set(MODEL.series) == {(0, 0.5), (1, 0.5), (1, 1.5)}
    s = MODEL.series_for(0, 0.5)
    assert (s.delta0, s.delta2) == (3.1311804, 0.1784)


def test_parse_accepts_numeric_l_and_comments():
    text = GOOD_TEXT.replace("series s", "series 0") + "# trailing comment\n"
    m = QuantumDefectModel._parse(text)
    assert m.series_for(0, 0.5).delta0 == 3.1311804


def test_from_file_round_trip(tmp_path):
    p = tmp_path / "defects.txt"
    p.write_text(GOOD_TEXT, encoding="utf-8")
    m = QuantumDefectModel.from_file(p)
    assert m.rydberg_constant_ghz == MODEL.rydberg_constant_ghz
    assert quantum_defect(m, 1, 1.5, 97) == quantum_defect(MODEL, 1, 1.5, 97)


BAD_LINES = [
    ("format_version 2", "unsupported format_version"),
    ("species Rb 87", "exactly one value"),
    ("rydberg_constant_ghz lots", "bad float"),
    ("rydberg_constant_ghz -1", "must be positive"),
    ("rydberg_constant_ghz nan", "must be positive and finite"),
    ("series p 1.5 2.6416737", "takes l, j"),
    ("series p 1.5 x 0.2950", "bad float in"),
    ("series p 1.5 inf 0.0", "delta0 must be finite, got inf"),
    ("series p 2.5 2.6416737 0.2950", r"j must be l \+- 1/2 for l=1, got 2.5"),
    ("series q 1.5 2.6416737 0.2950", "bad orbital quantum number"),
    ("series -1 1.5 2.6416737 0.2950", "l must be >= 0, got -1"),
    ("mystery_key 1", "unknown key"),
]


@pytest.mark.parametrize("line,fragment", BAD_LINES)
def test_parse_fatal_line_errors(line, fragment):
    text = GOOD_TEXT + line + "\n"
    with pytest.raises(DefectDataError, match=fragment) as err:
        QuantumDefectModel._parse(text, source="unit.txt")
    # errors carry the file and line number for diagnostics
    assert "unit.txt, line 7" in str(err.value)


def test_parse_duplicate_series_rejected():
    text = GOOD_TEXT + "series p 1.5 2.64 0.29\n"
    with pytest.raises(DefectDataError, match="duplicate series"):
        QuantumDefectModel._parse(text)


@pytest.mark.parametrize(
    "drop,fragment",
    [
        ("species", "missing species"),
        ("rydberg_constant_ghz", "missing rydberg_constant_ghz"),
        ("series", "no series records"),
    ],
)
def test_parse_missing_sections(drop, fragment):
    text = "\n".join(
        ln for ln in GOOD_TEXT.splitlines() if not ln.startswith(drop)
    )
    with pytest.raises(DefectDataError, match=fragment):
        QuantumDefectModel._parse(text)


def test_series_for_unknown_series():
    with pytest.raises(DefectDataError, match="no quantum defect data"):
        MODEL.series_for(2, 2.5)


@pytest.mark.parametrize("n,l,j", [(5, 5, 5.5), (5, 6, 6.5), (10, 2, 1.0), (10, 2, 3.5)])
def test_rydberg_level_validation(n, l, j):
    with pytest.raises(ValueError):
        RydbergLevel(n, l, j)


def test_quantum_defect_frozen_values():
    assert quantum_defect(MODEL, 1, 0.5, 97) == pytest.approx(
        2.6549174806062, abs=1e-12
    )
    assert quantum_defect(MODEL, 1, 1.5, 97) == pytest.approx(
        2.6417068330608573, abs=1e-12
    )
    assert quantum_defect(MODEL, 0, 0.5, 73) == pytest.approx(
        3.131216945006023, abs=1e-12
    )


def test_quantum_defect_approaches_series_limit():
    deltas = [quantum_defect(MODEL, 0, 0.5, n) for n in (20, 50, 100, 200)]
    assert deltas == sorted(deltas, reverse=True)
    assert deltas[-1] == pytest.approx(3.1311804, abs=1e-5)


def test_model_hash_is_stored_once_outside_the_fields():
    model = QuantumDefectModel.default()
    series = dict(reversed(model.series.items()))  # == and hash ignore the order
    copy = dataclasses.replace(model, series=series, species=model.species)
    assert copy == model and hash(copy) == hash(QuantumDefectModel.default())
    assert "_hash" not in {f.name for f in dataclasses.fields(model)}
    assert "_hash" not in repr(model)
    edited = dataclasses.replace(model, rydberg_constant_ghz=model.rydberg_constant_ghz + 1.0)
    assert edited != model and hash(edited) != hash(model)


@pytest.mark.parametrize(
    "edit,message",
    [
        (dict(delta0=math.nan), "delta0 must be finite, got nan"),
        (dict(delta0=math.inf), "delta0 must be finite, got inf"),
        (dict(delta2=-math.inf), "delta2 must be finite, got -inf"),
        (dict(j=True), "j must be a number, got True"),
        (dict(j=1.0), r"j must be l \+- 1/2 for l=1, got 1.0"),
        (dict(l=-1, j=-0.5), "l must be >= 0, got -1"),
        (dict(l=True), "l must be an integer, got True"),
        (dict(l=1.0), "l must be an integer, got 1.0"),
    ],
)
def test_defect_series_refuses_a_bad_value_by_name(edit, message):
    """Built directly or by ``dataclasses.replace``, as the parser never does."""
    with pytest.raises(ValueError, match=message):
        dataclasses.replace(MODEL.series[(1, 0.5)], **edit)


@pytest.mark.parametrize("bad", [math.nan, math.inf, True, -1.0, 0.0])
def test_model_refuses_a_bad_rydberg_constant_by_name(bad):
    # before, c6_pair of such a copy returned 0.0 without an error
    with pytest.raises(ValueError, match="rydberg_constant_ghz must be"):
        dataclasses.replace(MODEL, rydberg_constant_ghz=bad)


def test_model_series_are_defect_series_under_their_own_key():
    p_half = MODEL.series[(1, 0.5)]
    for record in (p_half, tuple(dataclasses.astuple(MODEL.series[(1, 1.5)]))):
        with pytest.raises(ValueError, match=r"series\[\(1, 1.5\)\] must be a DefectSeries"):
            dataclasses.replace(MODEL, series={**MODEL.series, (1, 1.5): record})
    edited = {**MODEL.series, (1, 0.5): dataclasses.replace(p_half, delta0=2.6)}
    assert dataclasses.replace(MODEL, series=edited).series[(1, 0.5)].delta0 == 2.6


@pytest.mark.parametrize("bad", [True, False])
def test_require_finite_refuses_a_bool_by_name(bad):
    with pytest.raises(ValueError, match=f"x must be a number, got {bad}"):
        _require_finite("x", bad)


def test_require_int_takes_inclusive_bounds_and_names_each_form():
    for value in (1, 4, np.int64(2)):
        assert type(_require_int("k", value, 1, 4)) is int
    assert _require_int("seed", 0, 0) == 0
    assert _require_int("count", 9, hi=9) == 9
    for args, message in [
        (("k", 0, 1, 4), "k must be in [1, 4], got 0"),
        (("k", 5, 1, 4), "k must be in [1, 4], got 5"),
        (("seed", -1, 0), "seed must be >= 0, got -1"),
        (("count", 10, -math.inf, 9), "count must be at most 9, got 10"),
        # the integer test runs before any range test
        (("k", True, 1, 4), "k must be an integer, got True"),
        (("k", False, 1, 4), "k must be an integer, got False"),
        (("k", 2.0, 1, 4), "k must be an integer, got 2.0"),
        (("seed", -1.5, 0), "seed must be an integer, got -1.5"),
        (("count", "10", -math.inf, 9), "count must be an integer, got '10'"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            _require_int(*args)
    # a huge int is compared exactly, against an infinite side and against an int bound
    big = 10**400
    assert _require_int("n", big, 0) == big
    assert _require_int("n", -big, hi=0) == -big
    assert _require_int("n", big, big, big) == big
    with pytest.raises(ValueError, match=f"^n must be at most {big - 1}, got {big}$"):
        _require_int("n", big, hi=big - 1)


def test_quantum_defect_requires_bound_state():
    with pytest.raises(ValueError, match="must exceed delta0"):
        quantum_defect(MODEL, 0, 0.5, 3)
    # a principal number is an integer: no defect between levels, none for a flag
    for n in (73.5, math.nan, True):
        with pytest.raises(ValueError, match="n must be an integer"):
            quantum_defect(MODEL, 0, 0.5, n)


def test_level_energy_frozen_and_ordered():
    e73 = level_energy(MODEL, RydbergLevel(73, 0, 0.5))
    assert e73 == pytest.approx(-673.9162619942063, rel=1e-12)
    e97 = level_energy(MODEL, RydbergLevel(97, 0, 0.5))
    assert e97 == pytest.approx(-373.3617025176852, rel=1e-12)
    assert e73 < e97 < 0
    # smaller defect binds less: p3/2 sits above p1/2
    assert level_energy(MODEL, RydbergLevel(73, 1, 1.5)) > level_energy(
        MODEL, RydbergLevel(73, 1, 0.5)
    )


FROZEN_DEFECTS_MHZ = {
    # (n_a, n_b, ns, nt): channel -> energy defect in MHz
    (97, 100, 97, 99): {1: 138.92731731721142, 2: 41.75352737661342,
                        3: 35.442323216784644, 4: -61.73146672369967},
    (73, 75, 73, 74): {1: 198.13094686878685, 2: -41.14589832920501,
                       3: -51.49458651203531, 4: -290.7714317100272},
}


@pytest.mark.parametrize("key", sorted(FROZEN_DEFECTS_MHZ))
def test_energy_defects_frozen(key):
    n_a, n_b, ns, nt = key
    window = _pair_terms(MODEL, n_a, n_b, max(abs(ns - n_a), abs(nt - n_b)))
    i = int(np.flatnonzero((window.ns == ns) & (window.nt == nt))[0])
    assert len(window.defect) == len(FROZEN_DEFECTS_MHZ[key])  # one row per channel 1..4
    for row, channel in enumerate((1, 2, 3, 4)):
        assert window.defect[row, i] * 1e3 == pytest.approx(FROZEN_DEFECTS_MHZ[key][channel],
                                                            abs=1e-6)


def test_energy_defect_channel_map():
    assert CHANNEL_FINE_STRUCTURE == {1: (1.5, 1.5), 2: (1.5, 0.5),
                                      3: (0.5, 1.5), 4: (0.5, 0.5)}


# --- Clebsch-Gordan ---------------------------------------------------------

def _half_range(j):
    m = -j
    while m <= j:
        yield m
        m += 1.0


def _cg_cases():
    cases = []
    for j1 in (0.5, 1.0, 1.5):
        for j2 in (0.5, 1.0):
            jmin, jmax = abs(j1 - j2), j1 + j2
            for m1 in _half_range(j1):
                for m2 in _half_range(j2):
                    jtot = jmin
                    while jtot <= jmax:
                        if abs(m1 + m2) <= jtot:
                            cases.append((j1, m1, j2, m2, jtot, m1 + m2))
                        jtot += 1.0
    return cases


@pytest.mark.parametrize("j1,m1,j2,m2,jtot,mtot", _cg_cases())
def test_clebsch_gordan_against_sympy(j1, m1, j2, m2, jtot, mtot):
    sympy = pytest.importorskip("sympy")
    from sympy.physics.quantum.cg import CG

    ref = float(
        CG(*(sympy.Rational(x).limit_denominator(2)
             for x in (j1, m1, j2, m2, jtot, mtot))).doit()
    )
    assert clebsch_gordan(j1, m1, j2, m2, jtot, mtot) == pytest.approx(
        ref, abs=1e-12
    )


def test_clebsch_gordan_spot_values():
    assert clebsch_gordan(1, 0, 1, 0, 2, 0) == pytest.approx(
        math.sqrt(2.0 / 3.0), abs=1e-15
    )
    prod = clebsch_gordan(0.5, 0.5, 1, -1, 0.5, -0.5) * clebsch_gordan(
        0.5, -0.5, 1.5, 1.5, 1, 1
    )
    assert abs(prod) == pytest.approx(0.7071067811865475, abs=1e-12)


def test_clebsch_gordan_selection_rules():
    assert clebsch_gordan(0.5, 0.5, 0.5, 0.5, 1, 0) == 0.0  # M != m1 + m2
    assert clebsch_gordan(0.5, 0.5, 0.5, -0.5, 2, 0) == 0.0  # J outside triangle


@pytest.mark.parametrize(
    "args",
    [
        (-0.5, 0.5, 0.5, 0.5, 1, 1),
        (0.5, 1.5, 0.5, 0.5, 1, 1),
        (0.5, 0.0, 0.5, 0.5, 1, 0.5),
        (0.7, 0.7, 0.5, 0.5, 1, 1),
    ],
)
def test_clebsch_gordan_invalid_inputs(args):
    with pytest.raises(ValueError):
        clebsch_gordan(*args)


@pytest.mark.parametrize("j1,j2", [(0.5, 0.5), (1.0, 0.5), (1.5, 1.0)])
def test_clebsch_gordan_orthonormality(j1, j2):
    js = []
    jtot = abs(j1 - j2)
    while jtot <= j1 + j2:
        js.append(jtot)
        jtot += 1.0
    pairs = [(j, m) for j in js for m in _half_range(j)]
    for ja, ma in pairs:
        for jb, mb in pairs:
            s = sum(
                clebsch_gordan(j1, m1, j2, m2, ja, ma)
                * clebsch_gordan(j1, m1, j2, m2, jb, mb)
                for m1 in _half_range(j1)
                for m2 in _half_range(j2)
            )
            want = 1.0 if (ja, ma) == (jb, mb) else 0.0
            assert s == pytest.approx(want, abs=1e-12)


# --- two-photon reduction ----------------------------------------------------

def three_level_ground_population(
    t: float, omega_down: float, omega_up: float, detuning: float
) -> float:
    """Ground population of the adiabatically eliminated ladder system.

    For leg frequencies nu_d, nu_u (kHz) and detuning Delta (kHz), the
    population oscillates as

        P(t) = 1 - 2 a [1 - cos(2 pi nu_g t)],
        a = nu_d^2 nu_u^2 / (nu_d^2 + nu_u^2)^2,
        nu_g = (nu_d^2 + nu_u^2) / (4 Delta),

    with t in microseconds. Matched legs reach P = 0; unequal legs do
    not fully transfer (e.g. nu_d = 2 nu_u bottoms out at 0.36).
    """
    if detuning == 0:
        raise ValueError("three-level reduction requires a nonzero detuning")
    s = omega_down**2 + omega_up**2
    if s == 0:
        return 1.0
    a = (omega_down**2) * (omega_up**2) / s**2
    nu_g = s / (4.0 * detuning)  # kHz
    theta = 2.0 * math.pi * nu_g * t * 1e-3
    return 1.0 - 2.0 * a * (1.0 - math.cos(theta))


def test_three_level_unequal_legs_floor():
    # nu_d = 2 nu_u bottoms out at 1 - 4 a = 0.36, half a period in
    t_half = 1e3 / (2.0 * ((20.0**2 + 10.0**2) / (4.0 * 500.0)))
    assert three_level_ground_population(t_half, 20, 10, 500) == pytest.approx(
        0.36, abs=1e-12
    )
    assert three_level_ground_population(0.0, 20, 10, 500) == 1.0
    assert three_level_ground_population(123.4, 20, 20, 500) >= 0.0


def test_three_level_zero_detuning_raises():
    with pytest.raises(ValueError, match="nonzero detuning"):
        three_level_ground_population(1.0, 20, 10, 0)


def test_three_level_matches_full_propagation():
    # dual route: the closed form against the actual three-level ladder
    from rydex.dynamics import HamiltonianMatrix, QuantumState, propagate

    h = HamiltonianMatrix(
        basis=("g", "m", "t"),
        matrix=np.array(
            [[0.0, 10.0, 0.0], [10.0, 500.0, 5.0], [0.0, 5.0, 0.0]], dtype=complex
        ),
    )
    start = QuantumState.from_label(("g", "m", "t"), "g")
    for t_us in (100.0, 400.0, 900.0, 1600.0, 2000.0):
        full = propagate(start, h, t_us).population("g")
        closed = three_level_ground_population(t_us, 20, 10, 500)
        assert full == pytest.approx(closed, abs=5e-3)
