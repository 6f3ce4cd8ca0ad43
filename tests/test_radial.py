"""Quasiclassical radial matrix elements and the dipole coupling constant."""

import dataclasses
import importlib.util
import math
import random
import re
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rydex.atoms import DefectSeries, QuantumDefectModel, _rydberg_ritz
from rydex.radial import (
    E2A02_GHZ_UM3,
    _kaulakys,
    _live_element,
    _sp_row,
    _sp_table,
    radial_integral,
)
from rydex.vdw import _p_levels

from level_reference import RydbergLevel, effective_orbital
from radial_reference import rrr_coefficient

MODEL = QuantumDefectModel.default()


def test_coupling_constant_matches_codata():
    const = pytest.importorskip("scipy.constants")
    a0 = const.physical_constants["Bohr radius"][0]
    hz_m3 = const.e**2 * a0**2 / (4 * const.pi * const.epsilon_0 * const.h)
    assert hz_m3 * 1e18 / 1e9 == pytest.approx(E2A02_GHZ_UM3, rel=1e-8)


@pytest.mark.parametrize(
    "args,match",
    [
        ((-2.0, 0, 50.0, 1), "n_eff1 must be finite and > 0, got -2.0"),
        ((50.0, 0, 0.0, 1), "n_eff2 must be finite and > 0, got 0.0"),
        ((math.nan, 0, 50.0, 1), "n_eff1 must be finite and > 0, got nan"),
        ((50.0, 0, math.inf, 1), "n_eff2 must be finite and > 0, got inf"),
        ((50.0, -1, 50.0, 0), "l1 must be >= 0, got -1"),
        ((50.0, 0.5, 50.0, 1), "l1 must be an integer, got 0.5"),
        ((50.0, 0, 50.0, True), "l2 must be an integer, got True"),
    ],
    ids=["n_eff-negative", "n_eff-zero", "n_eff-nan", "n_eff-inf", "l-negative",
         "l-half", "l-bool"],
)
def test_radial_integral_input_checks(args, match):
    with pytest.raises(ValueError, match=re.escape(match)):
        radial_integral(*args)


def test_radial_integral_takes_numpy_numbers():
    # past the hot-path test, the named checks let a valid numpy scalar through
    assert radial_integral(np.float64(69.87), np.int64(0), 69.37, np.int8(1)) == (
        radial_integral(69.87, 0, 69.37, 1)
    )


def test_effective_orbital_frozen():
    orb = effective_orbital(MODEL, RydbergLevel(73, 0, 0.5))
    assert orb.l == 0
    assert orb.n_eff == pytest.approx(69.86878305499398, abs=1e-12)


def test_selection_rule_enforced():
    with pytest.raises(ValueError, match="l1 - l2"):
        radial_integral(50.0, 0, 50.0, 0)
    with pytest.raises(ValueError, match="l1 - l2"):
        radial_integral(50.0, 0, 49.0, 2)


def test_low_orbital_angular_momentum_guard():
    # l_c >= nu_c leaves no classically allowed region; the low-n warning
    # fires first on orbitals this deep
    with pytest.warns(UserWarning, match="marginal"):
        with pytest.raises(ValueError, match="l_c"):
            radial_integral(1.4, 1, 1.5, 2)


def test_far_apart_levels_are_named():
    # the Anger series of a ~1e5 n_eff difference does not converge, and mpmath
    # meets a pole in its hypergeometric series at a 1e300 one
    with pytest.raises(ValueError, match="do not converge for n_eff 70 and 99990"):
        radial_integral(70, 0, 99990, 1)
    for far, near in ((1e300, 60.3), (60.3, 1e300), (1e8, 60.3)):
        with pytest.raises(ValueError, match=re.escape(f"do not converge for n_eff {far} and {near}")):
            radial_integral(far, 0, near, 1)


def test_low_n_warning():
    with pytest.warns(UserWarning, match="marginal at n_eff"):
        radial_integral(5.5, 0, 6.0, 1)


def test_symmetry_under_state_exchange():
    a = radial_integral(69.87, 0, 69.37, 1)
    b = radial_integral(69.37, 1, 69.87, 0)
    assert a == b


def test_diagonal_scaling_limit():
    # <nu l|r|nu' l'> -> 1.5 nu^2 as the transition becomes diagonal
    for nu in (40.0, 80.0):
        near = radial_integral(nu, 0, nu - 1e-9, 1)
        assert near / nu**2 == pytest.approx(1.5, rel=1e-3)


def test_quadratic_growth():
    r40 = radial_integral(40.0, 0, 39.5, 1)
    r80 = radial_integral(80.0, 0, 79.5, 1)
    assert r80 / r40 == pytest.approx(4.0, rel=0.05)


def test_kaulakys_cache_reused():
    rrr_coefficient(
        MODEL,
        (RydbergLevel(60, 0, 0.5), RydbergLevel(62, 0, 0.5)),
        (RydbergLevel(60, 1, 0.5), RydbergLevel(62, 1, 1.5)),
    )
    hits_before = _kaulakys.cache_info().hits
    rrr_coefficient(
        MODEL,
        (RydbergLevel(60, 0, 0.5), RydbergLevel(62, 0, 0.5)),
        (RydbergLevel(60, 1, 0.5), RydbergLevel(62, 1, 1.5)),
    )
    assert _kaulakys.cache_info().hits >= hits_before + 2


FROZEN_RRR = [
    # (n_a s, n_b s) -> (p level, p level), GHz um^3
    ((97, 100), (96, 0.5), (100, 0.5), 98.31746085769934),
    ((97, 100), (97, 0.5), (99, 1.5), 100.16315421979763),
    ((73, 75), (73, 0.5), (74, 1.5), 30.53567095978541),
]


@pytest.mark.parametrize("pair,p1,p2,expected", FROZEN_RRR)
def test_rrr_coefficient_frozen(pair, p1, p2, expected):
    n_a, n_b = pair
    got = rrr_coefficient(
        MODEL,
        (RydbergLevel(n_a, 0, 0.5), RydbergLevel(n_b, 0, 0.5)),
        (RydbergLevel(p1[0], 1, p1[1]), RydbergLevel(p2[0], 1, p2[1])),
    )
    assert got == pytest.approx(expected, rel=1e-12)


def test_rrr_cross_coupling_is_small():
    # both atoms changing principal number by one leaves only a weak tail
    rr = rrr_coefficient(
        MODEL,
        (RydbergLevel(73, 0, 0.5), RydbergLevel(75, 0, 0.5)),
        (RydbergLevel(74, 1, 0.5), RydbergLevel(73, 1, 0.5)),
    )
    assert 0.1 < abs(rr) < 1.0


@pytest.fixture(scope="module")
def radial_table():
    """``tools/radial_table.py``, the table's generator and the home of its domain."""
    path = Path(__file__).resolve().parents[1] / "tools" / "radial_table.py"
    spec = importlib.util.spec_from_file_location("radial_table", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tabulated_elements_are_the_live_element_bit_for_bit():
    nu_s, nu_p, element = _sp_table()
    for i in random.Random(2024).sample(range(len(element)), 64):
        assert _live_element(nu_s[i], 0, nu_p[i], 1) == element[i]


def test_table_keys_are_the_grid_of_the_bundled_model(radial_table):
    # fails when rb87_defects.txt changes and the table is not regenerated
    nu_s, nu_p, _ = _sp_table()
    assert list(zip(nu_s, nu_p)) == sorted(radial_table.grid(MODEL))


def _sp_key(model, n_s, n_p, j=1.5):
    return (effective_orbital(model, RydbergLevel(n_s, 0, 0.5)).n_eff,
            effective_orbital(model, RydbergLevel(n_p, 1, j)).n_eff)


@pytest.fixture
def anger_calls(monkeypatch):
    calls = []
    angerj = mpmath.angerj
    monkeypatch.setattr(mpmath, "angerj", lambda *a: calls.append(a) or angerj(*a))
    return calls


def test_tabulated_input_skips_mpmath(anger_calls):
    nu_s, nu_p = _sp_key(MODEL, 73, 74)
    value = _kaulakys.__wrapped__(nu_s, 0, nu_p, 1)
    assert anger_calls == []
    assert value == _live_element(nu_s, 0, nu_p, 1)


def test_off_table_input_takes_the_live_path(anger_calls):
    # n_s = 250 lies past the table; a perturbed defect moves every key off it
    s = MODEL.series[(0, 0.5)]
    moved = dataclasses.replace(MODEL, series={
        **MODEL.series, (0, 0.5): DefectSeries(0, 0.5, s.delta0 + 1e-9, s.delta2)})
    for nu_s, nu_p in (_sp_key(MODEL, 250, 251), _sp_key(moved, 73, 74)):
        anger_calls.clear()
        value = _kaulakys.__wrapped__(nu_s, 0, nu_p, 1)
        assert len(anger_calls) == 2
        assert value == _live_element(nu_s, 0, nu_p, 1)


def _row(model, n_s, j, start, length):
    """(nu_s, nus): the n_s s level of ``model`` and its p_j levels n_p = start, ...,
    ``length`` of them, as a window reads them."""
    lowest, nus, _ = _p_levels(model)[j]
    return _rydberg_ritz(model, 0, 0.5, [n_s])[1][0], nus[start - lowest:start - lowest + length]


# the table holds |n_p - n_s| <= 24 for n_s in 20..200, from the series floor n_p = 4
@settings(max_examples=60, deadline=None, derandomize=True)
@given(n_s=st.integers(20, 205), j=st.sampled_from((0.5, 1.5)), offset=st.integers(-30, 12),
       length=st.integers(1, 41))
@example(n_s=200, j=1.5, offset=-24, length=41)  # on the table up to its last key
@example(n_s=200, j=0.5, offset=-16, length=41)  # one past n_s + 24
@example(n_s=73, j=0.5, offset=-25, length=41)  # one below n_s - 24
@example(n_s=201, j=1.5, offset=-10, length=21)  # past the last block
@example(n_s=27, j=0.5, offset=-23, length=41)  # from the series floor, below n_eff 10
@example(n_s=40, j=1.5, offset=-27, length=30)  # from n_p = 13, the first at n_eff 10
def test_sp_row_is_the_element_path_bit_for_bit(n_s, j, offset, length):
    nu_s, nus = _row(MODEL, n_s, j, max(n_s + offset, 4), length)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # marginal below n_eff 10
        row = _sp_row(nu_s, nus)
    assert [x.hex() for x in row] == [_kaulakys(nu_s, 0, nu, 1).hex() for nu in nus]


def _refuse(*args):
    raise AssertionError("a tabulated row called mpmath.angerj")


@pytest.mark.parametrize("n_s,j,start,length", [
    (73, 0.5, 63, 21), (73, 1.5, 63, 21), (75, 1.5, 51, 41), (200, 0.5, 176, 41),
    (200, 1.5, 224, 1), (20, 1.5, 13, 32), (130, 0.5, 127, 7)])
def test_tabulated_row_skips_the_element_cache_and_mpmath(monkeypatch, n_s, j, start, length):
    nu_s, nus = _row(MODEL, n_s, j, start, length)
    monkeypatch.setattr(mpmath, "angerj", _refuse)
    before = _kaulakys.cache_info()
    row = _sp_row(nu_s, nus)
    assert _kaulakys.cache_info() == before
    assert row == [_kaulakys.__wrapped__(nu_s, 0, nu, 1) for nu in nus]


def test_edited_model_row_reaches_the_live_element(anger_calls):
    # a p_3/2 delta0 moved by 1e-6 moves every key of the row off the table
    s = MODEL.series[(1, 1.5)]
    edited = dataclasses.replace(MODEL, series={
        **MODEL.series, (1, 1.5): DefectSeries(1, 1.5, s.delta0 + 1e-6, s.delta2)})
    nu_s, nus = _row(edited, 73, 1.5, 63, 21)
    _kaulakys.cache_clear()
    row = _sp_row(nu_s, nus)
    assert len(anger_calls) == 2 * len(nus)
    assert row == [_live_element(nu_s, 0, nu, 1) for nu in nus]


def test_row_is_not_read_past_its_block():
    # the n_s = 100 block ends at n_p = 124 and the next one starts at n_p = 77:
    # keys two apart across that boundary are not one row of n_s = 100
    (nu_s, last), (_, first) = _row(MODEL, 100, 0.5, 124, 1), _row(MODEL, 101, 0.5, 77, 1)
    nus = [*last, *first]
    assert _sp_row(nu_s, nus) == [_kaulakys(nu_s, 0, nu, 1) for nu in nus]
