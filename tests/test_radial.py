"""Quasiclassical radial matrix elements and the dipole coupling constant."""

import dataclasses
import importlib.util
import random
from pathlib import Path

import mpmath
import pytest

from rydex.atoms import DefectSeries, QuantumDefectModel, RydbergLevel
from rydex.radial import (
    E2A02_GHZ_UM3,
    RadialOrbital,
    _kaulakys,
    _live_element,
    _sp_table,
    effective_orbital,
    radial_integral,
)

from radial_reference import rrr_coefficient

MODEL = QuantumDefectModel.default()


def test_coupling_constant_matches_codata():
    const = pytest.importorskip("scipy.constants")
    a0 = const.physical_constants["Bohr radius"][0]
    hz_m3 = const.e**2 * a0**2 / (4 * const.pi * const.epsilon_0 * const.h)
    assert hz_m3 * 1e18 / 1e9 == pytest.approx(E2A02_GHZ_UM3, rel=1e-8)


def test_radial_orbital_validation():
    with pytest.raises(ValueError, match="n_eff must be positive"):
        RadialOrbital(n_eff=-2.0, l=0)
    with pytest.raises(ValueError, match="l must be non-negative"):
        RadialOrbital(n_eff=50.0, l=-1)


def test_effective_orbital_frozen():
    orb = effective_orbital(MODEL, RydbergLevel(73, 0, 0.5))
    assert orb.l == 0
    assert orb.n_eff == pytest.approx(69.86878305499398, abs=1e-12)


def test_selection_rule_enforced():
    with pytest.raises(ValueError, match="l1 - l2"):
        radial_integral(RadialOrbital(50.0, 0), RadialOrbital(50.0, 0))
    with pytest.raises(ValueError, match="l1 - l2"):
        radial_integral(RadialOrbital(50.0, 0), RadialOrbital(49.0, 2))


def test_low_orbital_angular_momentum_guard():
    # l_c >= nu_c leaves no classically allowed region; the low-n warning
    # fires first on orbitals this deep
    with pytest.warns(UserWarning, match="marginal"):
        with pytest.raises(ValueError, match="l_c"):
            radial_integral(RadialOrbital(1.4, 1), RadialOrbital(1.5, 2))


def test_far_apart_levels_are_named():
    # the Anger series of a ~1e5 n_eff difference does not converge
    with pytest.raises(ValueError, match="do not converge for n_eff 70 and 99990"):
        radial_integral(RadialOrbital(70, 0), RadialOrbital(99990, 1))


def test_low_n_warning():
    with pytest.warns(UserWarning, match="marginal at n_eff"):
        radial_integral(RadialOrbital(5.5, 0), RadialOrbital(6.0, 1))


def test_symmetry_under_state_exchange():
    a = radial_integral(RadialOrbital(69.87, 0), RadialOrbital(69.37, 1))
    b = radial_integral(RadialOrbital(69.37, 1), RadialOrbital(69.87, 0))
    assert a == b


def test_diagonal_scaling_limit():
    # <nu l|r|nu' l'> -> 1.5 nu^2 as the transition becomes diagonal
    for nu in (40.0, 80.0):
        near = radial_integral(RadialOrbital(nu, 0), RadialOrbital(nu - 1e-9, 1))
        assert near / nu**2 == pytest.approx(1.5, rel=1e-3)


def test_quadratic_growth():
    r40 = radial_integral(RadialOrbital(40.0, 0), RadialOrbital(39.5, 1))
    r80 = radial_integral(RadialOrbital(80.0, 0), RadialOrbital(79.5, 1))
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
