"""Quasiclassical radial matrix elements and the dipole coupling constant."""

import pytest

from rydex.atoms import QuantumDefectModel, RydbergLevel
from rydex.radial import (
    E2A02_GHZ_UM3,
    RadialOrbital,
    _kaulakys,
    effective_orbital,
    radial_integral,
    rrr_coefficient,
)

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
