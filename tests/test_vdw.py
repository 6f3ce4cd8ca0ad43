"""Angular structure matrices, C6 sums, and the Bell-basis interaction."""

import copy
import dataclasses
import logging
import math
import pickle
import re
import warnings
from collections import Counter
from functools import cached_property

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rydex.atoms import CHANNEL_FINE_STRUCTURE, QuantumDefectModel, _rydberg_ritz
from rydex import radial, vdw
from rydex.radial import radial_integral
from rydex.tables import REFERENCE_TABLE_I
from rydex.vdw import (
    NEAR_RESONANCE_GHZ,
    SPIN_BASIS,
    C6Pair,
    ChannelContribution,
    InteractionMatrix,
    InterferenceDecomposition,
    SingularChannelError,
    _D_MATRICES,
    _M_MATRICES,
    _khz_per_ghz_um6,
    _m_rows,
    _build_window,
    _p_levels,
    _pair_terms,
    _pair_windows,
    c6_pair,
    channel_c6,
    critical_radius,
    interaction_matrix,
    interference_decomposition,
    v_plus_minus,
)

from level_reference import RydbergLevel, level_energy
from radial_reference import rrr_coefficient

MODEL = QuantumDefectModel.default()

# middle-block diagonal, middle off-diagonal, and corner weights of the
# four channels, all ninths of 81
D_WEIGHTS = {
    1: (26, 8, 22),
    2: (10, -8, 14),
    3: (10, -8, 14),
    4: (8, 8, 4),
}


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_d_matrix_exact_fractions(k):
    diag, off, cor = D_WEIGHTS[k]
    d = _D_MATRICES[k]
    assert d[1, 1] == d[2, 2] == diag / 81.0
    assert d[1, 2] == d[2, 1] == off / 81.0
    assert d[0, 0] == d[3, 3] == cor / 81.0


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_d_matrix_is_gram_of_m(k):
    m = _M_MATRICES[k]
    gram = m.T @ m
    assert np.abs(gram - _D_MATRICES[k]).max() < 1e-15


@pytest.mark.parametrize(
    "k,expected", [(1, 4.0 / 9.0), (2, math.sqrt(8.0) / 9.0),
                   (3, math.sqrt(8.0) / 9.0), (4, 2.0 / 9.0)]
)
def test_m_matrix_peak_coupling(k, expected):
    assert np.abs(_M_MATRICES[k]).max() == pytest.approx(expected, abs=1e-15)


def test_channel_3_is_channel_2_with_atoms_swapped():
    # exchanging which atom carries j = 3/2 transposes the fine-structure
    # labels; the spin-projection algebra is atom-symmetric
    assert np.array_equal(_D_MATRICES[2], _D_MATRICES[3])


@pytest.mark.parametrize(
    "k,row,col,expected",
    [
        (1, (-0.5, -0.5), (-0.5, -0.5), -4.0 / 9.0),
        (1, (-1.5, 1.5), (-0.5, 0.5), -1.0 / 3.0),
        (1, (-0.5, 0.5), (0.5, -0.5), -1.0 / 9.0),
        (2, (-0.5, 0.5), (-0.5, 0.5), math.sqrt(8.0) / 9.0),
        (2, (-0.5, 0.5), (0.5, -0.5), -math.sqrt(2.0) / 9.0),
        (2, (0.5, -0.5), (-0.5, 0.5), math.sqrt(2.0) / 9.0),
        (2, (1.5, -0.5), (0.5, 0.5), math.sqrt(6.0) / 9.0),
        (3, (0.5, -1.5), (-0.5, -0.5), -math.sqrt(6.0) / 9.0),
        (3, (-0.5, 0.5), (0.5, -0.5), math.sqrt(2.0) / 9.0),
        (4, (-0.5, 0.5), (0.5, -0.5), 2.0 / 9.0),
        (4, (0.5, 0.5), (0.5, 0.5), -2.0 / 9.0),
    ],
)
def test_m_matrix_signed_entries(k, row, col, expected):
    # D = M^T M and max|M| cannot see a flipped row sign or a swapped
    # Clebsch-Gordan argument order; the signed entries can
    rows = _m_rows(*CHANNEL_FINE_STRUCTURE[k])
    value = _M_MATRICES[k][rows.index(row), SPIN_BASIS.index(col)]
    assert value == pytest.approx(expected, abs=1e-15)


def test_angular_channel_exposes_labels():
    # channel 2 puts j = 3/2 on atom A: M has one row per (m_A', m_B') pair,
    # m_A' outer, and one column per SPIN_BASIS state
    assert CHANNEL_FINE_STRUCTURE[2] == (1.5, 0.5)
    rows = _m_rows(1.5, 0.5)
    assert rows == tuple((a, b) for a in (-1.5, -0.5, 0.5, 1.5) for b in (-0.5, 0.5))
    assert _M_MATRICES[2].shape == (len(rows), len(SPIN_BASIS))
    assert _D_MATRICES[2].shape == (4, 4)


def test_spin_basis_order():
    assert SPIN_BASIS == ((-0.5, -0.5), (-0.5, 0.5), (0.5, -0.5), (0.5, 0.5))


# --- perturbative sums -------------------------------------------------------

def test_c6_pair_frozen_73_75():
    pair = c6_pair(MODEL, 73, 75)
    assert pair.c6 == pytest.approx(4078.470304771446, rel=1e-12)
    assert pair.c6_exchange == pytest.approx(-4023.051689265867, rel=1e-12)
    assert pair.channel_sums == pytest.approx(
        (-3915.325673891656, 21743.542444974137, 18628.63220208543,
         3554.101967134317),
        rel=1e-12,
    )


def test_c6_pair_frozen_97_100():
    pair = c6_pair(MODEL, 97, 100)
    assert pair.c6 == pytest.approx(-59754.19517966351, rel=1e-12)
    assert pair.c6_exchange == pytest.approx(58769.62969756963, rel=1e-12)


def test_c6_pair_rejects_equal_n():
    with pytest.raises(ValueError, match="distinct principal"):
        c6_pair(MODEL, 73, 73)


def test_channel_c6_validation():
    for k in (0, 5, -1):
        with pytest.raises(ValueError, match=rf"^k must be in \[1, 4\], got {k}$"):
            channel_c6(MODEL, 73, 75, k)
    for k in (2.5, True, 2.0):
        with pytest.raises(ValueError, match=r"^k must be an integer, got "):
            channel_c6(MODEL, 73, 75, k)
    with pytest.raises(ValueError, match="dn_cutoff"):
        channel_c6(MODEL, 73, 75, 2, dn_cutoff=-1)


def test_channel_c6_against_direct_sum():
    # independent re-summation from level energies and radial elements
    n_a = n_b = 100
    dn = 2
    j_a, j_b = 1.5, 0.5
    s_a = RydbergLevel(n_a, 0, 0.5)
    s_b = RydbergLevel(n_b, 0, 0.5)
    e0 = level_energy(MODEL, s_a) + level_energy(MODEL, s_b)
    total = 0.0
    for ns in range(n_a - dn, n_a + dn + 1):
        for nt in range(n_b - dn, n_b + dn + 1):
            p_a = RydbergLevel(ns, 1, j_a)
            p_b = RydbergLevel(nt, 1, j_b)
            defect = level_energy(MODEL, p_a) + level_energy(MODEL, p_b) - e0
            rr = rrr_coefficient(MODEL, (s_a, s_b), (p_a, p_b))
            total += -rr * rr / defect
    assert channel_c6(MODEL, n_a, n_b, 2, dn_cutoff=dn) == pytest.approx(
        total, rel=1e-12
    )


def test_channel_c6_exchange_branch():
    cross = _pair_terms(MODEL, 73, 75, 10).sums[1]  # one row per channel, 1..4
    assert cross[1] == pytest.approx(667.05180461046, rel=1e-12)
    assert channel_c6(MODEL, 73, 75, 2) == pytest.approx(
        21743.542444974137, rel=1e-12
    )


def test_window_saturation():
    c10 = c6_pair(MODEL, 73, 75, dn_cutoff=10).c6
    c15 = c6_pair(MODEL, 73, 75, dn_cutoff=15).c6
    assert abs(c15 - c10) / abs(c10) < 1e-3


def _model_with_p(delta0: float, delta2: float) -> QuantumDefectModel:
    """An s series at delta0 = 3 and both p_j series at (delta0, delta2)."""
    text = (
        "format_version 1\n"
        "species test\n"
        "rydberg_constant_ghz 3289821.194553\n"
        "series s 0.5 3.0 0.0\n"
        f"series p 0.5 {delta0!r} {delta2!r}\n"
        f"series p 1.5 {delta0!r} {delta2!r}\n"
    )
    return QuantumDefectModel._parse(text)


def _degenerate_model(eps: float) -> QuantumDefectModel:
    """s and p series this close produce a (na p, nb p) defect near zero."""
    return _model_with_p(3.0 + eps, 0.0)


def test_exactly_resonant_channel_raises():
    # equal principal numbers cancel bit-exactly when the s and p series
    # share one defect, so the zero-defect branch is deterministic
    with pytest.raises(SingularChannelError, match="exactly resonant"):
        channel_c6(_degenerate_model(0.0), 50, 50, 1, dn_cutoff=0)


def test_critical_radius_refuses_an_exactly_resonant_channel():
    # the zero defect is the dominant channel, so no finite radius exists
    with pytest.raises(SingularChannelError, match=r"dominant channel \(50p, 50p\) is exactly"):
        critical_radius(_degenerate_model(0.0), 50, 50, dn_cutoff=0)


_NO_FINITE_RADIUS = (
    "dominant channel 2 (73p, 74p) of (73s, 75s) has defect -1.25e-308 GHz against "
    "coupling 29.5 GHz um^3; no finite critical radius"
)


def test_critical_radius_refuses_a_radius_past_the_float_range():
    # a Rydberg constant of 1e-300 GHz scales every defect to ~1e-308 GHz, so the
    # dominant channel's |R| / |defect| overflows; a caller gets no inf radius
    tiny = dataclasses.replace(MODEL, rydberg_constant_ghz=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        for call in (lambda: critical_radius(tiny, 73, 75),
                     lambda: interaction_matrix(tiny, 73, 75, 15.0)):
            for _ in range(2):  # a cached window raises again
                with pytest.raises(SingularChannelError, match=re.escape(_NO_FINITE_RADIUS)):
                    call()


def test_near_resonant_terms_excluded_with_warning(caplog):
    model = _degenerate_model(4e-9)
    with caplog.at_level(logging.WARNING, logger="rydex.vdw"):
        value = channel_c6(model, 50, 52, 1, dn_cutoff=1)
    assert math.isfinite(value)
    assert any("near-resonant" in r.message for r in caplog.records)

    # the decomposition applies the same exclusion and still sums to it
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="rydex.vdw"):
        parts = interference_decomposition(model, 50, 52, dn_cutoff=1)
    assert any("near-resonant" in r.message for r in caplog.records)
    d_diag = _D_MATRICES[1][1, 1]
    total = sum(p.c6_plus + p.c6_minus for p in parts if p.channel == 1)
    assert total / (2.0 * d_diag) == pytest.approx(value, rel=1e-12)

    # so does c6_pair, whose channel-1 sum is that same reduction
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="rydex.vdw"):
        pair = c6_pair(model, 50, 52, dn_cutoff=1)
    assert any("near-resonant" in r.message for r in caplog.records)
    assert pair.channel_sums[0] == value
    assert all(math.isfinite(x) for x in (pair.c6, pair.c6_exchange))


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: c6_pair(MODEL, 3, 5), r"n_a=3 with dn_cutoff=10 reaches n=-7"),
        (lambda: c6_pair(MODEL, 73, 12), r"n_b=12 with dn_cutoff=10 reaches n=2"),
        (lambda: critical_radius(MODEL, 5, 7), r"n_a=5 with dn_cutoff=3 reaches n=2"),
        (lambda: channel_c6(MODEL, 13, 20, 2), r"n_a=13 .* reaches n=3"),
        (lambda: interference_decomposition(MODEL, 8, 30), r"n_a=8"),
        (lambda: interaction_matrix(MODEL, 30, 9, 15.0), r"n_b=9"),
        # delta0 = 2, delta2 = 1 puts 3p at nu = 0 exactly, a level with no energy
        (lambda: channel_c6(_model_with_p(2.0, 1.0), 12, 14, 1), r"n_a=12 .* reaches n=2"),
    ],
)
def test_window_below_bound_p_levels_rejected(call, match):
    # the Rb-87 p series first has n - delta(n) > 0 at n = 4
    with pytest.raises(ValueError, match=match + r".*lowest bound p level n=4"):
        call()


def test_lowest_window_level_accepted():
    # n_a - dn_cutoff = 4 is the lowest bound p level, so the window is valid
    with pytest.warns(UserWarning, match="marginal"):
        assert math.isfinite(channel_c6(MODEL, 14, 15, 2, dn_cutoff=10))


def _marginal_messages(action, call):
    _pair_windows.cache_clear()  # a warm window warns no more
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        call()
    return [str(w.message) for w in caught]


def test_window_rows_warn_as_element_by_element():
    # c6_pair(14, 15) reaches n = 4, n_eff < 10: the window checks each radial row
    # once, and a row where a check fires goes element by element. In build
    # order: atom a then b, p_1/2 then p_3/2, its own s level's row then the other's
    (_, (nu_a, nu_b), _) = _rydberg_ritz(MODEL, 0, 0.5, (14, 15))
    rows = [
        (kind, nu_s, _rydberg_ritz(MODEL, 1, j, range(n - 10, n + 11))[1])
        for n, own, other in ((14, nu_a, nu_b), (15, nu_b, nu_a))
        for j in (0.5, 1.5)
        for kind, nu_s in (("own", own), ("cross", other))
    ]
    marginal = [(kind, min(nu_s, nu)) for kind, nu_s, nus in rows for nu in nus]
    marginal = [(kind, f"{x:.2f}") for kind, x in marginal if x < 10.0]
    assert len(marginal) == 68  # p levels 4..12 of atom a, 5..12 of atom b, x 2 j x 2 rows
    one_by_one = _marginal_messages(
        "always", lambda: [radial_integral(nu_s, 0, nu, 1) for _, nu_s, nus in rows for nu in nus]
    )
    assert one_by_one == [
        f"quasiclassical radial element marginal at n_eff={x} (< 10)" for _, x in marginal
    ]
    assert _marginal_messages("always", lambda: c6_pair(MODEL, 14, 15)) == one_by_one
    # the console's default filter shows a message once per source line, and every
    # row warns from one line: each distinct message shows once
    shown = _marginal_messages("default", lambda: c6_pair(MODEL, 14, 15))
    firsts = list(dict.fromkeys(x for _, x in marginal))
    assert shown == [f"quasiclassical radial element marginal at n_eff={x} (< 10)" for x in firsts]
    assert len(shown) < len(one_by_one)


@pytest.mark.parametrize(
    "call,match",
    [
        (lambda: c6_pair(MODEL, 73.0, 75), r"n_a must be an integer, got 73\.0"),
        (lambda: c6_pair(MODEL, True, 75), r"n_a must be an integer, got True"),
        (lambda: channel_c6(MODEL, 73, 75.0, 1), r"n_b must be an integer, got 75\.0"),
        (lambda: critical_radius(MODEL, 73, 75, dn_cutoff=3.0), r"dn_cutoff must be an integer"),
        # the domain cap: the highest window level above MAX_PRINCIPAL_N = 500
        (lambda: c6_pair(MODEL, 491, 495), r"n_b=495 with dn_cutoff=10 reaches n=505, "
                                           r"above the channel-sum domain n <= 500"),
        (lambda: critical_radius(MODEL, 498, 497), r"n_a=498 with dn_cutoff=3 reaches n=501"),
        # a bool or float channel used to pass as channel 1
        (lambda: channel_c6(MODEL, 73, 75, True), r"k must be an integer, got True"),
        (lambda: channel_c6(MODEL, 73, 75, 1.0), r"k must be an integer, got 1\.0"),
    ],
)
def test_window_outside_integer_domain_rejected(call, match):
    c6_pair(MODEL, 73, 75)  # a warm int window answers no equal float or bool
    with pytest.raises(ValueError, match=match):
        call()


def test_highest_window_level_accepted():
    assert math.isfinite(critical_radius(MODEL, 497, 496).radius_um)  # tops out at n = 500


# --- the window cache ---------------------------------------------------------

WINDOW_ARRAYS = ("ns", "nt", "defect", "rr", "rr_cross")


def _edited_p_series(model, delta0_shift):
    """A copy of ``model`` with the p_1/2 series' delta0 moved by ``delta0_shift``."""
    p = model.series[(1, 0.5)]
    series = {**model.series, (1, 0.5): dataclasses.replace(p, delta0=p.delta0 + delta0_shift)}
    return dataclasses.replace(model, series=series)


def test_model_is_an_immutable_value():
    model = QuantumDefectModel.default()
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.rydberg_constant_ghz = 1.0
    with pytest.raises(TypeError):
        model.series[(1, 0.5)] = model.series[(1, 1.5)]
    # the model copies the mapping it is given: editing that dict moves nothing
    given_series = dict(model.series)
    copy = dataclasses.replace(model, series=given_series)
    given_series.clear()
    assert copy == model and hash(copy) == hash(model)
    assert _edited_p_series(model, 1e-3) != model


def test_equal_models_share_one_window():
    a, b = QuantumDefectModel.default(), QuantumDefectModel.default()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert _pair_terms(a, 61, 64, 10) is _pair_terms(b, 61, 64, 10)


def test_edited_model_gets_a_fresh_window():
    model = QuantumDefectModel.default()
    before = c6_pair(model, 61, 64)
    edited = _edited_p_series(model, 1e-3)
    after = _pair_terms(edited, 61, 64, 10)
    assert after is not _pair_terms(model, 61, 64, 10)
    assert _p_levels(edited) is not _p_levels(model)
    # built straight from the edited copy, past both caches
    _p_levels.cache_clear()
    fresh = _build_window(edited, 61, 64, 10)
    for name in WINDOW_ARRAYS:
        assert np.array_equal(getattr(after, name), getattr(fresh, name))
    assert c6_pair(edited, 61, 64).c6 != before.c6
    assert c6_pair(model, 61, 64) == before


def test_cached_window_refuses_writes():
    window = _pair_terms(MODEL, 73, 75, 10)
    assert window.defect.shape == window.rr.shape == window.rr_cross.shape == (4, 441)
    for array in (window.ns, window.nt, window.defect, window.rr, window.rr_cross):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    with pytest.raises(dataclasses.FrozenInstanceError):
        window.rr = np.zeros_like(window.rr)
    assert c6_pair(MODEL, 73, 75).c6 == pytest.approx(4078.470304771446, rel=1e-12)


def test_near_resonant_exclusion_logged_on_every_call(caplog):
    # (180, 183) at dn 10 holds two accidental near-resonances of the Rb-87 model
    with caplog.at_level(logging.WARNING, logger="rydex.vdw"):
        first = c6_pair(MODEL, 180, 183)
        logged = [r.getMessage() for r in caplog.records]
        assert c6_pair(MODEL, 180, 183) == first  # served by the warm cache
    assert len(logged) == 2 and all("near-resonant" in m for m in logged)
    assert [r.getMessage() for r in caplog.records] == logged * 2


def test_cold_pair_reduces_each_window_once(monkeypatch):
    # the workload's pair op: the dn-10 window's sums serve c6_pair and every
    # interaction_matrix, the dn-3 window's radius every radius lookup
    calls = Counter()
    for name in ("keep", "sums", "blocks", "critical_radius", "exclusions"):
        reduce = vdw._Window.__dict__[name].func
        counted = cached_property(lambda w, n=name, f=reduce: calls.update([n]) or f(w))
        counted.__set_name__(vdw._Window, name)
        monkeypatch.setattr(vdw._Window, name, counted)
    build, cut = vdw._build_window, vdw._Window.cut
    monkeypatch.setattr(vdw, "_build_window", lambda *a: calls.update(["build"]) or build(*a))
    monkeypatch.setattr(vdw._Window, "cut", lambda w, dn: calls.update(["cut"]) or cut(w, dn))
    _pair_windows.cache_clear()
    c6_pair(MODEL, 73, 75)
    lc = critical_radius(MODEL, 73, 75).radius_um
    for factor in (1.5, 2.0, 3.0):
        interaction_matrix(MODEL, 73, 75, factor * lc)
    # the dn-10 window, built once: its mask, sums, blocks and excluded terms;
    # the dn-3 window, cut from it once: its radius
    assert calls == {"build": 1, "cut": 1, "keep": 1, "sums": 1, "blocks": 1,
                     "critical_radius": 1, "exclusions": 1}


def test_edited_p_series_moves_the_window_floor():
    model = QuantumDefectModel.default()
    c6_pair(model, 61, 64)  # a build under the original p series, floor n = 4
    with pytest.raises(ValueError, match=r"reaches n=3, below the lowest bound p level n=4$"):
        c6_pair(model, 13, 15)
    edited = _edited_p_series(model, 3.0)
    # nu(n) = n - delta(n) first turns positive at n = 7 in the edited p_1/2 series
    with pytest.raises(ValueError, match=r"n_a=14 .* reaches n=4, below the lowest bound p level n=7$"):
        c6_pair(edited, 14, 15)
    with pytest.raises(ValueError, match=r"reaches n=3, below the lowest bound p level n=4$"):
        c6_pair(model, 13, 15)


@pytest.mark.parametrize(
    "call",
    [
        lambda: interaction_matrix(MODEL, 180, 183, 600.0),
        lambda: interference_decomposition(MODEL, 180, 183),
    ],
    ids=["interaction_matrix", "interference_decomposition"],
)
def test_warm_calls_still_log_each_exclusion(call, caplog):
    c6_pair(MODEL, 180, 183)  # fills the window's sums
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="rydex.vdw"):
        call()
        call()
    logged = [r.getMessage() for r in caplog.records]
    assert len(logged) == 4 and logged[:2] == logged[2:]
    assert all("near-resonant" in m for m in logged)


@pytest.mark.parametrize(
    "call",
    [
        lambda: channel_c6(_degenerate_model(0.0), 50, 50, 1, dn_cutoff=0),
        lambda: interference_decomposition(_degenerate_model(0.0), 50, 50, dn_cutoff=0),
        lambda: critical_radius(_degenerate_model(0.0), 50, 50, dn_cutoff=0),
    ],
    ids=["channel_c6", "interference_decomposition", "critical_radius"],
)
def test_exact_resonance_raises_on_every_call(call):
    for _ in range(2):
        with pytest.raises(SingularChannelError, match="exactly resonant"):
            call()


def test_inside_radius_warning_on_every_call():
    for _ in range(2):
        with pytest.warns(UserWarning, match="inside the critical radius"):
            interaction_matrix(MODEL, 73, 75, 5.0)


def test_cached_reductions_refuse_writes():
    window = _pair_terms(MODEL, 180, 183, 10)
    assert (~window.keep).sum() == 2  # two near-resonant terms dropped
    for array in (window.keep, window.sums, *window.blocks):
        with pytest.raises(ValueError, match="read-only"):
            array[1, 1] = 0
    channel_sums = c6_pair(MODEL, 180, 183).channel_sums
    assert channel_sums == tuple(window.sums[0].tolist())
    assert [type(x) for x in channel_sums] == [float] * 4


# --- cut windows and the level table -------------------------------------------

def _window_bits(window):
    """Every array of ``window`` and of its reductions, as (name, dtype, shape, bytes)."""
    parts = window.decomposition
    arrays = [(name, getattr(window, name)) for name in WINDOW_ARRAYS]
    arrays += [("sums", window.sums), *(("block", b) for b in window.blocks)]
    arrays += [(name, getattr(parts, name)) for name in parts._fields]
    radius = tuple(x.hex() if isinstance(x, float) else x
                   for x in window.critical_radius)
    exclusions = tuple(tuple(x.hex() if isinstance(x, float) else x for x in row)
                       for row in window.exclusions)
    return ([(n, a.dtype, a.shape, a.tobytes()) for n, a in arrays],
            (window.n_a, window.n_b, window.dn_cutoff), radius, exclusions)


@pytest.mark.parametrize(
    "n_a,n_b,dns",
    [
        (14, 15, (10, *range(10))),  # the dn-10 window reaches the p floor, n = 4
        (487, 490, (10, 0, 3, 9, 1)),  # the dn-10 window tops out at n = 500
        (100, 100, tuple(range(1, 21))),  # Table II, rising: every window a build
        (100, 100, tuple(range(20, 0, -1))),  # falling: each cut from the one before
        *((a, b, (10, 3)) for a, b, _, _ in REFERENCE_TABLE_I),
        *((a, b, (3, 10, 2)) for a, b, _, _ in REFERENCE_TABLE_I),
    ],
)
def test_cut_window_is_bit_equal_to_a_cold_build(n_a, n_b, dns):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # (14, 15) is marginal below n_eff 10
        _pair_windows.cache_clear()
        served = {dn: _pair_terms(MODEL, n_a, n_b, dn) for dn in dns}
        assert set(_pair_windows(MODEL, n_a, n_b)) == set(dns)
        for dn, window in served.items():
            assert _window_bits(window) == _window_bits(_build_window(MODEL, n_a, n_b, dn))


def test_cut_computes_no_level_or_radial_element(monkeypatch):
    _pair_windows.cache_clear()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _pair_terms(MODEL, 20, 22, 10)  # reaches n = 10: its build warns marginal
        assert caught and all("marginal" in str(w.message) for w in caught)
        caught.clear()
        before = radial._kaulakys.cache_info()
        monkeypatch.setattr(vdw, "_rydberg_ritz", None)  # a level computed would raise
        for dn in (3, 0, 9):
            _pair_terms(MODEL, 20, 22, dn)
        assert radial._kaulakys.cache_info() == before
        assert caught == []


def test_series_table_matches_rydberg_ritz():
    levels = _p_levels(MODEL)
    assert [lowest for lowest, _, _ in levels.values()] == [4, 4]  # Rb-87 p_1/2, p_3/2
    for j, (lowest, nus, energies) in levels.items():
        assert len(nus) == len(energies) == vdw.MAX_PRINCIPAL_N - lowest + 1
        _, ends_nu, ends_e = _rydberg_ritz(MODEL, 1, j, (lowest, vdw.MAX_PRINCIPAL_N))
        assert [nus[0], nus[-1]] == ends_nu and [energies[0], energies[-1]] == ends_e


# --- spacing-resolved quantities --------------------------------------------

def test_interaction_matrix_frozen_73_75():
    with pytest.warns(UserWarning, match="critical radius"):
        im = interaction_matrix(MODEL, 73, 75, 5.0)
    im = interaction_matrix(MODEL, 73, 75, 15.0)
    assert im.v1_khz[0, 0] == pytest.approx(534.6498677117698, rel=1e-12)
    assert im.vs_khz == pytest.approx(358.0550061802092, rel=1e-12)
    assert im.vc_khz == pytest.approx(-353.18972306312133, rel=1e-12)
    assert im.v2_khz[0, 0] == pytest.approx(17.103725099528866, rel=1e-12)
    # parallel-spin corners are equal and the middle block is symmetric
    assert im.v1_khz[0, 0] == im.v1_khz[3, 3]
    assert im.v1_khz[1, 2] == im.v1_khz[2, 1]
    assert im.v1_khz[1, 1] == im.v1_khz[2, 2]


def test_interaction_matrix_frozen_97_100():
    im = interaction_matrix(MODEL, 97, 100, 26.0)
    assert im.v1_khz[0, 0] == pytest.approx(-288.5544117644815, rel=1e-12)
    assert im.vs_khz == pytest.approx(-193.4319961038944, rel=1e-12)
    assert im.vc_khz == pytest.approx(190.2448313211742, rel=1e-12)
    assert im.v2_khz[0, 0] == pytest.approx(-1.7375938351659128, rel=1e-12)


def test_interaction_matrix_compares_and_hashes_by_identity():
    # its ndarray fields have no truth value, so == and hash() must not reach them
    a, b = (interaction_matrix(MODEL, 73, 75, 15.0) for _ in range(2))
    assert a == a and a != b
    assert len({a, a, b}) == 2


def _array_records():
    """One of each array record: an interaction matrix, a decomposition and a window."""
    return (interaction_matrix(MODEL, 73, 75, 15.0), interference_decomposition(MODEL, 73, 75),
            _pair_terms(MODEL, 73, 75, 3))


@pytest.mark.parametrize("index", range(3),
                         ids=["InteractionMatrix", "InterferenceDecomposition", "_Window"])
def test_array_records_are_read_only_and_pickle_and_copy(index):
    """Each field, and any other name, refuses assignment and deletion as a frozen
    dataclass does; ``pickle`` and ``copy.copy`` give a read-only record of the same
    class with the same fields."""
    record = _array_records()[index]
    first = record._fields[0]
    frozen = dataclasses.FrozenInstanceError
    for name in (first, "extra"):
        with pytest.raises(frozen, match=f"^cannot assign to field '{name}'$"):
            setattr(record, name, 0)
    with pytest.raises(frozen, match=f"^cannot delete field '{first}'$"):
        delattr(record, first)
    for twin in (pickle.loads(pickle.dumps(record)), copy.copy(record)):
        assert type(twin) is type(record) and twin is not record and twin != record
        for name in record._fields:
            a, b = getattr(twin, name), getattr(record, name)
            assert a.tobytes() == b.tobytes() if isinstance(a, np.ndarray) else a == b
        with pytest.raises(frozen):
            setattr(twin, first, 0)


def test_public_array_records_repr_names_their_fields():
    """The repr a dataclass gave: the class name and each field as name=repr, in order."""
    matrix, parts, _ = _array_records()
    assert repr(matrix) == (
        f"InteractionMatrix(spacing_um=15.0, v1_khz={matrix.v1_khz!r}, v2_khz={matrix.v2_khz!r}, "
        f"vs_khz={matrix.vs_khz!r}, vc_khz={matrix.vc_khz!r})")
    assert InterferenceDecomposition._fields == ChannelContribution._fields
    columns = ", ".join(f"{name}={getattr(parts, name)!r}" for name in ChannelContribution._fields)
    assert repr(parts) == f"InterferenceDecomposition({columns})"


def test_interaction_matrix_validation():
    with pytest.raises(ValueError, match="spacing must be finite and > 0, got -1.0"):
        interaction_matrix(MODEL, 73, 75, -1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"spacing must be finite and > 0, got {bad}"):
            interaction_matrix(MODEL, 73, 75, bad)
    with pytest.raises(ValueError, match="distinct principal"):
        interaction_matrix(MODEL, 73, 73, 15.0)


def test_spacing_outside_float_range_is_named():
    # L^6 overflows at 1e308 and underflows to zero at 1e-300; 1/L^6 is
    # infinite at 1e-60
    pair = c6_pair(MODEL, 73, 75)
    for bad in (1e308, 1e-300, 1e-60):
        message = re.escape(f"spacing {bad} um puts 1/L^6 outside the float range")
        with pytest.raises(ValueError, match=message):
            interaction_matrix(MODEL, 73, 75, bad)
        with pytest.raises(ValueError, match=message):
            v_plus_minus(pair, bad)
    # 1/L^6 = 1e306 is finite, but the couplings it scales are not
    message = "spacing 1e-50 um puts the couplings outside the float range"
    with pytest.raises(ValueError, match=message):
        interaction_matrix(MODEL, 73, 75, 1e-50)
    with pytest.raises(ValueError, match=message):
        v_plus_minus(pair, 1e-50)
    # C6 and C6ex scale to finite kHz, but V- = vs - vc does not
    message = re.escape("spacing 1.7340741900686617e-50 um puts the couplings outside")
    with pytest.raises(ValueError, match=message):
        v_plus_minus(pair, 1.7340741900686617e-50)


def test_bool_spacing_is_refused_by_name():
    # True would otherwise be 1 um and give couplings of about 4e9 kHz
    pair = c6_pair(MODEL, 73, 75)
    for bad in (True, False):
        with pytest.raises(ValueError, match=f"spacing must be a number, got {bad}"):
            v_plus_minus(pair, bad)
        with pytest.raises(ValueError, match=f"spacing must be a number, got {bad}"):
            interaction_matrix(MODEL, 73, 75, bad)


def test_v_plus_minus_frozen():
    vp = v_plus_minus(c6_pair(MODEL, 73, 75), 15.0)
    assert vp.v_plus_khz == pytest.approx(4.86528311708787, rel=1e-12)
    assert vp.v_minus_khz == pytest.approx(711.2447292433305, rel=1e-12)
    vp97 = v_plus_minus(c6_pair(MODEL, 97, 100), 26.0)
    assert vp97.v_plus_khz == pytest.approx(-3.1871647827202025, rel=1e-12)
    assert vp97.v_minus_khz == pytest.approx(-383.6768274250686, rel=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("field", ["c6", "c6_exchange"])
def test_v_plus_minus_refuses_a_non_finite_coefficient_by_name(field, bad):
    # a hand-built pair: its nan used to be blamed on the spacing
    pair = C6Pair(73, 75, 10, 4078.0, -1.0, (0.0,) * 4)
    with pytest.raises(ValueError, match=re.escape(f"{field} must be finite, got {bad}")):
        v_plus_minus(dataclasses.replace(pair, **{field: bad}), 15.0)
    # a numpy coefficient overflows as quietly as a Python float
    for c6 in (4078.0, np.float64(4078.0)):
        with pytest.raises(ValueError, match="spacing 1e-50 um puts the couplings outside"):
            v_plus_minus(dataclasses.replace(pair, c6=c6), 1e-50)


def test_v_plus_minus_eigenvectors_and_scaling():
    pair = c6_pair(MODEL, 73, 75)
    vp = v_plus_minus(pair, 15.0)
    # r+- = (|-1/2, +1/2> +- |+1/2, -1/2>)/sqrt 2 diagonalize the middle block at V+-
    middle = interaction_matrix(MODEL, 73, 75, 15.0).v1_khz[1:3, 1:3]
    inv = 1.0 / math.sqrt(2.0)
    for vec, shift in (((inv, inv), vp.v_plus_khz), ((inv, -inv), vp.v_minus_khz)):
        assert middle @ np.array(vec) == pytest.approx(shift * np.array(vec), rel=1e-12)
    double = v_plus_minus(pair, 30.0)
    assert double.v_plus_khz == pytest.approx(vp.v_plus_khz / 64.0, rel=1e-12)
    assert double.v_minus_khz == pytest.approx(vp.v_minus_khz / 64.0, rel=1e-12)
    with pytest.raises(ValueError, match="spacing"):
        v_plus_minus(pair, 0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"spacing must be finite and > 0, got {bad}"):
            v_plus_minus(pair, bad)


def test_critical_radius_frozen():
    cr = critical_radius(MODEL, 73, 75)
    assert cr.radius_um == pytest.approx(6.086205115301881, rel=1e-12)
    assert (cr.channel, cr.ns, cr.nt) == (2, 73, 74)
    assert cr.defect_ghz == pytest.approx(-0.041145898329091324, rel=1e-12)
    assert cr.rrr_ghz_um3 == pytest.approx(29.516429329237734, rel=1e-12)
    cr97 = critical_radius(MODEL, 97, 100)
    assert cr97.radius_um == pytest.approx(9.612346808564736, rel=1e-12)
    assert (cr97.channel, cr97.ns, cr97.nt) == (3, 97, 99)


def test_critical_radius_window_insensitive():
    a = critical_radius(MODEL, 73, 75, dn_cutoff=3)
    b = critical_radius(MODEL, 73, 75, dn_cutoff=5)
    assert a.radius_um == b.radius_um
    assert (a.channel, a.ns, a.nt) == (b.channel, b.ns, b.nt)


# --- interference structure --------------------------------------------------

def _contribution_sums(parts):
    plus = sum(p.c6_plus for p in parts)
    minus = sum(p.c6_minus for p in parts)
    return plus, minus


@pytest.mark.parametrize("pair", [(73, 75), (97, 100)])
def test_decomposition_completeness(pair):
    parts = interference_decomposition(MODEL, *pair, dn_cutoff=10)
    plus, minus = _contribution_sums(parts)
    ref = c6_pair(MODEL, *pair, dn_cutoff=10)
    assert (plus + minus) / 2.0 == pytest.approx(ref.c6, rel=1e-12)
    assert (plus - minus) / 2.0 == pytest.approx(ref.c6_exchange, rel=1e-12)


@pytest.mark.parametrize("pair,dominant_nsnt", [((73, 75), (73, 74)),
                                                ((97, 100), (97, 99))])
def test_decomposition_weight_ratios(pair, dominant_nsnt):
    parts = interference_decomposition(MODEL, *pair)
    by_size = sorted(parts, key=lambda p: abs(p.c6_plus + p.c6_minus),
                     reverse=True)
    # the two strongest contributions are the mixed fine-structure
    # channels of the nearest intermediate pair, with the 1:9 split
    top, second = by_size[0], by_size[1]
    assert {top.channel, second.channel} == {2, 3}
    assert (top.ns, top.nt) == dominant_nsnt
    for p in (top, second):
        assert p.c6_plus / p.c6_minus == pytest.approx(1.0 / 9.0, abs=1e-12)
    # next in line is the stretched channel at 17:9
    third = by_size[2]
    assert third.channel == 1
    assert third.c6_plus / third.c6_minus == pytest.approx(17.0 / 9.0, abs=1e-12)


def test_channel_4_feeds_only_v_plus():
    parts = interference_decomposition(MODEL, 73, 75, dn_cutoff=3)
    ch4 = [p for p in parts if p.channel == 4]
    assert ch4
    assert all(p.c6_minus == 0.0 for p in ch4)
    assert any(p.c6_plus != 0.0 for p in ch4)


def test_decomposition_rows_are_plain_tuples():
    row = interference_decomposition(MODEL, 73, 75)[660]
    frozen = (2, 73, 74, -0.041145898329091324, 522.8126239525762, 4705.313615573186)
    assert row == frozen
    assert (row.channel, row.ns, row.nt) == frozen[:3]
    assert (row.defect_ghz, row.c6_plus, row.c6_minus) == frozen[3:]


def test_decomposition_singular_term_raises():
    with pytest.raises(SingularChannelError):
        interference_decomposition(_degenerate_model(0.0), 50, 50, dn_cutoff=0)


def test_decomposition_columns_are_read_only_and_rows_built_on_read():
    parts = interference_decomposition(MODEL, 73, 75)
    assert len(parts) == int(_pair_terms(MODEL, 73, 75, 10).keep.sum()) == 1764
    for name in ChannelContribution._fields:
        column = getattr(parts, name)
        assert len(column) == len(parts) and not column.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            column[0] = 0
    rows = list(parts)
    assert [parts[i] for i in range(len(parts))] == rows
    assert parts[-1] == rows[-1] and parts[-len(parts)] == rows[0]
    for got in (parts[660], parts[-1], rows[660], rows[-1]):
        assert type(got) is ChannelContribution
        assert [type(x) for x in got] == [int, int, int, float, float, float]
    assert [x.hex() for x in parts[660][3:]] == [x.hex() for x in rows[660][3:]]
    for bad in (len(parts), -len(parts) - 1):
        with pytest.raises(IndexError):
            parts[bad]  # noqa: B018


def test_decomposition_is_cached_per_window_and_still_logs(caplog):
    first = interference_decomposition(MODEL, 180, 183)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="rydex.vdw"):
        assert interference_decomposition(MODEL, 180, 183) is first
    assert len(caplog.records) == 2
    assert all("near-resonant" in r.getMessage() for r in caplog.records)


# --- bit identity with the scalar window walk --------------------------------

def _scalar_terms(model, n_a, n_b, k, dn_cutoff):
    """The term-by-term window walk the vectorized table replaced."""
    j_a, j_b = CHANNEL_FINE_STRUCTURE[k]
    s_a = RydbergLevel(n_a, 0, 0.5)
    s_b = RydbergLevel(n_b, 0, 0.5)
    for da in range(-dn_cutoff, dn_cutoff + 1):
        for db in range(-dn_cutoff, dn_cutoff + 1):
            ns, nt = n_a + da, n_b + db
            p_a = RydbergLevel(ns, 1, j_a)
            p_b = RydbergLevel(nt, 1, j_b)
            defect = (
                level_energy(model, p_a)
                + level_energy(model, p_b)
                - level_energy(model, s_a)
                - level_energy(model, s_b)
            )
            rr = rrr_coefficient(model, (s_a, s_b), (p_a, p_b))
            rr_cross = rrr_coefficient(model, (s_b, s_a), (p_a, p_b))
            yield ns, nt, defect, rr, rr_cross


def _scalar_sum(terms, exchange):
    total = 0.0
    for _, _, defect, rr, rr_cross in terms:
        if abs(defect) >= NEAR_RESONANCE_GHZ:
            total += -rr * (rr_cross if exchange else rr) / defect
    return total


def _scalar_block(sums):
    m = np.zeros((4, 4))
    for k, s in sums.items():
        m += s * _D_MATRICES[k]
    return m


# Table I's pairs, the window floor (where the marginal warning fires) and a
# reversed atom order
@pytest.mark.parametrize(
    "n_a,n_b", [row[:2] for row in REFERENCE_TABLE_I] + [(14, 15), (75, 73)]
)
def test_vectorized_window_bit_identical_to_scalar_walk(n_a, n_b):
    if (n_a, n_b) == (14, 15):  # p levels below n_eff = 10
        with pytest.warns(UserWarning, match="marginal"):
            _assert_window_matches_scalar_walk(n_a, n_b)
    else:
        _assert_window_matches_scalar_walk(n_a, n_b)


def _assert_window_matches_scalar_walk(n_a, n_b):
    wide = {k: list(_scalar_terms(MODEL, n_a, n_b, k, 10)) for k in (1, 2, 3, 4)}
    direct = {k: _scalar_sum(t, False) for k, t in wide.items()}
    cross = {k: _scalar_sum(t, True) for k, t in wide.items()}

    pair = c6_pair(MODEL, n_a, n_b)
    assert pair.channel_sums == tuple(direct[k] for k in (1, 2, 3, 4))
    assert pair.c6 == sum(direct[k] * _D_MATRICES[k][1, 1] for k in direct)
    assert pair.c6_exchange == sum(direct[k] * _D_MATRICES[k][1, 2] for k in direct)
    assert _pair_terms(MODEL, n_a, n_b, 10).sums[1].tolist() == list(cross.values())

    cr = critical_radius(MODEL, n_a, n_b)
    spacing = 2.0 * cr.radius_um
    im = interaction_matrix(MODEL, n_a, n_b, spacing)
    v1, v2 = _khz_per_ghz_um6(spacing, _scalar_block(direct), _scalar_block(cross))
    assert np.array_equal(im.v1_khz, v1)
    assert np.array_equal(im.v2_khz, v2)

    rows = [
        (k, ns, nt, defect, rr)
        for k in (1, 2, 3, 4)
        for ns, nt, defect, rr, _ in _scalar_terms(MODEL, n_a, n_b, k, 3)
    ]
    floor = 0.01 * max(abs(r[4]) for r in rows)
    k, ns, nt, defect, rr = sorted(
        (r for r in rows if abs(r[4]) >= floor), key=lambda r: (abs(r[3]), -abs(r[4]))
    )[0]
    mmax = float(np.abs(_M_MATRICES[k]).max())
    assert (cr.channel, cr.ns, cr.nt) == (k, ns, nt)
    assert (cr.defect_ghz, cr.rrr_ghz_um3, cr.max_coupling) == (defect, rr, mmax)
    assert cr.radius_um == (mmax * abs(rr) / abs(defect)) ** (1.0 / 3.0)

    expected = []
    for k, terms in wide.items():
        d_diag, d_off = _D_MATRICES[k][1, 1], _D_MATRICES[k][1, 2]
        for ns, nt, defect, rr, _ in terms:
            if abs(defect) >= NEAR_RESONANCE_GHZ:
                term = -rr * rr / defect
                expected.append(
                    ChannelContribution(
                        channel=k,
                        ns=ns,
                        nt=nt,
                        defect_ghz=defect,
                        c6_plus=float(term * (d_diag + d_off)),
                        c6_minus=float(term * (d_diag - d_off)),
                    )
                )
    parts = interference_decomposition(MODEL, n_a, n_b)
    assert tuple(parts) == tuple(expected)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(n_a=st.integers(40, 130), dn=st.integers(1, 3))
def test_c6_pair_is_symmetric_under_atom_exchange(n_a, dn):
    """c6_pair(a, b) is c6_pair(b, a) with the (j_a, j_b) channels mirrored, up to
    the rounding of the energy defects: each is summed ((E_pa + E_pb) - E_sa) - E_sb,
    so swapping the atoms moves a defect by about eps |E_s|, and a term by that over
    its |defect|. The gap is held to 4 eps |E_s| / min |defect| of the largest channel
    sum, 1e-13 to 1e-11 relative; it reaches 7e-12 at (82, 85)."""
    n_b = n_a + dn
    ab, ba = c6_pair(MODEL, n_a, n_b), c6_pair(MODEL, n_b, n_a)
    defects = np.abs(_pair_terms(MODEL, n_a, n_b, ab.dn_cutoff).defect)
    e_s = abs(level_energy(MODEL, RydbergLevel(n_a, 0, 0.5)))
    cond = e_s / defects[defects >= NEAR_RESONANCE_GHZ].min()
    tol = 4.0 * np.finfo(float).eps * cond * max(map(abs, ab.channel_sums))
    channels = list(CHANNEL_FINE_STRUCTURE.values())
    mirrored = [ba.channel_sums[channels.index(js[::-1])] for js in channels]
    assert np.abs(np.subtract(ab.channel_sums, mirrored)).max() <= tol
    assert abs(ab.c6 - ba.c6) <= tol
    assert abs(ab.c6_exchange - ba.c6_exchange) <= tol


# n_a = 40..481 and d = 1..3: every 7th n_a up to 200 (radial table), every 28th
# above (live mpmath elements), the benchmark pairs reaching only n = 133
DOMAIN_PAIRS = [(n_a, n_a + d) for n_a in (*range(40, 201, 7), *range(208, 482, 28), 481)
                for d in (1, 2, 3)]


def test_vdw_invariants_across_the_domain():
    for n_a, n_b in DOMAIN_PAIRS:
        pair = c6_pair(MODEL, n_a, n_b)
        spacing = 2.0 * critical_radius(MODEL, n_a, n_b).radius_um
        v = v_plus_minus(pair, spacing)
        assert (v.v_plus_khz, v.v_minus_khz) == interaction_matrix(
            MODEL, n_a, n_b, spacing).v_plus_minus_khz
        assert 64.0 * v_plus_minus(pair, 2.0 * spacing).v_plus_khz == v.v_plus_khz
        # a row adds its own term, c6_pair weights each channel's sum: rounding apart
        parts = interference_decomposition(MODEL, n_a, n_b)
        for column, value in ((parts.c6_plus, pair.c6 + pair.c6_exchange),
                              (parts.c6_minus, pair.c6 - pair.c6_exchange)):
            assert math.fsum(column.tolist()) == pytest.approx(value, rel=3e-14, abs=0.0)
