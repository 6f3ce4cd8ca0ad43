"""Pulse matrices, propagation, and the pulse-2 closed form."""

import math
import re

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from rydex.dynamics import (
    CHANNELS,
    PRODUCT_BASIS_8,
    HamiltonianMatrix,
    PulseSpec,
    QuantumState,
    _SECTOR_LINKS,
    _eigen_coefficients,
    _evolve,
    _pulse2_matrices,
    _pulse3_matrices,
    _sector_matrices,
    build_blocked2,
    build_full8,
    build_swap_2pi,
    propagate,
    propagate_sampled,
    pulse2_analytics,
    tau2_approximate,
)

from sector_reference import SUPERPOSITION_BASIS_8, relabeling_matrix

SQRT2 = math.sqrt(2.0)


def _pulse2(omega, v_plus, v_minus):
    """The pulse-2 matrix on (|Uu>, |r+>, |r->) as ``propagate`` takes it."""
    return HamiltonianMatrix(basis=("Uu", "r+", "r-"),
                             matrix=_pulse2_matrices(omega, v_plus, v_minus))


def _pulse3(omega, v_plus):
    """The pulse-3 matrix on (|r+>, |e_up+>, |e_dn+>, |g+>) as ``propagate`` takes it."""
    return HamiltonianMatrix(basis=("r+", "e_up+", "e_dn+", "g+"),
                             matrix=_pulse3_matrices(omega, v_plus))


def _random_pulse(rng):
    return PulseSpec(
        omega_dU_A=rng.uniform(0.0, 200.0),
        omega_uD_A=rng.uniform(0.0, 200.0),
        omega_dU_B=rng.uniform(0.0, 200.0),
        omega_uD_B=rng.uniform(0.0, 200.0),
        phi_dU_A=rng.uniform(-np.pi, np.pi),
        phi_uD_A=rng.uniform(-np.pi, np.pi),
        phi_dU_B=rng.uniform(-np.pi, np.pi),
        phi_uD_B=rng.uniform(-np.pi, np.pi),
        duration_us=rng.uniform(0.0, 20.0),
    )


def _random_state(rng, basis):
    v = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    v /= np.linalg.norm(v)
    return QuantumState(basis=basis, amplitudes=v)


# --- input validation ---------------------------------------------------------

def test_pulse_spec_validation():
    with pytest.raises(ValueError, match="duration"):
        PulseSpec(duration_us=-1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="duration_us must be finite and >= 0"):
            PulseSpec(duration_us=bad)


@pytest.mark.parametrize("name", [f"{kind}_{c}" for kind in ("omega", "phi") for c in CHANNELS])
def test_pulse_spec_checks_every_drive_and_phase_by_name(name):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"{name} must be finite, got {bad}"):
            PulseSpec(duration_us=1.0, **{name: bad})
    with pytest.raises(ValueError, match=f"{name} must be a number, got True"):
        PulseSpec(duration_us=1.0, **{name: True})


@pytest.mark.parametrize(
    "call,message",
    [
        # an infinite phase used to fail in math.cos with "math domain error"
        (lambda: build_swap_2pi(100.0, math.inf, 5.0, 711.0), "phi must be finite, got inf"),
        (lambda: build_blocked2(100.0, -math.inf, 500.0), "phi must be finite, got -inf"),
        # a nan drive used to end in "pulse matrix has non-finite entries"
        (lambda: build_swap_2pi(math.nan, 0.0, 5.0, 711.0), "omega must be finite, got nan"),
        (lambda: build_swap_2pi(100.0, 0.0, 5.0, math.inf), "v_minus must be finite, got inf"),
        (lambda: build_blocked2(100.0, 0.0, math.nan), "v_blockade must be finite, got nan"),
        (lambda: build_blocked2(True, 0.0, 500.0), "omega must be a number, got True"),
    ],
)
def test_pulse_builders_name_a_bad_argument(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_pulse_spec_masked_amplitude():
    p = PulseSpec(omega_uD_B=50.0, phi_uD_B=0.5)
    assert p.amplitude("uD_B") == pytest.approx(
        50.0 * complex(math.cos(0.5), math.sin(0.5))
    )
    assert p.amplitude("dU_A") == 0.0j
    with pytest.raises(ValueError, match="unknown channel"):
        p.amplitude("uD")


def test_quantum_state_validation():
    with pytest.raises(ValueError, match="shape"):
        QuantumState(basis=("a", "b"), amplitudes=np.ones(3, dtype=complex))
    with pytest.raises(ValueError, match="norm"):
        QuantumState(basis=("a", "b"), amplitudes=np.array([1.0, 1.0]))
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="norm"):
            QuantumState(basis=("a", "b"), amplitudes=np.array([bad, 0.0]))
    st = QuantumState.from_label(PRODUCT_BASIS_8, "Uu")
    assert st.population("Uu") == 1.0
    assert float(np.sum(np.abs(st.amplitudes) ** 2)) == 1.0


def test_an_unknown_label_is_refused_with_its_basis():
    """``from_label``, ``amplitude`` and ``population`` name a label the basis lacks."""
    basis = ("a", "b")
    state = QuantumState.from_label(basis, "b")
    message = re.escape("label 'z' is not in the basis ('a', 'b')")
    for call in (lambda: QuantumState.from_label(basis, "z"), lambda: state.amplitude("z"),
                 lambda: state.population("z")):
        with pytest.raises(ValueError, match=message):
            call()


def test_hamiltonian_validation():
    with pytest.raises(ValueError, match="shape"):
        HamiltonianMatrix(basis=("a",), matrix=np.zeros((2, 2)))
    with pytest.raises(ValueError, match="not Hermitian"):
        HamiltonianMatrix(basis=("a", "b"),
                          matrix=np.array([[0.0, 1.0], [0.0, 0.0]]))
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="non-finite entries"):
            HamiltonianMatrix(basis=("a", "b"),
                              matrix=np.array([[0.0, bad], [bad, 0.0]]))


# --- builders -----------------------------------------------------------------

def test_build_pulse2_structure():
    h = _pulse2(50.0, 4.0, 700.0)
    o1 = 50.0 / (2.0 * SQRT2)
    want = np.array([[0, o1, o1], [o1, 4.0, 0], [o1, 0, 700.0]], dtype=complex)
    assert h.basis == ("Uu", "r+", "r-")
    assert np.array_equal(h.matrix, want)


def test_build_pulse3_structure():
    h = _pulse3(128.0, 5.0)
    assert h.basis == ("r+", "e_up+", "e_dn+", "g+")
    assert h.matrix[0, 0] == 5.0
    assert h.matrix[0, 1] == h.matrix[0, 2] == 64.0
    assert h.matrix[3, 1] == h.matrix[3, 2] == 64.0
    assert h.matrix[0, 3] == 0.0


def test_build_blocked2_structure():
    h = build_blocked2(80.0, 0.7, 500.0)
    assert h.matrix[0, 1] == pytest.approx(
        40.0 * complex(math.cos(0.7), math.sin(0.7))
    )
    assert h.matrix[1, 1] == 500.0


def test_build_swap_2pi_structure():
    h = build_swap_2pi(89.0, 0.3, 5.0, 711.0)
    c = 89.0 / (2.0 * SQRT2) * complex(math.cos(0.3), math.sin(0.3))
    assert h.basis == ("uU", "dD", "r+", "r-")
    assert h.matrix[0, 2] == pytest.approx(c)
    assert h.matrix[0, 3] == pytest.approx(-c)
    assert h.matrix[1, 2] == pytest.approx(c)
    assert h.matrix[1, 3] == pytest.approx(c)
    assert h.matrix[2, 2] == 5.0
    assert h.matrix[3, 3] == 711.0
    assert h.matrix[0, 1] == 0.0


def test_full8_one_photon_topology():
    pulse = PulseSpec(omega_dU_A=10.0, omega_uD_A=20.0, omega_dU_B=30.0,
                      omega_uD_B=40.0)
    h = build_full8(pulse, 100.0, -90.0).matrix
    i = PRODUCT_BASIS_8.index
    assert h[i("du"), i("dD")] == 20.0  # uD_B / 2
    assert h[i("du"), i("Uu")] == 5.0   # dU_A / 2
    assert h[i("ud"), i("uU")] == 15.0  # dU_B / 2
    assert h[i("ud"), i("Dd")] == 10.0  # uD_A / 2
    assert h[i("DU"), i("DU")] == 100.0
    assert h[i("DU"), i("UD")] == -90.0
    # no direct two-photon shortcuts between the ground pair states
    assert h[i("du"), i("ud")] == 0.0
    assert h[i("du"), i("UD")] == 0.0


def test_relabeling_matrix_unitary():
    rng = np.random.default_rng(7)
    for _ in range(20):
        r = relabeling_matrix(*rng.uniform(-np.pi, np.pi, 4))
        assert np.abs(r @ r.conj().T - np.eye(8)).max() < 1e-12


def test_relabeling_zero_phase_rows():
    r = relabeling_matrix()
    i = PRODUCT_BASIS_8.index
    g_plus = r[SUPERPOSITION_BASIS_8.index("g+")]
    assert g_plus[i("du")] == pytest.approx(1.0 / SQRT2)
    assert g_plus[i("ud")] == pytest.approx(1.0 / SQRT2)
    r_minus = r[SUPERPOSITION_BASIS_8.index("r-")]
    assert r_minus[i("UD")] == pytest.approx(1.0 / SQRT2)
    assert r_minus[i("DU")] == pytest.approx(-1.0 / SQRT2)


def test_full8_relabels_to_pulse3_blocks():
    # with all four channels driven equally the transformed matrix is
    # block diagonal: a 4x4 chain in the + sector matching the pulse-3 matrix,
    # the mirrored chain in the - sector, and no cross coupling
    omega, v_plus, v_minus = 128.0, 5.0, 711.0
    pulse = PulseSpec(omega_dU_A=omega, omega_uD_A=omega,
                      omega_dU_B=omega, omega_uD_B=omega)
    h8 = build_full8(pulse, (v_plus + v_minus) / 2.0,
                     (v_plus - v_minus) / 2.0).matrix
    r = relabeling_matrix()
    hs = r @ h8 @ r.conj().T
    plus = [SUPERPOSITION_BASIS_8.index(b) for b in ("r+", "e_up+", "e_dn+", "g+")]
    minus = [SUPERPOSITION_BASIS_8.index(b) for b in ("r-", "e_up-", "e_dn-", "g-")]
    assert np.abs(hs[np.ix_(plus, minus)]).max() < 1e-12
    want = _pulse3(omega, v_plus).matrix
    assert np.abs(hs[np.ix_(plus, plus)] - want).max() < 1e-12
    assert hs[minus[0], minus[0]] == pytest.approx(v_minus)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(
    omega=st.floats(0.0, 1e3),
    phase_a=st.floats(-100.0, 100.0),
    phase_b=st.floats(-100.0, 100.0),
    v_s=st.floats(-1e3, 1e3),
    v_c=st.floats(-1e3, 1e3),
)
def test_sector_decoupling_with_paired_phases(omega, phase_a, phase_b, v_s, v_c):
    # one phase per atom, any phases, keeps the dressed +/- sectors decoupled
    phases = (phase_a, phase_a, phase_b, phase_b)
    pulse = PulseSpec(**{f"omega_{c}": omega for c in CHANNELS},
                      **{f"phi_{c}": p for c, p in zip(CHANNELS, phases)})
    r = relabeling_matrix(*phases)
    hs = r @ build_full8(pulse, v_s, v_c).matrix @ r.conj().T
    assert np.abs(hs[:4, 4:]).max() < 1e-10


def test_pulse2_embedding_matches_3x3():
    # the single-channel 8x8 drive restricted to (Uu, UD, DU)
    # reproduces the 3x3 system in the Bell combination basis
    omega, v_plus, v_minus = 59.0, 5.0, 711.0
    pulse = PulseSpec(omega_uD_B=omega)
    h8 = build_full8(pulse, (v_plus + v_minus) / 2.0,
                     (v_plus - v_minus) / 2.0).matrix
    i = PRODUCT_BASIS_8.index
    idx = [i("Uu"), i("UD"), i("DU")]
    t = np.array([[1.0, 0.0, 0.0],
                  [0.0, 1.0 / SQRT2, 1.0 / SQRT2],
                  [0.0, 1.0 / SQRT2, -1.0 / SQRT2]])
    small = t @ h8[np.ix_(idx, idx)] @ t.T
    want = _pulse2(omega, v_plus, v_minus).matrix
    assert np.abs(small - want).max() < 1e-12


# --- propagation --------------------------------------------------------------

def test_propagate_against_expm():
    rng = np.random.default_rng(4)
    for _ in range(30):
        a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        hmat = (a + a.conj().T) * 10.0
        h = HamiltonianMatrix(basis=PRODUCT_BASIS_8, matrix=hmat)
        state = _random_state(rng, PRODUCT_BASIS_8)
        t = float(rng.uniform(0.1, 20.0))
        got = propagate(state, h, t).amplitudes
        ref = scipy.linalg.expm(-2j * np.pi * hmat * t * 1e-3) @ state.amplitudes
        assert np.abs(got - ref).max() < 1e-10


def test_propagate_basis_mismatch():
    h = _pulse2(50.0, 4.0, 700.0)
    st = QuantumState.from_label(PRODUCT_BASIS_8, "Uu")
    with pytest.raises(ValueError, match="does not match"):
        propagate(st, h, 1.0)


def test_propagate_zero_time_is_identity():
    rng = np.random.default_rng(9)
    st = _random_state(rng, ("Uu", "r+", "r-"))
    out = propagate(st, _pulse2(50.0, 4.0, 700.0), 0.0)
    assert np.abs(out.amplitudes - st.amplitudes).max() < 1e-15


def test_propagate_sampled_endpoints():
    h = _pulse2(59.0, 5.0, 711.0)
    st = QuantumState.from_label(("Uu", "r+", "r-"), "Uu")
    times, amps = propagate_sampled(st, h, 12.0, 57)
    assert times.shape == (57,)
    assert amps.shape == (57, 3)
    assert times[0] == 0.0 and times[-1] == 12.0
    assert np.abs(amps[0] - st.amplitudes).max() < 1e-15
    end = propagate(st, h, 12.0).amplitudes
    assert np.abs(amps[-1] - end).max() < 1e-12
    norms = (np.abs(amps) ** 2).sum(axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_propagate_sampled_validation():
    h = _pulse2(59.0, 5.0, 711.0)
    st = QuantumState.from_label(("Uu", "r+", "r-"), "Uu")
    message = f"n_samples must be in [2, {np.iinfo(np.intp).max // (16 * 3)}], got 1"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        propagate_sampled(st, h, 1.0, 1)
    with pytest.raises(ValueError, match="does not match"):
        propagate_sampled(QuantumState.from_label(PRODUCT_BASIS_8, "Uu"), h, 1.0, 8)


def test_propagation_rejects_an_overflowing_phase():
    # 2 pi * 711 kHz * 1e308 us is not a float; 1e300 us still is
    h = _pulse2(59.0, 5.0, 711.0)
    st = QuantumState.from_label(("Uu", "r+", "r-"), "Uu")
    with pytest.raises(ValueError, match="pulse duration 1e\\+308 us overflows"):
        propagate(st, h, 1e308)
    with pytest.raises(ValueError, match="pulse duration 1e\\+308 us overflows"):
        propagate_sampled(st, h, 1e308, 3)
    assert propagate(st, h, 1e300).basis == st.basis


def test_stacked_eigensolve_is_the_per_matrix_one():
    """A stack of matrices gives, row for row, the bits of one call per matrix:
    real stacks as the pulse-3 kernel builds them, and complex ones, with one
    duration for all or one per matrix, each checked for overflow."""
    rng = np.random.default_rng(17)
    for b in (1, 5, 40):
        om = rng.uniform(-200.0, 200.0, (b, 4))
        phased = om * np.exp(1j * rng.uniform(-np.pi, np.pi, (b, 4)))
        psi = _random_state(rng, PRODUCT_BASIS_8).amplitudes
        for amps in (om, phased):
            h = _sector_matrices(amps, rng.uniform(-1000, 1000), rng.uniform(-1000, 1000))
            for t in (float(rng.uniform(-20.0, 20.0)), rng.uniform(-20.0, 20.0, b)):
                stacked = _eigen_coefficients(h, psi, t)
                for i in range(b):
                    single = _eigen_coefficients(h[i], psi, np.broadcast_to(t, b)[i])
                    assert all(np.array_equal(s[i], o) for s, o in zip(stacked, single))
    with pytest.raises(ValueError, match="pulse duration 1e\\+308 us overflows"):
        _eigen_coefficients(h, psi, 1e308)
    with pytest.raises(ValueError, match="pulse duration 1e\\+308 us overflows"):
        _eigen_coefficients(h, psi, np.where(np.arange(b) == 7, 1e308, 1.0))


def test_overflow_bound_falls_back_to_the_per_matrix_check():
    """2 pi max|w| max|t| overflows for a stack whose large spectrum and long
    duration sit on different matrices: each matrix's own phase is finite, so the
    stack is solved, row for row as alone; a phase that overflows is still named."""
    h = np.array([np.diag([1e300, 0.0]), np.diag([1.0, -1.0])])
    psi = np.array([1.0, 0.0])
    t = np.array([1e-3, 1e300])
    stacked = _eigen_coefficients(h, psi, t)
    for i in range(2):
        single = _eigen_coefficients(h[i], psi, t[i])
        assert all(np.array_equal(s[i], o) for s, o in zip(stacked, single))
    with pytest.raises(ValueError, match="eigenvalue 1e\\+308 kHz of H overflows"):
        _eigen_coefficients(h * 1e8, psi, t)
    with pytest.raises(ValueError, match="pulse duration 1e\\+300 us overflows"):
        _eigen_coefficients(h, psi, t[::-1])
    assert [len(x) for x in _eigen_coefficients(h[:0], psi, t[:0])] == [0, 0, 0]


def test_stacked_evolve_is_the_per_matrix_one():
    """Each row of a stacked ``_evolve`` has the bits of its matrix evolved alone,
    with one duration for the stack or one per row: the lockstep optimizer and the
    pulse-3 eigh fallback's chunk invariance rest on it."""
    rng = np.random.default_rng(29)
    for b in (1, 2, 7, 64, 300):
        h = _sector_matrices(rng.uniform(-200.0, 200.0, (b, 4)),
                             rng.uniform(-1000, 1000), rng.uniform(-1000, 1000))
        psi = _random_state(rng, PRODUCT_BASIS_8).amplitudes
        for t in (float(rng.uniform(-20.0, 20.0)), rng.uniform(-20.0, 20.0, b)):
            stacked = _evolve(h, psi, t)
            for i in range(b):
                assert np.array_equal(stacked[i], _evolve(h[i], psi, np.broadcast_to(t, b)[i]))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 8),
    scale=st.floats(1e-3, 1e4),
    t_us=st.floats(0.0, 1e3),
)
def test_propagate_preserves_the_norm(seed, n, scale, t_us):
    """|exp(-2 pi i H t) psi| = 1 for a Hermitian H of any size, scale and duration."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    basis = tuple(str(i) for i in range(n))
    h = HamiltonianMatrix(basis=basis, matrix=scale * (a + a.conj().T))
    out = propagate(_random_state(rng, basis), h, t_us)
    assert abs(float(np.sum(np.abs(out.amplitudes) ** 2)) - 1.0) < 1e-12


def test_unitarity_over_random_pulses():
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(100):
        pulse = _random_pulse(rng)
        h = build_full8(pulse, rng.uniform(-1000, 1000), rng.uniform(-1000, 1000))
        st = _random_state(rng, PRODUCT_BASIS_8)
        out = propagate(st, h, pulse.duration_us)
        worst = max(worst, abs(float(np.sum(np.abs(out.amplitudes) ** 2)) - 1.0))
    assert worst < 1e-12


# --- closed forms --------------------------------------------------------------

def test_pulse2_analytics_frozen():
    an = pulse2_analytics(59.62378247605847, 5.0, 711.0)
    assert an.tau2_us == pytest.approx(11.952978327824477, rel=1e-12)
    assert an.peak_amplitude == pytest.approx(1.0078842385917233, rel=1e-12)


def test_pulse2_analytics_against_quadratic_correction():
    omega, v_plus = 59.62378247605847, 5.0
    an = pulse2_analytics(omega, v_plus, 711.0)
    assert an.peak_amplitude == pytest.approx(
        1.0 - (v_plus / omega) ** 2, abs=0.02
    )


def test_pulse2_analytics_against_propagation():
    # deep blockade: closed form and full propagation agree closely
    omega, v_plus, v_minus = 10.0, 50.0, 50000.0
    an = pulse2_analytics(omega, v_plus, v_minus)
    h = _pulse2(omega, v_plus, v_minus)
    st = QuantumState.from_label(("Uu", "r+", "r-"), "Uu")
    peak = propagate(st, h, an.tau2_us).population("r+")
    assert peak == pytest.approx(an.peak_amplitude**2, abs=1e-3)


def test_pulse2_analytics_validation():
    with pytest.raises(ValueError, match="nonzero V-"):
        pulse2_analytics(59.0, 5.0, 0.0)
    with pytest.warns(UserWarning, match="marginal"):
        pulse2_analytics(59.0, 5.0, 100.0)
    with pytest.warns(UserWarning, match="marginal"):
        with pytest.raises(ValueError, match="no real oscillation rate"):
            pulse2_analytics(1000.0, 0.0, 100.0)
    # a V+ or drive whose powers leave the float range is named, not an errno
    with pytest.raises(ValueError, match="V\\+ = 1e\\+200 kHz .* outside the float range"):
        pulse2_analytics(59.0, 1e200, 711.0)
    with pytest.warns(UserWarning, match="marginal"):
        with pytest.raises(ValueError, match="drive 1e\\+308 kHz .* outside the float range"):
            pulse2_analytics(1e308, 5.0, 711.0)
    # a bool or a non-finite argument is refused by its name, before any arithmetic
    for args, message in [
        ((100.0, 5.0, True), "v_minus must be a number, got True"),
        ((True, 5.0, 711.0), "omega_uD_B must be a number, got True"),
        ((math.nan, 5.0, 711.0), "omega_uD_B must be finite, got nan"),
        ((59.0, math.inf, 711.0), "v_plus must be finite, got inf"),
        ((59.0, 5.0, -math.inf), "v_minus must be finite, got -inf"),
    ]:
        with pytest.raises(ValueError, match=message):
            pulse2_analytics(*args)


def test_tau2_approximate_frozen():
    assert tau2_approximate(59.62378247605847, 5.0) == pytest.approx(
        11.776075319579373, rel=1e-12
    )
    with pytest.raises(ValueError, match="nonzero drive"):
        tau2_approximate(0.0, 5.0)
    # a negative duration, and one whose (V+/omega)^2 overflows, name the drive and V+
    for omega in (1e-3, 4.99, 1e-300):
        with pytest.raises(ValueError, match=f"pulse-2 drive {omega} kHz with V\\+ = 5.0 kHz"):
            tau2_approximate(omega, 5.0)
    # a bool or a non-finite argument is refused by its name
    for args, message in [
        ((math.nan, 5.0), "omega_uD_B must be finite, got nan"),
        ((-math.inf, 5.0), "omega_uD_B must be finite, got -inf"),
        ((True, 5.0), "omega_uD_B must be a number, got True"),
        ((59.0, math.nan), "v_plus must be finite, got nan"),
        ((59.0, False), "v_plus must be a number, got False"),
    ]:
        with pytest.raises(ValueError, match=message):
            tau2_approximate(*args)
    assert tau2_approximate(5.0, 5.0) == 0.0


def test_blocked_two_level_unblocked_2pi():
    # with no shift, a full 2 pi rotation returns with amplitude -1
    omega = 80.0
    h = build_blocked2(omega, 0.0, 0.0)
    st = QuantumState.from_label(("ground", "blocked"), "ground")
    amp = propagate(st, h, 1e3 / omega).amplitude("ground")
    assert abs(amp - (-1.0)) < 1e-12


@pytest.mark.parametrize("ratio", [10.0, 30.0, 100.0])
def test_blocked_two_level_adiabatic_leakage(ratio):
    # leakage scales as (omega / 2 V)^2; the scaled product stays near 1
    omega = 50.0
    v = ratio * omega
    h = build_blocked2(omega, 0.0, v)
    st = QuantumState.from_label(("ground", "blocked"), "ground")
    _, amps = propagate_sampled(st, h, 1e3 / omega, 4001)
    leak = float((np.abs(amps[:, 1]) ** 2).max())
    assert leak * ratio**2 == pytest.approx(1.0, rel=0.3)


def test_channels_tuple():
    assert CHANNELS == ("dU_A", "uD_A", "dU_B", "uD_B")
    assert len(PRODUCT_BASIS_8) == len(SUPERPOSITION_BASIS_8) == 8


def test_sector_links_derived_from_the_labels():
    # (ground-spin row, Rydberg column, channel index), frozen
    assert sorted(_SECTOR_LINKS) == [(0, 2, 3), (0, 5, 0), (1, 3, 2), (1, 4, 1),
                                     (2, 7, 0), (3, 6, 1), (4, 6, 2), (5, 7, 3)]
