"""Entanglement protocols: pulse sequences, SWAP gate, chain schedule."""

import cmath
import collections
import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rydex.optimizer
import rydex.protocols
from rydex import scan
from rydex.atoms import QuantumDefectModel
from rydex.dynamics import (
    CHANNELS,
    HamiltonianMatrix,
    QuantumState,
    _pulse2_matrices,
    _pulse3_matrices,
    propagate,
    tau2_approximate,
)
from rydex.chain import (
    MAX_CHAIN_ATOMS,
    ChainSpec,
    _chain_schedule,
    chain_fidelity_estimate,
    chain_ideal_state,
    chain_protocol,
)
from rydex.optimizer import (
    _lockstep_nelder_mead,
    _restart_points,
    _sector_fidelities,
    _vertex_order,
)
from rydex.protocols import (
    MAX_RESTARTS,
    SWAP_MATRIX_IDEAL,
    _nominal_point,
    optimize_pairwise,
    pair_couplings,
    pairwise_entangle,
    swap_gate,
)

import optimizer_reference
from chain_states import chain_state_by_gate_matrix as _chain_state_by_gate_matrix
from chain_states import composed_chain_amplitudes, pair_ground_vector, slot_atoms, swap_ground_map
from sector_reference import relabeling_matrix

MODEL = QuantumDefectModel.default()

V_PLUS = 4.86528311708787       # (73, 75) at 15 um
V_MINUS = 711.2447292433305
CORNER = 534.6498677117698


# --- pairwise entanglement -----------------------------------------------------

def test_pairwise_frozen_at_moderate_drive():
    res = pairwise_entangle(59.0, 59.0, 5.0, 711.0)
    assert res.fidelity == pytest.approx(0.983956211776143, rel=1e-12)
    assert res.tau2_us == pytest.approx(12.075616583260464, rel=1e-12)
    assert res.per_pulse_durations_us[0] == 0.0
    assert res.rydberg_exposure_us == pytest.approx(13.218663626272079, rel=1e-9)
    assert res.total_rydberg_time_us == pytest.approx(20.550192854446905, rel=1e-9)


def test_pairwise_frozen_at_optimized_drives():
    tau2 = tau2_approximate(119.0, 5.0)
    res = pairwise_entangle(119.0, 128.0, 5.0, 711.0, tau2_us=tau2)
    assert res.fidelity == pytest.approx(0.9903991610746706, rel=1e-12)
    assert sum(res.per_pulse_durations_us) == pytest.approx(
        9.837833582826924, rel=1e-12
    )
    assert res.rydberg_exposure_us == pytest.approx(6.401277451754467, rel=1e-9)


def test_pairwise_exact_duration_is_slower_but_close():
    res = pairwise_entangle(119.0, 128.0, 5.0, 711.0)
    assert res.fidelity == pytest.approx(0.9879182271147705, rel=1e-12)
    assert sum(res.per_pulse_durations_us) > 10.0


def test_pairwise_ideal_limit():
    res = pairwise_entangle(100.0, 100.0, 0.0, 1e9)
    assert res.fidelity == pytest.approx(1.0, abs=1e-6)


def test_pairwise_warns_outside_hierarchy():
    with pytest.warns(UserWarning, match="hierarchy"):
        pairwise_entangle(200.0, 200.0, 5.0, 711.0)
    with pytest.warns(UserWarning, match="hierarchy"):
        pairwise_entangle(20.0, 20.0, 5.0, 711.0)


def test_pairwise_phase_covariance():
    # the fidelity is measured against the matching dressed Bell state,
    # so any choice of the four drive phases gives the same number
    tau2 = tau2_approximate(119.0, 5.0)
    base = pairwise_entangle(119.0, 128.0, 5.0, 711.0, tau2_us=tau2).fidelity
    rng = np.random.default_rng(11)
    for _ in range(5):
        phases = tuple(rng.uniform(-np.pi, np.pi, 4))
        got = pairwise_entangle(
            119.0, 128.0, 5.0, 711.0, tau2_us=tau2, phases=phases
        ).fidelity
        assert got == pytest.approx(base, abs=1e-12)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(phases=st.tuples(*[st.floats(-100.0, 100.0)] * 4))
def test_pairwise_g_plus_is_the_relabeling_row(phases):
    # the protocol's dressed <g+| is the reference's g+ row, bit for bit
    res = pairwise_entangle(59.0, 61.0, 5.0, 711.0, phases=phases, keep_trajectory=True)
    g_plus = relabeling_matrix(*phases)[0]
    assert res.fidelity == abs(g_plus @ res.trajectory.amplitudes[-1]) ** 2


@pytest.mark.parametrize(
    "phases, fidelity, exposure, thresholded",
    [
        ((0.0, 0.0, 0.0, 0.0),
         "0x1.f7ceab88b7eb8p-1", "0x1.a2a370498cebcp+3", "0x1.445b7efaf5a21p+4"),
        ((0.3, -1.1, 2.0, 0.7),
         "0x1.f7ceab88b7eb2p-1", "0x1.a2a370498cebfp+3", "0x1.445b7efaf5a21p+4"),
    ],
)
def test_pairwise_bookkeeping_bit_exact(phases, fidelity, exposure, thresholded):
    # exact float.hex values: the fidelity row and the exposure integrals
    # may be refactored, but not re-associated
    res = pairwise_entangle(59.0, 61.0, 5.0, 711.0, phases=phases)
    assert res.fidelity.hex() == fidelity
    assert res.rydberg_exposure_us.hex() == exposure
    assert res.total_rydberg_time_us.hex() == thresholded


def test_pairwise_trajectory():
    res = pairwise_entangle(119.0, 128.0, 5.0, 711.0, keep_trajectory=True)
    traj = res.trajectory
    assert traj is not None
    assert traj.pulse_boundaries_us == (0.0, res.tau2_us,
                                        res.tau2_us + res.tau3_us)
    assert traj.amplitudes.shape == (799, 8)  # 400 + 399 samples
    assert np.all(np.diff(traj.times_us) > 0)
    norms = (np.abs(traj.amplitudes) ** 2).sum(axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12
    # trajectory is opt-in
    assert pairwise_entangle(119.0, 128.0, 5.0, 711.0).trajectory is None


def test_optimizer_improves_and_is_deterministic():
    a = optimize_pairwise(5.0, 711.0, restarts=3, seed=1)
    assert a.result.fidelity >= a.start_fidelity
    assert a.result.fidelity == pytest.approx(0.990454524871442, rel=1e-9)
    assert a.start_fidelity == pytest.approx(0.9841601651846972, rel=1e-9)
    assert a.converged
    b = optimize_pairwise(5.0, 711.0, restarts=3, seed=1)
    assert (b.result.omega_pulse2_khz, b.result.omega_pulse3_khz,
            b.result.tau2_us, b.result.tau3_us) == (
        a.result.omega_pulse2_khz, a.result.omega_pulse3_khz, a.result.tau2_us, a.result.tau3_us
    )


def test_optimizer_rejects_non_finite_couplings():
    # named by the coupling, not by the closed-form rate they would overflow
    with pytest.raises(ValueError, match="v_plus_khz must be finite, got nan"):
        optimize_pairwise(math.nan, 711.0)
    with pytest.raises(ValueError, match="v_minus_khz must be finite, got inf"):
        optimize_pairwise(5.0, math.inf)


@pytest.mark.parametrize("seed, message", [(-1, "seed must be >= 0, got -1"),
                                           (1.5, "seed must be an integer, got 1.5"),
                                           (True, "seed must be an integer, got True")])
def test_optimizer_rejects_a_bad_seed_by_name(seed, message):
    with pytest.raises(ValueError, match=message):
        optimize_pairwise(5.0, 711.0, seed=seed)


def test_restart_points_are_numpy_philox_draws():
    """``_restart_points`` draws what ``np.random.Generator(np.random.Philox(seed))
    .uniform(lo, hi)`` draws, bit for bit, for seeds of one to five 32-bit words (five
    is more than the key's pool of four) and for all MAX_RESTARTS restarts of one seed.
    ``scan``'s uint64 copies of the Philox constants are the optimizer's."""
    start = np.array(_nominal_point(V_PLUS, V_MINUS))[[0, 0, 1, 2]]
    lo, hi = start * [0.5, 0.5, 0.25, 0.25], start * [3.0, 3.0, 2.0, 2.0]
    seeds = [*range(201), 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**130 + 12345, 10**40]
    for seed, count in [*((seed, 9) for seed in seeds), (7, MAX_RESTARTS - 1)]:
        rng = np.random.Generator(np.random.Philox(seed))
        expected = np.array([rng.uniform(lo, hi) for _ in range(count)])
        drawn = np.array(_restart_points(seed, count, lo.tolist(), hi.tolist()))
        assert drawn.tobytes() == expected.tobytes(), seed
    assert [int(c) for c in (scan._M0, scan._M1, scan._W0, scan._W1)] == [
        rydex.optimizer._M0, rydex.optimizer._M1, rydex.optimizer._W0, rydex.optimizer._W1]


def test_optimizer_never_returns_below_its_start(monkeypatch):
    # a search that ends on a worse point than the working point gives the start back
    def worse(starts, lo, hi, tol, v_plus_khz, v_minus_khz):
        return lo, False

    monkeypatch.setattr(rydex.optimizer, "_lockstep_nelder_mead", worse)
    opt = optimize_pairwise(5.0, 711.0, restarts=2)
    omega, tau2, tau3 = _nominal_point(5.0, 711.0)
    assert opt.result.fidelity == opt.start_fidelity
    assert (opt.result.omega_pulse2_khz, opt.result.omega_pulse3_khz,
            opt.result.tau2_us, opt.result.tau3_us) == (omega, omega, tau2, tau3)


def _sector_fidelity(x: np.ndarray, v_plus_khz: float, v_minus_khz: float) -> float:
    """One point of ``_sector_fidelities``, one eigensolve per pulse: the objective
    the lockstep search replaced, kept as its reference."""
    h2 = HamiltonianMatrix(("Uu", "r+", "r-"), _pulse2_matrices(x[0], v_plus_khz, v_minus_khz))
    h3 = HamiltonianMatrix(("r+", "e_up+", "e_dn+", "g+"), _pulse3_matrices(x[1], v_plus_khz))
    a_uu, a_rp, _ = propagate(QuantumState.from_label(h2.basis, "Uu"), h2, x[2]).amplitudes
    u_g = propagate(QuantumState.from_label(h3.basis, "g+"), h3, x[3]).amplitudes
    return float(abs(u_g[0] * a_rp + u_g[1] * a_uu / math.sqrt(2.0)) ** 2)


_OMEGA, _TAU2, _TAU3 = _nominal_point(5.0, 711.0)
_LO = np.array([0.5 * _OMEGA, 0.5 * _OMEGA, 0.25 * _TAU2, 0.25 * _TAU3])
_HI = np.array([3.0 * _OMEGA, 3.0 * _OMEGA, 2.0 * _TAU2, 2.0 * _TAU3])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    omega2=st.floats(0.5 * _OMEGA, 3.0 * _OMEGA),
    omega3=st.floats(0.5 * _OMEGA, 3.0 * _OMEGA),
    tau2=st.floats(0.25 * _TAU2, 2.0 * _TAU2),
    tau3=st.floats(0.25 * _TAU3, 2.0 * _TAU3),
)
def test_sector_fidelity_is_the_8_state_fidelity(omega2, omega3, tau2, tau3):
    """The optimizer's objective anywhere in its default box at (5, 711), on a batch
    of the drawn point, its swapped drives and both mirrored through the box centre;
    each row is the one-point reference bit for bit."""
    x = np.array([omega2, omega3, tau2, tau3])
    rows = np.array([x, x[[1, 0, 2, 3]], _LO + _HI - x, (_LO + _HI - x)[[1, 0, 2, 3]]])
    batched = _sector_fidelities(rows, 5.0, 711.0)
    for row, fid in zip(rows, batched, strict=True):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # hierarchy warnings at the box edges
            full = pairwise_entangle(*row[:2], 5.0, 711.0, tau2_us=row[2],
                                     tau3_us=row[3]).fidelity
        assert abs(fid - full) <= 1e-13
        assert fid == _sector_fidelity(row, 5.0, 711.0)


def _scipy_search(starts, lo, hi, tol, v_plus_khz, v_minus_khz):
    """The sequential search the lockstep one replaced: scipy's Nelder-Mead from each
    start on the one-point objective, keeping the first best point."""
    from scipy import optimize

    best = {"x": starts[0], "fid": -1.0}

    def objective(x):
        if np.any(x < lo) or np.any(x > hi):
            return 2.0
        fid = _sector_fidelity(x, v_plus_khz, v_minus_khz)
        if fid > best["fid"]:
            best["fid"], best["x"] = fid, np.array(x)
        return 1.0 - fid

    options = {"xatol": tol, "fatol": 1e-9, "maxiter": 400}
    results = [optimize.minimize(objective, x0, method="Nelder-Mead", options=options)
               for x0 in starts]
    return best["x"], any(res.success for res in results)


@settings(max_examples=6, deadline=None, derandomize=True)
@given(
    v_plus=st.floats(1.0, 20.0) | st.floats(-20.0, -1.0),
    v_minus=st.floats(100.0, 3000.0) | st.floats(-3000.0, -100.0),
    lo_scale=st.floats(0.2, 1.0),
    hi_scale=st.floats(1.0, 3.0),
    pinned=st.lists(st.booleans(), min_size=4, max_size=4),
    seed=st.integers(0, 2**63),
    restarts=st.integers(1, 3),
    tol=st.sampled_from([1e-6, 1e-3, 1e-2]),
)
def test_lockstep_search_is_scipy_nelder_mead(v_plus, v_minus, lo_scale, hi_scale, pinned,
                                             seed, restarts, tol):
    """The same best point, bit for bit, and the same ``converged`` as scipy's
    Nelder-Mead run restart by restart, also when pinned coordinates put start
    vertices outside the box, where their scores tie at 2."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # a marginal pulse-2 closed form
        nominal = np.array(_nominal_point(v_plus, v_minus))[[0, 0, 1, 2]]
    lo, hi = lo_scale * nominal, hi_scale * nominal
    hi[pinned] = lo[pinned]
    rng = np.random.Generator(np.random.Philox(seed))
    starts = [np.clip(nominal, lo, hi)] + [rng.uniform(lo, hi) for _ in range(restarts - 1)]
    x, converged = _lockstep_nelder_mead(starts, lo, hi, tol, v_plus, v_minus)
    ref_x, ref_converged = _scipy_search(starts, lo, hi, tol, v_plus, v_minus)
    assert [v.hex() for v in x.tolist()] == [v.hex() for v in ref_x.tolist()]
    assert converged == ref_converged


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("seed, tol, pinned", [(0, 1e-6, []), (1, 1e-3, []), (7, 1e-2, []),
                                               (1, 1e-6, [0, 2]), (7, 1e-3, [1, 3])])
def test_plain_float_search_is_the_array_search(sign, seed, tol, pinned):
    """The plain-float lockstep search gives the array search's best point, bit for bit,
    and its ``converged``, in ``optimize_pairwise``'s box at both V+- signs; pinned
    coordinates (lo = hi) put start vertices outside the box, where scores tie at 2,
    and keep the search from converging, so it runs all 400 iterations."""
    v_plus, v_minus = sign * V_PLUS, sign * V_MINUS
    start = np.array(_nominal_point(v_plus, v_minus))[[0, 0, 1, 2]]
    lo, hi = start * [0.5, 0.5, 0.25, 0.25], start * [3.0, 3.0, 2.0, 2.0]
    hi[pinned] = lo[pinned]
    rng = np.random.Generator(np.random.Philox(seed))
    starts = [np.clip(start, lo, hi)] + [rng.uniform(lo, hi) for _ in range(2)]
    x, converged = _lockstep_nelder_mead(starts, lo, hi, tol, v_plus, v_minus)
    ref_x, ref_converged = optimizer_reference._lockstep_nelder_mead(starts, lo, hi, tol,
                                                                     v_plus, v_minus)
    assert [v.hex() for v in x.tolist()] == [v.hex() for v in ref_x.tolist()]
    assert converged == ref_converged


def test_vertex_order_is_numpy_argsort():
    """numpy's argsort, ties included: on x86 it may dispatch to a SIMD sort that orders
    tied scores (every point outside the box scores 2) unlike a stable sort."""
    for f in itertools.product([0.5, 1.0, 2.0], repeat=5):
        assert _vertex_order(list(f)) == np.argsort(np.array(f)).tolist(), f
    for f in itertools.permutations([0.25, 2.0, -1.0, 0.125, 1.5]):
        assert _vertex_order(list(f)) == np.argsort(np.array(f)).tolist(), f


def test_optimizer_eigensolves_are_counted_at_numpy(monkeypatch):
    """The search scores each round with one ``np.linalg.eigh`` per pulse, looked up at
    call time, so a probe that wraps it counts them: at (4.865, 711) 1,352 calls on
    12,446 matrices, the two 8-state runs included."""
    eigh, calls = np.linalg.eigh, []
    monkeypatch.setattr(np.linalg, "eigh", lambda h: calls.append(h.shape[:-2]) or eigh(h))
    optimize_pairwise(4.865, 711.0)
    assert (len(calls), sum(math.prod(shape) for shape in calls)) == (1352, 12446)


# --- SWAP gate ------------------------------------------------------------------

def test_swap_gate_frozen():
    res = swap_gate(89.0, V_PLUS, V_MINUS, CORNER, 11.12)
    assert res.basis_fidelities["du"] == pytest.approx(0.9664547184382073,
                                                       rel=1e-12)
    assert res.basis_fidelities["ud"] == pytest.approx(0.9664547184382073,
                                                       rel=1e-9)
    assert res.basis_fidelities["uu"] == pytest.approx(0.9998047934889991,
                                                       rel=1e-12)
    assert res.basis_fidelities["dd"] == res.basis_fidelities["uu"]
    assert res.gate_fidelity == pytest.approx(0.9831297559636032, rel=1e-12)
    assert res.total_duration_us == 11.12
    assert res.rydberg_exposure_us == pytest.approx(6.307172567427333, rel=1e-9)


def test_swap_gate_ideal_limit():
    # V- and the blockade at 1e9 kHz: r- and the doubly excited state never fill
    res = swap_gate(100.0, 0.0, 1e9, 1e9, 10.0)
    for fid in res.basis_fidelities.values():
        assert fid == pytest.approx(1.0, abs=1e-9)
    assert res.gate_fidelity == pytest.approx(1.0, abs=1e-9)


def test_swap_gate_decoupled_minus_with_shift_frozen():
    # V- = 1e9 kHz decouples r-, with a nonzero V+ and drive phase
    res = swap_gate(89.0, V_PLUS, 1e9, CORNER, 11.12, phi=0.3)
    assert res.basis_fidelities["du"] == pytest.approx(0.992284578733199,
                                                       rel=1e-12)
    assert res.basis_fidelities["ud"] == pytest.approx(0.992284578733199,
                                                       rel=1e-9)
    assert res.basis_fidelities["uu"] == pytest.approx(0.9998047934889989,
                                                       rel=1e-12)
    assert res.gate_fidelity == pytest.approx(0.996044686111099, rel=1e-12)
    assert res.rydberg_exposure_us == pytest.approx(6.296418805131619, rel=1e-9)


@pytest.mark.parametrize(
    "v_blockade, v_minus, fidelity, exposure",
    [
        (535.0, 711.0, "0x1.f71f386844eacp-1", "0x1.93a4dc64fe454p+2"),
        (535.0, 1e9, "0x1.fddb5f97501f9p-1", "0x1.92f47e461d4c0p+2"),
        (1e9, 711.0, "0x1.f72fdc45e6b7ep-1", "0x1.9142b772e0474p+2"),
        (1e9, 1e9, "0x1.fdec0374f1ecap-1", "0x1.90925953ff4e0p+2"),
    ],
)
def test_swap_gate_bookkeeping_bit_exact(v_blockade, v_minus, fidelity, exposure):
    res = swap_gate(89.0, 5.0, v_minus, v_blockade, 11.12)
    assert res.gate_fidelity.hex() == fidelity
    assert res.rydberg_exposure_us.hex() == exposure


def test_swap_gate_composition_is_signed_swap():
    # the ground map of the ideal-limit sequence is -SWAP_MATRIX_IDEAL
    omega, t_2pi = 100.0, 10.0
    res = swap_gate(omega, 0.0, 1e9, 1e9, t_2pi)
    gate = swap_ground_map(omega, 0.0, 1e9, 1e9, t_2pi)
    assert np.abs(gate - (-SWAP_MATRIX_IDEAL)).max() < 1e-5
    assert res.gate_fidelity == pytest.approx(1.0, abs=1e-9)


def test_swap_matrix_constant():
    want = np.array([
        [-1, 0, 0, 0],
        [0, 0, 1, 0],
        [0, 1, 0, 0],
        [0, 0, 0, -1],
    ], dtype=float)
    assert np.array_equal(SWAP_MATRIX_IDEAL, want)


def test_swap_gate_refuses_a_nan_blockade():
    # a perfect blockade is reached by a large finite one, such as 1e9 kHz
    for bad, message in ((math.nan, "finite, got nan"), (math.inf, "finite, got inf"),
                         (-math.inf, "finite, got -inf"), (True, "a number, got True")):
        with pytest.raises(ValueError, match=f"v_blockade_khz must be {message}"):
            swap_gate(89.0, V_PLUS, V_MINUS, bad, 11.12)


@pytest.mark.parametrize(
    "call,message",
    [
        # True passed as finite: a fidelity of 0.99732 and a gate fidelity of 0.5000
        (lambda: pairwise_entangle(60, 60, True, 711), "v_plus_khz must be a number, got True"),
        (lambda: swap_gate(True, 5, 711, 500, 10), "omega_khz must be a number, got True"),
        (lambda: ChainSpec(4, True, (73, 75)), "spacing_um must be a number, got True"),
    ],
)
def test_a_bool_is_refused_by_name(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("phases, message", [
    ((0.0, 0.0, 0.0), "phases must be four numbers, one per channel, got (0.0, 0.0, 0.0)"),
    ((0.0,) * 5, "phases must be four numbers"),
    (None, "phases must be four numbers, one per channel, got None"),
    (0.0, "phases must be four numbers"),
    ((0.0, 0.0, 0.0, math.nan), "phases must be finite, got nan"),
    ((0.0, 0.0, True, 0.0), "phases must be a number, got True"),
    ("abcd", "phases must be a number, got 'a'"),
])
def test_pairwise_refuses_anything_but_four_phases_by_name(monkeypatch, phases, message):
    """Anything but four finite phases is refused as ``phases`` before any pulse is built."""
    monkeypatch.setattr(rydex.protocols, "build_full8", None)  # any pulse would fail unnamed
    with pytest.raises(ValueError, match=re.escape(message)):
        pairwise_entangle(59.0, 59.0, 5.0, 711.0, phases=phases)


def test_swap_gate_weak_blockade_warns():
    with pytest.warns(UserWarning, match="blockade"):
        swap_gate(89.0, V_PLUS, V_MINUS, 100.0, 11.12)


# --- chain spec and schedule ------------------------------------------------------

@pytest.mark.parametrize("count", [5, 7, 10, 3, 0, MAX_CHAIN_ATOMS + 4, 2**64, 8.0])
def test_chain_spec_rejects_bad_counts(count):
    with pytest.raises(ValueError, match="atom_count"):
        ChainSpec(atom_count=count, spacing_um=15.0, pair=(73, 75))


@pytest.mark.parametrize("count", [4, 6, 8, 12, 16, 2**19, MAX_CHAIN_ATOMS])
def test_chain_spec_accepts_valid_counts(count):
    spec = ChainSpec(atom_count=count, spacing_um=15.0, pair=(73, 75))
    assert spec.atom_count == count


def test_chain_spec_validation():
    with pytest.raises(ValueError, match="spacing"):
        ChainSpec(atom_count=4, spacing_um=0.0, pair=(73, 75))
    with pytest.raises(ValueError, match="decay rate"):
        ChainSpec(atom_count=4, spacing_um=15.0, pair=(73, 75), gamma_per_ms=-1.0)


def test_chain_spec_takes_a_tuple_subclass_as_pair():
    Pair = collections.namedtuple("Pair", "n_a n_b")
    by_name = ChainSpec(atom_count=4, spacing_um=15.0, pair=Pair(73, 75))
    plain = ChainSpec(atom_count=4, spacing_um=15.0, pair=(73, 75))
    tau = dict(f1=1.0, f_swap=1.0, tau_us=0.0)
    assert chain_protocol(MODEL, by_name, **tau) == chain_protocol(MODEL, plain, **tau)


def _chain(atom_count: int, spacing_um: float = 15.0):
    """``chain_protocol`` of the (73, 75) chain with f1, f_swap and tau given,
    so it runs no simulation: the schedule and the spectator shift."""
    spec = ChainSpec(atom_count=atom_count, spacing_um=spacing_um, pair=(73, 75))
    return chain_protocol(MODEL, spec, f1=1.0, f_swap=1.0, tau_us=0.0)


def test_schedule_pulse_counts():
    sch4, sch6, sch8 = (_chain(n).schedule for n in (4, 6, 8))
    assert len(sch4.pulses) == 9     # step 4 has no pair to act on
    assert len(sch6.pulses) == 12
    assert len(sch8.pulses) == 12
    assert tuple(p.pulse_index for p in sch4.pulses) == tuple(range(1, 10))
    assert tuple(p.pulse_index for p in sch6.pulses) == tuple(range(1, 13))


def test_schedule_duration_is_length_independent():
    durations = set()
    for count in (4, 8, 16):
        sch = _chain(count).schedule
        durations.add(sch.total_duration_us)
    assert len(durations) == 1
    only = durations.pop()
    assert only == pytest.approx(63.895717542697525, rel=1e-12)


def test_schedule_structure_four_atoms():
    sch = _chain(4).schedule
    by_index = {p.pulse_index: p for p in sch.pulses}
    labels = {i: slot_atoms(p)[0] for i, p in by_index.items()}
    ns = {i: slot_atoms(p)[1] for i, p in by_index.items()}
    assert labels[1] == ("A1",)
    assert labels[2] == ("B1",)
    assert labels[3] == ("A1", "B1")
    assert labels[4] == ("C1",)
    assert labels[6] == ("C1", "D1")
    assert labels[7] == ("C1",)
    assert labels[8] == ("B1",)
    assert labels[9] == ("C1",)
    # even positions hold the first species, odd the second
    assert ns[1] == (73,)
    assert ns[2] == (75,)
    assert ns[3] == (73, 75)
    assert ns[8] == (75,)
    # the instantaneous pi maps carry zero duration
    assert by_index[1].spec.duration_us == 0.0
    assert by_index[7].spec.duration_us == 0.0
    assert by_index[2].spec.duration_us > 0.0


def test_schedule_parallelism_eight_atoms():
    sch = _chain(8).schedule
    by_index = {p.pulse_index: p for p in sch.pulses}
    labels = {i: slot_atoms(p)[0] for i, p in by_index.items()}
    assert labels[1] == ("A1", "A2")
    assert labels[3] == ("A1", "A2", "B1", "B2")
    assert labels[10] == ("A2",)
    assert labels[11] == ("D1",)   # 2 pi on D_1 bridges to A_2
    assert by_index[11].spec.duration_us > 0.0


# Every slot of the (73, 75) chain schedule at 15 um, frozen from the
# hand-written schedule: (step, pulse index, targets, rydberg_n, channels
# with a nonzero amplitude, their common drive in kHz, duration in us).
_W, _W_SWAP = 58.82522395456994, 88.23783593185492
_TAU2, _TAU3, _T_SWAP = 12.115096764906253, 8.49975514561822, 11.333006860824291
_ALL = "dU_A uD_A dU_B uD_B"
_FROZEN_SCHEDULES = {
    4: (
        (1, 1, "A1", "73", "dU_A", _W, 0.0),
        (1, 2, "B1", "75", "uD_B", _W, _TAU2),
        (1, 3, "A1 B1", "73 75", _ALL, _W, _TAU3),
        (2, 4, "C1", "73", "dU_A", _W, 0.0),
        (2, 5, "D1", "75", "uD_B", _W, _TAU2),
        (2, 6, "C1 D1", "73 75", _ALL, _W, _TAU3),
        (3, 7, "C1", "73", "dU_B uD_B", _W, 0.0),
        (3, 8, "B1", "75", "dU_A uD_A", _W_SWAP, _T_SWAP),
        (3, 9, "C1", "73", "dU_B uD_B", _W, 0.0),
    ),
    6: (
        (1, 1, "A1 A2", "73 73", "dU_A", _W, 0.0),
        (1, 2, "B1 B2", "75 75", "uD_B", _W, _TAU2),
        (1, 3, "A1 A2 B1 B2", "73 73 75 75", _ALL, _W, _TAU3),
        (2, 4, "C1", "73", "dU_A", _W, 0.0),
        (2, 5, "D1", "75", "uD_B", _W, _TAU2),
        (2, 6, "C1 D1", "73 75", _ALL, _W, _TAU3),
        (3, 7, "C1", "73", "dU_B uD_B", _W, 0.0),
        (3, 8, "B1", "75", "dU_A uD_A", _W_SWAP, _T_SWAP),
        (3, 9, "C1", "73", "dU_B uD_B", _W, 0.0),
        (4, 10, "A2", "73", "dU_B uD_B", _W, 0.0),
        (4, 11, "D1", "75", "dU_A uD_A", _W_SWAP, _T_SWAP),
        (4, 12, "A2", "73", "dU_B uD_B", _W, 0.0),
    ),
    8: (
        (1, 1, "A1 A2", "73 73", "dU_A", _W, 0.0),
        (1, 2, "B1 B2", "75 75", "uD_B", _W, _TAU2),
        (1, 3, "A1 A2 B1 B2", "73 73 75 75", _ALL, _W, _TAU3),
        (2, 4, "C1 C2", "73 73", "dU_A", _W, 0.0),
        (2, 5, "D1 D2", "75 75", "uD_B", _W, _TAU2),
        (2, 6, "C1 C2 D1 D2", "73 73 75 75", _ALL, _W, _TAU3),
        (3, 7, "C1 C2", "73 73", "dU_B uD_B", _W, 0.0),
        (3, 8, "B1 B2", "75 75", "dU_A uD_A", _W_SWAP, _T_SWAP),
        (3, 9, "C1 C2", "73 73", "dU_B uD_B", _W, 0.0),
        (4, 10, "A2", "73", "dU_B uD_B", _W, 0.0),
        (4, 11, "D1", "75", "dU_A uD_A", _W_SWAP, _T_SWAP),
        (4, 12, "A2", "73", "dU_B uD_B", _W, 0.0),
    ),
    16: (
        (1, 1, "A1 A2 A3 A4", "73 73 73 73", "dU_A", _W, 0.0),
        (1, 2, "B1 B2 B3 B4", "75 75 75 75", "uD_B", _W, _TAU2),
        (1, 3, "A1 A2 A3 A4 B1 B2 B3 B4", "73 73 73 73 75 75 75 75", _ALL, _W, _TAU3),
        (2, 4, "C1 C2 C3 C4", "73 73 73 73", "dU_A", _W, 0.0),
        (2, 5, "D1 D2 D3 D4", "75 75 75 75", "uD_B", _W, _TAU2),
        (2, 6, "C1 C2 C3 C4 D1 D2 D3 D4", "73 73 73 73 75 75 75 75", _ALL, _W, _TAU3),
        (3, 7, "C1 C2 C3 C4", "73 73 73 73", "dU_B uD_B", _W, 0.0),
        (3, 8, "B1 B2 B3 B4", "75 75 75 75", "dU_A uD_A", _W_SWAP, _T_SWAP),
        (3, 9, "C1 C2 C3 C4", "73 73 73 73", "dU_B uD_B", _W, 0.0),
        (4, 10, "A2 A3 A4", "73 73 73", "dU_B uD_B", _W, 0.0),
        (4, 11, "D1 D2 D3", "75 75 75", "dU_A uD_A", _W_SWAP, _T_SWAP),
        (4, 12, "A2 A3 A4", "73 73 73", "dU_B uD_B", _W, 0.0),
    ),
}


@pytest.mark.parametrize("count", sorted(_FROZEN_SCHEDULES))
def test_schedule_slots_frozen(count):
    sch = _chain(count).schedule
    slots = []
    for p in sch.pulses:
        amps = {c: p.spec.amplitude(c) for c in CHANNELS if p.spec.amplitude(c) != 0}
        (drive,) = set(amps.values())
        assert drive.imag == 0.0
        labels, ns = slot_atoms(p)
        slots.append((p.step, p.pulse_index, " ".join(labels), " ".join(map(str, ns)),
                      " ".join(amps), drive.real, p.spec.duration_us))
    assert tuple(slots) == _FROZEN_SCHEDULES[count]
    assert sch.step_durations_us == (_TAU2 + _TAU3, _TAU2 + _TAU3, _T_SWAP, _T_SWAP)


def test_schedule_of_the_largest_chain_continues_the_eight_atom_pattern():
    """Each slot of the largest chain starts at the 8-atom slot's first atom with its
    stride and ends as far from the chain's end, read from the ranges without listing
    an atom; the build allocates no more at 2**53 atoms than at 8."""
    small = _chain_schedule(MODEL, ChainSpec(8, 15.0, (73, 75)))[1]  # fills the pair's caches
    spec = ChainSpec(MAX_CHAIN_ATOMS, 15.0, (73, 75))
    tracemalloc.start()
    try:
        large = _chain_schedule(MODEL, spec)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert len(large.pulses) == len(small.pulses) == 12
    for a, b in zip(small.pulses, large.pulses):
        assert (a.step, a.pulse_index, a.spec, a.rydberg_n) == (
            b.step, b.pulse_index, b.spec, b.rydberg_n)
        assert [(r.start, r.step, r[-1] - 8) for r in a.targets] == [
            (r.start, r.step, r[-1] - MAX_CHAIN_ATOMS) for r in b.targets]
    assert large.step_durations_us == small.step_durations_us


def test_schedule_requires_perturbative_spacing():
    with pytest.raises(ValueError, match="critical radius"):
        _chain(4, spacing_um=5.0)


# --- chain states ------------------------------------------------------------------

def test_chain_ideal_state_four_atoms():
    state = chain_ideal_state(4)
    amps = {b: a for b, a in zip(state.basis, state.amplitudes) if a != 0}
    assert set(amps) == {"uddu", "duud", "uudd", "dduu"}
    assert amps["uddu"] == pytest.approx(0.5)
    assert amps["duud"] == pytest.approx(0.5)
    assert amps["uudd"] == pytest.approx(-0.5)
    assert amps["dduu"] == pytest.approx(-0.5)


def test_chain_ideal_state_six_atoms():
    state = chain_ideal_state(6)
    amps = {b: a for b, a in zip(state.basis, state.amplitudes) if a != 0}
    w = 1.0 / (2.0 * math.sqrt(2.0))
    want = {
        "uududd": w, "uudddu": -w, "udduud": w, "uddduu": -w,
        "duuudd": -w, "duuddu": w, "dduuud": -w, "dduduu": w,
    }
    assert set(amps) == set(want)
    for label, value in want.items():
        assert amps[label] == pytest.approx(value, abs=1e-15)


def test_chain_state_paths_agree():
    for count in (4, 6):
        a = chain_ideal_state(count)
        b = _chain_state_by_gate_matrix(count)
        overlap = abs(np.vdot(a.amplitudes, b.amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-12)


def test_chain_ideal_state_other_sizes_rejected():
    with pytest.raises(ValueError, match="4 or 6"):
        chain_ideal_state(8)


# --- chain estimate and spectators ---------------------------------------------------

def test_chain_estimate_frozen():
    spec = ChainSpec(atom_count=4, spacing_um=15.0, pair=(73, 75),
                     gamma_per_ms=1.0 / 0.45)
    est = chain_fidelity_estimate(spec, 0.9906, 0.9831, tau_us=6.3699)
    assert est.fidelity == pytest.approx(0.8861532700907033, rel=1e-12)
    assert est.linear_error == pytest.approx(0.12063199999999996, rel=1e-12)
    assert est.gamma_tau == pytest.approx(0.014155333333333336, rel=1e-12)
    assert (est.pairwise_ops, est.swap_ops) == (2, 1)


def test_chain_estimate_default_exposure():
    spec = ChainSpec(atom_count=4, spacing_um=15.0, pair=(73, 75),
                     gamma_per_ms=1.0 / 0.45)
    est = chain_fidelity_estimate(spec, 0.9906, 0.9831, tau_us=10.0)  # the nominal operation
    assert est.fidelity == pytest.approx(0.8442837150521967, rel=1e-12)


def test_chain_estimate_operation_counts():
    spec = ChainSpec(atom_count=8, spacing_um=15.0, pair=(73, 75))
    est = chain_fidelity_estimate(spec, 1.0, 1.0, tau_us=10.0)
    assert (est.pairwise_ops, est.swap_ops) == (4, 3)
    assert est.fidelity == 1.0


def test_chain_estimate_validation_and_warning():
    spec = ChainSpec(atom_count=4, spacing_um=15.0, pair=(73, 75),
                     gamma_per_ms=200.0)
    with pytest.raises(ValueError, match=re.escape("f1 must be finite and in [0, 1], got 1.2")):
        chain_fidelity_estimate(spec, 1.2, 0.9, tau_us=10.0)
    with pytest.warns(UserWarning, match="not small"):
        chain_fidelity_estimate(spec, 0.99, 0.98, tau_us=10.0)
    # 200 * 1e308 overflows before the 1e-3 scale applies
    with pytest.raises(ValueError, match=r"gamma_per_ms \* tau_us must be finite, got inf"):
        chain_fidelity_estimate(spec, 0.99, 0.98, tau_us=1e308)


def test_spectator_blockade_frozen():
    sb = _chain(4).spectator
    assert sb.shift_khz == pytest.approx(0.7334017389736212, rel=1e-12)
    assert sb.separation_um == 45.0
    assert sb.ratio_to_v_plus == pytest.approx(0.1507418420107484, rel=1e-12)
    assert sb.negligible


def test_spectator_blockade_scaling():
    near, far = _chain(4).spectator, _chain(4, spacing_um=30.0).spectator
    assert near.shift_khz / far.shift_khz == pytest.approx(64.0, rel=1e-12)


# --- chain protocol ------------------------------------------------------------------

def test_chain_protocol_builds_the_interaction_matrix_once(monkeypatch):
    calls = []
    build = rydex.protocols.interaction_matrix

    def counting(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(rydex.protocols, "interaction_matrix", counting)
    spec = ChainSpec(atom_count=4, spacing_um=15.0, pair=(73, 75),
                     gamma_per_ms=1.0 / 0.45)
    chain = chain_protocol(MODEL, spec)
    assert len(calls) == 1
    # the simulating run derives the same schedule and spectator as one without
    assert chain.schedule == _chain(4).schedule
    assert chain.spectator == _chain(4).spectator
    assert chain.spectator.shift_khz == pair_couplings(MODEL, 73, 75, 15.0).corner_khz / 3**6


def test_chain_protocol_overrides_frozen():
    spec = ChainSpec(atom_count=4, spacing_um=15.0, pair=(73, 75),
                     gamma_per_ms=1.0 / 0.45)
    chain = chain_protocol(MODEL, spec, f1=0.9906, f_swap=0.9831, tau_us=6.3699)
    assert (chain.f1, chain.f_swap, chain.tau_us) == (0.9906, 0.9831, 6.3699)
    assert chain.estimate.fidelity == pytest.approx(0.8861532700907033, rel=1e-12)
    assert (chain.estimate.pairwise_ops, chain.estimate.swap_ops) == (2, 1)


# --- chain composed from the simulated maps ------------------------------------------

def _simulated(count: int):
    """The (73, 75) chain at 15 um: its spec, couplings and schedule, the pair's ground
    vector and the SWAP's ground map, both simulated at the schedule's own drives and
    durations."""
    spec = ChainSpec(atom_count=count, spacing_um=15.0, pair=(73, 75))
    coup, schedule = _chain_schedule(MODEL, spec)
    slot = {p.pulse_index: p.spec for p in schedule.pulses}
    pulse2, pulse3, swap_2pi = slot[2], slot[3], slot[8]  # as chain_protocol reads them
    pair = pairwise_entangle(pulse2.omega_uD_B, pulse3.omega_dU_A, coup.v_plus_khz,
                             coup.v_minus_khz, tau2_us=pulse2.duration_us,
                             tau3_us=pulse3.duration_us, keep_trajectory=True)
    link = swap_ground_map(swap_2pi.omega_dU_A, coup.v_plus_khz, coup.v_minus_khz,
                           coup.corner_khz, swap_2pi.duration_us)
    return spec, coup, schedule, pair_ground_vector(pair), link


@pytest.mark.parametrize("count", [4, 6])
def test_composed_chain_in_the_ideal_limit_is_the_ideal_state(count):
    schedule = _chain(count).schedule
    ideal = chain_ideal_state(count).amplitudes
    bell = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
    np.testing.assert_allclose(
        composed_chain_amplitudes(schedule, bell, -SWAP_MATRIX_IDEAL), ideal, rtol=0, atol=1e-15
    )
    # V+ = 0, V- and the blockade at 1e9 kHz, one 2pi period: both maps reach their ideal
    pair = pair_ground_vector(pairwise_entangle(100.0, 100.0, 0.0, 1e9, keep_trajectory=True))
    link = swap_ground_map(150.0, 0.0, 1e9, 1e9, 1e3 / 150.0)
    composed = composed_chain_amplitudes(schedule, pair, link)
    assert abs(np.vdot(ideal, composed)) ** 2 == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("count, with_phase", [(4, 0.936223), (6, 0.890297), (8, 0.846627)])
def test_composed_chain_is_the_product_estimate_without_the_blocked_phase(count, with_phase):
    """The product of population fidelities misses one coherent phase: the light
    shift the blocked (parallel-spin) branch picks up. Without it the composed chain
    is the estimate to ~1e-4; with it, the composed fidelity is lower."""
    spec, _, schedule, pair, link = _simulated(count)
    target = _chain_state_by_gate_matrix(count).amplitudes  # any N, up to a global sign
    composed = abs(np.vdot(target, composed_chain_amplitudes(schedule, pair, link))) ** 2
    assert composed == pytest.approx(with_phase, abs=1e-6)
    link[0, 0] = link[3, 3] = abs(link[0, 0])
    no_phase = abs(np.vdot(target, composed_chain_amplitudes(schedule, pair, link))) ** 2
    estimate = chain_protocol(MODEL, spec).estimate  # gamma = 0: F1^P F_swap^S
    assert no_phase == pytest.approx(estimate.fidelity, abs=1e-4)


def test_composed_chain_blocked_phase_is_the_two_level_amplitude():
    """The blocked branch's amplitude is exp(-i pi V t)(cos pi W t + i (V/W) sin pi W t),
    W = sqrt(V^2 + omega^2), at the corner blockade V and the 2pi drive omega."""
    _, coup, schedule, _, link = _simulated(4)
    swap_2pi = {p.pulse_index: p.spec for p in schedule.pulses}[8]
    v, omega = coup.corner_khz, swap_2pi.omega_dU_A
    w, t = math.hypot(v, omega), swap_2pi.duration_us * 1e-3  # kHz, ms
    exact = cmath.exp(-1j * math.pi * v * t) * (
        math.cos(math.pi * w * t) + 1j * v / w * math.sin(math.pi * w * t)
    )
    assert link[0, 0] == link[3, 3]
    assert abs(link[0, 0] - exact) < 1e-12
    assert math.degrees(cmath.phase(exact)) == pytest.approx(14.4566, abs=1e-4)
    assert abs(exact) ** 2 == pytest.approx(0.99512, abs=1e-5)
