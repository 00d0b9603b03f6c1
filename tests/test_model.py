"""Model layer: modal structure, orbit families, audits."""

import math

import numpy as np
import pytest

import oracles
from oracles import fundamental_matrix, modal_orbit
from pendavg.constants import OMEGA1, OMEGA2, T1, T2
from pendavg.model import (
    INVERSE_MODAL_MATRIX,
    LINEAR_MODAL,
    LINEAR_ORIGINAL,
    MODAL_MATRIX,
    Mode,
    PerturbationSpec,
    PeriodicityError,
    compiled_forcing,
    slow_field,
    unperturbed_orbit,
)

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Frequencies
# ---------------------------------------------------------------------------

def test_mode_frequencies_and_periods():
    assert Mode.MODE1.omega == math.sqrt(2.0 - SQRT2)
    assert Mode.MODE2.omega == math.sqrt(2.0 + SQRT2)
    assert Mode.MODE1.period == 2.0 * math.pi / OMEGA1
    assert Mode.MODE2.period == 2.0 * math.pi / OMEGA2
    assert OMEGA1 * T1 == pytest.approx(2.0 * math.pi, rel=1e-15)
    assert OMEGA2 * T2 == pytest.approx(2.0 * math.pi, rel=1e-15)


def test_resonance_coprime_required():
    PerturbationSpec.from_strings("0", "0", "mode1", 1, 1)
    PerturbationSpec.from_strings("0", "0", "mode1", 3, 2)
    with pytest.raises(ValueError, match="coprime"):
        PerturbationSpec.from_strings("0", "0", "mode1", 2, 4)
    with pytest.raises(ValueError, match="positive"):
        PerturbationSpec.from_strings("0", "0", "mode1", 0, 1)


# ---------------------------------------------------------------------------
# Modal structure
# ---------------------------------------------------------------------------

def test_modal_round_trip_many_states():
    rng = np.random.default_rng(7)
    states = rng.uniform(-1.0, 1.0, size=(1000, 4))
    back = (INVERSE_MODAL_MATRIX @ (MODAL_MATRIX @ states.T)).T
    assert np.abs(back - states).max() <= 1e-12


def test_inverse_modal_unit_vector_values():
    th1, th1d, th2, th2d = INVERSE_MODAL_MATRIX @ np.array([1.0, 0.0, 0.0, 0.0])
    assert th1 == pytest.approx(1.0 / math.sqrt(4.0 - 2.0 * SQRT2), abs=1e-15)
    assert th1d == 0.0
    assert th2 == pytest.approx(1.0 / math.sqrt(2.0 - SQRT2), abs=1e-15)
    assert th2d == 0.0


def test_conjugation_into_block_form():
    conj = MODAL_MATRIX @ LINEAR_ORIGINAL @ INVERSE_MODAL_MATRIX
    assert np.abs(conj - LINEAR_MODAL).max() <= 1e-12


# ---------------------------------------------------------------------------
# Vector field
# ---------------------------------------------------------------------------

def _coro1_spec():
    return oracles.make_spec("corollary1")


def test_vector_field_equilibrium():
    out = oracles.fast_field(_coro1_spec(), 0.0)(0.3, np.zeros(4))
    assert np.all(out == 0.0)


def test_vector_field_linear_part():
    out = oracles.fast_field(_coro1_spec(), 0.0)(0.0, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(out, [0.0, -2.0, 0.0, 2.0], atol=0)


def test_vector_field_forcing_row():
    tau = math.pi / (2.0 * OMEGA1)
    out = oracles.fast_field(_coro1_spec(), 1.0)(tau, np.zeros(4))
    assert out[:3] == pytest.approx([0.0, 0.0, 0.0], abs=1e-15)
    assert out[3] == pytest.approx(1.0, rel=1e-15)


def test_vector_field_batches():
    spec = _coro1_spec()
    states = np.array([[0.1, 0.0, -0.2, 0.3], [1.0, -1.0, 0.5, 0.0]]).T
    batch = oracles.fast_field(spec, 0.01)(0.4, states)
    for j in range(2):
        single = oracles.fast_field(spec, 0.01)(0.4, states[:, j])
        assert np.allclose(batch[:, j], single, atol=0)


@pytest.mark.parametrize("which", ["corollary1", "corollary2"])
@pytest.mark.parametrize("m", [1, 4, 36])
def test_slow_field_rows_equal_the_pair_row_form_bit_for_bit(which, m):
    forcing = compiled_forcing(oracles.make_spec(which))
    rng = np.random.default_rng(m)
    for _ in range(10):
        eps = rng.uniform(-0.1, 0.1, m)
        x0 = rng.normal(0.0, 3.0, (4, m))
        tau, v = rng.uniform(0.0, 40.0, m), rng.normal(0.0, 5.0, (4, m))
        rhs, state = slow_field(forcing, eps, x0)
        rhs_ref, state_ref = oracles.pair_row_slow_field(forcing, eps, x0)
        assert rhs(tau, v).tobytes() == rhs_ref(tau, v).tobytes()
        assert state(tau, v).tobytes() == state_ref(tau, v).tobytes()
        assert state(0, 0).tobytes() == x0.tobytes()


# ---------------------------------------------------------------------------
# Orbit families
# ---------------------------------------------------------------------------

def test_mode1_orbit_at_zero_phase():
    x0, y0 = 0.8, -0.6
    th1, th1d, th2, th2d = unperturbed_orbit(Mode.MODE1, (x0, y0), 0.0)
    assert th1 == pytest.approx(x0 / math.sqrt(4.0 - 2.0 * SQRT2), abs=1e-15)
    assert th1d == pytest.approx(y0 / SQRT2, abs=1e-15)
    assert th2 == pytest.approx(x0 / math.sqrt(2.0 - SQRT2), abs=1e-15)
    assert th2d == pytest.approx(y0, abs=1e-15)


def test_mode1_orbit_is_periodic():
    a = unperturbed_orbit(Mode.MODE1, (1.0, 0.0), 0.0)
    b = unperturbed_orbit(Mode.MODE1, (1.0, 0.0), T1)
    assert np.abs(a - b).max() <= 1e-10


def test_mode2_orbit_at_zero_phase():
    th1, _, th2, _ = unperturbed_orbit(Mode.MODE2, (1.0, 0.0), 0.0)
    assert th1 == pytest.approx(-1.0 / math.sqrt(4.0 + 2.0 * SQRT2), abs=1e-15)
    assert th2 == pytest.approx(1.0 / math.sqrt(2.0 + SQRT2), abs=1e-15)


@pytest.mark.parametrize("mode", [Mode.MODE1, Mode.MODE2])
def test_orbit_on_a_node_by_point_grid_is_each_points_orbit(mode):
    # Amplitude rows against a column of taus give (4, taus, points), each
    # entry bit for bit the scalar orbit of its point at its tau.
    amplitudes = np.random.default_rng(3).uniform(-2.0, 2.0, (2, 5))
    taus = np.linspace(0.0, mode.period, 7)
    grid = unperturbed_orbit(mode, amplitudes, taus[:, None])
    assert grid.shape == (4, 7, 5)
    for i, tau in enumerate(taus):
        for j, alpha in enumerate(amplitudes.T):
            single = unperturbed_orbit(mode, alpha, tau)
            assert single.shape == (4,)
            assert single.tobytes() == grid[:, i, j].tobytes()


@pytest.mark.parametrize("mode", [Mode.MODE1, Mode.MODE2])
def test_orbit_matches_modal_closed_form(mode):
    taus = np.linspace(0.0, mode.period, 17)
    orbit = unperturbed_orbit(mode, (0.7, -1.1), taus)
    via_modal = INVERSE_MODAL_MATRIX @ modal_orbit(mode, (0.7, -1.1), taus)
    assert np.abs(orbit - via_modal).max() <= 1e-14


@pytest.mark.parametrize("mode", [Mode.MODE1, Mode.MODE2])
def test_orbit_satisfies_ode_to_second_order(mode):
    """Central-difference derivative of the closed form matches the field O(h^2)."""
    spec = _coro1_spec()
    alpha = (1.3, 0.4)
    taus = np.linspace(0.2, 0.2 + mode.period, 9)

    def max_error(h):
        worst = 0.0
        for tau in taus:
            fd = (
                unperturbed_orbit(mode, alpha, tau + h)
                - unperturbed_orbit(mode, alpha, tau - h)
            ) / (2.0 * h)
            rhs = oracles.fast_field(spec, 0.0)(tau, unperturbed_orbit(mode, alpha, tau))
            worst = max(worst, float(np.abs(fd - rhs).max()))
        return worst

    e1, e2 = max_error(1e-2), max_error(5e-3)
    assert e1 < 1e-3
    assert 3.0 < e1 / e2 < 5.0  # halving h quarters the defect


def test_modal_amplitudes_conserved_along_closed_form():
    taus = np.linspace(0.0, 3.0 * T1, 64)
    states = unperturbed_orbit(Mode.MODE1, (0.9, 0.2), taus)
    # X^2 + Y^2 and Z^2 + W^2, the rotation invariants of the mode planes.
    squares = (MODAL_MATRIX @ states) ** 2
    slow, fast = squares[0] + squares[1], squares[2] + squares[3]
    assert np.abs(slow - slow[0]).max() <= 1e-12
    assert np.abs(fast).max() <= 1e-25


# ---------------------------------------------------------------------------
# Fundamental matrix
# ---------------------------------------------------------------------------

def test_fundamental_matrix_identity_at_zero():
    assert np.abs(fundamental_matrix(0.0) - np.eye(4)).max() == 0.0


def test_fundamental_matrix_orthogonal_blocks():
    rng = np.random.default_rng(11)
    for tau in rng.uniform(-20.0, 20.0, size=12):
        m = fundamental_matrix(tau)
        assert np.abs(m @ m.T - np.eye(4)).max() <= 1e-12


def test_fundamental_matrix_solves_variational_equation():
    h = 1e-6
    for tau in (0.0, 0.7, 3.9):
        dm = (fundamental_matrix(tau + h) - fundamental_matrix(tau - h)) / (2.0 * h)
        assert np.abs(dm - LINEAR_MODAL @ fundamental_matrix(tau)).max() <= 1e-8


def test_period_map_block_determinant():
    diff = np.linalg.inv(fundamental_matrix(0.0)) - np.linalg.inv(fundamental_matrix(T1))
    assert np.abs(diff[:2, :]).max() <= 1e-10  # slow-mode rows vanish after one T1
    lower = diff[2:, 2:]
    assert abs(np.linalg.det(lower) - oracles.BLOCK_DET) <= 1e-10
    # the displayed entries: diagonal 2 sin^2(sqrt2 pi), off-diagonal +/- sin(2 sqrt2 pi)
    assert lower[0, 0] == pytest.approx(2.0 * math.sin(SQRT2 * math.pi) ** 2, abs=1e-12)
    assert lower[0, 1] == pytest.approx(math.sin(2.0 * SQRT2 * math.pi), abs=1e-12)
    assert lower[1, 0] == pytest.approx(-math.sin(2.0 * SQRT2 * math.pi), abs=1e-12)


# ---------------------------------------------------------------------------
# Perturbation spec and the periodicity audit
# ---------------------------------------------------------------------------

def test_spec_rejects_non_coprime_resonance():
    with pytest.raises(ValueError, match="coprime"):
        PerturbationSpec.from_strings("0", "sin(w1 * tau)", "mode1", 2, 4)


def test_spec_accepts_presets():
    oracles.make_spec("corollary1")
    oracles.make_spec("corollary2")


def test_spec_accepts_higher_resonance():
    # period 2 T1 forcing, claimed as p=2, q=1
    PerturbationSpec.from_strings("0", "sin(w1 * tau / 2)", "mode1", 2, 1)
    # period T1/3 forcing, claimed as p=1, q=3
    PerturbationSpec.from_strings("0", "sin(3 * w1 * tau)", "mode1", 1, 3)


def test_spec_audits_periodicity():
    # sin(tau) has period 2 pi, not T1: hard config error
    with pytest.raises(PeriodicityError, match="periodic"):
        PerturbationSpec.from_strings("0", "sin(tau)", "mode1", 1, 1)


def test_spec_audit_catches_wrong_mode():
    with pytest.raises(PeriodicityError):
        PerturbationSpec.from_strings("0", "sin(w1 * tau)", "mode2", 1, 1)


def test_forcing_periods():
    spec = PerturbationSpec.from_strings("0", "sin(w1 * tau / 2)", "mode1", 2, 1)
    assert spec.forcing_period == pytest.approx(2.0 * T1, rel=1e-15)
    assert spec.full_period == pytest.approx(2.0 * T1, rel=1e-15)
