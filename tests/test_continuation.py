"""Integrators, predictions, and period-map shooting."""

import collections
import functools
import math

import numpy as np
import pytest

import oracles
import pendavg.cli as cli
import pendavg.continuation as continuation
import pendavg.model as model
from pendavg.averaging import AveragedSystem
from pendavg.constants import T1
from pendavg.continuation import (
    IntegrationError,
    ShootingError,
    flow_map,
    predicted_initial_state,
    sample_states,
    shoot_many,
    shoot_periodic,
    verify_zero,
)
from pendavg.expr import ExprDomainError
from pendavg.model import (
    INVERSE_MODAL_MATRIX,
    MODAL_MATRIX,
    Mode,
    PerturbationSpec,
    compiled_forcing,
    slow_field,
    unperturbed_orbit,
)
from pendavg.newton import solve_many

def _coro1():
    return oracles.make_spec("corollary1")


def _flow_samples(spec, eps, x0, taus, faults=None):
    """``sample_states`` read from the record of a ``flow_map`` to the last time."""
    steps = []
    flow_map(spec, eps, x0, taus[-1], steps, faults)
    return sample_states(spec, eps, x0, taus, steps, faults)


# ---------------------------------------------------------------------------
# Integrators
# ---------------------------------------------------------------------------

@pytest.fixture
def tight(monkeypatch):
    """DOP853 at tolerance 1e-12 on the slow deviation."""
    monkeypatch.setattr(continuation, "DOP853_TOL", 1e-12)


def test_unforced_flow_matches_closed_form(tight):
    spec = _coro1()
    x0 = unperturbed_orbit(Mode.MODE1, (1.0, 0.0), 0.0)
    taus = np.linspace(0.0, T1, 33)
    exact = unperturbed_orbit(Mode.MODE1, (1.0, 0.0), taus)
    assert np.abs(_flow_samples(spec, 0.0, x0, taus) - exact).max() <= 1e-9
    assert np.abs(oracles.rk4(spec, 0.0, x0, taus, T1 / 4096) - exact).max() <= 1e-9


def test_zero_initial_state_stays_zero(tight):
    spec = _coro1()
    states = _flow_samples(spec, 0.0, np.zeros(4), np.linspace(0.0, 5.0, 11))
    assert np.abs(states).max() == 0.0


def test_forced_samples_match_separate_flows():
    # Samples read from one flow through all the sample times agree with a
    # fresh integration to each; tau = 0 and a repeated time return the
    # state already reached.
    spec = _coro1()
    eps = 1e-2
    x0 = predicted_initial_state(Mode.MODE1, (oracles.CORO1_X0, 0.0))
    taus = [0.0, 0.0, 0.3, 1.7, 1.7, 4.0, T1]
    states = _flow_samples(spec, eps, x0, taus)
    assert states.shape == (4, len(taus))
    assert np.all(states[:, 0] == x0) and np.all(states[:, 1] == x0)
    assert np.all(states[:, 3] == states[:, 4])
    for j in range(2, len(taus)):
        assert np.abs(states[:, j] - flow_map(spec, eps, x0, taus[j])).max() <= 1e-10


@pytest.mark.parametrize(
    "taus", [[2.0, 1.0], [-1.0, 1.0], [0.5, float("nan")], [0.0, float("inf")]]
)
def test_sample_states_rejects_unordered_times(taus):
    spec = _coro1()
    with pytest.raises(ValueError, match="non-decreasing"):
        sample_states(spec, 1e-2, np.ones(4), taus, [])


def test_flow_map_rejects_an_infinite_period():
    # An infinite end time would step until DOP853_MAX_STEPS.
    spec = _coro1()
    with pytest.raises(ValueError, match="finite"):
        flow_map(spec, 1e-2, np.ones(4), float("inf"))


@pytest.mark.parametrize("tol", [0.0, -1e-9, math.nan, math.inf, [1e-9, 0.0]])
def test_flow_map_rejects_a_tolerance_that_is_not_finite_and_positive(monkeypatch, tol):
    # 0 and NaN would fault every column as non-finite, and a negative
    # tolerance would pass as its absolute value.  Refused before any step.
    spec = _coro1()
    monkeypatch.setattr(continuation, "_dop853_step", None)
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        flow_map(spec, 1e-2, np.ones((4, 2)), T1, tol=tol)


def test_a_tolerance_per_column_flows_each_column_at_its_own():
    # Each column of a batch with one tolerance per column ends bit for bit
    # as it ends alone at that tolerance.
    spec = _coro1()
    tols, states = np.array([1e-9, 1e-7, 1e-5]), np.ones((4, 3))
    ends = flow_map(spec, 1e-2, states, T1, tol=tols)
    for j, tol in enumerate(tols):
        assert ends[:, j].tobytes() == flow_map(spec, 1e-2, states[:, j], T1, tol=tol).tobytes()
    assert ends[:, 0].tobytes() == flow_map(spec, 1e-2, states[:, 0], T1).tobytes()
    assert np.unique(ends.T, axis=0).shape[0] == 3


def test_recorded_flow_samples_equal_a_pass_to_its_end():
    # Samples read from a flow_map record are bit for bit those read, with
    # one more time, from another flow to the same end: both take the same
    # steps from the same first step.  A time past the recorded end is
    # refused.
    spec = _coro1()
    x0 = predicted_initial_state(Mode.MODE1, (oracles.CORO1_X0, 0.0))
    states = x0[:, None] + np.random.default_rng(11).normal(scale=0.05, size=(4, 3))
    eps = np.array([1e-2, 0.0, 1e-3])
    taus = [0.0, 0.0, 0.4, 2.5, 2.5, 7.0, T1 - 1e-3]
    steps = []
    ends = flow_map(spec, eps, states, T1, steps)
    assert ends.tobytes() == flow_map(spec, eps, states, T1).tobytes()
    recorded = sample_states(spec, eps, states, taus, steps)
    own_pass = _flow_samples(spec, eps, states, [*taus, T1])[..., :-1]
    assert recorded.tobytes() == own_pass.tobytes()
    with pytest.raises(ValueError, match="recorded flow"):
        sample_states(spec, eps, states, [0.0, 2.0 * T1], steps)


def test_modal_invariants_drift_over_ten_periods(tight):
    spec = _coro1()
    x0 = unperturbed_orbit(Mode.MODE1, (0.8, -0.5), 0.0)
    end = flow_map(spec, 0.0, x0, 10.0 * T1)
    # X^2 + Y^2 and Z^2 + W^2, the rotation invariants of the mode planes.
    start_sq, end_sq = (MODAL_MATRIX @ x0) ** 2, (MODAL_MATRIX @ end) ** 2
    for plane in (slice(0, 2), slice(2, 4)):
        assert np.abs(end_sq[plane].sum(axis=0) - start_sq[plane].sum(axis=0)).max() <= 1e-10


def test_rk4_global_error_is_fourth_order():
    spec = _coro1()
    x0 = unperturbed_orbit(Mode.MODE1, (1.0, 0.0), 0.0)
    exact = unperturbed_orbit(Mode.MODE1, (1.0, 0.0), T1)

    def error(n_steps):
        end = oracles.rk4(spec, 0.0, x0, (0.0, T1), T1 / n_steps)[:, -1]
        return float(np.abs(end - exact).max())

    ratio = error(128) / error(256)
    assert 8.0 < ratio < 32.0  # nominal 16 per halving


def test_dop853_step_budget(monkeypatch):
    spec = _coro1()
    monkeypatch.setattr(continuation, "DOP853_TOL", 1e-13)
    monkeypatch.setattr(continuation, "DOP853_MAX_STEPS", 10)
    with pytest.raises(IntegrationError):
        flow_map(spec, 0.0, unperturbed_orbit(Mode.MODE1, (1.0, 0.0), 0.0), T1)


def test_forcing_blowup_reported_mid_flight(tight):
    spec = PerturbationSpec.from_strings("0", "exp(th2)", "mode1", 1, 1)
    with pytest.raises(ExprDomainError):
        flow_map(spec, 1.0, np.array([0.0, 0.0, 710.0, 0.0]), 1.0)


def test_a_stalled_step_fails_at_once(monkeypatch):
    # Near a finite-time blow-up the step falls below half the spacing of
    # doubles at tau, so t + h == t and the column cannot advance; it fails
    # there instead of spinning through the step budget.
    spec = PerturbationSpec.from_strings("0", "th2d^2", "mode1", 1, 1)
    monkeypatch.setattr(continuation, "DOP853_MAX_STEPS", 20000)
    with pytest.raises(IntegrationError, match="underflow"):
        flow_map(spec, 1.0, np.array([0.0, 0.0, 0.0, 3.0]), T1)


def test_every_column_is_its_own_run_bit_for_bit(monkeypatch):
    # Columns at their own eps, with eps = 0 among them, end where each
    # ends alone, in any batch.
    spec = _coro1()
    x0 = predicted_initial_state(Mode.MODE1, (oracles.CORO1_X0, 0.0))
    states = x0[:, None] + np.random.default_rng(5).normal(scale=0.05, size=(4, 6))
    eps = np.array([1e-2, 0.0, 1e-3, 1e-4, 5e-3, 1e-2])
    taus = [0.0, 0.5, 0.5, 3.0, T1]
    ends = flow_map(spec, eps, states, T1)
    samples = _flow_samples(spec, eps, states, taus)
    assert ends.shape == (4, 6) and samples.shape == (4, 6, len(taus))
    for j in range(6):
        assert ends[:, j].tobytes() == flow_map(spec, eps[j], states[:, j], T1).tobytes()
        alone = _flow_samples(spec, eps[j], states[:, j], taus)
        assert samples[:, j].tobytes() == alone.tobytes()
    pick = [4, 1, 3]
    assert ends[:, pick].tobytes() == flow_map(spec, eps[pick], states[:, pick], T1).tobytes()
    # Another tolerance, shared by every column: clocks still apart.
    monkeypatch.setattr(continuation, "DOP853_TOL", 1e-12)
    ends = flow_map(spec, eps, states, T1)
    for j in range(6):
        assert ends[:, j].tobytes() == flow_map(spec, eps[j], states[:, j], T1).tobytes()


def _faulting_columns(monkeypatch):
    """A spec and three ``(4, 3)`` starts at their own eps: clean, overflowing, out of steps.

    The second overflows exp(th2) at tau = 0, as in
    test_forcing_blowup_reported_mid_flight; the third, at eps = 1, needs
    more than the 300 steps allowed.
    """
    spec = PerturbationSpec.from_strings("0", "sin(40 * w1 * tau) + exp(th2)", "mode1", 1, 1)
    monkeypatch.setattr(continuation, "DOP853_TOL", 1e-8)
    monkeypatch.setattr(continuation, "DOP853_MAX_STEPS", 300)
    x0 = predicted_initial_state(Mode.MODE1, (1.0, 0.0))
    starts = np.stack([x0, np.array([0.0, 0.0, 710.0, 0.0]), x0], axis=1)
    return spec, starts, np.array([1e-3, 1e-3, 1.0])


def _raised(call):
    with pytest.raises((ExprDomainError, IntegrationError)) as info:
        call()
    return type(info.value), str(info.value)


def test_a_faulting_column_leaves_its_flow_alone(monkeypatch):
    # In a flow, and in samples read from its record, each faulting column
    # is entered with what it raises alone, in the order met: the overflow
    # at the first stage, then the step budget.  It comes back NaN, and the
    # clean column keeps its bits.  Without a dict the call raises the
    # first entry.
    spec, starts, eps = _faulting_columns(monkeypatch)
    taus = [0.0, 1.0, T1]
    for run in (
        lambda j, *f: flow_map(spec, eps[j], starts[:, j], T1, None, *f),
        lambda j, *f: _flow_samples(spec, eps[j], starts[:, j], taus, *f),
    ):
        faults = {}
        out = run(slice(None), faults)
        assert list(faults) == [1, 2]
        assert np.isnan(out[:, 1:]).all()
        assert out[:, 0].tobytes() == run(0).tobytes()
        for j in (1, 2):
            assert _raised(lambda: run(j)) == (type(faults[j]), str(faults[j]))
        assert _raised(lambda: run(slice(None))) == (type(faults[1]), str(faults[1]))


def test_a_faulted_column_leaves_sampling_its_record_alone(monkeypatch):
    # A faulted column's record stops where it faulted, so it does not reach
    # the last time; it is sampled as NaN, and the clean column as its own
    # flow to T1, which takes the same steps, samples it.  A time past the
    # end of the clean column is still refused.
    spec, starts, eps = _faulting_columns(monkeypatch)
    steps, faults = [], {}
    flow_map(spec, eps, starts, T1, steps, faults)
    assert sorted(faults) == [1, 2]
    taus = [0.0, 1.0, 2.0, T1 - 1e-3]
    out = sample_states(spec, eps, starts, taus, steps, faults)
    own = _flow_samples(spec, eps[0], starts[:, 0], taus + [T1])[:, :-1]
    assert out[:, 0].tobytes() == own.tobytes()
    assert np.isnan(out[:, 1:]).all()
    with pytest.raises(ValueError, match="recorded flow"):
        sample_states(spec, eps, starts, [0.0, 2.0 * T1], steps, faults)


def test_a_faulting_column_fails_only_its_own_start(monkeypatch):
    # Three starts share each period-map call, each at its own eps.  The
    # two that fault end with what they meet alone, and the third ends
    # exactly as it ends alone.
    spec, starts, eps = _faulting_columns(monkeypatch)

    def F(cols, owner, faults):
        return flow_map(spec, eps[owner], cols, T1, None, faults) - cols

    outcomes = solve_many(F, starts, 1e-10)
    assert isinstance(outcomes[1], ExprDomainError)
    assert isinstance(outcomes[2], IntegrationError)
    for j in range(3):
        alone = solve_many(
            lambda cols, owner, faults: F(cols, owner + j, faults), starts[:, j : j + 1], 1e-10
        )[0]
        if j:
            assert (type(alone), str(alone)) == (type(outcomes[j]), str(outcomes[j]))
        else:
            x, residual, steps, jac = outcomes[0][:4]
            assert (x.tobytes(), residual, steps, jac.tobytes()) == (
                alone.x.tobytes(), alone.residual, alone.steps, alone.jacobian.tobytes()
            )


@pytest.mark.parametrize("wraps", [False, True], ids=["plain", "functools-wraps"])
def test_wrapped_forcing_is_called_as_is(monkeypatch, wraps):
    # A forcing wrapped to count its calls, plainly or with functools.wraps,
    # is called through its wrapper and gives the same bits.
    spec = _coro1()
    x0 = predicted_initial_state(Mode.MODE1, (oracles.CORO1_X0, 0.0))
    direct = flow_map(spec, 1e-2, x0, T1)
    calls = []

    def counted(spec):
        def wrap(f):
            def count(*args):
                calls.append(1)
                return f(*args)

            return functools.wraps(f)(count) if wraps else count

        return tuple(map(wrap, compiled_forcing(spec)))

    monkeypatch.setattr(continuation, "compiled_forcing", counted)
    assert flow_map(spec, 1e-2, x0, T1).tobytes() == direct.tobytes()
    assert calls


def test_step_count_does_not_depend_on_eps(monkeypatch):
    # DOP853 steps the slow deviation, whose field does not scale with eps, so
    # a period costs the same forcing calls at every eps, eps = 0 included.
    spec = _coro1()
    x0 = predicted_initial_state(Mode.MODE1, (oracles.CORO1_X0, 0.0))
    calls = []

    def counted(spec):
        def wrap(f):
            def count(*args):
                calls.append(1)
                return f(*args)

            return count

        return tuple(map(wrap, compiled_forcing(spec)))

    monkeypatch.setattr(continuation, "compiled_forcing", counted)
    counts = []
    for eps in (1e-2, 1e-4, 1e-6, 0.0):
        calls.clear()
        flow_map(spec, eps, x0, spec.full_period)
        counts.append(len(calls))
    assert counts[0] > 0 and counts == [counts[0]] * 4


@pytest.mark.parametrize("which", ["corollary1", "corollary2"])
def test_slow_deviation_at_eps_zero_is_the_mean_pair(which):
    # At eps = 0 the slow deviation integrates the forcing along the
    # unperturbed orbit, so over the full period its resonant rows are the
    # period times the mean bifurcation pair: the shooting and averaging
    # halves of the pipeline compute the same integral.
    spec = oracles.make_spec(which)
    forcing = compiled_forcing(spec)
    period = spec.full_period
    rows = slice(0, 2) if spec.mode is Mode.MODE1 else slice(2, 4)
    for alpha in [(1.3, -0.7), (3.0, 5.0)]:
        x0 = predicted_initial_state(spec.mode, alpha)[:, None]
        v = continuation._slow_deviation(forcing, np.zeros(1), x0, period)[..., None]
        mean = AveragedSystem(spec, 1e-13)(alpha)
        slow = v[rows, 0, -1] / period
        assert np.abs(slow - mean).max() <= 1e-9 * np.abs(mean).max()


@pytest.mark.parametrize("which", ["corollary1", "corollary2"])
@pytest.mark.parametrize("eps", [1e-2, 1e-4])
def test_slow_form_agrees_with_fast_state_rk4(which, eps):
    # DOP853 steps the slow deviation and maps it back through M, M^-1 and
    # Phi; the reference's fixed-step RK4 steps the state itself.  Their endpoints
    # agree off the prediction, so the signs of that map are right.
    spec = oracles.make_spec(which)
    alpha = (oracles.CORO1_X0, 0.0) if which == "corollary1" else (0.0, oracles.CORO2_W0)
    x0 = predicted_initial_state(spec.mode, alpha) + 0.01
    period = spec.full_period
    slow = flow_map(spec, eps, x0, period)
    fast = oracles.rk4(spec, eps, x0, (0.0, period), period / 8192)[:, -1]
    assert np.abs(slow - fast).max() <= 1e-10


def test_dop853_tableau_is_consistent():
    # The transcribed coefficients: each row of A sums to its node, the
    # weights integrate t^k exactly for k <= 7, and both error estimates
    # vanish on a constant field.
    C, A = continuation._C, continuation._A
    assert len(C) == 16 and [len(row) for row in A] == list(range(1, 16))
    for i, row in enumerate(A, start=1):
        assert abs(math.fsum(row) - C[i]) <= 1e-15 * math.fsum(map(abs, row)) + 1e-16, i
    weights = A[11]
    for k in range(8):
        quad = math.fsum(b * c**k for b, c in zip(weights, C))
        assert abs(quad - 1.0 / (k + 1)) <= 1e-15 * math.fsum(map(abs, weights)), k
    for e in (continuation._E3, continuation._E5):
        assert len(e) == 12 and abs(math.fsum(e)) <= 1e-15 * math.fsum(map(abs, e))


def _smooth_field(taus):
    # The integrator's field interface at the (s, m) stage times taus, with
    # no state map.  Rows 0-1: y' = y^2, so y(t) = y0 / (1 - y0 t); rows
    # 2-3: y' = cos(t) y, so y(t) = y0 exp(sin t).
    def rhs(i, y):
        return np.concatenate([y[:2] ** 2, np.cos(taus[i]) * y[2:]])

    return rhs, None


def _smooth_exact(y0, t):
    return np.concatenate([y0[:2] / (1.0 - y0[:2] * t), y0[2:] * np.exp(np.sin(t))])


def _one_step(h):
    """One DOP853 step of ``_smooth_field`` from t = 0: the start, the end, and the interpolant."""
    y0 = np.array([[0.5], [0.3], [1.0], [-0.3]])
    t, h = np.zeros(1), np.full(1, h)
    k = np.empty((16, 4, 1))
    y1 = continuation._dop853_step(_smooth_field, t, y0, h, k, 0)[0]
    return y0, y1, continuation._dense_output(_smooth_field, t, y0, h, k, y1)


@pytest.mark.parametrize("which", ["corollary1", "corollary2"])
@pytest.mark.parametrize("m", [1, 4, 36])
def test_a_step_from_one_rotation_equals_the_stage_by_stage_reference(which, m):
    # A DOP853 step, its first stage included, and its dense output, driven
    # by slow_field's one rotation per call, equal bit for bit the same
    # step on the pair-row field (tests/oracles.py), which turns each
    # stage's planes on their own.
    forcing = compiled_forcing(oracles.make_spec(which))
    rng = np.random.default_rng(m)
    eps, x0 = rng.uniform(-0.1, 0.1, m), rng.normal(0.0, 3.0, (4, m))
    t, h, y = rng.uniform(0.0, 40.0, m), rng.uniform(0.05, 0.5, m), rng.normal(0.0, 1.0, (4, m))
    rhs_ref, state_ref = oracles.pair_row_slow_field(forcing, eps, x0)

    def stage_by_stage(taus):
        return (lambda i, v: rhs_ref(taus[i], v)), (lambda i, v: state_ref(taus[i], v))

    ends = []
    for field in (slow_field(forcing, eps, x0), stage_by_stage):
        k = np.empty((16, 4, m))
        y_new, err5, err3 = continuation._dop853_step(field, t, y, h, k, 0)
        coeffs = continuation._dense_output(field, t, y, h, k, y_new)
        ends.append([a.tobytes() for a in (y_new, err5, err3, coeffs, k)])
    assert ends[0] == ends[1]


def test_dop853_local_error_is_ninth_order():
    # Halving h divides the local error by about 2^9; a mistyped stage
    # weight drops the order and the ratio with it.
    def local_error(h):
        y0, y1, _ = _one_step(h)
        return float(np.abs(y1 - _smooth_exact(y0, h)).max())

    ratio = local_error(0.4) / local_error(0.2)
    assert 2.0**8 < ratio < 2.0**10


def test_dense_output_is_seventh_order_and_ends_on_the_step():
    # The interpolant gives the start bit for bit at theta = 0 and the
    # step's end to roundoff at theta = 1.  Mid-step its error is O(h^8):
    # halving h divides it by about 2^8, and a mistyped row of _D drops it.
    y0, y1, coeffs = _one_step(0.4)
    assert coeffs.shape == (7, 4, 1)
    assert continuation._interpolate(y0, coeffs, np.zeros(1)).tobytes() == y0.tobytes()
    assert np.abs(continuation._interpolate(y0, coeffs, np.ones(1)) - y1).max() <= 1e-15

    def mid_error(h):
        y0, _, coeffs = _one_step(h)
        mid = continuation._interpolate(y0, coeffs, np.full(1, 0.5))
        return float(np.abs(mid - _smooth_exact(y0, 0.5 * h)).max())

    ratio = mid_error(0.4) / mid_error(0.2)
    assert 2.0**7 < ratio < 2.0**10


@pytest.mark.parametrize("eps", [1e-2, 1e-3])
@pytest.mark.parametrize(
    "which, alpha",
    [("corollary1", (oracles.CORO1_X0, 0.0)), ("corollary2", (0.0, oracles.CORO2_W0))],
)
def test_interpolated_samples_match_a_tight_pass(monkeypatch, which, alpha, eps):
    # The 256 orbit samples come from the dense output of natural steps;
    # a flow at tolerance 1e-13 from the same start agrees to 1e-10.
    spec = oracles.make_spec(which)
    orbit = shoot_periodic(spec, eps, predicted_initial_state(spec.mode, alpha))
    assert orbit.samples.shape == (4, 256)
    monkeypatch.setattr(continuation, "DOP853_TOL", 1e-13)
    tight = _flow_samples(spec, eps, orbit.initial_state, orbit.samples_tau)
    assert np.abs(orbit.samples - tight).max() <= 1e-10


# ---------------------------------------------------------------------------
# Predictions
# ---------------------------------------------------------------------------

def test_predicted_initial_state_for_slow_zero():
    x0 = 2.0 * math.sqrt(2.0 * (2.0 - math.sqrt(2.0)))
    state = predicted_initial_state(Mode.MODE1, (x0, 0.0))
    assert state[0] == pytest.approx(2.0, rel=1e-14)
    assert state[1] == 0.0
    assert state[2] == pytest.approx(2.0 * math.sqrt(2.0), rel=1e-14)
    assert state[3] == 0.0


def test_predicted_initial_state_origin():
    assert np.all(predicted_initial_state(Mode.MODE1, (0.0, 0.0)) == 0.0)
    assert np.all(predicted_initial_state(Mode.MODE2, (0.0, 0.0)) == 0.0)


@pytest.mark.parametrize("mode", [Mode.MODE1, Mode.MODE2])
def test_prediction_equals_modal_embedding(mode):
    rng = np.random.default_rng(23)
    for _ in range(50):
        alpha = rng.uniform(-3.0, 3.0, size=2)
        embedded = np.zeros(4)
        if mode is Mode.MODE1:
            embedded[:2] = alpha
        else:
            embedded[2:] = alpha
        direct = predicted_initial_state(mode, alpha)
        via_modal = INVERSE_MODAL_MATRIX @ embedded
        assert np.abs(direct - via_modal).max() <= 1e-12


# ---------------------------------------------------------------------------
# Shooting
# ---------------------------------------------------------------------------

def test_shoot_rejects_eps_zero():
    spec = _coro1()
    with pytest.raises(ShootingError, match="singular"):
        shoot_periodic(spec, 0.0, np.ones(4))


def test_shoot_corollary1_slow_zero():
    spec = _coro1()
    eps = 1e-2
    pred = predicted_initial_state(Mode.MODE1, (oracles.CORO1_X0, 0.0))
    orbit = shoot_periodic(spec, eps, pred)
    assert orbit.residual <= 1e-9
    assert orbit.distance_to_prediction <= 10.0 * eps
    assert orbit.period == pytest.approx(T1, abs=0)
    # the returned state really is a fixed point of the period map
    end = flow_map(spec, eps, orbit.initial_state, orbit.period)
    assert np.linalg.norm(end - orbit.initial_state) <= 1e-9


def test_shoot_corollary2_zero_distance_scales_linearly():
    spec = oracles.make_spec("corollary2")
    orbits = verify_zero(spec, (0.0, oracles.CORO2_W0), (1e-2, 5e-3))
    for orbit in orbits:
        assert orbit.residual <= 1e-9
        assert orbit.distance_to_prediction <= 10.0 * orbit.epsilon
    r1 = orbits[0].distance_to_prediction / orbits[0].epsilon
    r2 = orbits[1].distance_to_prediction / orbits[1].epsilon
    assert abs(r1 / r2 - 1.0) < 0.5


def test_antipodal_orbits_are_self_symmetric_and_merge():
    """Shift by half a period and flip the sign: each orbit maps to itself.

    The orbits seeded from alpha and -alpha are distinct at finite eps (the
    forcing is non-autonomous, so a half-period phase shift changes the
    equation) but approach the same curve linearly as eps -> 0.
    """
    spec = _coro1()
    eps = 1e-3
    results = []
    for sign in (1.0, -1.0):
        pred = predicted_initial_state(Mode.MODE1, (sign * oracles.CORO1_X0, 0.0))
        results.append(shoot_periodic(spec, eps, pred, n_samples=256))
    plus, minus = results
    assert plus.residual <= 1e-9 and minus.residual <= 1e-9
    for orbit in results:
        half_shift = np.roll(orbit.samples, -128, axis=1)
        assert np.abs(half_shift + orbit.samples).max() <= 1e-9
    a = minus.samples.T[:, None, :] - plus.samples.T[None, :, :]
    dists = np.linalg.norm(a, axis=2)
    hausdorff = max(dists.min(axis=1).max(), dists.min(axis=0).max())
    assert hausdorff <= 5.0 * eps


def test_shoot_double_period_resonance():
    # 2:1 resonance: the orbit closes after two slow-mode periods.
    spec = PerturbationSpec.from_strings(
        "0", "(1 - th1^2) * sin(w1 * tau) * (1 + sin(w1 * tau / 2))", "mode1", 2, 1
    )
    pred = predicted_initial_state(Mode.MODE1, (oracles.CORO1_X0, 0.0))
    orbit = shoot_periodic(spec, 1e-3, pred)
    assert orbit.period == pytest.approx(2.0 * T1, abs=0)
    assert orbit.residual <= 1e-9
    assert orbit.distance_to_prediction <= 10.0 * 1e-3


def test_shoot_reports_conditioning(monkeypatch):
    # Any displacement Jacobian here has condition number well above 10, so a
    # lowered limit must trip the "epsilon too small" guard once Newton
    # actually needs the Jacobian (an offset guess forces an iteration).
    spec = _coro1()
    pred = predicted_initial_state(Mode.MODE1, (oracles.CORO1_X0, 0.0)) + 0.05
    monkeypatch.setattr(continuation, "COND_LIMIT", 10.0)
    with pytest.raises(ShootingError, match="condition"):
        shoot_periodic(spec, 1e-2, pred)


def test_shooting_newton_matches_the_scalar_loop():
    # One start: the lockstep solver must call the period map on the same
    # column widths as the scalar loop and end on the same bits, so `verify`
    # output does not move.  Both full steps are taken, each trial with its
    # stencil: three flows of 9 columns.
    spec = _coro1()
    eps = 1e-3
    guess = predicted_initial_state(Mode.MODE1, (oracles.CORO1_X0, 0.0))

    def run(solve):
        widths = []

        def F(cols, *_):
            widths.append(cols.shape[1])
            return flow_map(spec, eps, cols, spec.full_period) - cols

        x, residual, steps, jac = solve(F)[:4]
        return widths, x.tobytes(), residual, steps, jac.tobytes()

    lockstep = run(lambda F: solve_many(F, guess[:, None], 1e-10, cond_limit=1e12)[0])
    assert lockstep == run(lambda F: oracles.scalar_damped_newton(F, guess, 1e-10, cond_limit=1e12))
    assert lockstep[0] == [9, 9, 9] and lockstep[3] == 2


@pytest.mark.parametrize(
    "which, alpha",
    [("corollary2", (0.0, oracles.CORO2_W0)), ("corollary1", (oracles.CORO1_X0, 0.0))],
)
def test_batched_ladder_equals_shooting_each_eps_alone(which, alpha):
    spec = oracles.make_spec(which)
    ladder = (1e-2, 5e-3, 2.5e-3, 1e-3)
    guess = predicted_initial_state(spec.mode, alpha)
    batched = verify_zero(spec, alpha, ladder)
    for orbit, eps in zip(batched, ladder):
        alone = shoot_periodic(spec, eps, guess)
        assert orbit.epsilon == eps
        assert orbit.initial_state.tobytes() == alone.initial_state.tobytes()
        assert orbit.residual == alone.residual
        assert orbit.iterations == alone.iterations
        assert orbit.samples.tobytes() == alone.samples.tobytes()


def test_orbit_samples_come_from_the_flow_that_converged():
    # A case that ends after a line-search trial, and one restarted from
    # its solution, which settles at the base of its first stencil: each
    # orbit is sampled from that flow, bit for bit a flow to the period's end.
    spec = _coro1()
    eps = 1e-2
    orbit = shoot_periodic(spec, eps, predicted_initial_state(Mode.MODE1, (oracles.CORO1_X0, 0.0)))
    again = shoot_periodic(spec, eps, orbit.initial_state)
    assert orbit.iterations > 0 and again.iterations == 0
    for o in (orbit, again):
        own_pass = _flow_samples(spec, eps, o.initial_state, [*o.samples_tau, o.period])
        assert o.samples.tobytes() == own_pass[:, :-1].tobytes()


_PRESET_ZEROS = {"corollary1": oracles.CORO1_ZEROS, "corollary2": [(0.0, oracles.CORO2_W0)]}


@pytest.mark.parametrize("which", ["corollary1", "corollary2"])
def test_only_the_guesses_flow_is_rough(monkeypatch, which):
    # Every zero of the preset on the 4-eps ladder, shot as `verify` shoots
    # them: the guesses' stencils flow at DOP853_ROUGH_TOL, both full steps
    # at DOP853_TOL.  Each converged orbit is within the shooting tolerance
    # of a fixed point of a flow at tolerance 1e-12.
    spec = oracles.make_spec(which)
    ladder, shoot_tol = (1e-2, 5e-3, 2.5e-3, 1e-3), 1e-10
    cases = [(eps, alpha) for alpha in _PRESET_ZEROS[which] for eps in ladder]
    eps = np.array([e for e, _ in cases])
    guesses = np.stack([predicted_initial_state(spec.mode, a) for _, a in cases], axis=1)
    flow, tols = continuation.flow_map, []

    def recorded(*args):
        tols.append(args[6])
        return flow(*args)

    monkeypatch.setattr(continuation, "flow_map", recorded)
    orbits = shoot_many(spec, eps, guesses, tol=shoot_tol, n_samples=0)
    assert tols == [continuation.DOP853_ROUGH_TOL, continuation.DOP853_TOL, continuation.DOP853_TOL]
    assert continuation.DOP853_ROUGH_TOL > continuation.DOP853_TOL
    monkeypatch.setattr(continuation, "flow_map", flow)
    monkeypatch.setattr(continuation, "DOP853_TOL", 1e-12)
    x = np.stack([orbit.initial_state for orbit in orbits], axis=1)
    residual = np.linalg.norm(flow_map(spec, eps, x, spec.full_period) - x, axis=0)
    assert (residual <= shoot_tol).all(), residual


def test_shoot_many_refuses_negative_n_samples_before_any_flow(monkeypatch):
    spec = _coro1()
    guess = predicted_initial_state(Mode.MODE1, (oracles.CORO1_X0, 0.0))
    calls = []
    flow = continuation.flow_map
    monkeypatch.setattr(continuation, "flow_map", lambda *args: calls.append(1) or flow(*args))
    with pytest.raises(ValueError, match="n_samples"):
        shoot_many(spec, [1e-2], guess, n_samples=-1)
    assert not calls


def test_sampling_integrates_nothing(monkeypatch):
    # The orbits are sampled from the steps their Newton flows recorded:
    # with 256 samples the solve makes the same integrations and the same
    # DOP853 passes as with none.
    spec = _coro1()
    guess = predicted_initial_state(Mode.MODE1, (oracles.CORO1_X0, 0.0))
    deviation, step = continuation._slow_deviation, continuation._dop853_step
    inside, counts = [], []

    def counted_deviation(*args):
        counts[-1][0] += 1
        inside.append(True)
        try:
            return deviation(*args)
        finally:
            inside.pop()

    def counted_step(*args):
        counts[-1][1] += len(inside)
        return step(*args)

    monkeypatch.setattr(continuation, "_slow_deviation", counted_deviation)
    monkeypatch.setattr(continuation, "_dop853_step", counted_step)
    for n_samples in (256, 0):
        counts.append([0, 0])
        guesses = np.repeat(guess[:, None], 2, axis=1)
        orbits = shoot_many(spec, [1e-2, 1e-3], guesses, n_samples=n_samples)
        assert all(orbit.samples.shape == (4, n_samples) for orbit in orbits)
    assert counts[0] == counts[1] and counts[0][1] > counts[0][0] > 0


@pytest.fixture
def tally(monkeypatch):
    """Counts of what flows and rebuilds evaluate: passes, forcing pairs, rotations.

    ``steps`` counts ``_dop853_step`` calls, ``forcing`` the forcing-pair
    calls (of F1, as ``pendbench`` counts right-hand sides) and
    ``rotations`` the evaluations of the rotation ``Phi(-tau)``, each of
    which takes one ``cos`` call in ``pendavg.model``.  Only calls made
    inside ``_slow_deviation`` or ``_dense_samples`` count.
    """
    counts, inside = collections.Counter(), []

    def within(fn):
        def wrapped(*args):
            inside.append(fn)
            try:
                return fn(*args)
            finally:
                inside.pop()

        return wrapped

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += bool(inside)
            return fn(*args, **kwargs)

        return wrapped

    class Numpy:
        cos = staticmethod(counted("rotations", np.cos))

        def __getattr__(self, name):
            return getattr(np, name)

    monkeypatch.setattr(model, "np", Numpy())
    for name in ("_slow_deviation", "_dense_samples"):
        monkeypatch.setattr(continuation, name, within(getattr(continuation, name)))
    monkeypatch.setattr(continuation, "_dop853_step", counted("steps", continuation._dop853_step))
    compiled = continuation.compiled_forcing

    def forcing(spec):
        f1, f2 = compiled(spec)
        return counted("forcing", f1), f2

    monkeypatch.setattr(continuation, "compiled_forcing", forcing)
    return counts


def test_a_pass_evaluates_the_rotation_once(tally):
    # A lockstep pass takes its step's 12 stages from one rotation at all
    # their times (one per stage, 12 per pass, before); a flow's first
    # stage takes one more.
    spec = _coro1()
    x0 = predicted_initial_state(Mode.MODE1, (oracles.CORO1_X0, 0.0))
    states = x0[:, None] + np.random.default_rng(5).normal(scale=0.05, size=(4, 3))
    flow_map(spec, [1e-2, 1e-3, -1e-2], states, T1)
    assert tally["steps"] > 0
    assert tally["forcing"] == 12 * tally["steps"] + 1
    assert tally["rotations"] == tally["steps"] + 1


def test_a_rebuild_evaluates_the_rotation_at_most_three_times(tally):
    # The 16-stage rebuild of every recorded step takes stages 0-12 from
    # one rotation and the three dense stages from another (16, before).
    spec = _coro1()
    x0 = predicted_initial_state(Mode.MODE1, (oracles.CORO1_X0, 0.0))
    eps, steps = [1e-2, 1e-3], []
    flow_map(spec, eps, np.repeat(x0[:, None], 2, axis=1), T1, steps)
    tally.clear()
    sample_states(spec, eps, np.repeat(x0[:, None], 2, axis=1), np.linspace(0.0, T1, 9), steps)
    assert tally["forcing"] == 16
    assert tally["rotations"] <= 3


@pytest.mark.parametrize("which, passes", [("corollary1", 95), ("corollary2", 105)])
def test_a_preset_verify_makes_its_passes_with_a_rotation_each(tally, capsys, which, passes):
    # Three Newton flows in lockstep passes; each pass evaluates 12
    # forcing pairs and one rotation, and each flow's first stage one more.
    assert cli.main(["verify", "--preset", which]) == 0
    assert '"verified"' in capsys.readouterr().out
    assert tally["steps"] == passes
    assert tally["forcing"] == 12 * passes + 3
    assert tally["rotations"] == passes + 3


@pytest.mark.parametrize("tol", [math.nan, -1.0])
def test_shoot_many_refuses_a_nan_or_negative_tol_before_any_flow(monkeypatch, tol):
    # Such a tolerance would integrate every flow and then stall each case.
    spec = _coro1()
    guess = predicted_initial_state(Mode.MODE1, (oracles.CORO1_X0, 0.0))
    flow, calls = continuation.flow_map, []
    monkeypatch.setattr(continuation, "flow_map", lambda *args: calls.append(1) or flow(*args))
    with pytest.raises(ValueError, match="tol must be non-negative"):
        shoot_many(spec, [1e-2], guess, tol=tol)
    assert not calls


def test_shoot_many_fails_cases_one_by_one(monkeypatch):
    # eps = 0 is refused, and a sampling rebuild that enters a fault for one
    # case's column fails only that case: the other is sampled in the same
    # call, bit for bit as alone.
    spec = oracles.make_spec("corollary2")
    guess = predicted_initial_state(spec.mode, (0.0, oracles.CORO2_W0))
    sample = continuation.sample_states
    calls = []

    def faulty(spec, eps, x0, taus, steps, faults):
        calls.append(eps.size)
        out = sample(spec, eps, x0, taus, steps, faults)
        for c in np.flatnonzero(eps == 5e-3):
            faults.setdefault(int(c), ExprDomainError("synthetic sampling fault"))
        return out

    monkeypatch.setattr(continuation, "sample_states", faulty)
    outcomes = shoot_many(spec, [1e-2, 0.0, 5e-3], np.repeat(guess[:, None], 3, axis=1))
    assert calls == [2]
    assert isinstance(outcomes[1], ShootingError) and "eps=0" in str(outcomes[1])
    assert isinstance(outcomes[2], ExprDomainError) and str(outcomes[2]) == "synthetic sampling fault"
    monkeypatch.setattr(continuation, "sample_states", sample)
    alone = shoot_periodic(spec, 1e-2, guess)
    assert outcomes[0].samples.tobytes() == alone.samples.tobytes()


# The eps of test_faulting_cases_cost_no_flow_of_their_own.
_EIGHT_EPS = [1e-2, 5e-3, 2.5e-3, 1e-3, -1e-3, -1e-2, 2e-2, 3e-3]


@pytest.mark.parametrize("d", ["3e-4", "1e-4", "1e-5"])
def test_faulting_cases_cost_no_flow_of_their_own(monkeypatch, d):
    # Corollary 1's forcing plus a term that is 0 where th2d^2 < X0^2 + d
    # (4.686... is X0^2) and NaN beyond.  On the orbit of the zero (X0, 0),
    # th2d^2 reaches X0^2, so a case faults where its flow strays past the
    # margin.  Each of the eight cases ends as it ends alone: the same
    # fault, or the same orbit bits.
    # The lockstep Newton makes the 3 flows of a clean run (the guesses'
    # stencils and two full steps with theirs), and none of them raises.
    f2 = f"(1 - th1^2) * sin(w1 * tau) + 0 * sqrt(4.686291501015239 + {d} - th2d^2)"
    spec = PerturbationSpec.from_strings("0", f2, "mode1", 1, 1)
    guess = predicted_initial_state(Mode.MODE1, (oracles.CORO1_X0, 0.0))
    flow, calls = continuation.flow_map, []

    def counted(*args):
        calls.append(None)
        out = flow(*args)
        calls[-1] = "returned"
        return out

    monkeypatch.setattr(continuation, "flow_map", counted)
    outcomes = shoot_many(spec, _EIGHT_EPS, np.repeat(guess[:, None], 8, axis=1))
    assert calls == ["returned"] * 3
    assert any(isinstance(o, ExprDomainError) for o in outcomes)
    assert any(not isinstance(o, Exception) for o in outcomes)
    for eps, outcome in zip(_EIGHT_EPS, outcomes):
        try:
            alone = shoot_periodic(spec, eps, guess)
        except ExprDomainError as exc:
            assert (type(outcome), str(outcome)) == (type(exc), str(exc))
            continue
        assert outcome.initial_state.tobytes() == alone.initial_state.tobytes()
        assert outcome.samples.tobytes() == alone.samples.tobytes()
        assert outcome.iterations == alone.iterations
