"""Damped Newton and its central-difference Jacobian on closed-form maps."""

from collections import Counter

import numpy as np
import pytest

import oracles
from pendavg.averaging import AveragedSystem, seed_grid
from pendavg.config import PRESETS
from pendavg.newton import (
    MAX_STEPS,
    NewtonFailure,
    damped_newton,
    evaluate_parts,
    linearize,
    solve_many,
)


class _Recorded:
    """A column map that records every batch it is called with.

    It takes the start indices ``solve_many`` passes and ignores them.
    """

    def __init__(self, F):
        self.F = F
        self.batches = []

    def __call__(self, cols, owner=None):
        self.batches.append(cols.copy())
        return self.F(cols)

    def widths(self):
        return [cols.shape[1] for cols in self.batches]

    def columns(self):
        """How often each column was evaluated, keyed by its bytes."""
        return Counter(col.tobytes() for cols in self.batches for col in cols.T)


def _quadratic(cols):
    x, y, z = cols
    return np.stack([x * x + 2.0 * x * y - z, 3.0 * y * y - x * z + 1.0, z * z])


def _quadratic_jacobian(point):
    x, y, z = point
    return np.array([[2.0 * x + 2.0 * y, 2.0 * x, -1.0], [-z, 6.0 * y, -x], [0.0, 0.0, 2.0 * z]])


def test_linearize_is_one_call_and_matches_the_exact_jacobian():
    F = _Recorded(_quadratic)
    x = np.array([0.3, -2.5, 4.0])
    value, jac = linearize(F, x)
    assert F.widths() == [7]
    cols = F.batches[0]
    assert np.array_equal(cols[:, 0], x)
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    assert np.diag(cols[:, 1:4]) - x == pytest.approx(h, rel=1e-9)
    assert x - np.diag(cols[:, 4:7]) == pytest.approx(h, rel=1e-9)
    assert np.array_equal(value, _quadratic(x[:, None])[:, 0])
    assert np.abs(jac - _quadratic_jacobian(x)).max() <= 1e-8


def _root_pair(cols):
    return np.stack([cols[0] ** 2 - 4.0, cols[1] - 1.0])


def test_damped_newton_converges_and_counts_steps():
    # Plain Newton with the exact Jacobian takes full steps here, and so
    # must the damped loop: same iterates, same step count.
    tol = 1e-12
    x = np.array([3.0, 0.0])
    want = 0
    while np.linalg.norm(_root_pair(x[:, None])[:, 0]) > tol:
        x = x - np.array([(x[0] ** 2 - 4.0) / (2.0 * x[0]), x[1] - 1.0])
        want += 1
    root, residual, steps = damped_newton(_root_pair, [3.0, 0.0], tol)
    assert steps == want > 0
    assert residual <= tol
    assert root == pytest.approx([2.0, 1.0], abs=1e-12)


def test_damped_newton_at_a_root_takes_no_step():
    F = _Recorded(_root_pair)
    root, residual, steps = damped_newton(F, [2.0, 1.0], 1e-12)
    assert (steps, residual) == (0, 0.0)
    assert np.array_equal(root, [2.0, 1.0])
    assert F.widths() == [5]


def test_non_finite_jacobian():
    def F(cols):
        return np.where(cols > 1.0, np.inf, cols - 2.0)

    with pytest.raises(NewtonFailure, match="non-finite"):
        damped_newton(F, [1.0], 1e-12)


def test_singular_jacobian():
    with pytest.raises(NewtonFailure, match="singular"):
        damped_newton(lambda cols: np.ones_like(cols), [0.5, 0.5], 1e-12)


def test_condition_above_the_limit():
    def F(cols):
        return np.stack([cols[0], 1e-6 * cols[1]])

    with pytest.raises(NewtonFailure, match="condition"):
        damped_newton(F, [1.0, 1.0], 1e-12, cond_limit=1e3)
    # Without the limit the same map is solved.
    assert damped_newton(F, [1.0, 1.0], 1e-12)[1] <= 1e-12


def test_a_singular_start_in_a_batch_fails_alone(monkeypatch):
    # At x = 0 the Jacobian of c^2 - 1 has an exact zero pivot.  That start
    # ends before the solve, which runs once per step on the other two.
    solves = []
    solve = np.linalg.solve

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    F = lambda cols, _=None: cols**2 - 1.0  # noqa: E731
    starts = np.array([[2.0, 0.0, 0.5], [3.0, 0.5, 0.7]])
    outcomes = solve_many(F, starts, 1e-12)
    assert len(solves) == 6
    assert isinstance(outcomes[1], NewtonFailure)
    assert str(outcomes[1]) == "singular Jacobian"
    with pytest.raises(NewtonFailure, match="^singular Jacobian$"):
        oracles.scalar_damped_newton(F, starts[:, 1], 1e-12)
    for j, steps in ((0, 6), (2, 5)):
        x, residual, taken = damped_newton(F, starts[:, j], 1e-12)
        assert (outcomes[j][0].tobytes(), *outcomes[j][1:]) == (x.tobytes(), residual, taken)
        assert taken == steps


def test_each_start_fails_on_its_own_condition_number():
    # Start i scales its second row by 10^-(6 - i): condition 1e6, 1e5, 1e4
    # and 1e3.  Above the limit 2e3, each message quotes its own number.
    def F(cols, owner):
        return np.stack([cols[0], 10.0 ** (owner - 6.0) * cols[1]])

    outcomes = solve_many(F, np.ones((2, 4)), 1e-12, cond_limit=2e3)
    for i, want in enumerate(["1.0e+06", "1.0e+05", "1.0e+04"]):
        assert isinstance(outcomes[i], NewtonFailure)
        assert str(outcomes[i]) == f"Jacobian condition {want} exceeds 2.0e+03"
    assert outcomes[3][1] <= 1e-12


def test_stalled_line_search():
    # The linearization near 0 promises the root x = 1, but every trial,
    # 1 down to 1/256, is worse than the start: nine halvings, then failure.
    F = _Recorded(lambda cols: np.where(np.abs(cols) < 1e-3, cols - 1.0, 5.0))
    with pytest.raises(NewtonFailure, match="stalled"):
        damped_newton(F, [0.0], 1e-12)
    # The start's stencil, the full step with its stencil, then eight halvings.
    assert F.widths() == [3, 3] + [1] * 8


def test_no_convergence_within_max_steps():
    # Newton on x^3 only shrinks x by 2/3 per step, so tol = 0 is never met.
    F = _Recorded(lambda cols: cols**3)
    with pytest.raises(NewtonFailure, match=f"no convergence after {MAX_STEPS} steps"):
        damped_newton(F, [1.0, 1.0], 0.0)
    # Every full step is taken, so each step is one call: its trial with
    # the stencil that serves the next step.
    assert F.widths() == [5] * (MAX_STEPS + 1)


def test_trials_outside_the_bound_are_never_evaluated():
    # The root (10, 0) lies outside the ball of radius 4, so every full step
    # leaves it; only halved trials inside the ball may be evaluated.
    bound = 4.0
    F = _Recorded(lambda cols: np.stack([cols[0] - 10.0, cols[1]]))
    with pytest.raises(NewtonFailure):
        damped_newton(F, [0.0, 0.0], 1e-12, bound=bound)
    trials = [cols[:, 0] for cols in F.batches if cols.shape[1] == 1]
    assert trials
    assert max(np.linalg.norm(t) for t in trials) <= bound
    assert trials[0] == pytest.approx([2.5, 0.0])


class _Fault(ArithmeticError):
    pass


def _root_two(cols, owner=None):
    if (cols < 0.0).any():
        raise _Fault("negative column")
    return cols**2 - 4.0


def test_a_fault_fails_only_its_own_start():
    # The start at -1 faults on its own columns; its round-mates end where
    # they end alone, and without ``faults`` the exception propagates.
    starts = np.array([[3.0, -1.0, 0.5]])
    outcomes = solve_many(_root_two, starts, 1e-12, faults=(_Fault,))
    assert isinstance(outcomes[1], _Fault)
    for j in (0, 2):
        x, residual, steps = outcomes[j]
        alone = damped_newton(_root_two, starts[:, j], 1e-12)
        assert (x.tobytes(), residual, steps) == (alone[0].tobytes(), *alone[1:])
    with pytest.raises(_Fault):
        solve_many(_root_two, starts, 1e-12)


def _stencil_faults(F, trial):
    """``F``, but raising ``_Fault`` on a batch holding a stencil column of ``trial``.

    Those are the columns within 1e-3 of ``trial`` other than ``trial``
    itself; the message names the first of them.
    """

    def faulty(cols, owner=None):
        near = (np.abs(cols - trial[:, None]) < 1e-3).all(axis=0)
        bad = near & (cols != trial[:, None]).any(axis=0)
        if bad.any():
            raise _Fault(f"stencil column {cols[:, bad][:, 0]}")
        return F(cols)

    return faulty


def _first_full_step(F, start, tol):
    """The clean run's outcome, and its first full-step trial: the base of its second call."""
    clean = _Recorded(F)
    outcome = damped_newton(clean, start, tol)
    assert clean.widths()[:2] == [2 * len(start) + 1] * 2
    return outcome, clean.batches[1][:, 0]


def _same(a, b):
    return (a[0].tobytes(), *a[1:]) == (b[0].tobytes(), *b[1:])


def test_a_faulting_stencil_of_a_converging_trial_changes_no_outcome():
    # Newton on x - 2 from 1 lands within 1e-6 of the root at its first
    # full step; only that trial's stencil faults.  Tried with the stencil,
    # then alone, the trial ends the start as it ends without the fault.
    root = lambda cols: cols - 2.0  # noqa: E731
    clean, trial = _first_full_step(root, [1.0], 1e-6)
    F = _Recorded(_stencil_faults(root, trial))
    assert _same(damped_newton(F, [1.0], 1e-6), clean)
    assert clean[2] == 1 and F.widths() == [3, 3, 1]
    outcomes = solve_many(F, np.array([[1.0, 1.0]]), 1e-6, faults=(_Fault,))
    assert all(_same(outcome, clean) for outcome in outcomes)
    # At tol 1e-12 the trial is accepted short of convergence.  Its stencil
    # is then evaluated at the next step, and its fault ends the start:
    # the fault of that stencil alone, at the step it is needed.
    (outcome,) = solve_many(F, np.array([[1.0]]), 1e-12, faults=(_Fault,))
    with pytest.raises(_Fault) as alone:
        linearize(F, trial)
    assert isinstance(outcome, _Fault) and str(outcome) == str(alone.value)


def test_a_faulting_stencil_of_a_rejected_trial_changes_no_outcome():
    # Newton on atan from 1.5 overshoots to about -1.69, where |atan| is
    # larger: that full step is rejected and its half taken.  Only the
    # rejected trial's stencil faults.
    clean, trial = _first_full_step(np.arctan, [1.5], 1e-12)
    assert abs(np.arctan(trial[0])) > abs(np.arctan(1.5))
    F = _Recorded(_stencil_faults(np.arctan, trial))
    assert _same(damped_newton(F, [1.5], 1e-12), clean)
    assert F.widths()[:4] == [3, 3, 1, 1]
    starts = np.array([[1.5, 0.5, 1.5]])
    outcomes = solve_many(F, starts, 1e-12, faults=(_Fault,))
    for outcome, start in zip(outcomes, starts.T):
        assert _same(outcome, damped_newton(np.arctan, start, 1e-12))


class _Parts:
    """Part j evaluates to (j / 2, -j / 2); a part in ``faulty`` raises.

    It records the ``(start, stop)`` of every slice it is called on.
    """

    def __init__(self, faulty=()):
        self.faulty = set(faulty)
        self.calls = []

    def __call__(self, sel):
        self.calls.append((sel.start, sel.stop))
        positions = np.arange(4)[sel]
        if self.faulty & set(positions.tolist()):
            raise _Fault("faulty part")
        return np.stack([positions / 2.0, -positions / 2.0], axis=1)


def test_evaluate_parts_without_a_fault_makes_one_call():
    F = _Parts()
    parts = evaluate_parts(F, 4, (_Fault,))
    assert F.calls == [(0, 4)]
    assert [part.tolist() for part in parts] == [[j / 2.0, -j / 2.0] for j in range(4)]


def test_evaluate_parts_isolates_a_faulting_part():
    F = _Parts(faulty={1})
    parts = evaluate_parts(F, 4, (_Fault,))
    assert F.calls == [(0, 4), (0, 1), (1, 2), (2, 3), (3, 4)]
    assert isinstance(parts[1], _Fault)
    clean = _Parts()(slice(0, 4))
    for j in (0, 2, 3):
        assert parts[j].tobytes() == clean[j].tobytes()


def test_evaluate_parts_without_faults_propagates_after_one_call():
    F = _Parts(faulty={1})
    with pytest.raises(_Fault):
        evaluate_parts(F, 4)
    assert F.calls == [(0, 4)]


def test_a_nan_residual_fails_the_start():
    # NaN is not above tol, but it is no convergence either.
    F = lambda cols: np.where(cols > 0.5, np.nan, cols - 2.0)  # noqa: E731
    for solve in (damped_newton, oracles.scalar_damped_newton):
        with pytest.raises(NewtonFailure, match="non-finite residual"):
            solve(F, [1.0], 1e-12)


def test_each_start_may_pose_its_own_problem():
    # Start i solves x^2 = i + 2 from the same point; ``F`` tells the
    # starts apart by the index of each column.
    owners = []

    def F(cols, owner):
        owners.append(owner.copy())
        return cols**2 - (owner + 2.0)

    outcomes = solve_many(F, np.ones((1, 3)), 1e-12)
    assert owners[0].tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    for i, (x, residual, steps) in enumerate(outcomes):
        alone = damped_newton(lambda cols, c=i + 2.0: cols**2 - c, [1.0], 1e-12)
        assert (x.tobytes(), residual, steps) == (alone[0].tobytes(), *alone[1:])
        assert x[0] == pytest.approx(np.sqrt(i + 2.0), rel=1e-12)


def _preset_search(name):
    """The zero search of a preset: its pair, seed grid, tolerance and bound."""
    config = PRESETS[name]
    system = AveragedSystem(config.to_spec(), tol=config.quad_tol)
    seeds = seed_grid(config.r1, config.r2, config.grid_radial, config.grid_angular)
    return (
        lambda cols: system.eval_many(cols.T).T,
        seeds.T,
        config.newton_tol,
        10.0 * max(config.r2, 1.0),
    )


def _cubes():
    # With tol = 0 every start but the root reaches MAX_STEPS.
    starts = np.array([[1.0, 0.5, -3.0, 0.0], [1.0, -2.0, 0.25, 0.0]])
    return lambda cols: cols**3, starts, 0.0, np.inf


def _root_outside_the_bound():
    # The map of test_trials_outside_the_bound_are_never_evaluated.
    starts = np.array([[0.0, 1.0, -3.0, 3.5], [0.0, -1.0, 2.0, 0.0]])
    return lambda cols: np.stack([cols[0] - 10.0, cols[1]]), starts, 1e-12, 4.0


@pytest.mark.parametrize(
    "case",
    [
        lambda: _preset_search("corollary1"),
        lambda: _preset_search("corollary2"),
        _cubes,
        _root_outside_the_bound,
    ],
    ids=["corollary1", "corollary2", "max-steps", "bound"],
)
def test_lockstep_evaluates_exactly_the_columns_of_the_scalar_loop(case):
    # Same multiset of columns, bit for bit: none extra and none twice.
    F, starts, tol, bound = case()
    lockstep, scalar = _Recorded(F), _Recorded(F)
    solve_many(lockstep, starts, tol, bound=bound)
    for start in starts.T:
        try:
            oracles.scalar_damped_newton(scalar, start, tol, bound=bound)
        except NewtonFailure:
            pass
    assert lockstep.columns() == scalar.columns()
