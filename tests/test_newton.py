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


def test_stalled_line_search():
    # The linearization promises the root x = 1, but every trial is worse
    # than the start: nine halvings, then failure.
    F = _Recorded(lambda cols: cols - 1.0 if cols.shape[1] == 3 else np.full_like(cols, 5.0))
    with pytest.raises(NewtonFailure, match="stalled"):
        damped_newton(F, [0.0], 1e-12)
    assert F.widths() == [3] + [1] * 9


def test_no_convergence_within_max_steps():
    # Newton on x^3 only shrinks x by 2/3 per step, so tol = 0 is never met.
    F = _Recorded(lambda cols: cols**3)
    with pytest.raises(NewtonFailure, match=f"no convergence after {MAX_STEPS} steps"):
        damped_newton(F, [1.0, 1.0], 0.0)
    assert F.widths().count(1) == MAX_STEPS


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
