"""Damped Newton and its central-difference Jacobian on closed-form maps."""

import re
from collections import Counter

import numpy as np
import pytest

import oracles
from pendavg.averaging import AveragedSystem, seed_grid
from pendavg.config import PRESETS
from pendavg.newton import MAX_STEPS, NewtonFailure, fault_record, solve_many


class _Recorded:
    """A column map that records every batch it is called with.

    Any further arguments, such as the start indices and the fault record
    of ``solve_many``, are passed on to the map.
    """

    def __init__(self, F):
        self.F = F
        self.batches = []

    def __call__(self, cols, *rest):
        self.batches.append(cols.copy())
        return self.F(cols, *rest)

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


def _one(F, x, tol, **kwargs):
    """``solve_many``'s outcome from the one start ``x``, for an ``F(cols)``."""
    (outcome,) = solve_many(lambda cols, *_: F(cols), np.array(x, dtype=float)[:, None], tol, **kwargs)
    return outcome


def _key(outcome):
    """``(x, residual, steps, jacobian)`` of a solution or of the oracle, arrays as bytes."""
    x, residual, steps, jac = outcome[:4]
    return x.tobytes(), residual, steps, jac.tobytes()


def _same(a, b):
    return _key(a) == _key(b)


def _fails(outcome, match):
    assert isinstance(outcome, NewtonFailure) and re.search(match, str(outcome)), outcome


def test_a_settled_start_carries_its_stencil_jacobian_from_one_call():
    # At tol = inf a start settles where it stands, on one call of its
    # stencil; its Jacobian is the oracle's central difference, bit for bit.
    F = _Recorded(_quadratic)
    x = np.array([0.3, -2.5, 4.0])
    outcome = _one(F, x, np.inf)
    assert F.widths() == [7]
    cols = F.batches[0]
    assert np.array_equal(cols[:, 0], x)
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    assert np.diag(cols[:, 1:4]) - x == pytest.approx(h, rel=1e-9)
    assert x - np.diag(cols[:, 4:7]) == pytest.approx(h, rel=1e-9)
    value, jac = oracles.central_difference(_quadratic, x)
    assert _key(outcome) == (x.tobytes(), float(np.linalg.norm(value)), 0, jac.tobytes())
    assert outcome.source == (0, 0)
    assert np.abs(outcome.jacobian - _quadratic_jacobian(x)).max() <= 1e-8


def _root_pair(cols):
    return np.stack([cols[0] ** 2 - 4.0, cols[1] - 1.0])


def test_no_starts_make_no_call():
    F = _Recorded(_root_pair)
    assert solve_many(F, np.empty((2, 0)), 1e-12) == []
    assert F.batches == []


def test_damped_newton_converges_and_counts_steps():
    # Plain Newton with the exact Jacobian takes full steps here, and so
    # must the damped loop: same iterates, same step count.
    tol = 1e-12
    x = np.array([3.0, 0.0])
    want = 0
    while np.linalg.norm(_root_pair(x[:, None])[:, 0]) > tol:
        x = x - np.array([(x[0] ** 2 - 4.0) / (2.0 * x[0]), x[1] - 1.0])
        want += 1
    outcome = _one(_root_pair, [3.0, 0.0], tol)
    assert outcome.steps == want > 0
    assert outcome.residual <= tol
    assert outcome.x == pytest.approx([2.0, 1.0], abs=1e-12)
    assert _same(outcome, oracles.scalar_damped_newton(_root_pair, [3.0, 0.0], tol))


def test_damped_newton_at_a_root_takes_no_step():
    F = _Recorded(_root_pair)
    outcome = _one(F, [2.0, 1.0], 1e-12)
    assert (outcome.steps, outcome.residual, outcome.source) == (0, 0.0, (0, 0))
    assert np.array_equal(outcome.x, [2.0, 1.0])
    assert F.widths() == [5]


def test_non_finite_jacobian():
    def F(cols):
        return np.where(cols > 1.0, np.inf, cols - 2.0)

    _fails(_one(F, [1.0], 1e-12), "non-finite")


def test_singular_jacobian():
    _fails(_one(lambda cols: np.ones_like(cols), [0.5, 0.5], 1e-12), "singular")


def test_condition_above_the_limit():
    def F(cols):
        return np.stack([cols[0], 1e-6 * cols[1]])

    _fails(_one(F, [1.0, 1.0], 1e-12, cond_limit=1e3), "condition")
    # Without the limit the same map is solved.
    assert _one(F, [1.0, 1.0], 1e-12).residual <= 1e-12


def test_a_singular_start_in_a_batch_fails_alone(monkeypatch):
    # At x = 0 the Jacobian of c^2 - 1 has an exact zero pivot.  That start
    # ends before the solve, which runs once per step on the other two.
    solves = []
    solve = np.linalg.solve

    def counted(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", counted)
    F = lambda cols, *_: cols**2 - 1.0  # noqa: E731
    starts = np.array([[2.0, 0.0, 0.5], [3.0, 0.5, 0.7]])
    outcomes = solve_many(F, starts, 1e-12)
    assert len(solves) == 6
    assert isinstance(outcomes[1], NewtonFailure)
    assert str(outcomes[1]) == "singular Jacobian"
    with pytest.raises(NewtonFailure, match="^singular Jacobian$"):
        oracles.scalar_damped_newton(F, starts[:, 1], 1e-12)
    for j, steps in ((0, 6), (2, 5)):
        assert _same(outcomes[j], _one(F, starts[:, j], 1e-12))
        assert outcomes[j].steps == steps


def test_each_start_fails_on_its_own_condition_number():
    # Start i scales its second row by 10^-(6 - i): condition 1e6, 1e5, 1e4
    # and 1e3.  Above the limit 2e3, each message quotes its own number.
    def F(cols, owner, faults):
        return np.stack([cols[0], 10.0 ** (owner - 6.0) * cols[1]])

    outcomes = solve_many(F, np.ones((2, 4)), 1e-12, cond_limit=2e3)
    for i, want in enumerate(["1.0e+06", "1.0e+05", "1.0e+04"]):
        assert isinstance(outcomes[i], NewtonFailure)
        assert str(outcomes[i]) == f"Jacobian condition {want} exceeds 2.0e+03"
    assert outcomes[3].residual <= 1e-12


def test_stalled_line_search():
    # The linearization near 0 promises the root x = 1, but every trial,
    # 1 down to 1/256, is worse than the start: nine halvings, then failure.
    F = _Recorded(lambda cols: np.where(np.abs(cols) < 1e-3, cols - 1.0, 5.0))
    _fails(_one(F, [0.0], 1e-12), "stalled")
    # The start's stencil, then the full step and eight halvings, each
    # trial with its stencil.
    assert F.widths() == [3] * 10


def test_no_convergence_within_max_steps():
    # Newton on x^3 only shrinks x by 2/3 per step, so tol = 0 is never met.
    F = _Recorded(lambda cols: cols**3)
    _fails(_one(F, [1.0, 1.0], 0.0), f"no convergence after {MAX_STEPS} steps")
    # Every full step is taken, so each step is one call: its trial with
    # the stencil that serves the next step.
    assert F.widths() == [5] * (MAX_STEPS + 1)


def test_trials_outside_the_bound_are_never_evaluated():
    # The root (10, 0) lies outside the ball of radius 4, so every full step
    # leaves it; only halved trials inside the ball may be evaluated.  Each
    # call after the start's stencil is one trial with its stencil.
    bound = 4.0
    F = _Recorded(lambda cols: np.stack([cols[0] - 10.0, cols[1]]))
    assert isinstance(_one(F, [0.0, 0.0], 1e-12, bound=bound), NewtonFailure)
    assert set(F.widths()) == {5}
    trials = [cols[:, 0] for cols in F.batches[1:]]
    assert trials
    assert max(np.linalg.norm(t) for t in trials) <= bound
    assert trials[0] == pytest.approx([2.5, 0.0])


# Newton on atan at tol 0.1: from +-1.5 the full step overshoots to about
# -+1.69, where |atan| is larger, and its half, about -+0.097, converges;
# from 0.5 the full step converges; 0.05 is within tol where it stands.
_ATAN_STARTS = np.array([[1.5, -1.5, 0.5, 0.05]])
_ATAN_TOL = 0.1


def test_trials_converging_after_a_halving_share_one_stencil_call():
    # The two halved trials ride in one call with their stencils, after
    # which nothing is evaluated, and no column is evaluated twice; their
    # Jacobians are the oracle's, bit for bit.  Each start names the call
    # of ``F`` and the column there whose value is its x, the base of the
    # stencil that evaluated it: +-1.5 their halved trials (blocks 0 and 1
    # of call 2), 0.5 its full-step trial (block 2 of call 1) and 0.05 its
    # start (block 3 of call 0).
    F = _Recorded(np.arctan)
    outcomes = solve_many(lambda cols, *_: F(cols), _ATAN_STARTS, _ATAN_TOL)
    assert F.widths() == [12, 9, 6]
    assert set(F.columns().values()) == {1}
    assert [o.steps for o in outcomes] == [1, 1, 1, 0]
    for outcome, start in zip(outcomes, _ATAN_STARTS.T):
        assert _same(outcome, oracles.scalar_damped_newton(np.arctan, start, _ATAN_TOL))
    stencils = F.batches[2]
    for outcome, block in zip(outcomes[:2], (stencils[:, :3], stencils[:, 3:])):
        assert outcome.x.tobytes() == block[:, 0].tobytes()
        _, jac = oracles.central_difference(np.arctan, outcome.x)
        assert outcome.jacobian.tobytes() == jac.tobytes()
    assert [o.source for o in outcomes] == [(2, 0), (2, 3), (1, 6), (0, 9)]
    for outcome in outcomes:
        call, column = outcome.source
        assert F.batches[call][:, column].tobytes() == outcome.x.tobytes()


class _Fault(ArithmeticError):
    pass


def _faulting(F, bad):
    """``F``, with a ``_Fault`` naming each column where ``bad(cols)`` holds.

    It takes ``solve_many``'s ``(cols, owner, faults)``: the faults are
    entered in ``faults`` in column order, and their columns come back NaN.
    Without a ``faults`` dict, the first is raised.
    """

    def faulty(cols, owner=None, faults=None):
        record = fault_record(faults)
        for c in np.flatnonzero(bad(cols)):
            record[c] = _Fault(f"column {cols[:, c]}")
        values = F(cols)
        values[:, bad(cols)] = np.nan
        return values

    return faulty


_root_two = _faulting(lambda cols: cols**2 - 4.0, lambda cols: (cols < 0.0).any(axis=0))


def test_a_fault_fails_only_its_own_start():
    # The start at -1 faults on its own columns: it ends with the fault of
    # the first of them, at the first call.  Its round-mates end where they
    # end alone, and no call is made again.  An ``F`` that raises propagates.
    starts = np.array([[3.0, -1.0, 0.5]])
    F = _Recorded(_root_two)
    outcomes = solve_many(F, starts, 1e-12)
    assert isinstance(outcomes[1], _Fault) and str(outcomes[1]) == "column [-1.]"
    for j in (0, 2):
        assert _same(outcomes[j], solve_many(_root_two, starts[:, j : j + 1], 1e-12)[0])
    clean = _Recorded(_root_two)
    solve_many(clean, starts[:, [0, 2]], 1e-12)
    assert len(F.batches) == len(clean.batches)
    with pytest.raises(_Fault, match=r"^column \[-1\.\]$"):
        solve_many(lambda cols, owner, faults: _root_two(cols), starts, 1e-12)
    with pytest.raises(_Fault, match=r"^column \[-1\.\]$"):
        _one(_root_two, starts[:, 1], 1e-12)


def _stencil_faults(F, trial):
    """``_faulting`` on the stencil columns of ``trial``.

    Those are the columns within 1e-3 of ``trial`` other than ``trial``
    itself.
    """

    def bad(cols):
        near = (np.abs(cols - trial[:, None]) < 1e-3).all(axis=0)
        return near & (cols != trial[:, None]).any(axis=0)

    return _faulting(F, bad)


def _first_full_step(F, start, tol):
    """The clean run's outcome, and its first full-step trial: the base of its second call."""
    clean = _Recorded(F)
    outcome = _one(clean, start, tol)
    assert clean.widths()[:2] == [2 * len(start) + 1] * 2
    return outcome, clean.batches[1][:, 0]


def _stencil_fault(F, x):
    """The fault that the oracle's central difference at ``x`` raises."""
    with pytest.raises(_Fault) as alone:
        oracles.central_difference(F, x)
    return alone.value


def test_a_converging_trial_ends_with_its_stencils_fault():
    # Newton on x - 2 from 1 lands within 1e-6 of the root at its first
    # full step; only that trial's stencil faults.  The start ends with
    # that stencil's fault, as the scalar loop does, and nothing is
    # evaluated again.
    root = lambda cols: cols - 2.0  # noqa: E731
    clean, trial = _first_full_step(root, [1.0], 1e-6)
    assert clean.steps == 1 and clean.residual > 0.0
    F = _Recorded(_stencil_faults(root, trial))
    outcomes = solve_many(F, np.array([[1.0, 1.0]]), 1e-6)
    assert F.widths() == [6, 6]
    fault = _stencil_fault(F, trial)
    for outcome in outcomes:
        assert isinstance(outcome, _Fault) and str(outcome) == str(fault)
    with pytest.raises(_Fault, match=f"^{re.escape(str(fault))}$"):
        oracles.scalar_damped_newton(F, [1.0], 1e-6)
    # At tol 1e-12 the trial is accepted short of convergence.  Its
    # stencil's fault, kept from that call, ends the start at the next
    # step: the same fault, with no call to find it.
    F.batches.clear()
    (outcome,) = solve_many(F, np.array([[1.0]]), 1e-12)
    assert F.widths() == [3, 3]
    assert isinstance(outcome, _Fault) and str(outcome) == str(fault)


def test_a_converging_halved_trial_ends_with_its_stencils_fault():
    # From 1.5, atan converges on its halved trial at tol 0.1 (the first
    # start of _ATAN_STARTS).  Only that trial's stencil faults: the start
    # ends with that fault, its batch-mate as it ends alone.
    clean = _one(np.arctan, [1.5], _ATAN_TOL)
    F = _Recorded(_stencil_faults(np.arctan, clean.x))
    outcomes = solve_many(F, np.array([[1.5, 0.5]]), _ATAN_TOL)
    assert F.widths() == [6, 6, 3]
    fault = _stencil_fault(F, clean.x)
    assert isinstance(outcomes[0], _Fault) and str(outcomes[0]) == str(fault)
    assert _same(outcomes[1], _one(np.arctan, [0.5], _ATAN_TOL))
    with pytest.raises(_Fault, match=f"^{re.escape(str(fault))}$"):
        oracles.scalar_damped_newton(F, [1.5], _ATAN_TOL)


def test_a_faulting_stencil_of_a_rejected_trial_changes_no_outcome():
    # Newton on atan from 1.5 overshoots to about -1.69, where |atan| is
    # larger: that full step is rejected and its half taken.  Only the
    # rejected trial's stencil faults.
    clean, trial = _first_full_step(np.arctan, [1.5], 1e-12)
    assert abs(np.arctan(trial[0])) > abs(np.arctan(1.5))
    F = _Recorded(_stencil_faults(np.arctan, trial))
    (outcome,) = solve_many(F, np.array([[1.5]]), 1e-12)
    assert _same(outcome, clean)
    assert F.widths()[:3] == [3, 3, 3]
    starts = np.array([[1.5, 0.5, 1.5]])
    outcomes = solve_many(F, starts, 1e-12)
    for outcome, start in zip(outcomes, starts.T):
        assert _same(outcome, _one(np.arctan, start, 1e-12))


def test_a_nan_residual_fails_the_start():
    # NaN is not above tol, but it is no convergence either.
    F = lambda cols: np.where(cols > 0.5, np.nan, cols - 2.0)  # noqa: E731
    _fails(_one(F, [1.0], 1e-12), "non-finite residual")
    with pytest.raises(NewtonFailure, match="non-finite residual"):
        oracles.scalar_damped_newton(F, [1.0], 1e-12)


def test_each_start_may_pose_its_own_problem():
    # Start i solves x^2 = i + 2 from the same point; ``F`` tells the
    # starts apart by the index of each column.
    owners = []

    def F(cols, owner, faults):
        owners.append(owner.copy())
        return cols**2 - (owner + 2.0)

    outcomes = solve_many(F, np.ones((1, 3)), 1e-12)
    assert owners[0].tolist() == [0, 0, 0, 1, 1, 1, 2, 2, 2]
    for i, outcome in enumerate(outcomes):
        assert _same(outcome, _one(lambda cols, c=i + 2.0: cols**2 - c, [1.0], 1e-12))
        assert outcome.x[0] == pytest.approx(np.sqrt(i + 2.0), rel=1e-12)


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
        lambda: (np.arctan, _ATAN_STARTS, _ATAN_TOL, np.inf),
    ],
    ids=["corollary1", "corollary2", "max-steps", "bound", "halved"],
)
def test_lockstep_evaluates_exactly_the_columns_of_the_scalar_loop(case):
    # Same multiset of columns, bit for bit: none extra and none twice.
    # Each start ends as it ends alone, and each source names a column
    # whose value is its solution.
    F, starts, tol, bound = case()
    lockstep, scalar = _Recorded(F), _Recorded(F)
    outcomes = solve_many(lambda cols, owner, faults: lockstep(cols), starts, tol, bound=bound)
    for outcome, start in zip(outcomes, starts.T):
        try:
            assert _same(outcome, oracles.scalar_damped_newton(scalar, start, tol, bound=bound))
        except NewtonFailure as failure:
            assert (type(outcome), str(outcome)) == (NewtonFailure, str(failure))
            continue
        call, column = outcome.source
        assert lockstep.batches[call][:, column].tobytes() == outcome.x.tobytes()
    assert lockstep.columns() == scalar.columns()


# Rough values of ``_root_pair``: off by half the nearness margin
# ``_SLACK * tol`` on the first row.
_SLACK, _ROUGH_TOL = 100.0, 1e-12


def _rough_root_pair(cols, *_):
    values = _root_pair(cols)
    values[0] += 0.5 * _SLACK * _ROUGH_TOL
    return values


def _rough_run(starts, rough_F=_rough_root_pair):
    """``solve_many`` on ``_root_pair``, ``rough_F`` making the starts' call: outcomes, every batch."""
    F, rough = _Recorded(lambda cols, *_: _root_pair(cols)), _Recorded(rough_F)
    rough.batches = F.batches  # one record of both, in call order
    outcomes = solve_many(F, np.array(starts, dtype=float).T, _ROUGH_TOL, rough=(rough, _SLACK))
    return outcomes, F.batches


def test_rough_values_settle_no_start():
    # The rough call is call 0.  The roots are near on rough values and the
    # others are not; the latter take their first step from rough values,
    # and every solution comes from a call of ``F``.
    starts = [(2.0, 1.0), (3.0, 0.0), (-2.0, 1.0), (-1.5, 2.0)]
    outcomes, batches = _rough_run(starts)
    assert [cols.shape[1] for cols in batches[:2]] == [20, 10]
    for outcome, start in zip(outcomes, starts):
        assert outcome.source[0] > 0
        assert batches[outcome.source[0]][:, outcome.source[1]].tobytes() == outcome.x.tobytes()
        assert np.abs(outcome.x - (np.sign(start[0]) * 2.0, 1.0)).max() <= 1e-12


def test_a_start_near_tol_on_rough_values_settles_as_without_them():
    # A root is evaluated again by F in the call after the rough one, and
    # settles at step 0 bit for bit as without rough values.  A NaN rough
    # residual is not near: that start fails and is not evaluated again.
    def nan_beyond_four(cols, *_):
        values = _rough_root_pair(cols)
        values[:, (cols[0] > 4.0)] = np.nan
        return values

    starts = [(2.0, 1.0), (5.0, 0.0), (-2.0, 1.0)]
    outcomes, batches = _rough_run(starts, nan_beyond_four)
    roots = np.concatenate([batches[0][:, :5], batches[0][:, 10:]], axis=1)
    assert batches[1].tobytes() == roots.tobytes()
    _fails(outcomes[1], "non-finite residual")
    for j in (0, 2):
        alone = _one(_root_pair, starts[j], _ROUGH_TOL)
        assert _same(outcomes[j], alone) and outcomes[j].steps == 0
        assert outcomes[j].source == (1, 5 * (j // 2))


def test_a_fault_of_the_rough_call_ends_only_its_own_start():
    # The stencil of the root at -2 faults on rough values: that start
    # ends with the fault, near as its residual is, and is not evaluated
    # again.  Its round-mates end as they end without it.
    faulty = _stencil_faults(_rough_root_pair, np.array([-2.0, 1.0]))
    starts = [(2.0, 1.0), (-2.0, 1.0), (3.0, 0.0)]
    outcomes, batches = _rough_run(starts, faulty)
    assert isinstance(outcomes[1], _Fault)
    assert np.linalg.norm(_rough_root_pair(batches[0][:, 5:6])) <= _SLACK * _ROUGH_TOL
    assert batches[1].tobytes() == batches[0][:, :5].tobytes()
    others, _ = _rough_run([starts[0], starts[2]], faulty)
    for j, other in zip((0, 2), others):
        assert _same(outcomes[j], other)


@pytest.mark.parametrize(
    "case",
    [
        lambda: _preset_search("corollary1"),
        lambda: _preset_search("corollary2"),
        _root_outside_the_bound,
    ],
    ids=["corollary1", "corollary2", "bound"],
)
def test_an_exact_rough_evaluator_changes_no_call_and_no_outcome(case):
    # With no start within tol, a rough evaluator equal to F only takes the
    # place of the starts' call: the same batches bit for bit, in the same
    # order, and the same outcomes, sources included.  (The plain run is
    # the scalar loop's, by test_lockstep_evaluates_exactly_the_columns_of_the_scalar_loop.)
    F, starts, tol, bound = case()
    assert (np.linalg.norm(F(starts), axis=0) > tol).all()
    plain, exact = _Recorded(F), _Recorded(F)
    G = lambda cols, *_: exact(cols)  # noqa: E731
    a = solve_many(lambda cols, *_: plain(cols), starts, tol, bound=bound)
    b = solve_many(G, starts, tol, bound=bound, rough=(G, 1.0))
    assert [cols.tobytes() for cols in plain.batches] == [cols.tobytes() for cols in exact.batches]
    for x, y in zip(a, b):
        if isinstance(x, NewtonFailure):
            assert (type(y), str(y)) == (NewtonFailure, str(x))
        else:
            assert _same(x, y) and x.source == y.source


def test_rough_slack_below_one_is_refused():
    with pytest.raises(ValueError, match="slack"):
        solve_many(_root_pair, np.ones((2, 1)), 1e-12, rough=(_root_pair, 0.5))
