"""Damped Newton for the two fixed-point problems of pendavg.

Both problems -- zeros of the mean bifurcation pair in the mode plane and
fixed points of the period map in state space -- are solved here with one
loop.  ``F`` maps a ``(d, m)`` batch of columns to their ``(d, m)`` values
and ``(m, d, d)`` Jacobians.  The mean pair has exact ones from its own
quadrature; a map of values alone gets central-difference ones from
``central``, which evaluates each column with its stencil in one call.

``solve_many`` runs the loop from many starts in lockstep, and every start
takes exactly the steps it would take alone.  Every trial, full or halved,
is evaluated with its Jacobian, so an accepted one brings the next step's
Jacobian along and no column is evaluated twice: a step makes one call of
``F`` per halving level it tries, and the starts one call of their own.
That call may be rough: an evaluator given in ``F``'s place for it alone,
whose values only aim the first step, as in inexact Newton (Dembo,
Eisenstat & Steihaug, SIAM J. Numer. Anal. 19, 1982).  ``F`` also gets the
start index of each column, so each start may pose its own problem
(shooting gives each its own eps).  A column ``F`` cannot evaluate is data,
not an exception: ``F`` enters it in a dict of faults (``fault_record``),
and the fault ends only the start that needs that column.  A converged
start's ``Solution`` carries its Jacobian and the call and column that gave
it.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

MAX_STEPS = 25
# Trial levels per step, named "halvings" in the stall message: full, then 8.
_HALVINGS = 9


class NewtonFailure(RuntimeError):
    """Damped Newton gave up; the message says why."""


def _steps(x):
    """Central-difference steps h_j = 1e-6 max(1, |x_j|) at the rows of ``x``."""
    return 1e-6 * np.maximum(1.0, np.abs(x))


def _stencils(x):
    """Start i gets the ``(d, 2d + 1)`` columns x, x + h_j e_j, x - h_j e_j at row i of ``x``."""
    d = x.shape[1]
    h = _steps(x)
    cols = np.repeat(x[:, :, None], 2 * d + 1, axis=2)
    j = np.arange(d)
    cols[:, j, 1 + j] += h
    cols[:, j, 1 + d + j] -= h
    return cols


def _jacobians(values, x):
    """Central-difference Jacobians from ``F`` on the stencils of the rows of ``x``."""
    d = x.shape[1]
    return (values[:, :, 1 : d + 1] - values[:, :, d + 1 :]) / (2.0 * _steps(x)[:, None, :])


class Solution(NamedTuple):
    """A converged start of ``solve_many``."""

    x: np.ndarray
    residual: float  # ||F(x)||
    steps: int
    jacobian: np.ndarray  # F's Jacobian at x
    source: tuple  # (call, column) of ``F`` whose value is x's


def _norms(rows):
    """Euclidean norm of each row, bit for bit ``np.linalg.norm`` of that row.

    Both take the dot product of the contiguous row with itself; a plain
    sum of squares rounds differently where the dot product uses fused
    multiply-adds.
    """
    rows = np.ascontiguousarray(rows)
    return np.sqrt(np.vecdot(rows, rows))


class _Raising(dict):
    """A fault record that raises each fault as it is entered."""

    def __setitem__(self, column, fault):
        raise fault

    setdefault = __setitem__


def fault_record(faults):
    """The dict in which a batched call enters each column it cannot evaluate.

    ``faults`` itself gets them as ``column: exception``, in the order met;
    without it, the call raises its first fault as it meets it.
    """
    return _Raising() if faults is None else faults


def central(F):
    """A map of values, ``F(cols, owner, faults)``, as ``solve_many`` takes it: with Jacobians.

    The map it returns evaluates, in one call of ``F``, the stencil of each
    of its ``(d, m)`` columns: x, x + h_j e_j and x - h_j e_j with
    h_j = 1e-6 max(1, |x_j|).  Column i's stencil is the ``2d + 1`` columns
    from ``i (2d + 1)`` on, with column i's owner.  It returns the stencils'
    base values, their central-difference Jacobians, and the column of each
    base in ``F``'s call, which a ``Solution`` names as its ``source``.  A
    fault of a stencil's base is its column's, which comes back NaN.  A
    fault of another stencil column leaves the value as it is: it is the
    Jacobian's alone, and ``solve_many`` ends a start with it only once the
    start takes that column.  A column with both gets its base's fault.
    Without a ``faults`` dict, ``F`` raises its first fault as it meets it.
    """

    def linearized(cols, owner, faults):
        x = cols.T
        m, d = x.shape
        w = 2 * d + 1
        met = None if faults is None else {}
        values = F(_stencils(x).transpose(1, 0, 2).reshape(d, -1), np.repeat(owner, w), met)
        values = values.reshape(d, m, w).transpose(1, 0, 2)
        base = values[:, :, 0].T.copy()
        for c, fault in (met or {}).items():
            i, k = divmod(c, w)
            if k:
                faults.setdefault(i, fault)
            else:
                faults[i] = fault
                base[:, i] = np.nan
        return base, _jacobians(values, x), np.arange(m) * w

    return linearized


def solve_many(F, starts, tol, bound=math.inf, cond_limit=math.inf, rough=None):
    """Damped Newton on ``F(x) = 0`` from each column of ``starts``, in lockstep.

    ``F(cols, owner, faults)`` maps a ``(d, m)`` batch of columns to their
    ``(d, m)`` values and ``(m, d, d)`` Jacobians; ``owner[c]`` is the index
    of the start column ``c`` belongs to, and each column ``F`` cannot
    evaluate goes into the dict ``faults`` (``fault_record``).  ``F`` may
    return a third array, the column in its own numbering of each value
    (``central`` does).  Returns one outcome per start: a ``Solution``, or
    the exception that ended it -- a ``NewtonFailure``, or a fault of its
    own columns; other starts go on either way.  What ``F`` raises
    propagates.  An empty batch of starts makes no call.

    One call evaluates the starts.  With ``rough = (G, slack)``, ``G``
    makes that call in ``F``'s place, as ``F`` does, and its values settle
    no start: a start whose rough residual is within ``slack * tol``
    (``slack >= 1``; a NaN is not within) is evaluated again by ``F``, in
    one call, before it settles or steps, and a fault of ``G`` ends its
    start as one of ``F`` would.  The rest take their first step from rough
    values; every trial is evaluated by ``F``, so every ``source`` names a
    call of ``F``.  Without ``rough`` the calls are those of ``F`` alone.
    Then all unfinished starts take step k together: one batched solve
    takes the Newton steps of the Jacobians that pass their checks, and one
    call per halving level evaluates the trials still open.  A start tries
    the full Newton step, then up to eight halvings, until the residual
    drops; trials outside ``||x|| <= bound`` are halved without being
    evaluated.  An accepted trial's Jacobian is the next step's, so no
    column is evaluated twice, and a ``Solution`` has the Jacobian at its
    ``x`` and as ``source`` the ``(call, column)`` of ``F`` (calls from 0,
    ``G``'s counted) whose value is x's.  A fault ends its start where it
    is met: at the starts' evaluation, or at a trial the start takes or
    whose value comes back non-finite; a rejected trial's fault with a
    finite value is its Jacobian's alone, and never read.  A start fails on
    a non-finite residual, a non-finite Jacobian, a condition number above
    ``cond_limit``, a singular Jacobian (an exact zero pivot, or a
    determinant that underflows to 0), a step that no halving improves, or
    no convergence within ``MAX_STEPS`` steps.  Every start takes the steps
    it would take alone, given an ``F`` whose columns do not depend on each
    other and whose faults are theirs alone.  ``tol`` must be non-negative
    (``inf`` settles every start where it stands); a NaN or negative one,
    which no residual could meet, raises ``ValueError`` before any call.
    """
    if not tol >= 0.0:
        raise ValueError(f"tol must be non-negative, got {tol}")
    if rough is not None and not rough[1] >= 1.0:
        raise ValueError(f"rough slack must be at least 1, got {rough[1]}")
    x = np.array(starts, dtype=float).T.copy()
    n, d = x.shape
    finished = np.zeros(n, dtype=bool)
    outcome = [None] * n
    if not n:
        return outcome
    calls = itertools.count()

    def end(idx, result):
        """End each start of ``idx`` not yet finished with ``result(i)``."""
        idx = idx[~finished[idx]]
        for i in idx:
            outcome[i] = result(i)
        finished[idx] = True

    def call(idx, points, G=F):
        """``G`` at the ``(m, d)`` points of starts ``idx``: values, Jacobians, faults by row, sources."""
        faults = {}
        values, jacobians, *columns = G(points.T, idx, faults)
        columns = columns[0] if columns else np.arange(idx.size)
        sources = np.stack([np.full(idx.size, next(calls)), columns], axis=1)
        return values.T, jacobians, faults, sources

    def settle(idx, steps):
        """End the starts of ``idx`` within ``tol`` as converged."""
        end(idx[residual[idx] <= tol], lambda i: Solution(
            x[i].copy(), float(residual[i]), steps, jac[i].copy(), tuple(source[i].tolist())
        ))

    def evaluate(idx, G=F):
        """``G`` at the starts ``idx``, entered as their values, Jacobians and the rest."""
        value[idx], jac[idx], faults, source[idx] = call(idx, x[idx], G)
        for j, fault in faults.items():
            end(idx[j : j + 1], lambda i: fault)
        residual[idx] = _norms(value[idx])

    live = np.arange(n)
    # ``value[i]``, ``jac[i]``: ``F`` at ``x[i]``; ``source[i]``: the (call, column) of it.
    value, jac = np.empty((n, d)), np.empty((n, d, d))
    source, residual = np.empty((n, 2), dtype=int), np.empty(n)
    evaluate(live, F if rough is None else rough[0])
    if rough is not None:
        # Rough values settle no start: one within ``slack * tol`` is
        # evaluated again by ``F`` first.  A NaN is not near, and a start
        # with a rough fault has ended on it.
        near = live[(residual <= rough[1] * tol) & ~finished]
        if near.size:
            evaluate(near)
    settle(live, 0)
    for k in range(MAX_STEPS):
        live = live[~finished[live]]
        if not live.size:
            break
        end(live[~np.isfinite(residual[live])], lambda i: NewtonFailure("non-finite residual"))
        end(live[~np.isfinite(jac[live]).all(axis=(1, 2))], lambda i: NewtonFailure("non-finite Jacobian"))
        live = live[~finished[live]]
        # Without a limit, skip the SVD behind ``cond``.
        if cond_limit < math.inf:
            cond = np.zeros(n)
            cond[live] = np.linalg.cond(jac[live])
            end(live[cond[live] > cond_limit], lambda i: NewtonFailure(
                f"Jacobian condition {cond[i]:.1e} exceeds {cond_limit:.1e}"
            ))
            live = live[~finished[live]]
        # ``det`` is 0 at an exact zero pivot of the LU that ``solve`` raises on.
        end(live[np.linalg.det(jac[live]) == 0.0], lambda i: NewtonFailure("singular Jacobian"))
        live = live[~finished[live]]
        step = np.linalg.solve(jac[live], -value[live][:, :, None])[:, :, 0]

        search = live
        for level in range(_HALVINGS):
            trial = x[search] + 0.5**level * step
            inside = ~(_norms(trial) > bound)
            at, trial = search[inside], trial[inside]
            if not at.size:
                continue
            values, jacobians, faults, heads = call(at, trial)
            r = _norms(values)
            # NaN -- a trial whose own value faulted -- is never lower.
            lower = r < residual[at]
            for j, fault in faults.items():
                if lower[j] or not np.isfinite(values[j]).all():
                    end(at[j : j + 1], lambda i: fault)
            took = at[lower]
            x[took], residual[took] = trial[lower], r[lower]
            value[took], jac[took], source[took] = values[lower], jacobians[lower], heads[lower]
            inside[inside] = lower  # now marks the trials taken
            stay = ~inside & ~finished[search]
            search, step = search[stay], step[stay]
        end(search, lambda i: NewtonFailure(
            f"stalled at residual {residual[i]:.3e}: {_HALVINGS} halvings did not reduce it"
        ))
        settle(live[~finished[live]], k + 1)
    end(live, lambda i: NewtonFailure(
        f"no convergence after {MAX_STEPS} steps: residual {residual[i]:.3e}"
    ))
    return outcome
