"""Damped Newton for the two fixed-point problems of pendavg.

Both problems -- zeros of the mean bifurcation pair in the mode plane and
fixed points of the period map in state space -- are solved here with one
loop and one central-difference Jacobian.  ``F`` maps a ``(d, m)`` batch of
columns to a ``(d, m)`` batch of values, so the base point and the whole
stencil ride in one call.

``solve_many`` runs the loop from many starts in lockstep, and every start
takes exactly the steps it would take alone.  Each full-step trial is
evaluated with its own stencil, so an accepted one brings the next step's
Jacobian along: a step whose full step is taken makes one call of ``F``.
Only the starts, and trials accepted after a halving, need a stencil call
of their own; a halved trial is one column.  Its ``F`` also gets the start
index of each column, so each start may pose its own problem (shooting
gives each its own eps).  A column ``F`` cannot evaluate is data, not an
exception: ``F`` enters it in a dict of faults (``fault_record``), and the
fault ends only the start that needs that column.  A converged start's
``Solution`` carries its Jacobian and the call and column that gave it.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

MAX_STEPS = 25
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
    jacobian: np.ndarray  # central difference at x
    source: tuple  # (call, column): the column of the call of ``F`` whose value is x's


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


def solve_many(F, starts, tol, bound=math.inf, cond_limit=math.inf):
    """Damped Newton on ``F(x) = 0`` from each column of ``starts``, in lockstep.

    ``F(cols, owner, faults)`` maps a ``(d, m)`` batch of columns to their
    values; ``owner[c]`` is the index of the start column ``c`` belongs to,
    and each column ``F`` cannot evaluate goes into the dict ``faults``
    (``fault_record``).  Returns one outcome per start: a ``Solution``, or
    the exception that ended it -- a ``NewtonFailure``, or a fault of its
    own columns; other starts go on either way.  What ``F`` raises
    propagates.

    All unfinished starts take step k together.  Each start's
    central-difference Jacobian comes from ``F`` on its stencil, and one
    batched solve takes the Newton steps of the Jacobians that pass their
    checks.  Then one call per halving level evaluates the trials still
    open: a start's Newton step is halved up to nine times until the
    residual drops, and trials outside ``||x|| <= bound`` are halved
    without being evaluated.  The full-step trials carry their stencils in
    their call.  An accepted one's stencil is the next step's, so such a
    step makes one call of ``F``.  A start, and a trial accepted after a
    halving, have theirs evaluated at the next step, or in one call for all
    that converge.  So a ``Solution`` has the Jacobian at its ``x``, and as
    ``source`` the ``(call, column)`` of ``F`` (from 0) whose value is x's
    bit for bit: its stencil's base, full-step trial or halved trial.  A
    trial ends its start on the fault of its own column, and a stencil with
    its first fault once its start needs it, to go on or to converge.  A
    start fails on a non-finite residual, a non-finite Jacobian, a
    condition number above ``cond_limit``, a singular Jacobian (an exact
    zero pivot, or a determinant that underflows to 0), a step that no
    halving improves, or no convergence within ``MAX_STEPS`` steps.  Every
    start takes the steps it would take alone, given an ``F`` whose columns
    do not depend on each other and whose first fault is theirs alone.
    """
    x = np.array(starts, dtype=float).T.copy()
    n, d = x.shape
    residual = np.zeros(n)
    finished = np.zeros(n, dtype=bool)
    outcome = [None] * n
    # ``known[i]`` holds ``F`` on the stencil of ``x[i]`` where ``ready[i]``;
    # ``blocked[i]`` is the first fault of the stencil that start i needs next;
    # ``source[i]`` is the (call, column) whose value is ``x[i]``'s.
    known = np.empty((n, d, 2 * d + 1))
    ready = np.zeros(n, dtype=bool)
    blocked = {}
    source = np.zeros((n, 2), dtype=np.intp)
    calls = itertools.count()

    def end(idx, result):
        """End each start of ``idx`` not yet finished with ``result(i)``."""
        idx = idx[~finished[idx]]
        for i in idx:
            outcome[i] = result(i)
        finished[idx] = True

    def call(idx, blocks):
        """``F`` on the ``(m, d, w)`` blocks of starts ``idx``, faults by (block, column), heads.

        A block's head is the ``(call, column)`` of its first column.
        """
        w, faults = blocks.shape[2], {}
        values = F(blocks.transpose(1, 0, 2).reshape(d, -1), np.repeat(idx, w), faults)
        faults = {divmod(c, w): fault for c, fault in faults.items()}
        heads = np.stack([np.full(idx.size, next(calls)), np.arange(idx.size) * w], axis=1)
        return values.reshape(d, -1, w).transpose(1, 0, 2), faults, heads

    def evaluate_stencils(idx):
        """Evaluate the stencils of starts ``idx`` into ``known``; returns their bases' sources."""
        known[idx], faults, heads = call(idx, _stencils(x[idx]))
        ready[idx] = True
        for (j, _), fault in faults.items():
            blocked.setdefault(idx[j], fault)
        return heads

    def settle(idx, steps):
        """End the starts of ``idx`` within ``tol``: converged, or on their stencil's fault."""
        idx = idx[(residual[idx] <= tol) & ~finished[idx]]
        if (fresh := idx[~ready[idx]]).size:
            evaluate_stencils(fresh)
        jac = dict(zip(idx.tolist(), _jacobians(known[idx], x[idx])))
        end(idx, lambda i: blocked[i] if i in blocked else Solution(
            x[i].copy(), float(residual[i]), steps, jac[i], tuple(source[i].tolist())
        ))

    live = np.arange(n)
    for k in range(MAX_STEPS):
        if not live.size:
            break
        if (need := live[~ready[live]]).size:
            source[need] = evaluate_stencils(need)
        end(live[np.isin(live, list(blocked))], blocked.get)
        g, jac = known[live, :, 0], _jacobians(known[live], x[live])
        residual[live] = _norms(g)
        settle(live, k)
        ready[live] = False
        end(live[~np.isfinite(residual[live])], lambda i: NewtonFailure("non-finite residual"))
        end(live[~np.isfinite(jac).all(axis=(1, 2))], lambda i: NewtonFailure("non-finite Jacobian"))
        go = ~finished[live]
        live, g, jac = live[go], g[go], jac[go]
        # Without a limit, skip the SVD behind ``cond``.
        if cond_limit < math.inf:
            cond = np.zeros(n)
            cond[live] = np.linalg.cond(jac)
            end(live[cond[live] > cond_limit], lambda i: NewtonFailure(
                f"Jacobian condition {cond[i]:.1e} exceeds {cond_limit:.1e}"
            ))
        # ``det`` is 0 at an exact zero pivot of the LU that ``solve`` raises on.
        end(live[np.linalg.det(jac) == 0.0], lambda i: NewtonFailure("singular Jacobian"))
        go = ~finished[live]
        live, g, jac = live[go], g[go], jac[go]
        step = np.linalg.solve(jac, -g[:, :, None])[:, :, 0]

        search = live
        for level in range(_HALVINGS):
            trial = x[search] + 0.5**level * step
            r = np.full(search.size, np.nan)
            heads = np.zeros((search.size, 2), dtype=np.intp)
            inside = ~(_norms(trial) > bound)
            at = search[inside]
            faults = {}
            if at.size:
                # The full-step trials carry their stencils.
                blocks = _stencils(trial[inside]) if level == 0 else trial[inside, :, None]
                values, faults, heads[inside] = call(at, blocks)
                r[inside] = _norms(values[:, :, 0])
                if level == 0:
                    known[at], ready[at] = values, True
            # NaN -- a trial outside the bound or one that faulted -- is never lower.
            lower = r < residual[search]
            for (j, c), fault in faults.items():
                if c == 0:  # the trial's own column
                    end(at[j : j + 1], lambda i: fault)
                elif lower[inside][j]:
                    blocked.setdefault(at[j], fault)
            ready[search[~lower]] = False  # a rejected trial's stencil is not x's
            x[search[lower]] = trial[lower]
            residual[search[lower]] = r[lower]
            source[search[lower]] = heads[lower]
            stay = ~lower & ~finished[search]
            search, step = search[stay], step[stay]
        end(search, lambda i: NewtonFailure(
            f"stalled at residual {residual[i]:.3e}: {_HALVINGS} halvings did not reduce it"
        ))
        live = live[~finished[live]]
        settle(live, k + 1)
        live = live[~finished[live]]
    end(live, lambda i: NewtonFailure(
        f"no convergence after {MAX_STEPS} steps: residual {residual[i]:.3e}"
    ))
    return outcome
