"""Damped Newton for the two fixed-point problems of pendavg.

Both problems -- zeros of the mean bifurcation pair in the mode plane and
fixed points of the period map in state space -- are solved here with one
loop and one central-difference Jacobian.  ``F`` maps a ``(d, m)`` batch of
columns to a ``(d, m)`` batch of values, so the base point and the whole
stencil ride in one call.

``solve_many`` runs the loop from many starts in lockstep, and every start
takes exactly the steps it would take alone.  Every trial, full or halved,
is evaluated with its own stencil, so an accepted one brings the next
step's Jacobian along and no column is evaluated twice: a step makes one
call of ``F`` per halving level it tries, and only the starts need a
stencil call of their own.  That call may be rough: an evaluator given
in ``F``'s place for it alone, whose values only aim the first step, as
in inexact Newton (Dembo, Eisenstat & Steihaug, SIAM J. Numer. Anal. 19,
1982).  ``F`` also gets the start index of each column, so each start may
pose its own problem (shooting gives each its own eps).  A column ``F``
cannot evaluate is data, not an exception: ``F`` enters it in a dict of
faults (``fault_record``), and the fault ends only the start that needs
that column.  A converged start's ``Solution`` carries its Jacobian and
the call and column that gave it.
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
    jacobian: np.ndarray  # central difference at x
    source: tuple  # (call, column) of ``F``: the base of the stencil that evaluated x


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


def solve_many(F, starts, tol, bound=math.inf, cond_limit=math.inf, rough=None):
    """Damped Newton on ``F(x) = 0`` from each column of ``starts``, in lockstep.

    ``F(cols, owner, faults)`` maps a ``(d, m)`` batch of columns to their
    values; ``owner[c]`` is the index of the start column ``c`` belongs to,
    and each column ``F`` cannot evaluate goes into the dict ``faults``
    (``fault_record``).  Returns one outcome per start: a ``Solution``, or
    the exception that ended it -- a ``NewtonFailure``, or a fault of its
    own columns; other starts go on either way.  What ``F`` raises
    propagates.  An empty batch of starts makes no call.

    One call evaluates the starts' central-difference stencils.  With
    ``rough = (G, slack)``, ``G`` makes that call in ``F``'s place, as
    ``F`` does, and its values settle no start: a start whose rough
    residual is within ``slack * tol`` (``slack >= 1``; a NaN is not
    within) is evaluated again by ``F``, in one call, before it settles or
    steps, and a fault of ``G`` ends its start as one of ``F`` would.  The
    rest take their first step from rough values; every trial is
    evaluated by ``F``, so every ``source`` names a call of ``F``.
    Without ``rough`` the calls are those of ``F`` alone.  Then all
    unfinished starts take step k together: one batched solve takes the
    Newton steps of the Jacobians that pass their checks, and one call per
    halving level evaluates the trials still open, each with its stencil.
    A start tries the full Newton step, then up to eight halvings, until the
    residual drops; trials outside ``||x|| <= bound`` are halved without being
    evaluated.  An accepted trial's stencil is the next step's, so no
    column is evaluated twice, and a ``Solution`` has the Jacobian at its
    ``x`` and as ``source`` the ``(call, column)`` of ``F`` (from 0) of
    that stencil's base, whose value is x's.  A trial ends its start on
    the fault of its own column, and a stencil with its first fault once
    its start needs it, to go on or to converge.  A start fails on a
    non-finite residual, a non-finite Jacobian, a condition number above
    ``cond_limit``, a singular Jacobian (an exact zero pivot, or a
    determinant that underflows to 0), a step that no halving improves, or
    no convergence within ``MAX_STEPS`` steps.  Every start takes the steps
    it would take alone, given an ``F`` whose columns do not depend on each
    other and whose first fault is theirs alone.
    """
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

    def call(idx, blocks, G=F):
        """``G`` on the ``(m, d, w)`` blocks of starts ``idx``, faults by (block, column), heads.

        A block's head is the ``(call, column)`` of its first column.
        """
        w, faults = blocks.shape[2], {}
        values = G(blocks.transpose(1, 0, 2).reshape(d, -1), np.repeat(idx, w), faults)
        faults = {divmod(c, w): fault for c, fault in faults.items()}
        heads = np.stack([np.full(idx.size, next(calls)), np.arange(idx.size) * w], axis=1)
        return values.reshape(d, -1, w).transpose(1, 0, 2), faults, heads

    def settle(idx, steps):
        """End the starts of ``idx`` within ``tol``: converged, or on their stencil's fault."""
        idx = idx[(residual[idx] <= tol) & ~finished[idx]]
        jac = dict(zip(idx.tolist(), _jacobians(known[idx], x[idx])))
        end(idx, lambda i: blocked[i] if i in blocked else Solution(
            x[i].copy(), float(residual[i]), steps, jac[i], tuple(source[i].tolist())
        ))

    def evaluate(idx, G=F):
        """``G`` on the stencils of starts ``idx``, entered as their ``known`` and the rest."""
        known[idx], faults, source[idx] = call(idx, _stencils(x[idx]), G)
        for (j, _), fault in faults.items():
            blocked.setdefault(idx[j], fault)
        residual[idx] = _norms(known[idx, :, 0])

    live = np.arange(n)
    # ``known[i]`` holds ``F`` on the stencil of ``x[i]``, ``source[i]`` the
    # (call, column) of its base and ``blocked[i]`` its first fault, if any.
    known, blocked = np.empty((n, d, 2 * d + 1)), {}
    source, residual = np.empty((n, 2), dtype=int), np.empty(n)
    evaluate(live, F if rough is None else rough[0])
    if rough is not None:
        # Rough values settle no start: one within ``slack * tol`` is
        # evaluated again by ``F`` first.  A NaN is not near, and a start
        # with a rough fault ends on it.
        near = live[(residual <= rough[1] * tol) & ~np.isin(live, list(blocked))]
        if near.size:
            evaluate(near)
    settle(live, 0)
    for k in range(MAX_STEPS):
        live = live[~finished[live]]
        if not live.size:
            break
        end(live[np.isin(live, list(blocked))], blocked.get)
        end(live[~np.isfinite(residual[live])], lambda i: NewtonFailure("non-finite residual"))
        g, jac = known[live, :, 0], _jacobians(known[live], x[live])
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
            inside = ~(_norms(trial) > bound)
            at, trial = search[inside], trial[inside]
            if not at.size:
                continue
            values, faults, heads = call(at, _stencils(trial))
            r = _norms(values[:, :, 0])
            # NaN -- a trial whose own column faulted -- is never lower.
            lower = r < residual[at]
            for (j, c), fault in faults.items():
                if c == 0:  # the trial's own column
                    end(at[j : j + 1], lambda i: fault)
                elif lower[j]:
                    blocked.setdefault(at[j], fault)
            took = at[lower]
            x[took], residual[took] = trial[lower], r[lower]
            known[took], source[took] = values[lower], heads[lower]
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
