"""Damped Newton for the two fixed-point problems of pendavg.

Both problems -- zeros of the mean bifurcation pair in the mode plane and
fixed points of the period map in state space -- are solved here with one
loop and one central-difference Jacobian.  ``F`` maps a ``(d, m)`` batch of
columns to a ``(d, m)`` batch of values, so the base point and the whole
stencil ride in one call.

``solve_many`` runs the loop from many starts in lockstep: each round makes
one call of ``F`` on the columns every unfinished start needs next (its
stencil, or its one line-search trial), and every start takes exactly the
steps it would take alone.  ``damped_newton`` is its one-start form.
"""

from __future__ import annotations

import math

import numpy as np

MAX_STEPS = 25
_HALVINGS = 9


class NewtonFailure(RuntimeError):
    """Damped Newton gave up; the message says why."""


def _stencils(x):
    """Central-difference stencils at the rows of ``x``, and their steps h.

    Start i gets the ``(d, 2d + 1)`` columns x, x + h_j e_j, x - h_j e_j with
    h_j = 1e-6 max(1, |x_j|).
    """
    d = x.shape[1]
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    cols = np.repeat(x[:, :, None], 2 * d + 1, axis=2)
    j = np.arange(d)
    cols[:, j, 1 + j] += h
    cols[:, j, 1 + d + j] -= h
    return cols, h


def _jacobians(values, h):
    """Central-difference Jacobians from ``F`` on each stencil of ``_stencils``."""
    d = h.shape[1]
    return (values[:, :, 1 : d + 1] - values[:, :, d + 1 :]) / (2.0 * h[:, None, :])


def linearize(F, x):
    """``F(x)`` and its central-difference Jacobian from one call of ``F``.

    The columns are x, x + h_i e_i, x - h_i e_i with h_i = 1e-6 max(1, |x_i|).
    """
    cols, h = _stencils(np.asarray(x, dtype=float)[None, :])
    values = F(cols[0])
    return values[:, 0], _jacobians(values[None], h)[0]


def _norms(rows):
    """Euclidean norm of each row, bit for bit ``np.linalg.norm`` of that row.

    Both take the dot product of the contiguous row with itself; a plain
    sum of squares rounds differently where the dot product uses fused
    multiply-adds.
    """
    rows = np.ascontiguousarray(rows)
    return np.sqrt(np.vecdot(rows, rows))


def _evaluate(F, cols, widths, faults):
    """``F(cols)``, and the exception of each column block that faults alone.

    ``widths`` splits the columns into one block per start.  When the joint
    call raises one of ``faults``, each block is evaluated on its own; a
    block that raises alone keeps NaN values and its exception is returned
    under its position.
    """
    try:
        return F(cols), {}
    except faults:
        pass
    values = np.full(cols.shape, np.nan)
    errors = {}
    ends = np.cumsum(widths)
    for j, (a, b) in enumerate(zip(ends - widths, ends)):
        try:
            values[:, a:b] = F(cols[:, a:b])
        except faults as exc:
            errors[j] = exc
    return values, errors


def solve_many(F, starts, tol, bound=math.inf, cond_limit=math.inf, faults=()):
    """Damped Newton on ``F(x) = 0`` from each column of ``starts``, in lockstep.

    Returns one outcome per start: ``(x, ||F(x)||, steps)``, or the exception
    that ended it -- a ``NewtonFailure``, or one of ``faults`` raised by
    ``F`` on that start's own columns; other starts go on either way.

    Each step solves with the Jacobian from the central-difference stencil
    and halves the step up to nine times until the residual drops; trials
    outside ``||x|| <= bound`` are halved without being evaluated.  A start
    fails on a non-finite or singular Jacobian, a condition number above
    ``cond_limit``, a step that no halving improves, or no convergence
    within ``MAX_STEPS`` steps.  Every start takes the steps it would take
    alone, given an ``F`` whose columns do not depend on each other.
    """
    x = np.array(starts, dtype=float).T.copy()
    n, d = x.shape
    width = 2 * d + 1
    residual = np.zeros(n)
    step = np.zeros_like(x)
    trial = np.zeros_like(x)
    scale = np.ones(n)
    halvings = np.zeros(n, dtype=int)
    steps = np.zeros(n, dtype=int)
    # True: the start's next columns are its stencil; False: its trial.
    stencil = np.ones(n, dtype=bool)
    outcome = [None] * n

    def finish(idx):
        for i in idx:
            outcome[i] = (x[i].copy(), float(residual[i]), int(steps[i]))

    def fail(idx, reason):
        for i in idx:
            outcome[i] = NewtonFailure(reason(i))

    def next_trials(idx):
        """Halve to each start's next trial inside the bound, or fail it."""
        while idx.size:
            spent = halvings[idx] == _HALVINGS
            fail(idx[spent], lambda i: (
                f"stalled at residual {residual[i]:.3e}: {_HALVINGS} halvings did not reduce it"
            ))
            idx = idx[~spent]
            trial[idx] = x[idx] + scale[idx, None] * step[idx]
            scale[idx] *= 0.5
            halvings[idx] += 1
            idx = idx[_norms(trial[idx]) > bound]

    def after_stencils(idx, values, h):
        g, jac = values[:, :, 0], _jacobians(values, h)
        residual[idx] = _norms(g)
        live = residual[idx] > tol
        finish(idx[~live])
        finite = np.isfinite(jac).all(axis=(1, 2))
        fail(idx[live & ~finite], lambda i: "non-finite Jacobian")
        live &= finite
        # Without a limit, skip the SVD behind ``cond``.
        if cond_limit < math.inf:
            for j in np.flatnonzero(live):
                if (cond := np.linalg.cond(jac[j])) > cond_limit:
                    outcome[idx[j]] = NewtonFailure(
                        f"Jacobian condition {cond:.1e} exceeds {cond_limit:.1e}"
                    )
                    live[j] = False
        sel = np.flatnonzero(live)
        try:
            step[idx[sel]] = np.linalg.solve(jac[sel], -g[sel][:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            # Some Jacobian is singular: solve one by one to find which.
            for j in sel:
                try:
                    step[idx[j]] = np.linalg.solve(jac[j], -g[j])
                except np.linalg.LinAlgError:
                    outcome[idx[j]] = NewtonFailure("singular Jacobian")
                    live[j] = False
        idx = idx[live]
        scale[idx] = 1.0
        halvings[idx] = 0
        stencil[idx] = False
        next_trials(idx)

    def after_trials(idx, values):
        r = _norms(values)
        better = r < residual[idx]
        next_trials(idx[~better])
        idx, r = idx[better], r[better]
        x[idx] = trial[idx]
        residual[idx] = r
        steps[idx] += 1
        live = r > tol
        finish(idx[~live])
        spent = live & (steps[idx] == MAX_STEPS)
        fail(idx[spent], lambda i: (
            f"no convergence after {MAX_STEPS} steps: residual {residual[i]:.3e}"
        ))
        stencil[idx[live & ~spent]] = True

    pending = np.arange(n)
    while pending.size:
        sten, tri = pending[stencil[pending]], pending[~stencil[pending]]
        order = np.concatenate([sten, tri])
        cols, h = _stencils(x[sten])
        m = sten.size * width
        values, errors = _evaluate(
            F,
            np.concatenate([cols.transpose(1, 0, 2).reshape(d, m), trial[tri].T], axis=1),
            np.repeat([width, 1], [sten.size, tri.size]),
            faults,
        )
        ok = np.ones(order.size, dtype=bool)
        for j, exc in errors.items():
            outcome[order[j]] = exc
            ok[j] = False
        ok_sten, ok_tri = ok[: sten.size], ok[sten.size :]
        stencil_values = values[:, :m].reshape(d, sten.size, width).transpose(1, 0, 2)
        after_stencils(sten[ok_sten], stencil_values[ok_sten], h[ok_sten])
        after_trials(tri[ok_tri], values[:, m:].T[ok_tri])
        pending = np.array([i for i in pending if outcome[i] is None], dtype=int)
    return outcome


def damped_newton(F, x, tol, bound=math.inf, cond_limit=math.inf):
    """Solve ``F(x) = 0`` from ``x``; returns ``(x, ||F(x)||, steps)``.

    The one-start form of ``solve_many``: ``F`` sees the stencil of 2d + 1
    columns, then one column per line-search trial.  Raises
    ``NewtonFailure`` with the reason the start failed; exceptions from
    ``F`` propagate.
    """
    (result,) = solve_many(F, np.asarray(x, dtype=float)[:, None], tol, bound, cond_limit)
    if isinstance(result, NewtonFailure):
        raise result
    return result
