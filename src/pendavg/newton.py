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
gives each its own eps).  ``damped_newton`` is its one-start form, and
``evaluate_parts`` the one rule that isolates a faulting part of a batch.
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


def evaluate_parts(F, n, faults=()):
    """One entry per part of ``n``: its result, or the exception it raised alone.

    ``F(sel)`` stacks on axis 0 the results of the parts in the slice ``sel``.
    The one call on all n parts returns that stack.  Only when it raises one
    of ``faults`` is each part called alone, and the entries come in a list;
    a single part is not called again.  Other exceptions propagate: with
    ``faults=()`` that call is the only one.
    """
    try:
        return F(slice(0, n))
    except faults as exc:
        if n == 1:
            return [exc]  # that call was the part alone
    results = []
    for j in range(n):
        try:
            results.append(F(slice(j, j + 1))[0])
        except faults as exc:
            results.append(exc)
    return results


def solve_many(F, starts, tol, bound=math.inf, cond_limit=math.inf, faults=()):
    """Damped Newton on ``F(x) = 0`` from each column of ``starts``, in lockstep.

    ``F(cols, owner)`` maps a ``(d, m)`` batch of columns to their values;
    ``owner[c]`` is the index of the start column ``c`` belongs to.
    Returns one outcome per start: ``(x, ||F(x)||, steps)``, or the exception
    that ended it -- a ``NewtonFailure``, or one of ``faults`` raised by
    ``F`` on that start's own columns alone; other starts go on either way.

    All unfinished starts take step k together.  Each start's
    central-difference Jacobian comes from ``F`` on its stencil, and one
    batched solve takes the Newton steps of the Jacobians that pass their
    checks.  Then one call per halving level evaluates the trials still
    open: a start's Newton step is halved up to nine times until the
    residual drops, and trials outside ``||x|| <= bound`` are halved
    without being evaluated.  The full-step trials carry their stencils in
    their call.  An accepted one's stencil is the next step's, so such a
    step makes one call of ``F``; a start, and a trial accepted after a
    halving, have their stencils evaluated at the next step.  If the call
    of trials with stencils raises one of ``faults``, its stencils are
    dropped and the trials evaluated alone, so a stencil changes no
    outcome: its fault ends a start only at the step that needs it, as
    that stencil's own fault.  A start fails on a non-finite
    residual, a non-finite Jacobian, a condition number above
    ``cond_limit``, a singular Jacobian (an exact zero pivot, or a
    determinant that underflows to 0), a step that no halving improves, or
    no convergence within ``MAX_STEPS`` steps.  Every start takes the steps
    it would take alone, given an ``F`` whose columns do not depend on each other.
    """
    x = np.array(starts, dtype=float).T.copy()
    n, d = x.shape
    residual = np.zeros(n)
    finished = np.zeros(n, dtype=bool)
    outcome = [None] * n
    # ``known[i]`` holds ``F`` on the stencil of ``x[i]`` where ``ready[i]``.
    known = np.empty((n, d, 2 * d + 1))
    ready = np.zeros(n, dtype=bool)

    def end(idx, result):
        for i in idx:
            outcome[i] = result(i)
        finished[idx] = True

    def call(idx, blocks, sel=slice(None)):
        """``F`` on the ``(m, d, w)`` blocks of the starts ``idx[sel]``, as blocks."""
        w = blocks.shape[2]
        cols = blocks[sel].transpose(1, 0, 2).reshape(d, -1)
        return F(cols, np.repeat(idx[sel], w)).reshape(d, -1, w).transpose(1, 0, 2)

    def evaluate(idx, blocks):
        """``F`` on the blocks of starts ``idx``; a block that faults alone ends its start."""
        parts = evaluate_parts(lambda sel: call(idx, blocks, sel), idx.size, faults)
        if isinstance(parts, np.ndarray):
            return parts
        for j in np.flatnonzero([isinstance(part, Exception) for part in parts]):
            end(idx[j : j + 1], lambda i: parts[j])
            parts[j] = np.full(blocks.shape[1:], np.nan)
        return np.array(parts)

    def settle(idx, steps):
        end(idx[residual[idx] <= tol], lambda i: (x[i].copy(), float(residual[i]), steps))

    live = np.arange(n)
    for k in range(MAX_STEPS):
        if not live.size:
            break
        cols, h = _stencils(x[live])
        values, need = known[live], ~ready[live]
        ready[live] = False
        if need.any():
            # A start whose stencil faulted is finished; the checks below skip it.
            values[need] = evaluate(live[need], cols[need])
        g, jac = values[:, :, 0], _jacobians(values, h)
        residual[live] = _norms(g)
        settle(live, k)
        end(
            live[~finished[live] & ~np.isfinite(residual[live])],
            lambda i: NewtonFailure("non-finite residual"),
        )
        end(
            live[~finished[live] & ~np.isfinite(jac).all(axis=(1, 2))],
            lambda i: NewtonFailure("non-finite Jacobian"),
        )
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
        singular = ~finished[live] & (np.linalg.det(jac) == 0.0)
        end(live[singular], lambda i: NewtonFailure("singular Jacobian"))
        go = ~finished[live]
        live, g, jac = live[go], g[go], jac[go]
        step = np.linalg.solve(jac, -g[:, :, None])[:, :, 0]

        search = live
        for level in range(_HALVINGS):
            trial = x[search] + 0.5**level * step
            r = np.full(search.size, np.nan)
            inside = ~(_norms(trial) > bound)
            at = search[inside]
            if at.size and level == 0:
                # The full-step trials carry their stencils.  If that call
                # faults, the stencils are dropped and the trials evaluated
                # alone, so a stencil changes no outcome.
                try:
                    known[at] = call(at, _stencils(trial[inside])[0])
                    ready[at] = True
                except faults:
                    known[at, :, :1] = evaluate(at, trial[inside, :, None])
                r[inside] = _norms(known[at, :, 0])
            elif at.size:
                r[inside] = _norms(evaluate(at, trial[inside, :, None])[:, :, 0])
            # NaN -- a trial outside the bound or one that faulted -- is never lower.
            lower = r < residual[search]
            ready[search[~lower]] = False  # a rejected trial's stencil is not x's
            x[search[lower]] = trial[lower]
            residual[search[lower]] = r[lower]
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


def damped_newton(F, x, tol, bound=math.inf, cond_limit=math.inf):
    """Solve ``F(x) = 0`` from ``x``; returns ``(x, ||F(x)||, steps)``.

    The one-start form of ``solve_many``: ``F`` sees the stencil of 2d + 1
    columns, then per step the full-step trial with its stencil (2d + 1
    columns) and one column per halved trial.  Raises ``NewtonFailure``
    with the reason the start failed, or what ``F`` raised on the start's
    own columns.  A stencil that raises is dropped as in ``solve_many``, so
    it changes no outcome.
    """
    (result,) = solve_many(
        lambda cols, _: F(cols),
        np.asarray(x, dtype=float)[:, None],
        tol,
        bound,
        cond_limit,
        faults=(Exception,),
    )
    if isinstance(result, Exception):
        raise result
    return result
