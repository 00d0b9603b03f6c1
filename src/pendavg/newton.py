"""Damped Newton for the two fixed-point problems of pendavg.

Both problems -- zeros of the mean bifurcation pair in the mode plane and
fixed points of the period map in state space -- are solved here with one
loop and one central-difference Jacobian.  ``F`` maps a ``(d, m)`` batch of
columns to a ``(k, m)`` batch of values, so the base point and the whole
stencil ride in one call.
"""

from __future__ import annotations

import math

import numpy as np

MAX_STEPS = 25
_HALVINGS = 9


class NewtonFailure(RuntimeError):
    """Damped Newton gave up; the message says why."""


def linearize(F, x):
    """``F(x)`` and its central-difference Jacobian from one call of ``F``.

    The columns are x, x + h_i e_i, x - h_i e_i with h_i = 1e-6 max(1, |x_i|).
    """
    x = np.asarray(x, dtype=float)
    d = x.size
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    cols = np.tile(x[:, None], (1, 2 * d + 1))
    i = np.arange(d)
    cols[i, 1 + i] += h
    cols[i, 1 + d + i] -= h
    values = F(cols)
    return values[:, 0], (values[:, 1 : d + 1] - values[:, d + 1 :]) / (2.0 * h)


def damped_newton(F, x, tol, bound=math.inf, cond_limit=math.inf):
    """Solve ``F(x) = 0`` from ``x``; returns ``(x, ||F(x)||, steps)``.

    Each step solves with the Jacobian from ``linearize`` and halves the step
    up to nine times until the residual drops; trials outside
    ``||x|| <= bound`` are halved without being evaluated.  Raises
    ``NewtonFailure`` on a non-finite or singular Jacobian, a condition
    number above ``cond_limit``, a step that no halving improves, or no
    convergence within ``MAX_STEPS`` steps.
    """
    x = np.array(x, dtype=float)
    g, jac = linearize(F, x)
    r = float(np.linalg.norm(g))
    steps = 0
    while r > tol:
        if steps == MAX_STEPS:
            raise NewtonFailure(f"no convergence after {MAX_STEPS} steps: residual {r:.3e}")
        if not np.isfinite(jac).all():
            raise NewtonFailure("non-finite Jacobian")
        # Without a limit, skip the SVD behind ``cond``.
        if cond_limit < math.inf and (cond := np.linalg.cond(jac)) > cond_limit:
            raise NewtonFailure(f"Jacobian condition {cond:.1e} exceeds {cond_limit:.1e}")
        try:
            step = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            raise NewtonFailure("singular Jacobian") from None
        scale = 1.0
        for _ in range(_HALVINGS):
            x_try = x + scale * step
            scale *= 0.5
            if np.linalg.norm(x_try) > bound:
                continue
            r_try = float(np.linalg.norm(F(x_try[:, None])[:, 0]))
            if r_try < r:
                x, r = x_try, r_try
                break
        else:
            raise NewtonFailure(f"stalled at residual {r:.3e}: {_HALVINGS} halvings did not reduce it")
        steps += 1
        if r > tol and steps < MAX_STEPS:
            g, jac = linearize(F, x)
            r = float(np.linalg.norm(g))
    return x, r, steps
