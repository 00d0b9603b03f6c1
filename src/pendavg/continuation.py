"""Direct verification of averaging predictions on the forced system.

The mean bifurcation pair only *predicts* a periodic orbit; this module
checks the prediction by integrating the full forced pendulum at a small
nonzero ``eps`` and solving the fixed-point problem of the period map,

    displacement(x) = flow_{p T}(x) - x = 0,

by damped Newton from the predicted initial state.  The period is known a
priori (the forcing period times p over q divides p T), so no phase
condition is needed.

At ``eps = 0`` the period map is the identity on the whole resonant mode
plane and the displacement Jacobian is singular there, so shooting is
rejected; conditioning degrades like 1/eps as eps shrinks.

RK45 integrates the paper's standard form (``model.slow_field``): the slow
deviation ``v = (z - z0) / eps`` of the variation-of-constants state
``z = Phi(-tau) M y`` from its start.  The linear oscillation ``Phi`` is
applied in closed form, so ``v`` stays O(1), its field does not scale with
eps, and the step count does not depend on eps; one tolerance on ``v``
bounds the O(eps) displacement to the same relative accuracy at every eps.
The fixed-step RK4 integrates the fast state, as an independent reference.

The integrators step a ``(4, m)`` batch of columns, each on its own clock:
its own time, step size, accept/reject decision and step count.  A column
may carry its own eps, and its result is bit for bit the one it gets
alone.  So ``shoot_many`` shoots every (guess, eps) case at once: one
lockstep Newton over all cases, then one sampling pass over every
converged orbit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import ExprDomainError
from .model import compiled_forcing, forced_field, slow_field, unperturbed_orbit
from .newton import NewtonFailure, evaluate_parts, solve_many


class IntegrationError(RuntimeError):
    """The integrator ran out of steps before reaching the end time."""


class ShootingError(RuntimeError):
    """The period-map Newton solve failed or was ill-posed."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Adaptive Dormand-Prince RK45 on the slow deviation, or fixed-step RK4.

    One config serves every column of a batch, but each column keeps its
    own clock.  RK45 integrates the slow deviation ``v`` of
    ``model.slow_field``: it scales each component's error by
    ``tol + tol * max(|v|, |v5|)`` and accepts, rejects and resizes each
    column's step on the RMS of that column's four scaled errors, so an
    error of ``tol`` in ``v`` is one of ``eps * tol`` in the state.  RK4
    integrates the fast state ``model.forced_field`` with a fixed ``step``.
    ``max_steps`` bounds each column's step attempts.  Where a config is
    optional, ``None`` means ``IntegratorConfig()``.
    """

    method: str = "rk45"
    step: float | None = None
    tol: float = 1e-9
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        if self.method == "rk4" and not (
            self.step is not None and self.step > 0 and math.isfinite(self.step)
        ):
            raise ValueError("rk4 needs a positive finite fixed step")
        if not (self.tol > 0 and math.isfinite(self.tol)):
            raise ValueError("tol must be positive and finite")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


# ---------------------------------------------------------------------------
# Integrators: one pass of a (4, m) batch from y at taus[0] through the
# non-decreasing grid ``taus``, returning the (4, m, n) states at every grid
# time.  Every column keeps its own clock, so no column depends on another.
# ---------------------------------------------------------------------------

def _check_finite(values, tau):
    """Raise ``ExprDomainError`` unless the ``(..., m)`` values are all finite.

    The message names the time of the first column that is not, ``tau``
    being one time per column or one for all.
    """
    finite = np.isfinite(values)
    if not finite.all():
        bad = ~finite.reshape(-1, finite.shape[-1]).all(axis=0)
        near = np.broadcast_to(tau, bad.shape)[bad][0]
        raise ExprDomainError(f"forcing produced a non-finite value near tau={near:.6g}")


def _rk4(rhs, y, taus, step, max_steps):
    counts = [max(1, round((t1 - t0) / step)) for t0, t1 in zip(taus, taus[1:])]
    if sum(counts) > max_steps:
        raise IntegrationError(f"rk4 needs {sum(counts)} steps > max_steps={max_steps}")
    out = np.empty(y.shape + (len(taus),))
    out[..., 0] = y
    for j, n in enumerate(counts, start=1):
        t0 = taus[j - 1]
        h = (taus[j] - t0) / n
        t = t0
        for i in range(n):
            k1 = rhs(t, y)
            k2 = rhs(t + h / 2, y + h / 2 * k1)
            k3 = rhs(t + h / 2, y + h / 2 * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t = t0 + (i + 1) * h
            _check_finite(y, t)
        out[..., j] = y
    return out


def _dormand_prince(rhs, t, y, h, k1):
    """One Dormand-Prince 5(4) step of every column from ``(t, y)`` by ``h``.

    Returns the fifth-order state, its stage (the next step's first stage),
    and the error estimate: h times the stages weighted by B5 - B4.
    """
    k2 = rhs(t + 0.2 * h, y + h * (0.2 * k1))
    k3 = rhs(t + 0.3 * h, y + h * (3 / 40 * k1 + 9 / 40 * k2))
    k4 = rhs(t + 0.8 * h, y + h * (44 / 45 * k1 - 56 / 15 * k2 + 32 / 9 * k3))
    k5 = rhs(
        t + 8 / 9 * h,
        y + h * (19372 / 6561 * k1 - 25360 / 2187 * k2 + 64448 / 6561 * k3 - 212 / 729 * k4),
    )
    k6 = rhs(
        t + h,
        y + h * (
            9017 / 3168 * k1 - 355 / 33 * k2 + 46732 / 5247 * k3 + 49 / 176 * k4
            - 5103 / 18656 * k5
        ),
    )
    y5 = y + h * (
        35 / 384 * k1 + 500 / 1113 * k3 + 125 / 192 * k4 - 2187 / 6784 * k5 + 11 / 84 * k6
    )
    k7 = rhs(t + h, y5)
    err = h * (
        71 / 57600 * k1 - 71 / 16695 * k3 + 71 / 1920 * k4 - 17253 / 339200 * k5
        + 22 / 525 * k6 - 1 / 40 * k7
    )
    return y5, k7, err


def _rk45(make_rhs, params, y, taus, tol, max_steps):
    """Adaptive RK45 with one clock per column.

    ``make_rhs(*params)`` builds the right-hand side of the columns that the
    per-column ``params`` describe, each a ``(..., m)`` array.  Each column
    records its state at every grid time it reaches, cuts its step to land
    on its next grid time exactly, and leaves the batch after the last one.
    """
    m, n = y.shape[1], len(taus)
    grid = np.array(taus)
    out = np.empty((4, m, n))
    if not m:
        return out
    col = np.arange(m)  # the output column of each column still stepping
    t = np.full(m, taus[0])
    h = np.full(m, min((taus[-1] - taus[0]) / 100.0, 0.1))
    j = np.zeros(m, dtype=np.intp)  # each column's next grid index
    rhs = make_rhs(*params)
    k1 = rhs(t, y)
    _check_finite(k1, t)
    # Every column still stepping makes one attempt per pass, so the pass
    # count is each column's own step count.
    for _ in range(max_steps):
        while (hit := grid[j] <= t).any():
            out[:, col[hit], j[hit]] = y[:, hit]
            j[hit] += 1
            if (keep := j < n).all():
                continue
            if not keep.any():
                return out
            col, t, h, j = (a[keep] for a in (col, t, h, j))
            y, k1 = y[:, keep], k1[:, keep]
            params = tuple(p[..., keep] for p in params)
            rhs = make_rhs(*params)
        target = grid[j]
        h = np.where(t + h > target, target - t, h)
        if (stalled := t + h == t).any():
            # The step is below half a unit in the last place of t, so the
            # column cannot advance; near a blow-up it would spin forever.
            raise IntegrationError(f"rk45 step underflow near tau={t[stalled][0]:.6g}")
        y5, k7, err = _dormand_prince(rhs, t, y, h, k1)
        scaled = err / (tol + tol * np.maximum(np.abs(y), np.abs(y5)))
        scaled = scaled * scaled
        err_norm = np.sqrt((scaled[0] + scaled[1] + scaled[2] + scaled[3]) / 4.0)
        _check_finite(err_norm, t)
        ok = err_norm <= 1.0
        t = np.where(ok, t + h, t)
        y = np.where(ok, y5, y)
        _check_finite(y, t)
        k1 = np.where(ok, k7, k1)  # FSAL: the last stage is the next first stage
        h = h * np.minimum(5.0, np.maximum(0.2, 0.9 * (err_norm + 1e-300) ** -0.2))
    raise IntegrationError(f"rk45 exceeded max_steps={max_steps}")


def _body(f):
    """The ``body`` of a ``compile_expr`` callable, to call inside one ``np.errstate``.

    Any other callable is called as is.  So is a wrapper made with
    ``functools.wraps``: it copies ``body`` along, but it may count or time
    the calls it passes on.
    """
    return f if hasattr(f, "__wrapped__") else getattr(f, "body", f)


def _slow_deviation(forcing, eps, x0, taus, config):
    """The ``(4, m, n)`` slow deviations ``v`` of ``model.slow_field`` at ``taus``.

    RK45 from ``v = 0`` at ``taus[0]``, for the ``(4, m)`` starts ``x0`` at
    the ``(m,)`` values ``eps``; ``forcing`` is the ``(F1, F2)`` pair.
    """

    def make_rhs(eps, x0):
        return slow_field(forcing, eps, x0)[0]

    return _rk45(make_rhs, (eps, x0), np.zeros_like(x0), taus, config.tol, config.max_steps)


def _propagate(spec, eps, y0, taus, config):
    """States of the forced system at every time of ``taus``, from y0 at taus[0].

    ``y0`` is ``(4,)`` or a ``(4, m)`` batch, and the result ``(4, n)`` or
    ``(4, m, n)``.  ``eps`` is a scalar or one value per column, and
    ``config=None`` means ``IntegratorConfig()``.  RK45 integrates each
    column's slow deviation and maps it back to the state at every grid
    time; RK4 steps the fast state.  The integration runs under one
    ``np.errstate`` and calls the compiled forcing bodies directly; the
    integrators check finiteness themselves.
    """
    taus = [float(t) for t in taus]
    if not all(t1 >= t0 for t0, t1 in zip(taus, taus[1:])):
        raise ValueError("times must be non-negative and non-decreasing")
    y0 = np.asarray(y0, dtype=float)
    x0 = y0.reshape(4, -1)
    eps = np.broadcast_to(np.asarray(eps, dtype=float), x0.shape[1:])
    config = IntegratorConfig() if config is None else config
    forcing = tuple(map(_body, compiled_forcing(spec)))
    with np.errstate(all="ignore"):
        if config.method == "rk4":
            out = _rk4(forced_field(forcing, eps), x0, taus, config.step, config.max_steps)
        else:
            v = _slow_deviation(forcing, eps, x0, taus, config)
            # One column per (start, time), so the map runs on (4, m * n).
            n = len(taus)
            _, state = slow_field(forcing, np.repeat(eps, n), np.repeat(x0, n, axis=1))
            out = state(np.tile(taus, eps.size), v.reshape(4, -1)).reshape(v.shape)
    return out.reshape(y0.shape + (len(taus),))


def sample_states(spec, eps, x0, taus, config=None):
    """States at the times ``taus`` of the solution with x0 at tau = 0.

    ``x0`` is a ``(4,)`` state or a ``(4, m)`` batch, and ``eps`` a scalar
    or one value per column.  One integration pass steps through all the
    times and each column hits each one exactly on its own clock, so
    nothing is interpolated and no column depends on another.  ``taus``
    must be non-negative and non-decreasing; repeated times are allowed.
    Returns ``(4, n)`` or ``(4, m, n)``.
    """
    return _propagate(spec, eps, x0, (0.0, *taus), config)[..., 1:]


def flow_map(spec, eps, states0, period, config=None):
    """Endpoint of the flow after one period for a (4,) or (4, m) batch.

    ``eps`` is a scalar or one value per column, and ``config=None`` means
    ``IntegratorConfig()``.  Each column steps on its own clock, so its
    endpoint is bit for bit the one it gets alone.
    """
    return _propagate(spec, eps, states0, (0.0, period), config)[..., -1]


# ---------------------------------------------------------------------------
# Predictions and shooting
# ---------------------------------------------------------------------------

def predicted_initial_state(mode, alpha):
    """Initial state of the predicted orbit: the closed form at tau = 0."""
    return unperturbed_orbit(mode, alpha, 0.0)


@dataclass
class PeriodicOrbit:
    """A verified periodic solution of the forced system at one eps."""

    epsilon: float
    period: float
    initial_state: np.ndarray
    residual: float
    samples_tau: np.ndarray = field(repr=False)
    samples: np.ndarray = field(repr=False)  # shape (4, n_samples)
    predicted_initial: np.ndarray
    distance_to_prediction: float
    iterations: int


# Failures of one case's own integration; they end that case only.
_FAULTS = (IntegrationError, ExprDomainError)
# Condition number of a displacement Jacobian above which shooting stops.
COND_LIMIT = 1e12
_EPS_ZERO = (
    "eps=0: the period map is the identity on the resonant mode plane, "
    "so the displacement Jacobian is singular; shoot at eps != 0"
)


def shoot_many(spec, eps, guesses, tol=1e-10, n_samples=256):
    """Newton-solve the period-map fixed point of case i at ``eps[i]`` from ``guesses[:, i]``.

    Returns one outcome per case: a ``PeriodicOrbit``, or the exception
    that ended the case -- ``ShootingError`` (eps = 0, or a failed Newton
    solve) or the ``IntegrationError`` / ``ExprDomainError`` of its own
    integration.  Other cases go on either way.

    The period is ``spec.full_period``.  One ``newton.solve_many`` solves
    flow(x) - x = 0 for every case in lockstep: each central-difference
    Jacobian (monodromy minus identity) rides with its base point, and
    every case's columns share each integration, RK45 on the slow deviation
    at the default ``IntegratorConfig``.  A Jacobian with condition above
    ``COND_LIMIT`` stops that case.  Then one more pass samples every
    converged orbit at ``n_samples`` equally spaced times over one period,
    orbit by orbit only if that pass faults.  The reported distance is
    measured from the guess.  Each case ends bit for bit as
    ``shoot_periodic`` alone would end it.
    """
    eps = np.asarray(eps, dtype=float).reshape(-1)
    guesses = np.asarray(guesses, dtype=float).reshape(4, eps.size)
    period = spec.full_period
    outcomes = [ShootingError(_EPS_ZERO) if e == 0.0 else None for e in eps]
    cases = np.flatnonzero(eps != 0.0)
    solved = solve_many(
        lambda cols, owner: flow_map(spec, eps[cases[owner]], cols, period) - cols,
        guesses[:, cases],
        tol,
        cond_limit=COND_LIMIT,
        faults=_FAULTS,
    )
    for i, result in zip(cases, solved):
        outcomes[i] = result
        if isinstance(result, NewtonFailure):
            outcomes[i] = ShootingError(f"period-map Newton at eps={eps[i]:g}: {result}")
            outcomes[i].__cause__ = result

    sample_taus = np.linspace(0.0, period, n_samples, endpoint=False)
    idx = np.array([i for i, o in enumerate(outcomes) if isinstance(o, tuple)], dtype=np.intp)
    xs = np.array([outcomes[i][0] for i in idx]).reshape(-1, 4).T
    samples = evaluate_parts(
        lambda sel: np.moveaxis(sample_states(spec, eps[idx[sel]], xs[:, sel], sample_taus), 1, 0),
        idx.size,
        _FAULTS,
    )
    for i, sampled in zip(idx, samples):
        x, residual, iterations = outcomes[i]
        if isinstance(sampled, Exception):
            outcomes[i] = sampled
            continue
        outcomes[i] = PeriodicOrbit(
            epsilon=float(eps[i]),
            period=period,
            initial_state=x,
            residual=residual,
            samples_tau=sample_taus,
            samples=sampled,
            predicted_initial=guesses[:, i].copy(),
            distance_to_prediction=float(np.linalg.norm(x - guesses[:, i])),
            iterations=iterations,
        )
    return outcomes


def shoot_periodic(spec, eps, guess, tol=1e-10, n_samples=256):
    """``shoot_many`` for one case: its ``PeriodicOrbit``, or raises why it failed."""
    (outcome,) = shoot_many(spec, [eps], guess, tol, n_samples)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def verify_zero(spec, alpha, eps_values, shoot_tol=1e-10, n_samples=256):
    """Shoot from the averaged prediction at each eps of the ladder.

    All the eps values are shot together (``shoot_many``), each column at
    its own eps; the orbits come back in ladder order, equal bit for bit to
    shooting each eps alone, and the first failing eps in ladder order
    raises.
    """
    prediction = predicted_initial_state(spec.mode, np.asarray(alpha, dtype=float))
    guesses = np.repeat(prediction[:, None], len(eps_values), axis=1)
    outcomes = shoot_many(spec, eps_values, guesses, tol=shoot_tol, n_samples=n_samples)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes
