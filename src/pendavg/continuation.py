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
rejected; conditioning degrades like 1/eps as eps shrinks, which is why
the integrator tolerance is auto-tightened with eps.

The integrators step a ``(4, m)`` batch of columns, each on its own clock:
its own time, step size, accept/reject decision and step count.  A column
may carry its own eps, and by default its own tolerance, and its result is
bit for bit the one it gets alone.  So ``shoot_many`` shoots every
(guess, eps) case at once: one lockstep Newton over all cases, then one
sampling pass over every converged orbit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .expr import ExprDomainError
from .model import compiled_forcing, forced_field, unperturbed_orbit
from .newton import NewtonFailure, solve_many


class IntegrationError(RuntimeError):
    """The integrator ran out of steps before reaching the end time."""


class ShootingError(RuntimeError):
    """The period-map Newton solve failed or was ill-posed."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step classic RK4 or adaptive Dormand-Prince RK45.

    One config serves every column of a batch, but each column keeps its
    own clock.  RK45 scales each component's error by
    ``tol + tol * max(|y|, |y5|)`` and accepts, rejects and resizes each
    column's step on the RMS of that column's four scaled errors;
    ``max_steps`` bounds each column's step attempts.  Where a config is
    optional, ``None`` gives each column ``auto_config`` of its own eps.
    """

    method: str = "rk45"
    step: float | None = None
    tol: float = 1e-12
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        if self.method == "rk4" and (self.step is None or self.step <= 0):
            raise ValueError("rk4 needs a positive fixed step")
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_steps <= 0:
            raise ValueError("max_steps must be positive")


def auto_config(eps):
    """Default adaptive config with tolerance min(1e-12, |eps| * 1e-9).

    Smaller eps needs a tighter integrator because the displacement map
    shrinks with eps; the tolerance is floored at 1e-15 since anything
    below double precision is unachievable.
    """
    tol = min(1e-12, abs(eps) * 1e-9) if eps != 0.0 else 1e-12
    tol = max(tol, 1e-15)
    return IntegratorConfig(method="rk45", tol=tol)


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


def _rk45(forcing, eps, y, taus, tol, max_steps):
    """Adaptive RK45 with one clock per column.

    ``forcing`` is the ``(F1, F2)`` pair of ``forced_field``; ``eps`` and
    ``tol`` hold one value per column.  Each column records its state at
    every grid time it reaches, cuts its step to land on its next grid time
    exactly, and leaves the batch after the last one.
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
    rhs = forced_field(forcing, eps)
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
            col, t, h, j, eps, tol = (a[keep] for a in (col, t, h, j, eps, tol))
            y, k1 = y[:, keep], k1[:, keep]
            rhs = forced_field(forcing, eps)
        target = grid[j]
        h = np.where(t + h > target, target - t, h)
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


def _propagate(spec, eps, y0, taus, config):
    """States of the forced system at every time of ``taus``, from y0 at taus[0].

    ``y0`` is ``(4,)`` or a ``(4, m)`` batch, and the result ``(4, n)`` or
    ``(4, m, n)``.  ``eps`` is a scalar or one value per column; with
    ``config=None`` each column integrates at ``auto_config`` of its eps.
    The integration runs under one ``np.errstate`` and calls the compiled
    forcing bodies directly; the integrators check finiteness themselves.
    """
    taus = [float(t) for t in taus]
    if not all(t1 >= t0 for t0, t1 in zip(taus, taus[1:])):
        raise ValueError("times must be non-negative and non-decreasing")
    y0 = np.asarray(y0, dtype=float)
    y = y0.reshape(4, -1)
    eps = np.broadcast_to(np.asarray(eps, dtype=float), y.shape[1:])
    if config is None:
        tol = np.array([auto_config(e).tol for e in eps])
        config = IntegratorConfig()
    else:
        tol = np.full(eps.shape, config.tol)
    forcing = tuple(map(_body, compiled_forcing(spec)))
    with np.errstate(all="ignore"):
        if config.method == "rk4":
            out = _rk4(forced_field(forcing, eps), y, taus, config.step, config.max_steps)
        else:
            out = _rk45(forcing, eps, y, taus, tol, config.max_steps)
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

    ``eps`` is a scalar or one value per column; each column steps on its
    own clock and, with ``config=None``, at ``auto_config`` of its own eps,
    so its endpoint is bit for bit the one it gets alone.
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


def shoot_many(spec, eps, guesses, config=None, tol=1e-10, cond_limit=1e12, n_samples=256):
    """Newton-solve the period-map fixed point of case i at ``eps[i]`` from ``guesses[:, i]``.

    Returns one outcome per case: a ``PeriodicOrbit``, or the exception
    that ended the case -- ``ShootingError`` (eps = 0, or a failed Newton
    solve) or the ``IntegrationError`` / ``ExprDomainError`` of its own
    integration.  Other cases go on either way.

    The period is ``spec.full_period``.  One ``newton.solve_many`` solves
    flow(x) - x = 0 for every case in lockstep: each central-difference
    Jacobian (monodromy minus identity) rides with its base point, and
    every case's columns share each integration, at that case's eps.  A
    Jacobian with condition above ``cond_limit`` stops that case.  Then one
    more integration pass samples every converged orbit at ``n_samples``
    equally spaced times over one period; if it faults, the orbits are
    sampled one by one.  The reported distance is measured from the guess.
    Each case ends bit for bit as ``shoot_periodic`` alone would end it.
    """
    eps = np.asarray(eps, dtype=float).reshape(-1)
    guesses = np.asarray(guesses, dtype=float).reshape(4, eps.size)
    period = spec.full_period
    outcomes = [
        ShootingError(
            "eps=0: the period map is the identity on the resonant mode plane, "
            "so the displacement Jacobian is singular; shoot at eps != 0"
        )
        if e == 0.0
        else None
        for e in eps
    ]
    cases = np.flatnonzero(eps != 0.0)
    solved = solve_many(
        lambda cols, owner: flow_map(spec, eps[cases[owner]], cols, period, config) - cols,
        guesses[:, cases],
        tol,
        cond_limit=cond_limit,
        faults=_FAULTS,
    )
    converged = {}
    for i, result in zip(cases, solved):
        if isinstance(result, NewtonFailure):
            outcomes[i] = ShootingError(f"period-map Newton at eps={eps[i]:g}: {result}")
            outcomes[i].__cause__ = result
        elif isinstance(result, Exception):
            outcomes[i] = result
        else:
            converged[i] = result

    sample_taus = np.linspace(0.0, period, n_samples, endpoint=False)
    idx = list(converged)
    xs = np.array([converged[i][0] for i in idx]).reshape(-1, 4).T
    try:
        samples = np.moveaxis(sample_states(spec, eps[idx], xs, sample_taus, config), 1, 0)
    except _FAULTS:
        samples = []
        for i in idx:
            try:
                samples.append(sample_states(spec, eps[i], converged[i][0], sample_taus, config))
            except _FAULTS as exc:
                samples.append(exc)
    for i, sampled in zip(idx, samples):
        x, residual, iterations = converged[i]
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


def shoot_periodic(spec, eps, guess, config=None, tol=1e-10, cond_limit=1e12, n_samples=256):
    """``shoot_many`` for one case: its ``PeriodicOrbit``, or raises why it failed."""
    (outcome,) = shoot_many(spec, [eps], guess, config, tol, cond_limit, n_samples)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def verify_zero(spec, alpha, eps_values, shoot_tol=1e-10, n_samples=256):
    """Shoot from the averaged prediction at each eps of the ladder.

    All the eps values are shot together (``shoot_many``), each column at
    its own eps and integrator tolerance; the orbits come back in ladder
    order, equal bit for bit to shooting each eps alone, and the first
    failing eps in ladder order raises.
    """
    prediction = predicted_initial_state(spec.mode, np.asarray(alpha, dtype=float))
    guesses = np.repeat(prediction[:, None], len(eps_values), axis=1)
    outcomes = shoot_many(spec, eps_values, guesses, tol=shoot_tol, n_samples=n_samples)
    for outcome in outcomes:
        if isinstance(outcome, Exception):
            raise outcome
    return outcomes
