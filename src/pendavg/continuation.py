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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import ExprDomainError
from .model import compiled_forcing, forced_field, unperturbed_orbit
from .newton import NewtonFailure, damped_newton


class IntegrationError(RuntimeError):
    """The integrator ran out of steps before reaching the end time."""


class ShootingError(RuntimeError):
    """The period-map Newton solve failed or was ill-posed."""


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step classic RK4 or adaptive Dormand-Prince RK45."""

    method: str = "rk45"
    step: float | None = None
    abs_tol: float = 1e-12
    rel_tol: float = 1e-12
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.method not in ("rk4", "rk45"):
            raise ValueError(f"unknown integrator method {self.method!r}")
        if self.method == "rk4" and (self.step is None or self.step <= 0):
            raise ValueError("rk4 needs a positive fixed step")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
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
    return IntegratorConfig(method="rk45", abs_tol=tol, rel_tol=tol)


# ---------------------------------------------------------------------------
# Integrators: one pass from y0 at taus[0] through the non-decreasing grid
# ``taus``, returning the state at every grid time, (4, n) for a (4,) state
# or (4, m, n) for a (4, m) batch sharing one clock
# ---------------------------------------------------------------------------

def _check_finite(y, tau):
    if not np.isfinite(y).all():
        raise ExprDomainError(f"forcing produced a non-finite value near tau={tau:.6g}")


def _rk4(rhs, y0, taus, step, max_steps):
    counts = [max(1, round((t1 - t0) / step)) for t0, t1 in zip(taus, taus[1:])]
    if sum(counts) > max_steps:
        raise IntegrationError(f"rk4 needs {sum(counts)} steps > max_steps={max_steps}")
    y = np.array(y0, dtype=float)
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


# Dormand-Prince 5(4) tableau.
_DP_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)


def _rk45(rhs, y0, taus, abs_tol, rel_tol, max_steps):
    y = np.array(y0, dtype=float)
    out = np.empty(y.shape + (len(taus),))
    t = taus[0]
    j = 0
    h = min((taus[-1] - t) / 100.0, 0.1)
    k1 = rhs(t, y)
    _check_finite(k1, t)
    for _ in range(max_steps):
        while taus[j] - t <= 0.0:
            out[..., j] = y
            j += 1
            if j == len(taus):
                return out
        # Cut the step to land on the next grid time exactly.
        if t + h - taus[j] > 0.0:
            h = taus[j] - t
        ks = [k1]
        for i in range(1, 7):
            yi = y + h * sum(a * k for a, k in zip(_DP_A[i], ks))
            ks.append(rhs(t + _DP_C[i] * h, yi))
        y5 = y + h * sum(b * k for b, k in zip(_DP_B5, ks) if b != 0.0)
        y4 = y + h * sum(b * k for b, k in zip(_DP_B4, ks) if b != 0.0)
        err = y5 - y4
        scale = abs_tol + rel_tol * np.maximum(np.abs(y), np.abs(y5))
        err_norm = float(np.sqrt(np.mean((err / scale) ** 2)))
        if not math.isfinite(err_norm):
            raise ExprDomainError(f"forcing produced a non-finite value near tau={t:.6g}")
        if err_norm <= 1.0:
            t = t + h
            y = y5
            _check_finite(y, t)
            k1 = ks[6]  # FSAL: last stage is the first stage of the next step
        factor = 0.9 * (err_norm + 1e-300) ** -0.2
        h = h * min(5.0, max(0.2, factor))
    raise IntegrationError(f"rk45 exceeded max_steps={max_steps}")


def _propagate(rhs, y0, taus, config):
    taus = [float(t) for t in taus]
    if not all(t1 >= t0 for t0, t1 in zip(taus, taus[1:])):
        raise ValueError("times must be non-negative and non-decreasing")
    if config.method == "rk4":
        return _rk4(rhs, y0, taus, config.step, config.max_steps)
    return _rk45(rhs, y0, taus, config.abs_tol, config.rel_tol, config.max_steps)


def sample_states(spec, eps, x0, taus, config=None):
    """States at the times ``taus`` of the solution with x0 at tau = 0.

    One integration pass steps through all the times and hits each one
    exactly, so nothing is interpolated.  ``taus`` must be non-negative and
    non-decreasing; repeated times are allowed.
    """
    config = config or auto_config(eps)
    rhs = forced_field(compiled_forcing(spec), eps)
    return _propagate(rhs, np.asarray(x0, dtype=float), (0.0, *taus), config)[..., 1:]


def flow_map(spec, eps, states0, period, config=None):
    """Endpoint of the flow after one period for a (4,) or (4, m) batch."""
    config = config or auto_config(eps)
    rhs = forced_field(compiled_forcing(spec), eps)
    return _propagate(rhs, np.asarray(states0, dtype=float), (0.0, period), config)[..., -1]


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


def shoot_periodic(spec, eps, guess, config=None, tol=1e-10, cond_limit=1e12, n_samples=256):
    """Newton-solve the period-map fixed point from ``guess``.

    The period is ``spec.full_period``.  ``newton.damped_newton`` solves
    flow(x) - x = 0; its central-difference Jacobian (monodromy minus
    identity) rides with the base point in one batched integration of 9
    columns, and a Jacobian with condition above ``cond_limit`` stops the
    solve.  The converged orbit is then sampled at ``n_samples`` equally
    spaced times over one period, in one more integration pass.  The
    reported distance is measured from ``guess``.
    """
    if eps == 0.0:
        raise ShootingError(
            "eps=0: the period map is the identity on the resonant mode plane, "
            "so the displacement Jacobian is singular; shoot at eps != 0"
        )
    period = spec.full_period
    config = config or auto_config(eps)
    guess = np.asarray(guess, dtype=float)
    try:
        x, residual, iterations = damped_newton(
            lambda cols: flow_map(spec, eps, cols, period, config) - cols,
            guess,
            tol,
            cond_limit=cond_limit,
        )
    except NewtonFailure as exc:
        raise ShootingError(f"period-map Newton at eps={eps:g}: {exc}") from exc

    sample_taus = np.linspace(0.0, period, n_samples, endpoint=False)
    samples = sample_states(spec, eps, x, sample_taus, config)
    return PeriodicOrbit(
        epsilon=eps,
        period=period,
        initial_state=x,
        residual=residual,
        samples_tau=sample_taus,
        samples=samples,
        predicted_initial=guess,
        distance_to_prediction=float(np.linalg.norm(x - guess)),
        iterations=iterations,
    )


def verify_zero(spec, alpha, eps_values, shoot_tol=1e-10, n_samples=256):
    """Shoot from the averaged prediction at each eps of the ladder."""
    prediction = predicted_initial_state(spec.mode, np.asarray(alpha, dtype=float))
    return [
        shoot_periodic(spec, eps, prediction, tol=shoot_tol, n_samples=n_samples)
        for eps in eps_values
    ]
