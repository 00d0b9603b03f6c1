"""Closed-form oracles, pinned radicals and test-only references.

The two worked forcing examples admit fully explicit bifurcation pairs
(polynomial-in-amplitude times fixed radical constants), derived
independently of the package's quadrature path.  Tests compare the plain
integral pair, :func:`raw_pair` (the package's mean pair times its
``(-2T, 2T)`` factors), against these formulas directly.

A generic averaging operator (:class:`AveragingProblem` +
:func:`averaged_function`) computes the same mean value from an arbitrary
flow / fundamental-matrix / perturbation triple and audits the structural
hypotheses numerically; tests use it to cross-check the package's
mode-specialized path.  It integrates with :func:`integrate_adaptive`, a
composite Gauss-Legendre rule independent of the package's periodic
trapezoid sweep.  Its pendulum instance (:func:`pendulum_problem`) is built
on :func:`modal_orbit`, the unperturbed orbit in modal coordinates, and
:func:`fundamental_matrix`, the rotation blocks of the linear modal system.

:func:`points_major_eval_many` is ``AveragedSystem.eval_many`` on the
points-major trapezoid sweep, an integrand row per point with
:func:`points_major_node_sums` summing each block along its rows; tests hold
the package's node-major sweep to it bit for bit.

:func:`pairwise_antipodal_pairing` is ``averaging.antipodal_pairing`` with
one norm per pair of zeros; tests hold the package's batched pairing to it.

:func:`scalar_damped_newton` is damped Newton from one start, one step at a
time, on the linearization it is given: its own central difference
(:func:`central_difference`) unless a test passes another, such as the
exact Jacobian of the mean pair; tests hold the lockstep
``pendavg.newton.solve_many`` to it start for start.

:func:`pair_row_slow_field` is ``pendavg.model.slow_field`` written on
``(2, m)`` row pairs, one per mode plane; the package's ``(4, m)`` form is
held to it bit for bit.

:func:`fast_field` is the forced system in its original coordinates, and
:func:`rk4` steps it with fixed-step classical RK4: a reference for the
package's DOP853, which integrates the slow deviation of the standard form
instead of the fast state.

:func:`format_expr` renders a parsed forcing back to text, so the parser's
round trip ``parse(format_expr(e)) == e`` can be tested.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from pendavg import averaging
from pendavg.averaging import CHUNK_FLOATS, AveragedSystem, QuadratureError
from pendavg.constants import OMEGA1, OMEGA2
from pendavg.expr import BinOp, Call, Const, ExprDomainError, Neg, Num, Var
from pendavg.model import (
    INVERSE_MODAL_MATRIX,
    MODAL_MATRIX,
    Mode,
    PerturbationSpec,
    compiled_forcing,
    unperturbed_orbit,
)
from pendavg.newton import MAX_STEPS, NewtonFailure

SQRT2 = math.sqrt(2.0)
W1 = math.sqrt(2.0 - SQRT2)
W2 = math.sqrt(2.0 + SQRT2)
T1 = 2.0 * math.pi / W1
T2 = 2.0 * math.pi / W2

CORO1_F1 = "0"
CORO1_F2 = "(1 - th1^2) * sin(w1 * tau)"
CORO2_F1 = "th2d + th1^2 * cos(w2 * tau)"
CORO2_F2 = "0"

# Simple zeros, from the radicals.
CORO1_X0 = 2.0 * math.sqrt(2.0 * (2.0 - SQRT2))        # ~ 2.1647844
CORO1_Y0 = 2.0 * math.sqrt((2.0 / 3.0) * (2.0 - SQRT2))  # ~ 1.2498389
CORO2_W0 = -8.0 * (2.0 + SQRT2)                        # ~ -27.3137085

CORO1_ZEROS = [
    (-CORO1_X0, 0.0),
    (0.0, -CORO1_Y0),
    (0.0, CORO1_Y0),
    (CORO1_X0, 0.0),
]

# Determinant of the lower-right block of M^-1(0) - M^-1(T1).
BLOCK_DET = 4.0 * math.sin(SQRT2 * math.pi) ** 2


def corollary1_raw(x0, y0):
    """Raw-convention bifurcation pair of the slow-mode forcing example."""
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    c = (2.0 - SQRT2) ** 1.5
    g1 = -math.pi * (x0**2 + 3.0 * y0**2 + 8.0 * (-2.0 + SQRT2)) / (8.0 * c)
    g2 = -math.pi * x0 * y0 / (4.0 * c)
    return g1, g2


def corollary2_raw(z0, w0):
    """Raw-convention pair of the fast-mode forcing example.

    The amplitude coefficient is kept in its unreduced radical form
    sqrt((10 - 7 sqrt 2) * (2 + sqrt 2)); it equals 2 - sqrt 2.
    """
    z0 = np.asarray(z0, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    coeff = math.sqrt((10.0 - 7.0 * SQRT2) * (2.0 + SQRT2))
    root = math.sqrt(2.0 * (2.0 + SQRT2))
    g1 = -math.pi * (coeff * w0 - 8.0) * z0 / (4.0 * root)
    g2 = (
        math.pi
        * (SQRT2 * w0**2 - 2.0 * w0**2 - 16.0 * w0 + 3.0 * SQRT2 * z0**2 - 6.0 * z0**2)
        / (8.0 * root)
    )
    return g1, g2


def corollary1_raw_jacobian(x0, y0):
    """``corollary1_raw`` differentiated by hand: ``(..., 2, 2)``, rows (g1, g2), columns (x0, y0)."""
    x0 = np.asarray(x0, dtype=float)
    y0 = np.asarray(y0, dtype=float)
    c = (2.0 - SQRT2) ** 1.5
    k = -math.pi / (4.0 * c)
    return np.stack([np.stack([k * x0, 3.0 * k * y0], -1), np.stack([k * y0, k * x0], -1)], -2)


def corollary2_raw_jacobian(z0, w0):
    """``corollary2_raw`` differentiated by hand: ``(..., 2, 2)``, rows (g1, g2), columns (z0, w0)."""
    z0 = np.asarray(z0, dtype=float)
    w0 = np.asarray(w0, dtype=float)
    coeff = math.sqrt((10.0 - 7.0 * SQRT2) * (2.0 + SQRT2))
    root = math.sqrt(2.0 * (2.0 + SQRT2))
    g1 = np.stack([-math.pi * (coeff * w0 - 8.0) / (4.0 * root), -math.pi * coeff * z0 / (4.0 * root)], -1)
    g2 = np.stack([
        math.pi * (6.0 * SQRT2 - 12.0) * z0 / (8.0 * root),
        math.pi * (2.0 * SQRT2 * w0 - 4.0 * w0 - 16.0) / (8.0 * root),
    ], -1)
    return np.stack([g1, g2], -2)


def raw_pair(spec, alpha, tol):
    """The plain integral pair at ``alpha``: the mean pair times ``(-2T, 2T)``."""
    mean = AveragedSystem(spec, tol).eval_many(np.reshape(alpha, (1, 2)))[0]
    return mean * (2.0 * spec.full_period * np.array([-1.0, 1.0]))


def make_spec(which):
    if which == "corollary1":
        return PerturbationSpec.from_strings(CORO1_F1, CORO1_F2, "mode1", 1, 1)
    if which == "corollary2":
        return PerturbationSpec.from_strings(CORO2_F1, CORO2_F2, "mode2", 1, 1)
    raise ValueError(which)


# ---------------------------------------------------------------------------
# Modal orbits and the fundamental matrix
# ---------------------------------------------------------------------------

def modal_orbit(mode, alpha, tau):
    """Unperturbed solution in modal coordinates from plane amplitudes.

    Mode 1 fills the (X, Y) plane, mode 2 the (Z, W) plane; the other
    plane stays identically zero.  ``tau`` may be a scalar or an array,
    and the two amplitude components broadcast against it.
    """
    a0 = np.asarray(alpha[0], dtype=float)
    b0 = np.asarray(alpha[1], dtype=float)
    tau = np.asarray(tau, dtype=float)
    c, s = np.cos(mode.omega * tau), np.sin(mode.omega * tau)
    pos, vel = a0 * c + b0 * s, b0 * c - a0 * s
    zero = np.zeros_like(pos)
    if mode is Mode.MODE1:
        return np.stack([pos, vel, zero, zero])
    return np.stack([zero, zero, pos, vel])


def fundamental_matrix(tau):
    """Fundamental matrix of the linearized modal system, identity at 0.

    Two rotation blocks with angles ``OMEGA1 * tau`` and ``OMEGA2 * tau``.
    Scalar ``tau`` gives a ``(4, 4)`` matrix; an array of shape ``(m,)``
    gives ``(m, 4, 4)``.
    """
    tau = np.asarray(tau, dtype=float)
    c1, s1 = np.cos(OMEGA1 * tau), np.sin(OMEGA1 * tau)
    c2, s2 = np.cos(OMEGA2 * tau), np.sin(OMEGA2 * tau)
    out = np.zeros(tau.shape + (4, 4))
    out[..., 0, 0] = c1
    out[..., 0, 1] = s1
    out[..., 1, 0] = -s1
    out[..., 1, 1] = c1
    out[..., 2, 2] = c2
    out[..., 2, 3] = s2
    out[..., 3, 2] = -s2
    out[..., 3, 3] = c2
    return out


# ---------------------------------------------------------------------------
# Adaptive composite Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

MAX_PANELS = 2 ** 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)


@dataclass
class QuadratureResult:
    value: np.ndarray
    panels: int


def _composite_gl(f, points, a, b, panels):
    """Composite GL sums at ``points``, shape ``(len(points), k)``.

    The integrand sees at most ``CHUNK_FLOATS`` point x node values per call:
    rows are chunked, and each row adds up its node blocks' sums in order.
    """
    edges = np.linspace(a, b, panels + 1)
    half = (edges[1] - edges[0]) / 2.0
    centers = (edges[:-1] + edges[1:]) / 2.0
    taus = (centers[:, None] + half * _GL_NODES[None, :]).ravel()
    weights = np.tile(_GL_WEIGHTS * half, panels)
    block = min(taus.size, CHUNK_FLOATS)
    rows = CHUNK_FLOATS // block
    sums = []
    for start in range(0, points.size, rows):
        chunk, total = points[start : start + rows], None
        for lo in range(0, taus.size, block):
            values = np.asarray(f(chunk, taus[lo : lo + block]), dtype=float)
            if not np.isfinite(values).all():
                raise ExprDomainError("integrand produced non-finite values")
            part = (values * weights[lo : lo + block]).sum(axis=-1)
            total = part if total is None else total + part
        sums.append(total)
    return np.concatenate(sums)


def _integrate_points(f, m, a, b, tol, max_panels):
    """Integrate ``f(points, taus) -> (len(points), k, len(taus))`` at m points.

    Returns the ``(m, k)`` values and each point's panel count; each point
    refines until its own criterion holds.
    """
    panels = 4
    used = np.zeros(m, dtype=int)
    active = np.arange(m)
    coarse = _composite_gl(f, active, a, b, panels)
    value = np.empty_like(coarse)
    while panels < max_panels and active.size:
        panels *= 2
        fine = _composite_gl(f, active, a, b, panels)
        err = np.abs(fine - coarse).max(axis=1)
        floor = 64.0 * np.finfo(float).eps * np.abs(fine).max(axis=1)
        done = err <= np.maximum(tol, floor)
        value[active[done]] = fine[done]
        used[active[done]] = panels
        active, coarse = active[~done], fine[~done]
    if active.size:
        raise QuadratureError(
            f"quadrature did not reach tol={tol:.1e} within {max_panels} panels"
        )
    return value, used


def integrate_adaptive(f, a, b, tol, max_panels=MAX_PANELS):
    """Integrate a vector integrand ``f: (n,) -> (k, n)`` over [a, b].

    Composite Gauss-Legendre with a fixed 15-point rule per panel; the
    panel count doubles from 8 until two consecutive refinements differ by
    at most ``tol`` in every component, or by the roundoff floor of the
    value.  Needs no periodicity, so it checks the package's periodic rule
    from outside.
    """
    value, panels = _integrate_points(
        lambda points, taus: np.atleast_2d(f(taus))[None], 1, a, b, tol, max_panels
    )
    return QuadratureResult(value[0], int(panels[0]))


# ---------------------------------------------------------------------------
# The points-major trapezoid sweep
# ---------------------------------------------------------------------------

def points_major_node_sums(f, points, base, check, judged=None):
    """``pendavg.averaging._node_sums`` for an integrand of the points-major layout.

    ``f(points, taus)`` returns ``(len(points), k, len(taus))``, and each
    block is summed along that array's own contiguous last axis.  The
    largest |f| is taken over the first ``judged`` components (all without).
    """
    block = min(base.size, CHUNK_FLOATS // 2)
    rows = CHUNK_FLOATS // (2 * block)
    sums, sizes = None, np.zeros(points.size)
    for start in range(0, points.size, rows):
        chunk, total = points[start : start + rows], 0.0
        for lo in range(0, base.size, block):
            taus = np.concatenate([base[lo : lo + block], check[lo : lo + block]])
            values = np.asarray(f(chunk, taus), dtype=float)
            peak = np.abs(values[:, :judged]).max(axis=(1, 2))
            total = total + values.reshape(*values.shape[:2], 2, block).sum(axis=-1)
            np.maximum(sizes[start : start + rows], peak, out=sizes[start : start + rows])
        if sums is None:
            sums = np.empty((points.size,) + total.shape[1:])
        sums[start : start + rows] = total
    return sums, sizes


def points_major_eval_many(system, alphas, faults=None):
    """``system.eval_many(alphas, faults)`` on the points-major sweep.

    The integrand works on ``(len(points), len(taus))`` arrays, a row per
    point, and :func:`points_major_node_sums` sums it.  Returns the mean
    pair with the ``last_panels`` and ``last_scale`` the call would set.
    """
    alphas = np.asarray(alphas, dtype=float).reshape(-1, 2)
    spec = system.spec
    w = spec.mode.omega
    sign = 1.0 if spec.mode is Mode.MODE1 else -1.0
    f1, f2 = compiled_forcing(spec)
    period = spec.full_period

    def integrand(points, taus):
        chunk = alphas[points]
        states = unperturbed_orbit(spec.mode, (chunk[:, 0:1], chunk[:, 1:2]), taus[None, :])
        combo = sign * SQRT2 * f1(taus[None, :], *states) + f2(taus[None, :], *states)
        combo = np.broadcast_to(np.asarray(combo, dtype=float), states[0].shape)
        return np.stack([np.sin(w * taus), np.cos(w * taus)]) * combo[:, None, :]

    saved = averaging._node_sums
    averaging._node_sums = points_major_node_sums
    try:
        with np.errstate(all="ignore"):
            integral, panels, scale = averaging._integrate_points(
                integrand, alphas.shape[0], period, system.tol, faults
            )
    finally:
        averaging._node_sums = saved
    return np.stack([-integral[:, 0], integral[:, 1]], axis=1) / (2.0 * period), panels, scale


# ---------------------------------------------------------------------------
# Generic averaging operator
# ---------------------------------------------------------------------------

PERIOD_GAP_TOL = 1e-9
UPPER_BLOCK_TOL = 1e-10
DET_FLOOR = 1e-8


class AveragingError(RuntimeError):
    """A structural hypothesis of the averaging setup failed its audit."""


@dataclass(frozen=True)
class AveragingProblem:
    """Period-averaging setup over a k-parameter manifold of periodic orbits.

    ``flow(alpha, taus)`` is the unperturbed T-periodic solution seeded at
    ``(alpha, beta(alpha))``, ``fundamental(taus)`` its fundamental matrix
    (identity at 0, shape ``(m, n, n)``), and ``perturbation(taus, states)``
    the first-order forcing term, all vectorized over ``taus``.
    """

    n: int
    k: int
    period: float
    beta: Callable[[np.ndarray], np.ndarray]
    flow: Callable[[np.ndarray, np.ndarray], np.ndarray]
    fundamental: Callable[[np.ndarray], np.ndarray]
    perturbation: Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass
class ProblemAudit:
    seed_gap: float
    period_gap: float
    upper_block_max: float
    lower_block: np.ndarray
    lower_block_det: float


def audit_problem(problem, alpha):
    """Numerically check the structural hypotheses near ``alpha``.

    The flow must start on the parametrized manifold (alpha, beta(alpha)),
    close up after one period, and M^-1(0) - M^-1(T) must have a zero
    upper-right k x (n-k) block and a nonsingular lower-right
    (n-k) x (n-k) block.
    """
    alpha = np.asarray(alpha, dtype=float)
    ends = problem.flow(alpha, np.array([0.0, problem.period]))
    seed = np.concatenate([alpha, np.asarray(problem.beta(alpha), dtype=float)])
    seed_gap = float(np.abs(ends[:, 0] - seed).max())
    period_gap = float(np.abs(ends[:, 0] - ends[:, 1]).max())
    m = problem.fundamental(np.array([0.0, problem.period]))
    diff = np.linalg.inv(m[0]) - np.linalg.inv(m[1])
    k, n = problem.k, problem.n
    upper = float(np.abs(diff[:k, k:]).max())
    lower = diff[k:, k:]
    det = float(np.linalg.det(lower))
    audit = ProblemAudit(seed_gap, period_gap, upper, lower, det)
    if seed_gap > PERIOD_GAP_TOL:
        raise AveragingError(
            f"flow at t=0 does not start at (alpha, beta(alpha)): gap {seed_gap:.3e}"
        )
    if period_gap > PERIOD_GAP_TOL:
        raise AveragingError(
            f"flow is not {problem.period}-periodic at alpha={alpha}: gap {period_gap:.3e}"
        )
    if upper > UPPER_BLOCK_TOL:
        raise AveragingError(f"upper-right block of M^-1(0)-M^-1(T) is not zero: {upper:.3e}")
    if abs(det) <= DET_FLOOR:
        raise AveragingError(f"lower-right block of M^-1(0)-M^-1(T) is singular: det={det:.3e}")
    return audit


def averaged_function(problem, alpha, tol=1e-11):
    """Project the period average of M^-1(t) G1(t, x(t)) onto the first k axes."""
    audit_problem(problem, alpha)
    alpha = np.asarray(alpha, dtype=float)

    def integrand(taus):
        states = problem.flow(alpha, taus)
        minv = np.linalg.inv(problem.fundamental(taus))
        g = problem.perturbation(taus, states)
        rows = np.einsum("mij,jm->im", minv, g)
        return rows[: problem.k]

    result = integrate_adaptive(integrand, 0.0, problem.period, tol)
    return result.value / problem.period


def pendulum_problem(spec):
    """Instantiate the generic setup for the resonant mode of ``spec``.

    Coordinates are the modal ones, reordered so the resonant plane comes
    first; the non-resonant plane carries the nonsingular block of
    M^-1(0) - M^-1(T).
    """
    mode = spec.mode
    f1, f2 = compiled_forcing(spec)
    # Mode 2's resonant (Z, W) plane comes first.
    order = [0, 1, 2, 3] if mode is Mode.MODE1 else [2, 3, 0, 1]

    def beta(alpha):
        return np.zeros(2)

    def flow(alpha, taus):
        return modal_orbit(mode, alpha, taus)[order]

    def fundamental(taus):
        return fundamental_matrix(taus)[..., order, :][..., order]

    def perturbation(taus, states):
        states = states[order]
        th1, th1d, th2, th2d = INVERSE_MODAL_MATRIX @ states
        v1 = np.broadcast_to(np.asarray(f1(taus, th1, th1d, th2, th2d), dtype=float), th1.shape)
        v2 = np.broadcast_to(np.asarray(f2(taus, th1, th1d, th2, th2d), dtype=float), th1.shape)
        g_slow = 0.5 * (SQRT2 * v1 + v2)
        g_fast = 0.5 * (v2 - SQRT2 * v1)
        zero = np.zeros_like(g_slow)
        if mode is Mode.MODE1:
            return np.stack([zero, g_slow, zero, g_fast])
        return np.stack([zero, g_fast, zero, g_slow])

    return AveragingProblem(4, 2, spec.full_period, beta, flow, fundamental, perturbation)


def pairwise_antipodal_pairing(zeros, radius=1e-6):
    """``averaging.antipodal_pairing`` as one ``np.linalg.norm`` per pair of zeros."""
    classes = []
    used = [False] * len(zeros)
    for i, z in enumerate(zeros):
        if used[i]:
            continue
        used[i] = True
        group = [i]
        for j in range(i + 1, len(zeros)):
            if used[j]:
                continue
            if np.linalg.norm(zeros[j].alpha + z.alpha) < radius:
                used[j] = True
                group.append(j)
                break
        classes.append(group)
    return classes


# ---------------------------------------------------------------------------
# Scalar damped Newton
# ---------------------------------------------------------------------------

def central_difference(F, x):
    """``F(x)`` and its central-difference Jacobian from one call of ``F``.

    The columns are x, then x + h_i e_i for each i, then x - h_i e_i for
    each i, with the step h_i = 1e-6 max(1, |x_i|) of the README.
    """
    d = x.size
    h = 1e-6 * np.maximum(1.0, np.abs(x))
    cols = np.repeat(x[:, None], 2 * d + 1, axis=1)
    for i in range(d):
        cols[i, 1 + i] = x[i] + h[i]
        cols[i, 1 + d + i] = x[i] - h[i]
    values = F(cols)
    jac = np.empty((values.shape[0], d))
    for i in range(d):
        jac[:, i] = (values[:, 1 + i] - values[:, 1 + d + i]) / (2.0 * h[i])
    return values[:, 0], jac


def scalar_damped_newton(
    F, x, tol, bound=math.inf, cond_limit=math.inf, linearize=central_difference
):
    """Damped Newton from one start; returns ``(x, ||F(x)||, steps, jacobian)``.

    Same rules and failure texts as ``pendavg.newton.solve_many``: nine
    halvings per step, trials outside ``||x|| <= bound`` skipped unevaluated,
    at most ``MAX_STEPS`` steps.  Every trial is linearized where it stands,
    ``linearize(F, x) -> (F(x), Jacobian)``, and once accepted that
    linearization is the next step's; if it raises, the trial is evaluated
    alone.  The Jacobian returned is the one at the final x.  An accepted
    trial is linearized again if its linearization raised, so a faulting
    stencil of a taken trial raises, even on the last step.
    """
    x = np.array(x, dtype=float)
    g, jac = linearize(F, x)
    r = float(np.linalg.norm(g))
    if not math.isfinite(r):
        raise NewtonFailure("non-finite residual")
    steps = 0
    while r > tol:
        if steps == MAX_STEPS:
            raise NewtonFailure(f"no convergence after {MAX_STEPS} steps: residual {r:.3e}")
        if not np.isfinite(jac).all():
            raise NewtonFailure("non-finite Jacobian")
        if cond_limit < math.inf and (cond := np.linalg.cond(jac)) > cond_limit:
            raise NewtonFailure(f"Jacobian condition {cond:.1e} exceeds {cond_limit:.1e}")
        try:
            step = np.linalg.solve(jac, -g)
        except np.linalg.LinAlgError:
            raise NewtonFailure("singular Jacobian") from None
        scale = 1.0
        for _ in range(9):
            x_try = x + scale * step
            scale *= 0.5
            if np.linalg.norm(x_try) > bound:
                continue
            try:
                lin = linearize(F, x_try)
            except Exception:
                lin = None
            g_try = F(x_try[:, None])[:, 0] if lin is None else lin[0]
            r_try = float(np.linalg.norm(g_try))
            if r_try < r:
                x, r = x_try, r_try
                break
        else:
            raise NewtonFailure(f"stalled at residual {r:.3e}: 9 halvings did not reduce it")
        steps += 1
        g, jac = linearize(F, x) if lin is None else lin
        r = float(np.linalg.norm(g))
        if not math.isfinite(r):
            raise NewtonFailure("non-finite residual")
    return x, r, steps, jac


# ---------------------------------------------------------------------------
# The standard form on row pairs
# ---------------------------------------------------------------------------

# Positions P = (X, Z) and velocities V = (Y, W) of the two mode planes.  M
# maps (th1, th2) to P and (th1d, th2d), like (F1, F2), to V; M^-1 maps them
# back.  The (2, 2) blocks are applied column by column, as a (2, 1)
# coefficient column times a (m,) row.
_PLANE_OMEGAS = np.array([[OMEGA1], [OMEGA2]])
_M_P = tuple(MODAL_MATRIX[(0, 2), j, None] for j in (0, 2))
_M_V = tuple(MODAL_MATRIX[(1, 3), j, None] for j in (1, 3))
_MINV_P = tuple(INVERSE_MODAL_MATRIX[(0, 2), j, None] for j in (0, 2))
_MINV_V = tuple(INVERSE_MODAL_MATRIX[(1, 3), j, None] for j in (1, 3))


def pair_row_slow_field(forcing, eps, x0):
    """``pendavg.model.slow_field`` on row pairs: ``(rhs, state)`` of ``(tau, v)``.

    The position rows ``(X, Z)`` and velocity rows ``(Y, W)`` of ``v`` are
    handled as two ``(2, m)`` arrays, each plane turned by its own
    ``cos, sin(-omega tau)`` row.
    """
    f1, f2 = forcing
    eps = np.asarray(eps, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    x0P, x0V = x0[0::2], x0[1::2]
    z0P = _M_P[0] * x0P[0] + _M_P[1] * x0P[1]
    z0V = _M_V[0] * x0V[0] + _M_V[1] * x0V[1]

    def plane_states(c, s, v):
        # Phi(tau) q - z0 in each plane, with s = sin(-omega tau).
        w = eps * v
        qP, qV = z0P + w[0::2], z0V + w[1::2]
        (dX, dZ), (dY, dW) = (c * qP - s * qV) - z0P, (c * qV + s * qP) - z0V
        return (
            x0P + (_MINV_P[0] * dX + _MINV_P[1] * dZ),
            x0V + (_MINV_V[0] * dY + _MINV_V[1] * dW),
        )

    def trig(tau):
        angle = _PLANE_OMEGAS * -tau
        return np.cos(angle), np.sin(angle)

    def state(tau, v):
        (th1, th2), (th1d, th2d) = plane_states(*trig(tau), v)
        return np.stack([th1, th1d, th2, th2d])

    def rhs(tau, v):
        c, s = trig(tau)
        (th1, th2), (th1d, th2d) = plane_states(c, s, v)
        F1, F2 = f1(tau, th1, th1d, th2, th2d), f2(tau, th1, th1d, th2, th2d)
        g = _M_V[0] * F1 + _M_V[1] * F2
        out = np.empty_like(v)
        out[0::2] = s * g
        out[1::2] = c * g
        return out

    return rhs, state


# ---------------------------------------------------------------------------
# Fast-state field and fixed-step RK4
# ---------------------------------------------------------------------------

def fast_field(spec, eps):
    """Right-hand side ``rhs(tau, state)`` of the forced first-order system.

    ``(th1d, -2 th1 + th2 + eps F1, th2d, 2 th1 - 2 th2 + eps F2)`` for a
    ``(4,)`` state or a ``(4, m)`` batch at a scalar ``eps``.
    """
    f1, f2 = compiled_forcing(spec)

    def rhs(tau, state):
        th1, th1d, th2, th2d = state
        return np.stack(
            [
                th1d,
                -2.0 * th1 + th2 + eps * f1(tau, th1, th1d, th2, th2d),
                th2d,
                2.0 * th1 - 2.0 * th2 + eps * f2(tau, th1, th1d, th2, th2d),
            ]
        )

    return rhs


def rk4(spec, eps, x0, taus, step):
    """Fixed-step RK4 on the fast state from ``x0`` at ``taus[0]``.

    Each interval of the grid ``taus`` takes ``round(length / step)`` equal
    steps, at least one.  Returns the states at every time of ``taus``, of
    shape ``x0.shape + (len(taus),)``.
    """
    rhs = fast_field(spec, eps)
    y = np.asarray(x0, dtype=float)
    out = [y]
    for t0, t1 in zip(taus, taus[1:]):
        n = max(1, round((t1 - t0) / step))
        h = (t1 - t0) / n
        t = t0
        for i in range(n):
            k1 = rhs(t, y)
            k2 = rhs(t + h / 2, y + h / 2 * k1)
            k3 = rhs(t + h / 2, y + h / 2 * k2)
            k4 = rhs(t + h, y + h * k3)
            y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            t = t0 + (i + 1) * h
        out.append(y)
    return np.stack(out, axis=-1)


# ---------------------------------------------------------------------------
# Expression formatting
# ---------------------------------------------------------------------------

_PRECEDENCE = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}
_NEG_PRECEDENCE = 3


def _format_number(value):
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    return repr(value)


def _node_precedence(node):
    if isinstance(node, BinOp):
        return _PRECEDENCE[node.op]
    if isinstance(node, Neg):
        return _NEG_PRECEDENCE
    return 9


def format_expr(node):
    """Render an Expr back to text; ``parse(format_expr(e))`` equals ``e``."""
    if isinstance(node, Num):
        return _format_number(node.value)
    if isinstance(node, (Var, Const)):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({format_expr(node.arg)})"
    if isinstance(node, Neg):
        inner = format_expr(node.operand)
        if _node_precedence(node.operand) < _NEG_PRECEDENCE:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(node, BinOp):
        prec = _PRECEDENCE[node.op]
        left = format_expr(node.lhs)
        right = format_expr(node.rhs)
        # Binary operators parse left-associatively, so an equal-precedence
        # right child needs parentheses to round-trip structurally.  '^'
        # keeps its literal exponent bare.
        if _node_precedence(node.lhs) < prec or (
            node.op == "^" and _node_precedence(node.lhs) <= prec
        ):
            left = f"({left})"
        if _node_precedence(node.rhs) <= prec:
            right = f"({right})"
        return f"{left} {node.op} {right}"
    raise TypeError(f"not an expression node: {node!r}")
