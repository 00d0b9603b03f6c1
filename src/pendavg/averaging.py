"""Averaged bifurcation functions and their simple zeros.

For a forcing pair in p:q resonance with one pendulum mode, the persistence
question reduces to a two-component function of the mode-plane amplitudes
alpha = (a, b):

    raw(alpha)  = integral over [0, T] of sin/cos(omega tau) times the
                  mode combination of the forcing evaluated along the
                  closed-form unperturbed orbit through alpha;
    mean(alpha) = (-raw[0], +raw[1]) / (2 T),    T = p * (mode period)

The ``mean`` pair is the canonical output (it is exactly the projected
period average of M^-1(t) G1 along the orbit, the object whose simple
zeros continue to periodic orbits); the ``raw`` pair differs only by the
nonzero constant -/(+ 2 p T) per component, so both have the same zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import SQRT2
from .expr import ExprDomainError
from .model import Mode, PerturbationSpec, compiled_forcing, unperturbed_orbit
from .newton import linearize, solve_many

MAX_PANELS = 2 ** 16
# Bound on the point x node values of one integrand call.
CHUNK_FLOATS = 2 ** 14
_RULE_ORDER = 15
# Polar (radial, angular) probe grid and the bound on |mean pair| below
# which ``is_identically_zero`` calls the pair degenerate.
PROBE_GRID = (8, 8)
ZERO_THRESHOLD = 1e-13


class QuadratureError(RuntimeError):
    """Adaptive quadrature hit the panel cap without meeting tolerance."""


# ---------------------------------------------------------------------------
# Adaptive composite Gauss-Legendre quadrature
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(_RULE_ORDER)


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
            # Summed per row: a BLAS product's order would depend on the batch.
            part = (values * weights[lo : lo + block]).sum(axis=-1)
            total = part if total is None else total + part
        sums.append(total)
    return np.concatenate(sums)


def _integrate_points(f, m, a, b, tol, max_panels):
    """Integrate ``f(points, taus) -> (len(points), k, len(taus))`` at m points.

    Returns the ``(m, k)`` values and each point's panel count.  Each point
    refines until its own criterion holds, so neither depends on the other
    points.
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
    panel count doubles until two consecutive refinements differ by at
    most ``tol`` in every component.  For integrals so large that ``tol``
    sits below the summation roundoff, the roundoff floor wins: absolute
    accuracy beyond machine precision times the magnitude is unattainable.
    """
    value, panels = _integrate_points(
        lambda points, taus: np.atleast_2d(f(taus))[None], 1, a, b, tol, max_panels
    )
    return QuadratureResult(value[0], int(panels[0]))


# ---------------------------------------------------------------------------
# Mode-specialized bifurcation functions
# ---------------------------------------------------------------------------

@dataclass
class AveragedValues:
    """Raw integral pair and its period-mean counterpart at one alpha."""

    raw: np.ndarray
    averaged: np.ndarray
    panels: int


def _batched_pair(spec, alphas, tol):
    """Evaluate the bifurcation pair at many alphas in one quadrature.

    Returns (raw, averaged) arrays of shape (m, 2) and the largest panel
    count.  A whole seed grid or Newton round costs one adaptive sweep, in
    which each point refines on its own criterion and is summed on its own,
    so its value is bit for bit its single-point value.  The integrand runs
    on chunks of at most ``CHUNK_FLOATS`` point x node values.
    """
    alphas = np.asarray(alphas, dtype=float).reshape(-1, 2)
    mode = spec.mode
    w = mode.omega
    sign = 1.0 if mode is Mode.MODE1 else -1.0
    f1, f2 = compiled_forcing(spec)
    period = spec.full_period

    def integrand(points, taus):
        chunk = alphas[points]
        states = unperturbed_orbit(mode, (chunk[:, 0:1], chunk[:, 1:2]), taus[None, :])
        th1, th1d, th2, th2d = states
        combo = sign * SQRT2 * f1(taus[None, :], th1, th1d, th2, th2d) + f2(
            taus[None, :], th1, th1d, th2, th2d
        )
        combo = np.broadcast_to(np.asarray(combo, dtype=float), th1.shape)
        trig_s = np.sin(w * taus)[None, :]
        trig_c = np.cos(w * taus)[None, :]
        return np.stack([trig_s * combo, trig_c * combo], axis=1)

    raw, panels = _integrate_points(integrand, alphas.shape[0], 0.0, period, tol, MAX_PANELS)
    averaged = np.stack([-raw[:, 0], raw[:, 1]], axis=1) / (2.0 * period)
    return raw, averaged, int(panels.max(initial=0))


def averaged_pair(spec, alpha, tol=1e-11):
    """Raw and mean bifurcation values at one point of the mode plane."""
    raw, averaged, panels = _batched_pair(spec, np.asarray(alpha, dtype=float)[None, :], tol)
    return AveragedValues(raw[0], averaged[0], panels)


@dataclass
class AveragedSystem:
    """Callable mean bifurcation pair with finite-difference Jacobian access."""

    spec: PerturbationSpec
    tol: float = 1e-11
    last_panels: int = field(default=0, compare=False)

    def __call__(self, alpha):
        return self.eval_many(np.asarray(alpha, dtype=float)[None, :])[0]

    def eval_many(self, alphas):
        _, averaged, panels = _batched_pair(self.spec, alphas, self.tol)
        self.last_panels = panels
        return averaged

    def jacobian(self, alpha):
        """Central-difference Jacobian from ``newton.linearize``."""
        return linearize(lambda cols: self.eval_many(cols.T).T, alpha)[1]


# ---------------------------------------------------------------------------
# Zero finding
# ---------------------------------------------------------------------------

@dataclass
class ZeroResult:
    alpha: np.ndarray
    residual: float
    jacobian: np.ndarray
    det: float
    simple: bool
    iterations: int


def seed_grid(r1, r2, n_radial=24, n_angular=24):
    """Polar seed grid over the annulus r1 < ||alpha|| < r2."""
    radii = np.linspace(r1, r2, n_radial)
    angles = np.linspace(0.0, 2.0 * math.pi, n_angular, endpoint=False)
    return np.array(
        [[r * math.cos(t), r * math.sin(t)] for r in radii for t in angles]
    )


def is_identically_zero(system, r1, r2):
    """True when the mean pair vanishes on a probe grid over the annulus.

    Degenerate forcings (zero forcing, or any forcing whose projections
    against sin/cos integrate away over full periods) produce an
    identically zero pair; Newton would then "converge" at every seed, so
    the search must be short-circuited.
    """
    values = system.eval_many(seed_grid(r1, r2, *PROBE_GRID))
    return float(np.abs(values).max()) <= ZERO_THRESHOLD


def canonical_key(alpha, radius):
    """Sort key for a zero: each coordinate rounded to a multiple of ``radius``.

    Zeros closer than the dedup radius are merged, so this loses no real
    distinction, while Newton noise far below ``radius`` (e.g. 1e-11 on a
    zero that sits on an axis) cannot flip the order.  Only a coordinate
    within noise of a half-bin boundary can still move between bins.
    """
    return tuple(int(v) for v in np.round(np.asarray(alpha, dtype=float) / radius))


def find_zeros(
    system,
    r1=1e-2,
    r2=50.0,
    grid=(24, 24),
    newton_tol=1e-11,
    dedup_radius=1e-6,
    det_threshold=1e-8,
):
    """Locate the zeros of the mean pair inside the open annulus.

    ``newton.solve_many`` runs damped Newton from every polar grid seed in
    lockstep, one ``eval_many`` call per round, confined to the ball
    ``||alpha|| <= 10 max(r2, 1)``; each seed takes the steps it would take
    alone.  A seed whose Newton run fails or whose own evaluation faults
    (a domain fault or the quadrature cap) is dropped, which is not an
    error; its round-mates go on.  Converged points are kept when they land
    strictly inside the annulus, deduplicated, and labelled simple when
    |det| of the central-difference Jacobian exceeds ``det_threshold``.  An empty list is a valid outcome.
    Zeros come back in ``canonical_key`` order at ``dedup_radius``, seed
    grid order within one bin; of near-duplicates, the first in that order
    is kept.  Residuals of converged seeds are roundoff, so they pick no
    winner: the first seed to converge into a bin reports that zero.
    """
    if r1 <= 0:
        raise ValueError("r1 must be positive: the origin is always excluded")
    if r2 <= r1:
        raise ValueError("require r1 < r2")
    if is_identically_zero(system, r1, r2):
        return []
    outcomes = solve_many(
        lambda cols, _: system.eval_many(cols.T).T,
        seed_grid(r1, r2, *grid).T,
        newton_tol,
        bound=10.0 * max(r2, 1.0),
        faults=(ExprDomainError, QuadratureError),
    )
    candidates = [
        outcome
        for outcome in outcomes
        if isinstance(outcome, tuple) and r1 < float(np.linalg.norm(outcome[0])) < r2
    ]
    # This is also the output order: zeros are kept in candidate order.  The
    # sort is stable, so seeds stay in grid order within one bin.
    candidates.sort(key=lambda c: canonical_key(c[0], dedup_radius))

    zeros = []
    for alpha, residual, iterations in candidates:
        if any(np.linalg.norm(alpha - z.alpha) < dedup_radius for z in zeros):
            continue
        jac = system.jacobian(alpha)
        det = float(np.linalg.det(jac))
        simple = abs(det) > det_threshold and residual <= newton_tol
        zeros.append(ZeroResult(alpha, residual, jac, det, simple, iterations))
    return zeros


def antipodal_pairing(zeros, radius=1e-6):
    """Group alpha with -alpha: both seed the same unperturbed orbit.

    Returns a list of classes (lists of 1 or 2 ZeroResults); the class
    count is the number of distinct predicted periodic orbits.
    """
    classes = []
    used = [False] * len(zeros)
    for i, z in enumerate(zeros):
        if used[i]:
            continue
        used[i] = True
        group = [z]
        for j in range(i + 1, len(zeros)):
            if used[j]:
                continue
            if np.linalg.norm(zeros[j].alpha + z.alpha) < radius:
                used[j] = True
                group.append(zeros[j])
                break
        classes.append(group)
    return classes
