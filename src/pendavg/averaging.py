"""Averaged bifurcation functions and their simple zeros.

For a forcing pair in p:q resonance with one pendulum mode, the persistence
question reduces to a two-component function of the mode-plane amplitudes
alpha = (a, b), the period mean

    mean(alpha) = (-I[0], +I[1]) / (2 T),    T = p * (mode period),

of the integral I(alpha) over [0, T] of sin/cos(omega tau) times the mode
combination of the forcing evaluated along the closed-form unperturbed
orbit through alpha.  The mean is exactly the projected period average of
M^-1(t) G1 along the orbit, the object whose simple zeros continue to
periodic orbits.

The integral is a periodic trapezoid sum (``_integrate_points``).  On N
nodes it is exact for a trigonometric polynomial of degree below N
(Trefethen and Weideman, SIAM Review 56, 2014), so when ``expr.harmonic_bound``
bounds the integrand's degree, the sum stops at the first level above that
bound and evaluates no check grid.  Any other integrand refines until it
agrees with a shifted check grid, which converges geometrically on the
smooth periodic integrand of a smooth forcing.  The integrand runs
node-major and its sums points-major (``_node_sums``).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from .constants import SQRT2
from .expr import ExprDomainError, harmonic_bound
from .model import Mode, PerturbationSpec, compiled_forcing, unperturbed_orbit
from .newton import Solution, _norms, fault_record, solve_many

# Base-grid node counts of the first sweep level and of the last one allowed.
FIRST_NODES = 8
MAX_NODES = 2 ** 16
# Bound on the point x node values of one integrand call.
CHUNK_FLOATS = 2 ** 14
# Polar (radial, angular) probe grid, and the bound on |mean pair| over the
# largest |integrand| at or below which the pair counts as degenerate.
PROBE_GRID = (8, 8)
ZERO_THRESHOLD = 1e-13


class QuadratureError(RuntimeError):
    """The trapezoid sweep hit the node cap without meeting tolerance."""


# ---------------------------------------------------------------------------
# Periodic trapezoid rule, certified or with a shifted check grid
# ---------------------------------------------------------------------------

def certified_nodes(spec):
    """The first sweep level N at which the trapezoid sum of ``spec``'s integrand is exact, or None.

    Along the resonant orbit every state has harmonic ``p`` of the full
    period, and so does the ``sin/cos(omega tau)`` factor, so the integrand's
    degree is at most the forcings' ``harmonic_bound`` plus ``p``.  The sum
    on N nodes is exact once that degree is below N: every harmonic that
    aliases onto the mean is a multiple of N.  None when either forcing has
    no bound, or the degree needs more than ``MAX_NODES`` nodes.
    """
    p, period = spec.p, spec.full_period
    bounds = [harmonic_bound(f, p, period) for f in (spec.f1, spec.f2)]
    if None in bounds or max(bounds) + p >= MAX_NODES:
        return None
    n = FIRST_NODES
    while n <= max(bounds) + p:
        n *= 2
    return n


def _node_sums(f, points, base, check=None):
    """``(len(points), k, 2)`` sums of ``f`` over ``base`` and over ``check``.

    Without ``check`` the sums are ``(len(points), k, 1)``, over ``base``
    alone.  Also returns each point's largest |f|, which is not finite where
    one of its values is not.  Each integrand call takes a block of base
    nodes and the matching block of check nodes, within ``CHUNK_FLOATS``
    point x node values, node-major, so its ufuncs run along the points.
    Each row adds its blocks in order, each summed points-major in numpy's
    pairwise order along the row: a point's sums keep their bits in any
    batch, and its base sums with or without ``check``.
    """
    grids = (base,) if check is None else (base, check)
    block = min(base.size, CHUNK_FLOATS // 2)
    rows = CHUNK_FLOATS // (len(grids) * block)
    sums, sizes = None, np.zeros(points.size)
    for start in range(0, points.size, rows):
        chunk, total = points[start : start + rows], 0.0
        for lo in range(0, base.size, block):
            taus = np.concatenate([grid[lo : lo + block] for grid in grids])
            values = np.asarray(f(chunk, taus), dtype=float)
            peak = np.abs(values).max(axis=(0, 1))
            # A points-major copy: on a strided view numpy adds in another order.
            rows_major = np.ascontiguousarray(values.transpose(2, 0, 1))
            total = total + rows_major.reshape(*rows_major.shape[:2], len(grids), block).sum(axis=-1)
            np.maximum(sizes[start : start + rows], peak, out=sizes[start : start + rows])
        if sums is None:
            sums = np.empty((points.size,) + total.shape[1:])
        sums[start : start + rows] = total
    return sums, sizes


def _integrate_points(f, m, period, tol, faults=None, nodes=None):
    """Integrate ``f(points, taus) -> (k, len(taus), len(points))`` over a period.

    Each of the m points gets the trapezoid rule on N = 8, 16, ...,
    ``MAX_NODES`` equispaced base nodes from 0; doubling adds the midpoints.
    With ``nodes`` (``certified_nodes``), at which the sum is exact, every
    point sums the levels up to it and evaluates nothing else; ``tol`` does
    not enter.  Without, the error estimate is the gap to the same rule on
    a check grid shifted by (sqrt 5 - 1) / 2 of the coarsest spacing.
    Against 2N nodes instead, a component aliasing onto both grids, such as
    sin((2N + 1) w tau) sin(w tau), would go unseen; on the check grid it
    has another phase.  A point stops once the gap is at most ``tol``, or
    its roundoff floor; it faults (NaN, entered in ``faults`` as
    ``newton.fault_record`` says) at a level with a non-finite value, or
    open at ``MAX_NODES``.  Returns the ``(m, k)`` values, the largest node
    count and the largest |f| of the points that finished, over the nodes
    they evaluated.  Each point refines and sums on its own; a certified
    sum keeps the bits of a checked sweep that stops at the same level.
    """
    n = FIRST_NODES
    shift = (math.sqrt(5.0) - 1.0) / 2.0 * period / n

    def checks(grid):
        return None if nodes else grid + shift

    base = np.arange(n) * (period / n)
    active = np.arange(m)
    sums, size = _node_sums(f, active, base, checks(base))
    value, scale = np.empty(sums.shape[:2]), 0.0
    faults = fault_record(faults)
    while True:
        if not np.isfinite(size).all():
            bad = ~np.isfinite(size)
            for point in active[bad].tolist():
                faults[point] = ExprDomainError("integrand produced non-finite values")
            value[active[bad]] = np.nan
            active, sums, size = active[~bad], sums[~bad], size[~bad]
        h = period / n
        if nodes:
            done = np.full(active.size, n >= nodes)
        else:
            done = np.abs(sums[..., 0] - sums[..., 1]).max(axis=1) * h <= np.maximum(
                tol, 64.0 * np.finfo(float).eps * np.abs(sums[..., 0]).max(axis=1) * h
            )
        value[active[done]] = sums[done, :, 0] * h
        scale = float(np.max(size, initial=scale, where=done))
        active, sums, size = active[~done], sums[~done], size[~done]
        if not active.size or 2 * n > MAX_NODES:
            break
        mids = (np.arange(n) + 0.5) * h
        more, more_size = _node_sums(f, active, mids, checks(mids))
        sums, size = sums + more, np.maximum(size, more_size)
        n *= 2
    for p in active.tolist():
        faults[p] = QuadratureError(f"quadrature did not reach tol={tol:.1e} within {MAX_NODES} nodes")
        value[p] = np.nan
    return value, n, scale


# ---------------------------------------------------------------------------
# The mean bifurcation pair
# ---------------------------------------------------------------------------

@dataclass
class AveragedSystem:
    """The mean bifurcation pair of ``spec``, evaluated in batches by ``eval_many``.

    ``eval_many(alphas, faults)`` returns NaN for a point that faults, with
    its entry in ``faults`` (``newton.fault_record``).  After each call,
    ``last_panels`` holds the largest base-grid node count of the batch and
    ``last_scale`` the largest |integrand| of the points that finished.
    The integrand's ``certified_nodes`` are found once, at construction.
    """

    spec: PerturbationSpec
    tol: float = 1e-11
    last_panels: int = field(default=0, compare=False)
    last_scale: float = field(default=0.0, compare=False)
    _nodes: int | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._nodes = certified_nodes(self.spec)

    def __call__(self, alpha):
        return self.eval_many(np.asarray(alpha, dtype=float)[None, :])[0]

    def eval_many(self, alphas, faults=None):
        """The ``(m, 2)`` mean pair at the ``m`` rows of ``alphas``, in one quadrature.

        A whole seed grid or Newton round costs one trapezoid sweep, in
        which each point refines on its own criterion and is summed on its
        own, so its value is bit for bit its single-point value.  A
        band-limited integrand is summed at its ``certified_nodes``.
        """
        alphas = np.asarray(alphas, dtype=float).reshape(-1, 2)
        if not alphas.size:
            self.last_panels, self.last_scale = 0, 0.0
            return np.empty((0, 2))
        mode = self.spec.mode
        w = mode.omega
        sign = 1.0 if mode is Mode.MODE1 else -1.0
        f1, f2 = compiled_forcing(self.spec)
        amplitudes = alphas.T.copy()
        period = self.spec.full_period

        def integrand(points, taus):
            column = taus[:, None]
            states = unperturbed_orbit(mode, amplitudes[:, points], column)
            combo = sign * SQRT2 * f1(column, *states) + f2(column, *states)
            combo = np.broadcast_to(np.asarray(combo, dtype=float), states[0].shape)
            return np.stack([np.sin(w * column), np.cos(w * column)]) * combo

        with np.errstate(all="ignore"):
            integral, self.last_panels, self.last_scale = _integrate_points(
                integrand, alphas.shape[0], period, self.tol, faults, self._nodes
            )
        return np.stack([-integral[:, 0], integral[:, 1]], axis=1) / (2.0 * period)

    def jacobian(self, alpha):
        """The Jacobian ``solve_many`` carries for a start that settles at ``alpha``; raises its faults."""
        alpha = np.asarray(alpha, dtype=float)[:, None]
        return solve_many(lambda cols, *_: self.eval_many(cols.T).T, alpha, math.inf)[0].jacobian


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


class ZeroList(list):
    """``find_zeros``'s zeros; ``degenerate`` is its ``is_identically_zero`` verdict."""

    def __init__(self, zeros=(), degenerate=False):
        super().__init__(zeros)
        self.degenerate = degenerate


def seed_grid(r1, r2, n_radial=24, n_angular=24):
    """Polar seed grid over the annulus r1 < ||alpha|| < r2."""
    angles = np.linspace(0.0, 2.0 * math.pi, n_angular, endpoint=False)
    # math's cos/sin, not numpy's, whose SIMD loops may round otherwise.
    trig = np.array([[math.cos(t), math.sin(t)] for t in angles.tolist()])
    return (np.linspace(r1, r2, n_radial)[:, None, None] * trig).reshape(-1, 2)


def is_identically_zero(system, r1, r2):
    """True when the mean pair vanishes on a probe grid over the annulus.

    Degenerate forcings (zero forcing, or any forcing whose projections
    against sin/cos integrate away over full periods) produce an
    identically zero pair; Newton would then "converge" at every seed, so
    the search must be short-circuited.  Such a pair is the roundoff of a
    cancelling integral, so it is judged against ``ZERO_THRESHOLD`` times
    the largest |integrand| (``last_scale``, which that call sets).  The
    probe keeps the check grid for a band-limited forcing too: its
    integrand may vanish on every node of the certified grid, as
    th1^2 sin(32 w1 tau) sin(w1 tau) does on 64, which leaves a scale of
    roundoff.  The probe points are evaluated in one call; a point that
    faults is not judged, and the first probe point's fault is raised only
    when every point faults.
    """
    probes = seed_grid(r1, r2, *PROBE_GRID)
    faults = {}
    system = copy.copy(system)  # the caller's system keeps its certified sweep
    system._nodes = None
    pair = system.eval_many(probes, faults)
    if len(faults) == len(probes):
        raise faults[0]
    # A point that faults is NaN, which the max skips.
    return float(np.nanmax(np.abs(pair))) <= ZERO_THRESHOLD * system.last_scale


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

    ``system`` is an ``AveragedSystem``, or anything with its
    ``eval_many(alphas, faults)`` and the ``last_scale`` that each call
    sets, which ``is_identically_zero`` reads.  ``newton.solve_many`` runs
    damped Newton from every polar grid seed in lockstep, one ``eval_many``
    call per round, confined to the ball ``||alpha|| <= 10 max(r2, 1)``;
    each seed takes the steps it would take alone.  A seed or probe point
    whose own evaluation faults (a domain fault or the quadrature cap)
    leaves its batch with that fault, and is dropped, as is a seed whose
    Newton run fails; that is not an error, and the others go on; so is a
    seed whose stencil at its solution faults.  Converged points are kept
    when they land strictly inside the annulus, deduplicated, and labelled
    simple when |det| of the central-difference Jacobian exceeds
    ``det_threshold``: the Jacobian that Newton evaluated at the zero, at
    no further evaluation.  An empty list is a valid outcome; its ``degenerate`` flag tells an
    identically zero pair from one with no zero in the annulus.
    Zeros come back sorted on their coordinates rounded to multiples of
    ``dedup_radius``, which Newton noise far below it (1e-11 on an axis
    zero) cannot flip, and seed grid order within a bin.  Each zero kept
    drops every later one within the radius: residuals pick no winner.
    """
    if r1 <= 0:
        raise ValueError("r1 must be positive: the origin is always excluded")
    if r2 <= r1:
        raise ValueError("require r1 < r2")
    if is_identically_zero(system, r1, r2):
        return ZeroList(degenerate=True)
    outcomes = solve_many(
        lambda cols, _, faults: system.eval_many(cols.T, faults).T,
        seed_grid(r1, r2, *grid).T,
        newton_tol,
        bound=10.0 * max(r2, 1.0),
    )
    solutions = [o for o in outcomes if isinstance(o, Solution)]
    x = np.array([s.x for s in solutions]).reshape(-1, 2)
    norm = _norms(x)
    inside = np.flatnonzero((r1 < norm) & (norm < r2))
    with np.errstate(over="ignore"):  # a subnormal radius gives bins of inf, which still sort
        bins = np.round(x[inside] / dedup_radius)
    rest = inside[np.lexsort((bins[:, 1], bins[:, 0]))]  # stable: grid order within a bin
    zeros = ZeroList()
    while rest.size:
        c, rest = solutions[rest[0]], rest[1:]
        det = float(np.linalg.det(c.jacobian))
        zeros.append(ZeroResult(c.x, c.residual, c.jacobian, det, abs(det) > det_threshold, c.steps))
        rest = rest[~(_norms(x[rest] - c.x) < dedup_radius)]
    return zeros


def antipodal_pairing(zeros, radius=1e-6):
    """Group alpha with -alpha: both seed the same unperturbed orbit.

    Returns the classes as lists of 1 or 2 indices into ``zeros``, each
    zero paired with the first later unpaired zero within ``radius`` of its
    negation, all measured in one ``_norms`` call (bit for bit
    ``np.linalg.norm``); the class count is the number of distinct
    predicted periodic orbits.
    """
    alphas = np.array([z.alpha for z in zeros]).reshape(-1, 2)
    paired = np.zeros(len(zeros), dtype=bool)
    classes = []
    for i in range(len(zeros)):
        if paired[i]:
            continue
        later = i + 1 + np.flatnonzero(~paired[i + 1 :])
        near = later[_norms(alphas[later] + alphas[i]) < radius]
        paired[near[:1]] = True
        classes.append([i] + near[:1].tolist())
    return classes
