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

A flow integrates the paper's standard form (``model.slow_field``): the
slow deviation ``v = (z - z0) / eps`` of the variation-of-constants state
``z = Phi(-tau) M y`` from its start.  The linear oscillation ``Phi`` is
applied in closed form, so ``v`` stays O(1) and its field does not scale
with eps; one tolerance on ``v`` bounds the O(eps) displacement to the
same relative accuracy at every eps.

The field reads ``v`` only through ``eps v``, so the Picard map ``v ->
int G(s, v(s)) ds`` contracts fast, and a flow is a Chebyshev-Picard
iteration (``_picard_deviation``): ``PICARD_SEGMENTS`` segments per period
of the resonant mode, each carrying ``v`` at N + 1 = 25 Chebyshev-Lobatto
nodes, taken one after another.  A sweep evaluates the field at every
node of every column in one call and integrates the node values with one
matrix product; a segment takes about three sweeps.  A column settles on a
segment when its estimated iteration error and its series tail are below
its tolerance.  A column that the iteration cannot serve -- its update is
not finite or does not shrink, it does not settle within
``PICARD_MAX_SWEEPS`` sweeps, its tail does not decay, or a kink of the
forcing (``expr.kinks``) falls between two nodes -- is integrated instead
by DOP853 from tau = 0, and only DOP853 declares a flow fault, with the
type and message it has always had.

DOP853 is the eighth-order Runge-Kutta pair of Prince and Dormand with the
8(5,3) error estimate and a seventh-order dense output, as given by Hairer,
Norsett and Wanner; its step count does not depend on eps.  A step knows
all its stage times ``t + c_i h`` before it starts, so it hands them to the
field at once and the rotation ``Phi(-tau)`` is evaluated once per step.
Its tolerance and step budget are the module constants ``DOP853_TOL`` and
``DOP853_MAX_STEPS``; the Picard iteration takes the same tolerance.  A
flow may ask a looser tolerance: shooting flows its guesses' stencils at
``DOP853_ROUGH_TOL``, since those values only aim the first Newton step,
and every trial at ``DOP853_TOL``.

A flow takes a ``(4, m)`` batch of columns, each at its own eps and
tolerance, and each column's result is bit for bit the one it gets alone:
the iteration decides per column, and DOP853 steps each on its own clock.
A column that faults leaves with its reason, as a finished one leaves.
``flow_map`` maps back the endpoint, and can record each column's segment
nodes or, for a fallback column, its accepted steps, from which
``sample_states`` reads any time by barycentric interpolation or dense
output.  So ``shoot_many`` shoots every (guess, eps) case at once, in one
lockstep Newton, and samples each converged orbit from the flow and column
that Newton reports gave its solution, a flow at ``DOP853_TOL``, with no
further integration.  A fault costs only its own case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .expr import ExprDomainError, compile_expr, kinks
from .model import compiled_forcing, slow_field, unperturbed_orbit
from .newton import NewtonFailure, Solution, central, fault_record, solve_many


class IntegrationError(RuntimeError):
    """The integrator ran out of steps before reaching the end time."""


class ShootingError(RuntimeError):
    """The period-map Newton solve failed or was ill-posed."""


# DOP853's tolerance on the slow deviation, and its step attempts per column.
# Shooting's first flow, which evaluates the guesses and their stencils, runs
# at the rough tolerance: their residuals are O(eps), far above its error.
DOP853_TOL = 1e-9
DOP853_ROUGH_TOL = 1e-7
DOP853_MAX_STEPS = 2_000_000
# Condition number of a displacement Jacobian above which shooting stops.
COND_LIMIT = 1e12
# Chebyshev-Picard segments per period of the resonant mode, and the sweeps
# a column may make on one segment before it falls back to DOP853.
PICARD_SEGMENTS = 4
PICARD_MAX_SWEEPS = 16


# ---------------------------------------------------------------------------
# Integrator: DOP853, the explicit Runge-Kutta pair of order 8 with error
# estimators of orders 5 and 3 and a dense output of order 7 (Hairer,
# Norsett & Wanner, Solving Ordinary Differential Equations I, 2nd ed.,
# sections II.5-II.6; Prince & Dormand, J. Comput. Appl. Math. 7 (1981)).
# Stage i is evaluated at t + _C[i] h from y + h sum_j _A[i - 1][j] k_j.
# Stages 0-11 make the step, whose weights are row 12 (the FSAL stage at
# the new state); _E3 and _E5 weight stages 0-11 into the two error
# estimates, and stages 13-15 and the rows _D build the interpolant.
# Every (4, m) column keeps its own clock, so no column depends on another.
# ---------------------------------------------------------------------------

# The coefficients, each row ended by ";": the 16 nodes C, rows 1-15 of A
# (row i weights stages 0 to i - 1), E3 and E5 (stages 0-11), and the four
# rows of D (stages 0-15).  They are one string of literals because
# compiling them as some 280 float constants took about 0.25 MB of parser
# memory on every import without cached bytecode, which showed in peak RSS.
_TABLE = """
0.0 0.05260015195876773 0.0789002279381516 0.1183503419072274 0.2816496580927726
0.3333333333333333 0.25 0.3076923076923077 0.6512820512820513 0.6 0.8571428571428571 1.0 1.0
0.1 0.2 0.7777777777777778;
0.05260015195876773;
0.0197250569845379 0.0591751709536137;
0.02958758547680685 0.0 0.08876275643042054;
0.2413651341592667 0.0 -0.8845494793282861 0.924834003261792;
0.037037037037037035 0.0 0.0 0.17082860872947386 0.12546768756682242;
0.037109375 0.0 0.0 0.17025221101954405 0.06021653898045596 -0.017578125;
0.03709200011850479 0.0 0.0 0.17038392571223998 0.10726203044637328 -0.015319437748624402
0.008273789163814023;
0.6241109587160757 0.0 0.0 -3.3608926294469414 -0.868219346841726 27.59209969944671
20.154067550477894 -43.48988418106996;
0.47766253643826434 0.0 0.0 -2.4881146199716677 -0.590290826836843 21.230051448181193
15.279233632882423 -33.28821096898486 -0.020331201708508627;
-0.9371424300859873 0.0 0.0 5.186372428844064 1.0914373489967295 -8.149787010746927
-18.52006565999696 22.739487099350505 2.4936055526796523 -3.0467644718982196;
2.273310147516538 0.0 0.0 -10.53449546673725 -2.0008720582248625 -17.9589318631188
27.94888452941996 -2.8589982771350235 -8.87285693353063 12.360567175794303
0.6433927460157636;
0.054293734116568765 0.0 0.0 0.0 0.0 4.450312892752409 1.8915178993145003 -5.801203960010585
0.3111643669578199 -0.1521609496625161 0.20136540080403034 0.04471061572777259;
0.056167502283047954 0.0 0.0 0.0 0.0 0.0 0.25350021021662483 -0.2462390374708025
-0.12419142326381637 0.15329179827876568 0.00820105229563469 0.007567897660545699 -0.008298;
0.03183464816350214 0.0 0.0 0.0 0.0 0.028300909672366776 0.053541988307438566
-0.05492374857139099 0.0 0.0 -0.00010834732869724932 0.0003825710908356584
-0.00034046500868740456 0.1413124436746325;
-0.42889630158379194 0.0 0.0 0.0 0.0 -4.697621415361164 7.683421196062599 4.06898981839711
0.3567271874552811 0.0 0.0 0.0 -0.0013990241651590145 2.9475147891527724 -9.15095847217987;
-0.18980075407240762 0.0 0.0 0.0 0.0 4.450312892752409 1.8915178993145003 -5.801203960010585
-0.4226823213237919 -0.1521609496625161 0.20136540080403034 0.02265179219836082;
0.01312004499419488 0.0 0.0 0.0 0.0 -1.2251564463762044 -0.4957589496572502
1.6643771824549864 -0.35032884874997366 0.3341791187130175 0.08192320648511571
-0.022355307863886294;
-8.428938276109013 0.0 0.0 0.0 0.0 0.5667149535193777 -3.0689499459498917 2.38466765651207
2.117034582445028 -0.871391583777973 2.2404374302607883 0.6315787787694688
-0.08899033645133331 18.148505520854727 -9.194632392478356 -4.436036387594894;
10.427508642579134 0.0 0.0 0.0 0.0 242.28349177525817 165.20045171727028 -374.5467547226902
-22.113666853125306 7.733432668472264 -30.674084731089398 -9.332130526430229
15.697238121770845 -31.139403219565178 -9.35292435884448 35.81684148639408;
19.985053242002433 0.0 0.0 0.0 0.0 -387.0373087493518 -189.17813819516758 527.8081592054236
-11.57390253995963 6.8812326946963 -1.0006050966910838 0.7777137798053443 -2.778205752353508
-60.19669523126412 84.32040550667716 11.99229113618279;
-25.69393346270375 0.0 0.0 0.0 0.0 -154.18974869023643 -231.5293791760455 357.6391179106141
93.40532418362432 -37.45832313645163 104.0996495089623 29.8402934266605 -43.53345659001114
96.32455395918828 -39.17726167561544 -149.72683625798564;
"""
_ROWS = [tuple(map(float, row.split())) for row in _TABLE.split(";")[:-1]]
_C, _A, _E3, _E5, _D = _ROWS[0], tuple(_ROWS[1:16]), _ROWS[16], _ROWS[17], tuple(_ROWS[18:])
# The nodes as a (16, 1) column: stage times t + _C_COLS[first:last + 1] * h
# for a (m,) clock t and step h make the same products and sums as t + _C[i] * h.
_C_COLS = np.array(_C)[:, None]
# Stage weights as (i, 1, 1) columns against the first i stages of a
# (16, 4, m) stack.  A row is summed over that leading axis, which adds the
# stages in order for every column alike.
_A_COLS = tuple(np.array(row)[:, None, None] for row in _A)
_E3_COLS, _E5_COLS = (np.array(e)[:, None, None] for e in (_E3, _E5))
_D_COLS = tuple(np.array(row)[:, None, None] for row in _D)


def _check_finite(values, tau, col, faults):
    """Mask of the columns of the ``(..., k)`` values that are not all finite; None if none.

    Each such column j enters output column ``col[j]`` in ``faults``, unless
    there already, as an ``ExprDomainError`` near its time ``tau[j]`` (or ``tau``).
    """
    finite = np.isfinite(values)
    if finite.all():
        return None
    bad = ~finite.reshape(-1, finite.shape[-1]).all(axis=0)
    for c, t in zip(col[bad].tolist(), np.broadcast_to(tau, bad.shape)[bad].tolist()):
        faults.setdefault(c, ExprDomainError(f"forcing produced a non-finite value near tau={t:.6g}"))
    return bad


def _stages(field, t, y, h, k, first, last):
    """Fill stages ``first`` to ``last`` of the ``(s, 4, m)`` stage stack ``k`` in place.

    ``field`` takes all their times ``t + c_i h`` at once, as one
    ``(last - first + 1, m)`` array, and returns ``(rhs, state)`` (as
    ``model.slow_field``'s ``at`` does); stage ``i`` is then
    ``rhs(i - first, y_i)``.  Stage 0 is evaluated at ``y``.  Returns the
    last stage's state.
    """
    rhs = field(t + _C_COLS[first : last + 1] * h)[0]
    for i in range(first, last + 1):
        yi = y + h * (_A_COLS[i - 1] * k[:i]).sum(axis=0) if i else y
        k[i] = rhs(i - first, yi)
    return yi


def _dop853_step(field, t, y, h, k, first=1):
    """One DOP853 step of every column from ``(t, y)`` by ``h``.

    ``k[0]`` holds the field at ``(t, y)``, unless ``first`` is 0: then the
    step evaluates it too, with the others.  Stages ``first`` to 12 share
    one call of ``field`` (``_stages``), so the rotation of a step is
    evaluated once; the last stage is at ``(t + h, y_new)``, the next
    step's first stage.  Returns ``y_new`` and the two error estimates
    divided by h, of orders 5 and 3.
    """
    y_new = _stages(field, t, y, h, k, first, 12)
    return y_new, (_E5_COLS * k[:12]).sum(axis=0), (_E3_COLS * k[:12]).sum(axis=0)


def _dense_output(field, t, y, h, k, y_new):
    """The ``(7, 4, m)`` interpolant coefficients of the step just made.

    Stages 13-15 are written into ``k``, from one call of ``field``.
    ``_interpolate`` reads the seventh-order dense output from them.
    """
    _stages(field, t, y, h, k, 13, 15)
    dy = y_new - y
    hk0 = h * k[0]
    coeffs = [dy, hk0 - dy, 2.0 * dy - (h * k[12] + hk0)]
    coeffs += [h * (row * k).sum(axis=0) for row in _D_COLS]
    return np.stack(coeffs)


def _interpolate(y, coeffs, theta, at=...):
    """The dense output of steps ``at`` at ``t + theta * h``: ``y`` at theta = 0, bit for bit.

    ``at`` indexes the last axis of ``y`` and of each coefficient row, one
    row at a time, so a gather of many steps holds one gathered row.
    """
    out = coeffs[6][:, at]
    for i in range(5, -1, -1):
        out = coeffs[i][:, at] + (theta if i % 2 else 1.0 - theta) * out
    return y[:, at] + theta * out


def _slow_deviation(forcing, eps, x0, end, steps=None, faults=None, tol=None):
    """The ``(4, m)`` slow deviations ``v`` of ``model.slow_field`` at ``end``.

    Adaptive DOP853 from ``v = 0`` at tau = 0, for the ``(4, m)`` starts
    ``x0`` at the ``(m,)`` values ``eps``; ``forcing`` is the ``(F1, F2)``
    pair.  Each column keeps its own clock: its own time, step size,
    accept/reject decision and step count.  ``tol`` is a scalar or one
    value per column, finite and positive (else ``ValueError``),
    ``DOP853_TOL`` if None.  A column scales each
    component's error by ``tol + tol * max(|v|, |v_new|)`` and accepts,
    rejects and resizes its step on the 8(5,3) error norm of its four
    scaled errors, so an error of ``tol`` in ``v`` is one of
    ``eps * tol`` in the state.  A column cuts its last step to
    land on ``end`` exactly and then leaves the batch.
    ``DOP853_MAX_STEPS`` bounds each column's step attempts.

    A column that faults leaves in the same way, NaN, with its entry in
    ``faults`` (``newton.fault_record``) pass by pass, check by check, then
    by column: it goes non-finite (``ExprDomainError`` near its own time),
    or its step underflows or runs out (``IntegrationError``).

    ``steps``, if given, is a list to which each pass appends the
    ``(col, t, h, y)`` of the steps it accepted: their output columns,
    start times, step sizes and ``(4, k)`` start states.  That record is
    all ``_dense_samples`` needs to rebuild their dense output, so the
    loop itself evaluates only the 12 stages of each step.
    """
    max_steps = DOP853_MAX_STEPS
    m = x0.shape[1]
    tol = _tolerances(tol, m)
    if not m or end == 0.0:
        return np.zeros_like(x0)
    out = np.full_like(x0, np.nan)
    col = np.arange(m)  # the output column of each column still stepping
    t = np.zeros(m)
    h = np.full(m, min(end / 100.0, 0.1))
    y = np.zeros_like(x0)
    field = slow_field(forcing, eps, x0)
    k = np.empty((13, 4, m))  # the step's stages; the dense ones are rebuilt from ``steps``
    _stages(field, t, y, h, k, 0, 0)
    faults = fault_record(faults)
    gone = (leave := _check_finite(k[0], t, col, faults)) is not None
    # Each column still stepping makes one attempt per pass, so the pass count is its
    # step count.  Where ``gone``, ``leave`` marks the columns finished or faulted.
    for _ in range(max_steps):
        if gone:
            keep = ~leave
            col, t, h, eps, tol = (a[keep] for a in (col, t, h, eps, tol))
            y, x0, k = y[:, keep], x0[:, keep], k[:, :, keep]
            if not col.size:
                break
            field = slow_field(forcing, eps, x0)
        last = t + h >= end
        h = np.where(last, end - t, h)
        # A step below half a unit in the last place of t cannot advance
        # its column; near a blow-up it would spin forever.
        if gone := (leave := t + h == t).any():
            for c, tc in zip(col[leave].tolist(), t[leave].tolist()):
                faults[c] = IntegrationError(f"dop853 step underflow near tau={tc:.6g}")
        y_new, err5, err3 = _dop853_step(field, t, y, h, k)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        err5, err3 = (err5 / scale) ** 2, (err3 / scale) ** 2
        err5 = err5[0] + err5[1] + err5[2] + err5[3]
        denom = err5 + 0.01 * (err3[0] + err3[1] + err3[2] + err3[3])
        err_norm = np.abs(h) * err5 / np.sqrt(4.0 * np.where(denom > 0.0, denom, 1.0))
        if (bad := _check_finite(err_norm, t, col, faults)) is not None:
            leave, gone = leave | bad, True
        ok = err_norm <= 1.0  # a stalled column may step too; it leaves all the same
        if steps is not None and ok.any():
            steps.append((col[ok], t[ok], h[ok], y[:, ok]))
        t = np.where(ok, np.where(last, end, t + h), t)
        y = np.where(ok, y_new, y)
        if (bad := _check_finite(y, t, col, faults)) is not None:
            leave, gone = leave | bad, True
        k[0] = np.where(ok, k[12], k[0])  # FSAL: the last stage is the next first stage
        h = h * np.minimum(5.0, np.maximum(0.2, 0.9 * (err_norm + 1e-300) ** -0.125))
        if (done := ok & last).any():
            done &= ~leave
            out[:, col[done]] = y[:, done]
            leave, gone = leave | done, True
    else:
        for c in col[~leave].tolist():
            faults[c] = IntegrationError(f"dop853 exceeded max_steps={max_steps}")
    return out


# ---------------------------------------------------------------------------
# Chebyshev-Picard iteration (Clenshaw & Norton, Comput. J. 6 (1963); Bai &
# Junkins, J. Astronaut. Sci. 58 (2011)).  The period is cut into segments,
# each carrying the values of v at N + 1 Chebyshev-Lobatto nodes.  On a
# segment [t0, t0 + h] a sweep replaces them by v(t0) + (h / 2) Q G, where
# G holds the field at every node and Q integrates the interpolant of its
# node values from the segment's start (Trefethen, Approximation Theory and
# Approximation Practice, SIAM 2013).  The field reads v only through
# eps v, so a sweep contracts by about eps L h.
# ---------------------------------------------------------------------------

_N = 24  # a segment's polynomial degree: N + 1 nodes
# A column settles once its estimated iteration error is this fraction of
# its tolerance: the error of a segment's start carries into the next.
_SETTLE = 0.1
# Barycentric samples per batch: a 4-eps ladder's 1,024 samples at once
# held some 2.3 MB of temporaries.
_SAMPLE_CHUNK = 128


def _lobatto_tables(n):
    """Nodes, integration matrix, tail rows and barycentric weights of ``n + 1`` Lobatto points.

    The nodes ``x_j = -cos(pi j / n)`` ascend from -1 to 1, both exact.
    Row ``j`` of the integration matrix maps node values to the integral
    of their interpolant from -1 to ``x_j``; row 0 is exactly 0.  The tail
    rows map node values to the interpolant's Chebyshev coefficients of
    degrees ``n - 1`` and ``n``.  Everything is built from cosines of the
    Lobatto angles ``theta_j = pi (n - j) / n``, where ``x_j = cos(theta_j)``.
    """
    j = np.arange(n + 1)
    x = np.sin(np.pi * (2 * j - n) / (2 * n))
    theta = np.pi * (n - j) / n
    cosines = np.cos(np.outer(theta, np.arange(n + 2)))  # T_k(x_j) = cos(k theta_j)
    half = np.where((j == 0) | (j == n), 0.5, 1.0)
    to_coeffs = (2.0 / n) * cosines[:, : n + 1].T * half * half[:, None]
    # The integral of T_k from -1 to x_j; T_k(-1) = (-1)^k.
    k = np.arange(2, n + 1)
    at_start = (-1.0) ** np.arange(n + 2)
    of_t = np.empty((n + 1, n + 1))
    of_t[:, 0] = x + 1.0
    of_t[:, 1] = (cosines[:, 2] - 1.0) / 4.0
    of_t[:, 2:] = (cosines[:, k + 1] - at_start[k + 1]) / (2 * (k + 1)) - (
        cosines[:, k - 1] - at_start[k - 1]
    ) / (2 * (k - 1))
    integral = (of_t[:, :, None] * to_coeffs[None]).sum(axis=1)
    integral[0] = 0.0
    weights = half * (-1.0) ** j
    return x, integral, to_coeffs[n - 1 :], weights


_X, _INTEGRAL, _TAIL, _WEIGHTS = _lobatto_tables(_N)


def _tolerances(tol, m):
    """``tol`` (a scalar, one per column, or None for ``DOP853_TOL``) as ``(m,)``, checked."""
    tol = np.broadcast_to(np.asarray(DOP853_TOL if tol is None else tol, dtype=float), (m,))
    # A tolerance of 0 or NaN would fault every column as if its forcing
    # had, and the error test squares away a negative one's sign.
    if not (tol > 0.0).all() or not np.isfinite(tol).all():
        raise ValueError("tol must be finite and positive")
    return tol


def _picard_deviation(forcing, kink_args, eps, x0, bounds, tol):
    """Chebyshev-Picard slow deviations of ``model.slow_field`` on the segments ``bounds``.

    ``bounds`` are the segment ends from 0 to the end time; ``eps``,
    ``x0`` and ``tol`` are as for ``_slow_deviation``, and ``kink_args``
    are the compiled kink arguments of the forcing (``expr.kinks``).  The
    segments are taken one after another.  On each, every column starts
    from its value at the segment's start at every node and sweeps, all
    its nodes in one field call of ``(4, m (N + 1))`` repeated columns.  A
    sweep's update ``u`` is the largest change over a column's nodes and
    rows, and ``theta = u / u_prev`` its contraction, so ``u theta / (1 -
    theta)`` estimates the error left in the new values (Hairer & Wanner,
    Solving ODEs II, IV.8).  A column settles when that estimate is at
    most ``_SETTLE`` times ``tol * max(1, |v|)`` and its two highest
    Chebyshev coefficients at most ``tol * max(1, |v|)``; it then leaves
    the segment.  A column leaves the iteration for good when its update
    is not finite or does not shrink, when it has not settled within
    ``PICARD_MAX_SWEEPS`` sweeps, or when it settles with a series that
    keeps its tail or with a kink argument that changes sign between two
    nodes, where no node value can show the kink.  No column depends on
    another.

    Returns the ``(4, m)`` deviations at the end, the ``(segments, N + 1,
    4, m)`` node values and the mask of the columns that settled on every
    segment; the others' values are left as they are.
    """
    m = x0.shape[1]
    v = np.zeros_like(x0)
    nodes = np.zeros((bounds.size - 1, _N + 1, 4, m))
    settled = np.ones(m, dtype=bool)
    for s, (t0, t1) in enumerate(zip(bounds[:-1].tolist(), bounds[1:].tolist())):
        cols = np.flatnonzero(settled)
        a = cols.size
        if not a:
            break

        def by_rows(values):
            """``(N + 1, 4 a)`` node values as the field's ``(4, (N + 1) a)`` columns."""
            return values.reshape(_N + 1, 4, a).transpose(1, 0, 2).reshape(4, -1)

        half = 0.5 * (t1 - t0)
        # One column per (node, column), node-major, as the node values are.
        taus = np.repeat(t0 + half * (_X + 1.0), a)[None]
        rhs, state = slow_field(forcing, np.tile(eps[cols], _N + 1), np.tile(x0[:, cols], _N + 1))(taus)
        start = v[:, cols].reshape(1, -1)
        values = np.repeat(start, _N + 1, axis=0)  # node j, row r, column c at (j, r a + c)
        scale_tol, last = tol[cols], np.full(a, np.nan)
        sweeping = np.ones(a, dtype=bool)
        for sweep in range(PICARD_MAX_SWEEPS):
            field = rhs(0, by_rows(values)).reshape(4, _N + 1, a)
            # einsum adds the nodes in order down a C-contiguous operand whatever its width.
            field = np.ascontiguousarray(field.transpose(1, 0, 2)).reshape(_N + 1, -1)
            new = start + half * np.einsum("jl,lk->jk", _INTEGRAL, field)
            update = np.abs(new - values).reshape(_N + 1, 4, a).max(axis=(0, 1))
            scale = scale_tol * np.maximum(1.0, np.abs(new).reshape(_N + 1, 4, a).max(axis=(0, 1)))
            values = new
            done = sweeping & ((update == 0.0) | (update * update <= _SETTLE * scale * (last - update)))
            out = sweeping & ~(np.isfinite(update) & ~(update >= last))
            last = update
            if done.any():
                tail = np.abs(np.einsum("tl,lk->tk", _TAIL, new)).reshape(2, 4, a).max(axis=(0, 1))
                out |= done & ~(tail <= scale)
                if kink_args:
                    at_nodes = state(0, by_rows(new))
                    for kink in kink_args:
                        arg = np.broadcast_to(kink(taus, *at_nodes), taus.shape).reshape(_N + 1, a)
                        out |= done & (arg[:-1] * arg[1:] < 0.0).any(axis=0)
                done &= ~out
                nodes[s][..., cols[done]] = new.reshape(_N + 1, 4, a)[..., done]
                v[:, cols[done]] = new[-1].reshape(4, a)[:, done]
            if sweep == PICARD_MAX_SWEEPS - 1:
                out |= sweeping & ~done
            settled[cols[out]] = False
            sweeping &= ~(done | out)
            if not sweeping.any():
                break
    return v, nodes, settled


def _lobatto_samples(nodes, x, at):
    """Segment values at points ``x`` of [-1, 1], by the barycentric formula on their nodes.

    ``nodes`` are ``(N + 1, 4, k)`` node values and ``at`` picks the
    segment of each point.  A point on a node gets that node's value bit
    for bit.  The nodes are added in order for every point alike: the
    weights' own sum rides along as a fifth row, so einsum never reduces
    along the contiguous axis.  Points go ``_SAMPLE_CHUNK`` at a time, which
    bounds the temporaries.
    """
    out = np.empty((4, at.size))
    for lo in range(0, at.size, _SAMPLE_CHUNK):
        part = slice(lo, lo + _SAMPLE_CHUNK)
        diff = x[part] - _X[:, None]
        hit = diff == 0.0
        weight = np.where(hit.any(axis=0), hit, _WEIGHTS[:, None] / np.where(hit, 1.0, diff))
        values = np.ones((_N + 1, 5, diff.shape[1]))
        values[:, :4] = nodes[:, :, at[part]]
        total = np.einsum("jp,jrp->rp", weight, values)
        out[:, part] = total[:4] / total[4]
    return out


def _deviation(forcing, kink_args, eps, x0, bounds, steps, faults, tol):
    """The ``(4, m)`` slow deviations at ``bounds[-1]``: Chebyshev-Picard, DOP853 where it fails.

    Every column is iterated on the segments ``bounds``
    (``_picard_deviation``).  The columns that did not settle on every
    segment are integrated by ``_slow_deviation`` from tau = 0 in one
    batch, each bit for bit as alone; only DOP853 enters faults.
    ``steps``, if given, gets one entry ``(col, t, h, nodes)`` for the
    segments of the settled columns, and the DOP853 steps of the rest.
    """
    v, nodes, settled = _picard_deviation(forcing, kink_args, eps, x0, bounds, tol)
    if steps is not None and settled.any():
        cols = np.flatnonzero(settled)
        segments = bounds.size - 1
        steps.append((
            np.tile(cols, segments),
            np.repeat(bounds[:-1], cols.size),
            np.repeat(np.diff(bounds), cols.size),
            nodes[..., cols].transpose(1, 2, 0, 3).reshape(_N + 1, 4, -1),
        ))
    if (back := np.flatnonzero(~settled)).size:
        met, own = None if faults is None else {}, None if steps is None else []
        v[:, back] = _slow_deviation(forcing, eps[back], x0[:, back], bounds[-1], own, met, tol[back])
        for c, fault in (met or {}).items():
            faults.setdefault(int(back[c]), fault)
        if own:
            steps.extend((back[col], t, h, y) for col, t, h, y in own)
    return v


def _locate(col, t, h, taus, reach):
    """The record entry and time index of every (column, time) pair read from a record.

    ``col``, ``t`` and ``h`` give each entry's output column, start and
    length, each column's entries in time order.  A time is read from the
    last entry of its column that starts at or before it: an entry's times
    run up to the start of its column's next entry, the last entry's to the
    last time.  Sets ``reach`` of each column to ``t + h`` of its last entry.
    """
    n = taus.size
    order = np.argsort(col, kind="stable")
    last = np.append(col[order[1:]] != col[order[:-1]], True)
    reach[col[order[last]]] = t[order[last]] + h[order[last]]
    lo = np.searchsorted(taus, t[order])
    count = np.where(last, n, np.append(lo[1:], n)) - lo
    i = np.repeat(np.arange(order.size), count)
    j = lo[i] + np.arange(i.size) - np.repeat(np.cumsum(count) - count, count)
    return order[i], j


def _dense_samples(forcing, eps, x0, col, t, h, y, at, theta, faults):
    """The DOP853 dense output of the recorded steps ``at`` at their fractions ``theta``.

    ``col``, ``t``, ``h`` and the ``(4, k)`` start states ``y`` are the
    steps that ``_slow_deviation`` recorded for the ``(m,)`` eps and
    ``(4, m)`` starts ``x0``.  The dense output of a step depends only on
    its ``(t, y, h)``, so every step is rebuilt in one batch, 16 stages on
    all of them from two rotations: stage 0, the FSAL stage the pass
    carried into that step, with its 12 stages, then the 3 dense ones.
    Each column comes out bit for bit as the pass would have made it.  A
    column with a non-finite step is entered in ``faults`` at its first
    such step in record order, the one the pass met first.
    """
    field = slow_field(forcing, eps[col], x0[:, col])
    k = np.empty((16,) + y.shape)
    coeffs = _dense_output(field, t, y, h, k, _dop853_step(field, t, y, h, k, 0)[0])
    _check_finite(coeffs, t, col, faults)
    return _interpolate(y, coeffs, theta, at)


def _recorded_samples(forcing, eps, x0, steps, taus, faults):
    """The ``(4, m, n)`` slow deviations at the sorted ``(n,)`` times ``taus``, from a record.

    ``steps`` is a record that ``flow_map`` appended to for the ``(m,)``
    eps and ``(4, m)`` starts ``x0``: entries ``(col, t, h, y)`` of
    DOP853 steps, whose ``y`` is their ``(4, k)`` start states, and of
    Chebyshev-Picard segments, whose ``y`` is their ``(N + 1, 4, k)`` node
    values.  A column's entries are all of one kind.  A step's time is
    read from its dense output (``_dense_samples``), a segment's by
    barycentric interpolation on its nodes (``_lobatto_samples``), which
    evaluates no field.  Also returns each column's reach, the end of its
    last entry, past which a time would be extrapolated (0 when there are
    no entries or no times).
    """
    m, n = x0.shape[1], taus.size
    v, reach = np.zeros((4, m, n)), np.zeros(m)
    for ndim in (2, 3):
        kind = [entry for entry in steps if entry[3].ndim == ndim]
        if not (kind and n):
            continue
        col, t, h, y = (np.concatenate(a, axis=-1) for a in zip(*kind))
        at, j = _locate(col, t, h, taus, reach)
        if ndim == 2:
            v[:, col[at], j] = _dense_samples(
                forcing, eps, x0, col, t, h, y, at, (taus[j] - t[at]) / h[at], faults
            )
        else:
            v[:, col[at], j] = _lobatto_samples(y, 2.0 * (taus[j] - t[at]) / h[at] - 1.0, at)
    return v, reach


def _setup(spec, eps, y0, times):
    """The compiled forcing, ``(m,)`` eps and ``(4, m)`` starts of a run.

    ``times`` must be finite, non-negative and non-decreasing: an infinite
    time would step until ``DOP853_MAX_STEPS``.  Callers integrate under
    one ``np.errstate``; the integrator checks finiteness itself.
    """
    ordered = all(t1 >= t0 for t0, t1 in zip((0.0, *times), times))
    if not (ordered and np.isfinite(times).all()):
        raise ValueError("times must be finite, non-negative and non-decreasing")
    x0 = np.asarray(y0, dtype=float).reshape(4, -1)
    eps = np.broadcast_to(np.asarray(eps, dtype=float), x0.shape[1:])
    return compiled_forcing(spec), eps, x0


def sample_states(spec, eps, x0, taus, steps, faults=None):
    """States at the times ``taus`` of the solution with x0 at tau = 0.

    ``x0`` is a ``(4,)`` state or a ``(4, m)`` batch, and ``eps`` a scalar
    or one value per column.  ``steps`` is the record of a flow of these
    columns, as ``flow_map`` appends it, and every sample is read from it
    (``_recorded_samples``): a column that the Chebyshev-Picard iteration
    served by barycentric interpolation on the nodes of the segment that
    contains the time, which evaluates no field; a DOP853 fallback column
    from the seventh-order dense output of its step that contains it,
    rebuilt from its step record.  So a time costs no step and no sweep.
    A time past the end of that flow is refused, except in a column
    entered in ``faults``, whose record stops where it faulted and whose
    samples are NaN.  Each slow deviation is mapped back to its state
    through ``model.slow_field``; tau = 0 gives x0 bit for bit.  ``taus``
    must be finite, non-negative and non-decreasing; repeated times are
    allowed.  No column depends on another.  Returns ``(4, n)`` or ``(4,
    m, n)``.  A column that faults, in its flow or in the rebuild, gets
    NaN samples and its entry in ``faults`` (``newton.fault_record``).
    """
    taus = np.array([float(t) for t in taus])
    shape = np.shape(x0) + taus.shape
    forcing, eps, x0 = _setup(spec, eps, x0, taus)
    m, n = x0.shape[1], taus.size
    faults = fault_record(faults)
    with np.errstate(all="ignore"):
        v, reach = _recorded_samples(forcing, eps, x0, steps, taus, faults)
        reach[list(faults)] = np.inf  # a faulted column's record ends early
        if (reach < (taus[-1] if n else 0.0)).any():
            raise ValueError("times must not pass the end of the recorded flow")
        v[:, list(faults)] = np.nan
        # One column per (start, time), so the map runs on (4, m * n).
        at = slow_field(forcing, np.repeat(eps, n), np.repeat(x0, n, axis=1))
        out = at(np.tile(taus, m)[None])[1](0, v.reshape(4, -1)).reshape(v.shape)
    return out.reshape(shape)


def flow_map(spec, eps, states0, period, steps=None, faults=None, tol=None):
    """Endpoint of the flow after one period for a (4,) or (4, m) batch.

    ``eps`` is a scalar or one value per column, and so is ``tol``, the
    finite, positive tolerance on the slow deviation (``DOP853_TOL`` if
    None).  Each column's slow deviation is iterated by Chebyshev-Picard
    on ``PICARD_SEGMENTS`` segments per period of ``spec.mode`` (at least
    one); a column that fails the iteration's own tests is stepped by
    DOP853 from tau = 0 instead (``_deviation``).  Each column's endpoint
    is bit for bit the one it gets alone; only the endpoint is mapped back
    to a state.  ``steps``, if given, is a list that gets the record of
    the settled columns' segment nodes and the fallback columns' accepted
    steps, from which ``sample_states`` reads this flow's states.  A
    column that faults, in DOP853, ends NaN, with its entry in ``faults``
    (``fault_record``).
    """
    period = float(period)
    forcing, eps, x0 = _setup(spec, eps, states0, (period,))
    tol = _tolerances(tol, x0.shape[1])
    if period == 0.0:
        return x0.reshape(np.shape(states0)).copy()
    # p mode periods make 4 p segments, whichever way the ratio rounds.
    segments = max(1, math.ceil(PICARD_SEGMENTS * period / spec.mode.period - 1e-9))
    bounds = period * (np.arange(segments + 1) / segments)
    with np.errstate(all="ignore"):
        kink_args = tuple(compile_expr(arg) for f in (spec.f1, spec.f2) for arg in kinks(f))
        v = _deviation(forcing, kink_args, eps, x0, bounds, steps, faults, tol)
        out = slow_field(forcing, eps, x0)(np.full((1,) + eps.shape, period))[1](0, v)
    return out.reshape(np.shape(states0))


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


_EPS_ZERO = (
    "eps=0: the period map is the identity on the resonant mode plane, "
    "so the displacement Jacobian is singular; shoot at eps != 0"
)


def shoot_many(spec, eps, guesses, tol=1e-10, n_samples=256):
    """Newton-solve the period-map fixed point of case i at ``eps[i]`` from ``guesses[:, i]``.

    Returns one outcome per case: a ``PeriodicOrbit``, or the exception
    that ended the case -- ``ShootingError`` (eps = 0, or a failed Newton
    solve) or the ``IntegrationError`` / ``ExprDomainError`` with which
    one of its own columns left a flow.  Other cases go on either way.

    The period is ``spec.full_period``.  One ``newton.solve_many`` solves
    flow(x) - x = 0 for every case in lockstep, on central-difference
    Jacobians (``newton.central``), and every case's columns share each
    flow (``flow_map``: Chebyshev-Picard on the slow deviation, DOP853 for
    a column it cannot serve), of which only the endpoint is mapped back.
    The first flow, of the guesses and their stencils, runs at
    ``DOP853_ROUGH_TOL``: it only aims the first step, and a guess within
    ``DOP853_ROUGH_TOL / DOP853_TOL`` times ``tol`` on it is integrated
    again at ``DOP853_TOL`` before it may settle (``newton.solve_many``'s
    ``rough``).  Every trial, full or halved, flows at ``DOP853_TOL`` with
    its stencil, so when it is taken its Jacobian (monodromy minus
    identity) is already there: a step costs one flow per halving level it
    tries, and no column is integrated twice.
    A Jacobian with condition above ``COND_LIMIT`` stops that case.
    Each flow also records its columns' segment nodes (or a fallback
    column's steps), and each converged case's ``source`` names the flow
    and column whose value is its solution bit for bit, so
    ``sample_states`` reads every converged orbit from its own record in
    one batch, integrating nothing.  It samples ``n_samples`` equally spaced times over one period;
    ``n_samples = 0`` leaves ``samples`` empty, and a negative count is
    refused before any flow.  The reported distance is measured from the
    guess.  Each case ends bit for bit as ``shoot_periodic`` alone
    would end it.
    """
    if n_samples < 0:
        raise ValueError(f"n_samples must be non-negative, got {n_samples}")
    eps = np.asarray(eps, dtype=float).reshape(-1)
    guesses = np.asarray(guesses, dtype=float).reshape(4, eps.size)
    period = spec.full_period
    outcomes = [ShootingError(_EPS_ZERO) if e == 0.0 else None for e in eps]
    cases = np.flatnonzero(eps != 0.0)
    flows = []  # the record of each flow, in call order

    def flow(accuracy):
        """The displacement ``F`` of ``solve_many``, integrated at tolerance ``accuracy``."""

        def F(cols, owner, faults):
            steps = []
            ends = flow_map(spec, eps[cases[owner]], cols, period, steps, faults, accuracy)
            flows.append(steps)
            return ends - cols

        return F

    rough = (central(flow(DOP853_ROUGH_TOL)), DOP853_ROUGH_TOL / DOP853_TOL)
    solved = solve_many(
        central(flow(DOP853_TOL)), guesses[:, cases], tol, cond_limit=COND_LIMIT, rough=rough
    )
    records = {}  # case -> the (t, h, y) entries of its solution's own column
    for i, result in zip(cases, solved):
        outcomes[i] = result
        if isinstance(result, NewtonFailure):
            outcomes[i] = ShootingError(f"period-map Newton at eps={eps[i]:g}: {result}")
            outcomes[i].__cause__ = result
        elif isinstance(result, Solution):
            call, c = result.source
            records[i] = [[a[..., col == c] for a in entry] for col, *entry in flows[call] if (col == c).any()]
    flows.clear()  # only the solutions' own columns are sampled

    sample_taus = np.linspace(0.0, period, n_samples, endpoint=False)
    idx = np.array(list(records), dtype=np.intp)
    xs = np.array([outcomes[i].x for i in idx]).reshape(-1, 4).T
    faults, samples = {}, np.empty((idx.size, 4, 0))
    if n_samples:
        steps = [(np.full(t.size, r), t, *rest) for r, i in enumerate(idx) for t, *rest in records[i]]
        samples = np.moveaxis(sample_states(spec, eps[idx], xs, sample_taus, steps, faults), 1, 0)
    for r, (i, sampled) in enumerate(zip(idx, samples)):
        x, residual, iterations = outcomes[i][:3]
        if r in faults:
            outcomes[i] = faults[r]
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
