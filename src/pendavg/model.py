"""Small-oscillation double pendulum: modes, orbit families, the standard form.

Conventions
-----------
State vectors hold ``(th1, th1d, th2, th2d)``, the two angles and their
rates, in the rescaled time ``tau`` in which the equations of motion read

    th1'' = -2 th1 + th2 + eps * F1(tau, th1, th1', th2, th2')
    th2'' =  2 th1 - 2 th2 + eps * F2(tau, th1, th1', th2, th2')

Modal coordinates ``(X, Y, Z, W)`` put the linear part into block-diagonal
rotation form: the (X, Y) plane turns with the slow frequency ``OMEGA1`` and
the (Z, W) plane with the fast frequency ``OMEGA2``.  The forward matrix and
its inverse are hard-coded from their closed forms and cross-checked against
each other at import, since a transcription slip here would silently corrupt
every downstream computation.

All functions are pure; array arguments broadcast, so a "state" may be a
``(4,)`` vector or a ``(4, m)`` batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import OMEGA1, OMEGA2, SQRT2, T1, T2
from .expr import Expr, compile_expr, parse


class PeriodicityError(ValueError):
    """Forcing text does not have the period its resonance claims."""


class Mode(Enum):
    """The two invariant planes of the linearized pendulum."""

    MODE1 = "mode1"  # in-phase, slow
    MODE2 = "mode2"  # anti-phase, fast

    @property
    def omega(self):
        return OMEGA1 if self is Mode.MODE1 else OMEGA2

    @property
    def period(self):
        return T1 if self is Mode.MODE1 else T2


# ---------------------------------------------------------------------------
# Linear structure
# ---------------------------------------------------------------------------

# First-order linear part in original coordinates (th1, th1d, th2, th2d).
LINEAR_ORIGINAL = np.array(
    [
        [0.0, 1.0, 0.0, 0.0],
        [-2.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [2.0, 0.0, -2.0, 0.0],
    ]
)

# Block rotation generator in modal coordinates (X, Y, Z, W).
LINEAR_MODAL = np.array(
    [
        [0.0, OMEGA1, 0.0, 0.0],
        [-OMEGA1, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, OMEGA2],
        [0.0, 0.0, -OMEGA2, 0.0],
    ]
)

# Forward change of variables (X, Y, Z, W) = MODAL_MATRIX @ (th1, th1d, th2, th2d).
MODAL_MATRIX = np.array(
    [
        [math.sqrt(1.0 - 1.0 / SQRT2), 0.0, OMEGA1 / 2.0, 0.0],
        [0.0, 1.0 / SQRT2, 0.0, 0.5],
        [-math.sqrt(1.0 + 1.0 / SQRT2), 0.0, OMEGA2 / 2.0, 0.0],
        [0.0, -1.0 / SQRT2, 0.0, 0.5],
    ]
)

# Inverse rows from the closed forms: th1, th1d, th2, th2d as functions of
# (X, Y, Z, W).
INVERSE_MODAL_MATRIX = np.array(
    [
        [1.0 / math.sqrt(4.0 - 2.0 * SQRT2), 0.0, -1.0 / math.sqrt(2.0 * (2.0 + SQRT2)), 0.0],
        [0.0, 1.0 / SQRT2, 0.0, -1.0 / SQRT2],
        [1.0 / OMEGA1, 0.0, 1.0 / OMEGA2, 0.0],
        [0.0, 1.0, 0.0, 1.0],
    ]
)


def _verify_modal_matrices():
    gap = np.abs(MODAL_MATRIX @ INVERSE_MODAL_MATRIX - np.eye(4)).max()
    if gap > 1e-14:
        raise AssertionError(f"modal matrix inverse mismatch: {gap:.3e}")
    gap = np.abs(np.linalg.inv(MODAL_MATRIX) - INVERSE_MODAL_MATRIX).max()
    if gap > 1e-14:
        raise AssertionError(f"hard-coded inverse disagrees with numerical inverse: {gap:.3e}")
    conj = MODAL_MATRIX @ LINEAR_ORIGINAL @ INVERSE_MODAL_MATRIX
    gap = np.abs(conj - LINEAR_MODAL).max()
    if gap > 1e-14:
        raise AssertionError(f"modal conjugation mismatch: {gap:.3e}")


_verify_modal_matrices()


# ---------------------------------------------------------------------------
# Forcing specification
# ---------------------------------------------------------------------------

_AUDIT_GRID_POINTS = 32
_AUDIT_STATES = 16
_AUDIT_TOL = 1e-9
_AUDIT_SEED = 74520261


@dataclass(frozen=True)
class PerturbationSpec:
    """One experiment: the forcing pair, the resonant mode, and p:q.

    ``p`` and ``q`` must be coprime positive integers.  Construction then
    audits numerically that both forcing expressions really are
    ``p * period / q``-periodic in ``tau``; a violation is a hard
    configuration error (PeriodicityError).
    """

    f1: Expr
    f2: Expr
    mode: Mode
    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("resonance integers must be positive")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"resonance {self.p}:{self.q} must be coprime")
        audit_periodicity(self)

    @classmethod
    def from_strings(cls, f1, f2, mode, p, q):
        """Build from forcing texts; ``mode`` is a ``Mode`` or its value."""
        return cls(parse(f1), parse(f2), Mode(mode), p, q)

    @property
    def forcing_period(self):
        """Claimed period of F1, F2 in tau: p * T_mode / q."""
        return self.p * self.mode.period / self.q

    @property
    def full_period(self):
        """Common period of forcing and resonant orbit: p * T_mode."""
        return self.p * self.mode.period


def compiled_forcing(spec):
    """Vectorized (F1, F2) callables of (tau, th1, th1d, th2, th2d)."""
    return compile_expr(spec.f1), compile_expr(spec.f2)


def audit_periodicity(spec):
    """Check |F_k(tau + pT/q, s) - F_k(tau, s)| <= 1e-9 on a sample grid.

    Symbolic period detection is out of reach for arbitrary forcing text,
    so the claim is spot-checked on a 32-point tau grid against 16 seeded
    random states.
    """
    shift = spec.forcing_period
    taus = np.linspace(0.0, spec.full_period, _AUDIT_GRID_POINTS, endpoint=False)
    rng = np.random.default_rng(_AUDIT_SEED)
    states = rng.uniform(-2.0, 2.0, size=(_AUDIT_STATES, 4))
    f1, f2 = compiled_forcing(spec)
    tgrid = taus[None, :]
    for k, fn in (("F1", f1), ("F2", f2)):
        cols = [s[:, None] * np.ones_like(tgrid) for s in states.T]
        with np.errstate(all="ignore"):
            base = fn(tgrid, *cols)
            shifted = fn(tgrid + shift, *cols)
        if not (np.isfinite(base).all() and np.isfinite(shifted).all()):
            raise PeriodicityError(f"{k} is not finite on the audit grid")
        gap = float(np.abs(shifted - base).max())
        if gap > _AUDIT_TOL:
            raise PeriodicityError(
                f"{k} is not {spec.p}*T/{spec.q}-periodic: "
                f"max |F(tau+pT/q) - F(tau)| = {gap:.3e} > {_AUDIT_TOL:.0e}"
            )


# ---------------------------------------------------------------------------
# Vector field in standard form
# ---------------------------------------------------------------------------

# slow_field works on (4, m) rows in modal order (X, Y, Z, W): each row is
# a position (X, Z) or a velocity (Y, W) of one mode plane.  Row r of M y
# (and of M^-1 u) combines the two rows of its kind, _PAIR[0][r] and
# _PAIR[1][r], which are gathered with ``take`` and weighted by (4, 1)
# coefficient columns; row r's partner in its plane is _PARTNER[r].  So
# every row is written out, as a coefficient column times a gathered row.
_PLANE_OMEGAS = np.array([OMEGA1, OMEGA2])[:, None, None]
_PARTNER = np.array([1, 0, 3, 2], dtype=np.intp)
# Phi(tau) turns (X, Y) by c X + s Y, c Y - s X with s = sin(omega tau);
# slow_field takes sin(-omega tau), so the partner's sign is - for X and Z.
_PARTNER_SIGN = np.array([-1.0, 1.0, -1.0, 1.0])[:, None, None]
_PAIR = (np.array([0, 1, 0, 1], dtype=np.intp), np.array([2, 3, 2, 3], dtype=np.intp))
_M_COLS = tuple(MODAL_MATRIX[np.arange(4), p, None] for p in _PAIR)
_MINV_COLS = tuple(INVERSE_MODAL_MATRIX[np.arange(4), p, None] for p in _PAIR)
# (gY, gY, gW, gW): the velocity rows of M (0, F1, 0, F2), one per row of v.
_G_COLS = tuple(MODAL_MATRIX[(1, 1, 3, 3), j, None] for j in (1, 3))
# ``_rotation`` takes cos and sin of -omega tau once per plane, as the rows
# (c1, c2, s1, s2), and one ``take`` of these makes three blocks of four
# rows: each row's cosine, each row's sine (signed by its partner's sign
# after the take), and the field's rows.  v' = (-s1 gY, c1 gY, -s2 gW,
# c2 gW) takes sin(-omega tau) in rows X, Z and cos in rows Y, W: rows 2,
# 0, 3, 1 of (c1, c2, s1, s2).
_ROTATION_ROWS = np.array([0, 0, 1, 1, 2, 2, 3, 3, 2, 0, 3, 1], dtype=np.intp)


def _rotation(taus):
    """Phi(-tau) at the ``(s, m)`` times ``taus``: ``(cos, sin, field)``, each ``(s, 4, m)``.

    Row ``i`` of each holds, for time row ``i``, the cosine of each row of
    ``v``, its partner-signed sine, and the factor of each row of ``v'``,
    as a contiguous ``(4, m)`` block (a strided operand costs numpy about
    twice the time at these widths).  Both rows of a plane turn by the
    same angle, so each plane's cos and sin is taken once, and each value
    is bit for bit the one a row alone gets.  They are taken on contiguous
    arrays, since numpy's vectorized and strided loops for cos and sin may
    round differently.
    """
    angle = _PLANE_OMEGAS * -taus
    cs = np.empty((2,) + angle.shape)
    np.cos(angle, out=cs[0])
    np.sin(angle, out=cs[1])
    rows = cs.reshape((4,) + taus.shape).take(_ROTATION_ROWS, axis=0)
    rows[4:8] *= _PARTNER_SIGN
    rows = np.ascontiguousarray(rows.reshape((3, 4) + taus.shape).transpose(2, 0, 1, 3))
    return rows[:, 0], rows[:, 1], rows[:, 2]


def slow_field(forcing, eps, x0):
    """The forced system in the standard form of the averaging theorem.

    With ``u = M y`` the modal state (``M`` is ``MODAL_MATRIX``) and ``Phi``
    the fundamental matrix of ``LINEAR_MODAL`` (rotations by ``omega_k tau``
    in the two planes, the identity at 0), the change ``u = Phi(tau) z``
    leaves only the forcing: ``z' = eps Phi(-tau) M (0, F1, 0, F2)``.  The slow deviation
    ``v = (z - z0) / eps`` from ``z0 = M x0`` starts at ``v(0) = 0`` and obeys

        v' = Phi(-tau) M (0, F1, 0, F2) = (-s1 gY, c1 gY, -s2 gW, c2 gW),

    where ``gY = F1 / sqrt 2 + F2 / 2``, ``gW = F2 / 2 - F1 / sqrt 2`` and
    ``c_k, s_k = cos, sin(omega_k tau)``.  The forcing is evaluated at the
    state ``x0 + M^-1 [Phi(tau) (z0 + eps v) - z0]``, which is ``x0`` bit for
    bit at ``tau = 0``; ``M^-1 M`` is never formed.  At ``eps = 0`` that
    state is the unperturbed orbit through ``x0``, and the resonant rows of
    ``v`` over the period ``p T`` are ``p T`` times the mean bifurcation pair.

    ``eps`` is ``(m,)`` and ``x0`` ``(4, m)``, one value or state per column.
    Returns ``at``: ``at(taus)``, for ``(s, m)`` times (a DOP853 step's
    stage times, say), evaluates the rotation ``Phi(-tau)`` at all of them
    in one batch and returns ``(rhs, state)``, both of ``(i, v)`` with a
    ``(4, m)`` deviation at time row ``i``: ``rhs`` gives ``v'`` and
    ``state`` the state.  So each of them does only the work that depends
    on ``v``.  Every row is written out rather than taken as a matrix
    product, so no summation order enters and no column depends on the
    rest of the batch.  ``continuation``'s DOP853 calls ``at`` once per
    step, with the step's stage times, and builds a new ``slow_field``
    whenever columns leave.
    """
    f1, f2 = forcing
    eps = np.asarray(eps, dtype=float)
    x0 = np.asarray(x0, dtype=float)
    z0 = _M_COLS[0] * x0.take(_PAIR[0], axis=0) + _M_COLS[1] * x0.take(_PAIR[1], axis=0)

    def moved(c, s, v):
        # x0 + M^-1 [Phi(tau) q - z0] with q = z0 + eps v.
        q = z0 + eps * v
        d = (c * q + s * q.take(_PARTNER, axis=0)) - z0
        return x0 + (
            _MINV_COLS[0] * d.take(_PAIR[0], axis=0) + _MINV_COLS[1] * d.take(_PAIR[1], axis=0)
        )

    def at(taus):
        cos, sin, field = _rotation(taus)

        def state(i, v):
            return moved(cos[i], sin[i], v)

        def rhs(i, v):
            tau = taus[i]
            th1, th1d, th2, th2d = moved(cos[i], sin[i], v)
            F1, F2 = f1(tau, th1, th1d, th2, th2d), f2(tau, th1, th1d, th2, th2d)
            return field[i] * (_G_COLS[0] * F1 + _G_COLS[1] * F2)

        return rhs, state

    return at


# ---------------------------------------------------------------------------
# Closed-form orbit families of the unperturbed system
# ---------------------------------------------------------------------------

# (pos, vel, pos) / divisors = (th1, th1d, th2), and th2d = vel: the
# reciprocals of the resonant plane's INVERSE_MODAL_MATRIX entries.  Written
# out rather than derived from the matrix to keep orbit values bit for bit:
# 1 / INVERSE_MODAL_MATRIX[2, 0] is 0.7653668647301796, one ulp above
# OMEGA1 (0.7653668647301795), so a derived table would move mode-1 th2
# values by an ulp.
_ORBIT_DIVISORS = {
    Mode.MODE1: (math.sqrt(4.0 - 2.0 * SQRT2), SQRT2, OMEGA1),
    Mode.MODE2: (-math.sqrt(4.0 + 2.0 * SQRT2), -SQRT2, OMEGA2),
}


def unperturbed_orbit(mode, alpha, tau):
    """Closed-form periodic solution in original coordinates.

    The modal orbit through ``alpha``, which turns in the (X, Y) plane for
    mode 1 and the (Z, W) plane for mode 2 while the other plane stays at
    zero, mapped back to original coordinates.  For mode 1 with
    alpha = (X0, Y0) this is the classic quadruple

        th1  = (X0 cos w1 tau + Y0 sin w1 tau) / sqrt(4 - 2 sqrt 2)
        th1d = (Y0 cos w1 tau - X0 sin w1 tau) / sqrt 2
        th2  = (X0 cos w1 tau + Y0 sin w1 tau) / sqrt(2 - sqrt 2)
        th2d =  Y0 cos w1 tau - X0 sin w1 tau

    and for mode 2 with alpha = (Z0, W0) the fast-mode analogue with the
    sign flip on th1.
    """
    a0 = np.asarray(alpha[0], dtype=float)
    b0 = np.asarray(alpha[1], dtype=float)
    tau = np.asarray(tau, dtype=float)
    c, s = np.cos(mode.omega * tau), np.sin(mode.omega * tau)
    pos, vel = a0 * c + b0 * s, b0 * c - a0 * s
    d_th1, d_th1d, d_th2 = _ORBIT_DIVISORS[mode]
    out = np.empty((4,) + pos.shape)
    np.divide(pos, d_th1, out=out[0, ...])
    np.divide(vel, d_th1d, out=out[1, ...])
    np.divide(pos, d_th2, out=out[2, ...])
    out[3, ...] = vel
    return out
