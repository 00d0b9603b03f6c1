"""Small-oscillation double pendulum: modes, orbit families, the standard form.

Conventions
-----------
State vectors hold ``(th1, th1d, th2, th2d)``, the two angles and their
rates, in the rescaled time ``tau`` in which the equations of motion read

    th1'' = -2 th1 + th2 + eps * F1(tau, th1, th1', th2, th2')
    th2'' =  2 th1 - 2 th2 + eps * F2(tau, th1, th1', th2, th2')

Physical time enters only through :func:`reduce`: for stems of length ``l``
under gravity ``g`` the rescaling is ``tau = sqrt(g/l) * t`` and the mass
drops out entirely.

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


@dataclass(frozen=True)
class PhysicalParams:
    """Mass, stem length and gravity of the physical pendulum."""

    m: float
    l: float
    g: float

    def __post_init__(self):
        if not (self.m > 0 and self.l > 0 and self.g > 0):
            raise ValueError("mass, length and gravity must all be positive")


def reduce(params: PhysicalParams):
    """Collapse the physical parameters to ``a = g/l`` and the time rescale.

    Trajectories of the physical system at time ``t`` correspond to
    rescaled trajectories at ``tau = sqrt(a) * t``; the mass never enters.
    """
    a = params.g / params.l
    return a, math.sqrt(a)


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


@dataclass(frozen=True)
class Resonance:
    """p:q resonance between the forcing and the unperturbed orbit period."""

    p: int
    q: int

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("resonance integers must be positive")
        if math.gcd(self.p, self.q) != 1:
            raise ValueError(f"resonance {self.p}:{self.q} must be coprime")


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


def modal_transform(state):
    """Original coordinates -> modal coordinates."""
    return MODAL_MATRIX @ np.asarray(state, dtype=float)


def inverse_modal_transform(modal_state):
    """Modal coordinates -> original coordinates."""
    return INVERSE_MODAL_MATRIX @ np.asarray(modal_state, dtype=float)


def modal_amplitudes(state):
    """The two rotation invariants X^2 + Y^2 and Z^2 + W^2 of a state."""
    X, Y, Z, W = modal_transform(state)
    return X * X + Y * Y, Z * Z + W * W


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

    Construction audits numerically that both forcing expressions really
    are ``p * period / q``-periodic in ``tau``; a violation is a hard
    configuration error (PeriodicityError).
    """

    f1: Expr
    f2: Expr
    mode: Mode
    resonance: Resonance

    def __post_init__(self):
        audit_periodicity(self)

    @classmethod
    def from_strings(cls, f1, f2, mode, p, q):
        if isinstance(mode, str):
            mode = Mode(mode)
        return cls(parse(f1), parse(f2), mode, Resonance(p, q))

    @property
    def forcing_period(self):
        """Claimed period of F1, F2 in tau: p * T_mode / q."""
        return self.resonance.p * self.mode.period / self.resonance.q

    @property
    def full_period(self):
        """Common period of forcing and resonant orbit: p * T_mode."""
        return self.resonance.p * self.mode.period


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
        base = fn(tgrid, *cols)
        shifted = fn(tgrid + shift, *cols)
        if not (np.isfinite(base).all() and np.isfinite(shifted).all()):
            raise PeriodicityError(f"{k} is not finite on the audit grid")
        gap = float(np.abs(shifted - base).max())
        if gap > _AUDIT_TOL:
            raise PeriodicityError(
                f"{k} is not {spec.resonance.p}*T/{spec.resonance.q}-periodic: "
                f"max |F(tau+pT/q) - F(tau)| = {gap:.3e} > {_AUDIT_TOL:.0e}"
            )


# ---------------------------------------------------------------------------
# Vector field in standard form
# ---------------------------------------------------------------------------

# slow_field works on row pairs: the positions P = (X, Z) and velocities
# V = (Y, W) of the two mode planes.  M maps (th1, th2) to P and (th1d,
# th2d), like (F1, F2), to V; M^-1 maps them back.  The (2, 2) blocks are
# applied column by column, as a (2, 1) coefficient column times a (m,) row.
_PLANE_OMEGAS = np.array([[OMEGA1], [OMEGA2]])
_M_P = tuple(MODAL_MATRIX[(0, 2), j, None] for j in (0, 2))
_M_V = tuple(MODAL_MATRIX[(1, 3), j, None] for j in (1, 3))
_MINV_P = tuple(INVERSE_MODAL_MATRIX[(0, 2), j, None] for j in (0, 2))
_MINV_V = tuple(INVERSE_MODAL_MATRIX[(1, 3), j, None] for j in (1, 3))


def slow_field(forcing, eps, x0):
    """The forced system in the standard form of the averaging theorem.

    With ``u = M y`` the modal state (``M`` is ``MODAL_MATRIX``) and ``Phi``
    the :func:`fundamental_matrix`, the change ``u = Phi(tau) z`` leaves only
    the forcing: ``z' = eps Phi(-tau) M (0, F1, 0, F2)``.  The slow deviation
    ``v = (z - z0) / eps`` from ``z0 = M x0`` starts at ``v(0) = 0`` and obeys

        v' = Phi(-tau) M (0, F1, 0, F2) = (-s1 gY, c1 gY, -s2 gW, c2 gW),

    where ``gY = F1 / sqrt 2 + F2 / 2``, ``gW = F2 / 2 - F1 / sqrt 2`` and
    ``c_k, s_k = cos, sin(omega_k tau)``.  The forcing is evaluated at the
    state ``x0 + M^-1 [Phi(tau) (z0 + eps v) - z0]``, which is ``x0`` bit for
    bit at ``tau = 0``; ``M^-1 M`` is never formed.  At ``eps = 0`` that
    state is the unperturbed orbit through ``x0``, and the resonant rows of
    ``v`` over the period ``p T`` are ``p T`` times the mean bifurcation pair.

    ``eps`` is ``(m,)`` and ``x0`` ``(4, m)``, one value or state per column.
    Returns ``(rhs, state)``, both of ``(tau, v)`` with ``(m,)`` times and a
    ``(4, m)`` deviation: ``rhs`` gives ``v'`` and ``state`` the state.
    Every row is written out rather than taken as a matrix product, so no
    summation order enters and no column depends on the rest of the batch.
    ``continuation``'s RK45 steps ``rhs``, rebuilt whenever columns leave.
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
# Closed-form orbit families of the unperturbed system
# ---------------------------------------------------------------------------

def _plane_motion(mode, alpha, tau):
    """Position and velocity in the resonant mode plane at ``tau``."""
    a0 = np.asarray(alpha[0], dtype=float)
    b0 = np.asarray(alpha[1], dtype=float)
    tau = np.asarray(tau, dtype=float)
    c, s = np.cos(mode.omega * tau), np.sin(mode.omega * tau)
    return a0 * c + b0 * s, b0 * c - a0 * s


def modal_orbit(mode, alpha, tau):
    """Unperturbed solution in modal coordinates from plane amplitudes.

    Mode 1 fills the (X, Y) plane, mode 2 the (Z, W) plane; the other
    plane stays identically zero.  ``tau`` may be a scalar or an array,
    and the two amplitude components broadcast against it.
    """
    pos, vel = _plane_motion(mode, alpha, tau)
    zero = np.zeros_like(pos)
    if mode is Mode.MODE1:
        return np.stack([pos, vel, zero, zero])
    return np.stack([zero, zero, pos, vel])


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

    The :func:`modal_orbit` through ``alpha`` mapped back to original
    coordinates.  For mode 1 with alpha = (X0, Y0) this is the classic
    quadruple

        th1  = (X0 cos w1 tau + Y0 sin w1 tau) / sqrt(4 - 2 sqrt 2)
        th1d = (Y0 cos w1 tau - X0 sin w1 tau) / sqrt 2
        th2  = (X0 cos w1 tau + Y0 sin w1 tau) / sqrt(2 - sqrt 2)
        th2d =  Y0 cos w1 tau - X0 sin w1 tau

    and for mode 2 with alpha = (Z0, W0) the fast-mode analogue with the
    sign flip on th1.
    """
    pos, vel = _plane_motion(mode, alpha, tau)
    d_th1, d_th1d, d_th2 = _ORBIT_DIVISORS[mode]
    return np.stack([pos / d_th1, vel / d_th1d, pos / d_th2, vel])


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
