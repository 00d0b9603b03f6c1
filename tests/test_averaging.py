"""Averaging engine: quadrature, oracles, generic operator, zero search."""

import math

import numpy as np
import pytest

import oracles
import pendavg.averaging as averaging
from oracles import (
    AveragingError,
    AveragingProblem,
    audit_problem,
    averaged_function,
    pendulum_problem,
)
from pendavg.averaging import (
    CHUNK_FLOATS,
    FIRST_NODES,
    MAX_NODES,
    AveragedSystem,
    QuadratureError,
    _integrate_points,
    antipodal_pairing,
    certified_nodes,
    find_zeros,
    is_identically_zero,
    seed_grid,
)
from pendavg.config import PRESETS
from pendavg.constants import OMEGA1, OMEGA2
from pendavg.expr import ExprDomainError
from pendavg.model import PerturbationSpec
from pendavg.newton import NewtonFailure, _stencils, central, fault_record, solve_many

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Quadrature: the Gauss-Legendre oracle, then the periodic trapezoid sweep
# ---------------------------------------------------------------------------

def test_quadrature_sin_squared():
    res = oracles.integrate_adaptive(lambda t: np.sin(t) ** 2, 0.0, 2.0 * math.pi, 1e-12)
    assert res.value[0] == pytest.approx(math.pi, abs=1e-13)


def test_quadrature_vector_integrand():
    res = oracles.integrate_adaptive(
        lambda t: np.stack([np.sin(t), np.cos(t) ** 2]), 0.0, math.pi, 1e-12
    )
    assert res.value[0] == pytest.approx(2.0, abs=1e-13)
    assert res.value[1] == pytest.approx(math.pi / 2.0, abs=1e-13)


def test_quadrature_panel_cap():
    # A kink keeps the refinement differences around h^2, far above 1e-13.
    with pytest.raises(QuadratureError):
        oracles.integrate_adaptive(
            lambda t: np.abs(np.sin(t) - 0.5), 0.0, 10.0, 1e-13, max_panels=64
        )


def test_block_sums_add_up_to_the_integral():
    value = oracles._composite_gl(
        lambda points, taus: np.sin(taus)[None, None, :], np.arange(1), 0.0, 10.0, 2 ** 12
    )
    assert value[0, 0] == pytest.approx(1.0 - math.cos(10.0), abs=1e-13)


@pytest.mark.parametrize("p", [1, 2])
def test_trapezoid_is_not_fooled_by_aliasing(p):
    # sin(k w tau) sin(w tau) for k = 2^j +- 1 holds a cosine of frequency
    # 2^j w, which every base grid of at most p 2^j nodes takes for a
    # constant; a comparison of N with 2N nodes would stop there on a wrong
    # value.  k = 2^j is the neighbour that aliases on no such grid.  Over p
    # periods the integral is p pi / w at k = 1 and 0 otherwise.
    w = OMEGA1
    period = p * 2.0 * math.pi / w
    ks = sorted({k for j in range(1, 19) for k in (2 ** j - 1, 2 ** j, 2 ** j + 1)})
    for k in ks:
        if 2 * p * (k + 1) > MAX_NODES:
            continue

        def f(points, taus):
            return (np.sin(k * w * taus) * np.sin(w * taus))[None, :, None]

        value, nodes, _ = _integrate_points(f, 1, period, 1e-12)
        exact = period / 2.0 if k == 1 else 0.0
        assert value[0, 0] == pytest.approx(exact, abs=1e-10), (k, nodes)
        # Exact once the grid resolves the frequency (k + 1) w.
        assert nodes <= max(FIRST_NODES, 4 * p * (k + 1)), (k, nodes)


# ---------------------------------------------------------------------------
# Closed-form oracles (raw convention)
# ---------------------------------------------------------------------------

def test_corollary1_matches_closed_form_on_grid():
    spec = oracles.make_spec("corollary1")
    axis = np.linspace(-3.0, 3.0, 20)
    worst = 0.0
    for x0 in axis:
        for y0 in axis:
            got = oracles.raw_pair(spec, (x0, y0), 1e-11)
            want = oracles.corollary1_raw(x0, y0)
            worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
    assert worst <= 1e-10


def test_corollary2_matches_closed_form_on_grid():
    spec = oracles.make_spec("corollary2")
    axis = np.linspace(-30.0, 30.0, 20)
    worst = 0.0
    for z0 in axis:
        for w0 in axis:
            got = oracles.raw_pair(spec, (z0, w0), 1e-11)
            want = oracles.corollary2_raw(z0, w0)
            worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
    assert worst <= 1e-10


def test_corollary1_value_at_origin():
    spec = oracles.make_spec("corollary1")
    raw = oracles.raw_pair(spec, (0.0, 0.0), 1e-12)
    assert raw[0] == pytest.approx(math.pi / math.sqrt(2.0 - SQRT2), abs=1e-12)
    assert raw[1] == pytest.approx(0.0, abs=1e-12)
    # period mean picks up the -omega1/(4 pi) factor: exactly -1/4 here
    assert AveragedSystem(spec, 1e-12)((0.0, 0.0))[0] == pytest.approx(-0.25, abs=1e-13)


def test_corollary1_zero_of_both_conventions():
    spec = oracles.make_spec("corollary1")
    for alpha in [(oracles.CORO1_X0, 0.0), (0.0, oracles.CORO1_Y0)]:
        assert np.abs(oracles.raw_pair(spec, alpha, 1e-12)).max() <= 1e-9
        assert np.abs(AveragedSystem(spec, 1e-12)(alpha)).max() <= 1e-9


def test_corollary2_zero():
    spec = oracles.make_spec("corollary2")
    alpha = (0.0, oracles.CORO2_W0)
    assert np.abs(oracles.raw_pair(spec, alpha, 1e-12)).max() <= 1e-9
    assert np.abs(AveragedSystem(spec, 1e-12)(alpha)).max() <= 1e-9


def test_zero_forcing_averages_to_zero():
    spec = PerturbationSpec.from_strings("0", "0", "mode1", 1, 1)
    assert np.all(oracles.raw_pair(spec, (1.0, 2.0), 1e-12) == 0.0)
    assert np.all(AveragedSystem(spec, 1e-12)((1.0, 2.0)) == 0.0)


def test_prefactor_consistency():
    """raw equals mean divided by -/+ omega/(4 pi) componentwise (p = 1)."""
    for which, omega in (("corollary1", OMEGA1), ("corollary2", OMEGA2)):
        spec = oracles.make_spec(which)
        factors = np.array([-omega / (4.0 * math.pi), omega / (4.0 * math.pi)])
        for alpha in [(0.5, -1.5), (2.0, 1.0), (-3.0, 0.25)]:
            raw = oracles.raw_pair(spec, alpha, 1e-12)
            expect = AveragedSystem(spec, 1e-12)(alpha) / factors
            mask = np.abs(raw) > 1e-12
            assert np.allclose(raw[mask], expect[mask], rtol=1e-12, atol=0)


def test_linearity_in_the_forcing():
    base = "(1 - th1^2) * sin(w1 * tau)"
    extra = "th1d * cos(w1 * tau)"
    spec_a = PerturbationSpec.from_strings("0", base, "mode1", 1, 1)
    spec_b = PerturbationSpec.from_strings("0", extra, "mode1", 1, 1)
    spec_ab = PerturbationSpec.from_strings("0", f"({base}) + ({extra})", "mode1", 1, 1)
    for alpha in [(0.3, 0.9), (-1.2, 0.4)]:
        va = oracles.raw_pair(spec_a, alpha, 1e-12)
        vb = oracles.raw_pair(spec_b, alpha, 1e-12)
        vab = oracles.raw_pair(spec_ab, alpha, 1e-12)
        assert np.abs(vab - va - vb).max() <= 1e-11


def test_tolerance_monotonicity():
    for which in ("corollary1", "corollary2"):
        spec = oracles.make_spec(which)
        for alpha in [(0.7, -0.4), (3.0, 5.0)]:
            loose = AveragedSystem(spec, 1e-10)(alpha)
            tight = AveragedSystem(spec, 1e-12)(alpha)
            assert np.abs(loose - tight).max() <= 1e-9


# ---------------------------------------------------------------------------
# Generic operator
# ---------------------------------------------------------------------------

def test_generic_operator_zero_forcing():
    spec = PerturbationSpec.from_strings("0", "0", "mode1", 1, 1)
    problem = pendulum_problem(spec)
    for alpha in [(0.5, 0.5), (-2.0, 3.0)]:
        assert np.all(averaged_function(problem, np.asarray(alpha), 1e-12) == 0.0)


def test_problem_audit_rejects_inconsistent_parametrization():
    spec = oracles.make_spec("corollary1")
    good = pendulum_problem(spec)
    bad = AveragingProblem(
        n=good.n,
        k=good.k,
        period=good.period,
        beta=lambda alpha: np.array([1.0, 0.0]),  # flow starts at beta = 0
        flow=good.flow,
        fundamental=good.fundamental,
        perturbation=good.perturbation,
    )
    with pytest.raises(AveragingError, match="beta"):
        averaged_function(bad, np.array([1.0, 0.0]), 1e-10)


@pytest.mark.parametrize("which", ["corollary1", "corollary2"])
def test_generic_operator_matches_specialized(which):
    spec = oracles.make_spec(which)
    problem = pendulum_problem(spec)
    system = AveragedSystem(spec, tol=1e-12)
    for alpha in [(0.6, -0.2), (1.5, 2.5), (-4.0, 1.0)]:
        generic = averaged_function(problem, np.asarray(alpha), 1e-12)
        special = system(np.asarray(alpha))
        assert np.abs(generic - special).max() <= 1e-12


@pytest.mark.parametrize("p", [1, 2])
@pytest.mark.parametrize(
    "f1, f2, mode",
    [
        (oracles.CORO1_F1, oracles.CORO1_F2, "mode1"),
        (oracles.CORO2_F1, oracles.CORO2_F2, "mode2"),
        ("0", "sin(th1) * cos(w1 * tau)", "mode1"),
        ("0", "exp(0.1 * th2) * cos(w1 * tau) + th1d^3", "mode1"),
    ],
    ids=["corollary1", "corollary2", "sin-th1", "exp-th2"],
)
def test_trapezoid_sweep_matches_the_gauss_legendre_oracle(f1, f2, mode, p):
    # The generic operator integrates with composite Gauss-Legendre, which
    # shares no node or weight with the trapezoid sweep.
    spec = PerturbationSpec.from_strings(f1, f2, mode, p, 1)
    system = AveragedSystem(spec, tol=1e-12)
    problem = pendulum_problem(spec)
    points = np.random.default_rng(11).uniform(-10.0, 10.0, (6, 2))
    got = system.eval_many(points)
    want = np.array([averaged_function(problem, alpha, 1e-12) for alpha in points])
    scale = max(np.abs(want).max(), 1.0)
    assert np.abs(got - want).max() <= 1e-12 * scale


@pytest.mark.parametrize("which", ["corollary1", "corollary2"])
def test_problem_audit_block_determinant(which):
    """Both one-period problems share the block determinant 4 sin^2(sqrt2 pi)."""
    spec = oracles.make_spec(which)
    audit = audit_problem(pendulum_problem(spec), np.array([1.0, 0.5]))
    assert audit.period_gap <= 1e-9
    assert audit.upper_block_max <= 1e-10
    assert abs(audit.lower_block_det - oracles.BLOCK_DET) <= 1e-10


def test_generic_operator_for_higher_resonance():
    spec = PerturbationSpec.from_strings("0", "sin(w1 * tau / 2)", "mode1", 2, 1)
    problem = pendulum_problem(spec)
    system = AveragedSystem(spec, tol=1e-12)
    alpha = np.array([1.0, -0.5])
    assert np.abs(averaged_function(problem, alpha, 1e-12) - system(alpha)).max() <= 1e-12


def test_double_period_modulation_keeps_the_zero_set():
    # Modulating the slow-mode forcing by (1 + sin(w1 tau / 2)) doubles the
    # resonance to 2:1; the extra half-frequency terms carry no DC component
    # against sin/cos(w1 tau), so the raw pair is exactly twice the base one
    # and the zero set is unchanged.
    spec = PerturbationSpec.from_strings(
        "0", "(1 - th1^2) * sin(w1 * tau) * (1 + sin(w1 * tau / 2))", "mode1", 2, 1
    )
    for alpha in [(0.0, 0.0), (1.0, 2.0), (-2.0, 0.5)]:
        got = oracles.raw_pair(spec, alpha, 1e-12)
        want = 2.0 * np.array(oracles.corollary1_raw(*alpha))
        assert np.abs(got - want).max() <= 1e-11
    zeros = find_zeros(AveragedSystem(spec, tol=1e-11), r1=0.1, r2=10.0, grid=(12, 12))
    assert len(zeros) == 4
    for zero, target in zip(zeros, oracles.CORO1_ZEROS):
        assert np.abs(zero.alpha - np.asarray(target)).max() <= 1e-7


def test_problem_audit_rejects_wrong_period():
    spec = oracles.make_spec("corollary1")
    good = pendulum_problem(spec)
    bad = AveragingProblem(
        n=good.n,
        k=good.k,
        period=good.period * 1.01,
        beta=good.beta,
        flow=good.flow,
        fundamental=good.fundamental,
        perturbation=good.perturbation,
    )
    with pytest.raises(AveragingError, match="periodic"):
        averaged_function(bad, np.array([1.0, 0.0]), 1e-10)


def test_problem_audit_rejects_singular_block():
    spec = oracles.make_spec("corollary1")
    good = pendulum_problem(spec)
    bad = AveragingProblem(
        n=4,
        k=2,
        period=good.period,
        beta=good.beta,
        flow=lambda alpha, taus: np.broadcast_to(
            np.array([1.0, 0.0, 0.0, 0.0])[:, None], (4, np.size(taus))
        ),
        fundamental=lambda taus: np.broadcast_to(np.eye(4), (np.size(taus), 4, 4)),
        perturbation=good.perturbation,
    )
    with pytest.raises(AveragingError, match="singular"):
        averaged_function(bad, np.array([1.0, 0.0]), 1e-10)


# ---------------------------------------------------------------------------
# Zero search
# ---------------------------------------------------------------------------

def test_find_zeros_corollary1():
    spec = oracles.make_spec("corollary1")
    system = AveragedSystem(spec, tol=1e-11)
    zeros = find_zeros(system, r1=0.1, r2=10.0)
    assert len(zeros) == 4
    for zero, target in zip(zeros, oracles.CORO1_ZEROS):
        assert np.abs(zero.alpha - np.asarray(target)).max() <= 1e-8
        assert zero.residual <= 1e-11
        assert abs(zero.det) > 1e-8
        assert zero.simple
    classes = antipodal_pairing(zeros)
    assert len(classes) == 2
    assert sorted(len(c) for c in classes) == [2, 2]


class _ValuesOnly:
    """A duck-typed system whose ``pair`` gives values alone: its Jacobians are ``newton.central``'s."""

    last_scale = 1.0

    def eval_many(self, alphas, faults=None, jacobian=False):
        if not jacobian:
            return self.pair(alphas, faults)
        alphas = np.asarray(alphas, dtype=float).reshape(-1, 2)
        F = central(lambda cols, owner, faults: self.pair(cols.T, faults).T)
        values, jacobians, _ = F(alphas.T, np.arange(len(alphas)), faults)
        return values.T, jacobians


class _NoisyCorollary1(_ValuesOnly):
    """Polynomial pair with corollary-1 zeros, the axis zeros moved off x=0.

    g1 = x^2 + 3 y^2 - X0^2 and g2 = (x - d(y)) y, with d = d_plus above
    the x-axis and d_minus below: the zeros are (+-X0, 0) and (d_plus, ~Y0),
    (d_minus, ~-Y0), i.e. the corollary-1 set with Newton-sized noise on the
    first coordinate of the axis zeros.
    """

    def __init__(self, d_plus, d_minus):
        self.d_plus, self.d_minus = d_plus, d_minus

    def _shift(self, y):
        return np.where(y > 0, self.d_plus, self.d_minus)

    def pair(self, alphas, faults=None):
        x, y = np.asarray(alphas, dtype=float).T
        g1 = x**2 + 3.0 * y**2 - oracles.CORO1_X0**2
        return np.stack([g1, (x - self._shift(y)) * y], axis=1)


def test_find_zeros_order_ignores_noise_on_axis_zeros():
    # The zero order must not depend on the sign or size of 1e-11 noise in
    # alpha[0] of (0, +-Y0): every pattern gives the order of CORO1_ZEROS.
    sizes = [-2e-11, -1e-11, 1e-11, 2e-11]
    patterns = [(dp, dm) for dp in sizes for dm in sizes]
    patterns.append((-1.7951320644747182e-11, -1.7951100656738253e-11))
    for d_plus, d_minus in patterns:
        system = _NoisyCorollary1(d_plus, d_minus)
        zeros = find_zeros(system, r1=0.1, r2=10.0, grid=(12, 12))
        assert len(zeros) == 4
        # The first seed of each bin stops ~6.5e-13 from the noisy zero,
        # well inside the 1e-11 steps between noise patterns.
        assert zeros[1].alpha[0] == pytest.approx(d_minus, abs=1e-12)
        assert zeros[2].alpha[0] == pytest.approx(d_plus, abs=1e-12)
        for zero, target in zip(zeros, oracles.CORO1_ZEROS):
            assert np.abs(zero.alpha - np.asarray(target)).max() <= 1e-8
        assert antipodal_pairing(zeros) == [[0, 3], [1, 2]]


class _SquarePair(_ValuesOnly):
    """g = (x^2 - 1, y): one simple zero (1, 0), reached by plain Newton."""

    def pair(self, alphas, faults=None):
        x, y = np.asarray(alphas, dtype=float).T
        return np.stack([x**2 - 1.0, y], axis=1)


def test_find_zeros_keeps_the_first_seed_of_a_bin():
    # Seeds (0.9, 0) and then (1.5, 0) both reach (1, 0): the first stops
    # after 3 steps at |g| ~ 2.4e-10, the second after 4 at ~ 2.6e-11.  The
    # first seed in grid order reports the zero, not the smaller residual.
    zeros = find_zeros(_SquarePair(), r1=0.9, r2=1.5, grid=(2, 1), newton_tol=1e-9)
    assert len(zeros) == 1
    assert zeros[0].iterations == 3
    assert 1e-10 < zeros[0].residual <= 1e-9
    assert zeros[0].alpha[0] == pytest.approx(1.0, abs=1e-9)


class _FaultingSquarePair(_SquarePair):
    """``_SquarePair`` whose points off the x-axis within 1e-3 of (1, 0) fault."""

    def pair(self, alphas, faults=None):
        values = super().pair(alphas)
        x, y = np.asarray(alphas, dtype=float).T
        record = fault_record(faults)
        for i in np.flatnonzero((np.abs(x - 1.0) < 1e-3) & (y != 0.0)):
            record[i] = ExprDomainError("integrand produced non-finite values")
            values[i] = np.nan
        return values


def test_find_zeros_drops_a_seed_whose_stencil_at_its_zero_faults():
    # The seeds on the positive x-axis converge to (1, 0) along the axis,
    # where only their stencils at the zero fault: those seeds are dropped,
    # and the search goes on to the zero (-1, 0).
    zeros = find_zeros(_FaultingSquarePair(), r1=0.9, r2=1.5, grid=(2, 2), newton_tol=1e-9)
    assert len(zeros) == 1
    assert zeros[0].alpha == pytest.approx([-1.0, 0.0], abs=1e-9)
    assert zeros[0].simple


class _AxisCubic(_ValuesOnly):
    """g = ((a - z0)(a - z1)(a - z2), b): three simple zeros on the a-axis."""

    def __init__(self, *roots):
        self.roots = roots

    def pair(self, alphas, faults=None):
        a, b = np.asarray(alphas, dtype=float).T
        z0, z1, z2 = self.roots
        return np.stack([(a - z0) * (a - z1) * (a - z2), b], axis=1)


def test_find_zeros_keeps_a_zero_beyond_the_radius_of_the_last_kept_one():
    # Zeros 0.6 radius apart: the middle one is within the radius of the
    # first and is dropped; the third is within the radius of the middle
    # one only, so it is kept.  Seeds on the a-axis reach all three.
    radius = 0.1
    roots = (1.0, 1.06, 1.12)
    zeros = find_zeros(_AxisCubic(*roots), r1=0.94, r2=1.18, grid=(5, 1), dedup_radius=radius)
    assert [z.alpha[0] for z in zeros] == pytest.approx([1.0, 1.12], abs=1e-9)
    assert all(z.simple for z in zeros)


def test_find_zeros_drops_zeros_on_the_annulus_bounds():
    # Seeds on r1 and r2 converge where they start, at ||x|| == r1 and r2.
    zeros = find_zeros(_AxisCubic(1.0, 1.5, 2.0), r1=1.0, r2=2.0, grid=(3, 1))
    assert [z.alpha.tolist() for z in zeros] == [[1.5, 0.0]]


def test_find_zeros_corollary2():
    spec = oracles.make_spec("corollary2")
    system = AveragedSystem(spec, tol=1e-11)
    zeros = find_zeros(system, r1=0.1, r2=40.0)
    assert len(zeros) == 1
    assert np.abs(zeros[0].alpha - np.array([0.0, oracles.CORO2_W0])).max() <= 1e-7
    assert zeros[0].simple
    assert len(antipodal_pairing(zeros)) == 1


def test_find_zeros_none_when_mean_is_constant_nonzero():
    # sin(w1 tau) forcing projects onto itself: the mean pair is a nonzero
    # constant, so the annulus holds no zeros and the search returns empty.
    spec = PerturbationSpec.from_strings("0", "sin(w1 * tau)", "mode1", 1, 1)
    system = AveragedSystem(spec, tol=1e-11)
    assert not is_identically_zero(system, 0.1, 10.0)
    zeros = find_zeros(system, r1=0.1, r2=10.0, grid=(8, 8))
    assert zeros == []
    assert zeros.degenerate is False


@pytest.mark.parametrize(
    "f2", ["0", "1", "sin(9 * w1 * tau)", "sin(17 * w1 * tau)", "sin(33 * w1 * tau)"]
)
def test_find_zeros_degenerate_forcings(f2):
    # Zero forcing, a constant one, or a high harmonic of w1: sin/cos of a
    # full period integrate it away, the mean pair is identically zero, and
    # no isolated zeros exist.  An equispaced rule that compares N and 2N
    # nodes aliases sin((2N + 1) w1 tau) to a nonzero pair.
    spec = PerturbationSpec.from_strings("0", f2, "mode1", 1, 1)
    system = AveragedSystem(spec, tol=1e-11)
    assert is_identically_zero(system, 0.01, 50.0)
    zeros = find_zeros(system, r1=0.01, r2=50.0, grid=(8, 8))
    assert zeros == []
    assert zeros.degenerate is True


@pytest.mark.parametrize(
    "p, k", [(1, 32), (1, 36), (1, 44), (1, 64), (1, 68), (2, 20), (2, 32), (2, 43), (2, 64), (2, 69)]
)
def test_degeneracy_is_judged_against_the_integrand_scale(p, k):
    # th1^2 sin(k w1 tau) has no component at w1 for these k, so the mean
    # pair is zero.  Its roundoff on th1^2 ~ 100 at the rim of the annulus
    # reaches 4e-13, so an absolute threshold of 1e-13 calls many such pairs
    # non-zero.
    spec = PerturbationSpec.from_strings("0", f"th1^2 * sin({k} * w1 * tau)", "mode1", p, 1)
    assert is_identically_zero(AveragedSystem(spec, tol=1e-11), 0.1, 10.0)


def test_find_zeros_validates_annulus():
    spec = oracles.make_spec("corollary1")
    system = AveragedSystem(spec, tol=1e-11)
    with pytest.raises(ValueError):
        find_zeros(system, r1=0.0, r2=10.0)
    with pytest.raises(ValueError):
        find_zeros(system, r1=2.0, r2=1.0)


def test_newton_quadratic_convergence_near_each_zero():
    """Once the residual is below 1e-3, one step squares it (up to a floor)."""
    cases = [("corollary1", (oracles.CORO1_X0, 0.0)), ("corollary1", (0.0, oracles.CORO1_Y0)),
             ("corollary2", (0.0, oracles.CORO2_W0))]
    for which, target in cases:
        spec = oracles.make_spec(which)
        system = AveragedSystem(spec, tol=1e-12)
        x = np.asarray(target) + np.array([7e-3, -5e-3]) * max(1.0, np.linalg.norm(target) / 3)
        residuals = [float(np.linalg.norm(system(x)))]
        for _ in range(6):
            x = x + np.linalg.solve(system.jacobian(x), -system(x))
            residuals.append(float(np.linalg.norm(system(x))))
        small = [
            (a, b) for a, b in zip(residuals, residuals[1:]) if a < 1e-3 and a > 1e-10
        ]
        assert small, f"no residuals in the quadratic window for {which}: {residuals}"
        for a, b in small:
            assert b <= max(1e3 * a * a, 5e-12), (which, residuals)


def test_antipodal_pairing_edges():
    assert antipodal_pairing([]) == []
    spec = oracles.make_spec("corollary2")
    system = AveragedSystem(spec, tol=1e-11)
    zeros = find_zeros(system, r1=0.1, r2=40.0)
    assert [len(c) for c in antipodal_pairing(zeros)] == [1]


@pytest.mark.parametrize("which", ["corollary1", "corollary2"])
def test_antipodal_pairing_keeps_the_pairwise_classes(which):
    # A subnormal dedup radius keeps every converged seed's zero (480 on
    # corollary1, each near one of four points), so at the default radius
    # most zeros have many antipodal candidates and the first unpaired one
    # must win; at the subnormal radius only exact negations pair.
    config = PRESETS[which]
    system = AveragedSystem(config.to_spec(), tol=config.quad_tol)
    zeros = find_zeros(system, config.r1, config.r2, dedup_radius=1e-310)
    for radius in (1e-310, 1e-6):
        classes = antipodal_pairing(zeros, radius)
        assert classes == oracles.pairwise_antipodal_pairing(zeros, radius)
        assert all(type(index) is int for group in classes for index in group)


@pytest.mark.parametrize("which, radius", [("corollary1", 10.0), ("corollary2", 40.0)])
def test_eval_many_does_not_depend_on_batch_mates(which, radius):
    # Newton's one-point trials must agree with the base column of its
    # stencil batches, so each point is summed on its own.
    system = AveragedSystem(oracles.make_spec(which), tol=1e-11)
    points = np.random.default_rng(5).uniform(-radius, radius, (40, 2))
    batch = system.eval_many(points)
    panels = system.last_panels
    for point, value in zip(points, batch):
        assert np.array_equal(system(point), value)
        assert system.last_panels == panels


def test_each_point_refines_on_its_own():
    # (0.2, 0.1) alone meets the tolerance at 16 base nodes, (6, 4) at 32;
    # side by side, each must still stop at its own count, or the first
    # point's value moves in the last bits.
    spec = PerturbationSpec.from_strings("0", "exp(th2) * sin(w1 * tau)", "mode1", 1, 1)
    system = AveragedSystem(spec, tol=1e-11)
    points = np.array([[0.2, 0.1], [6.0, 4.0]])
    values, nodes = [], []
    for point in points:
        values.append(system(point))
        nodes.append(system.last_panels)
    assert nodes == [16, 32]
    assert np.array_equal(system.eval_many(points), values)
    assert system.last_panels == 32


def test_a_batch_larger_than_a_chunk_matches_single_points():
    system = AveragedSystem(oracles.make_spec("corollary1"), tol=1e-11)
    # The coarsest level has 8 base and 8 check nodes, so this batch spans
    # more than one chunk at every level.
    n = CHUNK_FLOATS // (2 * FIRST_NODES) + 7
    points = np.random.default_rng(6).uniform(-10.0, 10.0, (n, 2))
    batch = system.eval_many(points)
    assert np.array_equal(batch, np.array([system(point) for point in points]))


def test_an_integrand_call_never_sees_more_than_a_chunk(monkeypatch):
    # A kink keeps the trapezoid error near N^-2, far above 1e-13 at the
    # cap.  At 2^15 base nodes a level adds 2^14 base and 2^14 check nodes,
    # so the node axis must be split for each call to stay within
    # CHUNK_FLOATS point x node values.
    sizes = []

    def kinked(points, taus):
        sizes.append(points.size * taus.size)
        return np.abs(np.sin(taus) - 0.5)[None, :, None]

    monkeypatch.setattr(averaging, "MAX_NODES", 2 ** 15)
    with pytest.raises(QuadratureError):
        _integrate_points(kinked, 1, 2.0 * math.pi, 1e-13)
    assert max(sizes) <= CHUNK_FLOATS
    # Every level up to the cap was evaluated on all of its base and check
    # nodes, and no node twice.
    assert sum(sizes) == 2 * 2 ** 15


def test_a_capped_point_leaves_its_batch_alone(monkeypatch):
    # Off the a-axis the kink of abs(th2d) keeps the trapezoid error far
    # above 1e-11 at the node cap; on it the sweep converges.  In one batch
    # the capped point is entered as a QuadratureError and comes back NaN,
    # the others keep their single-point bits, and every point's nodes are
    # evaluated once: the batch costs the sum of the points alone, and the
    # capped point its 2 x MAX_NODES base and check nodes.
    spec = PerturbationSpec.from_strings("0", "abs(th2d) * sin(w1 * tau)", "mode1", 1, 1)
    system = AveragedSystem(spec, tol=1e-11)
    points = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [2.0, 0.0]])
    nodes = []
    orbit = averaging.unperturbed_orbit

    def counted(mode, alpha, tau):
        nodes.append(np.size(alpha[0]) * np.size(tau))
        return orbit(mode, alpha, tau)

    monkeypatch.setattr(averaging, "unperturbed_orbit", counted)
    faults = {}
    batch = system.eval_many(points, faults)
    batch_nodes = sum(nodes)
    assert list(faults) == [1] and isinstance(faults[1], QuadratureError)
    assert str(faults[1]) == f"quadrature did not reach tol=1.0e-11 within {MAX_NODES} nodes"
    assert np.isnan(batch[1]).all()
    alone_nodes = []
    for j, point in enumerate(points):
        nodes.clear()
        if j == 1:
            with pytest.raises(QuadratureError, match=str(MAX_NODES)):
                system(point)
            assert sum(nodes) == 2 * MAX_NODES
        else:
            assert system(point).tobytes() == batch[j].tobytes()
        alone_nodes.append(sum(nodes))
    assert batch_nodes == sum(alone_nodes)
    # Without a dict the batch raises that fault.
    with pytest.raises(QuadratureError, match=str(MAX_NODES)):
        system.eval_many(points)


def test_a_non_finite_point_leaves_its_batch_alone():
    # sqrt(9 - th1^2) is NaN on orbits with |th1| > 3: such a point leaves
    # at its first level with an ExprDomainError, in point order, and the
    # largest |integrand| is that of the points that finished.
    spec = PerturbationSpec.from_strings(
        "0", "(1 - th1^2) * sin(w1 * tau) + 0 * sqrt(9 - th1^2)", "mode1", 1, 1
    )
    system = AveragedSystem(spec, tol=1e-11)
    points = np.array([[5.0, 0.0], [1.0, 0.5], [0.0, 6.0], [0.3, -0.2]])
    faults = {}
    batch = system.eval_many(points, faults)
    assert list(faults) == [0, 2]
    assert all(str(e) == "integrand produced non-finite values" for e in faults.values())
    assert np.isnan(batch[[0, 2]]).all()
    scales = []
    for j in (1, 3):
        assert system(points[j]).tobytes() == batch[j].tobytes()
        scales.append(system.last_scale)
    system.eval_many(points, {})
    assert system.last_scale == max(scales)
    with pytest.raises(ExprDomainError, match="non-finite"):
        system.eval_many(points)


def test_an_empty_batch_is_an_empty_pair():
    # As flow_map's (4, 0) is: no point, no integrand call, no fault.
    system = AveragedSystem(oracles.make_spec("corollary1"), tol=1e-11)
    faults = {}
    assert system.eval_many(np.empty((0, 2)), faults).shape == (0, 2)
    assert system.eval_many(np.empty((0, 2))).shape == (0, 2)
    values, jacobians = system.eval_many(np.empty((0, 2)), faults, jacobian=True)
    assert values.shape == (0, 2) and jacobians.shape == (0, 2, 2)
    assert faults == {}


def test_the_probe_is_one_call_whatever_faults(monkeypatch):
    # Points of the annulus beyond |th1| = 3 fault.  The probe judges the
    # others in its one call, and raises probe point 0's fault only when
    # every point faults.
    spec = PerturbationSpec.from_strings(
        "0", "(1 - th1^2) * sin(w1 * tau) + 0 * sqrt(9 - th1^2)", "mode1", 1, 1
    )
    calls = []
    eval_many = AveragedSystem.eval_many
    monkeypatch.setattr(AveragedSystem, "eval_many", lambda *a: calls.append(1) or eval_many(*a))
    system = AveragedSystem(spec, tol=1e-11)
    assert not is_identically_zero(system, 0.1, 10.0)
    with pytest.raises(ExprDomainError, match="non-finite"):
        is_identically_zero(system, 4.0, 10.0)
    assert len(calls) == 2


@pytest.mark.parametrize("which, calls", [("corollary1", 14), ("corollary2", 43)])
def test_a_preset_search_takes_each_jacobian_from_its_newton_run(monkeypatch, which, calls):
    # The probe and the Newton rounds are every ``eval_many`` call: each
    # kept zero's Jacobian is the one its seed's Newton run evaluated, bit
    # for bit the Jacobian that ``AveragedSystem.jacobian`` evaluates.
    config = PRESETS[which]
    system = AveragedSystem(config.to_spec(), tol=config.quad_tol)
    count = []
    eval_many = AveragedSystem.eval_many
    monkeypatch.setattr(
        AveragedSystem, "eval_many", lambda *a, **k: count.append(1) or eval_many(*a, **k)
    )
    zeros = find_zeros(
        system,
        config.r1,
        config.r2,
        (config.grid_radial, config.grid_angular),
        config.newton_tol,
        config.dedup_radius,
        config.det_threshold,
    )
    assert len(count) == calls
    assert zeros
    for zero in zeros:
        assert zero.jacobian.tobytes() == system.jacobian(zero.alpha).tobytes()
        assert zero.det == float(np.linalg.det(zero.jacobian))


@pytest.mark.parametrize(
    "which, hand",
    [("corollary1", oracles.corollary1_raw_jacobian), ("corollary2", oracles.corollary2_raw_jacobian)],
)
def test_preset_jacobians_are_the_closed_forms_differentiated_by_hand(which, hand):
    # The mean pair is the raw pair times (-1, 1) / (2T), row by row.  On
    # the seed grid and at the zeros the swept Jacobians meet the hand
    # derivatives to roundoff; central differences at step 1e-6 missed them
    # by up to 6e-9 on the grids and 2e-11 at the zeros.
    config = PRESETS[which]
    spec = config.to_spec()
    system = AveragedSystem(spec, tol=config.quad_tol)
    zeros = oracles.CORO1_ZEROS if which == "corollary1" else [(0.0, oracles.CORO2_W0)]
    seeds = seed_grid(config.r1, config.r2, config.grid_radial, config.grid_angular)
    points = np.concatenate([seeds, np.array(zeros)])
    _, jacobians = system.eval_many(points, jacobian=True)
    want = np.array([[-1.0], [1.0]]) / (2.0 * spec.full_period) * hand(points[:, 0], points[:, 1])
    assert np.abs(jacobians - want).max() <= 1e-13
    for point, jacobian in zip(points[-len(zeros) :], jacobians[-len(zeros) :]):
        assert system.jacobian(point).tobytes() == jacobian.tobytes()


def _outcome(result):
    """Comparable form of one seed's end: exact x bits, or the failure."""
    if isinstance(result, Exception):
        return type(result), str(result)
    x, residual, steps, jac = result[:4]
    return x.tobytes(), residual, steps, jac.tobytes()


def _scalar_outcome(F, seed, tol, bound, linearize):
    try:
        return oracles.scalar_damped_newton(F, seed, tol, bound=bound, linearize=linearize)
    except (NewtonFailure, ExprDomainError, QuadratureError) as exc:
        return exc


_SQRT_FORCING = "sqrt(9 - th1^2) * sin(w1 * tau) + (1 - th1^2) * sin(w1 * tau)"
# pendbench family members of the presets, and corollary 1 with tau outside
# a trig call.
_FAMILY_MODE1 = "1.25 * ((1 - 0.75 * th1^2) * sin(w1 * tau + 2.5))"
_FAMILY_MODE2 = "1.25 * (th2d + 0.75 * th1^2 * cos(w2 * tau + 2.5))"
_CORO1_WITH_TAU = "(1 - th1^2) * sin(w1 * tau) + 0 * tau"


@pytest.mark.parametrize(
    "f1, f2, mode, r1, r2, grid, counts",
    [
        # corollary1: 96 seeds stall or meet a singular Jacobian.
        (oracles.CORO1_F1, oracles.CORO1_F2, "mode1", 0.1, 10.0, (24, 24),
         {NewtonFailure: 96, tuple: 480}),
        (oracles.CORO2_F1, oracles.CORO2_F2, "mode2", 0.1, 40.0, (24, 24), {tuple: 576}),
        # Most seeds leave the domain of the sqrt and fault alone.
        ("0", _SQRT_FORCING, "mode1", 0.1, 8.0, (12, 12),
         {ExprDomainError: 122, NewtonFailure: 4, tuple: 18}),
    ],
    ids=["corollary1", "corollary2", "sqrt-domain-faults"],
)
def test_lockstep_newton_matches_the_scalar_loop_seed_for_seed(f1, f2, mode, r1, r2, grid, counts):
    # Both take the exact Jacobians of the sweep, as ``find_zeros`` does.
    system = AveragedSystem(PerturbationSpec.from_strings(f1, f2, mode, 1, 1), tol=1e-11)

    def F(cols):
        return system.eval_many(cols.T).T

    def exact(F, x):
        values, jacobians = system.eval_many(x[None, :], jacobian=True)
        return values[0], jacobians[0]

    def linearized(cols, _, faults):
        values, jacobians = system.eval_many(cols.T, faults, jacobian=True)
        return values.T, jacobians

    seeds = seed_grid(r1, r2, *grid)
    bound = 10.0 * max(r2, 1.0)
    lockstep = solve_many(linearized, seeds.T, 1e-11, bound=bound)
    scalar = [_scalar_outcome(F, seed, 1e-11, bound, exact) for seed in seeds]
    assert [_outcome(r) for r in lockstep] == [_outcome(r) for r in scalar]
    kinds = [type(r) for r in scalar]
    assert {kind: kinds.count(kind) for kind in set(kinds)} == counts


@pytest.mark.parametrize(
    "f1, f2, mode, r2, grid",
    [
        (oracles.CORO1_F1, oracles.CORO1_F2, "mode1", 10.0, (24, 24)),
        (oracles.CORO2_F1, oracles.CORO2_F2, "mode2", 40.0, (24, 24)),
        ("0", _SQRT_FORCING, "mode1", 8.0, (12, 12)),
    ],
    ids=["corollary1", "corollary2", "sqrt-domain-faults"],
)
def test_values_keep_their_bits_with_the_jacobian(f1, f2, mode, r2, grid):
    # The values alone decide where each point stops and whether it faults,
    # so the Jacobian components summed along move no value bit, no fault,
    # and neither ``last_panels`` nor ``last_scale``.  The sqrt forcing takes
    # the checked sweep, and most of its points fault.
    system = AveragedSystem(PerturbationSpec.from_strings(f1, f2, mode, 1, 1), tol=1e-11)
    points = seed_grid(0.1, r2, *grid)
    faults, faults_too = {}, {}
    values = system.eval_many(points, faults)
    alone = (system.last_panels, system.last_scale)
    values_too, jacobians = system.eval_many(points, faults_too, jacobian=True)
    assert values_too.tobytes() == values.tobytes()
    assert (system.last_panels, system.last_scale) == alone
    assert {k: (type(e), str(e)) for k, e in faults_too.items()} == {
        k: (type(e), str(e)) for k, e in faults.items()
    }
    assert jacobians.shape == (len(points), 2, 2)
    bad = np.zeros(len(points), dtype=bool)
    bad[list(faults)] = True
    assert np.isnan(jacobians[bad]).all() and np.isfinite(jacobians[~bad]).all()


def test_averaged_system_caches_panel_count():
    spec = oracles.make_spec("corollary1")
    system = AveragedSystem(spec, tol=1e-11)
    system(np.array([1.0, 0.0]))
    assert system.last_panels >= 8


@pytest.mark.parametrize(
    "f1, f2, mode, p, r2, grid, max_nodes, tol, nodes",
    [
        (oracles.CORO1_F1, oracles.CORO1_F2, "mode1", 1, 10.0, (24, 24), MAX_NODES, 1e-11, 8),
        (oracles.CORO2_F1, oracles.CORO2_F2, "mode2", 1, 40.0, (24, 24), MAX_NODES, 1e-11, 8),
        ("0", "(1 - th1^2) * sin(w1 * tau) * (1 + sin(w1 * tau / 2))", "mode1", 2,
         10.0, (12, 12), MAX_NODES, 1e-11, 16),
        ("0", "th1^2 * sin(5 * w1 * tau)", "mode1", 1, 10.0, (12, 12), MAX_NODES, 1e-11, 16),
        ("0", _SQRT_FORCING, "mode1", 1, 8.0, (6, 6), MAX_NODES, 1e-11, None),
        # 50 points finish on 128 to 1024 base nodes and 30 are capped:
        # numpy sums each block of more than 128 nodes pairwise in halves.
        ("0", "abs(th2d) * sin(w1 * tau)", "mode1", 1, 10.0, (4, 4), 2 ** 10, 1e-6, None),
        ("0", "sin(th1) * sin(w1 * tau)", "mode1", 1, 3.0, (4, 4), MAX_NODES, 1e-11, None),
        ("0", "abs(2 + th1) * sin(w1 * tau)", "mode1", 1, 1.5, (4, 4), MAX_NODES, 1e-11, None),
        ("0", "exp(th1) * cos(w1 * tau)", "mode1", 1, 3.0, (4, 4), MAX_NODES, 1e-11, None),
        ("0", _CORO1_WITH_TAU, "mode1", 1, 10.0, (4, 4), MAX_NODES, 1e-11, None),
    ],
    ids=["corollary1", "corollary2", "p2", "harmonic-at-8", "sqrt-domain-faults",
         "kinked", "sin-of-state", "abs-of-state", "exp-of-state", "tau-outside-trig"],
)
def test_the_node_major_sweep_keeps_the_points_major_bits(
    monkeypatch, f1, f2, mode, p, r2, grid, max_nodes, tol, nodes
):
    # Every column of the seed grid's Newton stencils is a point.  A
    # band-limited integrand is summed at its certified level, without the
    # check grid, and keeps the bits of the checked sweep, which stops there
    # too; any other keeps that sweep.
    points = _stencils(seed_grid(0.1, r2, *grid)).transpose(0, 2, 1).reshape(-1, 2)
    monkeypatch.setattr(averaging, "MAX_NODES", max_nodes)
    system = AveragedSystem(PerturbationSpec.from_strings(f1, f2, mode, p, 1), tol=tol)
    assert certified_nodes(system.spec) == nodes
    faults, want_faults = {}, {}
    got = system.eval_many(points, faults)
    want, panels, scale = oracles.points_major_eval_many(system, points, want_faults)
    assert got.tobytes() == want.tobytes()
    assert {k: (type(e), str(e)) for k, e in faults.items()} == {
        k: (type(e), str(e)) for k, e in want_faults.items()
    }
    assert (system.last_panels, system.last_scale) == (panels, scale)


@pytest.mark.parametrize(
    "f1, f2, mode, nodes_p1, nodes_p2",
    [
        (oracles.CORO1_F1, oracles.CORO1_F2, "mode1", 8, 16),
        (oracles.CORO2_F1, oracles.CORO2_F2, "mode2", 8, 16),
        ("0", _FAMILY_MODE1, "mode1", 8, 16),
        (_FAMILY_MODE2, "0", "mode2", 8, 16),
        # Degree 1 + 2 + 5 = 8 aliases onto 8 nodes, so it needs 16.
        ("0", "th1^2 * sin(5 * w1 * tau)", "mode1", 16, 32),
        ("0", "th1^2 * sin(32 * w1 * tau)", "mode1", 64, 128),
    ],
)
def test_certified_nodes_exceed_the_integrand_degree(f1, f2, mode, nodes_p1, nodes_p2):
    for p, nodes in ((1, nodes_p1), (2, nodes_p2)):
        assert certified_nodes(PerturbationSpec.from_strings(f1, f2, mode, p, 1)) == nodes


@pytest.mark.parametrize("mode, p", [("mode1", 1), ("mode2", 1), ("mode1", 2), ("mode2", 2)])
def test_family_members_keep_the_checked_sweeps_values(mode, p):
    # A pendbench family member's certified sum keeps the bits of the
    # checked sweep on the seed grid's stencils.  Its largest |integrand|
    # is taken over the base nodes alone, so it is at most the checked one.
    f1, f2 = ("0", _FAMILY_MODE1) if mode == "mode1" else (_FAMILY_MODE2, "0")
    system = AveragedSystem(PerturbationSpec.from_strings(f1, f2, mode, p, 1), tol=1e-11)
    points = _stencils(seed_grid(0.1, 10.0, 12, 12)).transpose(0, 2, 1).reshape(-1, 2)
    got = system.eval_many(points)
    want, panels, scale = oracles.points_major_eval_many(system, points)
    assert got.tobytes() == want.tobytes()
    assert system.last_panels == panels == 8 * p
    assert 0.0 < system.last_scale <= scale


def test_a_certified_sweep_evaluates_only_its_base_grids(monkeypatch):
    # At 16 certified nodes each point costs the 8 base nodes and 8
    # midpoints, and the sum is exact: th1^2 sin(5 w1 tau) has no component
    # at w1, so the pair is roundoff of the scale.
    spec = PerturbationSpec.from_strings("0", "th1^2 * sin(5 * w1 * tau)", "mode1", 1, 1)
    system = AveragedSystem(spec, tol=1e-11)
    nodes = []
    orbit = averaging.unperturbed_orbit

    def counted(mode, alpha, tau):
        nodes.append(np.size(alpha[0]) * np.size(tau))
        return orbit(mode, alpha, tau)

    monkeypatch.setattr(averaging, "unperturbed_orbit", counted)
    points = seed_grid(0.1, 10.0, 3, 4)
    pair = system.eval_many(points)
    assert sum(nodes) == 16 * len(points) and system.last_panels == 16
    assert np.abs(pair).max() <= 1e-13 * system.last_scale


def test_a_bounded_forcing_that_overflows_is_a_domain_fault():
    # th1^8 overflows beyond |th1| ~ 3e38.  The certified sweep enters
    # that point as an ExprDomainError, NaN, and its batch-mates keep their
    # single-point bits.
    spec = PerturbationSpec.from_strings("0", "th1^8 * sin(w1 * tau)", "mode1", 1, 1)
    system = AveragedSystem(spec, tol=1e-11)
    assert certified_nodes(spec) == 16
    points = np.array([[1.0, 0.5], [1e40, 0.0], [0.3, -0.2]])
    faults = {}
    batch = system.eval_many(points, faults)
    assert list(faults) == [1] and isinstance(faults[1], ExprDomainError)
    assert str(faults[1]) == "integrand produced non-finite values"
    assert np.isnan(batch[1]).all() and np.isfinite(batch[[0, 2]]).all()
    for j in (0, 2):
        assert system(points[j]).tobytes() == batch[j].tobytes()
    with pytest.raises(ExprDomainError, match="non-finite"):
        system.eval_many(points)
