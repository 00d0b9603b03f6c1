"""Acceptance gate: one test per shipped criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -s`` to see one verdict line per
criterion; each test also asserts, so the suite fails if any criterion does.
"""

import math
import time

import numpy as np

import oracles
from oracles import fundamental_matrix
from pendavg.averaging import AveragedSystem, antipodal_pairing, find_zeros
from pendavg.config import PRESETS
from pendavg.constants import T1
from pendavg.continuation import flow_map, predicted_initial_state, verify_zero
from pendavg.model import (
    INVERSE_MODAL_MATRIX,
    LINEAR_MODAL,
    LINEAR_ORIGINAL,
    MODAL_MATRIX,
    Mode,
    unperturbed_orbit,
)

SQRT2 = math.sqrt(2.0)


def _verdict(number, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


def _search(preset):
    cfg = PRESETS[preset]
    system = AveragedSystem(cfg.to_spec(), tol=cfg.quad_tol)
    start = time.perf_counter()
    zeros = find_zeros(
        system,
        r1=cfg.r1,
        r2=cfg.r2,
        grid=(cfg.grid_radial, cfg.grid_angular),
        newton_tol=cfg.newton_tol,
        dedup_radius=cfg.dedup_radius,
        det_threshold=cfg.det_threshold,
    )
    elapsed = time.perf_counter() - start
    return zeros, elapsed


def test_criterion_1_corollary1_zero_set():
    zeros, elapsed = _search("corollary1")
    ok = len(zeros) == 4 and elapsed < 10.0
    detail = f"{len(zeros)} zeros in {elapsed:.2f}s"
    if ok:
        for zero, target in zip(zeros, oracles.CORO1_ZEROS):
            ok &= np.abs(zero.alpha - np.asarray(target)).max() <= 1e-7
            ok &= zero.residual <= 1e-11
            ok &= abs(zero.det) > 1e-8
            ok &= zero.simple
        classes = antipodal_pairing(zeros)
        ok &= len(classes) == 2
        detail += f", {len(antipodal_pairing(zeros))} classes"
    _verdict(1, "slow-mode forcing zero set", ok, detail)


def test_criterion_2_corollary2_zero_set():
    zeros, elapsed = _search("corollary2")
    ok = len(zeros) == 1 and elapsed < 10.0
    detail = f"{len(zeros)} zeros in {elapsed:.2f}s"
    if ok:
        zero = zeros[0]
        target = np.array([0.0, oracles.CORO2_W0])
        ok &= np.abs(zero.alpha - target).max() <= 1e-7
        ok &= zero.residual <= 1e-11
        ok &= zero.simple
        ok &= float(np.linalg.norm(zero.alpha)) > PRESETS["corollary2"].r1
        ok &= len(antipodal_pairing(zeros)) == 1
    _verdict(2, "fast-mode forcing zero set", ok, detail)


def test_criterion_3_closed_form_oracles():
    worst = 0.0
    spec1 = oracles.make_spec("corollary1")
    axis1 = np.linspace(-3.0, 3.0, 20)
    for x0 in axis1:
        for y0 in axis1:
            raw = oracles.raw_pair(spec1, (x0, y0), 1e-11)
            want = oracles.corollary1_raw(x0, y0)
            worst = max(worst, abs(raw[0] - want[0]), abs(raw[1] - want[1]))
    spec2 = oracles.make_spec("corollary2")
    axis2 = np.linspace(-30.0, 30.0, 20)
    for z0 in axis2:
        for w0 in axis2:
            raw = oracles.raw_pair(spec2, (z0, w0), 1e-11)
            want = oracles.corollary2_raw(z0, w0)
            worst = max(worst, abs(raw[0] - want[0]), abs(raw[1] - want[1]))
    _verdict(3, "quadrature matches closed forms", worst <= 1e-10, f"worst gap {worst:.2e}")


def test_criterion_4_period_map_block_determinant():
    diff = np.linalg.inv(fundamental_matrix(0.0)) - np.linalg.inv(fundamental_matrix(T1))
    det = float(np.linalg.det(diff[2:, 2:]))
    gap = abs(det - oracles.BLOCK_DET)
    _verdict(4, "block determinant 4 sin^2(sqrt2 pi)", gap <= 1e-10, f"det {det:.12f}, gap {gap:.2e}")


def test_criterion_5_shooting_verification():
    ladder = (1e-2, 5e-3, 2.5e-3, 1e-3)
    cases = [("corollary1", alpha) for alpha in oracles.CORO1_ZEROS]
    cases.append(("corollary2", (0.0, oracles.CORO2_W0)))
    start = time.perf_counter()
    ok = True
    details = []
    for which, alpha in cases:
        spec = oracles.make_spec(which)
        orbits = verify_zero(spec, alpha, ladder)
        at_small = orbits[-1]
        ok &= at_small.epsilon == 1e-3
        ok &= at_small.residual <= 1e-9
        ok &= at_small.distance_to_prediction <= 10.0 * 1e-3
        ratios = [o.distance_to_prediction / o.epsilon for o in orbits]
        spread = max(ratios) / min(ratios) - 1.0
        ok &= spread < 0.5
        details.append(f"{which}@({alpha[0]:.3g},{alpha[1]:.3g}) ratio {np.mean(ratios):.3f} var {100*spread:.1f}%")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 60.0
    _verdict(5, "orbit continuation over the eps ladder", ok, f"{elapsed:.1f}s; " + "; ".join(details))


def test_criterion_6_structural_invariants():
    rng = np.random.default_rng(2024)
    states = rng.uniform(-1.0, 1.0, size=(1000, 4))
    round_trip = float(
        np.abs((INVERSE_MODAL_MATRIX @ (MODAL_MATRIX @ states.T)).T - states).max()
    )
    conjugation = float(
        np.abs(MODAL_MATRIX @ LINEAR_ORIGINAL @ INVERSE_MODAL_MATRIX - LINEAR_MODAL).max()
    )
    ortho = 0.0
    for tau in rng.uniform(-30.0, 30.0, size=16):
        m = fundamental_matrix(tau)
        ortho = max(ortho, float(np.abs(m @ m.T - np.eye(4)).max()))

    field = oracles.fast_field(oracles.make_spec("corollary1"), 0.0)

    def ode_defect(mode, h):
        worst = 0.0
        for tau in np.linspace(0.1, 0.1 + mode.period, 7):
            fd = (
                unperturbed_orbit(mode, (1.1, -0.7), tau + h)
                - unperturbed_orbit(mode, (1.1, -0.7), tau - h)
            ) / (2 * h)
            rhs = field(tau, unperturbed_orbit(mode, (1.1, -0.7), tau))
            worst = max(worst, float(np.abs(fd - rhs).max()))
        return worst

    order_ok = True
    for mode in (Mode.MODE1, Mode.MODE2):
        e1, e2 = ode_defect(mode, 1e-2), ode_defect(mode, 5e-3)
        order_ok &= e1 < 1e-3 and 3.0 < e1 / e2 < 5.0

    ok = round_trip <= 1e-12 and conjugation <= 1e-12 and ortho <= 1e-12 and order_ok
    _verdict(
        6,
        "structural invariants",
        ok,
        f"round-trip {round_trip:.1e}, conjugation {conjugation:.1e}, "
        f"orthogonality {ortho:.1e}, closed-form ODE defect O(h^2) {order_ok}",
    )


def test_criterion_7_numerics_self_checks():
    spec = oracles.make_spec("corollary1")
    x0 = unperturbed_orbit(Mode.MODE1, (1.0, 0.0), 0.0)
    exact = unperturbed_orbit(Mode.MODE1, (1.0, 0.0), T1)

    def rk4_error(n):
        return float(np.abs(oracles.rk4(spec, 0.0, x0, (0.0, T1), T1 / n)[:, -1] - exact).max())

    ratio = rk4_error(128) / rk4_error(256)
    rk4_ok = 8.0 < ratio < 32.0

    # The shipped DOP853 on the slow deviation against the fast-state RK4.
    start = predicted_initial_state(Mode.MODE1, (oracles.CORO1_X0, 0.0)) + 0.01
    reference = oracles.rk4(spec, 1e-2, start, (0.0, T1), T1 / 8192)[:, -1]
    dop853_gap = float(np.abs(flow_map(spec, 1e-2, start, T1) - reference).max())
    dop853_ok = dop853_gap <= 1e-10

    newton_ok = True
    for which, target in (
        ("corollary1", (oracles.CORO1_X0, 0.0)),
        ("corollary1", (0.0, oracles.CORO1_Y0)),
        ("corollary2", (0.0, oracles.CORO2_W0)),
    ):
        system = AveragedSystem(oracles.make_spec(which), tol=1e-12)
        x = np.asarray(target) + np.array([7e-3, -5e-3]) * max(1.0, np.linalg.norm(target) / 3)
        residuals = [float(np.linalg.norm(system(x)))]
        for _ in range(6):
            x = x + np.linalg.solve(system.jacobian(x), -system(x))
            residuals.append(float(np.linalg.norm(system(x))))
        window = [(a, b) for a, b in zip(residuals, residuals[1:]) if 1e-10 < a < 1e-3]
        newton_ok &= bool(window)
        newton_ok &= all(b <= max(1e3 * a * a, 5e-12) for a, b in window)

    tol_ok = True
    for which in ("corollary1", "corollary2"):
        s = oracles.make_spec(which)
        for alpha in [(0.7, -0.4), (3.0, 5.0)]:
            loose = AveragedSystem(s, 1e-10)(alpha)
            tight = AveragedSystem(s, 1e-12)(alpha)
            tol_ok &= float(np.abs(loose - tight).max()) <= 1e-9

    ok = rk4_ok and dop853_ok and newton_ok and tol_ok
    _verdict(
        7,
        "numerics self-checks",
        ok,
        f"rk4 halving ratio {ratio:.1f}, dop853 vs rk4 gap {dop853_gap:.1e}, "
        f"newton quadratic {newton_ok}, "
        f"quadrature tolerance monotonicity {tol_ok}",
    )
