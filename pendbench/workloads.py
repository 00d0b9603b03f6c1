"""Seeded inputs with closed-form answers, the three workload ops, and their checks.

Every input belongs to a family built from the two bundled presets whose
averaged pair is known in closed form:

* a scale ``c`` on the whole forcing,
* ``th1^2 -> k * th1^2`` in the amplitude-dependent term,
* a phase ``w * tau -> w * tau + phi`` in the resonant trigonometric factor,
* ``p`` in {1, 2} with ``q = 1`` (a T-periodic forcing is also 2T-periodic).

With ``R(phi)`` the counter-clockwise rotation, the raw integral pair obeys

    mode1:  raw_{c,k,phi}(a) = c R(phi) raw_1(sqrt(k) R(phi) a)
    mode2:  raw_{c,k,phi}(a) = c R(phi) raw_1(k R(phi) a) / k

for ``p = 1``; ``p = 2`` doubles the raw pair and leaves the period-mean
pair unchanged.  The zeros are therefore ``R(-phi) Z / sqrt(k)`` (mode1)
and ``R(-phi) Z / k`` (mode2), with ``Z`` the preset zeros, and the
annulus is scaled by the same factor so every zero stays inside.

The program under test only ever receives forcing text, resonance data,
annulus radii and amplitude points; the closed forms stay here.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, replace

import numpy as np

SQRT2 = math.sqrt(2.0)
W1 = math.sqrt(2.0 - SQRT2)
W2 = math.sqrt(2.0 + SQRT2)
T1 = 2.0 * math.pi / W1
T2 = 2.0 * math.pi / W2

# Preset zeros from the radicals.
CORO1_X0 = 2.0 * math.sqrt(2.0 * (2.0 - SQRT2))
CORO1_Y0 = 2.0 * math.sqrt((2.0 / 3.0) * (2.0 - SQRT2))
CORO2_W0 = -8.0 * (2.0 + SQRT2)
CORO1_ZEROS = np.array([(-CORO1_X0, 0.0), (0.0, -CORO1_Y0), (0.0, CORO1_Y0), (CORO1_X0, 0.0)])
CORO2_ZEROS = np.array([(0.0, CORO2_W0)])

# The presets verbatim (forcing text and annulus), as pendavg ships them.
PRESET_TEXT = {
    "mode1": ("0", "(1 - th1^2) * sin(w1 * tau)", 0.1, 10.0),
    "mode2": ("th2d + th1^2 * cos(w2 * tau)", "0", 0.1, 40.0),
}

# Each stream cycles through (mode, p) classes, and a run holds whole
# cycles, so every run has the same mix of op costs whatever the seed.
# ``search`` alternates the modes over one p = 1 and one p = 2 pass; the
# four classes cost about the same there, and a short cycle lets a run end
# near its time budget.  Shooting at p = 2 is the same integration over
# twice the horizon at twice the cost, so ``shoot`` keeps to p = 1; two of
# its three ops are mode1, so its median lies inside the mode1 costs rather
# than in the gap between them and the dearer mode2 ones.
CLASSES = (("mode1", 1), ("mode2", 1), ("mode1", 2), ("mode2", 2), ("mode1", 1), ("mode2", 1))
CYCLES = {"search": CLASSES[:4], "shoot": CLASSES[:2] + CLASSES[:1], "grid": CLASSES}

LADDER = (1e-2, 5e-3, 2.5e-3, 1e-3)
GRID_POINTS = 40_000
QUAD_TOL = 1e-11

ZERO_TOL = 1e-7
GRID_REL_TOL = 1e-10


def rotation(phi):
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def preset_raw(mode, a, b):
    """Raw-convention pair of the preset forcing (c = k = 1, phi = 0, p = 1)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if mode == "mode1":
        c = (2.0 - SQRT2) ** 1.5
        g1 = -math.pi * (a**2 + 3.0 * b**2 + 8.0 * (SQRT2 - 2.0)) / (8.0 * c)
        g2 = -math.pi * a * b / (4.0 * c)
        return np.stack([g1, g2], axis=-1)
    coeff = 2.0 - SQRT2
    root = math.sqrt(2.0 * (2.0 + SQRT2))
    g1 = -math.pi * (coeff * b - 8.0) * a / (4.0 * root)
    g2 = math.pi * ((SQRT2 - 2.0) * (b**2 + 3.0 * a**2) - 16.0 * b) / (8.0 * root)
    return np.stack([g1, g2], axis=-1)


@dataclass(frozen=True)
class Case:
    """One generated experiment plus the closed-form facts to check it by."""

    index: int
    mode: str
    p: int
    c: float
    k: float
    phi: float
    f1: str
    f2: str
    r1: float
    r2: float

    @property
    def amplitude_scale(self):
        return 1.0 / math.sqrt(self.k) if self.mode == "mode1" else 1.0 / self.k

    @property
    def zeros(self):
        base = CORO1_ZEROS if self.mode == "mode1" else CORO2_ZEROS
        return (rotation(-self.phi) @ base.T).T * self.amplitude_scale

    @property
    def orbit_classes(self):
        return 2 if self.mode == "mode1" else 1

    def mean_pair(self, alphas):
        """Closed-form period-mean pair at an (m, 2) array of amplitudes."""
        rot = rotation(self.phi)
        inner = np.asarray(alphas, dtype=float) @ rot.T
        if self.mode == "mode1":
            raw = preset_raw("mode1", *(math.sqrt(self.k) * inner.T))
        else:
            raw = preset_raw("mode2", *(self.k * inner.T)) / self.k
        raw = self.c * raw @ rot.T
        period = T1 if self.mode == "mode1" else T2
        return np.stack([-raw[:, 0], raw[:, 1]], axis=1) / (2.0 * period)


def _forcing_text(mode, c, k, phi):
    if mode == "mode1":
        return "0", f"{c!r} * ((1 - {k!r} * th1^2) * sin(w1 * tau + {phi!r}))"
    return f"{c!r} * (th2d + {k!r} * th1^2 * cos(w2 * tau + {phi!r}))", "0"


# Additive recurrence of the 3-d R-sequence (the root of x^4 = x + 1): its
# points fill the unit cube evenly from any start, so the few ops of one
# class in a run cover the (c, k, phi) box alike whatever the seed.
_PHI3 = 1.2207440846057596
_STEP = np.array([_PHI3**-1, _PHI3**-2, _PHI3**-3])


def _unit_draw(seed, index, classes):
    """Point of the R-sequence shifted by (seed, cycle position) for op
    ``index``, plus a uniform integer for discrete choices."""
    position, turn = index % len(classes), index // len(classes)
    rng = np.random.default_rng([seed, position])
    start = rng.uniform(size=3)
    offset = int(rng.integers(1 << 30))
    return (start + turn * _STEP) % 1.0, offset + turn


def make_case(seed, index, classes=CLASSES):
    """The ``index``-th input of the stream for ``seed``.

    Ops 0 and 1 are the two presets verbatim; later ops take ``c``, ``k``
    in [0.5, 2] and ``phi`` in [0, 2 pi) from a seed-shifted low-discrepancy
    sequence per cycle position, so any op can be rebuilt alone.
    """
    mode, p = classes[index % len(classes)]
    r1, r2 = PRESET_TEXT[mode][2:]
    if index < 2:
        f1, f2 = PRESET_TEXT[mode][:2]
        return Case(index, mode, p, 1.0, 1.0, 0.0, f1, f2, r1, r2)
    u, _ = _unit_draw(seed, index, classes)
    c, k, phi = 0.5 + 1.5 * float(u[0]), 0.5 + 1.5 * float(u[1]), 2.0 * math.pi * float(u[2])
    f1, f2 = _forcing_text(mode, c, k, phi)
    case = Case(index, mode, p, c, k, phi, f1, f2, r1, r2)
    return replace(case, r1=r1 * case.amplitude_scale, r2=r2 * case.amplitude_scale)


def shoot_zero(seed, case):
    """One closed-form zero of ``case``; successive ops of a class take turns."""
    zeros = case.zeros
    return zeros[_unit_draw(seed, case.index, CYCLES["shoot"])[1] % len(zeros)]


def grid_points(seed, case, n=GRID_POINTS):
    """``n`` amplitude points uniform in area over the open annulus of ``case``."""
    rng = np.random.default_rng([seed, case.index, 2])
    radii = np.sqrt(rng.uniform(case.r1**2, case.r2**2, size=n))
    angles = rng.uniform(0.0, 2.0 * math.pi, size=n)
    return np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)


# ---------------------------------------------------------------------------
# Ops: each ``prepare`` builds the op's input outside the timed region, each
# ``run`` is the timed call into pendavg, each ``check`` returns an error
# string or None.  Program entry points are looked up on their modules at
# call time, so the tracer's wrappers see these calls too.
# ---------------------------------------------------------------------------

def search_argv(case):
    return [
        "zeros",
        f"--f1={case.f1}",
        f"--f2={case.f2}",
        f"--mode={case.mode}",
        f"--p={case.p}",
        "--q=1",
        f"--r1={case.r1!r}",
        f"--r2={case.r2!r}",
    ]


def run_search(argv):
    import pendavg.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = pendavg.cli.main(argv)
    return code, out.getvalue()


def check_search(case, result):
    code, text = result
    if code != 0:
        return f"exit code {code}"
    report = json.loads(text)
    found = np.array([z["alpha"] for z in report["zeros"]], dtype=float).reshape(-1, 2)
    want = case.zeros
    if len(found) != len(want):
        return f"{len(found)} zeros, expected {len(want)}"
    unmatched = list(range(len(found)))
    for target in want:
        gaps = [float(np.abs(found[i] - target).max()) for i in unmatched]
        best = int(np.argmin(gaps))
        if gaps[best] > ZERO_TOL:
            return f"no zero within {ZERO_TOL:g} of {target.tolist()} (gap {gaps[best]:.3e})"
        unmatched.pop(best)
    if not all(z["simple"] for z in report["zeros"]):
        return "a zero is not simple"
    if report["orbit_classes"] != case.orbit_classes or len(report["classes"]) != case.orbit_classes:
        return f"{report['orbit_classes']} orbit classes, expected {case.orbit_classes}"
    return None


def run_shoot(case, alpha):
    import pendavg.continuation
    from pendavg.model import PerturbationSpec

    spec = PerturbationSpec.from_strings(case.f1, case.f2, case.mode, case.p, 1)
    return pendavg.continuation.verify_zero(spec, alpha, LADDER)


def check_shoot(case, orbits):
    """Acceptance criterion 5: residual and distance at the smallest eps, ratio spread.

    Criterion 5 bounds the distance to the prediction by 10 eps for the
    presets.  The substitution that turns a family member into its preset
    (amplitudes times sqrt(k) or k) multiplies eps by c sqrt(k) (mode1) or
    c (mode2), so the same bound reads 10 eps c (mode1) and 10 eps c / k
    (mode2) in the member's own coordinates; it is 10 eps for the presets.
    """
    if len(orbits) != len(LADDER):
        return f"{len(orbits)} orbits for {len(LADDER)} eps values"
    last = orbits[-1]
    if last.epsilon != LADDER[-1] or not last.residual <= 1e-9:
        return f"residual {last.residual:.3e} at eps {last.epsilon:g}"
    bound = 10.0 * last.epsilon * case.c * (1.0 if case.mode == "mode1" else 1.0 / case.k)
    if not last.distance_to_prediction <= bound:
        return f"distance {last.distance_to_prediction:.3e} exceeds {bound:.3e}"
    ratios = [o.distance_to_prediction / o.epsilon for o in orbits]
    spread = max(ratios) / min(ratios) - 1.0
    if not spread < 0.5:
        return f"distance/eps ratio spread {spread:.3f}"
    return None


def run_grid(case, points):
    from pendavg.averaging import AveragedSystem
    from pendavg.model import PerturbationSpec

    spec = PerturbationSpec.from_strings(case.f1, case.f2, case.mode, case.p, 1)
    return AveragedSystem(spec, tol=QUAD_TOL).eval_many(points)


def check_grid(case, points, values):
    want = case.mean_pair(points)
    scale = float(np.abs(want).max())
    gap = float(np.abs(np.asarray(values) - want).max())
    if not gap <= GRID_REL_TOL * scale:
        return f"max gap {gap:.3e} exceeds {GRID_REL_TOL:g} x scale {scale:.3e}"
    return None


@dataclass(frozen=True)
class Op:
    """A prepared op: the timed thunk and the check of its result."""

    case: Case
    call: object
    check: object


def prepare(workload, seed, index):
    case = make_case(seed, index, CYCLES[workload])
    if workload == "search":
        argv = search_argv(case)
        return Op(case, lambda: run_search(argv), lambda r: check_search(case, r))
    if workload == "shoot":
        alpha = shoot_zero(seed, case)
        return Op(case, lambda: run_shoot(case, alpha), lambda r: check_shoot(case, r))
    if workload == "grid":
        points = grid_points(seed, case)
        return Op(case, lambda: run_grid(case, points), lambda r: check_grid(case, points, r))
    raise ValueError(f"unknown workload {workload!r}")
