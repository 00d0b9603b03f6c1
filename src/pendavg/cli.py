"""Command-line front end: averaging -> zeros -> shooting pipelines.

Subcommands
-----------
freqs    print the two mode frequencies and periods
average  evaluate the mean bifurcation pair on points or a grid (CSV)
zeros    locate simple zeros over the annulus (JSON report)
verify   continue each zero to periodic orbits of the forced system
         at the configured eps ladder (JSON + trajectory CSVs)
orbit    sample a closed-form unperturbed orbit (CSV)

Experiments come from ``--preset``, a JSON ``--config`` file, and/or
direct flags; later sources override earlier ones.  Exit codes: 0 on
success (an empty zero list is a success), 2 for configuration errors,
3 for numerical failures.  PENDAVG_LOG=debug|info|... sets the log level.
"""

from __future__ import annotations

import argparse
import functools
import logging
import math
import os
import sys
from dataclasses import fields

import numpy as np

from .averaging import (
    AveragedSystem,
    QuadratureError,
    antipodal_pairing,
    find_zeros,
    is_identically_zero,  # noqa: F401 - unused; pendbench's tracer patches it here
)
from .config import PRESETS, ConfigError, ExperimentConfig, merge_config, read_config_file
from .constants import OMEGA1, OMEGA2, T1, T2
from .continuation import (
    IntegrationError,
    ShootingError,
    predicted_initial_state,
    shoot_many,
)
from .expr import VARIABLES, ExprDomainError, ExprSyntaxError
from .model import Mode, PeriodicityError, unperturbed_orbit
from .reporting import csv_lines, fmt_float, json_dumps, write_text

log = logging.getLogger("pendavg")

DEGENERATE_MESSAGE = "identically zero averaged function, no isolated zeros"


# ---------------------------------------------------------------------------
# Argument plumbing
# ---------------------------------------------------------------------------

def _add_experiment_flags(sub):
    sub.add_argument("--preset", choices=sorted(PRESETS), help="start from a named preset")
    sub.add_argument("--config", metavar="PATH", help="JSON config file")
    sub.add_argument("--f1", metavar="EXPR", help="forcing on th1'' (expression text)")
    sub.add_argument("--f2", metavar="EXPR", help="forcing on th2'' (expression text)")
    sub.add_argument("--mode", choices=[m.value for m in Mode], help="resonant mode")
    sub.add_argument("--p", type=int, help="resonance numerator")
    sub.add_argument("--q", type=int, help="resonance denominator")
    sub.add_argument("--r1", type=float, help="inner annulus radius")
    sub.add_argument("--r2", type=float, help="outer annulus radius")
    sub.add_argument("--tol", dest="quad_tol", metavar="TOL", type=float, help="quadrature tolerance")
    sub.add_argument("--eps", dest="epsilons", metavar="LIST", help="comma-separated epsilon ladder")


def _parse_eps_list(text):
    if text.strip() == "":
        return ()
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"--eps: {exc}") from exc


def _config_from_args(args):
    """The config merged from preset, ``--config`` file and flags."""
    cfg = ExperimentConfig()
    if getattr(args, "preset", None):
        cfg = PRESETS[args.preset]
    if getattr(args, "config", None):
        cfg = merge_config(cfg, read_config_file(args.config), args.config)
    # Each experiment flag's dest is the config field it sets.
    overrides = {}
    for field in fields(ExperimentConfig):
        value = getattr(args, field.name, None)
        if value is not None:
            overrides[field.name] = _parse_eps_list(value) if field.name == "epsilons" else value
    return merge_config(cfg, overrides, "flags")


def _parse_pair(text, what):
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"{what} must be two comma-separated numbers, got {text!r}")
    try:
        pair = float(parts[0]), float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc
    if not all(map(math.isfinite, pair)):
        raise ConfigError(f"{what} must be finite, got {text!r}")
    return pair


def _parse_grid(text):
    """'min:max:n' for both axes, or 'amin:amax:n,bmin:bmax:n'."""
    axes = text.split(",")
    if len(axes) == 1:
        axes = [axes[0], axes[0]]
    if len(axes) != 2:
        raise ConfigError(f"--grid wants one or two axis specs, got {text!r}")
    out = []
    for axis in axes:
        parts = axis.split(":")
        if len(parts) != 3:
            raise ConfigError(f"--grid axis must be min:max:n, got {axis!r}")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"--grid: {exc}") from exc
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ConfigError(f"--grid axis ends must be finite, got {axis!r}")
        if n < 1:
            raise ConfigError("--grid needs at least one point per axis")
        out.append(np.linspace(lo, hi, n))
    return out


def _make_out_dir(out_dir):
    """Create ``--out`` before the command computes anything."""
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create --out directory {out_dir!r}: {exc.strerror}") from exc


def _write_out(args, filename, text):
    """Write ``text`` to ``filename`` under ``--out``, if it is given."""
    if args.out:
        write_text(os.path.join(args.out, filename), text)


def _emit(args, filename, text):
    sys.stdout.write(text)
    _write_out(args, filename, text)


# ---------------------------------------------------------------------------
# Zero search shared by `zeros` and `verify`
# ---------------------------------------------------------------------------

def _record(record, *skip):
    """A dataclass record's fields but ``skip`` as report values, arrays as lists."""
    values = ((f.name, getattr(record, f.name)) for f in fields(record) if f.name not in skip)
    return {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in values}


def _search(cfg):
    """The spec, zeros and ``zeros`` report of the experiment ``cfg``."""
    spec = cfg.to_spec()
    zeros = find_zeros(
        AveragedSystem(spec, tol=cfg.quad_tol),
        r1=cfg.r1,
        r2=cfg.r2,
        grid=(cfg.grid_radial, cfg.grid_angular),
        newton_tol=cfg.newton_tol,
        dedup_radius=cfg.dedup_radius,
        det_threshold=cfg.det_threshold,
    )
    # Every config field, so a report can reproduce its run.
    payload = {"config": _record(cfg), "zeros": [_record(z) for z in zeros]}
    if zeros.degenerate:
        log.info("averaged pair is identically zero on the probe grid")
        payload["message"] = DEGENERATE_MESSAGE
        classes = []
    else:
        classes = antipodal_pairing(zeros, radius=cfg.dedup_radius)
        log.info("found %d zeros in %d orbit classes", len(zeros), len(classes))
    payload.update(orbit_classes=len(classes), classes=classes)
    return spec, zeros, payload


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def cmd_freqs(args):
    lines = [
        f"omega1 = {fmt_float(OMEGA1)}",
        f"omega2 = {fmt_float(OMEGA2)}",
        f"T1 = {fmt_float(T1)}",
        f"T2 = {fmt_float(T2)}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def cmd_average(args):
    cfg = _config_from_args(args)
    spec = cfg.to_spec()
    system = AveragedSystem(spec, tol=cfg.quad_tol)
    if args.point:
        alphas = np.array([_parse_pair(p, "--point") for p in args.point])
    elif args.grid:
        a_axis, b_axis = _parse_grid(args.grid)
        alphas = np.array([[a, b] for a in a_axis for b in b_axis])
    else:
        raise ConfigError("average needs --point A,B (repeatable) or --grid min:max:n")
    values = system.eval_many(alphas)
    rows = np.hstack([alphas, values])
    _emit(args, "average.csv", csv_lines(["a1", "a2", "g1", "g2"], rows))
    return 0


def cmd_zeros(args):
    cfg = _config_from_args(args)
    payload = _search(cfg)[2]
    _emit(args, "zeros.json", json_dumps(payload) + "\n")
    return 0


def cmd_verify(args):
    cfg = _config_from_args(args)
    spec, zeros, payload = _search(cfg)
    class_of = {zi: ci for ci, group in enumerate(payload["classes"]) for zi in group}

    # Zeros are already in canonical order, so the zero index orders runs
    # (and trajectory file numbers) within each eps.
    cases = sorted((eps, zi) for zi in range(len(zeros)) for eps in cfg.epsilons)
    # Every case is shot in one batch; each still succeeds or fails alone.
    alphas = np.array([zeros[zi].alpha for _, zi in cases]).reshape(-1, 2)
    guesses = predicted_initial_state(spec.mode, alphas.T)
    # Trajectories are sampled only when they are written.
    outcomes = shoot_many(
        spec,
        [eps for eps, _ in cases],
        guesses,
        tol=cfg.shoot_tol,
        n_samples=256 if args.out else 0,
    )

    runs = []
    for idx, ((eps, zi), orbit) in enumerate(zip(cases, outcomes)):
        alpha = zeros[zi].alpha.tolist()
        if isinstance(orbit, Exception):
            log.warning("shooting failed for zero %d at eps=%g: %s", zi, eps, orbit)
            runs.append(
                {"zero_index": zi, "alpha": alpha, "epsilon": eps, "converged": False, "error": str(orbit)}
            )
            continue
        record = _record(orbit, "samples_tau", "samples")
        record.update(
            zero_index=zi,
            alpha=alpha,
            converged=True,
            distance_over_eps=orbit.distance_to_prediction / abs(eps),
        )
        if args.out:
            record["trajectory_file"] = name = f"trajectory_{idx:03d}.csv"
            rows = np.vstack([orbit.samples_tau, orbit.samples]).T
            _write_out(args, name, csv_lines(VARIABLES, rows))
        runs.append(record)

    payload["runs"] = runs
    # Distinct periodic orbits verified per eps: antipodal zeros continue
    # to orbits of the same class, so classes are the honest orbit count.
    summary = []
    for eps in sorted(set(cfg.epsilons)):
        converged = {
            class_of[run["zero_index"]]
            for run in runs
            if run["epsilon"] == eps and run["converged"]
        }
        summary.append({"epsilon": eps, "verified_orbit_classes": len(converged)})
    payload["verified"] = summary
    _emit(args, "verify.json", json_dumps(payload) + "\n")
    return 0 if all(run["converged"] for run in runs) else 3


def cmd_orbit(args):
    if args.mode is None or args.alpha is None:
        raise ConfigError("orbit needs --mode and --alpha A,B")
    mode = Mode(args.mode)
    alpha = _parse_pair(args.alpha, "--alpha")
    n = args.samples
    if n < 1:
        raise ConfigError("--samples must be at least 1")
    taus = np.arange(n) * (mode.period / n)
    states = unperturbed_orbit(mode, alpha, taus)
    rows = np.vstack([taus, states]).T
    _emit(args, "orbit.csv", csv_lines(VARIABLES, rows))
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _StderrHandler(logging.StreamHandler):
    """Writes each record to ``sys.stderr`` as it is then."""

    stream = property(lambda self: sys.stderr, lambda self, stream: None)


_HANDLER = _StderrHandler()
_HANDLER.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))


@functools.cache
def build_parser():
    parser = argparse.ArgumentParser(
        prog="pendavg",
        description="Averaged bifurcation functions and periodic-orbit "
        "verification for the weakly forced double pendulum.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("freqs", help="print mode frequencies and periods")
    sub.set_defaults(func=cmd_freqs)

    sub = subs.add_parser("average", help="evaluate the mean bifurcation pair (CSV)")
    _add_experiment_flags(sub)
    where = sub.add_mutually_exclusive_group()
    where.add_argument("--point", metavar="A,B", action="append", help="evaluation point (repeatable)")
    where.add_argument("--grid", metavar="SPEC", help="grid spec min:max:n[,min:max:n]")
    sub.add_argument("--out", metavar="DIR", help="also write average.csv here")
    sub.set_defaults(func=cmd_average)

    sub = subs.add_parser("zeros", help="find simple zeros over the annulus (JSON)")
    _add_experiment_flags(sub)
    sub.add_argument("--out", metavar="DIR", help="also write zeros.json here")
    sub.set_defaults(func=cmd_zeros)

    sub = subs.add_parser("verify", help="shoot periodic orbits at each eps (JSON+CSV)")
    _add_experiment_flags(sub)
    sub.add_argument("--out", metavar="DIR", help="write verify.json and trajectories here")
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("orbit", help="sample a closed-form unperturbed orbit (CSV)")
    sub.add_argument("--mode", choices=[m.value for m in Mode])
    sub.add_argument("--alpha", metavar="A,B", help="mode-plane amplitudes")
    sub.add_argument("--samples", type=int, default=256, help="rows over one period")
    sub.add_argument("--out", metavar="DIR", help="also write orbit.csv here")
    sub.set_defaults(func=cmd_orbit)

    return parser


def main(argv=None):
    # Only the ``pendavg`` logger: an in-process caller's root logger is its own.
    level = logging.getLevelName(os.environ.get("PENDAVG_LOG", "warning").upper())
    log.setLevel(level if isinstance(level, int) else logging.WARNING)
    log.addHandler(_HANDLER)  # once: a handler already there is not added again
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "out", None):
            _make_out_dir(args.out)
        return args.func(args)
    except (ConfigError, ExprSyntaxError, PeriodicityError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, ShootingError, IntegrationError, ExprDomainError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
