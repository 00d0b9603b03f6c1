"""Experiment configuration: JSON files, presets, and flag overrides."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

from .expr import ExprSyntaxError, parse
from .model import PerturbationSpec, PeriodicityError


class ConfigError(ValueError):
    """Invalid experiment configuration; the message says what to fix."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a pipeline run needs, serializable as flat JSON."""

    f1: str = "0"
    f2: str = "0"
    mode: str = "mode1"
    p: int = 1
    q: int = 1
    r1: float = 1e-2
    r2: float = 50.0
    quad_tol: float = 1e-11
    newton_tol: float = 1e-11
    shoot_tol: float = 1e-10
    grid_radial: int = 24
    grid_angular: int = 24
    dedup_radius: float = 1e-6
    det_threshold: float = 1e-8
    epsilons: tuple = ()

    def validate(self):
        """Check every field; raise ``ConfigError`` naming the first bad one."""
        for name, text in (("f1", self.f1), ("f2", self.f2)):
            try:
                parse(text)  # cached, so to_spec parses it no more
            except ExprSyntaxError as exc:
                raise ConfigError(f"{name}: {exc}") from exc
        if self.mode not in ("mode1", "mode2"):
            raise ConfigError(f"mode must be 'mode1' or 'mode2', got {self.mode!r}")
        if self.p < 1 or self.q < 1 or math.gcd(self.p, self.q) != 1:
            raise ConfigError(f"resonance p:q must be coprime positive integers, got {self.p}:{self.q}")
        # Written so that NaN fails each test: JSON files and float flags
        # both accept NaN and Infinity.
        if not (0 < self.r1 < self.r2 and math.isfinite(self.r2)):
            raise ConfigError(f"annulus needs finite 0 < r1 < r2, got r1={self.r1}, r2={self.r2}")
        for name in ("quad_tol", "newton_tol", "shoot_tol", "dedup_radius", "det_threshold"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ConfigError(f"{name} must be positive and finite, got {value}")
        if self.grid_radial < 1 or self.grid_angular < 1:
            raise ConfigError("seed grid dimensions must be at least 1")
        for eps in self.epsilons:
            if not isinstance(eps, (int, float)) or not math.isfinite(eps):
                raise ConfigError(f"epsilon entries must be finite numbers, got {eps!r}")
            if eps == 0:
                raise ConfigError(
                    "epsilon 0 is not allowed: the period map is singular at eps=0 "
                    "(the averaged system itself is the eps->0 answer)"
                )
        return self

    def to_spec(self):
        """The ``PerturbationSpec`` of this experiment."""
        try:
            return PerturbationSpec.from_strings(self.f1, self.f2, self.mode, self.p, self.q)
        except (ExprSyntaxError, PeriodicityError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc


# The two worked examples shipped with the package: a slow-mode forcing on
# the second angle and a fast-mode forcing on the first.
PRESETS = {
    "corollary1": ExperimentConfig(
        f1="0",
        f2="(1 - th1^2) * sin(w1 * tau)",
        mode="mode1",
        p=1,
        q=1,
        r1=0.1,
        r2=10.0,
        epsilons=(1e-2, 5e-3, 2.5e-3, 1e-3),
    ),
    "corollary2": ExperimentConfig(
        f1="th2d + th1^2 * cos(w2 * tau)",
        f2="0",
        mode="mode2",
        p=1,
        q=1,
        r1=0.1,
        r2=40.0,
        epsilons=(1e-2, 5e-3, 2.5e-3, 1e-3),
    ),
}

_FIELD_TYPES = {f.name: f for f in fields(ExperimentConfig)}


def _coerce(name, value):
    if name in ("f1", "f2", "mode"):
        if not isinstance(value, str):
            raise ConfigError(f"{name} must be a string, got {type(value).__name__}")
        return value
    if name in ("p", "q", "grid_radial", "grid_angular"):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return value
    if name == "epsilons":
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"epsilons must be a list of numbers, got {value!r}")
        out = []
        for item in value:
            if not isinstance(item, (int, float)) or isinstance(item, bool):
                raise ConfigError(f"epsilons entries must be numbers, got {item!r}")
            out.append(float(item))
        return tuple(out)
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{name} must be a number, got {value!r}")
    return float(value)


def read_config_file(path):
    """Read a JSON config file into a plain dict (no validation yet)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be a JSON object")
    return data


def merge_config(base, overrides, source="overrides"):
    """Apply a dict of overrides to a config, validating names and types.

    The merged config is validated whole, so a bad value is reported at the
    layer that brings it even if a later layer overrides it.
    """
    clean = {}
    for key, value in overrides.items():
        if key not in _FIELD_TYPES:
            known = ", ".join(sorted(_FIELD_TYPES))
            raise ConfigError(f"{source}: unknown key {key!r} (known keys: {known})")
        clean[key] = _coerce(key, value)
    return replace(base, **clean).validate()
