"""Averaging toolkit for the weakly forced small-oscillation double pendulum.

Workflow: parse a forcing pair (:mod:`pendavg.expr`), build a
:class:`~pendavg.model.PerturbationSpec` for one resonant mode, evaluate the
mean bifurcation pair and hunt its simple zeros (:mod:`pendavg.averaging`),
then confirm each predicted orbit by period-map shooting on the full forced
system (:mod:`pendavg.continuation`).  The ``pendavg`` CLI wires these into
reproducible CSV/JSON pipelines.
"""

from .constants import OMEGA1, OMEGA2, T1, T2
from .expr import ExprDomainError, ExprSyntaxError, parse
from .model import (
    Mode,
    PerturbationSpec,
    PeriodicityError,
    Resonance,
    unperturbed_orbit,
)
from .averaging import (
    AveragedSystem,
    QuadratureError,
    ZeroResult,
    antipodal_pairing,
    find_zeros,
)
from .continuation import (
    IntegrationError,
    PeriodicOrbit,
    ShootingError,
    predicted_initial_state,
    shoot_periodic,
    verify_zero,
)

__version__ = "0.1.0"

__all__ = [
    "OMEGA1",
    "OMEGA2",
    "T1",
    "T2",
    "ExprDomainError",
    "ExprSyntaxError",
    "parse",
    "Mode",
    "PerturbationSpec",
    "PeriodicityError",
    "Resonance",
    "unperturbed_orbit",
    "AveragedSystem",
    "QuadratureError",
    "ZeroResult",
    "antipodal_pairing",
    "find_zeros",
    "IntegrationError",
    "PeriodicOrbit",
    "ShootingError",
    "predicted_initial_state",
    "shoot_periodic",
    "verify_zero",
]
