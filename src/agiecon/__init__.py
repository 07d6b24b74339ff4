"""Cobb-Douglas economies with AGI labor and capital.

Deterministic evaluation of output and competitive wages for three model
variants (AGI as capital, AGI as a second labor type, and both), asymptotic
classification of wage/output limits, the human-power decline curve over
the AGI labor share, time-stepped displacement scenarios, and log-space
least-squares recovery of technology parameters.
"""

from .calibration import FitResult, SampleTable, fit_cobb_douglas
from .errors import (
    ConfigError,
    ContractViolationError,
    DomainError,
    EconError,
    NonFiniteDerivativeError,
    NonFiniteOutputError,
    RankDeficiencyError,
    SerializationError,
    SimulationFailureError,
    UndefinedBaselineError,
    UndefinedIndexError,
    UsageError,
)
from .formatting import format_number
from .models import (
    LimitDirection,
    ModelIIIParams,
    ModelIIParams,
    ModelIParams,
    classify_limit,
    model_output,
    model_technology,
    model_wages,
    power_index_model3,
)
from .production import (
    CobbDouglasTechnology,
    FactorBundle,
    LimitClassification,
    LimitKind,
    euler_residual,
    homogeneity_degree,
    marginal_product,
    output,
)
from .scenario import (
    AdoptionKind,
    AdoptionPath,
    ScenarioConfig,
    TimeSeriesRecord,
    adoption_share,
    detect_collapse,
    run_scenario,
)
from .transition import (
    PowerCurve,
    TransitionParams,
    agi_wage,
    human_power,
    human_wage,
    power_curve,
)

__version__ = "0.1.0"

__all__ = [
    "AdoptionKind",
    "AdoptionPath",
    "CobbDouglasTechnology",
    "ConfigError",
    "ContractViolationError",
    "DomainError",
    "EconError",
    "FactorBundle",
    "FitResult",
    "LimitClassification",
    "LimitDirection",
    "LimitKind",
    "ModelIParams",
    "ModelIIParams",
    "ModelIIIParams",
    "NonFiniteDerivativeError",
    "NonFiniteOutputError",
    "PowerCurve",
    "RankDeficiencyError",
    "SampleTable",
    "ScenarioConfig",
    "SerializationError",
    "SimulationFailureError",
    "TimeSeriesRecord",
    "TransitionParams",
    "UndefinedBaselineError",
    "UndefinedIndexError",
    "UsageError",
    "adoption_share",
    "agi_wage",
    "classify_limit",
    "detect_collapse",
    "euler_residual",
    "fit_cobb_douglas",
    "format_number",
    "homogeneity_degree",
    "human_power",
    "human_wage",
    "marginal_product",
    "model_output",
    "model_technology",
    "model_wages",
    "output",
    "power_curve",
    "power_index_model3",
    "run_scenario",
]
