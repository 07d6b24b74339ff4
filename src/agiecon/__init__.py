"""Cobb-Douglas economies with AGI labor and capital.

Deterministic evaluation of output and competitive wages for three model
variants (AGI as capital, AGI as a second labor type, and both), asymptotic
classification of wage/output limits, the human-power decline curve over
the AGI labor share, time-stepped displacement scenarios, and log-space
least-squares recovery of technology parameters.
"""

# Each public name resolves on first access (PEP 562), importing only the
# module that defines it: ``python -m agiecon`` imports this package before
# the CLI, and a command should load only the modules it uses.
_MODULE_OF = {
    name: module
    for module, names in (
        ("calibration", ("FitResult", "SampleTable", "fit_cobb_douglas")),
        (
            "errors",
            (
                "ConfigError",
                "ContractViolationError",
                "DomainError",
                "EconError",
                "NonFiniteDerivativeError",
                "NonFiniteOutputError",
                "RankDeficiencyError",
                "SerializationError",
                "SimulationFailureError",
                "UndefinedBaselineError",
                "UndefinedIndexError",
                "UsageError",
            ),
        ),
        ("formatting", ("format_number",)),
        (
            "models",
            (
                "LimitDirection",
                "ModelIIIParams",
                "ModelIIParams",
                "ModelIParams",
                "classify_limit",
                "model_output",
                "model_technology",
                "model_wages",
                "power_index_model3",
            ),
        ),
        (
            "production",
            (
                "CobbDouglasTechnology",
                "FactorBundle",
                "LimitClassification",
                "LimitKind",
                "euler_residual",
                "homogeneity_degree",
                "marginal_product",
                "output",
            ),
        ),
        (
            "scenario",
            (
                "AdoptionKind",
                "AdoptionPath",
                "ScenarioConfig",
                "TimeSeriesRecord",
                "adoption_share",
                "detect_collapse",
                "run_scenario",
            ),
        ),
        (
            "transition",
            ("PowerCurve", "TransitionParams", "agi_wage", "human_power", "human_wage", "power_curve"),
        ),
    )
    for name in names
}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module  # not at the top: the CLI never gets here

    globals()[name] = value = getattr(import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
