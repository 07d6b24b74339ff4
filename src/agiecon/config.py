"""INI-style config documents for the CLI.

Sections and keys (`#` starts a comment, unknown keys are rejected, every
number obeys the rule of the library record or check that it ends in):

[model]       id = model_i | model_ii | model_iii, plus every field of that
              model's params record (all required), by symbol name
[transition]  w0, w_inf, lambda (defaults: the TransitionParams fields),
              n_points (default 101, at most transition.MAX_N_POINTS)
[scenario]    horizon (required, at most scenario.MAX_HORIZON), adoption =
              linear|logistic|exp_saturating (default linear), the keys
              scenario.ADOPTION_PARAMS gives that path (all required), growth
              and collapse_threshold (defaults: the ScenarioConfig fields)
[fit]         factors = comma-separated factor names, input = sample CSV
              path (resolved relative to the config file)

The flat key-value format is deliberate: it parses without dependencies in
any language and the schema has no nesting to express.
"""

from __future__ import annotations

import configparser

from .errors import ConfigError, DomainError
from .models import PARAM_TYPES, ModelIIIParams, ModelParams
from .record import Record
from .scenario import ADOPTION_PARAMS, AdoptionKind, AdoptionPath, ScenarioConfig, check_run
from .transition import TransitionParams, check_n_points

_SECTIONS = ("model", "transition", "scenario", "fit")

DEFAULT_N_POINTS = 101


class _SectionReader:
    """Pops validated values out of one section; leftovers are unknown keys.

    A key taken without a default is required.
    """

    def __init__(self, name: str, mapping) -> None:
        self.name = name
        self.pending = dict(mapping)

    def _where(self, key: str) -> str:
        return f"[{self.name}].{key}"

    def take(self, key: str, default: str | None = None) -> str:
        if key in self.pending:
            return self.pending.pop(key)
        if default is None:
            raise ConfigError(f"{self._where(key)}: missing required key")
        return default

    def take_float(self, key: str, default: float | None = None) -> float:
        if default is not None and key not in self.pending:
            return default
        raw = self.take(key)
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"{self._where(key)}: cannot parse {raw!r} as a number") from None

    def take_int(self, key: str, default: int | None = None) -> int:
        if default is not None and key not in self.pending:
            return default
        raw = self.take(key)
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{self._where(key)}: cannot parse {raw!r} as an integer") from None

    def finish(self) -> None:
        if self.pending:
            key = sorted(self.pending)[0]
            raise ConfigError(f"{self._where(key)}: unknown key")


class FitSpec(Record):
    factor_names: tuple[str, ...]
    input_path: str


class ScenarioSection(Record):
    horizon: int
    adoption: AdoptionPath
    growth: float
    collapse_threshold: float


class ParsedConfig(Record):
    model_params: ModelParams | None
    transition: TransitionParams
    n_points: int
    scenario: ScenarioSection | None
    fit: FitSpec | None


def _parse_model(reader: _SectionReader) -> ModelParams:
    raw_id = reader.take("id").strip()
    param_type = PARAM_TYPES.get(raw_id)
    if param_type is None:
        choices = ", ".join(PARAM_TYPES)
        raise ConfigError(f"[model].id: expected one of {choices}, got {raw_id!r}")
    values = {field: reader.take_float(field) for field in param_type._fields}
    reader.finish()
    try:
        return param_type(**values)
    except DomainError as exc:
        raise ConfigError(f"[model]: {exc}") from exc


def _parse_transition(reader: _SectionReader) -> tuple[TransitionParams, int]:
    # a record field's default is its class attribute
    w0 = reader.take_float("w0", TransitionParams.w0)
    w_inf = reader.take_float("w_inf", TransitionParams.w_inf)
    lam = reader.take_float("lambda", TransitionParams.lam)
    n_points = reader.take_int("n_points", DEFAULT_N_POINTS)
    reader.finish()
    try:
        check_n_points(n_points)
        return TransitionParams(w0=w0, w_inf=w_inf, lam=lam), n_points
    except DomainError as exc:
        raise ConfigError(f"[transition]: {exc}") from exc


def _parse_scenario(reader: _SectionReader) -> ScenarioSection:
    horizon = reader.take_int("horizon")
    kind_raw = reader.take("adoption", "linear").strip()
    try:
        kind = AdoptionKind(kind_raw)
    except ValueError:
        choices = ", ".join(k.value for k in AdoptionKind)
        raise ConfigError(f"[scenario].adoption: expected one of {choices}, got {kind_raw!r}") from None
    values = {key: reader.take_float(key) for key in ADOPTION_PARAMS[kind]}
    growth = reader.take_float("growth", ScenarioConfig.agi_capital_growth)
    threshold = reader.take_float("collapse_threshold", ScenarioConfig.collapse_threshold)
    reader.finish()
    try:
        adoption = AdoptionPath(kind, **values)
        growth, threshold = check_run(adoption, horizon, growth, threshold)
    except DomainError as exc:
        raise ConfigError(f"[scenario]: {exc}") from exc
    return ScenarioSection(
        horizon=horizon, adoption=adoption, growth=growth, collapse_threshold=threshold
    )


def _parse_fit(reader: _SectionReader) -> FitSpec:
    factors_raw = reader.take("factors")
    names = tuple(name.strip() for name in factors_raw.split(",") if name.strip())
    if not names:
        raise ConfigError("[fit].factors: expected a comma-separated list of factor names")
    if len(set(names)) != len(names):
        raise ConfigError("[fit].factors: factor names must be unique")
    input_path = reader.take("input").strip()
    if not input_path:
        raise ConfigError("[fit].input: path must not be empty")
    reader.finish()
    return FitSpec(factor_names=names, input_path=input_path)


def parse_config_text(text: str) -> ParsedConfig:
    """Parse and validate a config document; defaults are applied here."""
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#",), interpolation=None, strict=True
    )
    parser.optionxform = str  # keys are case-sensitive symbol names (K_AGI != k_agi)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        # configparser's message spans lines; the CLI reports errors in one
        raise ConfigError(f"malformed config: {' '.join(str(exc).split())}") from exc
    if parser.defaults():
        raise ConfigError("[DEFAULT] section is not supported")
    for section in parser.sections():
        if section not in _SECTIONS:
            raise ConfigError(f"[{section}]: unknown section")

    model_params = None
    if parser.has_section("model"):
        model_params = _parse_model(_SectionReader("model", parser["model"]))

    if parser.has_section("transition"):
        transition, n_points = _parse_transition(_SectionReader("transition", parser["transition"]))
    else:
        transition, n_points = TransitionParams(), DEFAULT_N_POINTS

    scenario = None
    if parser.has_section("scenario"):
        scenario = _parse_scenario(_SectionReader("scenario", parser["scenario"]))

    fit = None
    if parser.has_section("fit"):
        fit = _parse_fit(_SectionReader("fit", parser["fit"]))

    return ParsedConfig(
        model_params=model_params,
        transition=transition,
        n_points=n_points,
        scenario=scenario,
        fit=fit,
    )


def parse_config_file(path) -> ParsedConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as handle:
            text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text)


def build_scenario_config(parsed: ParsedConfig) -> ScenarioConfig:
    """Assemble a runnable ScenarioConfig from [model] + [transition] + [scenario]."""
    if parsed.scenario is None:
        raise ConfigError("simulate needs a [scenario] section")
    if type(parsed.model_params) is not ModelIIIParams:
        raise ConfigError("simulate needs a [model] section with id = model_iii")
    try:
        return ScenarioConfig(
            horizon=parsed.scenario.horizon,
            initial_model3=parsed.model_params,
            adoption=parsed.scenario.adoption,
            agi_capital_growth=parsed.scenario.growth,
            transition=parsed.transition,
            collapse_threshold=parsed.scenario.collapse_threshold,
        )
    except DomainError as exc:
        raise ConfigError(f"[scenario]: {exc}") from exc


def render_config(parsed: ParsedConfig) -> str:
    """Serialize back to config text; parse(render(c)) == c.

    Floats are written with repr (exact round trip), so rendered documents
    are semantically identical to their source, not byte-identical.
    """
    lines: list[str] = []
    if parsed.model_params is not None:
        lines.append("[model]")
        lines.append(f"id = {parsed.model_params.ID}")
        for field in parsed.model_params._fields:
            lines.append(f"{field} = {getattr(parsed.model_params, field)!r}")
        lines.append("")
    lines.append("[transition]")
    lines.append(f"w0 = {parsed.transition.w0!r}")
    lines.append(f"w_inf = {parsed.transition.w_inf!r}")
    lines.append(f"lambda = {parsed.transition.lam!r}")
    lines.append(f"n_points = {parsed.n_points}")
    lines.append("")
    if parsed.scenario is not None:
        lines.append("[scenario]")
        lines.append(f"horizon = {parsed.scenario.horizon}")
        adoption = parsed.scenario.adoption
        lines.append(f"adoption = {adoption.kind.value}")
        for key in ADOPTION_PARAMS[adoption.kind]:
            lines.append(f"{key} = {getattr(adoption, key)!r}")
        lines.append(f"growth = {parsed.scenario.growth!r}")
        lines.append(f"collapse_threshold = {parsed.scenario.collapse_threshold!r}")
        lines.append("")
    if parsed.fit is not None:
        lines.append("[fit]")
        lines.append(f"factors = {', '.join(parsed.fit.factor_names)}")
        lines.append(f"input = {parsed.fit.input_path}")
        lines.append("")
    return "\n".join(lines)
