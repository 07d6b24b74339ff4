"""The frozen-record contract, checked on every class built on ``Record``."""

import pytest

from agiecon import (
    AdoptionKind,
    AdoptionPath,
    CobbDouglasTechnology,
    DomainError,
    FactorBundle,
    FitResult,
    LimitClassification,
    LimitKind,
    ModelIIIParams,
    ModelIIParams,
    ModelIParams,
    PowerCurve,
    SampleTable,
    ScenarioConfig,
    TransitionParams,
    power_curve,
)
from agiecon.config import FitSpec, ParsedConfig, ScenarioSection
from agiecon.diagnostics import Diagnostic
from agiecon.record import Record


def model3():
    return ModelIIIParams(
        A=1.0, K=1.0, K_AGI=1.0, L_h=1.0, L_AGI=1.0, alpha=0.3, gamma=0.1, beta1=0.4, beta2=0.2
    )


# one factory per record class; each call builds a new, equal record
EXAMPLES = {
    ModelIParams: lambda: ModelIParams(1.0, 2.0, 0.5, 1.0, 0.3, 0.6),
    ModelIIParams: lambda: ModelIIParams(1.0, 2.0, 1.0, 0.5, 0.3, 0.4, 0.2),
    ModelIIIParams: model3,
    FactorBundle: lambda: FactorBundle.of(K=1.0, L=2.0),
    CobbDouglasTechnology: lambda: CobbDouglasTechnology.of(1.5, K=0.3, L=0.7),
    LimitClassification: lambda: LimitClassification(LimitKind.FINITE, 2.5),
    AdoptionPath: lambda: AdoptionPath.logistic(k=0.5, t0=4.0),
    ScenarioConfig: lambda: ScenarioConfig(8, model3(), AdoptionPath.linear()),
    TransitionParams: lambda: TransitionParams(w0=2.0, lam=3.0),
    PowerCurve: lambda: power_curve(TransitionParams(), 3),
    FitSpec: lambda: FitSpec(("K", "L"), "samples.csv"),
    ScenarioSection: lambda: ScenarioSection(8, AdoptionPath.linear(), 0.05, 0.5),
    ParsedConfig: lambda: ParsedConfig(None, TransitionParams(), 101, None, None),
    SampleTable: lambda: SampleTable([1.0, 2.0], {"K": [1.0, 3.0]}),
    FitResult: lambda: FitResult(1.8, {"K": 0.4}, 0.0, 12),
    Diagnostic: lambda: Diagnostic(True, "euler", "1e-16"),
}
CLASSES = sorted(EXAMPLES, key=lambda cls: cls.__name__)


def values(record):
    return tuple(getattr(record, name) for name in record._fields)


def test_every_record_class_has_an_example():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    defined = {cls for cls in subclasses(Record) if cls.__module__.startswith("agiecon.")}
    assert defined == set(EXAMPLES)
    assert len(defined) == 16


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
class TestRecordContract:
    def test_fields_are_frozen(self, cls):
        record = EXAMPLES[cls]()
        name = record._fields[0]
        before = getattr(record, name)
        with pytest.raises(AttributeError):
            setattr(record, name, before)
        with pytest.raises(AttributeError):
            delattr(record, name)
        with pytest.raises(AttributeError):
            record.not_a_field = 1
        assert getattr(record, name) is before

    def test_equal_fields_give_equal_records(self, cls):
        first, second = EXAMPLES[cls](), EXAMPLES[cls]()
        assert first is not second
        assert first == second and not first != second
        try:
            expected = hash(values(first))
        except TypeError:  # a mapping field, as in SampleTable and FitResult
            with pytest.raises(TypeError):
                hash(first)
        else:
            assert hash(first) == hash(second) == expected

    def test_never_equals_a_tuple_or_another_class(self, cls):
        record = EXAMPLES[cls]()
        assert record != values(record)
        for other in CLASSES:
            if other is not cls:
                assert record != EXAMPLES[other]()

    def test_repr_names_every_field(self, cls):
        record = EXAMPLES[cls]()
        shown = ", ".join(f"{name}={getattr(record, name)!r}" for name in record._fields)
        assert repr(record) == f"{cls.__name__}({shown})"

    def test_binding_errors_are_type_errors(self, cls):
        record = EXAMPLES[cls]()
        fields = values(record)
        assert cls(*fields) == record
        assert cls(**dict(zip(record._fields, fields))) == record
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(*fields, bogus=1)
        with pytest.raises(TypeError, match="positional arguments"):
            cls(*fields, None)
        with pytest.raises(TypeError, match="multiple values"):
            cls(*fields, **{record._fields[0]: fields[0]})
        required = [name for name in record._fields if not hasattr(cls, name)]
        if required:
            with pytest.raises(TypeError, match=f"missing required argument '{required[-1]}'"):
                cls(*fields[: record._fields.index(required[-1])])

    def test_replace_builds_a_new_record(self, cls):
        record = EXAMPLES[cls]()
        name = record._fields[0]
        assert record._replace() == record
        assert getattr(record._replace(**{name: getattr(record, name)}), name) == getattr(
            record, name
        )
        with pytest.raises(TypeError):
            record._replace(bogus=1)


def test_only_the_subclass_annotations_are_fields():
    assert ModelIParams._fields == ("A", "K", "K_AGI", "L", "alpha", "beta")
    assert ModelIIParams._fields == ("A", "K", "L1", "L2", "alpha", "beta1", "beta2")
    assert ModelIIIParams._fields == (
        "A", "K", "K_AGI", "L_h", "L_AGI", "alpha", "gamma", "beta1", "beta2"
    )
    assert TransitionParams._fields == ("w0", "w_inf", "lam")
    assert AdoptionPath._fields == ("kind", "k", "t0", "r")


@pytest.mark.parametrize("cls", [ModelIParams, ModelIIParams, ModelIIIParams])
def test_model_fields_come_from_the_terms_table(cls):
    bases = tuple(field for _, fields, _ in cls.TERMS for field in fields)
    exponents = tuple(field for _, _, field in cls.TERMS)
    assert cls._fields == ("A", *bases, *exponents)
    assert cls._defaults == {}


def test_defaults_are_class_attributes():
    assert TransitionParams.w0 == 1.0
    assert TransitionParams.w_inf == 1.0
    assert TransitionParams.lam == 2.0
    assert ScenarioConfig.agi_capital_growth == 0.05
    assert ScenarioConfig.collapse_threshold == 0.5
    assert TransitionParams() == TransitionParams(1.0, 1.0, 2.0)
    assert repr(TransitionParams()) == "TransitionParams(w0=1.0, w_inf=1.0, lam=2.0)"


def test_missing_arguments_are_named_in_field_order():
    with pytest.raises(TypeError, match="FactorBundle\\(\\) missing required argument 'entries'"):
        FactorBundle()
    with pytest.raises(TypeError, match="missing required argument 'horizon'"):
        ScenarioConfig(initial_model3=model3(), adoption=AdoptionPath.linear())


def test_replace_validates_and_keeps_the_original():
    params = TransitionParams()
    with pytest.raises(DomainError):
        params._replace(lam=-1.0)
    changed = params._replace(lam=3)
    assert changed == TransitionParams(lam=3.0) and type(changed.lam) is float
    assert params.lam == 2.0
    with pytest.raises(DomainError):
        AdoptionPath.linear()._replace(k=1.0)
    with pytest.raises(DomainError):
        model3()._replace(A=0.0)


def test_post_init_normalizes_through_the_frozen_guard():
    path = AdoptionPath(AdoptionKind.EXP_SATURATING, r=1)
    assert type(path.r) is float
    assert ModelIParams(1, 1, 1, 1, 0, 0).A.hex() == (1.0).hex()


def test_a_record_of_another_class_with_the_same_fields_is_unequal():
    class Twin(Record):
        w0: float = 1.0
        w_inf: float = 1.0
        lam: float = 2.0

    twin, params = Twin(), TransitionParams()
    assert values(twin) == values(params)
    assert twin != params and params != twin
    assert twin == Twin()
