"""The six records are immutable named tuples that validate on every construction."""

import math

import pytest

from kstruve import (
    DomainError,
    EvaluationResult,
    IdentityReport,
    QuadratureResult,
    StruveParams,
    TheoremParams,
    Verdict,
    WrightSpec,
    struve_h,
    verify,
)
from kstruve import struve as struve_module
from kstruve import wright as wright_module
from kstruve.quadrature import integrate

NAN = math.nan

# each record's repr as the package printed it when the records were frozen dataclasses
RECORDS = [
    (
        # struve_h's value and bound are those of its one-node polynomial
        lambda: struve_h(0.0, 1.0),
        "EvaluationResult(value=0.5686566270482876, error_bound=6.016500623056556e-15,"
        " terms_used=8)",
    ),
    (
        lambda: integrate(lambda x, omx: x * omx, 1e-10),
        "QuadratureResult(value=0.16666666666666669, error_estimate=1.8503717077085944e-15,"
        " evaluations=15, converged=True, abs_integral=0.16666666666666669)",
    ),
    (
        lambda: verify("theorem1", TheoremParams(alpha=1, mu=0.5, nu=2)),
        "IdentityReport(lhs_value=0.0012439426567608476, lhs_error_estimate=1.2465881627488814e-15,"
        " rhs_paper=0.005531642902064869, rhs_corrected=0.0012439426567608474,"
        " rel_dev_paper=3.44686326335085, rel_dev_corrected=1.7431706623980597e-16,"
        " verdict=<Verdict.CONFIRMED_CORRECTED: 'CONFIRMED_CORRECTED'>, strict_hypotheses=True,"
        " error=None)",
    ),
    (lambda: StruveParams(nu=2, c=1, k=0.5), "StruveParams(nu=2, c=1, k=0.5)"),
    (
        lambda: WrightSpec(upper=((1, 1),), lower=[(1.5, 2), (2, 1)]),
        "WrightSpec(upper=((1.0, 1.0),), lower=((1.5, 2.0), (2.0, 1.0)))",
    ),
    (
        lambda: TheoremParams(alpha=1, mu=0.5, nu=2),
        "TheoremParams(alpha=1, mu=0.5, nu=2, c=1.0, k=1.0, y=1.0)",
    ),
]
IDS = ["EvaluationResult", "QuadratureResult", "IdentityReport", "StruveParams", "WrightSpec",
       "TheoremParams"]


@pytest.mark.parametrize(("make", "text"), RECORDS, ids=IDS)
def test_repr_is_unchanged(make, text):
    assert repr(make()) == text


@pytest.mark.parametrize(("make", "text"), RECORDS, ids=IDS)
def test_fields_cannot_be_assigned(make, text):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], record[0])


@pytest.mark.parametrize(("make", "text"), RECORDS, ids=IDS)
def test_replace_keeps_the_type(make, text):
    record = make()
    copy = record._replace(**{record._fields[-1]: record[-1]})
    assert type(copy) is type(record)
    assert copy == record


def test_records_are_tuples_of_their_fields():
    rep = IdentityReport(1.0, 2e-12, None, None, None, None, Verdict.INCONCLUSIVE, False)
    assert rep.error is None
    assert len(rep) == 9
    assert rep == (1.0, 2e-12, None, None, None, None, Verdict.INCONCLUSIVE, False, None)
    assert tuple(EvaluationResult(1.0, 0.0, 3)) == (1.0, 0.0, 3)
    assert QuadratureResult(1.0, 0.0, 15, True, 1.0)._asdict()["evaluations"] == 15


# every message as the package raised it when the records were frozen dataclasses
@pytest.mark.parametrize(
    ("make", "message"),
    [
        (lambda: StruveParams(nu=-2, c=1, k=1),
         "need nu > -3k/2 for pole-free denominators, got nu=-2, k=1"),
        (lambda: StruveParams(-2, 1, 1),
         "need nu > -3k/2 for pole-free denominators, got nu=-2, k=1"),
        (lambda: StruveParams(1, 1, 0), "k must be positive, got k=0"),
        (lambda: StruveParams(NAN, 1),
         "parameters must be finite, got StruveParams(nu=nan, c=1, k=1.0)"),
        (lambda: StruveParams(nu=2, c=1)._replace(nu=-2),
         "need nu > -3k/2 for pole-free denominators, got nu=-2, k=1.0"),
        (lambda: TheoremParams(alpha=NAN, mu=1, nu=2),
         "all parameters must be finite reals, got"
         " TheoremParams(alpha=nan, mu=1, nu=2, c=1.0, k=1.0, y=1.0)"),
        (lambda: TheoremParams(1, 1, 2, y=math.inf),
         "all parameters must be finite reals, got"
         " TheoremParams(alpha=1, mu=1, nu=2, c=1.0, k=1.0, y=inf)"),
        (lambda: TheoremParams(1, "1", 2),
         "all parameters must be finite reals, got"
         " TheoremParams(alpha=1, mu='1', nu=2, c=1.0, k=1.0, y=1.0)"),
        (lambda: TheoremParams(1, 1, 2)._replace(c=NAN),
         "all parameters must be finite reals, got"
         " TheoremParams(alpha=1, mu=1, nu=2, c=nan, k=1.0, y=1.0)"),
        (lambda: WrightSpec(upper=((1, 0),), lower=()),
         "upper pair (1.0, 0.0) needs finite a and alpha > 0"),
        (lambda: WrightSpec(((1, 1),), ((1, -1),)),
         "lower pair (1.0, -1.0) needs finite b and beta > 0"),
        (lambda: WrightSpec(((NAN, 1),), ()),
         "upper pair (nan, 1.0) needs finite a and alpha > 0"),
        (lambda: WrightSpec(((1, 1),), ())._replace(lower=[(2, 0)]),
         "lower pair (2.0, 0.0) needs finite b and beta > 0"),
    ],
)
def test_construction_raises_the_same_domain_errors(make, message):
    with pytest.raises(DomainError) as info:
        make()
    assert str(info.value) == message


def test_replace_converts_wright_pairs_to_floats():
    spec = WrightSpec(((1, 1),), ())._replace(lower=[[2, 1]])
    assert spec.lower == ((2.0, 1.0),)
    assert type(spec.lower[0][0]) is float


def test_log_scale_is_computed_once(monkeypatch):
    calls = []
    log_k_gamma = struve_module.log_k_gamma
    monkeypatch.setattr(struve_module, "log_k_gamma", lambda *a: calls.append(a) or log_k_gamma(*a))
    p = StruveParams(nu=2.0, c=1.0, k=0.5)
    assert p.log_scale == p.log_scale
    assert p._series is p._series
    assert len(calls) == 1


def test_wright_plan_is_built_once(monkeypatch):
    built = []
    plan = wright_module._Plan
    monkeypatch.setattr(wright_module, "_Plan", lambda spec: built.append(spec) or plan(spec))
    spec = WrightSpec(upper=((1, 1),), lower=((1, 1),))
    assert spec._plan is spec._plan
    assert spec.lead_error == spec.lead_error
    assert built == [spec]
