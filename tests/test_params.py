"""Tests for parameter validation, the alpha family, and case classification."""

import math

import numpy as np
import pytest

from bfdsim import (
    CASE_WEIGHTS,
    CaseClass,
    IllPosedParametersError,
    ModelParams,
    ParameterDomainError,
    classify_case,
    params_from_alphas,
    symmetrizer_variant,
)
from bfdsim.params import ABCD_SUM, ABCD_SUM_TOL


def _params(**kw):
    base = dict(gamma=0.9, epsilon=0.1, mu=0.1, mu2=0.1,
                a=0.0, b=5.0 / 24.0, c=-1.0 / 12.0, d=5.0 / 24.0)
    base.update(kw)
    return ModelParams(**base)


# ---------------------------------------------------------------------------
# ModelParams construction and domain checks
# ---------------------------------------------------------------------------

def test_derived_fields():
    p = _params(mu=0.04, mu2=0.25, epsilon=0.5)
    assert p.delta == pytest.approx(math.sqrt(0.04 / 0.25), rel=0, abs=0)
    assert p.epsilon2 == pytest.approx(0.5 * p.delta, rel=0, abs=0)


def test_epsilon_zero_allowed():
    p = _params(epsilon=0.0)
    assert p.epsilon == 0.0 and p.epsilon2 == 0.0


@pytest.mark.parametrize("kw", [
    dict(gamma=0.0), dict(gamma=1.0), dict(gamma=-0.2), dict(gamma=1.5),
    dict(epsilon=-1e-3),
    dict(mu=0.0), dict(mu=-0.1),
    dict(mu2=0.0), dict(mu2=-0.1),
    dict(a=float("nan")), dict(b=float("inf")),
    dict(c=float("-inf")), dict(d=float("nan")),
])
def test_domain_rejection(kw):
    with pytest.raises(ParameterDomainError):
        _params(**kw)


def test_replace_rebuilds_derived():
    p = _params()
    q = p.replace(mu=0.01, epsilon=0.3)
    assert q.mu == 0.01 and q.epsilon == 0.3
    assert q.gamma == p.gamma and q.b == p.b
    assert q.delta == pytest.approx(math.sqrt(0.01 / p.mu2), rel=0, abs=0)
    # original untouched (frozen dataclass)
    assert p.mu == 0.1


def test_replace_validates():
    with pytest.raises(ParameterDomainError):
        _params().replace(gamma=2.0)


# ---------------------------------------------------------------------------
# Three-parameter coefficient family
# ---------------------------------------------------------------------------

def test_alpha_family_arithmetic():
    p = params_from_alphas(0.9, 0.1, 0.1, 0.1,
                           alpha1=0.5, beta=0.25, alpha2=-1.0)
    assert p.a == pytest.approx((1.0 - 0.5 - 3 * 0.25) / 3.0, abs=1e-15)
    assert p.b == pytest.approx(0.5 / 3.0, abs=1e-15)
    assert p.c == pytest.approx(0.25 * -1.0, abs=1e-15)
    assert p.d == pytest.approx(0.25 * (1.0 - -1.0), abs=1e-15)


def test_alpha_family_pure_d_corner():
    # alpha1 = 0, beta = 1/3, alpha2 = 0 puts the whole budget on d.
    p = params_from_alphas(0.9, 0.1, 0.1, 0.1,
                           alpha1=0.0, beta=1.0 / 3.0, alpha2=0.0)
    assert p.a == 0.0
    assert p.b == 0.0
    assert p.c == 0.0
    assert p.d == pytest.approx(1.0 / 3.0, abs=1e-16)


def test_alpha_family_sum_identity():
    """a + b + c + d = 1/3 identically across the admissible region."""
    rng = np.random.default_rng(2024)
    for _ in range(10_000):
        alpha1 = rng.uniform(0.0, 3.0)
        beta = rng.uniform(0.0, 2.0)
        alpha2 = rng.uniform(-4.0, 1.0)
        p = params_from_alphas(0.5, 0.1, 0.1, 0.1,
                               alpha1=alpha1, beta=beta, alpha2=alpha2)
        assert abs((p.a + p.b + p.c + p.d) - ABCD_SUM) <= ABCD_SUM_TOL


@pytest.mark.parametrize("kw,needle", [
    (dict(alpha1=-0.1, beta=0.25, alpha2=0.0), "alpha1"),
    (dict(alpha1=0.5, beta=-0.01, alpha2=0.0), "beta"),
    (dict(alpha1=0.5, beta=0.25, alpha2=1.5), "alpha2"),
])
def test_alpha_family_rejection(kw, needle):
    with pytest.raises(ParameterDomainError) as err:
        params_from_alphas(0.9, 0.1, 0.1, 0.1, **kw)
    assert needle in str(err.value)


# ---------------------------------------------------------------------------
# Case classification
# ---------------------------------------------------------------------------

B = 5.0 / 24.0
CNEG = -1.0 / 12.0

CASE_TABLE = [
    # (b, c, d) -> case id
    ((B, CNEG, 1.0 / 6.0), 1),      # b != d, both positive, c < 0
    ((B, CNEG, B), 2),              # b = d > 0, c < 0
    ((B, CNEG, 0.0), 3),            # b > 0, d = 0, c < 0
    ((B, 0.0, 1.0 / 6.0), 4),       # b != d, both positive, c = 0
    ((B, 0.0, B), 4),               # b = d > 0, c = 0
    ((B, 0.0, 0.0), 2),             # b > 0, d = 0, c = 0 shares weights
    ((0.0, CNEG, B), 5),            # b = 0, d > 0, c < 0
    ((0.0, 0.0, B), 6),             # b = 0, d > 0, c = 0
    ((0.0, CNEG, 0.0), 7),          # b = d = 0, c < 0
    ((0.0, 0.0, 0.0), 8),           # b = d = 0, c = 0
]


@pytest.mark.parametrize("bcd,expected", CASE_TABLE)
def test_case_table(bcd, expected):
    b, c, d = bcd
    case = classify_case(_params(a=0.0, b=b, c=c, d=d))
    assert case.case_id == expected
    assert (case.k, case.k_prime) == CASE_WEIGHTS[expected]


def test_case_weights_frozen():
    assert CASE_WEIGHTS == {1: (3, 3), 2: (2, 2), 3: (4, 3), 4: (1, 2),
                            5: (3, 4), 6: (1, 3), 7: (1, 1), 8: (0, 1)}


def test_hamiltonian_flag_tracks_bd():
    assert classify_case(_params()).hamiltonian          # b = d
    assert not classify_case(_params(b=0.25, d=1.0 / 6.0)).hamiltonian


def test_illposed_rejection_names_violations():
    with pytest.raises(IllPosedParametersError) as err:
        classify_case(_params(a=0.1, c=0.2, b=B, d=B))
    msg = str(err.value)
    assert "a > 0" in msg and "c > 0" in msg
    # IllPosedParametersError is a ParameterDomainError is a ValueError
    assert isinstance(err.value, ParameterDomainError)
    assert isinstance(err.value, ValueError)


@pytest.mark.parametrize("kw", [dict(b=-0.1), dict(d=-0.1)])
def test_illposed_negative_smoothing(kw):
    with pytest.raises(IllPosedParametersError):
        classify_case(_params(**kw))


def test_variant_selection():
    assert symmetrizer_variant(_params()) == "b=d"
    assert symmetrizer_variant(_params(b=0.25, d=1.0 / 6.0)) == "b!=d"
    assert symmetrizer_variant(_params(b=0.0, d=B)) == "b=0"
    assert symmetrizer_variant(_params(b=0.0, d=0.0)) == "b=d"


def test_case_override_weights_and_variant():
    p = _params()  # b = d > 0, c < 0 -> native case 2
    forced = classify_case(p, case_override=1)
    assert forced.case_id == 1
    assert (forced.k, forced.k_prime) == CASE_WEIGHTS[1]
    assert forced.variant == "b!=d"

    forced = classify_case(p, case_override=7)
    assert forced.variant == "b=d"

    # cases 5/6 premultiply by the d-side operator; they need b = 0 exactly
    with pytest.raises(ParameterDomainError):
        classify_case(p, case_override=5)
    ok = classify_case(_params(b=0.0, d=B), case_override=6)
    assert ok.variant == "b=0"


def test_case_override_range():
    with pytest.raises(ParameterDomainError):
        classify_case(_params(), case_override=9)
    with pytest.raises(ParameterDomainError):
        classify_case(_params(), case_override=0)


def test_classify_returns_caseclass():
    case = classify_case(_params())
    assert isinstance(case, CaseClass)
    assert case.variant == "b=d"
