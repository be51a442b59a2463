"""Model parameters and coefficient-case classification.

The two-layer model is controlled by the density ratio gamma in (0, 1), the
amplitude parameter epsilon, the shallowness parameter mu, the depth ratio
parameter mu2, and four dispersion coefficients (a, b, c, d).  The
three-parameter family (alpha1, beta, alpha2) generates coefficient tuples
with a + b + c + d = 1/3; direct construction accepts any real tuple (the
b = d = 0 rows of the case table sit outside the sum rule, arising only
with strong enough surface tension).  Linear well-posedness requires
a <= 0, c <= 0, b >= 0, d >= 0.  The sign pattern of (b, c, d) selects one
of eight coefficient cases, each with its own energy weights (k, k').
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import IllPosedParametersError, ParameterDomainError

ABCD_SUM = 1.0 / 3.0
ABCD_SUM_TOL = 1e-12

# case id -> (k, k') smoothing weights of the energy space X^s_{mu^k} x X^s_{mu^k'}
CASE_WEIGHTS = {
    1: (3, 3),
    2: (2, 2),
    3: (4, 3),
    4: (1, 2),
    5: (3, 4),
    6: (1, 3),
    7: (1, 1),
    8: (0, 1),
}

# symmetrizer variants
VARIANT_BD_EQUAL = "b=d"
VARIANT_BD_DISTINCT = "b!=d"
VARIANT_B_ZERO = "b=0"


@dataclass(frozen=True)
class ModelParams:
    """Immutable parameter set for one run.

    delta and epsilon2 are derived: delta = sqrt(mu / mu2), epsilon2 =
    epsilon * delta.  epsilon = 0 is allowed and yields the linear system.
    """

    gamma: float
    epsilon: float
    mu: float
    mu2: float
    a: float
    b: float
    c: float
    d: float
    delta: float = field(init=False)
    epsilon2: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.gamma < 1.0:
            raise ParameterDomainError(f"gamma must be in (0, 1), got {self.gamma}")
        if self.epsilon < 0.0:
            raise ParameterDomainError(f"epsilon must be >= 0, got {self.epsilon}")
        if self.mu <= 0.0:
            raise ParameterDomainError(f"mu must be > 0, got {self.mu}")
        if self.mu2 <= 0.0:
            raise ParameterDomainError(f"mu2 must be > 0, got {self.mu2}")
        for name in ("a", "b", "c", "d"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterDomainError(f"{name} must be finite")
        object.__setattr__(self, "delta", math.sqrt(self.mu / self.mu2))
        object.__setattr__(self, "epsilon2", self.epsilon * self.delta)

    def replace(self, **kw) -> "ModelParams":
        """Return a copy with some of the independent fields changed."""
        base = dict(
            gamma=self.gamma, epsilon=self.epsilon, mu=self.mu, mu2=self.mu2,
            a=self.a, b=self.b, c=self.c, d=self.d,
        )
        base.update(kw)
        return ModelParams(**base)


@dataclass(frozen=True)
class CaseClass:
    """Outcome of coefficient-case classification."""

    case_id: int
    k: int
    k_prime: int
    hamiltonian: bool
    variant: str


def params_from_alphas(gamma: float, epsilon: float, mu: float, mu2: float,
                       alpha1: float, beta: float, alpha2: float) -> ModelParams:
    """Build parameters from the three-parameter coefficient family.

    a = (1 - alpha1 - 3*beta)/3, b = alpha1/3, c = beta*alpha2,
    d = beta*(1 - alpha2), which satisfies a+b+c+d = 1/3 identically.
    Requires alpha1 >= 0, beta >= 0, alpha2 <= 1.  Sign admissibility of the
    resulting (a, b, c, d) is the job of classify_case, not this map.
    """
    if alpha1 < 0.0:
        raise ParameterDomainError(f"alpha1 must be >= 0, got {alpha1}")
    if beta < 0.0:
        raise ParameterDomainError(f"beta must be >= 0, got {beta}")
    if alpha2 > 1.0:
        raise ParameterDomainError(f"alpha2 must be <= 1, got {alpha2}")
    a = (1.0 - alpha1 - 3.0 * beta) / 3.0
    b = alpha1 / 3.0
    c = beta * alpha2
    d = beta * (1.0 - alpha2)
    return ModelParams(gamma=gamma, epsilon=epsilon, mu=mu, mu2=mu2,
                       a=a, b=b, c=c, d=d)


def symmetrizer_variant(params: ModelParams) -> str:
    """Select the symmetrizer family the coefficients call for."""
    if params.b == params.d:
        return VARIANT_BD_EQUAL
    if params.b > 0.0:
        return VARIANT_BD_DISTINCT
    return VARIANT_B_ZERO


def _case_id(b: float, c: float, d: float) -> int:
    if b > 0.0 and d > 0.0:
        if b == d:
            return 2 if c < 0.0 else 4
        return 1 if c < 0.0 else 4
    if b > 0.0:  # d == 0
        if c < 0.0:
            return 3
        return 2  # b > 0, d = 0, c = 0 shares weights (2, 2)
    if d > 0.0:  # b == 0
        return 5 if c < 0.0 else 6
    return 7 if c < 0.0 else 8


def classify_case(params: ModelParams, case_override: int | None = None) -> CaseClass:
    """Classify the coefficient case and select energy weights.

    Raises IllPosedParametersError unless a <= 0, c <= 0, b >= 0, d >= 0.
    b = d and b, d = 0 are exact floating comparisons by design: the case
    table is a discrete object and callers opt into a case by constructing
    coefficients exactly.

    case_override forces the machinery of another case onto the same
    coefficients (used to cross-validate energy formulations); the weights
    (k, k') then come from the overridden row.
    """
    bad = []
    if params.a > 0.0:
        bad.append(f"a > 0 ({params.a})")
    if params.c > 0.0:
        bad.append(f"c > 0 ({params.c})")
    if params.b < 0.0:
        bad.append(f"b < 0 ({params.b})")
    if params.d < 0.0:
        bad.append(f"d < 0 ({params.d})")
    if bad:
        raise IllPosedParametersError(
            "well-posedness requires a <= 0, c <= 0, b >= 0, d >= 0: "
            + ", ".join(bad)
        )

    case_id = _case_id(params.b, params.c, params.d)
    if case_override is not None:
        if case_override not in CASE_WEIGHTS:
            raise ParameterDomainError(f"case_override must be 1..8, got {case_override}")
        case_id = case_override

    k, k_prime = CASE_WEIGHTS[case_id]
    if case_override is None:
        variant = symmetrizer_variant(params)
    else:
        variant = _variant_for_case(case_id, params)
    return CaseClass(case_id=case_id, k=k, k_prime=k_prime,
                     hamiltonian=params.b == params.d, variant=variant)


def _variant_for_case(case_id: int, params: ModelParams) -> str:
    """Variant implied by a forced case.

    Cases 1 and 3 always use the two-weight form even when b = d; cases 5-6
    need b = 0 exactly (their frozen system is premultiplied differently);
    cases 7-8 use the equal-weight form, exact for b = d = 0 and usable as a
    cross-check otherwise.
    """
    if case_id in (1, 3):
        return VARIANT_BD_DISTINCT
    if case_id in (5, 6):
        if params.b != 0.0:
            raise ParameterDomainError(
                f"case {case_id} machinery requires b = 0, got b = {params.b}"
            )
        return VARIANT_B_ZERO
    if case_id in (7, 8):
        return VARIANT_BD_EQUAL
    # cases 2 and 4: whichever branch the coefficients sit on
    return symmetrizer_variant(params)
