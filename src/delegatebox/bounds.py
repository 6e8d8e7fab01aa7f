"""Upper bounds on any mechanism and approximation-ratio audits."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import (
    FLOAT_TOL,
    Instance,
    InvalidParameters,
    Number,
    RegimeMismatch,
    expected_of_max,
    instance_digest,
    to_json,
)
from .delegation import MechanismReport
from .pandora import pnoi_value

COSTLESS = "costless"
COSTLY = "costly"
IDENTICAL = "identical"


def upper_bound_costless(instance: Instance) -> Number:
    """max_i E[X_i] + E[max_i (X_i - c_i)+].

    Bounds any mechanism with free delegation: the part gained without
    overinspection is at most the best mean, the rest at most the expected
    clipped surplus.
    """
    return max(instance.expected_values()) + expected_of_max(instance, "shifted_positive")


def upper_bound_costly(instance: Instance) -> Number:
    """Bound splitting on whether the optimum delegates.

    Non-delegating optima are bounded by the exact direct-search value,
    delegating ones by the costless bound net of the delegation cost; the max
    covers both since we cannot know which side the optimum takes.
    """
    return max(pnoi_value(instance), upper_bound_costless(instance) - instance.delegation_cost)


@dataclass(frozen=True, slots=True)
class AuditReport:
    """Result of checking a mechanism's value against its claimed factor."""

    instance_digest: str
    regime: str
    alpha: Optional[Number]
    ub_costless: Number
    ub_costly: Number
    ub_used: Number
    mechanism_value: Number
    ratio: Optional[Number]
    claimed_bound: Number
    passed: bool
    mode: str
    tolerance: Number

    def to_obj(self) -> dict:
        return to_json(
            {
                "instance_digest": self.instance_digest,
                "regime": self.regime,
                "alpha": self.alpha,
                "ub_costless": self.ub_costless,
                "ub_costly": self.ub_costly,
                "ub_used": self.ub_used,
                "mechanism_value": self.mechanism_value,
                "ratio": self.ratio,
                "claimed_bound": self.claimed_bound,
                "pass": self.passed,
                "mode": self.mode,
                "tolerance": self.tolerance,
            }
        )


def audit(
    instance: Instance,
    report: MechanismReport,
    regime: str,
    alpha: Optional[Number] = None,
) -> AuditReport:
    """Check mechanism_value * claimed_bound >= applicable upper bound.

    Regimes: "costless" (factor 3), "costly" with the delegation cost pinned
    to alpha * E[max (X_i - c_i)+] for alpha < 1/2 (factor (3-4a)/(1-2a)),
    and "identical" equal-cost costless instances (factor 2, audited against
    max(max_i E[X_i], E[max_i X_i] - c)). Only the costly regime takes alpha,
    and only it reads the direct-search value, which a costly mechanism run
    on the same instance has already solved.
    """
    if alpha is not None and regime != COSTLY:
        raise InvalidParameters(f"alpha does not apply to the {regime} regime")
    one = Fraction(1) if instance.mode == "exact" else 1.0
    tolerance = 0 * one if instance.mode == "exact" else FLOAT_TOL
    ub_free = upper_bound_costless(instance)

    if regime == COSTLESS:
        if instance.delegation_cost != 0:
            raise RegimeMismatch("costless regime needs delegation_cost == 0")
        claimed = 3 * one
        ub_used = ub_free
        ub_costly = ub_free  # delegation cost is zero, the split collapses
    elif regime == COSTLY:
        if alpha is None:
            raise RegimeMismatch("costly regime needs alpha")
        if not 0 <= alpha < Fraction(1, 2):
            raise RegimeMismatch("alpha must lie in [0, 1/2)")
        expected_cdel = alpha * expected_of_max(instance, "shifted_positive")
        gap = abs(instance.delegation_cost - expected_cdel)
        if gap > tolerance:
            raise RegimeMismatch(
                "delegation cost does not equal alpha * E[max (X_i - c_i)+]"
            )
        claimed = (3 * one - 4 * alpha) / (1 - 2 * alpha)
        ub_costly = upper_bound_costly(instance)
        ub_used = ub_costly
    elif regime == IDENTICAL:
        costs = instance.singleton_costs()
        if len(set(costs)) != 1:
            raise RegimeMismatch("identical regime needs equal inspection costs")
        if instance.delegation_cost != 0:
            raise RegimeMismatch("identical regime needs delegation_cost == 0")
        claimed = 2 * one
        shifted = expected_of_max(instance, "identity") - costs[0]
        ub_used = max(max(instance.expected_values()), shifted)
        ub_costly = ub_free
    else:
        raise InvalidParameters(f"unknown regime: {regime!r}")

    value = report.value
    passed = value * claimed >= ub_used - tolerance
    if value > 0:
        ratio = ub_used / value
    elif ub_used <= 0:
        ratio = one
    else:
        ratio = None  # worthless mechanism against a positive bound
    return AuditReport(
        instance_digest=instance_digest(instance),
        regime=regime,
        alpha=alpha,
        ub_costless=ub_free,
        ub_costly=ub_costly,
        ub_used=ub_used,
        mechanism_value=value,
        ratio=ratio,
        claimed_bound=claimed,
        passed=passed,
        mode=instance.mode,
        tolerance=tolerance,
    )
