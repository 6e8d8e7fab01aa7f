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
    _record,
    as_number,
    expected_of_max,
    instance_digest,
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
    return max(instance.expected_values()) + instance.expected_surplus()


def upper_bound_costly(instance: Instance) -> Number:
    """Bound splitting on whether the optimum delegates.

    Non-delegating optima are bounded by the exact direct-search value,
    delegating ones by the costless bound net of the delegation cost; the max
    covers both since we cannot know which side the optimum takes.
    """
    return max(pnoi_value(instance), upper_bound_costless(instance) - instance.delegation_cost)


def upper_bound_identical(instance: Instance) -> Number:
    """max(max_i E[X_i], E[max_i X_i] - c), the bound when every inspection costs c."""
    shifted = expected_of_max(instance) - instance.singleton_costs()[0]
    return max(max(instance.expected_values()), shifted)


# regime -> (default composed mechanism, claimed factor of (one, alpha), upper bound).
# Bounds go through their module names, so a wrapper set there (perfbench's tracer) sees them.
REGIMES = {
    COSTLESS: ("maximal", lambda one, a: 3 * one, lambda i: upper_bound_costless(i)),
    COSTLY: ("costly", lambda one, a: (3 * one - 4 * a) / (1 - 2 * a),
             lambda i: upper_bound_costly(i)),
    IDENTICAL: ("identical", lambda one, a: 2 * one, lambda i: upper_bound_identical(i)),
}
# An audit's one and tolerance in each mode, and the factor of each regime
# without alpha, built once rather than on every audit.
_UNITS = {"exact": (Fraction(1), Fraction(0)), "float": (1.0, FLOAT_TOL)}
_FIXED_FACTORS = {
    (regime, mode): factor(one, None)
    for regime, (_, factor, _) in REGIMES.items()
    if regime != COSTLY
    for mode, (one, _) in _UNITS.items()
}


def _check_regime(
    instance: Instance, regime: str, alpha: Optional[Number], tolerance: Number
) -> None:
    """Raise unless ``regime`` is known and ``instance`` and ``alpha`` meet it."""
    if alpha is not None and regime != COSTLY:
        raise InvalidParameters(f"alpha does not apply to the {regime} regime")
    if regime not in REGIMES:
        raise InvalidParameters(f"unknown regime: {regime!r}")
    if regime == COSTLY:
        if alpha is None:
            raise RegimeMismatch("costly regime needs alpha")
        if not 0 <= alpha < Fraction(1, 2):
            raise RegimeMismatch("alpha must lie in [0, 1/2)")
        # Relative to the pin: rounding alone moves a float pin near 10^9 past FLOAT_TOL.
        pin = alpha * instance.expected_surplus()
        if abs(instance.delegation_cost - pin) > tolerance * max(1, abs(pin)):
            raise RegimeMismatch("delegation cost does not equal alpha * E[max (X_i - c_i)+]")
        return
    if regime == IDENTICAL and len(set(instance.singleton_costs())) != 1:
        raise RegimeMismatch("identical regime needs equal inspection costs")
    if instance.delegation_cost != 0:
        raise RegimeMismatch(f"{regime} regime needs delegation_cost == 0")


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
        """The report's record: each field, in order, ``passed`` under "pass"."""
        return _record(self, passed="pass")


def audit(
    instance: Instance,
    report: MechanismReport,
    regime: str,
    alpha: Optional[Number] = None,
) -> AuditReport:
    """Check mechanism_value * claimed factor >= the regime's upper bound, from ``REGIMES``.

    "costless": free delegation, 3 against ``upper_bound_costless``. "costly":
    delegation cost = alpha * E[max (X_i - c_i)+] (in float mode within FLOAT_TOL
    of the pin's size), 0 <= alpha < 1/2, (3 - 4a)/(1 - 2a) against
    ``upper_bound_costly``. "identical": equal inspection costs, free delegation,
    2 against ``upper_bound_identical``. Only the costly regime takes alpha, and
    ``ub_costly`` is ``ub_costless`` outside it. A given alpha is read by
    ``as_number`` in the instance's mode, so 0.1 is 1/10 in exact mode.
    """
    one, tolerance = _UNITS[instance.mode]
    alpha = None if alpha is None else as_number(alpha, instance.mode)
    _check_regime(instance, regime, alpha, tolerance)
    _, factor, bound = REGIMES[regime]
    claimed = factor(one, alpha) if regime == COSTLY else _FIXED_FACTORS[regime, instance.mode]
    ub_used = bound(instance)
    ub_free = ub_used if regime == COSTLESS else upper_bound_costless(instance)
    ub_costly = ub_used if regime == COSTLY else ub_free

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
