"""Delegated choice with inspection costs: exact mechanisms, bounds, audits."""

from .core import (
    Alternative,
    CostModel,
    CostsNotIdentical,
    DelegateboxError,
    DiscreteDistribution,
    EmptySupport,
    EnumerationLimitExceeded,
    Instance,
    InvalidParameters,
    NegativeValue,
    NotCostless,
    PolicyIncomplete,
    ProbabilitySumMismatch,
    RegimeMismatch,
    StateLimitExceeded,
    as_number,
    expected_of_max,
    format_number,
    instance_digest,
    instance_from_json,
    instance_to_json,
    make_distribution,
)
from .pandora import (
    PnoiPolicy,
    evaluate_policy,
    pnoi_optimal,
    pnoi_value,
    pnoi_value_upper_bound,
    reservation_cap,
    weitzman_value,
)
from .delegation import (
    WORST_CASE,
    AgentProfile,
    MechanismReport,
    SignalingMechanism,
    Spmi,
    best_closed_selection,
    build_spmi,
    cost_ordered_adversary,
    costly_mechanism,
    deterministic_agent,
    distributional_agent,
    evaluate_signaling,
    evaluate_spmi,
    identical_cost_mechanism,
    maximal_mechanism_costless,
    overinspection_utility,
    uninspected_selection_mass,
)
from .bounds import AuditReport, audit, upper_bound_costless, upper_bound_costly
from .instances import gen

__version__ = "0.1.0"
