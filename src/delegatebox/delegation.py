"""Delegation mechanisms and agent models.

The single-proposal mechanism with inspection (SPMI) accepts a proposed box
after inspecting it iff its net value clears a single threshold. General
signaling mechanisms map agent signals to inspection policies; the agent
best-responds given fixed, privately known utilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import prod
from typing import Optional, Sequence, Union

from .core import (
    DiscreteDistribution,
    Instance,
    InvalidParameters,
    NegativeValue,
    NotCostless,
    CostsNotIdentical,
    Number,
    Outcome,
    expected_max_of_dists,
    expected_of_max,
    iter_realizations,
    surplus_dists,
    to_json,
)
from .pandora import pnoi_optimal, policy_to_rows, run_policy


class _WorstCase:
    """Adversarial proposer: among eligible boxes, proposes the worst for the principal."""

    def __repr__(self):  # pragma: no cover
        return "WORST_CASE"


WORST_CASE = _WorstCase()


@dataclass(frozen=True)
class AgentProfile:
    """The agent's utilities: one fixed value per alternative, or a distribution each."""

    utilities: Optional[tuple] = None
    dists: Optional[tuple] = None

    def __post_init__(self):
        if (self.utilities is None) == (self.dists is None):
            raise InvalidParameters("supply exactly one of utilities or dists")

    @property
    def deterministic(self) -> bool:
        return self.utilities is not None


def deterministic_agent(values: Sequence) -> AgentProfile:
    return AgentProfile(utilities=tuple(values))


def distributional_agent(dists: Sequence[DiscreteDistribution]) -> AgentProfile:
    return AgentProfile(dists=tuple(dists))


def cost_ordered_adversary(instance: Instance) -> AgentProfile:
    """Deterministic agent preferring cheaper-to-inspect boxes.

    Utilities decrease along the ordering by (inspection cost, index), the
    adversarial shape under which selections made without first inspecting
    an equally-or-more expensive box are worth at most the best mean.
    """
    order = sorted(range(instance.n), key=lambda i: (instance.singleton_cost(i), i))
    utilities = [0] * instance.n
    for rank, i in enumerate(order):
        utilities[i] = instance.n - rank
    return deterministic_agent(utilities)


@dataclass(frozen=True)
class Spmi:
    """Single-proposal mechanism with inspection: accept proposed i iff x_i - c_i >= threshold."""

    threshold: Number

    def __post_init__(self):
        if self.threshold < 0:
            raise NegativeValue("SPMI threshold must be nonnegative")


@dataclass(frozen=True, eq=False)
class SignalingMechanism:
    """Finite signal set, each signal mapped to a terminating inspection policy."""

    signals: tuple
    policies: dict

    def __post_init__(self):
        object.__setattr__(self, "signals", tuple(self.signals))
        for sig in self.signals:
            if sig not in self.policies:
                raise InvalidParameters(f"signal {sig!r} has no policy")


@dataclass(frozen=True)
class MechanismReport:
    """What a composed mechanism chose and what it is worth."""

    branch: str  # "SPMI" | "SelectBestClosed" | "PnoiDirect"
    value: Number
    components: dict
    delegated: bool
    mode: str
    agent_model: str  # evaluation is vs. this agent; the inf over all agents is not searched

    def to_obj(self) -> dict:
        return to_json(
            {
                "branch": self.branch,
                "value": self.value,
                "components": self.components,
                "delegated": self.delegated,
                "mode": self.mode,
                "agent_model": self.agent_model,
            }
        )


def prophet_threshold(dists: Sequence[DiscreteDistribution]) -> Number:
    """Single acceptance threshold guaranteeing half the expected maximum.

    Uses the mean split, threshold = E[max_i Z_i] / 2: with q the probability
    that nothing clears it, any eligible proposal is worth at least the
    threshold and sole-survivor surplus is kept with probability >= q, so the
    payoff is at least t(1-q) + q(E[max] - t) = t + q(E[max] - 2t) = E[max]/2.
    A median split can miss this bound on atom-heavy supports when a certain
    middling box masks a rare large one.
    """
    if not dists:
        raise InvalidParameters("need at least one distribution")
    return expected_max_of_dists(dists) / 2


def build_spmi(instance: Instance) -> Spmi:
    """SPMI with the prophet threshold over the net values (X_i - c_i)+."""
    return Spmi(prophet_threshold(surplus_dists(instance)))


def _net_atoms(instance: Instance) -> list[list[tuple[Number, Number]]]:
    costs = instance.singleton_costs()
    return [
        [(v - costs[i], p) for v, p in alt.dist.atoms]
        for i, alt in enumerate(instance.alternatives)
    ]


def _spmi_worst_case_value(instance: Instance, threshold: Number) -> Number:
    # Factorized over marginals: with W = min eligible net value (+inf when
    # none is eligible), E[W; finite] falls out of survival products.
    nets = _net_atoms(instance)
    z = instance.zero()
    lows = [sum((p for nv, p in atoms if nv < threshold), start=z) for atoms in nets]
    eligible_values = sorted({nv for atoms in nets for nv, _ in atoms if nv >= threshold})
    p_none = prod(lows, start=1)
    total = z
    survival_next = p_none
    for t in reversed(eligible_values):
        survival = prod(
            (
                lows[i] + sum((p for nv, p in nets[i] if nv >= t), start=z)
                for i in range(instance.n)
            ),
            start=1,
        )
        total = total + t * (survival - survival_next)
        survival_next = survival
    return total


def _spmi_fixed_order_value(
    instance: Instance, threshold: Number, order: Sequence[int]
) -> Number:
    # Agent proposes the first eligible box in his preference order.
    nets = _net_atoms(instance)
    z = instance.zero()
    total = z
    p_prior_ineligible = 1
    for i in order:
        elig_gain = sum((nv * p for nv, p in nets[i] if nv >= threshold), start=z)
        elig_mass = sum((p for nv, p in nets[i] if nv >= threshold), start=z)
        total = total + p_prior_ineligible * elig_gain
        p_prior_ineligible = p_prior_ineligible * (1 - elig_mass)
    return total


def _propose_from_eligible(eligible_nets, agent_values):
    # Max agent utility; ties resolved in the principal's favor (larger net),
    # then by lowest index.
    return max(eligible_nets, key=lambda item: (agent_values[item[0]], item[1], -item[0]))


def _spmi_enumerated_value(
    instance: Instance,
    threshold: Number,
    agent: Union[AgentProfile, _WorstCase],
    limit: Optional[int],
) -> Number:
    costs = instance.singleton_costs()
    z = instance.zero()
    total = z
    for values, p in iter_realizations(instance, limit):
        eligible = [
            (i, values[i] - costs[i])
            for i in range(instance.n)
            if values[i] - costs[i] >= threshold
        ]
        if not eligible:
            continue
        if agent is WORST_CASE:
            total = total + p * min(net for _, net in eligible)
        elif agent.deterministic:
            _, net = _propose_from_eligible(eligible, agent.utilities)
            total = total + p * net
        else:
            idx = [i for i, _ in eligible]
            y_atoms = [agent.dists[i].atoms for i in idx]
            for combo in product(*y_atoms):
                y_values = {i: v for i, (v, _) in zip(idx, combo)}
                py = prod((q for _, q in combo), start=1)
                _, net = _propose_from_eligible(eligible, y_values)
                total = total + p * py * net
    return total


def evaluate_spmi(
    instance: Instance,
    spmi: Spmi,
    agent: Union[AgentProfile, _WorstCase] = WORST_CASE,
    limit: Optional[int] = None,
) -> Number:
    """Exact expected principal utility of an SPMI.

    Per realization the eligible set is {i : x_i - c_i >= threshold}; the
    agent proposes his favorite eligible box (WORST_CASE: the one with the
    smallest net value), the principal inspects it, pays its cost, and
    accepts. An empty eligible set means the agent signals nothing and no
    inspection happens. The delegation cost is paid either way.
    """
    if agent is WORST_CASE:
        gross = _spmi_worst_case_value(instance, spmi.threshold)
    elif agent.deterministic and len(set(agent.utilities)) == instance.n:
        order = sorted(range(instance.n), key=lambda i: (-agent.utilities[i], i))
        gross = _spmi_fixed_order_value(instance, spmi.threshold, order)
    else:
        gross = _spmi_enumerated_value(instance, spmi.threshold, agent, limit)
    return gross - instance.delegation_cost


def best_closed_selection(instance: Instance) -> tuple[int, Number]:
    """Index (lowest on ties) and value of the alternative with the largest mean."""
    means = instance.expected_values()
    best = max(means)
    index = min(i for i, m in enumerate(means) if m == best)
    return index, best


def maximal_mechanism_costless(instance: Instance) -> MechanismReport:
    """Run the better of closed selection and the SPMI when delegation is free.

    Guarantees max(max_i E[X_i], E[max_i (X_i - c_i)+] / 2); the reported
    value is the chosen branch's exact worst-case evaluation.
    """
    if instance.delegation_cost != 0:
        raise NotCostless("costless mechanism needs delegation_cost == 0")
    index, v_closed = best_closed_selection(instance)
    half_surplus = expected_of_max(instance, "shifted_positive") / 2
    components = {
        "best_closed_value": v_closed,
        "best_closed_index": index,
        "half_max_surplus": half_surplus,
    }
    # On ties the non-delegation branch wins.
    if half_surplus > v_closed:
        spmi = build_spmi(instance)
        value = evaluate_spmi(instance, spmi, WORST_CASE)
        components["threshold"] = spmi.threshold
        return MechanismReport(
            "SPMI", value, components, True, instance.mode, "worst_case"
        )
    return MechanismReport(
        "SelectBestClosed", v_closed, components, False, instance.mode, "none"
    )


def costly_mechanism(instance: Instance, pnoi_oracle=None) -> MechanismReport:
    """Run the optimal direct search, or the SPMI net of the delegation cost.

    v1 is the exact optimal nonobligatory-inspection value, v2 the SPMI
    guarantee E[max (X_i - c_i)+]/2 - delegation cost; the larger branch runs
    (direct search on ties).
    """
    oracle = pnoi_oracle if pnoi_oracle is not None else pnoi_optimal
    v1, _policy = oracle(instance)
    half_surplus = expected_of_max(instance, "shifted_positive") / 2
    v2 = half_surplus - instance.delegation_cost
    components = {"v1": v1, "v2": v2, "half_max_surplus": half_surplus}
    if v1 >= v2:
        return MechanismReport(
            "PnoiDirect", v1, components, False, instance.mode, "none"
        )
    spmi = build_spmi(instance)
    components["threshold"] = spmi.threshold
    value = evaluate_spmi(instance, spmi, WORST_CASE)
    return MechanismReport("SPMI", value, components, True, instance.mode, "worst_case")


def identical_cost_mechanism(instance: Instance) -> MechanismReport:
    """Improved pick when every inspection costs the same and delegation is free.

    Compares max_i E[X_i] against (E[max_i X_i] - c)/2; note the second arm
    subtracts the one common cost from the realized maximum rather than using
    per-alternative clipped surpluses.
    """
    costs = instance.singleton_costs()
    if len(set(costs)) != 1:
        raise CostsNotIdentical("inspection costs differ")
    if instance.delegation_cost != 0:
        raise NotCostless("identical-cost mechanism needs delegation_cost == 0")
    common = costs[0]
    index, v_closed = best_closed_selection(instance)
    half_shifted_max = (expected_of_max(instance, "identity") - common) / 2
    components = {
        "best_closed_value": v_closed,
        "best_closed_index": index,
        "half_shifted_max": half_shifted_max,
        "common_cost": common,
    }
    if half_shifted_max > v_closed:
        spmi = build_spmi(instance)
        components["threshold"] = spmi.threshold
        value = evaluate_spmi(instance, spmi, WORST_CASE)
        return MechanismReport(
            "SPMI", value, components, True, instance.mode, "worst_case"
        )
    return MechanismReport(
        "SelectBestClosed", v_closed, components, False, instance.mode, "none"
    )


def _principal_utility(instance: Instance, values, outcome: Outcome) -> Number:
    gain = values[outcome.selected] if outcome.selected is not None else instance.zero()
    return gain - instance.inspection_cost(outcome.inspected) - instance.delegation_cost


def agent_best_response(
    instance: Instance,
    mech: SignalingMechanism,
    realization,
    agent: AgentProfile,
):
    """Signal maximizing the agent's utility for this realization.

    Ties go first to the signal whose outcome is better for the principal,
    then to the lowest signal index.
    """
    if not agent.deterministic:
        raise InvalidParameters("best response needs deterministic agent utilities")
    y = agent.utilities
    best_key = None
    best_signal = None
    for pos, sig in enumerate(mech.signals):
        outcome = run_policy(mech.policies[sig], realization)
        agent_gain = y[outcome.selected] if outcome.selected is not None else 0
        key = (agent_gain, _principal_utility(instance, realization, outcome), -pos)
        if best_key is None or key > best_key:
            best_key = key
            best_signal = sig
    return best_signal


def _signaling_sweep(
    instance: Instance,
    mech: SignalingMechanism,
    agent: AgentProfile,
    limit: Optional[int],
) -> tuple[Number, Number, Number]:
    costs = instance.singleton_costs()
    z = instance.zero()
    total = z
    uninspected_mass = z
    clean_mass = z
    for values, p in iter_realizations(instance, limit):
        sig = agent_best_response(instance, mech, values, agent)
        outcome = run_policy(mech.policies[sig], values)
        total = total + p * _principal_utility(instance, values, outcome)
        sel = outcome.selected
        if sel is not None:
            if sel not in outcome.inspected:
                uninspected_mass = uninspected_mass + p * values[sel]
            if not any(costs[j] >= costs[sel] for j in outcome.inspected):
                clean_mass = clean_mass + p * values[sel]
    return total, uninspected_mass, clean_mass


def evaluate_signaling(
    instance: Instance,
    mech: SignalingMechanism,
    agent: AgentProfile,
    limit: Optional[int] = None,
) -> Number:
    """Exact expected principal utility under per-realization best responses,
    net of inspection costs (set-function aware) and the delegation cost."""
    return _signaling_sweep(instance, mech, agent, limit)[0]


def uninspected_selection_mass(
    instance: Instance,
    mech: SignalingMechanism,
    agent: AgentProfile,
    limit: Optional[int] = None,
) -> Number:
    """Expected utility collected from boxes selected without opening them."""
    return _signaling_sweep(instance, mech, agent, limit)[1]


def overinspection_utility(
    instance: Instance,
    mech: SignalingMechanism,
    agent: AgentProfile,
    limit: Optional[int] = None,
) -> Number:
    """Expected utility from selections made without overinspection.

    A selection of box i counts only when no inspected box costs at least
    c_i (in particular i itself was not inspected).
    """
    return _signaling_sweep(instance, mech, agent, limit)[2]


def mechanism_to_obj(mech: SignalingMechanism) -> dict:
    return {
        "signals": list(mech.signals),
        "policies": {str(sig): policy_to_rows(mech.policies[sig]) for sig in mech.signals},
    }
