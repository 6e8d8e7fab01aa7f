"""Delegation mechanisms and agent models.

The single-proposal mechanism with inspection (SPMI) accepts a proposed box
after inspecting it iff its net value clears a single threshold. General
signaling mechanisms map agent signals to inspection policies; the agent
best-responds given fixed, privately known utilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional, Sequence, Union

from .core import (
    FLOAT_TOL,
    DiscreteDistribution,
    Instance,
    InvalidParameters,
    NegativeValue,
    NotCostless,
    CostsNotIdentical,
    Number,
    expected_max_of_dists,
    expected_of_max,
    to_json,
)
from .pandora import _policy_sweep, pnoi_value, policy_to_rows


class _WorstCase:
    """Adversarial proposer: among eligible boxes, proposes the worst for the principal."""

    def __repr__(self):  # pragma: no cover
        return "WORST_CASE"


WORST_CASE = _WorstCase()


@dataclass(frozen=True, slots=True)
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


def _check_agent_size(instance: Instance, agent: AgentProfile) -> None:
    size = len(agent.utilities if agent.deterministic else agent.dists)
    if size != instance.n:
        raise InvalidParameters(
            f"agent has {size} entries for {instance.n} alternatives"
        )


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


@dataclass(frozen=True, slots=True)
class Spmi:
    """Single-proposal mechanism with inspection: accept proposed i iff x_i - c_i >= threshold."""

    threshold: Number

    def __post_init__(self):
        if self.threshold < 0:
            raise NegativeValue("SPMI threshold must be nonnegative")


@dataclass(frozen=True, slots=True, eq=False)
class SignalingMechanism:
    """Finite signal set, each signal mapped to a terminating inspection policy."""

    signals: tuple
    policies: dict

    def __post_init__(self):
        object.__setattr__(self, "signals", tuple(self.signals))
        if not self.signals:
            raise InvalidParameters("a signaling mechanism needs at least one signal")
        for sig in self.signals:
            if sig not in self.policies:
                raise InvalidParameters(f"signal {sig!r} has no policy")


@dataclass(frozen=True, slots=True)
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


def build_spmi(instance: Instance) -> Spmi:
    """SPMI with the prophet threshold over the net values Z_i = (X_i - c_i)+.

    Uses the mean split, threshold = E[max_i Z_i] / 2: with q the probability
    that nothing clears it, any eligible proposal is worth at least the
    threshold and sole-survivor surplus is kept with probability >= q, so the
    payoff is at least t(1-q) + q(E[max] - t) = t + q(E[max] - 2t) = E[max]/2.
    A median split can miss this bound on atom-heavy supports when a certain
    middling box masks a rare large one.
    """
    return Spmi(expected_of_max(instance, "shifted_positive") / 2)


def _eligible_nets(instance: Instance, threshold: Number) -> list[list[tuple]]:
    # Per box, the (net value x - c, probability) atoms whose net clears the
    # threshold; in float mode within FLOAT_TOL, so that a net tied with the
    # threshold in exact arithmetic does not round out of the eligible set.
    costs = instance.singleton_costs()
    if instance.mode == "float":
        threshold = threshold - FLOAT_TOL
    return [
        [(v - c, p) for v, p in alt.dist.atoms if v - c >= threshold]
        for alt, c in zip(instance.alternatives, costs)
    ]


def _spmi_worst_case_value(instance: Instance, threshold: Number) -> Number:
    # With m the largest eligible net, box i shows Y_i = m - net_i on its
    # eligible atoms and 0 on the rest of its mass. Whenever something is
    # eligible, max_i Y_i = m - W for W the smallest eligible net, so
    # E[W; something eligible] = m (1 - P(nothing eligible)) - E[max_i Y_i].
    z = instance.zero()
    boxes = [atoms for atoms in _eligible_nets(instance, threshold) if atoms]
    if not boxes:
        return z
    m = max(net for atoms in boxes for net, _ in atoms)
    dists = []
    p_none = z + 1
    for atoms in boxes:
        rest = 1 - sum(p for _, p in atoms)
        p_none = p_none * rest
        dists.append(DiscreteDistribution((*((m - net, p) for net, p in atoms), (z, rest))))
    return m * (1 - p_none) - expected_max_of_dists(dists)


def _spmi_agent_value(instance: Instance, threshold: Number, agent: AgentProfile) -> Number:
    # Sweep the agent's utility levels from the top. The agent proposes at
    # level u iff no box is eligible at a higher level; then it proposes the
    # level-u box with the largest net (ties go to the principal). Box j
    # enters level u as the sub-probability measure with atoms (net, q_j(u) p)
    # on its eligible atoms and 0 on the mass where it is not eligible at u or
    # above, 1 - e_j Q_j(>=u); its total mass is 1 - e_j Q_j(>u), its share of
    # reaching level u. One kernel call per level over its own boxes, times
    # the other boxes' share of reaching it, gives the level's contribution.
    z = instance.zero()
    nets = _eligible_nets(instance, threshold)
    if agent.deterministic:
        prefs = [((u, 1),) for u in agent.utilities]
    else:
        prefs = [d.atoms for d in agent.dists]
    levels: dict = {}
    for j, atoms in enumerate(nets):
        if atoms:
            for u, q in prefs[j]:
                levels.setdefault(u, []).append((j, q))
    eligible_mass = [sum((p for _, p in atoms), start=z) for atoms in nets]
    reach_box = [z + 1] * instance.n  # 1 - e_j Q_j(>u)
    reach = z + 1  # P(no box is eligible at a higher level)
    total = z
    for u in sorted(levels, reverse=True):
        level = levels[u]
        others = reach / prod((reach_box[j] for j, _ in level), start=1)
        dists = []
        for j, q in level:
            reach_box[j] = reach_box[j] - q * eligible_mass[j]
            atoms = (*((net, q * p) for net, p in nets[j]), (z, reach_box[j]))
            dists.append(DiscreteDistribution(atoms))
        total = total + others * expected_max_of_dists(dists)
        reach = others * prod((reach_box[j] for j, _ in level), start=1)
        if reach == 0:
            break
    return total


def evaluate_spmi(
    instance: Instance,
    spmi: Spmi,
    agent: Union[AgentProfile, _WorstCase] = WORST_CASE,
) -> Number:
    """Exact expected principal utility of an SPMI.

    Per realization the eligible set is {i : x_i - c_i >= threshold}; the
    agent proposes his favorite eligible box (WORST_CASE: the one with the
    smallest net value; ties in utility go to the larger net), the principal
    inspects it, pays its cost, and accepts. An empty eligible set means the
    agent signals nothing and no inspection happens. The delegation cost is
    paid either way. Every agent model is priced in closed form through
    ``expected_max_of_dists``; the product support is never enumerated.
    """
    if agent is WORST_CASE:
        gross = _spmi_worst_case_value(instance, spmi.threshold)
    else:
        _check_agent_size(instance, agent)
        gross = _spmi_agent_value(instance, spmi.threshold, agent)
    return gross - instance.delegation_cost


def best_closed_selection(instance: Instance) -> tuple[int, Number]:
    """Index (lowest on ties) and value of the alternative with the largest mean."""
    means = instance.expected_values()
    best = max(means)
    index = min(i for i, m in enumerate(means) if m == best)
    return index, best


def _better(
    instance: Instance, branch: str, value: Number, arm: Number, components: dict
) -> MechanismReport:
    """Run the mean-split SPMI (against the worst-case proposer, its threshold last in
    ``components``) iff its guarantee ``arm`` beats ``value``; ties keep ``branch``."""
    if arm > value:
        spmi = build_spmi(instance)
        components["threshold"] = spmi.threshold
        worst = evaluate_spmi(instance, spmi, WORST_CASE)
        return MechanismReport("SPMI", worst, components, True, instance.mode, "worst_case")
    return MechanismReport(branch, value, components, False, instance.mode, "none")


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
    return _better(instance, "SelectBestClosed", v_closed, half_surplus, components)


def costly_mechanism(instance: Instance) -> MechanismReport:
    """Run the optimal direct search, or the SPMI net of the delegation cost.

    v1 is the exact optimal nonobligatory-inspection value (``pnoi_value``),
    v2 the SPMI guarantee E[max (X_i - c_i)+]/2 - delegation cost; the larger
    branch runs (direct search on ties).
    """
    v1 = pnoi_value(instance)
    half_surplus = expected_of_max(instance, "shifted_positive") / 2
    v2 = half_surplus - instance.delegation_cost
    components = {"v1": v1, "v2": v2, "half_max_surplus": half_surplus}
    return _better(instance, "PnoiDirect", v1, v2, components)


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
    return _better(instance, "SelectBestClosed", v_closed, half_shifted_max, components)


def _signaling_sweep(
    instance: Instance,
    mech: SignalingMechanism,
    agent: AgentProfile,
    limit: Optional[int],
) -> tuple[Number, Number, Number]:
    if not agent.deterministic:
        raise InvalidParameters("best response needs deterministic agent utilities")
    _check_agent_size(instance, agent)
    policies = [mech.policies[sig] for sig in mech.signals]
    return _policy_sweep(instance, policies, agent.utilities, limit)


def evaluate_signaling(
    instance: Instance,
    mech: SignalingMechanism,
    agent: AgentProfile,
    limit: Optional[int] = None,
) -> Number:
    """Exact expected principal utility under per-realization best responses,
    net of inspection costs (set-function aware) and the delegation cost.

    At each point of the product support the agent sends the signal whose
    outcome it values most; ties go first to the outcome better for the
    principal, then to the lowest signal index. One pass enumerates the
    support. In exact mode it runs on Python ints: values, the delegation
    cost and every cost it can charge (each table entry under a monotone
    cost model) go over one denominator D, box j's probabilities become
    integer weights over q_j, and one Fraction over D * prod q_j comes out.
    Each signal's policy runs through a decision table compiled lazily for
    this call; a state it lacks raises PolicyIncomplete at the point where
    the policy needs it. Raises EnumerationLimitExceeded before any policy
    runs if the product support has more than ``limit`` points (default
    10^7). ``uninspected_selection_mass`` and ``overinspection_utility`` run
    the same pass.
    """
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
