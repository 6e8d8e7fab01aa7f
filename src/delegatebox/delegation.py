"""Delegation mechanisms and agent models.

The single-proposal mechanism with inspection (SPMI) accepts a proposed box
after inspecting it iff its net value clears a single threshold. General
signaling mechanisms map agent signals to inspection policies; the agent
best-responds given fixed, privately known utilities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isfinite, prod
from types import MappingProxyType
from typing import Mapping, Optional, Sequence, Union

from .core import (
    DEFAULT_ENUMERATION_LIMIT,
    FLOAT_TOL,
    DiscreteDistribution,
    EnumerationLimitExceeded,
    Instance,
    InvalidParameters,
    NegativeValue,
    NotCostless,
    CostsNotIdentical,
    Number,
    _derived,
    _max_sweep,
    _record,
    _scaled_atoms,
    _sum,
    as_number,
    expected_of_max,
    to_json,
)
from .pandora import PnoiPolicy, _policy_sweep, pnoi_value


class _WorstCase:
    """Adversarial proposer: among eligible boxes, proposes the worst for the principal."""

    def __repr__(self):  # pragma: no cover
        return "WORST_CASE"


WORST_CASE = _WorstCase()


def _given_number(value) -> Number:
    """An int, float or Fraction as given; any other value read exactly by ``as_number``."""
    return value if type(value) in (int, float, Fraction) else as_number(value)


@dataclass(frozen=True, slots=True)
class AgentProfile:
    """The agent's utilities: one fixed value per alternative, or a distribution
    each, copied into a tuple. A utility is read as ``_given_number`` reads it."""

    utilities: Optional[tuple] = None
    dists: Optional[tuple] = None

    def __post_init__(self):
        if (self.utilities is None) == (self.dists is None):
            raise InvalidParameters("supply exactly one of utilities or dists")
        if not self.deterministic:
            object.__setattr__(self, "dists", tuple(self.dists))
            return
        utilities = []
        for i, u in enumerate(self.utilities):
            try:
                u = _given_number(u)
            except InvalidParameters as exc:
                raise InvalidParameters(f"agent utility {i}: {exc}") from None
            if u != u:  # NaN: no order to rank the boxes by
                raise InvalidParameters(f"agent utility {i} is NaN")
            utilities.append(u)
        object.__setattr__(self, "utilities", tuple(utilities))

    @property
    def deterministic(self) -> bool:
        return self.utilities is not None


def _check_agent(instance: Instance, agent: AgentProfile) -> None:
    size = len(agent.utilities if agent.deterministic else agent.dists)
    if size != instance.n:
        raise InvalidParameters(
            f"agent has {size} entries for {instance.n} alternatives"
        )
    if not agent.deterministic and any(d.mode != instance.mode for d in agent.dists):
        raise InvalidParameters(f"agent dists are not all in the instance's {instance.mode} mode")


def deterministic_agent(values: Sequence) -> AgentProfile:
    return AgentProfile(utilities=values)


def distributional_agent(dists: Sequence[DiscreteDistribution]) -> AgentProfile:
    return AgentProfile(dists=dists)


def cost_ordered_adversary(instance: Instance) -> AgentProfile:
    """Deterministic agent preferring cheaper-to-inspect boxes.

    Utilities decrease along the ordering by (inspection cost, index), the
    adversarial shape under which selections made without first inspecting
    an equally-or-more expensive box are worth at most the best mean.
    """
    order = sorted(range(instance.n), key=instance.singleton_costs().__getitem__)
    utilities = [0] * instance.n
    for rank, i in enumerate(order):
        utilities[i] = instance.n - rank
    return deterministic_agent(utilities)


@dataclass(frozen=True, slots=True)
class Spmi:
    """Single-proposal mechanism with inspection: accept proposed i iff x_i - c_i >= threshold.

    The threshold is read as ``_given_number`` reads it.
    """

    threshold: Number

    def __post_init__(self):
        object.__setattr__(self, "threshold", _given_number(self.threshold))
        # The exact cut rounds D * threshold up, so it needs a finite number.
        if isinstance(self.threshold, float) and not isfinite(self.threshold):
            raise InvalidParameters(f"SPMI threshold must be finite, not {self.threshold!r}")
        if self.threshold < 0:
            raise NegativeValue("SPMI threshold must be nonnegative")


@dataclass(frozen=True, slots=True, eq=False)
class SignalingMechanism:
    """Finite signal set, each signal mapped to a terminating inspection policy.

    ``policies`` is a read-only copy; pickling carries a plain dict.
    """

    signals: tuple
    policies: Mapping
    _held: Optional[tuple] = _derived()  # (instance, utilities, the three sums)

    def __post_init__(self):
        object.__setattr__(self, "signals", tuple(self.signals))
        object.__setattr__(self, "policies", MappingProxyType(dict(self.policies)))
        if not self.signals:
            raise InvalidParameters("a signaling mechanism needs at least one signal")
        for sig in self.signals:
            if sig not in self.policies:
                raise InvalidParameters(f"signal {sig!r} has no policy")

    def __reduce__(self):
        # A mappingproxy does not pickle; the copy starts with nothing held.
        return SignalingMechanism, (self.signals, dict(self.policies))


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
        """The report's record: each field, in order, under its own name."""
        return _record(self)


def build_spmi(instance: Instance) -> Spmi:
    """SPMI with the prophet threshold over the net values Z_i = (X_i - c_i)+.

    Uses the mean split, threshold = E[max_i Z_i] / 2: with q the probability
    that nothing clears it, any eligible proposal is worth at least the
    threshold and sole-survivor surplus is kept with probability >= q, so the
    payoff is at least t(1-q) + q(E[max] - t) = t + q(E[max] - 2t) = E[max]/2.
    A median split can miss this bound on atom-heavy supports when a certain
    middling box masks a rare large one.
    """
    return Spmi(instance.expected_surplus() / 2)


def _eligible_nets(instance: Instance, threshold: Number) -> tuple:
    # (D, the q_j, nets) on the ints of _scaled_atoms: nets[j] holds the
    # (D * (x - c), q_j * p) atoms of box j with D * (x - c) >= ceil(D * t).
    # Float mode keeps x - c >= t - FLOAT_TOL, so that a net tied with the
    # threshold in exact arithmetic does not round out of the eligible set.
    unit, box_units, atoms, charges = _scaled_atoms(
        [alt.dist for alt in instance.alternatives], instance.singleton_costs()
    )
    t = as_number(threshold, instance.mode)
    if instance.mode == "exact":
        cut = -(-unit * t.numerator // t.denominator)
    else:
        cut = t - FLOAT_TOL
    nets: list = [[] for _ in box_units]
    for v, j, w in atoms:
        if (net := v - charges[j]) >= cut:
            nets[j].append((net, w))
    return unit, box_units, nets


def _spmi_worst_case_value(instance: Instance, threshold: Number) -> Number:
    # With m the largest eligible net, box i shows Y_i = m - net_i on its
    # eligible atoms and 0 on the rest of its mass. Whenever something is
    # eligible, max_i Y_i = m - W for W the smallest eligible net, so
    # E[W; something eligible] = m (1 - P(nothing eligible)) - E[max_i Y_i].
    # On ints, P(nothing eligible) = p_none / scale for scale = prod q_j, and
    # the sweep is D * scale * E[max_i Y_i].
    unit, box_units, nets = _eligible_nets(instance, threshold)
    boxes = [(atoms, q) for atoms, q in zip(nets, box_units) if atoms]
    if not boxes:
        return instance.zero()
    exact = instance.mode == "exact"
    zero = 0 if exact else 0.0
    m = max(net for atoms, _ in boxes for net, _ in atoms)
    triples = []
    p_none = scale = 1
    for k, (atoms, q) in enumerate(boxes):
        rest = q - _sum(w for _, w in atoms)
        p_none = p_none * rest
        scale *= q
        triples += [(m - net, k, w) for net, w in atoms]
        triples.append((zero, k, rest))
    gross = m * (scale - p_none) - _max_sweep(triples, len(boxes))
    return Fraction(gross, unit * scale) if exact else gross


def _spmi_agent_value(instance: Instance, threshold: Number, agent: AgentProfile) -> Number:
    """The agent's SPMI value, before the delegation cost, by one sweep per level.

    The agent's utility levels are swept from the top. The agent proposes at
    level u iff no box is eligible at a higher level; then it proposes the
    level-u box with the largest net (ties go to the principal). Box j
    enters level u as the sub-probability measure with atoms (net, q_j(u) p)
    on its eligible atoms and 0 on the mass where it is not eligible at u or
    above, 1 - e_j Q_j(>=u); its total mass is 1 - e_j Q_j(>u), its share of
    reaching level u. One sweep per level over its own boxes, times the
    other boxes' share of reaching it, gives the level's contribution.
    On ints, box j has scale s_j = q_j r_j. A distributional agent's r_j and
    integer odds are those of ``_scaled_atoms(agent.dists)``, and its levels
    are keyed by the scaled utilities, which keep their order; a
    deterministic agent has r_j = 1 and odds 1. reach = prod_j reach_box[j]
    is over S = prod s_j, so each level adds others * sweep over D * S.
    """
    unit, box_units, nets = _eligible_nets(instance, threshold)
    exact = instance.mode == "exact"
    zero = 0 if exact else 0.0
    if agent.deterministic:
        agent_units, prefs = [1] * instance.n, [(u, j, 1) for j, u in enumerate(agent.utilities)]
    else:
        _, agent_units, prefs, _ = _scaled_atoms(agent.dists)
    levels: dict = {}
    for u, j, q in prefs:
        if nets[j]:
            levels.setdefault(u, []).append((j, q))
    reach_box = [q * r for q, r in zip(box_units, agent_units)]  # s_j (1 - e_j Q_j(>u))
    eligible_mass = [_sum(w for _, w in atoms) for atoms in nets]
    reach = scale = prod(reach_box)  # reach: P(no box is eligible at a higher level)
    total = zero
    for u in sorted(levels, reverse=True):
        level = levels[u]
        held = prod((reach_box[j] for j, _ in level), start=1)
        others = reach // held if exact else reach / held
        triples = []
        for k, (j, q) in enumerate(level):
            reach_box[j] = reach_box[j] - q * eligible_mass[j]
            triples += [(net, k, q * w) for net, w in nets[j]]
            triples.append((zero, k, reach_box[j]))
        total = total + others * _max_sweep(triples, len(level))
        reach = others * prod((reach_box[j] for j, _ in level), start=1)
        if reach == 0:
            break
    return Fraction(total, unit * scale) if exact else total


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
    paid either way. Every agent model is priced in closed form through the
    kernel's ``core._max_sweep``, on the integer form of ``_scaled_atoms`` in
    exact mode, with one Fraction built at the end; the product support is
    never enumerated.
    """
    if agent is WORST_CASE:
        gross = _spmi_worst_case_value(instance, spmi.threshold)
    else:
        _check_agent(instance, agent)
        gross = _spmi_agent_value(instance, spmi.threshold, agent)
    return gross - instance.delegation_cost


def best_closed_selection(instance: Instance) -> tuple[int, Number]:
    """Index (lowest on ties) and value of the alternative with the largest mean."""
    means = instance.expected_values()
    best = max(means)
    return means.index(best), best


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
    half_surplus = instance.expected_surplus() / 2
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
    half_surplus = instance.expected_surplus() / 2
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
    half_shifted_max = (expected_of_max(instance) - common) / 2
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
    _check_agent(instance, agent)
    cap = DEFAULT_ENUMERATION_LIMIT if limit is None else limit
    size = prod(len(alt.dist.atoms) for alt in instance.alternatives)
    if size > cap:
        raise EnumerationLimitExceeded(f"product support has {size} points, limit is {cap}")
    held = mech._held
    if held is None or held[0] is not instance or held[1] != agent.utilities:
        policies = [mech.policies[sig] for sig in mech.signals]
        held = instance, agent.utilities, _policy_sweep(instance, policies, agent.utilities)
        object.__setattr__(mech, "_held", held)
    return held[2]


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
    principal, then to the lowest signal index. Each signal's table is
    walked once per state it reaches, over the product of that state's
    unopened boxes, so the cost is those sub-products plus one step per
    point, and at most 2^16 points are held at once. Exact mode runs on
    Python ints over one denominator. A state the table lacks or breaks
    raises PolicyIncomplete; when several do, the one named need not be the
    first that a point in support order reaches. EnumerationLimitExceeded is
    raised before any policy runs if the product support has more than
    ``limit`` points (default 10^7), on every call. This function,
    ``uninspected_selection_mass`` and ``overinspection_utility`` share one
    sweep per (instance, agent): the mechanism holds the three sums of its
    last sweep, keyed by the instance (by identity, so it keeps a reference
    to it) and the agent's utilities. A sweep that raises holds nothing.
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


def _best_sort_key(best):
    return (0, 0) if best is None else (1, best)


def policy_to_rows(policy: PnoiPolicy) -> list[dict]:
    """Serialize a policy as (state, action) rows for audit logs."""
    rows = []
    for (unopened, best), (kind, index) in sorted(
        policy.table.items(),
        key=lambda kv: (len(kv[0][0]), sorted(kv[0][0]), _best_sort_key(kv[0][1])),
    ):
        state = {
            "unopened": sorted(unopened),
            "best": "none" if best is None else best,
        }
        action = {"kind": kind}
        if index is not None:
            action["index"] = index
        rows.append({"state": state, "action": action})
    return to_json(rows)


def mechanism_to_obj(mech: SignalingMechanism) -> dict:
    return {
        "signals": list(mech.signals),
        "policies": {str(sig): policy_to_rows(mech.policies[sig]) for sig in mech.signals},
    }
