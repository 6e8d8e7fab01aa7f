"""Independent brute-force oracles.

Everything here recomputes quantities by direct enumeration of the product
space (or of whole policy trees), sharing no code path with the library
implementations it checks. Exceptions: ``pnoi_reference``, the search DP
in plain recursive form, shares only the policy container and action names
with the kernel it checks; ``descending_cap_simulation`` and ``capped_dist``
take their caps from ``pandora.reservation_cap``, whose residuals
``expected_shortfall`` checks on their own;
``cdf_product_expected_max`` is the expected-max formula with each CDF
rescanned per support value, the form the merged sweep ``core._max_sweep``
replaced; ``mapped_dist`` is the distribution of fn(X), its atoms merged
through a dict, and with it ``surplus_dists`` builds the (X_i - c_i)+
distributions whose atoms ``core._fill_moments`` now clips inside that
sweep, and ``capped_dist`` the capped boxes that ``weitzman_value`` merges
with ``core._merge_sorted``; ``inspection_cost`` is c(S) of an opened set,
the reference for the library's scaled per-mask charge ``pandora._charge``;
``mean_reference`` is E[X] as a plain atom-order sum, where the library's
one mean formula (``core._box_means``, behind ``DiscreteDistribution.mean``
and the fill) scales to ints first;
``survival_worst_case_spmi`` and ``fixed_order_spmi`` are the per-value
survival rescan and the fixed-order sum that ``delegation.evaluate_spmi``
replaced with sweeps through ``core._max_sweep``; ``agent_best_response``
is the per-realization best response that the signaling sweep replaced.

``inspection_only_best`` is the closed form for identical-binary instances
that ``repro`` used before the search DP folded twin boxes into one state
per count; it sweeps the number of boxes opened and shares nothing with the
DP.

``walk_table_policy`` is the reference executor of ``PnoiPolicy`` decision
tables, one realization at a time. The library runs tables through the
compiled signaling sweep behind ``evaluate_signaling`` and through the
forward pass over reachable states of ``evaluate_policy``;
``brute_policy_value`` sums the reference runs over the product support.
``_reachable_policy`` builds a table from a rule by walking the states it
reaches depth first; ``instances._info_policy`` writes its tables in one
loop instead, and must give the same table as this walk under its rule.

``instance_json_reference`` is the canonical instance JSON built the way
``core.instance_to_json`` built it before it wrote the string directly: a
dict tree through ``to_json``, encoded by ``json.dumps(sort_keys=True)``.
``format_number_reference`` writes a number as ``core.format_number`` does,
without its memo: it searches for the shortest power of ten that an exact
value's denominator divides, where the library counts the denominator's
factors of 2 and 5.

``random_signaling_mechanism`` draws random decision tables through
``_reachable_policy`` for the signaling property tests, and
``with_monotone_costs`` puts an instance under a random monotone cost table;
the library has no use for either. ``random_corpus_reference`` is
``instances.random_corpus`` as it drew values before it sampled grid
indices: it builds every grid Fraction first.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import product
from math import prod
from operator import add

from delegatebox.core import (
    DEFAULT_STATE_LIMIT,
    Alternative,
    CostModel,
    DiscreteDistribution,
    Instance,
    InvalidParameters,
    Number,
    PolicyIncomplete,
    StateLimitExceeded,
    make_distribution,
    to_json,
)
from delegatebox.delegation import SignalingMechanism
from delegatebox.pandora import (
    INSPECT,
    SELECT_CLOSED,
    SELECT_OPENED_BEST,
    STOP,
    Action,
    PnoiPolicy,
    _require_additive,
    reservation_cap,
)


def enumerate_realizations(instance: Instance):
    """Every point of the product support with its probability, in
    ``itertools.product`` order."""
    atom_lists = [alt.dist.atoms for alt in instance.alternatives]
    for combo in product(*atom_lists):
        values = tuple(v for v, _ in combo)
        prob = 1
        for _, p in combo:
            prob = prob * p
        yield values, prob


def brute_expected_of_max(instance: Instance, transform=None):
    """E[max_i f_i(X_i)] by summing over every product-support point."""
    fn = transform if transform is not None else (lambda i, v: v)
    total = instance.zero()
    for values, p in enumerate_realizations(instance):
        total = total + p * max(fn(i, v) for i, v in enumerate(values))
    return total


def cdf_product_expected_max(dists):
    """E[max_i X_i] as sum_t t * (F(t) - F(t-)), with F(t) = prod_i P(X_i <= t).

    Every P(X_i <= t) is a fresh sum over box i's atoms in atom order, the
    same order as the running sums of ``core._max_sweep``, so in
    float mode the two must agree bit for bit.
    """
    union = sorted({v for d in dists for v in d.values})
    total = 0
    f_prev = 0
    for t in union:
        f_t = prod((sum(p for v, p in d.atoms if v <= t) for d in dists), start=1)
        total += t * (f_t - f_prev)
        f_prev = f_t
    return total


def mean_reference(dist) -> Number:
    """E[X] as the atom-order sum of v * p: ``sum`` of Fractions in exact
    mode, and floats added left to right from 0 (``sum`` compensates float
    rounding from Python 3.12 on), where the library scales to ints first."""
    terms = [v * p for v, p in dist.atoms]
    return sum(terms) if dist.mode == "exact" else reduce(add, terms, 0)


def dict_merged_atoms(pairs):
    """Atoms with equal values summed through a dict in input order, sorted by value."""
    acc: dict = {}
    for v, p in pairs:
        acc[v] = acc.get(v, 0) + p
    return tuple(sorted((v, p) for v, p in acc.items() if p != 0))


def mapped_dist(dist, fn) -> DiscreteDistribution:
    """The distribution of fn(X): each atom's value mapped, and the atoms
    that meet merged by ``dict_merged_atoms``, in atom order."""
    return DiscreteDistribution(dict_merged_atoms((fn(v), p) for v, p in dist.atoms))


def surplus_dists(instance: Instance):
    """Per-alternative distributions of (X_i - c_i)+, each by ``mapped_dist``.

    The form ``expected_of_max(instance, "shifted_positive")`` replaced by
    clipping inside ``core._fill_moments``: here every box's clipped atoms
    are merged into a distribution of their own first, and
    ``expected_max_of_dists`` of them gives the fill's bits.
    """
    z = instance.zero()
    return [
        mapped_dist(alt.dist, lambda v, c=c: max(v - c, z))
        for alt, c in zip(instance.alternatives, instance.singleton_costs())
    ]


def inspection_cost(instance: Instance, subset) -> Number:
    """c(S) of the opened set ``subset``: additive costs summed in index order
    from ``instance.zero()``, so a set costs one float however it was built,
    or a monotone model's table entry. The reference for ``pandora._charge``."""
    subset = frozenset(subset)
    if instance.cost_model.kind == "additive":
        costs = (instance.alternatives[i].inspect_cost for i in sorted(subset))
        return reduce(add, costs, instance.zero())
    return instance.cost_model.table[subset]


def brute_evaluate_spmi(instance: Instance, threshold, agent="worst"):
    """SPMI value by joint enumeration of principal and agent draws.

    ``agent`` is "worst" (per-realization minimum eligible net value), a
    tuple of fixed agent utilities, or a tuple of agent value distributions.
    """
    costs = instance.singleton_costs()
    total = instance.zero()
    for values, p in enumerate_realizations(instance):
        eligible = [
            (i, values[i] - costs[i])
            for i in range(instance.n)
            if values[i] - costs[i] >= threshold
        ]
        if not eligible:
            continue
        if agent == "worst":
            total = total + p * min(net for _, net in eligible)
        elif all(not hasattr(y, "atoms") for y in agent):
            _, net = max(eligible, key=lambda e: (agent[e[0]], e[1], -e[0]))
            total = total + p * net
        else:
            for y_combo in product(*(d.atoms for d in agent)):
                py = 1
                for _, q in y_combo:
                    py = py * q
                ys = [v for v, _ in y_combo]
                _, net = max(eligible, key=lambda e: (ys[e[0]], e[1], -e[0]))
                total = total + p * py * net
    return total - instance.delegation_cost


def _net_atoms(instance: Instance):
    costs = instance.singleton_costs()
    return [
        [(v - costs[i], p) for v, p in alt.dist.atoms]
        for i, alt in enumerate(instance.alternatives)
    ]


def survival_worst_case_spmi(instance: Instance, threshold):
    """Gross worst-case SPMI value from survival products, rescanned per value.

    With W the smallest eligible net value (+inf when nothing is eligible),
    E[W; W finite] = sum_t t * (P(W >= t) - P(W > t)), and P(W >= t) is a
    product over boxes of P(not eligible or net >= t), each a fresh sum.
    """
    nets = _net_atoms(instance)
    z = instance.zero()
    lows = [sum((p for nv, p in atoms if nv < threshold), start=z) for atoms in nets]
    eligible_values = sorted({nv for atoms in nets for nv, _ in atoms if nv >= threshold})
    total = z
    survival_next = prod(lows, start=1)
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


def fixed_order_spmi(instance: Instance, threshold, order):
    """Gross SPMI value when the agent proposes the first eligible box in ``order``."""
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


def expected_shortfall(dist, threshold: Number) -> Number:
    """E[(X - t)+], the decreasing piecewise-linear function that a
    reservation cap inverts: the residual oracle of ``reservation_cap``."""
    return sum((v - threshold) * p for v, p in dist.atoms if v > threshold)


def capped_dist(alt):
    """The distribution of min(X, cap) for the box's own reservation cap,
    one of the distributions that ``weitzman_value`` sweeps."""
    cap = reservation_cap(alt)
    return mapped_dist(alt.dist, lambda v: min(v, cap))


def descending_cap_simulation(instance: Instance):
    """Value of the descending-cap policy, run on every product-support point.

    Boxes open in decreasing cap order (lowest index on ties) until the best
    value in hand reaches the next cap; stopping with nothing is worth 0.
    ``pandora.weitzman_value`` computes the same number in closed form.
    """
    caps = [reservation_cap(alt) for alt in instance.alternatives]
    order = sorted(range(instance.n), key=lambda i: (-caps[i], i))
    costs = [alt.inspect_cost for alt in instance.alternatives]
    z = instance.zero()
    total = z
    for values, p in enumerate_realizations(instance):
        best = z
        paid = z
        for i in order:
            if best >= caps[i]:
                break
            paid = paid + costs[i]
            if values[i] > best:
                best = values[i]
        total = total + p * (best - paid)
    return total


def full_history_optimal(instance: Instance):
    """Optimal adaptive direct-search value without collapsing the history.

    Backward induction over complete observation assignments (which box was
    opened and exactly what it showed), so it cannot benefit from the
    best-observed-value state reduction used by the library's program.
    """
    dists = [alt.dist for alt in instance.alternatives]
    costs = [alt.inspect_cost for alt in instance.alternatives]
    means = [mean_reference(d) for d in dists]
    n = instance.n
    zero = instance.zero()

    @lru_cache(maxsize=None)
    def value(obs):
        candidates = [zero]
        seen = [v for v in obs if v is not None]
        if seen:
            candidates.append(max(seen))
        for j in range(n):
            if obs[j] is None:
                candidates.append(means[j])
        for j in range(n):
            if obs[j] is None:
                cont = -costs[j]
                for v, p in dists[j].atoms:
                    nxt = obs[:j] + (v,) + obs[j + 1 :]
                    cont = cont + p * value(nxt)
                candidates.append(cont)
        return max(candidates)

    return value((None,) * n)


def pnoi_reference(
    instance: Instance, state_limit: int = DEFAULT_STATE_LIMIT
) -> tuple[Number, PnoiPolicy]:
    """Reference for ``pandora.pnoi_optimal``: the same dynamic program in the
    number type of the instance.

    Memoized recursion over (unopened frozenset, best observed value) with
    the same action tie-breaks, so its value and its whole decision table
    must equal the library's scaled-integer kernel, key for key.
    """
    _require_additive(instance, "pnoi_optimal")
    n = instance.n
    dists = [alt.dist for alt in instance.alternatives]
    costs = [alt.inspect_cost for alt in instance.alternatives]
    means = [mean_reference(d) for d in dists]
    distinct_values = {v for d in dists for v in d.values}
    states = (2**n) * (len(distinct_values) + 1)
    if states > state_limit:
        raise StateLimitExceeded(f"{states} states exceed the limit {state_limit}")

    z = instance.zero()
    memo: dict = {}
    chosen: dict = {}

    def value(unopened: frozenset, best) -> Number:
        key = (unopened, best)
        if key in memo:
            return memo[key]
        candidates: list[tuple[Number, int, int, Action]] = [(z, 0, -1, (STOP, None))]
        if best is not None:
            candidates.append((best, 1, -1, (SELECT_OPENED_BEST, None)))
        for j in sorted(unopened):
            candidates.append((means[j], 2, j, (SELECT_CLOSED, j)))
        for j in sorted(unopened):
            rest = unopened - {j}
            cont = -costs[j]
            for v, p in dists[j].atoms:
                nxt = v if best is None or v > best else best
                cont = cont + p * value(rest, nxt)
            candidates.append((cont, 3, j, (INSPECT, j)))
        top = max(c[0] for c in candidates)
        val, _, _, action = min(
            (c for c in candidates if c[0] == top), key=lambda c: (c[1], c[2])
        )
        memo[key] = val
        chosen[key] = action
        return val

    root = value(frozenset(range(n)), None)
    return root, PnoiPolicy(dict(chosen))


def inspection_only_best(instance: Instance) -> Number:
    """Best direct policy on an identical-binary instance, by sweeping k.

    Symmetry collapses every adaptive direct policy to: open up to k boxes,
    take the first hit, and settle for a closed box (worth p*v) if k < n hits
    nothing. Returns the best value over k in 0..n, each from a running sum
    of the first-hit terms.
    """
    p, v, c, n = _identical_binary_shape(instance)
    best = p * v  # k = 0: select a closed box outright
    miss = 1 - p
    hits = instance.zero()  # the runs whose first hit is one of boxes 1..k
    for k in range(1, n + 1):
        hits = hits + p * miss ** (k - 1) * (v - k * c)
        tail = p * v if k < n else instance.zero()
        val = hits + miss**k * (tail - k * c)
        if val > best:
            best = val
    return best


def _identical_binary_shape(instance: Instance):
    _require_additive(instance, "inspection_only_best")
    first = instance.alternatives[0]
    for alt in instance.alternatives:
        if alt.dist != first.dist or alt.inspect_cost != first.inspect_cost:
            raise InvalidParameters("alternatives are not identical")
    atoms = first.dist.atoms
    if len(atoms) == 1:
        v, p = atoms[0][0], atoms[0][1]
        if v <= 0:
            raise InvalidParameters("need one positive value")
    elif len(atoms) == 2 and atoms[0][0] == 0:
        v, p = atoms[1]
    else:
        raise InvalidParameters("support must be {0, v} or {v}")
    return p, v, first.inspect_cost, instance.n


def all_policy_trees(instance: Instance):
    """Every syntactically valid search tree (tiny instances only)."""
    supports = [alt.dist.values for alt in instance.alternatives]

    def trees(unopened, opened_any):
        out = [("stop",)]
        if opened_any:
            out.append(("take_best",))
        for j in sorted(unopened):
            out.append(("select_closed", j))
        for j in sorted(unopened):
            child_lists = [trees(unopened - {j}, True) for _ in supports[j]]
            for combo in product(*child_lists):
                out.append(("open", j, dict(zip(supports[j], combo))))
        return out

    return trees(frozenset(range(instance.n)), False)


def policy_tree_value(instance: Instance, tree):
    costs = [alt.inspect_cost for alt in instance.alternatives]
    total = instance.zero()
    for values, p in enumerate_realizations(instance):
        node = tree
        observed = {}
        paid = instance.zero()
        while node[0] == "open":
            j = node[1]
            paid = paid + costs[j]
            observed[j] = values[j]
            node = node[2][values[j]]
        if node[0] == "stop":
            gain = instance.zero()
        elif node[0] == "take_best":
            best = max(observed.values())
            gain = best
        else:
            gain = values[node[1]]
        total = total + p * (gain - paid)
    return total


def exhaustive_policy_optimum(instance: Instance):
    """Max value over literally every policy tree."""
    return max(policy_tree_value(instance, t) for t in all_policy_trees(instance))


def walk_table_policy(policy: PnoiPolicy, realization):
    """(selected box or None, inspected set) of one run of a decision table.

    The reference executor for ``PnoiPolicy`` tables: it follows the table
    state by state on one realization and raises the PolicyIncomplete errors
    of the library's compiled sweep, with the same messages. A box index
    that is not an int, a bool included, names an unknown box.
    """
    n = len(realization)
    unopened = frozenset(range(n))
    best = None
    best_index = None
    inspected = set()
    while True:
        try:
            kind, index = policy.table[unopened, best]
        except KeyError:
            state = f"unopened={sorted(unopened)}, best={best}"
            raise PolicyIncomplete(f"no action for state ({state})") from None
        if kind == STOP:
            return None, frozenset(inspected)
        if kind == SELECT_OPENED_BEST:
            if best_index is None:
                raise PolicyIncomplete("select_opened_best before any inspection")
            return best_index, frozenset(inspected)
        if kind != SELECT_CLOSED and kind != INSPECT:
            raise PolicyIncomplete(f"unknown action kind {kind!r}")
        if type(index) is not int or index not in unopened:
            what = "opened" if type(index) is int and index in inspected else "unknown"
            raise PolicyIncomplete(f"{kind} on {what} box {index}")
        if kind == SELECT_CLOSED:
            return index, frozenset(inspected)
        inspected.add(index)
        unopened = unopened - {index}
        if best is None or realization[index] > best:
            best = realization[index]
            best_index = index


def broken_two_box_tables() -> list[dict]:
    """Decision tables over two boxes with support {0, 1}, each broken at a
    state every run reaches: ``walk_table_policy`` raises PolicyIncomplete on
    every realization."""
    full, rest = frozenset({0, 1}), frozenset({1})

    def after_opening_0(action):
        return {(rest, v): action for v in (Fraction(0), Fraction(1))}

    return [
        {(full, None): (SELECT_OPENED_BEST, None)},
        {(full, None): (INSPECT, 0), **after_opening_0((INSPECT, 0))},
        {(full, None): (INSPECT, 0), **after_opening_0((SELECT_CLOSED, 0))},
        {(full, None): (SELECT_CLOSED, 2)},
        {(full, None): (INSPECT, 5)},
        {(full, None): (INSPECT, 1.0)},
        {(full, None): (SELECT_CLOSED, 1.0)},
        {(full, None): (INSPECT, True)},
        {(full, None): ("peek", 0)},
        {(full, None): (INSPECT, 0)},
    ]


def brute_policy_value(instance: Instance, policy: PnoiPolicy) -> Number:
    """Expected payoff of running ``policy`` directly, by enumeration."""
    total = instance.zero()
    for values, p in enumerate_realizations(instance):
        sel, inspected = walk_table_policy(policy, values)
        gain = values[sel] if sel is not None else instance.zero()
        total = total + p * (gain - inspection_cost(instance, inspected))
    return total


def _best_signal(instance: Instance, mech, values, utilities):
    """(signal, selected, inspected, principal utility) of the agent's best response."""
    zero = instance.zero()
    best_key = None
    best = None
    for pos, sig in enumerate(mech.signals):
        sel, inspected = walk_table_policy(mech.policies[sig], values)
        gain = values[sel] if sel is not None else zero
        principal = gain - inspection_cost(instance, inspected) - instance.delegation_cost
        agent_gain = utilities[sel] if sel is not None else 0
        key = (agent_gain, principal, -pos)
        if best_key is None or key > best_key:
            best_key = key
            best = (sig, sel, inspected, principal)
    return best


def agent_best_response(instance: Instance, mech, realization, agent):
    """Signal maximizing a deterministic agent's utility for this realization.

    Ties go first to the signal whose outcome is better for the principal,
    then to the lowest signal index.
    """
    if not agent.deterministic:
        raise InvalidParameters("best response needs deterministic agent utilities")
    return _best_signal(instance, mech, realization, agent.utilities)[0]


def brute_evaluate_signaling(instance: Instance, mech, utilities):
    """Signaling value, uninspected mass, and non-overinspected mass by enumeration."""
    costs = instance.singleton_costs()
    zero = instance.zero()
    total = uninspected = clean = zero
    for values, p in enumerate_realizations(instance):
        _, sel, inspected, principal = _best_signal(instance, mech, values, utilities)
        total = total + p * principal
        if sel is not None:
            if sel not in inspected:
                uninspected = uninspected + p * values[sel]
            if not any(costs[j] >= costs[sel] for j in inspected):
                clean = clean + p * values[sel]
    return total, uninspected, clean


def instance_json_reference(instance: Instance) -> str:
    """The canonical instance JSON through a dict tree and ``json.dumps``."""
    alts = [
        {"support": alt.dist.atoms, "cost": alt.inspect_cost}
        for alt in instance.alternatives
    ]
    if instance.cost_model.kind == "monotone":
        table = {",".join(map(str, sorted(s))): c for s, c in instance.cost_model.table.items()}
        cm = {"type": "monotone", "table": table}
    else:
        cm = {"type": "additive"}
    obj = {"alternatives": alts, "cost_model": cm, "delegation_cost": instance.delegation_cost}
    return json.dumps(to_json(obj), sort_keys=True)


def format_number_reference(x) -> str:
    if isinstance(x, Fraction):
        num, den = x.numerator, x.denominator
        if den == 1:
            return str(num)
        # 10^k is a multiple of den for some k <= log2(den) iff den = 2^a 5^b.
        for k in range(1, den.bit_length() + 1):
            if 10**k % den == 0:
                digits = str(abs(num) * 10**k // den).rjust(k + 1, "0")
                return ("-" if num < 0 else "") + digits[:-k] + "." + digits[-k:]
        return f"{num}/{den}"
    return str(x) if isinstance(x, int) else repr(x)


def _reachable_policy(supports, rule) -> PnoiPolicy:
    """Decision table over the states reachable from (every box unopened, None).

    ``rule(unopened, best)`` gives each new state its action; the states an
    inspection of box j leads to are then filled depth first, in the order
    of ``supports[j]``, one frame per opened box.
    """
    table: dict = {}

    def fill(unopened: frozenset, best) -> None:
        if (unopened, best) in table:
            return
        kind, j = table[(unopened, best)] = rule(unopened, best)
        if kind == INSPECT:
            rest = unopened - {j}
            for v in supports[j]:
                fill(rest, v if best is None or v > best else best)

    fill(frozenset(range(len(supports))), None)
    return PnoiPolicy(table)


def random_signaling_mechanism(
    rng: random.Random, instance: Instance, max_signals: int = 3
) -> SignalingMechanism:
    """Random terminating decision tables over 1..max_signals signals."""
    supports = [alt.dist.values for alt in instance.alternatives]

    def rule(unopened: frozenset, best):
        actions = [(STOP, None)]
        if best is not None:
            actions.append((SELECT_OPENED_BEST, None))
        actions.extend((SELECT_CLOSED, j) for j in sorted(unopened))
        actions.extend((INSPECT, j) for j in sorted(unopened))
        return rng.choice(actions)

    count = rng.randint(1, max_signals)
    signals = tuple(range(count))
    policies = {sig: _reachable_policy(supports, rule) for sig in signals}
    return SignalingMechanism(signals, policies)


def with_monotone_costs(rng: random.Random, inst: Instance) -> Instance:
    """``inst`` under a monotone table: box j costs k/4 alone, and each box
    beyond the first adds its own cost plus 1/7."""
    own = [Fraction(rng.randint(0, 8), 4) for _ in range(inst.n)]
    table = {}
    for mask in range(1 << inst.n):
        subset = frozenset(j for j in range(inst.n) if mask >> j & 1)
        extra = Fraction(max(len(subset) - 1, 0), 7)
        table[subset] = sum((own[j] for j in subset), start=extra)
    return Instance(inst.alternatives, CostModel("monotone", table), inst.delegation_cost)


def random_corpus_reference(
    seed: int,
    count: int,
    max_n: int = 4,
    support_size: int = 3,
    value_max: int = 8,
    cost_max: int = 2,
    cdel_max: int = 0,
) -> list[Instance]:
    """``instances.random_corpus`` with every grid Fraction built before the
    values are sampled from it, in the same order of draws."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        alternatives = []
        for _ in range(n):
            size = rng.randint(1, support_size)
            grid = [Fraction(k, 2) for k in range(2 * value_max + 1)]
            values = rng.sample(grid, size)
            cuts = sorted(rng.sample(range(1, 16), size - 1)) if size > 1 else []
            bounds = [0, *cuts, 16]
            atoms = [(v, Fraction(b - a, 16)) for v, a, b in zip(values, bounds, bounds[1:])]
            cost = Fraction(rng.randint(0, 4 * cost_max), 4)
            alternatives.append(Alternative(make_distribution(atoms), cost))
        cdel = Fraction(rng.randint(0, 4 * cdel_max), 4) if cdel_max else Fraction(0)
        out.append(Instance(tuple(alternatives), delegation_cost=cdel))
    return out
