"""Search machinery for boxes with inspection costs.

Reservation caps, the descending-cap (index) policy for obligatory
inspection, and an exact dynamic program for the optimal adaptive policy when
inspection is optional (select-a-closed-box allowed).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from itertools import islice, product
from math import prod
from operator import floordiv, truediv
from threading import Lock
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .core import (
    DEFAULT_STATE_LIMIT,
    FLOAT_TOL,
    Alternative,
    Instance,
    InvalidParameters,
    Number,
    PolicyIncomplete,
    StateLimitExceeded,
    _box_sums,
    _scaled_atoms,
    _sum,
    expected_max_of_dists,
)

# Policy action kinds.
INSPECT = "inspect"
SELECT_CLOSED = "select_closed"
SELECT_OPENED_BEST = "select_opened_best"
STOP = "stop"

Action = tuple  # (kind, index or None)


def reservation_cap(alt: Alternative) -> Number:
    """The cap b solving E[(X - b)+] = c exactly: Weitzman's reservation value.

    A Fraction in exact mode and a float in float mode. A zero cost saturates
    the cap at the top of the support. Otherwise the cap is the crossing of
    ``_crossing``, clamped to 0. When the cost exceeds E[X] the crossing is
    E[X] - c < 0, so no nonnegative cap exists and the cap is 0: such a box
    is never worth opening, but may still be selected closed.
    """
    dist, cost = alt.dist, alt.inspect_cost
    if cost == 0:
        return dist.max_value()
    zero = Fraction(0) if dist.mode == "exact" else 0.0
    box = list(enumerate(p for _, p in dist.atoms))
    return max(_crossing(box, dist.values, cost, truediv), zero)


def _crossing(box: Sequence, values: Sequence, target: Number, div) -> Number:
    """The b at which a box's shortfall sum w (v - b)+ falls to ``target`` > 0.

    ``box`` holds the atoms as (index into the increasing ``values``,
    weight). Above the atoms still to walk, the shortfall is S - P * b for
    the sums S = sum w * v and P = sum w over the atoms walked; the walk
    goes down from the top and stops at the first atom at or below
    b = div(S - target, P), which it returns. If there is none, S and P
    cover the whole box. ``div`` is truediv, or floordiv on the DP's ints:
    floor(b) >= v iff b >= v for an int v, so the walk stops at the same atom.
    """
    total = mass = 0
    for k, w in reversed(box):
        if mass and (crossing := div(total - target, mass)) >= values[k]:
            return crossing
        total, mass = total + w * values[k], mass + w
    return div(total - target, mass)


def _require_additive(instance: Instance, what: str) -> None:
    if instance.cost_model.kind != "additive":
        raise InvalidParameters(f"{what} requires an additive cost model")


def weitzman_value(instance: Instance) -> Number:
    """Exact expected payoff of the descending-cap policy (obligatory inspection).

    The policy opens boxes in decreasing cap order until the best value in
    hand reaches the next cap. Its value equals E[max_i min(X_i, cap_i)]
    (Kleinberg, Waggoner & Weyl, "Descending price optimally coordinates
    search", EC 2016): each box's distribution is capped at its
    ``reservation_cap`` and ``expected_max_of_dists`` sweeps them, in time
    linear in the total support size; nothing is enumerated.
    """
    _require_additive(instance, "weitzman_value")
    capped = []
    for alt in instance.alternatives:
        cap = reservation_cap(alt)
        capped.append(alt.dist.transform(lambda v: min(v, cap)))
    return expected_max_of_dists(capped)


class PnoiPolicy:
    """Decision table over states (unopened set, best observed value or None).

    Each inspect action shrinks the unopened set, so every policy terminates.
    Runs read int step codes (``_STOP`` and the others below) for n boxes and
    a value list ``bests`` (None, then the sorted distinct values): one list
    per unopened bit mask, by index into ``bests``, holding None where the
    table has no action and a broken action's PolicyIncomplete message.
    ``pnoi_optimal`` writes the codes, and ``table`` is keyed from them on
    first read, once even when threads race. ``PnoiPolicy(table)`` copies a
    table read-only. A policy keeps the DP's codes, if it has them, and
    beside them the codes compiled for the last other (n, bests) it ran on.
    Pickling and copying carry a plain dict.
    """

    __slots__ = ("_table", "_codes", "_foreign", "_lock")

    def __init__(self, table: Mapping) -> None:
        self._table, self._codes, self._foreign = MappingProxyType(dict(table)), None, None
        self._lock = Lock()

    @property
    def table(self) -> Mapping:
        if self._table is None:
            with self._lock:
                if self._table is None:
                    self._table = MappingProxyType(_dp_table(*self._codes))
        return self._table

    def __reduce__(self):
        return PnoiPolicy, (dict(self.table),)

    def _codes_for(self, n: int, bests: list) -> dict:
        """The step codes by unopened mask for ``n`` boxes and ``bests``."""
        for held in self._codes, self._foreign:
            if held and held[:2] == (n, bests):
                return held[2]
        held = self._foreign = n, bests, _compile(self.table, n, bests)
        return held[2]


# Int step codes of a decision table's actions, as ``PnoiPolicy`` holds them
# for the DP, the signaling sweep and the replay: j >= 0 inspects box j; the
# negative codes end the run, _CLOSED - j selecting box j closed.
_STOP = -1
_TAKE_BEST = -2
_CLOSED = -3


def _compile(table: Mapping, n: int, bests: Sequence) -> dict:
    """The step codes of ``table`` for ``n`` boxes and ``bests`` (``PnoiPolicy``).

    Only the unopened sets that the table's inspections lead to from the
    root are compiled, each mask made from the one it was reached from. An
    index that is not an int, a bool included, names an unknown box.
    """
    full = (1 << n) - 1
    todo, codes = {full: frozenset(range(n))}, {}  # mask -> unopened set, to compile
    while todo:
        mask, unopened = todo.popitem()
        row = codes[mask] = [table.get((unopened, best)) for best in bests]
        for k, action in enumerate(row):
            if action is None:
                continue
            kind, j = action
            if kind == STOP:
                row[k] = _STOP
            elif kind == SELECT_OPENED_BEST:
                row[k] = _TAKE_BEST if k else "select_opened_best before any inspection"
            elif kind != INSPECT and kind != SELECT_CLOSED:
                row[k] = f"unknown action kind {kind!r}"
            elif type(j) is not int or j not in unopened:
                what = "opened" if type(j) is int and 0 <= j < n else "unknown"
                row[k] = f"{kind} on {what} box {j}"
            elif kind == SELECT_CLOSED:
                row[k] = _CLOSED - j
            else:
                row[k], rest = j, mask ^ 1 << j
                if rest not in codes and rest not in todo:
                    todo[rest] = unopened - {j}
    return codes


def _fault(code, mask: int, best: int, bests: Sequence) -> PolicyIncomplete:
    """The error of a run reaching a state whose slot holds ``code``, not a step."""
    if code is None:
        unopened = [j for j in range(mask.bit_length()) if mask >> j & 1]
        code = f"no action for state (unopened={unopened}, best={bests[best]})"
    return PolicyIncomplete(code)


def evaluate_policy(instance: Instance, policy: PnoiPolicy) -> Number:
    """Exact expected payoff of running a policy directly (no delegation).

    One forward pass over the states (unopened mask, best value index) that
    the table's step codes reach from the root, one layer per number of
    opened boxes, so nothing recurses or enumerates the product support.
    Each reached state is stepped once and passes its probability mass on to
    the states its inspection leads to; a run ending with opened set O adds
    mass * (gain - cost of O), the cost by ``_charge``, so monotone cost
    tables work. The pass runs on the ints of ``_scaled_boxes``: a mass is
    over prod q_j, and opening box j divides it by q_j (floordiv, exact as
    the mass still holds q_j; truediv on float mode's unit scales, as in
    ``_cut``). Exact mode ends in one Fraction over D * prod q_j; float mode
    returns a float. PolicyIncomplete is raised, layer by layer, at the
    first reached state that the table leaves undefined or breaks.
    """
    bests, unit, box_units, values, atoms, means, costs, _ = _scaled_boxes(instance)
    codes = policy._codes_for(instance.n, bests)
    exact = instance.mode == "exact"
    div = floordiv if exact else truediv

    total = 0
    full = (1 << instance.n) - 1
    layer = {(full, 0): prod(box_units)}
    while layer:
        reached: dict = {}
        for (mask, best), mass in layer.items():
            step = codes[mask][best]
            if type(step) is not int:
                raise _fault(step, mask, best, bests)
            if step >= 0:
                rest, share = mask ^ 1 << step, div(mass, box_units[step])
                for k, w in atoms[step]:
                    key = rest, max(best, k)
                    reached[key] = reached.get(key, 0) + share * w
                continue
            cost = _charge(costs, full ^ mask)
            if step < _TAKE_BEST:  # means[j] is over D * q_j
                j = _CLOSED - step
                total += div(mass, box_units[j]) * (means[j] - box_units[j] * cost)
            else:
                total += mass * (values[best if step == _TAKE_BEST else 0] - cost)
        layer = reached
    return Fraction(total, unit * prod(box_units)) if exact else float(total)


def _scaled_boxes(instance: Instance) -> tuple:
    """The decision-table form of ``instance``, on the ints of ``core._scaled_atoms``.

    The DP, the signaling sweep and the replay all run on it. Returns
    (bests, D, box_units, scaled_values, atoms, means, costs, cdel):
    scaled_values is 0 and then the distinct scaled values s = D * v in
    increasing order; bests is None and then the same values as numbers,
    Fraction(s, D) in exact mode; box j's atoms are (index into
    scaled_values, q_j * p) in atom order, and means[j] is its
    ``core._box_sums`` entry D * q_j * E[X_j]; costs, which ``_charge``
    reads, is D times a monotone table as a dict by opened bit mask, or D
    times the additive costs as a list by box; cdel is D times the
    delegation cost. D, which covers these costs too, and q_j are those of
    ``_scaled_atoms``. Float mode uses unit scales.
    """
    table = instance.cost_model.table if instance.cost_model.kind == "monotone" else {}
    charges = [*table.values()] or [alt.inspect_cost for alt in instance.alternatives]
    dists = [alt.dist for alt in instance.alternatives]
    unit, box_units, triples, costs = _scaled_atoms(dists, (*charges, instance.delegation_cost))
    cdel = costs.pop()
    distinct = sorted({s for s, _, _ in triples})
    index = {s: k for k, s in enumerate(distinct, 1)}
    atoms: list = [[] for _ in box_units]
    for s, j, w in triples:
        atoms[j].append((index[s], w))
    if table:  # a monotone table covers every subset, the empty one too
        costs = {sum(1 << j for j in s): c for s, c in zip(table, costs)}
    exact = instance.mode == "exact"
    bests = [None, *(Fraction(s, unit) if exact else s for s in distinct)]
    means = _box_sums(triples, len(atoms))
    return bests, unit, box_units, [0, *distinct], atoms, means, costs, cdel


def _charge(costs, opened: int) -> Number:
    """D times the inspection cost of the opened bit mask ``opened``, from the
    ``costs`` of ``_scaled_boxes``. Additive costs add in index order from 0,
    so a set costs one float however it was reached."""
    if type(costs) is dict:
        return costs[opened]
    return _sum(c for j, c in enumerate(costs) if opened >> j & 1)


def _cut(box: Sequence, unit: Number, cost: Number, values: Sequence, exact: bool) -> int:
    """The first best index from which inspecting a box never wins.

    ``box`` holds the box's atoms as (index into the increasing ``values``,
    weight), ``unit`` their total weight and ``cost`` the inspection cost on
    the scale of ``values``, as ``pnoi_optimal`` holds them. Inspecting at
    best value b is cut where the box's shortfall sum w (values[k] - b)+
    is below unit * cost, by more than FLOAT_TOL in float mode: the values
    above the crossing of ``_crossing``, found by one bisection. Index 0
    (nothing opened) is never cut, nor is any index of a box that costs
    nothing.
    """
    target = unit * cost - (0 if exact else FLOAT_TOL)
    if target <= 0:
        return len(values)
    return bisect_right(values, _crossing(box, values, target, floordiv if exact else truediv), 1)


# The most points of the product support whose outcomes the sweep holds at once.
_BLOCK = 1 << 16


def _interleave(parts: list, before: int) -> list:
    """Lists over A x B, one per atom of a box, as one over A x atoms x B; |A| = ``before``."""
    m, after = len(parts), len(parts[0]) // before
    out = [None] * (m * len(parts[0]))
    for k, part in enumerate(parts):
        if before <= after:
            for a in range(0, len(part), after):
                out[a * m + k * after : a * m + (k + 1) * after] = part[a : a + after]
        else:
            for b in range(after):
                out[k * after + b :: m * after] = part[b::after]
    return out


def _policy_sweep(
    instance: Instance,
    policies: Sequence[PnoiPolicy],
    utilities: Sequence,
) -> tuple[Number, Number, Number]:
    """(principal utility, uninspected mass, clean mass) of best responses.

    At each point of the product support the signal whose outcome record
    (utilities[selected], principal utility, -position, uninspected gain,
    clean gain) is largest counts. Each table is walked depth first, once per
    state (unopened mask, best index, holder); a state returns the records
    over its unopened boxes' product in lexicographic order, so the signals'
    lists merge pointwise and one loop adds the sums in point order. It runs
    on the ints of ``_scaled_boxes`` and charges an opened set by
    ``_charge``. Leading boxes are enumerated outside, as one atom each, to
    hold at most ``_BLOCK`` points. The walk
    reads each table's step codes for ``bests`` (``PnoiPolicy``) and raises
    PolicyIncomplete at the first broken state it reaches. The one caller,
    ``delegation._signaling_sweep``, checks the product size first.
    """
    n = instance.n
    bests, unit, box_units, scaled_values, atoms, _, costs, cdel = _scaled_boxes(instance)
    singleton = instance.singleton_costs()
    # Box i's selection is clean unless a box in dearer[i] was opened.
    dearer = [sum(1 << j for j, c in enumerate(singleton) if c >= mine) for mine in singleton]
    full = (1 << n) - 1

    def record(mask: int, sel: Optional[int], k: int) -> tuple:
        cost = _charge(costs, opened := full ^ mask)
        if sel is None:
            return 0, 0 - cost - cdel, -pos, 0, 0
        gain, clean = scaled_values[k], not opened & dearer[sel]
        return utilities[sel], gain - cost - cdel, -pos, (not opened >> sel & 1) * gain, clean * gain

    def points(mask: int) -> int:
        return prod(len(boxes[j]) for j in range(n) if mask >> j & 1)

    def walk(mask: int, best: int, holder: Optional[int]) -> list:
        # Signal ``pos``'s records at a state, over the block's ``boxes``.
        key = mask, best, holder
        if key in memo:
            return memo[key]
        while True:
            step = codes[mask][best]
            if type(step) is not int:
                raise _fault(step, mask, best, bests)
            if step < 0 or len(boxes[step]) > 1:
                break
            ((k, _),) = boxes[step]  # one atom: open it in place
            best, holder = (k, step) if k > best else (best, holder)
            mask ^= 1 << step
        size, j = points(mask), step if step >= 0 else _CLOSED - step
        if step >= 0:
            rest = mask ^ 1 << j
            parts = [walk(rest, max(best, k), j if k > best else holder) for k, _ in boxes[j]]
        elif step < _TAKE_BEST:
            parts = [[record(mask, j, k)] * (size // len(boxes[j])) for k, _ in boxes[j]]
        else:
            j, parts = 0, [[record(mask, None if step == _STOP else holder, best)] * size]
        memo[key] = _interleave(parts, points(mask & (1 << j) - 1))
        return memo[key]

    # Boxes lead, ..., n - 1 make one block; the outer loop fixes the others.
    lead = next(i for i in range(n + 1) if prod(map(len, atoms[i:])) <= _BLOCK)
    tables = [policy._codes_for(n, bests) for policy in policies]
    total = uninspected = clean_mass = 0
    for fixed in product(*atoms[:lead]):
        boxes = [[atom] for atom in fixed] + atoms[lead:]
        top = None
        for pos, codes in enumerate(tables):
            memo: dict = {}
            outcomes = walk(full, 0, None)
            top = outcomes if top is None else [t if t > o else o for t, o in zip(top, outcomes)]
        weights = [prod(w for _, w in fixed)]
        for box in atoms[lead:]:
            weights = [x * w for x in weights for _, w in box]
        for x, (_, utility, _, lost, kept) in zip(weights, top):
            total += x * utility
            uninspected += x * lost
            clean_mass += x * kept
    if instance.mode == "exact":
        scale = unit * prod(box_units)
        return tuple(Fraction(x, scale) for x in (total, uninspected, clean_mass))
    return float(total), float(uninspected), float(clean_mass)


# Tie-break: among equal-value actions prefer stopping over selecting the
# opened best, over selecting a closed box (lowest index), over inspecting
# (lowest index). The kernel scans candidates in exactly this order and lets
# only a strictly greater value replace the incumbent, which keeps returned
# policies deterministic.
def pnoi_optimal(
    instance: Instance, state_limit: int = DEFAULT_STATE_LIMIT
) -> tuple[Number, PnoiPolicy]:
    """Exact optimal adaptive value when selecting a closed box is allowed.

    Dynamic program over (unopened set, best observed value): independence
    across boxes means the continuation problem depends on the history only
    through these two, which the test suite checks against a full-history
    oracle.

    Twins, boxes with the same distribution and cost, can swap without
    changing any value, so the kernel opens or selects a box only once its
    lower-indexed twins are opened. Each type's unopened boxes are then its
    highest-indexed ones, and ``state_limit`` counts prod over types of
    (count + 1), times V + 1 for V distinct values: 2^n (V + 1) without twins.
    A skipped action ties with a twin scanned before it, so the table is the
    full program's, restricted to the unopened sets where no box has an
    opened higher-indexed twin: all the states the policy can reach.

    The kernel runs bottom up on the ints of ``_scaled_boxes``, with no
    recursion. A state is (bitmask of unopened boxes, index into the sorted
    distinct values, 0 for nothing opened). Each reachable mask, taken after
    its submasks, gets one row of values by best index, filled at the
    indices a run can hold: 0 at the full mask, else the atoms of the opened
    boxes at or above the largest lowest atom among them, a sorted list made
    from that of the mask one box up. A state with unopened set S is scaled
    by D * prod_{j in S} q_j; every candidate at a state has that scale, so
    comparisons stay exact, and only the root is turned back into a
    Fraction. Beside its row, each mask keeps one list of step codes by best
    index, None where no run holds it, and an improving candidate overwrites
    one slot. The returned policy holds these codes, which the replay and
    the signaling sweep read on this value list, and builds the public
    table, keyed by (frozenset, value or None), the first time it is read.
    The box means and costs are those of ``_scaled_boxes`` too.

    Weitzman's rule prunes the scan. V(S - {j}, .) is nondecreasing and
    1-Lipschitz in b, so inspecting box j at an opened best b is worth at
    most V(S - {j}, b) + E[(X_j - b)+] - c_j. When E[(X_j - b)+] < c_j that
    is below V(S - {j}, b) <= V(S, b): the candidate is never a maximizer,
    and skipping it changes no value and no table entry. Float mode skips it
    only when c_j exceeds the shortfall by more than FLOAT_TOL, so rounding
    cannot turn a skipped candidate into the argmax. The shortfall falls as
    b rises, so each box gets one cut index into the sorted values
    (``_cut``), computed once per call, where its scan over best indices
    stops. The rule never applies with nothing opened, or to a free box.
    """
    _require_additive(instance, "pnoi_optimal")
    n = instance.n
    # Under additive costs, _scaled_boxes lists each box's scaled cost.
    bests, unit, box_units, scaled_values, atoms, means, scaled_costs, _ = _scaled_boxes(instance)
    kinds = [(tuple(box), q, c) for box, q, c in zip(atoms, box_units, scaled_costs)]
    states = prod(count + 1 for count in Counter(kinds).values()) * len(bests)
    if states > state_limit:
        raise StateLimitExceeded(f"{states} states exceed the limit {state_limit}")

    exact = instance.mode == "exact"
    cuts = [_cut(*kind, scaled_values, exact) for kind in kinds]
    # reach[mask] = (prod of q_j over mask, the boxes of mask that may be
    # opened, the best select-closed candidate as (scaled value, action))
    # for the masks the DP can reach, built from the highest box down. Box j
    # joins only with its next higher twin `up`, which it then shadows; as
    # the lowest box of mask | bit it wins select ties.
    reach = {0: (1, 0, 0, _STOP)}
    # kind -> (bit of its lowest box so far, position in reach where the
    # masks holding that box begin); no earlier mask can hold it.
    twin_above: dict = {}
    for j in range(n - 1, -1, -1):
        bit, q, select = 1 << j, box_units[j], _CLOSED - j
        up, first = twin_above.get(kinds[j], (0, 0))
        twin_above[kinds[j]] = bit, len(reach)
        for mask, (s, free, picked, action) in list(islice(reach.items(), first, None)):
            if not up or mask & up:
                if means[j] * s >= picked * q:
                    picked, action = means[j] * s, select
                else:
                    picked = picked * q
                reach[mask | bit] = (s * q, free & ~up | bit, picked, action)

    width = len(bests)
    full = (1 << n) - 1
    # The best indices to fill, per mask, in increasing order. Reversed,
    # reach runs down from the full mask, and holds mask | 1 << j for the
    # highest opened box j; in order, it puts every mask after its submasks.
    spans = [sorted({k for k, _ in box}) for box in atoms]
    held_at = {full: [0]}
    for mask in reversed(reach):
        if mask != full:
            j = (full ^ mask).bit_length() - 1
            up = held_at[mask | 1 << j]
            merged = sorted({*up, *spans[j]})
            held_at[mask] = merged[bisect_left(merged, max(up[0], spans[j][0])) :]

    rows: dict = {}
    codes: dict = {}  # mask -> step code by best index, None where no run holds it
    for mask, (s, free, picked, select) in reach.items():
        fill = held_at.pop(mask)
        row = [0] * width
        code = [None] * width
        for best in fill:
            top, code[best] = 0, _STOP
            if scaled_values[best] * s > top:
                top, code[best] = scaled_values[best] * s, _TAKE_BEST
            if picked > top:
                top, code[best] = picked, select
            row[best] = top
        while free:
            bit = free & -free
            free ^= bit
            j = bit.bit_length() - 1
            sub = rows[mask ^ bit]
            box, base, cut = atoms[j], -scaled_costs[j] * s, cuts[j]
            for best in fill:
                if best >= cut:
                    break
                cont = base
                for k, w in box:
                    cont = cont + w * sub[k if k > best else best]
                if cont > row[best]:
                    row[best], code[best] = cont, j
        rows[mask] = row
        codes[mask] = code

    root = rows[full][0]
    root = Fraction(root, unit * reach[full][0]) if exact else float(root)
    policy = PnoiPolicy({})
    policy._table, policy._codes = None, (n, bests, codes)  # the table is built on first read
    return root, policy


def _dp_table(n: int, bests: Sequence, codes: dict) -> dict:
    """The public table of the step codes ``pnoi_optimal`` wrote, in its order."""
    actions = {_STOP: (STOP, None), _TAKE_BEST: (SELECT_OPENED_BEST, None)}
    for j in range(n):
        actions[j], actions[_CLOSED - j] = (INSPECT, j), (SELECT_CLOSED, j)
    # Each mask's unopened set is made from that of a mask one box up.
    full = (1 << n) - 1
    unopened_at = {full: frozenset(range(n))}
    for mask in reversed(codes):
        if mask != full:
            j = (full ^ mask).bit_length() - 1
            unopened_at[mask] = unopened_at[mask | 1 << j] - {j}
    return {
        (unopened_at[mask], bests[best]): actions[step]
        for mask, code in codes.items()
        for best, step in enumerate(code)
        if step is not None
    }


def pnoi_value(instance: Instance) -> Number:
    """``pnoi_optimal(instance)[0]`` at the default state limit, kept on the instance."""
    if instance._direct is None:
        instance._fill("_direct", pnoi_optimal(instance)[0])
    return instance._direct


def pnoi_value_upper_bound(instance: Instance) -> Number:
    """E[max_i min(X_i, cap_i)] + max_i E[X_i].

    Sound upper bound on the optimal adaptive value: inspected boxes
    contribute at most their capped value, and the gain from a box selected
    closed is at most the best mean.
    """
    _require_additive(instance, "pnoi_value_upper_bound")
    return weitzman_value(instance) + max(instance.expected_values())
