import copy
import hashlib
import math
import pickle
import random
import sys
import threading
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delegatebox import (
    Alternative,
    Instance,
    PolicyIncomplete,
    StateLimitExceeded,
    make_distribution,
    pandora,
)
from delegatebox.core import DEFAULT_ENUMERATION_LIMIT, FLOAT_TOL, expected_max_of_dists
from delegatebox.delegation import (
    SignalingMechanism,
    deterministic_agent,
    evaluate_signaling,
    overinspection_utility,
    policy_to_rows,
)
from delegatebox.instances import (
    FAMILIES,
    gen,
    identical_binary,
    inapprox_first_best,
    info_value,
    random_corpus,
    spmi_fail,
    tightness,
)
from delegatebox.pandora import (
    INSPECT,
    SELECT_CLOSED,
    SELECT_OPENED_BEST,
    STOP,
    PnoiPolicy,
    _charge,
    _cut,
    _scaled_boxes,
    evaluate_policy,
    pnoi_optimal,
    pnoi_value,
    pnoi_value_upper_bound,
    reservation_cap,
    weitzman_value,
)

from oracles import (
    broken_two_box_tables,
    brute_evaluate_signaling,
    brute_policy_value,
    capped_dist,
    descending_cap_simulation,
    exhaustive_policy_optimum,
    expected_shortfall,
    full_history_optimal,
    inspection_cost,
    inspection_only_best,
    pnoi_reference,
    random_signaling_mechanism,
    walk_table_policy,
    with_monotone_costs,
)


def box(pairs, cost=0):
    return Alternative(make_distribution(pairs), cost)


def twin_canonical(instance, table):
    """The entries of a full decision table whose unopened set leaves no box
    with an opened higher-indexed twin (same distribution, same cost)."""
    kinds = [(alt.dist, alt.inspect_cost) for alt in instance.alternatives]

    def canonical(unopened):
        return all(
            i in unopened for j in unopened for i in range(j + 1, instance.n)
            if kinds[i] == kinds[j]
        )

    return {state: action for state, action in table.items() if canonical(state[0])}


def box_cuts(instance):
    """The cut of each box that pnoi_optimal scans up to, and the best values
    (None first) that the cuts index."""
    bests, _, units, values, atoms, _, costs, _ = _scaled_boxes(instance)
    exact = instance.mode == "exact"
    return [_cut(b, q, c, values, exact) for b, q, c in zip(atoms, units, costs)], bests


half_coin = [(0, "0.5"), (1, "0.5")]


def half_coin_at(low, high):
    return [(low, F(1, 2)), (high, F(1, 2))]


def three_point_boxes(rng, n):
    """n boxes on {0, a, b}, no value shared across boxes (values k/4, costs
    k/4, probabilities k/15, which floats round)."""
    values = [F(k, 4) for k in rng.sample(range(1, 33), 2 * n)]
    alts = []
    for i in range(n):
        cuts = sorted(rng.sample(range(1, 15), 2))
        weights = [F(w, 15) for w in (cuts[0], cuts[1] - cuts[0], 15 - cuts[1])]
        atoms = zip([F(0), *values[2 * i: 2 * i + 2]], weights)
        alts.append(box(list(atoms), F(rng.randint(0, 8), 4)))
    return alts


class TestReservationCap:
    def test_half_coin_quarter_cost(self):
        cap = reservation_cap(box(half_coin, "0.25"))
        assert type(cap) is F and cap == F(1, 2)

    def test_zero_cost_saturates_at_top_of_support(self):
        assert reservation_cap(box([(0, "0.25"), (2, "0.5"), (5, "0.25")])) == 5

    def test_cost_equal_to_mean_collapses_to_zero(self):
        cap = reservation_cap(box(half_coin, "0.5"))
        assert type(cap) is F and cap == 0

    def test_cost_above_mean_is_flagged_not_an_error(self):
        # Never worth opening: the cost exceeds E[X], and the cap is clamped.
        alt = box(half_coin, 2)
        assert alt.inspect_cost > alt.dist.mean()
        cap = reservation_cap(alt)
        assert type(cap) is F and cap == 0

    def test_costs_next_to_the_mean_clamp_to_zero_above_it(self):
        # No cap walk tests the cost against E[X]: a cost above the mean, even
        # by the next double, gets a negative crossing, clamped to exactly 0.
        # At the mean itself and the double below, the crossing is the cap.
        corpus = [inst for seed in range(10) for inst in random_corpus(seed, 150, support_size=6)]
        for inst in corpus:
            for dist in (d for alt in inst.alternatives for d in (alt.dist, alt.dist.to_float())):
                mean, exact = dist.mean(), dist.mode == "exact"
                above = mean + F(1, 10**12) if exact else math.nextafter(mean, math.inf)
                cap = reservation_cap(Alternative(dist, above))
                assert repr(cap) == ("Fraction(0, 1)" if exact else "0.0")
                for cost in (mean, math.nextafter(mean, 0)) if not exact else (mean,):
                    cap = reservation_cap(Alternative(dist, cost))
                    assert type(cap) is type(mean) and 0 <= cap <= dist.max_value()
                    assert abs(expected_shortfall(dist, cap) - cost) <= (0 if exact else FLOAT_TOL)

    def test_float_caps_are_floats(self):
        for cost, want in ((0.25, 0.5), (0, 1.0), (0.5, 0.0), (2, 0.0)):
            alt = Alternative(make_distribution(half_coin, "float"), cost)
            cap = reservation_cap(alt)
            assert type(cap) is float and cap == want

    def test_a_float_cap_at_an_atom_keeps_its_bits(self):
        # On these floats E[(X - 7)+] equals the cost exactly. Testing the
        # shortfall at 7 as S - P * 7 >= c instead of (S - c) / P >= 7 rounds
        # below the cost and walks one segment too far, to 6.999999999999999.
        dist = make_distribution([(F(3, 2), F(3, 7)), (7, F(2, 7)), (13, F(2, 7))])
        assert reservation_cap(Alternative(dist.to_float(), F(12, 7))) == 7.0

    @given(st.integers(0, 16), st.integers(1, 16))
    @settings(max_examples=80, deadline=None)
    def test_cap_equation_residual_is_zero(self, num, den):
        alt = box([(0, "0.25"), (1, "0.25"), (3, "0.5")], 0)
        mean = alt.dist.mean()
        cost = F(num, den)
        if cost > mean:
            return
        cap = reservation_cap(Alternative(alt.dist, cost))
        assert expected_shortfall(alt.dist, cap) == cost or cost == 0

    @given(st.integers(0, 28), st.integers(0, 28))
    @settings(max_examples=80, deadline=None)
    def test_caps_are_antitone_in_cost(self, a, b):
        dist = make_distribution([(0, "0.25"), (2, "0.25"), (4, "0.5")])
        lo, hi = sorted((F(a, 8), F(b, 8)))
        assert reservation_cap(Alternative(dist, lo)) >= reservation_cap(Alternative(dist, hi))


def caps_reprs():
    """The repr of ``reservation_cap``, exact and float, for every box of
    ``random_corpus`` seeds 0-3 (supports up to 6) and of the named families
    at their defaults: at the box's own cost and at 0, E[X], E[X]/3 and
    E[X] + 1."""
    insts = [inst for seed in range(4) for inst in random_corpus(seed, 150, support_size=6)]
    insts += [gen(family, {})[0] for family in FAMILIES if family != "random"]
    out = []
    for alt in (alt for inst in insts for alt in inst.alternatives):
        for dist in (alt.dist, alt.dist.to_float()):
            mean = dist.mean()
            for cost in (alt.inspect_cost, 0, mean, mean / 3, mean + 1):
                out.append(repr(reservation_cap(Alternative(dist, cost))))
    return out


# sha256 of the newline-joined caps_reprs(), recorded while reservation_cap
# still walked its own segments on the distribution's atoms.
CAPS_SHA256 = "53c20d990a286ba79e7e2b5a4ca633a3ba62d460d14311cb64529039fcacd3eb"


def test_reservation_caps_are_pinned():
    digest = hashlib.sha256("\n".join(caps_reprs()).encode()).hexdigest()
    assert digest == CAPS_SHA256


class TestCappedValue:
    def test_half_coin_capped_at_half(self):
        assert capped_dist(box(half_coin, "0.25")).atoms == ((F(0), F(1, 2)), (F(1, 2), F(1, 2)))

    def test_saturated_cap_leaves_distribution_alone(self):
        alt = box(half_coin, 0)
        assert capped_dist(alt) == alt.dist

    def test_zero_cap_is_a_point_mass_at_zero(self):
        assert capped_dist(box(half_coin, "0.5")).atoms == ((F(0), F(1)),)


class TestWeitzman:
    def test_single_half_coin(self):
        inst = Instance((box(half_coin, "0.25"),))
        assert weitzman_value(inst) == F(1, 4)

    def test_free_inspection_recovers_the_expected_max(self):
        inst = Instance((box(half_coin), box([(0, "0.5"), (3, "0.5")])))
        # E[max]: 3 w.p. 1/2, else 1 w.p. 1/4
        assert weitzman_value(inst) == F(3, 2) + F(1, 4)

    def test_costs_at_the_mean_kill_all_value(self):
        inst = Instance((box(half_coin, "0.5"), box([(2, 1)], 2)))
        assert weitzman_value(inst) == 0

    def test_simulation_agrees_with_capped_expectation_on_corpus(self):
        for inst in random_corpus(seed=101, count=40):
            assert weitzman_value(inst) == descending_cap_simulation(inst)

    def test_closed_form_needs_no_enumeration(self):
        coin = [(0, "0.5"), (2, "0.5")]
        inst = Instance(tuple(box(coin, F(k, 24)) for k in range(24)))
        points = math.prod(len(alt.dist.atoms) for alt in inst.alternatives)
        assert points > DEFAULT_ENUMERATION_LIMIT
        assert weitzman_value(inst) == expected_max_of_dists(
            [capped_dist(alt) for alt in inst.alternatives]
        )


def weitzman_reprs():
    """The repr of ``weitzman_value``, exact and float, on ``random_corpus``
    seeds 0-9 (supports up to 6) and on the named families: tightness,
    identical_binary with p = 1/n for n = 1..12, inapprox_first_best and
    spmi_fail. Then, with probabilities that floats round: 60 instances of
    ``three_point_boxes``, and 20 of three boxes with 3, 7 and 10 atoms whose
    costs of 1 to 4 put most of a box's mass above its cap. There it is one
    atom, its probability a sum of several, so the order of that sum shows."""
    rng = random.Random(3434)
    insts = [inst for seed in range(10) for inst in random_corpus(seed, 150, support_size=6)]
    insts += [identical_binary(n, F(1, n), 1, F(1, 4 * n)) for n in range(1, 13)]
    insts += [tightness(F(1, 10)), tightness(F(1, 100)), inapprox_first_best(6), spmi_fail(3)]
    insts += [Instance(three_point_boxes(rng, 2 + k % 4)) for k in range(60)]
    boxes = []
    for j in range(60):
        parts = (3, 7, 10)[j % 3]
        weights = [F(2 * (k + 1), parts * (parts + 1)) for k in range(parts)]
        atoms = [(F((7 * j + 3 * k) % 17, 2), w) for k, w in enumerate(weights)]
        boxes.append(box(atoms, F(2 + j % 7, 2)))
    insts += [Instance(tuple(boxes[k: k + 3])) for k in range(0, 60, 3)]
    return [repr(weitzman_value(run)) for inst in insts for run in (inst, inst.to_float())]


# sha256 of the newline-joined weitzman_reprs(), recorded while weitzman_value
# still capped each box through DiscreteDistribution.transform.
WEITZMAN_SHA256 = "b7936be39d08a758fe027e9e446a04cdfdcdbe88e4d287911987a0b5efcc2c30"


def test_weitzman_values_are_pinned():
    digest = hashlib.sha256("\n".join(weitzman_reprs()).encode()).hexdigest()
    assert digest == WEITZMAN_SHA256


class TestOptimalSearch:
    def test_three_box_gap_value(self):
        eps = F(1, 100)
        value, policy = pnoi_optimal(tightness(eps))
        assert value == 3 - 3 * eps + eps * eps
        # opens a free box first
        assert policy.table[frozenset({0, 1, 2}), None] == (INSPECT, 0)

    def test_deterministic_box_is_selected_closed_despite_huge_cost(self):
        inst = Instance((box([(1, 1)], 5),))
        value, policy = pnoi_optimal(inst)
        assert value == 1
        assert policy.table[frozenset({0}), None] == (SELECT_CLOSED, 0)

    def test_two_coins_match_exhaustive_tree_enumeration(self):
        inst = Instance(tuple(box([(0, "0.5"), (2, "0.5")], "0.1") for _ in range(2)))
        value, _ = pnoi_optimal(inst)
        assert value == exhaustive_policy_optimum(inst)

    def test_matches_full_history_oracle_on_corpus(self):
        for inst in random_corpus(seed=77, count=30, max_n=3):
            assert pnoi_optimal(inst)[0] == full_history_optimal(inst)

    def test_dominates_weitzman_and_best_mean(self):
        for inst in random_corpus(seed=55, count=40):
            value, _ = pnoi_optimal(inst)
            assert value >= weitzman_value(inst)
            assert value >= max(inst.expected_values())

    def test_kernel_matches_reference_value_and_table(self):
        exact = [inst for seed in range(5) for inst in random_corpus(seed, 40, max_n=5)]
        exact += [identical_binary(n, F(1, n), 1, F(2, n)) for n in range(1, 7)]
        exact += [tightness(F(1, 100)), inapprox_first_best(6), spmi_fail(3)]
        exact.append(info_value(5, F(1, 10))[0])
        rng = random.Random(5)
        exact += [Instance(tuple(three_point_boxes(rng, n))) for n in (7, 8)]
        for _ in range(4):
            # Two twin groups among distinct boxes, in shuffled positions.
            a, b, *rest = three_point_boxes(rng, 4)
            alts = [a] * rng.randint(2, 3) + [b] * rng.randint(2, 3) + rest
            rng.shuffle(alts)
            exact.append(Instance(tuple(alts)))
        for inst in exact:
            for case in (inst, inst.to_float()):
                value, policy = pnoi_optimal(case)
                ref_value, ref_policy = pnoi_reference(case)
                assert type(value) is type(ref_value)
                assert value == ref_value
                # Without twins the restriction keeps the whole table.
                assert policy.table == twin_canonical(case, ref_policy.table)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_cap_rule_edge_cases_match_the_reference(self, mode):
        # Each case: the instance, and per box the first best value at which
        # the kernel no longer tries inspecting it (None: it always tries).
        tie = Instance(
            (box([(F(16, 5), 1)]), box([(F(12, 5), F(4, 5)), (F(17, 5), F(1, 5))], F(1, 25)))
        )
        # Box 1's cap is box 0's value 16/5, where E[(X_1 - b)+] = c_1: the
        # candidate ties and must still be tried. In float mode the shortfall
        # rounds below the cost, yet the float DP picks the inspection there.
        assert reservation_cap(tie.alternatives[1]) == F(16, 5)
        free = Instance((box(half_coin_at(0, 4)), box(half_coin_at(1, 3), F(1, 2))))
        # Box 0 costs more than its mean but has the best one: it is never
        # inspected once a value is in hand, yet the root selects it closed.
        dear = Instance((box(half_coin_at(0, 6), 4), box(half_coin_at(1, 2), F(1, 4))))
        twin = box([(0, F(1, 3)), (2, F(1, 3)), (5, F(1, 3))], F(1, 2))
        twins = Instance((twin, box(half_coin_at(1, 4), F(1, 4)), twin))
        cases = [
            (tie, [None, F(17, 5)]),
            (free, [None, 3]),
            (dear, [0, 2]),
            (twins, [4, 4, 4]),
        ]
        for inst, first_skipped in cases:
            case = inst if mode == "exact" else inst.to_float()
            value, policy = pnoi_optimal(case)
            ref_value, ref_policy = pnoi_reference(case)
            assert value == ref_value
            assert policy.table == twin_canonical(case, ref_policy.table)
            if inst is dear:
                assert policy.table[frozenset({0, 1}), None] == (SELECT_CLOSED, 0)
            cuts, bests = box_cuts(case)
            assert min(cuts) >= 1  # index 0, nothing opened, is never cut
            assert [bests[k] if k < len(bests) else None for k in cuts] == [
                v if v is None or mode == "exact" else float(v) for v in first_skipped
            ]

    def test_scaled_charge_is_d_times_the_inspection_cost(self):
        # Every opened mask, additive and monotone, exact and float. Costs in
        # tenths round as floats, so the index order of the sum shows.
        rng = random.Random(44)
        tenths = [box(half_coin, F(k, 10)) for k in (1, 2, 3, 7)]
        tenths = Instance(tuple(tenths), delegation_cost=F(1, 3))
        for k, inst in enumerate([tenths, *random_corpus(seed=8, count=40, max_n=4, cdel_max=2)]):
            if k % 2:
                inst = with_monotone_costs(rng, inst)
            for case in (inst, inst.to_float()):
                _, unit, _, _, _, _, costs, cdel = _scaled_boxes(case)
                assert cdel == unit * case.delegation_cost
                for opened in range(1 << case.n):
                    cost = inspection_cost(case, (j for j in range(case.n) if opened >> j & 1))
                    assert _charge(costs, opened) == unit * cost

    def test_cut_is_the_first_best_value_above_the_reservation_cap(self):
        for inst in random_corpus(seed=0, count=300, max_n=6):
            cuts, bests = box_cuts(inst)
            for alt, cut in zip(inst.alternatives, cuts):
                cost, mean = alt.inspect_cost, alt.dist.mean()
                if cost == 0:
                    assert cut == len(bests)
                elif cost > mean:
                    assert cut == 1
                else:
                    cap = reservation_cap(alt)
                    assert cut == next(k for k in range(1, len(bests)) if bests[k] > cap)

    def test_policy_replay_reproduces_the_value(self):
        cases = list(random_corpus(seed=42, count=25, max_n=3))
        cases += [identical_binary(20, F(1, 20), 1, F(1, 10)), inapprox_first_best(10)]
        cases.append(identical_binary(24, F(1, 24), 1, F(1, 12)))  # 2^24 points
        for inst in cases:
            value, policy = pnoi_optimal(inst)
            assert evaluate_policy(inst, policy) == value

    def test_policy_replay_matches_the_reference_runs(self):
        # Random tables and DP tables, under additive and monotone costs,
        # against walk_table_policy summed over every point of the support.
        rng = random.Random(12)
        corpus = [inst for seed in range(5) for inst in random_corpus(seed, 20, max_n=5)]
        for k, inst in enumerate(corpus):
            if k % 2:
                inst = with_monotone_costs(rng, inst)
            mech_seed = rng.random()
            for case in (inst, inst.to_float()):
                mech = random_signaling_mechanism(random.Random(mech_seed), case)
                policies = list(mech.policies.values())
                if case.cost_model.kind == "additive":
                    policies.append(pnoi_optimal(case)[1])
                for policy in policies:
                    got, want = evaluate_policy(case, policy), brute_policy_value(case, policy)
                    assert type(got) is type(want)
                    if case.mode == "exact":
                        assert got == want
                    else:
                        assert abs(got - want) <= FLOAT_TOL

    def test_stop_preferred_on_worthless_ties(self):
        inst = Instance((box([(0, 1)]),))
        value, policy = pnoi_optimal(inst)
        assert value == 0
        assert policy.table[frozenset({0}), None] == (STOP, None)

    def test_state_limit(self):
        inst = Instance(tuple(box(half_coin, "0.25") for _ in range(3)))
        with pytest.raises(StateLimitExceeded):
            pnoi_optimal(inst, state_limit=10)

    def test_state_limit_counts_twin_states(self):
        # 21 counts of unopened twins times 3 best values (none, 0, 1).
        inst = identical_binary(20, F(1, 20), 1, F(1, 10))
        with pytest.raises(StateLimitExceeded, match="63 states exceed the limit 62"):
            pnoi_optimal(inst, state_limit=62)
        assert pnoi_optimal(inst, state_limit=63)[0] == F(1, 20)

    def test_deep_search_needs_no_recursion(self):
        # 6,003 type states, 2,000 boxes deep. Opening a box costs more than
        # its mean, so the root selects a closed box.
        inst = identical_binary(2000, F(1, 2000), 1, F(1, 1000))
        value, policy = pnoi_optimal(inst)
        assert value == F(1, 2000)
        assert policy.table[frozenset(range(2000)), None] == (SELECT_CLOSED, 0)

    def test_deep_search_where_inspection_pays(self):
        # Opening pays: a run that sees only zeros opens 1,199 boxes and
        # selects the last one closed.
        inst = identical_binary(1200, F(1, 1200), 1, F(1, 120000)).to_float()
        value, policy = pnoi_optimal(inst)
        assert policy.table[frozenset(range(1200)), None] == (INSPECT, 0)
        assert policy.table[frozenset({1198, 1199}), 0.0] == (INSPECT, 1198)
        assert policy.table[frozenset({1199}), 0.0] == (SELECT_CLOSED, 1199)
        assert abs(value - inspection_only_best(inst)) <= FLOAT_TOL

    def test_deep_replay_needs_no_recursion(self):
        def chain(n):
            # Open n boxes worth 1 for sure in index order, then take the best.
            inst = Instance(tuple(box([(1, 1)]) for _ in range(n)))
            unopened = frozenset(range(n))
            table = {(unopened, None): (INSPECT, 0)}
            for j in range(1, n):
                unopened = unopened - {j - 1}
                table[(unopened, F(1))] = (INSPECT, j)
            table[(frozenset(), F(1))] = (SELECT_OPENED_BEST, None)
            return inst, PnoiPolicy(table)

        assert evaluate_policy(*chain(50)) == 1
        assert evaluate_policy(*chain(1000)) == 1
        assert evaluate_policy(*chain(4000)) == 1


class TestUpperBound:
    def test_three_box_gap_bound_dominates_the_optimum(self):
        inst = tightness(F(1, 2))
        bound = pnoi_value_upper_bound(inst)
        value, _ = pnoi_optimal(inst)
        assert bound == F(5, 2)
        assert value == F(7, 4)
        assert bound >= value

    def test_free_inspection_bound(self):
        inst = Instance((box(half_coin), box([(0, "0.5"), (3, "0.5")])))
        assert pnoi_value_upper_bound(inst) == weitzman_value(inst) + F(3, 2)

    def test_single_deterministic_free_box_doubles(self):
        inst = Instance((box([(7, 1)]),))
        assert pnoi_value_upper_bound(inst) == 14

    def test_bound_holds_on_corpus(self):
        for inst in random_corpus(seed=9, count=40):
            assert pnoi_value_upper_bound(inst) >= pnoi_optimal(inst)[0]


def test_policy_serialization_round_trip():
    inst = tightness(F(1, 10))
    value, policy = pnoi_optimal(inst)
    back = {}
    for row in policy_to_rows(policy):
        best = row["state"]["best"]
        state = (frozenset(row["state"]["unopened"]), None if best == "none" else F(best))
        back[state] = (row["action"]["kind"], row["action"].get("index"))
    assert back == policy.table
    assert evaluate_policy(inst, PnoiPolicy(back)) == value


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_dp_policies_pickle_and_copy_before_and_after_the_table_is_read(mode):
    inst = Instance(tuple(three_point_boxes(random.Random(3), 5)))
    if mode == "float":
        inst = inst.to_float()
    want = pnoi_reference(inst)[1].table
    for read_first in (False, True):
        for clone in (lambda p: pickle.loads(pickle.dumps(p)), copy.copy, copy.deepcopy):
            policy = pnoi_optimal(inst)[1]
            if read_first:
                assert policy.table == want
            back = clone(policy)
            assert back.table == want
            assert policy.table == want


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_pnoi_value_is_the_dp_value_solved_once_per_instance(mode):
    inst = Instance(tuple(three_point_boxes(random.Random(5), 4)), delegation_cost=F(1, 3))
    if mode == "float":
        inst = inst.to_float()
    value = pnoi_optimal(inst)[0]
    # pnoi_optimal neither reads nor fills the stored value, whatever its limit.
    pnoi_optimal(inst, state_limit=10**7)
    assert inst._direct is None
    assert pnoi_value(inst) == value
    assert inst._direct == value
    # The DP never reads the delegation cost; the float copy solves its own.
    assert inst.with_delegation_cost(0)._direct == value
    assert inst.to_float()._direct is None


def test_first_table_read_is_safe_across_threads():
    inst = Instance(tuple(three_point_boxes(random.Random(4), 7)))
    policy, want = pnoi_optimal(inst)[1], pnoi_optimal(inst)[1].table
    start = threading.Barrier(8)
    tables, errors = [], []

    def read():
        try:
            start.wait(timeout=10)
            tables.append(policy.table)
        except Exception as exc:  # recorded, then asserted on below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(tables) == 8
    # One build: every reader holds the same dict, equal to a fresh solve's.
    assert all(table is tables[0] for table in tables)
    assert tables[0] == want


def dp_tables_reprs():
    """The DP value, table in insertion order and replayed value, per instance.

    Exact and float, on random_corpus seeds 0-1, identical_binary n = 1..12
    (twins), tightness, inapprox_first_best and spmi_fail.
    """
    instances = [*random_corpus(seed=0, count=150), *random_corpus(seed=1, count=150)]
    instances += [identical_binary(n, F(1, n), 1, F(1, 4 * n)) for n in range(1, 13)]
    instances += [tightness(F(1, 10)), inapprox_first_best(6), spmi_fail(3)]
    out = []
    for inst in instances:
        for run in (inst, inst.to_float()):
            value, policy = pnoi_optimal(run)
            out.append(repr(value))
            out += [repr((sorted(s), best, action)) for (s, best), action in policy.table.items()]
            out.append(repr(evaluate_policy(run, policy)))
    return out


# sha256 of the newline-joined dp_tables_reprs(), recorded while the DP still
# stored int step codes and the replay keyed its layers by bit mask.
DP_TABLES_SHA256 = "a9606c053d0764cd7e1cabaa0802bf3032d2639805e23f180c874bfe40621ad0"


def test_dp_values_tables_and_replay_are_pinned():
    digest = hashlib.sha256("\n".join(dp_tables_reprs()).encode()).hexdigest()
    assert digest == DP_TABLES_SHA256


def replay_reprs():
    """The repr of ``evaluate_policy``, exact and float, on the random tables
    of ``random_signaling_mechanism`` over ``random_corpus(21, 120, max_n=5,
    cdel_max=2)`` and 60 instances of ``three_point_boxes`` (probabilities
    that floats round), every other instance under ``with_monotone_costs``."""
    rng = random.Random(3131)
    corpus = list(random_corpus(seed=21, count=120, max_n=5, cdel_max=2))
    corpus += [Instance(three_point_boxes(rng, 2 + k % 3)) for k in range(60)]
    out = []
    for k, inst in enumerate(corpus):
        if k % 2:
            inst = with_monotone_costs(rng, inst)
        mech_seed = rng.random()
        for case in (inst, inst.to_float()):
            mech = random_signaling_mechanism(random.Random(mech_seed), case)
            out += [repr(evaluate_policy(case, policy)) for policy in mech.policies.values()]
    return out


# sha256 of the newline-joined replay_reprs(), recorded while the replay still
# summed Fractions (floats in float mode) from the instance's own means and
# inspection_cost.
REPLAY_SHA256 = "610332d52b3f1144c68da52ca461975aa002dbc233aacbd5af7ec6366611195d"


def test_replays_of_random_tables_are_pinned():
    digest = hashlib.sha256("\n".join(replay_reprs()).encode()).hexdigest()
    assert digest == REPLAY_SHA256


def test_walk_table_policy_reports_outcome():
    inst = tightness(F(1, 2))
    _, policy = pnoi_optimal(inst)
    assert walk_table_policy(policy, (F(2), F(0), F(1))) == (0, frozenset({0}))


def test_evaluate_policy_raises_the_errors_of_walk_table_policy():
    inst = Instance((box(half_coin), box(half_coin)))
    messages = set()
    for table in broken_two_box_tables():
        policy = PnoiPolicy(table)
        with pytest.raises(PolicyIncomplete) as direct:
            walk_table_policy(policy, (F(0), F(0)))
        with pytest.raises(PolicyIncomplete) as swept:
            evaluate_policy(inst, policy)
        assert str(swept.value) == str(direct.value)
        messages.add(str(direct.value))
    assert "select_closed on unknown box 2" in messages
    assert "inspect on unknown box 5" in messages
    assert "inspect on opened box 0" in messages
    # A box index that is not an int names no box, even one equal to a box.
    assert "inspect on unknown box 1.0" in messages
    assert "select_closed on unknown box 1.0" in messages
    assert "inspect on unknown box True" in messages


def test_a_dp_policy_runs_on_an_instance_with_another_value_list():
    # A's policy opens the free box 0 and takes a 10, else selects box 1
    # closed. B drops box 0's 1, so every state a run on B reaches is in A's
    # table, but a value index of A names another value on B.
    a = Instance((box([(0, "1/3"), (1, "1/3"), (10, "1/3")]), box([(0, "1/2"), (6, "1/2")], 1)))
    b = Instance((box([(0, "1/2"), (10, "1/2")]), a.alternatives[1]))
    value, policy = pnoi_optimal(a)
    assert evaluate_policy(b, policy) == brute_policy_value(b, policy) == F(13, 2)
    mech = SignalingMechanism((0, 1), {0: policy, 1: pnoi_optimal(b)[1]})
    for ys in ([2, 1], [1, 1]):
        want = brute_evaluate_signaling(b, mech, ys)
        agent = deterministic_agent(ys)
        assert evaluate_signaling(b, mech, agent) == want[0]
        assert overinspection_utility(b, mech, agent) == want[2]
    # Run back on A, it reads A's values again.
    assert evaluate_policy(a, policy) == value


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_a_dp_policy_keeps_its_own_codes_after_a_foreign_run(monkeypatch, mode):
    # On B, the table compiles once; back on A, the DP's codes are read as
    # they are, and back on B the held compile is read again.
    a = Instance((box([(0, "1/3"), (1, "1/3"), (10, "1/3")]), box([(0, "1/2"), (6, "1/2")], 1)))
    b = Instance((box([(0, "1/2"), (10, "1/2")]), a.alternatives[1]))
    if mode == "float":
        a, b = a.to_float(), b.to_float()
    value, policy = pnoi_optimal(a)
    compiled = []
    compile_ = pandora._compile

    def counted(table, n, bests):
        compiled.append(bests)
        return compile_(table, n, bests)

    monkeypatch.setattr(pandora, "_compile", counted)
    got_b = evaluate_policy(b, policy)
    assert len(compiled) == 1
    assert evaluate_policy(a, policy) == value
    assert evaluate_policy(b, policy) == got_b
    assert len(compiled) == 1
    assert got_b == brute_policy_value(b, policy)
    assert value == brute_policy_value(a, policy)


def test_a_table_is_copied_read_only():
    inst = Instance((box(half_coin), box(half_coin)))
    full = frozenset({0, 1})
    source = {(full, None): (SELECT_CLOSED, 0)}
    policy = PnoiPolicy(source)
    assert evaluate_policy(inst, policy) == F(1, 2)
    # The compiled codes are the copy's: editing the caller's dict changes no run.
    source[full, None] = (STOP, None)
    assert evaluate_policy(inst, policy) == F(1, 2)
    assert policy.table == {(full, None): (SELECT_CLOSED, 0)}
    for table in (policy.table, pnoi_optimal(inst)[1].table):
        with pytest.raises(TypeError):
            table[full, None] = (STOP, None)
    back = pickle.loads(pickle.dumps(policy))
    assert type(back.__reduce__()[1][0]) is dict
    assert evaluate_policy(inst, back) == F(1, 2)
