import hashlib
import pickle
import random
import sys
import threading
from fractions import Fraction as F
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delegatebox import (
    Alternative,
    CostModel,
    CostsNotIdentical,
    EnumerationLimitExceeded,
    Instance,
    InvalidParameters,
    NegativeValue,
    NotCostless,
    expected_of_max,
    make_distribution,
    upper_bound_costless,
    upper_bound_costly,
)
from delegatebox.core import DEFAULT_ENUMERATION_LIMIT, PolicyIncomplete, instance_from_obj
from delegatebox.delegation import (
    WORST_CASE,
    AgentProfile,
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
from delegatebox.instances import (
    identical_binary,
    info_value,
    random_corpus,
    spmi_fail,
    tightness,
)
from delegatebox.pandora import (
    INSPECT,
    PnoiPolicy,
    SELECT_CLOSED,
    SELECT_OPENED_BEST,
    STOP,
    evaluate_policy,
    pnoi_optimal,
    weitzman_value,
)
from delegatebox import SignalingMechanism, delegation, pandora
from delegatebox.bounds import COSTLY, audit

from oracles import (
    agent_best_response,
    brute_evaluate_signaling,
    brute_evaluate_spmi,
    broken_two_box_tables,
    enumerate_realizations,
    fixed_order_spmi,
    random_signaling_mechanism,
    survival_worst_case_spmi,
    walk_table_policy,
    with_monotone_costs,
)

half_coin = [(0, "0.5"), (1, "0.5")]


def box(pairs, cost=0):
    return Alternative(make_distribution(pairs), cost)


def dist(pairs):
    return make_distribution(pairs)


class TestProphetThreshold:
    # Mean-split rule: threshold = E[max]/2 over the net values, paying at
    # least half the expected max against any eligible proposer. Free boxes
    # make the net values the box values.

    def test_two_iid_coins(self):
        assert build_spmi(Instance((box(half_coin),) * 2)).threshold == F(3, 8)

    def test_point_mass(self):
        assert build_spmi(Instance((box([(5, 1)]),))).threshold == F(5, 2)

    def test_all_zero(self):
        assert build_spmi(Instance((box([(0, 1)]),) * 3)).threshold == 0

    def test_guarantee_survives_a_masking_atom(self):
        # A sure middling box plus a rare large one: a median-based split
        # would accept the middling box and forfeit the rare surplus.
        masker = dist([(1, 1)])
        rare = dist([(0, "0.6"), (100, "0.4")])
        inst = Instance((Alternative(masker), Alternative(rare)))
        spmi = build_spmi(inst)
        value = evaluate_spmi(inst, spmi)
        target = inst.expected_surplus() / 2
        assert value >= target

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_half_bound_on_random_instances(self, data):
        seed = data.draw(st.integers(0, 10**6))
        inst = next(random_corpus(seed, 1, cdel_max=1))
        spmi = build_spmi(inst)
        value = evaluate_spmi(inst, spmi)
        target = inst.expected_surplus() / 2
        assert value + inst.delegation_cost >= target


class TestEvaluateSpmi:
    def test_nothing_ever_eligible_pays_only_the_delegation_cost(self):
        base = spmi_fail(2)
        inst = Instance(base.alternatives, delegation_cost=F(1, 4))
        spmi = build_spmi(inst)
        assert spmi.threshold == 0
        assert evaluate_spmi(inst, spmi) == -F(1, 4)

    def test_identical_binary_worst_case_value(self):
        inst = identical_binary(6, F(1, 6), 1, F(1, 3))
        spmi = build_spmi(inst)
        assert spmi.threshold > 0
        value = evaluate_spmi(inst, spmi)
        assert value == (1 - F(5, 6) ** 6) * F(2, 3)
        assert value >= 1 - F(5, 6) ** 6 - F(1, 3)  # one-inspection floor

    def test_hand_enumerated_two_box_deterministic_agent(self):
        inst = Instance((box([(0, "0.5"), (3, "0.5")], 1), box([(1, "0.5"), (2, "0.5")])))
        agent = deterministic_agent([1, 2])  # prefers the second box
        value = evaluate_spmi(inst, Spmi(F(1)), agent)
        # four outcomes: nets (-1,1),(-1,2),(2,1),(2,2); proposals 1,2,1,2
        assert value == F(3, 2)
        assert value == brute_evaluate_spmi(inst, F(1), (1, 2))

    def test_worst_case_matches_enumeration_on_corpus(self):
        rng = random.Random(3)
        for inst in random_corpus(seed=13, count=40, cdel_max=1):
            threshold = F(rng.randint(0, 8), 4)
            assert evaluate_spmi(inst, Spmi(threshold)) == brute_evaluate_spmi(
                inst, threshold, "worst"
            )

    def test_fixed_agent_matches_enumeration_on_corpus(self):
        rng = random.Random(4)
        for inst in random_corpus(seed=14, count=40):
            threshold = F(rng.randint(0, 8), 4)
            ys = tuple(rng.sample(range(10, 10 + 2 * inst.n), inst.n))
            agent = deterministic_agent(ys)
            assert evaluate_spmi(inst, Spmi(threshold), agent) == brute_evaluate_spmi(
                inst, threshold, ys
            )

    def test_distributional_agent_matches_full_joint_enumeration(self):
        inst = Instance((box([(0, "0.5"), (3, "0.5")], 1), box([(1, "0.5"), (2, "0.5")])))
        y_dists = (dist([(1, "0.5"), (4, "0.5")]), dist([(2, 1)]))
        agent = distributional_agent(y_dists)
        value = evaluate_spmi(inst, Spmi(F(1)), agent)
        assert value == brute_evaluate_spmi(inst, F(1), y_dists)

    def test_float_keeps_a_net_tied_with_the_threshold(self):
        # Box 0's net 1.4 - 4/3 equals the threshold 1/15 exactly; in floats
        # it lands just below it and must still be eligible.
        obj = {"alternatives": [
            {"cost": "4/3", "support": [["1.4", "1"]]},
            {"cost": "2/3", "support": [["0.8", "1"]]},
        ]}
        inst, fl = instance_from_obj(obj), instance_from_obj(obj, "float")
        assert evaluate_spmi(inst, build_spmi(inst)) == F(1, 15)
        assert abs(evaluate_spmi(fl, build_spmi(fl)) - 1 / 15) <= 1e-9

    def test_a_float_threshold_is_read_as_its_decimal(self):
        # One free box worth 0 or 1/10: Spmi(0.1) means the threshold 1/10,
        # not the binary fraction just above it, in both modes and for every
        # agent model.
        inst = Instance((box([(0, "0.5"), ("0.1", "0.5")]),))
        agent = deterministic_agent((1,))
        for threshold in (0.1, F(1, 10)):
            assert evaluate_spmi(inst, Spmi(threshold)) == F(1, 20)
            assert evaluate_spmi(inst, Spmi(threshold), agent) == F(1, 20)
            assert evaluate_spmi(inst.to_float(), Spmi(threshold)) == 0.05

    def test_a_threshold_that_is_not_a_number_type_is_read_exactly(self):
        inst = Instance((box([(0, "0.5"), ("0.1", "0.5")]),))
        assert Spmi("0.1").threshold == F(1, 10)
        assert evaluate_spmi(inst, Spmi("0.1")) == F(1, 20)
        for bad in (True, None, "abc"):
            with pytest.raises(InvalidParameters):
                Spmi(bad)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_threshold_is_rejected(self, bad):
        # nan < 0 is False, so only a finiteness check stops a NaN threshold.
        with pytest.raises(InvalidParameters, match="finite"):
            Spmi(bad)

    def test_agent_dists_in_another_mode_are_rejected(self):
        inst = identical_binary(4, F(1, 4), 1, F(1, 8))
        fl = inst.to_float()
        y = third_agent_dist(random.Random(5))
        for instance, agent_dist in ((inst, y.to_float()), (fl, y)):
            agent = distributional_agent([agent_dist] * 4)
            with pytest.raises(InvalidParameters, match="mode"):
                evaluate_spmi(instance, build_spmi(instance), agent)

    def test_agent_ties_resolved_for_the_principal(self):
        inst = Instance((box([(2, 1)]), box([(1, 1)])))
        agent = deterministic_agent([3, 3])  # indifferent between both boxes
        assert evaluate_spmi(inst, Spmi(F(0)), agent) == 2


def grid_box(rng, size):
    """A box with exactly ``size`` atoms on the random corpus grid."""
    values = rng.sample([F(k, 2) for k in range(17)], size)
    cuts = sorted(rng.sample(range(1, 16), size - 1))
    weights = [b - a for a, b in zip([0, *cuts], [*cuts, 16])]
    atoms = [(v, F(w, 16)) for v, w in zip(values, weights)]
    return Alternative(make_distribution(atoms), F(rng.randint(0, 8), 4))


def random_agent_dists(rng, n):
    return tuple(
        dist([(rng.randint(0, 2), F(k, 4)), (rng.randint(0, 2), F(4 - k, 4))])
        for k in (rng.randint(1, 3) for _ in range(n))
    )


def third_agent_dist(rng):
    """An agent utility of 0..2 with probability 1/3 and another with 2/3."""
    return dist([(rng.randint(0, 2), F(1, 3)), (rng.randint(0, 2), F(2, 3))])


def float_spmi_reprs():
    """The repr of float ``evaluate_spmi`` values: the worst case, a
    deterministic agent and a float distributional agent, at the mean split
    and at one off-grid threshold, over ``random_corpus`` seeds 0-3 and
    ``identical_binary(n, 1/n, 1, 2/n)`` for n = 3..20."""
    rng = random.Random(2323)
    instances = [inst for seed in range(4) for inst in random_corpus(seed, 100, cdel_max=1)]
    instances += [identical_binary(n, F(1, n), 1, F(2, n)) for n in range(3, 21)]
    out = []
    for inst in instances:
        fl = inst.to_float()
        ys = [rng.randint(0, 2) for _ in range(fl.n)]
        y_dists = [third_agent_dist(rng).to_float() for _ in range(fl.n)]
        for t in (build_spmi(fl).threshold, rng.randint(0, 32) / 12):
            for agent in (WORST_CASE, deterministic_agent(ys), distributional_agent(y_dists)):
                out.append(repr(evaluate_spmi(fl, Spmi(t), agent)))
    return out


# sha256 of the newline-joined float_spmi_reprs(), recorded when the SPMI
# still ran on Fractions: the integer form keeps every float bit.
SPMI_FLOAT_SHA256 = "2b79674c7a64edbcd39ace1430efd947fa76c97a188f2b818a6c85b8fc1f608a"


class TestClosedFormSpmi:
    def test_tied_agents_match_enumeration_on_corpus(self):
        rng = random.Random(15)
        for inst in random_corpus(seed=16, count=120, cdel_max=1):
            threshold = F(rng.randint(0, 8), 4)
            ys = tuple(rng.randint(0, 1) for _ in range(inst.n))
            value = evaluate_spmi(inst, Spmi(threshold), deterministic_agent(ys))
            assert value == brute_evaluate_spmi(inst, threshold, ys)

    def test_distributional_agents_match_enumeration_on_corpus(self):
        rng = random.Random(17)
        for inst in random_corpus(seed=18, count=120, cdel_max=1):
            threshold = F(rng.randint(0, 8), 4)
            y_dists = random_agent_dists(rng, inst.n)
            value = evaluate_spmi(inst, Spmi(threshold), distributional_agent(y_dists))
            assert value == brute_evaluate_spmi(inst, threshold, y_dists)

    def test_large_grid_matches_the_rescan_oracles(self):
        rng = random.Random(19)
        inst = Instance(tuple(grid_box(rng, 8) for _ in range(200)))
        spmi = build_spmi(inst)
        assert evaluate_spmi(inst, spmi) == survival_worst_case_spmi(inst, spmi.threshold)
        ys = rng.sample(range(200), 200)
        order = sorted(range(200), key=lambda i: -ys[i])
        assert evaluate_spmi(inst, spmi, deterministic_agent(ys)) == fixed_order_spmi(
            inst, spmi.threshold, order
        )

    @pytest.mark.parametrize("n", [6, 10, 20, 50])
    def test_float_tracks_exact_on_identical_binary(self, n):
        inst = identical_binary(n, F(1, n), 1, F(2, n))
        fl = inst.to_float()
        rng = random.Random(n)
        y_dists = random_agent_dists(rng, n)
        agents = [
            (WORST_CASE, WORST_CASE),
            (deterministic_agent(range(n)),) * 2,
            (deterministic_agent([i % 3 for i in range(n)]),) * 2,
            (
                distributional_agent(y_dists),
                distributional_agent([d.to_float() for d in y_dists]),
            ),
        ]
        for exact_agent, float_agent in agents:
            exact = evaluate_spmi(inst, build_spmi(inst), exact_agent)
            approx = evaluate_spmi(fl, build_spmi(fl), float_agent)
            assert abs(float(exact) - approx) <= 1e-9

    def test_cut_off_the_grid_matches_enumeration(self):
        # The corpus nets lie on a grid of 1/4. Thresholds k/12 fall between
        # them, so the exact cut D * net >= ceil(D * t) rounds up.
        rng = random.Random(21)
        for inst in random_corpus(seed=22, count=30, max_n=3, cdel_max=1):
            nets = {
                v - alt.inspect_cost for alt in inst.alternatives for v in alt.dist.values
            }
            thresholds = {F(k, 12) for k in range(33)} | {t for t in nets if t >= 0}
            thresholds.add(build_spmi(inst).threshold)
            ys = tuple(rng.randint(0, 2) for _ in range(inst.n))
            y_dists = tuple(third_agent_dist(rng) for _ in range(inst.n))
            agents = [
                (WORST_CASE, "worst"),
                (deterministic_agent(ys), ys),
                (distributional_agent(y_dists), y_dists),
            ]
            for t in sorted(thresholds):
                for agent, oracle in agents:
                    assert evaluate_spmi(inst, Spmi(t), agent) == brute_evaluate_spmi(
                        inst, t, oracle
                    )

    def test_float_bits_are_pinned(self):
        digest = hashlib.sha256("\n".join(float_spmi_reprs()).encode()).hexdigest()
        assert digest == SPMI_FLOAT_SHA256

    def test_no_enumeration_on_a_huge_product_space(self):
        # 2^24 points, above DEFAULT_ENUMERATION_LIMIT.
        inst = Instance(tuple(box([(0, "0.5"), (F(i + 1, 8), "0.5")]) for i in range(24)))
        points = prod(len(alt.dist.atoms) for alt in inst.alternatives)
        assert points > DEFAULT_ENUMERATION_LIMIT
        spmi = Spmi(F(0))
        worst = evaluate_spmi(inst, spmi)
        tied = evaluate_spmi(inst, spmi, deterministic_agent([1] * 24))
        agent = distributional_agent([dist(half_coin)] * 24)
        between = evaluate_spmi(inst, spmi, agent)
        # Free boxes and a zero threshold: a fully tied agent hands over the max.
        assert tied == expected_of_max(inst)
        assert worst < between < tied


def test_best_closed_selection_examples():
    inst = tightness(F(1, 100))
    assert best_closed_selection(inst) == (0, 1)  # all means equal 1
    single = Instance((box([(0, "0.5"), (4, "0.5")], 1),))
    assert best_closed_selection(single) == (0, 2)
    three = Instance(
        (
            box([(F(1, 5), 1)]),
            box([(F(9, 10), 1)]),
            box([(F(9, 10), 1)]),
        )
    )
    assert best_closed_selection(three) == (1, F(9, 10))  # first argmax wins


class TestMaximalCostless:
    def test_three_box_gap_stays_closed(self):
        report = maximal_mechanism_costless(tightness(F(1, 100)))
        assert report.branch == "SelectBestClosed"
        assert report.value == 1
        assert report.components["half_max_surplus"] == F(199, 200)
        assert not report.delegated

    def test_single_deterministic_box(self):
        report = maximal_mechanism_costless(Instance((box([(10, 1)]),)))
        assert report.value == 10

    def test_identical_binary_prefers_delegation(self):
        inst = identical_binary(6, F(1, 6), 1, F(1, 3))
        report = maximal_mechanism_costless(inst)
        assert report.branch == "SPMI"
        assert report.delegated
        assert report.value >= report.components["half_max_surplus"]

    def test_rejects_costly_instances(self):
        inst = Instance((box(half_coin),), delegation_cost=1)
        with pytest.raises(NotCostless):
            maximal_mechanism_costless(inst)

    def test_monotone_set_costs_use_singletons(self):
        table = {
            frozenset(): F(0),
            frozenset({0}): F(1, 4),
            frozenset({1}): F(1, 4),
            frozenset({0, 1}): F(1, 4),  # inspect both for the price of one
        }
        inst = Instance(
            (box([(0, "0.5"), (2, "0.5")]), box([(0, "0.5"), (2, "0.5")])),
            CostModel("monotone", table),
        )
        report = maximal_mechanism_costless(inst)
        from delegatebox.bounds import upper_bound_costless

        assert 3 * report.value >= upper_bound_costless(inst)


class TestCostlyMechanism:
    def test_prohibitive_delegation_cost_runs_direct_search(self):
        inst = Instance((box(half_coin, "0.25"),), delegation_cost=100)
        report = costly_mechanism(inst)
        assert report.branch == "PnoiDirect"
        assert report.value == pnoi_optimal(inst)[0]
        assert report.components["v2"] < 0

    def test_three_box_gap_with_free_delegation_still_searches(self):
        report = costly_mechanism(tightness(F(1, 100)))
        assert report.branch == "PnoiDirect"
        assert report.value == F(29701, 10000)
        assert report.components["v2"] == F(199, 200)

    def test_quarter_surplus_delegation_cost_keeps_the_margin(self):
        base = next(random_corpus(seed=21, count=1, max_n=3))
        surplus = base.expected_surplus()
        inst = Instance(base.alternatives, base.cost_model, F(1, 4) * surplus)
        report = costly_mechanism(inst)
        assert report.value >= (F(1, 2) - F(1, 4)) * surplus

    def test_an_audit_of_the_mechanism_solves_the_dp_once(self, monkeypatch):
        # The mechanism keeps the DP value on the instance, and the audit's
        # bound reads it there.
        solve, calls = pandora.pnoi_optimal, []

        def counting(instance, *args, **kwargs):
            calls.append(instance)
            return solve(instance, *args, **kwargs)

        monkeypatch.setattr(pandora, "pnoi_optimal", counting)
        inst = tightness(F(1, 10))
        assert audit(inst, costly_mechanism(inst), COSTLY, 0).passed
        assert len(calls) == 1


class TestIdenticalCostMechanism:
    def test_free_inspection_reduces_to_the_plain_comparison(self):
        inst = Instance((box(half_coin), box([(0, "0.5"), (3, "0.5")])))
        report = identical_cost_mechanism(inst)
        want = max(max(inst.expected_values()), expected_of_max(inst) / 2)
        assert report.value >= want

    def test_unit_costs_on_the_three_box_shape(self):
        alts = (
            box([(0, "0.5"), (2, "0.5")], 1),
            box([(0, "0.5"), (2, "0.5")], 1),
            box([(1, 1)], 1),
        )
        inst = Instance(alts)
        report = identical_cost_mechanism(inst)
        # E[max X] = 7/4, so the delegation arm is worth (7/4 - 1)/2 = 3/8
        assert report.components["half_shifted_max"] == F(3, 8)
        assert report.branch == "SelectBestClosed"
        assert report.value == 1

    def test_single_box_prefers_closed_selection(self):
        inst = Instance((box(half_coin, "0.25"),))
        report = identical_cost_mechanism(inst)
        assert report.branch == "SelectBestClosed"
        assert report.value == F(1, 2)

    def test_unequal_costs_rejected(self):
        inst = Instance((box(half_coin, 1), box(half_coin, 2)))
        with pytest.raises(CostsNotIdentical):
            identical_cost_mechanism(inst)


def steering_mechanism(n):
    instance, mech = info_value(n, F(1, 100))
    return instance, mech


class TestAgentBestResponse:
    def test_steering_signal_names_the_unique_nonzero_box(self):
        inst, mech = steering_mechanism(5)
        agent = deterministic_agent([5, 4, 3, 2, 1])
        realization = (F(0), F(0), F(1), F(0), F(0))
        assert agent_best_response(inst, mech, realization, agent) == 2

    def test_indifferent_agent_takes_the_lowest_signal(self):
        inst = Instance((box(half_coin), box(half_coin)))
        stop_all = PnoiPolicy({(frozenset({0, 1}), None): (STOP, None)})
        mech = SignalingMechanism(("a", "b"), {"a": stop_all, "b": stop_all})
        agent = deterministic_agent([1, 2])
        assert agent_best_response(inst, mech, (F(1), F(1)), agent) == "a"

    def test_prefers_the_signal_that_delivers_his_favorite(self):
        inst = Instance((box([(1, 1)]), box([(1, 1)])))
        select_1 = PnoiPolicy({(frozenset({0, 1}), None): (SELECT_CLOSED, 1)})
        stop_all = PnoiPolicy({(frozenset({0, 1}), None): (STOP, None)})
        mech = SignalingMechanism((0, 1), {0: stop_all, 1: select_1})
        agent = deterministic_agent([1, 2])
        assert agent_best_response(inst, mech, (F(1), F(1)), agent) == 1


class TestEvaluateSignaling:
    def test_steering_collects_the_lone_prize_mass(self):
        eps = F(1, 100)
        inst, mech = info_value(5, eps)
        agent = deterministic_agent([5, 4, 3, 2, 1])
        mass = uninspected_selection_mass(inst, mech, agent)
        assert mass == 5 * eps * (1 - eps) ** 4
        # costs are zero, so the whole value is the steering mass
        assert evaluate_signaling(inst, mech, agent) == mass

    def test_signal_independent_mechanism_equals_direct_policy_value(self):
        inst = next(random_corpus(seed=31, count=1, max_n=3))
        _, policy = pnoi_optimal(inst)
        mech = SignalingMechanism((0, 1), {0: policy, 1: policy})
        agent = deterministic_agent(list(range(inst.n, 0, -1)))
        assert evaluate_signaling(inst, mech, agent) == evaluate_policy(inst, policy)

    def test_matches_brute_force_on_random_mechanisms(self):
        # All three sums, exact and float, against the oracle: distinct and
        # tied agents, delegation costs, and monotone cost tables whose
        # multi-box entries carry a denominator (7) that no value and no
        # singleton cost has.
        rng = random.Random(8)
        for k, inst in enumerate(random_corpus(seed=32, count=60, cdel_max=2)):
            if k % 2:
                inst = with_monotone_costs(rng, inst)
            if k % 3:
                ys = tuple(rng.randint(0, 2) for _ in range(inst.n))
            else:
                ys = tuple(rng.sample(range(1, 1 + 2 * inst.n), inst.n))
            agent = deterministic_agent(ys)
            mech_seed = rng.random()
            for case in (inst, inst.to_float()):
                mech = random_signaling_mechanism(random.Random(mech_seed), case)
                got = tuple(
                    fn(case, mech, agent)
                    for fn in (
                        evaluate_signaling,
                        uninspected_selection_mass,
                        overinspection_utility,
                    )
                )
                want = brute_evaluate_signaling(case, mech, ys)
                assert [type(x) for x in got] == [type(x) for x in want]
                assert got == want

    def test_limit_is_checked_before_any_policy_runs(self):
        inst = Instance(tuple(box(half_coin) for _ in range(4)))  # 16 points
        empty = PnoiPolicy({})  # running it raises PolicyIncomplete
        agent = deterministic_agent([1, 2, 3, 4])
        with pytest.raises(EnumerationLimitExceeded):
            mech = SignalingMechanism((0,), {0: empty})
            evaluate_signaling(inst, mech, agent, limit=15)
        take_0 = PnoiPolicy({(frozenset(range(4)), None): (SELECT_CLOSED, 0)})
        mech = SignalingMechanism((0,), {0: take_0})
        assert evaluate_signaling(inst, mech, agent, limit=16) == F(1, 2)

    def test_empty_signal_set_is_rejected(self):
        with pytest.raises(InvalidParameters):
            SignalingMechanism((), {})

    def test_raises_the_errors_of_walk_table_policy(self):
        # Each broken table, as the one signal of a mechanism, fails as the
        # reference executor does.
        inst = Instance((box(half_coin), box(half_coin)))
        for table in broken_two_box_tables():
            policy = PnoiPolicy(table)
            with pytest.raises(PolicyIncomplete) as direct:
                walk_table_policy(policy, (F(0), F(0)))
            mech = SignalingMechanism((0,), {0: policy})
            with pytest.raises(PolicyIncomplete) as swept:
                evaluate_signaling(inst, mech, deterministic_agent([1, 2]))
            assert str(swept.value) == str(direct.value)

    def test_broken_entries_no_run_reaches_raise_nothing(self):
        # Each broken action sits below a root that selects box 0 closed, and
        # one more entry names a box the instance lacks.
        inst = Instance((box(half_coin), box(half_coin)))
        full, rest = frozenset({0, 1}), frozenset({1})
        for table in broken_two_box_tables():
            for action in table.values():
                policy = PnoiPolicy(
                    {
                        (full, None): (SELECT_CLOSED, 0),
                        **{(rest, v): action for v in (F(0), F(1))},
                        (frozenset({0, 1, 2}), None): action,
                    }
                )
                assert evaluate_policy(inst, policy) == F(1, 2)
                mech = SignalingMechanism((0,), {0: policy})
                assert evaluate_signaling(inst, mech, deterministic_agent([1, 2])) == F(1, 2)

    def test_a_signal_broken_below_its_root_still_raises(self):
        inst = Instance((box(half_coin), box(half_coin)))
        full = frozenset({0, 1})
        take_0 = PnoiPolicy({(full, None): (SELECT_CLOSED, 0)})
        open_0 = PnoiPolicy({(full, None): (INSPECT, 0)})
        mech = SignalingMechanism((0, 1), {0: take_0, 1: open_0})
        with pytest.raises(PolicyIncomplete, match=r"unopened=\[1\], best=0"):
            evaluate_signaling(inst, mech, deterministic_agent([2, 1]))


SWEEPS = (evaluate_signaling, uninspected_selection_mass, overinspection_utility)


def count_sweeps(monkeypatch) -> list:
    """Patch ``delegation._policy_sweep`` to record the instance of each sweep."""
    calls = []
    sweep = delegation._policy_sweep

    def counted(instance, *args):
        calls.append(instance)
        return sweep(instance, *args)

    monkeypatch.setattr(delegation, "_policy_sweep", counted)
    return calls


def as_mode(instance, mode):
    return instance if mode == "exact" else instance.to_float()


class TestOneSweepPerTriple:
    """The three sweep questions on one (instance, mechanism, agent) share one
    sweep, held on the mechanism."""

    def setup_method(self):
        first, last = box([(0, "1/3"), (2, "1/3"), (5, "1/3")], F(1, 2)), box(half_coin, F(1, 4))
        self.inst = Instance((first, box([(1, "1/4"), (4, "3/4")], 1), last), delegation_cost=F(1, 5))
        # The same values, so the mechanism's tables cover it, on other weights.
        self.other = Instance((first, box([(1, "1/2"), (4, "1/2")], 1), last))
        self.mech_seed = 7

    def mech_for(self, inst):
        return random_signaling_mechanism(random.Random(self.mech_seed), inst)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_three_questions_run_one_sweep(self, monkeypatch, mode):
        calls = count_sweeps(monkeypatch)
        inst = as_mode(self.inst, mode)
        mech = self.mech_for(inst)
        for ys in ((3, 1, 2), (1, 1, 0)):
            want = brute_evaluate_signaling(inst, mech, ys)
            got = tuple(fn(inst, mech, deterministic_agent(ys)) for fn in SWEEPS)
            assert [type(x) for x in got] == [type(x) for x in want]
            assert got == want
            # Asked again, by a new agent with equal utilities, nothing sweeps.
            assert tuple(fn(inst, mech, deterministic_agent(list(ys))) for fn in SWEEPS) == want
        assert len(calls) == 2

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_another_agent_or_instance_sweeps_again(self, monkeypatch, mode):
        calls = count_sweeps(monkeypatch)
        inst = as_mode(self.inst, mode)
        mech = self.mech_for(inst)
        # An equal copy is another instance: the held result is keyed by identity.
        copy = Instance(inst.alternatives, inst.cost_model, inst.delegation_cost)
        cases = (inst, inst, as_mode(self.other, mode), inst, copy, inst.with_delegation_cost(1))
        steps = list(zip(cases, [(3, 1, 2), *[(1, 2, 3)] * 5]))
        for k, (case, ys) in enumerate(steps, 1):
            got = tuple(fn(case, mech, deterministic_agent(ys)) for fn in SWEEPS)
            assert got == brute_evaluate_signaling(case, mech, ys)
            assert calls == [case for case, _ in steps[:k]]

    def test_a_float_copy_starts_with_nothing_held(self, monkeypatch):
        calls = count_sweeps(monkeypatch)
        mech = self.mech_for(self.inst)
        agent = deterministic_agent((3, 1, 2))
        evaluate_signaling(self.inst, mech, agent)
        flt = self.inst.to_float()
        got = tuple(fn(flt, mech, agent) for fn in SWEEPS)
        assert got == brute_evaluate_signaling(flt, mech, agent.utilities)
        assert all(type(x) is float for x in got)
        assert calls == [self.inst, flt]

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_a_smaller_limit_raises_after_a_held_sweep(self, monkeypatch, mode):
        calls = count_sweeps(monkeypatch)
        inst = as_mode(Instance(tuple(box(half_coin) for _ in range(4))), mode)  # 16 points
        take_0 = PnoiPolicy({(frozenset(range(4)), None): (SELECT_CLOSED, 0)})
        mech = SignalingMechanism((0,), {0: take_0})
        agent = deterministic_agent([1, 2, 3, 4])
        assert evaluate_signaling(inst, mech, agent) == 0.5
        for fn in SWEEPS:
            with pytest.raises(EnumerationLimitExceeded):
                fn(inst, mech, agent, limit=15)
        assert uninspected_selection_mass(inst, mech, agent, limit=16) == 0.5
        assert len(calls) == 1

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_an_error_is_never_held(self, monkeypatch, mode):
        calls = count_sweeps(monkeypatch)
        inst = as_mode(Instance((box(half_coin), box(half_coin))), mode)
        full = frozenset({0, 1})
        open_0 = PnoiPolicy({(full, None): (INSPECT, 0)})  # no action after it
        mech = SignalingMechanism((0,), {0: open_0})
        agent = deterministic_agent([1, 2])
        for fn in SWEEPS:
            with pytest.raises(PolicyIncomplete, match=r"unopened=\[1\]"):
                fn(inst, mech, agent)
        assert len(calls) == 3
        assert mech._held is None

    def test_threads_sharing_a_mechanism_get_their_own_sums(self):
        # Threads asking for different agents and instances replace the held
        # result under each other; every answer must still be its own triple's.
        mech = self.mech_for(self.inst)
        cases = [(inst, ys) for inst in (self.inst, self.other) for ys in ((3, 1, 2), (1, 2, 3))]
        want = {k: brute_evaluate_signaling(inst, mech, ys) for k, (inst, ys) in enumerate(cases)}
        start = threading.Barrier(8)
        wrong, errors = [], []

        def ask(k):
            inst, ys = cases[k % len(cases)]
            try:
                start.wait(timeout=10)
                for _ in range(20):
                    got = tuple(fn(inst, mech, deterministic_agent(ys)) for fn in SWEEPS)
                    if got != want[k % len(cases)]:
                        wrong.append((k, got))
            except Exception as exc:  # recorded, then asserted on below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=ask, args=(k,)) for k in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and wrong == []


class TestMechanismInputsAreReadOnly:
    def setup_method(self):
        self.inst = Instance((box(half_coin), box(half_coin)))
        full = frozenset({0, 1})
        self.take_0 = PnoiPolicy({(full, None): (SELECT_CLOSED, 0)})
        self.stop = PnoiPolicy({(full, None): (STOP, None)})

    def test_policies_cannot_be_reassigned(self):
        mech = SignalingMechanism((0,), {0: self.take_0})
        with pytest.raises(TypeError):
            mech.policies[0] = self.stop

    def test_editing_the_callers_dict_changes_no_result(self):
        source = {0: self.take_0}
        mech = SignalingMechanism((0,), source)
        agent = deterministic_agent([1, 2])
        assert evaluate_signaling(self.inst, mech, agent) == F(1, 2)
        source[0] = self.stop
        assert mech.policies[0] is self.take_0
        again = Instance(self.inst.alternatives)  # another instance, so it sweeps again
        assert evaluate_signaling(again, mech, agent) == F(1, 2)

    def test_a_mechanism_pickles(self):
        inst, mech = info_value(4, F(1, 10))
        agent = deterministic_agent([4, 3, 2, 1])
        want = tuple(fn(inst, mech, agent) for fn in SWEEPS)
        back = pickle.loads(pickle.dumps(mech))
        assert back._held is None
        assert back.signals == mech.signals
        assert {s: p.table for s, p in back.policies.items()} == {
            s: p.table for s, p in mech.policies.items()
        }
        assert tuple(fn(inst, back, agent) for fn in SWEEPS) == want

    def test_agent_utilities_and_dists_are_tuples(self):
        assert AgentProfile(utilities=[2, 1]).utilities == (2, 1)
        ys = [2, 1]
        agent = deterministic_agent(ys)
        ys[0] = 0
        assert agent.utilities == (2, 1)
        assert AgentProfile(dists=[dist(half_coin)]).dists == (dist(half_coin),)
        assert hash(agent) == hash(deterministic_agent((2, 1)))


def signaling_sweep_reprs(max_info_n=12):
    """The repr of the three sweep sums, exact and float: random mechanisms
    on ``random_corpus(34, 120, cdel_max=2)``, every other instance under
    monotone costs, and ``info_value(n, 1/10)`` for n = 2..max_info_n, each
    against a tied and a distinct agent."""
    rng = random.Random(2525)
    cases = []
    for k, inst in enumerate(random_corpus(seed=34, count=120, cdel_max=2)):
        if k % 2:
            inst = with_monotone_costs(rng, inst)
        mech_seed = rng.random()
        agents = (
            tuple(rng.randint(0, 2) for _ in range(inst.n)),
            tuple(rng.sample(range(1, 1 + 2 * inst.n), inst.n)),
        )
        for case in (inst, inst.to_float()):
            cases.append((case, random_signaling_mechanism(random.Random(mech_seed), case), agents))
    for n in range(2, max_info_n + 1):
        inst, mech = info_value(n, F(1, 10))
        agents = (tuple(range(n, 0, -1)), tuple(k // 2 for k in range(n)))
        cases += [(inst, mech, agents), (inst.to_float(), mech, agents)]
    return [
        repr(tuple(fn(case, mech, deterministic_agent(ys)) for fn in SWEEPS))
        for case, mech, agents in cases
        for ys in agents
    ]


# sha256 of the newline-joined signaling_sweep_reprs(), recorded when the
# sweep still walked every signal's table from the root at every point.
SIGNALING_SWEEP_SHA256 = "92daf670aeb013878d62939ec0ed29754b64a328d6c1108e854db3c3142755c8"


class TestSignalingSweepPin:
    def test_sums_are_pinned(self):
        digest = hashlib.sha256("\n".join(signaling_sweep_reprs()).encode()).hexdigest()
        assert digest == SIGNALING_SWEEP_SHA256

    @pytest.mark.parametrize("block", [1, 2, 5])
    def test_block_size_changes_no_bit(self, monkeypatch, block):
        want = signaling_sweep_reprs(max_info_n=6)
        monkeypatch.setattr(pandora, "_BLOCK", block)
        assert signaling_sweep_reprs(max_info_n=6) == want


class TestAgentSize:
    """An agent must rank exactly the instance's alternatives."""

    def setup_method(self):
        self.inst, self.mech = info_value(3, F(1, 10))

    def test_signaling_rejects_a_deterministic_agent_of_the_wrong_length(self):
        for ys in ([1, 2], [1, 2, 3, 4]):
            with pytest.raises(InvalidParameters):
                evaluate_signaling(self.inst, self.mech, deterministic_agent(ys))

    def test_spmi_rejects_a_deterministic_agent_of_the_wrong_length(self):
        spmi = build_spmi(self.inst)
        for ys in ([1, 2], [1, 2, 3, 4]):
            with pytest.raises(InvalidParameters):
                evaluate_spmi(self.inst, spmi, deterministic_agent(ys))

    def test_spmi_rejects_a_distributional_agent_of_the_wrong_length(self):
        spmi = build_spmi(self.inst)
        for count in (2, 4):
            agent = distributional_agent([dist(half_coin)] * count)
            with pytest.raises(InvalidParameters):
                evaluate_spmi(self.inst, spmi, agent)


class TestAgentUtilities:
    """A NaN utility ranks no box against another, so nothing may be evaluated on it.

    A utility that is not an int, float or Fraction is read as an exact number,
    so a str ranks by its number and a bool or None is rejected.
    """

    def test_spmi_ranks_a_str_utility_by_its_number(self):
        # Both free boxes are eligible at threshold 1 when they show 1 and 3.
        inst = Instance((box([(0, "0.5"), (1, "0.5")]), box([(0, "0.5"), (3, "0.5")])))
        for ys, value in (([10, 9], F(5, 4)), ([9, 10], F(7, 4))):
            strs = [str(y) for y in ys]
            assert deterministic_agent(strs).utilities == tuple(ys)
            assert evaluate_spmi(inst, Spmi(F(1)), deterministic_agent(strs)) == value
            assert evaluate_spmi(inst, Spmi(F(1)), deterministic_agent(ys)) == value

    def test_signaling_ranks_a_str_utility_by_its_number(self):
        inst, mech = info_value(2, F(1, 10))
        want = evaluate_signaling(inst, mech, deterministic_agent([2, 1]))
        assert evaluate_signaling(inst, mech, deterministic_agent(["2", "1"])) == want

    @pytest.mark.parametrize(
        "ys, at", [([True, False], 0), ([None, 1], 0), ([1, "abc"], 1)], ids=["bool", "none", "str"]
    )
    def test_a_utility_that_is_not_a_number_is_rejected(self, ys, at):
        with pytest.raises(InvalidParameters, match=f"agent utility {at}"):
            deterministic_agent(ys)

    @pytest.mark.parametrize("at", [0, 1])
    def test_spmi_rejects_a_nan_utility(self, at):
        # Both boxes are eligible at threshold 1; a NaN used to pick one arbitrarily.
        inst = Instance((box([(0, "0.5"), (3, "0.5")]), box([(1, "0.5"), (2, "0.5")])))
        ys = [1, 1]
        ys[at] = float("nan")
        with pytest.raises(InvalidParameters, match=f"agent utility {at} is NaN"):
            evaluate_spmi(inst, Spmi(1), deterministic_agent(ys))

    @pytest.mark.parametrize("at", [0, 2])
    def test_signaling_rejects_a_nan_utility(self, at):
        inst, mech = info_value(3, F(1, 10))
        ys = [1, 2, 3]
        ys[at] = float("nan")
        with pytest.raises(InvalidParameters, match=f"agent utility {at} is NaN"):
            evaluate_signaling(inst, mech, deterministic_agent(ys))


def _signaling_with_a_distributional_agent():
    inst, mech = info_value(3, F(1, 10))
    return evaluate_signaling(inst, mech, distributional_agent([dist(half_coin)] * 3))


# Each input check of this module that no other test reaches, and the error it
# documents.
INPUT_ERRORS = {
    "agent_with_both_fields": (
        lambda: AgentProfile(utilities=(1,), dists=(dist(half_coin),)), InvalidParameters
    ),
    "agent_with_neither_field": (lambda: AgentProfile(), InvalidParameters),
    "negative_spmi_threshold": (lambda: Spmi(-1), NegativeValue),
    "signal_without_a_policy": (lambda: SignalingMechanism((0, 1), {0: None}), InvalidParameters),
    "identical_costs_with_a_delegation_cost": (
        lambda: identical_cost_mechanism(Instance((box(half_coin, 1),), delegation_cost=1)),
        NotCostless,
    ),
    "signaling_with_a_distributional_agent": (
        _signaling_with_a_distributional_agent, InvalidParameters
    ),
}


@pytest.mark.parametrize("name", INPUT_ERRORS)
def test_each_input_check_raises_its_documented_error(name):
    call, error = INPUT_ERRORS[name]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error


def inspect_all_then_take_best(n, supports):
    table = {}

    def fill(unopened, best):
        if (unopened, best) in table:
            return
        if unopened:
            j = min(unopened)
            table[(unopened, best)] = (INSPECT, j)
            for v in supports[j]:
                nxt = v if best is None or v > best else best
                fill(unopened - {j}, nxt)
        else:
            table[(unopened, best)] = (SELECT_OPENED_BEST, None)

    fill(frozenset(range(n)), None)
    return PnoiPolicy(table)


class TestOverinspection:
    def test_inspect_everything_counts_nothing_under_equal_costs(self):
        inst = Instance((box(half_coin, 1), box(half_coin, 1)))
        supports = [alt.dist.values for alt in inst.alternatives]
        policy = inspect_all_then_take_best(2, supports)
        mech = SignalingMechanism((0,), {0: policy})
        agent = deterministic_agent([2, 1])
        assert overinspection_utility(inst, mech, agent) == 0

    def test_blind_selection_with_rising_costs_counts_fully(self):
        inst = Instance((box(half_coin, 1), box(half_coin, 2)))
        policy = PnoiPolicy({(frozenset({0, 1}), None): (SELECT_CLOSED, 0)})
        mech = SignalingMechanism((0,), {0: policy})
        agent = deterministic_agent([2, 1])
        assert overinspection_utility(inst, mech, agent) == F(1, 2)

    def test_steering_family_stays_under_the_best_mean(self):
        inst, mech = steering_mechanism(5)
        agent = cost_ordered_adversary(inst)
        assert overinspection_utility(inst, mech, agent) <= max(inst.expected_values())

    def test_random_mechanisms_stay_under_the_best_mean(self):
        rng = random.Random(12)
        for inst in random_corpus(seed=33, count=30, max_n=3):
            mech = random_signaling_mechanism(rng, inst)
            agent = cost_ordered_adversary(inst)
            assert overinspection_utility(inst, mech, agent) <= max(
                inst.expected_values()
            )


def test_cost_ordered_adversary_prefers_cheap_inspections():
    inst = Instance((box(half_coin, 2), box(half_coin, 1), box(half_coin, 1)))
    agent = cost_ordered_adversary(inst)
    y = agent.utilities
    assert y[1] > y[2] > y[0]  # cheap boxes first, index breaks the tie


def test_best_response_is_a_true_argmax():
    def agent_gain(policy, values):
        selected, _ = walk_table_policy(policy, values)
        return ys[selected] if selected is not None else 0

    rng = random.Random(44)
    for inst in random_corpus(seed=45, count=15, max_n=3):
        mech = random_signaling_mechanism(rng, inst)
        ys = tuple(rng.sample(range(1, 1 + 2 * inst.n), inst.n))
        agent = deterministic_agent(ys)
        for values, _ in enumerate_realizations(inst):
            chosen = agent_best_response(inst, mech, values, agent)
            got = agent_gain(mech.policies[chosen], values)
            for sig in mech.signals:
                assert agent_gain(mech.policies[sig], values) <= got


def test_float_mode_tracks_exact_mode():
    for inst in random_corpus(seed=46, count=20, cdel_max=1):
        fl = inst.to_float()
        spmi = build_spmi(inst)
        spmi_fl = build_spmi(fl)
        assert abs(float(spmi.threshold) - spmi_fl.threshold) <= 1e-9
        exact = evaluate_spmi(inst, spmi)
        approx = evaluate_spmi(fl, spmi_fl)
        assert abs(float(exact) - approx) <= 1e-9
        assert abs(float(pnoi_optimal(inst)[0]) - pnoi_optimal(fl)[0]) <= 1e-9


NON_DYADIC_PROBS = (3, 5, 6, 7, 9, 10, 15)  # denominators
NON_DYADIC_VALUES = (3, 5, 7)  # denominators of values and costs


def non_dyadic_instance(rng) -> Instance:
    """n <= 4 boxes of support <= 3 on a grid that floats cannot hold exactly."""
    alternatives = []
    for _ in range(rng.randint(1, 4)):
        q = rng.choice(NON_DYADIC_PROBS)
        size = rng.randint(1, 3)
        cuts = sorted(rng.sample(range(1, q), size - 1))
        weights = [b - a for a, b in zip([0, *cuts], [*cuts, q])]
        values = set()
        while len(values) < size:
            d = rng.choice(NON_DYADIC_VALUES)
            values.add(F(rng.randint(0, 4 * d), d))
        atoms = [(v, F(w, q)) for v, w in zip(sorted(values), weights)]
        d = rng.choice(NON_DYADIC_VALUES)
        alternatives.append(Alternative(make_distribution(atoms), F(rng.randint(0, 2 * d), d)))
    d = rng.choice(NON_DYADIC_VALUES)
    return Instance(tuple(alternatives), delegation_cost=F(rng.randint(0, d), d))


# Per composed mechanism: the component its SPMI branch is chosen on, and the
# component holding the value of its other branch.
BRANCH_COMPONENTS = {
    maximal_mechanism_costless: ("half_max_surplus", "best_closed_value"),
    costly_mechanism: ("v2", "v1"),
    identical_cost_mechanism: ("half_shifted_max", "best_closed_value"),
}


def assert_float_branch_agrees(mechanism, inst):
    exact, approx = mechanism(inst), mechanism(inst.to_float())
    if approx.branch == exact.branch:
        assert abs(approx.value - exact.value) <= 1e-9
        return
    # Rounding may flip the branch only on a tie, and then float's value must
    # be the exact value of the branch it took.
    spmi_key, other_key = BRANCH_COMPONENTS[mechanism]
    assert abs(exact.components[spmi_key] - exact.components[other_key]) <= 1e-9
    if approx.branch == "SPMI":
        took = evaluate_spmi(inst, build_spmi(inst))
    else:
        took = exact.components[other_key]
    assert abs(approx.value - took) <= 1e-9


def test_float_agrees_with_exact_on_non_dyadic_instances():
    rng = random.Random(47)
    for _ in range(300):
        inst = non_dyadic_instance(rng)
        fl = inst.to_float()
        for evaluate in (
            lambda i: pnoi_optimal(i)[0],
            weitzman_value,
            lambda i: evaluate_spmi(i, build_spmi(i)),
            upper_bound_costless,
            upper_bound_costly,
        ):
            assert abs(evaluate(fl) - evaluate(inst)) <= 1e-9
        costless = Instance(inst.alternatives)
        common = Instance(tuple(Alternative(a.dist, inst.alternatives[0].inspect_cost)
                                for a in inst.alternatives))
        assert_float_branch_agrees(maximal_mechanism_costless, costless)
        assert_float_branch_agrees(costly_mechanism, inst)
        assert_float_branch_agrees(identical_cost_mechanism, common)
