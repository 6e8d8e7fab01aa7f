import random
from fractions import Fraction as F

import pytest

from delegatebox import InvalidParameters, instance_to_json
from delegatebox.instances import (
    _info_policy,
    gen,
    identical_binary,
    inapprox_first_best,
    info_value,
    random_corpus,
    random_instance,
    spmi_fail,
    tightness,
)
from delegatebox.delegation import build_spmi, deterministic_agent, evaluate_spmi
from delegatebox.pandora import INSPECT, SELECT_CLOSED, STOP, pnoi_optimal

from oracles import (
    _reachable_policy,
    inspection_only_best,
    random_corpus_reference,
    walk_table_policy,
)


def test_tightness_structure():
    inst = tightness(F(1, 2))
    assert inst.n == 3
    assert inst.alternatives[0].dist.atoms == ((F(0), F(1, 2)), (F(2), F(1, 2)))
    assert inst.alternatives[0].inspect_cost == 0
    assert inst.alternatives[1] == inst.alternatives[0]
    assert inst.alternatives[2].dist.atoms == ((F(1), F(1)),)
    assert inst.alternatives[2].inspect_cost == 1
    assert inst.delegation_cost == 0


def test_identical_binary_structure():
    inst = identical_binary(6, F(1, 6), 1, F(1, 3))
    assert inst.n == 6
    for alt in inst.alternatives:
        assert alt.dist.atoms == ((F(0), F(5, 6)), (F(1), F(1, 6)))
        assert alt.inspect_cost == F(1, 3)


def test_identical_binary_with_p_one_holds_a_sure_box():
    inst = identical_binary(3, 1, 2, F(1, 2))
    assert inst.n == 3
    for alt in inst.alternatives:
        assert alt.dist.atoms == ((F(2), F(1)),)
        assert alt.inspect_cost == F(1, 2)


def test_spmi_fail_structure():
    inst = spmi_fail(2)
    for alt in inst.alternatives:
        assert alt.dist.atoms == ((F(0), F(1, 2)), (F(1), F(1, 2)))
        assert alt.inspect_cost == 1


def test_info_value_mechanism_walks_everything_but_its_signal_box():
    inst, mech = info_value(4, F(1, 10))
    assert mech.signals == (0, 1, 2, 3)
    selected, inspected = walk_table_policy(mech.policies[2], (F(0), F(0), F(1), F(0)))
    assert selected == 2
    assert inspected == frozenset({0, 1, 3})
    # any other nonzero observation walks away
    selected, _ = walk_table_policy(mech.policies[2], (F(1), F(0), F(1), F(0)))
    assert selected is None


def test_info_policy_is_the_table_its_rule_reaches():
    # The rule info_value's tables were once built from, walked depth first
    # over the states it reaches.
    support = (F(0), F(1))
    for n in range(2, 13):
        for keep in range(n):
            def rule(unopened, best):
                others = sorted(unopened - {keep})
                if others:
                    return (INSPECT, others[0])
                return (SELECT_CLOSED, keep) if best == 0 else (STOP, None)

            table = _info_policy(n, keep, support).table
            assert table == _reachable_policy([support] * n, rule).table
            assert len(table) == 2 * n - 1


def test_parameter_validation():
    with pytest.raises(InvalidParameters):
        tightness(0)
    with pytest.raises(InvalidParameters):
        tightness(1)
    with pytest.raises(InvalidParameters):
        identical_binary(0, F(1, 2))
    with pytest.raises(InvalidParameters):
        identical_binary(3, 2)
    with pytest.raises(InvalidParameters):
        info_value(1, F(1, 10))
    with pytest.raises(InvalidParameters):
        gen("nonsense", {})


def test_random_instance_is_seed_deterministic():
    a = random_instance(random.Random(99), 4)
    b = random_instance(random.Random(99), 4)
    assert instance_to_json(a) == instance_to_json(b)
    c = random_instance(random.Random(100), 4)
    assert instance_to_json(a) != instance_to_json(c)


def test_random_corpus_draws_what_the_grid_sampler_drew():
    for seed in range(5):
        assert list(random_corpus(seed, 60)) == random_corpus_reference(seed, 60)
    for shape in (
        dict(max_n=3, support_size=16, value_max=40, cost_max=3, cdel_max=2),
        # Every weight 1/16 once sixteen atoms are drawn.
        dict(max_n=3, support_size=16, value_max=8),
        # The one-point grid: a point mass at 0.
        dict(max_n=3, support_size=1, value_max=0),
    ):
        assert list(random_corpus(7, 30, **shape)) == random_corpus_reference(7, 30, **shape)
    sixteenths = [
        alt.dist.atoms
        for inst in random_corpus(7, 30, max_n=3, support_size=16, value_max=8)
        for alt in inst.alternatives
        if len(alt.dist.atoms) == 16
    ]
    assert sixteenths and all(p == F(1, 16) for atoms in sixteenths for _, p in atoms)
    for inst in random_corpus(7, 30, max_n=3, support_size=1, value_max=0):
        assert all(alt.dist.atoms == ((0, 1),) for alt in inst.alternatives)


def test_random_instance_takes_no_time_in_value_max():
    # Only the drawn grid values are built, so a huge grid costs nothing.
    inst = random_instance(random.Random(1), 4, support_size=16, value_max=10**12)
    for alt in inst.alternatives:
        for v, _ in alt.dist.atoms:
            assert (2 * v).denominator == 1 and 0 <= v <= 10**12


def test_random_corpus_shapes():
    for inst in random_corpus(seed=5, count=25, max_n=4, support_size=3):
        assert 1 <= inst.n <= 4
        assert all(len(alt.dist.atoms) <= 3 for alt in inst.alternatives)
        total = sum(p for alt in inst.alternatives for _, p in alt.dist.atoms)
        assert total == inst.n  # each distribution sums to exactly 1


class TestInspectionOnlyBest:
    def test_matches_the_adaptive_optimum_on_identical_binaries(self):
        # n >= 20 needs the DP's one state per count of unopened twins.
        for n in (2, 4, 6, 10, 20, 40):
            for p, c in ((F(1, n), F(2, n)), (F(1, 4), F(1, 50)), (F(1, 2), F(1, 10))):
                inst = identical_binary(n, p, 1, c)
                assert pnoi_optimal(inst)[0] == inspection_only_best(inst)

    def test_costly_inspection_caps_at_the_blind_pick(self):
        inst = identical_binary(6, F(1, 6), 1, F(1, 3))
        assert inspection_only_best(inst) <= F(1, 6)

    def test_free_inspection_opens_everything(self):
        p = F(1, 4)
        inst = identical_binary(5, p, 1, 0)
        assert inspection_only_best(inst) == 1 - (1 - p) ** 5

    def test_zero_inspections_is_the_blind_pick(self):
        inst = identical_binary(3, F(1, 2), 1, 10)
        assert inspection_only_best(inst) == F(1, 2)

    def test_non_identical_shape_rejected(self):
        inst = tightness(F(1, 2))
        with pytest.raises(InvalidParameters, match="not identical"):
            inspection_only_best(inst)


def test_first_best_gap_all_mechanisms_stall():
    inst = inapprox_first_best(10)
    assert pnoi_optimal(inst)[0] == 1
    spmi_value = evaluate_spmi(inst, build_spmi(inst))
    assert spmi_value <= 1


def test_generator_dispatch():
    instance, mechanism = gen("tightness", {"eps": "1/4"})
    assert instance == tightness(F(1, 4))
    assert mechanism is None

    _, mechanism = gen("info_value", {"n": 3, "eps": "1/10"})
    assert mechanism is not None

    a, _ = gen("random", {"seed": 11, "n": 3})
    b, _ = gen("random", {"seed": 11, "n": 3})
    assert a == b == random_instance(random.Random(11), 3)

    assert gen("spmi_fail", {}) == (spmi_fail(2), None)  # registry defaults fill the rest

    with pytest.raises(InvalidParameters):
        gen("tightness", {"bogus": 1})
    with pytest.raises(InvalidParameters, match="random family needs seed"):
        gen("random", {"n": 3})


def test_info_value_steering_mass_formula():
    eps = F(1, 100)
    inst, mech = info_value(5, eps)
    from delegatebox.delegation import uninspected_selection_mass

    agent = deterministic_agent([5, 4, 3, 2, 1])
    mass = uninspected_selection_mass(inst, mech, agent)
    assert mass == 5 * eps * (1 - eps) ** 4
    assert mass / max(inst.expected_values()) > F(9, 10) * 5
