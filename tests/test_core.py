import ast
import pickle
import random
import sys
import threading
from itertools import combinations, permutations
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delegatebox import (
    Alternative,
    CostModel,
    EmptySupport,
    Instance,
    InvalidParameters,
    NegativeValue,
    ProbabilitySumMismatch,
    expected_of_max,
    instance_digest,
    instance_from_json,
    instance_to_json,
    make_distribution,
    pnoi_value,
    weitzman_value,
)
from delegatebox.core import (
    DiscreteDistribution,
    as_number,
    expected_max_of_dists,
    format_number,
    instance_from_obj,
)
from delegatebox import core, instances
from delegatebox.instances import identical_binary, random_corpus

from oracles import (
    brute_expected_of_max,
    capped_dist,
    cdf_product_expected_max,
    dict_merged_atoms,
    format_number_reference,
    inspection_cost,
    instance_json_reference,
    mean_reference,
    surplus_dists,
    with_monotone_costs,
)


def box(pairs, cost=0):
    return Alternative(make_distribution(pairs), cost)


def test_make_distribution_two_point():
    d = make_distribution([(0, "0.5"), (1, "0.5")])
    assert d.atoms == ((F(0), F(1, 2)), (F(1), F(1, 2)))


def test_make_distribution_point_mass():
    d = make_distribution([(1, 1)])
    assert d.atoms == ((F(1), F(1)),)
    assert d.mean() == 1


def test_make_distribution_merges_duplicates():
    d = make_distribution([(0, "0.3"), (0, "0.2"), (2, "0.5")])
    assert d.atoms == ((F(0), F(1, 2)), (F(2), F(1, 2)))


def test_make_distribution_drops_zero_probability_atoms():
    d = make_distribution([(1, 1), (5, 0)])
    assert d.values == (F(1),)


def test_make_distribution_errors():
    with pytest.raises(NegativeValue):
        make_distribution([(-1, 1)])
    with pytest.raises(ProbabilitySumMismatch):
        make_distribution([(0, "0.5"), (1, "0.6")])
    with pytest.raises(EmptySupport):
        make_distribution([])
    with pytest.raises(ProbabilitySumMismatch):
        make_distribution([(0, "-0.5"), (1, "1.5")])


def test_expected_value_examples():
    assert make_distribution([(10, "0.1"), (0, "0.9")]).mean() == 1
    assert make_distribution([(0, "0.25"), (2, "0.75")]).mean() == F(3, 2)


def assert_mean_is_the_atom_order_sum(dist):
    assert_same_number(dist.mean(), mean_reference(dist))


@pytest.mark.parametrize("seed", range(5))
def test_mean_is_the_atom_order_sum_on_corpus(seed):
    for inst in random_corpus(seed, 40, max_n=5):
        for alt in inst.alternatives:
            assert_mean_is_the_atom_order_sum(alt.dist)
            assert_mean_is_the_atom_order_sum(alt.dist.to_float())


def test_mean_is_the_atom_order_sum_on_non_dyadic_boxes():
    rng = random.Random(5)
    dists = []
    for n in range(1, 13):
        values = [F(rng.randint(0, 40), rng.choice((1, 3, 5, 7, 15))) for _ in range(n)]
        dists.append(make_distribution([(v, F(1, n)) for v in values]))
        weights = [rng.randint(1, 9) for _ in range(n)]
        dists.append(make_distribution([(v, F(w, sum(weights))) for v, w in zip(values, weights)]))
    dists.append(make_distribution([(F(1, 3), F(1, 3)), (F(2, 5), F(2, 5)), (F(7, 5), F(4, 15))]))
    for dist in dists:
        assert_mean_is_the_atom_order_sum(dist)
        assert_mean_is_the_atom_order_sum(dist.to_float())


def test_float_mean_keeps_its_bits_on_every_python():
    # sum() compensates float rounding from Python 3.12 on: there it gave
    # 2.4555555555555553 for this box, against ...57 on 3.10 and 3.11.
    support = [["1/2", "1/9"], ["17/10", "4/9"], ["37/10", "4/9"]]
    obj = {"alternatives": [{"support": support, "cost": 1}]}
    for inst in (instance_from_obj(obj, "float"), instance_from_obj(obj).to_float()):
        assert inst.alternatives[0].dist.mean() == 2.4555555555555557


def test_expected_of_max_single_alternative_is_mean():
    inst = Instance((box([(0, "0.25"), (2, "0.75")]),))
    assert expected_of_max(inst) == F(3, 2)


def test_expected_of_max_three_uniform_dice():
    third = F(1, 3)
    alts = tuple(box([(0, third), (1, third), (2, third)]) for _ in range(3))
    inst = Instance(alts)
    oracle = brute_expected_of_max(inst)
    assert oracle == F(5, 3)  # 27-outcome enumeration
    assert expected_of_max(inst) == oracle


def test_expected_surplus_on_three_box_gap():
    # two clean boxes worth 2 w.p. 1/2, one sure box whose cost eats it
    alts = (
        box([(0, "0.5"), (2, "0.5")]),
        box([(0, "0.5"), (2, "0.5")]),
        box([(1, 1)], 1),
    )
    inst = Instance(alts)
    assert inst.expected_surplus() == F(3, 2)


def test_expected_surplus_matches_brute_force_with_costs():
    alts = (
        box([(0, "0.5"), (3, "0.5")], 1),
        box([(1, "0.25"), (2, "0.75")], "0.5"),
    )
    inst = Instance(alts)
    costs = inst.singleton_costs()
    want = brute_expected_of_max(inst, lambda i, v: max(v - costs[i], F(0)))
    assert inst.expected_surplus() == want


def _two_costly_boxes(mode="exact"):
    inst = Instance(
        (box([(0, "0.5"), (3, "0.5")], 1), box([(1, "0.25"), (2, "0.75")], "0.5")),
        delegation_cost="0.25",
    )
    return inst if mode == "exact" else inst.to_float()


def test_each_reader_fills_its_own_moment():
    inst = _two_costly_boxes()
    costs = inst.singleton_costs()
    want_max = brute_expected_of_max(inst)
    want_surplus = brute_expected_of_max(inst, lambda i, v: max(v - costs[i], F(0)))
    assert want_max != want_surplus
    assert expected_of_max(inst) == want_max
    assert inst.expected_surplus() == want_surplus
    assert expected_of_max(inst) == want_max
    assert inst.expected_values() == (F(3, 2), F(7, 4))


def _moment_instances() -> list[Instance]:
    insts = [inst for seed in range(4) for inst in random_corpus(seed, 30)]
    insts += [
        identical_binary(6, F(1, 6), 1, F(1, 3)),
        identical_binary(7, F(2, 7), F(5, 3), F(1, 7)),
        instances.tightness(F(1, 100)),
        instances.inapprox_first_best(5),
        instances.info_value(4, F(1, 100))[0],
        instances.spmi_fail(3),
    ]
    insts.append(with_monotone_costs(random.Random(3), insts[0]))
    return insts


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_filled_means_and_surplus_equal_each_kernel(mode):
    for k, inst in enumerate(_moment_instances()):
        inst = inst if mode == "exact" else inst.to_float()
        want_means = [mean_reference(alt.dist) for alt in inst.alternatives]
        clipped = surplus_dists(inst)
        want_surplus = expected_max_of_dists(clipped)
        assert_same_number(want_surplus, cdf_product_expected_max(clipped))
        # Either moment may be asked for first; both are filled by then.
        if k % 2:
            surplus, means = inst.expected_surplus(), inst.expected_values()
        else:
            means, surplus = inst.expected_values(), inst.expected_surplus()
        assert len(means) == inst.n
        for alt, got, want in zip(inst.alternatives, means, want_means):
            assert_same_number(got, want)
            assert_same_number(alt.dist.mean(), want)
        assert_same_number(surplus, want_surplus)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_filled_moments_leave_equality_repr_json_and_pickling_alone(mode):
    fresh, filled = _two_costly_boxes(mode), _two_costly_boxes(mode)
    moments = (
        filled.expected_values(),
        expected_of_max(filled),
        filled.expected_surplus(),
        pnoi_value(filled),
    )
    assert filled == fresh
    assert hash(filled) == hash(fresh)
    assert repr(filled) == repr(fresh)
    assert instance_to_json(filled) == instance_to_json(fresh)
    for inst in (fresh, filled):
        back = pickle.loads(pickle.dumps(inst))
        assert back == inst
        assert back.mode == mode
        assert (
            back.expected_values(),
            expected_of_max(back),
            back.expected_surplus(),
            pnoi_value(back),
        ) == moments


def test_value_classes_have_no_instance_dict():
    inst = _two_costly_boxes()
    for obj in (inst, inst.alternatives[0], inst.alternatives[0].dist):
        assert not hasattr(obj, "__dict__")
    with pytest.raises(AttributeError):
        inst.mode = "float"


small_prob_weights = st.lists(st.integers(1, 8), min_size=1, max_size=3)


@st.composite
def small_instances(draw, max_n=3, with_costs=True):
    n = draw(st.integers(1, max_n))
    alts = []
    for _ in range(n):
        weights = draw(small_prob_weights)
        total = sum(weights)
        values = draw(
            st.lists(
                st.integers(0, 12),
                min_size=len(weights),
                max_size=len(weights),
                unique=True,
            )
        )
        atoms = [(F(v), F(w, total)) for v, w in zip(values, weights)]
        cost = F(draw(st.integers(0, 8)), 4) if with_costs else F(0)
        alts.append(Alternative(make_distribution(atoms), cost))
    return Instance(tuple(alts))


@given(small_instances())
@settings(max_examples=60, deadline=None)
def test_max_dominates_each_mean(inst):
    top = expected_of_max(inst)
    assert all(top >= m for m in inst.expected_values())


@given(small_instances(), small_instances(max_n=1))
@settings(max_examples=60, deadline=None)
def test_adding_an_alternative_never_decreases_the_max(inst, extra):
    grown = Instance(inst.alternatives + extra.alternatives)
    assert expected_of_max(grown) >= expected_of_max(inst)


@given(small_instances())
@settings(max_examples=60, deadline=None)
def test_exact_and_float_modes_agree(inst):
    exact = inst.expected_surplus()
    approx = inst.to_float().expected_surplus()
    assert abs(float(exact) - approx) <= 1e-9


def assert_same_number(got, want):
    """Equal exact values, or floats with the same bits."""
    assert type(got) is type(want)
    assert got == want and repr(got) == repr(want)


def assert_clipped_sweep_matches_oracles(inst):
    """The fill's clip against the clipped distributions it replaced."""
    clipped = surplus_dists(inst)
    got = inst.expected_surplus()
    assert_same_number(got, cdf_product_expected_max(clipped))
    return got


def transformed_dists(inst):
    """Identity, (x - c)+ and capped distributions of one instance."""
    capped = [capped_dist(alt) for alt in inst.alternatives]
    return [alt.dist for alt in inst.alternatives], surplus_dists(inst), capped


@pytest.mark.parametrize("mode", ["exact", "float"])
@pytest.mark.parametrize("seed", range(5))
def test_merged_sweep_matches_cdf_oracle_on_corpus(seed, mode):
    for inst in random_corpus(seed, 40, max_n=5):
        inst = inst if mode == "exact" else inst.to_float()
        for dists in transformed_dists(inst):
            assert_same_number(expected_max_of_dists(dists), cdf_product_expected_max(dists))
        assert_clipped_sweep_matches_oracles(inst)


@pytest.mark.parametrize("mode", ["exact", "float"])
def test_merged_sweep_matches_cdf_oracle_on_400_boxes(mode):
    # Probabilities over 6, 28 and 55 are not dyadic, so float sums round.
    alts = []
    for j in range(400):
        parts = (3, 7, 10)[j % 3]
        total = parts * (parts + 1) // 2
        atoms = [(F((7 * j + 3 * k) % 17, 2), F(k + 1, total)) for k in range(parts)]
        alts.append(Alternative(make_distribution(atoms, mode), F(j % 5, 4)))
    inst = Instance(tuple(alts))
    for dists in transformed_dists(inst):
        assert_same_number(expected_max_of_dists(dists), cdf_product_expected_max(dists))
    assert_clipped_sweep_matches_oracles(inst)


def test_clipping_three_atoms_to_zero_adds_them_in_input_order():
    # (0.1 + 0.2) + 0.3 and 0.1 + (0.2 + 0.3) differ in the last bit, and
    # against a sure 0.1 so do the expected maxima.
    pairs = [(0.1, 0.1), (0.2, 0.2), (0.3, 0.3), (1.0, 0.4)]
    alt = Alternative(make_distribution(pairs, "float"), 0.5)
    other = Alternative(make_distribution([(0.1, 1)], "float"), 0.0)
    inst = Instance((alt, other))
    assert surplus_dists(inst)[0].atoms[0] == (0.0, (0.1 + 0.2) + 0.3)
    regrouped = DiscreteDistribution(((0.0, 0.1 + (0.2 + 0.3)), (0.5, 0.4)))
    got = assert_clipped_sweep_matches_oracles(inst)
    assert got != expected_max_of_dists([regrouped, other.dist])


@given(small_instances(), st.sampled_from(["exact", "float"]))
@settings(max_examples=80, deadline=None)
def test_merged_sweep_matches_both_oracles(inst, mode):
    inst = inst if mode == "exact" else inst.to_float()
    costs = inst.singleton_costs()
    z = inst.zero()
    for fn, reader in (
        (lambda i, v: v, expected_of_max),
        (lambda i, v: max(v - costs[i], z), Instance.expected_surplus),
    ):
        dists = [
            DiscreteDistribution(dict_merged_atoms((fn(i, v), p) for v, p in alt.dist.atoms))
            for i, alt in enumerate(inst.alternatives)
        ]
        got = reader(inst)
        assert_same_number(got, expected_max_of_dists(dists))
        assert_same_number(got, cdf_product_expected_max(dists))
        brute = brute_expected_of_max(inst, fn)
        if mode == "exact":
            assert got == brute
        else:
            assert abs(got - brute) <= 1e-9
    # weitzman_value caps each box through core._merge_sorted; the oracle's
    # capped boxes merge their atoms through a dict.
    capped = [capped_dist(alt) for alt in inst.alternatives]
    assert_same_number(weitzman_value(inst), expected_max_of_dists(capped))


def _exact_numbers(inst):
    """Every number of an instance, in atom, cost and table-key order."""
    out = []
    for alt in inst.alternatives:
        out += [x for atom in alt.dist.atoms for x in atom]
        out.append(alt.inspect_cost)
    out.append(inst.delegation_cost)
    if inst.cost_model.kind == "monotone":
        out += [c for _, c in sorted(inst.cost_model.table.items(), key=lambda kv: sorted(kv[0]))]
    return out


def test_to_float_gives_the_bits_of_float_fraction():
    # Fractions with numerator and denominator both past 2**1024, and a
    # subnormal result.
    huge = F(7**400 + 1, 5 * 7**399)
    tiny = F(1, 3 * 2**1060)
    assert huge.denominator > 2**1024 and 0 < float(tiny) < 2.2250738585072014e-308
    extreme = Instance(
        (box([(tiny, F(1, 3)), (huge, F(2, 3))], tiny), box([(F(1, 7), 1)], huge)),
        delegation_cost=huge,
    )
    monotone = Instance(
        extreme.alternatives,
        CostModel("monotone", {frozenset(): 0, frozenset({0}): tiny, frozenset({1}): huge,
                               frozenset({0, 1}): huge + 1}),
    )
    cases = [*random_corpus(7, 2000), extreme, monotone]
    cases += [identical_binary(n, F(1, n), 1, F(2, n)) for n in range(2, 40)]
    for inst in cases:
        got = [repr(x) for x in _exact_numbers(inst.to_float())]
        assert got == [repr(float(x)) for x in _exact_numbers(inst)]


def test_to_float_merges_values_that_round_to_one_double():
    dist = make_distribution([(0, "0.5"), (F(1, 10**400), "0.25"), (1, "0.25")])
    assert dist.to_float().atoms == ((0.0, 0.75), (1.0, 0.25))
    # An atom whose probability rounds to 0.0 is dropped.
    rare = make_distribution([(0, 1 - F(1, 10**400)), (1, F(1, 10**400))])
    assert rare.to_float().atoms == ((0.0, 1.0),)


def test_float_json_load_keeps_the_bits_of_to_float():
    # Ten doubles 0.1 sum to 0.9999999999999999; dividing each by that sum
    # would load 0.10000000000000002 atoms and another digest.
    inst = Instance((box([(v, F(1, 10)) for v in range(10)], "1/4"),))
    loaded = instance_from_json(instance_to_json(inst), "float")
    assert loaded.alternatives[0].dist.atoms == inst.to_float().alternatives[0].dist.atoms
    assert instance_digest(loaded) == instance_digest(inst.to_float())


def test_instance_json_round_trip():
    inst = Instance(
        (box([(0, "0.5"), (3, "0.5")], "0.25"), box([(1, 1)], "1/3")),
        delegation_cost="0.5",
    )
    back = instance_from_json(instance_to_json(inst))
    assert back == inst
    assert instance_digest(back) == instance_digest(inst)


def test_monotone_cost_model_round_trip_and_lookup():
    table = {
        frozenset(): 0,
        frozenset({0}): 1,
        frozenset({1}): 1,
        frozenset({0, 1}): F(3, 2),
    }
    inst = Instance(
        (box([(0, "0.5"), (2, "0.5")]), box([(1, 1)])),
        CostModel("monotone", table),
    )
    assert inst.singleton_costs()[0] == 1
    assert inspection_cost(inst, {0, 1}) == F(3, 2)
    back = instance_from_json(instance_to_json(inst))
    assert inspection_cost(back, {0, 1}) == F(3, 2)


def _json_writer_cases():
    """Instances whose canonical JSON the direct writer must get byte for byte."""
    for seed in range(5):
        for inst in random_corpus(seed, 40, cdel_max=1):
            yield inst
            yield inst.to_float()
    for family in instances.FAMILIES:
        yield instances.gen(family, {"seed": 0} if family == "random" else {})[0]
    for n in range(3, 35):
        # p = 1/n: float probabilities with non-dyadic reprs.
        yield identical_binary(n, F(1, n), 1, F(2, n)).to_float()
    # Eleven boxes, so the table keys sort as strings ("0,1,10" < "0,1,2").
    n = 11
    table = {
        frozenset(s): F(len(s) ** 2, 3) + (F(1, 7) if 10 in s else 0)
        for k in range(n + 1)
        for s in combinations(range(n), k)
    }
    monotone = Instance(
        tuple(box([(k, F(1, 3)), (k + 1, F(2, 3))]) for k in range(n)),
        CostModel("monotone", table),
        delegation_cost=F(1, 3),
    )
    yield monotone
    yield monotone.to_float()
    extremes = Instance(
        (
            Alternative(make_distribution([(5e-324, 0.5), (1e16, 0.5)], "float"), 1e-05),
            Alternative(make_distribution([(0.1, 1.0)], "float"), 0.1),
        ),
        delegation_cost=1e-05,
    )
    yield extremes
    yield Instance(
        tuple(
            Alternative(make_distribution(alt.dist.atoms), alt.inspect_cost)
            for alt in extremes.alternatives
        ),
        delegation_cost=1e-05,
    )


def test_instance_json_writer_matches_the_dict_tree_reference():
    count = 0
    for inst in _json_writer_cases():
        text = instance_to_json(inst)
        assert text == instance_json_reference(inst)
        back = instance_from_json(text, inst.mode)
        assert instance_digest(back) == instance_digest(inst)
        count += 1
    assert count == 2 * 5 * 40 + len(instances.FAMILIES) + 32 + 2 + 2


def test_float_inspection_cost_does_not_depend_on_set_order():
    # Past 8 boxes a frozenset's iteration order depends on the order its
    # elements were added, so the sum must not follow it.
    inst = Instance(
        tuple(Alternative(make_distribution([(1, 1)], "float"), k / 10) for k in range(1, 11))
    )
    for subset in combinations(range(10), 3):
        costs = {inspection_cost(inst, frozenset(order)) for order in permutations(subset)}
        assert len(costs) == 1, subset


def test_monotone_table_validation():
    bad = {
        frozenset(): 0,
        frozenset({0}): 2,
        frozenset({1}): 1,
        frozenset({0, 1}): 1,  # smaller than c({0})
    }
    with pytest.raises(InvalidParameters):
        Instance(
            (box([(1, 1)]), box([(1, 1)])),
            CostModel("monotone", bad),
        )


def _two_box_table(table):
    return Instance((box([(1, 1)]), box([(2, 1)])), CostModel("monotone", table))


# Each input check of this module that no other test reaches, and the error it
# documents. A table's entries are checked in the order given.
INPUT_ERRORS = {
    "float_overflow": (lambda: as_number("1e400", "float"), InvalidParameters),
    "non_finite_float": (lambda: as_number(float("inf"), "float"), InvalidParameters),
    "non_finite_float_exact": (lambda: as_number(float("nan")), InvalidParameters),
    "unknown_mode": (lambda: as_number(1, "decimal"), InvalidParameters),
    "unsupported_type": (lambda: as_number([1]), InvalidParameters),
    "all_probabilities_zero": (lambda: make_distribution([(1, 0), (2, 0)]), EmptySupport),
    "float_probabilities_off_1": (
        lambda: make_distribution([(1, 0.5), (2, 0.5 + 1e-11)], "float"),
        ProbabilitySumMismatch,
    ),
    "negative_cost": (lambda: box([(1, 1)], -1), NegativeValue),
    "no_alternatives": (lambda: Instance(()), InvalidParameters),
    "negative_delegation_cost": (
        lambda: Instance((box([(1, 1)]),), delegation_cost=-1), NegativeValue
    ),
    "table_of_the_wrong_size": (
        lambda: _two_box_table({(): 0, (0,): 1, (1,): 1}), InvalidParameters
    ),
    "empty_set_costs": (
        lambda: _two_box_table({(): 1, (0,): 1, (1,): 1, (0, 1): 2}), InvalidParameters
    ),
    "negative_entry": (
        lambda: _two_box_table({(0,): -1, (): 0, (1,): 1, (0, 1): 2}), NegativeValue
    ),
    "missing_superset": (
        lambda: _two_box_table({(): 0, (0,): 1, (1,): 1, (0, 2): 2}), InvalidParameters
    ),
    "max_of_no_distribution": (lambda: expected_max_of_dists([]), EmptySupport),
}


@pytest.mark.parametrize("name", INPUT_ERRORS)
def test_each_input_check_raises_its_documented_error(name):
    call, error = INPUT_ERRORS[name]
    with pytest.raises(error) as raised:
        call()
    assert type(raised.value) is error


def test_monotone_table_is_copied_and_hashable():
    table = {(): 0, (0,): 1, (1,): "1/2", (0, 1): 2}
    before = dict(table)
    inst = Instance((box([(1, 1)]), box([(2, 1)])), CostModel("monotone", table))
    assert table == before
    assert inspection_cost(inst, {1}) == F(1, 2)
    assert hash(inst) == hash(Instance(inst.alternatives, CostModel("monotone", before)))
    assert pickle.loads(pickle.dumps(inst)) == inst
    with pytest.raises(TypeError):
        inst.cost_model.table[frozenset()] = 1


def test_cost_model_rejects_an_unknown_kind_and_a_table_on_additive_costs():
    # Only the signaling sweep would charge a stray table, and an unknown kind
    # would fail later with a bare TypeError.
    with pytest.raises(InvalidParameters, match="unknown cost_model type: 'foo'"):
        CostModel("foo")
    with pytest.raises(InvalidParameters, match="an additive cost model takes no table"):
        CostModel("additive", {(): 0, (0,): 5, (1,): 5, (0, 1): 9})
    obj = {"alternatives": [{"support": [[1, 1]]}], "cost_model": {"type": "foo"}}
    with pytest.raises(InvalidParameters, match="unknown cost_model type: 'foo'"):
        instance_from_obj(obj)


def test_mixed_modes_rejected():
    exact_alt = box([(1, 1)])
    float_alt = Alternative(make_distribution([(1, 1)], mode="float"))
    with pytest.raises(InvalidParameters):
        Instance((exact_alt, float_alt))


def test_number_formatting_round_trips():
    for x in [F(3, 4), F(1, 3), F(-7, 20), F(5), F(1, 6)]:
        assert as_number(format_number(x)) == x


# Negatives, integral Fractions, p/q values, 2^a 5^b denominators, ints and floats.
FORMAT_CASES = [
    F(0), F(5), F(-3), F(10**30), F(3, 4), F(-7, 20), F(1, 3), F(-2, 7), F(10**20 + 1, 3),
    F(1, 1024), F(-3, 5**7), F(7, 2**5 * 5**9), F(-1, 2**12 * 5**3), F(123456789, 10**12),
    0, 7, -12, 10**30, 0.1, -2.5, 1e300, 2.4555555555555557,
]


def _format_cases(seed: int, count: int) -> list:
    rng = random.Random(seed)
    cases = list(FORMAT_CASES)
    for _ in range(count):
        den = rng.choice((2**rng.randint(0, 20) * 5**rng.randint(0, 20), rng.randint(1, 10**6)))
        cases.append(F(rng.randint(-(10**9), 10**9), den))
    return cases


def test_format_number_matches_the_unmemoized_reference_on_every_call():
    core._FORMATTED.clear()
    for x in _format_cases(0, 500):
        want = format_number_reference(x)
        assert format_number(x) == want
        assert format_number(x) == want
        assert as_number(want, "exact" if type(x) is not float else "float") == x


def test_format_number_past_the_digit_limit_raises_and_is_never_stored():
    x = F(10**5000 + 1, 3)
    for _ in range(2):
        with pytest.raises(InvalidParameters, match="digits, too many to print"):
            format_number(x)
        assert (x.numerator, x.denominator) not in core._FORMATTED
    long = F(10**core._MEMO_TEXT + 1, 7)
    assert format_number(long) == format_number_reference(long)
    assert (long.numerator, long.denominator) not in core._FORMATTED


def test_format_number_memo_stays_within_its_bound():
    core._FORMATTED.clear()
    largest = 0
    for i in range(10 * core._MEMO_SIZE):
        x = F(2 * i + 1, 14)
        assert format_number(x) == format_number_reference(x)
        largest = max(largest, len(core._FORMATTED))
    assert 0 < largest <= core._MEMO_SIZE


def test_format_number_is_right_in_racing_threads(monkeypatch):
    # A small memo, so that threads clear it under each other too.
    monkeypatch.setattr(core, "_MEMO_SIZE", 16)
    cases = _format_cases(1, 300)
    want = [format_number_reference(x) for x in cases]
    wrong = []

    def work(offset):
        for _ in range(5):
            got = [format_number(x) for x in cases[offset:] + cases[:offset]]
            if got != want[offset:] + want[:offset]:
                wrong.append(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(37 * k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    core._FORMATTED.clear()
    assert not wrong


def test_float_decimal_reading():
    assert as_number(0.1) == F(1, 10)
    assert as_number("1/3") == F(1, 3)


def test_library_imports_only_the_standard_library():
    src = Path(__file__).resolve().parent.parent / "src" / "delegatebox"
    modules = sorted(src.glob("*.py"))
    assert modules
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "delegatebox" or top in sys.stdlib_module_names, (path.name, name)


def test_readme_python_blocks_run(capsys):
    readme = Path(__file__).resolve().parent.parent / "README.md"
    blocks = readme.read_text(encoding="utf-8").split("```python\n")[1:]
    assert blocks
    for block in blocks:
        exec(compile(block.split("```")[0], str(readme), "exec"), {})
    assert capsys.readouterr().out == "True\n"
