from collections import Counter
from fractions import Fraction as F

import pytest

from delegatebox import core, pandora, repro
from delegatebox import (
    Alternative,
    Instance,
    InvalidParameters,
    RegimeMismatch,
    expected_of_max,
    make_distribution,
)
from delegatebox.bounds import (
    COSTLESS,
    COSTLY,
    IDENTICAL,
    audit,
    upper_bound_costless,
    upper_bound_costly,
)
from delegatebox.delegation import (
    costly_mechanism,
    identical_cost_mechanism,
    maximal_mechanism_costless,
)
from delegatebox.instances import random_corpus, tightness
from delegatebox.pandora import pnoi_optimal


def box(pairs, cost=0):
    return Alternative(make_distribution(pairs), cost)


class TestUpperBoundCostless:
    def test_three_box_gap(self):
        eps = F(1, 100)
        assert upper_bound_costless(tightness(eps)) == 1 + (2 - eps)

    def test_prohibitive_costs_leave_only_the_best_mean(self):
        inst = Instance((box([(0, "0.5"), (1, "0.5")], 2), box([(2, 1)], 3)))
        assert upper_bound_costless(inst) == 2

    def test_single_free_deterministic_box_doubles(self):
        inst = Instance((box([(7, 1)]),))
        assert upper_bound_costless(inst) == 14


class TestUpperBoundCostly:
    def test_free_delegation_collapses_to_the_costless_bound(self):
        inst = tightness(F(1, 10))
        assert upper_bound_costly(inst) == upper_bound_costless(inst)
        assert pnoi_optimal(inst)[0] <= upper_bound_costless(inst)

    def test_prohibitive_delegation_leaves_the_direct_search_value(self):
        base = tightness(F(1, 10))
        inst = Instance(base.alternatives, base.cost_model, 100)
        assert upper_bound_costly(inst) == pnoi_optimal(inst)[0]

    def test_quarter_surplus_formula(self):
        base = next(random_corpus(seed=17, count=1, max_n=3))
        surplus = expected_of_max(base, "shifted_positive")
        inst = Instance(base.alternatives, base.cost_model, F(1, 4) * surplus)
        want = max(
            pnoi_optimal(inst)[0],
            upper_bound_costless(inst) - inst.delegation_cost,
        )
        assert upper_bound_costly(inst) == want


class TestAudit:
    def test_three_box_gap_costless_passes(self):
        inst = tightness(F(1, 100))
        report = maximal_mechanism_costless(inst)
        result = audit(inst, report, COSTLESS)
        assert result.passed
        assert result.claimed_bound == 3
        assert result.ratio == F(299, 100)
        assert result.ratio <= 3

    def test_single_box_passes(self):
        inst = Instance((box([(3, 1)]),))
        result = audit(inst, maximal_mechanism_costless(inst), COSTLESS)
        assert result.passed
        assert result.ratio <= result.claimed_bound

    def test_quarter_alpha_claims_factor_four(self):
        base = next(random_corpus(seed=19, count=1, max_n=3))
        surplus = expected_of_max(base, "shifted_positive")
        inst = Instance(base.alternatives, base.cost_model, F(1, 4) * surplus)
        result = audit(inst, costly_mechanism(inst), COSTLY, alpha=F(1, 4))
        assert result.claimed_bound == 4
        assert result.passed

    def test_identical_regime_uses_the_common_cost_split(self):
        inst = Instance((box([(0, "0.5"), (2, "0.5")], 1), box([(1, 1)], 1)))
        result = audit(inst, identical_cost_mechanism(inst), IDENTICAL)
        assert result.claimed_bound == 2
        want_ub = max(max(inst.expected_values()), expected_of_max(inst) - 1)
        assert result.ub_used == want_ub
        assert result.passed

    def test_regime_mismatches(self):
        costly_inst = Instance((box([(1, 1)]),), delegation_cost=1)
        with pytest.raises(RegimeMismatch):
            report = maximal_mechanism_costless(tightness(F(1, 10)))
            audit(costly_inst, report, COSTLESS)
        unequal = Instance((box([(1, 1)], 1), box([(1, 1)], 2)))
        equal = Instance((box([(1, 1)], 1), box([(1, 1)], 1)))
        with pytest.raises(RegimeMismatch):
            audit(unequal, identical_cost_mechanism(equal), IDENTICAL)
        free = tightness(F(1, 10))
        with pytest.raises(RegimeMismatch):
            audit(free, costly_mechanism(free), COSTLY, alpha=F(1, 4))
        with pytest.raises(RegimeMismatch):
            audit(free, costly_mechanism(free), COSTLY)

    def test_alpha_outside_the_costly_regime_is_rejected(self):
        free = tightness(F(1, 10))
        equal = Instance((box([(1, 1)], 1), box([(2, 1)], 1)))
        with pytest.raises(InvalidParameters, match="costless regime"):
            audit(free, maximal_mechanism_costless(free), COSTLESS, alpha=F(1, 4))
        with pytest.raises(InvalidParameters, match="identical regime"):
            audit(equal, identical_cost_mechanism(equal), IDENTICAL, alpha=F(0))

    def test_ratio_sweep_rises_toward_three(self):
        ratios = []
        for eps in (F(1, 5), F(1, 10), F(1, 20), F(1, 100)):
            inst = tightness(eps)
            result = audit(inst, maximal_mechanism_costless(inst), COSTLESS)
            assert result.passed
            ratios.append(result.ratio)
        assert ratios == sorted(ratios)
        assert all(r < 3 for r in ratios)

    def test_costless_bound_holds_on_corpus(self):
        for inst in random_corpus(seed=23, count=60):
            report = maximal_mechanism_costless(inst)
            result = audit(inst, report, COSTLESS)
            assert result.passed
            assert pnoi_optimal(inst)[0] <= result.ub_costless


def test_mechanisms_and_audits_compute_each_moment_once(monkeypatch):
    # Equal costs, so the identical regime applies and asks for E[max X] too.
    inst = Instance((box([(0, "0.5"), (4, "0.5")], 1), box([(1, "0.5"), (3, "0.5")], 1)))
    kernel = core.expected_max_of_dists
    calls = Counter()

    def counting(dists, costs=None):
        calls["identity" if costs is None else "shifted_positive"] += 1
        return kernel(dists, costs)

    monkeypatch.setattr(core, "expected_max_of_dists", counting)
    assert audit(inst, maximal_mechanism_costless(inst), COSTLESS).passed
    assert calls == {"shifted_positive": 1}
    assert audit(inst, identical_cost_mechanism(inst), IDENTICAL).passed
    assert calls == {"identity": 1, "shifted_positive": 1}


def test_costly_repro_rows_compute_each_moment_once_per_base(monkeypatch):
    # Each alpha's instance differs from its base only in the delegation
    # cost, which neither a moment nor the DP reads, so the base's moments
    # and DP value carry over.
    kernel, mean, solve = (
        core.expected_max_of_dists, core.DiscreteDistribution.mean, pandora.pnoi_optimal
    )
    calls = Counter()

    def counting_kernel(dists, costs=None):
        calls["identity" if costs is None else "shifted_positive"] += 1
        return kernel(dists, costs)

    def counting_mean(dist):
        calls["mean"] += 1
        return mean(dist)

    def counting_solve(instance, *args, **kwargs):
        calls["pnoi_optimal"] += 1
        return solve(instance, *args, **kwargs)

    monkeypatch.setattr(core, "expected_max_of_dists", counting_kernel)
    monkeypatch.setattr(core.DiscreteDistribution, "mean", counting_mean)
    monkeypatch.setattr(pandora, "pnoi_optimal", counting_solve)
    rows = repro.costly_case1_rows(8, count=20)
    assert all(row["pass"] for row in rows)
    boxes = sum(base.n for base in random_corpus(8, 20))
    assert calls == {"shifted_positive": 20, "mean": boxes, "pnoi_optimal": 20}
