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
    upper_bound_identical,
)
from delegatebox.delegation import (
    WORST_CASE,
    MechanismReport,
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
        assert result.ub_used == upper_bound_identical(inst) == want_ub
        assert result.passed

    @pytest.mark.parametrize("eps", [F(1, 10), F(1, 100), F(1, 1000)])
    def test_factor_two_is_tight_for_equal_costs(self, eps):
        # Prophet-inequality example (Samuel-Cahn 1984): a sure 1 beside 1/eps
        # with probability eps. Both means are 1, so the mechanism keeps the
        # closed pick, while direct search opens the risky box first.
        def pair(c):
            return Instance((box([(1, 1)], c), box([(0, 1 - eps), (1 / eps, eps)], c)))

        free = pair(0)
        report = identical_cost_mechanism(free)
        assert (report.branch, report.value) == ("SelectBestClosed", 1)
        assert pandora.pnoi_value(free) == 2 - eps
        result = audit(free, report, IDENTICAL)
        assert result.passed
        assert result.ratio == 2 - eps
        want = {F(1, 10): F(189, 100), F(1, 100): F(19899, 10000), F(1, 1000): F(1998999, 10**6)}
        assert pandora.pnoi_value(pair(eps * eps)) == want[eps]

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

    @pytest.mark.parametrize("e", range(13))
    def test_float_costly_pin_is_checked_relative_to_its_size(self, e):
        # The delegation cost is pinned exactly to S / 10 in the exact JSON;
        # at values near 10^10 the float S / 10 is off by more than FLOAT_TOL
        # in absolute terms (e = 8, 10 and 11 were rejected when the check
        # was absolute), but never by a relative 1e-6.
        s = 10**e
        inst = Instance((
            box([(1 * s, F(1, 3)), (5 * s, F(2, 3))], F(s, 2)),
            box([(3 * s, F(1, 7)), (8 * s, F(6, 7))], s),
            box([(2 * s, F(4, 9)), (7 * s, F(5, 9))]),
        ))
        target = expected_of_max(inst, "shifted_positive") / 10
        for cdel, passes in ((target, True), (target * (1 + F(1, 10**6)), False)):
            text = core.instance_to_json(inst.with_delegation_cost(cdel))
            flt = core.instance_from_json(text, "float")
            if passes:
                result = audit(flt, costly_mechanism(flt), COSTLY, alpha=0.1)
                assert result.tolerance == core.FLOAT_TOL
            else:
                with pytest.raises(RegimeMismatch, match="does not equal alpha"):
                    audit(flt, costly_mechanism(flt), COSTLY, alpha=0.1)

    def test_alpha_outside_the_costly_regime_is_rejected(self):
        free = tightness(F(1, 10))
        equal = Instance((box([(1, 1)], 1), box([(2, 1)], 1)))
        with pytest.raises(InvalidParameters, match="costless regime"):
            audit(free, maximal_mechanism_costless(free), COSTLESS, alpha=F(1, 4))
        with pytest.raises(InvalidParameters, match="identical regime"):
            audit(equal, identical_cost_mechanism(equal), IDENTICAL, alpha=F(0))

    def test_an_unknown_regime_is_rejected(self):
        free = tightness(F(1, 10))
        with pytest.raises(InvalidParameters, match="unknown regime"):
            audit(free, maximal_mechanism_costless(free), "free")

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_a_worthless_mechanism_has_ratio_one_or_none(self, mode):
        # Against a bound of 0 a mechanism worth 0 is exact: ratio 1. Against
        # a positive bound no ratio exists, and the audit fails.
        nothing, free = Instance((box([(0, 1)]),)), tightness(F(1, 10))
        if mode == "float":
            nothing, free = nothing.to_float(), free.to_float()
        result = audit(nothing, maximal_mechanism_costless(nothing), COSTLESS)
        assert (result.ub_used, result.mechanism_value, result.passed) == (0, 0, True)
        assert result.ratio == 1 and type(result.ratio) is type(result.ub_used)
        report = MechanismReport("SPMI", result.mechanism_value, {}, True, mode, WORST_CASE)
        result = audit(free, report, COSTLESS)
        assert result.ub_used > 0
        assert (result.ratio, result.passed) == (None, False)

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


def _count_moments(monkeypatch, calls: Counter) -> None:
    # Counts each fill of the means and E[max (X - c)+] (one call fills both),
    # each E[max X] kernel call, and each per-box mean: a moment computed
    # twice shows as a second fill or as a kernel or mean call.
    kernel, fill = core.expected_max_of_dists, core._fill_moments
    mean = core.DiscreteDistribution.mean

    def counting_kernel(dists):
        calls["identity"] += 1
        return kernel(dists)

    def counting_fill(instance):
        calls["moments"] += 1
        return fill(instance)

    def counting_mean(dist):
        calls["mean"] += 1
        return mean(dist)

    monkeypatch.setattr(core, "expected_max_of_dists", counting_kernel)
    monkeypatch.setattr(core, "_fill_moments", counting_fill)
    monkeypatch.setattr(core.DiscreteDistribution, "mean", counting_mean)


def test_mechanisms_and_audits_compute_each_moment_once(monkeypatch):
    # Equal costs, so the identical regime applies and asks for E[max X] too.
    inst = Instance((box([(0, "0.5"), (4, "0.5")], 1), box([(1, "0.5"), (3, "0.5")], 1)))
    calls = Counter()
    _count_moments(monkeypatch, calls)
    assert audit(inst, maximal_mechanism_costless(inst), COSTLESS).passed
    assert calls == {"moments": 1}
    assert audit(inst, identical_cost_mechanism(inst), IDENTICAL).passed
    assert calls == {"identity": 1, "moments": 1}


def test_costly_repro_rows_compute_each_moment_once_per_base(monkeypatch):
    # Each alpha's instance differs from its base only in the delegation
    # cost, which neither a moment nor the DP reads, so the base's moments
    # and DP value carry over.
    solve = pandora.pnoi_optimal
    calls = Counter()
    _count_moments(monkeypatch, calls)

    def counting_solve(instance, *args, **kwargs):
        calls["pnoi_optimal"] += 1
        return solve(instance, *args, **kwargs)

    monkeypatch.setattr(pandora, "pnoi_optimal", counting_solve)
    rows = repro.costly_case1_rows(8, count=20)
    assert all(row["pass"] for row in rows)
    assert calls == {"moments": 20, "pnoi_optimal": 20}
