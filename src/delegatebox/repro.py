"""Fixed suite rechecking the library's headline guarantees in one shot.

Every row evaluates exact quantities and records a pass flag; the CLI `repro`
subcommand renders the suite and exits nonzero if any row fails. All numbers
are serialized as exact strings, so a fixed seed yields byte-identical JSON.
"""

from __future__ import annotations

from fractions import Fraction

from . import bounds, delegation, instances, pandora
from .core import SCHEMA_VERSION as SUITE_VERSION
from .core import expected_of_max, to_json

TIGHTNESS_EPS = (Fraction(1, 5), Fraction(1, 10), Fraction(1, 20), Fraction(1, 100))
IDENTICAL_NS = (6, 10, 20)
INFO_NS = (5, 10)
COSTLY_ALPHAS = (Fraction(1, 10), Fraction(1, 4), Fraction(2, 5))
CORPUS_SIZE = 200


def _row(name: str, passed: bool, **details) -> dict:
    # Every detail renders as a string, so callers pass counts through str().
    return {"name": name, "pass": bool(passed), "details": to_json(details)}


def _bound_row(name: str, slacks: list, **details) -> dict:
    """A row that passes when no slack is negative, with their count and the least slack."""
    violations = sum(slack < 0 for slack in slacks)
    worst = min(slacks, default=None)
    return _row(name, violations == 0, violations=str(violations), worst_slack=worst, **details)


def tightness_rows() -> list[dict]:
    rows = []
    ratios = []
    for eps in TIGHTNESS_EPS:
        inst = instances.tightness(eps)
        opt = pandora.pnoi_value(inst)
        expected = 3 - 3 * eps + eps * eps
        report = delegation.maximal_mechanism_costless(inst)
        ratio = opt / report.value
        ratios.append(ratio)
        rows.append(
            _row(
                f"tightness eps={eps}",
                opt == expected and report.value == 1 and report.branch == "SelectBestClosed",
                direct_optimum=opt,
                expected_optimum=expected,
                mechanism_value=report.value,
                branch=report.branch,
                ratio=ratio,
            )
        )
    ceiling = bounds.REGIMES[bounds.COSTLESS][1](1, None)
    monotone = all(a < b for a, b in zip(ratios, ratios[1:])) and all(r < ceiling for r in ratios)
    rows.append(
        _row(
            "tightness ratio sweep rises toward 3",
            monotone,
            ratios=ratios,
        )
    )
    return rows


def identical_binary_rows() -> list[dict]:
    rows = []
    for n in IDENTICAL_NS:
        inst = instances.identical_binary(n, p=Fraction(1, n), v=1, c=Fraction(2, n))
        direct = pandora.pnoi_value(inst)
        spmi = delegation.build_spmi(inst)
        spmi_value = delegation.evaluate_spmi(inst, spmi)
        floor = 1 - (1 - Fraction(1, n)) ** n - Fraction(2, n)
        rows.append(
            _row(
                f"identical binary n={n}: inspection-only stalls, SPMI does not",
                direct <= Fraction(1, n) and spmi_value >= floor >= Fraction(1, 6),
                inspection_only=direct,
                inspection_only_cap=Fraction(1, n),
                spmi_value=spmi_value,
                spmi_floor=floor,
            )
        )
    return rows


def first_best_gap_row(n: int = 10) -> dict:
    inst = instances.inapprox_first_best(n)
    first_best = expected_of_max(inst, "identity")
    values = {
        "pnoi": pandora.pnoi_value(inst),
        "weitzman": pandora.weitzman_value(inst),
        "spmi": delegation.evaluate_spmi(inst, delegation.build_spmi(inst)),
        "maximal": delegation.maximal_mechanism_costless(inst).value,
        "costly": delegation.costly_mechanism(inst).value,
        "identical": delegation.identical_cost_mechanism(inst).value,
    }
    top = max(values.values())
    passed = top <= 1 and first_best > Fraction(63, 10) and first_best / top > Fraction(63, 10)
    return _row(
        f"first-best gap n={n}: every mechanism stuck at 1",
        passed,
        first_best=first_best,
        ratio=first_best / top,
        **{f"value_{k}": v for k, v in values.items()},
    )


def info_value_rows(eps=Fraction(1, 100)) -> list[dict]:
    rows = []
    for n in INFO_NS:
        inst, mech = instances.info_value(n, eps)
        agent = delegation.deterministic_agent([n - i for i in range(n)])
        mass = delegation.uninspected_selection_mass(inst, mech, agent)
        expected = n * eps * (1 - eps) ** (n - 1)
        best_mean = max(inst.expected_values())
        ratio = mass / best_mean
        rows.append(
            _row(
                f"info value n={n}: steering beats the best mean by ~n",
                mass == expected and ratio > Fraction(9, 10) * n,
                uninspected_mass=mass,
                expected_mass=expected,
                ratio_to_best_mean=ratio,
            )
        )
    return rows


def spmi_fail_row() -> dict:
    inst = instances.spmi_fail(2)
    spmi_value = delegation.evaluate_spmi(inst, delegation.build_spmi(inst))
    report = delegation.maximal_mechanism_costless(inst)
    return _row(
        "cost-eats-value boxes: SPMI worthless, closed pick is not",
        spmi_value == 0 and report.value == Fraction(1, 2) and report.branch == "SelectBestClosed",
        spmi_value=spmi_value,
        mechanism_value=report.value,
        branch=report.branch,
    )


def spmi_half_bound_row(seed: int, count: int = CORPUS_SIZE) -> dict:
    slacks = []
    for inst in instances.random_corpus(seed, count, cdel_max=2):
        value = delegation.evaluate_spmi(inst, delegation.build_spmi(inst))
        target = expected_of_max(inst, "shifted_positive") / 2
        slacks.append(value + inst.delegation_cost - target)
    return _bound_row(f"SPMI half-of-surplus bound over {count} seeded instances", slacks)


def costly_case1_rows(seed: int, count: int = CORPUS_SIZE) -> list[dict]:
    _, factor, bound = bounds.REGIMES[bounds.COSTLY]  # not audit(), which digests each instance
    factors = [1 / factor(Fraction(1), alpha) for alpha in COSTLY_ALPHAS]
    slacks: list = [[] for _ in COSTLY_ALPHAS]
    for base in instances.random_corpus(seed, count):
        # Neither the search DP nor the moments read the delegation cost,
        # which is all that alpha changes: the base's DP value and moments
        # (the surplus fills the means with it), filled once here, carry over
        # to each alpha's instance.
        surplus = expected_of_max(base, "shifted_positive")
        pandora.pnoi_value(base)
        for alpha, f, s in zip(COSTLY_ALPHAS, factors, slacks):
            inst = base.with_delegation_cost(alpha * surplus)
            s.append(delegation.costly_mechanism(inst).value - f * bound(inst))
    return [
        _bound_row(f"costly delegation alpha={alpha} over {count} seeded instances", s, factor=f)
        for alpha, f, s in zip(COSTLY_ALPHAS, factors, slacks)
    ]


def run_repro(seed: int = 7) -> dict:
    rows = []
    rows.extend(tightness_rows())
    rows.extend(identical_binary_rows())
    rows.append(first_best_gap_row())
    rows.extend(info_value_rows())
    rows.append(spmi_fail_row())
    rows.append(spmi_half_bound_row(seed))
    rows.extend(costly_case1_rows(seed + 1))
    return {
        "schema": SUITE_VERSION,
        "suite": "repro",
        "seed": seed,
        "arithmetic_mode": "exact",
        "rows": rows,
        "all_pass": all(row["pass"] for row in rows),
    }
