"""Acceptance suite: one test per headline criterion, exact tolerances.

Each test registers a PASS/FAIL line rendered at the end of the pytest run
(see conftest). Exact-mode checks use zero tolerance.
"""

import hashlib
import math
import random
import time
from fractions import Fraction as F

import pytest

from delegatebox import Instance, expected_of_max, gen, instance_to_json
from delegatebox.bounds import upper_bound_costless, upper_bound_costly
from delegatebox.cli import main as cli_main
from delegatebox.delegation import (
    build_spmi,
    cost_ordered_adversary,
    costly_mechanism,
    deterministic_agent,
    evaluate_signaling,
    evaluate_spmi,
    identical_cost_mechanism,
    maximal_mechanism_costless,
    overinspection_utility,
    uninspected_selection_mass,
)
from delegatebox.instances import (
    identical_binary,
    inapprox_first_best,
    info_value,
    random_corpus,
    random_instance,
    tightness,
)
from delegatebox.core import Alternative, CostModel, instance_digest
from delegatebox.pandora import pnoi_optimal, reservation_cap, weitzman_value

from conftest import record_criterion
from oracles import (
    descending_cap_simulation,
    expected_shortfall,
    full_history_optimal,
    inspection_only_best,
    random_signaling_mechanism,
    with_monotone_costs,
)


def check(name, passed):
    record_criterion(name, bool(passed))
    assert passed, name


def test_criterion_1_three_box_gap_reproduction():
    start = time.perf_counter()
    ratios = []
    ok = True
    for eps in (F(1, 5), F(1, 10), F(1, 20), F(1, 100)):
        inst = tightness(eps)
        opt, _ = pnoi_optimal(inst)
        ok &= opt == 3 - 3 * eps + eps * eps
        report = maximal_mechanism_costless(inst)
        ok &= report.value == 1
        ratios.append(opt / report.value)
    ok &= all(a < b for a, b in zip(ratios, ratios[1:]))
    ok &= all(r < 3 for r in ratios)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 1.0
    check("1. three-box gap: exact optimum, mechanism value 1, ratio rises to 3", ok)


def test_criterion_2_costless_three_approximation_suite():
    start = time.perf_counter()
    violations = 0
    count = 0
    for inst in random_corpus(seed=2025, count=1000, max_n=4, support_size=3):
        count += 1
        report = maximal_mechanism_costless(inst)
        if 3 * report.value < upper_bound_costless(inst):
            violations += 1
    elapsed = time.perf_counter() - start
    check(
        "2. costless 3-approximation over 1000 seeded instances, zero violations",
        violations == 0 and count == 1000 and elapsed < 60,
    )


def test_criterion_3_spmi_half_surplus_bound():
    violations = 0
    for inst in random_corpus(seed=2025, count=1000, max_n=4, support_size=3):
        value = evaluate_spmi(inst, build_spmi(inst))
        if value + inst.delegation_cost < inst.expected_surplus() / 2:
            violations += 1
    check("3. SPMI half-of-surplus bound on the same corpus, zero violations", violations == 0)


def test_criterion_4_search_program_equals_policy_space_optimum():
    mismatches = 0
    for inst in random_corpus(seed=404, count=200, max_n=3, support_size=3):
        if pnoi_optimal(inst)[0] != full_history_optimal(inst):
            mismatches += 1
    check("4. adaptive search equals the full-history policy optimum on 200 instances", mismatches == 0)


def test_criterion_5_descending_cap_consistency():
    ok = True
    for inst in random_corpus(seed=505, count=200, max_n=4, support_size=3):
        ok &= weitzman_value(inst) == descending_cap_simulation(inst)
        for alt in inst.alternatives:
            if alt.inspect_cost <= alt.dist.mean():
                ok &= expected_shortfall(alt.dist, reservation_cap(alt)) == alt.inspect_cost
    check("5. descending-cap value equals capped-max exactly; cap residuals are zero", ok)


def test_criterion_6_identical_binary_table():
    ok = True
    for n in (6, 10, 20):
        inst = identical_binary(n, F(1, n), 1, F(2, n))
        direct = pnoi_optimal(inst)[0]
        ok &= direct == inspection_only_best(inst)
        ok &= direct <= F(1, n)
        spmi_value = evaluate_spmi(inst, build_spmi(inst))
        floor = 1 - (1 - F(1, n)) ** n - F(2, n)
        ok &= spmi_value >= floor
        ok &= floor >= F(1, 6)
    check("6. identical binaries at n=6,10,20: direct search <= 1/n, SPMI >= 1/6 floor", ok)


def test_criterion_7_first_best_out_of_reach():
    inst = inapprox_first_best(10)
    first_best = expected_of_max(inst)
    values = [
        pnoi_optimal(inst)[0],
        weitzman_value(inst),
        evaluate_spmi(inst, build_spmi(inst)),
        maximal_mechanism_costless(inst).value,
        costly_mechanism(inst).value,
        identical_cost_mechanism(inst).value,
    ]
    top = max(values)
    ok = top <= 1
    ok &= float(first_best) >= (1 - 1 / math.e) * 10
    ok &= first_best / top > F(63, 10)
    check("7. first-best gap at n=10: every mechanism <= 1, hindsight ratio > 6.3", ok)


def test_criterion_8_steering_mass():
    ok = True
    eps = F(1, 100)
    for n in (5, 10):
        inst, mech = info_value(n, eps)
        agent = deterministic_agent([n - i for i in range(n)])
        mass = uninspected_selection_mass(inst, mech, agent)
        ok &= mass == n * eps * (1 - eps) ** (n - 1)
        ok &= mass / eps > F(9, 10) * n
    check("8. steering mechanism: uninspected mass exact, ratio above 0.9 n", ok)


def test_criterion_9_costly_delegation_margin():
    violations = 0
    for alpha in (F(1, 10), F(1, 4), F(2, 5)):
        factor = (1 - 2 * alpha) / (3 - 4 * alpha)
        for base in random_corpus(seed=909, count=200, max_n=4, support_size=3):
            surplus = base.expected_surplus()
            inst = Instance(base.alternatives, base.cost_model, alpha * surplus)
            report = costly_mechanism(inst)
            if report.value < factor * upper_bound_costly(inst):
                violations += 1
    check(
        "9. costly delegation: value >= (1-2a)/(3-4a) of the bound, three alphas x 200",
        violations == 0,
    )


def test_criterion_10_overinspection_bound():
    violations = 0
    for n in (3, 5, 10):
        inst, mech = info_value(n, F(1, 100))
        agent = cost_ordered_adversary(inst)
        if overinspection_utility(inst, mech, agent) > max(inst.expected_values()):
            violations += 1
    rng = random.Random(1010)
    for _ in range(100):
        inst = random_instance(rng, rng.randint(1, 3), support_size=3)
        mech = random_signaling_mechanism(rng, inst)
        agent = cost_ordered_adversary(inst)
        if overinspection_utility(inst, mech, agent) > max(inst.expected_values()):
            violations += 1
    check(
        "10. overinspection-free utility <= best mean for the cost-ordered agent",
        violations == 0,
    )


def test_criterion_11_identical_cost_margin():
    violations = 0
    rng = random.Random(1111)
    for _ in range(500):
        base = random_instance(rng, rng.randint(1, 4), support_size=3)
        common = F(rng.randint(0, 8), 4)
        alts = tuple(Alternative(alt.dist, common) for alt in base.alternatives)
        inst = Instance(alts)
        report = identical_cost_mechanism(inst)
        bound = max(max(inst.expected_values()), expected_of_max(inst) - common)
        if 2 * report.value < bound:
            violations += 1
    check("11. equal-cost mechanism is a 2-approximation over 500 instances", violations == 0)


def test_criterion_12_repro_determinism(capsys):
    code_a = cli_main(["repro", "--seed", "7", "--format", "json"])
    first = capsys.readouterr().out
    code_b = cli_main(["repro", "--seed", "7", "--format", "json"])
    second = capsys.readouterr().out
    ok = code_a == 0 and code_b == 0 and first == second and len(first) > 0
    check("12. repeated repro --seed 7 runs emit byte-identical JSON", ok)


def test_criterion_13_monotone_cost_signaling_bound():
    # The bound reads singleton costs only, while the signaling sweep charges
    # the table entry of the opened set, so these mechanisms pay set costs.
    rng = random.Random(1313)
    violations, triples = [], 0
    for base in random_corpus(5, 200, max_n=4):
        own = [alt.inspect_cost for alt in base.alternatives]
        subsets = (
            frozenset(j for j in range(base.n) if mask >> j & 1) for mask in range(1 << base.n)
        )
        subadditive = {s: max((own[j] for j in s), default=F(0)) for s in subsets}
        tables = (
            Instance(base.alternatives, CostModel("monotone", subadditive), base.delegation_cost),
            with_monotone_costs(rng, base),
        )
        for inst in tables:
            bound = upper_bound_costless(inst)
            for _ in range(3):
                mech = random_signaling_mechanism(rng, inst)
                agent = deterministic_agent([rng.randint(0, 9) for _ in range(inst.n)])
                triples += 1
                if evaluate_signaling(inst, mech, agent) > bound:
                    violations.append(instance_digest(inst))
    check(
        "13. monotone costs: signaling value <= costless bound over 1200 triples",
        triples == 1200 and not violations,
    )


# sha256 of `repro --seed 7 --format json` stdout. Criterion 12 only checks
# that two runs agree; this catches a changed row, which must be deliberate.
REPRO_SEED_7_SHA256 = "2cdb34484a3aca869a89603549df12c2fd9ac66e05ccad551192d77dabba0960"


def test_repro_seed_7_bytes_are_pinned(capsys):
    code = cli_main(["repro", "--seed", "7", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REPRO_SEED_7_SHA256


IB = ["--family", "identical_binary", "--n", "6", "--p", "1/6", "--c", "1/3"]
RND = ["--family", "random", "--seed", "11", "--n", "3"]
JSON = ["--format", "json"]
ENCODED_CALLS = (
    [["eval", *IB, *JSON, "--mechanism", m]
     for m in ("pnoi", "spmi", "maximal", "costly", "identical", "weitzman")]
    + [["eval", *RND, *JSON, "--mechanism", m]
       for m in ("pnoi", "spmi", "maximal", "costly", "weitzman")]
    + [
        ["audit", *RND, "--regime", "costless", *JSON],
        ["audit", *IB, "--regime", "identical", *JSON],
        ["gen", "--family", "info_value", "--n", "4"],
        ["gen", *RND],
        ["eval", *IB, "--mechanism", "maximal", "--float", *JSON],
        ["audit", *RND, "--regime", "costless", "--float", *JSON],
    ]
)
# sha256 of the concatenated stdout of ENCODED_CALLS: eval, audit and gen
# output in exact and float mode, i.e. every shape the JSON encoder renders.
ENCODED_CALLS_SHA256 = "044dc842c1da813a56a5a11efeafb401013b5ae7b4a24ef605d3600272b71925"


def test_cli_encoded_bytes_are_pinned(capsys):
    out = []
    for argv in ENCODED_CALLS:
        assert cli_main(argv) == 0, argv
        out.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == ENCODED_CALLS_SHA256


RND_CDEL = ["--family", "random", "--seed", "3", "--n", "3", "--cdel-max", "2"]
TABLE = ["--format", "table"]
# {pin} is an instance file: RND with its delegation cost pinned to 1/4 of
# E[max (X_i - c_i)+], so that the costly regime at alpha 1/4 applies.
AUDIT_CALLS = (
    # The costly regime at a pinned and at a zero alpha, exact and float.
    [["audit", "--instance", "{pin}", "--regime", "costly", "--alpha", "1/4", *mode, *JSON]
     for mode in ([], ["--float"])]
    + [["audit", *RND, "--regime", "costly", "--alpha", "0", *mode, *JSON]
       for mode in ([], ["--float"])]
    # One audit per regime in the table format.
    + [
        ["audit", *RND, "--regime", "costless", *TABLE],
        ["audit", "--instance", "{pin}", "--regime", "costly", "--alpha", "1/4", *TABLE],
        ["audit", *IB, "--regime", "identical", *TABLE],
    ]
    # A mechanism audited under another regime's claim.
    + [
        ["audit", *IB, "--regime", "costless", "--mechanism", "identical", *JSON],
        ["audit", *IB, "--regime", "costly", "--alpha", "0", "--mechanism", "identical", *JSON],
        ["audit", *IB, "--regime", "identical", "--mechanism", "costly", *JSON],
        ["audit", *RND, "--regime", "costly", "--alpha", "0", "--mechanism", "maximal", *JSON],
        ["audit", *RND, "--regime", "costless", "--mechanism", "costly", "--float", *JSON],
    ]
    # Error records on stderr, exit 2.
    + [
        ["audit", *RND, "--regime", "identical", *JSON],  # CostsNotIdentical
        ["audit", *RND_CDEL, "--regime", "costless", *JSON],  # NotCostless
        ["audit", *RND_CDEL, "--regime", "costless", "--mechanism", "costly", *JSON],
        ["audit", *RND, "--regime", "identical", "--mechanism", "maximal", *JSON],
        ["audit", *RND_CDEL, "--regime", "costly", *JSON],
        ["audit", *RND_CDEL, "--regime", "costly", "--alpha", "1/2", *JSON],
        ["audit", *RND_CDEL, "--regime", "costly", "--alpha", "1/4", "--float", *JSON],
        ["audit", *RND, "--regime", "costless", "--alpha", "1/4", *JSON],
        ["audit", *IB, "--regime", "identical", "--alpha", "0", *JSON],
        ["audit", *RND, "--regime", "costless", "--mechanism", "pnoi", *JSON],
    ]
)
# sha256 of each AUDIT_CALLS exit code, stdout and stderr, concatenated.
AUDIT_CALLS_SHA256 = "d06a3714e41ff00223b912a46d736e7899b266a8b97a9f4a5257d441d8df1a9a"


def test_cli_audit_bytes_are_pinned(capsys, tmp_path):
    base, _ = gen("random", {"seed": 11, "n": 3})
    pinned = base.with_delegation_cost(base.expected_surplus() / 4)
    pin = tmp_path / "pin.json"
    pin.write_text(instance_to_json(pinned))
    out = []
    for argv in AUDIT_CALLS:
        code = cli_main([str(pin) if arg == "{pin}" else arg for arg in argv])
        captured = capsys.readouterr()
        out.append(f"{code}\n{captured.out}{captured.err}")
    assert hashlib.sha256("".join(out).encode()).hexdigest() == AUDIT_CALLS_SHA256


# sha256 of `gen --family F` stdout at the registry defaults, one per family
# that ENCODED_CALLS does not already pin at its defaults.
GEN_DEFAULTS_SHA256 = {
    "identical_binary": "efb52e8fff79bae4660582a1d3baaa33abab6eed9aab48342d5a23d159535e15",
    "tightness": "14bc5a8de4fed0c1fb9fe6d294a294b51127734800e800dbc955a5c9658cda94",
    "inapprox_first_best": "61fbfde542b7ef56c031b9612ca79a8f7e6710f7c989a5c4d400da42926a37a4",
    "spmi_fail": "6766f8bd46d1fbbfe828ee0db438c2c5a39dd0e2087530747676892a59f3e80b",
}


@pytest.mark.parametrize("family", GEN_DEFAULTS_SHA256)
def test_gen_default_bytes_are_pinned(capsys, family):
    assert cli_main(["gen", "--family", family]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GEN_DEFAULTS_SHA256[family]
