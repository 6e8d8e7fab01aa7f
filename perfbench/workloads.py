"""The benchmark's workloads: inputs from a seed, one timed pass, its checks.

Each workload has ``setup(seed)`` (inputs and reference, counted in
``setup_s``), ``exact(inputs)`` and ``float(inputs)`` (the two timed blocks of
a pass; ``float_s`` is the second), and ``check(inputs, exact_out,
float_out, checks)``, which runs after the timed region.

Exact outputs are byte-compared against references recorded at a fixed
commit (``refs/<workload>.json``, written by ``record_refs.py``). A seed
without a reference still gets every invariant check (``all_pass``,
``audit.passed``, exact/float agreement) and is reported as skipping the
byte comparison. Float outputs must lie within ``FLOAT_TOL`` of exact ones;
every float block holds at least one family with non-dyadic probabilities,
since floats are exact on the dyadic random grid and would agree trivially.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from delegatebox import bounds, cli, core, delegation, instances, pandora
from delegatebox.core import Alternative, Instance, format_number, make_distribution

FLOAT_TOL = 1e-9
REFS = Path(__file__).resolve().parent / "refs"


def load_ref(workload: str, seed: int):
    """This seed's recorded exact outputs, or None when none were recorded."""
    data = json.loads((REFS / f"{workload}.json").read_text())
    return data["seeds"].get(str(seed))


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Checks:
    """Attempted and failed checks of one pass, with the first few failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.notes: set[str] = set()

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(name)

    def close(self, name: str, value, exact) -> None:
        """Float ``value`` lies within FLOAT_TOL of the exact value (a number or string)."""
        ok = (
            isinstance(value, float)
            and math.isfinite(value)
            and exact is not None
            and abs(Fraction(value) - Fraction(exact)) <= FLOAT_TOL
        )
        self.add(name, ok)


def _run_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


# --- repro ------------------------------------------------------------------
#
# The suite users run: `delegatebox repro --seed S --format json`, in-process,
# stdout captured and hashed. The suite itself is exact only, so the float
# block re-evaluates in float mode, through `delegatebox eval --float`, every
# value of the suite's named-family rows that needs neither the search DP nor
# product-support enumeration, so the traced DP and enumeration counters stay
# those of the suite. These rows do not depend on the seed, which keeps
# float_s steady from seed to seed. The suite's own JSON supplies the exact
# values to compare against.


def _repro_float_evals() -> list[tuple[list[str], str, str]]:
    """(eval arguments, suite row name prefix, row detail holding the exact value)."""
    evals = []
    for eps in ("1/5", "1/10", "1/20", "1/100"):
        evals.append(
            (["--family", "tightness", "--eps", eps, "--mechanism", "maximal"],
             f"tightness eps={eps}", "mechanism_value")
        )
    for n in (6, 10, 20):
        evals.append(
            (["--family", "identical_binary", "--n", str(n), "--p", f"1/{n}", "--v", "1",
              "--c", f"2/{n}", "--mechanism", "spmi"],
             f"identical binary n={n}:", "spmi_value")
        )
    for mechanism in ("spmi", "maximal", "identical"):
        evals.append(
            (["--family", "inapprox_first_best", "--n", "10", "--mechanism", mechanism],
             "first-best gap n=10:", f"value_{mechanism}")
        )
    for mechanism, key in (("spmi", "spmi_value"), ("maximal", "mechanism_value")):
        evals.append(
            (["--family", "spmi_fail", "--n", "2", "--mechanism", mechanism],
             "cost-eats-value boxes:", key)
        )
    return [(["eval", *args, "--float", "--format", "json"], row, key) for args, row, key in evals]


def repro_setup(seed: int) -> dict:
    return {
        "ref": load_ref("repro", seed),
        "argv": ["repro", "--seed", str(seed), "--format", "json"],
        "float_evals": _repro_float_evals(),
    }


def repro_exact(x: dict):
    return _run_cli(x["argv"])


def repro_float(x: dict):
    return [_run_cli(argv) for argv, _, _ in x["float_evals"]]


def repro_check(x: dict, exact_out, float_out, checks: Checks) -> None:
    code, text = exact_out
    checks.add("repro exit code 0", code == 0)
    try:
        rows = json.loads(text)
    except ValueError:
        rows = None
    checks.add("repro all_pass", bool(rows) and rows.get("all_pass") is True)
    if x["ref"] is None:
        checks.notes.add("repro: no reference for this seed, byte comparison skipped")
    else:
        checks.add("repro stdout matches reference", sha256(text) == x["ref"]["stdout_sha256"])
    rows = rows["rows"] if rows else []

    def exact_value(prefix: str, key: str):
        for row in rows:
            if row["name"] == prefix or row["name"].startswith(prefix):
                return row["details"].get(key)
        return None

    for (argv, prefix, key), (code, text) in zip(x["float_evals"], float_out):
        exact = exact_value(prefix, key)
        value = json.loads(text)["value"] if code == 0 else None
        checks.add(f"float {' '.join(argv)} exit code 0", code == 0)
        checks.close(f"float {' '.join(argv)} vs {prefix} {key}", value, exact)


# --- corpus_audit -----------------------------------------------------------
#
# scripts/audit_corpus.py at a larger count: seeded random_corpus instances
# (n <= 4, support <= 3), each through maximal_mechanism_costless ->
# audit(COSTLESS) -> to_obj() -> json.dumps, in exact mode and again after
# to_float(). It never calls the search DP or enumerates a product support, so
# a DP change should leave it unchanged. The identical-binary boxes with
# p = 1/n are the non-dyadic family of its float block.

CORPUS_COUNT = 2000
CORPUS_IDENTICAL_NS = range(3, 35)


def corpus_setup(seed: int) -> dict:
    exact = list(instances.random_corpus(seed, CORPUS_COUNT))
    exact += [
        instances.identical_binary(n, Fraction(1, n), 1, Fraction(2, n))
        for n in CORPUS_IDENTICAL_NS
    ]
    return {
        "ref": load_ref("corpus_audit", seed),
        "exact": exact,
        "float": [inst.to_float() for inst in exact],
    }


def _audit_all(insts) -> list:
    out = []
    for inst in insts:
        report = delegation.maximal_mechanism_costless(inst)
        result = bounds.audit(inst, report, bounds.COSTLESS)
        out.append((result, json.dumps(result.to_obj(), sort_keys=True)))
    return out


def corpus_exact(x: dict):
    return _audit_all(x["exact"])


def corpus_float(x: dict):
    return _audit_all(x["float"])


def corpus_audit_digests(exact_out) -> str:
    """Concatenated 8-hex-digit digests of each instance's exact audit JSON."""
    return "".join(sha256(text)[:8] for _, text in exact_out)


def corpus_check(x: dict, exact_out, float_out, checks: Checks) -> None:
    ref = x["ref"]
    if ref is None:
        checks.notes.add("corpus_audit: no reference for this seed, byte comparison skipped")
    digests = corpus_audit_digests(exact_out)
    for i, ((exact, _), (flt, _)) in enumerate(zip(exact_out, float_out)):
        same = ref is None or digests[8 * i: 8 * i + 8] == ref["audit_digests"][8 * i: 8 * i + 8]
        checks.add(f"corpus instance {i} exact audit", exact.passed and same)
        checks.add(
            f"corpus instance {i} float audit",
            flt.passed
            and abs(flt.mechanism_value - exact.mechanism_value) <= FLOAT_TOL
            and abs(flt.ub_used - exact.ub_used) <= FLOAT_TOL,
        )
    count = len(x["exact"])
    checks.add(
        "corpus instance count",
        len(exact_out) == len(float_out) == count and (ref is None or ref["count"] == count),
    )


# --- large_instances --------------------------------------------------------
#
# A few big seeded instances per mode, where scaling in n and support shows:
# the search DP, the descending-cap value over a product support, the three
# signaling sweep entry points on one (instance, mechanism, agent), the SPMI
# on all three evaluator paths, and an expected maximum over 400 boxes. The
# same layers serve repro through thousands of tiny calls, so a kernel that
# makes big calls faster and small ones slower shows as a split between the
# two workloads.
#
# Shapes are fixed and only values, probabilities and costs come from the
# seed, so the work per pass does not depend on the seed. In the DP instances
# every box holds 0 plus two values no other box holds, which fixes the
# DP's state count at 2^n (n + 1) for every seed.

DP_EXACT_N = 9
DP_FLOAT_N = 11
WEITZMAN_SUPPORTS = (3, 3, 3, 3, 2, 2, 2, 2, 2, 2, 2)
INFO_N = 8
INFO_EPS = Fraction(1, 100)
SPMI_N, SPMI_SUPPORT = 200, 8
ENUM_N, ENUM_SUPPORT = 7, 3
EOM_N, EOM_SUPPORT = 400, 8


def _weights(rng: random.Random, parts: int, total: int = 16) -> list[Fraction]:
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    bounds_ = [0, *cuts, total]
    return [Fraction(b - a, total) for a, b in zip(bounds_, bounds_[1:])]


def grid_instance(rng: random.Random, supports) -> Instance:
    """Boxes with exactly the given support sizes on the random corpus grid
    (values k/2 up to 8, costs k/4 up to 2, probabilities k/16)."""
    grid = [Fraction(k, 2) for k in range(17)]
    alts = []
    for size in supports:
        atoms = zip(rng.sample(grid, size), _weights(rng, size))
        alts.append(Alternative(make_distribution(list(atoms)), Fraction(rng.randint(0, 8), 4)))
    return Instance(tuple(alts))


def dp_instance(rng: random.Random, n: int) -> Instance:
    """n boxes, each on {0, a, b} with a, b (multiples of 1/4) unique to the box."""
    values = [Fraction(k, 4) for k in rng.sample(range(1, 33), 2 * n)]
    alts = []
    for i in range(n):
        atoms = zip([Fraction(0), *values[2 * i: 2 * i + 2]], _weights(rng, 3))
        alts.append(Alternative(make_distribution(list(atoms)), Fraction(rng.randint(0, 8), 4)))
    return Instance(tuple(alts))


def large_setup(seed: int) -> dict:
    rng = random.Random(seed)
    info, mech = instances.info_value(INFO_N, INFO_EPS)
    exact = {
        "dp": dp_instance(rng, DP_EXACT_N),
        "weitzman": grid_instance(rng, WEITZMAN_SUPPORTS),
        "info": info,
        "mech": mech,
        "info_agent": delegation.deterministic_agent(rng.sample(range(1, INFO_N + 1), INFO_N)),
        "spmi": grid_instance(rng, [SPMI_SUPPORT] * SPMI_N),
        "order_agent": delegation.deterministic_agent(rng.sample(range(SPMI_N), SPMI_N)),
        "enum": grid_instance(rng, [ENUM_SUPPORT] * ENUM_N),
        # Seven utilities drawn from three values always tie, which forces
        # evaluate_spmi onto its enumeration path.
        "tied_agent": delegation.deterministic_agent([rng.randint(0, 2) for _ in range(ENUM_N)]),
        "eom": grid_instance(rng, [EOM_SUPPORT] * EOM_N),
    }
    float_dp = dp_instance(rng, DP_FLOAT_N)
    flt = {**exact, "dp": float_dp.to_float()}
    for key in ("weitzman", "info", "spmi", "enum", "eom"):
        flt[key] = exact[key].to_float()
    return {
        "ref": load_ref("large_instances", seed),
        "exact": exact,
        "float": flt,
        "float_dp_exact": float_dp,
    }


def _large_block(x: dict) -> dict:
    out = {"pnoi": pandora.pnoi_optimal(x["dp"])[0]}
    out["weitzman"] = pandora.weitzman_value(x["weitzman"])
    sweep = (x["info"], x["mech"], x["info_agent"])
    out["signaling.value"] = delegation.evaluate_signaling(*sweep)
    out["signaling.uninspected"] = delegation.uninspected_selection_mass(*sweep)
    out["signaling.no_overinspection"] = delegation.overinspection_utility(*sweep)
    spmi = delegation.build_spmi(x["spmi"])
    out["spmi.threshold"] = spmi.threshold
    out["spmi.worst_case"] = delegation.evaluate_spmi(x["spmi"], spmi)
    out["spmi.fixed_order"] = delegation.evaluate_spmi(x["spmi"], spmi, x["order_agent"])
    small = delegation.build_spmi(x["enum"])
    out["spmi.enumerated"] = delegation.evaluate_spmi(x["enum"], small, x["tied_agent"])
    out["expected_of_max"] = core.expected_of_max(x["eom"])
    return out


def large_exact(x: dict):
    return _large_block(x["exact"])


def large_float(x: dict):
    return _large_block(x["float"])


def large_check(x: dict, exact_out, float_out, checks: Checks) -> None:
    ref = x["ref"]
    if ref is None:
        checks.notes.add("large_instances: no reference for this seed, byte comparison skipped")
    for key, value in exact_out.items():
        if ref is not None:
            checks.add(f"large exact {key} matches reference", format_number(value) == ref[key])
        if key != "pnoi":
            checks.close(f"large float {key} vs exact", float_out[key], value)
    value = float_out["pnoi"]
    if ref is not None:
        checks.close("large float pnoi vs recorded exact", value, Fraction(ref["float_dp_exact_pnoi"]))
    else:
        # Without a recorded exact optimum, the float optimum must still lie
        # between selecting the best box closed and the cap-based upper bound.
        inst = x["float"]["dp"]
        low = max(inst.expected_values())
        high = pandora.pnoi_value_upper_bound(inst)
        checks.add("large float pnoi within bounds", low - FLOAT_TOL <= value <= high + FLOAT_TOL)


WORKLOADS = {
    "repro": (repro_setup, repro_exact, repro_float, repro_check),
    "corpus_audit": (corpus_setup, corpus_exact, corpus_float, corpus_check),
    "large_instances": (large_setup, large_exact, large_float, large_check),
}
