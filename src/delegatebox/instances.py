"""Generators: the named counterexample families and seeded random instances.

Random supports live on a coarse rational grid so exact arithmetic stays
cheap across thousands of generated instances.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Iterator, Optional

from .core import (
    DEFAULT_STATE_LIMIT,
    Alternative,
    DiscreteDistribution,
    Instance,
    InvalidParameters,
    StateLimitExceeded,
    as_number,
    make_distribution,
)
from .delegation import SignalingMechanism
from .pandora import INSPECT, PnoiPolicy, SELECT_CLOSED, STOP


def identical_binary(n: int, p, v=1, c=0) -> Instance:
    """n copies of {v w.p. p, 0 otherwise}, each costing c to inspect."""
    n = int(n)
    p, v, c = as_number(p), as_number(v), as_number(c)
    if n < 1 or not 0 < p <= 1 or v <= 0:
        raise InvalidParameters("need n >= 1, 0 < p <= 1, v > 0")
    dist = make_distribution([(0, 1 - p), (v, p)])
    alts = tuple(Alternative(dist, c) for _ in range(n))
    return Instance(alts)


def tightness(eps) -> Instance:
    """Two free boxes worth 1/eps w.p. eps each, plus a sure 1 that costs 1 to open.

    The optimal search opens the free boxes and settles for the sure box
    (unopened) otherwise, worth 3 - 3 eps + eps^2, while the composed
    costless mechanism only extracts 1: the family pins the factor 3.
    """
    eps = as_number(eps)
    if not 0 < eps < 1:
        raise InvalidParameters("need 0 < eps < 1")
    rare = make_distribution([(0, 1 - eps), (1 / eps, eps)])
    sure = make_distribution([(1, 1)])
    alts = (
        Alternative(rare, 0),
        Alternative(rare, 0),
        Alternative(sure, 1),
    )
    return Instance(alts)


def inapprox_first_best(n: int) -> Instance:
    """n rare prizes worth n each, with inspections priced at n - 1.

    Inspection costs sit at (1 - 1/n) times the top support value, so any
    policy that ever opens a box nets at most the hindsight maximum times
    1/n; selecting blind nets at most 1. The hindsight optimum still grows
    like (1 - 1/e) n, so no implemented mechanism comes close to it.
    """
    n = int(n)
    if n < 2:
        raise InvalidParameters("need n >= 2")
    eps = Fraction(1, n)
    dist = make_distribution([(0, 1 - eps), (n, eps)])
    cost = (1 - eps) * n  # == n - 1
    alts = tuple(Alternative(dist, cost) for _ in range(n))
    return Instance(alts)


def _info_policy(n: int, keep: int, support) -> PnoiPolicy:
    """Signal ``keep``'s table: open every other box in ascending order, then
    select ``keep`` closed iff everything observed was 0, otherwise stop.

    The root inspects the first box other than ``keep``; after each opening,
    every value of ``support`` as best in hand maps to the next inspection
    or, once all the others are open, to the final choice.
    """
    others = [j for j in range(n) if j != keep]
    unopened = frozenset(range(n))
    table = {(unopened, None): (INSPECT, others[0])}
    for j, after in zip(others, [*others[1:], None]):
        unopened = unopened - {j}
        for best in support:
            if after is not None:
                table[unopened, best] = (INSPECT, after)
            else:
                table[unopened, best] = (SELECT_CLOSED, keep) if best == 0 else (STOP, None)
    return PnoiPolicy(table)


def info_value(n: int, eps) -> tuple[Instance, SignalingMechanism]:
    """n free boxes worth 1 w.p. eps, plus the steering mechanism over n signals.

    Signal i opens every box but i and selects i closed iff the others all
    came up 0, so a best-responding agent routes the principal to the unique
    nonzero box without it ever being opened. Each signal's table, written
    by ``_info_policy`` in one loop, has 2n - 1 states whose unopened sets
    hold n^2 boxes in all, so the n tables hold n^3 set members; past
    ``DEFAULT_STATE_LIMIT`` of them (n > 100) StateLimitExceeded is raised
    before any table is built.
    """
    n = int(n)
    eps = as_number(eps)
    if n < 2 or not 0 < eps < 1:
        raise InvalidParameters("need n >= 2 and 0 < eps < 1")
    if n**3 > DEFAULT_STATE_LIMIT:
        raise StateLimitExceeded(
            f"info_value tables hold {n**3} set members, over the limit {DEFAULT_STATE_LIMIT}"
        )
    dist = make_distribution([(0, 1 - eps), (1, eps)])
    alts = tuple(Alternative(dist, 0) for _ in range(n))
    instance = Instance(alts)
    support = dist.values
    signals = tuple(range(n))
    policies = {i: _info_policy(n, i, support) for i in signals}
    return instance, SignalingMechanism(signals, policies)


def spmi_fail(n: int = 2) -> Instance:
    """Boxes worth 1 w.p. 1/2 whose inspection costs eat the whole value."""
    n = int(n)
    if n < 1:
        raise InvalidParameters("need n >= 1")
    dist = make_distribution([(0, Fraction(1, 2)), (1, Fraction(1, 2))])
    alts = tuple(Alternative(dist, 1) for _ in range(n))
    return Instance(alts)


_SIXTEENTHS = tuple(Fraction(w, 16) for w in range(17))


def random_instance(
    rng: random.Random,
    n: int,
    support_size: int = 3,
    value_max: int = 8,
    cost_max: int = 2,
    cdel_max: int = 0,
) -> Instance:
    """Seeded random instance on a coarse grid (values k/2, costs k/4, probs w/16).

    Each box's atoms are built valid, so they skip ``make_distribution``:
    ``rng.sample`` draws distinct grid indices k, so the values are
    distinct, and sorting the (k, w) pairs sorts them; ``_random_composition``
    draws positive weights w that sum to 16, so no probability is zero and
    they sum to exactly 1.
    """
    if n < 1 or support_size < 1:
        raise InvalidParameters("need n >= 1 and support_size >= 1")
    if min(value_max, cost_max, cdel_max) < 0:
        raise InvalidParameters("need value_max, cost_max and cdel_max >= 0")
    room = min(16, 2 * value_max + 1)  # probability steps, grid values
    if support_size > room:
        raise InvalidParameters(f"need support_size <= min(16, 2 * value_max + 1) = {room}")
    alternatives = []
    for _ in range(n):
        size = rng.randint(1, support_size)
        ks = rng.sample(range(2 * value_max + 1), size)
        weights = _random_composition(rng, size, 16)
        atoms = tuple((Fraction(k, 2), _SIXTEENTHS[w]) for k, w in sorted(zip(ks, weights)))
        cost = Fraction(rng.randint(0, 4 * cost_max), 4)
        alternatives.append(Alternative(DiscreteDistribution(atoms), cost))
    cdel = Fraction(rng.randint(0, 4 * cdel_max), 4) if cdel_max else Fraction(0)
    return Instance(tuple(alternatives), delegation_cost=cdel)


def _random_composition(rng: random.Random, parts: int, total: int) -> list[int]:
    # positive integers summing to `total`
    cuts = sorted(rng.sample(range(1, total), parts - 1)) if parts > 1 else []
    bounds = [0] + cuts + [total]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def random_corpus(
    seed: int,
    count: int,
    max_n: int = 4,
    support_size: int = 3,
    value_max: int = 8,
    cost_max: int = 2,
    cdel_max: int = 0,
) -> Iterator[Instance]:
    """Deterministic stream of random instances for property suites."""
    rng = random.Random(seed)
    for _ in range(count):
        yield random_instance(
            rng, rng.randint(1, max_n), support_size, value_max, cost_max, cdel_max
        )


def _seeded_random(seed, n, support_size, value_max, cost_max, cdel_max) -> Instance:
    return random_instance(random.Random(seed), n, support_size, value_max, cost_max, cdel_max)


# Family name -> (builder, {parameter: default}); a default of None marks a
# required parameter. The CLI reads each parameter from the flag of that name,
# an int flag where the default is an int.
FAMILIES = {
    "identical_binary": (identical_binary, {"n": 6, "p": "1/6", "v": "1", "c": "1/3"}),
    "tightness": (tightness, {"eps": "1/100"}),
    "inapprox_first_best": (inapprox_first_best, {"n": 10}),
    "info_value": (info_value, {"n": 5, "eps": "1/100"}),
    "spmi_fail": (spmi_fail, {"n": 2}),
    "random": (
        _seeded_random,
        {"seed": None, "n": 3, "support_size": 3, "value_max": 8, "cost_max": 2, "cdel_max": 0},
    ),
}


def gen(family: str, params: dict) -> tuple[Instance, Optional[SignalingMechanism]]:
    """Build a named family from ``params`` over its registry defaults.

    Returns the instance and, for info_value, its steering mechanism.
    """
    if family not in FAMILIES:
        raise InvalidParameters(f"unknown family: {family!r}")
    builder, defaults = FAMILIES[family]
    params = {**defaults, **params}
    missing = [name for name, value in params.items() if value is None]
    if missing:
        raise InvalidParameters(f"{family} family needs {', '.join(missing)}")
    try:
        built = builder(**params)
    except TypeError as exc:
        raise InvalidParameters(f"bad parameters for {family}: {exc}") from exc
    return built if isinstance(built, tuple) else (built, None)
