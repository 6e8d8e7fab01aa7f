"""Discrete distributions, problem instances, and the exact expectation engine.

Everything runs in one of two arithmetic modes: ``exact`` (fractions.Fraction
end to end, so equality checks are true equalities) or ``float`` (IEEE doubles
with a 1e-9 comparison tolerance). The fields of every container are
immutable after construction. An ``Instance`` also fills its means, E[max X],
E[max (X - c)+] and its direct-search value once, on first use: the value
written is always the one the same computation would return, so a fill is
idempotent, and sharing an instance across threads stays safe.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import reduce
from itertools import groupby
from math import isfinite, lcm, log10, prod
from operator import add, itemgetter
from types import MappingProxyType
from typing import Literal, Mapping, Optional, Sequence, Union

Number = Union[Fraction, float]
Mode = Literal["exact", "float"]

FLOAT_TOL = 1e-9
FLOAT_PROB_TOL = 1e-12
DEFAULT_ENUMERATION_LIMIT = 10**7
DEFAULT_STATE_LIMIT = 10**6
# Fraction("1eK") builds 10**K before anything can reject it, so decimal
# exponents are bounded first, at Python's default cap on int-string digits.
MAX_EXPONENT = 4300

SCHEMA_VERSION = "delegatebox/1"


class DelegateboxError(Exception):
    """Base class for all library errors."""


class NegativeValue(DelegateboxError):
    pass


class ProbabilitySumMismatch(DelegateboxError):
    pass


class EmptySupport(DelegateboxError):
    pass


class EnumerationLimitExceeded(DelegateboxError):
    pass


class StateLimitExceeded(DelegateboxError):
    pass


class PolicyIncomplete(DelegateboxError):
    pass


class NotCostless(DelegateboxError):
    pass


class CostsNotIdentical(DelegateboxError):
    pass


class RegimeMismatch(DelegateboxError):
    pass


class InvalidParameters(DelegateboxError):
    pass


def as_number(value, mode: Mode = "exact") -> Number:
    """Convert ``value`` to the requested arithmetic mode.

    Both modes accept the same inputs: ints, Fractions, finite floats and
    strings holding decimals ("0.25") or fractions ("1/3"). In exact mode,
    floats are read through their shortest decimal representation (0.1
    becomes 1/10, not the 53-bit binary fraction).
    """
    if mode == "exact":
        return _exact_number(value)
    if mode == "float":
        try:
            out = value if isinstance(value, float) else float(_exact_number(value))
        except OverflowError:
            out = float("inf")
        if not isfinite(out):
            raise InvalidParameters(f"non-finite value: {value!r}")
        return out
    raise InvalidParameters(f"unknown arithmetic mode: {mode!r}")


def _exact_number(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise InvalidParameters(f"not a number: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        _, e, exponent = value.lower().partition("e")
        try:
            if e and abs(int(exponent)) > MAX_EXPONENT:
                raise InvalidParameters(
                    f"exponent beyond +-{MAX_EXPONENT} in number: {value!r}"
                )
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidParameters(f"cannot parse number: {value!r}") from exc
    if isinstance(value, float):
        if not isfinite(value):
            raise InvalidParameters(f"non-finite value: {value!r}")
        return Fraction(Decimal(repr(value)))
    raise InvalidParameters(f"unsupported number type: {type(value).__name__}")


# format_number's memo: the text of each exact number, keyed by (numerator,
# denominator). A corpus writes a few distinct numbers many times, each
# instance's digest and audit record among them. The dict is cleared when
# full, and a text longer than _MEMO_TEXT is not kept, so big DP values are
# never held. A racing thread at worst writes a text that is already right.
_FORMATTED: dict = {}
_MEMO_SIZE = 4096
_MEMO_TEXT = 40


def format_number(x: Number) -> str:
    """Render a number as a string that round-trips exactly.

    Exact values print as decimal strings when the denominator allows it
    ("0.75") and as "p/q" otherwise; floats print via repr. An exact value
    with more digits than Python converts (4300 by default) raises
    InvalidParameters. The text of a short exact value is kept in a bounded
    memo, so a number written again is not formatted again.
    """
    if type(x) is not Fraction:
        return _format_number(x)
    key = (x.numerator, x.denominator)
    text = _FORMATTED.get(key)
    if text is None:
        text = _format_number(x)
        if len(text) <= _MEMO_TEXT:
            if len(_FORMATTED) >= _MEMO_SIZE:
                _FORMATTED.clear()
            _FORMATTED[key] = text
    return text


def _format_number(x: Number) -> str:
    try:
        if isinstance(x, int) and not isinstance(x, bool):
            return str(x)
        if isinstance(x, Fraction):
            num, den = x.numerator, x.denominator
            if den == 1:
                return str(num)
            twos = fives = 0
            d = den
            while d % 2 == 0:
                d //= 2
                twos += 1
            while d % 5 == 0:
                d //= 5
                fives += 1
            if d == 1:
                k = max(twos, fives)
                scaled = num * 10**k // den
                sign = "-" if scaled < 0 else ""
                digits = str(abs(scaled)).rjust(k + 1, "0")
                return f"{sign}{digits[:-k]}.{digits[-k:]}"
            return f"{num}/{den}"
        return repr(float(x))
    except ValueError:  # str() of an int past the interpreter's digit limit
        bits = max(abs(x.numerator).bit_length(), x.denominator.bit_length())
        raise InvalidParameters(
            f"exact number has about {int(bits * log10(2)) + 1} digits, too many "
            "to print; use float mode (--float)"
        ) from None


def to_json(x):
    """Make a report JSON-ready: each Fraction becomes its format_number string.

    Dicts, lists and tuples are rebuilt with their items encoded; anything
    else (floats, ints, strings, bools, None) passes through unchanged.
    """
    return _to_json(x)


def _to_json(x):
    # An exact type test: isinstance(x, Fraction) on a float or a string goes
    # through the slow abstract-base-class check, once per leaf.
    if type(x) is Fraction:
        return format_number(x)
    if isinstance(x, dict):
        return {k: _to_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_to_json(v) for v in x]
    return x


def _record(report, **keys) -> dict:
    """A frozen report's JSON record: each dataclass field, in declaration
    order, through ``_to_json``, keyed by its name or by its entry in ``keys``
    (for a name that cannot be the key, such as ``passed`` for "pass")."""
    return {
        keys.get(name, name): _to_json(getattr(report, name))
        for name in type(report).__dataclass_fields__
    }


@dataclass(frozen=True, slots=True)
class DiscreteDistribution:
    """Finite support of nonnegative values; atoms sorted by increasing value."""

    atoms: tuple[tuple[Number, Number], ...]

    @property
    def values(self) -> tuple[Number, ...]:
        return tuple(v for v, _ in self.atoms)

    @property
    def mode(self) -> Mode:
        # An exact type test: isinstance(v, Fraction) on a float goes through
        # the slow abstract-base-class check.
        return "exact" if type(self.atoms[0][0]) is Fraction else "float"

    def mean(self) -> Number:
        """E[X], by ``_box_means`` on this box's ``_scaled_atoms``."""
        return _box_means(_scaled_atoms([self]), self.mode == "exact")[0]

    def max_value(self) -> Number:
        return self.atoms[-1][0]

    def to_float(self) -> "DiscreteDistribution":
        """The float copy, atom by atom in order.

        Rounding keeps the order of values, so two values that round to the
        same double are neighbours: they merge into one atom, their
        probabilities added in atom order, and an atom whose probability
        rounds to 0.0 is dropped, as ``make_distribution`` would merge and
        drop them. Without such a collision every atom keeps its bits.
        """
        return DiscreteDistribution(_merge_sorted((_float(v), _float(p)) for v, p in self.atoms))


def _float(x: Number) -> float:
    # The correctly rounded int division that float(Fraction) runs through
    # the Python-level numbers.Rational.__float__ (Python 3.10 to 3.13): the
    # same bits, without that call. It raises OverflowError past the range.
    return x.numerator / x.denominator if type(x) is Fraction else float(x)


def _sum(terms, start=0):
    # Left to right: from Python 3.12 on, sum() compensates float rounding.
    return reduce(add, terms, start)


def _merge_sorted(pairs) -> tuple[tuple[Number, Number], ...]:
    # Pairs sorted by value: each run of equal values becomes one atom, its
    # probabilities added in order, and zero-probability atoms are dropped.
    atoms: list = []
    for v, p in pairs:
        if atoms and atoms[-1][0] == v:
            atoms[-1] = (v, atoms[-1][1] + p)
        else:
            atoms.append((v, p))
    return tuple(atom for atom in atoms if atom[1])


def make_distribution(pairs: Sequence[tuple], mode: Mode = "exact") -> DiscreteDistribution:
    """Build a validated distribution from (value, prob) pairs.

    Duplicate values are merged, zero-probability atoms dropped, and the
    result is sorted by value. Probabilities must sum to exactly 1 in exact
    mode, or to within 1e-12 in float mode, where they are kept as given.
    """
    if not pairs:
        raise EmptySupport("distribution needs at least one atom")
    converted = []
    for v, p in pairs:
        v = as_number(v, mode)
        p = as_number(p, mode)
        if v < 0:
            raise NegativeValue(f"negative support value: {v}")
        if p < 0:
            raise ProbabilitySumMismatch(f"negative probability: {p}")
        converted.append((v, p))
    # A stable sort keeps equal values in input order, so each run is added
    # up in that order.
    atoms = _merge_sorted(sorted(converted, key=itemgetter(0)))
    if not atoms:
        raise EmptySupport("all atoms had zero probability")
    total = _sum(p for _, p in atoms)
    if mode == "exact":
        if total != 1:
            raise ProbabilitySumMismatch(f"probabilities sum to {total}, not 1")
    else:
        if abs(total - 1.0) > FLOAT_PROB_TOL:
            raise ProbabilitySumMismatch(f"probabilities sum to {total!r}")
    return DiscreteDistribution(atoms)


@dataclass(frozen=True, slots=True)
class Alternative:
    """One box: the principal's utility distribution plus its inspection cost."""

    dist: DiscreteDistribution
    inspect_cost: Number = 0

    def __post_init__(self):
        object.__setattr__(self, "inspect_cost", as_number(self.inspect_cost, self.dist.mode))
        if self.inspect_cost < 0:
            raise NegativeValue(f"negative inspection cost: {self.inspect_cost}")


@dataclass(frozen=True, slots=True)
class CostModel:
    """Additive per-alternative costs, or a monotone set function over subsets.

    A monotone table is copied once into a read-only mapping keyed by
    frozensets, so the caller's dict is never touched and the model hashes.
    An unknown kind, or a table on an additive model, raises InvalidParameters.
    """

    kind: Literal["additive", "monotone"]
    table: Optional[Mapping] = None

    def __post_init__(self):
        if self.kind not in ("additive", "monotone"):
            raise InvalidParameters(f"unknown cost_model type: {self.kind!r}")
        if self.table is not None:
            if self.kind == "additive":
                raise InvalidParameters("an additive cost model takes no table")
            frozen = MappingProxyType({frozenset(k): v for k, v in self.table.items()})
            object.__setattr__(self, "table", frozen)

    def __hash__(self):
        items = None if self.table is None else frozenset(self.table.items())
        return hash((self.kind, items))

    def __reduce__(self):
        # A mappingproxy does not pickle; rebuild from a plain dict copy.
        table = None if self.table is None else dict(self.table)
        return CostModel, (self.kind, table)


def _derived():
    # A field worked out from the others: not an argument, and left out of
    # repr, == and hash.
    return field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True, slots=True)
class Instance:
    """The alternatives, a cost model, and the delegation cost.

    ``mode`` is set from the alternatives at construction. The means, E[max
    (X - c)+], E[max X] and direct-search value start as None and are filled
    on first use, by ``expected_values``, ``expected_surplus``,
    ``expected_of_max`` and ``pnoi_value``. The means and E[max (X - c)+] are
    filled together, from one integer form of the boxes (``_fill_moments``).
    """

    alternatives: tuple[Alternative, ...]
    cost_model: CostModel = CostModel("additive")
    delegation_cost: Number = 0
    mode: Mode = _derived()
    _means: Optional[tuple[Number, ...]] = _derived()
    _max: Optional[Number] = _derived()
    _surplus: Optional[Number] = _derived()
    _direct: Optional[Number] = _derived()

    def __post_init__(self):
        object.__setattr__(self, "alternatives", tuple(self.alternatives))
        if not self.alternatives:
            raise InvalidParameters("instance needs at least one alternative")
        mode = self.alternatives[0].dist.mode
        for alt in self.alternatives:
            if alt.dist.mode != mode:
                raise InvalidParameters("mixed arithmetic modes in one instance")
        self._fill("mode", mode)
        object.__setattr__(self, "delegation_cost", as_number(self.delegation_cost, mode))
        if self.delegation_cost < 0:
            raise NegativeValue(f"negative delegation cost: {self.delegation_cost}")
        if self.cost_model.kind == "monotone":
            table = self.cost_model.table or {}
            costs = CostModel("monotone", {k: as_number(v, mode) for k, v in table.items()})
            object.__setattr__(self, "cost_model", costs)
            self._check_monotone_table()

    def _check_monotone_table(self) -> None:
        n = len(self.alternatives)
        table = self.cost_model.table
        if len(table) != 2**n:
            raise InvalidParameters("monotone cost table must cover all subsets")
        if table.get(frozenset(), None) != 0:
            raise InvalidParameters("monotone cost table needs c(empty)=0")
        for subset, cost in table.items():
            if cost < 0:
                raise NegativeValue("negative set cost")
            for i in range(n):
                if i not in subset:
                    bigger = subset | {i}
                    if bigger not in table:
                        raise InvalidParameters("monotone cost table must cover all subsets")
                    if table[bigger] < cost:
                        raise InvalidParameters("cost table is not monotone")

    @property
    def n(self) -> int:
        return len(self.alternatives)

    def zero(self) -> Number:
        return Fraction(0) if self.mode == "exact" else 0.0

    def singleton_costs(self) -> tuple[Number, ...]:
        """The cost of inspecting each alternative on its own."""
        if self.cost_model.kind == "additive":
            return tuple(alt.inspect_cost for alt in self.alternatives)
        table = self.cost_model.table
        return tuple(table[frozenset([i])] for i in range(self.n))

    def _fill(self, slot: str, value):
        # The one writer of a derived field; callers read a filled slot first.
        object.__setattr__(self, slot, value)
        return value

    def expected_values(self) -> tuple[Number, ...]:
        """The means E[X_i], filled on first use together with E[max (X - c)+]."""
        if self._means is None:
            _fill_moments(self)
        return self._means

    def expected_surplus(self) -> Number:
        """E[max_i (X_i - c_i)+], c_i the singleton costs, filled on first use
        together with the means."""
        if self._surplus is None:
            _fill_moments(self)
        return self._surplus

    def with_delegation_cost(self, cost: Number) -> "Instance":
        """This instance with another delegation cost.

        No value filled on first use depends on the delegation cost, so each carries over.
        """
        other = Instance(self.alternatives, self.cost_model, cost)
        for slot in ("_means", "_max", "_surplus", "_direct"):
            other._fill(slot, getattr(self, slot))
        return other

    def to_float(self) -> "Instance":
        """The float copy: each exact number becomes the double that
        float(Fraction) gives it, and InvalidParameters is raised if one is
        outside the float range."""
        try:
            alts = tuple(
                Alternative(alt.dist.to_float(), _float(alt.inspect_cost))
                for alt in self.alternatives
            )
            kind, table = self.cost_model.kind, self.cost_model.table
            cm = CostModel(kind, table and {k: _float(v) for k, v in table.items()})
            cdel = _float(self.delegation_cost)
        except OverflowError:
            raise InvalidParameters("a number is outside the float range") from None
        return Instance(alts, cm, cdel)


def _scaled_atoms(dists: Sequence[DiscreteDistribution], charges: Sequence[Number] = ()) -> tuple:
    """The integer form of independent boxes that the sweeps over them run on.

    Returns (D, box_units, atoms, scaled_charges): D, a common denominator of
    every value and of ``charges``; q_j, the lcm of box j's probability
    denominators; every atom as the triple (D * v, j, q_j * p), box by box
    in atom order; and D times each charge. Float mode uses unit scales: the
    triples are (v, j, p) and the charges pass through.
    """
    if type(dists[0].atoms[0][0]) is not Fraction:
        atoms = [(v, j, p) for j, d in enumerate(dists) for v, p in d.atoms]
        return 1, [1] * len(dists), atoms, list(charges)
    unit = lcm(
        *(v.denominator for d in dists for v, _ in d.atoms),
        *(c.denominator for c in charges),
    )
    box_units = [lcm(*(p.denominator for _, p in d.atoms)) for d in dists]
    atoms = [
        (v.numerator * (unit // v.denominator), j, p.numerator * (q // p.denominator))
        for j, (d, q) in enumerate(zip(dists, box_units))
        for v, p in d.atoms
    ]
    return unit, box_units, atoms, [c.numerator * (unit // c.denominator) for c in charges]


def expected_max_of_dists(dists: Sequence[DiscreteDistribution]) -> Number:
    """Exact E[max_i X_i] for independent distributions; for an instance's
    boxes, ``expected_of_max`` stores it on the instance.

    One merged sweep: all atoms go into one list, stably sorted by value.
    Each box keeps its CDF as a running sum, and the product F(t) of the CDFs
    is taken once per distinct value t, so E[max] = sum_t t * (F(t) - F(t-)).
    For A atoms in all, U distinct values and n boxes that costs
    O(A log A + U n), never the product space. In exact mode the sweep runs
    on the Python ints of ``_scaled_atoms``: values go over one common
    denominator D, box j's probabilities become integer weights over its
    denominator q_j, and one Fraction(total, D * prod q_j) is built at the
    end. Float mode runs the same code with unit scales, adding each CDF in
    atom order. The sweep itself is ``_max_sweep``, which the SPMI and
    ``_fill_moments`` call on their own triples: a box whose weights total
    less than its scale works too, and the sum is then the integral of the
    max over the product of those sub-probability measures.
    """
    if not dists:
        raise EmptySupport("need at least one distribution")
    # An exact type test, as in DiscreteDistribution.mode.
    exact = type(dists[0].atoms[0][0]) is Fraction
    unit, box_units, merged, _ = _scaled_atoms(dists)
    total = _max_sweep(merged, len(dists))
    return Fraction(total, unit * prod(box_units)) if exact else total


def _box_sums(triples: list, boxes: int) -> list:
    """Each box's sum D*v * q_j*p over its ``_scaled_atoms`` triples, added
    left to right from 0 in atom order: D * q_j times its mean. In float
    mode (unit scales) that is the mean itself."""
    sums = [0] * boxes
    for v, j, w in triples:
        sums[j] += v * w
    return sums


def _box_means(scaled: tuple, exact: bool) -> tuple:
    """Each box's mean from the ``_scaled_atoms`` form ``scaled``: its
    ``_box_sums`` entry, divided by D * q_j in exact mode."""
    unit, box_units, triples, _ = scaled
    sums = _box_sums(triples, len(box_units))
    if not exact:
        return tuple(sums)
    return tuple(Fraction(s, unit * q) for s, q in zip(sums, box_units))


def _fill_moments(instance: Instance) -> None:
    """Fill the means and E[max (X - c)+] of ``instance`` from one
    ``_scaled_atoms`` conversion, with c its singleton costs.

    The means are ``_box_means``. For the surplus, box j's atoms enter
    ``_max_sweep`` as (v - c_j)+: the costs join D, and the clip is
    max(v*D - c_j*D, 0) on ints. The atoms a box clips to 0 lead its CDF, so
    they are added in atom order first, as if merged into one zero atom;
    above 0, v -> v - c_j is injective, so no other atoms meet.
    """
    exact = instance.mode == "exact"
    scaled = _scaled_atoms([alt.dist for alt in instance.alternatives], instance.singleton_costs())
    unit, box_units, triples, charges = scaled
    means = _box_means(scaled, exact)
    zero = 0 if exact else 0.0
    clipped = [(v - charges[j] if v > charges[j] else zero, j, w) for v, j, w in triples]
    surplus = _max_sweep(clipped, len(charges))
    if exact:
        surplus = Fraction(surplus, unit * prod(box_units))
    instance._fill("_means", means)
    instance._fill("_surplus", surplus)


def _max_sweep(triples: list, boxes: int) -> Number:
    """sum_t t * (F(t) - F(t-)) over (value, box, weight) triples, which it
    sorts in place; F is the product of the ``boxes`` running CDFs. On the
    ints of ``_scaled_atoms`` that is D * prod q_j times E[max]."""
    triples.sort(key=itemgetter(0))
    cdf = [0] * boxes
    total = 0
    f_prev = 0
    for t, run in groupby(triples, itemgetter(0)):
        for _, j, w in run:
            cdf[j] += w
        f_t = prod(cdf, start=1)
        total += t * (f_t - f_prev)
        f_prev = f_t
    return total


def expected_of_max(instance: Instance) -> Number:
    """Exact E[max_i X_i] over independent alternatives, by
    ``expected_max_of_dists`` on first call and stored on the instance;
    later calls return the stored value. The clipped surplus
    E[max_i (X_i - c_i)+] is ``Instance.expected_surplus``.
    """
    if instance._max is None:
        instance._fill("_max", expected_max_of_dists([alt.dist for alt in instance.alternatives]))
    return instance._max


# --- JSON instance schema -------------------------------------------------
#
# {"alternatives": [{"cost": c, "support": [[v, p], ...]}, ...],
#  "cost_model": {"type": "additive"} | {"table": {...}, "type": "monotone"},
#  "delegation_cost": c}
#
# Exact mode renders every number as a string ("0.25" or "1/3") so nothing is
# lost to binary floats; float mode uses plain JSON numbers. instance_to_json
# is the one writer: it emits these keys sorted, with the ", " and ": "
# separators, which are the bytes of json.dumps(..., sort_keys=True).


def _subset_key(subset: frozenset) -> str:
    return ",".join(str(i) for i in sorted(subset))


def _subset_from_key(key: str) -> frozenset:
    if key == "":
        return frozenset()
    return frozenset(int(part) for part in key.split(","))


def _json_number(x: Number) -> str:
    # An exact type test, as in _to_json; a float is written as json.dumps
    # writes it, through float.__repr__.
    return f'"{format_number(x)}"' if type(x) is Fraction else repr(x)


def instance_to_json(instance: Instance) -> str:
    """The canonical JSON of an instance, written directly as one string."""
    num = _json_number
    alts = ", ".join(
        '{"cost": %s, "support": [%s]}'
        % (num(alt.inspect_cost), ", ".join(f"[{num(v)}, {num(p)}]" for v, p in alt.dist.atoms))
        for alt in instance.alternatives
    )
    if instance.cost_model.kind == "monotone":
        table = sorted((_subset_key(s), num(c)) for s, c in instance.cost_model.table.items())
        rows = ", ".join(f'"{k}": {c}' for k, c in table)
        cm = f'{{"table": {{{rows}}}, "type": "monotone"}}'
    else:
        cm = '{"type": "additive"}'
    return (
        f'{{"alternatives": [{alts}], "cost_model": {cm}, '
        f'"delegation_cost": {num(instance.delegation_cost)}}}'
    )


def instance_from_obj(obj: dict, mode: Mode = "exact") -> Instance:
    """The instance of a JSON object in the schema above, or of the object
    ``gen`` writes, which holds one under "instance". Such an instance is
    read exactly and, if the object has an "instance_digest", checked
    against it; float mode then takes its float copy."""
    if isinstance(obj, dict) and "instance" in obj:
        inst = _instance_of(obj["instance"], "exact")
        digest, actual = obj.get("instance_digest"), instance_digest(inst)
        if digest is not None and digest != actual:
            raise InvalidParameters(
                f"instance_digest {digest!r} does not match the instance's {actual!r}"
            )
        return inst if mode == "exact" else inst.to_float()
    return _instance_of(obj, mode)


def _instance_of(obj: dict, mode: Mode) -> Instance:
    try:
        alts = tuple(
            Alternative(
                make_distribution([(v, p) for v, p in alt["support"]], mode),
                as_number(alt.get("cost", 0), mode),
            )
            for alt in obj["alternatives"]
        )
        cm_obj = obj.get("cost_model", {"type": "additive"})
        # Every kind gets the table it was given: CostModel, not the loader,
        # decides which kinds take one.
        kind, table = cm_obj["type"], cm_obj.get("table")
        if kind == "monotone" or table is not None:
            table = {_subset_from_key(k): as_number(v, mode) for k, v in cm_obj["table"].items()}
        cm = CostModel(kind, table)
        return Instance(alts, cm, as_number(obj.get("delegation_cost", 0), mode))
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # AttributeError: a JSON array where an object belongs; ValueError: a
        # support row that is not a [value, prob] pair.
        raise InvalidParameters(f"malformed instance object: {exc}") from exc


def instance_from_json(text: str, mode: Mode = "exact") -> Instance:
    try:
        obj = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError: bad syntax (JSONDecodeError) or an int literal beyond
        # the digit limit; RecursionError: nesting deeper than the stack.
        raise InvalidParameters(f"instance is not valid JSON: {exc}") from exc
    return instance_from_obj(obj, mode)


def instance_digest(instance: Instance) -> str:
    """Short stable identifier: the first 12 hex digits of the sha256 of
    ``instance_to_json(instance)``."""
    return hashlib.sha256(instance_to_json(instance).encode()).hexdigest()[:12]
