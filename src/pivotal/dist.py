"""Finite joint distributions with exact rational probabilities.

Two concrete representations share one query interface: an explicit
support list and a fully independent product form. All probability mass
is carried by ``fractions.Fraction``, so marginals, conditionals,
expectations, and independence checks are exact computations; floats
appear only when a report is rendered.

An outcome of n players over an m-symbol alphabet is a tuple of n ints in
0..m-1 (``bool`` counts as an int; ``1.0`` and ``Fraction(1)`` do not).
``first_bad_outcome`` is the one place that rule is written: supports,
tables and closures are checked through it at construction, and a
``weight`` or ``condition`` query applies it to its point or assignment,
where a wrong length is an error and a value that is not a symbol has no
mass. ``as_int`` applies the same test, and a range, to integer arguments.

Every grouped sum over the support goes through one kernel,
``Distribution.sums``. It accumulates integer weights over a common
denominator and builds each ``Fraction`` once, after the pass. Each
distribution scales its weights once, at construction: an explicit
support keeps its lcm denominator and integer weights, a product form
each distinct row's, and the weights are checked on that integer view.

Exact k-wise checks and single marginals do not use the kernel. They see
an explicit support as bitsets, one per (player, symbol) and one per
distinct integer weight, built at the first such query and kept, with
each player's symbol masses. The joint mass of an assignment is the AND of
its players' bitsets, weighed class by class by popcount, and
factorization is decided in integers over the lcm denominator.

A product form whose rows are all equal has a statistic path. When f is
None or a function of one integer statistic, the total of per-symbol
scores (``boolfn.StatisticFn``), and no group names a player twice, the
kernel never evaluates f. The law of the total over r players is the
r-th power of the row polynomial Q(x) = sum_s r_s x^score(s), in the
row's integer weights, so f's law comes from Q^n and each table entry
from Q^(n - k), shifted by the group's own score and weighed by its
symbols' weights. Each entry is the grid walk's integer sum, grouped by
total, so both paths return equal ``GroupedSums``, with the same dict
order. Any other input walks the grid.

Each constructor checks its value once and builds the integer view of
the weights and the draw tables of ``sample`` (their running sums). Only
an explicit support's bitsets wait for their first query: they cost about
half as much as the construction itself, and only k-wise checks and
single marginals read them. Values are immutable after construction and
every operation is a pure function of its inputs, so concurrent use needs
no coordination; whichever caller builds the bitsets builds the same
ones. Sampling takes its seed and draw index explicitly.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass
from fractions import Fraction
from operator import eq, getitem, itemgetter
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Protocol, Sequence

Outcome = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

# Expanding a product form materializes its grid; past this many points
# we refuse rather than exhaust memory (streaming queries stay lazy).
_EXPANSION_LIMIT = 1 << 21


class PivotalError(Exception):
    """Base class for all library errors."""


class DistributionError(PivotalError):
    """A distribution invariant or precondition failed."""


class NullConditionError(DistributionError):
    """Conditioning on an event of probability zero."""


class UndefinedPointError(PivotalError):
    """A player function was evaluated outside its domain."""


class Evaluable(Protocol):
    """Anything that maps outcomes to rational values."""

    def evaluate(self, x: Outcome) -> Fraction: ...


@dataclass(frozen=True)
class Alphabet:
    """Ordered list of distinct symbol labels; order is part of equality."""

    symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        if not (isinstance(self.symbols, tuple) and all(isinstance(s, str) for s in self.symbols)):
            raise DistributionError(f"alphabet must be a tuple of strings, got {self.symbols!r}")
        if not self.symbols:
            raise DistributionError("alphabet must have at least one symbol")
        if len(set(self.symbols)) != len(self.symbols):
            raise DistributionError(f"alphabet symbols not distinct: {self.symbols!r}")

    def __len__(self) -> int:
        return len(self.symbols)

    def index(self, symbol: str) -> int:
        try:
            return self.symbols.index(symbol)
        except ValueError:
            raise DistributionError(f"symbol {symbol!r} not in alphabet {self.symbols!r}") from None


BINARY = Alphabet(("0", "1"))
# Third symbol marks a non-participating player.
PARTICIPATION = Alphabet(("0", "1", "⊥"))


@dataclass(frozen=True)
class KwiseWitness:
    """First subset/assignment whose joint mass breaks factorization."""

    players: tuple[int, ...]
    assignment: tuple[int, ...]
    joint: Fraction
    product: Fraction


@dataclass(frozen=True)
class KwiseResult:
    ok: bool
    witness: KwiseWitness | None = None

    def __bool__(self) -> bool:
        return self.ok


@dataclass(frozen=True)
class GroupedSums:
    """Result of one ``Distribution.sums`` pass over the support.

    ``law`` maps each value of f to its mass and ``mean`` is E[f]. Table g
    maps the joint symbols of group g (in the group's player order) to
    (mass, sum of weight * f) over the outcomes showing them; symbol tuples
    of mass zero are absent. Groups may share one (read-only) table object.
    """

    law: dict[Fraction, Fraction]
    mean: Fraction
    tables: tuple[dict[Outcome, tuple[Fraction, Fraction]], ...]


def as_exact(value: object, what: str, error: type = DistributionError) -> Fraction:
    """value as a Fraction; only int and Fraction are accepted, never floats."""
    if type(value) is Fraction:
        return value
    if not isinstance(value, (int, Fraction)):
        raise error(f"{what} must be an int or Fraction, got {value!r}")
    return Fraction(value)


def as_int(value: object, what: str, error: type = DistributionError,
           lo: int | None = None, hi: int | None = None) -> int:
    """value as a plain int (the outcome rule's ``isinstance``: True is 1), in lo..hi or >= lo."""
    if not isinstance(value, int):
        raise error(f"{what} must be an int, got {value!r}")
    value = int(value)
    if lo is not None and (value < lo or hi is not None and value > hi):
        bounds = f">= {lo}" if hi is None else f"in {lo}..{hi}"
        raise error(f"{what} must be {bounds}, got {value}")
    return value


def _follows_rule(outcomes: Collection[Outcome], n: int, m: int) -> bool:
    # One pass each over the distinct lengths, types (apart: 1.0 and 1 are one
    # set element) and symbols, collected only once every type is int.
    return (all(k == n for k in set(map(len, outcomes)))
            and all(issubclass(t, int)
                    for t in set(map(type, itertools.chain.from_iterable(outcomes))))
            and all(0 <= s < m for s in set().union(*outcomes)))


def first_bad_outcome(outcomes: Collection[Outcome], n: int, m: int) -> Outcome | None:
    """The first outcome that is not n ints in 0..m-1, or None; walks only if one pass fails."""
    if _follows_rule(outcomes, n, m):
        return None
    return next(x for x in outcomes if not _follows_rule((x,), n, m))


def _rng_for(seed: int | str, index: int) -> random.Random:
    # One generator per (seed, index) pair keeps parallel draws reproducible.
    return random.Random(f"{seed}|{index}")


def _scale(weights: Sequence[Fraction]) -> tuple[int, list[int]]:
    """The lcm D of the weights' denominators and D * w for each weight w."""
    denom = math.lcm(*(w.denominator for w in weights))
    return denom, [w.numerator * (denom // w.denominator) for w in weights]


# A distinct row of a product form: the lcm den of its denominators, den * weight
# per symbol, its symbols of positive weight with their ints, and sample()'s table.
_Row = NamedTuple("_Row", [("den", int), ("ints", list[int]), ("symbols", list[int]),
                           ("weights", list[int]), ("cum", list[int])])


def _draw(rng: random.Random, cum: Sequence[int]) -> int:
    """Pick index i with probability exactly (cum[i] - cum[i-1]) / cum[-1].

    Stream contract: rng sees the same ``getrandbits`` calls as
    ``rng.randrange(cum[-1])`` makes (k-bit draws with k the total's bit
    length, redrawn while at or past the total), then r maps to the first
    index whose cumulative entry exceeds it. Draws therefore match a linear
    scan over the lcm-scaled weights, and a total of 1 still consumes its
    one-bit draws.
    """
    total = cum[-1]
    k = total.bit_length()
    r = rng.getrandbits(k)
    while r >= total:
        r = rng.getrandbits(k)
    return bisect.bisect_right(cum, r)


def _law_and_mean(slots: dict[Fraction, int], value_mass: list[int],
                  denom: int) -> tuple[dict[Fraction, Fraction], Fraction, int, list[int]]:
    """Law (in ascending value order) and mean of f from each value slot's mass.

    Also returns the lcm vden of the values' denominators and each value
    times vden: f-weighted sums share the denominator denom * vden.
    """
    vden = math.lcm(*(v.denominator for v in slots))
    scaled = [v.numerator * (vden // v.denominator) for v in slots]
    law = {v: Fraction(value_mass[slots[v]], denom) for v in sorted(slots)}
    mean = Fraction(sum(map(int.__mul__, value_mass, scaled)), denom * vden)
    return law, mean, vden, scaled


def _power(q: Sequence[int], r: int) -> list[int]:
    """Coefficients of the polynomial q(x) ** r, for integer q with q[0] != 0.

    Miller's recurrence for powers of a power series (Knuth, TAOCP vol. 2,
    4.7): k q_0 P_k = sum_(j=1..min(k, d)) ((r + 1) j - k) q_j P_(k-j), with
    d the degree of q. Every division is exact, and the r d + 1
    coefficients take O(r d^2) integer steps.
    """
    d = len(q) - 1
    out = [q[0] ** r]
    for k in range(1, r * d + 1):
        out.append(sum(((r + 1) * j - k) * q[j] * out[k - j]
                       for j in range(1, min(k, d) + 1)) // (k * q[0]))
    return out


class _Bitsets(NamedTuple):
    """An explicit support as bitsets: bit j stands for support point j."""

    columns: list[list[int]]  # columns[i][s]: the points where player i shows s
    classes: list[tuple[int, int]]  # (integer weight w, the points weighing w); [] if many
    ints: Sequence[int]  # the integer weight of each point
    singles: list[list[int]]  # singles[i][s]: integer mass of player i showing s

    def mass(self, bits: int) -> int:
        """Integer mass of a set of points.

        Weighs each class by its popcount when there are classes and no
        more of them than set bits. Otherwise adds the weights of the set
        bits, found by scanning the bits' binary text once, so the cost is
        O(|supp|) plus one step per set bit. The sets of one subset's
        assignments are disjoint, so its walks add up to at most |supp| steps.
        """
        total = 0
        if 0 < len(self.classes) <= bits.bit_count():
            for w, points in self.classes:
                total += w * (bits & points).bit_count()
            return total
        text = format(bits, "b")  # the last point first
        last = len(text) - 1
        i = text.find("1")
        while i >= 0:
            total += self.ints[last - i]
            i = text.find("1", i + 1)
        return total


@functools.cache
def _marks(count: int) -> list[dict[int, str]]:
    """Per code 0..count-1, the translation of code characters to its bits."""
    return [{c: "1" if c == code else "0" for c in range(count)} for code in range(count)]


def _indicators(codes: Iterable[int], count: int) -> list[int]:
    """Bitset of the points with each code 0..count-1, given codes last point first.

    The codes become one character per point (int reads the most
    significant digit first), and one translation per code turns them
    into that code's bitset, in O(|supp|) per code.
    """
    text = "".join(map(chr, codes))
    return [int(text.translate(marks), 2) for marks in _marks(count)]


def _support_bitsets(points: Sequence[Outcome], ints: Sequence[int], m: int) -> _Bitsets:
    """Per-(player, symbol) bitsets of a support, and its weight classes if few.

    Class bitsets are built only when there are at most as many classes as
    |supp| has bits. They then take O(|supp| log |supp|) bits, and one
    mass weighed by class costs at most that many bit steps.
    """
    columns = [_indicators(col, m) for col in zip(*reversed(points))]
    weights = list(dict.fromkeys(ints))
    classes = []
    if len(weights) <= len(points).bit_length():
        index = {w: c for c, w in enumerate(weights)}
        classes = list(zip(weights, _indicators(map(index.__getitem__, reversed(ints)),
                                                len(weights))))
    unweighed = _Bitsets(columns, classes, ints, [])
    return unweighed._replace(singles=[list(map(unweighed.mass, row)) for row in columns])


class Distribution(ABC):
    """Shared query interface over explicit and product representations."""

    alphabet: Alphabet
    n: int

    @abstractmethod
    def items(self) -> Iterator[tuple[Outcome, Fraction]]:
        """Iterate (outcome, weight) over the support, weights > 0."""

    @abstractmethod
    def scaled_items(self) -> tuple[int, Iterable[tuple[Outcome, int]]]:
        """A common denominator D and (outcome, D * weight) over the support."""

    @abstractmethod
    def weight(self, x: Outcome) -> Fraction:
        """Exact probability of a single outcome (0 off support)."""

    @abstractmethod
    def single_marginal(self, i: int) -> tuple[Fraction, ...]:
        """Per-symbol mass of player i's signal."""

    @abstractmethod
    def condition(self, assignment: Mapping[int, int]) -> "Distribution":
        """Restrict to outcomes matching the partial assignment, renormalized."""

    @abstractmethod
    def to_explicit(self) -> "ExplicitDist":
        """Explicit expansion with canonically sorted support."""

    @abstractmethod
    def sample(self, seed: int | str, index: int = 0) -> Outcome:
        """Draw one outcome; deterministic given (seed, index)."""

    def _check_player(self, i: int) -> int:
        return as_int(i, "player index", DistributionError, 0, self.n - 1)

    def _player_set(self, players: Iterable[int]) -> list[int]:
        """The sorted distinct players of a non-empty set, each checked before it is hashed."""
        T = sorted({self._check_player(i) for i in players})
        if not T:
            raise DistributionError("player set must be non-empty")
        return T

    def _symbols(self, values: Outcome) -> bool:
        """Whether every value is a symbol of the alphabet; others have no mass."""
        return _follows_rule((values,), len(values), len(self.alphabet))

    def _check_groups(self, groups: Sequence[Sequence[int]]) -> list[tuple[int, ...]]:
        checked = []
        for T in groups:
            if not isinstance(T, (tuple, list, Sequence)):  # the ABC test is the slow one
                raise DistributionError(f"player group must be a sequence, got {T!r}")
            if not T:
                raise DistributionError("player group must be non-empty")
            checked.append(tuple(map(self._check_player, T)))
        return checked

    def sums(self, groups: Sequence[Sequence[int]],
             f: Evaluable | None = None) -> GroupedSums:
        """Law of f and per-group conditional sums, in one support pass.

        ``f=None`` stands for the constant 1, so the tables carry masses.
        Weights are summed as integers per (joint symbols, value of f) and
        turned into fractions only at the end.
        """
        return self._sums(self._check_groups(groups), f)

    def _sums(self, groups: list[tuple[int, ...]], f: Evaluable | None) -> GroupedSums:
        getters = [itemgetter(*T) for T in groups]
        accs: list[dict] = [{} for _ in groups]
        slots = {ONE: 0} if f is None else {}
        value_mass = [0] if f is None else []
        denom, points = self.scaled_items()
        for x, w in points:
            if f is None:
                j = 0
            else:
                v = f.evaluate(x)
                j = slots.get(v)
                if j is None:
                    j = slots[v] = len(value_mass)
                    value_mass.append(0)
            value_mass[j] += w
            for get, acc in zip(getters, accs):
                key = get(x), j
                acc[key] = acc.get(key, 0) + w
        law, mean, vden, scaled = _law_and_mean(slots, value_mass, denom)
        tables = []
        for T, acc in zip(groups, accs):
            ints: dict = {}
            for (key, j), w in acc.items():
                m, s = ints.get(key, (0, 0))
                ints[key] = (m + w, s + w * scaled[j])
            tables.append({(key if len(T) > 1 else (key,)):
                           (Fraction(m, denom), Fraction(s, denom * vden))
                           for key, (m, s) in ints.items()})
        return GroupedSums(law, mean, tuple(tables))

    def marginal(self, players: Sequence[int]) -> "ExplicitDist":
        """Joint law of the given players, as an explicit distribution.

        Coordinates of the result follow the sorted player order.
        """
        T = self._player_set(players)
        (table,) = self.sums([T]).tables
        return ExplicitDist(self.alphabet, len(T),
                            [(key, mass) for key, (mass, _) in table.items()])

    def expectation(self, f: Evaluable) -> Fraction:
        """Exact sum of weight * f over the support."""
        return self.sums([], f).mean

    def check_kwise(self, k: int) -> KwiseResult:
        """Exact k-wise independence test.

        True iff every subset of at most k players factorizes over every
        assignment. Subsets are scanned by size then lexicographically, and
        assignments in ``itertools.product`` order, so the witness is
        canonical. The scan runs on the explicit support (see
        ``ExplicitDist._kwise_scan``) and stops at the first failure.
        """
        k = as_int(k, "k", DistributionError, 1, self.n)
        return self.to_explicit()._kwise_scan(k)


class ExplicitDist(Distribution):
    """Distribution given by an explicit (outcome, weight) support list."""

    __slots__ = ("alphabet", "n", "support", "_denom", "_ints", "_cum", "_bits")

    def __init__(self, alphabet: Alphabet, n: int,
                 support: Sequence[tuple[Outcome, Fraction]]):
        self.alphabet = alphabet
        self.n = as_int(n, "arity")
        support = [(tuple(x), as_exact(w, "weight")) for x, w in support]
        as_int(self.n, "arity", DistributionError, 1)
        if not support:
            raise DistributionError("support is empty")
        # Checked before sorting: a symbol that is not an int may not order against one.
        x = first_bad_outcome(list(map(itemgetter(0), support)), self.n, len(alphabet))
        if x is not None:
            if len(x) != self.n:
                raise DistributionError(f"outcome {x} has length {len(x)}, expected arity {self.n}")
            raise DistributionError(f"outcome {x} uses a symbol index outside the alphabet")
        self.support = tuple(sorted(support))
        points = list(map(itemgetter(0), self.support))
        # Sorted, so equal outcomes sit next to each other.
        for x in itertools.compress(points, map(eq, points, points[1:])):
            raise DistributionError(f"duplicate outcome {x} in support")
        # The lcm denominator and the integer weights aligned with support.
        self._denom, self._ints = _scale([w for _, w in self.support])
        if min(self._ints) <= 0:
            x, w = next(point for point, iw in zip(self.support, self._ints) if iw <= 0)
            raise DistributionError(f"weight of {x} is {w}, must be positive")
        if sum(self._ints) != self._denom:
            raise DistributionError(
                f"weights sum to {Fraction(sum(self._ints), self._denom)}, expected 1")
        self._cum = list(itertools.accumulate(self._ints))  # the draw table of sample()
        self._bits: _Bitsets | None = None  # built by _bitsets()

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ExplicitDist)
                and self.alphabet == other.alphabet
                and self.n == other.n
                and self.support == other.support)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.n, self.support))

    def __repr__(self) -> str:
        return f"ExplicitDist(n={self.n}, |supp|={len(self.support)})"

    def items(self) -> Iterator[tuple[Outcome, Fraction]]:
        return iter(self.support)

    def scaled_items(self) -> tuple[int, Iterator[tuple[Outcome, int]]]:
        return self._denom, zip(map(itemgetter(0), self.support), self._ints)

    def _bitsets(self) -> _Bitsets:
        if self._bits is None:
            points = [x for x, _ in self.support]
            self._bits = _support_bitsets(points, self._ints, len(self.alphabet))
        return self._bits

    def _kwise_scan(self, k: int) -> KwiseResult:
        # Joint masses stay integers over the support's denominator D: the
        # subset T factorizes at a iff joint * D^(|T|-1) == prod of the
        # players' integer masses, and Fractions are built for a witness only.
        #
        # Assignments that use the last symbol are skipped. Say every subset
        # smaller than T factorizes (the scan goes by size) and so does every
        # assignment of T before a in product order. If a_p is the last
        # symbol, the assignments that put an earlier symbol s at p come
        # before a, so joint(a) = joint(a without p) - sum_s joint(a, p = s)
        # = prod_(q != p) mu_q(a_q) * (1 - sum_s mu_p(s)) factorizes too.
        # The first failure therefore uses earlier symbols only, and
        # scanning those in the same order finds the same witness.
        denom = self._denom
        bits = self._bitsets()
        columns, singles, mass = bits.columns, bits.singles, bits.mass
        symbols = range(len(self.alphabet) - 1)
        for size in range(2, k + 1):
            scale = denom ** (size - 1)
            # Lexicographic order takes the subsets P + (j,) for j past P's
            # last player together, so the bitset AND and the product of
            # each assignment of P are built once and shared by them.
            for P in itertools.combinations(range(self.n - 1), size - 1):
                cols, marginals = [columns[i] for i in P], [singles[i] for i in P]
                prefixes = [(a, functools.reduce(int.__and__, map(getitem, cols, a)),
                             math.prod(map(getitem, marginals, a)))
                            for a in itertools.product(symbols, repeat=size - 1)]
                for j in range(P[-1] + 1, self.n):
                    for a, bits, prod in prefixes:
                        for s in symbols:
                            joint = mass(bits & columns[j][s])
                            if joint * scale != prod * singles[j][s]:
                                return KwiseResult(False, KwiseWitness(
                                    P + (j,), a + (s,), Fraction(joint, denom),
                                    Fraction(prod * singles[j][s], denom ** size)))
        return KwiseResult(True, None)

    def weight(self, x: Outcome) -> Fraction:
        x = tuple(x)
        if len(x) != self.n:
            raise DistributionError(f"outcome {x} has wrong arity")
        if not self._symbols(x):
            return ZERO
        i = bisect.bisect_left(self.support, (x,))  # (x,) sorts just before (x, w)
        return self.support[i][1] if i < len(self.support) and self.support[i][0] == x else ZERO

    def single_marginal(self, i: int) -> tuple[Fraction, ...]:
        self._check_player(i)
        return tuple(Fraction(w, self._denom) for w in self._bitsets().singles[i])

    def condition(self, assignment: Mapping[int, int]) -> "ExplicitDist":
        assignment = {self._check_player(i): s for i, s in assignment.items()}
        kept = [(x, w) for x, w in zip(map(itemgetter(0), self.support), self._ints)
                if all(x[i] == s for i, s in assignment.items())]
        mass = sum(w for _, w in kept)
        if mass == 0 or not self._symbols(tuple(assignment.values())):
            raise NullConditionError(f"conditioning on null event {dict(assignment)!r}")
        return ExplicitDist(self.alphabet, self.n, [(x, Fraction(w, mass)) for x, w in kept])

    def to_explicit(self) -> "ExplicitDist":
        return self

    def sample(self, seed: int | str, index: int = 0) -> Outcome:
        return self.support[_draw(_rng_for(seed, index), self._cum)][0]


class ProductDist(Distribution):
    """Fully independent players, one marginal vector per player.

    Enumeration streams the symbol grid without materializing it, so
    queries on e.g. a 3^12 grid keep memory flat.
    """

    __slots__ = ("alphabet", "n", "marginals", "_entries", "_index")

    def __init__(self, alphabet: Alphabet, n: int,
                 marginals: Sequence[Sequence[Fraction]]):
        self.alphabet = alphabet
        self.n = as_int(n, "arity")
        rows, by_id, by_row = list(marginals), {}, {}  # the held rows keep their ids apart
        for row in rows:
            if id(row) not in by_id:  # each input row object is converted and scaled once
                exact = tuple(as_exact(p, "marginal") for p in row)
                den, ints = _scale(exact)  # equal rows scale alike, so they share one entry
                by_id[id(row)] = by_row.setdefault((den, *ints), (len(by_row), exact))
        self._index = [by_id[id(row)][0] for row in rows]  # each player's entry
        self.marginals = tuple([by_id[id(row)][1] for row in rows])  # equal rows share a tuple
        self._entries = [_Row(den, ints, [s for s, w in enumerate(ints) if w],
                              [w for w in ints if w], list(itertools.accumulate(ints)))
                         for den, *ints in by_row]
        as_int(self.n, "arity", DistributionError, 1)
        if len(self.marginals) != self.n:
            raise DistributionError(
                f"{len(self.marginals)} marginal vectors for arity {self.n}")
        m = len(self.alphabet)
        for j, (den, ints, *_) in enumerate(self._entries):
            fault = (f"has {len(ints)} entries, alphabet has {m}" if len(ints) != m
                     else "has a negative entry" if any(w < 0 for w in ints)
                     else f"sums to {Fraction(sum(ints), den)}, expected 1" if sum(ints) != den
                     else None)
            if fault:
                raise DistributionError(f"player {self._index.index(j)} marginal {fault}")

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ProductDist)
                and self.alphabet == other.alphabet
                and self.n == other.n
                and self.marginals == other.marginals)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.n, self.marginals))

    def __repr__(self) -> str:
        return f"ProductDist(n={self.n}, |S|={len(self.alphabet)})"

    def items(self) -> Iterator[tuple[Outcome, Fraction]]:
        denom, points = self.scaled_items()
        return ((x, Fraction(w, denom)) for x, w in points)

    def scaled_items(self) -> tuple[int, Iterator[tuple[Outcome, int]]]:
        dens, _, symbols, weights, _ = zip(*map(self._entries.__getitem__, self._index))
        return math.prod(dens), zip(itertools.product(*symbols),
                                    map(math.prod, itertools.product(*weights)))

    def _sums(self, groups: list[tuple[int, ...]], f: Evaluable | None) -> GroupedSums:
        """``Distribution.sums``, over the law of f's statistic when that is exact.

        When every row is equal, f is None or a function of a score total
        (it has ``of_total``), and no group names a player twice, the
        statistic path sums over the law of that total. Otherwise the grid
        is walked as for any distribution.
        """
        if ((f is None or hasattr(f, "of_total"))
                and len(self._entries) == 1
                and all(len(set(T)) == len(T) for T in groups)):
            return self._statistic_sums(groups, f)
        return super()._sums(groups, f)

    def _statistic_sums(self, groups: list[tuple[int, ...]],
                        f: Evaluable | None) -> GroupedSums:
        # Weights stay integers over row_den ** n, and the row's zero-weight
        # symbols are left out, as in the grid walk. With lo the least score,
        # power(r)[i] is the weight of r players reaching the total r * lo + i.
        n = self.n
        row_den, row_ints, symbols, _, _ = self._entries[0]
        if f is not None:
            f._check_arity((symbols[0],) * n)  # as the grid walk's first evaluation would
        score = {s: 0 if f is None else f.scores.get(s, 0) for s in symbols}
        lo = min(score.values())
        q = [0] * (max(score.values()) - lo + 1)
        for s in symbols:
            q[score[s] - lo] += row_ints[s]
        power = functools.cache(functools.partial(_power, q))
        # f's value at each total of the n players; None where none is reached.
        values = [None if not w else ONE if f is None else f.of_total(t)
                  for t, w in enumerate(power(n), n * lo)]
        masses: dict[Fraction, int] = {}
        for v, w in zip(values, power(n)):
            if w:
                masses[v] = masses.get(v, 0) + w
        slots = {v: j for j, v in enumerate(masses)}
        law, mean, vden, scaled = _law_and_mean(slots, list(masses.values()), row_den ** n)
        by_total = [0 if v is None else scaled[slots[v]] for v in values]  # vden * f, or 0

        # Joint symbols a of k distinct players weigh w = prod r_(a_i) and
        # score sigma. The other players reach total t with weight
        # power(n - k)[t], so the entry's mass is w / row_den^k and its
        # f-weighted sum w * sum_t power(n - k)[t] * by_total[t + sigma] over
        # row_den^n * vden: it depends only on (k, w, sigma). A table walks
        # the symbols a of its sorted players in product order, the grid
        # walk's order; key position p holds a[rank[p]], the symbol of T[p]'s
        # place among them, so groups of equal rank share one table object.
        entries: dict[tuple[int, int, int], tuple[Fraction, Fraction]] = {}
        by_rank: dict[tuple[int, ...], dict[Outcome, tuple[Fraction, Fraction]]] = {}
        tables = []
        for T in groups:
            k, rank = len(T), tuple(map(sorted(T).index, T))
            if rank not in by_rank:
                key = itemgetter(*rank) if k > 1 else tuple  # one index gives a bare symbol
                table = by_rank[rank] = {}
                for a in itertools.product(symbols, repeat=k):
                    w, sigma = math.prod(map(row_ints.__getitem__, a)), sum(map(score.get, a))
                    if (k, w, sigma) not in entries:
                        total = sum(map(int.__mul__, power(n - k), by_total[sigma - k * lo:]))
                        entries[k, w, sigma] = (Fraction(w, row_den ** k),
                                                Fraction(w * total, row_den ** n * vden))
                    table[key(a)] = entries[k, w, sigma]
            tables.append(by_rank[rank])
        return GroupedSums(law, mean, tuple(tables))

    def weight(self, x: Outcome) -> Fraction:
        if len(x) != self.n:
            raise DistributionError(f"outcome {x} has wrong arity")
        if not self._symbols(tuple(x)):
            return ZERO
        return math.prod(map(getitem, self.marginals, x), start=ONE)

    def single_marginal(self, i: int) -> tuple[Fraction, ...]:
        return self.marginals[self._check_player(i)]

    def marginal(self, players: Sequence[int]) -> ExplicitDist:
        # Factorizes: only the selected players' grid is enumerated.
        rows = [self.marginals[i] for i in self._player_set(players)]
        return ProductDist(self.alphabet, len(rows), rows).to_explicit()

    def condition(self, assignment: Mapping[int, int]) -> "ProductDist":
        # Pinning a player keeps the product form.
        m = len(self.alphabet)
        for i, s in assignment.items():
            self._check_player(i)
            if not self._symbols((s,)) or self.marginals[i][s] == 0:
                raise NullConditionError(
                    f"conditioning on null event: player {i} never takes symbol {s}")
        rows = list(self.marginals)
        for i, s in assignment.items():
            rows[i] = tuple(ONE if t == s else ZERO for t in range(m))
        return ProductDist(self.alphabet, self.n, rows)

    def check_kwise(self, k: int) -> KwiseResult:
        as_int(k, "k", DistributionError, 1, self.n)
        return KwiseResult(True, None)

    def grid_size(self) -> int:
        return len(self.alphabet) ** self.n

    def to_explicit(self) -> ExplicitDist:
        if self.grid_size() > _EXPANSION_LIMIT:
            raise DistributionError(
                f"grid of {self.grid_size()} points is too large to expand explicitly")
        return ExplicitDist(self.alphabet, self.n, list(self.items()))

    def sample(self, seed: int | str, index: int = 0) -> Outcome:
        rng = _rng_for(seed, index)
        cums = [r.cum for r in self._entries]
        return tuple([_draw(rng, cums[j]) for j in self._index])


def mixture(d1: Distribution, d2: Distribution, q: Fraction) -> ExplicitDist:
    """Convex combination q*d1 + (1-q)*d2 as an explicit distribution.

    Supports are merged; outcomes whose combined weight is zero are dropped.
    """
    q = as_exact(q, "mixture weight")
    if not 0 <= q <= 1:
        raise DistributionError(f"mixture weight {q} outside [0, 1]")
    if d1.alphabet != d2.alphabet:
        raise DistributionError("mixture components use different alphabets")
    if d1.n != d2.n:
        raise DistributionError(f"mixture components have arities {d1.n} and {d2.n}")
    masses: dict[Outcome, Fraction] = {}
    if q > 0:
        for x, w in d1.items():
            masses[x] = masses.get(x, ZERO) + q * w
    if q < 1:
        for x, w in d2.items():
            masses[x] = masses.get(x, ZERO) + (1 - q) * w
    return ExplicitDist(d1.alphabet, d1.n, [(x, w) for x, w in masses.items() if w > 0])
