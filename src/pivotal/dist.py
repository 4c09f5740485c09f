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
A support or table whose outcomes are the m^n grid in order is checked by
``_is_grid`` instead: equality with the grid, one whole-list comparison,
implies the rule but for the symbols' types, which one more pass checks.

Every grouped sum over the support goes through one kernel,
``Distribution.sums``. Each distribution scales its weights once, at
construction: an explicit support keeps its lcm denominator and integer
weights, a product form each distinct row's, and the weights are checked
on that integer view. The kernel sees the support as bitsets, bit j for
support point j: one per (player, symbol), and one per distinct integer
weight when there are at most as many as |supp| has bits. f's values are
bitsets too, one per distinct value. A dense table (``boolfn.DenseTable``)
keeps them over the positions of its grid, so where a window is a
contiguous slice of the full m^n grid (an explicit support of m^n points,
or a product whose rows give every symbol positive weight) the kernel
shifts and masks them and calls no ``evaluate``. Elsewhere it evaluates f
once per point, in support order, and slots the values through C-level
maps by object id (``_slot_codes``), one ``Fraction.__hash__`` per
distinct value. A value's mass, for the law, is the mass of its bitset.
The mass of a set of points is weighed class by class by popcount, or
summed over its set bits where classes do not apply. An f-weighted sum
weighs the ANDs of the value bitsets with the weight classes, each class
by its weight times its scaled value; a small set, or a window without
classes, adds weight times scaled value over its set bits. A window whose
distinct values outnumber the bits of its point count codes each point
by its value instead, with no value bitsets. A group's table keys are
the nonempty ANDs of its players' bitsets; the order in which a
table or the law lists its keys carries no meaning. The kernel runs over
windows of at most ``_WINDOW`` consecutive points, adding each window's
integer sums to the last; a value that brings a new denominator moves
the f-weighted sums taken so far onto the larger lcm. So a group with
many keys costs O(|supp|) bit steps per symbol of its players, not
O(|supp|) per key. Each ``Fraction`` is built once, after the pass.

An explicit support builds its bitsets at the first query that reads
them, with each player's symbol masses, and keeps them: ``sums``, exact
k-wise checks and single marginals share them, and ``sums`` cuts them
into windows. A product form keeps the bitsets of the sub-grid of its
last players, at most ``_WINDOW`` points, built at the first query that
reads them, and the statistic path's ``_ScoreLaw`` for the last function
it read. Each window fixes the other players' symbols and reuses those
bitsets, so memory does not grow with the grid. The joint mass of an
assignment in a k-wise check is the AND of its players' bitsets, and
factorization is decided in integers over the lcm denominator.

A product form whose rows are all equal has a statistic path. When f is
None or a function of one integer statistic, the total of per-symbol
scores (``boolfn.StatisticFn``), and no group names a player twice, the
kernel never evaluates f. The law of the total over r players is the
r-th power of the row polynomial Q(x) = sum_s r_s x^score(s), in the
row's integer weights, so f's law comes from Q^n and each table entry
from Q^(n - k), shifted by the group's own score and weighed by its
symbols' weights. Neither depends on the symbols' order, so the groups
of one size share one table. Each entry is the bitset kernel's integer
sum, grouped by total, so both paths return equal ``GroupedSums``. Any
other input goes through the bitset kernel. One ``_ScoreLaw`` per f
answers the tables and the reduction's sums per indicator vector of k
players, which depend only on how many of them deviate: k + 1 classes,
each derived from the last by one product and one exact division of
polynomials, not |S|^k joint symbols. Elsewhere ``_pattern_sums`` folds.

Sampling follows one stream contract: ``sample(seed, index)`` seeds one
generator and makes one ``_draw`` per player, in player order (one for
an explicit support). A product form draws each run of consecutive
players on one row at once when the row's total is below 256 and it has
at most 255 symbols. Each such draw is the top bits of the generator's
next 32-bit word (CPython's ``getrandbits``, checked at import), so one
``getrandbits(32 * c)`` call yields c draws as the top bytes of its
words, low word first, and a 256-byte table maps each top byte to its
symbol or to a redraw. The draws, and so the outcomes, are those of the
per-player path.

Each constructor checks its value once and builds the integer view of
the weights and the draw tables of ``sample`` (their running sums, and a
product row's byte table and runs). Only
an explicit support's bitsets wait for their first query: they cost about
half as much as the construction itself, and a distribution that is
only sampled never reads them. In the same way a table given its grid in
order builds the key dict of ``evaluate`` at its first call, which the
kernel never makes on a window that is a slice of that grid. Values are
immutable after construction and every operation is a pure function of
its inputs, so concurrent use needs no coordination; whichever caller
builds the bitsets, or a key dict, builds the same ones. Sampling takes
its seed and draw index explicitly.
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
from operator import attrgetter, countOf, eq, getitem, itemgetter
from typing import Collection, Iterable, Iterator, Mapping, NamedTuple, Protocol, Sequence

Outcome = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

# Expanding a product form materializes its grid; past this many points
# we refuse rather than exhaust memory (streaming queries stay lazy).
_EXPANSION_LIMIT = 1 << 21

# The reduction's class sums on equal rows cost O(classes * coefficients)
# integer steps, k + 1 classes of k d + 1 coefficients; past this we refuse.
_CLASS_FOLD_LIMIT = 1 << 21

# Distribution.sums runs over windows of at most this many points (a
# multiple of 8, as explicit bitsets are cut through their bytes), so that
# a group with many joint symbols costs O(|supp|) bit steps per symbol of
# its players rather than O(|supp|) per key.
_WINDOW = 1 << 10


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
    The insertion order of the law and the tables carries no meaning.
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


def _is_grid(outcomes: Sequence[Outcome], n: int, m: int) -> bool:
    """Whether outcomes are the m^n grid in order, the last player fastest, in plain ints.

    Equal to the grid, the outcomes have its lengths and range, hold no
    duplicate and are sorted, and so follow the rule once every symbol is
    an int (1.0 == 1). Symbols of an int subclass, such as bool, are left
    to ``first_bad_outcome``.
    """
    return (0 <= n <= len(outcomes) == m ** n  # m ** n only once n is small
            and all(map(eq, outcomes, itertools.product(range(m), repeat=n)))
            and countOf(map(type, itertools.chain.from_iterable(outcomes)), int)
            == n * len(outcomes))


def _split_pairs(pairs: Iterable, what: str,
                 error: type) -> tuple[Sequence[Outcome], Sequence[Fraction]]:
    """The outcomes, as tuples, and the values, as Fractions, of (outcome, value) pairs.

    A pair that is not two items, or whose outcome is not iterable, raises
    error naming the pair; values go through ``as_exact(v, what, error)``.
    The pairs are split in C-level passes, and only a type pass that finds
    an outcome that is not a tuple, or a value that is not a Fraction,
    leads to a conversion.
    """
    pairs = list(pairs)
    try:  # strict: every pair has as many items as the first
        xs, vs = zip(*pairs, strict=True) if pairs else ((), ())
    except (TypeError, ValueError):
        xs = None
    if xs is None or countOf(map(type, xs), tuple) != len(xs):
        xs, vs = [], []
        for pair in pairs:
            try:
                x, v = pair
                xs.append(tuple(x))
            except (TypeError, ValueError):
                raise error(f"{pair!r} is not an (outcome, {what}) pair") from None
            vs.append(v)
    if countOf(map(type, vs), Fraction) != len(vs):
        vs = [as_exact(v, what, error) for v in vs]
    return xs, vs


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
# per symbol, its symbols of positive weight with their ints, and sample()'s
# tables: the running sums, and the byte table of _draw_run (None if too large).
_Row = NamedTuple("_Row", [("den", int), ("ints", list[int]), ("symbols", list[int]),
                           ("weights", list[int]), ("cum", list[int]), ("tops", bytes | None)])


def _draw(rng: random.Random, cum: Sequence[int]) -> int:
    """Pick index i with probability exactly (cum[i] - cum[i-1]) / cum[-1].

    Stream contract: rng sees the same ``getrandbits`` calls as
    ``rng.randrange(cum[-1])`` makes (k-bit draws with k the total's bit
    length, redrawn while at or past the total), then r maps to the first
    index whose cumulative entry exceeds it. Draws therefore match a linear
    scan over the lcm-scaled weights, and a total of 1 still consumes its
    one-bit draws. With k <= 32 each draw is the top k bits of the next
    32-bit word of the generator, which ``_draw_run`` relies on.
    """
    total = cum[-1]
    k = total.bit_length()
    r = rng.getrandbits(k)
    while r >= total:
        r = rng.getrandbits(k)
    return bisect.bisect_right(cum, r)


def _packs_words() -> bool:
    # Whether getrandbits(32 * c) is the next c 32-bit words, low word first,
    # and a k-bit draw (k <= 32) the top k bits of the next word, as in CPython.
    a, b = random.Random(0), random.Random(0)
    return (a.getrandbits(64) == b.getrandbits(32) | b.getrandbits(32) << 32
            and a.getrandbits(3) == b.getrandbits(32) >> 29)


_PACKS_WORDS = _packs_words()
_SYMBOL_BYTES = [bytes([s]) for s in range(255)]  # 0xff is left for a redraw


def _byte_table(ints: Sequence[int], total: int) -> bytes | None:
    """Each top byte of a word mapped to the symbol _draw reads from it, 0xff for a redraw.

    A row of total below 256 draws k <= 8 bits, the top k bits of the word's
    top byte, so value r owns 2^(8 - k) consecutive bytes; 0xff is no symbol
    when there are at most 255. None where the table does not apply.
    """
    if not _PACKS_WORDS or total >= 256 or len(ints) > 255:
        return None
    shift = 8 - total.bit_length()
    spans = [_SYMBOL_BYTES[s] * (w << shift) for s, w in enumerate(ints)]
    return b"".join(spans).ljust(256, b"\xff")


def _draw_run(rng: random.Random, tops: bytes, count: int, last: bool) -> bytes:
    """count successive ``_draw`` results of one row with byte table tops.

    Each draw reads one word, and a redraw the next, so the draws of the
    run are the top bytes of a block of words, translated, with the
    redraws dropped. Unless the run is the last use of rng, exactly the
    words the draws consume are drawn. Nothing reads rng after the last
    run, so it draws 2 * count + 8 words at once, usually enough, as a
    draw is accepted with probability at least 1/2.
    """
    got = b""
    while len(got) < count:
        words = count - len(got)
        if last:
            words = 2 * words + 8
        block = rng.getrandbits(32 * words).to_bytes(4 * words, "little")
        got += block[3::4].translate(tops).replace(b"\xff", b"")
    return got[:count]


def _law_and_mean(slots: dict[Fraction, int], value_mass: list[int],
                  denom: int) -> tuple[dict[Fraction, Fraction], Fraction, int, list[int]]:
    """Law and mean of f from each value slot's mass.

    Also returns the lcm vden of the values' denominators and each value
    times vden: f-weighted sums share the denominator denom * vden.
    """
    vden = math.lcm(*(v.denominator for v in slots))
    scaled = [v.numerator * (vden // v.denominator) for v in slots]
    law = {v: Fraction(value_mass[j], denom) for v, j in slots.items()}
    mean = Fraction(sum(map(int.__mul__, value_mass, scaled)), denom * vden)
    return law, mean, vden, scaled


def _power(q: Sequence[int], r: int) -> list[int]:
    """The r d + 1 coefficients of the polynomial q(x) ** r, for integer q of length d + 1.

    Miller's recurrence for powers of a power series (Knuth, TAOCP vol. 2,
    4.7): k q_0 P_k = sum_(j=1..min(k, e)) ((r + 1) j - k) q_j P_(k-j), with
    e the degree of q. It runs on q without its z leading zeros, so that
    q_0 != 0, and the result is shifted by z r. Every division is exact,
    and the coefficients take O(r d^2) integer steps. An all-zero q gives
    zeros, or [1] for r = 0.
    """
    d = len(q) - 1
    z = next((i for i, c in enumerate(q) if c), None)
    if z is None:
        return [int(r == 0)] + [0] * (r * d)
    q = q[z:]
    e = d - z
    out = [q[0] ** r]
    for k in range(1, r * e + 1):
        out.append(sum(((r + 1) * j - k) * q[j] * out[k - j]
                       for j in range(1, min(k, e) + 1)) // (k * q[0]))
    return [0] * (z * r) + out


def _times(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the integer polynomial a * b, one pass over b per nonzero term of a."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            out[i:i + len(b)] = map(int.__add__, out[i:i + len(b)], map(x.__mul__, b))
    return out


def _divide(a: Sequence[int], b: Sequence[int], length: int) -> list[int]:
    """The first length coefficients of a / b, for an integer polynomial b != 0 dividing a.

    Long division from the lowest term: b's z leading zeros are a's too,
    and each coefficient takes one exact division by b's first nonzero
    one, after subtracting one product per later nonzero term of b.
    """
    z = next(i for i, c in enumerate(b) if c)
    lead, tail = b[z], [(j, c) for j, c in enumerate(b[z + 1:], 1) if c]
    if not tail:
        return [c // lead for c in a[z:z + length]]
    out: list[int] = []
    for i in range(length):
        out.append((a[i + z] - sum(c * out[i - j] for j, c in tail if j <= i)) // lead)
    return out


def _by_deviation_count(q_dev: list[int], q_other: list[int], k: int, length: int,
                        up: bool) -> Iterator[tuple[int, list[int]]]:
    """(c, A_c) for c = 0..k, A_c = q_dev^c q_other^(k - c) cut to length coefficients.

    Each A_c comes from the one before by one product and one exact
    division: downward from A_k, A_(c - 1) = A_c q_other / q_dev, or, if
    up, upward from A_0, A_(c + 1) = A_c q_dev / q_other. ``_divide`` takes
    one comprehension when its divisor has one nonzero term, so the caller
    steps toward dividing by the side with fewer terms.
    """
    first, times, over = (q_other, q_dev, q_other) if up else (q_dev, q_other, q_dev)
    a = _power(first, k)
    steps = range(k + 1) if up else range(k, -1, -1)
    for c in steps:
        if c != steps[0]:
            a = _divide(_times(times, a), over, length)
        yield c, a


class _Bitsets(NamedTuple):
    """A support as bitsets: bit j stands for support point j."""

    columns: list[list[int]]  # columns[i][s]: the points where player i shows s
    classes: list[tuple[int, int]]  # (integer weight w, the points weighing w); [] if many
    ints: Sequence[int]  # the integer weight of each point
    singles: list[list[int]]  # singles[i][s]: integer mass of player i showing s

    def mass(self, bits: int) -> int:
        """Integer mass of a set of points.

        Reads one point's weight directly. Weighs each class by its
        popcount when there are classes and no more of them than set bits.
        Otherwise adds the weights of the set bits, found by scanning the
        bits' binary text once, so the cost is O(|supp|) plus one step per
        set bit. The sets of one subset's assignments are disjoint, so its
        walks add up to at most |supp| steps.
        """
        total, count = 0, bits.bit_count()
        if count == 1:
            return self.ints[bits.bit_length() - 1]
        if 0 < len(self.classes) <= count:
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
def _marks(count: int) -> list[bytes] | list[dict[int, str]]:
    """Per code 0..count-1, the translation of code bytes (past 256 codes, characters) to bits."""
    if count <= 256:
        return [bytes(b"01"[c == code] for c in range(256)) for code in range(count)]
    return [{c: "1" if c == code else "0" for c in range(count)} for code in range(count)]


def _indicators(codes: Iterable[int], count: int) -> list[int]:
    """Bitset of the points with each code 0..count-1, given codes last point first.

    The codes become one byte per point, or one character when there are
    more than 256 codes (int reads the most significant digit first), and
    one translation per code turns them into that code's bitset, in
    O(|supp|) per code.
    """
    text = bytes(codes) if count <= 256 else "".join(map(chr, codes))
    return [int(text.translate(marks), 2) for marks in _marks(count)]


def _classes(ints: Sequence[int]) -> list[tuple[int, int]]:
    """(w, the points weighing w) per distinct weight; [] if there are more than |supp| has bits."""
    weights = list(dict.fromkeys(ints))
    if len(weights) > len(ints).bit_length():
        return []
    index = {w: c for c, w in enumerate(weights)}
    return list(zip(weights, _indicators(map(index.__getitem__, reversed(ints)), len(weights))))


def _cut(bits: _Bitsets) -> Iterator[tuple[int, _Bitsets]]:
    """bits cut at every _WINDOW points, each window with its first point, renumbered from 0.

    Columns and classes are cut through their bytes, in O(|supp|) per
    bitset. A class with no point in a window is left out of it.
    """
    size = len(bits.ints)
    if size <= _WINDOW:
        yield 0, bits
        return
    length = (size + 7) // 8
    columns = [[b.to_bytes(length, "little") for b in row] for row in bits.columns]
    classes = [(w, b.to_bytes(length, "little")) for w, b in bits.classes]
    for lo in range(0, size, _WINDOW):
        cut = slice(lo // 8, (lo + _WINDOW) // 8)
        yield lo, _Bitsets([[int.from_bytes(b[cut], "little") for b in row] for row in columns],
                           [(w, c) for w, b in classes if (c := int.from_bytes(b[cut], "little"))],
                           bits.ints[lo:lo + _WINDOW], [])


_RATIO = attrgetter("numerator", "denominator")  # equal rationals, equal ratios


def _slot_codes(vals: list[Fraction], slots: dict[Fraction, int],
                values: list[Fraction]) -> tuple[list[int], list[int]]:
    """A code per entry of vals, and each code's slot: the index of its value in values.

    Codes number the distinct values of vals from 0, in order of first
    appearance; a value not in slots is added to slots and values. The
    entries are sorted out through C-level maps, by object id and then,
    once per distinct object, by (numerator, denominator), so only a
    distinct value costs a Fraction.__hash__. vals holds every object, so
    no id is reused while the maps are read.
    """
    ids = list(map(id, vals))
    objects = dict(zip(ids, vals))  # one entry per distinct object
    ratios = list(map(_RATIO, objects.values()))
    by_value = dict(zip(ratios, objects.values()))  # one object per distinct value
    local = []
    for v in by_value.values():
        j = slots.setdefault(v, len(values))
        if j == len(values):
            values.append(v)
        local.append(j)
    code = dict(zip(by_value, range(len(by_value))))
    code_of = dict(zip(objects, map(code.__getitem__, ratios)))
    return list(map(code_of.__getitem__, ids)), local


class _Valued:
    """A window's points weighed by weight * vden * f: the f-weighted mass of a point set.

    vbits holds (code, bitset of the points with that value code), and
    scaled each code's value times vden. Where the window has weight
    classes, the nonempty ANDs of the value bitsets with them are the
    classes of the f-weighted weights, and a set with at least as many
    points as classes is weighed class by class by popcount. Otherwise the
    per-point weights are built from the points' codes at the first read,
    and ``_Bitsets.mass`` weighs the set.
    """

    __slots__ = ("classes", "window", "codes", "scaled", "points")

    def __init__(self, window: _Bitsets, vbits: list[tuple[int, int]] | None,
                 codes: Sequence[int], scaled: Sequence[int]):
        self.window, self.codes, self.scaled, self.points = window, codes, scaled, None
        self.classes = None if vbits is None or not window.classes else [
            (w * scaled[c], x) for c, b in vbits if scaled[c]  # a zero value adds nothing
            for w, members in window.classes if (x := b & members)]

    def mass(self, bits: int) -> int:
        if self.classes is not None and len(self.classes) <= bits.bit_count():
            total = 0
            for w, members in self.classes:
                total += w * (bits & members).bit_count()
            return total
        if self.points is None:
            ints = list(map(int.__mul__, self.window.ints, map(self.scaled.__getitem__, self.codes)))
            self.points = _Bitsets([], [], ints, [])
        return self.points.mass(bits)


def _parts(columns: list[list[int]], T: tuple[int, ...],
           known: dict[tuple[int, ...], list[tuple[Outcome, int]]]) -> list[tuple[Outcome, int]]:
    """The nonempty (joint symbols, points showing them) of group T.

    The parts of T[:-1], kept in known, are refined by the columns of T's
    last player.
    """
    if T not in known:
        cols = columns[T[-1]]
        known[T] = ([((s,), b) for s, b in enumerate(cols) if b] if len(T) == 1 else
                    [(key + (s,), c) for key, b in _parts(columns, T[:-1], known)
                     for s, col in enumerate(cols) if (c := b & col)])
    return known[T]


def _support_bitsets(points: Sequence[Outcome], ints: Sequence[int], m: int) -> _Bitsets:
    """Per-(player, symbol) bitsets of a support, and its weight classes if few.

    Class bitsets are built only when there are at most as many classes as
    |supp| has bits. They then take O(|supp| log |supp|) bits, and one
    mass weighed by class costs at most that many bit steps.
    """
    columns = [_indicators(col, m) for col in zip(*reversed(points))]
    unweighed = _Bitsets(columns, _classes(ints), ints, [])
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
                fault = f"player group must be a sequence, got {T!r}"
            elif not T:
                fault = "player group must be non-empty"
            else:
                checked.append(tuple(T))
                continue
            self._check_players(checked)  # a bad player of an earlier group comes first
            raise DistributionError(fault)
        return self._check_players(checked)

    def _check_players(self, groups: list[tuple]) -> list[tuple[int, ...]]:
        # One pass over the distinct types and the extremes clears plain ints
        # in range; otherwise each player is checked in turn, naming the first bad one.
        if (groups and set(map(type, itertools.chain.from_iterable(groups))) == {int}
                and min(map(min, groups)) >= 0 and max(map(max, groups)) < self.n):
            return groups
        return [tuple(map(self._check_player, T)) for T in groups]

    def sums(self, groups: Sequence[Sequence[int]],
             f: Evaluable | None = None) -> GroupedSums:
        """Law of f and per-group conditional sums, in one support pass.

        ``f=None`` stands for the constant 1, so the tables carry masses.
        Masses and f-weighted sums are integers over common denominators,
        turned into fractions only at the end.
        """
        return self._sums(self._check_groups(groups), f)

    @abstractmethod
    def _windows(self) -> tuple[int, Iterator[tuple[Iterable[Outcome], _Bitsets, int | None]]]:
        """The common denominator, and the support in windows of consecutive points.

        A window holds at most _WINDOW points, or a player's symbols where a
        player has more: their outcomes in support order, their bitsets,
        bit j for the window's point j, and the position of its first point
        in the full m^n grid (in sorted order) when the window is a
        contiguous slice of that grid, else None.
        """

    def _sums(self, groups: list[tuple[int, ...]], f: Evaluable | None) -> GroupedSums:
        denom, windows = self._windows()
        slots: dict[Fraction, int] = {ONE: 0} if f is None else {}
        values = list(slots)
        value_mass = [denom] if f is None else []
        vden = 1  # the lcm of the denominators of the values seen so far
        # A dense table over this grid keeps its values by grid position:
        # (its distinct values, one bitset per value, each position's code).
        grid = getattr(f, "_grid_values", None)
        if grid is not None and (f.n, len(f.alphabet)) != (self.n, len(self.alphabet)):
            grid = None
        grid_slots: list[int] = []  # each table value's slot, once read
        accs: dict[tuple[int, ...], dict] = {T: {} for T in groups}
        for points, window, offset in windows:
            weigh = None  # f is 1: each f-sum is its mass
            if f is not None:
                if grid is not None and offset is not None:
                    # A slice of the grid: f's values are the table's, shifted.
                    tvalues, tbits, tcodes = grid
                    grid_slots = grid_slots or _slot_codes(list(tvalues), slots, values)[1]
                    size = len(window.ints)
                    vbits = [(t, b) for t, vb in enumerate(tbits)
                             if (b := vb >> offset & (1 << size) - 1)]
                    codes, local = tcodes[offset:offset + size], grid_slots
                else:
                    codes, local = _slot_codes(list(map(f.evaluate, points)), slots, values)
                    vbits = (list(enumerate(_indicators(reversed(codes), len(local))))
                             if len(local) <= len(codes).bit_length() else None)
                new = values[len(value_mass):]
                value_mass += [0] * len(new)
                grown = math.lcm(vden, *(v.denominator for v in new))
                if grown != vden:  # the f-sums so far move onto the new lcm
                    for acc in accs.values():
                        for key, (m, s) in acc.items():
                            acc[key] = m, s * (grown // vden)
                    vden = grown
                by_code = [0] * len(local)
                if vbits is None:  # many values: each point's weight goes to its code
                    for c, w in zip(codes, window.ints):
                        by_code[c] += w
                else:
                    for c, b in vbits:
                        by_code[c] = window.mass(b)
                for j, w in zip(local, by_code):
                    value_mass[j] += w
                scaled = [values[j].numerator * (vden // values[j].denominator) for j in local]
                weigh = _Valued(window, vbits, codes, scaled).mass

            known: dict[tuple[int, ...], list[tuple[Outcome, int]]] = {}
            for T, acc in accs.items():
                for key, b in _parts(window.columns, T, known):
                    m = window.mass(b)
                    m0, s0 = acc.get(key, (0, 0))
                    acc[key] = m0 + m, s0 + (m if weigh is None else weigh(b))
        law, mean, vden, _ = _law_and_mean(slots, value_mass, denom)
        tables = {T: {key: (Fraction(m, denom), Fraction(s, denom * vden))
                      for key, (m, s) in acc.items()} for T, acc in accs.items()}
        return GroupedSums(law, mean, tuple(map(tables.__getitem__, groups)))

    def _pattern_sums(self, players: tuple[int, ...], f: Evaluable,
                      sides: Sequence[Collection[int]]) -> tuple[int, list[int], list[int],
                                                                 dict[Fraction, Fraction]]:
        """Mass and f-weighted mass of each indicator vector of distinct players, and f's law.

        Bit j of a vector is clear when player j's symbol lies in sides[j].
        Both lists hold integers over one denominator, returned first. One
        ``sums`` pass gives the players' table, and each key is folded
        into its vector.
        """
        sums = self.sums([players], f)
        table = sums.tables[0]
        denom, ints = _scale([x for pair in table.values() for x in pair])
        mass, wsum = [0] * (1 << len(players)), [0] * (1 << len(players))
        for key, m, s in zip(table, ints[::2], ints[1::2]):
            y = sum(1 << j for j, sym in enumerate(key) if sym not in sides[j])
            mass[y] += m
            wsum[y] += s
        return denom, mass, wsum, sums.law

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
        points, weights = _split_pairs(support, "weight", DistributionError)
        as_int(self.n, "arity", DistributionError, 1)
        if not points:
            raise DistributionError("support is empty")
        if _is_grid(points, self.n, len(alphabet)):  # follows the rule, sorted, no duplicate
            self.support = tuple(zip(points, weights))
        else:
            # Checked before sorting: a symbol that is not an int may not order against one.
            x = first_bad_outcome(points, self.n, len(alphabet))
            if x is not None:
                if len(x) != self.n:
                    raise DistributionError(
                        f"outcome {x} has length {len(x)}, expected arity {self.n}")
                raise DistributionError(f"outcome {x} uses a symbol index outside the alphabet")
            self.support = tuple(sorted(zip(points, weights)))
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

    def _windows(self) -> tuple[int, Iterator[tuple[Iterable[Outcome], _Bitsets, int | None]]]:
        # The kept bitsets, cut at every _WINDOW points. A support of m^n
        # points is the whole grid, sorted, so point lo is grid position lo.
        full = len(self.support) == len(self.alphabet) ** self.n
        return self._denom, ((map(itemgetter(0), self.support[lo:lo + len(bits.ints)]), bits,
                              lo if full else None)
                             for lo, bits in _cut(self._bitsets()))

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


class _ScoreLaw:
    """The statistic path: f's law by score total over n players on one row.

    f is None or has ``of_total``. Weights are integers over row.den ** n,
    without the row's zero-weight symbols. q is the row polynomial by
    score - lo, lo the least score, so _power(q, r)[i] is the weight of r
    players reaching the total r * lo + i. den is every f-weighted sum's
    denominator.
    """

    __slots__ = ("f", "n", "row", "law", "mean", "den", "score", "lo", "q", "by_total", "rests")

    def __init__(self, n: int, row: _Row, f: Evaluable | None):
        if f is not None:
            f._check_arity((row.symbols[0],) * n)  # as the kernel's first evaluation would
        score = {s: 0 if f is None else f.scores.get(s, 0) for s in row.symbols}
        lo = min(score.values())
        q = [0] * (max(score.values()) - lo + 1)
        for s in row.symbols:
            q[score[s] - lo] += row.ints[s]
        everyone = _power(q, n)
        # f's value at each total the n players reach, slotted by object id.
        reached = [i for i, w in enumerate(everyone) if w]
        slots: dict[Fraction, int] = {}
        codes, _ = _slot_codes([ONE] * len(reached) if f is None else
                               [f.of_total(n * lo + i) for i in reached], slots, [])
        masses = [0] * len(slots)
        for c, i in zip(codes, reached):
            masses[c] += everyone[i]
        self.law, self.mean, vden, scaled = _law_and_mean(slots, masses, row.den ** n)
        self.by_total = [0] * len(everyone)  # vden * f at each total, 0 where none is reached
        for c, i in zip(codes, reached):
            self.by_total[i] = scaled[c]
        self.f, self.n, self.row, self.score, self.lo, self.q = f, n, row, score, lo, q
        self.den, self.rests = row.den ** n * vden, {}

    def rest(self, k: int) -> list[int]:
        """k players of weight w scoring k * lo + i have f-weighted sum w * rest(k)[i] over den."""
        if k not in self.rests:  # built once per k, for the tables and the classes
            q, by_total = self.q, self.by_total
            others = _power(q, self.n - k)  # others[u]: the others' weight at total index u
            self.rests[k] = [sum(map(int.__mul__, others, by_total[i:]))
                             for i in range(k * (len(q) - 1) + 1)]
        return self.rests[k]

    def table(self, k: int) -> dict[Outcome, tuple[Fraction, Fraction]]:
        """The one table of all groups of k distinct players.

        Joint symbols a weigh w = prod r_(a_i) and score sigma, so the entry
        has mass w / row.den^k and f-weighted sum w * rest(k)[sigma - k * lo]
        over den. Both w and sigma are symmetric in a.
        """
        ints, score, den, rest = self.row.ints, self.score, self.den, self.rest(k)
        row_den, shift, entries, table = self.row.den ** k, k * self.lo, {}, {}
        for a in itertools.product(self.row.symbols, repeat=k):
            w, sigma = math.prod(map(ints.__getitem__, a)), sum(map(score.get, a))
            if (w, sigma) not in entries:
                entries[w, sigma] = Fraction(w, row_den), Fraction(w * rest[sigma - shift], den)
            table[a] = entries[w, sigma]
        return table

    def classes(self, k: int, side: Collection[int]) -> tuple[list[int], list[int]]:
        """The masses and f-weighted sums over den of k players deviating on one side D.

        A vector with c clear bits weighs A_c = Q_D^c Q_N^(k - c) by score,
        Q_D and Q_N being q's parts over D and the others, so its sums are
        read per c = 0..k (``_by_deviation_count``).
        """
        q, score, lo, ints, den = self.q, self.score, self.lo, self.row.ints, self.den
        length = k * (len(q) - 1) + 1
        if (k + 1) * length > _CLASS_FOLD_LIMIT:
            raise PivotalError(f"reduction would fold {k + 1} classes of {length} coefficients")
        q_dev, q_other = [0] * len(q), [0] * len(q)
        for s in self.row.symbols:
            (q_dev if s in side else q_other)[score[s] - lo] += ints[s]
        scale = den // self.row.den ** k  # row.den^(n - k) * vden
        by_total = self.rest(k)
        # Divide by a one-term polynomial where one side has one term and the other more.
        up = sum(map(bool, q_other)) == 1 < sum(map(bool, q_dev))
        masses, wsums = [0] * (k + 1), [0] * (k + 1)
        for c, a in _by_deviation_count(q_dev, q_other, k, length, up):
            masses[c] = sum(a) * scale
            wsums[c] = sum(map(int.__mul__, a, by_total))
        return masses, wsums


class ProductDist(Distribution):
    """Fully independent players, one marginal vector per player.

    Enumeration and grouped sums stream the symbol grid without
    materializing it: a grouped sum off the statistic path holds one
    window of at most ``_WINDOW`` points at a time, so on the 531,441
    points of a 3^12 grid its traced memory peaks at about 0.1 MiB. The
    bitsets of the tail, the last players' sub-grid that every window
    runs through, are built at the first grouped sum and kept.
    """

    __slots__ = ("alphabet", "n", "marginals", "_entries", "_index", "_runs", "_last", "_tail")

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
        as_int(self.n, "arity", DistributionError, 1)
        if len(self.marginals) != self.n:
            raise DistributionError(
                f"{len(self.marginals)} marginal vectors for arity {self.n}")
        m = len(self.alphabet)
        for j, (den, *ints) in enumerate(by_row):
            fault = (f"has {len(ints)} entries, alphabet has {m}" if len(ints) != m
                     else "has a negative entry" if any(w < 0 for w in ints)
                     else f"sums to {Fraction(sum(ints), den)}, expected 1" if sum(ints) != den
                     else None)
            if fault:
                raise DistributionError(f"player {self._index.index(j)} marginal {fault}")
        self._entries = [_Row(den, ints, [s for s, w in enumerate(ints) if w],
                              [w for w in ints if w], list(itertools.accumulate(ints)),
                              _byte_table(ints, den))
                         for den, *ints in by_row]
        # sample()'s walk: each run of consecutive players on one row, with its length.
        self._runs = [(self._entries[j], len(list(players)))
                      for j, players in itertools.groupby(self._index)]
        self._last: _ScoreLaw | None = None  # the last f's, built by _score_law()
        self._tail: tuple | None = None  # built by _tail_bitsets()

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
        dens, _, symbols, weights, *_ = zip(*map(self._entries.__getitem__, self._index))
        return math.prod(dens), zip(itertools.product(*symbols),
                                    map(math.prod, itertools.product(*weights)))

    def _windows(self) -> tuple[int, Iterator[tuple[Iterable[Outcome], _Bitsets, int | None]]]:
        # The grid is in mixed-radix order, the last player fastest. The last
        # players whose own grid has at most _WINDOW points (at least the
        # last player) form the tail; each window fixes the other players'
        # symbols and runs through the tail. Its bitsets are the tail's, a
        # fixed player's column is all or nothing, and its weights are the
        # tail's times the fixed players' weight. Nothing reads a window's
        # singles. When every symbol has positive weight the support is the
        # whole grid, and window i starts at grid position i times the tail's size.
        dens, _, symbols, weights, *_ = zip(*map(self._entries.__getitem__, self._index))
        split, tail, fixed = self._tail_bitsets()
        full = all(len(row) == len(self.alphabet) for row in symbols)

        def windows() -> Iterator[tuple[Iterable[Outcome], _Bitsets, int | None]]:
            heads = itertools.product(*map(zip, symbols[:split], weights[:split]))
            for i, head in enumerate(heads):
                a = math.prod(w for _, w in head)
                yield (itertools.product(*[(s,) for s, _ in head], *symbols[split:]),
                       _Bitsets([fixed[s] for s, _ in head] + tail.columns,
                                [(a * w, b) for w, b in tail.classes],
                                list(map(a.__mul__, tail.ints)), []),
                       i * len(tail.ints) if full else None)

        return math.prod(dens), windows()

    def _tail_bitsets(self) -> tuple[int, _Bitsets, list[list[int]]]:
        """The first tail player, the tail's bitsets, and fixed[s][t], a fixed s's column for t.

        Built at the first call and kept; the tail has at most _WINDOW points.
        """
        if self._tail is None:
            _, _, symbols, weights, *_ = zip(*map(self._entries.__getitem__, self._index))
            split = len(symbols) - 1
            while split and math.prod(map(len, symbols[split - 1:])) <= _WINDOW:
                split -= 1
            m = len(self.alphabet)
            ints = list(map(math.prod, itertools.product(*weights[split:])))
            columns = zip(*reversed(list(itertools.product(*symbols[split:]))))
            tail = _Bitsets([_indicators(col, m) for col in columns], _classes(ints), ints, [])
            every = (1 << len(tail.ints)) - 1
            self._tail = split, tail, [[every if t == s else 0 for t in range(m)] for s in range(m)]
        return self._tail

    def _sums(self, groups: list[tuple[int, ...]], f: Evaluable | None) -> GroupedSums:
        """``Distribution.sums``: the groups of one size share ``_score_law``'s table, if any."""
        score_law = self._score_law(groups, f)
        if score_law is None:
            return super()._sums(groups, f)
        tables = {k: score_law.table(k) for k in set(map(len, groups))}
        return GroupedSums(score_law.law, score_law.mean, tuple(tables[len(T)] for T in groups))

    def _score_law(self, groups: list[tuple[int, ...]], f: Evaluable | None) -> _ScoreLaw | None:
        """The statistic path's law for f, or None, which leaves the groups to the bitset kernel.

        The path takes equal rows, f None or with ``of_total``, and groups
        that name no player twice. The last f's law is kept for the next call.
        """
        if not ((f is None or hasattr(f, "of_total")) and len(self._entries) == 1
                and all(len(set(T)) == len(T) for T in groups)):
            return None
        last = self._last  # read once: another thread may replace it
        if last is None or last.f is not f:
            last = self._last = _ScoreLaw(self.n, self._entries[0], f)
        return last

    def weight(self, x: Outcome) -> Fraction:
        x = tuple(x)
        if len(x) != self.n:
            raise DistributionError(f"outcome {x} has wrong arity")
        if not self._symbols(x):
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
        rows = list(self.marginals)
        for i, s in assignment.items():
            self._check_player(i)
            if not self._symbols((s,)) or self.marginals[i][s] == 0:
                raise NullConditionError(
                    f"conditioning on null event: player {i} never takes symbol {s}")
            rows[i] = tuple(ONE if t == s else ZERO for t in range(len(self.alphabet)))
        return ProductDist(self.alphabet, self.n, rows)

    def check_kwise(self, k: int) -> KwiseResult:
        as_int(k, "k", DistributionError, 1, self.n)
        return KwiseResult(True, None)

    def to_explicit(self) -> ExplicitDist:
        points = math.prod(len(row.symbols) ** count for row, count in self._runs)
        if points > _EXPANSION_LIMIT:
            raise DistributionError(f"grid of {points} points is too large to expand explicitly")
        return ExplicitDist(self.alphabet, self.n, list(self.items()))

    def sample(self, seed: int | str, index: int = 0) -> Outcome:
        # The runs in player order: the draws are those of one _draw per player.
        rng = _rng_for(seed, index)
        out: list[int] = []
        last = len(self._runs) - 1
        for j, (row, count) in enumerate(self._runs):
            if row.tops is None:
                out += [_draw(rng, row.cum) for _ in range(count)]
            else:
                out += _draw_run(rng, row.tops, count, j == last)
        return tuple(out)


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
    for share, d in ((q, d1), (1 - q, d2)):
        if share:
            for x, w in d.items():
                masses[x] = masses.get(x, ZERO) + share * w
    return ExplicitDist(d1.alphabet, d1.n, [(x, w) for x, w in masses.items() if w > 0])
