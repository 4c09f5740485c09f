"""Player functions: dense tables, builtins, and monotone upward closures.

The counterexample builders at the bottom construct balanced monotone
functions on the mixed Hadamard space whose per-player effects (and, with
a thicker closure, influences) all vanish. Each builder returns a
machine-checked certificate; a failed check raises instead of returning a
bogus pair.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

from .dist import (
    BINARY,
    PARTICIPATION,
    Alphabet,
    ExplicitDist,
    Outcome,
    PivotalError,
    UndefinedPointError,
    ZERO,
    ONE,
    _indicators,
    _slot_codes,
    as_exact,
    as_int,
    first_bad_outcome,
    mixture,
)
from .generators import complement_mu, hadamard_mu

_MONOTONE_CHECK_LIMIT = 24
# influence_counterexample's closure tables grow about 8-fold per step of k:
# 4.3 MB at k = 7, 35 MB at k = 8, about 2 GB at k = 10.
_INFLUENCE_K_LIMIT = 8


class PreconditionError(PivotalError):
    """An operation's stated precondition failed; carries a witness."""

    def __init__(self, message: str, witness: object = None):
        super().__init__(message)
        self.witness = witness


class CertificateError(PivotalError):
    """A construction's verification certificate failed."""

    def __init__(self, message: str, certificate: "Certificate", violation: object = None):
        super().__init__(message)
        self.certificate = certificate
        self.violation = violation


# Byte 0 to the binary digit 0 and any other byte to 1, and the digits back to bytes 0 and 1.
_TO_DIGITS = bytes.maketrans(bytes(range(256)), b"0" + b"1" * 255)
_FROM_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def outcome_to_mask(x: Outcome) -> int:
    """Bitmask of x's truthy symbols, bit j for player j."""
    x = x if isinstance(x, tuple) else tuple(x)
    try:
        symbols = bytes(x)  # ints in 0..255, as symbols are
    except (TypeError, ValueError):
        symbols = bytes(map(bool, x))
    digits = symbols.translate(_TO_DIGITS)[::-1]  # the last player first
    return int(digits, 2) if digits else 0


def mask_to_outcome(mask: int, n: int) -> Outcome:
    """The low n bits of mask (two's complement if negative), bit j as player j's symbol."""
    if n <= 0:
        return ()
    digits = format(mask & (1 << n) - 1 | 1 << n, "b").encode()  # bit n fixes the length
    return tuple(digits[:0:-1].translate(_FROM_DIGITS))


class PlayerFunction:
    """Total map from outcome tuples to rational values in [-1, 1]."""

    alphabet: Alphabet = BINARY
    n: int

    def __post_init__(self) -> None:
        # The builtins are frozen dataclasses; each keeps its arity as a plain int.
        object.__setattr__(self, "n", as_int(self.n, "arity", PivotalError))

    def evaluate(self, x: Outcome) -> Fraction:
        raise NotImplementedError

    def evaluate_mask(self, mask: int) -> Fraction:
        """Binary-alphabet evaluation by bitmask (bit j = player j)."""
        return self.evaluate(mask_to_outcome(mask, self.n))

    def _check_arity(self, x: Outcome) -> None:
        if len(x) != self.n:
            raise PivotalError(f"outcome {x} has length {len(x)}, function expects {self.n}")


def _in_value_range(v: Fraction) -> bool:
    return -1 <= v <= 1


def _check_value_range(x: Outcome, v: Fraction) -> None:
    if not _in_value_range(v):
        raise PivotalError(f"value {v} at {x} outside [-1, 1]")


class PartialTable(PlayerFunction):
    """Values on a subset of outcomes; evaluation elsewhere is an error."""

    __slots__ = ("alphabet", "n", "entries", "_lookup")

    def __init__(self, alphabet: Alphabet, n: int,
                 values: Mapping[Outcome, Fraction] | Iterable[tuple[Outcome, Fraction]]):
        self._setup(alphabet, n, values)

    def _setup(self, alphabet: Alphabet, n: int,
               values: Mapping[Outcome, Fraction] | Iterable[tuple[Outcome, Fraction]]
               ) -> tuple[list[int], list[Fraction]]:
        """Check and store the entries; each sorted entry's value code, and the distinct values."""
        self.alphabet = alphabet
        self.n = as_int(n, "arity", PivotalError)
        pairs = values.items() if isinstance(values, Mapping) else values
        pairs = [(tuple(x), as_exact(v, "value", PivotalError)) for x, v in pairs]
        bad = first_bad_outcome([x for x, _ in pairs], self.n, len(alphabet))
        try:
            self.entries = tuple(sorted(pairs))
        except TypeError:  # only a symbol that is not an int fails to order, so bad is set
            raise PivotalError(f"invalid outcome {bad} in table") from None
        self._lookup = dict(self.entries)
        if len(self._lookup) != len(self.entries):
            raise PivotalError("outcome mapped twice in table")
        # Values are checked once per distinct value; on a failure the sorted
        # entries are walked to name the first bad outcome or value.
        distinct: list[Fraction] = []
        codes, _ = _slot_codes(list(self._lookup.values()), {}, distinct)
        if bad is not None or not all(map(_in_value_range, distinct)):
            for x, v in self.entries:
                if first_bad_outcome((x,), self.n, len(alphabet)) is not None:
                    raise PivotalError(f"invalid outcome {x} in table")
                _check_value_range(x, v)
        return codes, distinct

    def evaluate(self, x: Outcome) -> Fraction:
        self._check_arity(x)
        try:
            return self._lookup[tuple(x)]
        except KeyError:
            raise UndefinedPointError(f"function undefined at {tuple(x)}") from None

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n}, {len(self.entries)} entries)"


class DenseTable(PartialTable):
    """Explicit value for every outcome of the full grid.

    The sorted entries are the grid in order, the last player fastest, so
    entry p sits at grid position p. When the table has no more distinct
    values than its size has bits, it keeps them by position
    (``_grid_values``): the distinct values, one bitset per value (bit p
    for position p) and one code byte per position. ``Distribution.sums``
    then reads a window that is a slice of the grid from these, with no
    ``evaluate`` call.
    """

    __slots__ = ("_grid_values",)

    def __init__(self, alphabet: Alphabet, n: int,
                 values: Mapping[Outcome, Fraction] | Iterable[tuple[Outcome, Fraction]]):
        codes, distinct = self._setup(alphabet, n, values)
        if not self.entries:  # checked first: len(alphabet) ** n can be astronomically large
            raise PivotalError("dense table has no entries")
        size = len(alphabet) ** self.n
        if len(self.entries) != size:
            raise PivotalError(f"dense table has {len(self.entries)} entries, grid needs {size}")
        self._grid_values = ((tuple(distinct), _indicators(reversed(codes), len(distinct)),
                              bytes(codes)) if len(distinct) <= size.bit_length() else None)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, DenseTable) and self.alphabet == other.alphabet
                and self.n == other.n and self.entries == other.entries)

    def __hash__(self) -> int:
        return hash((self.alphabet, self.n, self.entries))


class StatisticFn(PlayerFunction):
    """A function of one integer statistic, the total of the players' scores.

    ``scores`` maps each symbol that moves the total to its score; every
    other symbol scores 0. The value at x is ``of_total`` of the total, so
    it does not depend on which player shows which symbol.
    """

    scores: Mapping[int, int] = MappingProxyType({})

    def of_total(self, t: int) -> Fraction:
        raise NotImplementedError

    def evaluate(self, x: Outcome) -> Fraction:
        self._check_arity(x)
        return self.of_total(sum(score * x.count(s) for s, score in self.scores.items()))


@dataclass(frozen=True)
class ParityFn(StatisticFn):
    """1 iff an odd number of input bits are set."""

    n: int
    scores = MappingProxyType({1: 1})

    def of_total(self, t: int) -> Fraction:
        return ONE if t & 1 else ZERO


@dataclass(frozen=True)
class MajorityFn(StatisticFn):
    """1 iff strictly more ones than zeros (ties give 0)."""

    n: int
    scores = MappingProxyType({1: 1})

    def of_total(self, t: int) -> Fraction:
        return ONE if 2 * t > self.n else ZERO


@dataclass(frozen=True)
class DictatorFn(PlayerFunction):
    n: int
    player: int

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "player",
                           as_int(self.player, "dictator index", PivotalError, 0, self.n - 1))

    def evaluate(self, x: Outcome) -> Fraction:
        self._check_arity(x)
        return ONE if x[self.player] == 1 else ZERO


@dataclass(frozen=True)
class ConstantFn(StatisticFn):
    n: int
    value: Fraction
    alphabet: Alphabet = BINARY

    def __post_init__(self) -> None:
        super().__post_init__()
        object.__setattr__(self, "value", as_exact(self.value, "value", PivotalError))
        _check_value_range((), self.value)

    def of_total(self, t: int) -> Fraction:
        return self.value


@dataclass(frozen=True)
class MajPFn(StatisticFn):
    """Majority over participating players on the {0, 1, abstain} alphabet.

    Value 1 iff strictly more participants vote 1 than 0. Ties and empty
    participation give 0; the tie rule is a fixed convention of this
    library.
    """

    n: int
    alphabet = PARTICIPATION
    scores = MappingProxyType({1: 1, 0: -1})

    def of_total(self, t: int) -> Fraction:
        return ONE if t > 0 else ZERO


@dataclass(frozen=True)
class ZeroCountFn(StatisticFn):
    """values[z] on the n-bit vectors with z zeros: the reduction's g on equal rows."""

    n: int
    values: tuple[Fraction, ...]
    scores = MappingProxyType({0: 1})

    def __post_init__(self) -> None:
        super().__post_init__()
        if len(self.values) != self.n + 1:
            raise PivotalError(f"{len(self.values)} values for {self.n + 1} zero counts")
        for z, v in enumerate(self.values):
            _check_value_range(f"{z} zeros", as_exact(v, "value", PivotalError))

    def of_total(self, t: int) -> Fraction:
        return self.values[t]


class UpwardClosure(PlayerFunction):
    """Indicator of the upward closure of a generator set on the binary cube.

    Value 1 iff the input dominates some generator coordinatewise; monotone
    by construction. Generators are stored as the minimal antichain, sorted,
    so equal closures compare equal. Construction builds one table per 8
    coordinates: entry b holds the bitset (bit i: generator i) of the
    generators that set some coordinate of b; a membership query reads one
    entry per byte of the coordinates it leaves clear. A ball query
    (``first_dominated_ball``) answers every point within Hamming distance
    1 of its centres: a centre's entries are read once, and each of its n
    neighbours reads one entry, of the byte it flips. A byte's table has up
    to 256 entries of one bit per generator, 32 times the bits of its 8
    columns (0.56 MB for influence_counterexample(6), 4.3 MB at k = 7).
    """

    __slots__ = ("n", "generators", "_tables", "_used")

    def __init__(self, n: int, generators: Iterable[Sequence[int]]):
        n = as_int(n, "arity", PivotalError)
        gens = [tuple(g) for g in generators]
        if (bad := first_bad_outcome(gens, n, 2)) is not None:
            raise PivotalError(f"generator {bad} is not a length-{n} bit vector")
        self._setup(n, set(map(outcome_to_mask, gens)))

    @classmethod
    def from_masks(cls, n: int, masks: Iterable[int]) -> "UpwardClosure":
        n = as_int(n, "arity", PivotalError)
        masks = {as_int(m, "generator mask", PivotalError) for m in masks}
        top = (1 << n) - 1
        if bad := [m for m in masks if not 0 <= m <= top]:
            as_int(min(bad), "generator mask", PivotalError, 0, top)  # the smallest is named
        obj = cls.__new__(cls)
        obj._setup(n, masks)
        return obj

    def _setup(self, n: int, masks: set[int]) -> None:
        self.n = n
        self.generators = self._minimize(masks)
        # Column j has bit i set iff generator i sets coordinate j. In the
        # joined binary texts, last generator first, every n-th character from
        # n - 1 - j reads coordinate j of each generator, generator i at bit i.
        # No generators give no text (int("", 2) fails); n = 0 reads no column.
        text = "".join([format(g, "b").zfill(n) for g in reversed(self.generators)])
        columns = [int(text[p::n], 2) for p in range(n - 1, -1, -1)] if text else []
        self._used = used = functools.reduce(int.__or__, self.generators, 0)
        # Entry b of byte c's table ORs the columns c + j for the bits j of b.
        # Each column doubles the table, one OR per new entry; a table stops
        # at the byte's highest used coordinate.
        self._tables = []
        for c in range(0, n, 8):
            table = [0]
            for col in columns[c:c + (used >> c & 255).bit_length()]:
                table += [t | col for t in table]
            self._tables.append(table)

    @staticmethod
    def _minimize(masks: set[int]) -> tuple[int, ...]:
        # Keep only minimal elements: a generator above another is redundant.
        # A mask can only lie above masks of smaller popcount, so in
        # (popcount, mask) order each mask is checked against the kept
        # masks of the levels below its own.
        kept: list[int] = []
        below: tuple[int, ...] = ()
        level = -1
        for count, g in sorted((m.bit_count(), m) for m in masks):
            if count != level:
                level, below = count, tuple(kept)
            if not any(h & g == h for h in below):
                kept.append(g)
        return tuple(sorted(kept))

    def _first_under(self, mask: int) -> int | None:
        # A generator lies under the mask iff it sets no coordinate the mask
        # leaves clear: OR those coordinates' bitsets, one table entry per
        # byte, and take the lowest generator left out.
        clear = (self._used & ~mask).to_bytes(len(self._tables), "little")
        blocked = functools.reduce(int.__or__, map(list.__getitem__, self._tables, clear), 0)
        left = ~blocked & ((1 << len(self.generators)) - 1)
        return (left & -left).bit_length() - 1 if left else None

    def evaluate(self, x: Outcome) -> Fraction:
        self._check_arity(x)
        if any(s not in (0, 1) for s in x):
            raise PivotalError(f"non-binary outcome {x} for an upward closure")
        return self.evaluate_mask(outcome_to_mask(x))

    def evaluate_mask(self, mask: int) -> Fraction:
        return ZERO if self._first_under(mask) is None else ONE

    def first_dominated(self, masks: Iterable[int]) -> list[int | None]:
        """For each mask, the index of the first generator it dominates, or None.

        The mask is in the closure iff the answer is not None.
        """
        return list(map(self._first_under, masks))

    def first_dominated_ball(self, centers: Iterable[int]) -> dict[int, int | None]:
        """``first_dominated``'s answer for every point within Hamming distance 1 of a centre.

        Keys are the distinct points of the balls. Each centre reads its
        clear bytes' table entries once and ORs them into prefixes and
        suffixes; a neighbour differs from it in one byte, so its blocked
        set is that byte's entry ORed with the other bytes' prefix and
        suffix: one lookup per neighbour. Centres must be masks in 0..2^n - 1.
        """
        top = (1 << self.n) - 1
        centers = [as_int(c, "ball centre", PivotalError) for c in centers]
        if bad := [c for c in centers if not 0 <= c <= top]:
            as_int(min(bad), "ball centre", PivotalError, 0, top)  # the smallest is named
        tables, used, count = self._tables, self._used, len(self.generators)
        # Per byte: (the neighbour's flip, the flip within the byte's used coordinates).
        flips = [[(1 << j, used >> c & 1 << (j - c)) for j in range(c, min(c + 8, self.n))]
                 for c in range(0, self.n, 8)]
        out: dict[int, int | None] = {}
        for center in centers:
            clear = (used & ~center).to_bytes(len(tables), "little")
            entries = list(map(list.__getitem__, tables, clear))
            pre = list(itertools.accumulate(entries, int.__or__, initial=0))
            suf = list(itertools.accumulate(reversed(entries), int.__or__, initial=0))[::-1]
            # The lowest generator left out is the lowest clear bit of blocked.
            first = (pre[-1] ^ (pre[-1] + 1)).bit_length() - 1
            out[center] = first if first < count else None
            rests = map(int.__or__, pre, suf[1:])  # byte i's: every other byte's entries
            for table, entry, rest, byte in zip(tables, clear, rests, flips):
                for flip, local in byte:
                    blocked = rest | table[entry ^ local]
                    first = (blocked ^ (blocked + 1)).bit_length() - 1
                    out[center ^ flip] = first if first < count else None
        return out

    def generator_outcomes(self) -> tuple[Outcome, ...]:
        return tuple(mask_to_outcome(g, self.n) for g in self.generators)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, UpwardClosure) and self.n == other.n
                and self.generators == other.generators)

    def __hash__(self) -> int:
        return hash((self.n, self.generators))

    def __repr__(self) -> str:
        return f"UpwardClosure(n={self.n}, {len(self.generators)} generators)"


@dataclass(frozen=True)
class MonotoneResult:
    ok: bool
    witness: tuple[Outcome, int] | None = None

    def __bool__(self) -> bool:
        return self.ok


def monotone_check(f: PlayerFunction) -> MonotoneResult:
    """Exhaustive monotonicity check over the full binary cube of f's n players.

    Returns a witness (x, i) with f(x) > f(x with bit i set) when the
    function is not monotone.
    """
    n = f.n
    if f.alphabet != BINARY:
        raise PivotalError("monotonicity is defined for the binary alphabet only")
    if n > _MONOTONE_CHECK_LIMIT:
        raise PivotalError(f"n={n} exceeds the enumeration limit {_MONOTONE_CHECK_LIMIT}")
    values = [f.evaluate_mask(m) for m in range(1 << n)]
    for m in range(1 << n):
        vm = values[m]
        for i in range(n):
            bit = 1 << i
            if not m & bit and vm > values[m | bit]:
                return MonotoneResult(False, (mask_to_outcome(m, n), i))
    return MonotoneResult(True, None)


def monotone_extend(pt: PartialTable) -> UpwardClosure:
    """Extend a consistent 0/1 partial labeling to a monotone total function.

    The result is the upward closure of the 1-labeled points; it agrees
    with the labeling iff no 0-labeled point dominates a 1-labeled point.
    """
    if pt.alphabet != BINARY:
        raise PivotalError("monotone extension is defined for the binary alphabet only")
    ones: list[int] = []
    zeros: list[int] = []
    for x, v in pt.entries:
        if v not in (0, 1):
            raise PivotalError(f"monotone extension needs 0/1 labels, got {v} at {x}")
        (ones if v else zeros).append(outcome_to_mask(x))
    closure = UpwardClosure.from_masks(pt.n, ones)
    for z, i in zip(zeros, closure.first_dominated(zeros)):
        if i is not None:
            o = next(o for o in ones if o & z == o)
            raise PreconditionError(
                "0-labeled point dominates a 1-labeled point",
                witness=(mask_to_outcome(z, pt.n), mask_to_outcome(o, pt.n)))
    return closure


@dataclass(frozen=True)
class CertCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class Certificate:
    kind: str
    k: int
    checks: tuple[CertCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)


def effect_counterexample(k: int) -> tuple[UpwardClosure, ExplicitDist, Certificate]:
    """Balanced monotone function with all effects zero on the mixed Hadamard space.

    The function is the upward closure of the complement-space support: it
    is constant 0 on the base support and constant 1 on the complement
    support, hence constant on each mixture component, which kills every
    effect. Requires k >= 3 so no non-extreme points of the two supports
    are comparable.
    """
    k = as_int(k, "k", PreconditionError, 3)
    mu = hadamard_mu(k)
    mubar = complement_mu(mu)
    d = mixture(mu, mubar, Fraction(1, 2))
    f = UpwardClosure.from_masks(mu.n, [outcome_to_mask(x) for x, _ in mubar.items()])

    checks = []
    violation = None
    base = [x for x, _ in mu.items()]
    bad = [(x, i) for x, i in zip(base, f.first_dominated(map(outcome_to_mask, base)))
           if i is not None]
    if bad:
        violation = (bad[0][0], mask_to_outcome(f.generators[bad[0][1]], f.n))
    checks.append(CertCheck("zero_on_base_support", not bad,
                            f"violating point {bad[0][0]}" if bad else f"{len(mu.support)} points"))
    top = [x for x, _ in mubar.items()]
    bad1 = [x for x, i in zip(top, f.first_dominated(map(outcome_to_mask, top)))
            if i is None]
    checks.append(CertCheck("one_on_complement_support", not bad1,
                            f"violating point {bad1[0]}" if bad1 else f"{len(mubar.support)} points"))
    exp = d.expectation(f)
    checks.append(CertCheck("balanced_under_mixture", exp == Fraction(1, 2), f"expectation {exp}"))

    cert = Certificate("effect", k, tuple(checks))
    if not cert.ok:
        raise CertificateError("effect counterexample certificate failed", cert, violation)
    return f, d, cert


def influence_counterexample(k: int) -> tuple[UpwardClosure, ExplicitDist, Certificate]:
    """Counterexample whose closure is locally constant around the mixture support.

    Each complement-support vector is lowered by one coordinate before
    closing upward, so the whole Hamming-1 ball around the complement
    support evaluates to 1 while the ball around the base support stays at
    0. Local constancy makes every influence zero. The dominance scan that
    certifies this can fail for small k; the error then names the
    violating (point, generator) pair.
    """
    k = as_int(k, "k", PreconditionError, 3, _INFLUENCE_K_LIMIT)
    mu = hadamard_mu(k)
    mubar = complement_mu(mu)
    d = mixture(mu, mubar, Fraction(1, 2))
    n = mu.n
    bar = [outcome_to_mask(x) for x, _ in mubar.items()]
    f = UpwardClosure.from_masks(n, {m ^ (1 << j) for m in bar for j in range(n) if m >> j & 1})

    checks = []
    violation = None

    # The balls are scanned by centre; only violators are sorted, to name the first.
    ball_bar = f.first_dominated_ball(bar)
    bad1 = sorted(m for m, i in ball_bar.items() if i is None)
    checks.append(CertCheck(
        "one_on_complement_ball", not bad1,
        f"point {mask_to_outcome(bad1[0], n)} not in closure" if bad1
        else f"{len(ball_bar)} points"))

    ball_mu = f.first_dominated_ball(outcome_to_mask(x) for x, _ in mu.items())
    bad0 = sorted((m, f.generators[i]) for m, i in ball_mu.items() if i is not None)
    if bad0:
        violation = (mask_to_outcome(bad0[0][0], n), mask_to_outcome(bad0[0][1], n))
    checks.append(CertCheck(
        "zero_on_base_ball", not bad0,
        f"point {violation[0]} dominates generator {violation[1]}" if bad0
        else f"{len(ball_mu)} points"))

    checks.append(CertCheck("monotone_by_construction", True, "upward closure"))

    exp = d.expectation(f)
    checks.append(CertCheck("balanced_under_mixture", exp == Fraction(1, 2), f"expectation {exp}"))

    cert = Certificate("influence", k, tuple(checks))
    if not cert.ok:
        raise CertificateError(
            f"influence counterexample certificate failed at k={k}", cert, violation)
    return f, d, cert
