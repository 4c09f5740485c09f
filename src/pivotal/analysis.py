"""Effects, influences, pivotality, and the minimal-support Fourier engine.

Conditional expectations come from the grouped-sum kernel
``Distribution.sums``: one pass over the support yields E[f] and the
conditional sums for every player group a report needs, so per-player
reports on product grids stay linear in the grid size. Reports and the
(p, alpha) set rule decide once per distinct table object. ``influence``
sums the integer weights of ``Distribution.scaled_items`` over the points
where a flip changes f and builds one ``Fraction``. Everything is exact;
the only floats are Hoeffding half-widths on Monte Carlo estimates.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .boolfn import PlayerFunction, PreconditionError
from .dist import (
    BINARY,
    Distribution,
    DistributionError,
    ExplicitDist,
    GroupedSums,
    NullConditionError,
    Outcome,
    PivotalError,
    ProductDist,
    ZERO,
    as_exact,
    as_int,
)

Table = dict[Outcome, tuple[Fraction, Fraction]]

HALF = Fraction(1, 2)


@dataclass(frozen=True)
class EffectRow:
    player: int
    signed: Fraction  # E[f | X_i = 1] - E[f | X_i = 0]

    @property
    def effect(self) -> Fraction:
        return abs(self.signed)


@dataclass(frozen=True)
class EffectReport:
    rows: tuple[EffectRow, ...]

    def effects(self) -> tuple[Fraction, ...]:
        return tuple(r.effect for r in self.rows)


@dataclass(frozen=True)
class SymbolDeviation:
    symbol: int
    mass: Fraction
    deviation: Fraction  # E[f | X_i = s] - E[f]


def _deviates(dev: Fraction, alpha: Fraction, sign: int = 0) -> bool:
    """Whether dev strays strictly past alpha: either way for sign 0, else toward sign."""
    return (sign * dev if sign else abs(dev)) > alpha


def _mass_past(pairs: Iterable[tuple[Fraction, Fraction]], alpha: Fraction,
               sign: int = 0) -> Fraction:
    """Mass of the (mass, deviation) pairs whose deviation strays past alpha.

    The (p, alpha) rule compares this mass strictly with p.
    """
    return sum((m for m, dev in pairs if _deviates(dev, alpha, sign)), ZERO)


@dataclass(frozen=True)
class PivotalRow:
    player: int
    deviations: tuple[SymbolDeviation, ...]
    deviating_mass: Fraction
    pivotal: bool

    def mass_past(self, alpha: Fraction, sign: int = 0) -> Fraction:
        return _mass_past(((sd.mass, sd.deviation) for sd in self.deviations), alpha, sign)


@dataclass(frozen=True)
class PivotalReport:
    expectation: Fraction
    p: Fraction
    alpha: Fraction
    rows: tuple[PivotalRow, ...]

    def count(self, p: Fraction, alpha: Fraction) -> int:
        """Number of (p, alpha)-pivotal players; deviations do not depend on alpha."""
        return sum(1 for r in self.rows if r.mass_past(alpha) > p)


def _singletons(n: int) -> list[tuple[int]]:
    return [(i,) for i in range(n)]


def _once_per_table(tables: Sequence[Table], make: Callable[[int, Table], object]) -> list:
    """make(i, table) for each player i, made once per table object (groups may share one)."""
    done: dict[int, object] = {}
    for i, t in enumerate(tables):
        if id(t) not in done:
            done[id(t)] = make(i, t)
    return [done[id(t)] for t in tables]


def _signed(i: int, table: Table) -> Fraction:
    """E[f | X_i = 1] - E[f | X_i = 0] from player i's kernel table."""
    for b in (0, 1):
        if (b,) not in table:
            raise NullConditionError(f"player {i} never takes value {b}")
    (m0, s0), (m1, s1) = table[(0,)], table[(1,)]
    return s1 / m1 - s0 / m0


def _pivotal_groups(sums: GroupedSums, p: Fraction, alpha: Fraction) -> list[bool]:
    """The set rule per group: mass of symbols deviating past alpha > p, once per table object."""
    return _once_per_table(sums.tables, lambda _, t: _mass_past(
        ((m, s / m - sums.mean) for m, s in t.values()), alpha) > p)


def signed_effect(f: PlayerFunction, d: Distribution, i: int) -> Fraction:
    """E[f | X_i = 1] - E[f | X_i = 0], exact. Binary alphabet only."""
    if d.alphabet != BINARY:
        raise DistributionError("effect is defined for the binary alphabet only")
    (table,) = d.sums([(i,)], f).tables
    return _signed(i, table)


def effect(f: PlayerFunction, d: Distribution, i: int) -> Fraction:
    return abs(signed_effect(f, d, i))


def effect_report(f: PlayerFunction, d: Distribution) -> EffectReport:
    """Signed and absolute effects for every player, in one support pass."""
    if d.alphabet != BINARY:
        raise DistributionError("effect is defined for the binary alphabet only")
    signed = _once_per_table(d.sums(_singletons(d.n), f).tables, _signed)
    return EffectReport(tuple(EffectRow(i, s) for i, s in enumerate(signed)))


def influence(f: PlayerFunction, d: Distribution, i: int) -> Fraction:
    """Probability that flipping player i's bit changes the value."""
    if d.alphabet != BINARY:
        raise DistributionError("influence is defined for the binary alphabet only")
    i = d._check_player(i)
    denom, points = d.scaled_items()
    return Fraction(sum(w for x, w in points
                        if f.evaluate(x) != f.evaluate(x[:i] + (1 - x[i],) + x[i + 1:])), denom)


def _deviations(table: Table, mean: Fraction,
                alpha: Fraction) -> tuple[tuple[SymbolDeviation, ...], Fraction]:
    devs = tuple(SymbolDeviation(key[0], m, s / m - mean)
                 for key, (m, s) in sorted(table.items()))
    return devs, _mass_past(((sd.mass, sd.deviation) for sd in devs), alpha)


def pivotal_report(f: PlayerFunction, d: Distribution,
                   p: Fraction, alpha: Fraction) -> PivotalReport:
    """Per-player deviation masses against the (p, alpha) thresholds.

    A player is pivotal when the total mass of his symbols whose
    conditional expectation deviates from E[f] by more than alpha
    strictly exceeds p. Comparisons are exact and strict.
    """
    p, alpha = as_exact(p, "p", PivotalError), as_exact(alpha, "alpha", PivotalError)
    sums = d.sums(_singletons(d.n), f)
    per_player = _once_per_table(sums.tables, lambda i, t: _deviations(t, sums.mean, alpha))
    rows = tuple(PivotalRow(i, devs, q, q > p) for i, (devs, q) in enumerate(per_player))
    return PivotalReport(sums.mean, p, alpha, rows)


def pivotal_player(f: PlayerFunction, d: Distribution, i: int,
                   p: Fraction, alpha: Fraction) -> tuple[bool, PivotalRow]:
    p, alpha = as_exact(p, "p", PivotalError), as_exact(alpha, "alpha", PivotalError)
    i = d._check_player(i)
    sums = d.sums([(i,)], f)
    devs, q = _deviations(sums.tables[0], sums.mean, alpha)
    return q > p, PivotalRow(i, devs, q, q > p)


def pivotal_set(f: PlayerFunction, d: Distribution, players: Sequence[int],
                p: Fraction, alpha: Fraction) -> bool:
    """Whether the joint signal of the given players is (p, alpha)-pivotal, by the set rule."""
    p, alpha = as_exact(p, "p", PivotalError), as_exact(alpha, "alpha", PivotalError)
    return _pivotal_groups(d.sums([d._player_set(players)], f), p, alpha)[0]


def count_effect(f: PlayerFunction, d: Distribution, alpha: Fraction) -> int:
    """Number of players with effect strictly above alpha."""
    alpha = as_exact(alpha, "alpha", PivotalError)
    return sum(1 for r in effect_report(f, d).rows if r.effect > alpha)


def count_pivotal(f: PlayerFunction, d: Distribution,
                  p: Fraction, alpha: Fraction) -> int:
    return sum(1 for r in pivotal_report(f, d, p, alpha).rows if r.pivotal)


# ----------------------------------------------------------------------
# Fourier analysis over minimal-support pairwise independent spaces


@dataclass(frozen=True)
class FourierTable:
    """Character coefficients over a support of size n + 1 = 2^k.

    ``support`` fixes the bijection between character inputs and support
    points (lexicographic order); ``coeffs[0]`` is the expectation and
    ``coeffs[y]`` for y >= 1 belongs to player y - 1.
    """

    k: int
    support: tuple[Outcome, ...]
    coeffs: tuple[Fraction, ...]

    @property
    def expectation(self) -> Fraction:
        return self.coeffs[0]


def _require_pairwise(d: Distribution) -> None:
    res = d.check_kwise(min(2, d.n))
    if not res.ok:
        raise PreconditionError("distribution is not pairwise independent",
                                witness=res.witness)


def _require_minimal_space(d: Distribution) -> tuple[int, ExplicitDist]:
    """Check the minimal-support preconditions, returning k and the support."""
    mu = d.to_explicit()
    if mu.alphabet != BINARY:
        raise PreconditionError("Fourier engine needs the binary alphabet")
    size = len(mu.support)
    if size != mu.n + 1 or size & (size - 1):
        raise PreconditionError(
            f"support size {size} is not n + 1 = 2^k (n = {mu.n})")
    k = size.bit_length() - 1
    w = Fraction(1, size)
    if any(weight != w for _, weight in mu.support):
        raise PreconditionError(f"support is not uniform (expected weight {w})")
    # The masses of the two symbols sum to 1, so Pr[X_i = 0] = 1/2 is fair.
    for i in range(mu.n):
        if mu.single_marginal(i)[0] != HALF:
            raise PreconditionError(f"marginal of player {i} is not 1/2")
    _require_pairwise(mu)
    # The characters chi_y(x) = 1 - 2 x_y are then orthonormal under the
    # uniform weights: fair marginals give E[chi_y] = 0, and pairwise
    # independence gives E[chi_a chi_b] = -1 + 4 * 1/4 = 0 for a != b.
    return k, mu


def fourier(f: PlayerFunction, mu: Distribution) -> FourierTable:
    """Exact character coefficients of f over a minimal-support space."""
    k, mu = _require_minimal_space(mu)
    sums = mu.sums(_singletons(mu.n), f)
    # E[f chi_y] is the f-weighted sum on x_y = 0 minus that on x_y = 1.
    coeffs = [sums.mean] + [t[(0,)][1] - t[(1,)][1] for t in sums.tables]
    return FourierTable(k, tuple(x for x, _ in mu.support), tuple(coeffs))


# Ratio of the squared-effect sum to the variance on minimal-support
# pairwise independent spaces. Pinned by the 2-point brute-force oracle
# (see the acceptance suite); it is the same constant at every k.
EFFECT_VARIANCE_RATIO = Fraction(4)


@dataclass(frozen=True)
class EffectIdentity:
    sum_sq_effects: Fraction
    variance: Fraction
    ratio: Fraction | None  # sum_sq_effects / variance, None when variance is 0


def effect_identity(f: PlayerFunction, mu: Distribution) -> EffectIdentity:
    """Sum of squared effects against the variance, with their exact ratio.

    Both sides are computed from the definitions (conditioning for the
    effects, direct expectations for the variance), independently of the
    character table.
    """
    _, mu = _require_minimal_space(mu)
    sums = mu.sums(_singletons(mu.n), f)
    variance = sum((v * v * m for v, m in sums.law.items()), ZERO) - sums.mean ** 2
    ssq = sum((_signed(i, t) ** 2 for i, t in enumerate(sums.tables)), ZERO)
    ratio = ssq / variance if variance != 0 else None
    return EffectIdentity(ssq, variance, ratio)


# ----------------------------------------------------------------------
# Monte Carlo estimation for grids beyond exact enumeration


@dataclass(frozen=True)
class EffectEstimate:
    estimate: Fraction  # a sample mean, or a difference of two
    halfwidth: float    # 95% Hoeffding half-width
    samples: int


def hoeffding_halfwidth(samples: int) -> float:
    """95% half-width for a difference of two means of [-1, 1] samples.

    The estimator is a sum of 2 * samples independent terms with range
    2 / samples each, so the two-sided Hoeffding bound at confidence 0.95
    gives 2 * sqrt(ln(2 / (1 - 0.95)) / samples).
    """
    samples = as_int(samples, "samples", PivotalError, 1)
    return 2.0 * math.sqrt(math.log(2.0 / (1.0 - 0.95)) / samples)


def estimate_effect(f: PlayerFunction, d: ProductDist, i: int,
                    samples: int, seed: int | str) -> EffectEstimate:
    """Monte Carlo estimate of E[f | X_i = 1] - E[f | X_i = 0].

    The difference of two ``estimate_expectation`` sample means, one per
    conditional, seeded independently; deterministic given (seed, draw index).
    """
    d1 = d.condition({i: d.alphabet.index("1")})
    d0 = d.condition({i: d.alphabet.index("0")})
    est1 = estimate_expectation(f, d1, samples, f"{seed}/1")
    est0 = estimate_expectation(f, d0, samples, f"{seed}/0")
    return EffectEstimate(est1.estimate - est0.estimate,
                          hoeffding_halfwidth(est1.samples), est1.samples)


def estimate_expectation(f: PlayerFunction, d: Distribution,
                         samples: int, seed: int | str) -> EffectEstimate:
    """Sample mean of f under d with a single-mean Hoeffding half-width."""
    samples = as_int(samples, "samples", PivotalError, 1)
    # Each distinct value is added once, times its count: the same exact sum.
    tally = Counter(f.evaluate(d.sample(seed, j)) for j in range(samples))
    acc = sum((v * c for v, c in tally.items()), ZERO)
    # Single mean of [-1, 1] samples: half-width sqrt(2 ln(2/0.05) / samples).
    hw = math.sqrt(2.0 * math.log(2.0 / 0.05) / samples)
    return EffectEstimate(acc / samples, hw, samples)
