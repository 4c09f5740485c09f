"""Brute-force reference implementations used to freeze expected values.

Everything here recomputes probability logic from first principles
(filter, renormalize, sum), independently of the library's accumulation
passes, so a test comparing the two exercises genuinely different code
paths. The grouped-sum oracle adds Fractions point by point, where the
library ANDs bitsets and weighs them by popcount. The
participation-majority oracle works through binomial sums rather than
grid enumeration. The sampling oracle draws with
``randrange`` over lcm-scaled weights and a linear scan, without the
library's cumulative tables. The closure oracles compare every pair of
raw bitmasks, with no ordering by popcount and no per-coordinate bitsets,
and the mask oracles convert one bit at a time.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb, lcm

F = Fraction


def brute_expectation(f, d) -> Fraction:
    return sum((w * f.evaluate(x) for x, w in d.items()), F(0))


def brute_conditional(f, d, assignment: dict[int, int]) -> Fraction:
    num = F(0)
    den = F(0)
    for x, w in d.items():
        if all(x[i] == s for i, s in assignment.items()):
            num += w * f.evaluate(x)
            den += w
    if den == 0:
        raise ZeroDivisionError("conditioning event has zero mass")
    return num / den


def brute_event_mass(d, assignment: dict[int, int]) -> Fraction:
    return sum((w for x, w in d.items()
                if all(x[i] == s for i, s in assignment.items())), F(0))


def brute_signed_effect(f, d, i: int) -> Fraction:
    return brute_conditional(f, d, {i: 1}) - brute_conditional(f, d, {i: 0})


def brute_influence(f, d, i: int) -> Fraction:
    total = F(0)
    for x, w in d.items():
        y = list(x)
        y[i] = 1 - y[i]
        if f.evaluate(x) != f.evaluate(tuple(y)):
            total += w
    return total


def brute_deviating_mass(f, d, i: int, alpha: Fraction) -> Fraction:
    """Mass of player i's symbols whose conditional expectation strays past alpha."""
    ef = brute_expectation(f, d)
    mass = F(0)
    seen = sorted({x[i] for x, _ in d.items()})
    for s in seen:
        ms = brute_event_mass(d, {i: s})
        if ms > 0 and abs(brute_conditional(f, d, {i: s}) - ef) > alpha:
            mass += ms
    return mass


def brute_set_deviating_mass(f, d, players, alpha: Fraction) -> Fraction:
    ef = brute_expectation(f, d)
    T = sorted(players)
    keys = sorted({tuple(x[i] for i in T) for x, _ in d.items()})
    mass = F(0)
    for key in keys:
        assignment = dict(zip(T, key))
        ms = brute_event_mass(d, assignment)
        if ms > 0 and abs(brute_conditional(f, d, assignment) - ef) > alpha:
            mass += ms
    return mass


def brute_grouped_sums(f, d, groups):
    """(law, mean, tables) of ``d.sums(groups, f)``, by one Fraction walk over d.items().

    f=None stands for the constant 1. The law and the tables are compared
    as mappings: the order in which they list their keys carries no meaning.
    """
    law: dict = {}
    mean = F(0)
    tables = [{} for _ in groups]
    for x, w in d.items():
        v = F(1) if f is None else f.evaluate(x)
        law[v] = law.get(v, F(0)) + w
        mean += w * v
        for T, table in zip(groups, tables):
            key = tuple(x[i] for i in T)
            mass, total = table.get(key, (F(0), F(0)))
            table[key] = (mass + w, total + w * v)
    return {v: law[v] for v in sorted(law)}, mean, tables


def brute_kwise(d, k: int):
    """Exhaustive factorization check; returns (ok, witness)."""
    n = d.n
    m = len(d.alphabet)
    for size in range(1, k + 1):
        for T in itertools.combinations(range(n), size):
            for a in itertools.product(range(m), repeat=size):
                joint = brute_event_mass(d, dict(zip(T, a)))
                prod = F(1)
                for i, s in zip(T, a):
                    prod *= brute_event_mass(d, {i: s})
                if joint != prod:
                    return False, (T, a)
    return True, None


# ----------------------------------------------------------------------
# Participation majority via binomial sums (no grid enumeration)


def _majority_wins(m: int, extra_ones: int, extra_zeros: int) -> Fraction:
    """Pr[majority of ones] with m fair voters plus fixed extra votes."""
    wins = sum(comb(m, j) for j in range(m + 1)
               if j + extra_ones > m - j + extra_zeros)
    return F(wins, 2 ** m)


def majp_expectation_oracle(n: int, p: Fraction) -> Fraction:
    total = F(0)
    for m in range(n + 1):
        pm = F(comb(n, m)) * p ** m * (1 - p) ** (n - m)
        total += pm * _majority_wins(m, 0, 0)
    return total


def majp_conditional_oracle(n: int, p: Fraction, symbol: int) -> Fraction:
    """E[f | player 0 shows symbol]; 0/1 vote or 2 for abstention."""
    total = F(0)
    for m in range(n):
        pm = F(comb(n - 1, m)) * p ** m * (1 - p) ** (n - 1 - m)
        if symbol == 2:
            total += pm * _majority_wins(m, 0, 0)
        elif symbol == 1:
            total += pm * _majority_wins(m, 1, 0)
        else:
            total += pm * _majority_wins(m, 0, 1)
    return total


# ----------------------------------------------------------------------
# Indicator law of the pivotal-to-binary reduction, coin by coin


def brute_indicator_law(f, d, selected, flipped: bool, p: Fraction, alpha: Fraction):
    """Indicator-vector law and g of the reduction, by direct enumeration.

    Selected player j's bit is 0 when the player's symbol deviates past
    alpha on the chosen side and coin j, of rate p / (2 p_j), fires. Every
    support point is paired with every one of the 2^k coin outcomes.
    Returns the sorted positive-mass (vector, mass) pairs and the sorted
    (vector, g) pairs over all 2^k vectors; g is 1 - f or -f when flipped.
    """
    sign = -1 if flipped else 1
    ef = brute_expectation(f, d)
    zero_one = all(f.evaluate(x) in (0, 1) for x, _ in d.items())

    def h(v):
        if not flipped:
            return v
        return 1 - v if zero_one else -v

    devs, rates = [], []
    for i in selected:
        seen = {x[i] for x, _ in d.items()}
        syms = {s for s in seen if sign * (brute_conditional(f, d, {i: s}) - ef) > alpha}
        devs.append(syms)
        rates.append(p / (2 * sum((brute_event_mass(d, {i: s}) for s in syms), F(0))))
    k = len(selected)
    mass: dict = {}
    wsum: dict = {}
    for x, w in d.items():
        for fires in itertools.product((False, True), repeat=k):
            prob = w
            for rate, fired in zip(rates, fires):
                prob *= rate if fired else 1 - rate
            y = tuple(0 if fired and x[i] in syms else 1
                      for i, syms, fired in zip(selected, devs, fires))
            mass[y] = mass.get(y, F(0)) + prob
            wsum[y] = wsum.get(y, F(0)) + prob * h(f.evaluate(x))
    support = sorted((y, m) for y, m in mass.items() if m > 0)
    g = sorted((y, wsum[y] / mass[y] if mass.get(y, 0) > 0 else h(ef))
               for y in itertools.product((0, 1), repeat=k))
    return support, g


# ----------------------------------------------------------------------
# Sampling: the draw stream of (seed, index), one linear scan per draw


def _scan_draw(rng: random.Random, weights) -> int:
    denom = lcm(*(w.denominator for w in weights))
    scaled = [w.numerator * (denom // w.denominator) for w in weights]
    r = rng.randrange(sum(scaled))
    acc = 0
    for i, s in enumerate(scaled):
        acc += s
        if r < acc:
            return i
    raise AssertionError("weights exhausted before cumulative mass reached")


def brute_sample(d, seed, index: int):
    """The outcome d.sample(seed, index) must return.

    One generator seeded with "seed|index" draws each product row in player
    order, or one index into an explicit support in its sorted order.
    """
    rng = random.Random(f"{seed}|{index}")
    if hasattr(d, "marginals"):
        return tuple(_scan_draw(rng, row) for row in d.marginals)
    support = list(d.items())
    return support[_scan_draw(rng, [w for _, w in support])][0]


# ----------------------------------------------------------------------
# Upward closures on raw bitmasks (bit j = player j), pairwise comparison


def brute_outcome_to_mask(x) -> int:
    """Bit j set iff symbol j of x is truthy, one bit at a time."""
    mask = 0
    for j, s in enumerate(x):
        if s:
            mask |= 1 << j
    return mask


def brute_mask_to_outcome(mask: int, n: int) -> tuple[int, ...]:
    """Bits 0..n-1 of mask (two's complement if negative), one shift at a time."""
    return tuple((mask >> j) & 1 for j in range(n))


def brute_minimal_generators(masks) -> tuple[int, ...]:
    """Sorted minimal masks: those lying above no other mask of the set."""
    pool = set(masks)
    return tuple(sorted(g for g in pool
                        if not any(h != g and h & g == h for h in pool)))


def brute_closure_value(masks, mask: int) -> int:
    """1 iff mask sets every bit of some mask of the set, else 0."""
    return int(any(g & mask == g for g in masks))
