"""Instance-level verifiers and constructive procedures for the core bounds.

Each verifier evaluates one statement on concrete inputs with exact
rational comparisons and returns a verdict object; none of them certify a
statement symbolically. The reduction and elimination procedures are
constructive and carry their own verification.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .analysis import (
    EFFECT_VARIANCE_RATIO,
    SymbolDeviation,
    _deviates,
    _once_per_table,
    _pivotal_groups,
    _require_pairwise,
    count_effect,
    count_pivotal,
    effect_identity,
    effect_report,
    estimate_expectation,
    pivotal_player,
    pivotal_report,
    signed_effect,
)
from .boolfn import (DenseTable, MajPFn, PlayerFunction, PreconditionError, ZeroCountFn,
                     mask_to_outcome)
from .dist import (
    BINARY,
    Distribution,
    DistributionError,
    ExplicitDist,
    PivotalError,
    ProductDist,
    ZERO,
    as_exact,
    as_int,
    mixture,
)
from .generators import majp_dist

HALF = Fraction(1, 2)

_REDUCTION_ARITY_LIMIT = 20
_ELIMINATION_N_LIMIT = 16
_ELIMINATION_M_LIMIT = 3


@dataclass(frozen=True)
class Verdict:
    """Outcome of checking one statement on one instance."""

    which: str
    inputs: dict
    computed: dict
    bound: Fraction | None
    ok: bool
    witness: object | None = None


def _positive(name: str, value: Fraction) -> Fraction:
    value = as_exact(value, name, PreconditionError)
    if value <= 0:
        raise PreconditionError(f"{name} must be positive, got {value}")
    return value


def verify_thm1(f: PlayerFunction, d: Distribution,
                p: Fraction, alpha: Fraction) -> Verdict:
    """Pivotal-player count against 8 / (p * alpha^2) under pairwise independence."""
    p, alpha = _positive("p", p), _positive("alpha", alpha)
    _require_pairwise(d)
    count = count_pivotal(f, d, p, alpha)
    bound = 8 / (p * alpha ** 2)
    return Verdict(
        which="thm1",
        inputs={"p": p, "alpha": alpha, "n": d.n},
        computed={"count_pivotal": count},
        bound=bound,
        ok=count < bound,
    )


def _is_uniform_product(d: Distribution) -> bool:
    return (isinstance(d, ProductDist) and d.alphabet == BINARY
            and all(row == (HALF, HALF) for row in d.marginals))


def verify_warmup(f: PlayerFunction, d: Distribution, alpha: Fraction) -> Verdict:
    """Effect count against 4 / alpha^2 on independent fair bits."""
    alpha = _positive("alpha", alpha)
    if not _is_uniform_product(d):
        raise DistributionError(
            "warm-up bound applies to independent fair bits only")
    count = count_effect(f, d, alpha)
    bound = 4 / alpha ** 2
    return Verdict(
        which="warmup",
        inputs={"alpha": alpha, "n": d.n},
        computed={"count_effect": count},
        bound=bound,
        ok=count < bound,
    )


def _equal_binary_marginals(d: Distribution) -> Fraction:
    """Shared Pr[X_i = 0], required strictly inside (0, 1)."""
    if d.alphabet != BINARY:
        raise DistributionError("bound applies to the binary alphabet only")
    q = d.single_marginal(0)[0]
    for i in range(1, d.n):
        if (qi := d.single_marginal(i)[0]) != q:
            raise DistributionError(f"marginals differ: player 0 has Pr[0]={q}, player {i} has {qi}")
    if not 0 < q < 1:
        raise DistributionError(f"degenerate shared marginal Pr[0]={q}")
    return q


def verify_sum_bound(f: PlayerFunction, d: Distribution,
                     players: Sequence[int]) -> Verdict:
    """Sum of effects over a player subset against sqrt(2k / p), compared in squares."""
    T = d._player_set(players)
    q = _equal_binary_marginals(d)
    _require_pairwise(d)
    p = min(q, 1 - q)
    report = effect_report(f, d)
    total = sum((report.rows[i].effect for i in T), ZERO)
    bound_sq = Fraction(2 * len(T)) / p
    return Verdict(
        which="sum-bound",
        inputs={"players": tuple(T), "q": q, "p": p},
        computed={"sum_effects": total, "sum_effects_squared": total ** 2},
        bound=bound_sq,
        ok=total ** 2 <= bound_sq,
    )


def verify_binary_bound(f: PlayerFunction, d: Distribution,
                        alpha: Fraction) -> Verdict:
    """Effect count against 2 / (p * alpha^2) for equal skewed binary marginals."""
    alpha = _positive("alpha", alpha)
    q = _equal_binary_marginals(d)
    _require_pairwise(d)
    p = min(q, 1 - q)
    count = count_effect(f, d, alpha)
    bound = 2 / (p * alpha ** 2)
    return Verdict(
        which="binary-bound",
        inputs={"alpha": alpha, "q": q, "p": p},
        computed={"count_effect": count},
        bound=bound,
        ok=count < bound,
    )


# ----------------------------------------------------------------------
# Reduction of pivotality on a general alphabet to effects on skewed bits


@dataclass(frozen=True)
class ReductionResult:
    """Output of the pivotal-to-binary reduction.

    The selected players' signals are collapsed to indicator bits whose
    joint law is computed exactly (the auxiliary coins are marginalized
    analytically, never sampled). ``g`` is the conditional expectation of
    the possibly sign-flipped function given the indicator vector.
    """

    i_plus: tuple[int, ...]
    flipped: bool
    p_values: tuple[Fraction, ...]  # deviating-side mass per selected player
    y_dist: Distribution | None  # a ProductDist when d is one
    g: PlayerFunction | None  # a ZeroCountFn on the class path, else a DenseTable
    expectation: Fraction  # of the function actually reduced (after any flip)
    count_pivotal: int  # (p, alpha)-pivotal players of the original function

    @property
    def is_empty(self) -> bool:
        return not self.i_plus


def _coin_rate(p: Fraction, pj: Fraction) -> Fraction:
    """The chance p / (2 p_j) that a deviating player's coin keeps the bit at 0."""
    return p / (2 * pj)


def _sides(deviations: Sequence[SymbolDeviation], alpha: Fraction) -> dict:
    """Per sign 1 and -1, the mass and the set of the symbols deviating past alpha that way."""
    out = {}
    for sign in (1, -1):
        past = [sd for sd in deviations if _deviates(sd.deviation, alpha, sign)]
        out[sign] = sum((sd.mass for sd in past), ZERO), frozenset(sd.symbol for sd in past)
    return out


def _fold_vectors(d: Distribution, k: int, denom: int, mass: list[int], wsum: list[int],
                  keeps: Sequence[Fraction], total: Fraction) -> tuple[Distribution, DenseTable]:
    """Y's law and g from the sums of each indicator vector, one coin per coordinate.

    From every vector with bit j clear, the fraction 1 - keeps[j] of both
    sums moves to the vector with bit j set.
    """
    for j, keep in enumerate(keeps):
        a, b, bit = keep.numerator, keep.denominator, 1 << j
        denom *= b
        for acc in (mass, wsum):
            for y in range(1 << k):
                if not y & bit:
                    acc[y | bit] = acc[y | bit] * b + acc[y] * (b - a)
                    acc[y] *= a
    vectors = [mask_to_outcome(y, k) for y in range(1 << k)]
    # A vector without mass gets E[g], which keeps g's total.
    g = DenseTable(BINARY, k, {v: Fraction(s, m) if m else total
                               for v, m, s in zip(vectors, mass, wsum)})
    if isinstance(d, ProductDist):  # Y_j reads only x_j and coin j: Y is a product too
        zeros = [Fraction(sum(m for y, m in enumerate(mass) if not y >> j & 1), denom)
                 for j in range(k)]
        return ProductDist(BINARY, k, [(z, 1 - z) for z in zeros]), g
    return ExplicitDist(BINARY, k, [(v, Fraction(m, denom))
                                    for v, m in zip(vectors, mass) if m > 0]), g


def _thin(per_vector: Sequence[int], a: int, b: int) -> list[int]:
    """Per z, b^k times the summed sums of the vectors with z clear bits, after thinning.

    per_vector[c] is the sum of one vector with c clear bits, and each
    clear bit stays clear with chance a / b. The totals by class,
    G(x) = sum_c C(k, c) per_vector[c] x^c, become G((a x + b - a) / b):
    Horner's rule from the highest class, in O(k^2) products of small
    integers.
    """
    k = len(per_vector) - 1
    totals, binom = [], 1
    for c, s in enumerate(per_vector):
        totals.append(binom * s)
        binom = binom * (k - c) // (c + 1)
    poly, power, rest = [totals[k]], 1, b - a
    for c in range(k - 1, -1, -1):
        power *= b
        poly = [u * rest + v * a for u, v in zip(poly + [0], [0] + poly)]
        poly[0] += totals[c] * power
    return poly


def _fold_classes(k: int, denom: int, mass: list[int], wsum: list[int],
                  keep: Fraction, total: Fraction) -> tuple[ProductDist, ZeroCountFn]:
    """Y's law and g from the sums of one vector per number of clear bits.

    Every vector with z clear bits ends with the same sums, so g depends on
    z only, and Pr[Y_j = 0] is the mean number of zeros over k.
    """
    a, b = keep.numerator, keep.denominator
    mass, wsum = _thin(mass, a, b), _thin(wsum, a, b)
    zero = Fraction(sum(z * m for z, m in enumerate(mass)), k * denom * b ** k)
    g = ZeroCountFn(k, tuple(Fraction(s, m) if m else total for m, s in zip(mass, wsum)))
    return ProductDist(BINARY, k, [(zero, 1 - zero)] * k), g


def reduce_to_binary(f: PlayerFunction, d: Distribution,
                     p: Fraction, alpha: Fraction) -> ReductionResult:
    """Collapse every pivotal player to a skewed indicator bit.

    On the sign side where more pivotal players have mass p_j > p / 2 of
    symbols deviating past alpha, selected player j's bit is 0 exactly when
    the player's symbol deviates that way and an independent coin of rate
    p / (2 p_j) fires, so Pr[Y_j = 0] = p / 2.

    The law is exact. The sums of each deviation pattern (bit j clear when
    player j deviates), as if every coin fired, come from
    ``Distribution._pattern_sums``: one kernel pass over the selected
    players, folded key by key, and the coins are applied once per
    coordinate. On a product whose rows are all equal, with f a function of
    a score total, ``_ScoreLaw.classes`` gives them by deviation count
    instead, k + 1 classes, and the coins thin the classes. On a product Y
    is a product, and on the class path g depends only on the zero count.

    A 0/1-valued function is flipped as 1 - f, anything else as -f, so the
    reduced function stays inside [-1, 1] either way.
    """
    p, alpha = _positive("p", p), _positive("alpha", alpha)
    _require_pairwise(d)

    report = pivotal_report(f, d, p, alpha)
    total = report.expectation
    pivotal = [r for r in report.rows if r.pivotal]
    if not pivotal:
        return ReductionResult((), False, (), None, None, total, 0)

    # Players that share a table share its deviations, read once.
    sides = _once_per_table([r.deviations for r in pivotal], lambda _, devs: _sides(devs, alpha))
    half = p / 2
    flipped = sum(s[-1][0] > half for s in sides) > sum(s[1][0] > half for s in sides)
    sign = -1 if flipped else 1
    chosen = [(r.player, *s[sign]) for r, s in zip(pivotal, sides) if s[sign][0] > half]
    selected = tuple(player for player, _, _ in chosen)
    p_values = tuple(mass for _, mass, _ in chosen)
    dev_syms = [syms for _, _, syms in chosen]
    k = len(selected)

    # Sums are integers over one denominator. Players on one row deviate alike.
    score_law = d._score_law([selected], f) if isinstance(d, ProductDist) else None
    if score_law is None:
        if k > _REDUCTION_ARITY_LIMIT:
            raise PivotalError(f"reduction would enumerate 2^{k} indicator vectors")
        if len(d.alphabet) ** k > 2 ** _REDUCTION_ARITY_LIMIT:  # the joint table has |S|^k keys
            raise PivotalError(f"reduction would read {len(d.alphabet)}^{k} joint symbols")
        denom, mass, wsum, law = d._pattern_sums(selected, f, dev_syms)
    else:
        denom, law, (mass, wsum) = score_law.den, score_law.law, score_law.classes(k, dev_syms[0])
    if flipped:  # linear, so it commutes with the coins
        zero_one = all(v in (0, 1) for v in law)
        wsum = [m - s if zero_one else -s for m, s in zip(mass, wsum)]
        total = 1 - total if zero_one else -total
    if score_law is None:
        keeps = [_coin_rate(p, pj) for pj in p_values]
        y_dist, g = _fold_vectors(d, k, denom, mass, wsum, keeps, total)
    else:  # one row, so one coin rate
        y_dist, g = _fold_classes(k, denom, mass, wsum, _coin_rate(p, p_values[0]), total)
    return ReductionResult(selected, flipped, p_values, y_dist, g, total, len(pivotal))


def verify_reduction(f: PlayerFunction, d: Distribution,
                     p: Fraction, alpha: Fraction) -> Verdict:
    """Run the reduction and check its three guarantees exactly."""
    p, alpha = _positive("p", p), _positive("alpha", alpha)
    result = reduce_to_binary(f, d, p, alpha)
    count_f = result.count_pivotal
    if result.is_empty:
        return Verdict(
            which="reduction",
            inputs={"p": p, "alpha": alpha},
            computed={"empty": True, "count_pivotal": count_f},
            bound=None,
            ok=count_f == 0,
        )
    y = result.y_dist
    g = result.g
    zero_mass = tuple(y.single_marginal(j)[0] for j in range(y.n))
    marginal_ok = all(m == p / 2 for m in zero_mass)
    g_effects = effect_report(g, y).effects()
    count_g = sum(1 for e in g_effects if e > alpha)
    effects_ok = count_g == len(g_effects)
    count_ok = count_f <= 2 * count_g
    witness = None
    if not marginal_ok:
        witness = zero_mass
    elif not effects_ok:
        witness = min(g_effects)
    return Verdict(
        which="reduction",
        inputs={"p": p, "alpha": alpha},
        computed={
            "selected": result.i_plus,
            "flipped": result.flipped,
            "indicator_marginal_ok": marginal_ok,
            "g_effects_exceed_alpha": effects_ok,
            "count_pivotal": count_f,
            "count_effect_g": count_g,
        },
        bound=None,
        ok=marginal_ok and effects_ok and count_ok,
        witness=witness,
    )


# ----------------------------------------------------------------------
# Elimination set for pivotal families (Theorem 2 procedure)


@dataclass(frozen=True)
class EliminationResult:
    """Maximal disjoint family of small pivotal sets plus its certificate.

    The certificate records that no pivotal small subset the greedy loop
    consumed lies outside the union; see ``elimination_set``.
    """

    family: tuple[tuple[int, ...], ...]
    union: tuple[int, ...]
    t: int
    certificate_ok: bool
    certificate_witness: tuple[int, ...] | None = None


def elimination_set(f: PlayerFunction, d: Distribution, m: int,
                    p: Fraction, alpha: Fraction) -> EliminationResult:
    """Greedy maximal disjoint family of pivotal sets of size at most m.

    One kernel pass yields every subset's table, and ``pivotal_set``'s rule
    gives one verdict per distinct table object. The certificate reads the
    same pivotal list that the loop consumed, so it holds by the family's
    maximality: it checks the loop's bookkeeping, not the pivotal scan, and
    is no independent evidence.
    """
    p, alpha = _positive("p", p), _positive("alpha", alpha)
    m = as_int(m, "m", PreconditionError, 1, _ELIMINATION_M_LIMIT)
    if d.n > _ELIMINATION_N_LIMIT:
        raise PreconditionError(f"n={d.n} exceeds the enumeration limit {_ELIMINATION_N_LIMIT}")
    res = d.check_kwise(min(2 * m, d.n))
    if not res.ok:
        raise PreconditionError(f"distribution is not {2 * m}-wise independent",
                                witness=res.witness)
    # Canonical scan order: by size, then lexicographic.
    subsets = [T for size in range(1, m + 1)
               for T in itertools.combinations(range(d.n), size)]
    pivotal = list(itertools.compress(subsets, _pivotal_groups(d.sums(subsets, f), p, alpha)))
    family: list[tuple[int, ...]] = []
    union: set[int] = set()
    for T in pivotal:
        if not union.intersection(T):
            family.append(T)
            union.update(T)
    # Certificate: no pivotal small subset of the same list misses the union.
    witness = next((T for T in pivotal if not union.intersection(T)), None)
    return EliminationResult(tuple(family), tuple(sorted(union)),
                             len(family), witness is None, witness)


def verify_elimination(f: PlayerFunction, d: Distribution, m: int,
                       p: Fraction, alpha: Fraction) -> Verdict:
    """Certificate plus the size bounds on the union and the family."""
    p, alpha = _positive("p", p), _positive("alpha", alpha)
    m = as_int(m, "m", PreconditionError, 1, _ELIMINATION_M_LIMIT)
    result = elimination_set(f, d, m, p, alpha)
    t_bound = 8 / (p * alpha ** 2)
    c_bound = 8 * m / (p * alpha ** 2)
    size_ok = Fraction(len(result.union)) <= c_bound
    t_ok = Fraction(result.t) < t_bound
    return Verdict(
        which="thm2",
        inputs={"m": m, "p": p, "alpha": alpha, "n": d.n},
        computed={
            "family": result.family,
            "union": result.union,
            "t": result.t,
            "certificate_ok": result.certificate_ok,
            "union_size": len(result.union),
        },
        bound=c_bound,
        ok=result.certificate_ok and size_ok and t_ok,
        witness=result.certificate_witness,
    )


# ----------------------------------------------------------------------
# Convex decomposition of signed effects under mixtures


def convex_decomposition_check(f: PlayerFunction, d1: Distribution,
                               d2: Distribution, q: Fraction, i: int) -> Verdict:
    """Signed effect under a mixture must split convexly across components."""
    q = as_exact(q, "mixture weight", PreconditionError)
    if not 0 <= q <= 1:
        raise PreconditionError(f"mixture weight {q} outside [0, 1]")
    if d1.alphabet != BINARY or d2.alphabet != BINARY:
        raise DistributionError("decomposition applies to the binary alphabet only")
    if d1.n != d2.n:
        raise DistributionError("components have different arities")
    for j in range(d1.n):
        m1, m2 = d1.single_marginal(j), d2.single_marginal(j)
        if m1 != m2:
            raise DistributionError(
                f"marginal mismatch at player {j}: {m1} vs {m2}")
        if not 0 < m1[1] < 1:
            raise DistributionError(f"player {j} marginal {m1[1]} not inside (0, 1)")
    mixed = mixture(d1, d2, q)
    i = mixed._check_player(i)
    lhs = signed_effect(f, mixed, i)
    rhs = q * signed_effect(f, d1, i) + (1 - q) * signed_effect(f, d2, i)
    return Verdict(
        which="convex",
        inputs={"q": q, "player": i},
        computed={"mixture_signed": lhs, "convex_sum": rhs},
        bound=None,
        ok=lhs == rhs,
    )


# ----------------------------------------------------------------------
# Squared effects against the variance on minimal-support spaces


def verify_effect_identity(f: PlayerFunction, mu: Distribution) -> Verdict:
    """Squared-effect sum against EFFECT_VARIANCE_RATIO times the variance.

    On a minimal-support pairwise independent space the ratio must equal
    the constant; a constant function (variance 0) must have no effects.
    """
    ident = effect_identity(f, mu)
    if ident.variance == 0:
        ok = ident.sum_sq_effects == 0
    else:
        ok = ident.ratio == EFFECT_VARIANCE_RATIO
    return Verdict(
        which="effect-identity",
        inputs={"n": mu.n},
        computed={
            "sum_sq_effects": ident.sum_sq_effects,
            "variance": ident.variance,
            "ratio": ident.ratio if ident.ratio is not None else "undefined",
            "expected_ratio": EFFECT_VARIANCE_RATIO,
        },
        bound=None,
        ok=ok,
    )


# ----------------------------------------------------------------------
# Tightness experiment for the abstention-majority space


@dataclass(frozen=True)
class TightnessRow:
    """One alpha of the exact sweep: the pivotal count (n or 0) and 8/(p' alpha^2)."""
    alpha: Fraction
    count: int
    bound: Fraction


def estimate_majp_deviations(n: int, p: Fraction, samples: int,
                             seed: int | str) -> dict[int, tuple[Fraction, float]]:
    """Per-symbol estimates of E[f | X_0 = s] - E[f] with combined half-widths.

    Players are exchangeable under the participation space, so player 0
    stands for all of them. The sweep is exact and does not call this; its
    callers are the benchmark's estimate jobs, acceptance criterion 8 and
    one unit test.
    """
    d = majp_dist(n, p)
    f = MajPFn(n)
    base = estimate_expectation(f, d, samples, f"{seed}/base")
    out = {}
    for s in range(3):
        cond = estimate_expectation(f, d.condition({0: s}), samples, f"{seed}/s{s}")
        out[s] = (cond.estimate - base.estimate, cond.halfwidth + base.halfwidth)
    return out


def majp_tightness(n: int, p: Fraction, alpha_grid: Sequence[Fraction],
                   p_prime: Fraction | None = None) -> list[TightnessRow]:
    """Exact (p', alpha)-pivotal count against the bound 8/(p' alpha^2), per alpha.

    p is the participation of ``majp_dist(n, p)`` and p' the pivotality
    threshold, p by default. Players are exchangeable, so player 0 stands
    for all of them and the count is n or 0. Player 0's row comes from one
    kernel pass over the law of the vote total, so every n that majp_dist
    accepts is answered exactly.
    """
    p = as_exact(p, "p", PreconditionError)
    p_prime = p if p_prime is None else _positive("p'", p_prime)
    alphas = [_positive("alpha", a) for a in alpha_grid]
    if not alphas:
        raise PivotalError("alpha grid must be non-empty")
    _, row = pivotal_player(MajPFn(n), majp_dist(n, p), 0, p_prime, alphas[0])
    return [TightnessRow(alpha, n if row.mass_past(alpha) > p_prime else 0,
                         8 / (p_prime * alpha ** 2))
            for alpha in alphas]
