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
    _deviates,
    _deviating_mass,
    _mass_past,
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
from .boolfn import DenseTable, MajPFn, PlayerFunction, PreconditionError
from .dist import (
    BINARY,
    Distribution,
    DistributionError,
    ExplicitDist,
    PivotalError,
    ProductDist,
    ZERO,
    _scale,
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
    y_dist: ExplicitDist | None
    g: DenseTable | None
    expectation: Fraction  # of the function actually reduced (after any flip)
    count_pivotal: int  # (p, alpha)-pivotal players of the original function

    @property
    def is_empty(self) -> bool:
        return not self.i_plus


def reduce_to_binary(f: PlayerFunction, d: Distribution,
                     p: Fraction, alpha: Fraction) -> ReductionResult:
    """Collapse every pivotal player to a skewed indicator bit.

    On the sign side where more pivotal players have mass p_j > p / 2 of
    symbols deviating past alpha, selected player j's bit is 0 exactly when
    the player's symbol deviates that way and an independent coin of rate
    p / (2 p_j) fires, so Pr[Y_j = 0] = p / 2.

    The law is exact. One kernel pass over the selected players gives the
    mass and f-weighted mass of each deviation pattern (bit j clear when
    player j deviates), as if every coin fired. Each coin is then applied
    once per coordinate: from every vector with bit j clear, the fraction
    1 - p / (2 p_j) of both sums moves to the vector with bit j set.

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

    plus_side = [r for r in pivotal if r.mass_past(alpha, 1) > p / 2]
    minus_side = [r for r in pivotal if r.mass_past(alpha, -1) > p / 2]
    flipped = len(minus_side) > len(plus_side)
    sign = -1 if flipped else 1
    chosen = minus_side if flipped else plus_side
    selected = tuple(r.player for r in chosen)
    k = len(selected)
    if k > _REDUCTION_ARITY_LIMIT:
        raise PivotalError(f"reduction would enumerate 2^{k} indicator vectors")
    p_values = tuple(r.mass_past(alpha, sign) for r in chosen)
    dev_syms = [{sd.symbol for sd in r.deviations if _deviates(sd.deviation, alpha, sign)}
                for r in chosen]

    # Masses and f-weighted sums are integers over one denominator D.
    sums = d.sums([selected], f)
    denom, ints = _scale([x for pair in sums.tables[0].values() for x in pair])
    mass, wsum = [0] * (1 << k), [0] * (1 << k)
    for key, m, s in zip(sums.tables[0], ints[::2], ints[1::2]):
        y = sum(1 << j for j, sym in enumerate(key) if sym not in dev_syms[j])
        mass[y] += m
        wsum[y] += s
    for j, pj in enumerate(p_values):
        # A vector with bit j clear keeps a / b = p / (2 p_j) of its sums.
        keep = p / (2 * pj)
        a, b, bit = keep.numerator, keep.denominator, 1 << j
        denom *= b
        for acc in (mass, wsum):
            for y in range(1 << k):
                if not y & bit:
                    acc[y | bit] = acc[y | bit] * b + acc[y] * (b - a)
                    acc[y] *= a

    if flipped:
        zero_one = all(v in (0, 1) for v in sums.law)
        wsum = [m - s if zero_one else -s for m, s in zip(mass, wsum)]
        total = 1 - total if zero_one else -total
    vectors = [tuple((y >> j) & 1 for j in range(k)) for y in range(1 << k)]
    y_dist = ExplicitDist(BINARY, k, [(v, Fraction(m, denom))
                                      for v, m in zip(vectors, mass) if m > 0])
    # A vector without mass gets E[g], which keeps g's total.
    g = DenseTable(BINARY, k, {v: Fraction(s, m) if m else total
                               for v, m, s in zip(vectors, mass, wsum)})
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

    The certificate reads the same pivotal list that the loop consumed, so
    it holds by the family's maximality: it checks the loop's bookkeeping,
    not the pivotal scan, and is no independent evidence.
    """
    p, alpha = _positive("p", p), _positive("alpha", alpha)
    m = as_int(m, "m", PreconditionError, 1, _ELIMINATION_M_LIMIT)
    if d.n > _ELIMINATION_N_LIMIT:
        raise PreconditionError(f"n={d.n} exceeds the enumeration limit {_ELIMINATION_N_LIMIT}")
    res = d.check_kwise(min(2 * m, d.n))
    if not res.ok:
        raise PreconditionError(f"distribution is not {2 * m}-wise independent",
                                witness=res.witness)
    # Canonical scan order: by size, then lexicographic. One support pass
    # yields the table of every small subset.
    subsets = [T for size in range(1, m + 1)
               for T in itertools.combinations(range(d.n), size)]
    sums = d.sums(subsets, f)
    pivotal = [T for T, t in zip(subsets, sums.tables)
               if _deviating_mass(t, sums.mean, alpha) > p]
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
    alpha: Fraction
    count: Fraction  # exact count, or symmetric estimate in Monte Carlo mode
    bound: Fraction
    mode: str
    halfwidth: float | None = None


def estimate_majp_deviations(n: int, p: Fraction, samples: int,
                             seed: int | str) -> dict[int, tuple[Fraction, float]]:
    """Per-symbol estimates of E[f | X_0 = s] - E[f] with combined half-widths.

    Players are exchangeable under the participation space, so player 0
    stands for all of them.
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
                   samples: int | None = None,
                   seed: int | str | None = None) -> list[TightnessRow]:
    """Pivotal count (or symmetric estimate) against the bound, per alpha.

    Players are exchangeable, so player 0 stands for all of them and the
    count is n or 0. Exact mode takes player 0's row from one kernel pass
    over the law of the vote total; Monte Carlo mode estimates its three
    conditional expectations.
    """
    p = as_exact(p, "p", PreconditionError)
    alphas = [_positive("alpha", a) for a in alpha_grid]
    if not alphas:
        raise PivotalError("alpha grid must be non-empty")
    if samples is None:
        _, row = pivotal_player(MajPFn(n), majp_dist(n, p), 0, p, alphas[0])
        pairs = [(sd.mass, sd.deviation) for sd in row.deviations]
        mode, hw = "exact", None
    else:
        if seed is None:
            raise PivotalError("Monte Carlo mode needs an explicit seed")
        devs = estimate_majp_deviations(n, p, samples, seed)
        marginal = majp_dist(1, p).single_marginal(0)  # every player's row
        pairs = [(marginal[s], dev) for s, (dev, _) in devs.items()]
        mode, hw = "monte-carlo", max(hw for _, hw in devs.values())
    return [TightnessRow(alpha, Fraction(n) if _mass_past(pairs, alpha) > p else ZERO,
                         8 / (p * alpha ** 2), mode, hw) for alpha in alphas]
