"""Bound verifiers, the binary reduction, elimination sets, tightness table."""

import dataclasses
import itertools
import json
import math
import random
import re
import time
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pivotal import (
    BINARY,
    ConstantFn,
    DenseTable,
    DictatorFn,
    DistributionError,
    ExplicitDist,
    MajorityFn,
    MajPFn,
    PARTICIPATION,
    ParityFn,
    PartialTable,
    PivotalError,
    PreconditionError,
    ProductDist,
    UpwardClosure,
    ZeroCountFn,
    complement_mu,
    convex_decomposition_check,
    count_pivotal,
    effect_counterexample,
    elimination_set,
    hadamard_mu,
    majp_dist,
    majp_tightness,
    mixture_D,
    monotone_check,
    reduce_to_binary,
    uniform_product,
    verify_binary_bound,
    verify_effect_identity,
    verify_elimination,
    verify_reduction,
    verify_sum_bound,
    verify_thm1,
    verify_warmup,
)
from pivotal import analysis
from pivotal.boolfn import StatisticFn
from pivotal.dist import Distribution, mixture
from pivotal.theorems import TightnessRow

from oracles import (
    brute_deviating_mass,
    brute_indicator_law,
    brute_set_deviating_mass,
    brute_signed_effect,
)

F = Fraction
HALF = F(1, 2)


class TestVerifyEffectIdentity:
    def test_constant_function_has_zero_variance(self):
        v = verify_effect_identity(ConstantFn(3, HALF), hadamard_mu(2))
        assert v.ok
        assert v.computed == {"sum_sq_effects": 0, "variance": 0, "ratio": "undefined",
                              "expected_ratio": 4}

    def test_majority_has_ratio_four(self):
        v = verify_effect_identity(MajorityFn(3), hadamard_mu(2))
        assert v.ok
        assert v.which == "effect-identity" and v.inputs == {"n": 3}
        assert v.computed["ratio"] == 4 == v.computed["expected_ratio"]
        assert v.computed["sum_sq_effects"] == 4 * v.computed["variance"] != 0

    def test_majority_on_hadamard_8_has_ratio_four(self):
        # f is 0 only on the all-zeros point of the 256: Var = 255/256^2, and
        # each of the 255 effects is 1/128, so the squared effects sum to
        # 255/128^2 = 4 Var.
        v = verify_effect_identity(MajorityFn(255), hadamard_mu(8))
        assert v.ok and v.inputs == {"n": 255}
        assert v.computed == {"sum_sq_effects": F(255, 16384), "variance": F(255, 65536),
                              "ratio": 4, "expected_ratio": 4}


def not_pairwise_dist():
    # Perfectly correlated bits: Pr[00] = Pr[11] = 1/2.
    return ExplicitDist(BINARY, 2, [((0, 0), HALF), ((1, 1), HALF)])


class TestThm1:
    def test_effect_counterexample_zero_count(self):
        f, d, _ = effect_counterexample(3)
        v = verify_thm1(f, d, F(1, 4), F(1, 4))
        assert v.ok
        assert v.computed["count_pivotal"] == 0

    def test_dictator_frozen_bound(self):
        # At alpha = 1/2 the dictator's deviations sit exactly on the
        # boundary; strict comparison excludes them.
        v = verify_thm1(DictatorFn(3, 0), uniform_product(3), HALF, HALF)
        assert v.ok
        assert v.computed["count_pivotal"] == 0
        assert v.bound == 64
        v = verify_thm1(DictatorFn(3, 0), uniform_product(3), HALF, F(1, 4))
        assert v.ok
        assert v.computed["count_pivotal"] == 1
        assert v.bound == 256

    def test_majp_count_against_brute_force(self):
        d = majp_dist(5, HALF)
        f = MajPFn(5)
        p, alpha = F(1, 4), F(1, 10)
        expected = sum(1 for i in range(5)
                       if brute_deviating_mass(f, d, i, alpha) > p)
        v = verify_thm1(f, d, p, alpha)
        assert v.computed["count_pivotal"] == expected == 5
        assert v.ok

    def test_refuses_dependent_distribution(self):
        with pytest.raises(PreconditionError) as exc:
            verify_thm1(ParityLike(), not_pairwise_dist(), HALF, HALF)
        assert exc.value.witness is not None

    def test_rejects_nonpositive_thresholds(self):
        with pytest.raises(PreconditionError):
            verify_thm1(DictatorFn(2, 0), uniform_product(2), F(0), HALF)


class ParityLike:
    n = 2
    alphabet = BINARY

    def evaluate(self, x):
        return F(sum(x) & 1)


class TestWarmup:
    def test_dictator(self):
        v = verify_warmup(DictatorFn(4, 0), uniform_product(4), HALF)
        assert v.ok
        assert v.computed["count_effect"] == 1
        assert v.bound == 16

    def test_wrong_family_rejected(self):
        skew = majp_dist(3, HALF)
        with pytest.raises(DistributionError):
            verify_warmup(MajPFn(3), skew, HALF)
        with pytest.raises(DistributionError):
            verify_warmup(MajorityFn(3), hadamard_mu(2), HALF)

    def test_exhaustive_n2(self):
        d = uniform_product(2)
        from pivotal import DenseTable
        for bits in range(16):
            values = {(a, b): F((bits >> (2 * a + b)) & 1)
                      for a in (0, 1) for b in (0, 1)}
            f = DenseTable(BINARY, 2, values)
            for alpha in (F(1, 8), F(1, 4), HALF):
                assert verify_warmup(f, d, alpha).ok


class TestSumBound:
    def test_majority_on_hadamard_frozen(self):
        v = verify_sum_bound(MajorityFn(3), hadamard_mu(2), [0, 1, 2])
        assert v.ok
        assert v.computed["sum_effects"] == F(3, 2)
        assert v.bound == 12  # squared-form bound 2k/p with k=3, p=1/2

    def test_constant(self):
        v = verify_sum_bound(ConstantFn(3, F(1, 3)), hadamard_mu(2), [0, 1])
        assert v.ok
        assert v.computed["sum_effects"] == 0

    def test_dictator_single_player(self):
        v = verify_sum_bound(DictatorFn(2, 0), uniform_product(2), [0])
        assert v.ok
        assert v.computed["sum_effects"] == 1
        assert v.bound == 4

    def test_unequal_marginals_rejected(self):
        from pivotal import ProductDist
        d = ProductDist(BINARY, 2, [(HALF, HALF), (F(1, 3), F(2, 3))])
        with pytest.raises(DistributionError, match="differ"):
            verify_sum_bound(DictatorFn(2, 0), d, [0, 1])

    def test_skewed_marginals_random_functions(self):
        from pivotal import DenseTable, ProductDist
        rng = random.Random(13)
        d = ProductDist(BINARY, 4, [(F(1, 4), F(3, 4))] * 4)
        for _ in range(15):
            f = DenseTable(BINARY, 4, {x: F(rng.randint(-2, 2), 2)
                                       for x in itertools.product((0, 1), repeat=4)})
            for T in ([0], [0, 1], [0, 1, 2, 3]):
                assert verify_sum_bound(f, d, T).ok


class TestBinaryBound:
    def test_majority_on_hadamard(self):
        v = verify_binary_bound(MajorityFn(3), hadamard_mu(2), F(1, 4))
        assert v.ok
        assert v.computed["count_effect"] == 3
        assert v.bound == 64  # 2 / (1/2 * 1/16)

    def test_random_functions_skewed(self):
        from pivotal import DenseTable, ProductDist
        rng = random.Random(17)
        d = ProductDist(BINARY, 3, [(F(1, 3), F(2, 3))] * 3)
        for _ in range(15):
            f = DenseTable(BINARY, 3, {x: F(rng.choice((0, 1)))
                                       for x in itertools.product((0, 1), repeat=3)})
            for alpha in (F(1, 8), F(1, 4), HALF):
                assert verify_binary_bound(f, d, alpha).ok


class TestReduction:
    def test_dictator_frozen(self):
        # Hand-derived on the 4-point grid: the selected indicator fires
        # with chance p / (2 p_0) = 1/2 on the deviating symbol, so
        # Pr[Y_0 = 0] = 1/4, g = (1, 1/3), effect 2/3.
        d = uniform_product(2)
        result = reduce_to_binary(DictatorFn(2, 0), d, HALF, F(1, 4))
        assert result.i_plus == (0,)
        assert not result.flipped
        assert result.p_values == (HALF,)
        assert result.y_dist.single_marginal(0) == (F(1, 4), F(3, 4))
        assert result.g.evaluate((0,)) == 1
        assert result.g.evaluate((1,)) == F(1, 3)
        v = verify_reduction(DictatorFn(2, 0), d, HALF, F(1, 4))
        assert v.ok

    def test_majp_all_players_on_negation_side(self):
        d = majp_dist(5, F(1, 4))
        f = MajPFn(5)
        # alpha below the smallest per-symbol deviation selects everyone.
        report_devs = [abs(sd.deviation)
                       for sd in _pivotal_row(f, d) if sd.mass > 0]
        alpha = min(report_devs) / 2
        result = reduce_to_binary(f, d, F(1, 4), alpha)
        assert result.i_plus == (0, 1, 2, 3, 4)
        assert result.flipped  # downward deviations carry the mass
        v = verify_reduction(f, d, F(1, 4), alpha)
        assert v.ok
        assert v.computed["count_pivotal"] == 5

    def test_constant_gives_empty_reduction(self):
        result = reduce_to_binary(ConstantFn(3, HALF), uniform_product(3),
                                  F(1, 4), F(1, 4))
        assert result.is_empty
        v = verify_reduction(ConstantFn(3, HALF), uniform_product(3), F(1, 4), F(1, 4))
        assert v.ok
        assert v.computed["empty"] is True

    def test_indicators_pairwise_independent(self):
        d = majp_dist(4, F(1, 3))
        f = MajPFn(4)
        alpha = min(abs(sd.deviation) for sd in _pivotal_row(f, d) if sd.mass > 0) / 2
        result = reduce_to_binary(f, d, F(1, 8), alpha)
        assert len(result.i_plus) >= 2
        assert result.y_dist.check_kwise(2).ok

    def test_postconditions_across_instances(self):
        rng = random.Random(23)
        instances = []
        for k in (2, 3):
            mu = hadamard_mu(k)
            for _ in range(4):
                f = PartialTable(BINARY, mu.n, {x: F(rng.choice((0, 1)))
                                                for x, _ in mu.items()})
                instances.append((f, mu))
        for f, d in instances:
            for p, alpha in ((F(1, 8), F(1, 8)), (F(1, 16), F(1, 4))):
                v = verify_reduction(f, d, p, alpha)
                assert v.ok


@pytest.mark.parametrize("field, value, witness", [
    # A fair indicator where the reduction promises Pr[Y_0 = 0] = p / 2 = 1/4.
    ("y_dist", uniform_product(1).to_explicit(), (HALF,)),
    # A constant g has no effect on its indicator.
    ("g", DenseTable(BINARY, 1, {(0,): F(0), (1,): F(0)}), F(0)),
], ids=["marginal", "effects"])
def test_failed_reduction_names_its_witness(monkeypatch, field, value, witness):
    # Dictator 0 on the fair 3-bit grid selects player 0 alone (see
    # TestReduction.test_dictator_frozen), and the real reduction passes.
    # The patched one returns the real result with one part swapped.
    from pivotal import theorems
    args = DictatorFn(3, 0), uniform_product(3), HALF, F(1, 4)
    assert verify_reduction(*args).ok
    real = theorems.reduce_to_binary
    monkeypatch.setattr(theorems, "reduce_to_binary",
                        lambda *a: dataclasses.replace(real(*a), **{field: value}))
    v = verify_reduction(*args)
    assert (v.ok, v.witness) == (False, witness)
    assert v.computed["indicator_marginal_ok"] is (field != "y_dist")
    assert v.computed["g_effects_exceed_alpha"] is (field != "g")


def _pivotal_row(f, d):
    from pivotal import pivotal_report
    return pivotal_report(f, d, F(1, 2), F(1, 100)).rows[0].deviations


def _reduction_cases():
    skewed = ProductDist(BINARY, 3, [(F(1, 3), F(2, 3)), (F(1, 4), F(3, 4)),
                                     (F(2, 5), F(3, 5))])
    yield pytest.param(DictatorFn(3, 1), skewed, F(1, 4), F(1, 8), False,
                       id="dictator-product")
    d, f = majp_dist(5, F(1, 4)), MajPFn(5)
    alpha = min(abs(sd.deviation) for sd in _pivotal_row(f, d) if sd.mass > 0) / 2
    yield pytest.param(f, d, F(1, 4), alpha, True, id="majp-one-minus-f")
    # Points (a, b, a + b mod 3): pairwise independent, uniform ternary marginals.
    lat = ExplicitDist(PARTICIPATION, 3, [((a, b, (a + b) % 3), F(1, 9))
                                          for a in range(3) for b in range(3)])
    vals = (0, F(-1, 2), HALF, -1, -1, 1, -1, 0, 1)
    f = PartialTable(PARTICIPATION, 3, dict(zip((x for x, _ in lat.items()), vals)))
    yield pytest.param(f, lat, F(1, 4), F(1, 8), True, id="signed-minus-f")
    # Fair binary marginals make the up and down masses equal, so the
    # Hadamard and mixture spaces never flip.
    mu = hadamard_mu(3)
    rng = random.Random(4)
    f = PartialTable(BINARY, mu.n, {x: F(rng.randint(-3, 3), 3) for x, _ in mu.items()})
    yield pytest.param(f, mu, F(1, 16), F(1, 4), False, id="signed-hadamard")
    mu = mixture_D(2)
    f = PartialTable(BINARY, mu.n, {x: F(rng.getrandbits(1)) for x, _ in mu.items()})
    yield pytest.param(f, mu, F(1, 8), F(1, 8), False, id="mixture")


def _vectors(k):
    return list(itertools.product((0, 1), repeat=k))


def _assert_law_and_g(result, support, g):
    # Y's weight and g's value at every indicator vector, whatever their types.
    vectors, support, g = _vectors(len(result.i_plus)), dict(support), dict(g)
    assert [result.y_dist.weight(v) for v in vectors] == [support.get(v, 0) for v in vectors]
    assert [result.g.evaluate(v) for v in vectors] == [g[v] for v in vectors]


@pytest.mark.parametrize("f, d, p, alpha, flipped", _reduction_cases())
def test_indicator_law_matches_oracle(f, d, p, alpha, flipped):
    result = reduce_to_binary(f, d, p, alpha)
    assert result.flipped is flipped
    assert len(result.i_plus) >= 1
    _assert_law_and_g(result, *brute_indicator_law(f, d, result.i_plus, flipped, p, alpha))


@pytest.mark.parametrize("case", ["majp-one-minus-f", "mixture", "empty"])
def test_reduction_carries_the_pivotal_count(case):
    # count_pivotal makes its own kernel pass, which checks the rows the
    # reduction shares with the verdict.
    if case == "empty":
        f, d, p, alpha = ConstantFn(3, HALF), uniform_product(3), F(1, 4), F(1, 4)
    else:
        (param,) = [c for c in _reduction_cases() if c.id == case]
        f, d, p, alpha, _ = param.values
    count = count_pivotal(f, d, p, alpha)
    assert (count > 0) is (case != "empty")
    assert reduce_to_binary(f, d, p, alpha).count_pivotal == count
    assert verify_reduction(f, d, p, alpha).computed["count_pivotal"] == count


class _NotMajP(StatisticFn):
    """1 - MajP: 0/1-valued, so a flipped reduction takes the 1 - f branch."""

    scores = MappingProxyType({1: 1, 0: -1})

    def __init__(self, n):
        self.n, self.alphabet = n, PARTICIPATION

    def of_total(self, t):
        return F(int(t <= 0))


class _Gapped(StatisticFn):
    """Drawn values in [-1, 1] on scores with a gap: a flip takes the -f branch."""

    scores = MappingProxyType({1: 2, 0: -1})

    def __init__(self, n, values):
        self.n, self.alphabet, self.values = n, PARTICIPATION, values

    def of_total(self, t):
        return self.values[t]


_signed_values = st.sampled_from([-1, F(-2, 3), F(-1, 2), 0, F(1, 3), HALF, 1])


@st.composite
def equal_row_reductions(draw):
    """An equal-row product with n <= 8, a function of a score total, p and alpha."""
    n = draw(st.integers(1, 8))
    if draw(st.booleans()):
        alphabet = PARTICIPATION
        raw = draw(st.one_of(st.just((1, 1, 0)), st.tuples(*[st.integers(0, 6)] * 3)))
    else:
        alphabet = BINARY
        raw = draw(st.tuples(st.integers(1, 6), st.integers(1, 6)))
    raw = raw if sum(raw) else (1,) * len(raw)
    d = ProductDist(alphabet, n, [tuple(F(w, sum(raw)) for w in raw)] * n)
    f = draw(st.sampled_from([MajPFn, MajorityFn, ParityFn, _NotMajP, _Gapped]))
    if f is _Gapped:
        f = _Gapped(n, {t: draw(_signed_values) for t in range(-n, 2 * n + 1)})
    else:
        f = f(n)
    p = draw(st.sampled_from([F(1, 8), F(1, 4), F(1, 3), HALF, F(2, 3), F(1)]))
    alpha = draw(st.sampled_from([F(1, 1000), F(1, 64), F(1, 16), F(1, 8), F(1, 4)]))
    return f, d, p, alpha


def _flipping_row(n):
    return ProductDist(PARTICIPATION, n, [(F(1, 4), HALF, F(1, 4))] * n)


@settings(max_examples=150, deadline=None)
@given(equal_row_reductions())
@example((_NotMajP(3), _flipping_row(3), HALF, F(1, 8)))  # flipped as 1 - f
@example((_Gapped(3, {t: F(-t, 6) for t in range(-3, 7)}), _flipping_row(3), HALF, F(1, 8)))  # -f
@example((_NotMajP(8), _flipping_row(8), HALF, F(1, 8)))
@example((_Gapped(8, {t: F(-t, 16) for t in range(-8, 17)}), _flipping_row(8), HALF, F(1, 8)))
@example((MajPFn(8), majp_dist(8, HALF), F(1, 4), F(1, 1000)))  # not flipped
def test_class_reduction_matches_explicit_walk(case):
    # The explicit expansion folds the selected players' table key by key;
    # the equal-row product reads deviation-count classes and gives Y as a
    # product and g as a function of the zero count, so the two agree as
    # laws and functions, not as objects.
    f, d, p, alpha = case
    result = reduce_to_binary(f, d, p, alpha)
    walk = reduce_to_binary(f, d.to_explicit(), p, alpha)
    assert verify_reduction(f, d, p, alpha) == verify_reduction(f, d.to_explicit(), p, alpha)
    assert ((result.i_plus, result.flipped, result.p_values, result.expectation,
             result.count_pivotal) == (walk.i_plus, walk.flipped, walk.p_values,
                                       walk.expectation, walk.count_pivotal))
    if not result.is_empty:
        _assert_law_and_g(result, walk.y_dist.support, walk.g.entries)
    if d.n <= 3 and not result.is_empty:
        _assert_law_and_g(result, *brute_indicator_law(f, d, result.i_plus, result.flipped,
                                                       p, alpha))


@st.composite
def product_reductions(draw):
    """A product of n <= 5 players on one to three distinct rows, a function, p and alpha."""
    count = draw(st.integers(1, 3))
    n = draw(st.integers(count, 5))
    alphabet = draw(st.sampled_from([BINARY, PARTICIPATION]))
    row = st.tuples(*[st.integers(1, 4)] * len(alphabet)).map(
        lambda raw: tuple(F(w, sum(raw)) for w in raw))
    rows = draw(st.lists(row, min_size=count, max_size=count, unique=True))
    d = ProductDist(alphabet, n, draw(st.permutations([rows[i % count] for i in range(n)])))
    if draw(st.booleans()):
        f = draw(st.sampled_from([MajPFn, _NotMajP]))(n) if alphabet == PARTICIPATION else (
            draw(st.sampled_from([MajorityFn, ParityFn]))(n))
    else:
        points = itertools.product(range(len(alphabet)), repeat=n)
        f = DenseTable(alphabet, n, {x: draw(_signed_values) for x in points})
    p = draw(st.sampled_from([F(1, 8), F(1, 4), HALF]))
    alpha = draw(st.sampled_from([F(1, 1000), F(1, 16), F(1, 4)]))
    return f, d, p, alpha


@settings(max_examples=100, deadline=None)
@given(product_reductions())
def test_product_indicator_law_is_the_product_of_its_marginals(case):
    # Y_j reads only x_j and coin j, so on a product the fold's joint law,
    # vector by vector on the explicit expansion, factorizes, and y_dist
    # is that product.
    f, d, p, alpha = case
    result = reduce_to_binary(f, d, p, alpha)
    if result.is_empty:
        return
    joint = reduce_to_binary(f, d.to_explicit(), p, alpha).y_dist
    marginals = [joint.single_marginal(j) for j in range(joint.n)]
    for v in _vectors(joint.n):
        product = math.prod((m[s] for m, s in zip(marginals, v)), start=F(1))
        assert joint.weight(v) == product == result.y_dist.weight(v)
    assert isinstance(result.y_dist, ProductDist)


@pytest.mark.parametrize("f, d", [
    (MajPFn(6), majp_dist(6, HALF)),  # equal rows: the class path
    (MajPFn(6), ProductDist(PARTICIPATION, 6, [(F(1, 4), F(1, 4), HALF)] * 5
                            + [(F(1, 5), F(1, 5), F(3, 5))])),  # the walk
], ids=["classes", "vectors"])
def test_wrong_coin_rate_fails_the_marginal_check(monkeypatch, f, d):
    # Coins of rate p / (3 p_j) leave Pr[Y_j = 0] = p / 3: the rows of Y are
    # read from the fold, so the check sees it.
    from pivotal import theorems
    p, alpha = F(1, 4), F(1, 1000)
    assert verify_reduction(f, d, p, alpha).ok
    monkeypatch.setattr(theorems, "_coin_rate", lambda p, pj: p / (3 * pj))
    v = verify_reduction(f, d, p, alpha)
    assert v.computed["indicator_marginal_ok"] is False
    assert (v.ok, v.witness) == (False, (p / 3,) * len(v.computed["selected"]))


def test_reduction_builds_the_law_by_total_once(monkeypatch):
    # The pivotal report and the class sums share one law of the vote total,
    # whose cost is the power Q^n of the row polynomial Q = 1 + 2x + x^2.
    from pivotal import dist
    calls = []
    real = dist._power
    monkeypatch.setattr(dist, "_power", lambda q, r: calls.append((list(q), r)) or real(q, r))
    assert verify_reduction(MajPFn(9), majp_dist(9, HALF), F(1, 4), F(1, 1000)).ok
    assert calls.count(([1, 2, 1], 9)) == 1


def _no_classes(self, k, side):
    raise AssertionError("the class path was taken")


@pytest.mark.parametrize("f, d, p", [
    (MajPFn(4), ProductDist(PARTICIPATION, 4, [(F(1, 4), F(1, 4), HALF), (F(1, 3),) * 3] * 2),
     HALF),  # flipped, and the sides differ by row
    (DictatorFn(4, 1), ProductDist(BINARY, 4, [(F(1, 3), F(2, 3))] * 4), F(1, 4)),
    (DenseTable(BINARY, 3, {x: F(int(sum(x) >= 2)) for x in itertools.product((0, 1), repeat=3)}),
     uniform_product(3), F(1, 4)),
], ids=["unequal-rows", "dictator", "dense-table"])
def test_reduction_off_the_statistic_path_folds_patterns(f, d, p, monkeypatch):
    # Only equal rows with a function of a score total reach the class step;
    # these inputs fold the players' table, as their explicit expansion does.
    from pivotal import dist
    alpha = F(1, 1000)
    walk = reduce_to_binary(f, d.to_explicit(), p, alpha)
    monkeypatch.setattr(dist._ScoreLaw, "classes", _no_classes)
    result = reduce_to_binary(f, d, p, alpha)
    assert not result.is_empty
    assert ((result.i_plus, result.flipped, result.p_values, result.expectation,
             result.count_pivotal) == (walk.i_plus, walk.flipped, walk.p_values,
                                       walk.expectation, walk.count_pivotal))
    _assert_law_and_g(result, walk.y_dist.support, walk.g.entries)
    with pytest.raises(AssertionError, match="the class path was taken"):
        reduce_to_binary(MajPFn(4), majp_dist(4, HALF), F(1, 4), alpha)


def test_class_reduction_reads_singletons_only(monkeypatch):
    # 3^12 joint symbols of the 12 selected players: the class path never
    # asks the kernel for their table, only for the pivotal report's singletons.
    groups = []
    real = Distribution.sums

    def recording(self, gs, f=None):
        groups.extend(map(tuple, gs))
        return real(self, gs, f)

    monkeypatch.setattr(Distribution, "sums", recording)
    args = MajPFn(12), majp_dist(12, HALF), F(1, 4), F(1, 1000)
    result = reduce_to_binary(*args)
    assert groups and all(len(T) == 1 for T in groups)
    assert result.i_plus == tuple(range(12))
    assert verify_reduction(*args).ok


@pytest.mark.parametrize("f, d", [(MajPFn(200), majp_dist(200, HALF)),
                                  (MajorityFn(101), uniform_product(101))], ids=["majp", "majority"])
def test_class_reduction_past_the_walk_limits(f, d):
    # Past 20 selected players and 2^20 joint symbols, equal rows still
    # reduce exactly: Y is a product with rows (p/2, 1 - p/2), g a value per zero count.
    p, alpha = F(1, 4), F(1, 1000)
    result = reduce_to_binary(f, d, p, alpha)
    assert result.i_plus == tuple(range(d.n))
    assert result.y_dist == ProductDist(BINARY, d.n, [(p / 2, 1 - p / 2)] * d.n)
    assert isinstance(result.g, ZeroCountFn) and len(result.g.values) == d.n + 1
    assert verify_reduction(f, d, p, alpha).ok


class TestElimination:
    def test_constant_empty_family(self):
        res = elimination_set(ConstantFn(4, F(1)), uniform_product(4), 2, F(1, 4), F(1, 4))
        assert res.family == ()
        assert res.union == ()
        assert res.certificate_ok

    def test_dictator_captures_player_zero(self):
        res = elimination_set(DictatorFn(6, 0), uniform_product(6), 2, HALF, F(1, 4))
        assert res.family == ((0,),)
        assert res.union == (0,)
        assert res.certificate_ok
        v = verify_elimination(DictatorFn(6, 0), uniform_product(6), 2, HALF, F(1, 4))
        assert v.ok

    def test_two_bit_or(self):
        f = UpwardClosure(6, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)])
        v = verify_elimination(f, uniform_product(6), 2, F(1, 4), F(1, 5))
        assert v.ok
        assert v.computed["union"] == (0, 1)
        assert v.computed["t"] == 2

    def test_greedy_order_is_canonical(self):
        # Both dictator players are pivotal singletons; family lists them in order.
        f = UpwardClosure(4, [(1, 1, 0, 0)])  # AND of first two players
        res = elimination_set(f, uniform_product(4), 2, F(1, 4), F(1, 5))
        assert res.family == ((0,), (1,))

    def test_refuses_dependent_distribution(self):
        with pytest.raises(PreconditionError):
            elimination_set(ParityLike(), not_pairwise_dist(), 1, F(1, 4), F(1, 4))

    def test_limits_enforced(self):
        with pytest.raises(PreconditionError, match=re.escape("m must be in 1..3, got 4")):
            elimination_set(ConstantFn(2, F(1)), uniform_product(2), 4, F(1, 4), F(1, 4))
        with pytest.raises(PreconditionError,
                           match=re.escape("n=17 exceeds the enumeration limit 16")):
            elimination_set(ConstantFn(17, F(1)), uniform_product(17), 2, F(1, 4), F(1, 4))

    @pytest.mark.parametrize("case, evaluations", [("majority", 2), ("dense", 5 + 10)])
    def test_set_rule_decided_once_per_table(self, monkeypatch, case, evaluations):
        # Majority on equal rows shares one table per subset size; a dense
        # table shares none, so each subset gets its own verdict.
        if case == "majority":
            f, d, m, p, alpha = MajorityFn(8), uniform_product(8), 2, F(1, 4), F(1, 16)
        else:
            rng = random.Random(21)
            f = DenseTable(BINARY, 5, {x: F(rng.choice((0, 1)))
                                       for x in itertools.product((0, 1), repeat=5)})
            d, m, p, alpha = uniform_product(5), 2, F(1, 4), F(1, 5)
        calls = []
        once = analysis._once_per_table

        def counting(tables, make):
            return once(tables, lambda i, t: calls.append(i) or make(i, t))

        monkeypatch.setattr(analysis, "_once_per_table", counting)
        res = elimination_set(f, d, m, p, alpha)
        assert len(calls) == evaluations
        # The family is the greedy one over the oracle's verdicts.
        family, union = [], set()
        for T in (T for size in range(1, m + 1) for T in itertools.combinations(range(d.n), size)):
            if not union.intersection(T) and brute_set_deviating_mass(f, d, T, alpha) > p:
                family.append(T)
                union.update(T)
        assert res.family == tuple(family)
        assert res.certificate_ok


@pytest.mark.parametrize("call, error, text", [
    (lambda: reduce_to_binary(MajorityFn(21), hadamard_mu(5).marginal(range(21)), F(1, 4),
                              F(1, 1000)),
     PivotalError, "reduction would enumerate 2^21 indicator vectors"),
    (lambda: reduce_to_binary(MajPFn(13), ProductDist(PARTICIPATION, 13, [
        (HALF - F(1, 100 + i), HALF + F(1, 100 + i), F(0)) for i in range(13)]),
        F(1, 4), F(1, 1000)),
     PivotalError, "reduction would read 3^13 joint symbols"),
    (lambda: reduce_to_binary(MajPFn(1024), majp_dist(1024, HALF), F(1, 4), F(1, 1000)),
     PivotalError, "reduction would fold 1025 classes of 2049 coefficients"),
    (lambda: monotone_check(ParityFn(25)), PivotalError, "n=25 exceeds the enumeration limit 24"),
    (lambda: majp_dist(14, HALF).to_explicit(), DistributionError,
     "grid of 4782969 points is too large to expand explicitly"),
], ids=["reduction-arity", "reduction-joint-symbols", "reduction-classes",
        "monotone-check-arity", "explicit-expansion"])
def test_size_refusal_comes_before_enumeration(call, error, text):
    # Each input is past its limit by one step; enumerating it would take far
    # longer than the refusal.
    start = time.perf_counter()
    with pytest.raises(error, match=re.escape(text)):
        call()
    assert time.perf_counter() - start < 1.0


class TestConvexDecomposition:
    def test_counterexample_components_both_zero(self):
        f, _, _ = effect_counterexample(3)
        mu = hadamard_mu(3)
        bar = complement_mu(mu)
        for i in range(7):
            v = convex_decomposition_check(f, mu, bar, HALF, i)
            assert v.ok
            assert v.computed["mixture_signed"] == 0
            assert v.computed["convex_sum"] == 0

    def test_q_one_is_identity(self):
        mu = hadamard_mu(2)
        bar = complement_mu(mu)
        v = convex_decomposition_check(MajorityFn(3), mu, bar, F(1), 1)
        assert v.ok
        assert v.computed["mixture_signed"] == brute_signed_effect(MajorityFn(3), mu, 1)

    def test_random_functions_exact_equality(self):
        rng = random.Random(31)
        mu = hadamard_mu(2)
        bar = complement_mu(mu)
        d = mixture(mu, bar, F(1, 3))
        for _ in range(10):
            f = PartialTable(BINARY, 3, {x: F(rng.randint(0, 3), 3)
                                         for x, _ in d.items()})
            for i in range(3):
                v = convex_decomposition_check(f, mu, bar, F(1, 3), i)
                assert v.ok

    def test_marginal_mismatch_rejected(self):
        from pivotal import ProductDist
        d1 = uniform_product(2)
        d2 = ProductDist(BINARY, 2, [(F(1, 3), F(2, 3))] * 2)
        with pytest.raises(DistributionError, match="mismatch"):
            convex_decomposition_check(DictatorFn(2, 0), d1, d2, HALF, 0)


class TestMajpTightness:
    def test_exact_counts_frozen_n5(self):
        # Deviations at n=5, p=1/2 (binomial oracle): -119/512, +133/512, -7/512.
        rows = majp_tightness(5, HALF, [F(7, 1024), F(119, 1024), F(1)])
        by_alpha = {r.alpha: r for r in rows}
        # Below every deviation: all symbols count, mass 1 > 1/2.
        assert by_alpha[F(7, 1024)].count == 5
        # Participating symbols only: mass exactly 1/2, strict comparison fails.
        assert by_alpha[F(119, 1024)].count == 0
        assert by_alpha[F(1)].count == 0
        for r in rows:
            assert type(r.count) is int
            assert r.bound == 8 / (HALF * r.alpha ** 2)

    def test_derived_thresholds_make_all_players_pivotal(self):
        d = majp_dist(5, HALF)
        f = MajPFn(5)
        alpha = F(119, 1024)  # half the smaller participating deviation
        assert count_pivotal(f, d, F(1, 4), alpha) == 5

    def test_counts_never_exceed_bound(self):
        for alpha_num in (1, 3, 7, 20):
            alpha = F(alpha_num, 64)
            rows = majp_tightness(5, F(1, 3), [alpha])
            assert rows[0].count < rows[0].bound

    def test_alpha_at_least_one_gives_zero(self):
        rows = majp_tightness(4, F(1, 2), [F(1), F(2)])
        assert all(r.count == 0 for r in rows)

    def test_monte_carlo_deviations_near_exact(self):
        from pivotal.theorems import estimate_majp_deviations
        from oracles import majp_conditional_oracle, majp_expectation_oracle

        devs = estimate_majp_deviations(9, HALF, 4000, seed=11)
        base = majp_expectation_oracle(9, HALF)
        for s in range(3):
            exact = majp_conditional_oracle(9, HALF, s) - base
            est, hw = devs[s]
            assert abs(float(est - exact)) <= hw

    def test_exact_mode_needs_small_n(self):
        # Exact mode answers at every n that majp_dist accepts, and n = 10,001
        # is the first it refuses.
        from pivotal import PivotalError
        with pytest.raises(PivotalError, match="n must be in 1..10000"):
            majp_tightness(10_001, HALF, [F(1, 4)])

    def test_exact_mode_at_n49_matches_oracle(self):
        # 3^49 grid points, so only the statistic path can answer exactly.
        from pivotal import pivotal_report
        from oracles import majp_conditional_oracle, majp_expectation_oracle

        n = 49
        base = majp_expectation_oracle(n, HALF)
        devs = {s: majp_conditional_oracle(n, HALF, s) - base for s in range(3)}
        mass = {0: F(1, 4), 1: F(1, 4), 2: HALF}
        report = pivotal_report(MajPFn(n), majp_dist(n, HALF), HALF, F(1))
        assert report.expectation == base
        for row in report.rows:
            assert {sd.symbol: (sd.mass, sd.deviation) for sd in row.deviations} == {
                s: (mass[s], devs[s]) for s in range(3)}
        grid = [abs(devs[2]) / 2, abs(devs[2]), abs(devs[1]) / 2, F(1)]
        rows = majp_tightness(n, HALF, grid)
        for r in rows:
            past = sum((mass[s] for s in range(3) if abs(devs[s]) > r.alpha), F(0))
            assert r.count == (n if past > HALF else 0)
        # Every symbol deviates at the first threshold; past it, the
        # participating mass ties with p and the strict comparison fails.
        assert [r.count for r in rows] == [49, 0, 0, 0]

    @pytest.mark.parametrize("grid", [[F(0)], [F(1, 8), F(-1, 4)], []],
                             ids=["zero", "negative", "empty"])
    def test_rejects_bad_alpha_grid(self, grid):
        from pivotal import PivotalError
        with pytest.raises(PivotalError, match="alpha"):
            majp_tightness(5, HALF, grid)

    def test_rejects_non_positive_p_prime(self):
        with pytest.raises(PreconditionError, match="p' must be positive, got 0"):
            majp_tightness(5, HALF, [F(1, 8)], F(0))

    @pytest.mark.parametrize("p_prime", [None, HALF / 2], ids=["p", "half-p"])
    @pytest.mark.parametrize("n", [49, 1001])
    def test_sweep_is_pivotal_players_verdict(self, n, p_prime, capsys):
        # The grid starts below the abstain symbol's deviation, so both n and
        # 0 appear; each row's count is the one pivotal_player's verdict at
        # that alpha and threshold p' (p by default) implies, in the library
        # and through the CLI.
        from pivotal import pivotal_player
        from pivotal.cli import main
        from pivotal.serialize import rational_str

        d, f = majp_dist(n, HALF), MajPFn(n)
        threshold = HALF if p_prime is None else p_prime
        _, row = pivotal_player(f, d, 0, HALF, F(1))
        abstain = abs(next(sd.deviation for sd in row.deviations if sd.symbol == 2))
        grid = [abstain / 2, abstain, F(1, 64), F(1)]
        expected = [n if pivotal_player(f, d, 0, threshold, alpha)[1].pivotal else 0
                    for alpha in grid]
        assert expected[0] == n and expected[-1] == 0
        rows = majp_tightness(n, HALF, grid, p_prime)
        assert rows == [TightnessRow(a, c, 8 / (threshold * a ** 2))
                        for a, c in zip(grid, expected)]
        option = [] if p_prime is None else ["--p-prime", rational_str(p_prime)]
        assert main(["sweep", "--n", str(n), "--p", "1/2", "--format", "json", *option,
                     "--alpha-grid", ",".join(map(rational_str, grid))]) == 0
        assert [r["count"] for r in json.loads(capsys.readouterr().out)] == expected
        if p_prime is not None:  # below p, the voting symbols' mass passes p'
            assert expected == [n, n, n, 0]
