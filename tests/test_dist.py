"""Distribution invariants, queries, and their agreement with brute force."""

import itertools
import math
import random
import re
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotal import (
    BINARY,
    PARTICIPATION,
    Alphabet,
    DistributionError,
    ExplicitDist,
    NullConditionError,
    ProductDist,
    UndefinedPointError,
    mixture,
)
from pivotal import analysis as analysis_module
from pivotal import dist as dist_module
from pivotal.analysis import (
    count_effect,
    effect_report,
    estimate_effect,
    estimate_expectation,
    hoeffding_halfwidth,
    pivotal_player,
    pivotal_report,
    pivotal_set,
)
from pivotal.boolfn import (
    ConstantFn,
    DenseTable,
    DictatorFn,
    MajorityFn,
    MajPFn,
    ParityFn,
    PartialTable,
    PlayerFunction,
    PreconditionError,
    StatisticFn,
    UpwardClosure,
    effect_counterexample,
    influence_counterexample,
)
from pivotal.dist import (
    Distribution,
    KwiseWitness,
    PivotalError,
    _draw,
    _power,
    _scale,
    _support_bitsets,
)
from pivotal.generators import hadamard_mu, majp_dist, mixture_D, uniform_product
from pivotal.theorems import (
    _positive,
    convex_decomposition_check,
    elimination_set,
    majp_tightness,
    verify_elimination,
    verify_reduction,
    verify_sum_bound,
)

from oracles import (
    brute_conditional,
    brute_event_mass,
    brute_expectation,
    brute_grouped_sums,
    brute_kwise,
    brute_sample,
    brute_set_deviating_mass,
    brute_signed_effect,
)

F = Fraction
HALF = F(1, 2)
QUARTER = F(1, 4)


@pytest.mark.parametrize("build, error", [
    (lambda: ExplicitDist(BINARY, 1, [((0,), 0.5), ((1,), HALF)]), DistributionError),
    (lambda: ProductDist(BINARY, 1, [(0.1, F(9, 10))]), DistributionError),
    # Equal in value to the exact row before it: converted before it is compared.
    (lambda: ProductDist(BINARY, 2, [(HALF, HALF), (0.5, 0.5)]), DistributionError),
    (lambda: DenseTable(BINARY, 1, {(0,): 0.5, (1,): F(0)}), PivotalError),
    (lambda: PartialTable(BINARY, 1, {(0,): 0.5}), PivotalError),
    (lambda: ConstantFn(2, 0.5), PivotalError),
    (lambda: pivotal_report(MajPFn(3), majp_dist(3, HALF), 0.1, F(1, 5)), PivotalError),
    (lambda: pivotal_player(MajPFn(3), majp_dist(3, HALF), 0, F(1, 10), 0.2), PivotalError),
    (lambda: pivotal_set(MajPFn(3), majp_dist(3, HALF), [0, 1], 0.1, F(1, 5)), PivotalError),
    (lambda: count_effect(MajorityFn(3), uniform_product(3), 0.25), PivotalError),
    (lambda: _positive("alpha", 0.5), PivotalError),
    (lambda: verify_reduction(MajPFn(3), majp_dist(3, HALF), F(1, 10), 0.2), PivotalError),
    (lambda: verify_elimination(MajPFn(3), majp_dist(3, HALF), 1, 0.1, F(1, 5)),
     PivotalError),
    (lambda: convex_decomposition_check(MajorityFn(3), uniform_product(3),
                                        uniform_product(3), 0.5, 0), PivotalError),
    (lambda: majp_tightness(5, 0.5, [F(1, 8)]), PivotalError),
    (lambda: majp_dist(3, 0.5), DistributionError),
    (lambda: mixture(uniform_product(2), uniform_product(2), 0.5), DistributionError),
], ids=["explicit", "product", "product-equal-float-row", "dense", "partial", "constant",
        "pivotal_report", "pivotal_player", "pivotal_set", "count_effect", "positive",
        "verify_reduction", "verify_elimination", "convex_decomposition_check",
        "majp_tightness", "majp_dist", "mixture"])
def test_constructors_reject_floats(build, error):
    """Only int and Fraction are exact; a float is refused, never converted.

    This holds for constructors and for every rational parameter: a float is
    a binary fraction, not the rational it prints as.
    """
    with pytest.raises(error, match="int or Fraction"):
        build()


class TestAlphabet:
    def test_rejects_empty(self):
        with pytest.raises(DistributionError):
            Alphabet(())

    def test_rejects_duplicates(self):
        with pytest.raises(DistributionError):
            Alphabet(("a", "a"))

    def test_order_matters(self):
        assert Alphabet(("0", "1")) != Alphabet(("1", "0"))

    # Symbols are a tuple of str, as in a file: a product over (0, 1) would save
    # a file its loader refuses, and one over "01" would reload as BINARY.
    @pytest.mark.parametrize("symbols", [(0, 1), "01", ["0", "1"], ("0", 1), []],
                             ids=["ints", "string", "list", "mixed", "empty-list"])
    def test_symbols_must_be_a_tuple_of_strings(self, symbols):
        with pytest.raises(DistributionError,
                           match=r"^alphabet must be a tuple of strings, got "):
            Alphabet(symbols)


class TestValidation:
    def test_uniform_even_parity_ok(self, even_parity3):
        assert ExplicitDist(BINARY, 3, even_parity3.support) == even_parity3

    def test_bad_weight_sum_reports_total(self):
        with pytest.raises(DistributionError, match="13/12"):
            ExplicitDist(BINARY, 2, [
                ((0, 0), QUARTER), ((0, 1), QUARTER),
                ((1, 0), QUARTER), ((1, 1), F(1, 3)),
            ])

    def test_arity_mismatch(self):
        with pytest.raises(DistributionError, match="length 2"):
            ExplicitDist(BINARY, 3, [((0, 0), F(1))])

    def test_duplicate_outcome(self):
        with pytest.raises(DistributionError, match="duplicate"):
            ExplicitDist(BINARY, 1, [((0,), HALF), ((0,), HALF)])

    def test_nonpositive_weight(self):
        with pytest.raises(DistributionError, match="positive"):
            ExplicitDist(BINARY, 1, [((0,), F(0)), ((1,), F(1))])

    def test_product_marginal_sum(self):
        with pytest.raises(DistributionError, match="sums to"):
            ProductDist(BINARY, 1, [(HALF, F(1, 3))])

    def test_support_is_canonically_sorted(self):
        d = ExplicitDist(BINARY, 2, [((1, 1), HALF), ((0, 0), HALF)])
        assert [x for x, _ in d.support] == [(0, 0), (1, 1)]

    @pytest.mark.parametrize("build, text", [
        (lambda: ProductDist(BINARY, 1, [(F(-1, 2), F(3, 2))]),
         "player 0 marginal has a negative entry"),
        (lambda: ProductDist(BINARY, 2, [(HALF, HALF), (HALF, F(1, 3))]),
         "player 1 marginal sums to 5/6, expected 1"),
        (lambda: ProductDist(BINARY, 3, [(HALF, HALF), (HALF, F(1, 3)), (HALF, F(1, 3))]),
         "player 1 marginal sums to 5/6, expected 1"),
        (lambda: ProductDist(BINARY, 2, [(HALF, HALF), (HALF, F(1, 3)), (HALF, F(1, 3))]),
         "3 marginal vectors for arity 2"),
        (lambda: ProductDist(BINARY, 2, []), "0 marginal vectors for arity 2"),
        (lambda: ProductDist(BINARY, 0, []), "arity must be >= 1, got 0"),
        (lambda: ExplicitDist(BINARY, 1, [((0,), F(-1, 2)), ((1,), F(3, 2))]),
         "weight of (0,) is -1/2, must be positive"),
    ], ids=["product-negative", "product-sum", "product-sum-repeated",
            "product-count-before-rows", "product-no-rows", "product-arity-before-count",
            "explicit-nonpositive"])
    def test_validate_error_text(self, build, text):
        with pytest.raises(DistributionError) as err:
            build()
        assert str(err.value) == text

    @pytest.mark.parametrize("symbol", [2, -1, F(1, 2), 1.0, F(1)],
                             ids=["past-alphabet", "negative", "fraction", "float", "whole-fraction"])
    def test_symbol_must_be_an_integer_index(self, symbol):
        with pytest.raises(DistributionError, match="outside the alphabet"):
            ExplicitDist(BINARY, 2, [((symbol, 0), HALF), ((1, 1), HALF)])

    @pytest.mark.parametrize("symbol", ["a", None, 0.5, F(1), -1, len(BINARY)],
                             ids=["str", "none", "half", "whole-fraction", "minus-one", "m"])
    @pytest.mark.parametrize("build, error, text", [
        (lambda x: ExplicitDist(BINARY, 1, [(x, HALF), ((0,), HALF)]),
         DistributionError, "outside the alphabet"),
        (lambda x: PartialTable(BINARY, 1, {x: F(0), (0,): F(1)}), PivotalError, "invalid outcome"),
        (lambda x: DenseTable(BINARY, 1, {x: F(0), (0,): F(1)}), PivotalError, "invalid outcome"),
    ], ids=["explicit", "partial", "dense"])
    def test_non_symbol_outcome_is_refused_before_sorting(self, build, error, text, symbol):
        # A str or None does not order against an int, so it must be named
        # before the outcomes are sorted, never left to a TypeError.
        with pytest.raises(error, match=text):
            build((symbol,))


class TestMarginal:
    def test_even_parity_single_is_uniform(self, even_parity3):
        # Frozen from summing the four support weights by hand.
        m = even_parity3.marginal([0])
        assert m.support == (((0,), HALF), ((1,), HALF))

    def test_full_marginal_is_identity(self, even_parity3):
        assert even_parity3.marginal([0, 1, 2]) == even_parity3

    def test_product_marginal_factorizes(self):
        d = ProductDist(BINARY, 3, [(HALF, HALF)] * 3)
        m = d.marginal([0, 2])
        assert m == ProductDist(BINARY, 2, [(HALF, HALF)] * 2).to_explicit()

    def test_total_mass_one_for_every_subset(self, even_parity3):
        for size in (1, 2, 3):
            for T in itertools.combinations(range(3), size):
                total = sum(w for _, w in even_parity3.marginal(T).items())
                assert total == 1

    def test_out_of_range_player(self, even_parity3):
        with pytest.raises(DistributionError):
            even_parity3.marginal([3])


@pytest.mark.parametrize("call", [
    lambda: uniform_product(3).marginal([]),
    lambda: hadamard_mu(2).marginal(()),
    lambda: pivotal_set(MajorityFn(3), uniform_product(3), [], HALF, HALF),
    lambda: verify_sum_bound(MajorityFn(3), uniform_product(3), iter([])),
], ids=["product-marginal", "explicit-marginal", "pivotal-set", "sum-bound"])
def test_empty_player_set_is_one_error(call):
    """Every player-set argument goes through one helper, so one class and text."""
    with pytest.raises(DistributionError, match=r"^player set must be non-empty$") as info:
        call()
    assert type(info.value) is DistributionError


class TestCondition:
    def test_even_parity_pins_first_bit(self, even_parity3):
        got = even_parity3.condition({0: 1})
        assert got == ExplicitDist(BINARY, 3, [((1, 0, 1), HALF), ((1, 1, 0), HALF)])

    def test_product_condition_stays_product(self):
        d = ProductDist(BINARY, 3, [(HALF, HALF)] * 3)
        got = d.condition({0: 0})
        assert isinstance(got, ProductDist)
        assert got.marginals[0] == (F(1), F(0))
        assert got.marginals[1] == (HALF, HALF)

    def test_null_event_is_hard_error(self, even_parity3):
        with pytest.raises(NullConditionError):
            even_parity3.condition({0: 1, 1: 0, 2: 0})

    def test_product_null_event(self):
        d = ProductDist(BINARY, 2, [(F(1), F(0)), (HALF, HALF)])
        with pytest.raises(NullConditionError):
            d.condition({0: 1})

    @pytest.mark.parametrize("explicit", [False, True], ids=["product", "explicit"])
    @pytest.mark.parametrize("symbol", [-1, len(PARTICIPATION), 0.0, 0.5, F(1), "0"],
                             ids=["minus-one", "m", "float-zero", "half", "whole-fraction", "str"])
    def test_symbol_outside_alphabet_is_null(self, explicit, symbol):
        # Only ints in 0..m-1 are symbols, so 0.0 is not 0 and F(1) is not 1.
        d = majp_dist(3, HALF)
        if explicit:
            d = d.to_explicit()
        assert d.weight((symbol, 0, 0)) == 0
        with pytest.raises(NullConditionError):
            d.condition({0: symbol})

    @pytest.mark.parametrize("explicit", [False, True], ids=["product", "explicit"])
    def test_weight_of_a_wrong_length_outcome_is_an_error(self, explicit):
        d = majp_dist(3, HALF)
        if explicit:
            d = d.to_explicit()
        with pytest.raises(DistributionError, match="wrong arity"):
            d.weight((0, 0))


@pytest.mark.parametrize("d", [
    majp_dist(3, HALF).to_explicit(),
    hadamard_mu(2),
    mixture_D(2),
    ExplicitDist(PARTICIPATION, 2, [((0, 2), F(1, 3)), ((2, 1), F(2, 3))]),
], ids=["majp3", "hadamard2", "mixture2", "sparse-participation"])
def test_explicit_weight_matches_oracle_on_the_whole_grid(d):
    """bisect on the sorted support finds every point, in and out of it."""
    for x in itertools.product(range(len(d.alphabet)), repeat=d.n):
        assert d.weight(x) == brute_event_mass(d, dict(enumerate(x)))
    assert d.weight(list(d.support[-1][0])) == d.support[-1][1]


@pytest.mark.parametrize("call, error", [
    (lambda: ExplicitDist(BINARY, 2.5, [((0, 0), F(1))]), DistributionError),
    (lambda: ProductDist(BINARY, 2.5, [(HALF, HALF)] * 2), DistributionError),
    (lambda: PartialTable(BINARY, 2.5, {(0, 0): F(0)}), PivotalError),
    (lambda: UpwardClosure("2", [(0, 1)]), PivotalError),
    (lambda: UpwardClosure.from_masks(2.0, [1]), PivotalError),
    (lambda: majp_dist(3, HALF).single_marginal(0.5), DistributionError),
    (lambda: hadamard_mu(2).single_marginal(0.5), DistributionError),
    (lambda: majp_dist(3, HALF).marginal([0.5]), DistributionError),
    (lambda: hadamard_mu(2).marginal([0.5]), DistributionError),
    (lambda: majp_dist(3, HALF).condition({0.5: 1}), DistributionError),
    (lambda: hadamard_mu(2).condition({0.5: 1}), DistributionError),
    (lambda: uniform_product("3"), DistributionError),
    (lambda: majp_dist(3.0, HALF), DistributionError),
    (lambda: hadamard_mu(2.0), DistributionError),
    (lambda: hadamard_mu(2).check_kwise("2"), DistributionError),
    (lambda: uniform_product(3).check_kwise(None), DistributionError),
    (lambda: elimination_set(MajorityFn(3), uniform_product(3), "2", HALF, HALF),
     PreconditionError),
    (lambda: effect_counterexample("3"), PreconditionError),
    (lambda: influence_counterexample(3.0), PreconditionError),
    (lambda: UpwardClosure.from_masks(3, [1.5]), PivotalError),
    (lambda: estimate_effect(ParityFn(3), uniform_product(3), 0, 2.5, 0), PivotalError),
    (lambda: hoeffding_halfwidth(None), PivotalError),
    (lambda: majp_tightness("5", HALF, [F(1, 8)]), PivotalError),
    # Each player is checked before the set is sorted or hashed, so "a" is no TypeError.
    (lambda: uniform_product(3).marginal(["a", 0]), DistributionError),
    (lambda: hadamard_mu(2).marginal(["a", 0]), DistributionError),
    (lambda: pivotal_set(MajorityFn(3), uniform_product(3), ["a", 1], HALF, HALF),
     DistributionError),
    (lambda: verify_sum_bound(MajorityFn(3), uniform_product(3), ["a", 1]), DistributionError),
    (lambda: uniform_product(3).sums([3]), DistributionError),
    (lambda: DictatorFn(3, "a"), PivotalError),
    # A float index would otherwise pass and fail only when the dictator is evaluated.
    (lambda: DictatorFn(3, 1.0), PivotalError),
    (lambda: ParityFn(3.0), PivotalError),
    (lambda: MajorityFn("3"), PivotalError),
], ids=["explicit", "product", "table", "closure", "closure-masks",
        "product-single-marginal", "explicit-single-marginal", "product-marginal",
        "explicit-marginal", "product-condition", "explicit-condition",
        "uniform-product", "majp-dist", "hadamard-mu", "explicit-check-kwise",
        "product-check-kwise", "elimination-set", "effect-counterexample",
        "influence-counterexample", "closure-mask-value", "estimate-effect-samples",
        "hoeffding-samples", "majp-tightness", "product-marginal-set", "explicit-marginal-set",
        "pivotal-set", "sum-bound", "sums-group", "dictator-player", "dictator-float-player",
        "parity-arity", "majority-arity"])
def test_arity_and_player_index_must_be_ints(call, error):
    """Refused with the module's own error, never truncated or left to a TypeError."""
    text = r" must be an int, got |^player group must be a sequence, got 3$"
    with pytest.raises(error, match=text) as info:
        call()
    assert type(info.value) is error


def test_bool_counts_as_an_int():
    # The isinstance test of the outcome rule: True is 1, as a symbol and as an index.
    d = ExplicitDist(BINARY, True, [((True,), HALF), ((0,), HALF)])
    assert d.n == 1 and d.weight((1,)) == HALF
    assert hadamard_mu(2).single_marginal(True) == (HALF, HALF)
    assert uniform_product(2).condition({True: True}).marginals[1] == (F(0), F(1))
    assert type(DictatorFn(3, True).player) is int and type(MajorityFn(True).n) is int


@pytest.mark.parametrize("result", [
    lambda: estimate_effect(DictatorFn(3, 0), uniform_product(3), 0, True, 0).samples,
    lambda: verify_elimination(MajorityFn(3), uniform_product(3), True, QUARTER, QUARTER).inputs["m"],
    lambda: convex_decomposition_check(MajorityFn(3), uniform_product(3), hadamard_mu(2),
                                       HALF, True).inputs["player"],
    lambda: pivotal_player(DictatorFn(3, 1), uniform_product(3), True, QUARTER, QUARTER)[1].player,
], ids=["estimate_effect-samples", "verify_elimination-m", "convex_decomposition_check-player",
        "pivotal_player-player"])
def test_results_carry_the_checked_int(result):
    # True is accepted as 1, and the result carries the int 1, not the argument.
    value = result()
    assert type(value) is int and value == 1


class TestMixture:
    def test_idempotent(self, even_parity3):
        assert mixture(even_parity3, even_parity3, F(1, 3)) == even_parity3

    def test_q_one_returns_first(self, even_parity3):
        d2 = ProductDist(BINARY, 3, [(HALF, HALF)] * 3)
        assert mixture(even_parity3, d2, F(1)) == even_parity3

    def test_arity_mismatch(self, even_parity3):
        with pytest.raises(DistributionError):
            mixture(even_parity3, ProductDist(BINARY, 2, [(HALF, HALF)] * 2), HALF)

    def test_alphabet_mismatch(self, even_parity3):
        with pytest.raises(DistributionError):
            mixture(even_parity3, ProductDist(PARTICIPATION, 3, [(HALF, QUARTER, QUARTER)] * 3), HALF)

    def test_weight_out_of_range(self, even_parity3):
        with pytest.raises(DistributionError):
            mixture(even_parity3, even_parity3, F(3, 2))


class TestCheckKwise:
    def test_even_parity_is_pairwise(self, even_parity3):
        assert even_parity3.check_kwise(2).ok
        assert even_parity3.check_kwise(2)  # a result is true when it holds

    def test_even_parity_not_threewise(self, even_parity3):
        res = even_parity3.check_kwise(3)
        assert not res.ok
        assert not res
        assert res.witness.players == (0, 1, 2)
        # First lexicographic violation: (0,0,0) carries 1/4 instead of 1/8.
        assert res.witness.assignment == (0, 0, 0)
        assert res.witness.joint == F(1, 4)
        assert res.witness.product == F(1, 8)
        # The odd-parity point (1,1,1) is also a violation: mass 0 vs 1/8.
        assert brute_event_mass(even_parity3, {0: 1, 1: 1, 2: 1}) == 0

    def test_product_always_independent(self):
        d = ProductDist(PARTICIPATION, 4, [(QUARTER, QUARTER, HALF)] * 4)
        for k in range(1, 5):
            assert d.check_kwise(k).ok

    def test_against_brute_force(self, even_parity3):
        for k in (1, 2, 3):
            ok, witness = brute_kwise(even_parity3, k)
            assert even_parity3.check_kwise(k).ok == ok

    def test_k_out_of_range(self, even_parity3):
        with pytest.raises(DistributionError):
            even_parity3.check_kwise(4)


@st.composite
def small_explicit_spaces(draw):
    """Explicit supports on a binary or ternary grid: mixed denominators, zero weights.

    Half of them weigh each point by a product of per-player rows, so they
    are independent and every k passes.
    """
    alphabet = draw(st.sampled_from([BINARY, PARTICIPATION]))
    m, n = len(alphabet), draw(st.integers(1, 4))
    grid = list(itertools.product(range(m), repeat=n))
    weight = st.integers(0, 2).flatmap(lambda a: st.integers(1, 7).map(lambda b: F(a, b)))
    if draw(st.booleans()):
        rows = [draw(st.lists(weight, min_size=m, max_size=m).filter(any)) for _ in range(n)]
        raw = [math.prod(row[s] for row, s in zip(rows, x)) for x in grid]
    else:
        raw = draw(st.lists(weight, min_size=len(grid), max_size=len(grid)).filter(any))
    total = sum(raw)
    return ExplicitDist(alphabet, n, [(x, w / total) for x, w in zip(grid, raw) if w])


@st.composite
def distinct_weight_spaces(draw):
    """Ternary or binary grids up to n = 5 whose weights are mostly or all distinct.

    A product of per-player rows, perturbed on one subset S by
    c * prod_(i in S) u(x_i) with u summing to zero: every subset other
    than S keeps its factorized marginals, so the space is
    (|S| - 1)-wise independent and, when c > 0, fails at S, at symbols
    that u picks. Or weights drawn all distinct, which fail at once. Either
    way nearly every weight is distinct, so masses take the set-bit walk of
    ``_Bitsets.mass``; ``small_explicit_spaces`` has few weight classes
    and takes the popcount path.
    """
    alphabet = draw(st.sampled_from([BINARY, PARTICIPATION]))
    m, n = len(alphabet), draw(st.integers(2, 5))
    grid = list(itertools.product(range(m), repeat=n))
    if draw(st.booleans()):
        raw = draw(st.lists(st.integers(1, 10 ** 6), min_size=len(grid),
                            max_size=len(grid), unique=True))
    else:
        rows = [draw(st.lists(st.integers(2, 10 ** 4), min_size=m, max_size=m))
                for _ in range(n)]
        S = draw(st.sets(st.integers(0, n - 1), min_size=2, max_size=min(n, 3)))
        u = draw(st.permutations([1, -1, 0][:m]))
        c = draw(st.integers(0, 2 ** len(S) - 1))
        raw = [math.prod(row[s] for i, (row, s) in enumerate(zip(rows, x)) if i not in S)
               * (math.prod(rows[i][x[i]] for i in S) + c * math.prod(u[x[i]] for i in S))
               for x in grid]
    total = sum(raw)
    return ExplicitDist(alphabet, n, [(x, F(w, total)) for x, w in zip(grid, raw)])


def _assert_kwise_matches_brute_force(d, k):
    res = d.check_kwise(k)
    ok, witness = brute_kwise(d, k)
    assert res.ok == ok
    if ok:
        assert res.witness is None
    else:
        T, a = witness
        assert (res.witness.players, res.witness.assignment) == (T, a)
        assert res.witness.joint == brute_event_mass(d, dict(zip(T, a)))
        assert res.witness.product == math.prod(brute_event_mass(d, {i: s})
                                                for i, s in zip(T, a))


@settings(max_examples=80, deadline=None)
@given(small_explicit_spaces(), st.data())
def test_check_kwise_matches_brute_force(d, data):
    _assert_kwise_matches_brute_force(d, data.draw(st.integers(1, d.n)))


@settings(max_examples=30, deadline=None)
@given(distinct_weight_spaces(), st.data())
def test_check_kwise_on_distinct_weights_matches_brute_force(d, data):
    _assert_kwise_matches_brute_force(d, data.draw(st.integers(2, min(d.n, 3))))


def test_kwise_witness_past_the_first_symbol():
    # Uniform on 3^3 perturbed by u(x_0) u(x_1) u(x_2) with u = (0, 1, -1):
    # every pair keeps its uniform marginal, and the first 3-wise failure,
    # in product order, is at (1, 1, 1).
    grid = list(itertools.product(range(3), repeat=3))
    u = (0, 1, -1)
    raw = [2 + u[a] * u[b] * u[c] for a, b, c in grid]
    d = ExplicitDist(PARTICIPATION, 3, [(x, F(w, 54)) for x, w in zip(grid, raw)])
    assert d.check_kwise(2).ok
    assert brute_kwise(d, 3) == (False, ((0, 1, 2), (1, 1, 1)))
    assert d.check_kwise(3).witness == KwiseWitness((0, 1, 2), (1, 1, 1), F(3, 54), F(1, 27))


@pytest.mark.parametrize("classes", [3, 9, 10, 300])
def test_bitset_mass_matches_weight_sum(classes):
    # 300 points have 9 bits, so up to 9 weight classes get class bitsets
    # and 10 or more take the set-bit walk alone.
    rng = random.Random(5)
    size = 300
    weights = rng.sample(range(1, 10 ** 9), classes)
    ints = weights + [rng.choice(weights) for _ in range(size - classes)]
    points = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(size)]
    bitsets = _support_bitsets(points, ints, 3)
    assert [w for w, _ in bitsets.classes] == (weights if classes <= 9 else [])
    for w, bits in bitsets.classes:
        assert bits == sum(1 << j for j, v in enumerate(ints) if v == w)
    for i, s in itertools.product(range(4), range(3)):
        assert bitsets.columns[i][s] == sum(1 << j for j, x in enumerate(points) if x[i] == s)
        assert bitsets.singles[i][s] == sum(w for x, w in zip(points, ints) if x[i] == s)
    for _ in range(50):
        chosen = rng.sample(range(size), rng.choice((0, 1, 2, 5, 150, size)))
        assert bitsets.mass(sum(1 << j for j in chosen)) == sum(ints[j] for j in chosen)


def test_large_distinct_support_walks_without_class_bitsets():
    # 20,000 distinct weights would take |supp|^2 bits as class bitsets.
    rng = random.Random(8)
    size = 20_000
    ints = rng.sample(range(1, 10 ** 12), size)
    points = [tuple(rng.randrange(3) for _ in range(4)) for _ in range(size)]
    bitsets = _support_bitsets(points, ints, 3)
    assert bitsets.classes == []
    for i, s in itertools.product(range(4), range(3)):
        assert bitsets.singles[i][s] == sum(w for x, w in zip(points, ints) if x[i] == s)
    for count in (0, 1, 3, 700, size // 2, size):
        chosen = rng.sample(range(size), count)
        assert bitsets.mass(sum(1 << j for j in chosen)) == sum(ints[j] for j in chosen)
    # The highest and the lowest point alone.
    assert bitsets.mass(1 << size - 1) == ints[-1]
    assert bitsets.mass(1) == ints[0]


def test_kwise_bitsets_built_once(monkeypatch):
    d = SAMPLED["skewed-explicit"]()
    built = []

    def counted(*args):
        built.append(args)
        return _support_bitsets(*args)

    monkeypatch.setattr(dist_module, "_support_bitsets", counted)
    d.expectation(ParityFn(d.n))
    assert len(built) == 1  # built by the first sums call
    for k in (2, 3, 1, 2, 3):
        assert d.check_kwise(k).ok
    d.sums([(0,), (1, 2)], ParityFn(d.n))
    # sums and check_kwise share the one set of bitsets.
    assert len(built) == 1


def test_explicit_single_marginal_reads_the_bitsets(monkeypatch):
    d = SAMPLED["skewed-explicit"]()
    calls = []
    sums = Distribution.sums

    def counted(self, *args, **kwargs):
        calls.append(args)
        return sums(self, *args, **kwargs)

    monkeypatch.setattr(Distribution, "sums", counted)
    got = [d.single_marginal(i) for i in range(d.n)]
    assert calls == []
    assert all(d.check_kwise(k).ok for k in (1, 2, 3))  # the same bitsets
    assert calls == []
    assert got == [tuple(brute_event_mass(d, {i: s}) for s in range(3)) for i in range(d.n)]


def test_single_marginal_matches_oracle_with_a_massless_symbol():
    # Player 0 never shows 2, player 1 never shows 1, player 2 never shows 2.
    d = ExplicitDist(PARTICIPATION, 3, [
        ((0, 2, 1), HALF), ((1, 2, 0), F(1, 3)), ((0, 0, 0), F(1, 6))])
    for i in range(d.n):
        assert d.single_marginal(i) == tuple(brute_event_mass(d, {i: s}) for s in range(3))
    for i in (-1, d.n):
        with pytest.raises(DistributionError):
            d.single_marginal(i)


def test_mixture_d4_kwise_witness_pinned():
    res = mixture_D(4).check_kwise(4)
    assert not res.ok
    assert res.witness == KwiseWitness((0, 1, 3, 6), (0, 0, 0, 0), F(1, 8), F(1, 16))


class TestExpectation:
    def test_majority_on_even_parity(self, even_parity3):
        # f is 0, 1, 1, 1 on the four equiprobable support points.
        assert even_parity3.expectation(MajorityFn(3)) == F(3, 4)

    def test_constant(self, even_parity3):
        assert even_parity3.expectation(ConstantFn(3, F(1))) == 1

    def test_parity_on_uniform_product(self):
        d = ProductDist(BINARY, 3, [(HALF, HALF)] * 3)
        assert d.expectation(ParityFn(3)) == HALF

    def test_undefined_support_point_is_error(self, even_parity3):
        from pivotal import PartialTable, UndefinedPointError
        partial = PartialTable(BINARY, 3, {(0, 0, 0): F(1)})
        with pytest.raises(UndefinedPointError):
            even_parity3.expectation(partial)


class TestSampling:
    def test_deterministic_per_seed_and_index(self, even_parity3):
        a = even_parity3.sample(7, 3)
        b = even_parity3.sample(7, 3)
        assert a == b
        assert even_parity3.sample(7, 4) in {x for x, _ in even_parity3.items()}

    def test_product_sampling_in_support(self):
        d = ProductDist(PARTICIPATION, 3, [(QUARTER, QUARTER, HALF)] * 3)
        for j in range(20):
            x = d.sample("s", j)
            assert len(x) == 3 and all(0 <= s < 3 for s in x)

    def test_frequencies_roughly_match(self, even_parity3):
        counts = {}
        for j in range(2000):
            x = even_parity3.sample(123, j)
            counts[x] = counts.get(x, 0) + 1
        for x, _ in even_parity3.items():
            assert 400 < counts[x] < 600  # expect 500 each


SAMPLED = {
    "majp-9": lambda: majp_dist(9, F(2, 5)),
    "majp-9-conditioned": lambda: majp_dist(9, F(2, 5)).condition({0: 2, 3: 1}),
    "zero-first-middle-last": lambda: ProductDist(PARTICIPATION, 3, [
        (F(0), F(1, 3), F(2, 3)), (QUARTER, F(0), F(3, 4)), (HALF, HALF, F(0))]),
    "mixed-denominators": lambda: ProductDist(PARTICIPATION, 2, [
        (F(1, 3), QUARTER, F(5, 12)), (F(2, 7), F(3, 5), F(4, 35))]),
    "hadamard-3": lambda: hadamard_mu(3),
    "mixture-3": lambda: mixture_D(3),
    "skewed-explicit": lambda: ProductDist(PARTICIPATION, 3, [
        (F(1, 6), F(1, 3), HALF), (F(1, 10), F(7, 10), F(1, 5)),
        (F(0), F(4, 9), F(5, 9))]).to_explicit(),
    # Two rows alternating player by player: every player starts a new run.
    "alternating-rows": lambda: ProductDist(PARTICIPATION, 12, [
        (F(1, 5), F(1, 5), F(3, 5)), (F(0), F(2, 7), F(5, 7))] * 6),
    "pinned-middle-and-last": lambda: majp_dist(9, F(2, 5)).condition({4: 0, 8: 2}),
    # Row totals on both sides of the byte tables' limit of 255, in both orders,
    # so that the last run is drawn from a table in one space and not in the other.
    "totals-128-to-257": lambda: ProductDist(BINARY, 8, [
        row for den in (128, 255, 256, 257) for row in [(F(1, den), 1 - F(1, den))] * 2]),
    "totals-257-to-128": lambda: ProductDist(BINARY, 8, [
        row for den in (257, 256, 255, 128) for row in [(F(1, den), 1 - F(1, den))] * 2]),
    # Totals of 22 bits (one word per draw) and of 43 bits (two words per draw).
    "total-22-bits": lambda: ProductDist(PARTICIPATION, 5, [
        (F(1, 3), F(1, 5), F(7, 15))] + [(F(1, 10 ** 6), F(1, 3), 1 - F(1, 3) - F(1, 10 ** 6))] * 3
        + [(F(1, 3), F(1, 5), F(7, 15))]),
    "total-over-32-bits": lambda: ProductDist(PARTICIPATION, 5, [
        (F(1, 3), F(1, 5), F(7, 15))] + [(F(1, 2 ** 40), F(3, 7), 1 - F(3, 7) - F(1, 2 ** 40))] * 3
        + [(F(1, 3), F(1, 5), F(7, 15))]),
    # 256 symbols: too many for a byte table although the total is 4.
    "256-symbols": lambda: ProductDist(Alphabet(tuple(map(str, range(256)))), 3, [
        tuple(F(1, 4) if s in (0, 7, 200, 255) else F(0) for s in range(256))] * 3),
}


def _draw_tables(d) -> list:
    # Per distinct product row its running sums and byte table, or an explicit support's sums.
    if isinstance(d, ProductDist):
        return [table for row in d._entries for table in (row.cum, row.tops)]
    return [d._cum]


@pytest.mark.parametrize("name", sorted(SAMPLED))
def test_sample_stream_matches_oracle(name):
    d = SAMPLED[name]()
    tables = _draw_tables(d)
    copies = [None if t is None else list(t) for t in tables]
    if isinstance(d, ProductDist):
        assert len(tables) == 2 * len(set(d.marginals))
    for seed in (0, "a", 123456789):
        for j in range(200):
            assert d.sample(seed, j) == brute_sample(d, seed, j), (seed, j)
    # Drawing builds no table: the constructor's tables are the same, unchanged objects.
    after = _draw_tables(d)
    assert len(after) == len(tables) and all(a is b for a, b in zip(after, tables))
    assert [None if t is None else list(t) for t in after] == copies


@pytest.mark.parametrize("name, tabled", [
    ("majp-9", [True]), ("totals-128-to-257", [True, True, False, False]),
    ("total-22-bits", [True, False]), ("total-over-32-bits", [True, False]),
    ("256-symbols", [False]),
])
def test_byte_tables_only_for_small_rows(name, tabled):
    assert [row.tops is not None for row in SAMPLED[name]()._entries] == tabled


def test_runs_follow_the_players():
    d = SAMPLED["pinned-middle-and-last"]()
    assert [(d._entries.index(row), count) for row, count in d._runs] == [
        (0, 4), (1, 1), (0, 3), (2, 1)]
    assert [count for _, count in SAMPLED["alternating-rows"]()._runs] == [1] * 12


@st.composite
def sampled_products(draw):
    # A few distinct rows, placed in runs and repeats, with totals up to 2^40.
    alphabet = draw(st.sampled_from([BINARY, PARTICIPATION]))
    m = len(alphabet)
    rows = []
    for _ in range(draw(st.integers(1, 3))):
        den = draw(st.sampled_from([1, 2, 5, 7, 128, 255, 256, 257, 1000, 2 ** 32 + 1, 2 ** 40]))
        cuts = sorted(draw(st.lists(st.integers(0, den), min_size=m - 1, max_size=m - 1)))
        rows.append(tuple(F(b - a, den) for a, b in zip([0] + cuts, cuts + [den])))
    n = draw(st.integers(1, 8))
    return ProductDist(alphabet, n, [rows[draw(st.integers(0, len(rows) - 1))] for _ in range(n)])


@settings(max_examples=200, deadline=None)
@given(sampled_products(), st.one_of(st.integers(0, 10 ** 6), st.text(max_size=3)),
       st.integers(0, 10 ** 6))
def test_sample_matches_oracle_on_random_products(d, seed, index):
    assert d.sample(seed, index) == brute_sample(d, seed, index)


def test_estimate_is_the_sequential_sum():
    # Values -1, 1/3 and 1: the tally by value must give the exact sum of the draws.
    values = [F(-1), F(1, 3), F(1)]
    f = DenseTable(PARTICIPATION, 3, {x: values[(x[0] + 2 * x[1] + x[2]) % 3]
                                      for x in itertools.product(range(3), repeat=3)})
    d = majp_dist(3, F(2, 5))
    for samples in (1, 7, 500):
        acc = F(0)
        for j in range(samples):
            acc += f.evaluate(d.sample("t", j))
        est = estimate_expectation(f, d, samples, "t")
        assert est.estimate == acc / samples and type(est.estimate) is F
    assert {f.evaluate(d.sample("t", j)) for j in range(500)} == set(values)


@pytest.mark.parametrize("make", [
    # Equal rows given as distinct tuple objects, and as one shared tuple.
    lambda: (ProductDist(BINARY, 3, [tuple([F(1, 3), F(2, 3)]) for _ in range(3)]),
             ProductDist(BINARY, 3, [(F(1, 3), F(2, 3))] * 3)),
    # The support given in reverse order, and as the product expands it.
    lambda: (ExplicitDist(BINARY, 2, list(uniform_product(2).items())[::-1]),
             uniform_product(2).to_explicit()),
    lambda: (DenseTable(BINARY, 2, {(a, b): F(a & b) for a in (1, 0) for b in (1, 0)}),
             DenseTable(BINARY, 2, [((a, b), F(a & b)) for a in (0, 1) for b in (0, 1)])),
    # A dominated generator is minimized away.
    lambda: (UpwardClosure(3, [(1, 1, 0), (1, 1, 1)]), UpwardClosure(3, [(1, 1, 0)])),
], ids=["product", "explicit", "dense-table", "upward-closure"])
def test_equal_values_built_differently_hash_equal(make):
    a, b = make()
    assert a is not b and a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_equal_product_rows_are_stored_once():
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        d = majp_dist(10_000, HALF)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # One scaled row and draw table per player retained 3.26 MiB.
    assert retained < 512 * 1024, retained
    assert len(d._entries) == 1 and len(set(map(id, d.marginals))) == 1


def _count_scale_calls(monkeypatch) -> list:
    built = []

    def counted(weights):
        built.append(weights)
        return _scale(weights)

    monkeypatch.setattr(dist_module, "_scale", counted)
    return built


@pytest.mark.parametrize("name", ["hadamard-3", "mixture-3", "skewed-explicit"])
def test_explicit_scaled_items_built_once(name, monkeypatch):
    d = SAMPLED[name]()
    built = _count_scale_calls(monkeypatch)
    denom = math.lcm(*(w.denominator for _, w in d.support))
    want = [(x, (w * denom).numerator) for x, w in d.support]
    for _ in range(3):
        got, points = d.scaled_items()
        assert (got, list(points)) == (denom, want)
    d.expectation(ParityFn(d.n))
    d.check_kwise(2)
    # The lcm and the integer weights are computed at construction only.
    assert built == []


@pytest.mark.parametrize("name", ["majp-9", "mixed-denominators"])
def test_product_rows_scaled_at_construction(name, monkeypatch):
    d = SAMPLED[name]()
    groups = [(0,), (1, 0)]  # the statistic path on majp-9, the grid walk otherwise
    want_sums = d.to_explicit().sums(groups)
    built = _count_scale_calls(monkeypatch)
    denom = math.prod(math.lcm(*(w.denominator for w in row)) for row in d.marginals)
    want = [(x, d.weight(x) * denom)
            for x in itertools.product(range(len(d.alphabet)), repeat=d.n) if d.weight(x)]
    for _ in range(3):
        got, points = d.scaled_items()
        assert (got, list(points)) == (denom, want)
    assert d.sums(groups) == want_sums
    assert built == []


class _ScriptedRng:
    def __init__(self, values):
        self.values = list(values)
        self.widths = []

    def getrandbits(self, k):
        self.widths.append(k)
        return self.values.pop(0)


def test_draw_maps_cumulative_boundaries_and_redraws():
    cum = list(itertools.accumulate([1, 0, 1, 2]))  # the weights 1/4, 0, 1/4, 1/2 over 4
    assert cum == [1, 1, 2, 4]

    def draw(*values):
        rng = _ScriptedRng(values)
        i = _draw(rng, cum)
        assert not rng.values and rng.widths == [3] * len(values)
        return i

    for i in (0, 2, 3):  # r = cum[i] - 1 lands on i
        assert draw(cum[i] - 1) == i
    assert draw(cum[0]) == 2  # r = cum[i] skips the zero weight
    assert draw(cum[2]) == 3
    assert draw(6, 4, 1) == 2  # draws at or past the total are redrawn
    # A point mass still consumes its one-bit draws.
    rng = _ScriptedRng([1, 0])
    assert _draw(rng, list(itertools.accumulate([0, 1, 0]))) == 1
    assert rng.widths == [1, 1]


# ----------------------------------------------------------------------
# Property tests: product form agrees with its explicit expansion


@st.composite
def small_products(draw):
    alphabet = draw(st.sampled_from([BINARY, PARTICIPATION]))
    n = draw(st.integers(1, 3))
    rows = []
    for _ in range(n):
        raw = draw(st.lists(st.integers(0, 3), min_size=len(alphabet),
                            max_size=len(alphabet)).filter(lambda v: sum(v) > 0))
        total = sum(raw)
        rows.append(tuple(F(v, total) for v in raw))
    return ProductDist(alphabet, n, rows)


# Values in [-1, 1] over denominators 1..7, so integer scaling meets mixed lcms.
mixed_values = st.integers(1, 7).flatmap(lambda b: st.integers(-b, b).map(lambda a: F(a, b)))


@settings(max_examples=60, deadline=None)
@given(small_products(), st.data())
def test_product_queries_match_explicit_expansion(d, data):
    ex = d.to_explicit()
    assert sum(w for _, w in ex.items()) == 1
    assert all(w == d.weight(x) for x, w in ex.items())
    f = ConstantFn(d.n, F(1, 3), d.alphabet)
    assert d.expectation(f) == ex.expectation(f)
    T = data.draw(st.sets(st.integers(0, d.n - 1), min_size=1).map(sorted))
    assert d.marginal(T) == ex.marginal(T)
    k = data.draw(st.integers(1, d.n))
    assert d.check_kwise(k).ok == ex.check_kwise(k).ok

    # The grouped-sum kernel against the brute-force oracles, on both forms.
    grid = itertools.product(range(len(d.alphabet)), repeat=d.n)
    g = DenseTable(d.alphabet, d.n, {x: data.draw(mixed_values) for x in grid})
    p = data.draw(st.sampled_from([F(0), F(1, 4), F(1, 2)]))
    alpha = data.draw(st.sampled_from([F(0), F(1, 5), F(1, 3), F(1, 2)]))
    for dist in (d, ex):
        assert dist.expectation(g) == brute_expectation(g, dist)
        for key, mass in dist.marginal(T).items():
            assert mass == brute_event_mass(dist, dict(zip(T, key)))
        assert pivotal_set(g, dist, T, p, alpha) == (
            brute_set_deviating_mass(g, dist, T, alpha) > p)
        if d.alphabet != BINARY:
            continue
        if all(0 < row[1] < 1 for row in d.marginals):
            assert [r.signed for r in effect_report(g, dist).rows] == [
                brute_signed_effect(g, dist, i) for i in range(d.n)]
        else:
            with pytest.raises(NullConditionError):
                effect_report(g, dist)


@settings(max_examples=40, deadline=None)
@given(small_products(), st.data())
def test_product_condition_matches_explicit(d, data):
    player = data.draw(st.integers(0, d.n - 1))
    viable = [s for s, p in enumerate(d.marginals[player]) if p > 0]
    symbol = data.draw(st.sampled_from(viable))
    got = d.condition({player: symbol}).to_explicit()
    want = d.to_explicit().condition({player: symbol})
    assert got == want


@pytest.mark.parametrize("call, message", [
    (lambda: BINARY.index("2"), "symbol '2' not in alphabet ('0', '1')"),
    (lambda: ExplicitDist(BINARY, 1, []), "support is empty"),
], ids=["alphabet-index", "empty-support"])
def test_refusal_names_its_fault(call, message):
    with pytest.raises(DistributionError) as info:
        call()
    assert str(info.value) == message


def test_expansion_limit_counts_support_points():
    # A grid of 3^14 points, of which the 2^14 without the zero-weight symbol
    # are the support: they are expanded, not refused by the grid's size.
    d = ProductDist(PARTICIPATION, 14, [(HALF, HALF, 0)] * 14)
    ex = d.to_explicit()
    assert len(ex.support) == 1 << 14
    assert ex.support[-1] == ((1,) * 14, F(1, 1 << 14))


# ----------------------------------------------------------------------
# The statistic path of ProductDist.sums against the grid walk


def _convolve(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("q", [[1], [4], [1, 1], [1, 1, 2], [1, 0, 3], [2, 0, 0, 5], [7, 3, 0, 1]])
def test_power_matches_repeated_convolution(q):
    # [1, 0, 3] is a binary row whose symbol 1 scores 2: an interior zero.
    want = [1]
    for r in range(12):
        assert _power(q, r) == want
        want = _convolve(want, q)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 3), st.lists(st.integers(-4, 4), min_size=1, max_size=4))
def test_power_with_leading_zeros_matches_repeated_convolution(zeros, tail):
    # A leading zero is a zero constant term, as where every symbol of the
    # least score is left out; the tail may itself be all zeros.
    q = [0] * zeros + tail
    want = [1]
    for r in range(8):
        assert _power(q, r) == want
        want = _convolve(want, q)


def test_power_of_zero_polynomials():
    assert _power([0, 0, 3], 2) == [0, 0, 0, 0, 9]
    assert _power([0, 0], 0) == [1]
    assert _power([0, 0], 3) == [0, 0, 0, 0]
    assert _power([0], 5) == [0]


class _Scored(StatisticFn):
    """Drawn scores, and a drawn value for each total n players can reach."""

    def __init__(self, n, alphabet, scores, values):
        self.n, self.alphabet, self.scores, self.values = n, alphabet, scores, values

    def of_total(self, t):
        return self.values[t]


@st.composite
def identical_rows(draw):
    """n <= 6 players sharing one row, zero weights and mixed denominators allowed.

    Also draws a function of a score total, with negative scores and gaps.
    """
    alphabet = draw(st.sampled_from([BINARY, PARTICIPATION]))
    m = len(alphabet)
    n = draw(st.integers(1, 6))
    raw = draw(st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(lambda v: sum(v) > 0))
    row = tuple(F(v, sum(raw)) for v in raw)
    scores = draw(st.dictionaries(st.integers(0, m - 1), st.integers(-3, 3)))
    lo, hi = min([0, *scores.values()]), max([0, *scores.values()])
    values = {t: draw(mixed_values) for t in range(n * lo, n * hi + 1)}
    return ProductDist(alphabet, n, [row] * n), _Scored(n, alphabet, scores, values)


def _assert_same_sums(got, want):
    # Equal mappings: the law's and the tables' insertion order carries no meaning.
    assert got == want


@settings(max_examples=60, deadline=None)
@given(identical_rows(), st.data())
def test_symmetric_sums_match_grid_walk(drawn, data):
    d, scored = drawn
    n, m = d.n, len(d.alphabet)
    groups = data.draw(st.lists(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=min(3, n), unique=True)
        .map(tuple), min_size=0, max_size=4))
    groups.append(tuple(range(n)))
    constant = ConstantFn(n, data.draw(mixed_values), d.alphabet)
    ex = d.to_explicit()
    for f in (None, MajPFn(n), MajorityFn(n), ParityFn(n), constant, scored):
        got = d.sums(groups, f)
        _assert_same_sums(got, ex.sums(groups, f))
        # One entry, present or absent, against the brute-force oracles.
        g = data.draw(st.integers(0, len(groups) - 1))
        T = groups[g]
        key = tuple(data.draw(st.lists(st.integers(0, m - 1), min_size=len(T),
                                       max_size=len(T))))
        assignment = dict(zip(T, key))
        mass = brute_event_mass(d, assignment)
        if mass == 0:
            assert key not in got.tables[g]
        else:
            value = ConstantFn(n, 1, d.alphabet) if f is None else f
            assert got.tables[g][key] == (mass, mass * brute_conditional(value, d, assignment))


def _grid_walk_only(self, groups, f):
    raise AssertionError("the statistic path was taken")


@pytest.mark.parametrize("d, groups, f", [
    (ProductDist(PARTICIPATION, 3, [(QUARTER, QUARTER, HALF), (F(1, 3), F(1, 3), F(1, 3)),
                                    (QUARTER, QUARTER, HALF)]), [(0,), (2, 1)], MajPFn(3)),
    (majp_dist(4, HALF), [(1, 1), (0, 2)], MajPFn(4)),
    (ProductDist(BINARY, 4, [(F(1, 3), F(2, 3))] * 4), [(0,), (3, 1)], DictatorFn(4, 1)),
], ids=["unequal-rows", "repeated-player", "dictator"])
def test_sums_falls_through_to_grid_walk(d, groups, f, monkeypatch):
    want = Distribution.sums(d, groups, f)
    monkeypatch.setattr(ProductDist, "_statistic_sums", _grid_walk_only)
    got = d.sums(groups, f)
    _assert_same_sums(got, want)
    _assert_same_sums(got, d.to_explicit().sums(groups, f))


def test_statistic_path_never_evaluates():
    calls = []

    class Counted(MajPFn):
        def evaluate(self, x):
            calls.append(x)
            return super().evaluate(x)

    d = majp_dist(9, HALF)
    groups = [(i,) for i in range(9)] + [(0, 1), (2, 3)]
    sums = d.sums(groups, Counted(9))
    assert calls == []
    assert sums == d.to_explicit().sums(groups, MajPFn(9))


@pytest.mark.parametrize("f", [None, MajPFn(5)], ids=["none", "majp"])
def test_statistic_tables_are_shared_per_size(f, monkeypatch):
    # An entry depends only on the group's size and on its symbols' product
    # weight and total score, none of which depends on their order, so
    # the groups of one size share one table, whatever their players' order.
    d = majp_dist(5, HALF)
    groups = [(0, 1), (3,), (3, 1), (1, 0), (4,), (2, 4, 0), (0, 2, 4), (4, 3, 1)]
    sums = d.sums(groups, f)
    first = {}
    for T, table in zip(groups, sums.tables):
        assert first.setdefault(len(T), table) is table
    assert sums == d.to_explicit().sums(groups, f)
    if f is None:
        return
    decided = []
    once = analysis_module._once_per_table
    monkeypatch.setattr(analysis_module, "_once_per_table", lambda tables, make: once(
        tables, lambda i, t: decided.append(i) or make(i, t)))
    p, alpha = HALF, F(1, 8)  # pairs and triples are pivotal, single players are not
    verdicts = analysis_module._pivotal_groups(sums, p, alpha)
    assert decided == [0, 1, 5]  # the first group of each size
    assert verdicts == [len(T) > 1 for T in groups]
    assert verdicts == [pivotal_set(f, d, T, p, alpha) for T in groups]
    assert verdicts == [brute_set_deviating_mass(f, d, T, alpha) > p for T in groups]
    decided.clear()
    assert elimination_set(f, d, 3, p, alpha).family == ((0, 1), (2, 3))
    assert len(decided) == 3  # subsets of 1, 2 and 3 players


@pytest.mark.parametrize("groups, message", [
    ([(0,), ()], "non-empty"),
    ([(0, 3), (1, 1)], r"^player index must be in 0\.\.2, got 3$"),
    ([(1, 1), (-1,)], r"^player index must be in 0\.\.2, got -1$"),
], ids=["groups0-non-empty", "groups1-out of range", "groups2-out of range"])
def test_symmetric_path_validates_groups_first(groups, message):
    with pytest.raises(DistributionError, match=message):
        majp_dist(3, HALF).sums(groups, MajPFn(3))


@pytest.mark.parametrize("groups, message", [
    ([(5,), ()], r"^player index must be in 0\.\.2, got 5$"),  # before the later empty group
    ([(0,), (), (7,)], r"^player group must be non-empty$"),
    ([(1,), 3, (9,)], r"^player group must be a sequence, got 3$"),
    ([(0, 1.0)], r"^player index must be an int, got 1\.0$"),
    ([(1,), (2, "a"), (9,)], r"^player index must be an int, got 'a'$"),
    ([(2, 7), (9,)], r"^player index must be in 0\.\.2, got 7$"),
    ([(0, [1])], r"^player index must be an int, got \[1\]$"),
])
@pytest.mark.parametrize("explicit", [False, True], ids=["product", "explicit"])
def test_groups_name_the_first_bad_player(groups, message, explicit):
    # Valid groups are cleared in one pass; a failure names what a walk of
    # the groups in order meets first.
    d = uniform_product(3).to_explicit() if explicit else uniform_product(3)
    with pytest.raises(DistributionError, match=message):
        d.sums(groups)


def test_groups_store_plain_int_players():
    d = uniform_product(3)
    assert d.sums([(True, 2), range(3)]) == d.sums([(1, 2), (0, 1, 2)])
    assert all(type(i) is int for i in d._check_groups([(True, 2)])[0])


# ----------------------------------------------------------------------
# The grouped-sum kernel against the Fraction oracle


def _assert_matches_oracle(d, groups, f):
    # Equal mappings: the law's and the tables' insertion order carries no meaning.
    got = d.sums(groups, f)
    law, mean, tables = brute_grouped_sums(f, d, groups)
    assert got.law == law
    assert got.mean == mean
    assert list(got.tables) == tables


@st.composite
def kernel_cases(draw):
    """A space, a function on its support and player groups.

    Spaces are products with equal or unequal rows (zero weights allowed),
    or explicit supports on part of the grid whose weights take few values
    (weight classes) or are all distinct (the set-bit scan). Functions are
    None, a table on the support with few or many distinct values, so the
    f-weighted masses take either branch too, a closure, or MajPFn. Groups
    may name a player twice, and the last one names every player.
    """
    alphabet = draw(st.sampled_from([BINARY, PARTICIPATION]))
    m = len(alphabet)
    n = draw(st.integers(1, 5 if m == 2 else 4))
    grid = list(itertools.product(range(m), repeat=n))
    kind = draw(st.sampled_from(["equal-rows", "unequal-rows", "few-weights", "distinct-weights"]))
    if kind.endswith("rows"):
        row = st.lists(st.integers(0, 3), min_size=m, max_size=m).filter(any)
        rows = [draw(row)] * n if kind == "equal-rows" else [draw(row) for _ in range(n)]
        d = ProductDist(alphabet, n, [tuple(F(v, sum(r)) for v in r) for r in rows])
    else:
        weight = st.integers(0, 2) if kind == "few-weights" else st.integers(0, 10 ** 6)
        raw = draw(st.lists(weight, min_size=len(grid), max_size=len(grid)).filter(any))
        d = ExplicitDist(alphabet, n, [(x, F(w, sum(raw))) for x, w in zip(grid, raw) if w])
    points = [x for x, _ in d.items()]
    fkind = draw(st.sampled_from(["none", "few-values", "many-values",
                                  "closure" if m == 2 else "majp"]))
    if fkind == "none":
        f = None
    elif fkind.endswith("values"):
        values = st.sampled_from([F(0), F(1), F(-1, 2)]) if fkind == "few-values" else mixed_values
        f = PartialTable(alphabet, n, {x: draw(values) for x in points})
    elif fkind == "closure":
        f = UpwardClosure(n, draw(st.lists(st.sampled_from(grid), max_size=3)))
    else:
        f = MajPFn(n)
    groups = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=3).map(tuple),
                           max_size=4))
    return d, groups + [tuple(range(n))], f


@settings(max_examples=200, deadline=None)
@given(kernel_cases())
def test_grouped_sums_match_oracle(case):
    _assert_matches_oracle(*case)


_ROWS = [(HALF, QUARTER, QUARTER), (F(2, 3), F(1, 6), F(1, 6))]


def _spread_weights(n, m, seed, classes):
    # The whole m^n grid, weights drawn from `classes` values (None: all distinct).
    rng = random.Random(seed)
    grid = list(itertools.product(range(m), repeat=n))
    raw = (rng.sample(range(1, 10 ** 9), len(grid)) if classes is None
           else [rng.randint(1, classes) for _ in grid])
    return [(x, F(w, sum(raw))) for x, w in zip(grid, raw)]


@pytest.mark.parametrize("d, f, weighed_by_class", [
    (ProductDist(PARTICIPATION, 7, _ROWS * 3 + [(F(0), HALF, HALF)]), MajPFn(7), True),
    (ExplicitDist(PARTICIPATION, 7, _spread_weights(7, 3, 1, None)),
     PartialTable(PARTICIPATION, 7, {x: F(j % 7 - 3, 3) for j, x in
                                     enumerate(itertools.product(range(3), repeat=7))}), False),
    # Whole values in the first window and thirds after it, so the f-sums
    # already taken move onto a larger common denominator.
    (ExplicitDist(BINARY, 11, _spread_weights(11, 2, 2, 3)),
     DenseTable(BINARY, 11, {x: F(sum(x) % 2) if j < 1024 else F(j % 5 - 2, 3) for j, x in
                             enumerate(itertools.product(range(2), repeat=11))}), True),
], ids=["product-unequal-rows", "explicit-distinct-weights", "explicit-three-weights"])
def test_grouped_sums_match_oracle_across_windows(d, f, weighed_by_class):
    # More points than one window holds, so every table is summed window by window.
    n = d.n
    assert len(list(d.items())) > dist_module._WINDOW
    assert bool(next(d._windows()[1])[1].classes) == weighed_by_class
    groups = [(i,) for i in range(n)] + [(n - 1, 0), (3, 3), (1, 2, 4), tuple(range(n))]
    _assert_matches_oracle(d, groups, f)
    _assert_matches_oracle(d, groups[:2], None)


def _wide_space(seed, size, rows):
    """An explicit support of `size` points over a 300-symbol alphabet.

    Past 256 symbols the kernel codes each point's symbol as a character,
    not a byte. Player j shows one of rows[j] symbols, and each point weighs
    1, 2 or 3 parts, so the points fall into weight classes.
    """
    rng = random.Random(seed)
    points = rng.sample(list(itertools.product(*map(range, rows))), size)
    raw = [rng.choice((1, 2, 3)) for _ in points]
    alphabet = Alphabet(tuple(map(str, range(300))))
    return ExplicitDist(alphabet, len(rows), [(x, F(w, sum(raw))) for x, w in zip(points, raw)])


def test_grouped_sums_past_256_symbols_match_oracle():
    d = _wide_space(300, 2000, (300, 300, 3))
    f = PartialTable(d.alphabet, 3, {x: F(j % 401 - 200, 200)  # 401 distinct values
                                     for j, (x, _) in enumerate(d.items())})
    groups = [(0,), (1,), (2,), (0, 1), (2, 0)]
    _assert_matches_oracle(d, groups, f)
    _assert_matches_oracle(d, groups, None)


def test_kwise_past_256_symbols_matches_oracle():
    d = _wide_space(256, 300, (300, 300))
    assert d.single_marginal(1) == tuple(brute_event_mass(d, {1: s}) for s in range(300))
    _assert_kwise_matches_brute_force(d, 2)
    assert not d.check_kwise(2).ok


class _FreshValues(PlayerFunction):
    """A new Fraction object on every call, so equal values never share an object.

    Over two windows the first window's objects are freed before the second
    is evaluated, and their ids are free to be reused by new values.
    """

    def __init__(self, alphabet, n):
        self.alphabet, self.n = alphabet, n

    def evaluate(self, x):
        return F(sum(x) % 3 - 1, 2)


def _grid(m, n):
    return list(itertools.product(range(m), repeat=n))


@st.composite
def positional_cases(draw):
    """A space, a function and player groups for the grid-position read of a dense table.

    Full explicit grids and products whose rows give every symbol positive
    weight are slices of the m^n grid, which a DenseTable reads by
    position; a product with a zero-weight symbol and a partial explicit
    support are not, so f is evaluated. Values come from a few shared
    objects, from equal but distinct objects (``F(getrandbits(1))`` per
    entry), or from more distinct values than the table keeps by position.
    """
    kind = draw(st.sampled_from(["explicit-grid", "product", "product-zero-weight",
                                 "partial-support", "ternary", "binary-11", "product-11",
                                 "fresh-11"]))
    m = 3 if kind == "ternary" else 2
    n = 11 if kind.endswith("11") else draw(st.integers(1, 4 if m == 3 else 6))
    grid = _grid(m, n)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    alphabet = PARTICIPATION if m == 3 else BINARY
    if kind.startswith("product"):
        rows = [[rng.randint(1, 3) for _ in range(m)] for _ in range(n)]
        if kind == "product-zero-weight":
            rows[rng.randrange(n)][rng.randrange(m)] = 0
        d = ProductDist(alphabet, n, [tuple(F(w, sum(r)) for w in r) for r in rows])
    else:
        points = grid
        if kind == "partial-support":  # at least one grid point is left out
            drop = rng.randrange(len(grid))
            points = [x for j, x in enumerate(grid) if j != drop and rng.random() < 0.7]
            points = points or [grid[drop - 1]]
        raw = [rng.randint(1, 3) for _ in points]
        d = ExplicitDist(alphabet, n, [(x, F(w, sum(raw))) for x, w in zip(points, raw)])
    values = draw(st.sampled_from(["shared", "equal-distinct", "many"]))
    if kind == "fresh-11":
        f = _FreshValues(alphabet, n)
    elif values == "shared":
        shared = [F(0), F(1), F(-1, 3)]
        f = DenseTable(alphabet, n, {x: rng.choice(shared) for x in grid})
    elif values == "equal-distinct":
        f = DenseTable(alphabet, n, {x: F(rng.getrandbits(1)) for x in grid})
    else:
        f = DenseTable(alphabet, n, {x: F(j % 40 - 20, 20) for j, x in enumerate(grid)})
    # At n = 11 the oracle's Fraction walk is the cost: three groups only.
    groups = [(0,), (n - 1, 0)] + ([(i,) for i in range(1, n)] + [tuple(range(n))]
                                   if n <= 6 else [(5,)])
    return kind, d, groups, f


@settings(max_examples=60, deadline=None)
@given(positional_cases())
def test_grouped_sums_by_grid_position_match_oracle(case):
    kind, d, groups, f = case
    # Every window of a grid slice has a grid position; no other window has one.
    off_grid = kind in ("product-zero-weight", "partial-support")
    assert {offset is None for _, _, offset in d._windows()[1]} == {off_grid}
    _assert_matches_oracle(d, groups, f)


def test_dense_table_of_another_shape_is_evaluated():
    # A ternary table on the binary grid: its positions are not the grid's,
    # so the kernel evaluates it instead of reading its codes by position.
    f = DenseTable(PARTICIPATION, 3, {x: F(x[2] == 1) for x in _grid(3, 3)})
    d = uniform_product(3)
    for space in (d, d.to_explicit()):
        _assert_matches_oracle(space, [(0,), (2, 1)], f)


def test_sums_move_onto_a_later_windows_denominator():
    # Values 0 and 1 fill the first 1,024-point window; 1/3 first appears at
    # grid index 1500, in the second, so the f-sums so far move onto lcm 3.
    f = PartialTable(BINARY, 11, {x: F(1, 3) if j == 1500 else F(j % 2)
                                  for j, x in enumerate(_grid(2, 11))})
    d = uniform_product(11)
    for space in (d, d.to_explicit()):
        _assert_matches_oracle(space, [(0,), (10, 0)], f)


def test_dense_table_keeps_its_values_by_grid_position():
    grid = _grid(2, 3)
    f = DenseTable(BINARY, 3, {x: F(x[2]) for x in grid})  # the last player fastest
    values, bits, codes = f._grid_values
    assert [values[c] for c in codes] == [f.evaluate(x) for x in grid]
    assert bits == [int("01" * 4, 2), int("10" * 4, 2)]
    many = DenseTable(BINARY, 3, {x: F(j, 8) for j, x in enumerate(grid)})
    assert many._grid_values is None  # 8 values, more than the 4 bits of 8 entries


def test_dense_tables_on_the_grid_are_read_without_evaluate(monkeypatch):
    # A DenseTable inherits PartialTable.evaluate, so one wrapper counts both.
    calls = []
    evaluate = PartialTable.evaluate
    monkeypatch.setattr(PartialTable, "evaluate", lambda f, x: calls.append(x) or evaluate(f, x))
    grid = _grid(2, 10)
    rng = random.Random(10)
    pairs = [(x, F(rng.getrandbits(1))) for x in grid]
    dense, partial = DenseTable(BINARY, 10, pairs), PartialTable(BINARY, 10, pairs)
    product = uniform_product(10)
    for d in (product, product.to_explicit()):
        assert effect_report(dense, d) == effect_report(partial, d)
        assert len(calls) == len(grid)  # the PartialTable's evaluations only
        calls.clear()


@pytest.mark.parametrize("alphabet, rows", [
    (BINARY, [(HALF, HALF), (F(1, 3), F(2, 3))] * 5 + [(QUARTER, F(3, 4))]),  # 2 windows
    (PARTICIPATION, _ROWS * 3 + [(F(0), HALF, HALF)]),  # off the grid: a zero weight
], ids=["binary-grid-11", "ternary-zero-weight-7"])
def test_product_keeps_its_tail_across_calls(alphabet, rows):
    # One shared product, read with alternating functions and groups, gives
    # the tables of a fresh product and of its explicit expansion each time,
    # and builds its tail's bitsets once.
    n = len(rows)
    d, explicit = ProductDist(alphabet, n, rows), ProductDist(alphabet, n, rows).to_explicit()
    rng = random.Random(n)
    dense = DenseTable(alphabet, n, {x: F(rng.randrange(3), 2) for x in _grid(len(alphabet), n)})
    calls = [(dense, [(0,), (n - 1, 0)]), (_FreshValues(alphabet, n), [tuple(range(n))]),
             (None, [(3, 3), (1, 2, 4)]), (dense, []), (None, [(0,), (n - 1, 0)]),
             (_FreshValues(alphabet, n), [(2,), (5, 1)])]
    tail = None
    for f, groups in calls:
        got = d.sums(groups, f)
        tail = tail or d._tail
        assert tail is not None and d._tail is tail  # built by the first call, not again
        for want in (ProductDist(alphabet, n, rows).sums(groups, f), explicit.sums(groups, f)):
            assert (got.law, got.mean, list(got.tables)) == (want.law, want.mean,
                                                             list(want.tables))


@pytest.mark.parametrize("q_dev, q_other, k", [
    ([1, 2, 0], [0, 0, 3], 4),  # Q_D of two terms, Q_N of one: the upward order divides by Q_N
    ([0, 5], [2, 0], 6),
    ([1, 1, 1], [0, 2, 0], 3),
    ([3, 0, 1], [0, 1, 0], 5),
])
def test_both_step_orders_give_equal_class_polynomials(q_dev, q_other, k):
    length = k * (len(q_dev) - 1) + 1
    down = dict(dist_module._by_deviation_count(q_dev, q_other, k, length, False))
    up = dict(dist_module._by_deviation_count(q_dev, q_other, k, length, True))
    assert down == up
    for c, a in up.items():
        assert a == dist_module._times(_power(q_dev, c), _power(q_other, k - c))


class _Index:
    def __index__(self):
        return 1


@pytest.mark.parametrize("second, m, ok", [
    ((1.0, 0), 2, False),
    ((True, 0), 2, True),
    ((F(1), 0), 2, False),
    ((-1, 0), 2, False),
    ((0, 2), 2, False),
    ((256, 0), 300, True),
    ((300, 0), 300, False),
    (("a", 0), 2, False),
    ((None, 0), 2, False),
    ((_Index(), 0), 2, False),
    ((0,), 2, False),
    ((0, 1, 0), 2, False),
], ids=["float-after-int", "bool", "fraction-after-int", "negative", "m", "256-of-300",
        "300-of-300", "str", "none", "__index__", "short", "long"])
def test_outcome_rule_verdicts(second, m, ok):
    # The second outcome follows (1, 0), so a 1.0 or Fraction(1) equals a symbol seen before.
    outcomes = [(1, 0), second]
    assert dist_module.first_bad_outcome(outcomes, 2, m) is (None if ok else second)


def test_product_sums_keep_nothing():
    d = ProductDist(PARTICIPATION, 10, _ROWS * 5)
    groups, f = [(0,), (9, 1), (2, 2)], MajPFn(10)
    want = d.sums(groups, f)  # any first-call cache is filled here
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        got = d.sums(groups, f)
        retained, peak = (m - before for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert got == want
    # The result alone is retained, and the 59,049 grid points are held one
    # window at a time: a bitset, weight or code per point would take MiBs.
    assert retained < 64 * 1024, retained
    assert peak < 512 * 1024, peak


@pytest.mark.parametrize("d", [ProductDist(PARTICIPATION, 4, _ROWS * 2), mixture_D(3)],
                         ids=["product", "explicit"])
def test_first_undefined_point_in_support_order_is_named(d):
    points = [x for x, _ in d.items()]
    undefined = {points[-1], points[5], points[2]}
    f = PartialTable(d.alphabet, d.n, {x: F(0) for x in points if x not in undefined})
    with pytest.raises(UndefinedPointError, match=re.escape(f"undefined at {points[2]}")):
        d.sums([(0,), (1, 2)], f)


def test_condition_then_expectation_matches_restriction(even_parity3):
    """Exhaustive at n = 3 over all positive-probability partial assignments."""
    f = MajorityFn(3)
    d = even_parity3
    for size in (1, 2, 3):
        for T in itertools.combinations(range(3), size):
            for a in itertools.product((0, 1), repeat=size):
                assignment = dict(zip(T, a))
                if brute_event_mass(d, assignment) == 0:
                    with pytest.raises(NullConditionError):
                        d.condition(assignment)
                    continue
                got = d.condition(assignment).expectation(f)
                assert got == brute_conditional(f, d, assignment)


def test_condition_then_expectation_on_product_n4():
    rng = random.Random(4)
    rows = []
    for _ in range(4):
        raw = [rng.randint(1, 3) for _ in range(2)]
        rows.append(tuple(F(v, sum(raw)) for v in raw))
    d = ProductDist(BINARY, 4, rows)
    f = ParityFn(4)
    for size in (1, 2):
        for T in itertools.combinations(range(4), size):
            for a in itertools.product((0, 1), repeat=size):
                assignment = dict(zip(T, a))
                got = d.condition(assignment).expectation(f)
                assert got == brute_conditional(f, d, assignment)


def test_mixture_of_pairwise_independent_with_equal_marginals_is_pairwise():
    from pivotal import complement_mu, hadamard_mu, uniform_product

    for k in (2, 3):
        mu = hadamard_mu(k)
        pairs = [
            (mu, complement_mu(mu)),
            (mu, uniform_product(mu.n).to_explicit()),
        ]
        for d1, d2 in pairs:
            for q in (F(1, 3), HALF, F(7, 9)):
                assert mixture(d1, d2, q).check_kwise(2).ok


def test_expectation_agrees_with_brute_force(even_parity3):
    f = MajorityFn(3)
    assert even_parity3.expectation(f) == brute_expectation(f, even_parity3)
