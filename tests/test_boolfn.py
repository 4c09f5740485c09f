"""Player functions, monotonicity machinery, and the certified counterexamples."""

import hashlib
import inspect
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pivotal import (
    BINARY,
    PARTICIPATION,
    CertificateError,
    ConstantFn,
    DenseTable,
    DictatorFn,
    MajorityFn,
    MajPFn,
    ParityFn,
    PartialTable,
    PivotalError,
    PreconditionError,
    UndefinedPointError,
    UpwardClosure,
    ZeroCountFn,
    effect_counterexample,
    complement_mu,
    hadamard_mu,
    influence_counterexample,
    majp_dist,
    monotone_check,
    monotone_extend,
    pivotal_report,
)
from pivotal.boolfn import mask_to_outcome, outcome_to_mask

from oracles import (
    brute_closure_value,
    brute_expectation,
    brute_influence,
    brute_mask_to_outcome,
    brute_minimal_generators,
    brute_outcome_to_mask,
    brute_signed_effect,
)

F = Fraction


class TestEvaluate:
    def test_majority(self):
        f = MajorityFn(3)
        assert f.evaluate((1, 0, 1)) == 1
        assert f.evaluate((0, 0, 1)) == 0

    def test_parity(self):
        f = ParityFn(3)
        assert f.evaluate((1, 1, 0)) == 0
        assert f.evaluate((1, 0, 0)) == 1

    def test_dictator(self):
        f = DictatorFn(3, 0)
        assert f.evaluate((1, 0, 0)) == 1
        assert f.evaluate((0, 1, 1)) == 0

    def test_dictator_off_the_binary_alphabet(self):
        # The abstain symbol 2 is not a 1, so it evaluates to 0, inside [-1, 1].
        f = DictatorFn(3, 0)
        assert [f.evaluate((s, 1, 1)) for s in (0, 1, 2)] == [0, 1, 0]
        d = majp_dist(3, F(1, 2))
        assert pivotal_report(f, d, F(1, 4), F(1, 8)).expectation == F(1, 4)
        assert brute_expectation(f, d) == F(1, 4)

    def test_constant(self):
        assert ConstantFn(2, F(1, 2)).evaluate((0, 1)) == F(1, 2)

    def test_wrong_arity(self):
        with pytest.raises(PivotalError):
            MajorityFn(3).evaluate((1, 0))

    def test_dense_table_must_cover_grid(self):
        with pytest.raises(PivotalError, match="grid"):
            DenseTable(BINARY, 2, {(0, 0): F(0)})

    def test_empty_dense_table_rejected_before_sizing_the_grid(self):
        with pytest.raises(PivotalError, match="no entries"):
            DenseTable(BINARY, 10**6, {})

    def test_dense_table_value_range(self):
        with pytest.raises(PivotalError, match="outside"):
            DenseTable(BINARY, 1, {(0,): F(2), (1,): F(0)})

    @pytest.mark.parametrize("values, message", [
        ({(0, 1): F(2), (1, 1): F(1), (0, 0): F(0)}, r"value 2 at \(0, 1\) outside"),
        ({(1, 0): F(3), (0, 2): F(0)}, r"invalid outcome \(0, 2\)"),
        ({(1,): F(0), (0, 0): F(-3)}, r"value -3 at \(0, 0\) outside"),
        ({(1, 1): F(1, 2), (0, 1, 0): F(5)}, r"invalid outcome \(0, 1, 0\)"),
        ({(0, 0): F(1), (1, -1): F(0)}, r"invalid outcome \(1, -1\)"),
        ({(0, 0.5): F(0)}, r"invalid outcome \(0, 0.5\)"),
        # 1.0 == 1, so only the symbols' types tell this entry apart.
        ({(0, 1): F(0), (1.0, 0): F(1)}, r"invalid outcome \(1.0, 0\)"),
    ], ids=["value", "symbol", "value-before-length", "length-before-value", "negative",
            "half", "float-one"])
    def test_table_names_first_bad_entry(self, values, message):
        # Entries are checked in sorted order; the first bad one is named.
        with pytest.raises(PivotalError, match=message):
            PartialTable(BINARY, 2, values)

    @pytest.mark.parametrize("call, message", [
        (lambda: PartialTable(BINARY, 1, [((0,), F(0)), ((0,), F(1))]),
         "outcome mapped twice in table"),
        (lambda: UpwardClosure(2, [(1, 0)]).evaluate((2, 0)),
         "non-binary outcome (2, 0) for an upward closure"),
        (lambda: monotone_extend(PartialTable(PARTICIPATION, 1, {(0,): F(0)})),
         "monotone extension is defined for the binary alphabet only"),
    ], ids=["table-outcome-twice", "closure-non-binary", "extend-participation"])
    def test_refusal_names_its_fault(self, call, message):
        with pytest.raises(PivotalError) as info:
            call()
        assert str(info.value) == message

    def test_partial_table_undefined_point(self):
        pt = PartialTable(BINARY, 2, {(0, 0): F(1)})
        assert pt.evaluate((0, 0)) == 1
        with pytest.raises(UndefinedPointError):
            pt.evaluate((1, 1))


class _Index:
    """A symbol that converts to an int by __index__ but is not one."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value

    def __repr__(self):
        return f"_Index({self.value})"


def _forms(pairs, dict_form=True):
    """The same (outcome, value) pairs in grid order and in the other forms a table accepts."""
    shuffled = list(pairs)
    random.Random(len(pairs)).shuffle(shuffled)
    forms = {"grid": list(pairs), "shuffled": shuffled, "reversed": pairs[::-1],
             "generator": (pair for pair in pairs),
             "int-values": [(x, int(v) if v.denominator == 1 else v) for x, v in pairs]}
    if dict_form:  # a dict cannot hold an outcome twice
        forms["dict"] = dict(pairs)
    return forms


def _build(cls, alphabet, n, values):
    try:
        return cls(alphabet, n, values)
    except PivotalError as exc:
        return type(exc), str(exc)


def _first_symbol_one_as(symbol):
    """The pairs with the first outcome that starts with 1 starting with symbol instead."""
    def spoil(pairs):
        j = next(j for j, (x, _) in enumerate(pairs) if x[0] == 1)
        return pairs[:j] + [((symbol,) + pairs[j][0][1:], pairs[j][1])] + pairs[j + 1:]
    return spoil


# A fault put into grid-order pairs: (name, how the pairs change, whether a dict can hold them).
_FAULTS = [
    ("float-symbol", _first_symbol_one_as(1.0), True),
    ("index-symbol", _first_symbol_one_as(_Index(1)), True),
    ("out-of-range", lambda pairs: pairs + [((3,) + pairs[0][0][1:], F(0))], True),
    ("three-halves", lambda pairs: pairs[:1] + [(pairs[1][0], F(3, 2))] + pairs[2:], True),
    ("duplicate", lambda pairs: pairs + [pairs[0]], False),
    ("missing", lambda pairs: pairs[1:], True),
]


class TestTableForms:
    """A table given its grid in order is checked by whole-list passes; other forms agree."""

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([BINARY, PARTICIPATION]), st.integers(1, 4), st.data())
    def test_grid_order_and_other_forms_build_one_table(self, alphabet, n, data):
        grid = list(itertools.product(range(len(alphabet)), repeat=n))
        values = st.sampled_from([F(-1), F(0), F(1), F(1, 2), F(-2, 3)])
        pairs = [(x, data.draw(values)) for x in grid]
        floated = tuple(map(float, grid[-1]))  # the key dict answers 1.0 as 1
        for cls in (DenseTable, PartialTable):
            want = cls(alphabet, n, pairs)
            for name, form in _forms(pairs).items():
                f = cls(alphabet, n, form)
                assert f.entries == want.entries, name
                assert getattr(f, "_grid_values", None) == getattr(want, "_grid_values", None)
                if cls is DenseTable:
                    assert f == want and hash(f) == hash(want), name
                if name == "grid":  # no key dict until the first evaluate builds it
                    assert f._lookup is None
                assert [f.evaluate(x) for x in grid + [floated]] == [
                    v for _, v in pairs] + [pairs[-1][1]], name
                assert f._lookup is not None

    def test_bool_symbols_stay_accepted(self):
        pairs = [((bool(a), b), F(a ^ b)) for a in (0, 1) for b in (0, 1)]
        for form in _forms(pairs).values():
            f = DenseTable(BINARY, 2, form)
            assert f.entries == tuple(pairs)
            assert f.evaluate((1, 0)) == 1

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([BINARY, PARTICIPATION]), st.integers(1, 3),
           st.sampled_from(_FAULTS))
    def test_a_fault_is_named_alike_in_every_form(self, alphabet, n, fault):
        # One fault in otherwise grid-order pairs: every form raises the same
        # error with the same text (a missing point only fails a dense table).
        name, spoil, dict_form = fault
        grid = itertools.product(range(len(alphabet)), repeat=n)
        pairs = spoil([(x, F(j % 3 - 1)) for j, x in enumerate(grid)])
        for cls in (DenseTable, PartialTable):
            results = {form: _build(cls, alphabet, n, values)
                       for form, values in _forms(pairs, dict_form).items()}
            want = results.pop("grid")
            if cls is PartialTable and name == "missing":  # a valid partial table
                assert all(f.entries == want.entries for f in results.values())
                continue
            assert isinstance(want, tuple) and want[0] is PivotalError, want
            assert results == dict.fromkeys(results, want), name


class TestMajP:
    def test_single_participant_wins(self):
        assert MajPFn(3).evaluate((1, 2, 2)) == 1

    def test_tie_breaks_to_zero(self):
        assert MajPFn(3).evaluate((1, 0, 2)) == 0

    def test_zero_majority(self):
        assert MajPFn(3).evaluate((0, 0, 1)) == 0

    def test_all_abstain(self):
        assert MajPFn(3).evaluate((2, 2, 2)) == 0

    def test_vote_flip_never_decreases(self):
        # Flipping a participant's 0 to 1, participation fixed, is monotone.
        f = MajPFn(4)
        for x in itertools.product((0, 1, 2), repeat=4):
            vx = f.evaluate(x)
            for i, s in enumerate(x):
                if s == 0:
                    y = x[:i] + (1,) + x[i + 1:]
                    assert f.evaluate(y) >= vx


# ----------------------------------------------------------------------
# Functions of a score total: product distributions with identical rows
# never evaluate them, so their evaluate must not see player order.


def _order_witness(f, rng):
    """An outcome x whose value changes under some shuffle, on either alphabet, or None."""
    for m in (2, 3):  # BINARY, PARTICIPATION
        for _ in range(40):
            x = [rng.randrange(m) for _ in range(f.n)]
            y = rng.sample(x, len(x))
            if f.evaluate(tuple(x)) != f.evaluate(tuple(y)):
                return tuple(x)
    return None


def test_symmetric_opt_ins_ignore_player_order():
    # The opt-ins are the StatisticFn builtins; the set is pinned.
    import pivotal.boolfn as boolfn
    statistic = {name for name, cls in inspect.getmembers(boolfn, inspect.isclass)
                 if issubclass(cls, boolfn.StatisticFn) and cls is not boolfn.StatisticFn}
    assert statistic == {"MajPFn", "MajorityFn", "ParityFn", "ConstantFn", "ZeroCountFn"}
    rng = random.Random(6)
    for n in range(2, 8):
        zeros = ZeroCountFn(n, tuple(Fraction(z % 3 - 1, 2) for z in range(n + 1)))
        for f in (MajPFn(n), MajorityFn(n), ParityFn(n), ConstantFn(n, Fraction(-1, 3)), zeros):
            assert _order_witness(f, rng) is None, f


def test_zero_count_values():
    half = F(1, 2)
    f = ZeroCountFn(3, (F(1), half, F(0), F(-1)))
    assert [f.evaluate(x) for x in ((1, 1, 1), (0, 1, 1), (1, 0, 0), (0, 0, 0))] == [1, half, 0, -1]
    with pytest.raises(PivotalError, match="3 values for 4 zero counts"):
        ZeroCountFn(3, (F(1), half, F(0)))
    with pytest.raises(PivotalError, match=r"value 2 at 1 zeros outside \[-1, 1\]"):
        ZeroCountFn(1, (F(0), F(2)))


def test_order_witness_catches_a_dictator():
    # The guard above would reject DictatorFn, were it ever made a StatisticFn.
    import pivotal.boolfn as boolfn
    assert not issubclass(DictatorFn, boolfn.StatisticFn)
    assert _order_witness(DictatorFn(3, 1), random.Random(6)) is not None


class TestMonotoneCheck:
    def test_majority_is_monotone(self):
        assert monotone_check(MajorityFn(3)).ok
        assert monotone_check(MajorityFn(3))  # a result is true when it holds

    def test_parity_witness(self):
        res = monotone_check(ParityFn(2))
        assert not res.ok
        assert not res
        x, i = res.witness
        f = ParityFn(2)
        raised = list(x)
        raised[i] = 1
        assert f.evaluate(x) > f.evaluate(tuple(raised))

    def test_upward_closures_are_monotone(self):
        f = UpwardClosure(4, [(0, 1, 1, 0), (1, 0, 0, 1)])
        assert monotone_check(f).ok

    def test_rejects_nonbinary(self):
        with pytest.raises(PivotalError):
            monotone_check(MajPFn(3))


class TestUpwardClosure:
    def test_generators_minimized_and_sorted(self):
        f = UpwardClosure(3, [(1, 1, 1), (1, 0, 0), (1, 1, 0)])
        assert f.generator_outcomes() == ((1, 0, 0),)

    def test_empty_generators_is_constant_zero(self):
        f = UpwardClosure(2, [])
        assert all(f.evaluate(x) == 0 for x in itertools.product((0, 1), repeat=2))

    def test_zero_generator_is_constant_one(self):
        f = UpwardClosure(2, [(0, 0)])
        assert all(f.evaluate(x) == 1 for x in itertools.product((0, 1), repeat=2))

    @pytest.mark.parametrize("generator", [(1.0, 0), (0, F(1)), (0, 2), (1,)],
                             ids=["float-one", "whole-fraction", "two", "short"])
    def test_generator_must_be_an_integer_bit_vector(self, generator):
        with pytest.raises(PivotalError, match=r"is not a length-2 bit vector"):
            UpwardClosure(2, [(0, 1), generator])

    @settings(max_examples=80, deadline=None)
    @given(st.integers(2, 7), st.data())
    def test_random_closures_pass_monotone_check(self, n, data):
        gens = data.draw(st.lists(
            st.tuples(*([st.integers(0, 1)] * n)), max_size=5))
        assert monotone_check(UpwardClosure(n, gens)).ok

    def test_mask_roundtrip(self):
        for n in (1, 3, 6):
            for m in range(1 << n):
                assert outcome_to_mask(mask_to_outcome(m, n)) == m

    @settings(max_examples=300, deadline=None)
    @given(st.integers(-(1 << 80), 1 << 80), st.integers(-2, 80), st.lists(st.one_of(
        st.integers(-2, 300), st.booleans(), st.none(), st.sampled_from(["", "a", 0.0, 0.5, F(0)])),
        max_size=70), st.sampled_from([tuple, list, iter]))
    def test_mask_conversions_match_bit_loops(self, mask, n, symbols, container):
        # Low n bits of any mask, negative ones included, and n <= 0 gives ().
        assert mask_to_outcome(mask, n) == brute_mask_to_outcome(mask, n)
        # Any truthy symbol sets its bit, in any sequence or one-shot iterator.
        assert outcome_to_mask(container(symbols)) == brute_outcome_to_mask(symbols)

    def test_from_masks_accepts_one_shot_iterator(self):
        assert UpwardClosure.from_masks(3, (m for m in [3, 5])).generators == (3, 5)
        with pytest.raises(PivotalError, match=r"^generator mask must be in 0\.\.7, got 8$"):
            UpwardClosure.from_masks(3, (m for m in [3, 8]))

    @pytest.mark.parametrize("masks, bad", [
        ([9, 20, -2, 8, 1, -1], -2),  # the smallest mask, below 0
        ([20, 9, 1, 8, 3], 8),  # the first mask past 7
        ([7, 0, 64, 1 << 40], 64),
    ])
    def test_from_masks_names_the_smallest_bad_mask(self, masks, bad):
        with pytest.raises(PivotalError, match=rf"^generator mask must be in 0\.\.7, got {bad}$"):
            UpwardClosure.from_masks(3, iter(masks))

    def test_from_masks_checks_each_type(self):
        with pytest.raises(PivotalError, match=r"^generator mask must be an int, got 2\.0$"):
            UpwardClosure.from_masks(3, [1, 2.0, 9])

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 20), st.data())
    def test_closure_matches_pairwise_oracle(self, n, data):
        # n past 8 spreads the coordinates over two or three byte tables.
        top = (1 << n) - 1
        masks = data.draw(st.lists(st.integers(0, top), max_size=12))
        masks += data.draw(st.lists(st.sampled_from(masks), max_size=4) if masks
                           else st.just([]))  # repeats
        f = UpwardClosure.from_masks(n, (m for m in masks))
        oracle = brute_minimal_generators(masks)
        assert f.generators == oracle
        assert UpwardClosure(n, [mask_to_outcome(m, n) for m in masks]) == f
        if n <= 8:
            queries = list(range(1 << n))
        else:
            queries = data.draw(st.lists(st.integers(0, top), max_size=40))
            if masks:  # points just above and just below the generators
                near = st.tuples(st.sampled_from(masks), st.integers(0, top), st.integers(0, n - 1))
                for g, extra, j in data.draw(st.lists(near, max_size=40)):
                    queries += [g | extra, g & ~(1 << j)]
        # Only the low n bits count: negative masks and bits past n.
        queries += data.draw(st.lists(st.integers(-(1 << (n + 3)), -1)
                                      | st.integers(top + 1, 1 << (n + 3)), max_size=12))
        assert [f.evaluate_mask(m) for m in queries] == [brute_closure_value(masks, m)
                                                        for m in queries]
        first = [next((i for i, g in enumerate(oracle) if g & m == g), None) for m in queries]
        assert f.first_dominated(iter(queries)) == first
        assert f.first_dominated(queries) == first  # tables reused

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 16, 17, 64])
    def test_empty_and_full_closures(self, n):
        empty, full = UpwardClosure.from_masks(n, []), UpwardClosure.from_masks(n, [0])
        queries = [0, (1 << n) - 1, -1, 1 << n, -(1 << (n + 1)), 0b1011 << n]
        assert empty.first_dominated(queries) == [None] * len(queries)
        assert full.first_dominated(queries) == [0] * len(queries)
        assert [empty.evaluate_mask(m) for m in queries] == [0] * len(queries)
        assert [full.evaluate_mask(m) for m in queries] == [1] * len(queries)
        centers = [0, (1 << n) - 1, 0b101 & (1 << n) - 1]
        ball = {c ^ (1 << j) for c in centers for j in range(n)} | set(centers)
        assert empty.first_dominated_ball(centers) == dict.fromkeys(ball, None)
        assert full.first_dominated_ball(centers) == dict.fromkeys(ball, 0)
        assert full.first_dominated_ball([]) == {}

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from([0, 1, 7, 8, 9, 16, 17, 64]), st.data())
    def test_ball_scan_matches_pointwise_scan_and_oracle(self, n, data):
        top = (1 << n) - 1
        masks = data.draw(st.lists(st.integers(0, top), max_size=12))
        f = UpwardClosure.from_masks(n, masks)
        oracle = brute_minimal_generators(masks)
        centers = data.draw(st.lists(st.integers(0, top), max_size=6))
        if masks:  # generators as centres: their balls straddle the closure's boundary
            centers += data.draw(st.lists(st.sampled_from(masks), max_size=4))
        if centers and n:  # centres one or two flips from another: overlapping balls
            coordinate = st.integers(0, n - 1)
            near = st.lists(st.tuples(st.sampled_from(centers), coordinate, coordinate), max_size=4)
            centers += [c ^ (1 << i) ^ (1 << j) for c, i, j in data.draw(near)]
        ball = sorted({c ^ (1 << j) for c in centers for j in range(n)} | set(centers))
        got = f.first_dominated_ball(iter(centers))
        assert got == dict(zip(ball, f.first_dominated(ball)))
        assert got == {m: next((i for i, g in enumerate(oracle) if g & m == g), None)
                       for m in ball}

    @pytest.mark.parametrize("centers, message", [
        ([3, 8], r"ball centre must be in 0\.\.7, got 8"),
        ([9, -2, 8, 1], r"ball centre must be in 0\.\.7, got -2"),  # the smallest is named
        ([1, 2.0, 9], r"ball centre must be an int, got 2\.0"),
        (["1"], r"ball centre must be an int, got '1'"),
    ])
    def test_ball_scan_refuses_centres_off_the_cube(self, centers, message):
        f = UpwardClosure.from_masks(3, [3, 5])
        with pytest.raises(PivotalError, match=rf"^{message}$"):
            f.first_dominated_ball(centers)


class TestMonotoneExtend:
    def test_threshold_at_top(self):
        pt = PartialTable(BINARY, 3, {(0, 0, 0): F(0), (1, 1, 1): F(1)})
        f = monotone_extend(pt)
        assert f.evaluate((1, 1, 0)) == 0
        assert f.evaluate((1, 1, 1)) == 1

    def test_closure_of_single_point(self):
        pt = PartialTable(BINARY, 2, {(0, 1): F(1), (1, 0): F(0)})
        f = monotone_extend(pt)
        assert f.evaluate((1, 1)) == 1
        assert f.evaluate((0, 0)) == 0

    def test_inconsistent_labels_name_witness(self):
        pt = PartialTable(BINARY, 2, {(0, 1): F(1), (1, 1): F(0)})
        with pytest.raises(PreconditionError) as exc:
            monotone_extend(pt)
        assert exc.value.witness == ((1, 1), (0, 1))

    def test_witness_is_first_one_labeled_entry(self):
        # The closure's lowest generator is (1, 0, 0), but the witness is the
        # first 1-labeled entry that the 0-labeled point dominates.
        pt = PartialTable(BINARY, 3, {(0, 1, 0): F(1), (1, 0, 0): F(1), (1, 1, 0): F(0)})
        assert UpwardClosure(3, [(0, 1, 0), (1, 0, 0)]).generator_outcomes()[0] == (1, 0, 0)
        with pytest.raises(PreconditionError) as exc:
            monotone_extend(pt)
        assert exc.value.witness == ((1, 1, 0), (0, 1, 0))

    def test_agrees_on_domain(self):
        pt = PartialTable(BINARY, 4, {
            (0, 0, 1, 1): F(1), (1, 1, 0, 0): F(1),
            (0, 0, 0, 1): F(0), (1, 0, 0, 0): F(0)})
        f = monotone_extend(pt)
        for x, v in pt.entries:
            assert f.evaluate(x) == v

    def test_rejects_non_binary_labels(self):
        pt = PartialTable(BINARY, 1, {(0,): F(1, 2)})
        with pytest.raises(PivotalError, match="0/1"):
            monotone_extend(pt)


class TestEffectCounterexample:
    def test_k3_certificate_and_values(self):
        f, d, cert = effect_counterexample(3)
        assert cert.ok
        n = 7
        assert f.evaluate((0,) * n) == 0
        assert f.evaluate((1,) * n) == 1
        assert d.expectation(f) == F(1, 2)
        # Constant on each mixture component kills every signed effect.
        for i in range(n):
            assert brute_signed_effect(f, d, i) == 0

    def test_k4_balanced(self):
        f, d, _ = effect_counterexample(4)
        assert brute_expectation(f, d) == F(1, 2)

    def test_requires_k_at_least_3(self):
        with pytest.raises(PreconditionError):
            effect_counterexample(2)

    def test_broken_complement_is_refused_with_a_named_pair(self, monkeypatch):
        # The base space as its own complement: the closure of its support
        # holds the base support, so the scan names a (point, generator) pair.
        from pivotal import boolfn
        monkeypatch.setattr(boolfn, "complement_mu", lambda mu: mu)
        with pytest.raises(CertificateError) as exc:
            effect_counterexample(3)
        point, gen = exc.value.violation
        assert all(g <= x for g, x in zip(gen, point))
        assert exc.value.violation == ((0,) * 7, (0,) * 7)
        assert [c.ok for c in exc.value.certificate.checks] == [False, True, False]


def _digest(generators):
    return hashlib.sha256(",".join(map(str, generators)).encode()).hexdigest()


# (builder, k) -> (generator count, sha256 of the comma-joined generator
# masks, CertCheck details). Any change to the minimization or to the
# certificate scans must leave these byte-identical.
PINNED_CERTIFICATES = {
    ("effect", 3): (7, "ae6ded0a5d9ee1268b6fe08fdd88843d01b5edaad1911d772c259f33b0337aa9",
                    ["8 points", "8 points", "expectation 1/2"]),
    ("effect", 4): (15, "8c820328d7a3cb61f09ebbab3306719ddc38b8fe0fcadb74a9133129acf9492e",
                    ["16 points", "16 points", "expectation 1/2"]),
    ("effect", 5): (31, "9ab5660b205e197e66d2801bdc2dbd9c8b0508fb6bc35a69bca8a1cc72d1a3d2",
                    ["32 points", "32 points", "expectation 1/2"]),
    ("effect", 6): (63, "bf7190abcdba2c95adf6727179b78842a86715f4c12db7cae2f82c9ee8ebab41",
                    ["64 points", "64 points", "expectation 1/2"]),
    ("influence", 4): (105, "e673551fbd2612a81d5706bda0883e8c5f00ed6d009baa356ea6881e6d1e51f5",
                       ["256 points", "256 points", "upward closure", "expectation 1/2"]),
    ("influence", 5): (465, "00749028c2dbc20e14ddc7dd2b3ad2bb4a0523555c87653a9f243a0637960e08",
                       ["1024 points", "1024 points", "upward closure", "expectation 1/2"]),
    ("influence", 6): (1953, "4aa077b3400d202b28424755ebc2bb76fe5a58dd66edfdfb0af8f91b09866021",
                       ["4096 points", "4096 points", "upward closure", "expectation 1/2"]),
    ("effect", 7): (127, "3fc824c582b396ba2f183e22381596dc50a32f53d1bc1a1648182eb3cc5be1c5",
                    ["128 points", "128 points", "expectation 1/2"]),
    ("influence", 7): (8001, "a6838151dcc5e43da57da7dadc826171b9b58ad1585b284cb8f48692655db019",
                       ["16384 points", "16384 points", "upward closure", "expectation 1/2"]),
}


@pytest.mark.parametrize("kind,k", sorted(PINNED_CERTIFICATES))
def test_certificates_pinned(kind, k):
    build = effect_counterexample if kind == "effect" else influence_counterexample
    f, _, cert = build(k)
    count, digest, details = PINNED_CERTIFICATES[kind, k]
    assert (len(f.generators), _digest(f.generators)) == (count, digest)
    assert [c.detail for c in cert.checks] == details
    assert cert.ok


class TestInfluenceCounterexample:
    def test_k4_locally_constant(self):
        f, d, cert = influence_counterexample(4)
        assert cert.ok
        for x, _ in d.items():
            fx = f.evaluate(x)
            for i in range(d.n):
                flipped = x[:i] + (1 - x[i],) + x[i + 1:]
                assert f.evaluate(flipped) == fx

    @pytest.mark.parametrize("k, count", [(4, 105), (5, 465), (6, 1953)])
    def test_generators_are_lowered_complement_vectors(self, k, count):
        # Every complement-support vector lowered by one coordinate, minimized;
        # the all-ones vector is among them, as the base holds the all-zeros string.
        bar = [outcome_to_mask(x) for x, _ in complement_mu(hadamard_mu(k)).items()]
        assert (1 << (2 ** k - 1)) - 1 in bar
        lowered = {m & ~(1 << j) for m in bar for j in range(2 ** k - 1) if m >> j & 1}
        f, _, _ = influence_counterexample(k)
        assert f.generators == brute_minimal_generators(lowered)
        assert len(f.generators) == count

    def test_k5_ball_samples_match_the_oracle(self):
        # A seeded sample of both Hamming-1 balls; the oracle closes the lowered
        # complement vectors pairwise and takes the first generator under each point.
        k, n = 5, 31
        bar = [outcome_to_mask(x) for x, _ in complement_mu(hadamard_mu(k)).items()]
        base = [outcome_to_mask(x) for x, _ in hadamard_mu(k).items()]
        lowered = {m & ~(1 << j) for m in bar for j in range(n) if m >> j & 1}
        oracle = brute_minimal_generators(lowered)
        f, _, _ = influence_counterexample(k)
        rng = random.Random(5)
        for centers, inside in ((bar, True), (base, False)):
            ball = sorted({c ^ (1 << j) for c in centers for j in range(n)} | set(centers))
            sample = rng.sample(ball, 150)
            first = [next((i for i, g in enumerate(oracle) if g & m == g), None)
                     for m in sample]
            assert f.first_dominated(sample) == first
            assert all((i is not None) == inside for i in first)
            assert [f.evaluate_mask(m) for m in sample] == [brute_closure_value(lowered, m)
                                                           for m in sample]

    def test_k4_zero_influence_everywhere(self):
        f, d, _ = influence_counterexample(4)
        assert all(brute_influence(f, d, i) == 0 for i in range(d.n))

    def test_k4_effects_also_zero(self):
        f, d, _ = influence_counterexample(4)
        assert all(brute_signed_effect(f, d, i) == 0 for i in range(d.n))

    def test_k3_fails_with_named_pair(self):
        # Below the working threshold the dominance scan must name a pair.
        with pytest.raises(CertificateError) as exc:
            influence_counterexample(3)
        point, gen = exc.value.violation
        assert len(point) == 7 and len(gen) == 7
        # The named pair really is a domination: every set bit of gen is set in point.
        assert all(g <= x for g, x in zip(gen, point))
        assert not exc.value.certificate.ok
        # The first ball point in mask order, with its first sorted generator.
        assert exc.value.violation == ((1, 1, 0, 1, 0, 0, 0), (1, 1, 0, 0, 0, 0, 0))
        assert [(c.ok, c.detail) for c in exc.value.certificate.checks] == [
            (True, "64 points"),
            (False, "point (1, 1, 0, 1, 0, 0, 0) dominates generator (1, 1, 0, 0, 0, 0, 0)"),
            (True, "upward closure"),
            (False, "expectation 15/16")]

    @pytest.mark.parametrize("k", [9, 10])
    def test_k_past_8_is_refused_before_building(self, monkeypatch, k):
        # hadamard_mu takes k up to 10, but the closure's byte tables grow
        # about 8-fold per step of k.
        from pivotal import boolfn
        monkeypatch.setattr(boolfn, "hadamard_mu", None)
        with pytest.raises(PreconditionError, match=rf"^k must be in 3\.\.8, got {k}$"):
            influence_counterexample(k)

    def test_smallest_working_k_is_4(self):
        with pytest.raises(CertificateError):
            influence_counterexample(3)
        _, _, cert = influence_counterexample(4)
        assert cert.ok
