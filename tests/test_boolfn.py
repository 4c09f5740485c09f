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
    effect_counterexample,
    influence_counterexample,
    monotone_check,
    monotone_extend,
)
from pivotal.boolfn import mask_to_outcome, outcome_to_mask

from oracles import (
    brute_closure_value,
    brute_expectation,
    brute_influence,
    brute_minimal_generators,
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

    def test_partial_table_undefined_point(self):
        pt = PartialTable(BINARY, 2, {(0, 0): F(1)})
        assert pt.evaluate((0, 0)) == 1
        with pytest.raises(UndefinedPointError):
            pt.evaluate((1, 1))


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
    assert statistic == {"MajPFn", "MajorityFn", "ParityFn", "ConstantFn"}
    rng = random.Random(6)
    for n in range(2, 8):
        for f in (MajPFn(n), MajorityFn(n), ParityFn(n), ConstantFn(n, Fraction(-1, 3))):
            assert _order_witness(f, rng) is None, f


def test_order_witness_catches_a_dictator():
    # The guard above would reject DictatorFn, were it ever made a StatisticFn.
    import pivotal.boolfn as boolfn
    assert not issubclass(DictatorFn, boolfn.StatisticFn)
    assert _order_witness(DictatorFn(3, 1), random.Random(6)) is not None


class TestMonotoneCheck:
    def test_majority_is_monotone(self):
        assert monotone_check(MajorityFn(3)).ok

    def test_parity_witness(self):
        res = monotone_check(ParityFn(2))
        assert not res.ok
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

    def test_from_masks_accepts_one_shot_iterator(self):
        assert UpwardClosure.from_masks(3, (m for m in [3, 5])).generators == (3, 5)
        with pytest.raises(PivotalError, match=r"^generator mask must be in 0\.\.7, got 8$"):
            UpwardClosure.from_masks(3, (m for m in [3, 8]))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.data())
    def test_closure_matches_pairwise_oracle(self, n, data):
        masks = data.draw(st.lists(st.integers(0, (1 << n) - 1), max_size=12))
        masks += data.draw(st.lists(st.sampled_from(masks), max_size=4) if masks
                           else st.just([]))  # repeats
        f = UpwardClosure.from_masks(n, (m for m in masks))
        oracle = brute_minimal_generators(masks)
        assert f.generators == oracle
        assert UpwardClosure(n, [mask_to_outcome(m, n) for m in masks]) == f
        cube = range(1 << n)
        assert [f.evaluate_mask(m) for m in cube] == [brute_closure_value(masks, m)
                                                     for m in cube]
        first = [next((i for i, g in enumerate(oracle) if g & m == g), None) for m in cube]
        assert f.first_dominated(iter(cube)) == first
        assert f.first_dominated(cube) == first  # bitsets reused


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

    def test_smallest_working_k_is_4(self):
        with pytest.raises(CertificateError):
            influence_counterexample(3)
        _, _, cert = influence_counterexample(4)
        assert cert.ok
