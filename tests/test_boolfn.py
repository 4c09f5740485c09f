"""Player functions, monotonicity machinery, and the certified counterexamples."""

import itertools
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

from oracles import brute_expectation, brute_influence, brute_signed_effect

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

    def test_dense_table_value_range(self):
        with pytest.raises(PivotalError, match="outside"):
            DenseTable(BINARY, 1, {(0,): F(2), (1,): F(0)})

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

    def test_smallest_working_k_is_4(self):
        with pytest.raises(CertificateError):
            influence_counterexample(3)
        _, _, cert = influence_counterexample(4)
        assert cert.ok
