"""Effects, influence, pivotality, Fourier coefficients, estimation."""

import itertools
import random
from fractions import Fraction

import pytest

from pivotal import (
    BINARY,
    PARTICIPATION,
    ConstantFn,
    DenseTable,
    DictatorFn,
    Distribution,
    DistributionError,
    ExplicitDist,
    MajorityFn,
    MajPFn,
    NullConditionError,
    ParityFn,
    PartialTable,
    ProductDist,
    count_effect,
    count_pivotal,
    effect,
    effect_identity,
    effect_report,
    estimate_effect,
    fourier,
    hadamard_mu,
    influence,
    majp_dist,
    mixture_D,
    pivotal_player,
    pivotal_report,
    pivotal_set,
    reduce_to_binary,
    signed_effect,
    uniform_product,
    verify_elimination,
)
from pivotal.analysis import EFFECT_VARIANCE_RATIO, _deviates
from pivotal.boolfn import PreconditionError
from pivotal.dist import GroupedSums

from oracles import (
    brute_deviating_mass,
    brute_expectation,
    brute_influence,
    brute_set_deviating_mass,
    brute_signed_effect,
    majp_conditional_oracle,
    majp_expectation_oracle,
)

F = Fraction
HALF = F(1, 2)


def random_table(n, rng, values=(0, 1)):
    return {x: F(rng.choice(values)) for x in itertools.product((0, 1), repeat=n)}


class TestEffect:
    def test_parity_has_zero_effect_everywhere(self):
        d = uniform_product(3)
        f = ParityFn(3)
        assert all(effect(f, d, i) == 0 for i in range(3))

    def test_dictator(self):
        d = uniform_product(3)
        f = DictatorFn(3, 0)
        assert effect(f, d, 0) == 1
        assert effect(f, d, 1) == 0
        assert effect(f, d, 2) == 0

    def test_majority_on_hadamard_k2(self):
        # E[f | X_i = 1] = 1 and E[f | X_i = 0] = 1/2 on the 4-point space.
        mu = hadamard_mu(2)
        f = MajorityFn(3)
        for i in range(3):
            assert signed_effect(f, mu, i) == HALF
            assert effect(f, mu, i) == HALF

    def test_rejects_nonbinary(self):
        with pytest.raises(DistributionError):
            effect(MajPFn(3), majp_dist(3, HALF), 0)

    def test_null_conditioning_event(self):
        d = ExplicitDist(BINARY, 2, [((0, 0), HALF), ((0, 1), HALF)])
        with pytest.raises(NullConditionError):
            effect(ConstantFn(2, F(1)), d, 0)

    def test_report_matches_brute_force_on_random_tables(self):
        rng = random.Random(11)
        d = mixture_D(2)
        for _ in range(20):
            f = PartialTable(BINARY, 3, {x: F(rng.randint(-4, 4), 4)
                                         for x, _ in d.items()})
            report = effect_report(f, d)
            for i in range(3):
                assert report.rows[i].signed == brute_signed_effect(f, d, i)


class TestInfluence:
    def test_parity_all_one(self):
        d = uniform_product(3)
        assert all(influence(ParityFn(3), d, i) == 1 for i in range(3))

    def test_dictator(self):
        d = uniform_product(2)
        assert influence(DictatorFn(2, 0), d, 0) == 1
        assert influence(DictatorFn(2, 0), d, 1) == 0

    def test_matches_brute_force(self):
        rng = random.Random(5)
        d = hadamard_mu(2)
        for _ in range(10):
            f_vals = random_table(3, rng)
            from pivotal import DenseTable
            f = DenseTable(BINARY, 3, f_vals)
            for i in range(3):
                assert influence(f, d, i) == brute_influence(f, d, i)

    @pytest.mark.parametrize("d", [
        ExplicitDist(BINARY, 3, [((0, 0, 0), F(1, 6)), ((0, 1, 1), F(1, 3)),
                                 ((1, 0, 1), F(1, 12)), ((1, 1, 0), F(5, 12))]),
        ProductDist(BINARY, 3, [(F(1, 3), F(2, 3)), (F(1, 2), F(1, 2)), (F(4, 5), F(1, 5))]),
        ExplicitDist(BINARY, 3, [((True, 0, 1), F(2, 7)), ((0, True, True), F(5, 7))]),
    ], ids=["explicit-unequal-weights", "product-unequal-rows", "true-as-symbol"])
    def test_matches_brute_force_on_integer_weights(self, d):
        rng = random.Random(11)
        for f in [MajorityFn(3), DictatorFn(3, 2)] + [
                DenseTable(BINARY, 3, random_table(3, rng, (0, F(1, 3), 1))) for _ in range(5)]:
            for i in range(3):
                assert influence(f, d, i) == brute_influence(f, d, i)


class TestPivotal:
    def test_dictator_is_pivotal(self):
        d = uniform_product(2)
        ok, row = pivotal_player(DictatorFn(2, 0), d, 0, F(1, 4), F(1, 4))
        assert ok
        assert row.deviating_mass == 1  # both symbols deviate by 1/2

    def test_constant_never_pivotal(self):
        d = uniform_product(3)
        f = ConstantFn(3, F(1, 3))
        for i in range(3):
            ok, row = pivotal_player(f, d, i, F(1, 100), F(1, 100))
            assert not ok
            assert row.deviating_mass == 0

    def test_majp_n5_deviations_frozen(self):
        # Frozen from the binomial-sum oracle (and cross-checked against it).
        d = majp_dist(5, HALF)
        report = pivotal_report(MajPFn(5), d, F(1, 4), F(1, 100))
        assert report.expectation == F(193, 512)
        row = report.rows[0]
        by_symbol = {sd.symbol: sd for sd in row.deviations}
        assert by_symbol[0].deviation == -F(119, 512)
        assert by_symbol[1].deviation == F(133, 512)
        assert by_symbol[2].deviation == -F(7, 512)
        assert by_symbol[0].mass == F(1, 4)
        assert by_symbol[2].mass == HALF
        assert report.expectation == majp_expectation_oracle(5, HALF)
        for s in range(3):
            assert by_symbol[s].deviation == (
                majp_conditional_oracle(5, HALF, s) - report.expectation)

    def test_deviating_mass_matches_brute_force(self):
        d = majp_dist(4, F(1, 3))
        f = MajPFn(4)
        for alpha in (F(1, 100), F(1, 10), F(1, 4)):
            report = pivotal_report(f, d, F(1, 8), alpha)
            for i in range(4):
                assert report.rows[i].deviating_mass == brute_deviating_mass(f, d, i, alpha)

    def test_identical_rows_share_their_deviations(self):
        d = majp_dist(6, F(2, 5))
        f = MajPFn(6)
        report = pivotal_report(f, d, F(1, 8), F(1, 100))
        assert all(row.deviations is report.rows[0].deviations for row in report.rows)
        for i, row in enumerate(report.rows):
            assert row == pivotal_player(f, d, i, F(1, 8), F(1, 100))[1]

    def test_strict_inequalities(self):
        # Deviation exactly alpha, mass exactly p: both strict, so not pivotal.
        d = uniform_product(1)
        f = DictatorFn(1, 0)
        # E[f] = 1/2, deviations are +-1/2 with mass 1/2 each, total mass 1.
        ok, row = pivotal_player(f, d, 0, F(1), HALF)
        assert not ok  # mass 1 is not > 1, deviation 1/2 is not > 1/2
        ok, _ = pivotal_player(f, d, 0, F(99, 100), F(49, 100))
        assert ok

    @pytest.mark.parametrize("dev, sign, past", [
        (F(1, 4), 0, False), (F(-1, 4), 0, False), (F(1, 4), 1, False), (F(-1, 4), -1, False),
        (F(-1, 2), 0, True), (F(-1, 2), 1, False), (F(-1, 2), -1, True),
        (F(1, 2), 1, True), (F(1, 2), -1, False),
    ])
    def test_deviates_is_strict_and_signed(self, dev, sign, past):
        # One predicate for report masses and the reduction's deviating symbols.
        assert _deviates(dev, F(1, 4), sign) is past


class TestPivotalSet:
    def test_whole_player_set_on_balanced_function(self):
        d = uniform_product(3)
        f = MajorityFn(3)  # E[f] = 1/2, 0/1-valued
        assert pivotal_set(f, d, [0, 1, 2], F(99, 100), F(1, 4))

    def test_superset_of_pivotal_player(self):
        d = uniform_product(3)
        f = DictatorFn(3, 0)
        p, alpha = F(1, 4), F(1, 4)
        assert pivotal_player(f, d, 0, p, alpha)[0]
        for T in ([0], [0, 1], [0, 2], [0, 1, 2]):
            assert pivotal_set(f, d, T, p, alpha)

    def test_constant_not_pivotal(self):
        d = uniform_product(2)
        assert not pivotal_set(ConstantFn(2, F(1)), d, [0, 1], F(1, 100), F(1, 100))

    def test_matches_brute_force(self):
        rng = random.Random(7)
        d = mixture_D(2)
        for _ in range(10):
            f = PartialTable(BINARY, 3, {x: F(rng.choice((0, 1)))
                                         for x, _ in d.items()})
            for T in ([0], [1, 2], [0, 1, 2]):
                for alpha in (F(1, 8), F(1, 3)):
                    mass = brute_set_deviating_mass(f, d, T, alpha)
                    for p in (F(1, 8), F(1, 2)):
                        assert pivotal_set(f, d, T, p, alpha) == (mass > p)


class TestCounts:
    def test_dictator_effect_count(self):
        assert count_effect(DictatorFn(3, 0), uniform_product(3), HALF) == 1

    def test_effect_counterexample_counts_zero(self):
        from pivotal import effect_counterexample
        f, d, _ = effect_counterexample(3)
        for alpha in (F(0), F(1, 8), HALF):
            assert count_effect(f, d, alpha) == 0

    def test_majority_on_hadamard_alpha_quarter(self):
        assert count_effect(MajorityFn(3), hadamard_mu(2), F(1, 4)) == 3

    def test_counts_monotone_in_thresholds(self):
        d = majp_dist(5, HALF)
        f = MajPFn(5)
        alphas = [F(1, 100), F(1, 10), F(1, 5), F(1, 2)]
        ps = [F(1, 100), F(1, 4), F(1, 2), F(3, 4)]
        for p in ps:
            counts = [count_pivotal(f, d, p, a) for a in alphas]
            assert counts == sorted(counts, reverse=True)
        for a in alphas:
            counts = [count_pivotal(f, d, p, a) for p in ps]
            assert counts == sorted(counts, reverse=True)
        d2 = uniform_product(4)
        f2 = MajorityFn(4)
        effect_counts = [count_effect(f2, d2, a) for a in alphas]
        assert effect_counts == sorted(effect_counts, reverse=True)

    @pytest.mark.parametrize("f, d", [
        (MajPFn(7), majp_dist(7, HALF)),
        (DenseTable(BINARY, 8, random_table(8, random.Random(5), (-1, 0, F(1, 2), 1))),
         uniform_product(8)),
    ], ids=["majp-7", "dense-8"])
    def test_report_count_matches_count_pivotal(self, f, d):
        # PivotalReport.count recounts one report at other thresholds.
        report = pivotal_report(f, d, HALF, F(1, 8))
        for p in (F(0), F(1, 8), F(1, 4), HALF, F(3, 4)):
            for alpha in (F(0), F(1, 64), F(1, 16), F(1, 8), F(1, 4)):
                assert report.count(p, alpha) == count_pivotal(f, d, p, alpha), (p, alpha)


class TestFourier:
    def test_constant_function(self):
        mu = hadamard_mu(3)
        table = fourier(ConstantFn(7, F(1)), mu)
        assert table.coeffs[0] == 1
        assert all(c == 0 for c in table.coeffs[1:])

    def test_majority_zero_coefficient_is_expectation(self):
        mu = hadamard_mu(2)
        table = fourier(MajorityFn(3), mu)
        assert table.coeffs[0] == F(3, 4)
        assert table.expectation == mu.expectation(MajorityFn(3)) == F(3, 4)

    def test_coefficient_is_half_signed_effect(self):
        # |coeff(y)| must be exactly half the effect of player y - 1.
        rng = random.Random(3)
        for k in (2, 3):
            mu = hadamard_mu(k)
            f = PartialTable(BINARY, mu.n, {x: F(rng.choice((0, 1)))
                                            for x, _ in mu.items()})
            table = fourier(f, mu)
            for i in range(mu.n):
                assert table.coeffs[i + 1] == -brute_signed_effect(f, mu, i) / 2

    def test_parseval(self):
        rng = random.Random(9)
        for k in (2, 3):
            mu = hadamard_mu(k)
            for _ in range(25):
                f = PartialTable(BINARY, mu.n, {x: F(rng.randint(-3, 3), 3)
                                                for x, _ in mu.items()})
                table = fourier(f, mu)
                energy = sum((c * c for c in table.coeffs), F(0))
                sq = brute_expectation(_Squared(f), mu)
                assert energy == sq

    def test_majority_on_hadamard_8(self):
        # 255 players, so the pairwise precondition scans 32,385 pairs. f is
        # 0 only on the all-zeros point: E[f] = 255/256, and every player's
        # signed effect is 1 - 127/128, so each coefficient is -1/256.
        table = fourier(MajorityFn(255), hadamard_mu(8))
        assert (table.k, len(table.support)) == (8, 256)
        assert table.coeffs == (F(255, 256),) + (F(-1, 256),) * 255

    def test_precondition_failures_are_named(self):
        with pytest.raises(PreconditionError, match="support size"):
            fourier(ConstantFn(3, F(1)), mixture_D(2))
        lopsided = ExplicitDist(BINARY, 1, [((0,), F(1, 3)), ((1,), F(2, 3))])
        with pytest.raises(PreconditionError, match="uniform"):
            fourier(ConstantFn(1, F(1)), lopsided)
        quarter = F(1, 4)
        player0_fixed = ExplicitDist(BINARY, 3, [((0, a, b), quarter)
                                                 for a in (0, 1) for b in (0, 1)])
        with pytest.raises(PreconditionError, match="player 0 is not 1/2"):
            fourier(ConstantFn(3, F(1)), player0_fixed)
        players12_equal = ExplicitDist(BINARY, 3, [((a, b, b), quarter)
                                                   for a in (0, 1) for b in (0, 1)])
        with pytest.raises(PreconditionError, match="not pairwise independent") as exc:
            fourier(ConstantFn(3, F(1)), players12_equal)
        assert exc.value.witness.players == (1, 2)

    def test_works_on_complement_space(self):
        from pivotal import complement_mu
        bar = complement_mu(hadamard_mu(2))
        table = fourier(MajorityFn(3), bar)
        assert table.coeffs[0] == brute_expectation(MajorityFn(3), bar)


class _Squared:
    def __init__(self, f):
        self.f = f

    def evaluate(self, x):
        v = self.f.evaluate(x)
        return v * v


class TestEffectIdentity:
    def test_single_bit_identity_function(self):
        mu = hadamard_mu(1)
        ident = effect_identity(DictatorFn(1, 0), mu)
        assert ident.sum_sq_effects == 1
        assert ident.variance == F(1, 4)
        assert ident.ratio == 4

    def test_majority_on_hadamard_k2(self):
        ident = effect_identity(MajorityFn(3), hadamard_mu(2))
        assert ident.sum_sq_effects == F(3, 4)
        assert ident.variance == F(3, 16)
        assert ident.ratio == 4

    def test_constant_function(self):
        ident = effect_identity(ConstantFn(3, HALF), hadamard_mu(2))
        assert ident.sum_sq_effects == 0
        assert ident.variance == 0
        assert ident.ratio is None

    def test_single_fair_bit_product_accepted(self):
        ident = effect_identity(DictatorFn(1, 0), uniform_product(1))
        assert ident.ratio == 4

    def test_nonminimal_product_rejected_cleanly(self):
        with pytest.raises(PreconditionError):
            effect_identity(DictatorFn(3, 0), uniform_product(3))

    def test_ratio_constant_across_random_functions(self):
        rng = random.Random(21)
        for k in (2, 3, 4):
            mu = hadamard_mu(k)
            seen = set()
            for _ in range(30):
                vals = {x: F(rng.choice((0, 1))) for x, _ in mu.items()}
                if len(set(vals.values())) < 2:
                    continue
                f = PartialTable(BINARY, mu.n, vals)
                ident = effect_identity(f, mu)
                seen.add(ident.ratio)
            assert seen == {EFFECT_VARIANCE_RATIO}


class TestEstimateEffect:
    def test_dictator_estimate_near_one(self):
        d = uniform_product(6)
        est = estimate_effect(DictatorFn(6, 0), d, 0, 2000, seed=42)
        assert abs(float(est.estimate) - 1.0) <= est.halfwidth

    def test_parity_estimate_near_zero(self):
        d = uniform_product(10)
        est = estimate_effect(ParityFn(10), d, 3, 2000, seed=42)
        assert abs(float(est.estimate)) <= est.halfwidth

    def test_deterministic_per_seed(self):
        d = uniform_product(4)
        a = estimate_effect(MajorityFn(4), d, 1, 500, seed=7)
        b = estimate_effect(MajorityFn(4), d, 1, 500, seed=7)
        assert a == b

    def test_majp_estimate_matches_exact_enumeration(self):
        d = majp_dist(9, HALF)
        f = MajPFn(9)
        exact = (majp_conditional_oracle(9, HALF, 1)
                 - majp_conditional_oracle(9, HALF, 0))
        est = estimate_effect(f, d, 0, 3000, seed=1)
        assert abs(float(est.estimate - exact)) <= est.halfwidth


def _skewed_table_case():
    d = ProductDist(BINARY, 4, [(F(1, 3), F(2, 3)), (F(1, 4), F(3, 4)),
                                (HALF, HALF), (F(2, 5), F(3, 5))])
    values = {x: F((3 * sum(x) + x[0] - 4) % 9 - 4, 4)
              for x in itertools.product((0, 1), repeat=4)}
    return DenseTable(BINARY, 4, values), d, 3, 123, 11


@pytest.mark.parametrize("case, estimate, halfwidth", [
    (lambda: (MajorityFn(7), uniform_product(7), 2, 300, 0), F(109, 300), 0.2217770488309956),
    (lambda: (MajPFn(5), majp_dist(5, F(1, 3)), 1, 250, "abc"), F(139, 250), 0.24294458476332204),
    (_skewed_table_case, F(-39, 164), 0.34635756016489666),
], ids=["majority-uniform", "majp-participation", "table-skewed"])
def test_estimate_effect_pinned(case, estimate, halfwidth):
    """Exact estimates and bit-exact half-widths, fixed per (f, d, i, samples, seed)."""
    f, d, i, samples, seed = case()
    est = estimate_effect(f, d, i, samples, seed)
    assert (est.estimate, est.halfwidth, est.samples) == (estimate, halfwidth, samples)


def test_effect_equals_influence_for_monotone_small():
    # Spot-check ahead of the exhaustive acceptance run.
    d = uniform_product(3)
    for f in (MajorityFn(3), DictatorFn(3, 1), ConstantFn(3, F(1))):
        for i in range(3):
            assert effect(f, d, i) == influence(f, d, i)


_ALTERNATING = [(F(1, 4), F(1, 4), HALF), (F(1, 3), F(1, 6), HALF)] * 3


@pytest.mark.parametrize("d", [
    uniform_product(6),
    ProductDist(PARTICIPATION, 6, _ALTERNATING),
    mixture_D(3),
    hadamard_mu(3),
], ids=["uniform-6", "participation-alternating", "mixture-3", "hadamard-3"])
def test_no_reader_depends_on_key_order(d, monkeypatch):
    # The law and the tables of Distribution.sums are mappings whose
    # insertion order carries no meaning: reversing every one of them
    # changes no result of any reader.
    m = len(d.alphabet)
    rng = random.Random(d.n * m)
    f = DenseTable(d.alphabet, d.n, {x: F(rng.randint(-8, 8), 8)
                                     for x in itertools.product(range(m), repeat=d.n)})
    p, alpha, product = F(1, 8), F(1, 16), isinstance(d, ProductDist)
    calls = {
        "pivotal_report": lambda: pivotal_report(f, d, p, alpha),
        "pivotal_set": lambda: [pivotal_set(f, d, T, p, alpha) for T in ((0,), (2, 0), (1, 3, 4))],
        # Coalitions of up to m players need 2m-wise independence.
        "verify_elimination": lambda: verify_elimination(f, d, 1 + product, p, alpha),
        "reduce_to_binary": lambda: reduce_to_binary(f, d, p, alpha),
    }
    if d.alphabet == BINARY:
        calls["effect_report"] = lambda: effect_report(f, d)
    if not product:  # a product's marginal does not read sums
        calls["marginal"] = lambda: [d.marginal(T) for T in ((1,), (3, 0), (0, 2, 5))]
    if not product and len(d.support) == d.n + 1:  # a minimal-support space
        calls["fourier"] = lambda: fourier(f, d)
        calls["effect_identity"] = lambda: effect_identity(f, d)
    want = {name: call() for name, call in calls.items()}
    assert want["reduce_to_binary"].i_plus  # the reduction has players to collapse
    sums, used = Distribution.sums, []

    def reversed_sums(self, groups, f=None):
        # The law and each table list their keys in reverse; shared tables stay shared.
        used.append(groups)
        got = sums(self, groups, f)
        flipped = {id(t): dict(reversed(t.items())) for t in got.tables}
        return GroupedSums(dict(reversed(got.law.items())), got.mean,
                           tuple(flipped[id(t)] for t in got.tables))

    monkeypatch.setattr(Distribution, "sums", reversed_sums)
    for name, call in calls.items():
        before = len(used)
        assert call() == want[name], name
        assert len(used) > before, name
