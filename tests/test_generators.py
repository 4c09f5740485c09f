"""The named sample spaces: supports, weights, independence, incomparability."""

import itertools
from fractions import Fraction

import pytest

from pivotal import (
    BINARY,
    DistributionError,
    complement_mu,
    hadamard_mu,
    majp_dist,
    mixture_D,
    uniform_product,
)

F = Fraction
HALF = F(1, 2)


class TestHadamardMu:
    def test_k2_support_frozen(self):
        # Evaluated the inner-product formula by hand for all four seeds.
        mu = hadamard_mu(2)
        assert [x for x, _ in mu.items()] == [
            (0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0)]
        assert all(w == F(1, 4) for _, w in mu.items())

    def test_pairwise_independent(self):
        for k in (1, 2, 3, 4):
            mu = hadamard_mu(k)
            assert mu.check_kwise(min(2, mu.n)).ok

    def test_support_size_and_weights(self):
        for k in (1, 2, 3, 4, 5):
            mu = hadamard_mu(k)
            assert mu.n == 2 ** k - 1
            assert len(mu.support) == 2 ** k
            assert all(w == F(1, 2 ** k) for _, w in mu.items())

    def test_nonzero_strings_have_balanced_ones(self):
        for k in (2, 3, 4):
            mu = hadamard_mu(k)
            n = mu.n
            nonzero = [x for x, _ in mu.items() if any(x)]
            assert len(nonzero) == n
            assert all(sum(x) == (n + 1) // 2 for x in nonzero)

    def test_includes_all_zeros(self):
        for k in (1, 2, 3):
            assert (0,) * (2 ** k - 1) in {x for x, _ in hadamard_mu(k).items()}

    def test_nonzero_strings_pairwise_incomparable(self):
        for k in (2, 3, 4, 5):
            nonzero = [x for x, _ in hadamard_mu(k).items() if any(x)]
            for a, b in itertools.combinations(nonzero, 2):
                assert any(x > y for x, y in zip(a, b))
                assert any(x < y for x, y in zip(a, b))

    def test_rejects_bad_k(self):
        with pytest.raises(DistributionError):
            hadamard_mu(0)

    def test_rejects_k_past_limit_before_building(self, monkeypatch):
        from pivotal import (PreconditionError, effect_counterexample, influence_counterexample,
                             mixture_D)
        from pivotal import generators
        from pivotal.generators import _HADAMARD_K_LIMIT

        # Nothing may be built for a refused k. The influence counterexample
        # stops below this limit, at its own (tests/test_boolfn.py).
        monkeypatch.setattr(generators, "ExplicitDist", None)
        for build in (hadamard_mu, mixture_D, effect_counterexample):
            with pytest.raises(DistributionError, match=f"1..{_HADAMARD_K_LIMIT}"):
                build(_HADAMARD_K_LIMIT + 1)
        with pytest.raises(PreconditionError, match=r"^k must be in 3\.\.8, got 11$"):
            influence_counterexample(_HADAMARD_K_LIMIT + 1)


class TestComplementMu:
    def test_k2_support(self):
        bar = complement_mu(hadamard_mu(2))
        assert [x for x, _ in bar.items()] == [
            (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)]

    def test_involution(self):
        mu = hadamard_mu(3)
        assert complement_mu(complement_mu(mu)) == mu

    def test_pairwise_with_half_marginals(self):
        bar = complement_mu(hadamard_mu(3))
        assert bar.check_kwise(2).ok
        assert all(bar.single_marginal(i) == (HALF, HALF) for i in range(bar.n))

    def test_requires_binary(self):
        from pivotal import PARTICIPATION, ExplicitDist
        d = ExplicitDist(PARTICIPATION, 1, [((2,), F(1))])
        with pytest.raises(DistributionError):
            complement_mu(d)


class TestMixtureD:
    def test_k2_is_eight_equiprobable_strings(self):
        d = mixture_D(2)
        assert len(d.support) == 8
        assert all(w == F(1, 8) for _, w in d.items())

    def test_pairwise_and_half_marginals(self):
        for k in (2, 3):
            d = mixture_D(k)
            assert d.check_kwise(2).ok
            assert all(d.single_marginal(i) == (HALF, HALF) for i in range(d.n))

    def test_support_size_twice_n_plus_one(self):
        for k in (2, 3, 4):
            d = mixture_D(k)
            assert len(d.support) == 2 * (d.n + 1)

    def test_only_extremes_comparable(self):
        # Every non-extreme pair of support points must be incomparable.
        for k in (3, 4):
            d = mixture_D(k)
            n = d.n
            bottom, top = (0,) * n, (1,) * n
            points = [x for x, _ in d.items()]
            for a, b in itertools.combinations(points, 2):
                if a in (bottom, top) or b in (bottom, top):
                    continue
                assert any(x > y for x, y in zip(a, b))
                assert any(x < y for x, y in zip(a, b))


class TestMajpDist:
    def test_marginals(self):
        d = majp_dist(2, HALF)
        assert d.single_marginal(0) == (F(1, 4), F(1, 4), HALF)

    def test_all_abstain_probability(self):
        p = F(1, 3)
        d = majp_dist(4, p)
        assert d.weight((2, 2, 2, 2)) == (1 - p) ** 4

    def test_fully_independent(self):
        d = majp_dist(5, F(2, 7))
        for k in range(1, 6):
            assert d.check_kwise(k).ok

    def test_rejects_degenerate_p(self):
        with pytest.raises(DistributionError):
            majp_dist(3, F(0))
        with pytest.raises(DistributionError):
            majp_dist(3, F(1))


class TestUniformProduct:
    def test_fair_bits(self):
        d = uniform_product(3)
        assert d.alphabet == BINARY
        assert all(row == (HALF, HALF) for row in d.marginals)

    def test_rejects_bad_n(self):
        with pytest.raises(DistributionError):
            uniform_product(0)


def test_rejects_n_past_limit_before_building(monkeypatch):
    from pivotal import generators
    from pivotal.generators import _PRODUCT_N_LIMIT

    # Nothing may be built for a refused n.
    monkeypatch.setattr(generators, "ProductDist", None)
    for build in (uniform_product, lambda n: majp_dist(n, HALF)):
        with pytest.raises(DistributionError, match=f"1..{_PRODUCT_N_LIMIT}"):
            build(_PRODUCT_N_LIMIT + 1)
        with pytest.raises(DistributionError, match=f"1..{_PRODUCT_N_LIMIT}"):
            build(0)
