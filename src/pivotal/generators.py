"""Constructors for the named sample spaces used throughout the toolkit.

The Hadamard space is the minimal-support pairwise independent
distribution on n = 2^k - 1 fair bits; its bitwise complement and their
half-half mixture give the 2(n+1)-point space on which balanced monotone
functions can have all effects zero. The participation space drives the
abstention-majority tightness experiments.
"""

from __future__ import annotations

from fractions import Fraction

from .dist import (
    BINARY,
    PARTICIPATION,
    DistributionError,
    ExplicitDist,
    ProductDist,
    as_exact,
    mixture,
)

HALF = Fraction(1, 2)

# The Hadamard space holds 2^k outcomes of length 2^k - 1, so its memory
# grows as 4^k. At k = 10 it is 1,024 outcomes of 1,023 symbols (about
# 8 MiB of tuples, built in 0.3 s); every size used by the tests, the
# benchmark and the examples is k <= 6. Past the limit the constructor
# refuses before building anything.
_HADAMARD_K_LIMIT = 10

# A product space keeps one entry per distinct row and one index per player,
# and every draw or Monte Carlo sample costs one symbol per player. At
# n = 10,000 (Python 3.11, 2-vCPU Xeon) a space of equal rows builds in about
# 4 ms, its JSON is about 0.5 MB and loads in about 0.25 s (each row is parsed),
# and one draw takes about 5 ms. Past the limit the constructors refuse before
# building any row.
_PRODUCT_N_LIMIT = 10_000


def hadamard_mu(k: int) -> ExplicitDist:
    """Uniform distribution on the 2^k inner-product strings in {0,1}^n, n = 2^k - 1.

    Player y (1-based position y = index + 1) of the string for seed z is
    <z, y> mod 2, reading y and z as k-bit vectors with y = 1 mapped to
    (0, ..., 0, 1). Seed z = 0 contributes the all-zeros string; every
    other string has exactly (n+1)/2 ones.
    """
    if not 1 <= k <= _HADAMARD_K_LIMIT:
        raise DistributionError(f"k must be in 1..{_HADAMARD_K_LIMIT}, got {k}")
    n = (1 << k) - 1
    w = Fraction(1, 1 << k)
    support = []
    for z in range(1 << k):
        x = tuple((z & y).bit_count() & 1 for y in range(1, n + 1))
        support.append((x, w))
    return ExplicitDist(BINARY, n, support)


def complement_mu(mu: ExplicitDist) -> ExplicitDist:
    """Bitwise complement of every support point, weights unchanged."""
    if mu.alphabet != BINARY:
        raise DistributionError("complement is defined for the binary alphabet only")
    return ExplicitDist(BINARY, mu.n,
                        [(tuple(1 - s for s in x), w) for x, w in mu.items()])


def mixture_D(k: int) -> ExplicitDist:
    """Half-half mixture of the Hadamard space and its complement.

    For k >= 2 the two supports are disjoint, giving 2(n+1) equiprobable
    strings with all marginals exactly 1/2.
    """
    mu = hadamard_mu(k)
    return mixture(mu, complement_mu(mu), HALF)


def _check_product_n(n: int) -> None:
    if not 1 <= n <= _PRODUCT_N_LIMIT:
        raise DistributionError(f"n must be in 1..{_PRODUCT_N_LIMIT}, got {n}")


def majp_dist(n: int, p: Fraction) -> ProductDist:
    """Participation space: each player votes 0 or 1 with mass p/2 each, abstains with 1 - p."""
    _check_product_n(n)
    p = as_exact(p, "participation probability")
    if not 0 < p < 1:
        raise DistributionError(f"participation probability must be in (0, 1), got {p}")
    row = (p / 2, p / 2, 1 - p)
    return ProductDist(PARTICIPATION, n, [row] * n)


def uniform_product(n: int) -> ProductDist:
    """n independent fair bits."""
    _check_product_n(n)
    return ProductDist(BINARY, n, [(HALF, HALF)] * n)
