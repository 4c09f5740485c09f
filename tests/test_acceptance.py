"""Acceptance suite: one test per criterion, exact tolerances, printed verdicts.

Every expected value here is either asserted against an independent
brute-force oracle computed in-test, or was frozen from one (see
oracles.py). Run with ``pytest tests/test_acceptance.py -v -s`` to see the
per-criterion lines.
"""

import itertools
import json
import math
import random
from fractions import Fraction

from pivotal import (
    BINARY,
    DenseTable,
    DictatorFn,
    MajorityFn,
    MajPFn,
    PartialTable,
    UpwardClosure,
    complement_mu,
    count_pivotal,
    effect_identity,
    effect_report,
    hadamard_mu,
    influence,
    influence_counterexample,
    majp_dist,
    mixture,
    mixture_D,
    monotone_check,
    pivotal_player,
    pivotal_report,
    uniform_product,
    verify_binary_bound,
    verify_elimination,
    verify_reduction,
    verify_sum_bound,
    verify_thm1,
    verify_warmup,
)
from pivotal.analysis import EFFECT_VARIANCE_RATIO
from pivotal.cli import main
from pivotal.serialize import load_dist, load_fn
from pivotal.theorems import convex_decomposition_check, estimate_majp_deviations

from oracles import majp_conditional_oracle, majp_expectation_oracle

F = Fraction
HALF = F(1, 2)


def _record(number: int, text: str) -> None:
    print(f"\nACCEPTANCE {number:02d}: PASS - {text}")


def test_criterion_01_effect_counterexample(tmp_path):
    """k = 3 and k = 4: certified pair with every effect exactly zero."""
    for k, n in ((3, 7), (4, 15)):
        fn_path = tmp_path / f"f{k}.json"
        dist_path = tmp_path / f"d{k}.json"
        code = main(["counterexample", "--which", "effect", "--k", str(k),
                     "--out-fn", str(fn_path), "--out-dist", str(dist_path)])
        assert code == 0
        f = load_fn(fn_path)
        d = load_dist(dist_path)
        assert d.n == n
        effects = effect_report(f, d).effects()
        assert len(effects) == n
        assert all(e == 0 for e in effects)
        assert d.expectation(f) == HALF
        assert f.evaluate((0,) * n) == 0
        assert f.evaluate((1,) * n) == 1
        assert f.n == n and monotone_check(f).ok  # full 2^n cube
    _record(1, "effect counterexample at k=3,4: all effects 0, balanced, "
               "monotone over the full cube")


def test_criterion_02_influence_counterexample():
    """k = 4: local-constancy certificate and every influence exactly zero."""
    f, d, cert = influence_counterexample(4)
    assert cert.ok
    assert {c.name for c in cert.checks} >= {
        "one_on_complement_ball", "zero_on_base_ball", "balanced_under_mixture"}
    influences = [influence(f, d, i) for i in range(d.n)]
    assert influences == [F(0)] * 15
    _record(2, "influence counterexample at k=4: certificate ok, all 15 "
               "influences exactly 0")


def test_criterion_03_pivotal_count_bound():
    """count_pivotal < 8/(p a^2) over >= 200 pairwise independent instances."""
    rng = random.Random(20240301)
    distributions = []
    for k in (2, 3, 4):
        mu = hadamard_mu(k)
        distributions += [mu, complement_mu(mu), mixture_D(k)]
        if k <= 3:
            distributions.append(
                mixture(mu, uniform_product(mu.n).to_explicit(), F(1, 3)))
    grid = [(p, a) for p in (F(1, 8), F(1, 4), HALF)
            for a in (F(1, 8), F(1, 4), HALF)]
    checked = 0
    for d in distributions:
        for _ in range(3):
            f = PartialTable(BINARY, d.n, {x: F(rng.randint(-4, 4), 4)
                                           for x, _ in d.items()})
            for p, a in grid:
                v = verify_thm1(f, d, p, a)
                assert v.ok, (d, p, a)
                checked += 1
    assert checked >= 200
    _record(3, f"pivotal-count bound holds on {checked} pairwise-independent "
               f"instances (exact comparison)")


def test_criterion_04_warmup_bound():
    """count_effect < 4/a^2: exhaustive at n = 2, 3; 500 random f at n = 10."""
    alphas = (F(1, 8), F(1, 4), HALF)
    for n in (2, 3):
        d = uniform_product(n)
        points = list(itertools.product((0, 1), repeat=n))
        for bits in range(1 << (1 << n)):
            f = DenseTable(BINARY, n, {x: F((bits >> j) & 1)
                                       for j, x in enumerate(points)})
            for a in alphas:
                assert verify_warmup(f, d, a).ok
    # n = 10: reuse one effect pass per function across the alpha grid.
    rng = random.Random(77)
    d10 = uniform_product(10).to_explicit()
    points10 = list(itertools.product((0, 1), repeat=10))
    spot_checked = 0
    for idx in range(500):
        f = DenseTable(BINARY, 10, {x: F(rng.getrandbits(1)) for x in points10})
        effects = effect_report(f, d10).effects()
        for a in alphas:
            count = sum(1 for e in effects if e > a)
            assert count < 4 / a ** 2
        if idx < 10:
            v = verify_warmup(f, uniform_product(10), F(1, 4))
            assert v.ok
            assert v.computed["count_effect"] == sum(1 for e in effects if e > F(1, 4))
            spot_checked += 1
    assert spot_checked == 10
    _record(4, "warm-up effect-count bound: exhaustive at n=2 (16 fns) and "
               "n=3 (256 fns), 500 random fns at n=10")


def test_criterion_05_squared_effect_identity():
    """One ratio across random functions at k = 2, 3, 4, pinned by a 2-point oracle."""
    # Independent oracle: on the two-point uniform space with values (a, b),
    # the conditional expectations are the values themselves, so
    # sum of squared effects = (b - a)^2 and Var = ((a - b)/2)^2.
    oracle_rng = random.Random(555)
    oracle_ratios = set()
    for _ in range(50):
        a = F(oracle_rng.randint(-8, 8), 8)
        b = F(oracle_rng.randint(-8, 8), 8)
        if a == b:
            continue
        expectation = (a + b) / 2
        variance = (a * a + b * b) / 2 - expectation ** 2
        oracle_ratios.add((b - a) ** 2 / variance)
    assert len(oracle_ratios) == 1
    oracle_constant = oracle_ratios.pop()

    rng = random.Random(31337)
    ratios = set()
    for k in (2, 3, 4):
        mu = hadamard_mu(k)
        produced = 0
        while produced < 100:
            vals = {x: F(rng.getrandbits(1)) for x, _ in mu.items()}
            if len(set(vals.values())) < 2:
                continue
            ident = effect_identity(PartialTable(BINARY, mu.n, vals), mu)
            ratios.add(ident.ratio)
            produced += 1
    assert ratios == {oracle_constant}
    assert oracle_constant == EFFECT_VARIANCE_RATIO == 4
    # Documented outcome: the pinned constant is 4; the candidate value 1/4
    # is inconsistent with the oracle.
    assert oracle_constant != F(1, 4)
    _record(5, "squared-effect identity: ratio is the single constant 4 at "
               "k=2,3,4 (oracle-pinned; differs from the candidate 1/4)")


def test_criterion_06_reduction_postconditions():
    """>= 20 instances with pivotal players; all three reduction guarantees hold."""
    rng = random.Random(99)
    instances = []
    for n in (2, 3, 4, 5):
        d = uniform_product(n)
        instances.append((DictatorFn(n, 0), d, HALF, F(1, 4)))
        instances.append((DictatorFn(n, 0), d, F(1, 4), F(1, 8)))
    for n in (3, 5):
        instances.append((MajorityFn(n), uniform_product(n), F(1, 4), F(1, 8)))
    for n, p in ((3, HALF), (4, HALF), (5, HALF), (4, F(1, 3))):
        d = majp_dist(n, p)
        f = MajPFn(n)
        devs = [abs(sd.deviation)
                for sd in pivotal_report(f, d, HALF, F(1)).rows[0].deviations]
        instances.append((f, d, F(1, 4), min(devs) / 2))
    for k in (2, 3):
        mu = hadamard_mu(k)
        added = 0
        while added < 4:
            f = PartialTable(BINARY, mu.n,
                             {x: F(rng.getrandbits(1)) for x, _ in mu.items()})
            if count_pivotal(f, mu, F(1, 8), F(1, 8)) >= 1:
                instances.append((f, mu, F(1, 8), F(1, 8)))
                added += 1

    verified = 0
    for f, d, p, a in instances:
        if count_pivotal(f, d, p, a) == 0:
            continue
        v = verify_reduction(f, d, p, a)
        assert v.ok, (p, a)
        assert v.computed["indicator_marginal_ok"]
        assert v.computed["g_effects_exceed_alpha"]
        assert v.computed["count_pivotal"] <= 2 * v.computed["count_effect_g"]
        verified += 1
    assert verified >= 20
    _record(6, f"reduction guarantees (indicator marginal p/2, g-effects > "
               f"alpha, count factor 2) hold on {verified} instances")


def test_criterion_07_elimination_certificates():
    """>= 10 fully independent instances at m = 2: certified elimination sets."""
    rng = random.Random(4242)
    m = 2
    instances = []
    for n in (6, 8, 10):
        instances.append((DictatorFn(n, 0), n, HALF, F(1, 4)))
        instances.append((UpwardClosure(n, [tuple(1 if j in (0, 1) else 0 for j in range(n))]),
                          n, F(1, 8), F(1, 8)))  # AND of two players
        instances.append((MajorityFn(n), n, F(1, 4), F(1, 8)))
    for n in (6, 7):
        points = list(itertools.product((0, 1), repeat=n))
        instances.append((DenseTable(BINARY, n, {x: F(rng.getrandbits(1)) for x in points}),
                          n, F(1, 4), F(1, 4)))
    checked = 0
    for f, n, p, a in instances:
        v = verify_elimination(f, uniform_product(n), m, p, a)
        assert v.ok, (n, p, a)
        assert v.computed["certificate_ok"]
        assert F(v.computed["union_size"]) <= 8 * m / (p * a ** 2)
        assert F(v.computed["t"]) < 8 / (p * a ** 2)
        checked += 1
    assert checked >= 10
    _record(7, f"elimination-set certificate, union bound, and family bound "
               f"hold on {checked} instances at m=2")


def test_criterion_08_majp_tightness():
    """Exact n = 9 derivation plus scaling windows: Monte Carlo at n = 25, 49, exact to 10,000."""
    n, p = 9, HALF
    d = majp_dist(n, p)
    f = MajPFn(n)
    report = pivotal_report(f, d, p, F(1))
    # Cross-check the enumeration against the independent binomial oracle.
    assert report.expectation == majp_expectation_oracle(n, p)
    row = report.rows[0]
    for sd in row.deviations:
        assert sd.deviation == majp_conditional_oracle(n, p, sd.symbol) - report.expectation
    participating = [abs(sd.deviation) for sd in row.deviations if sd.symbol != 2]
    alpha_star = min(participating) / 2
    p_prime = p / 2
    assert count_pivotal(f, d, p_prime, alpha_star) == 9

    def count_at(alpha):
        c = 0
        for r in report.rows:
            mass = sum((sd.mass for sd in r.deviations if abs(sd.deviation) > alpha), F(0))
            if mass > p_prime:
                c += 1
        return c

    grid = [alpha_star / 4, alpha_star, 2 * alpha_star, F(1, 2), F(1)]
    for alpha in grid:
        assert F(count_at(alpha)) <= 8 / (p_prime * alpha ** 2)

    # The 3^9 count also clears the pivotal-player bound end to end.
    v = verify_thm1(f, d, p_prime, alpha_star)
    assert v.ok
    assert v.computed["count_pivotal"] == 9

    # Qualitative 1/sqrt(pn) scaling via Monte Carlo with Hoeffding intervals.
    samples = 30000
    estimates = {}
    for big_n in (25, 49):
        devs = estimate_majp_deviations(big_n, p, samples, seed=2024)
        est, hw = devs[1]
        est = abs(est)
        scale = 1.0 / math.sqrt(float(p) * big_n)
        assert float(est) - hw >= scale / 8
        assert float(est) + hw <= scale
        estimates[big_n] = float(est)
    assert estimates[49] < estimates[25]

    # The same windows, exactly: the vote-1 deviation from the kernel's
    # statistic path, checked against the binomial oracle. With
    # scale = 1/sqrt(pn), dev lies in [scale/8, scale] iff
    # 1/64 <= dev^2 * p * n <= 1. The oracle is quadratic in n, so past
    # n = 281 the windows are checked on the kernel alone.
    for big_n in (25, 49, 281, 1000, 10_000):
        _, row = pivotal_player(MajPFn(big_n), majp_dist(big_n, p), 0, p, F(1))
        dev = next(sd.deviation for sd in row.deviations if sd.symbol == 1)
        if big_n <= 281:
            assert dev == (majp_conditional_oracle(big_n, p, 1)
                           - majp_expectation_oracle(big_n, p))
        assert dev > 0
        assert F(1, 64) <= dev ** 2 * p * big_n <= 1
    _record(8, "participation-majority tightness: all 9 players pivotal at the "
               "derived thresholds, counts within bound across the grid, "
               "1/sqrt(pn) scaling windows hold at n=25,49 (Monte Carlo and exact) "
               "and at n=281,1000,10000 (exact)")


def test_criterion_09_mixture_and_sum_bounds():
    """Convex decomposition plus the sum/count bounds: zero failures."""
    rng = random.Random(808)
    failures = 0
    # Mixture decomposition across component families.
    mu3 = hadamard_mu(3)
    bar3 = complement_mu(mu3)
    from pivotal import effect_counterexample
    fcx, _, _ = effect_counterexample(3)
    for i in range(7):
        v = convex_decomposition_check(fcx, mu3, bar3, HALF, i)
        failures += 0 if (v.ok and v.computed["mixture_signed"] == 0) else 1
    mu2 = hadamard_mu(2)
    bar2 = complement_mu(mu2)
    d2 = mixture(mu2, bar2, F(1, 3))
    for _ in range(25):
        f = PartialTable(BINARY, 3, {x: F(rng.randint(-3, 3), 3) for x, _ in d2.items()})
        for q in (F(0), F(1, 7), F(1, 3), F(1)):
            for i in range(3):
                failures += 0 if convex_decomposition_check(f, mu2, bar2, q, i).ok else 1
    # Sum-of-effects and skewed count bounds over mixed families.
    from pivotal import ProductDist
    dists = [hadamard_mu(2), hadamard_mu(3), mixture_D(2),
             ProductDist(BINARY, 4, [(F(1, 4), F(3, 4))] * 4),
             ProductDist(BINARY, 5, [(F(1, 3), F(2, 3))] * 5)]
    count = 0
    for d in dists:
        for _ in range(8):
            f = PartialTable(BINARY, d.n, {x: F(rng.randint(-2, 2), 2)
                                           for x, _ in d.items()})
            subsets = [[0], list(range(d.n))]
            for T in subsets:
                failures += 0 if verify_sum_bound(f, d, T).ok else 1
                count += 1
            for a in (F(1, 8), F(1, 3)):
                failures += 0 if verify_binary_bound(f, d, a).ok else 1
                count += 1
    assert failures == 0
    _record(9, f"mixture decomposition and sum/count bounds: 0 failures "
               f"across all generated families")


def _all_monotone_tables(n):
    points = list(itertools.product((0, 1), repeat=n))
    index = {x: j for j, x in enumerate(points)}
    succ = [[index[x[:i] + (1,) + x[i + 1:]] for i in range(n) if x[i] == 0]
            for x in points]
    for bits in range(1 << len(points)):
        vals = [(bits >> j) & 1 for j in range(len(points))]
        if all(vals[j] <= vals[t] for j in range(len(points)) for t in succ[j]):
            yield DenseTable(BINARY, n, {x: F(vals[j]) for j, x in enumerate(points)})


def test_criterion_10_effect_equals_influence_monotone():
    """Exhaustive over every monotone function at n <= 4 on uniform bits."""
    totals = {}
    for n in (1, 2, 3, 4):
        d = uniform_product(n).to_explicit()
        seen = 0
        for f in _all_monotone_tables(n):
            assert f.n == n and monotone_check(f).ok
            report = effect_report(f, d)
            for i in range(n):
                assert report.rows[i].effect == influence(f, d, i)
            seen += 1
        totals[n] = seen
    # Counts of monotone Boolean functions for n = 1..4.
    assert totals == {1: 3, 2: 6, 3: 20, 4: 168}
    _record(10, f"effect equals influence for every monotone function at "
                f"n=1..4 ({totals[4]} functions at n=4), exact per player")
