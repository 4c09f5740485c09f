"""Seeded job lists for the three benchmark workloads.

A workload is a sequence of rounds. Every round has the same fixed mix of
job kinds and instance sizes; the seed picks only the parameters inside
each slot (participation rates, thresholds, table bits, player labels), so
one round costs about the same on every seed while the inputs differ.
Round ``r`` of seed ``s`` is generated from its own stream, so it is the
same whatever number of rounds a run reaches.

Each job carries three callables: ``run`` (the timed library work),
``check`` (raises ``CheckFailed``; runs outside the timed region) and
``canon`` (the canonical text of the output that the determinism digest
hashes). Library calls go through module attributes so that the tracer's
patches are seen.
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction as F
from pathlib import Path
from typing import Callable

from pivotal import analysis as A
from pivotal import boolfn as B
from pivotal import cli
from pivotal import dist as D
from pivotal import generators as G
from pivotal import serialize as S
from pivotal import theorems as T

HALF = F(1, 2)
ONE = F(1)
ZERO = F(0)


class CheckFailed(Exception):
    """A job's output broke an invariant or disagreed with an oracle."""


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


@dataclass
class Job:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], None]
    canon: Callable[[object], str]


def _dumps(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, default=repr)


def _verdict_canon(v) -> str:
    return _dumps(S.jsonable({"which": v.which, "inputs": v.inputs, "computed": v.computed,
                              "bound": v.bound, "ok": v.ok, "witness": v.witness}))


def _expect_verdict(v, which: str) -> None:
    expect(v.which == which, f"verdict is for {v.which}, expected {which}")
    expect(v.ok is True, f"{which} verdict not ok: {v.computed}")


def _bits_table(n: int, bits: int) -> "B.DenseTable":
    points = itertools.product((0, 1), repeat=n)
    return B.DenseTable(D.BINARY, n, [(x, ONE if (bits >> j) & 1 else ZERO)
                                      for j, x in enumerate(points)])


class Workload:
    """Base: seeded rounds built lazily per round index, plus a warm-up list."""

    name = ""
    # Rounds replayed untraced and traced by a --trace 1 run.
    trace_rounds = 1

    def __init__(self, seed: int, oracles, workdir: Path):
        self.seed = seed
        self.oracles = oracles
        self.workdir = workdir

    def rng(self, tag: object) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{tag}")

    def round(self, r: int) -> list[Job]:
        jobs = self.build_round(self.rng(r), r)
        self.rng(("order", r)).shuffle(jobs)
        return jobs

    def build_round(self, rng: random.Random, r: int) -> list[Job]:
        raise NotImplementedError

    def warmup(self) -> list[Job]:
        raise NotImplementedError


# ----------------------------------------------------------------------
# majp-grid: the tightness experiment on participation product grids

P_CHOICES = (F(1, 3), F(2, 5), F(1, 2), F(3, 5), F(2, 3))
ALPHAS = (F(1, 40), F(1, 20), F(1, 10), F(1, 8), F(1, 5))
THRESHOLD_SHARE = (F(1, 2), F(3, 4))
MC_SAMPLES = 600

# (kind, n, jobs per round), in cost clusters: 12 jobs under 0.05 s, 15 at
# n = 7 that hold the median, 3 near 0.25 s, 4 near 0.5 s that hold the
# 90th percentile, and the two n = 9 grids above it. The cost of a grid job
# depends on p (the size of the fractions), so p is never seeded: a slot
# whose count is a multiple of len(P_CHOICES) uses every p equally often,
# and a smaller slot takes the next p in turn, by slot and round index.
MAJP_ROUND = (
    ("report", 6, 5), ("thm1", 6, 5), ("reduction-pivotal", 4, 2),
    ("report", 7, 10), ("thm1", 7, 5),
    ("estimate", 25, 2), ("reduction-empty", 7, 1),
    ("report", 8, 1), ("thm1", 8, 1), ("reduction-pivotal", 6, 1), ("estimate", 49, 1),
    ("report", 9, 1), ("thm1", 9, 1),
)


class MajpGrid(Workload):
    name = "majp-grid"

    def __init__(self, seed, oracles, workdir):
        super().__init__(seed, oracles, workdir)
        self._exact: dict[tuple[int, F], tuple[F, tuple[F, ...]]] = {}

    def exact(self, n: int, p: F) -> tuple[F, tuple[F, ...]]:
        """E[f] and the per-symbol deviations from the binomial oracle."""
        key = (n, p)
        if key not in self._exact:
            e = self.oracles.majp_expectation_oracle(n, p)
            devs = tuple(self.oracles.majp_conditional_oracle(n, p, s) - e for s in range(3))
            self._exact[key] = (e, devs)
        return self._exact[key]

    def build_round(self, rng, r):
        jobs = []
        for slot, (kind, n, count) in enumerate(MAJP_ROUND):
            balanced = count % len(P_CHOICES) == 0
            for i in range(count):
                p = P_CHOICES[(i if balanced else r + slot + i) % len(P_CHOICES)]
                jobs.append(self.job(kind, n, p, rng))
        return jobs

    def warmup(self):
        rng = self.rng("warmup")
        return [self.job(kind, n, rng.choice(P_CHOICES), rng) for kind, n in
                (("report", 5), ("thm1", 5), ("reduction-pivotal", 4),
                 ("reduction-empty", 4), ("estimate", 9))]

    def job(self, kind: str, n: int, p: F, rng: random.Random) -> Job:
        thr = p * rng.choice(THRESHOLD_SHARE)
        if kind == "estimate":
            return self._estimate_job(n, p, rng.randrange(1 << 30))
        if kind.startswith("reduction"):
            _, devs = self.exact(n, p)
            if kind == "reduction-pivotal":
                # Both vote symbols deviate past alpha: every player is pivotal.
                bound = min(abs(devs[0]), abs(devs[1]))
                alpha = (bound * rng.choice((F(1, 4), F(1, 3), F(1, 2), F(2, 3)))
                         ).limit_denominator(1000)
                expect(0 < alpha < bound, "generated alpha outside (0, min deviation)")
            else:
                # No symbol deviates past alpha: the reduction is empty.
                alpha = (max(abs(d) for d in devs) * rng.choice((F(5, 4), F(3, 2), F(2)))
                         ).limit_denominator(1000)
                expect(alpha > max(abs(d) for d in devs), "generated alpha not above deviations")
            return self._reduction_job(n, p, thr, alpha, kind == "reduction-pivotal")
        alpha = rng.choice(ALPHAS)
        if kind == "report":
            return Job(f"report-n{n}",
                       lambda: A.pivotal_report(B.MajPFn(n), G.majp_dist(n, p), thr, alpha),
                       lambda rep: self._check_report(rep, n, p, thr, alpha),
                       self._report_canon)
        return Job(f"thm1-n{n}",
                   lambda: T.verify_thm1(B.MajPFn(n), G.majp_dist(n, p), thr, alpha),
                   lambda v: self._check_thm1(v, n, p, thr, alpha),
                   _verdict_canon)

    def _expected_rows(self, n, p, thr, alpha):
        """Per-player (symbol, mass, deviation) rows, deviating mass and flag."""
        _, devs = self.exact(n, p)
        masses = (p / 2, p / 2, 1 - p)
        rows = tuple((s, masses[s], devs[s]) for s in range(3))
        q = sum((m for _, m, d in rows if abs(d) > alpha), ZERO)
        return rows, q, q > thr

    def _check_report(self, rep, n, p, thr, alpha):
        e, _ = self.exact(n, p)
        expect(rep.expectation == e, f"E[f]={rep.expectation}, binomial oracle {e}")
        rows, q, piv = self._expected_rows(n, p, thr, alpha)
        expect(len(rep.rows) == n, f"{len(rep.rows)} rows for n={n}")
        for row in rep.rows:
            got = tuple((sd.symbol, sd.mass, sd.deviation) for sd in row.deviations)
            expect(got == rows, f"player {row.player} deviations {got} != oracle {rows}")
            expect(row.deviating_mass == q and row.pivotal == piv,
                   f"player {row.player} deviating mass {row.deviating_mass}, oracle {q}")

    @staticmethod
    def _report_canon(rep) -> str:
        return _dumps([str(rep.expectation), str(rep.p), str(rep.alpha),
                       [[r.player, str(r.deviating_mass), r.pivotal,
                         [[sd.symbol, str(sd.mass), str(sd.deviation)] for sd in r.deviations]]
                        for r in rep.rows]])

    def _check_thm1(self, v, n, p, thr, alpha):
        _expect_verdict(v, "thm1")
        _, _, piv = self._expected_rows(n, p, thr, alpha)
        expected = n if piv else 0
        expect(v.computed["count_pivotal"] == expected,
               f"count_pivotal {v.computed['count_pivotal']}, oracle {expected}")
        expect(v.bound == 8 / (thr * alpha ** 2), f"bound {v.bound}")

    def _reduction_job(self, n, p, thr, alpha, pivotal):
        def check(v):
            _expect_verdict(v, "reduction")
            if pivotal:
                expect(v.computed["selected"] == tuple(range(n)),
                       f"selected {v.computed['selected']}, expected all {n} players")
                expect(v.computed["count_pivotal"] == n, "not every player pivotal")
                expect(v.computed["indicator_marginal_ok"] and v.computed["g_effects_exceed_alpha"],
                       "reduction guarantee failed")
            else:
                expect(v.computed == {"empty": True, "count_pivotal": 0},
                       f"expected an empty reduction, got {v.computed}")

        return Job(f"reduction-n{n}",
                   lambda: T.verify_reduction(B.MajPFn(n), G.majp_dist(n, p), thr, alpha),
                   check, _verdict_canon)

    def _estimate_job(self, n, p, mc_seed):
        def check(devs):
            _, exact = self.exact(n, p)
            expect(sorted(devs) == [0, 1, 2], f"symbols {sorted(devs)}")
            for s, (est, hw) in devs.items():
                # f is 0/1-valued and the half-width assumes [-1, 1], so a
                # miss here has probability below 1e-5.
                expect(abs(float(est - exact[s])) <= hw,
                       f"n={n} symbol {s}: estimate {float(est)} misses {float(exact[s])} by more than {hw}")

        return Job(f"estimate-n{n}",
                   lambda: T.estimate_majp_deviations(n, p, MC_SAMPLES, mc_seed),
                   check,
                   lambda devs: _dumps({s: [str(e), hw] for s, (e, hw) in sorted(devs.items())}))


# ----------------------------------------------------------------------
# certify: subset scans and certificates over shared mid-size supports


# k values checked on each small space of Certify.small, in order.
KWISE_SMALL_K = ((2, 3, 4),) * 4
# p of the two expanded majp_dist(7, p) grids; fixed, as the scan's cost
# depends on p.
MAJP7_P = (F(2, 5), F(2, 3))


class Certify(Workload):
    name = "certify"

    def __init__(self, seed, oracles, workdir):
        super().__init__(seed, oracles, workdir)
        rng = self.rng("supports")
        self.uniform = {n: G.uniform_product(n) for n in (8, 9, 10)}
        self.grid10 = G.uniform_product(10).to_explicit()
        # (label, space, largest k for which it is k-wise independent)
        self.majp7 = [(f"majp7-p{p}", G.majp_dist(7, p).to_explicit(), 7) for p in MAJP7_P]
        q = rng.choice((F(1, 4), F(1, 3), F(1, 2), F(2, 3)))
        self.small = [
            ("hadamard4", G.hadamard_mu(4), 2),
            ("mixtureD3", G.mixture_D(3), 3),
            ("mixtureD4", G.mixture_D(4), 3),
            (f"hadamard3+uniform7-q{q}",
             D.mixture(G.hadamard_mu(3), G.uniform_product(7).to_explicit(), q), 2),
        ]

    def build_round(self, rng, r):
        # Cost clusters in a round of 50 jobs: 17 under 0.08 s; 24 warm-up
        # reports near 0.08 s that hold the median (rank 25.5 of 50); two
        # k = 2 scans of the 3^7 grids near 0.16 s; the n = 8 dictator and
        # dense eliminations and the k = 3 scans of the 3^7 grids between
        # 0.45 and 0.6 s, whose middle holds the 90th percentile (rank 45.9,
        # with the dense n = 8 elimination above it); the n = 9 and 10
        # eliminations and the k = 6 certificate above them.
        jobs = [
            self._elim_dense(10, rng),
            self._elim_and(9, rng),
            self._elim_dictator(8, rng),
            self._elim_majority(8),
            self._elim_dense(8, rng),
        ]
        for label, d, indep in self.majp7:
            jobs += [self._kwise(label, d, k, indep, rng) for k in (2, 3)]
        for (label, d, indep), ks in zip(self.small, KWISE_SMALL_K):
            jobs += [self._kwise(label, d, k, indep, rng) for k in ks]
        for _ in range(24):
            jobs.append(self._warmup10(rng))
        jobs += [self._influence_cx(5, rng) for _ in range(4)]
        jobs.append(self._influence_cx(6, rng))
        return jobs

    def warmup(self):
        rng = self.rng("warmup")
        return [self._elim_majority(8),
                self._kwise(*self.small[1][:2], 3, self.small[1][2], rng),
                self._warmup10(rng), self._influence_cx(5, rng)]

    # -- Theorem 2 elimination sets on independent fair bits (m = 2)

    def _elim_job(self, kind, n, make_f, p, alpha, expected_family, rng):
        d = self.uniform[n]
        probes = [tuple(sorted(rng.sample(range(n), size))) for size in (1, 2)]

        def run():
            return T.verify_elimination(make_f(), d, 2, p, alpha)

        def check(v):
            _expect_verdict(v, "thm2")
            expect(v.computed["certificate_ok"], "certificate failed")
            family = v.computed["family"]
            if expected_family is not None:
                expect(family == expected_family, f"family {family}, expected {expected_family}")
            # Oracle: every family member is pivotal, and a seeded subset
            # outside the union is not.
            f = make_f()
            union = set(v.computed["union"])
            for S_ in list(family) + [t for t in probes if not union.intersection(t)]:
                mass = self.oracles.brute_set_deviating_mass(f, d, S_, alpha)
                expect((mass > p) == (S_ in family),
                       f"subset {S_}: oracle deviating mass {mass} vs p={p}")

        return Job(f"{kind}-n{n}", run, check, _verdict_canon)

    def _elim_dense(self, n, rng):
        bits = rng.getrandbits(1 << n)
        return self._elim_job("elim-dense", n, lambda: _bits_table(n, bits),
                              F(1, 4), F(1, 4), None, rng)

    def _elim_and(self, n, rng):
        i, j = sorted(rng.sample(range(n), 2))
        return self._elim_job("elim-and", n,
                              lambda: B.UpwardClosure.from_masks(n, [(1 << i) | (1 << j)]),
                              F(1, 8), F(1, 8), ((i,), (j,)), rng)

    def _elim_dictator(self, n, rng):
        i = rng.randrange(n)
        return self._elim_job("elim-dictator", n, lambda: B.DictatorFn(n, i),
                              HALF, F(1, 4), ((i,),), rng)

    def _elim_majority(self, n):
        return self._elim_job("elim-majority", n, lambda: B.MajorityFn(n),
                              F(1, 4), F(1, 8), tuple((i,) for i in range(n)), self.rng("maj"))

    # -- exact k-wise independence on explicit supports

    def _kwise(self, label, d, k, indep, rng):
        brute = d.n <= 7 and len(d.support) <= 16 and rng.random() < 0.5

        def check(res):
            expect(res.ok == (k <= indep),
                   f"{label} check_kwise({k}) = {res.ok}, construction says {k <= indep}")
            if res.ok:
                expect(res.witness is None, "ok result carries a witness")
            else:
                w = res.witness
                joint = self.oracles.brute_event_mass(d, dict(zip(w.players, w.assignment)))
                prod = ONE
                for i, s in zip(w.players, w.assignment):
                    prod *= self.oracles.brute_event_mass(d, {i: s})
                expect((w.joint, w.product) == (joint, prod) and joint != prod,
                       f"witness {w} disagrees with oracle ({joint}, {prod})")
            if brute:
                ok, _ = self.oracles.brute_kwise(d, k)
                expect(ok == res.ok, f"brute_kwise({k}) = {ok}")

        def canon(res):
            w = res.witness
            return _dumps([res.ok] + ([] if w is None else
                                      [w.players, w.assignment, str(w.joint), str(w.product)]))

        return Job(f"kwise-{label.split('-')[0]}-k{k}", lambda: d.check_kwise(k), check, canon)

    # -- warm-up bound: dense n = 10 functions on one shared explicit grid

    def _warmup10(self, rng):
        bits = rng.getrandbits(1024)
        probe = rng.randrange(10) if rng.random() < 0.3 else None
        grid = self.grid10

        def run():
            f = _bits_table(10, bits)
            return f, A.effect_report(f, grid)

        def check(out):
            f, rep = out
            effects = rep.effects()
            expect(len(effects) == 10, f"{len(effects)} effects")
            for alpha in (F(1, 8), F(1, 4), HALF):
                count = sum(1 for e in effects if e > alpha)
                expect(count < 4 / alpha ** 2, f"warm-up bound fails at alpha={alpha}")
            if probe is not None:
                want = self.oracles.brute_signed_effect(f, grid, probe)
                expect(rep.rows[probe].signed == want,
                       f"player {probe} signed effect {rep.rows[probe].signed}, oracle {want}")

        return Job("warmup-n10", run, check,
                   lambda out: _dumps([str(r.signed) for r in out[1].rows]))

    # -- certified zero-influence counterexample

    def _influence_cx(self, k, rng):
        probe = rng.randrange((1 << k) - 1)

        def check(out):
            f, d, cert = out
            expect(cert.ok, f"certificate failed: {cert.checks}")
            expect(d.expectation(f) == HALF, "not balanced under the mixture")
            expect(self.oracles.brute_influence(f, d, probe) == 0,
                   f"player {probe} has nonzero influence")

        def canon(out):
            f, d, cert = out
            return _dumps([f.generators, len(d.support),
                           [[c.name, c.ok, c.detail] for c in cert.checks]])

        return Job(f"influence-cx-k{k}", lambda: B.influence_counterexample(k), check, canon)


# ----------------------------------------------------------------------
# cli-batch: many tiny fresh instances through pivotal.cli.main


@dataclass
class CliOutput:
    code: int
    stdout: str
    stderr: str


def run_cli(argv: list[str]) -> CliOutput:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
    return CliOutput(code, out.getvalue(), err.getvalue())


def _cli_canon(out: CliOutput) -> str:
    return _dumps([out.code, out.stdout, out.stderr])


def _json_out(out: CliOutput):
    expect(out.code == 0, f"exit code {out.code}; stderr {out.stderr!r}")
    return json.loads(out.stdout)


def _csv_out(out: CliOutput) -> list[list[str]]:
    expect(out.code == 0, f"exit code {out.code}; stderr {out.stderr!r}")
    return list(csv.reader(io.StringIO(out.stdout)))


# Rounds whose files are written at set-up; later rounds write theirs
# when the loop reaches them, outside the timed region, so no instance
# is ever run twice in the timed phase.
CLI_SETUP_ROUNDS = 20
SKEWS = (F(1, 4), F(1, 3), F(2, 5), HALF, F(3, 5), F(2, 3))


class CliBatch(Workload):
    name = "cli-batch"
    # One round takes about 0.1 s; replay all rounds written at set-up.
    trace_rounds = CLI_SETUP_ROUNDS

    def __init__(self, seed, oracles, workdir):
        super().__init__(seed, oracles, workdir)
        self.dir = workdir / "cli"
        self.dir.mkdir(parents=True, exist_ok=True)
        self._counter = 0
        self.prebuilt = [Workload.round(self, r) for r in range(CLI_SETUP_ROUNDS)]

    def round(self, r):
        return list(self.prebuilt[r]) if r < CLI_SETUP_ROUNDS else super().round(r)

    def warmup(self):
        return self.build_round(self.rng("warmup"), 0)[::4]

    # -- instance files

    def _path(self, tag: str) -> str:
        self._counter += 1
        return str(self.dir / f"{self._counter:06d}-{tag}.json")

    def _save_dist(self, d) -> str:
        path = self._path("dist")
        S.save_dist(path, d)
        return path

    def _save_fn(self, f) -> str:
        path = self._path("fn")
        S.save_fn(path, f)
        return path

    def _binary_space(self, rng):
        """A binary space with equal marginals and pairwise independence."""
        choice = rng.randrange(4)
        if choice == 0:
            return G.hadamard_mu(rng.choice((2, 3)))
        if choice == 1:
            return G.mixture_D(rng.choice((2, 3)))
        n = rng.randrange(3, 7)
        q = rng.choice(SKEWS)
        return D.ProductDist(D.BINARY, n, [(q, 1 - q)] * n)

    def _function(self, rng, d):
        """(object, command-line spec) for a seeded function on d's players."""
        n = d.n
        choice = rng.randrange(5)
        if choice == 0 and n <= 7:
            vals = [F(rng.randint(-2, 2), 2) for _ in range(1 << n)]
            points = itertools.product((0, 1), repeat=n)
            f = B.DenseTable(D.BINARY, n, list(zip(points, vals)))
            return f, self._save_fn(f)
        if choice == 1:
            gens = {rng.getrandbits(n) | (1 << rng.randrange(n)) for _ in range(rng.randint(1, 4))}
            f = B.UpwardClosure.from_masks(n, gens)
            return f, self._save_fn(f)
        if choice == 2:
            i = rng.randrange(n)
            return B.DictatorFn(n, i), f"dictator:{i}"
        if choice == 3 and n % 2:
            return B.MajorityFn(n), "majority"
        return B.ParityFn(n), "parity"

    def _nonconstant_on_support(self, rng, d):
        while True:
            f, spec = self._function(rng, d)
            if len({f.evaluate(x) for x, _ in d.items()}) > 1:
                return f, spec

    # -- job kinds

    def build_round(self, rng, r) -> list[Job]:
        jobs = []
        for fmt in ("json", "json", "csv"):
            jobs.append(self._analyze_effects(rng, fmt))
            jobs.append(self._analyze_influences(rng, fmt))
            jobs.append(self._analyze_pivotal(rng, fmt))
        jobs += [self._analyze_counts(rng, with_p) for with_p in (False, True)]
        for _ in range(2):
            jobs += [self._verify_thm1(rng), self._verify_warmup(rng),
                     self._verify_sum_bound(rng), self._verify_binary_bound(rng),
                     self._verify_reduction(rng), self._verify_convex(rng)]
        jobs += [self._verify_identity(rng, k) for k in (2, 3, 4)]
        jobs += [self._gen(rng) for _ in range(3)]
        jobs.append(self._counterexample(rng))
        jobs.append(self._usage_error(rng))
        return jobs

    def _cli_job(self, kind, argv, check) -> Job:
        return Job(kind, lambda: run_cli(argv), check, _cli_canon)

    def _oracle_probe(self, rng) -> bool:
        return rng.random() < 0.25

    def _analyze_effects(self, rng, fmt):
        d = self._binary_space(rng)
        f, spec = self._function(rng, d)
        argv = ["analyze", "--dist", self._save_dist(d), "--fn", spec,
                "--what", "effects", "--format", fmt]
        probe = self._oracle_probe(rng)

        def check(out):
            if fmt == "json":
                signed = [F(r["signed"]) for r in _json_out(out)["players"]]
            else:
                rows = _csv_out(out)
                expect(rows[0] == ["player", "signed", "signed_dec", "effect", "effect_dec"],
                       f"csv header {rows[0]}")
                signed = [F(r[1]) for r in rows[1:]]
            expect(len(signed) == d.n, f"{len(signed)} players, expected {d.n}")
            if probe:
                want = [self.oracles.brute_signed_effect(f, d, i) for i in range(d.n)]
                expect(signed == want, f"signed effects {signed}, oracle {want}")

        return self._cli_job(f"analyze-effects-{fmt}", argv, check)

    def _analyze_influences(self, rng, fmt):
        d = self._binary_space(rng)
        f, spec = self._function(rng, d)
        argv = ["analyze", "--dist", self._save_dist(d), "--fn", spec,
                "--what", "influences", "--format", fmt]
        probe = self._oracle_probe(rng)

        def check(out):
            if fmt == "json":
                values = [F(r["influence"]) for r in _json_out(out)["players"]]
            else:
                values = [F(r[1]) for r in _csv_out(out)[1:]]
            expect(len(values) == d.n and all(0 <= v <= 1 for v in values),
                   f"influences {values}")
            if probe:
                want = [self.oracles.brute_influence(f, d, i) for i in range(d.n)]
                expect(values == want, f"influences {values}, oracle {want}")

        return self._cli_job(f"analyze-influences-{fmt}", argv, check)

    def _analyze_pivotal(self, rng, fmt):
        if rng.random() < 0.5:
            n = rng.choice((2, 3))
            d = G.majp_dist(n, rng.choice(P_CHOICES))
            f, spec = B.MajPFn(n), "majp"
        else:
            d = self._binary_space(rng)
            f, spec = self._function(rng, d)
        p, alpha = rng.choice((F(1, 8), F(1, 4), HALF)), rng.choice(ALPHAS + (F(1, 3),))
        argv = ["analyze", "--dist", self._save_dist(d), "--fn", spec, "--what", "pivotal",
                "--p", str(p), "--alpha", str(alpha), "--format", fmt]
        probe = self._oracle_probe(rng)

        def check(out):
            if fmt == "json":
                rows = [(F(r["deviating_mass"]), r["pivotal"]) for r in _json_out(out)["players"]]
            else:
                rows = [(F(r[1]), r[3] == "True") for r in _csv_out(out)[1:]]
            expect(len(rows) == d.n, f"{len(rows)} players")
            expect(all(piv == (mass > p) for mass, piv in rows), "pivotal flag != mass > p")
            if probe:
                want = [self.oracles.brute_deviating_mass(f, d, i, alpha) for i in range(d.n)]
                expect([m for m, _ in rows] == want, f"deviating masses {rows}, oracle {want}")

        return self._cli_job(f"analyze-pivotal-{fmt}", argv, check)

    def _analyze_counts(self, rng, with_p):
        d = self._binary_space(rng)
        f, spec = self._function(rng, d)
        alpha = rng.choice(ALPHAS + (F(1, 3),))
        p = rng.choice((F(1, 8), F(1, 4), HALF))
        argv = ["analyze", "--dist", self._save_dist(d), "--fn", spec, "--what", "counts",
                "--alpha", str(alpha)] + (["--p", str(p)] if with_p else [])

        def check(out):
            payload = _json_out(out)
            if with_p:
                want = sum(1 for i in range(d.n)
                           if self.oracles.brute_deviating_mass(f, d, i, alpha) > p)
                expect(payload["count_pivotal"] == want, f"{payload}, oracle count {want}")
            else:
                want = sum(1 for i in range(d.n)
                           if abs(self.oracles.brute_signed_effect(f, d, i)) > alpha)
                expect(payload["count_effect"] == want, f"{payload}, oracle count {want}")

        return self._cli_job("analyze-counts-p" if with_p else "analyze-counts", argv, check)

    def _verify(self, which, d, spec, extra, expect_computed=None, dist2=None):
        argv = ["verify", "--which", which, "--dist", self._save_dist(d), "--fn", spec] + extra
        if dist2 is not None:
            argv += ["--dist2", self._save_dist(dist2)]

        def check(out):
            payload = _json_out(out)
            expect(payload["theorem"] == which and payload["ok"] is True,
                   f"{which} verdict {payload}")
            if expect_computed is not None:
                expect_computed(payload["computed"])

        return self._cli_job(f"verify-{which}", argv, check)

    def _pa(self, rng) -> list[str]:
        return ["--p", str(rng.choice((F(1, 8), F(1, 4), HALF))),
                "--alpha", str(rng.choice(ALPHAS + (F(1, 3),)))]

    def _verify_thm1(self, rng):
        d = self._binary_space(rng)
        f, spec = self._function(rng, d)
        return self._verify("thm1", d, spec, self._pa(rng))

    def _verify_warmup(self, rng):
        n = rng.randrange(3, 7)
        d = G.uniform_product(n)
        f, spec = self._function(rng, d)
        return self._verify("warmup", d, spec, ["--alpha", str(rng.choice(ALPHAS))])

    def _verify_sum_bound(self, rng):
        d = self._binary_space(rng)
        f, spec = self._function(rng, d)
        players = sorted(rng.sample(range(d.n), rng.randint(1, d.n)))
        return self._verify("sum-bound", d, spec, ["--players", ",".join(map(str, players))])

    def _verify_binary_bound(self, rng):
        d = self._binary_space(rng)
        f, spec = self._function(rng, d)
        return self._verify("binary-bound", d, spec, ["--alpha", str(rng.choice(ALPHAS))])

    def _verify_reduction(self, rng):
        d = self._binary_space(rng)
        f, spec = self._function(rng, d)
        return self._verify("reduction", d, spec, self._pa(rng))

    def _verify_convex(self, rng):
        k = rng.choice((2, 3))
        mu = G.hadamard_mu(k)
        f, spec = self._function(rng, mu)
        q = rng.choice((ZERO, F(1, 7), F(1, 3), HALF, ONE))
        return self._verify("convex", mu, spec,
                            ["--q", str(q), "--player", str(rng.randrange(mu.n))],
                            dist2=G.complement_mu(mu))

    def _verify_identity(self, rng, k):
        mu = G.hadamard_mu(k)
        f, spec = self._nonconstant_on_support(rng, mu)

        def ratio_is_four(computed):
            expect(computed["ratio"] == "4", f"effect-identity ratio {computed['ratio']}")

        return self._verify("effect-identity", mu, spec, [], ratio_is_four)

    def _gen(self, rng):
        choice = rng.randrange(4)
        if choice == 0:
            k = rng.choice((2, 3, 4))
            argv, make = ["gen", "hadamard-mu", "--k", str(k)], lambda: G.hadamard_mu(k)
        elif choice == 1:
            k = rng.choice((2, 3, 4))
            argv, make = ["gen", "mixture-d", "--k", str(k)], lambda: G.mixture_D(k)
        elif choice == 2:
            n = rng.randrange(2, 7)
            argv, make = ["gen", "uniform-product", "--n", str(n)], lambda: G.uniform_product(n)
        else:
            n, p = rng.randrange(2, 4), rng.choice(P_CHOICES)
            argv, make = ["gen", "majp", "--n", str(n), "--p", str(p)], lambda: G.majp_dist(n, p)

        def check(out):
            expect(out.code == 0, f"gen exit code {out.code}")
            expect(S.dist_from_obj(json.loads(out.stdout)) == make(),
                   "generated distribution differs from the generator")

        return self._cli_job(f"gen-{argv[1]}", argv, check)

    def _counterexample(self, rng):
        k = rng.choice((3, 4))
        fn_path, dist_path = self._path("cx-fn"), self._path("cx-dist")
        argv = ["counterexample", "--which", "effect", "--k", str(k),
                "--out-fn", fn_path, "--out-dist", dist_path]

        def check(out):
            payload = _json_out(out)
            expect(payload["ok"] is True and payload["k"] == k, f"certificate {payload}")
            f, d = S.load_fn(fn_path), S.load_dist(dist_path)
            effects = [self.oracles.brute_signed_effect(f, d, i) for i in range(d.n)]
            expect(all(e == 0 for e in effects), f"nonzero effects {effects}")

        return self._cli_job(f"counterexample-k{k}", argv, check)

    def _usage_error(self, rng):
        # The warm-up bound needs fair independent bits; a skewed product is
        # an input error (exit 2), not a failed verification (exit 1).
        n, q = rng.randrange(3, 6), rng.choice((F(1, 4), F(1, 3)))
        d = D.ProductDist(D.BINARY, n, [(q, 1 - q)] * n)
        argv = ["verify", "--which", "warmup", "--dist", self._save_dist(d),
                "--fn", "parity", "--alpha", "1/4"]

        def check(out):
            expect(out.code == 2 and out.stdout == "" and out.stderr.startswith("pivotal: error:"),
                   f"expected a usage error, got {out}")

        return self._cli_job("usage-error", argv, check)


WORKLOADS = {w.name: w for w in (MajpGrid, Certify, CliBatch)}
