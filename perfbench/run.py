"""Benchmark of the pivotal library: one workload, one seed, one run.

    python3 perfbench/run.py --workload majp-grid --seed 0 --seconds 20 --trace 0

Run from the repository root. The library is imported from ``src/`` and
the brute-force references from ``tests/oracles.py`` (read-only). Load is
a closed loop with one client in this one process: each job starts after
the previous one returns, and nothing runs in parallel.

Job and set-up times are scaled to a reference host speed measured by a
speed probe between jobs (see SpeedProbe); the raw wall values are printed
beside them. With ``--trace 0`` the last stdout line is a JSON object with
the end-to-end metrics; with ``--trace 1`` the same timed run is followed by
a paired replay of the workload's first rounds (each job untraced and
traced), and the JSON carries the per-layer metrics. Human-readable lines
come before it. The exit code is 1 when any job's output check fails.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

import argparse
import bisect
import gc
import hashlib
import importlib.util
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
RUN_DIR = ROOT / ".perfbench_run"

DEFAULT_SEED = 0
SETUP_REPEATS = 5
# Enough jobs that at least ten lie beyond the 90th percentile.
MIN_JOBS = 100
# Enough rounds that every once-a-round job kind (the large grids and
# eliminations that make up the upper tail) has three samples, and that
# majp-grid and certify, whose rounds take about 10 s, always run the same
# number of rounds.
MIN_ROUNDS = 3
# Longest timed phase, as a multiple of --seconds of wall time.
WALL_CAP = 1.5

# Speed probe. The shared host's speed drifts by 20% and more within
# minutes, and every job slows with it. A fixed stdlib kernel (exact
# product-grid accumulation, the library's inner loop without the library)
# is run PROBE_BURST times in a row between jobs, at least every
# PROBE_INTERVAL_S, and the median of a burst is one probe time (the first
# run after a job finds the caches cold). The speed changes within a
# second, so each job's wall time is scaled by PROBE_REF_S over the median
# of the probe times closest to the job: the PROBE_NEAREST nearest, or all
# within half the job's duration of it if those are more. Times then read
# as seconds on a host whose probe time is PROBE_REF_S (its typical median
# on the baseline machine). Library changes do not touch the kernel.
PROBE_REF_S = 0.0037
PROBE_BURST = 3
PROBE_INTERVAL_S = 0.15
PROBE_NEAREST = 5
_PROBE_ROWS = tuple(tuple(enumerate(row)) for row in (
    (Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)),
    (Fraction(1, 5), Fraction(2, 5), Fraction(2, 5)),
    (Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
    (Fraction(1, 6), Fraction(1, 3), Fraction(1, 2)),
    (Fraction(2, 7), Fraction(2, 7), Fraction(3, 7)),
))

END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s",
    "job_s_p50": "s",
    "job_s_p90": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# (metric, unit, key in Tracer.totals or a derived key below)
PER_LAYER = [
    ("dist.items.calls", "count", "dist.items.calls"),
    ("dist.items.points", "count", "dist.items.points"),
    ("dist.items.self_s", "s", "dist.items.self_s"),
    ("boolfn.evaluate.calls", "count", "boolfn.evaluate.calls"),
    ("boolfn.evaluate.self_s", "s", "boolfn.evaluate.self_s"),
    ("analysis.report.calls", "count", "analysis.report.calls"),
    ("analysis.report.self_s", "s", "analysis.report.self_s"),
    ("analysis.pivotal_set.calls", "count", "analysis.pivotal_set.calls"),
    ("analysis.pivotal_set.self_s", "s", "analysis.pivotal_set.self_s"),
    ("dist.check_kwise.calls", "count", "dist.check_kwise.calls"),
    ("dist.check_kwise.passes", "count", "dist.items.calls_in.dist.check_kwise"),
    ("dist.check_kwise.self_s", "s", "dist.check_kwise.self_s"),
    ("theorems.elimination.subsets", "count", "theorems.elimination.subsets"),
    ("theorems.elimination.pivotal_ratio", "ratio", "@pivotal_ratio"),
    ("theorems.verify.calls", "count", "theorems.verify.calls"),
    ("theorems.verify.self_s", "s", "theorems.verify.self_s"),
    ("theorems.reduce.self_s", "s", "theorems.reduce.self_s"),
    ("theorems.tightness.self_s", "s", "theorems.tightness.self_s"),
    ("dist.sample.draws", "count", "dist.sample.calls"),
    ("dist.sample.self_s", "s", "dist.sample.self_s"),
    ("analysis.estimate.self_s", "s", "analysis.estimate.self_s"),
    ("boolfn.closure.masks_in", "count", "boolfn.closure.masks_in"),
    ("boolfn.closure.generators_out", "count", "boolfn.closure.generators_out"),
    ("boolfn.closure.self_s", "s", "boolfn.closure.self_s"),
    ("boolfn.certificate.self_s", "s", "boolfn.certificate.self_s"),
    ("dist.construct.calls", "count", "dist.construct.calls"),
    ("dist.construct.self_s", "s", "dist.construct.self_s"),
    ("dist.query.calls", "count", "dist.query.calls"),
    ("dist.query.self_s", "s", "dist.query.self_s"),
    ("dist.to_explicit.points", "count", "dist.to_explicit.points"),
    ("boolfn.construct.self_s", "s", "boolfn.construct.self_s"),
    ("generators.self_s", "s", "generators.self_s"),
    ("analysis.fourier.self_s", "s", "analysis.fourier.self_s"),
    ("serialize.load.calls", "count", "serialize.load.calls"),
    ("serialize.load.self_s", "s", "serialize.load.self_s"),
    ("serialize.save.self_s", "s", "serialize.save.self_s"),
    ("serialize.bytes", "bytes", "serialize.bytes"),
    ("cli.main.calls", "count", "cli.main.calls"),
    ("cli.main.self_s", "s", "cli.main.self_s"),
    ("cli.stdout_bytes", "bytes", "cli.stdout_bytes"),
    ("job.self_s", "s", "job.self_s"),
    ("trace.jobs", "count", "job.calls"),
    ("trace.untraced_jobs_per_s", "jobs/s", "@untraced_jobs_per_s"),
    ("trace.traced_jobs_per_s", "jobs/s", "@traced_jobs_per_s"),
    ("trace.overhead_jobs_per_s", "jobs/s", "@overhead_jobs_per_s"),
]


def probe_kernel() -> None:
    """Sum the weights of a 3^5 product grid by symbol count, exactly."""
    acc: dict[int, Fraction] = {}
    for combo in itertools.product(*_PROBE_ROWS):
        w = Fraction(1)
        for _, p in combo:
            w *= p
        key = sum(s for s, _ in combo)
        acc[key] = acc.get(key, 0) + w
    if sum(acc.values()) != 1:
        raise SystemExit("perfbench: speed probe kernel lost mass")


class SpeedProbe:
    """Probe times, each stamped with the middle of its burst."""

    def __init__(self):
        self.stamps: list[float] = []
        self.times: list[float] = []

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            t0 = perf_counter()
            burst = []
            for _ in range(PROBE_BURST):
                t = perf_counter()
                probe_kernel()
                burst.append(perf_counter() - t)
            self.stamps.append((t0 + perf_counter()) / 2)
            self.times.append(statistics.median(burst))

    def maybe_sample(self) -> None:
        if not self.stamps or perf_counter() - self.stamps[-1] >= PROBE_INTERVAL_S:
            self.sample()

    def scale(self, start: float, end: float) -> float:
        """Factor from wall seconds in [start, end] to seconds at reference speed.

        Uses the probes within half the job's duration of it, or the
        PROBE_NEAREST closest ones if those are more.
        """
        def gap(k: int) -> float:
            return max(start - self.stamps[k], self.stamps[k] - end, 0.0)

        reach = (end - start) / 2
        lo = hi = bisect.bisect_left(self.stamps, start)
        near = []
        while lo > 0 or hi < len(self.stamps):
            if hi < len(self.stamps) and (lo == 0 or gap(hi) <= gap(lo - 1)):
                k, hi = hi, hi + 1
            else:
                lo -= 1
                k = lo
            if len(near) >= PROBE_NEAREST and gap(k) > reach:
                break
            near.append(self.times[k])
        return PROBE_REF_S / statistics.median(near)


def load_modules():
    """Import the library from src/, the oracles, and the benchmark modules."""
    t0 = perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import pivotal

    if Path(pivotal.__file__).resolve().parent != ROOT / "src" / "pivotal":
        raise SystemExit(f"perfbench: pivotal imported from {pivotal.__file__}, not src/")
    spec = importlib.util.spec_from_file_location("pivotal_oracles", ROOT / "tests" / "oracles.py")
    if spec is None or not Path(spec.origin).is_file():
        raise SystemExit("perfbench: tests/oracles.py not found")
    oracles = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(oracles)
    import tracing
    import workloads
    return oracles, workloads, tracing, perf_counter() - t0


class Outcomes:
    """Per-job accounting: attempts and failures."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, job, out, error: str | None, digest=None) -> None:
        """Check one job's output; feed its canonical form to ``digest``."""
        self.attempted += 1
        if error is None:
            try:
                job.check(out)
            except Exception as exc:  # any broken invariant counts as a failed job
                error = f"{type(exc).__name__}: {exc}"
        if error is not None:
            self.failures.append(f"{job.kind}: {error}"[:500])
        if digest is not None:
            digest.update(job.kind.encode())
            digest.update(b"\0")
            digest.update((job.canon(out) if error is None else "FAILED").encode())
            digest.update(b"\0")


def run_job(job, runner=None):
    """Time one job; errors are returned, not raised."""
    t0 = perf_counter()
    try:
        out = job.run() if runner is None else runner(job.run)
        error = None
    except Exception as exc:  # a job that raises is a failed job
        out, error = None, f"raised {type(exc).__name__}: {exc}"
    return out, error, perf_counter() - t0


def setup(workloads, oracles, name: str, seed: int, outcomes: Outcomes):
    """Seeded input generation, file writes and warm-up; returns the workload."""
    w = workloads.WORKLOADS[name](seed, oracles, RUN_DIR)
    for job in w.warmup():
        out, error, _ = run_job(job)
        outcomes.record(job, out, error)
    return w


def timed_phase(w, seconds: float, outcomes: Outcomes, probe: SpeedProbe):
    """Closed loop over whole rounds until the jobs have run ``seconds``
    at reference speed and at least MIN_JOBS jobs and MIN_ROUNDS rounds
    have run. Counting scaled time, a slow spell of the host does not cut
    a run to fewer rounds; past MIN_ROUNDS a run stops anyway after
    WALL_CAP times ``seconds`` of wall time.

    Returns one (round, job kind, start, wall seconds) record per job and
    the digest of the first round's canonical outputs.
    """
    records: list[tuple[int, str, float, float]] = []
    digest = hashlib.sha256()
    wall = scaled = 0.0
    r = 0
    while ((scaled < seconds and wall < WALL_CAP * seconds)
           or len(records) < MIN_JOBS or r < MIN_ROUNDS):
        first = len(records)
        for job in w.round(r):
            probe.maybe_sample()
            start = perf_counter()
            out, error, dt = run_job(job)
            records.append((r, job.kind, start, dt))
            wall += dt
            outcomes.record(job, out, error, digest if r == 0 else None)
        r += 1
        scaled += sum(dt * probe.scale(t0, t0 + dt) for _, _, t0, dt in records[first:])
    probe.sample(PROBE_NEAREST)  # neighbours for the last jobs
    return records, digest.hexdigest()


def traced_phase(w, tracing, workloads, outcomes: Outcomes):
    """Replay the first rounds job by job, untraced and traced in turn.

    Each job runs twice back to back, alternating which run goes first, so
    both timings see the same state of a shared host; the difference of the
    two rates is the tracing overhead.
    """
    tracer = tracing.Tracer()
    plain_times, traced_times = [], []
    plain_digest, traced_digest = hashlib.sha256(), hashlib.sha256()
    job_id = 0
    for r in range(w.trace_rounds):
        for job in w.round(r):
            for traced in ((False, True) if job_id % 2 == 0 else (True, False)):
                if traced:
                    out, error, dt = run_job(job, lambda fn: tracer.run_job(job_id, fn))
                    traced_times.append(dt)
                    if isinstance(out, workloads.CliOutput):
                        tracer.totals["cli.stdout_bytes"] += len(out.stdout.encode())
                else:
                    out, error, dt = run_job(job)
                    plain_times.append(dt)
                outcomes.record(job, out, error, traced_digest if traced else plain_digest)
            job_id += 1
    same = plain_digest.digest() == traced_digest.digest()
    return tracer, plain_times, traced_times, same


def job_metrics(times: list[float]) -> dict:
    return {
        "jobs_per_s": len(times) / sum(times),
        "job_s_p50": statistics.median(times),
        "job_s_p90": statistics.quantiles(times, n=10)[8],
    }


def layer_metrics(tracer, untraced: list[float], traced: list[float]) -> dict:
    totals = tracer.totals
    untraced_rate = len(untraced) / sum(untraced)
    traced_rate = len(traced) / sum(traced)
    subsets = totals["theorems.elimination.subsets"]
    derived = {
        "@pivotal_ratio": totals["theorems.elimination.pivotal"] / subsets if subsets else 0.0,
        "@untraced_jobs_per_s": untraced_rate,
        "@traced_jobs_per_s": traced_rate,
        "@overhead_jobs_per_s": traced_rate - untraced_rate,
    }
    out = {}
    for name, unit, key in PER_LAYER:
        value = derived[key] if key.startswith("@") else totals.get(key, 0)
        if unit in ("count", "bytes"):
            value = int(value)
        out[name] = {"value": value, "unit": unit}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    probe = SpeedProbe()
    probe.sample(PROBE_NEAREST)
    t0 = perf_counter()
    oracles, workloads, tracing, import_s = load_modules()
    import_scaled = import_s * probe.scale(t0, t0 + import_s)
    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    RUN_DIR.mkdir(exist_ok=True)
    outcomes = Outcomes()

    setup_times = []  # (start, wall seconds)
    for _ in range(SETUP_REPEATS):
        w = None  # free the previous set-up before timing the next
        gc.collect()
        probe.sample(PROBE_NEAREST // 2)
        t0 = perf_counter()
        w = setup(workloads, oracles, args.workload, args.seed, outcomes)
        setup_times.append((t0, perf_counter() - t0))
    probe.sample(PROBE_NEAREST // 2)
    setup_s = import_scaled + statistics.median(
        dt * probe.scale(t0, t0 + dt) for t0, dt in setup_times)

    gc.collect()
    records, first_digest = timed_phase(w, args.seconds, outcomes, probe)
    wall = [dt for _, _, _, dt in records]
    durations = [dt * probe.scale(t0, t0 + dt) for _, _, t0, dt in records]
    rounds = records[-1][0] + 1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    e2e = {**job_metrics(durations), "setup_s": setup_s, "peak_rss_mib": peak_rss_mib}
    wall_e2e = {**job_metrics(wall),
                "setup_s": import_s + statistics.median(dt for _, dt in setup_times)}

    problems = []
    layers = None
    if args.trace:
        tracer, plain, traced, same = traced_phase(w, tracing, workloads, outcomes)
        if not same:
            problems.append("traced outputs differ from untraced outputs")
        layers = layer_metrics(tracer, plain, traced)
        spans_path = RUN_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans_path)
    shutil.rmtree(RUN_DIR / "cli", ignore_errors=True)

    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    if args.seed == DEFAULT_SEED and recorded.get(args.workload) != first_digest:
        problems.append(f"output digest {first_digest} != recorded "
                        f"{recorded.get(args.workload)} for seed {DEFAULT_SEED}")
    problems = outcomes.failures + problems
    failed = len(problems)

    beyond = sum(1 for d in durations if d > e2e["job_s_p90"])
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {platform.python_version()}  cpus {os.cpu_count()}  {platform.machine()}")
    print(f"timed phase: {len(durations)} jobs in {rounds} rounds, {sum(wall):.3f} s of job wall time")
    probe_times = probe.times
    print(f"speed probe: {len(probe_times)} bursts, median {statistics.median(probe_times):.6f} s "
          f"(reference {PROBE_REF_S} s), min {min(probe_times):.6f}, max {max(probe_times):.6f}")
    print("metric          at reference speed     wall")
    for name, value in e2e.items():
        note = ""
        if name == "job_s_p50":
            note = f"  ({len(durations)} samples)"
        elif name == "job_s_p90":
            note = f"  ({beyond} samples above)"
        elif name == "setup_s":
            note = (f"  (import {import_s:.4f} s + median of {SETUP_REPEATS} set-ups "
                    + ", ".join(f"{dt:.4f}" for _, dt in setup_times) + ", wall)")
        raw = f"{wall_e2e[name]:12.6f}" if name in wall_e2e else " " * 12
        print(f"{name:<14} {value:12.6f} {END_TO_END_UNITS[name]:<6} {raw}{note}")
    print(f"{'failed_ratio':<14} {failed / outcomes.attempted:12.6f} ratio  "
          f"({failed} of {outcomes.attempted} jobs)")
    by_kind: dict[str, list[float]] = {}
    for (_, kind, _, _), dt in zip(records, durations):
        by_kind.setdefault(kind, []).append(dt)
    print("per job kind: count, median s at reference speed")
    for kind, times in sorted(by_kind.items(), key=lambda kv: statistics.median(kv[1])):
        print(f"  {kind:<28} {len(times):6d} {statistics.median(times):10.6f}")
    print(f"output digest (first round): {first_digest}")
    if layers is not None:
        print(f"paired replay: {len(traced)} jobs untraced and traced, "
              f"spans in {spans_path.relative_to(ROOT)}")
        for name, m in layers.items():
            print(f"  {name:<36} {m['value']!r} {m['unit']}")
    for problem in problems[:10]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)

    metrics = layers if layers is not None else {
        name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in e2e.items()}
    print(json.dumps({"correct": not problems, "attempted": outcomes.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
