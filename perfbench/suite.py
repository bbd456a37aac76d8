"""The benchmark's workloads: one cold iteration of each.

Each workload runs through repro's public entry points in a single
process (``jobs=1``), on inputs made only from the benchmark seed, with
a fresh result cache and fuzz corpus under the iteration's own
directory.  An iteration returns its host timings, the deterministic
counts taken from the generated inputs and the returned results, its
failures, and ``sim_digest``: a SHA-256 over the sorted-JSON
``WorkloadResult.to_dict()`` of every point (plus the fuzz verdicts),
which must not change between runs of the same code and seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time
from pathlib import Path

from hostclock import HostClock

#: the paper's main experiment: contended and near conflict-free points
STAMP_WORKLOADS = (
    "python_opt",
    "genome-sz",
    "kmeans",
    "intruder_opt",
    "vacation_opt",
    "yada",
)
STAMP_SYSTEMS = ("eager", "lazy-vb", "retcon")
#: the `repro figure service` backends plus the pure-STM endpoint
SERVICE_SYSTEMS = ("eager", "retcon", "hybrid-retcon", "stm")
FUZZ_BACKENDS = ("eager", "lazy-vb", "retcon")
#: fuzz seeds per profile; benchmark seed n screens [n*FUZZ_SEEDS, (n+1)*FUZZ_SEEDS)
FUZZ_SEEDS = 30

#: simulated machine size of the two sweeps
NCORES = 32
SCALE = 0.25


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def shape_of(program) -> tuple:
    """The program's opcode sequence with load/store addresses
    abstracted out (every other operand is kept)."""
    from repro.isa.instructions import Load, Store

    return tuple(
        dataclasses.replace(inst, addr=0, disp=0)
        if isinstance(inst, (Load, Store))
        else inst
        for inst in program.instructions
    )


class InputCounts:
    """Counts over the transactions of every generated workload."""

    def __init__(self) -> None:
        self.txns = 0
        self.programs: set = set()
        self.shapes: set = set()
        #: per generated workload: (txn count, static instruction count)
        self.per_input: dict = {}

    def add(self, key, generated) -> None:
        from repro.sim.script import Txn

        txns = instrs = 0
        for script in generated.scripts:
            for item in script.items:
                if isinstance(item, Txn):
                    txns += 1
                    instrs += len(item.program)
                    self.programs.add(item.program.instructions)
                    self.shapes.add(shape_of(item.program))
        self.txns += txns
        self.per_input[key] = (txns, instrs)


class Tally:
    """Accumulates one iteration's results, checks and counts."""

    def __init__(self) -> None:
        self.results: list[dict] = []
        self.units = 0
        self.failed: set = set()
        self.failures: list[str] = []
        self.committed_instrs = 0
        self.cycles = 0
        self.commits = 0
        self.aborts = 0
        self.fallbacks = 0
        self.barrier_instrs = 0
        self.oracle_commits = 0
        self.speedups: list[float] = []

    def fail(self, unit, detail: str) -> None:
        self.failed.add(unit)
        self.failures.append(f"{unit}: {detail}")

    def add_result(self, unit, result, txns: int, instrs: int) -> None:
        """Account one simulated point.  Every scripted transaction
        commits exactly once, so committed static instructions are the
        input's static instruction count."""
        self.results.append(result.to_dict())
        if not result.check_ok:
            detail = [inv.name for inv in result.failed_invariants()]
            if not result.oracle_ok:
                detail.append(
                    f"{len(result.oracle_violations)} oracle violations"
                )
            if not result.golden_ok:
                detail.append("golden diff failed")
            self.fail(unit, "check failed: " + ", ".join(detail))
        if result.commits != txns:
            self.fail(unit, f"{result.commits} commits for {txns} txns")
        self.add_run(result.commits, result.aborts, result.cycles, instrs)
        self.fallbacks += result.stm.get("fallbacks", 0)
        self.barrier_instrs += result.stm.get("barrier_instrs", 0)
        self.oracle_commits += result.oracle_commits
        if result.cycles:
            self.speedups.append(result.seq_cycles / result.cycles)

    def add_run(self, commits: int, aborts: int, cycles: int,
                instrs: int) -> None:
        self.commits += commits
        self.aborts += aborts
        self.cycles += cycles
        self.committed_instrs += instrs


class _Timed:
    """Times the workload call on a :class:`HostClock`: ``seconds`` is
    calibrated, ``host_seconds`` raw.  With a span recorder, records
    spans for exactly the timed region."""

    def __init__(self, recorder=None) -> None:
        self.recorder = recorder
        self.clock = HostClock()
        self.seconds = self.host_seconds = 0.0

    def __enter__(self):
        if self.recorder is not None:
            self.recorder.install()
        self.clock.start()
        self.start = self.clock.now()
        return self

    def __exit__(self, *exc) -> None:
        end = self.clock.now()
        self.clock.stop()
        self.host_seconds = end - self.start
        self.seconds = self.clock.seconds(self.start, end)
        if self.recorder is not None:
            self.recorder.uninstall()


def _stored_at(stamps: list):
    """Progress callback of ``run_points`` and ``figure_service``: keeps
    the clock stamp at which each point's result is stored."""

    def progress(done, total, point, status, seconds):
        stamps.append(HostClock.now())

    return progress


def _latencies(timed: _Timed, stored: list) -> list[float]:
    """A sweep point's latency: every point of the grid is requested
    when the sweep starts, so it runs from there to the point's store."""
    return [timed.clock.seconds(timed.start, stamp) for stamp in stored]


def _sweep_tally(points, results, counts: InputCounts) -> Tally:
    tally = Tally()
    for point in points:
        tally.units += 1
        result = results.get(point)
        if result is None:
            tally.fail(point.label(), "no stored result")
            continue
        txns, instrs = counts.per_input[point.workload]
        tally.add_result(point.label(), result, txns, instrs)
    return tally


def _count_inputs(names, seed: int) -> InputCounts:
    """Regenerate each workload (deterministic in its seed) and count."""
    from repro.workloads.registry import get_workload

    counts = InputCounts()
    for name in names:
        counts.add(name, get_workload(name).generate(
            NCORES, seed=seed, scale=SCALE
        ))
    return counts


def stamp_sweep(seed: int, workdir: Path, recorder=None) -> dict:
    """Cold unchecked ``run_points`` over the STAMP/python grid."""
    from repro.exp import engine
    from repro.exp.cache import ResultCache
    from repro.exp.spec import Point
    from repro.sim.machine import SimulationTimeout

    points = [
        Point(workload, system, NCORES, seed, SCALE)
        for workload in STAMP_WORKLOADS
        for system in STAMP_SYSTEMS
    ]
    cache = ResultCache(workdir / "cache")
    error = None
    results: dict = {}
    stored_at: list = []
    with _Timed(recorder) as timed:
        try:
            results = engine.run_points(
                points, jobs=1, cache=cache, progress=_stored_at(stored_at),
            )
        except SimulationTimeout as exc:
            error = f"SimulationTimeout: {exc}"
    peak = _peak_rss_mb()
    hits = cache.hits

    counts = _count_inputs(STAMP_WORKLOADS, seed)
    tally = _sweep_tally(points, results, counts)
    if error:
        tally.failures.append(error)
    # The store is the output: every point must read back as returned.
    reader = ResultCache(workdir / "cache")
    for point, result in results.items():
        stored = reader.get(point)
        if stored is None or stored.to_dict() != result.to_dict():
            tally.fail(point.label(), "stored result differs")
    return _finish("stamp-sweep", tally, timed, peak,
                   _latencies(timed, stored_at), hits, 0, counts, {})


def service_sweep(seed: int, workdir: Path, recorder=None) -> dict:
    """Cold ``repro figure service`` grid plus the STM endpoint."""
    from repro.analysis import figures
    from repro.exp.cache import ResultCache
    from repro.exp.spec import Point
    from repro.sim.machine import SimulationTimeout
    from repro.workloads.service import SERVICE_WORKLOADS

    cache = ResultCache(workdir / "cache")
    table: dict = {}
    error = None
    stored_at: list = []
    with _Timed(recorder) as timed:
        try:
            table = figures.figure_service(
                ncores=NCORES, seed=seed, scale=SCALE,
                backends=SERVICE_SYSTEMS, cache=cache,
                progress=_stored_at(stored_at),
            )
        except SimulationTimeout as exc:
            error = f"SimulationTimeout: {exc}"
    peak = _peak_rss_mb()
    hits = cache.hits

    # figure_service returns its table; the per-point results are what
    # it stored, read back with a separate (untimed) cache handle.
    reader = ResultCache(workdir / "cache")
    points = [
        Point(name, system, NCORES, seed, SCALE, obs="trace")
        for name in SERVICE_WORKLOADS
        for system in SERVICE_SYSTEMS
    ]
    results = {}
    for point in points:
        stored = reader.get(point)
        if stored is not None and reader.get_artifact(point, "trace"):
            results[point] = stored
    counts = _count_inputs(SERVICE_WORKLOADS, seed)
    tally = _sweep_tally(points, results, counts)
    if error:
        tally.failures.append(error)
    return _finish("service-sweep", tally, timed, peak,
                   _latencies(timed, stored_at), hits, 0, counts,
                   {"table": table})


class _CampaignProbe:
    """Captures the campaign's engine-phase results and times each
    deep-phase case, by rebinding the two names ``repro.fuzz.campaign``
    calls them by."""

    def __init__(self) -> None:
        self.engine_results: dict = {}
        self.cases: list = []

    def __enter__(self):
        from repro.fuzz import campaign

        self._saved = (campaign.run_points, campaign.run_case)
        run_points, run_case = self._saved

        def capture_run_points(*args, **kwargs):
            results = run_points(*args, **kwargs)
            self.engine_results.update(results)
            return results

        def timed_run_case(case, *args, **kwargs):
            start = time.perf_counter()
            outcome = run_case(case, *args, **kwargs)
            self.cases.append((start, time.perf_counter(), outcome))
            return outcome

        campaign.run_points = capture_run_points
        campaign.run_case = timed_run_case
        return self

    def __exit__(self, *exc) -> None:
        from repro.fuzz import campaign

        campaign.run_points, campaign.run_case = self._saved


def fuzz_campaign(seed: int, workdir: Path, recorder=None) -> dict:
    """Cold ``run_campaign``: all profiles, a fixed seed range, no
    cache, no shrinking or emission, fresh corpus."""
    from repro.fuzz import campaign
    from repro.fuzz.gen import FUZZ_PROFILES
    from repro.workloads.registry import get_workload

    profiles = tuple(FUZZ_PROFILES)
    seeds = range(seed * FUZZ_SEEDS, (seed + 1) * FUZZ_SEEDS)
    nthreads = campaign.CampaignOptions.nthreads
    opts = campaign.CampaignOptions(
        profiles=profiles,
        backends=FUZZ_BACKENDS,
        seed_start=seeds.start,
        seeds=len(seeds),
        jobs=1,
        use_cache=False,
        shrink=False,
        emit=False,
        corpus_root=workdir / "corpus",
        regression_dir=workdir / "regressions",
        quiet=True,
    )
    # Spans must be installed before the probe rebinds the campaign's
    # names, so the probe wraps the span wrappers, not the originals.
    with _Timed(recorder) as timed, _CampaignProbe() as probe:
        report = campaign.run_campaign(opts)
    peak = _peak_rss_mb()

    counts = InputCounts()
    for profile in profiles:
        workload = get_workload(profile)
        for case_seed in seeds:
            counts.add((profile, case_seed),
                       workload.generate(nthreads, seed=case_seed))

    tally = Tally()
    for point, result in probe.engine_results.items():
        txns, instrs = counts.per_input[(point.workload, point.seed)]
        tally.add_result((point.workload, point.seed), result, txns, instrs)
    verdicts = []
    for _start, _end, outcome in probe.cases:
        unit = (outcome.case.origin, outcome.case.seed)
        txns, instrs = counts.per_input[unit]
        if outcome.case.txn_count() != txns:
            tally.fail(unit, "deep-phase case differs from its workload")
        for run in outcome.runs:
            if not run.timed_out:
                tally.add_run(run.commits, run.aborts, run.cycles, instrs)
        verdicts.append([
            list(unit),
            outcome.to_dict(),
            [dataclasses.asdict(run) for run in outcome.runs],
        ])
    tally.units = len(profiles) * len(seeds)
    for profile, case_seed in report.diverging:
        tally.fail((profile, case_seed), "diverged")
    for profile, case_seed, detail in report.engine_failures:
        tally.fail((profile, case_seed), f"engine check: {detail}")
    for divergence in report.divergences:
        tally.failures.append(str(divergence))
    if report.programs != tally.units:
        tally.failures.append(
            f"{report.programs} cases screened of {tally.units}"
        )
    verdicts.sort(key=lambda entry: entry[0])
    extra = {
        "verdicts": verdicts,
        "diverging": [list(d) for d in report.diverging],
        "engine_failures": [list(f) for f in report.engine_failures],
    }
    case_s = [timed.clock.seconds(start, end)
              for start, end, _outcome in probe.cases]
    return _finish("fuzz-campaign", tally, timed, peak, case_s, 0,
                   report.skipped_clean, counts, extra)


def _peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _finish(workload, tally: Tally, timed: _Timed, peak_rss_mb, case_s,
            cache_hits, corpus_skips, counts: InputCounts,
            extra: dict) -> dict:
    failures = list(tally.failures)
    if cache_hits or corpus_skips:
        failures.append(
            f"warm run: {cache_hits} cache hits, {corpus_skips} corpus skips"
        )
    logs = [math.log(speedup) for speedup in tally.speedups]
    gmean = math.exp(sum(logs) / len(logs)) if logs else 0.0
    attempts = tally.commits + tally.aborts
    return {
        "workload": workload,
        "wall_s": timed.seconds,
        "host_wall_s": timed.host_seconds,
        "case_s": case_s,
        "units": tally.units,
        "failed_units": len(tally.failed),
        "failures": failures,
        "cache_hits": cache_hits,
        "corpus_skips": corpus_skips,
        "attempts": attempts,
        "committed_instrs": tally.committed_instrs,
        "sim_speedup_gmean": gmean,
        "peak_rss_mb": peak_rss_mb,
        "sim_digest": digest({"results": tally.results, **extra}),
        "counts": {
            "workloads.txns": counts.txns,
            "workloads.programs": len(counts.programs),
            "workloads.shapes": len(counts.shapes),
            "sim.cycles": tally.cycles,
            "htm.commits": tally.commits,
            "htm.aborts": tally.aborts,
            "htm.commit_ratio": tally.commits / attempts if attempts else 0.0,
            "stm.fallbacks": tally.fallbacks,
            "stm.barrier_instrs": tally.barrier_instrs,
            "check.oracle_commits": tally.oracle_commits,
        },
    }


RUNNERS = {
    "stamp-sweep": stamp_sweep,
    "service-sweep": service_sweep,
    "fuzz-campaign": fuzz_campaign,
}
WORKLOADS = tuple(RUNNERS)
