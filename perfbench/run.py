"""Benchmark driver: cold runs of one workload, every metric, checked.

    python3 perfbench/run.py --workload stamp-sweep --seed 1 --seconds 20 --trace 0

Run from the repository root.  Each iteration is one cold run of the
workload in a fresh process (``perfbench/child.py``); iterations repeat
until the next one would end past ``--seconds``.  With ``--trace 0``
the end-to-end metrics are printed; with ``--trace 1`` the same
untraced iterations are followed by one traced iteration and the
per-layer metrics are printed.  Host timings are in calibrated
seconds, which cancel the host's own speed changes (``hostclock.py``).
Every metric is printed by name with its unit, then the last line is
one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is 0 only when every output check passed: no failed
unit (timeout, failed invariant, oracle/golden failure, fuzz
divergence, campaign engine failure), no result-cache hit or corpus
skip, and the same ``sim_digest`` and counts from every iteration.
Without ``src/repro`` beside this directory it exits 2 and prints no
result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from spans import LAYERS, RUN_KEYS
from suite import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: a run stops starting iterations this long after it began, whatever
#: ``--seconds`` says, so it ends well within its time limit
MAX_RUN_S = 120.0
#: fresh-process imports timed for ``setup_s`` before each iteration
SETUP_SAMPLES = 3

SETUP_PROBE = (
    "import sys\n"
    "sys.path[:0] = ['perfbench', 'src']\n"
    "from hostclock import HostClock\n"
    "clock = HostClock()\n"
    "clock.start()\n"
    "start = clock.now()\n"
    "import repro, repro.workloads.registry\n"
    "end = clock.now()\n"
    "clock.stop()\n"
    "print(clock.seconds(start, end))\n"
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("attempts_per_s", "1/s"),
    ("committed_instrs_per_s", "1/s"),
    ("case_p50_s", "s"),
    ("case_p90_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_speedup_gmean", "ratio"),
)

COUNTS = (
    ("workloads.txns", "count"),
    ("workloads.programs", "count"),
    ("workloads.shapes", "count"),
    ("sim.cycles", "cycles"),
    ("htm.commits", "count"),
    ("htm.aborts", "count"),
    ("htm.commit_ratio", "ratio"),
    ("stm.fallbacks", "count"),
    ("stm.barrier_instrs", "count"),
    ("check.oracle_commits", "count"),
)


def per_layer_metrics() -> list[tuple[str, str]]:
    """(name, unit) of every metric a traced run reports."""
    metrics = []
    for layer in LAYERS:
        metrics.append((f"{layer}.self_s", "s"))
        metrics.append((f"{layer}.calls", "count"))
    metrics.extend((f"sim.run_s.{key}", "s") for key in RUN_KEYS)
    metrics.extend(COUNTS)
    metrics.extend([
        ("trace.overhead_ratio", "ratio"),
        ("trace.wall_s", "s"),
        ("trace.residual_s", "s"),
        ("trace.spans", "count"),
    ])
    return metrics


def time_setup() -> float:
    """In-process calibrated time of ``import repro`` plus the workload
    registry, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE],
        cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_iteration(workload: str, seed: int, trace: bool,
                  scratch: Path, timeout: float) -> dict:
    """One cold iteration in a fresh process; its record, or a record
    of the crash."""
    workdir = Path(tempfile.mkdtemp(dir=scratch))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), workload, str(seed),
             "1" if trace else "0", str(workdir)],
            cwd=ROOT, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        return {"crashed": f"iteration exceeded {timeout:.0f}s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if proc.returncode != 0:
        return {"crashed": proc.stderr.strip()[-2000:]
                or f"exit code {proc.returncode}"}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def percentile(values, fraction: float) -> float:
    """Linear-interpolated percentile (``statistics.quantiles``)."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def summarize(workload, records, traced, setup_samples, seconds_asked):
    problems: list[str] = []
    attempted = failed = 0
    good = []
    for record in records:
        if "crashed" in record:
            problems.append(f"iteration crashed: {record['crashed']}")
            continue
        good.append(record)
        attempted += record["units"]
        warm = record["cache_hits"] or record["corpus_skips"]
        failed += record["units"] if warm else record["failed_units"]
        problems.extend(record["failures"])
    if len(good) < len(records):
        # a crashed iteration's units all count as failed
        units = good[0]["units"] if good else 1
        attempted += units * (len(records) - len(good))
        failed += units * (len(records) - len(good))
    for field in ("sim_digest", "counts", "sim_speedup_gmean", "units"):
        if len({json.dumps(r[field], sort_keys=True) for r in good}) > 1:
            problems.append(f"{field} differs between iterations")
    if traced is not None:
        if "crashed" in traced:
            problems.append(f"traced iteration crashed: {traced['crashed']}")
        else:
            problems.extend(traced["failures"])
            if good and traced["sim_digest"] != good[0]["sim_digest"]:
                problems.append("traced run changed sim_digest")

    metrics: dict = {}
    if good and traced is None:
        walls = [r["wall_s"] for r in good]
        # A unit's latency is its median over the cold iterations; the
        # percentiles are then taken across units, which keeps one slow
        # iteration from reordering the (heterogeneous) sweep points.
        cases = [
            statistics.median(unit)
            for unit in zip(*(r["case_s"] for r in good))
        ]
        values = {
            "setup_s": statistics.median(setup_samples),
            "wall_s": statistics.median(walls),
            "attempts_per_s": sum(r["attempts"] for r in good) / sum(walls),
            "committed_instrs_per_s": (
                sum(r["committed_instrs"] for r in good) / sum(walls)
            ),
            "case_p50_s": statistics.median(cases),
            "case_p90_s": percentile(cases, 0.90),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in good),
            "sim_speedup_gmean": good[0]["sim_speedup_gmean"],
        }
        for name, unit in END_TO_END:
            metrics[name] = {"value": values[name], "unit": unit}
    elif good and "crashed" not in traced:
        values = dict(good[0]["counts"])
        values.update(traced["trace"])
        values["trace.overhead_ratio"] = traced["wall_s"] / statistics.median(
            r["wall_s"] for r in good
        )
        for name, unit in per_layer_metrics():
            metrics[name] = {"value": values[name], "unit": unit}

    correct = not problems and attempted > 0 and len(metrics) > 0
    print(f"perfbench {workload}: {len(good)} cold iteration(s) in "
          f"~{seconds_asked}s, {attempted} units, {failed} failed "
          f"(fail_frac {failed / attempted if attempted else 1.0:.4g})")
    if good:
        print(f"  sim_digest {good[0]['sim_digest']}")
        raw = statistics.median(r["host_wall_s"] for r in good)
        print(f"  host_wall_s = {raw:.6g} s (raw, uncalibrated; not a metric)")
    for problem in problems:
        print(f"  FAILED CHECK: {problem}")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)

    started = time.perf_counter()
    if not args.trace:
        time_setup()  # untimed warm-up: bytecode compilation
    setup_samples: list[float] = []
    records: list[dict] = []
    while True:
        if not args.trace:
            # Spread over the run, so setup_s sees the same host as it.
            setup_samples.extend(time_setup() for _ in range(SETUP_SAMPLES))
        elapsed = time.perf_counter() - started
        records.append(run_iteration(
            args.workload, args.seed, False, scratch,
            timeout=max(10.0, 170.0 - elapsed),
        ))
        if "crashed" in records[-1]:
            break
        spent = time.perf_counter() - started
        if spent * (len(records) + 1) / len(records) > args.seconds or (
            spent > MAX_RUN_S
        ):
            break
    traced = None
    if args.trace:
        traced = run_iteration(
            args.workload, args.seed, True, scratch,
            timeout=max(10.0, 175.0 - (time.perf_counter() - started)),
        )
    result = summarize(
        args.workload, records, traced, setup_samples, args.seconds
    )
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
