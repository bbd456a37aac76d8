"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest perfbench -q

The digest tests run every workload twice in fresh processes (about a
minute in all).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import hostclock  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import suite  # noqa: E402


@pytest.mark.parametrize("workload", suite.WORKLOADS)
def test_same_seed_gives_same_digest(workload, tmp_path):
    first = run.run_iteration(workload, 2, False, tmp_path, timeout=170)
    second = run.run_iteration(workload, 2, False, tmp_path, timeout=170)
    for record in (first, second):
        assert "crashed" not in record, record
        assert record["failures"] == []
        assert record["cache_hits"] == 0 and record["corpus_skips"] == 0
    assert first["sim_digest"] == second["sim_digest"]
    assert first["counts"] == second["counts"]


def test_other_seed_gives_other_inputs(tmp_path):
    one = run.run_iteration("fuzz-campaign", 3, False, tmp_path, timeout=170)
    two = run.run_iteration("fuzz-campaign", 4, False, tmp_path, timeout=170)
    assert one["sim_digest"] != two["sim_digest"]


def test_span_recorder_accounts_for_traced_wall_time():
    import repro.sim.cpu
    from repro.sim import decode
    from repro.sim.machine import Machine
    from repro.sim.runner import run_workload

    original_run = Machine.__dict__["run"]
    original_decoded_for = decode.decoded_for
    recorder = spans.SpanRecorder()
    timed = suite._Timed(recorder)
    with timed:
        run_workload("python_opt", "retcon", ncores=4, scale=0.05)
    report = recorder.layer_report(timed.host_seconds)

    assert Machine.__dict__["run"] is original_run
    assert repro.sim.cpu.decoded_for is original_decoded_for
    for layer in ("workloads", "sim.decode", "sim.machine", "htm", "core",
                  "coherence", "mem", "stats"):
        assert report[f"{layer}.calls"] > 0, layer
    assert report["stm.calls"] == report["fuzz.calls"] == 0
    assert report["sim.run_s.retcon"] > 0 and report["sim.run_s.seq"] > 0
    layer_sum = sum(report[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layer_sum + report["trace.residual_s"] == pytest.approx(
        report["trace.wall_s"], rel=1e-9
    )
    assert 0 <= report["trace.residual_s"] < report["trace.wall_s"]


def test_self_time_subtracts_child_spans():
    recorder = spans.SpanRecorder()
    outer = recorder._name_id("exp", "outer")
    inner = recorder._name_id("htm", "inner")
    # outer [0, 10] encloses inner [2, 5] and inner [6, 7]
    for name, begin, finish, up in (
        (outer, 0.0, 10.0, -1), (inner, 2.0, 5.0, 0), (inner, 6.0, 7.0, 0)
    ):
        recorder.name_of.append(name)
        recorder.start.append(begin)
        recorder.end.append(finish)
        recorder.parent.append(up)
        recorder.context.append(0)
    assert recorder.self_times() == [6.0, 4.0]
    assert recorder.calls() == [1, 2]
    assert recorder.root_seconds() == 10.0


def test_shape_abstracts_addresses_only():
    from repro.isa.program import Assembler
    from repro.isa.registers import R1

    def program(addr, delta):
        asm = Assembler()
        asm.load(R1, addr).addi(R1, R1, delta).store(R1, addr).halt()
        return asm.build()

    assert suite.shape_of(program(64, 1)) == suite.shape_of(program(128, 1))
    assert suite.shape_of(program(64, 1)) != suite.shape_of(program(64, 2))


def test_benchmark_json_matches_the_driver():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(suite.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == (
        run.per_layer_metrics()
    )


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "stamp-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_clock_scales_gaps_by_probe_rate():
    clock = hostclock.HostClock()
    probe = hostclock.NOMINAL_PROBE_S / 2  # a host twice the nominal speed
    for k in range(6):
        clock.starts.append(k * 1.0)
        clock.ends.append(k * 1.0 + probe)
    clock._calibrate()
    # two gaps of (1 - probe) host seconds count double; probes count 0
    assert clock.seconds(0.0, 2.0) == pytest.approx(4 * (1 - probe))
    assert clock.seconds(1.0, 1.0 + probe) == 0.0
    assert clock.seconds(1.5, 1.75) == pytest.approx(0.5)
    assert clock.seconds(-1.0, 9.0) == clock.seconds(0.0, 5.0)


def test_host_clock_runs_probes_while_started():
    clock = hostclock.HostClock()
    clock.start()
    begin = clock.now()
    deadline = begin + 0.2
    while clock.now() < deadline:
        pass
    end = clock.now()
    clock.stop()
    assert len(clock.starts) >= 5
    assert clock.seconds(begin, end) > 0
