"""The optimized simulator must be *bit-identical* to its references.

The four ``stats_*_retcon_*`` fixtures under tests/golden/ were
captured from the pre-optimization code (before the decode cache,
flat-dict block index, SymValue interning, and stats batching landed).
Every optimization in the hot path is required to be observationally
transparent: same cycles, same commits/aborts, same per-core stats,
byte for byte.

The ``backend_*`` fixtures extend that guarantee to every TM system
under contention.  They were captured from the one-step-per-pop
lockstep scheduler driving the per-instruction reference interpreter
(both since retired), so they pin the event-driven scheduler and the
compiled handler chains to the step order and semantics of the
simplest possible execution.

CI's oracle-smoke job runs this file on its own so a perf-motivated
change that drifts the stats fails loudly, not as one line in the
full-suite noise.
"""

import json
from dataclasses import asdict
from pathlib import Path

import pytest

from repro import SYSTEMS
from repro.mem.memory import MainMemory
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine, SimulationTimeout
from repro.sim.runner import run_workload
from tests.conftest import contended_scripts

# Excluded from the fast tier-1 run; CI's oracle-smoke job runs this
# file explicitly with `-m ""`.
pytestmark = pytest.mark.slow

GOLDEN = Path(__file__).resolve().parents[1] / "golden"

POINTS = [
    ("python_opt", 1),
    ("python_opt", 2),
    ("genome-sz", 1),
    ("genome-sz", 2),
]


def fixture_path(workload: str, seed: int) -> Path:
    return GOLDEN / f"stats_{workload.replace('-', '_')}_retcon_seed{seed}.json"


class TestGoldenStatsIdentity:
    @pytest.mark.parametrize("workload,seed", POINTS)
    def test_stats_match_pre_optimization_fixture(self, workload, seed):
        result = run_workload(
            workload,
            "retcon",
            ncores=4,
            seed=seed,
            scale=0.1,
            oracle=True,
            golden=True,
        )
        got = json.dumps(result.to_dict(), sort_keys=True)
        want = json.dumps(
            json.loads(fixture_path(workload, seed).read_text()),
            sort_keys=True,
        )
        assert got == want, (
            f"{workload} seed={seed}: stats drifted from the "
            f"pre-optimization golden fixture {fixture_path(workload, seed)}"
        )

    def test_fixtures_present(self):
        for workload, seed in POINTS:
            assert fixture_path(workload, seed).is_file()


# Every name build_system accepts: the public SYSTEMS plus the two
# variants only experiments and the ablations name.
BACKENDS = sorted(set(SYSTEMS) | {"eager-abort", "retcon-fwd"})


def backend_fixture_path(system: str) -> Path:
    return GOLDEN / f"backend_{system.replace('-', '_')}.json"


def observe_backend(system: str) -> dict:
    """The two contended points a backend fixture pins."""
    machine = Machine(
        MachineConfig().with_cores(4),
        system,
        contended_scripts(4, txns=6),
        MainMemory(),
    )
    result = machine.run()
    stats = machine.stats
    counter = {
        "cycles": result.cycles,
        "cores": [asdict(core) for core in stats.cores],
        "table3": {
            name: [agg.count, agg.total, agg.maximum]
            for name, agg in stats._retcon.items()
        },
        "txn_cycles": stats._txn_cycles,
        "txn_commit_cycles": stats._txn_commit_cycles,
        "counter": result.memory.read(0x1000, 8),
    }
    try:
        point = run_workload(
            "python_opt",
            system,
            ncores=4,
            seed=1,
            scale=0.1,
            oracle=True,
            golden=True,
        ).to_dict()
    except SimulationTimeout as exc:
        # datm livelocks on this point; the watchdog makespan is as
        # deterministic as a finished run's stats, so pin it too.
        point = {"timeout": {"makespan": exc.makespan, "label": exc.label}}
    return {"shared_counter": counter, "python_opt": point}


class TestBackendStatsIdentity:
    @pytest.mark.parametrize("system", BACKENDS)
    def test_backend_matches_reference_fixture(self, system):
        got = json.dumps(observe_backend(system), sort_keys=True)
        path = backend_fixture_path(system)
        want = json.dumps(json.loads(path.read_text()), sort_keys=True)
        assert got == want, (
            f"{system}: contended stats drifted from the reference "
            f"fixture {path}"
        )
