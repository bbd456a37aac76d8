"""Checking a run must not change it.

The repair oracle only observes: it records each attempt's begin and
every completed instruction from the core's burst loop, and replays at
commit.  So an oracle-checked run and an unchecked run of the same
point execute the same handler chains and must produce the same
results in every field except the two that say a check happened.
"""

import pytest

from repro.check.oracle import RepairOracle
from repro.mem.memory import MainMemory
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine
from repro.sim.runner import run_workload
from tests.conftest import contended_scripts

# One backend per family: eager (timestamp and stall policies),
# value-buffering, repairing, hybrid, and software TM.
FAMILIES = ["eager", "eager-stall", "lazy-vb", "retcon", "hybrid-retcon", "stm"]
ORACLE_KEYS = ("oracle_checked", "oracle_commits")


@pytest.mark.parametrize("system", FAMILIES)
@pytest.mark.parametrize("workload", ["python_opt", "genome-sz"])
def test_checked_run_matches_unchecked(system, workload):
    def run(oracle):
        result = run_workload(
            workload, system, ncores=4, seed=1, scale=0.1, oracle=oracle
        ).to_dict()
        return result, {k: result.pop(k) for k in ORACLE_KEYS}

    unchecked, _ = run(False)
    checked, oracle = run(True)
    assert unchecked["aborts"] > 0, "point is not contended"
    assert checked == unchecked
    assert oracle["oracle_checked"]


class _TraceKeeper(RepairOracle):
    """A repair oracle that keeps each committed attempt's records."""

    def __init__(self) -> None:
        super().__init__()
        self.committed: list = []

    def on_committed(self, core: int, regs: list[int]) -> None:
        self.committed.append(self._records.get(core))
        super().on_committed(core, regs)


@pytest.mark.parametrize("system", FAMILIES)
def test_checked_run_records_pc_traces(system):
    """The recording hooks fire on the chain path: every committed
    attempt carries a non-empty instruction trace, and on the
    repairing systems it matches the oracle's replay."""
    oracle = _TraceKeeper()
    machine = Machine(
        MachineConfig().with_cores(4),
        system,
        contended_scripts(4, txns=6),
        MainMemory(),
        check=oracle,
    )
    result = machine.run()
    assert len(oracle.committed) == result.commits > 0
    for record in oracle.committed:
        assert record is not None and record.pc_trace
        if record.replay is not None:
            assert record.replay.pc_trace == record.pc_trace
    assert not oracle.violations
