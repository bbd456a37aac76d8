"""Scheduler, barriers, and run results."""

import pytest

from repro.isa.program import Assembler
from repro.mem.memory import MainMemory
from repro.sim.config import MachineConfig
from repro.sim.machine import Machine, SimulationTimeout
from repro.sim.script import ThreadScript
from tests.conftest import counter_increment_txn, run_counter_machine


class TestScheduler:
    def test_counter_is_serializable_across_cores(self):
        result, counter = run_counter_machine(
            "eager", ncores=4, txns_per_core=5, increments=2
        )
        assert counter == 4 * 5 * 2
        assert result.commits == 20

    def test_too_many_scripts_rejected(self):
        with pytest.raises(ValueError):
            Machine(
                MachineConfig().with_cores(1),
                "eager",
                [ThreadScript(), ThreadScript()],
                MainMemory(),
            )

    def test_timeout_raises(self):
        script = ThreadScript()
        asm = Assembler().nop(10_000)
        script.add_txn(asm.build())
        machine = Machine(
            MachineConfig().with_cores(1), "eager", [script], MainMemory()
        )
        with pytest.raises(SimulationTimeout):
            machine.run(max_cycles=100)

    def test_timeout_message_carries_label_context(self):
        script = ThreadScript()
        asm = Assembler().nop(10_000)
        script.add_txn(asm.build())
        machine = Machine(
            MachineConfig().with_cores(1),
            "eager",
            [script],
            MainMemory(),
            label="genome-sz/eager ncores=1 seed=7",
        )
        with pytest.raises(SimulationTimeout) as excinfo:
            machine.run(max_cycles=100)
        assert "genome-sz/eager ncores=1 seed=7" in str(excinfo.value)
        assert "makespan" in str(excinfo.value)

    def test_watchdog_uses_global_makespan(self):
        """A core that blows the budget and then parks at the barrier
        must trip the watchdog even while the remaining runnable core
        only ever advances in small steps."""
        heavy = ThreadScript()
        heavy.add_work(10_000)
        heavy.add_barrier()
        light = ThreadScript()
        for _ in range(500):
            light.add_work(1)
        light.add_barrier()
        machine = Machine(
            MachineConfig().with_cores(2),
            "eager",
            [heavy, light],
            MainMemory(),
        )
        with pytest.raises(SimulationTimeout):
            machine.run(max_cycles=5_000)

    def test_empty_scripts_finish_immediately(self):
        machine = Machine(
            MachineConfig().with_cores(2),
            "eager",
            [ThreadScript(), ThreadScript()],
            MainMemory(),
        )
        result = machine.run()
        assert result.cycles == 0


class TestEventScheduler:
    """Event-driven scheduler specifics: tie-break, padding, watchdog."""

    def test_heap_tie_break_runs_lowest_cid_first(self):
        """Two cores waking on the same cycle run in cid order, exactly
        in the scheduler's (cycle, cid) heap order."""
        from repro.obs.events import EventStream

        scripts = []
        for _ in range(2):
            script = ThreadScript()
            script.add_work(5)
            script.add_txn(counter_increment_txn(0x100))
            scripts.append(script)
        tracer = EventStream()
        machine = Machine(
            MachineConfig().with_cores(2),
            "eager",
            scripts,
            MainMemory(),
            tracer=tracer,
        )
        machine.run()
        begins = tracer.of_kind("begin")
        assert [e.core for e in begins[:2]] == [0, 1]
        assert begins[0].detail["cycle"] == begins[1].detail["cycle"] == 5

    def test_empty_script_padding_fills_all_cores(self):
        """Fewer scripts than cores: the machine pads with empty
        scripts, the padded cores finish at cycle 0, and the run is
        unaffected."""
        script = ThreadScript()
        script.add_work(7)
        script.add_txn(counter_increment_txn(0x140))
        machine = Machine(
            MachineConfig().with_cores(4), "eager", [script], MainMemory()
        )
        result = machine.run()
        assert len(machine.cores) == 4
        assert all(core.done() for core in machine.cores)
        assert [core.cycle for core in machine.cores[1:]] == [0, 0, 0]
        assert result.cycles == machine.cores[0].cycle > 7

    def test_release_barrier_empty_raises_starvation_error(self):
        """The scheduler-starvation guard: an empty heap with no
        barrier waiters is a bug surfaced as SimulationTimeout, not an
        infinite loop or a bare crash."""
        machine = Machine(
            MachineConfig().with_cores(1),
            "eager",
            [ThreadScript()],
            MainMemory(),
            label="starved-run",
        )
        with pytest.raises(SimulationTimeout) as excinfo:
            machine._release_barrier([], [])
        assert "scheduler empty with no barrier waiters" in str(excinfo.value)
        assert "starved-run" in str(excinfo.value)

    def test_watchdog_makespan_is_pinned(self):
        """Regression: a conflicting core pair that cannot finish
        within the budget times out with the makespan and label that a
        one-step-per-pop scheduler reports (the watchdog is consulted
        between steps, so the holder's 2,000-cycle nop step completes
        before it fires)."""

        from repro.isa.registers import R1

        holder = ThreadScript()
        asm = Assembler()
        asm.load(R1, 0x200)
        asm.nop(2_000)
        asm.store(R1, 0x200)
        holder.add_txn(asm.build())
        rival = ThreadScript()
        rival.add_work(3)
        rival.add_txn(counter_increment_txn(0x200))
        machine = Machine(
            MachineConfig().with_cores(2),
            "eager",
            [holder, rival],
            MainMemory(),
            label="livelock-pair",
        )
        with pytest.raises(SimulationTimeout) as excinfo:
            machine.run(max_cycles=1_000)
        assert excinfo.value.makespan == 2150
        assert excinfo.value.label == "livelock-pair"


class TestBarrier:
    def test_barrier_synchronizes_and_charges_wait(self):
        fast = ThreadScript()
        fast.add_work(10)
        fast.add_barrier()
        fast.add_txn(counter_increment_txn(0x100))
        slow = ThreadScript()
        slow.add_work(500)
        slow.add_barrier()
        slow.add_txn(counter_increment_txn(0x100))
        machine = Machine(
            MachineConfig().with_cores(2),
            "eager",
            [fast, slow],
            MainMemory(),
        )
        result = machine.run()
        fast_core, slow_core = machine.cores
        assert fast_core.stats.barrier >= 490
        assert slow_core.stats.barrier == 0
        assert result.stats.breakdown()["barrier"] > 0

    def test_barrier_with_done_cores_releases(self):
        """A thread with no barrier (already done) must not block it."""
        with_barrier = ThreadScript()
        with_barrier.add_work(10)
        with_barrier.add_barrier()
        with_barrier.add_work(10)
        empty = ThreadScript()
        machine = Machine(
            MachineConfig().with_cores(2),
            "eager",
            [with_barrier, empty],
            MainMemory(),
        )
        result = machine.run()
        assert result.cycles == 20


class TestRunResult:
    def test_aborts_surface(self):
        result, _ = run_counter_machine(
            "eager", ncores=4, txns_per_core=10, increments=3, busy=5
        )
        assert result.aborts == result.stats.total_aborts()
        assert result.system_name == "eager"
