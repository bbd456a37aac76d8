"""Decode-cache behavior (PR 3 backfill).

The interpreter decodes each Program once into flat tuples, caches the
result on the Program instance, and each Core additionally keeps its
current (program, chain, decoded) triple so the common same-program
retry path skips even the cache lookup.  These tests pin the contract: identical static
instructions decode identically, the per-program cache is hit (not
recomputed), and a core picks up the right decode when its script
moves to a different program.
"""

from repro.isa.instructions import Cond
from repro.isa.program import Assembler
from repro.isa.registers import R1, R2
from repro.sim import decode
from repro.sim.config import MachineConfig
from repro.sim.decode import (
    K_HALT,
    K_LOAD,
    K_MOVI,
    K_OP,
    K_STORE,
    chain_for,
    decode_program,
    decoded_for,
)
from repro.sim.machine import Machine
from repro.sim.script import ThreadScript


def _counter_program(addr: int, delta: int):
    asm = Assembler()
    asm.load(R1, addr)
    asm.addi(R1, R1, delta)
    asm.store(R1, addr)
    asm.halt()
    return asm.build()


class TestDecodeProgram:
    def test_kinds_and_operands(self):
        asm = Assembler()
        asm.movi(R2, 7)
        asm.load(R1, 4096, size=4)
        asm.op("mul", R1, R1, R2)
        asm.store(R1, 4096, size=4)
        asm.halt()
        decoded = decode_program(asm.build())
        assert [d[0] for d in decoded] == [
            K_MOVI, K_LOAD, K_OP, K_STORE, K_HALT,
        ]
        assert decoded[0] == (K_MOVI, int(R2), 7)
        assert decoded[1] == (K_LOAD, int(R1), 4096, 4, None, 0)
        # register vs immediate operands carry an is_reg flag
        assert decoded[2] == (K_OP, "mul", int(R1), int(R1), True, int(R2))
        assert decoded[3][1] is True  # store src is a register

    def test_identical_static_instructions_decode_identically(self):
        a = _counter_program(4096, 1)
        b = _counter_program(4096, 1)
        assert a is not b
        assert decode_program(a) == decode_program(b)

    def test_branch_targets_resolved_to_indices(self):
        asm = Assembler()
        label = asm.fresh_label("skip")
        asm.br(Cond.EQ, R1, 0, label)
        asm.movi(R1, 1)
        asm.mark(label)
        asm.halt()
        decoded = decode_program(asm.build())
        # branch tuple ends with the resolved instruction index
        assert decoded[0][-1] == 2


class TestDecodedForCache:
    def test_cached_on_program_instance(self):
        program = _counter_program(4096, 1)
        first = decoded_for(program)
        assert decoded_for(program) is first

    def test_decode_runs_once_per_program(self, monkeypatch):
        calls = []
        original = decode.decode_program

        def counting(program):
            calls.append(program)
            return original(program)

        monkeypatch.setattr(decode, "decode_program", counting)
        program = _counter_program(4096, 1)
        for _ in range(5):
            decoded_for(program)
        assert len(calls) == 1

    def test_distinct_programs_get_distinct_decodes(self):
        a = _counter_program(4096, 1)
        b = _counter_program(4096, 2)
        assert decoded_for(a) is not decoded_for(b)


class TestCoreDecodeSwap:
    def test_core_follows_program_swap(self, memory):
        """A script whose transactions use different programs must
        execute each with its own decode (stale decode would replay
        the first program's effects)."""
        script = ThreadScript()
        script.add_txn(_counter_program(4096, 5))
        script.add_txn(_counter_program(4160, 9))
        machine = Machine(
            MachineConfig().with_cores(1), "eager", [script], memory
        )
        machine.run()
        assert machine.memory.read(4096) == 5
        assert machine.memory.read(4160) == 9

    def test_retry_reuses_core_cache(self, memory):
        """Same-program retries hit the core-local pair: the program
        instance compiles exactly once even across many attempts."""
        program = _counter_program(4096, 1)
        script = ThreadScript()
        for _ in range(4):
            script.add_txn(program)
        machine = Machine(
            MachineConfig().with_cores(1), "eager", [script], memory
        )
        machine.run()
        core = machine.cores[0]
        assert core._chain_program is program
        assert core._chain is chain_for(program, with_engine=False)
        assert machine.memory.read(4096) == 4

    def test_checked_retry_reuses_core_cache(self, memory):
        """Oracle-checked runs take the same chain path: the core-local
        (program, chain, decode) cache is filled and reused across
        retries, and every commit is replayed by the oracle."""
        program = _counter_program(4096, 1)
        script = ThreadScript()
        for _ in range(4):
            script.add_txn(program)
        machine = Machine(
            MachineConfig().with_cores(1), "retcon", [script], memory,
            check=True,
        )
        result = machine.run()
        core = machine.cores[0]
        assert core._chain_program is program
        assert core._chain is chain_for(program, with_engine=True)
        assert core._decoded is decoded_for(program)
        assert machine.memory.read(4096) == 4
        assert result.oracle.checked_commits == 4
        assert not result.oracle.violations
