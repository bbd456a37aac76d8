"""One-time instruction decode for the interpreter hot path.

The interpreter executes the same (immutable) :class:`Program` objects
millions of times — every transaction attempt, every retry, every
core.  Dispatching on ``isinstance`` chains and re-reading dataclass
attributes per cycle is the single largest cost in the simulator, so
each program is decoded exactly once into a flat list of plain tuples:

``decoded[pc] = (kind, *operands)``

where *kind* is a small integer and the operands are fully resolved —
immediates unwrapped, register operands reduced to bare indices with
an ``is_reg`` flag, and branch targets resolved from label names to
instruction indices at decode time.

The decoded form is attached to the ``Program`` instance itself (via
``object.__setattr__``; programs are frozen dataclasses) so it is
shared by every core and every attempt, and its lifetime is exactly
the program's — no global cache to invalidate.

Decoding is purely a representation change: the interpreter's
semantics per kind are identical to the dataclass-dispatch ones, which
is what the repair oracle (an independent interpreter over the
*undecoded* instructions) verifies on every checked commit.
"""

from __future__ import annotations

import operator

from repro.isa.instructions import (
    Bcc,
    Branch,
    Cmp,
    Cond,
    Halt,
    Imm,
    Jump,
    Load,
    Mov,
    Movi,
    Nop,
    Op,
    Reg,
    Store,
    apply_op,
)
from repro.isa.program import Program

# Decoded instruction kinds (tuple slot 0).
K_LOAD = 0
K_STORE = 1
K_OP = 2
K_MOV = 3
K_MOVI = 4
K_CMP = 5
K_BRANCH = 6
K_BCC = 7
K_JUMP = 8
K_NOP = 9
K_HALT = 10


def _operand_pair(operand) -> tuple[bool, int]:
    """Collapse a Reg/Imm operand into ``(is_reg, index_or_value)``."""
    if isinstance(operand, Reg):
        return True, int(operand)
    assert isinstance(operand, Imm)
    return False, operand.value


def decode_program(program: Program) -> list[tuple]:
    """Decode every instruction of *program* into flat tuples."""
    end = len(program)
    decoded: list[tuple] = []
    for inst in program.instructions:
        if isinstance(inst, Load):
            base = None if inst.base is None else int(inst.base)
            decoded.append(
                (K_LOAD, int(inst.rd), inst.addr, inst.size, base, inst.disp)
            )
        elif isinstance(inst, Store):
            base = None if inst.base is None else int(inst.base)
            src_is_reg, src = _operand_pair(inst.src)
            decoded.append(
                (K_STORE, src_is_reg, src, inst.addr, inst.size, base,
                 inst.disp)
            )
        elif isinstance(inst, Op):
            src2_is_reg, src2 = _operand_pair(inst.src2)
            decoded.append(
                (K_OP, inst.op, int(inst.rd), int(inst.rs1), src2_is_reg,
                 src2)
            )
        elif isinstance(inst, Mov):
            decoded.append((K_MOV, int(inst.rd), int(inst.rs)))
        elif isinstance(inst, Movi):
            decoded.append((K_MOVI, int(inst.rd), inst.value))
        elif isinstance(inst, Cmp):
            src2_is_reg, src2 = _operand_pair(inst.src2)
            decoded.append((K_CMP, int(inst.rs1), src2_is_reg, src2))
        elif isinstance(inst, Branch):
            src2_is_reg, src2 = _operand_pair(inst.src2)
            decoded.append(
                (K_BRANCH, inst.cond, int(inst.rs1), src2_is_reg, src2,
                 program.target(inst.target))
            )
        elif isinstance(inst, Bcc):
            decoded.append((K_BCC, inst.cond, program.target(inst.target)))
        elif isinstance(inst, Jump):
            decoded.append((K_JUMP, program.target(inst.target)))
        elif isinstance(inst, Nop):
            decoded.append((K_NOP, inst.cycles))
        elif isinstance(inst, Halt):
            decoded.append((K_HALT, end))
        else:
            raise TypeError(f"unknown instruction: {inst!r}")
    return decoded


def decoded_for(program: Program) -> list[tuple]:
    """Return the cached decode of *program*, decoding on first use."""
    try:
        return program._decoded  # type: ignore[attr-defined]
    except AttributeError:
        decoded = decode_program(program)
        object.__setattr__(program, "_decoded", decoded)
        return decoded


# ---------------------------------------------------------------------------
# Compiled handler chains
# ---------------------------------------------------------------------------
#
# Interpreting decoded tuples directly would still pay, per
# instruction, for the kind dispatch (an if/elif ladder), tuple
# unpacking, and the per-kind ``engine is not None`` branches.  A
# *handler chain* pushes all of that to compile time: each static
# instruction becomes one closure
#
#     handler(core, regs) -> latency
#
# with its operands, successor pc, and ALU/condition callables bound
# as default arguments, and with the engine-present decision made once
# per program rather than once per executed instruction.  Handlers set
# ``core.pc`` themselves and let :class:`StallRetry`/:class:`TxnAborted`
# propagate *before* the pc update, so a retried or aborted instruction
# re-executes from the same pc.
#
# Two variants are cached per program (on the Program itself, like the
# decode cache): one for cores with a RETCON engine, one without.  The
# chains are the simulator's only instruction interpreter; every run,
# checked or not, executes them.  Their semantics are verified by the
# repair oracle, whose independent interpreter (repro.check.replay)
# re-executes each checked commit over the undecoded instructions.


def _div_trunc(lhs: int, rhs: int) -> int:
    """``apply_op("div", ...)``: quiet divide-by-zero, truncate to zero."""
    if rhs == 0:
        return 0
    quotient = abs(lhs) // abs(rhs)
    return quotient if (lhs < 0) == (rhs < 0) else -quotient


_OP_FN = {
    "add": operator.add,
    "sub": operator.sub,
    "mul": operator.mul,
    "div": _div_trunc,
    "and": operator.and_,
    "or": operator.or_,
    "xor": operator.xor,
}

_COND_FN = {
    Cond.EQ: operator.eq,
    Cond.NE: operator.ne,
    Cond.LT: operator.lt,
    Cond.LE: operator.le,
    Cond.GT: operator.gt,
    Cond.GE: operator.ge,
}


def _compile_load(inst: tuple, nxt: int, with_engine: bool):
    _, rd, addr, size, base, disp = inst
    if base is None:
        if with_engine:
            def handler(core, regs, rd=rd, addr=addr, size=size, nxt=nxt):
                result = core.system.load(core.cid, addr, size)
                regs[rd] = result.value
                core.engine.sregs._syms[rd] = result.sym
                core.pc = nxt
                return result.latency
        else:
            def handler(core, regs, rd=rd, addr=addr, size=size, nxt=nxt):
                result = core.system.load(core.cid, addr, size)
                regs[rd] = result.value
                core.pc = nxt
                return result.latency
    else:
        if with_engine:
            def handler(core, regs, rd=rd, base=base, disp=disp, size=size,
                        nxt=nxt):
                engine = core.engine
                syms = engine.sregs._syms
                # Address calculation consumes the base register: a
                # symbolic base is pinned with an equality constraint
                # (§4.2), again on every retry.
                base_sym = syms[base]
                if base_sym is not None:
                    engine.equality_constrain(base_sym.root)
                result = core.system.load(core.cid, regs[base] + disp, size)
                regs[rd] = result.value
                syms[rd] = result.sym
                core.pc = nxt
                return result.latency
        else:
            def handler(core, regs, rd=rd, base=base, disp=disp, size=size,
                        nxt=nxt):
                result = core.system.load(core.cid, regs[base] + disp, size)
                regs[rd] = result.value
                core.pc = nxt
                return result.latency
    return handler


def _compile_store(inst: tuple, nxt: int, with_engine: bool):
    _, src_is_reg, src, addr, size, base, disp = inst
    if base is None:
        if src_is_reg:
            if with_engine:
                def handler(core, regs, src=src, addr=addr, size=size,
                            nxt=nxt):
                    result = core.system.store(
                        core.cid, addr, size, regs[src],
                        sym=core.engine.sregs._syms[src],
                    )
                    core.pc = nxt
                    return result.latency
            else:
                def handler(core, regs, src=src, addr=addr, size=size,
                            nxt=nxt):
                    result = core.system.store(
                        core.cid, addr, size, regs[src], sym=None
                    )
                    core.pc = nxt
                    return result.latency
        else:
            def handler(core, regs, value=src, addr=addr, size=size, nxt=nxt):
                result = core.system.store(
                    core.cid, addr, size, value, sym=None
                )
                core.pc = nxt
                return result.latency
    else:
        if src_is_reg:
            if with_engine:
                def handler(core, regs, src=src, base=base, disp=disp,
                            size=size, nxt=nxt):
                    engine = core.engine
                    syms = engine.sregs._syms
                    base_sym = syms[base]
                    if base_sym is not None:
                        engine.equality_constrain(base_sym.root)
                    result = core.system.store(
                        core.cid, regs[base] + disp, size, regs[src],
                        sym=syms[src],
                    )
                    core.pc = nxt
                    return result.latency
            else:
                def handler(core, regs, src=src, base=base, disp=disp,
                            size=size, nxt=nxt):
                    result = core.system.store(
                        core.cid, regs[base] + disp, size, regs[src],
                        sym=None,
                    )
                    core.pc = nxt
                    return result.latency
        else:
            if with_engine:
                def handler(core, regs, value=src, base=base, disp=disp,
                            size=size, nxt=nxt):
                    engine = core.engine
                    base_sym = engine.sregs._syms[base]
                    if base_sym is not None:
                        engine.equality_constrain(base_sym.root)
                    result = core.system.store(
                        core.cid, regs[base] + disp, size, value, sym=None
                    )
                    core.pc = nxt
                    return result.latency
            else:
                def handler(core, regs, value=src, base=base, disp=disp,
                            size=size, nxt=nxt):
                    result = core.system.store(
                        core.cid, regs[base] + disp, size, value, sym=None
                    )
                    core.pc = nxt
                    return result.latency
    return handler


def _compile_op(inst: tuple, nxt: int, with_engine: bool):
    _, op, rd, rs1, src2_is_reg, src2 = inst
    fn = _OP_FN.get(op)
    if fn is None:
        # Unknown opcode: defer to apply_op so the error surfaces at
        # execution time, not at compile time.
        def fn(lhs, rhs, op=op):
            return apply_op(op, lhs, rhs)
    if with_engine:
        if src2_is_reg:
            def handler(core, regs, fn=fn, op=op, rd=rd, rs1=rs1, src2=src2,
                        nxt=nxt):
                rs1_val = regs[rs1]
                src2_val = regs[src2]
                regs[rd] = fn(rs1_val, src2_val)
                engine = core.engine
                syms = engine.sregs._syms
                engine.alu(
                    op, rd, syms[rs1], syms[src2], rs1_val, src2_val
                )
                core.pc = nxt
                return 1
        else:
            def handler(core, regs, fn=fn, op=op, rd=rd, rs1=rs1, src2=src2,
                        nxt=nxt):
                rs1_val = regs[rs1]
                regs[rd] = fn(rs1_val, src2)
                engine = core.engine
                engine.alu(
                    op, rd, engine.sregs._syms[rs1], None, rs1_val, src2
                )
                core.pc = nxt
                return 1
    else:
        if src2_is_reg:
            def handler(core, regs, fn=fn, rd=rd, rs1=rs1, src2=src2,
                        nxt=nxt):
                regs[rd] = fn(regs[rs1], regs[src2])
                core.pc = nxt
                return 1
        else:
            def handler(core, regs, fn=fn, rd=rd, rs1=rs1, src2=src2,
                        nxt=nxt):
                regs[rd] = fn(regs[rs1], src2)
                core.pc = nxt
                return 1
    return handler


def _compile_cmp(inst: tuple, nxt: int, with_engine: bool):
    _, rs1, src2_is_reg, src2 = inst
    if with_engine:
        def handler(core, regs, rs1=rs1, src2_is_reg=src2_is_reg, src2=src2,
                    nxt=nxt):
            lhs = regs[rs1]
            rhs = regs[src2] if src2_is_reg else src2
            engine = core.engine
            syms = engine.sregs._syms
            engine.on_cmp(
                lhs, rhs,
                syms[rs1],
                syms[src2] if src2_is_reg else None,
            )
            core.pc = nxt
            return 1
    else:
        def handler(core, regs, rs1=rs1, src2_is_reg=src2_is_reg, src2=src2,
                    nxt=nxt):
            rhs = regs[src2] if src2_is_reg else src2
            core.cc.set_concrete(regs[rs1], rhs)
            core.pc = nxt
            return 1
    return handler


def _compile_branch(inst: tuple, nxt: int, with_engine: bool):
    _, cond, rs1, src2_is_reg, src2, target = inst
    test = _COND_FN[cond]
    if with_engine:
        def handler(core, regs, test=test, cond=cond, rs1=rs1,
                    src2_is_reg=src2_is_reg, src2=src2, target=target,
                    nxt=nxt):
            lhs = regs[rs1]
            rhs = regs[src2] if src2_is_reg else src2
            taken = test(lhs, rhs)
            engine = core.engine
            syms = engine.sregs._syms
            engine.on_branch(
                cond,
                syms[rs1],
                syms[src2] if src2_is_reg else None,
                lhs, rhs, taken,
            )
            core.pc = target if taken else nxt
            return 1
    else:
        def handler(core, regs, test=test, rs1=rs1,
                    src2_is_reg=src2_is_reg, src2=src2, target=target,
                    nxt=nxt):
            rhs = regs[src2] if src2_is_reg else src2
            core.pc = target if test(regs[rs1], rhs) else nxt
            return 1
    return handler


def _compile_one(inst: tuple, nxt: int, with_engine: bool):
    """Compile one decoded tuple into its handler closure."""
    kind = inst[0]
    if kind == K_LOAD:
        return _compile_load(inst, nxt, with_engine)
    if kind == K_STORE:
        return _compile_store(inst, nxt, with_engine)
    if kind == K_OP:
        return _compile_op(inst, nxt, with_engine)
    if kind == K_MOV:
        _, rd, rs = inst
        if with_engine:
            def handler(core, regs, rd=rd, rs=rs, nxt=nxt):
                regs[rd] = regs[rs]
                syms = core.engine.sregs._syms
                syms[rd] = syms[rs]
                core.pc = nxt
                return 1
        else:
            def handler(core, regs, rd=rd, rs=rs, nxt=nxt):
                regs[rd] = regs[rs]
                core.pc = nxt
                return 1
        return handler
    if kind == K_MOVI:
        _, rd, value = inst
        if with_engine:
            def handler(core, regs, rd=rd, value=value, nxt=nxt):
                regs[rd] = value
                core.engine.sregs._syms[rd] = None
                core.pc = nxt
                return 1
        else:
            def handler(core, regs, rd=rd, value=value, nxt=nxt):
                regs[rd] = value
                core.pc = nxt
                return 1
        return handler
    if kind == K_CMP:
        return _compile_cmp(inst, nxt, with_engine)
    if kind == K_BRANCH:
        return _compile_branch(inst, nxt, with_engine)
    if kind == K_BCC:
        _, cond, target = inst
        if with_engine:
            def handler(core, regs, cond=cond, target=target, nxt=nxt):
                taken = core.cc.evaluate(cond)
                core.engine.on_bcc(cond, taken)
                core.pc = target if taken else nxt
                return 1
        else:
            def handler(core, regs, cond=cond, target=target, nxt=nxt):
                core.pc = target if core.cc.evaluate(cond) else nxt
                return 1
        return handler
    if kind == K_JUMP:
        target = inst[1]

        def handler(core, regs, target=target):
            core.pc = target
            return 1
        return handler
    if kind == K_NOP:
        cycles = inst[1]

        def handler(core, regs, cycles=cycles, nxt=nxt):
            core.pc = nxt
            return cycles
        return handler
    # K_HALT (decode is exhaustive over instruction types)
    end = inst[1]

    def handler(core, regs, end=end):
        core.pc = end
        return 1
    return handler


def compile_program(program: Program, with_engine: bool) -> list:
    """Compile *program* into a handler chain (one closure per pc)."""
    decoded = decoded_for(program)
    return [
        _compile_one(inst, pc + 1, with_engine)
        for pc, inst in enumerate(decoded)
    ]


def chain_for(program: Program, with_engine: bool) -> list:
    """Return the cached handler chain of *program* for the given
    engine variant, compiling on first use (shared across cores, like
    the decode cache)."""
    attr = "_chain_sym" if with_engine else "_chain_plain"
    try:
        return getattr(program, attr)
    except AttributeError:
        chain = compile_program(program, with_engine)
        object.__setattr__(program, attr, chain)
        return chain
