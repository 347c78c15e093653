"""Architectural interpreter for the mini-ISA.

Executes a sealed :class:`~repro.program.program.Program` with real register
and memory semantics, producing the block-granular dynamic
:class:`~repro.program.trace.Trace`.  No timing is modelled here; timing is
the job of :mod:`repro.uarch.timing`.

:meth:`Interpreter.run` first decodes every static block once into a
:class:`_BlockPlan`: a tuple of per-instruction step closures for the
datapath, plus the block's terminator with its successor plans linked by
reference.  The closures work directly on the register list and the
memory dict, so executing an instruction costs one closure call: no
opcode dispatch, no register-file method calls and no block-name lookups.
:meth:`~repro.cfg.graph.ControlFlowGraph.seal` guarantees that a control
instruction or HALT is always a block's last instruction, which is what
lets the datapath steps run ahead of the terminator.

The FP opcodes operate on the integer register file (FADD adds, FMUL
multiplies, FDIV floor-divides with divide-by-zero reading as zero).  Their
FP-ness matters only for latency and instruction-mix statistics, which is
all the paper's mechanisms ever observe.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict, List, Optional, Tuple

from repro.cfg.graph import BasicBlock
from repro.errors import ReproError
from repro.isa.instructions import Condition, Instruction, Opcode
from repro.isa.registers import REG_ZERO, RegisterFile
from repro.program.memory import Memory
from repro.program.program import ENTRY_FUNCTION, Program
from repro.program.trace import BlockExec, Trace

_MASK = (1 << 64) - 1
#: XOR-ing both operands with the sign bit turns a signed 64-bit
#: comparison into an unsigned one on the wrapped register values.
_SIGN = 1 << 63

# Terminator kinds of a _BlockPlan (JMP is a fallthrough to its target).
_FALL = 0
_BR = 1
_CALL = 2
_RET = 3
_HALT = 4

_TERMINATORS = {
    Opcode.BR: _BR, Opcode.JMP: _FALL, Opcode.CALL: _CALL,
    Opcode.RET: _RET, Opcode.HALT: _HALT,
}

_BINARY = {
    Opcode.ADD: operator.add, Opcode.FADD: operator.add,
    Opcode.SUB: operator.sub,
    Opcode.MUL: operator.mul, Opcode.FMUL: operator.mul,
    Opcode.AND: operator.and_, Opcode.OR: operator.or_,
    Opcode.XOR: operator.xor,
    Opcode.SHL: lambda x, y: x << (y & 63),
    Opcode.SHR: lambda x, y: x >> (y & 63),
    Opcode.FDIV: lambda x, y: x // y if y else 0,
}
_IMMEDIATE = {
    Opcode.ADDI: operator.add, Opcode.ANDI: operator.and_,
    Opcode.XORI: operator.xor,
}
_COMPARE = {
    Condition.EQ: operator.eq, Condition.NE: operator.ne,
    Condition.LT: operator.lt, Condition.GE: operator.ge,
    Condition.LE: operator.le, Condition.GT: operator.gt,
}

_Step = Callable[[], None]


class ExecutionLimitExceeded(ReproError, RuntimeError):
    """The program ran past the interpreter's instruction budget.

    A :class:`~repro.errors.ReproError`, so drivers report it as a
    structured failure; also a :class:`RuntimeError`, as it always was.
    """


class _BlockPlan:
    """One static block decoded for :meth:`Interpreter.run`.

    ``steps`` runs the block's datapath; ``mem`` says whether any step
    records a memory address.  ``kind`` is the terminator: ``_BR`` tests
    ``cond()`` and goes to ``taken`` or ``next``; ``_FALL`` (plain
    fallthrough or JMP) goes to ``next``; ``_CALL`` pushes ``ret``, its
    return plan, and goes to ``next``, the callee's entry; ``_RET`` pops
    the call stack and ``_HALT`` stops.  A successor of ``None`` means
    the block has nowhere to go.
    """

    __slots__ = ("function", "block", "steps", "mem", "kind", "cond",
                 "taken", "next", "ret")

    def __init__(self, function: str, block: BasicBlock) -> None:
        self.function = function
        self.block = block
        self.steps: Tuple[_Step, ...] = ()
        self.mem = False
        self.kind = _FALL
        self.cond: Optional[Callable[[], bool]] = None
        self.taken: Optional[_BlockPlan] = None
        self.next: Optional[_BlockPlan] = None
        self.ret: Optional[_BlockPlan] = None


class Interpreter:
    """Runs a program to completion (HALT) or to an instruction budget."""

    def __init__(
        self,
        program: Program,
        memory: Optional[Memory] = None,
        max_instructions: int = 50_000_000,
    ) -> None:
        if not program.sealed:
            raise ValueError("program must be sealed")
        self.program = program
        self.registers = RegisterFile()
        self.memory = memory if memory is not None else Memory()
        self.max_instructions = max_instructions

    def run(self) -> Trace:
        """Execute from ``main``'s entry block until HALT."""
        addrs: List[int] = []
        plans = self._decode(addrs)
        plan = plans[ENTRY_FUNCTION, self.program.entry_function.entry.name]
        trace = Trace(self.program.name)
        append = trace.append
        budget = self.max_instructions
        call_stack: List[Optional[_BlockPlan]] = []
        executed = 0
        try:
            while True:
                for step in plan.steps:
                    step()
                if plan.mem:
                    mem_addrs = tuple(addrs)
                    addrs.clear()
                else:
                    mem_addrs = ()
                block = plan.block
                executed += len(block.instructions)
                kind = plan.kind
                taken = None
                if kind == _FALL:
                    nxt = plan.next
                elif kind == _BR:
                    taken = plan.cond()
                    nxt = plan.taken if taken else plan.next
                elif kind == _CALL:
                    call_stack.append(plan.ret)
                    nxt = plan.next
                elif kind == _RET and call_stack:
                    nxt = call_stack.pop()
                else:  # HALT, or returning from main, ends the program
                    append(BlockExec(plan.function, block, None, mem_addrs))
                    return trace
                append(BlockExec(plan.function, block, taken, mem_addrs))
                if executed > budget:
                    raise ExecutionLimitExceeded(
                        f"{self.program.name} exceeded {budget} instructions"
                    )
                if nxt is None:
                    raise RuntimeError(
                        f"fell off block {block.name!r} in {plan.function!r}"
                    )
                plan = nxt
        finally:
            # The successor links form cycles; cutting them frees the
            # plans, and the memory their closures hold, on return
            # instead of at the next full garbage collection.
            for plan in plans.values():
                plan.taken = plan.next = plan.ret = None

    def _decode(
        self, addrs: List[int]
    ) -> Dict[Tuple[str, str], _BlockPlan]:
        """Decode every block once, keyed by ``(function, block name)``.

        The closures bind this interpreter's register list and memory
        dict, and append load/store addresses to ``addrs``.
        """
        regs = self.registers._regs
        words = self.memory._words
        program = self.program
        plans: Dict[Tuple[str, str], _BlockPlan] = {}
        for cfg in program.functions():
            for block in cfg:
                plans[cfg.name, block.name] = _BlockPlan(cfg.name, block)
        for (function, _), plan in plans.items():
            block = plan.block
            body = block.instructions
            term = None
            if body and body[-1].opcode in _TERMINATORS:
                term = body[-1]
                body = body[:-1]
                plan.kind = _TERMINATORS[term.opcode]
            steps = (_decode_step(i, regs, words, addrs) for i in body)
            plan.steps = tuple(s for s in steps if s is not None)
            plan.mem = block.mem_profile() != (0, 0)
            plan.next = plans.get((function, block.fallthrough))
            if plan.kind == _BR:
                plan.cond = _decode_branch(term, regs)
                plan.taken = plans[function, term.target]
            elif plan.kind == _CALL:
                plan.ret = plan.next
                callee = program.function(term.target)
                plan.next = plans[term.target, callee.entry.name]
            elif term is not None and term.opcode == Opcode.JMP:
                plan.next = plans[function, term.target]
        return plans


def _decode_step(
    instr: Instruction, regs: List[int], words: Dict[int, int],
    addrs: List[int],
) -> Optional[_Step]:
    """One datapath instruction as a closure, or ``None`` for a no-op.

    Registers hold values in ``[0, 2**64)``: results are masked on
    write, and memory words were masked on store.  A write to r0 is
    dropped, so an ALU instruction targeting r0 decodes to nothing.
    """
    op = instr.opcode
    d = instr.dest
    srcs = instr.srcs
    imm = instr.imm
    if op == Opcode.LOAD:
        a = srcs[0]
        if d == REG_ZERO:
            def step():
                addrs.append((regs[a] + imm) & _MASK)
        else:
            def step():
                address = (regs[a] + imm) & _MASK
                addrs.append(address)
                regs[d] = words.get(address, 0)
        return step
    if op == Opcode.STORE:
        v, a = srcs

        def step():
            address = (regs[a] + imm) & _MASK
            addrs.append(address)
            words[address] = regs[v]
        return step
    if op == Opcode.NOP or d == REG_ZERO:
        return None
    if op == Opcode.MOVI:
        value = imm & _MASK

        def step():
            regs[d] = value
    elif op in _IMMEDIATE:
        fn = _IMMEDIATE[op]
        a = srcs[0]

        def step():
            regs[d] = fn(regs[a], imm) & _MASK
    elif op in _BINARY:
        fn = _BINARY[op]
        a, b = srcs[0], srcs[1]

        def step():
            regs[d] = fn(regs[a], regs[b]) & _MASK
    else:
        raise RuntimeError(f"unhandled opcode {op!r}")
    return step


def _decode_branch(instr: Instruction, regs: List[int]) -> Callable[[], bool]:
    """The signed ``src0 <cond> (src1 or imm)`` test of a BR."""
    test = _COMPARE[instr.cond]
    a = instr.srcs[0]
    if len(instr.srcs) == 2:
        b = instr.srcs[1]
        return lambda: test(regs[a] ^ _SIGN, regs[b] ^ _SIGN)
    k = (instr.imm & _MASK) ^ _SIGN
    return lambda: test(regs[a] ^ _SIGN, k)
