"""Unit tests for the architectural interpreter."""

import pytest

from repro.cfg.builder import CFGBuilder
from repro.errors import ReproError
from repro.isa.instructions import Condition
from repro.program.interpreter import ExecutionLimitExceeded, Interpreter
from repro.program.memory import Memory
from repro.program.program import Program


def build_program(*cfgs):
    program = Program("test")
    for cfg in cfgs:
        program.add_function(cfg)
    return program.seal()


def straightline():
    b = CFGBuilder("main")
    blk = b.block("entry")
    blk.movi(1, 7)
    blk.movi(2, 5)
    blk.add(3, 1, 2)
    blk.sub(4, 1, 2)
    blk.mul(5, 1, 2)
    blk.halt()
    return build_program(b.build())


class TestArithmetic:
    def test_alu_results(self):
        interp = Interpreter(straightline())
        interp.run()
        regs = interp.registers
        assert regs.read(3) == 12
        assert regs.read(4) == 2
        assert regs.read(5) == 35

    def test_shifts_and_logic(self):
        b = CFGBuilder("main")
        blk = b.block("entry")
        blk.movi(1, 0b1100)
        blk.movi(2, 2)
        blk.shl(3, 1, 2)
        blk.shr(4, 1, 2)
        blk.and_(5, 1, 2)
        blk.or_(6, 1, 2)
        blk.xor(7, 1, 2)
        blk.halt()
        interp = Interpreter(build_program(b.build()))
        interp.run()
        regs = interp.registers
        assert regs.read(3) == 0b110000
        assert regs.read(4) == 0b11
        assert regs.read(5) == 0b1100 & 2
        assert regs.read(6) == 0b1100 | 2
        assert regs.read(7) == 0b1100 ^ 2

    def test_fdiv_by_zero_reads_zero(self):
        b = CFGBuilder("main")
        blk = b.block("entry")
        blk.movi(1, 10)
        blk.fdiv(2, 1, 0)  # r0 is always 0
        blk.halt()
        interp = Interpreter(build_program(b.build()))
        interp.run()
        assert interp.registers.read(2) == 0


    def test_add_mul_shl_wrap_modulo_2_64(self):
        b = CFGBuilder("main")
        blk = b.block("entry")
        blk.movi(1, -1)        # 2**64 - 1
        blk.movi(2, 2)
        blk.movi(5, 1)
        blk.movi(6, 63)
        blk.add(3, 1, 2)
        blk.mul(4, 1, 2)
        blk.shl(7, 1, 5)
        blk.shl(8, 2, 6)
        blk.halt()
        interp = Interpreter(build_program(b.build()))
        interp.run()
        regs = interp.registers
        assert regs.read(1) == 2**64 - 1
        assert regs.read(3) == 1
        assert regs.read(4) == 2**64 - 2
        assert regs.read(7) == 2**64 - 2
        assert regs.read(8) == 0


class TestControlFlow:
    def test_taken_branch(self):
        b = CFGBuilder("main")
        a = b.block("A")
        a.movi(1, 5)
        a.br(Condition.GT, 1, imm=0, taken="C")
        b.block("B").movi(2, 111).jmp("D")
        b.block("C").movi(2, 222)
        b.block("D").halt()
        interp = Interpreter(build_program(b.build()))
        trace = interp.run()
        assert interp.registers.read(2) == 222
        executed = [r.block.name for r in trace]
        assert executed == ["A", "C", "D"]
        assert trace.records[0].taken is True

    def test_not_taken_branch(self):
        b = CFGBuilder("main")
        a = b.block("A")
        a.movi(1, 0)
        a.br(Condition.GT, 1, imm=0, taken="C")
        b.block("B").movi(2, 111).jmp("D")
        b.block("C").movi(2, 222)
        b.block("D").halt()
        interp = Interpreter(build_program(b.build()))
        trace = interp.run()
        assert interp.registers.read(2) == 111
        assert [r.block.name for r in trace] == ["A", "B", "D"]
        assert trace.records[0].taken is False

    def test_loop_iterates(self):
        b = CFGBuilder("main")
        b.block("init").movi(1, 0)
        b.block("head").br(Condition.GE, 1, imm=5, taken="exit")
        b.block("body").addi(1, 1, 1).addi(2, 2, 10).jmp("head")
        b.block("exit").halt()
        interp = Interpreter(build_program(b.build()))
        trace = interp.run()
        assert interp.registers.read(1) == 5
        assert interp.registers.read(2) == 50
        # head runs 6 times (5 not-taken + 1 taken)
        heads = [r for r in trace if r.block.name == "head"]
        assert len(heads) == 6
        assert [r.taken for r in heads] == [False] * 5 + [True]


    @pytest.mark.parametrize("lhs,rhs,cond,taken", [
        (1 << 63, -1, Condition.LT, True),     # -2**63 < -1
        (1 << 63, -1, Condition.GT, False),
        (-1, -1, Condition.EQ, True),          # 2**64 - 1 reads as -1
        (5, -(1 << 63), Condition.GT, True),
        (2**64 - 2, -1, Condition.LE, True),   # -2 <= -1
    ])
    def test_branch_compares_signed_against_immediate(self, lhs, rhs, cond,
                                                      taken):
        b = CFGBuilder("main")
        a = b.block("A")
        a.movi(1, lhs)
        a.br(cond, 1, imm=rhs, taken="T")
        b.block("N").halt()
        b.block("T").halt()
        trace = Interpreter(build_program(b.build())).run()
        assert trace.records[0].taken is taken

    @pytest.mark.parametrize("lhs,rhs,cond,taken", [
        (1 << 63, 1, Condition.LT, True),      # -2**63 < 1
        (1 << 63, 1, Condition.GE, False),
        (-1, 0, Condition.LT, True),           # -1 < 0
        (2**64 - 1, -1, Condition.EQ, True),
        (1 << 63, (1 << 63) - 1, Condition.GT, False),
    ])
    def test_branch_compares_signed_against_register(self, lhs, rhs, cond,
                                                     taken):
        b = CFGBuilder("main")
        a = b.block("A")
        a.movi(1, lhs)
        a.movi(2, rhs)
        a.br(cond, 1, 2, taken="T")
        b.block("N").halt()
        b.block("T").halt()
        trace = Interpreter(build_program(b.build())).run()
        assert trace.records[0].taken is taken


class TestCallsAndReturns:
    def test_call_return(self):
        main = CFGBuilder("main")
        entry = main.block("entry")
        entry.movi(1, 3)
        entry.call("double")
        main.block("after").addi(2, 1, 100).halt()
        callee = CFGBuilder("double")
        callee.block("body").add(1, 1, 1).ret()
        interp = Interpreter(build_program(main.build(), callee.build()))
        trace = interp.run()
        assert interp.registers.read(1) == 6
        assert interp.registers.read(2) == 106
        assert [(r.function, r.block.name) for r in trace] == [
            ("main", "entry"),
            ("double", "body"),
            ("main", "after"),
        ]

    def test_nested_calls(self):
        main = CFGBuilder("main")
        main.block("entry").movi(1, 1).call("outer")
        main.block("end").halt()
        outer = CFGBuilder("outer")
        outer.block("o").addi(1, 1, 10).call("inner")
        outer.block("oret").addi(1, 1, 100).ret()
        inner = CFGBuilder("inner")
        inner.block("i").addi(1, 1, 1000).ret()
        interp = Interpreter(
            build_program(main.build(), outer.build(), inner.build())
        )
        interp.run()
        assert interp.registers.read(1) == 1111

    def test_return_from_main_halts(self):
        b = CFGBuilder("main")
        b.block("entry").movi(1, 9).ret()
        interp = Interpreter(build_program(b.build()))
        trace = interp.run()
        assert len(trace) == 1
        assert interp.registers.read(1) == 9


class TestMemory:
    def test_load_store(self):
        b = CFGBuilder("main")
        blk = b.block("entry")
        blk.movi(1, 100)   # base address
        blk.movi(2, 42)
        blk.store(2, 1, offset=3)   # mem[103] = 42
        blk.load(3, 1, offset=3)    # r3 = mem[103]
        blk.halt()
        interp = Interpreter(build_program(b.build()))
        trace = interp.run()
        assert interp.registers.read(3) == 42
        assert trace.records[0].mem_addrs == (103, 103)

    def test_prefilled_memory(self):
        mem = Memory()
        mem.fill_array(200, [5, 6, 7])
        b = CFGBuilder("main")
        blk = b.block("entry")
        blk.movi(1, 200)
        blk.load(2, 1, offset=1)
        blk.halt()
        interp = Interpreter(build_program(b.build()), memory=mem)
        interp.run()
        assert interp.registers.read(2) == 6

    def test_load_into_r0_records_address_and_keeps_r0_zero(self):
        mem = Memory()
        mem.store(300, 9)
        b = CFGBuilder("main")
        blk = b.block("entry")
        blk.movi(1, 296)
        blk.load(0, 1, offset=4)
        blk.add(2, 0, 0)
        blk.halt()
        interp = Interpreter(build_program(b.build()), memory=mem)
        trace = interp.run()
        assert trace.records[0].mem_addrs == (300,)
        assert trace.load_count == 1
        assert interp.registers.read(0) == 0
        assert interp.registers.read(2) == 0

    def test_unwritten_memory_reads_zero(self):
        mem = Memory()
        assert mem.load(0xDEAD) == 0

    def test_fill_random_is_deterministic(self):
        m1, m2 = Memory(), Memory()
        m1.fill_random(0, 50, seed=7)
        m2.fill_random(0, 50, seed=7)
        assert [m1.load(i) for i in range(50)] == [
            m2.load(i) for i in range(50)
        ]


class TestLimitsAndTraceStats:
    def test_infinite_loop_hits_budget(self):
        b = CFGBuilder("main")
        b.block("spin").jmp("spin")
        interp = Interpreter(build_program(b.build()), max_instructions=1000)
        with pytest.raises(ExecutionLimitExceeded):
            interp.run()

    def test_budget_error_is_a_repro_error(self):
        b = CFGBuilder("main")
        b.block("spin").jmp("spin")
        interp = Interpreter(build_program(b.build()), max_instructions=10)
        with pytest.raises(ReproError):
            interp.run()
        with pytest.raises(RuntimeError):
            interp.run()

    @staticmethod
    def _work_then_halt(work):
        b = CFGBuilder("main")
        b.block("work").nop(work)
        b.block("done").halt()
        return build_program(b.build())

    def test_exact_budget_boundary(self):
        """The budget is checked after every block that does not end
        the program: a run whose blocks before the final HALT execute
        exactly ``max_instructions`` instructions succeeds, and one more
        instruction raises."""
        trace = Interpreter(
            self._work_then_halt(10), max_instructions=10
        ).run()
        assert trace.instruction_count == 11
        with pytest.raises(ExecutionLimitExceeded, match="exceeded 10"):
            Interpreter(self._work_then_halt(11), max_instructions=10).run()

    def test_trace_statistics(self):
        b = CFGBuilder("main")
        b.block("init").movi(1, 0)
        b.block("head").br(Condition.GE, 1, imm=3, taken="exit")
        body = b.block("body")
        body.addi(1, 1, 1)
        body.store(1, 0, offset=500)
        body.load(2, 0, offset=500)
        body.jmp("head")
        b.block("exit").halt()
        trace = Interpreter(build_program(b.build())).run()
        assert trace.branch_count == 4   # 3 not-taken + 1 taken
        assert trace.taken_count == 1
        assert trace.load_count == 3
        assert trace.store_count == 3
        outcomes = trace.branch_outcomes()
        assert len(outcomes) == 4
        assert all(pc == outcomes[0][0] for pc, _ in outcomes)
