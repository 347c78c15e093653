"""Static tables for the batch engine's native kernel (``engine="batch"``).

Everything that does not depend on a cell's configuration is
precomputed here, once per program and once per trace inside each
``run_batch`` call, and shared by every cell of that call.  The arenas
are plain locals of the call: nothing is memoized across calls, so they
die when it returns.  Every table is a flat ``array.array`` of 64-bit
integers that ``kernel.c`` reads in place; two-dimensional tables are
stored row-major with their strides (``L`` rows per block, ``K``
sources per row) given alongside.

* **Program tables** (:class:`ProgramArena`) — the per-block row decode
  of :class:`~repro.uarch.plan.BlockPlan`, padded into rectangular
  tables, plus successor block ids, perceptron/JRS indices, BTB
  redirect sites and reconvergence PCs for wrong-path walks.

* **Trace tables** (:class:`TraceArena`) — each record's block id and
  branch direction, and the addresses of its loads and stores.  The
  kernel simulates the caches, the store buffer, the return-address
  stack and the call context itself: an early exit that flushes a
  mispredicted diverge branch fetches the alternate path's records a
  second time, so what those structures see depends on timing.

The BTB is the one structure the kernel models by a shortcut, and only
through ``_taken_redirect``: each redirect PC always maps to the same
target, so as long as no BTB set can overflow (checked statically per
program) a one-bit "seen" flag per redirect site reproduces every
hit/miss decision.  Programs that could evict fall back to the fast
engine.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Tuple

from repro.cfg.analysis import ProgramAnalysis
from repro.uarch.plan import KIND_LOAD, KIND_STORE, TERM_BR, TERM_CALL, TERM_JMP

#: Architectural register file size plus the two synthetic columns the
#: kernel routes padded reads/writes through: ``ZREG`` always reads 0
#: (source padding), ``JREG`` is a write-only junk column (kernel.c
#: hard-codes both as ``NREGS``/``JREG``).
NUM_ARCH_REGS = 32
ZREG = NUM_ARCH_REGS
JREG = NUM_ARCH_REGS + 1

#: Sentinels.  A missing block first-PC and a missing reconvergence PC
#: both encode as ``-1`` — deliberately the *same* value, because the
#: reference engine's control-independence latch compares
#: ``plan.first_pc == reconv_pc`` where both sides are ``None`` for an
#: empty block with no reconvergence point, and ``None == None`` is
#: True.
NO_PC = -1
NO_RECONV = -1

_BTB_SETS, _BTB_WAYS = 1024, 4
_PERCEPTRONS = 1021

#: Memory addresses are 64-bit words; the kernel reads them as signed
#: int64, whose two's-complement view keeps line numbers and set
#: indices exact (see ``line_of`` in kernel.c).
_ADDRESS_MASK = (1 << 64) - 1


def words(values) -> array:
    """``values`` as an unsigned 64-bit table (masked to 64 bits when a
    value lies outside ``[0, 2**64)``)."""
    try:
        return array("Q", values)
    except OverflowError:
        return array("Q", [value & _ADDRESS_MASK for value in values])


class ProgramArena:
    """Rectangular decode of one program's block plans.

    Row tables are ``[block][row]`` (``L`` rows per block) and source
    tables ``[block][row][slot]`` (``K`` slots); padding reads ``ZREG``
    and writes ``JREG``."""

    def __init__(self, program) -> None:
        analysis = ProgramAnalysis.of(program)
        plans = []
        self.gid: Dict[Tuple[str, str], int] = {}
        for cfg in program.functions():
            for block in cfg:
                self.gid[(cfg.name, block.name)] = len(plans)
                plans.append(analysis.block_plan(block, cfg.name))
        n = len(plans)
        self.n = n
        self.vector_ok = True
        self.reason = ""

        L = max((p.n for p in plans), default=0)
        K = 1
        for p in plans:
            for row in p.rows:
                if len(row[5]) > K:
                    K = len(row[5])
        self.L, self.K = L, K

        def table(fill, size):
            return array("q", [fill]) * size

        self.NROWS = table(0, n)
        self.NBODY = table(0, n)  # rows minus a BR terminator
        self.FPC = table(NO_PC, n)
        self.TERM = table(0, n)
        self.TAKEN = table(-1, n)
        self.FALL = table(-1, n)
        self.TARGET = table(-1, n)
        self.CALLEE = table(-1, n)
        self.SITE = table(-1, n)
        self.PCT = table(0, n)
        self.JPC = table(0, n)
        #: Raw terminating-branch PC for BR blocks (-1 otherwise): the
        #: diverge-hint table is keyed by the branch instruction's PC,
        #: which ``JPC`` (already shifted for the JRS index) cannot
        #: recover.
        self.BRPC = table(-1, n)
        self.RECONV = table(NO_RECONV, n)
        self.BRLAT = table(0, n)
        self.BRSRC = table(ZREG, n * K)
        self.RKIND = table(0, n * L)
        self.RLAT = table(0, n * L)
        self.RDEST = table(JREG, n * L)
        self.RSRC = table(ZREG, n * L * K)
        #: A load or store row's position among its block's memory
        #: accesses (the index into its record's addresses), else -1.
        self.RMORD = table(-1, n * L)

        #: Loads plus stores per block: the memory addresses each of its
        #: trace records must carry.
        self.memory_ops: List[int] = [0] * n
        sites: Dict[int, int] = {}  # redirect pc -> dense site id

        def _gid_of(plan_block, function) -> int:
            if plan_block is None:
                return -1
            return self.gid[(function, plan_block.name)]

        for b, plan in enumerate(plans):
            self.NROWS[b] = plan.n
            # ControlFlowGraph.seal keeps a BR last, as the walk assumes.
            is_br = plan.term_kind == TERM_BR
            self.NBODY[b] = plan.n - 1 if is_br else plan.n
            if plan.first_pc is not None:
                self.FPC[b] = plan.first_pc
            self.TERM[b] = plan.term_kind
            self.TAKEN[b] = _gid_of(plan.taken_block, plan.function)
            self.FALL[b] = _gid_of(plan.fall_block, plan.function)
            self.TARGET[b] = _gid_of(plan.target_block, plan.function)
            if plan.callee_block is not None:
                self.CALLEE[b] = self.gid[
                    (plan.callee_name, plan.callee_block.name)
                ]
            memory_ops = 0
            for i, (cond, kind, latency, _lat1, dest, srcs) in enumerate(
                plan.rows
            ):
                row = b * L + i
                self.RKIND[row] = kind
                self.RLAT[row] = latency
                if dest >= 0:
                    self.RDEST[row] = dest
                for j, src in enumerate(srcs):
                    self.RSRC[row * K + j] = src
                if kind in (KIND_LOAD, KIND_STORE):
                    self.RMORD[row] = memory_ops
                    memory_ops += 1
            self.memory_ops[b] = memory_ops
            if plan.term_kind in (TERM_BR, TERM_JMP, TERM_CALL):
                pc = plan.term_pc
                if pc not in sites:
                    sites[pc] = len(sites)
                self.SITE[b] = sites[pc]
            if is_br:
                self.PCT[b] = (plan.term_pc >> 2) % _PERCEPTRONS
                self.JPC[b] = plan.term_pc >> 2
                self.BRPC[b] = plan.term_pc
                reconv = analysis.reconvergence_pc(
                    plan.function, plan.block_name
                )
                if reconv is not None:
                    self.RECONV[b] = reconv
                self.BRLAT[b] = plan.rows[-1][2]
                for j, src in enumerate(plan.rows[-1][5]):
                    self.BRSRC[b * K + j] = src

        self.nsites = len(sites)
        # Static BTB no-eviction check: the seen-bit model is exact only
        # if no set can ever hold more than its ways.
        per_set: Dict[int, int] = {}
        for pc in sites:
            s = (pc >> 2) % _BTB_SETS
            per_set[s] = per_set.get(s, 0) + 1
            if per_set[s] > _BTB_WAYS:
                self.vector_ok = False
                self.reason = "BTB set can overflow (eviction possible)"


class TraceArena:
    """Per-record tables for one (program, trace): ``RBLK`` (block id),
    ``RTAKEN`` (branch direction), ``RM0`` (the record's first entry in
    ``MADDR``) and ``MADDR`` (every record's load and store addresses,
    in fetch order)."""

    def __init__(self, parena: ProgramArena, trace) -> None:
        records = trace.records
        gid = parena.gid
        memory_ops = parena.memory_ops
        ids: Dict[int, int] = {}  # id(block) -> block id
        blocks, taken, first, addresses = [], [], [], []
        for rec in records:
            block = rec.block
            b = ids.get(id(block))
            if b is None:
                # By name, not identity: a trace loaded from the
                # artifact cache holds copies of the program's blocks.
                b = ids[id(block)] = gid[(rec.function, block.name)]
            if len(rec.mem_addrs) < memory_ops[b]:
                # The kernel indexes the addresses without a bound.
                raise ValueError(
                    f"trace record {len(blocks)} ({rec.function}/"
                    f"{block.name}) carries fewer memory addresses than "
                    "its block has loads and stores"
                )
            blocks.append(b)
            taken.append(1 if rec.taken else 0)
            first.append(len(addresses))
            addresses.extend(rec.mem_addrs)
        self.nrec = len(records)
        self.RBLK = array("q", blocks)
        self.RTAKEN = array("q", taken)
        self.RM0 = array("q", first)
        self.MADDR = words(addresses)
