"""Static tables for the batch engine's native kernel (``engine="batch"``).

Everything that does not depend on a cell's *timing* is precomputed
here, once per program and once per (trace, warm-up) inside each
``run_batch`` call, and shared by every cell of that call.  The arenas
are plain locals of the call: nothing is memoized across calls, so they
die when it returns.  Every table is a flat C-contiguous int64 numpy
array that ``kernel.c`` reads in place.

* **Program tables** (:class:`ProgramArena`) — the per-block row decode
  of :class:`~repro.uarch.plan.BlockPlan`, padded into rectangular
  tables, plus successor block ids, perceptron/JRS indices, BTB
  redirect sites and reconvergence PCs for wrong-path walks.

* **Trace tables** (:class:`TraceArena`) — the memory system, store
  buffer, return-address stack and architectural call context are
  *timing-independent*: the access sequence they observe is fixed by
  the trace alone, because wrong-path walks touch only the fetch-cycle
  accounting and the speculative history (see
  ``_walk_wrong_path_fast``), never the caches, the store buffer, the
  BTB, the RAS or the ROB, and dpred episodes consume every trace
  record exactly once.  One scalar replay per trace therefore pins down
  every icache stall, every load's latency or forwarding source, every
  RAS underflow and the call stack at each record — for every cell of
  that trace at once.

The replays reimplement the LRU/FIFO update rules of
:mod:`repro.memsys.cache` and :mod:`repro.uarch.storebuffer` in lean
scalar form; the engine-differential suite (bit-identical ``SimStats``
against the reference engine) is the guard that they stay
decision-identical.

The BTB is the one structure the kernel still updates per cell, but
only through ``_taken_redirect``: each redirect PC always maps to the
same target, so as long as no BTB set can overflow (checked statically
per program) a one-bit "seen" flag per redirect site reproduces every
hit/miss decision.  Programs that could evict fall back to the fast
engine.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.cfg.analysis import ProgramAnalysis
from repro.uarch.plan import (
    KIND_LOAD,
    KIND_STORE,
    TERM_BR,
    TERM_CALL,
    TERM_JMP,
    TERM_RET,
)

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

#: Fixed Table 2 geometry the trace replay assumes (enforced by
#: ``cell_supported``).  Sizes are in cache *lines* of 8 words.
_L1I_SETS, _L1I_WAYS, _L1I_LAT = 512, 2, 2
_L1D_SETS, _L1D_WAYS, _L1D_LAT = 256, 4, 2
_L2_SETS, _L2_WAYS, _L2_LAT = 2048, 8, 10
_MEM_LAT = 300
_LINE_WORDS = 8
_SB_CAPACITY = 128
_RAS_DEPTH = 64
_BTB_SETS, _BTB_WAYS = 1024, 4
_PERCEPTRONS = 1021
_HISTORY_BITS = 31


class ProgramArena:
    """Rectangular numpy decode of one program's block plans.

    Row tables are ``[block, row]`` (``L`` rows per block) and source
    tables ``[block, row, slot]`` (``K`` slots); padding reads ``ZREG``
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

        self.NROWS = np.zeros(n, np.int64)
        self.NBODY = np.zeros(n, np.int64)  # rows minus a BR terminator
        self.FPC = np.full(n, NO_PC, np.int64)
        self.TERM = np.zeros(n, np.int64)
        self.TAKEN = np.full(n, -1, np.int64)
        self.FALL = np.full(n, -1, np.int64)
        self.TARGET = np.full(n, -1, np.int64)
        self.CALLEE = np.full(n, -1, np.int64)
        self.SITE = np.full(n, -1, np.int64)
        self.PCT = np.zeros(n, np.int64)
        self.JPC = np.zeros(n, np.int64)
        #: Raw terminating-branch PC for BR blocks (-1 otherwise): the
        #: diverge-hint table is keyed by the branch instruction's PC,
        #: which ``JPC`` (already shifted for the JRS index) cannot
        #: recover.
        self.BRPC = np.full(n, -1, np.int64)
        self.RECONV = np.full(n, NO_RECONV, np.int64)
        self.BRLAT = np.zeros(n, np.int64)
        self.BRSRC = np.full((n, K), ZREG, np.int64)
        self.RKIND = np.zeros((n, L), np.int64)
        self.RLAT = np.zeros((n, L), np.int64)
        self.RDEST = np.full((n, L), JREG, np.int64)
        self.RSRC = np.full((n, L, K), ZREG, np.int64)
        self.RLORD = np.full((n, L), -1, np.int64)
        self.RSTORD = np.full((n, L), -1, np.int64)

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
            loads = stores = 0
            for i, (cond, kind, latency, _lat1, dest, srcs) in enumerate(
                plan.rows
            ):
                self.RKIND[b, i] = kind
                self.RLAT[b, i] = latency
                if dest >= 0:
                    self.RDEST[b, i] = dest
                for j, src in enumerate(srcs):
                    self.RSRC[b, i, j] = src
                if kind == KIND_LOAD:
                    self.RLORD[b, i] = loads
                    loads += 1
                elif kind == KIND_STORE:
                    self.RSTORD[b, i] = stores
                    stores += 1
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
                    self.BRSRC[b, j] = src

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


class _LRU:
    """One LRU cache level as insertion-ordered dicts (see Cache)."""

    __slots__ = ("sets", "ways", "nsets")

    def __init__(self, nsets: int, ways: int) -> None:
        self.nsets = nsets
        self.ways = ways
        self.sets: List[dict] = [{} for _ in range(nsets)]

    def access(self, line: int) -> bool:
        entry_set = self.sets[line % self.nsets]
        if line in entry_set:
            del entry_set[line]
            entry_set[line] = True
            return True
        if len(entry_set) >= self.ways:
            del entry_set[next(iter(entry_set))]
        entry_set[line] = True
        return False


class TraceArena:
    """Trace-static record tables for one (program, trace, warmup)."""

    def __init__(self, parena: ProgramArena, program, trace,
                 warm_words) -> None:
        records = trace.records
        nrec = len(records)
        self.nrec = nrec

        self.RBLK = np.zeros(nrec, np.int64)
        self.REXTRA = np.zeros(nrec, np.int64)
        self.RTAKEN = np.zeros(nrec, np.int64)
        self.RL0 = np.zeros(nrec, np.int64)
        self.RS0 = np.zeros(nrec, np.int64)
        self.RUNDER = np.zeros(nrec, np.int64)
        self.RNODE = np.full(nrec, -1, np.int64)
        self.RFPC = np.full(nrec, NO_PC, np.int64)

        l1i = _LRU(_L1I_SETS, _L1I_WAYS)
        l1d = _LRU(_L1D_SETS, _L1D_WAYS)
        l2 = _LRU(_L2_SETS, _L2_WAYS)
        if warm_words:
            for address in warm_words:
                l2.access(address // _LINE_WORDS)

        # Store buffer FIFO of (address, local ordinal); per-address
        # buckets searched youngest-first, exactly like StoreBuffer.
        fifo: List[Tuple[int, int]] = []
        by_addr: Dict[int, List[int]] = {}
        fifo_head = 0  # logical popleft via index (amortized rebuild)

        ras_len = 0
        node_parent: List[int] = []
        node_ret: List[int] = []
        node = -1

        load_lat: List[int] = []
        load_fwd: List[int] = []
        gid = parena.gid
        TERM = parena.TERM
        FALL = parena.FALL
        nstores = 0

        for r, record in enumerate(records):
            b = gid[(record.function, record.block.name)]
            self.RBLK[r] = b
            self.RL0[r] = len(load_lat)
            self.RS0[r] = nstores
            self.RNODE[r] = node
            fpc = parena.FPC[b]
            self.RFPC[r] = fpc
            if record.taken:
                self.RTAKEN[r] = 1

            # _icache_fetch(first_pc): inst_access(pc // 8).
            line = (fpc // _LINE_WORDS) // _LINE_WORDS
            if l1i.access(line):
                extra = 0
            elif l2.access(line):
                extra = _L2_LAT
            else:
                extra = _L2_LAT + _MEM_LAT
            self.REXTRA[r] = extra

            term = TERM[b]
            nbody = int(parena.NBODY[b])
            mem_addrs = record.mem_addrs
            mem_pos = 0
            for i in range(nbody):
                kind = parena.RKIND[b, i]
                if kind == KIND_LOAD:
                    address = mem_addrs[mem_pos]
                    mem_pos += 1
                    bucket = by_addr.get(address)
                    fwd = bucket[-1] if bucket else -1
                    if fwd >= 0:
                        load_fwd.append(fwd)
                        load_lat.append(0)
                    else:
                        load_fwd.append(-1)
                        dline = address // _LINE_WORDS
                        if l1d.access(dline):
                            lat = _L1D_LAT
                        elif l2.access(dline):
                            lat = _L1D_LAT + _L2_LAT
                        else:
                            lat = _L1D_LAT + _L2_LAT + _MEM_LAT
                        load_lat.append(lat)
                elif kind == KIND_STORE:
                    address = mem_addrs[mem_pos]
                    mem_pos += 1
                    if len(fifo) - fifo_head >= _SB_CAPACITY:
                        evicted_addr, evicted_ord = fifo[fifo_head]
                        fifo_head += 1
                        ebucket = by_addr[evicted_addr]
                        ebucket.remove(evicted_ord)
                        if not ebucket:
                            del by_addr[evicted_addr]
                        if fifo_head > 4096:
                            del fifo[:fifo_head]
                            fifo_head = 0
                    fifo.append((address, nstores))
                    by_addr.setdefault(address, []).append(nstores)
                    nstores += 1

            if term == TERM_CALL:
                if FALL[b] >= 0:
                    if ras_len < _RAS_DEPTH:
                        ras_len += 1
                    node_parent.append(node)
                    node_ret.append(int(FALL[b]))
                    node = len(node_parent) - 1
            elif term == TERM_RET:
                if node >= 0:
                    node = node_parent[node]
                if ras_len == 0:
                    self.RUNDER[r] = 1
                else:
                    ras_len -= 1

        self.LLAT = np.asarray(load_lat, np.int64)
        self.LFWD = np.asarray(load_fwd, np.int64)
        self.nloads = len(load_lat)
        self.nstores = nstores
        self.NODEPAR = np.asarray(node_parent, np.int64)
        self.NODERET = np.asarray(node_ret, np.int64)
        self.nnodes = len(node_parent)
