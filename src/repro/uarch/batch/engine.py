"""The batch engine (``engine="batch"``): one native kernel call per cell.

:func:`run_batch` checks each cell against the kernel's envelope
(:func:`cell_supported`, then the program arena's BTB check), builds
the static arenas of :mod:`repro.uarch.batch.arena` once per program
and once per (trace, warm-up words), and hands every in-envelope cell
to the C kernel (``kernel.c``, loaded by :mod:`repro.uarch.batch.native`).
Cells outside the envelope, and every cell when the kernel cannot be
built, run on the fast engine instead.

Bit-identity contract: every cell's :class:`~repro.uarch.stats.SimStats`
equals the reference engine's field for field, whichever way it ran
(tests/core/test_engine_batch.py, tests/core/test_golden_stats.py).
"""

from __future__ import annotations

from time import perf_counter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.cfm import CfmCam
from repro.uarch.batch import native
from repro.uarch.batch.arena import ProgramArena, TraceArena
from repro.uarch.plan import TERM_BR
from repro.uarch.stats import SimStats

#: JRS counter ceiling (``make_estimator("jrs")`` geometry).
_JMAX = 15


class BatchCell:
    """One (program, trace, config) simulation the batch engine runs."""

    __slots__ = (
        "program", "trace", "config", "hints", "benchmark", "warm_words",
        "tracer",
    )

    def __init__(self, program, trace, config, hints=None, benchmark="",
                 warm_words=None, tracer=None):
        self.program = program
        self.trace = trace
        self.config = config
        self.hints = hints
        self.benchmark = benchmark
        self.warm_words = warm_words
        self.tracer = tracer


def cell_supported(cell: BatchCell) -> Tuple[bool, str]:
    """Whether the native kernel can run this cell bit-identically,
    judged from its configuration and tracer.

    Anything outside the envelope is not an error — ``run_batch`` falls
    back to the fast engine per cell — but the reason string feeds the
    differential tests and ``docs/performance.md``.  The program-level
    check (:attr:`ProgramArena.vector_ok`) runs in ``run_batch``, which
    builds the program's arena.
    """
    from repro.validation.runtime import paranoid_enabled

    config = cell.config
    if cell.tracer is not None:
        return False, "event tracer attached"
    if config.mode in ("dmp", "dhp"):
        # The kernel runs plain dynamic predication; each enhancement it
        # does not is named so the fallback summary can group by it.
        if config.loop_predication:
            return False, "loop predication (loop episodes are scalar-only)"
        if config.early_exit:
            return False, "early exit (alternate-path early exit is scalar-only)"
        if config.multiple_diverge:
            return False, (
                "multiple diverge branches "
                "(restart/nested episodes are scalar-only)"
            )
        if config.selective_predictor_update:
            return False, "selective predictor update (scalar-only)"
    elif config.mode == "mpp":
        # The learned merge-point table changes between lookups as the
        # predictor trains; the kernel reads each diverge branch's CFM
        # set from the static hint table (_hint_tables).
        return False, "mode 'mpp' (learned merge points are scalar-only)"
    elif config.mode not in ("baseline", "dualpath"):
        return False, f"mode {config.mode!r} (wish branches are scalar-only)"
    if config.oracle_checks or config.watchdog or paranoid_enabled():
        return False, "oracle/watchdog instrumentation"
    if config.predictor_kind != "perceptron" or config.predictor_args:
        return False, "non-default direction predictor"
    if config.confidence_kind != "jrs" or (
        set(config.confidence_args) - {"threshold"}
    ):
        return False, "non-default confidence estimator"
    if config.btb_entries != 4096 or config.ras_depth != 64:
        return False, "non-default BTB/RAS geometry"
    if config.store_buffer_size != 128:
        return False, "non-default store buffer"
    if config.memory_latency != 300 or config.prefetch_lines != 0:
        return False, "non-default memory system"
    return True, ""


def _fallback(cell: BatchCell) -> SimStats:
    from repro.core.processors import simulate

    return simulate(
        cell.program,
        cell.trace,
        cell.config.replace(engine="fast"),
        hints=cell.hints,
        benchmark=cell.benchmark,
        warm_words=cell.warm_words,
        tracer=cell.tracer,
    )


def _jrs_threshold(config) -> int:
    threshold = config.confidence_args.get("threshold", 12)
    if threshold is None:
        return _JMAX
    return min(threshold, _JMAX)


def _hint_tables(parena: ProgramArena, hints, multiple_cfm: bool):
    """The kernel's per-block diverge-hint tables for one cell.

    ``hinted[b]`` marks a block whose conditional branch opens episodes:
    its PC has a usable, non-loop hint (the ``_usable_hint`` and
    ``_maybe_enter_dpred`` checks).  Its episode's initial
    :class:`~repro.core.cfm.CfmCam` entries are
    ``cfmpcs[cfmoff[b]:cfmoff[b + 1]]``."""
    n = parena.n
    hinted = np.zeros(n, np.int64)
    cfmoff = np.zeros(n + 1, np.int64)
    pcs: List[int] = []
    for b in range(n):
        if hints is not None and parena.TERM[b] == TERM_BR:
            pc = int(parena.BRPC[b])
            hint = hints.get(pc)
            if (
                hint is not None and not hint.is_loop and hint.cfm_pcs
                and pc not in hint.cfm_pcs
            ):
                cam = hint.cfm_pcs if multiple_cfm else (hint.primary_cfm,)
                hinted[b] = 1
                pcs.extend(CfmCam(cam).entries)
        cfmoff[b + 1] = len(pcs)
    return hinted, cfmoff, np.asarray(pcs or [0], np.int64)


def _scalars(config) -> Dict[str, int]:
    return {
        "dualpath": int(config.mode == "dualpath"),
        "predicating": int(config.mode in ("dmp", "dhp")),
        "width": config.fetch_width,
        "maxb": config.max_branches_per_cycle,
        "depth": config.pipeline_depth,
        "rob": config.rob_size,
        "rw": config.retire_width,
        "stops": int(config.fetch_stops_at_taken),
        "thresh": _jrs_threshold(config),
        "path_limit": config.dpred_path_limit,
        "keep_predicted_ghr": int(config.dpred_ghr_policy == "predicted"),
    }


def _stats(cell: BatchCell, out: np.ndarray) -> SimStats:
    stats = SimStats(
        benchmark=cell.benchmark or cell.trace.program_name,
        config_description=cell.config.describe(),
    )
    values = out.tolist()
    for name, value in zip(native.STATS_FIELDS, values):
        setattr(stats, name, value)
    stats.retired_instructions = cell.trace.instruction_count
    base = len(native.STATS_FIELDS)
    for case in range(1, 7):
        stats.exit_cases[case] += values[base + case]
    return stats


def run_batch(
    cells: List[BatchCell],
    fallback_reasons: Optional[Dict[str, int]] = None,
    profile: Optional[Dict[str, float]] = None,
    gang_stats: Optional[Dict[str, int]] = None,
) -> List[SimStats]:
    """Simulate every cell: in-envelope cells on the native kernel, one
    call each, the rest on the fast engine (bit-identical either way).
    Pass a dict as ``fallback_reasons`` to receive a histogram of the
    reason strings of the cells that fell back — ``cell_supported``'s,
    the program arena's, or :data:`native.UNAVAILABLE` when the kernel
    cannot be built (the ``run_suite``/CLI fallback summary).

    Every arena is built here, once per distinct program and once per
    distinct (trace, warm words), and dies when the call returns.

    ``profile`` (a dict, accumulated into) receives wall-time phase
    attribution: ``arena_build`` (program and trace arenas, hint
    tables), ``step_loop`` (kernel calls, marshalling included) and
    ``scalar_fallback`` (cells simulated on the fast engine).

    ``gang_stats`` is accepted and left untouched (it stays empty).
    It is kept only for the benchmark's traced run
    (``perfbench/layers.py``), which passes it."""
    results: List[Optional[SimStats]] = [None] * len(cells)
    parenas: Dict[int, ProgramArena] = {}  # id(program) -> arena
    tarenas: Dict[Tuple[int, tuple], TraceArena] = {}
    hint_tables: Dict[Tuple[int, int, bool], tuple] = {}
    build = kernel_time = fallback_time = 0.0
    for i, cell in enumerate(cells):
        ok, reason = cell_supported(cell)
        if ok:
            t0 = perf_counter()
            parena = parenas.get(id(cell.program))
            if parena is None:
                parena = parenas[id(cell.program)] = ProgramArena(
                    cell.program
                )
            build += perf_counter() - t0
            ok, reason = parena.vector_ok, parena.reason
        kernel = native.load() if ok else None
        if ok and kernel is None:
            ok, reason = False, native.UNAVAILABLE
        if not ok:
            if fallback_reasons is not None:
                fallback_reasons[reason] = (
                    fallback_reasons.get(reason, 0) + 1
                )
            t0 = perf_counter()
            results[i] = _fallback(cell)
            fallback_time += perf_counter() - t0
            continue
        t0 = perf_counter()
        # The warm-up words set the L2 image the trace replay starts from.
        warm = tuple(cell.warm_words) if cell.warm_words else ()
        tkey = (id(cell.trace), warm)
        tarena = tarenas.get(tkey)
        if tarena is None:
            tarena = tarenas[tkey] = TraceArena(
                parena, cell.program, cell.trace, warm
            )
        config = cell.config
        predicating = config.mode in ("dmp", "dhp")
        hkey = (
            id(parena), id(cell.hints) if predicating else 0,
            predicating and config.multiple_cfm,
        )
        tables = hint_tables.get(hkey)
        if tables is None:
            tables = hint_tables[hkey] = _hint_tables(
                parena, cell.hints if predicating else None, hkey[2]
            )
        t1 = perf_counter()
        build += t1 - t0
        out = kernel.run_cell(parena, tarena, tables, _scalars(config))
        results[i] = _stats(cell, out)
        kernel_time += perf_counter() - t1
    if profile is not None:
        for key, val in (
            ("arena_build", build),
            ("step_loop", kernel_time),
            ("scalar_fallback", fallback_time),
        ):
            profile[key] = profile.get(key, 0.0) + val
    return results  # type: ignore[return-value]
