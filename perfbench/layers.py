"""The traced run: spans around every public call into each layer.

:class:`LayerTracer` patches, for the duration of one pass, the entry
points the harnesses call into each layer and records a :class:`Span`
around every call, in memory.  Spans are made exclusive in dependency
order: a wrapped property first resolves the properties it depends on
(each under its own span) and only then opens its own, and every
program gets its static analysis warmed in a ``cfg`` span before its
first simulation.  Whatever still nests (a fallback cell simulated
inside ``run_batch``) is separated by self time.

Layer spans, by the metric their self time feeds:

=========================  ==============================================
``workloads.build_s``      ``BenchmarkContext.workload``,
                           ``FuzzProgram.workload``, ``draw_spec``
``program.trace_s``        ``.trace`` (``Workload.run``)
``profiling.profile_s``    ``.profile`` (``profile_trace``)
``profiling.select_s``     ``.selections``, ``.diverge_hints``,
                           ``.hammock_hints``, ``.wish_hints``,
                           ``FuzzProgram.hints_for``
``cfg.analysis_s``         ``ProgramAnalysis.of(program)`` with
                           ``ipostdoms`` and ``block_plan`` for every block
``core.<engine>_s``        ``repro.core.processors.simulate``
``uarch.batch_s``          ``repro.uarch.batch.run_batch``
=========================  ==============================================
"""

from __future__ import annotations

import contextlib
import time
from typing import Dict, List

from metrics import Span, layer_self_seconds

@contextlib.contextmanager
def patched(owner, attr: str, value):
    """Set ``owner.attr = value`` for the duration of the block.

    On a class the original is read from the class ``__dict__``, so a
    property is restored as the property object itself."""
    original = (
        owner.__dict__[attr] if isinstance(owner, type)
        else getattr(owner, attr)
    )
    setattr(owner, attr, value)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


class LayerTracer:
    """In-memory span recorder plus the counts taken at the same
    boundaries.  Use :meth:`installed` around one pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._open: List[int] = []
        #: Traces, hint tables and programs already counted or warmed,
        #: held so that their ids stay unique for the whole pass.
        self._seen: Dict[tuple, object] = {}
        self.counts: Dict[str, float] = {
            "program.trace_insts": 0,
            "profiling.diverge_branches": 0,
            "core.fast_insts": 0,
            "core.fast_fetches": 0,
            "core.reference_insts": 0,
            "uarch.batch_insts": 0,
            "uarch.batch_cells": 0,
            "uarch.batch_fallbacks": 0,
        }
        #: ``run_batch``'s own ``profile=`` and ``gang_stats=`` dicts.
        self.batch_profile: Dict[str, float] = {}
        self.gang_stats: Dict[str, int] = {}

    # -- spans -----------------------------------------------------------------

    @contextlib.contextmanager
    def span(self, layer: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(layer, time.perf_counter(), 0.0, parent))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter()

    def layer_seconds(self) -> Dict[str, float]:
        """Self time per layer span name."""
        return layer_self_seconds(self.spans)

    def _first(self, kind: str, obj) -> bool:
        """True the first time ``obj`` is seen under ``kind``."""
        key = (kind, id(obj))
        if key in self._seen:
            return False
        self._seen[key] = obj
        return True

    # -- wrappers ----------------------------------------------------------------

    def _property(self, prop: property, layer: str, deps=(), count=None):
        fget = prop.fget

        def getter(obj):
            for dep in deps:
                getattr(obj, dep)
            with self.span(layer):
                value = fget(obj)
            if count is not None:
                count(value)
            return value

        return property(getter, doc=prop.__doc__)

    def _count_trace(self, trace) -> None:
        if self._first("trace", trace):
            self.counts["program.trace_insts"] += trace.instruction_count

    def _count_diverge(self, table) -> None:
        if self._first("diverge", table):
            self.counts["profiling.diverge_branches"] += len(table)

    def _warm_analysis(self, program) -> None:
        """Static analysis of every block, once per program, before its
        first simulation."""
        if not self._first("analysis", program):
            return
        from repro.cfg.analysis import ProgramAnalysis

        with self.span("cfg.analysis_s"):
            analysis = ProgramAnalysis.of(program)
            for function in program.functions():
                analysis.ipostdoms(function.name)
                for block in function:
                    analysis.block_plan(block, function.name)

    def _simulate(self, inner):
        def simulate(program, trace, config=None, **kwargs):
            engine = config.engine if config is not None else "fast"
            if engine not in ("fast", "reference"):
                # engine="batch" re-enters through run_batch, which is
                # traced on its own.
                return inner(program, trace, config, **kwargs)
            self._warm_analysis(program)
            with self.span(f"core.{engine}_s"):
                stats = inner(program, trace, config, **kwargs)
            self.counts[f"core.{engine}_insts"] += stats.retired_instructions
            if engine == "fast":
                self.counts["core.fast_fetches"] += stats.fetched_total
            return stats

        return simulate

    def _run_batch(self, inner):
        def run_batch(cells, fallback_reasons=None):
            # No profile=/gang_stats= parameters: the tracer passes its
            # own dicts, and a caller passing one fails loudly here.
            for cell in cells:
                self._warm_analysis(cell.program)
            reasons: Dict[str, int] = {}
            scalar_before = (
                self.counts["core.fast_insts"]
                + self.counts["core.reference_insts"]
            )
            with self.span("uarch.batch_s"):
                out = inner(
                    cells, fallback_reasons=reasons,
                    profile=self.batch_profile, gang_stats=self.gang_stats,
                )
            scalar = (
                self.counts["core.fast_insts"]
                + self.counts["core.reference_insts"] - scalar_before
            )
            self.counts["uarch.batch_insts"] += (
                sum(stats.retired_instructions for stats in out) - scalar
            )
            self.counts["uarch.batch_cells"] += len(cells)
            self.counts["uarch.batch_fallbacks"] += sum(reasons.values())
            if fallback_reasons is not None:
                for reason, count in reasons.items():
                    fallback_reasons[reason] = (
                        fallback_reasons.get(reason, 0) + count
                    )
            return out

        return run_batch

    def _hints_for(self, inner):
        def hints_for(obj, mode):
            # The hint-bearing fuzz modes select from the profile; resolve
            # it first so the select span holds selection alone.
            obj.profile
            with self.span("profiling.select_s"):
                table = inner(obj, mode)
            if mode == "dmp" and table is not None:
                self._count_diverge(table)
            return table

        return hints_for

    @contextlib.contextmanager
    def installed(self):
        """Patch every traced entry point; restore them on exit."""
        import repro.core.processors as processors
        import repro.fuzz.harness as fuzz_harness
        import repro.harness.experiment as experiment
        import repro.uarch.batch as batch
        from repro.fuzz.harness import FuzzProgram
        from repro.harness.experiment import BenchmarkContext

        plan = []
        for cls in (BenchmarkContext, FuzzProgram):
            props = cls.__dict__
            plan += [
                (cls, "workload", self._property(
                    props["workload"], "workloads.build_s")),
                (cls, "trace", self._property(
                    props["trace"], "program.trace_s", ("workload",),
                    self._count_trace)),
                (cls, "profile", self._property(
                    props["profile"], "profiling.profile_s", ("trace",))),
            ]
        select = "profiling.select_s"
        plan += [
            (BenchmarkContext, "selections", self._property(
                BenchmarkContext.__dict__["selections"], select,
                ("profile",))),
            (BenchmarkContext, "diverge_hints", self._property(
                BenchmarkContext.__dict__["diverge_hints"], select,
                ("selections",), self._count_diverge)),
            (BenchmarkContext, "hammock_hints", self._property(
                BenchmarkContext.__dict__["hammock_hints"], select,
                ("profile",))),
            (BenchmarkContext, "wish_hints", self._property(
                BenchmarkContext.__dict__["wish_hints"], select,
                ("profile",))),
            (FuzzProgram, "hints_for",
             self._hints_for(FuzzProgram.__dict__["hints_for"])),
        ]
        draw_spec = fuzz_harness.draw_spec

        def traced_draw_spec(*args, **kwargs):
            with self.span("workloads.build_s"):
                return draw_spec(*args, **kwargs)

        plan.append((fuzz_harness, "draw_spec", traced_draw_spec))
        for module in (processors, experiment, fuzz_harness):
            plan.append(
                (module, "simulate", self._simulate(module.simulate))
            )
        plan.append((batch, "run_batch", self._run_batch(batch.run_batch)))
        with contextlib.ExitStack() as stack:
            for owner, attr, value in plan:
                stack.enter_context(patched(owner, attr, value))
            yield self
