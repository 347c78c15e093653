"""Benchmark contexts and suite runners.

A :class:`BenchmarkContext` owns everything one benchmark needs that is
*independent of the machine configuration*: the built workload, its
functional trace, the two profile runs, and the diverge/hammock hint
tables.  All of it is computed lazily and cached, so sweeping N machine
configurations over one benchmark pays the (comparatively expensive)
profiling cost once.

:func:`run_suite` simulates each benchmark's cells in one call into the
batch engine (:mod:`repro.uarch.batch`), whose native kernel runs every
cell inside its envelope.  Two further layers sit on
top (docs/performance.md):

* every artifact and every completed :class:`~repro.uarch.stats.SimStats`
  can be persisted to an :class:`~repro.harness.cache.ArtifactCache`,
  keyed by canonical fingerprints (never ``repr``), so repeated CLI
  invocations skip work they have already done; and
* :func:`run_suite` accepts ``jobs=N`` to fan the benchmarks out over
  a process pool (:mod:`repro.harness.parallel`), one worker running a
  benchmark's front end and cells as the serial path would, merging
  results deterministically — a parallel or cache-warm run is
  bit-identical to a serial cold run.
"""

from __future__ import annotations

import dataclasses
import os
import time
from typing import Dict, Iterable, List, Optional, Tuple, Union

from repro.cfg.analysis import ProgramAnalysis
from repro.core.processors import simulate
from repro.errors import HintValidationError, ReproError
from repro.harness.cache import ArtifactCache, CacheCounters
from repro.harness.fingerprint import config_fingerprint, context_fingerprint
from repro.isa.encoding import HintTable
from repro.profiling.diverge_selection import (
    SelectionThresholds,
    build_hint_table,
    candidate_branch_pcs,
    select_diverge_branches,
)
from repro.profiling.hammock import find_simple_hammocks
from repro.profiling.profiler import (
    ProgramProfile,
    collect_reconvergence,
    profile_trace,
)
from repro.uarch.config import MachineConfig
from repro.uarch.stats import SimStats
from repro.validation.hints import check_hint_table
from repro.validation.runtime import paranoid_enabled
from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark

#: Cache kinds for the three hint-table flavours, by machine mode.
_HINT_KINDS = {"dmp": "hints-dmp", "dhp": "hints-dhp", "wish": "hints-wish"}


class BenchmarkContext:
    """One benchmark's machine-independent artifacts, lazily built.

    ``thresholds`` defaults to a *fresh* :class:`SelectionThresholds`
    per instance (a ``None`` sentinel, not a shared default-argument
    object), so mutating one context's thresholds can never leak into
    another.  Pass ``cache`` (an :class:`ArtifactCache` or a directory
    path) to persist artifacts and simulation stats across processes.
    """

    def __init__(
        self,
        name: str,
        iterations: Optional[int] = None,
        seed: int = 0,
        thresholds: Optional[SelectionThresholds] = None,
        cache: Union[None, str, "ArtifactCache"] = None,
    ) -> None:
        self.name = name
        self.iterations = iterations
        self.seed = seed
        self.thresholds = (
            SelectionThresholds() if thresholds is None else thresholds
        )
        self._cache = ArtifactCache.resolve(cache)
        self._fingerprint: Optional[str] = None
        self._workload = None
        self._trace = None
        self._profile: Optional[ProgramProfile] = None
        self._selections = None
        self._diverge_hints: Optional[HintTable] = None
        self._hammock_hints: Optional[HintTable] = None
        self._wish_hints: Optional[HintTable] = None
        self._sim_cache: Dict[str, SimStats] = {}
        self._analysis_loaded = False
        #: Wall-clock seconds spent in each stage *by this process*.
        self.stage_seconds: Dict[str, float] = {
            "build": 0.0, "trace": 0.0, "profile": 0.0, "simulate": 0.0,
        }
        self.sims_run = 0        # timing simulations actually executed
        self.sim_memo_hits = 0   # served from the in-memory memo
        self.sim_cache_hits = 0  # served from the on-disk cache

    # -- identity / cache plumbing ----------------------------------------

    @property
    def fingerprint(self) -> str:
        """Canonical key of this context's machine-independent inputs."""
        if self._fingerprint is None:
            self._fingerprint = context_fingerprint(
                self.name, self.iterations, self.seed, self.thresholds
            )
        return self._fingerprint

    @property
    def cache(self) -> Optional[ArtifactCache]:
        return self._cache

    def attach_cache(
        self, cache: Union[None, str, "ArtifactCache"]
    ) -> None:
        """Adopt an on-disk cache if this context does not have one."""
        if self._cache is None:
            self._cache = ArtifactCache.resolve(cache)

    def check_compatible(
        self, iterations: Optional[int], seed: int
    ) -> None:
        """Raise :class:`ReproError` unless this context was built with
        the given parameters (guards ``run_suite(..., contexts=...)``
        against silently reusing a stale context)."""
        if self.iterations != iterations or self.seed != seed:
            raise ReproError(
                f"stale context for benchmark {self.name!r}: built with "
                f"iterations={self.iterations} seed={self.seed}, but this "
                f"run wants iterations={iterations} seed={seed}; pass a "
                "fresh contexts dict (or matching parameters)"
            )

    def _timed(self, stage: str, t0: float) -> None:
        self.stage_seconds[stage] += time.perf_counter() - t0

    def __getstate__(self):
        # A pickled context (shipped to a worker process) never carries
        # its cache handle: caches are process-local, and only the
        # parent writes to disk.
        state = self.__dict__.copy()
        state["_cache"] = None
        return state

    # -- artifacts --------------------------------------------------------

    @property
    def workload(self):
        if self._workload is None:
            t0 = time.perf_counter()
            self._workload = build_benchmark(
                self.name, self.iterations, self.seed
            )
            self._timed("build", t0)
        return self._workload

    @property
    def program(self):
        return self.workload.program

    @property
    def trace(self):
        if self._trace is None:
            if self._cache is not None:
                self._trace = self._cache.load_pickle(
                    "trace", self.fingerprint
                )
            if self._trace is None:
                workload = self.workload  # timed as "build"
                t0 = time.perf_counter()
                self._trace = workload.run()
                self._timed("trace", t0)
                if self._cache is not None:
                    self._cache.store_pickle(
                        "trace", self.fingerprint, self._trace
                    )
        return self._trace

    @property
    def profile(self) -> ProgramProfile:
        """Profile run 1 (edge counts + mispredictions)."""
        if self._profile is None:
            if self._cache is not None:
                self._profile = self._cache.load_pickle(
                    "profile", self.fingerprint
                )
            if self._profile is None:
                program, trace = self.program, self.trace
                t0 = time.perf_counter()
                self._profile = profile_trace(program, trace)
                self._timed("profile", t0)
                if self._cache is not None:
                    self._cache.store_pickle(
                        "profile", self.fingerprint, self._profile
                    )
        return self._profile

    @property
    def selections(self):
        """Diverge-branch selections (profile run 2 + Section 3.2 rules)."""
        if self._selections is None:
            profile = self.profile
            t0 = time.perf_counter()
            candidates = candidate_branch_pcs(profile, self.thresholds)
            reconvergence = collect_reconvergence(
                self.program,
                self.trace,
                candidates,
                max_distance=self.thresholds.max_cfm_distance,
            )
            self._selections = select_diverge_branches(
                profile, reconvergence, self.thresholds
            )
            self._timed("profile", t0)
        return self._selections

    def _cached_hint_table(self, kind: str) -> Optional[HintTable]:
        """A cached hint table, re-validated against this program; a
        structurally-broken cached table is discarded (the
        :class:`HintValidationError` pathway) and rebuilt."""
        if self._cache is None:
            return None
        table = self._cache.load_hints(kind, self.fingerprint)
        if table is None:
            return None
        try:
            check_hint_table(self.program, table)
        except HintValidationError:
            self._cache.mark_corrupt(kind, self.fingerprint)
            return None
        return table

    def _store_hint_table(self, kind: str, table: HintTable) -> None:
        if self._cache is not None:
            self._cache.store_hints(kind, self.fingerprint, table)

    @property
    def diverge_hints(self) -> HintTable:
        """The DMP hint table (all qualifying CFM points per branch).

        Validated on build: a structurally-broken table (a selection bug,
        or a stale profile) raises
        :class:`~repro.errors.HintValidationError` here, before it can
        steer the fetch engine."""
        if self._diverge_hints is None:
            table = self._cached_hint_table(_HINT_KINDS["dmp"])
            if table is None:
                selections = self.selections
                t0 = time.perf_counter()
                table = build_hint_table(
                    selections, self.thresholds, multiple_cfm=True
                )
                check_hint_table(self.program, table)
                self._timed("profile", t0)
                self._store_hint_table(_HINT_KINDS["dmp"], table)
            self._diverge_hints = table
        return self._diverge_hints

    @property
    def hammock_hints(self) -> HintTable:
        """The DHP hint table: simple hammocks whose branches are actually
        hard to predict (same rate floor the DMP selection uses, so the
        DHP-vs-DMP comparison is apples-to-apples)."""
        if self._hammock_hints is None:
            table = self._cached_hint_table(_HINT_KINDS["dhp"])
            if table is None:
                profile = self.profile
                t0 = time.perf_counter()
                table = find_simple_hammocks(
                    self.program,
                    profile=profile,
                    min_misprediction_rate=self.thresholds.min_misprediction_rate,
                )
                check_hint_table(self.program, table)
                self._timed("profile", t0)
                self._store_hint_table(_HINT_KINDS["dhp"], table)
            self._hammock_hints = table
        return self._hammock_hints

    @property
    def wish_hints(self) -> HintTable:
        """The wish-branch table: if-convertible regions whose branches
        are hard to predict (same rate floor as the other machines)."""
        if self._wish_hints is None:
            table = self._cached_hint_table(_HINT_KINDS["wish"])
            if table is None:
                from repro.profiling.wish_selection import select_wish_branches

                profile = self.profile
                t0 = time.perf_counter()
                table, _ = select_wish_branches(
                    self.program,
                    profile=profile,
                    min_misprediction_rate=self.thresholds.min_misprediction_rate,
                )
                check_hint_table(self.program, table)
                self._timed("profile", t0)
                self._store_hint_table(_HINT_KINDS["wish"], table)
            self._wish_hints = table
        return self._wish_hints

    # -- simulation ---------------------------------------------------------

    def hints_for(self, config: MachineConfig) -> Optional[HintTable]:
        if config.mode == "dmp":
            return self.diverge_hints
        if config.mode == "dhp":
            return self.hammock_hints
        if config.mode == "wish":
            return self.wish_hints
        return None

    def _effective_config(self, config: MachineConfig) -> MachineConfig:
        """The configuration that will actually run, mirroring the
        paranoid-mode upgrade in :func:`repro.core.processors.simulate`
        — so memo/cache keys always describe the run they index."""
        if paranoid_enabled() and not (
            config.oracle_checks and config.watchdog
        ):
            return config.hardened()
        return config

    def sim_key(self, config: MachineConfig) -> str:
        """Canonical memo key for one simulation of this context."""
        return config_fingerprint(self._effective_config(config))

    def cached_stats(self, config: MachineConfig) -> Optional[SimStats]:
        """Already-known stats for ``config`` (in-memory memo first,
        then the on-disk cache), or ``None``.  Counts hits."""
        key = self.sim_key(config)
        stats = self._sim_cache.get(key)
        if stats is not None:
            self.sim_memo_hits += 1
            return stats
        if self._cache is not None:
            stats = self._cache.load_pickle("sim", f"{self.fingerprint}-{key}")
            if isinstance(stats, SimStats):
                self.sim_cache_hits += 1
                self._sim_cache[key] = stats
                return stats
        return None

    def store_stats(
        self, config: MachineConfig, stats: SimStats, persist: bool = True
    ) -> None:
        """Adopt externally-computed stats into the memo and, unless
        ``persist`` is false (a worker process has already written
        them), the on-disk cache."""
        key = self.sim_key(config)
        self._sim_cache[key] = stats
        if persist and self._cache is not None:
            self._cache.store_pickle("sim", f"{self.fingerprint}-{key}", stats)

    def _load_analysis(self) -> None:
        """Adopt persisted static-analysis tables (postdominators,
        reconvergence PCs) for this program, once per context.  Plans
        are rebuilt locally — they hold live object references."""
        if self._analysis_loaded:
            return
        self._analysis_loaded = True
        if self._cache is None:
            return
        tables = self._cache.load_pickle("analysis", self.fingerprint)
        if tables is not None:
            analysis = ProgramAnalysis.of(self.program)
            if analysis.adopt_tables(tables):
                analysis.mark_clean()

    def _store_analysis(self) -> None:
        """Persist analysis tables computed by the run just finished."""
        if self._cache is None:
            return
        analysis = ProgramAnalysis.of(self.program)
        if analysis.dirty:
            self._cache.store_pickle(
                "analysis", self.fingerprint, analysis.export_tables()
            )
            analysis.mark_clean()

    def simulate(self, config: MachineConfig, tracer=None) -> SimStats:
        """Simulate under one configuration (memoized: the same config is
        returned from cache, so figure drivers can share runs).

        The memo key is the canonical fingerprint of the *effective*
        configuration — two equal configs whose dict-valued fields merely
        differ in insertion order share one run, and every field
        participates in the key (``repr`` omissions cannot collide two
        different configs onto the same cached stats)."""
        if tracer is None:
            # A traced run cannot be satisfied from the memo/cache: the
            # event stream only exists if the simulator actually runs.
            stats = self.cached_stats(config)
            if stats is not None:
                return stats
        return self.simulate_uncached(config, tracer)

    def simulate_uncached(self, config: MachineConfig, tracer=None) -> SimStats:
        """Simulate without consulting the memo or the cache (the caller
        has already looked); the result is stored in both."""
        hints = self.hints_for(config)  # timed as "profile" if first use
        trace = self.trace  # likewise; kept out of the "simulate" window
        warm = self.workload.memory.warm_words()
        self._load_analysis()
        t0 = time.perf_counter()
        stats = simulate(
            self.program,
            trace,
            config,
            hints=hints,
            benchmark=self.name,
            warm_words=warm,
            tracer=tracer,
        )
        self._timed("simulate", t0)
        self.sims_run += 1
        self._store_analysis()
        self.store_stats(config, stats)
        return stats


#: The machine configurations of Figure 7 (basic DMP study).
def figure7_configs() -> Dict[str, MachineConfig]:
    return {
        "base": MachineConfig.baseline(),
        "DHP-jrs": MachineConfig.dhp(),
        "DHP-perf-conf": MachineConfig.dhp(confidence_kind="perfect"),
        "diverge-jrs": MachineConfig.dmp(),
        "diverge-perf-conf": MachineConfig.dmp(confidence_kind="perfect"),
        "dualpath": MachineConfig.dualpath(),
        "perfect-cbp": MachineConfig.baseline(predictor_kind="perfect"),
    }


#: The cumulative-enhancement configurations of Figure 9.
def figure9_configs() -> Dict[str, MachineConfig]:
    return {
        "base": MachineConfig.baseline(),
        "basic-diverge": MachineConfig.dmp(),
        "enhanced-mcfm": MachineConfig.dmp(multiple_cfm=True),
        "enhanced-mcfm-eexit": MachineConfig.dmp(
            multiple_cfm=True, early_exit=True
        ),
        "enhanced-mcfm-eexit-mdb": MachineConfig.dmp(enhanced=True),
    }


@dataclasses.dataclass
class SuiteTimings:
    """Per-stage wall-clock + cache accounting for one suite run, so
    speedups are measured rather than asserted (``repro suite
    --timings``).  Stage seconds are summed across pool workers when
    parallel, so together they can exceed ``wall_seconds``."""

    jobs: int = 1
    wall_seconds: float = 0.0
    build_seconds: float = 0.0
    #: The functional run that produces each benchmark's trace.
    trace_seconds: float = 0.0
    #: Profiling, diverge selection and hint tables.
    profile_seconds: float = 0.0
    #: Timing simulation.
    simulate_seconds: float = 0.0
    simulations_run: int = 0
    sim_memo_hits: int = 0
    sim_cache_hits: int = 0
    #: Cells that ran on the native kernel vs cells that fell back to
    #: the fast engine, the latter grouped by their ``run_batch``
    #: fallback reason string.
    batch_kernel_cells: int = 0
    batch_fallbacks: Dict[str, int] = dataclasses.field(
        default_factory=dict
    )
    cache: Optional[CacheCounters] = None

    def absorb(self, other: "SuiteTimings") -> None:
        """Add another ledger's stage seconds and counts (a worker's)."""
        self.build_seconds += other.build_seconds
        self.trace_seconds += other.trace_seconds
        self.profile_seconds += other.profile_seconds
        self.simulate_seconds += other.simulate_seconds
        self.simulations_run += other.simulations_run
        self.sim_memo_hits += other.sim_memo_hits
        self.sim_cache_hits += other.sim_cache_hits
        self.batch_kernel_cells += other.batch_kernel_cells
        for reason, count in other.batch_fallbacks.items():
            self.batch_fallbacks[reason] = (
                self.batch_fallbacks.get(reason, 0) + count
            )

    def report(self) -> str:
        lines = [
            f"timings (jobs={self.jobs}): wall={self.wall_seconds:.2f}s",
            f"  build={self.build_seconds:.2f}s  "
            f"trace={self.trace_seconds:.2f}s  "
            f"profile={self.profile_seconds:.2f}s  "
            f"simulate={self.simulate_seconds:.2f}s (aggregate)",
            f"  simulations: {self.simulations_run} run, "
            f"{self.sim_memo_hits} memo hit(s), "
            f"{self.sim_cache_hits} disk hit(s)",
        ]
        fell = sum(self.batch_fallbacks.values())
        if self.batch_kernel_cells or fell:
            lines.append(
                f"  batch: {self.batch_kernel_cells} cell(s) on the "
                f"native kernel, {fell} fast-engine fallback(s)"
            )
            for reason, count in sorted(
                self.batch_fallbacks.items(), key=lambda kv: (-kv[1], kv[0])
            ):
                lines.append(f"    {count:4d}  {reason}")
        if self.cache is not None:
            lines.append("  " + self.cache.summary().replace("\n", "\n  "))
        return "\n".join(lines)


class SuiteResult:
    """Results of sweeping configurations over benchmarks.

    Two results compare equal iff they carry identical stats for
    identical ``(benchmark, config)`` cells — the property the parallel
    and cached execution paths are tested against.  ``timings`` (when a
    suite runner attached one) is diagnostic and excluded from
    equality."""

    def __init__(self) -> None:
        #: ``{benchmark: {config_label: SimStats}}``
        self.results: Dict[str, Dict[str, SimStats]] = {}
        #: Filled in by :func:`run_suite`.
        self.timings: Optional[SuiteTimings] = None

    def add(self, benchmark: str, label: str, stats: SimStats) -> None:
        self.results.setdefault(benchmark, {})[label] = stats

    def __eq__(self, other) -> bool:
        if not isinstance(other, SuiteResult):
            return NotImplemented
        return self.results == other.results

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    @property
    def benchmarks(self) -> List[str]:
        return list(self.results)

    def stats(self, benchmark: str, label: str) -> SimStats:
        return self.results[benchmark][label]

    def ipc_improvements(self, label: str, base: str = "base") -> Dict[str, float]:
        """Per-benchmark % IPC improvement of ``label`` over ``base``.

        A degenerate run (zero baseline IPC — an empty trace or a
        zero-cycle simulation) raises :class:`~repro.errors.ReproError`
        rather than dividing by zero."""
        out = {}
        for benchmark, per_config in self.results.items():
            base_ipc = per_config[base].ipc
            if base_ipc == 0:
                raise ReproError(
                    f"benchmark {benchmark!r}: base config {base!r} has "
                    "zero IPC (degenerate run); cannot compute improvement"
                )
            out[benchmark] = 100.0 * (per_config[label].ipc / base_ipc - 1.0)
        return out

    def mean_improvement(self, label: str, base: str = "base") -> float:
        values = list(self.ipc_improvements(label, base).values())
        return sum(values) / len(values) if values else 0.0


def _context_snapshot(context: BenchmarkContext) -> Tuple:
    return (
        dict(context.stage_seconds),
        context.sims_run,
        context.sim_memo_hits,
        context.sim_cache_hits,
    )


def _accumulate_deltas(
    timings: SuiteTimings,
    contexts: List[BenchmarkContext],
    before: List[Tuple],
) -> None:
    for context, (stages, sims, memo, disk) in zip(contexts, before):
        timings.build_seconds += context.stage_seconds["build"] - stages["build"]
        timings.trace_seconds += context.stage_seconds["trace"] - stages["trace"]
        timings.profile_seconds += (
            context.stage_seconds["profile"] - stages["profile"]
        )
        timings.simulate_seconds += (
            context.stage_seconds["simulate"] - stages["simulate"]
        )
        timings.simulations_run += context.sims_run - sims
        timings.sim_memo_hits += context.sim_memo_hits - memo
        timings.sim_cache_hits += context.sim_cache_hits - disk


def _cell_tracer(context: BenchmarkContext, label: str, trace_dir):
    """A JSONL tracer for one suite cell, or ``None`` when untraced."""
    if trace_dir is None:
        return None
    from repro.obs.events import JsonlTracer
    from repro.obs.runtime import trace_path

    return JsonlTracer(
        trace_path(trace_dir, context.name, label),
        meta={
            "benchmark": context.name,
            "config": label,
            "iterations": context.iterations,
            "seed": context.seed,
        },
    )


def _resolve_cells(
    context: BenchmarkContext, configs: Dict[str, MachineConfig], trace_dir
) -> Tuple[Dict[str, SimStats], Dict[str, MachineConfig]]:
    """Split one benchmark's cells into the stats the memo or the disk
    cache already holds and the cells still to simulate (all of them
    when traced: the event stream only exists if a simulator runs)."""
    done: Dict[str, SimStats] = {}
    pending: Dict[str, MachineConfig] = {}
    for label, config in configs.items():
        stats = None if trace_dir is not None else context.cached_stats(config)
        if stats is not None:
            done[label] = stats
        else:
            pending[label] = config
    return done, pending


def _simulate_pending(
    context: BenchmarkContext,
    pending: Dict[str, MachineConfig],
    trace_dir,
    timings: SuiteTimings,
) -> Dict[str, SimStats]:
    """Simulate the cells :func:`_resolve_cells` left, in this process.

    The untraced ``engine="fast"``/``"batch"`` cells go to one
    :func:`repro.uarch.batch.run_batch` call, so the benchmark's arenas
    are built once for all its configs and freed when it returns.  Each
    cell runs on the native kernel, or on the fast engine inside
    ``run_batch`` when it is outside the kernel's envelope (hardened or
    ``--paranoid`` runs, for one) — bit-identical either way.  Traced
    cells (the event stream needs a live Python simulator) and
    ``engine="reference"`` cells go through the context's simulator.
    Labels whose effective configs are equal share one simulation; the
    repeats count as memo hits.
    """
    from repro.uarch import batch

    done: Dict[str, SimStats] = {}
    #: Simulation key -> the labels sharing it, first one simulated.
    shared: Dict[str, List[str]] = {}
    cells: List = []
    batched: List[Tuple[str, MachineConfig]] = []
    warm = None
    for label, config in pending.items():
        if trace_dir is not None:
            tracer = _cell_tracer(context, label, trace_dir)
            try:
                done[label] = context.simulate_uncached(config, tracer)
            finally:
                tracer.close()
            continue
        key = context.sim_key(config)
        if key in shared:
            shared[key].append(label)
            continue
        shared[key] = [label]
        if config.engine == "reference":
            done[label] = context.simulate_uncached(config)
            continue
        hints = context.hints_for(config)
        trace = context.trace
        if warm is None:
            warm = context.workload.memory.warm_words()
        context._load_analysis()
        cells.append(batch.BatchCell(
            context.program, trace, config.replace(engine="batch"),
            hints=hints, benchmark=context.name, warm_words=warm,
        ))
        batched.append((label, config))
    if cells:
        reasons: Dict[str, int] = {}
        t0 = time.perf_counter()
        # Looked up at call time: the benchmark's traced run patches
        # repro.uarch.batch.run_batch.
        stats_list = batch.run_batch(cells, fallback_reasons=reasons)
        context.stage_seconds["simulate"] += time.perf_counter() - t0
        context.sims_run += len(cells)
        context._store_analysis()
        timings.batch_kernel_cells += len(cells) - sum(reasons.values())
        for reason, count in reasons.items():
            timings.batch_fallbacks[reason] = (
                timings.batch_fallbacks.get(reason, 0) + count
            )
        for (label, config), stats in zip(batched, stats_list):
            context.store_stats(config, stats)
            done[label] = stats
    for first, *repeats in shared.values():
        for label in repeats:
            done[label] = done[first]
            context.sim_memo_hits += 1
    return done


def _print_cells(context: BenchmarkContext, cells: Dict[str, SimStats]) -> None:
    for label, stats in cells.items():
        print(
            f"  {context.name:8s} {label:24s} IPC={stats.ipc:.3f} "
            f"flushes={stats.pipeline_flushes}"
        )


def _execute_serial(
    run_contexts, configs, *, jobs, verbose, trace_dir, result, timings
) -> None:
    """In process, one benchmark at a time: memoized and disk-cached
    cells are served without simulating, the rest go through
    :func:`_simulate_pending`."""
    before = [_context_snapshot(context) for context in run_contexts]
    for context in run_contexts:
        done, pending = _resolve_cells(context, configs, trace_dir)
        fresh = _simulate_pending(context, pending, trace_dir, timings)
        if verbose:
            _print_cells(context, fresh)
        done.update(fresh)
        for label in configs:
            result.add(context.name, label, done[label])
    _accumulate_deltas(timings, run_contexts, before)


def _execute_pool(
    run_contexts, configs, *, jobs, verbose, trace_dir, result, timings
) -> None:
    """Fan whole benchmarks out over a process pool: each worker runs
    one benchmark's front end and pending cells as the serial executor
    would (repro.harness.parallel)."""
    from repro.harness.parallel import run_benchmarks_parallel

    before = [_context_snapshot(context) for context in run_contexts]
    resolved = [
        _resolve_cells(context, configs, trace_dir)
        for context in run_contexts
    ]
    fresh = run_benchmarks_parallel(
        [
            (context, pending)
            for context, (_, pending) in zip(run_contexts, resolved)
            if pending
        ],
        jobs=max(jobs, 2), trace_dir=trace_dir, timings=timings,
    )
    _accumulate_deltas(timings, run_contexts, before)
    for context, (done, pending) in zip(run_contexts, resolved):
        cells = fresh.get(context.name, {})
        for label, stats in cells.items():
            context.store_stats(pending[label], stats, persist=False)
        if verbose:
            _print_cells(context, cells)
        done.update(cells)
        for label in configs:
            result.add(context.name, label, done[label])


#: Pluggable suite executors: how the (benchmark, config) cells of one
#: suite run are simulated.  Both produce bit-identical results;
#: tests/harness/test_parallel_cache.py and tests/core/test_engine_batch.py
#: hold them to it.
SUITE_EXECUTORS = {
    "serial": _execute_serial,
    "pool": _execute_pool,
}


def _resolve_executor(executor: Optional[str], jobs: int) -> str:
    if executor is not None:
        if executor not in SUITE_EXECUTORS:
            raise ReproError(
                f"unknown executor {executor!r}; expected one of "
                f"{sorted(SUITE_EXECUTORS)}"
            )
        return executor
    return "pool" if jobs > 1 else "serial"


def run_suite(
    configs: Dict[str, MachineConfig],
    benchmarks: Iterable[str] = BENCHMARK_NAMES,
    iterations: Optional[int] = None,
    seed: int = 0,
    contexts: Optional[Dict[str, BenchmarkContext]] = None,
    verbose: bool = False,
    jobs: int = 1,
    cache: Union[None, str, ArtifactCache] = None,
    trace_dir: Optional[str] = None,
    executor: Optional[str] = None,
) -> SuiteResult:
    """Run every configuration over every benchmark.

    Pass ``contexts`` to reuse already-built benchmark artifacts across
    several figures (the per-figure drivers all accept the same dict); a
    reused context whose ``iterations``/``seed`` do not match this call
    raises :class:`~repro.errors.ReproError` instead of silently
    returning stats for different parameters.

    The cells are dispatched through a pluggable *executor*
    (``SUITE_EXECUTORS``).  Both serve memoized and disk-cached cells
    without simulating and run the rest of a benchmark the same way:
    its ``engine="fast"``/``"batch"`` cells in one
    :func:`repro.uarch.batch.run_batch` call — each on the native
    kernel, or on the fast engine when outside the kernel's envelope —
    and its ``engine="reference"`` and traced cells through the
    context's simulator.  ``"serial"`` does so in process, one
    benchmark at a time; ``"pool"`` hands each benchmark, front end
    included, to a worker process.  When ``executor`` is not given it
    is ``"pool"`` for ``jobs > 1``, else ``"serial"``.  Both executors
    return bit-identical results; ``result.timings`` counts the kernel
    cells and the fallbacks (by reason).

    ``cache`` (an :class:`ArtifactCache` or directory path) persists
    artifacts and stats across invocations.

    ``trace_dir`` (or the process-wide toggle set by
    :func:`repro.obs.runtime.set_trace_dir` — the CLI's ``--trace``
    flags) writes one JSONL event trace per ``(benchmark, config)``
    cell into the directory; traced cells always simulate (never come
    from memo or cache) and produce the same stats as untraced ones.
    """
    if jobs < 1:
        raise ReproError(f"jobs must be >= 1, got {jobs}")
    if trace_dir is None:
        from repro.obs.runtime import active_trace_dir

        trace_dir = active_trace_dir()
    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    cache = ArtifactCache.resolve(cache)
    benchmarks = list(benchmarks)
    result = SuiteResult()
    wall_start = time.perf_counter()

    run_contexts: List[BenchmarkContext] = []
    for name in benchmarks:
        if contexts is not None:
            context = contexts.get(name)
            if context is None:
                context = BenchmarkContext(name, iterations, seed, cache=cache)
                contexts[name] = context
            else:
                context.check_compatible(iterations, seed)
                context.attach_cache(cache)
        else:
            context = BenchmarkContext(name, iterations, seed, cache=cache)
        run_contexts.append(context)

    timings = SuiteTimings(jobs=jobs)

    execute = SUITE_EXECUTORS[_resolve_executor(executor, jobs)]
    execute(
        run_contexts, configs, jobs=jobs, verbose=verbose,
        trace_dir=trace_dir, result=result, timings=timings,
    )

    timings.wall_seconds = time.perf_counter() - wall_start
    timings.cache = cache.counters if cache is not None else None
    result.timings = timings
    return result


class MultiSeedResult:
    """Per-seed suite results with mean/spread summaries.

    Synthetic workloads are seeded; a conclusion that flips sign across
    seeds is noise.  ``improvement_stats`` reports mean and spread of the
    % IPC improvement so benches can assert *sign stability* rather than
    point values.
    """

    def __init__(self) -> None:
        #: ``{seed: SuiteResult}``
        self.by_seed: Dict[int, SuiteResult] = {}

    def add(self, seed: int, result: SuiteResult) -> None:
        self.by_seed[seed] = result

    def improvement_stats(
        self, benchmark: str, label: str, base: str = "base"
    ) -> Tuple[float, float, float]:
        """(mean, min, max) % IPC improvement across seeds."""
        values = [
            result.ipc_improvements(label, base)[benchmark]
            for result in self.by_seed.values()
        ]
        return (sum(values) / len(values), min(values), max(values))

    def sign_stable(
        self,
        benchmark: str,
        label: str,
        base: str = "base",
        tolerance: float = 1.0,
    ) -> bool:
        """True when the improvement has the same sign for every seed
        (values within ±tolerance count as zero)."""
        _, lo, hi = self.improvement_stats(benchmark, label, base)
        return lo >= -tolerance or hi <= tolerance


def run_multi_seed(
    configs: Dict[str, MachineConfig],
    benchmarks: Iterable[str],
    seeds: Iterable[int],
    iterations: Optional[int] = None,
    jobs: int = 1,
    cache: Union[None, str, ArtifactCache] = None,
    executor: Optional[str] = None,
) -> MultiSeedResult:
    """Run the suite once per seed (each seed regenerates every data
    array, so traces and profiles differ while CFG shapes stay fixed).
    ``jobs``/``cache``/``executor`` are forwarded to each per-seed
    :func:`run_suite`."""
    out = MultiSeedResult()
    benchmarks = list(benchmarks)
    for seed in seeds:
        out.add(
            seed,
            run_suite(
                configs,
                benchmarks,
                iterations=iterations,
                seed=seed,
                jobs=jobs,
                cache=cache,
                executor=executor,
            ),
        )
    return out
