"""Process-pool fan-out of whole benchmarks.

On the native kernel a benchmark's timing simulations cost less than
its machine-independent front end (workload build, functional trace,
profiling, hint tables), so the unit of parallel work is one benchmark,
not one ``(benchmark, config)`` cell.  :func:`run_benchmarks_parallel`
therefore:

1. takes the cells the parent could not serve from its memo or the
   persistent cache, grouped by benchmark;
2. ships each benchmark's context with its pending cells to one worker
   as the task itself (pickled, so it works under ``fork``,
   ``forkserver`` and ``spawn`` start methods alike);
3. lets the worker build or cache-load the front end and simulate the
   cells exactly as the serial executor does — one
   :func:`repro.uarch.batch.run_batch` call for the untraced
   ``fast``/``batch`` cells, the context's simulator for traced and
   ``engine="reference"`` cells — writing new artifacts and stats to
   the shared cache directory when one is attached;
4. returns the fresh stats and the worker's stage, kernel and cache
   accounting, which the parent merges.  The caller adds results in its
   ``benchmarks x configs`` order, never completion order.

The parent's contexts receive the fresh stats (memo), not the worker's
artifacts: a later run over the same contexts loads those from the
cache, or rebuilds them in its own workers.  Workers inherit the
process-wide paranoid flag, so the oracle cross-checker and watchdog
stay armed inside the pool exactly as they would serially; simulation
is deterministic, so a parallel run is bit-identical to a serial one
(asserted by the test suite).
"""

from __future__ import annotations

import multiprocessing
from typing import Dict, List, Optional, Tuple

from repro.errors import ReproError
from repro.uarch.config import MachineConfig
from repro.uarch.stats import SimStats
from repro.validation.runtime import paranoid_enabled, set_paranoid


def _init_worker(paranoid_flag: bool) -> None:
    set_paranoid(paranoid_flag)


def _run_benchmark(task):
    """One benchmark's pending cells inside a worker; returns the fresh
    stats with the worker's accounting."""
    from repro.harness.cache import ArtifactCache
    from repro.harness.experiment import (
        SuiteTimings,
        _accumulate_deltas,
        _context_snapshot,
        _simulate_pending,
    )

    context, pending, trace_dir, cache_root = task
    if cache_root is not None:
        context.attach_cache(ArtifactCache(cache_root))
    timings = SuiteTimings()
    before = _context_snapshot(context)
    fresh = _simulate_pending(context, pending, trace_dir, timings)
    _accumulate_deltas(timings, [context], [before])
    counters = context.cache.counters if context.cache is not None else None
    return context.name, fresh, timings, counters


def run_benchmarks_parallel(
    work: List[Tuple["BenchmarkContext", Dict[str, MachineConfig]]],
    jobs: int,
    trace_dir: Optional[str],
    timings: "SuiteTimings",
) -> Dict[str, Dict[str, SimStats]]:
    """Simulate each ``(context, pending cells)`` pair of ``work`` in a
    ``multiprocessing`` pool of up to ``jobs`` workers, one benchmark
    per task.

    Returns ``{benchmark: {label: stats}}``.  The workers' stage
    seconds, simulation counts and kernel/fallback counts are added to
    ``timings`` (aggregated, so stage seconds can exceed the wall
    clock); their cache counters are added to each context's cache."""
    by_name = {context.name: context for context, _ in work}
    if len(by_name) != len(work):
        raise ReproError("duplicate benchmark contexts in parallel run")
    out: Dict[str, Dict[str, SimStats]] = {}
    if not work:
        return out
    tasks = [
        (
            context, pending, trace_dir,
            str(context.cache.root) if context.cache is not None else None,
        )
        for context, pending in work
    ]
    with multiprocessing.Pool(
        processes=min(jobs, len(tasks)),
        initializer=_init_worker,
        initargs=(paranoid_enabled(),),
    ) as pool:
        for name, fresh, worker_timings, counters in pool.imap_unordered(
            _run_benchmark, tasks, chunksize=1
        ):
            out[name] = fresh
            timings.absorb(worker_timings)
            cache = by_name[name].cache
            if counters is not None and cache is not None:
                cache.counters.absorb(counters)
    return out
