"""Metric tables, their arithmetic and the human-readable report.

Every number is labelled with what it measures: ``host`` numbers are
seconds, memory or throughput of the simulator on the machine running
it (end-to-end times in reference-speed seconds, per-layer times in
plain host seconds); ``simulated`` numbers are results of the modelled
processor (its cycles, IPC and event counts), which repeat exactly for
a given seed.
"""

from __future__ import annotations

from statistics import median
from typing import Dict, List, Sequence, Tuple

from metrics import (
    check_name,
    check_unit,
    flush_reduction_pct,
    mean_ipc_gain_pct,
    residual,
)

#: ``(name, unit, kind)`` of every end-to-end metric (``--trace 0``).
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("wall_s", "s", "host"),
    ("setup_s", "s", "host"),
    ("sim_kips", "kinst/s", "host"),
    ("peak_rss_mb", "MB", "host"),
)

#: The two headline simulated results, printed on every run beside the
#: paper; carried with the per-layer metrics (no bound) because on
#: ``fuzz`` they swing with the programs a seed draws.
SIMULATED = (
    ("ipc_gain_dmp_pct", "%", "simulated"),
    ("flush_reduction_pct", "%", "simulated"),
)

#: ``(name, unit, kind)`` of every per-layer metric (``--trace 1``).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("workloads.build_s", "s", "host"),
    ("program.trace_s", "s", "host"),
    ("program.trace_insts", "count", "host"),
    ("program.trace_kips", "kinst/s", "host"),
    ("profiling.profile_s", "s", "host"),
    ("profiling.select_s", "s", "host"),
    ("profiling.diverge_branches", "count", "host"),
    ("cfg.analysis_s", "s", "host"),
    ("core.fast_s", "s", "host"),
    ("core.fast_kips", "kinst/s", "host"),
    ("core.fast_ns_per_fetch", "ns", "host"),
    ("core.reference_s", "s", "host"),
    ("core.reference_kips", "kinst/s", "host"),
    ("uarch.batch_s", "s", "host"),
    ("uarch.batch_kips", "kinst/s", "host"),
    ("uarch.batch.step_loop_s", "s", "host"),
    ("uarch.batch.episode_tails_s", "s", "host"),
    ("uarch.batch.arena_build_s", "s", "host"),
    ("uarch.batch.scalar_walks_s", "s", "host"),
    ("uarch.batch.scalar_fallback_s", "s", "host"),
    ("uarch.batch.vector_share", "ratio", "host"),
    ("uarch.batch.gang_share", "ratio", "host"),
    ("harness.residual_s", "s", "host"),
    ("harness.timings_overcount_s", "s", "host"),
    ("bench.traced_wall_s", "s", "host"),
    ("bench.trace_overhead_s", "s", "host"),
    ("bench.front_end_share", "ratio", "host"),
    SIMULATED[0],
    SIMULATED[1],
    ("uarch.cycles", "count", "simulated"),
    ("uarch.pipeline_flushes", "count", "simulated"),
    ("uarch.fetched_wrong", "count", "simulated"),
    ("branch.mispredictions", "count", "simulated"),
    ("core.dpred_entries", "count", "simulated"),
    ("core.select_uops", "count", "simulated"),
    ("core.mpp_merge_accuracy", "ratio", "simulated"),
    ("validation.oracle_checks", "count", "simulated"),
)

# A name or unit outside the result grammar fails here, before any run.
for _name, _unit, _kind in END_TO_END + PER_LAYER:
    check_name(_name)
    check_unit(_unit)

#: Paper figure, published value and the repo's committed 1500-iteration
#: value (EXPERIMENTS.md) for each headline simulated metric.
PAPER = {
    "ipc_gain_dmp_pct": ("Fig 9", 10.8, 10.19),
    "flush_reduction_pct": ("Fig 11", 31.0, 29.4),
}

#: The layer spans whose self times the per-layer table reports.
LAYER_SPANS = (
    "workloads.build_s", "program.trace_s", "profiling.profile_s",
    "profiling.select_s", "cfg.analysis_s", "core.fast_s",
    "core.reference_s", "uarch.batch_s",
)

#: ``run_batch(profile=...)`` keys, reported as ``uarch.batch.<key>_s``.
BATCH_PHASES = (
    "step_loop", "episode_tails", "arena_build", "scalar_walks",
    "scalar_fallback",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def end_to_end(done, wall_s: float, setup_s: float,
               peak_rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of one workload from its first round."""
    insts = sum(s.retired_instructions for s in done.cells.values())
    return {
        "wall_s": wall_s,
        "setup_s": setup_s,
        "sim_kips": insts / wall_s / 1000.0,
        "peak_rss_mb": peak_rss_mb,
    }


def simulated(done) -> Dict[str, float]:
    """The headline simulated results of a round (exact for a seed)."""
    return {
        "ipc_gain_dmp_pct": mean_ipc_gain_pct(done.pairs),
        "flush_reduction_pct": flush_reduction_pct(done.pairs),
    }


def simulated_components(cells) -> Dict[str, float]:
    """Deterministic event counts summed over every cell's SimStats."""
    cells = list(cells)

    def total(field: str) -> int:
        return sum(getattr(s, field) for s in cells)

    hits, misses = total("mpp_merge_hits"), total("mpp_merge_misses")
    return {
        "uarch.cycles": total("cycles"),
        "uarch.pipeline_flushes": total("pipeline_flushes"),
        "uarch.fetched_wrong": (
            total("fetched_wrong_cd") + total("fetched_wrong_ci")
        ),
        "branch.mispredictions": total("mispredictions"),
        "core.dpred_entries": total("dpred_entries"),
        "core.select_uops": total("select_uops"),
        "core.mpp_merge_accuracy": _ratio(hits, hits + misses),
        "validation.oracle_checks": total("oracle_checks"),
    }


def timings_overcount(timings) -> float:
    """``build + profile + simulate - wall`` from ``run_suite``'s own
    :class:`SuiteTimings`: above 0 when its stages count time twice."""
    return (
        timings.build_seconds + timings.profile_seconds
        + timings.simulate_seconds - timings.wall_seconds
    )


def median_traced(traced: Sequence):
    """The ``(seconds, tracer, round)`` of the traced round of median
    length."""
    ordered = sorted(traced, key=lambda item: item[0])
    return ordered[(len(ordered) - 1) // 2]


def per_layer(traced: Sequence, untraced: Sequence[float],
              rounds: Sequence) -> Dict[str, float]:
    """Per-layer metrics from the traced round of median length.

    ``traced`` holds ``(seconds, tracer, round)`` per traced round; the
    untraced rounds (input generation plus wall seconds, and their
    results) give the tracing overhead and ``run_suite``'s stage
    ledger."""
    traced_s, tracer, done = median_traced(traced)
    spans = tracer.layer_seconds()
    unknown = set(spans) - set(LAYER_SPANS)
    if unknown:
        raise RuntimeError(f"unexpected layer spans {sorted(unknown)}")
    out: Dict[str, float] = {name: spans.get(name, 0.0)
                             for name in LAYER_SPANS}
    counts = tracer.counts
    out["program.trace_insts"] = counts["program.trace_insts"]
    out["program.trace_kips"] = _ratio(
        counts["program.trace_insts"], 1000.0 * out["program.trace_s"])
    out["profiling.diverge_branches"] = counts["profiling.diverge_branches"]
    out["core.fast_kips"] = _ratio(
        counts["core.fast_insts"], 1000.0 * out["core.fast_s"])
    out["core.fast_ns_per_fetch"] = _ratio(
        1e9 * out["core.fast_s"], counts["core.fast_fetches"])
    out["core.reference_kips"] = _ratio(
        counts["core.reference_insts"], 1000.0 * out["core.reference_s"])
    out["uarch.batch_kips"] = _ratio(
        counts["uarch.batch_insts"], 1000.0 * out["uarch.batch_s"])
    for phase in BATCH_PHASES:
        out[f"uarch.batch.{phase}_s"] = tracer.batch_profile.get(phase, 0.0)
    cells = counts["uarch.batch_cells"]
    out["uarch.batch.vector_share"] = _ratio(
        cells - counts["uarch.batch_fallbacks"], cells)
    gang = tracer.gang_stats
    out["uarch.batch.gang_share"] = _ratio(
        gang.get("ganged_lanes", 0),
        gang.get("ganged_lanes", 0) + gang.get("singleton_lanes", 0))
    out["harness.residual_s"] = residual(traced_s, spans)
    ledgers = [r.timings for r in rounds if r.timings is not None]
    out["harness.timings_overcount_s"] = (
        median([timings_overcount(t) for t in ledgers]) if ledgers else 0.0
    )
    out["bench.traced_wall_s"] = traced_s
    out["bench.trace_overhead_s"] = (
        median([t[0] for t in traced]) - median(untraced)
    )
    out["bench.front_end_share"] = _ratio(
        out["program.trace_s"] + out["profiling.profile_s"]
        + out["profiling.select_s"], traced_s)
    out.update(simulated(done))
    out.update(simulated_components(done.cells.values()))
    return out


# -- printing -------------------------------------------------------------------


def _fmt(values: Sequence[float]) -> str:
    return "[" + ", ".join(f"{v:.3f}" for v in values) + "]"


def print_header(args, raw_walls: List[float], slowdowns: List[float],
                 gens: List[float], import_s: float, digest: str,
                 deterministic: bool, first, failed: int) -> None:
    print(f"perfbench {args.workload}: seed={args.seed} "
          f"rounds={len(raw_walls)} trace={args.trace} (one caller, jobs=1)")
    print(f"  round wall, host s {_fmt(raw_walls)}; host slowdown against "
          f"the reference speed {_fmt(slowdowns)}")
    print(f"  reference-speed s: input generations {_fmt(gens)}; "
          f"imports {import_s:.3f}")
    print(f"  cells            {first.attempted:>12d} count      "
          "simulations attempted per round")
    print(f"  cells_failed     {failed:>12d} count      "
          "raised, hung, disagreed with the reference engine, or fuzz "
          "findings")
    print(f"  SimStats digest  {digest} "
          f"({'identical in every round' if deterministic else 'DIFFERS between rounds'})")


def print_spans(tracer) -> None:
    """The recorded spans, per layer: calls and self time."""
    calls: Dict[str, int] = {}
    for span in tracer.spans:
        calls[span.layer] = calls.get(span.layer, 0) + 1
    seconds = tracer.layer_seconds()
    for layer in LAYER_SPANS:
        if layer in calls:
            print(f"  spans {layer:26s} {calls[layer]:>9d} calls "
                  f"{seconds[layer]:>10.4f} s self")


def print_metrics(values: Dict[str, float], table) -> None:
    for name, unit, kind in table:
        print(f"  {name:32s} {values[name]:>14.4f} {unit:8s} {kind}")


def print_simulated(values: Dict[str, float], workload) -> None:
    print_metrics(values, SIMULATED)
    if workload.name == "fuzz":
        print("  simulated metrics on fuzz: dmp (enhanced) over baseline on "
              "generated programs, reference engine; not comparable with "
              "the paper")
        return
    for name, (figure, published, committed) in PAPER.items():
        print(f"  {name}: {values[name]:.2f} here; paper {figure} "
              f"{published:.1f}; repo at 1500 iterations "
              f"{committed:.2f} (EXPERIMENTS.md)")
    print(f"  caveats: the timing model is not validated against hardware; "
          f"this run uses {workload.iterations} iterations per benchmark, "
          "not 1500; L1 caches and predictors start empty while the L2 is "
          "pre-warmed with warm_words")
