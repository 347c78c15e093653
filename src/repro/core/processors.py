"""User-facing processor constructors and the one-call ``simulate`` API.

Typical use::

    from repro.core import simulate
    from repro.uarch.config import MachineConfig

    stats = simulate(program, trace, MachineConfig.dmp(enhanced=True), hints)

or, going through the profiling pipeline end-to-end, use
:func:`repro.harness.experiment.run_benchmark`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.dpred import PredicationAwareSimulator
from repro.isa.encoding import HintTable
from repro.program.program import Program
from repro.program.trace import Trace
from repro.uarch.config import MachineConfig
from repro.uarch.stats import SimStats
from repro.uarch.timing import TimingSimulator
from repro.validation.runtime import paranoid_enabled


def baseline_processor(
    program: Program, trace: Trace, config: Optional[MachineConfig] = None,
    benchmark: str = "",
) -> TimingSimulator:
    """The Table 2 baseline: branch prediction only."""
    config = (config or MachineConfig()).replace(mode="baseline")
    return TimingSimulator(program, trace, config, benchmark=benchmark)


def diverge_merge_processor(
    program: Program,
    trace: Trace,
    hints: HintTable,
    config: Optional[MachineConfig] = None,
    enhanced: bool = False,
    benchmark: str = "",
) -> PredicationAwareSimulator:
    """A diverge-merge processor driven by compiler hints.

    ``enhanced`` turns on all three Section 2.7 mechanisms (multiple CFM
    points, early exit, multiple diverge branches), matching the
    ``enhanced-mcfm-eexit-mdb`` configuration of Figure 9.
    """
    if config is None:
        config = MachineConfig.dmp(enhanced=enhanced)
    else:
        overrides = {"mode": "dmp"}
        if enhanced:
            overrides.update(
                multiple_cfm=True, early_exit=True, multiple_diverge=True
            )
        config = config.replace(**overrides)
    return PredicationAwareSimulator(
        program, trace, config, hints=hints, benchmark=benchmark
    )


def dynamic_hammock_processor(
    program: Program,
    trace: Trace,
    hammock_hints: HintTable,
    config: Optional[MachineConfig] = None,
    benchmark: str = "",
) -> PredicationAwareSimulator:
    """Dynamic Hammock Predication (Klauser et al.): the same dynamic
    predication engine, restricted to simple-hammock hints (no complex
    control flow, no enhancements)."""
    base = config or MachineConfig()
    config = base.replace(
        mode="dhp",
        multiple_cfm=False,
        early_exit=False,
        multiple_diverge=False,
    )
    return PredicationAwareSimulator(
        program, trace, config, hints=hammock_hints, benchmark=benchmark
    )


def wish_branch_processor(
    program: Program,
    trace: Trace,
    wish_hints: HintTable,
    config: Optional[MachineConfig] = None,
    benchmark: str = "",
) -> PredicationAwareSimulator:
    """A wish-branch machine (Kim et al., the Section 5.2 comparison):
    compile-time if-converted regions, run-time predicate-or-predict
    choice.  Build ``wish_hints`` with
    :func:`repro.profiling.wish_selection.select_wish_branches`."""
    config = (config or MachineConfig()).replace(mode="wish")
    return PredicationAwareSimulator(
        program, trace, config, hints=wish_hints, benchmark=benchmark
    )


def merge_point_processor(
    program: Program, trace: Trace, config: Optional[MachineConfig] = None,
    benchmark: str = "",
) -> PredicationAwareSimulator:
    """A hint-free diverge-merge processor (mode ``"mpp"``): CFM points
    are learned at run time by the dynamic merge-point predictor, so no
    hint table — and no profiling pass — is involved.  See
    docs/merge_point_prediction.md."""
    config = (config or MachineConfig()).replace(mode="mpp")
    return PredicationAwareSimulator(
        program, trace, config, benchmark=benchmark
    )


def dual_path_processor(
    program: Program, trace: Trace, config: Optional[MachineConfig] = None,
    benchmark: str = "",
) -> TimingSimulator:
    """Selective dual-path execution (Heil & Smith)."""
    config = (config or MachineConfig()).replace(mode="dualpath")
    return TimingSimulator(program, trace, config, benchmark=benchmark)


def simulate(
    program: Program,
    trace: Trace,
    config: Optional[MachineConfig] = None,
    hints: Optional[HintTable] = None,
    benchmark: str = "",
    warm_words=None,
    tracer=None,
) -> SimStats:
    """Run one benchmark trace through one machine configuration.

    Dispatches on ``config.mode``: predicating modes get the
    :class:`PredicationAwareSimulator`, everything else the base model.

    Under process-wide paranoid mode (the CLI's ``--paranoid`` flag, or
    :func:`repro.validation.runtime.set_paranoid`) every run is upgraded
    to carry the oracle cross-checker and the watchdog; this only adds
    checking and never changes timing results.

    ``tracer`` (a :class:`repro.obs.events.Tracer`, duck-typed) turns on
    structured event tracing for this run; it receives episode-level
    events and the final stats, and never changes timing results either
    (docs/observability.md).
    """
    config = config or MachineConfig()
    if paranoid_enabled() and not (config.oracle_checks and config.watchdog):
        config = config.hardened()
    if config.engine == "batch":
        # Batch-of-one through the native kernel; cells outside its
        # envelope (enhanced predicating modes, hardened runs, tracers,
        # exotic structure sizes) fall back to the fast engine inside
        # run_batch, so this route accepts every configuration.
        from repro.uarch.batch import BatchCell, run_batch

        return run_batch([
            BatchCell(
                program=program, trace=trace, config=config, hints=hints,
                benchmark=benchmark, warm_words=warm_words, tracer=tracer,
            )
        ])[0]
    if config.mode == "mpp":
        # Hint-free DMP: the simulator builds its own learned hint table
        # (repro.core.mergepoint); a compiler table here would be a
        # caller mixing up modes, so fail loudly instead of ignoring it.
        if hints is not None:
            raise ValueError(
                "mode 'mpp' learns merge points at run time; "
                "do not pass a hint table"
            )
        simulator = PredicationAwareSimulator(
            program, trace, config, benchmark=benchmark,
            warm_words=warm_words, tracer=tracer,
        )
    elif config.is_predicating:
        if hints is None:
            raise ValueError(f"mode {config.mode!r} requires a hint table")
        simulator = PredicationAwareSimulator(
            program, trace, config, hints=hints, benchmark=benchmark,
            warm_words=warm_words, tracer=tracer,
        )
    else:
        simulator = TimingSimulator(
            program, trace, config, benchmark=benchmark,
            warm_words=warm_words, tracer=tracer,
        )
    return simulator.run()
