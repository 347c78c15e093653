"""The benchmark's three workloads: ``suite``, ``sweep`` and ``fuzz``.

Each workload drives the simulator through the library call its CLI
verb uses (``run_suite`` for ``repro suite``, ``run_fuzz`` for ``repro
fuzz``) in one process: one caller, one cell at a time, ``jobs=1``, no
process pool, no artifact cache.  A workload splits into

* ``inputs(seed)`` — input generation, timed as set-up: the benchmark
  contexts with their workloads built (``build_benchmark``), or the
  window of fuzz programs (``draw_spec``);
* ``run(inputs)`` — the timed part, returning a :class:`Round`;
* ``check(inputs, round)`` — output checks outside the timed region.

Why each workload exists, and which layer it stresses, is recorded in
``README.md`` next to this file.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

from metrics import canonical_stats, sample_keys
from layers import patched
from repro.harness.experiment import BenchmarkContext, run_suite
from repro.uarch.config import MachineConfig
from repro.workloads.suite import BENCHMARK_NAMES


@dataclasses.dataclass
class Round:
    """What one timed pass produced."""

    #: ``{cell key: SimStats}`` of every cell that finished.
    cells: Dict[str, object]
    #: Simulations the pass attempted.
    attempted: int
    #: Cells that raised, hung, disagreed with the reference engine or
    #: produced a fuzz finding.
    failed: int
    #: ``(base, dmp arm)`` SimStats pairs behind the simulated metrics.
    pairs: List[Tuple[object, object]]
    #: ``run_suite``'s own stage ledger (``None`` for ``fuzz``).
    timings: Optional[object] = None


class _GridWorkload:
    """A ``run_suite`` grid over built :class:`BenchmarkContext` objects."""

    name = ""
    iterations = 0
    benchmarks: Tuple[str, ...] = ()
    #: Reference-engine re-runs per check (a seeded sample of cells).
    check_cells = 0
    #: Label of the arm compared with each base cell.
    dmp_arm = ""

    def __init__(self) -> None:
        self.configs = self.grid()

    def grid(self) -> Dict[str, MachineConfig]:
        raise NotImplementedError

    def base_label(self, label: str) -> Optional[str]:
        """The base cell ``label`` is matched with, if it is a dmp arm."""
        raise NotImplementedError

    def inputs(self, seed: int) -> Dict[str, BenchmarkContext]:
        contexts = {
            name: BenchmarkContext(name, self.iterations, seed)
            for name in self.benchmarks
        }
        for context in contexts.values():
            _ = context.workload
        return contexts

    def run(self, contexts: Dict[str, BenchmarkContext]) -> Round:
        attempted = len(self.benchmarks) * len(self.configs)
        seed = next(iter(contexts.values())).seed
        try:
            result = run_suite(
                self.configs, self.benchmarks, iterations=self.iterations,
                seed=seed, contexts=contexts, jobs=1,
            )
        except Exception as exc:  # every cell of the pass counts as failed
            print(f"  {self.name}: run_suite raised {type(exc).__name__}: "
                  f"{exc}")
            return Round({}, attempted, attempted, [])
        cells = {
            f"{bench}/{label}": stats
            for bench, per in result.results.items()
            for label, stats in per.items()
        }
        pairs = []
        for bench, per in result.results.items():
            for label, stats in per.items():
                base = self.base_label(label)
                if base is not None:
                    pairs.append((per[base], stats))
        return Round(cells, attempted, 0, pairs, result.timings)

    def check(self, contexts: Dict[str, BenchmarkContext],
              done: Round) -> int:
        """Re-run a seeded sample of cells on the reference engine;
        return how many disagree with the timed pass."""
        if not done.cells:
            return 0
        seed = next(iter(contexts.values())).seed
        bad = 0
        for key in sample_keys(done.cells, seed, self.check_cells):
            bench, label = key.split("/", 1)
            config = self.configs[label].replace(engine="reference")
            try:
                ref = contexts[bench].simulate(config)
            except Exception as exc:
                print(f"  check {key}: reference raised "
                      f"{type(exc).__name__}: {exc}")
                bad += 1
                continue
            if canonical_stats(ref) != canonical_stats(done.cells[key]):
                print(f"  check {key}: reference engine disagrees")
                bad += 1
        return bad


class SuiteWorkload(_GridWorkload):
    """The default ``repro suite`` grid: 15 benchmarks x 4 configs on the
    default fast engine."""

    name = "suite"
    iterations = 150
    benchmarks = tuple(BENCHMARK_NAMES)
    check_cells = 4
    dmp_arm = "dmp-enhanced"

    def grid(self) -> Dict[str, MachineConfig]:
        # The CLI's default --configs, built the way repro.cli builds them.
        return {
            "base": MachineConfig.baseline(),
            "dhp": MachineConfig.dhp(),
            "dmp": MachineConfig.dmp(),
            "dmp-enhanced": MachineConfig.dmp(enhanced=True),
        }

    def base_label(self, label: str) -> Optional[str]:
        return "base" if label == self.dmp_arm else None


#: Sweep sizings: (fetch width, pipeline depth, ROB entries, retire width).
SWEEP_SIZINGS = tuple(
    (width, depth, rob, retire)
    for width in (4, 8)
    for depth in (10, 30)
    for rob in (128, 512)
    for retire in (4, 8)
)


class SweepWorkload(_GridWorkload):
    """A design-space sweep on the batch engine (``repro suite --engine
    batch``): 4 benchmarks x {dmp, dualpath, base} x 16 sizings."""

    name = "sweep"
    iterations = 120
    benchmarks = ("parser", "twolf", "gzip", "mcf")
    check_cells = 6
    dmp_arm = "dmp"

    def grid(self) -> Dict[str, MachineConfig]:
        modes = (
            ("dmp", MachineConfig.dmp),
            ("dualpath", MachineConfig.dualpath),
            ("base", MachineConfig.baseline),
        )
        return {
            f"{mode}/w{width}-d{depth}-rob{rob}-rw{retire}": factory().replace(
                engine="batch", fetch_width=width, pipeline_depth=depth,
                rob_size=rob, retire_width=retire,
            )
            for mode, factory in modes
            for (width, depth, rob, retire) in SWEEP_SIZINGS
        }

    def base_label(self, label: str) -> Optional[str]:
        mode, sizing = label.split("/", 1)
        return f"base/{sizing}" if mode == self.dmp_arm else None


class FuzzWorkload:
    """The differential fuzz check: a window of generated programs, all
    8 modes x {reference, fast}, hardened, serial.

    The window starts at the workload seed and takes programs until their
    functional traces hold ``record_budget`` executed blocks, so every
    window carries about the same simulation work whatever the seed:
    program sizes vary about tenfold, and a program's simulation time
    follows its trace length closely."""

    name = "fuzz"
    record_budget = 35_000

    def __init__(self) -> None:
        from repro.fuzz import FUZZ_MODES, mode_configs

        self.modes = FUZZ_MODES
        self.engines = ("reference", "fast")
        hardened = mode_configs()
        self._labels = [(mode, hardened[mode].hardened()) for mode in FUZZ_MODES]

    def inputs(self, seed: int) -> List[int]:
        import repro.fuzz.harness as harness

        seeds: List[int] = []
        total = 0
        while total < self.record_budget:
            spec = harness.draw_spec(seed + len(seeds))
            total += len(harness.FuzzProgram(spec).trace)
            seeds.append(spec.seed)
        return seeds

    def _mode_of(self, config: MachineConfig) -> str:
        for mode, reference in self._labels:
            if config.replace(engine=reference.engine) == reference:
                return mode
        return config.mode

    def run(self, seeds: List[int]) -> Round:
        import repro.fuzz.harness as harness

        attempted = len(seeds) * len(self.modes) * len(self.engines)
        cells: Dict[str, object] = {}
        inner = harness.simulate

        def recording_simulate(program, trace, config=None, **kwargs):
            stats = inner(program, trace, config, **kwargs)
            key = f"{stats.benchmark}/{self._mode_of(config)}/{config.engine}"
            cells[key] = stats
            return stats

        with patched(harness, "simulate", recording_simulate):
            try:
                report = harness.run_fuzz(seeds, jobs=1)
            except Exception as exc:
                print(f"  fuzz: run_fuzz raised {type(exc).__name__}: {exc}")
                return Round(cells, attempted, attempted, [])
        for finding in report.findings:
            print(f"  finding: {finding.summary()[:200]}")
        pairs = []
        for key, stats in cells.items():
            name, mode, engine = key.split("/")
            if mode == "dmp" and engine == "reference":
                base = cells.get(f"{name}/baseline/reference")
                if base is not None:
                    pairs.append((base, stats))
        return Round(cells, attempted, len(report.findings), pairs)

    def check(self, seeds: List[int], done: Round) -> int:
        """Nothing left to check: ``run_fuzz`` already diffs every fast
        cell against the reference engine, runs the oracle and watchdog
        on both, and turns every exception into a finding."""
        return 0


WORKLOADS = {
    workload.name: workload
    for workload in (SuiteWorkload, SweepWorkload, FuzzWorkload)
}
