"""Differential validation of the batch engine.

The batch engine simulates each (program, trace, config) cell on a
native C kernel over static arenas shared by the cells of one
``run_batch`` call (:mod:`repro.uarch.batch`); its contract is the same
as the fast engine's — *bit identity* with the reference engine —
reached two ways: the kernel for cells inside the supported envelope,
and a per-cell fast-engine fallback for everything else.  Both paths are exercised here; the committed fuzz
corpus replays against the batch engine too
(tests/fuzz/test_corpus_replay.py).
"""

import dataclasses

import pytest

from repro.cfg.builder import CFGBuilder
from repro.cli import CONFIG_FACTORIES
from repro.core.processors import simulate
from repro.fuzz import FuzzKnobs, draw_spec
from repro.fuzz.harness import FuzzProgram
from repro.harness.experiment import (
    BenchmarkContext,
    figure9_configs,
    run_suite,
)
from repro.isa.instructions import Condition
from repro.program.interpreter import Interpreter
from repro.program.memory import Memory
from repro.program.program import Program
from repro.uarch.batch import BatchCell, cell_supported, native, run_batch
from repro.uarch.config import MachineConfig
from repro.validation.runtime import paranoid
from repro.workloads.suite import BENCHMARK_NAMES

ITERATIONS = 120

_contexts = {}


def _context(name: str) -> BenchmarkContext:
    ctx = _contexts.get(name)
    if ctx is None:
        ctx = _contexts[name] = BenchmarkContext(
            name, iterations=ITERATIONS, seed=0
        )
    return ctx


def _cell(ctx: BenchmarkContext, config: MachineConfig) -> BatchCell:
    return BatchCell(
        ctx.program, ctx.trace, config.replace(engine="batch"),
        hints=ctx.hints_for(config), benchmark=ctx.name,
        warm_words=ctx.workload.memory.warm_words(),
    )


def _reference(ctx: BenchmarkContext, config: MachineConfig):
    return ctx.simulate(config.replace(engine="reference"))


def test_vector_path_bit_identical_across_the_suite():
    """One ``run_batch`` call holding every benchmark under every
    kernel-eligible mode (baseline, dualpath, dmp, dhp) must reproduce
    the reference stats bit for bit, cell for cell.  Running them in
    *one* call (not one call per cell) is the point: it proves cells
    cannot bleed state into each other through the shared arenas."""
    cells, refs = [], []
    for name in BENCHMARK_NAMES:
        ctx = _context(name)
        for config in (
            MachineConfig.baseline(), MachineConfig.dualpath(),
            MachineConfig.dmp(), MachineConfig.dhp(),
        ):
            cells.append(_cell(ctx, config))
            refs.append(_reference(ctx, config))
    reasons = {}
    results = run_batch(cells, fallback_reasons=reasons)
    assert reasons == {}, "expected every cell on the native kernel"
    for cell, ref, got in zip(cells, refs, results):
        assert dataclasses.asdict(got) == dataclasses.asdict(ref), (
            cell.benchmark, cell.config.mode,
        )


def test_mixed_sizing_grid_bit_identical():
    """Heterogeneous frontend/backend sizings in one call, including
    ROBs smaller than a block (the window stalls inside a block)."""
    grid = [
        MachineConfig.baseline().replace(fetch_width=8, rob_size=512),
        MachineConfig.baseline().replace(rob_size=16),
        MachineConfig.dualpath().replace(rob_size=32, retire_width=8),
        MachineConfig.dualpath().replace(
            fetch_width=8, pipeline_depth=30
        ),
    ]
    cells, refs = [], []
    for name in ("parser", "gzip", "mcf"):
        ctx = _context(name)
        for config in grid:
            cells.append(_cell(ctx, config))
            refs.append(_reference(ctx, config))
    results = run_batch(cells)
    for cell, ref, got in zip(cells, refs, results):
        assert dataclasses.asdict(got) == dataclasses.asdict(ref), (
            cell.benchmark, cell.config.describe(),
        )


def test_mixed_mode_grid_bit_identical():
    """Predicated and non-predicated cells side by side in one call,
    over the dpred knobs the envelope admits (multiple CFM targets, the
    alternate GHR policy, tight path limits) plus sizing variants —
    episodes must not leak into neighbouring cells through the shared
    tables, and every dpred counter (entries, exit cases, select/extra
    uops, predicated-false fetches, load predicate waits) must match."""
    grid = [
        MachineConfig.dmp(),
        MachineConfig.dmp(multiple_cfm=True),
        MachineConfig.dmp(rob_size=16, fetch_width=8),
        MachineConfig.dmp(dpred_ghr_policy="alternate"),
        MachineConfig.dmp(dpred_path_limit=24),
        MachineConfig.dhp(retire_width=8, pipeline_depth=30),
        MachineConfig.dhp(fetch_stops_at_taken=True),
        MachineConfig.baseline(),
        MachineConfig.dualpath(),
    ]
    cells, refs = [], []
    for name in ("parser", "gzip", "twolf"):
        ctx = _context(name)
        for config in grid:
            cells.append(_cell(ctx, config))
            refs.append(_reference(ctx, config))
    results = run_batch(cells)
    covered = set()
    for cell, ref, got in zip(cells, refs, results):
        assert dataclasses.asdict(got) == dataclasses.asdict(ref), (
            cell.benchmark, cell.config.describe(),
        )
        covered.update(c for c, n in ref.exit_cases.items() if n)
    assert covered, "no dpred episodes resolved — grid too shallow"


def test_single_cell_simulate_route():
    """``simulate(engine="batch")`` — the processors.py route — works
    for a lone cell, native kernel included."""
    ctx = _context("parser")
    config = MachineConfig.dualpath()
    got = ctx.simulate(config.replace(engine="batch"))
    assert dataclasses.asdict(got) == dataclasses.asdict(
        _reference(ctx, config)
    )


@pytest.mark.parametrize(
    "config_name", ("dmp", "dhp", "wish", "loop-pred", "mpp")
)
@pytest.mark.parametrize("bench_name", ("parser", "gzip"))
def test_fallback_path_bit_identical(bench_name, config_name):
    """Configurations outside the kernel's envelope (enhanced predicated
    modes, hardened runs) silently fall back to the fast engine per cell — and
    must still match the hardened reference bit for bit."""
    factory = {
        "dmp": lambda: MachineConfig.dmp(enhanced=True),
        "dhp": MachineConfig.dhp,
        "wish": MachineConfig.wish,
        "loop-pred": lambda: MachineConfig.dmp(loop_predication=True),
        "mpp": MachineConfig.mpp,
    }[config_name]
    ctx = _context(bench_name)
    config = factory().hardened()
    ok, _ = cell_supported(_cell(ctx, config))
    assert not ok, "expected a fallback config"
    got = ctx.simulate(config.replace(engine="batch"))
    ref = _reference(ctx, config)
    assert ref.oracle_checks > 0, "oracle was not armed"
    assert dataclasses.asdict(got) == dataclasses.asdict(ref)


def _enhanced_grid():
    """Every Figure 9 machine plus the enhancement variants outside
    that figure: the nested multiple-diverge policy and the selective
    predictor update."""
    grid = dict(figure9_configs())
    grid["nested"] = MachineConfig.dmp(
        enhanced=True, multiple_diverge_policy="nested"
    )
    grid["selective"] = MachineConfig.dmp(
        enhanced=True, selective_predictor_update=True
    )
    grid["dhp-enhanced"] = MachineConfig.dhp(
        multiple_cfm=True, early_exit=True, multiple_diverge=True
    )
    return grid


def test_figure9_enhancements_bit_identical_on_the_kernel():
    """Early exit, multiple diverge branches (restart and nested) and
    the selective predictor update run on the native kernel — no
    fallback — and reproduce the reference engine bit for bit.  twolf
    exits early often; fuzz program 3778 restarts and nests episodes."""
    grid = _enhanced_grid()
    fuzz = FuzzProgram(draw_spec(3778, FuzzKnobs(max_gadgets=3,
                                                 iterations=60)))
    cells, refs = [], []
    for name in ("parser", "twolf", "fma3d"):
        ctx = _context(name)
        for config in grid.values():
            cells.append(_cell(ctx, config))
            refs.append(_reference(ctx, config))
    for config in grid.values():
        kwargs = dict(
            hints=fuzz.hints_for(config.mode), benchmark=fuzz.spec.name,
            warm_words=fuzz.workload.memory.warm_words(),
        )
        cells.append(BatchCell(
            fuzz.program, fuzz.trace, config.replace(engine="batch"),
            **kwargs,
        ))
        refs.append(simulate(
            fuzz.program, fuzz.trace, config.replace(engine="reference"),
            **kwargs,
        ))
    reasons = {}
    results = run_batch(cells, fallback_reasons=reasons)
    assert reasons == {}, "expected every cell on the native kernel"
    for cell, ref, got in zip(cells, refs, results):
        assert dataclasses.asdict(got) == dataclasses.asdict(ref), (
            cell.benchmark, cell.config.describe(),
        )
    assert sum(ref.early_exits for ref in refs) > 0
    assert sum(ref.dpred_restarts for ref in refs) > 0
    assert sum(ref.nested_episodes for ref in refs) > 0


def test_cell_supported_reports_reasons():
    ctx = _context("parser")
    ok, reason = cell_supported(_cell(ctx, MachineConfig.baseline()))
    assert ok, reason

    class _Tracer:
        pass

    traced = _cell(ctx, MachineConfig.baseline())
    traced.tracer = _Tracer()
    ok, reason = cell_supported(traced)
    assert not ok and "tracer" in reason

    # Dynamic predication with every Figure 9 enhancement, either
    # multiple-diverge policy and the selective update is inside the
    # envelope.
    for config in _enhanced_grid().values():
        ok, reason = cell_supported(_cell(ctx, config))
        assert ok, (config.describe(), reason)
    ok, reason = cell_supported(_cell(ctx, MachineConfig.dhp()))
    assert ok, reason
    # Outside it, each with its own reason string.
    deep = MachineConfig.dmp(
        enhanced=True, multiple_diverge_policy="nested",
        max_nested_diverge=1000,
    )
    ok, reason = cell_supported(_cell(ctx, deep))
    assert not ok and "max_nested_diverge" in reason
    ok, reason = cell_supported(
        _cell(ctx, MachineConfig.dmp(loop_predication=True))
    )
    assert not ok and "loop" in reason
    ok, reason = cell_supported(_cell(ctx, MachineConfig.wish()))
    assert not ok and "wish" in reason
    # Learned merge points mutate between lookups; the kernel reads a
    # static hint table, so mpp is scalar-only.
    ok, reason = cell_supported(_cell(ctx, MachineConfig.mpp()))
    assert not ok and "mpp" in reason
    ok, reason = cell_supported(
        _cell(ctx, MachineConfig.baseline(predictor_kind="perfect"))
    )
    assert not ok and "predictor" in reason

    ok, reason = cell_supported(
        _cell(ctx, MachineConfig.baseline().hardened())
    )
    assert not ok


def _fresh(benchmarks, iterations=ITERATIONS):
    return {
        name: BenchmarkContext(name, iterations=iterations, seed=0)
        for name in benchmarks
    }


@pytest.fixture
def kernel_calls(monkeypatch):
    """The cells the native kernel runs in this test (one list entry
    per ``Kernel.run_cell`` call)."""
    calls = []
    real = native.Kernel.run_cell

    def spy(self, *args, **kwargs):
        calls.append(args)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(native.Kernel, "run_cell", spy)
    return calls


def test_run_suite_serial_executor_matches_reference(kernel_calls):
    """The in-process executor runs every cell of a benchmark in one
    ``run_batch`` call on the kernel and returns the reference engine's
    table (memo/disk caches bypassed by fresh contexts)."""
    configs = {
        "base": MachineConfig.baseline(),
        "dual": MachineConfig.dualpath(),
        "dmp-enhanced": MachineConfig.dmp(enhanced=True),
    }
    benchmarks = ("parser", "gzip")
    serial = run_suite(
        configs, benchmarks, iterations=ITERATIONS,
        contexts=_fresh(benchmarks), executor="serial",
    )
    assert len(kernel_calls) == len(configs) * len(benchmarks)
    assert serial.timings.batch_kernel_cells == len(kernel_calls)
    assert serial.timings.batch_fallbacks == {}
    reference = run_suite(
        {label: config.replace(engine="reference")
         for label, config in configs.items()},
        benchmarks, iterations=ITERATIONS, contexts=_fresh(benchmarks),
    )
    assert len(kernel_calls) == len(configs) * len(benchmarks)
    for name in benchmarks:
        for label in configs:
            assert dataclasses.asdict(
                serial.stats(name, label)
            ) == dataclasses.asdict(reference.stats(name, label))


def test_equal_configs_under_two_labels_share_one_simulation(kernel_calls):
    """Labels whose effective configs are equal are simulated once; the
    repeat counts as a memo hit, in both executors."""
    configs = {
        "dmp": MachineConfig.dmp(),
        "dmp-again": MachineConfig.dmp(),
        "ref": MachineConfig.baseline(engine="reference"),
        "ref-again": MachineConfig.baseline(engine="reference"),
    }
    for executor in ("serial", "pool"):
        result = run_suite(
            configs, ("gzip",), iterations=ITERATIONS,
            contexts=_fresh(("gzip",)), executor=executor,
        )
        assert result.timings.simulations_run == 2, executor
        assert result.timings.sim_memo_hits == 2, executor
        assert result.timings.batch_kernel_cells == 1, executor
        assert result.stats("gzip", "dmp") is result.stats("gzip", "dmp-again")
        assert result.stats("gzip", "ref") is result.stats("gzip", "ref-again")
    # The spy sees the in-process executor's kernel calls only.
    assert len(kernel_calls) == 1


def test_reference_configs_never_reach_the_kernel(kernel_calls):
    configs = {
        "base": MachineConfig.baseline(engine="reference"),
        "dmp": MachineConfig.dmp(enhanced=True, engine="reference"),
    }
    result = run_suite(
        configs, ("gzip",), iterations=ITERATIONS, contexts=_fresh(("gzip",))
    )
    assert kernel_calls == []
    assert result.timings.batch_kernel_cells == 0
    assert result.timings.batch_fallbacks == {}


def test_paranoid_and_traced_cells_stay_on_python_engines(kernel_calls,
                                                          tmp_path):
    configs = {
        "base": MachineConfig.baseline(),
        "dmp": MachineConfig.dmp(enhanced=True),
    }
    with paranoid(True):
        armed = run_suite(
            configs, ("gzip",), iterations=ITERATIONS,
            contexts=_fresh(("gzip",)),
        )
    assert kernel_calls == []
    assert armed.timings.batch_kernel_cells == 0
    assert armed.timings.batch_fallbacks == {
        "oracle/watchdog instrumentation": len(configs)
    }
    assert all(
        armed.stats("gzip", label).oracle_checks > 0 for label in configs
    )
    traced = run_suite(
        configs, ("gzip",), iterations=ITERATIONS,
        contexts=_fresh(("gzip",)), trace_dir=str(tmp_path),
    )
    assert kernel_calls == []
    assert len(list(tmp_path.iterdir())) == len(configs)
    plain = run_suite(
        configs, ("gzip",), iterations=ITERATIONS, contexts=_fresh(("gzip",))
    )
    assert len(kernel_calls) == len(configs)
    assert traced == plain


def test_default_suite_grid_runs_entirely_on_the_kernel(kernel_calls):
    """``repro suite``'s default configs over every benchmark: 60 cells
    on the native kernel, no fallback."""
    configs = {
        name: CONFIG_FACTORIES[name]()
        for name in ("base", "dhp", "dmp", "dmp-enhanced")
    }
    result = run_suite(
        configs, BENCHMARK_NAMES, iterations=40,
        contexts=_fresh(BENCHMARK_NAMES, 40),
    )
    assert len(BENCHMARK_NAMES) * len(configs) == 60
    assert result.timings.batch_kernel_cells == 60
    assert result.timings.batch_fallbacks == {}
    assert len(kernel_calls) == 60
    assert "60 cell(s) on the native kernel, 0 fast-engine fallback(s)" in (
        result.timings.report()
    )


def test_trace_arenas_keyed_by_trace_and_warm_words():
    """One call holding two traces of one ``Program`` object, each with
    and without its warm-up words: each trace needs its own trace arena,
    each cell its own L2 warm-up, and both traces share the program's
    arena.  Every cell must match the reference engine."""
    ctx = _context("parser")
    warm = ctx.workload.memory.warm_words()
    # A second trace of the same Program object: on zeroed memory it
    # takes other paths.
    traces = (ctx.trace, Interpreter(ctx.program, memory=Memory()).run())
    assert len(traces[0].records) != len(traces[1].records)
    cells = [
        BatchCell(ctx.program, trace, config.replace(engine="batch"),
                  hints=ctx.hints_for(config), benchmark=ctx.name,
                  warm_words=warm_words)
        for trace in traces
        for warm_words in (None, warm)
        for config in (MachineConfig.baseline(), MachineConfig.dmp())
    ]
    refs = [
        simulate(cell.program, cell.trace,
                 cell.config.replace(engine="reference"), hints=cell.hints,
                 benchmark=cell.benchmark, warm_words=cell.warm_words)
        for cell in cells
    ]
    # The warm-up image must matter, or a key without it would pass.
    assert refs[0].cycles != refs[2].cycles
    reasons = {}
    results = run_batch(cells, fallback_reasons=reasons)
    assert reasons == {}
    for cell, ref, got in zip(cells, refs, results):
        assert dataclasses.asdict(got) == dataclasses.asdict(ref), (
            len(cell.trace.records), cell.warm_words is None,
            cell.config.mode,
        )


def _btb_overflow_program():
    """Five redirect sites (four JMPs and a loop BR) 1024 instructions
    apart: every one maps to the same 4-way BTB set."""
    b = CFGBuilder("main")
    for k in range(5):
        block = b.block(f"b{k}")
        if k == 0:
            block.addi(1, 1, 1).nop(1022)
        else:
            block.nop(1023)
        if k < 4:
            block.jmp(f"b{k + 1}")
        else:
            block.br(Condition.LT, 1, imm=3, taken="b0")
    b.block("end").halt()
    program = Program("btb-overflow")
    program.add_function(b.build())
    return program.seal()


def test_btb_set_overflow_falls_back():
    """The one program-level envelope check: a BTB set that can evict
    sends the cell to the fast engine, with the reason named, although
    its configuration alone is inside the envelope."""
    program = _btb_overflow_program()
    sites = [
        instr.pc for cfg in program.functions() for block in cfg
        for instr in block.instructions if instr.opcode.name in ("JMP", "BR")
    ]
    assert len({(pc >> 2) % 1024 for pc in sites}) == 1 and len(sites) == 5
    trace = Interpreter(program).run()
    config = MachineConfig.baseline()
    cell = BatchCell(program, trace, config.replace(engine="batch"))
    assert cell_supported(cell) == (True, "")
    reasons = {}
    got = run_batch([cell], fallback_reasons=reasons)[0]
    assert reasons == {"BTB set can overflow (eviction possible)": 1}
    ref = simulate(program, trace, config.replace(engine="reference"))
    assert dataclasses.asdict(got) == dataclasses.asdict(ref)
