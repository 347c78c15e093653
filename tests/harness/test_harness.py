"""Integration tests for the experiment harness (small workloads)."""

import pytest

from repro.harness.experiment import (
    BenchmarkContext,
    SuiteResult,
    figure7_configs,
    figure9_configs,
    run_suite,
)
from repro.harness.tables import format_series, format_table
from repro.harness import figures
from repro.uarch.config import MachineConfig

SMALL = 150  # iterations for fast harness tests


@pytest.fixture(scope="module")
def parser_context():
    return BenchmarkContext("parser", iterations=SMALL)


class TestBenchmarkContext:
    def test_artifacts_lazy_and_cached(self, parser_context):
        trace1 = parser_context.trace
        trace2 = parser_context.trace
        assert trace1 is trace2
        assert parser_context.profile.total_instructions == (
            trace1.instruction_count
        )

    def test_hint_tables_built(self, parser_context):
        assert len(parser_context.diverge_hints) > 0
        # parser has at least one simple hammock among its hard branches
        # (the hard ifelse gadget).
        assert len(parser_context.hammock_hints) >= 1

    def test_hints_dispatch_by_mode(self, parser_context):
        assert parser_context.hints_for(MachineConfig.dmp()) is (
            parser_context.diverge_hints
        )
        assert parser_context.hints_for(MachineConfig.dhp()) is (
            parser_context.hammock_hints
        )
        assert parser_context.hints_for(MachineConfig.baseline()) is None

    def test_simulation_memoized(self, parser_context):
        config = MachineConfig.baseline()
        s1 = parser_context.simulate(config)
        s2 = parser_context.simulate(config)
        assert s1 is s2

    def test_dmp_beats_baseline_on_parser(self, parser_context):
        base = parser_context.simulate(MachineConfig.baseline())
        dmp = parser_context.simulate(MachineConfig.dmp(enhanced=True))
        assert dmp.ipc > base.ipc
        assert dmp.pipeline_flushes < base.pipeline_flushes


class TestRunSuite:
    def test_suite_over_two_benchmarks(self):
        configs = {
            "base": MachineConfig.baseline(),
            "dmp": MachineConfig.dmp(),
        }
        result = run_suite(
            configs, benchmarks=("gzip", "eon"), iterations=SMALL
        )
        assert set(result.benchmarks) == {"gzip", "eon"}
        assert result.stats("gzip", "base").cycles > 0
        improvements = result.ipc_improvements("dmp")
        assert set(improvements) == {"gzip", "eon"}
        assert isinstance(result.mean_improvement("dmp"), float)

    def test_contexts_shared(self):
        contexts = {}
        configs = {"base": MachineConfig.baseline()}
        run_suite(configs, benchmarks=("eon",), iterations=SMALL,
                  contexts=contexts)
        assert "eon" in contexts

    def test_stage_timings_do_not_exceed_wall(self):
        # Stages are exclusive: a cold trace is generated once, so it
        # may be counted under one stage only, never also as "simulate".
        configs = {
            "base": MachineConfig.baseline(),
            "dmp": MachineConfig.dmp(),
        }
        result = run_suite(
            configs, benchmarks=("parser", "gzip"), iterations=SMALL
        )
        t = result.timings
        stages = (
            t.build_seconds + t.trace_seconds + t.profile_seconds
            + t.simulate_seconds
        )
        assert stages <= t.wall_seconds * 1.02 + 0.005, t.report()
        # The functional run has its own stage, apart from profiling.
        assert t.trace_seconds > 0 and t.profile_seconds > 0, t.report()
        assert "trace=" in t.report()

    def test_figure_config_sets(self):
        f7 = figure7_configs()
        assert set(f7) >= {
            "base", "DHP-jrs", "diverge-jrs", "perfect-cbp", "dualpath"
        }
        f9 = figure9_configs()
        assert "enhanced-mcfm-eexit-mdb" in f9
        assert f9["enhanced-mcfm-eexit-mdb"].multiple_diverge


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(
            ["name", "value"], [["a", 1.5], ["bb", 22.25]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert "1.50" in text
        assert "22.25" in text

    def test_format_series(self):
        text = format_series("s", {"a": 1.0, "b": 2})
        assert "s:" in text
        assert "1.00" in text


class TestFigureDrivers:
    def test_table1_is_static(self):
        result = figures.table1()
        assert len(result.rows) == 6
        assert "flush the pipeline" in result.format()

    def test_table2_reflects_config(self):
        result = figures.table2(MachineConfig(rob_size=128))
        assert ["reorder buffer", 128] in result.rows

    def test_fig1_runs_small(self):
        result = figures.fig1(benchmarks=("eon",), iterations=SMALL)
        rows = result.by_benchmark()
        assert "eon" in rows
        cd, ci, total = rows["eon"]
        assert total == pytest.approx(cd + ci)

    def test_fig6_classifies(self):
        result = figures.fig6(benchmarks=("parser",), iterations=SMALL)
        row = result.by_benchmark()["parser"]
        assert sum(row) > 0  # parser has mispredictions in some class

    def test_fig7_and_fig9_share_contexts(self):
        contexts = {}
        r7 = figures.fig7(
            contexts=contexts, benchmarks=("gzip",), iterations=SMALL
        )
        r9 = figures.fig9(
            contexts=contexts, benchmarks=("gzip",), iterations=SMALL
        )
        assert "gzip" in r7.by_benchmark()
        assert "gzip" in r9.by_benchmark()
        assert "gzip" in contexts

    def test_fig8_distribution_sums_to_100(self):
        result = figures.fig8(benchmarks=("parser",), iterations=SMALL)
        shares = result.by_benchmark()["parser"]
        assert sum(shares) == pytest.approx(100.0, abs=0.1)

    def test_fig11_flush_reduction(self):
        result = figures.fig11(benchmarks=("parser",), iterations=SMALL)
        reduction = result.by_benchmark()["parser"][0]
        assert reduction > 0

    def test_fig12_counts(self):
        result = figures.fig12(benchmarks=("parser",), iterations=SMALL)
        row = result.by_benchmark()["parser"]
        fetch_base, fetch_dmp, exec_base, exec_dmp, extra, selects = row
        assert fetch_base > 0 and exec_dmp >= exec_base
        assert extra > 0 and selects > 0

    def test_fig13_sweep_shapes(self):
        result = figures.fig13(
            benchmarks=("gzip",), iterations=SMALL,
            windows=(128, 512), depths=(10, 30),
        )
        assert len(result.rows) == 4
        kinds = [row[0] for row in result.rows]
        assert kinds == ["window", "window", "depth", "depth"]
