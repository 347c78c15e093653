"""Tests of the benchmark's pure parts, plus seed determinism end to end.

Run from the checkout root: ``python3 -m pytest perfbench/tests``.
"""

import dataclasses
import json
from pathlib import Path

import pytest

import report
from layers import LayerTracer, patched
from metrics import (
    Span,
    check_name,
    check_unit,
    flush_reduction_pct,
    layer_self_seconds,
    mean_ipc_gain_pct,
    residual,
    sample_keys,
    self_times,
    stats_digest,
)
from workloads import FuzzWorkload, SuiteWorkload, SweepWorkload

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


# -- metric-name grammar ------------------------------------------------------


@pytest.mark.parametrize("name", [
    "wall_s", "setup_s", "uarch.batch.step_loop_s", "core.fast_ns_per_fetch",
    "9lives", "a-b.c_d", "x" * 64,
])
def test_valid_names(name):
    assert check_name(name) == name


@pytest.mark.parametrize("name", [
    "", "_wall", ".wall", "-wall", "wall s", "wall/s", "x" * 65, "wäll",
])
def test_invalid_names(name):
    with pytest.raises(ValueError):
        check_name(name)


@pytest.mark.parametrize("unit", ["s", "ms", "1/s", "kinst/s", "%", "MB",
                                  "count", "ratio", "ns"])
def test_valid_units(unit):
    assert check_unit(unit) == unit


@pytest.mark.parametrize("unit", ["", "k inst", "x" * 17, "s;"])
def test_invalid_units(unit):
    with pytest.raises(ValueError):
        check_unit(unit)


def test_benchmark_json_matches_the_report_tables():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    for key, table in (("end_to_end", report.END_TO_END),
                       ("per_layer", report.PER_LAYER)):
        assert [(m["name"], m["unit"]) for m in spec[key]] == [
            (name, unit) for name, unit, _kind in table
        ]
        for metric in spec[key]:
            check_name(metric["name"])
            check_unit(metric["unit"])
            assert metric["better"] in ("higher", "lower")
    for metric in spec["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    assert [w["name"] for w in spec["workloads"]] == ["suite", "sweep", "fuzz"]


def test_every_metric_has_a_kind():
    for _name, _unit, kind in report.END_TO_END + report.PER_LAYER:
        assert kind in ("host", "simulated")


# -- span and residual arithmetic ---------------------------------------------


def _nested_spans():
    # a [0, 10] holds b [1, 4] which holds c [2, 3]; d [12, 15] stands alone.
    return [
        Span("a", 0.0, 10.0, -1),
        Span("b", 1.0, 4.0, 0),
        Span("c", 2.0, 3.0, 1),
        Span("d", 12.0, 15.0, -1),
    ]


def test_self_time_subtracts_direct_children_only():
    assert self_times(_nested_spans()) == [7.0, 2.0, 1.0, 3.0]


def test_layer_seconds_plus_residual_sum_to_wall():
    spans = _nested_spans()
    spans[3].layer = "a"
    seconds = layer_self_seconds(spans)
    assert seconds == {"a": 10.0, "b": 2.0, "c": 1.0}
    wall = 20.0
    rest = residual(wall, seconds)
    assert rest == 7.0
    assert sum(seconds.values()) + rest == wall


def test_tracer_spans_nest_and_sum_to_covered_time():
    tracer = LayerTracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    with tracer.span("other"):
        pass
    assert [s.parent for s in tracer.spans] == [-1, 0, 0, -1]
    seconds = tracer.layer_seconds()
    covered = sum(s.duration for s in tracer.spans if s.parent == -1)
    assert sum(seconds.values()) == pytest.approx(covered, abs=1e-12)
    assert min(seconds.values()) >= 0


def test_patched_restores_properties_and_attributes():
    class Owner:
        @property
        def value(self):
            return 1

    original = Owner.__dict__["value"]
    with patched(Owner, "value", property(lambda self: 2)):
        assert Owner().value == 2
    assert Owner.__dict__["value"] is original
    assert Owner().value == 1


# -- simulated summaries --------------------------------------------------------


@dataclasses.dataclass
class _Stats:
    cycles: int
    retired_instructions: int
    pipeline_flushes: int

    @property
    def ipc(self):
        return self.retired_instructions / self.cycles


def test_ipc_gain_and_flush_reduction():
    pairs = [
        (_Stats(100, 100, 10), _Stats(80, 100, 5)),   # +25% IPC, -50% flushes
        (_Stats(100, 100, 0), _Stats(125, 100, 0)),   # -20% IPC, no flushes
    ]
    assert mean_ipc_gain_pct(pairs) == pytest.approx(2.5)
    assert flush_reduction_pct(pairs) == pytest.approx(25.0)


# -- digests ----------------------------------------------------------------------


def test_digest_is_pinned_and_order_free():
    cells = [("b/base", _Stats(10, 20, 3)), ("a/dmp", _Stats(9, 20, 1))]
    digest = stats_digest(cells)
    assert digest == stats_digest(list(reversed(cells)))
    # Pinned, so that two commits' digests stay comparable.
    assert digest == "cca3c498fda21ed6e7214fd4013a57d4"


def test_digest_sees_every_field_and_key():
    cells = [("a/base", _Stats(10, 20, 3))]
    digest = stats_digest(cells)
    assert stats_digest([("a/base", _Stats(10, 20, 4))]) != digest
    assert stats_digest([("a/dmp", _Stats(10, 20, 3))]) != digest


def test_sample_keys_is_deterministic_and_seeded():
    keys = [f"cell{i}" for i in range(50)]
    assert sample_keys(keys, 7, 5) == sample_keys(reversed(keys), 7, 5)
    assert len(sample_keys(keys, 7, 5)) == 5
    assert sample_keys(keys, 7, 5) != sample_keys(keys, 8, 5)


# -- the same seed gives the same digest ---------------------------------------


class _TinySuite(SuiteWorkload):
    iterations = 40
    benchmarks = ("eon",)


class _TinySweep(SweepWorkload):
    iterations = 40
    benchmarks = ("parser",)


class _TinyFuzz(FuzzWorkload):
    record_budget = 200


@pytest.mark.parametrize("workload_cls", [_TinySuite, _TinySweep, _TinyFuzz])
def test_same_seed_same_digest(workload_cls):
    workload = workload_cls()

    def digest(seed):
        inputs = workload.inputs(seed)
        done = workload.run(inputs)
        assert done.failed == 0 and done.cells
        assert workload.check(inputs, done) == 0
        return stats_digest(done.cells.items())

    first = digest(3)
    assert digest(3) == first
    assert digest(4) != first


def test_traced_round_matches_untraced_round():
    workload = _TinySuite()
    plain = workload.run(workload.inputs(5))
    tracer = LayerTracer()
    with tracer.installed():
        traced = workload.run(workload.inputs(5))
    assert stats_digest(traced.cells.items()) == stats_digest(
        plain.cells.items())
    seconds = tracer.layer_seconds()
    assert seconds["core.fast_s"] > 0
    assert seconds["program.trace_s"] > 0
    assert set(seconds) <= set(report.LAYER_SPANS)
