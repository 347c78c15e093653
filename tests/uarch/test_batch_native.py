"""Building, caching and loading the batch engine's native kernel.

The kernel (``repro/uarch/batch/kernel.c``) is compiled on first use
into a cache named by the source and compile command.  These tests pin
the cache behaviour and the fallback: without a kernel, every cell runs
on the fast engine under one fixed reason and the results still equal
the reference engine's.
"""

import dataclasses
import shutil
import subprocess

import pytest

from repro.core.processors import simulate
from repro.fuzz import FuzzKnobs, draw_spec
from repro.fuzz.harness import FuzzProgram
from repro.uarch.batch import BatchCell, native, run_batch
from repro.uarch.config import MachineConfig

needs_cc = pytest.mark.skipif(
    shutil.which("cc") is None, reason="no C compiler"
)


@pytest.fixture
def compiles(tmp_path, monkeypatch):
    """A fresh cache directory, and the list of compiler commands run."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    calls = []
    real = native._compile

    def spy(command):
        calls.append(command)
        real(command)

    monkeypatch.setattr(native, "_compile", spy)
    return calls


@needs_cc
def test_second_build_hits_the_cache(compiles):
    first = native.build()
    assert len(compiles) == 1
    assert first.parent == native.cache_dir()
    assert native.build() == first
    assert len(compiles) == 1, "a cached kernel must not recompile"
    native.Kernel(first)  # loads, and reports the expected ABI
    # Only the library itself is left behind: no temporary files.
    assert sorted(p.name for p in first.parent.iterdir()) == [first.name]


@needs_cc
def test_changed_source_rebuilds(compiles, tmp_path):
    first = native.build()
    edited = tmp_path / "kernel.c"
    edited.write_text(
        native.KERNEL_SOURCE.read_text() + "\n/* edited */\n"
    )
    second = native.build(edited)
    assert len(compiles) == 2
    assert second != first and second.is_file()


@needs_cc
def test_unwritable_cache_uses_a_private_directory(tmp_path, monkeypatch):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    monkeypatch.setattr(native, "_private_dir", None)
    monkeypatch.setattr(native.tempfile, "tempdir", str(tmp_path))
    path = native.build()
    assert path.is_file()
    assert path.parent.parent == tmp_path
    assert path.parent.name.startswith("repro-native-")


def _cells():
    ctx = FuzzProgram(draw_spec(3, FuzzKnobs(max_gadgets=3, iterations=60)))
    warm = ctx.workload.memory.warm_words()
    return [
        BatchCell(
            ctx.program, ctx.trace, config.replace(engine="batch"),
            hints=ctx.hints_for(mode), benchmark=ctx.spec.name,
            warm_words=warm,
        )
        for mode, config in (
            ("baseline", MachineConfig.baseline()),
            ("dualpath", MachineConfig.dualpath()),
            ("dmp", MachineConfig.dmp()),
        )
    ]


@pytest.mark.parametrize("failure", ("build", "no-compiler"))
def test_failed_build_falls_back_for_every_cell(failure, tmp_path,
                                                monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setattr(native, "_kernel", None)
    monkeypatch.setattr(native, "load_error", None)
    if failure == "build":
        def broken(command):
            raise subprocess.CalledProcessError(1, command)

        monkeypatch.setattr(native, "_compile", broken)
    else:
        monkeypatch.setattr(native.shutil, "which", lambda _name: None)
    cells = _cells()
    reasons = {}
    results = run_batch(cells, fallback_reasons=reasons)
    assert reasons == {native.UNAVAILABLE: len(cells)}
    assert native.load_error
    for cell, got in zip(cells, results):
        ref = simulate(
            cell.program, cell.trace,
            cell.config.replace(engine="reference"), hints=cell.hints,
            benchmark=cell.benchmark, warm_words=cell.warm_words,
        )
        assert dataclasses.asdict(got) == dataclasses.asdict(ref)
