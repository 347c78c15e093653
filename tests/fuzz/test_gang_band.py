"""The ``dmp-gang`` fuzz band: one program across many machine sizings.

The per-mode differential matrix runs one cell per ``run_batch`` call.
The band fans a single fuzz program across :data:`GANG_SIZINGS` machine
sizings in one call, so the cells share the call's program and trace
arenas; these tests pin that the band keeps every cell on the native
kernel, that the cells really run dpred episodes there, and that every
cell stays bit-identical to the reference engine.
"""

import pytest

from repro.fuzz import FuzzKnobs, check_spec, draw_spec
from repro.fuzz.harness import GANG_MODE, GANG_SIZINGS, FuzzProgram
from repro.uarch.config import MachineConfig

np = pytest.importorskip("numpy")

from repro.uarch.batch import BatchCell, run_batch  # noqa: E402

#: Seeds probed for a program that earns diverge hints.  The generator
#: is deterministic, so the first qualifying seed is stable across runs.
_PROBE_SEEDS = range(24)


def _band_cells(ctx: FuzzProgram):
    hints = ctx.hints_for(GANG_MODE)
    warm = ctx.workload.memory.warm_words()
    return [
        BatchCell(
            ctx.program,
            ctx.trace,
            MachineConfig.dmp().replace(
                engine="batch", fetch_width=width, pipeline_depth=depth,
                rob_size=rob, retire_width=retire,
            ),
            hints=hints,
            benchmark=ctx.spec.name,
            warm_words=warm,
        )
        for (width, depth, rob, retire) in GANG_SIZINGS
    ]


@pytest.fixture(scope="module")
def band_spec():
    """The first probe seed whose 16 cells stay on the native kernel
    and run dpred episodes there."""
    for seed in _PROBE_SEEDS:
        spec = draw_spec(seed, FuzzKnobs())
        ctx = FuzzProgram(spec)
        fallback_reasons = {}
        profile = {}
        try:
            results = run_batch(
                _band_cells(ctx),
                fallback_reasons=fallback_reasons,
                profile=profile,
            )
        except Exception:
            continue
        entries = sum(r.dpred_entries for r in results)
        if not fallback_reasons and entries > 0:
            return spec, entries, profile, fallback_reasons
    pytest.fail(
        f"no probe seed in {_PROBE_SEEDS} ran dpred episodes on the "
        f"native kernel — the dmp-gang band would be exercising nothing"
    )


def test_band_runs_dpred_episodes_on_the_vector_path(band_spec):
    _, entries, profile, _ = band_spec
    assert entries > 0
    assert profile["step_loop"] > 0, profile


def test_band_lanes_stay_on_the_vector_path(band_spec):
    # A plain-dmp sizing that falls outside the kernel's envelope would
    # turn the band into a fast-engine self-comparison; the chosen seed
    # must keep every cell on the kernel.
    _, _, _, fallback_reasons = band_spec
    assert fallback_reasons == {}, fallback_reasons


def test_band_is_clean_against_the_reference_engine(band_spec):
    spec, _, _, _ = band_spec
    findings = check_spec(spec, modes=(GANG_MODE,), harden=False)
    assert findings == [], [f.summary() for f in findings]
