"""Metamorphic invariants on fuzzed programs.

Differential tests compare the engines with each other; these compare a
machine with itself under a transformation whose effect is known.  A
dynamic-predication machine with no diverge hints has nothing to
predicate, so it must time every program exactly like the baseline
machine — on every engine.  A bug shared by all engines (a confidence
update leaking into timing, a hint-table lookup with side effects)
breaks this even though the engines still agree with each other.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.core.processors import simulate
from repro.fuzz import FuzzKnobs, draw_spec
from repro.fuzz.harness import FuzzProgram
from repro.isa.encoding import HintTable
from repro.uarch.config import MachineConfig

ENGINES = ("reference", "fast", "batch")

#: Smaller programs than the fuzz default: every drawn spec runs
#: 4 configs x 3 engines, the reference engine included.
_KNOBS = FuzzKnobs(max_gadgets=3, iterations=60)


def _fields(stats):
    out = dataclasses.asdict(stats)
    del out["config_description"]
    return out


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_predication_without_hints_is_baseline(seed):
    ctx = FuzzProgram(draw_spec(seed, _KNOBS))
    warm = ctx.workload.memory.warm_words()

    def run(config, hints=None):
        return _fields(simulate(
            ctx.program, ctx.trace, config, hints=hints,
            benchmark=ctx.spec.name, warm_words=warm,
        ))

    for engine in ENGINES:
        base = run(MachineConfig.baseline().replace(engine=engine))
        for config in (
            MachineConfig.dmp(),
            MachineConfig.dmp(enhanced=True),
            MachineConfig.dhp(),
        ):
            got = run(config.replace(engine=engine), HintTable())
            diff = sorted(k for k in base if base[k] != got[k])
            assert not diff, (
                f"{config.mode} with an empty hint table differs from "
                f"baseline on engine {engine!r} (seed {seed}): {diff}"
            )
