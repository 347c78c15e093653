"""Golden ``SimStats`` for a small grid, pinned independently of any engine.

The differential tests only compare engines with each other, so a bug
shared by every engine (predictors, caches, profiler, selection) or a
refactor that drifts them all at once goes unseen there.  This grid
pins the simulated results themselves: the 8 fuzz-matrix machine modes
(:func:`repro.fuzz.harness.mode_configs`) on three suite benchmarks at
40 iterations and on every program of the committed fuzz corpus.  Hint
tables come from the fuzz harness's per-mode derivation
(:class:`repro.fuzz.harness.FuzzProgram`) for every program.

The committed ``golden_stats.json`` holds each cell's full ``SimStats``
as produced by the reference engine; ``test_golden_stats.py`` checks
the reference and fast engines per cell and the batch engine as one
``run_batch`` group.

Regenerate (and print every changed field) from the repository root
with::

    PYTHONPATH=src python -m tests.core.golden_stats
"""

from __future__ import annotations

import dataclasses
import json
import os
import sys
from typing import Dict, List, Tuple

from repro.core.processors import simulate
from repro.fuzz import load_corpus, spec_from_dict
from repro.fuzz.harness import FuzzProgram, mode_configs
from repro.uarch.config import MachineConfig
from repro.workloads.suite import build_benchmark

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_stats.json")
_CORPUS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "fuzz", "corpus"
)

BENCHMARKS = ("parser", "gzip", "mcf")
ITERATIONS = 40


class _BenchmarkProgram(FuzzProgram):
    """A suite benchmark behind the fuzz harness's per-mode hints."""

    def __init__(self, name: str) -> None:
        super().__init__(spec=None)
        self.name = name
        self._workload = build_benchmark(name, ITERATIONS, seed=0)


def programs() -> List[Tuple[str, FuzzProgram]]:
    """``(program id, program)`` for every program of the grid."""
    out: List[Tuple[str, FuzzProgram]] = [
        (f"bench/{name}", _BenchmarkProgram(name)) for name in BENCHMARKS
    ]
    for entry in load_corpus(_CORPUS_DIR):
        spec = spec_from_dict(entry["spec"])
        out.append((
            f"corpus/{os.path.basename(entry['path'])}", FuzzProgram(spec)
        ))
    return out


def cells() -> List[Tuple[str, FuzzProgram, str, MachineConfig]]:
    """``(cell id, program, mode, config)`` for every golden cell."""
    configs = mode_configs()
    return [
        (f"{pid}/{mode}", program, mode, config)
        for pid, program in programs()
        for mode, config in configs.items()
    ]


def cell_kwargs(program: FuzzProgram, mode: str) -> Dict[str, object]:
    """The ``simulate``/``BatchCell`` keyword arguments of one cell."""
    return {
        "hints": program.hints_for(mode),
        "benchmark": program.spec.name if program.spec else program.name,
        "warm_words": program.workload.memory.warm_words(),
    }


def run_cell(program: FuzzProgram, mode: str, config: MachineConfig,
             engine: str):
    return simulate(
        program.program, program.trace, config.replace(engine=engine),
        **cell_kwargs(program, mode),
    )


def stats_json(stats) -> Dict[str, object]:
    """``SimStats`` as it reads back from JSON (int dict keys become
    strings), so fresh and committed stats compare field for field."""
    return json.loads(json.dumps(dataclasses.asdict(stats), sort_keys=True))


def load_golden() -> Dict[str, Dict[str, object]]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    old = load_golden() if os.path.exists(GOLDEN_PATH) else {}
    new = {
        cell_id: stats_json(run_cell(program, mode, config, "reference"))
        for cell_id, program, mode, config in cells()
    }
    changed = 0
    for cell_id in sorted(set(old) | set(new)):
        before, after = old.get(cell_id), new.get(cell_id)
        if before == after:
            continue
        changed += 1
        if before is None or after is None:
            print(f"{cell_id}: {'added' if before is None else 'removed'}")
            continue
        for field in sorted(set(before) | set(after)):
            if before.get(field) != after.get(field):
                print(f"{cell_id}: {field} {before.get(field)!r} -> "
                      f"{after.get(field)!r}")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(new, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"{len(new)} cells, {changed} changed; wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
