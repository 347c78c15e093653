"""Golden digests of the functional interpreter's output.

Each case runs one program through :class:`Interpreter` and hashes
everything the run produces: every trace record's (function, block
name, taken, mem_addrs), the trace counters, the final register file
and the final memory words.  The committed ``golden_traces.json`` pins
those digests, so any change to the interpreter that alters a trace,
a counter or the final architectural state fails
``test_golden_traces.py`` and names the program.

The cases are the 15 suite benchmarks at seeds 0 and 1, every program
in the committed fuzz corpus, and fuzz seeds 0-19.

Regenerate (and print what changed) from the repository root with::

    PYTHONPATH=src python -m tests.program.golden_traces
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
from typing import Callable, Dict, List, Tuple

from repro.fuzz import load_corpus, spec_from_dict
from repro.fuzz.generator import build_fuzz_workload, draw_spec
from repro.program.interpreter import Interpreter
from repro.program.memory import Memory
from repro.workloads.generator import Workload
from repro.workloads.suite import BENCHMARK_NAMES, build_benchmark

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_traces.json")
_CORPUS_DIR = os.path.join(
    os.path.dirname(os.path.dirname(__file__)), "fuzz", "corpus"
)

BENCHMARK_ITERATIONS = 20
BENCHMARK_SEEDS = (0, 1)
FUZZ_SEEDS = range(20)


def trace_digest(workload: Workload) -> str:
    """Run ``workload`` on a copy of its memory and hash the outcome."""
    memory = Memory()
    for address in workload.memory.warm_words():
        memory.store(address, workload.memory.load(address))
    interp = Interpreter(workload.program, memory=memory)
    trace = interp.run()
    h = hashlib.blake2b(digest_size=16)
    for record in trace.records:
        h.update(repr((record.function, record.block.name, record.taken,
                       record.mem_addrs)).encode())
    h.update(repr((
        trace.instruction_count, trace.branch_count, trace.taken_count,
        trace.load_count, trace.store_count,
    )).encode())
    h.update(repr(interp.registers.snapshot()).encode())
    memory = interp.memory
    h.update(repr([(a, memory.load(a)) for a in memory.warm_words()]).encode())
    return h.hexdigest()


def cases() -> List[Tuple[str, Callable[[], Workload]]]:
    """``(case id, workload builder)`` for every golden case."""
    out: List[Tuple[str, Callable[[], Workload]]] = []
    for name in BENCHMARK_NAMES:
        for seed in BENCHMARK_SEEDS:
            out.append((
                f"bench/{name}/seed{seed}",
                lambda n=name, s=seed: build_benchmark(
                    n, BENCHMARK_ITERATIONS, seed=s
                ),
            ))
    for entry in load_corpus(_CORPUS_DIR):
        out.append((
            f"corpus/{os.path.basename(entry['path'])}",
            lambda e=entry: build_fuzz_workload(spec_from_dict(e["spec"])),
        ))
    for seed in FUZZ_SEEDS:
        out.append((
            f"fuzz/seed{seed}",
            lambda s=seed: build_fuzz_workload(draw_spec(s)),
        ))
    return out


def load_golden() -> Dict[str, str]:
    with open(GOLDEN_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    old = load_golden() if os.path.exists(GOLDEN_PATH) else {}
    new = {case_id: trace_digest(build()) for case_id, build in cases()}
    changed = 0
    for case_id in sorted(set(old) | set(new)):
        before, after = old.get(case_id), new.get(case_id)
        if before != after:
            changed += 1
            print(f"{case_id}: {before} -> {after}")
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(new, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"{len(new)} cases, {changed} changed; wrote {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
