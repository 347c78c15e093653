"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload suite --seed 0 --seconds 30 --trace 0

``--workload`` is ``suite``, ``sweep`` or ``fuzz`` (see README.md).  The
run repeats the workload in rounds, each from freshly generated inputs,
one after another, until ``--seconds`` of measurement are spent (at least
one round), then checks the outputs.  A fixed calibration loop timed
before and after every round gives the host's current speed, and the
end-to-end times are reported in reference-speed seconds (README.md,
"Host speed").  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics, in plain host seconds.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

#: Input generations per run at the least, so that ``setup_s`` is a
#: median even when a single round fills ``--seconds``.
SETUP_REPEATS = 3

#: Iterations of the calibration loop, and the seconds it takes at the
#: reference speed: a quiet core of the 2-core x86-64 container the
#: benchmark was tuned on (Python 3.11).
CAL_ITERATIONS = 2_000_000
CAL_REFERENCE_S = 0.11


def _import_simulator() -> None:
    """Put this checkout's ``src`` first on the path and make sure the
    simulator really comes from there, never from an installed copy."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: simulator source not found at {package}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve() != package.resolve():
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {package}"
        )


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _calibrate() -> float:
    """How many times slower than the reference speed the host runs a
    fixed pure-Python loop right now."""
    t0 = time.perf_counter()
    total = 0
    for k in range(CAL_ITERATIONS):
        total += k * k
    return (time.perf_counter() - t0) / CAL_REFERENCE_S


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def main(argv=None) -> int:
    args = _parse(argv)
    _import_simulator()
    import report
    from layers import LayerTracer
    from metrics import stats_digest
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"expected one of {sorted(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]()
    import_s = time.perf_counter() - _PROCESS_T0

    gens, walls, rounds, digests = [], [], [], []
    raw_walls, slowdowns = [], []
    untraced = []  # host seconds of input generation + wall, per round
    traced = []  # (traced seconds, tracer, round)
    loop_t0 = time.perf_counter()
    slowdown = _calibrate()
    import_s /= slowdown
    for _ in range(SETUP_REPEATS - 1):
        gens.append(_timed(workload.inputs, args.seed)[0] / slowdown)
    while True:
        inputs = None  # let the previous round's inputs go first
        before = _calibrate()
        gen, inputs = _timed(workload.inputs, args.seed)
        wall, done = _timed(workload.run, inputs)
        slowdown = (before + _calibrate()) / 2
        gens.append(gen / before)
        walls.append(wall / slowdown)
        raw_walls.append(wall)
        slowdowns.append(slowdown)
        untraced.append(gen + wall)
        rounds.append(done)
        digests.append(stats_digest(done.cells.items()))
        if args.trace:
            inputs = None
            tracer = LayerTracer()
            with tracer.installed():
                t0 = time.perf_counter()
                inputs = workload.inputs(args.seed)
                traced_round = workload.run(inputs)
                traced_s = time.perf_counter() - t0
            traced.append((traced_s, tracer, traced_round))
            digests.append(stats_digest(traced_round.cells.items()))
        spent = time.perf_counter() - loop_t0
        if spent * (len(walls) + 1) / len(walls) > args.seconds:
            break
    check_failed = workload.check(inputs, rounds[-1])

    first = rounds[0]
    failed = min(
        first.attempted,
        max(r.failed for r in rounds + [t[2] for t in traced]) + check_failed,
    )
    deterministic = len(set(digests)) == 1
    correct = failed == 0 and deterministic and bool(first.cells)
    wall_s = median(walls)
    e2e = report.end_to_end(
        first,
        wall_s=wall_s,
        setup_s=import_s + median(gens),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    report.print_header(args, raw_walls, slowdowns, gens, import_s,
                        digests[0], deterministic, first, failed)
    report.print_metrics(e2e, report.END_TO_END)
    report.print_simulated(report.simulated(first), workload)
    if args.trace:
        layer = report.per_layer(traced, untraced, rounds)
        report.print_spans(report.median_traced(traced)[1])
        report.print_metrics(layer, report.PER_LAYER)
        metrics = layer
        table = report.PER_LAYER
    else:
        metrics = e2e
        table = report.END_TO_END
    print(json.dumps({
        "correct": correct,
        "attempted": first.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit, _kind in table
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
