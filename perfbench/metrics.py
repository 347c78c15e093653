"""Pure helpers of the benchmark: names, digests, span arithmetic, summaries.

Nothing here imports the simulator, so the unit tests in ``tests/`` run
without building a single workload.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

#: Metric names: a letter or digit, then up to 63 letters, digits, ``_``,
#: ``.`` and ``-``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Units: 1 to 16 letters, digits, ``_``, ``/``, ``%``, ``.`` and ``-``.
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_name(name: str) -> str:
    """``name`` if it is a valid metric or workload name, else ValueError."""
    if not isinstance(name, str) or not NAME_RE.fullmatch(name):
        raise ValueError(f"bad metric name {name!r}")
    return name


def check_unit(unit: str) -> str:
    """``unit`` if it is a valid unit, else ValueError."""
    if not isinstance(unit, str) or not UNIT_RE.fullmatch(unit):
        raise ValueError(f"bad unit {unit!r}")
    return unit


# -- digests -----------------------------------------------------------------


def canonical_stats(stats) -> Dict:
    """A SimStats (or any dataclass) as a JSON-ready dict with sorted,
    string keys — the form the digest hashes."""
    return json.loads(json.dumps(dataclasses.asdict(stats), sort_keys=True))


def stats_digest(cells: Iterable[Tuple[str, object]]) -> str:
    """blake2b-128 hex digest of ``(cell key, SimStats)`` pairs.

    Cells are hashed in key order, so the digest depends only on which
    cells ran and what they produced, never on execution order."""
    hasher = hashlib.blake2b(digest_size=16)
    for key, stats in sorted(cells, key=lambda kv: kv[0]):
        blob = json.dumps(
            [key, canonical_stats(stats)], sort_keys=True,
            separators=(",", ":"),
        )
        hasher.update(blob.encode("utf-8"))
        hasher.update(b"\n")
    return hasher.hexdigest()


def sample_keys(keys: Iterable[str], seed: int, count: int) -> List[str]:
    """A deterministic, seed-dependent sample of ``count`` keys (those
    with the smallest seeded hash), returned in sorted order."""
    def rank(key: str) -> str:
        return hashlib.blake2b(
            f"{seed}:{key}".encode("utf-8"), digest_size=8
        ).hexdigest()

    return sorted(sorted(set(keys), key=rank)[:count])


# -- spans ---------------------------------------------------------------------


@dataclasses.dataclass
class Span:
    """One timed call into a layer; ``parent`` is the index of the span
    that was open when this one started (-1 at top level)."""

    layer: str
    start: float
    end: float
    parent: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> List[float]:
    """Each span's duration minus the time covered by its direct
    children (spans nest strictly: a child lies inside its parent)."""
    out = [span.duration for span in spans]
    for span in spans:
        if span.parent >= 0:
            out[span.parent] -= span.duration
    return out


def layer_self_seconds(spans: Sequence[Span]) -> Dict[str, float]:
    """Self time summed per layer name."""
    totals: Dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def residual(wall: float, layer_seconds: Mapping[str, float]) -> float:
    """Wall time no layer span covers: ``wall - sum(self times)``.

    Self times of strictly nested spans never overlap, so the layer
    seconds plus this residual add up to ``wall`` exactly."""
    return wall - sum(layer_seconds.values())


# -- summaries -------------------------------------------------------------------


def mean_ipc_gain_pct(pairs: Iterable[Tuple[object, object]]) -> float:
    """Mean % IPC gain of each ``(base, arm)`` SimStats pair (0 for no
    pairs: a round that failed outright)."""
    gains = [100.0 * (arm.ipc / base.ipc - 1.0) for base, arm in pairs]
    return sum(gains) / len(gains) if gains else 0.0


def flush_reduction_pct(pairs: Iterable[Tuple[object, object]]) -> float:
    """Mean % fewer pipeline flushes in the arm than in base, per pair —
    the repo's Fig 11 arithmetic mean, where a pair whose base never
    flushes counts as 0."""
    cuts = [
        100.0 * (1.0 - arm.pipeline_flushes / base.pipeline_flushes)
        if base.pipeline_flushes else 0.0
        for base, arm in pairs
    ]
    return sum(cuts) / len(cuts) if cuts else 0.0
