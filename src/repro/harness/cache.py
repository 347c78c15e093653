"""Persistent, content-addressed artifact cache for the harness.

Sweeping many machine configurations over many benchmarks (every figure
of the paper) repeats two kinds of expensive work: machine-independent
artifact generation (functional trace, profile, hint tables) and the
timing simulations themselves.  :class:`ArtifactCache` persists both to
disk, keyed by the canonical fingerprints of
:mod:`repro.harness.fingerprint` — never by ``repr()``.

Layout (see docs/performance.md)::

    <root>/<kind>/<fingerprint>.bin

where ``kind`` is one of ``trace``, ``profile``, ``hints-dmp``,
``hints-dhp``, ``hints-wish`` or ``sim``.  Every file carries a magic
header and a SHA-256 checksum of its payload; a truncated, bit-flipped
or otherwise corrupt entry is *detected, discarded and recomputed* — it
reuses the :class:`~repro.errors.HintValidationError` pathway
internally and never silently feeds bad data back into a run.  Hint
tables are stored in their existing compact byte encoding
(:meth:`~repro.isa.encoding.HintTable.to_bytes`), whose hardened loader
performs its own structural validation on top of the checksum.

Writes are atomic (temp file + ``os.replace``), so concurrent processes
sharing a cache directory can only ever observe complete entries.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import pickle
import tempfile
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.errors import HintValidationError
from repro.isa.encoding import HintTable

#: File magic for cache entries; the trailing byte is the entry-format
#: version (bump on incompatible layout changes).
_MAGIC = b"DMPC\x01"
_DIGEST_SIZE = hashlib.sha256().digest_size


@dataclasses.dataclass
class CacheCounters:
    """Hit/miss/corruption accounting, per artifact kind."""

    hits: Dict[str, int] = dataclasses.field(default_factory=dict)
    misses: Dict[str, int] = dataclasses.field(default_factory=dict)
    stores: int = 0
    #: Entries that failed the checksum / decode / hint validation and
    #: were deleted so the artifact gets recomputed.
    corrupt_discarded: int = 0

    @property
    def total_hits(self) -> int:
        return sum(self.hits.values())

    @property
    def total_misses(self) -> int:
        return sum(self.misses.values())

    def record_hit(self, kind: str) -> None:
        self.hits[kind] = self.hits.get(kind, 0) + 1

    def record_miss(self, kind: str) -> None:
        self.misses[kind] = self.misses.get(kind, 0) + 1

    def absorb(self, other: "CacheCounters") -> None:
        """Add another process's counts (a pool worker's)."""
        for kind, count in other.hits.items():
            self.hits[kind] = self.hits.get(kind, 0) + count
        for kind, count in other.misses.items():
            self.misses[kind] = self.misses.get(kind, 0) + count
        self.stores += other.stores
        self.corrupt_discarded += other.corrupt_discarded

    def summary(self) -> str:
        kinds = sorted(set(self.hits) | set(self.misses))
        parts = [
            f"{kind}={self.hits.get(kind, 0)}/{self.hits.get(kind, 0) + self.misses.get(kind, 0)}"
            for kind in kinds
        ]
        line = (
            f"cache: {self.total_hits} hit(s), {self.total_misses} miss(es), "
            f"{self.stores} store(s), {self.corrupt_discarded} corrupt discarded"
        )
        if parts:
            line += "\n  per kind (hits/lookups): " + "  ".join(parts)
        return line


class ArtifactCache:
    """Content-addressed on-disk cache of harness artifacts."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root).expanduser()
        self.counters = CacheCounters()

    @classmethod
    def resolve(
        cls, cache: Union[None, str, Path, "ArtifactCache"]
    ) -> Optional["ArtifactCache"]:
        """Accept ``None``, a directory path, or an existing cache."""
        if cache is None or isinstance(cache, ArtifactCache):
            return cache
        return cls(cache)

    # -- raw entries ------------------------------------------------------

    def _path(self, kind: str, key: str) -> Path:
        return self.root / kind / f"{key}.bin"

    def store_bytes(self, kind: str, key: str, payload: bytes) -> None:
        path = self._path(kind, key)
        path.parent.mkdir(parents=True, exist_ok=True)
        blob = _MAGIC + hashlib.sha256(payload).digest() + payload
        fd, tmp = tempfile.mkstemp(
            prefix=f".{key[:16]}-", suffix=".tmp", dir=path.parent
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(blob)
            os.replace(tmp, path)  # atomic: readers never see a partial entry
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.counters.stores += 1

    def load_bytes(self, kind: str, key: str) -> Optional[bytes]:
        """The stored payload, or ``None`` on miss *or* corruption.

        Corruption (truncation, bad magic, checksum mismatch) is counted,
        the entry deleted, and ``None`` returned so the caller recomputes
        — the same detect-and-recover contract the hardened hint loader
        provides (:class:`~repro.errors.HintValidationError`)."""
        path = self._path(kind, key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self.counters.record_miss(kind)
            return None
        try:
            payload = self._decode(blob, kind=kind, key=key)
        except HintValidationError:
            self.mark_corrupt(kind, key, had_hit=False)
            return None
        self.counters.record_hit(kind)
        return payload

    @staticmethod
    def _decode(blob: bytes, kind: str, key: str) -> bytes:
        header = len(_MAGIC) + _DIGEST_SIZE
        if len(blob) < header:
            raise HintValidationError(
                [f"cache entry {kind}/{key} truncated below its header"]
            )
        if blob[: len(_MAGIC)] != _MAGIC:
            raise HintValidationError(
                [f"cache entry {kind}/{key} has wrong magic"]
            )
        digest = blob[len(_MAGIC): header]
        payload = blob[header:]
        if hashlib.sha256(payload).digest() != digest:
            raise HintValidationError(
                [f"cache entry {kind}/{key} failed its checksum"]
            )
        return payload

    def discard(self, kind: str, key: str) -> None:
        """Delete one entry (missing is fine)."""
        try:
            self._path(kind, key).unlink()
        except FileNotFoundError:
            pass

    def mark_corrupt(self, kind: str, key: str, had_hit: bool = True) -> None:
        """Discard a corrupt/undecodable entry and fix the accounting:
        a previously-recorded hit (``had_hit``) becomes a miss, and the
        corruption is counted so ``--timings`` surfaces it."""
        if had_hit:
            self.counters.hits[kind] -= 1
        self.counters.record_miss(kind)
        self.counters.corrupt_discarded += 1
        self.discard(kind, key)

    # -- typed entries ----------------------------------------------------

    def store_pickle(self, kind: str, key: str, obj: Any) -> None:
        self.store_bytes(kind, key, pickle.dumps(obj, protocol=4))

    def load_pickle(self, kind: str, key: str) -> Optional[Any]:
        payload = self.load_bytes(kind, key)
        if payload is None:
            return None
        try:
            return pickle.loads(payload)
        except Exception:
            # Checksum passed but the pickle does not decode (e.g. the
            # repo's classes changed shape): stale, not just corrupt —
            # same recovery: drop it and recompute.
            self.mark_corrupt(kind, key)
            return None

    def store_hints(self, kind: str, key: str, table: HintTable) -> None:
        self.store_bytes(kind, key, table.to_bytes())

    def load_hints(self, kind: str, key: str) -> Optional[HintTable]:
        """Load a hint table through the hardened byte decoder.

        A payload that passes the checksum but fails
        :meth:`HintTable.from_bytes` structural validation is discarded
        and recomputed, exactly like a checksum failure."""
        payload = self.load_bytes(kind, key)
        if payload is None:
            return None
        try:
            return HintTable.from_bytes(payload)
        except HintValidationError:
            self.mark_corrupt(kind, key)
            return None
