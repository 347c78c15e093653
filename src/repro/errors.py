"""Structured exception hierarchy for the reproduction toolkit.

Every failure the toolkit raises deliberately derives from
:class:`ReproError`, so harness drivers and the CLI can separate "the
simulator detected a problem and stopped safely" from genuine bugs
(which surface as ordinary Python exceptions and should crash loudly).

Hierarchy::

    ReproError
    ├── SimulationError          a timing-simulator run went wrong
    │   ├── SimulationHangError  the watchdog bounded a hung run
    │   └── CfmError             the CFM CAM was driven with an
    │                            impossible candidate set (also a
    │                            ValueError, like the raw raise it
    │                            replaced)
    ├── OracleMismatchError      timing run diverged from the functional
    │                            trace / a dpred invariant was violated
    ├── TraceValidationError     a JSONL event trace failed schema
    │                            validation or did not reconcile with
    │                            its run's stats (repro.obs)
    ├── ExecutionLimitExceeded   the functional interpreter ran past its
    │                            instruction budget (defined in
    │                            repro.program.interpreter; also a
    │                            RuntimeError, as it always was)
    └── HintValidationError      a hint table failed static validation
                                 (also a ValueError, for backward
                                 compatibility with the old loader)

See docs/robustness.md for how these are used by the oracle checker,
the watchdog and the fault-injection harness.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional


class ReproError(Exception):
    """Base class for every deliberate failure in the toolkit."""


class SimulationError(ReproError):
    """A timing-simulator run failed in a detectable, bounded way."""


class _DiagnosticMixin:
    """Carries a structured diagnostics dict alongside the message."""

    def __init__(self, message: str, diagnostics: Optional[Dict] = None):
        super().__init__(message)
        self.diagnostics: Dict = dict(diagnostics or {})

    def report(self) -> Dict:
        """The structured diagnostics (copy), for logging/JSON output."""
        return dict(self.diagnostics)

    def __str__(self) -> str:
        base = super().__str__()
        if not self.diagnostics:
            return base
        detail = ", ".join(
            f"{key}={value!r}" for key, value in sorted(self.diagnostics.items())
        )
        return f"{base} [{detail}]"


class SimulationHangError(_DiagnosticMixin, SimulationError):
    """The watchdog tripped: the run exceeded its cycle budget or made no
    forward progress.  ``diagnostics`` carries the machine state at the
    trip point (pc, mode, dpred nesting, last-retired instruction, cycle
    and the limit that was exceeded)."""


class CfmError(SimulationError, ValueError):
    """The CFM CAM was driven with an impossible candidate set or lock
    request.  The engines' shared no-episode fallback declines degenerate
    hints before a CAM is ever built, so reaching this raise means a bug
    (or a deliberately hostile caller in the fault-injection tests).
    Subclasses :class:`ValueError` because it replaces a raw one.
    """


class OracleMismatchError(_DiagnosticMixin, ReproError):
    """The oracle cross-checker found the timing run inconsistent with
    the functional trace, or a dynamic-predication invariant violated."""


class TraceValidationError(ReproError):
    """A structured event trace (``repro.obs`` JSONL) is malformed,
    truncated, or inconsistent with the stats of the run it records."""


class HintValidationError(ReproError, ValueError):
    """A hint table failed static validation against its program.

    ``issues`` lists every individual problem found.  Subclasses
    :class:`ValueError` so pre-existing callers of
    :meth:`~repro.isa.encoding.HintTable.from_bytes` that catch
    ``ValueError`` keep working.
    """

    def __init__(self, issues: Iterable[str]):
        self.issues = [str(issue) for issue in issues]
        count = len(self.issues)
        summary = "; ".join(self.issues[:5])
        if count > 5:
            summary += f"; ... ({count - 5} more)"
        super().__init__(f"{count} hint validation issue(s): {summary}")
