"""The batch engine (``MachineConfig.engine="batch"``).

Public surface:

* :class:`BatchCell` — one (program, trace, config) simulation request.
* :func:`run_batch` — simulate a list of cells; cells inside the
  kernel's envelope run one at a time on a native C kernel
  (``kernel.c``, built on first use by :mod:`repro.uarch.batch.native`),
  the rest fall back to the fast engine.  Results are bit-identical to
  the reference engine either way (tests/core/test_engine_batch.py).
  The engine keeps no state between calls: every arena is built inside
  the call that uses it.
* :func:`cell_supported` — per-cell configuration envelope check with
  a human-readable reason for fallbacks.

The package needs only the standard library: arena tables are
``array.array`` buffers.  Without a C compiler every cell falls back to
the fast engine.  See docs/performance.md for the design and the
measured speedups.
"""

from repro.uarch.batch.engine import BatchCell, cell_supported, run_batch

__all__ = ["BatchCell", "cell_supported", "run_batch"]
