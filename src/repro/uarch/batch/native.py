"""Build, cache and call the batch engine's native kernel (``kernel.c``).

The kernel is compiled on first use with the system C compiler (``cc``)
into a shared library and loaded through :mod:`ctypes`; nothing beyond
the standard library and numpy is needed.  The library is cached under
``$XDG_CACHE_HOME/repro/native`` (``~/.cache/repro/native`` by default),
named by the SHA-256 of the C source plus the compile command, so an
edited kernel or another compiler invocation rebuilds while an unchanged
one never does.  A build writes to a temporary name and ``os.replace``\\ s
it into place, so parallel workers never load a half-written file; if
the cache directory is not writable the library goes to a private
temporary directory instead.

:func:`load` returns ``None`` when there is no compiler or the build or
load fails; :func:`repro.uarch.batch.run_batch` then runs every cell on
the fast engine under the :data:`UNAVAILABLE` fallback reason.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

#: The C source, shipped as package data.
KERNEL_SOURCE = Path(__file__).with_name("kernel.c")

#: Must equal ``REPRO_KERNEL_ABI`` in kernel.c.
ABI = 1

#: Compiler flags; the command (with these) is part of the cache key.
CFLAGS = ("-O2", "-shared", "-fPIC")

#: The ``run_batch`` fallback reason for every in-envelope cell when the
#: kernel cannot be built or loaded.
UNAVAILABLE = "native kernel unavailable (no C compiler, or the build failed)"

#: ``SimStats`` counters in the kernel's output order (``S_*`` in
#: kernel.c); the six Table 1 exit cases follow at index ``1 + case``
#: past the last of these.
STATS_FIELDS = (
    "cycles",
    "retired_branches",
    "mispredictions",
    "pipeline_flushes",
    "fetched_correct",
    "fetched_wrong_cd",
    "fetched_wrong_ci",
    "executed_instructions",
    "dualpath_forks",
    "dpred_entries",
    "extra_uops",
    "select_uops",
    "predicated_false_instructions",
    "load_wait_on_predicate",
)
_NOUT = len(STATS_FIELDS) + 7

#: ``Cell`` in kernel.c, field for field: configuration and sizes, then
#: the table pointers.
_SCALARS = (
    "dualpath", "predicating", "width", "maxb", "depth", "rob", "rw",
    "stops", "thresh", "path_limit", "keep_predicted_ghr",
    "L", "K", "nsites", "nrec", "nstores",
)
_PROGRAM_TABLES = (
    "NROWS", "NBODY", "FPC", "TERM", "TAKEN", "FALL", "TARGET", "CALLEE",
    "SITE", "PCT", "JPC", "RECONV", "BRLAT", "BRSRC",
    "RKIND", "RLAT", "RDEST", "RSRC", "RLORD", "RSTORD",
)
_RECORD_TABLES = (
    "RBLK", "REXTRA", "RTAKEN", "RL0", "RS0", "RUNDER", "RNODE", "RFPC",
)
_TRACE_TABLES = ("LLAT", "LFWD", "NODEPAR", "NODERET")
_HINT_TABLES = ("hinted", "cfmoff", "cfmpcs")


class _Cell(ctypes.Structure):
    _fields_ = [(name, ctypes.c_int64) for name in _SCALARS] + [
        (name, ctypes.c_void_p)
        for name in (
            _PROGRAM_TABLES + _RECORD_TABLES + _TRACE_TABLES + _HINT_TABLES
        )
    ]


def _pointer(table: np.ndarray, rows: int) -> int:
    """The address of an arena table, after checking the layout the
    kernel indexes it by: C-contiguous int64 with ``rows`` rows (any
    number when ``rows`` is ``None``)."""
    if (
        table.dtype != np.int64 or not table.flags.c_contiguous
        or (rows is not None and len(table) != rows)
    ):
        raise ValueError("native kernel: malformed arena table")
    return table.ctypes.data


class Kernel:
    """The loaded library."""

    def __init__(self, path: Path) -> None:
        lib = ctypes.CDLL(str(path))
        lib.repro_kernel_abi.argtypes = ()
        lib.repro_kernel_abi.restype = ctypes.c_int
        if lib.repro_kernel_abi() != ABI:
            raise OSError(f"{path}: kernel ABI mismatch")
        lib.repro_run_cell.argtypes = (
            ctypes.POINTER(_Cell), ctypes.c_void_p,
        )
        lib.repro_run_cell.restype = ctypes.c_int
        self._run = lib.repro_run_cell

    def run_cell(self, parena, tarena, hints, scalars) -> np.ndarray:
        """Simulate one cell; returns the kernel's counter vector.

        ``hints`` is the ``(hinted, cfmoff, cfmpcs)`` triple of int64
        arrays and ``scalars`` maps the configuration names of
        ``_SCALARS`` to ints.  The arrays must stay alive for the call,
        which the caller's arenas guarantee."""
        cell = _Cell(**scalars)
        cell.L, cell.K, cell.nsites = parena.L, parena.K, parena.nsites
        cell.nrec, cell.nstores = tarena.nrec, tarena.nstores
        n = parena.n
        for name in _PROGRAM_TABLES:
            setattr(cell, name, _pointer(getattr(parena, name), n))
        for name in _RECORD_TABLES:
            setattr(cell, name, _pointer(getattr(tarena, name), tarena.nrec))
        for name in _TRACE_TABLES:
            setattr(cell, name, _pointer(getattr(tarena, name), None))
        for name, table, rows in zip(_HINT_TABLES, hints, (n, n + 1, None)):
            setattr(cell, name, _pointer(table, rows))
        out = np.zeros(_NOUT, np.int64)
        if self._run(ctypes.byref(cell), out.ctypes.data) != 0:
            raise MemoryError("native kernel: out of memory")
        return out


def cache_dir() -> Path:
    """Where compiled kernels are cached."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro" / "native"


def _compile(command) -> None:
    """Run one compiler command (the seam the tests monkeypatch)."""
    subprocess.run(command, check=True, capture_output=True)


_private_dir: Optional[Path] = None


def _writable_dir() -> Path:
    global _private_dir
    directory = cache_dir()
    try:
        directory.mkdir(parents=True, exist_ok=True)
        if os.access(directory, os.W_OK):
            return directory
    except OSError:
        pass
    if _private_dir is None:
        _private_dir = Path(tempfile.mkdtemp(prefix="repro-native-"))
    return _private_dir


def build(source: Path = KERNEL_SOURCE) -> Path:
    """The compiled library for ``source``, compiling it only when the
    cache holds no library for this source and compile command."""
    compiler = shutil.which("cc")
    if compiler is None:
        raise OSError("no C compiler (cc) on PATH")
    text = source.read_bytes()
    key = hashlib.sha256(text)
    key.update(" ".join(("cc",) + CFLAGS).encode())
    name = f"kernel-{key.hexdigest()}.so"
    cached = cache_dir() / name
    if cached.is_file():
        return cached
    directory = _writable_dir()
    path = directory / name
    if path.is_file():
        return path
    fd, tmp = tempfile.mkstemp(prefix=f".{name}.", dir=directory)
    os.close(fd)
    try:
        _compile([compiler, *CFLAGS, "-o", tmp, str(source)])
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


#: The process-wide kernel, or the error that prevented loading it.
_kernel: Optional[Kernel] = None
load_error: Optional[str] = None


def load() -> Optional[Kernel]:
    """The kernel, built and loaded on the first call; ``None`` (with
    :data:`load_error` set) when that is impossible.  The outcome is
    remembered for the life of the process."""
    global _kernel, load_error
    if _kernel is None and load_error is None:
        try:
            _kernel = Kernel(build())
        except (OSError, subprocess.SubprocessError) as exc:
            load_error = f"{type(exc).__name__}: {exc}"
    return _kernel
