"""Build, cache and call the batch engine's native kernel (``kernel.c``).

The kernel is compiled on first use with the system C compiler (``cc``)
into a shared library and loaded through :mod:`ctypes`; nothing beyond
the standard library is needed.  The library is cached under
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

from array import array

#: The C source, shipped as package data.
KERNEL_SOURCE = Path(__file__).with_name("kernel.c")

#: Must equal ``REPRO_KERNEL_ABI`` in kernel.c.
ABI = 2

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
    "early_exits",
    "dpred_restarts",
    "nested_episodes",
)
_NOUT = len(STATS_FIELDS) + 7

#: ``Cell`` in kernel.c, field for field: configuration and sizes, then
#: the table pointers.
_SCALARS = (
    "dualpath", "predicating", "width", "maxb", "depth", "rob", "rw",
    "stops", "thresh", "path_limit", "keep_predicted_ghr",
    "early_exit", "multiple_diverge", "nested", "max_nested", "selective",
    "L", "K", "nsites", "nrec", "nwarm",
)
#: Program tables with their row counts: per block, per block row
#: (``L`` rows per block) or per row source (``K`` per row).
_PROGRAM_TABLES = (
    ("NROWS", "n"), ("NBODY", "n"), ("FPC", "n"), ("TERM", "n"),
    ("TAKEN", "n"), ("FALL", "n"), ("TARGET", "n"), ("CALLEE", "n"),
    ("SITE", "n"), ("PCT", "n"), ("JPC", "n"), ("RECONV", "n"),
    ("BRLAT", "n"), ("BRSRC", "nK"), ("RKIND", "nL"), ("RLAT", "nL"),
    ("RDEST", "nL"), ("RSRC", "nLK"), ("RMORD", "nL"),
)
_RECORD_TABLES = ("RBLK", "RTAKEN", "RM0")
_HINT_TABLES = ("hinted", "cfmoff", "cfmpcs", "expect")


class _Cell(ctypes.Structure):
    _fields_ = [(name, ctypes.c_int64) for name in _SCALARS] + [
        (name, ctypes.c_void_p)
        for name in (
            tuple(name for name, _ in _PROGRAM_TABLES) + _RECORD_TABLES
            + ("MADDR", "WARM") + _HINT_TABLES
        )
    ]


def _pointer(table: array, rows: Optional[int]) -> int:
    """The address of an arena table (``array.buffer_info``), after
    checking the layout the kernel indexes it by: 64-bit integers
    (typecode ``q``, or ``Q`` for memory addresses) with ``rows``
    entries (any number when ``rows`` is ``None``)."""
    if (
        not isinstance(table, array) or table.typecode not in "qQ"
        or table.itemsize != 8
        or (rows is not None and len(table) != rows)
    ):
        raise ValueError("native kernel: malformed arena table")
    # An empty table still gets a valid address (the kernel never reads
    # it, but pointer arithmetic on NULL is undefined behaviour).
    return (table if len(table) else _EMPTY).buffer_info()[0]


_EMPTY = array("q", [0])


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

    def run_cell(self, parena, tarena, warm, hints, scalars) -> list:
        """Simulate one cell; returns the kernel's counter vector.

        ``warm`` holds the words pre-loaded into the L2, ``hints`` is
        the ``(hinted, cfmoff, cfmpcs, expect)`` tuple of tables and
        ``scalars`` maps the configuration names of ``_SCALARS`` to
        ints.  The tables must stay alive for the call, which the
        caller's arenas guarantee."""
        cell = _Cell(**scalars)
        cell.L, cell.K, cell.nsites = parena.L, parena.K, parena.nsites
        cell.nrec, cell.nwarm = tarena.nrec, len(warm)
        n, L, K = parena.n, parena.L, parena.K
        rows = {"n": n, "nK": n * K, "nL": n * L, "nLK": n * L * K}
        for name, shape in _PROGRAM_TABLES:
            setattr(cell, name, _pointer(getattr(parena, name), rows[shape]))
        for name in _RECORD_TABLES:
            setattr(cell, name, _pointer(getattr(tarena, name), tarena.nrec))
        cell.MADDR = _pointer(tarena.MADDR, None)
        cell.WARM = _pointer(warm, None)
        for name, table, count in zip(
            _HINT_TABLES, hints, (n, n + 1, None, n)
        ):
            setattr(cell, name, _pointer(table, count))
        out = (ctypes.c_int64 * _NOUT)()
        if self._run(ctypes.byref(cell), out) != 0:
            raise MemoryError("native kernel: out of memory")
        return list(out)


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


def build(source: Path = KERNEL_SOURCE, cflags=CFLAGS) -> Path:
    """The compiled library for ``source``, compiling it only when the
    cache holds no library for this source and compile command.

    ``cflags`` replaces :data:`CFLAGS` (a test hook: the sanitizer job
    builds with ``-fsanitize=address,undefined``); it must still produce
    a shared library."""
    compiler = shutil.which("cc")
    if compiler is None:
        raise OSError("no C compiler (cc) on PATH")
    cflags = tuple(cflags)
    text = source.read_bytes()
    key = hashlib.sha256(text)
    key.update(" ".join(("cc",) + cflags).encode())
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
        _compile([compiler, *cflags, "-o", tmp, str(source)])
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
