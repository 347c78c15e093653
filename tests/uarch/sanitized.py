"""Run pytest or the ``repro`` CLI on a sanitizer-instrumented kernel.

The batch engine's C kernel reads the arena tables through raw
pointers.  This module builds it with AddressSanitizer and
UndefinedBehaviorSanitizer (:data:`SANITIZE_CFLAGS`, through the
``native.build(cflags=...)`` hook), installs it as the process-wide
kernel, then hands the remaining arguments to pytest or to the CLI.
The sanitizer runtimes must be preloaded, because the Python
interpreter itself is not instrumented; leak detection stays off, since
the interpreter does not free everything at exit.  From the repository
root, with gcc::

    export LD_PRELOAD="$(gcc -print-file-name=libasan.so) \\
        $(gcc -print-file-name=libubsan.so)"
    export ASAN_OPTIONS=detect_leaks=0
    PYTHONPATH=src python -m tests.uarch.sanitized pytest -q \\
        --capture=sys tests/core/test_engine_batch.py
    PYTHONPATH=src python -m tests.uarch.sanitized repro fuzz \\
        --seeds 0:20 --engines reference,batch --no-harden

Any sanitizer report aborts the process with a non-zero status;
``--capture=sys`` keeps pytest's file-descriptor capture from
swallowing the report.
"""

from __future__ import annotations

import sys
from typing import List

#: Compile flags of the instrumented build; ``-fno-sanitize-recover``
#: makes undefined behaviour fatal instead of a warning.
SANITIZE_CFLAGS = (
    "-O1", "-g", "-fno-omit-frame-pointer",
    "-fsanitize=address,undefined", "-fno-sanitize-recover=undefined",
    "-shared", "-fPIC",
)


def main(argv: List[str]) -> int:
    if not argv or argv[0] not in ("pytest", "repro"):
        print("usage: python -m tests.uarch.sanitized {pytest|repro} ARGS...",
              file=sys.stderr)
        return 2
    from repro.uarch.batch import native

    native._kernel = native.Kernel(native.build(cflags=SANITIZE_CFLAGS))
    if argv[0] == "pytest":
        import pytest

        return int(pytest.main(argv[1:]))
    from repro.cli import main as repro_main

    return repro_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
