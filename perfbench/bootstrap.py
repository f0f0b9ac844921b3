"""Process set-up shared by the benchmark's entry points.

Import this before numpy: it caps the BLAS thread pool at the CPUs this
process may run on, and puts the checkout's own `src/` first on the import
path so the benchmark measures the code next to it, never an installed copy.
"""
from __future__ import annotations

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _blas_threads() -> int:
    try:
        requested = int(os.environ.get("OPENBLAS_NUM_THREADS", ""))
    except ValueError:
        requested = NPROC
    return max(1, min(requested, NPROC))


BLAS_THREADS = _blas_threads()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)


class MissingProgram(RuntimeError):
    """The checkout has no mczsl sources next to the benchmark."""


def import_library():
    """Import mczsl from ROOT/src; raise MissingProgram if it is not there."""
    if not (SRC / "mczsl" / "__init__.py").is_file():
        raise MissingProgram(f"no mczsl package under {SRC}")
    sys.path.insert(0, str(SRC))
    import mczsl

    if Path(mczsl.__file__).resolve().parent != (SRC / "mczsl").resolve():
        raise MissingProgram(f"mczsl imported from {mczsl.__file__}, not from {SRC}")
    return mczsl
