"""Process settings shared by run.py and record.py.

Imports only the standard library, so that run.py can time `import plap`
itself.  BLAS threads are pinned before numpy is imported.
"""

from __future__ import annotations

import ctypes
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
M_MMAP_THRESHOLD = -3                   # mallopt parameter, from glibc's malloc.h
M_MMAP_THRESHOLD_BYTES = 128 * 1024


def pin_mmap_threshold() -> int | None:
    """Fix glibc's mmap threshold at its initial 128 KiB.  glibc raises the
    threshold each time a large block is freed, after which large arrays come
    from the heap, and what the heap keeps then depends on the order and
    timing of earlier frees: the peak memory of one sparse run varied from 76
    to 91 MiB.  Fixed, every large array is mapped and unmapped on its own,
    and the peak is that of live memory.  Returns the threshold, or None where
    the C library is not glibc."""
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return None
    return M_MMAP_THRESHOLD_BYTES if mallopt(M_MMAP_THRESHOLD, M_MMAP_THRESHOLD_BYTES) else None


def configure() -> dict:
    """Pin PLAP_THREADS to at most nproc (2), BLAS to one thread and the
    malloc mmap threshold; put the checkout's src/ first on sys.path.
    Returns the settings used."""
    nproc = os.cpu_count() or 1
    os.environ["PLAP_THREADS"] = str(min(2, nproc))
    for var in BLAS_VARS:
        os.environ[var] = "1"
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    return {"nproc": nproc, "PLAP_THREADS": os.environ["PLAP_THREADS"],
            "blas_threads": {var: os.environ[var] for var in BLAS_VARS},
            "malloc_mmap_threshold": pin_mmap_threshold()}


def import_plap():
    """Import plap from this checkout's src/ or exit with status 2."""
    try:
        import plap
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import plap from {SRC}: {exc}")
    if not Path(plap.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: plap resolved to {plap.__file__}, not under {SRC}")
    return plap
