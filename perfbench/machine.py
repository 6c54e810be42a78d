"""Machine and run record written into every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

COMPLEX_BYTES = 16


def copy_gbps(num_qubits: int, repeats: int = 9) -> float:
    """numpy copy bandwidth, read plus write, for one state of num_qubits."""
    source = np.ones(2**num_qubits, dtype=complex)
    target = np.empty_like(source)
    batch = max(1, 2**22 // source.size)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(batch):
            np.copyto(target, source)
        times.append((time.perf_counter() - start) / batch)
    return 2 * source.nbytes / statistics.median(times) / 1e9


def openblas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy's wheel bundles, if it has one."""
    for path in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def llc_bytes() -> int | None:
    try:
        return int(os.sysconf(194)) or None  # _SC_LEVEL3_CACHE_SIZE in glibc
    except (ValueError, OSError):
        return None


def git_revision(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    result = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"], capture_output=True, text=True)
    return result.stdout.strip() or "unknown"


def record(root: Path, num_spins: int, sizes: dict[str, int]) -> dict:
    """Versions, cores, cache and copy bandwidth at each workload's state size."""
    llc = llc_bytes()
    state_bytes = COMPLEX_BYTES * 2**num_spins
    return {
        "git_revision": git_revision(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "openblas_threads": openblas_threads(),
        "llc_mib": llc / 2**20 if llc else None,
        "copy_gbps_by_workload": {name: copy_gbps(n) for name, n in sizes.items()},
        "state_mib": state_bytes / 2**20,
        "state_fits_llc": llc is not None and state_bytes <= llc,
        "note": (
            "a bandwidth array of 4x the LLC cannot be reached under the 24-qubit statevector "
            "limit in 8 GB, so backend.gate.gbps is a computed figure (2 x 16 B x 2^n per gate), "
            "and an in-cache one whenever state_fits_llc holds"
        ),
    }
