"""Machine provenance and the reference rates that kernels are compared to.

The reference is measured once per traced invocation: a square GEMM in
float32 and in float64 (peak compute) and an in-place read-and-write
stream over an array at least four times the last-level cache
(sustainable memory bandwidth). Together they give the roofline bound
of Williams, Waterman & Patterson (CACM 2009): the lower of the peak rate
and bandwidth times FLOPs per byte.
"""

from __future__ import annotations

import os
import platform
import statistics
import time
from pathlib import Path

import numpy as np

GEMM_N = 2048
REPEATS = 5


def llc_bytes() -> int | None:
    """Size of the largest CPU cache sysfs reports, or None."""
    best = None
    for d in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            raw = (d / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(raw[-1:], 1)
        value = int(raw.rstrip("KMG")) * scale
        best = value if best is None else max(best, value)
    return best


def provenance(blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "machine": platform.machine(),
        "llc_mib": (llc_bytes() or 0) / (1 << 20),
    }


def _median_time(fn) -> float:
    fn()  # warm-up: thread start, page faults
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def reference(stream_mib: int) -> dict:
    """GEMM GFLOP/s per precision, and copy GB/s (bytes read plus bytes
    written) of an in-place stream over one array of ``stream_mib`` MiB;
    one array, not two, keeps the measurement within memory."""
    out = {}
    rng = np.random.default_rng(0)
    for dtype in (np.float32, np.float64):
        a = rng.random((GEMM_N, GEMM_N)).astype(dtype)
        b = rng.random((GEMM_N, GEMM_N)).astype(dtype)
        t = _median_time(lambda: a @ b)
        out[f"gemm_gflops_f{np.dtype(dtype).itemsize * 8}"] = 2 * GEMM_N**3 / t / 1e9
    a = np.ones(stream_mib * (1 << 20) // 8)
    t = _median_time(lambda: np.multiply(a, 1.0, out=a))
    out["copy_gbps"] = 2 * a.nbytes / t / 1e9
    out["stream_array_mib"] = stream_mib
    return out
