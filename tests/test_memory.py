import ctypes
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import microvoc  # noqa: F401  (importing the package pins the thresholds)
from microvoc import memory

glibc_only = pytest.mark.skipif(not memory._glibc(), reason="glibc malloc only")


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def _mallinfo():
    libc = ctypes.CDLL(None)
    libc.mallinfo2.restype = _Mallinfo2
    return libc.mallinfo2()


def _needs_mallinfo2():
    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        pytest.skip("glibc before 2.33 has no mallinfo2")


def _in_fresh_interpreter(check):
    """Run ``check`` in a new interpreter: where an array lands in the heap,
    and what a run allocates, depend on what earlier tests in this process
    left there."""
    src = str(Path(microvoc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__, check.__name__], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


@glibc_only
def test_pin_reports_success():
    assert memory.pin_malloc_thresholds()


def _mid_size_array_uses_heap_and_is_trimmed_when_freed():
    # 16 MiB, like an M4 activation after the first pool at 64 images in
    # float32 (17 MiB before it)
    before = _mallinfo()
    a = np.ones(2 << 20)
    during = _mallinfo()
    del a
    after = _mallinfo()
    # below MMAP_THRESHOLD: from the heap, not a mapping of its own
    assert during.hblkhd == before.hblkhd
    assert during.uordblks >= before.uordblks + (16 << 20)
    # freed at the heap's top: given back, since it exceeds TRIM_THRESHOLD
    assert after.arena < before.arena + (1 << 20)


def _array_above_threshold_is_mapped():
    before = _mallinfo()
    a = np.ones(memory.MMAP_THRESHOLD // 8 + 1)
    assert _mallinfo().hblkhd >= before.hblkhd + memory.MMAP_THRESHOLD
    del a


def _evaluate_allocates_little_above_its_start():
    # M4 at 32x32 in float32: a forward's trunk runs 8 images at a time,
    # and evaluate's 64-image pieces then hold only the trunk outputs whole
    from synthdata import bar_dataset
    from microvoc import archdsl
    from microvoc.trainer import build, evaluate
    net = build(archdsl.resolve_arch("M4"), seed=1, dtype=np.float32, input_dims=(3, 32, 32))
    samples = bar_dataset(256, 32, seed=4).samples
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        evaluate(net, samples, 256)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start <= 12 << 20, f"{(peak - start) / 2**20:.1f} MiB"


@glibc_only
def test_mid_size_array_uses_heap_and_is_trimmed_when_freed():
    _needs_mallinfo2()
    _in_fresh_interpreter(_mid_size_array_uses_heap_and_is_trimmed_when_freed)


@glibc_only
def test_array_above_threshold_is_mapped():
    _needs_mallinfo2()
    _in_fresh_interpreter(_array_above_threshold_is_mapped)


def test_evaluate_allocates_little_above_its_start():
    _in_fresh_interpreter(_evaluate_allocates_little_above_its_start)


if __name__ == "__main__":
    globals()[sys.argv[1]]()
