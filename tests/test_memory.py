import ctypes
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import microvoc  # noqa: F401  (importing the package pins the thresholds)
from microvoc import memory

pytestmark = pytest.mark.skipif(not memory._glibc(), reason="glibc malloc only")


class _Mallinfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def _mallinfo():
    libc = ctypes.CDLL(None)
    libc.mallinfo2.restype = _Mallinfo2
    return libc.mallinfo2()


def _in_fresh_interpreter(check):
    """Run ``check`` in a new interpreter: where an array lands in the heap
    depends on what earlier tests in this process left there."""
    if not hasattr(ctypes.CDLL(None), "mallinfo2"):
        pytest.skip("glibc before 2.33 has no mallinfo2")
    src = str(Path(microvoc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__, check.__name__], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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


def test_mid_size_array_uses_heap_and_is_trimmed_when_freed():
    _in_fresh_interpreter(_mid_size_array_uses_heap_and_is_trimmed_when_freed)


def test_array_above_threshold_is_mapped():
    _in_fresh_interpreter(_array_above_threshold_is_mapped)


if __name__ == "__main__":
    globals()[sys.argv[1]]()
