import ctypes

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
    if not hasattr(libc, "mallinfo2"):
        pytest.skip("glibc before 2.33 has no mallinfo2")
    libc.mallinfo2.restype = _Mallinfo2
    return libc.mallinfo2()


def test_pin_reports_success():
    assert memory.pin_malloc_thresholds()


def test_mid_size_array_uses_heap_and_is_trimmed_when_freed():
    # 16 MiB, like an M4 activation after the first pool at batch 256
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


def test_array_above_threshold_is_mapped():
    before = _mallinfo()
    a = np.ones(memory.MMAP_THRESHOLD // 8 + 1)
    assert _mallinfo().hblkhd >= before.hblkhd + memory.MMAP_THRESHOLD
    del a
