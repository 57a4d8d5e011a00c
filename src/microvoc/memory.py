"""Fixed glibc malloc thresholds, so that a run's peak memory is repeatable.

glibc starts with a 128 KiB mmap threshold and, each time a block it
mapped is freed, raises the threshold to that block's size (up to
32 MiB) and its heap trim threshold to twice that. After the first
freed 24 MiB array (an FC weight, or an M4 activation at 32x32 in
float32 after the first pool of a 256-image forward), arrays up to that
size come from the brk heap, and the heap gives memory back only when
48 MiB lie free above its last live block. Where numpy's small
long-lived blocks land among those arrays then decided whether some
70 MB of freed heap stayed resident into the next evaluation, whose
256-image activations were mapped apart from the heap: perfbench's
eval_m4 peak RSS read about 210 or about 241 MB from run to run (2 vCPU
x86-64, glibc 2.36, NumPy 2.4.6). ``trainer.evaluate`` now forwards
64-image pieces, whose M4 activations at that size are 16 MiB before
the first pool and 6 MiB after it, so they come from the heap too.

``pin_malloc_thresholds`` fixes the mmap threshold at 32 MiB, the level
the dynamic rule climbs to anyway, so arrays below it keep reusing heap
memory, and the trim threshold at 8 MiB, so at most that much freed
memory stays resident above the heap's last live block, while per-image
and per-block scratch is still reused from call to call.
"""

from __future__ import annotations

import ctypes
import os

#: mallopt parameters, from glibc's malloc.h
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

MMAP_THRESHOLD = 32 << 20
TRIM_THRESHOLD = 8 << 20


def _glibc() -> bool:
    try:
        return os.confstr("CS_GNU_LIBC_VERSION").startswith("glibc")
    except (AttributeError, ValueError, OSError):
        return False


def pin_malloc_thresholds() -> bool:
    """Set glibc's mmap and trim thresholds to MMAP_THRESHOLD and
    TRIM_THRESHOLD; either setting also stops their dynamic adjustment.
    Returns whether both were set; elsewhere than glibc it does nothing."""
    if not _glibc():
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD) == 1)
