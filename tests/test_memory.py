import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import microvoc


def _in_fresh_interpreter(check):
    """Run ``check`` in a new interpreter: what a run allocates depends on
    what earlier tests in this process left behind."""
    src = str(Path(microvoc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, __file__, check.__name__], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


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


def test_evaluate_allocates_little_above_its_start():
    _in_fresh_interpreter(_evaluate_allocates_little_above_its_start)


if __name__ == "__main__":
    globals()[sys.argv[1]]()
