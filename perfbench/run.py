"""microvoc benchmark: one workload per invocation, closed loop, one caller.

    python3 perfbench/run.py --workload train_m3 --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py and BENCHMARK.json): train_m3, train_c06_aug,
eval_m4. The inputs are PPM files and a manifest drawn from ``--seed``.
Rounds of the user's flow repeat until ``--seconds`` have passed (at
least two, so that same-seed outputs can be compared). Every round's
outputs are checked; a failed check makes ``correct`` false and the exit
code 1.

``--trace 0`` times each phase from outside and reports the end-to-end
metrics. ``--trace 1`` runs rounds untraced for half the time, measures
a machine reference, runs as many rounds traced, and reports
per-layer figures; the spans and the full per-layer table go to
``.perfbench_out/``.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_ROUNDS = 2
SETUP_ONLY_ROUNDS = 10

def _blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; must run
    before NumPy is imported."""
    nproc = len(os.sched_getaffinity(0))
    try:
        want = int(os.environ.get("OPENBLAS_NUM_THREADS", nproc))
    except ValueError:
        want = nproc
    n = max(1, min(nproc, want))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def _import_program():
    src = ROOT / "src"
    if not (src / "microvoc" / "__init__.py").is_file():
        sys.exit(f"error: no microvoc sources under {src}")
    sys.path.insert(0, str(src))
    import microvoc

    if Path(microvoc.__file__).resolve().parent != (src / "microvoc").resolve():
        sys.exit(f"error: imported microvoc from {microvoc.__file__}, not from {src}")


def _rounds(runner, seconds: float | None, count: int = 0, verify: bool = True,
            tracer=None) -> list[dict]:
    """At least MIN_ROUNDS (or ``count``) rounds, and more while the next
    one, as long as the slowest so far, still ends within ``seconds``.
    With ``verify`` the first round also checks the checkpoint round
    trip. A ``tracer`` gets each round's index for its spans. Stops at
    the first failed check."""
    out = []
    t0 = time.perf_counter()
    slowest = 0.0
    while True:
        if len(out) >= max(MIN_ROUNDS, count) and (
                seconds is None or time.perf_counter() - t0 + slowest > seconds):
            return out
        if tracer is not None:
            tracer.round = len(out)
        start = time.perf_counter()
        r = runner.round(verify=verify and not out)
        slowest = max(slowest, time.perf_counter() - start)
        if r is None or runner.checks.failed:
            return out
        out.append(r)


def _per_layer(names: dict, m: dict, ref: dict, runner, overhead: float) -> dict:
    """The per-layer metrics every workload reports, from the span summary.
    Times are totals per round; layers a workload does not run (backward,
    LRN, Adam on eval_m4; LRN, dropout on train_c06_aug) are only in the
    full table, except for computed work counts, which are 0 there."""
    load_ms = m.get("dataio.ingest_ms", 0.0) + m.get("dataio.load_eval_samples_ms", 0.0)
    ckpt_mb = runner.checkpoint_mb()
    # the flow's checkpoint operation: train writes one, eval reads one
    op = "trainer.load_checkpoint" if runner.w.kind == "eval" else "trainer.save_checkpoint"
    out = {
        "ref.gemm_gflops_f32": ref["gemm_gflops_f32"],
        "ref.gemm_gflops_f64": ref["gemm_gflops_f64"],
        "ref.copy_gbps": ref["copy_gbps"],
        "trace_overhead_frac": overhead,
        "dataio.load_ms": load_ms,
        "dataio.images_per_s": m["dataio.read_image.calls"] / load_ms * 1e3,
        "dataio.records_failed": runner.records_failed,
        "trainer.checkpoint_mbps": ckpt_mb * m[f"{op}.calls"] / m[f"{op}_ms"] * 1e3,
        "trainer.checkpoint_mb": ckpt_mb,
    }
    for name, unit in names.items():
        if name not in out:
            out[name] = m.get(name, 0.0) if unit in ("GFLOP", "GB") else m[name]
    return out


def _median(key: str, rounds: list[dict]) -> float:
    return statistics.median(r[key] for r in rounds)


def _end_to_end(setups: list[dict], rounds: list[dict]) -> dict:
    return {
        "setup_s": _median("setup_s", setups + rounds),
        "images_per_s": statistics.median(r["images"] / r["main_s"] for r in rounds),
        "checkpoint_s": statistics.median(
            t for r in setups + rounds for t in r["checkpoint_s"]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _print_table(title: str, values: dict, units: dict | None = None) -> None:
    print(f"# {title}")
    for name in sorted(values):
        unit = (units or {}).get(name, "")
        print(f"  {name:<44} {values[name]:>14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrunken inputs for the self-check; not a measurement")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    threads = _blas_threads()
    _import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import machine
    import spans
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    w = workloads.get(args.workload, args.smoke)
    info = machine.provenance(threads)
    print(f"# machine {json.dumps(info, sort_keys=True)}")
    print(f"# workload {args.workload} {w}")

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir = ROOT / ".perfbench_out"
    work.mkdir(parents=True)
    checks = workloads.Checks()
    metrics, units = {}, end_to_end
    try:
        runner = workloads.Runner(w, args.seed, work, checks)
        setups = [runner.setup_only() for _ in range(SETUP_ONLY_ROUNDS)]
        # a traced invocation gives half its time to the untraced rounds and
        # then runs as many traced ones, for the same overall length
        rounds = _rounds(runner, args.seconds / 2 if args.trace else args.seconds)
        if not checks.failed:
            metrics = _end_to_end(setups, rounds)
            print(f"# rounds={len(rounds)}; images_per_s is "
                  f"{'eval_images_per_s' if w.kind == 'eval' else 'train_samples_per_s'}")
            if w.target is not None:
                print(f"# time_to_target_s (val_acc >= {w.target}) "
                      f"{_median('target_s', rounds):.6g} s, median of {len(rounds)} rounds")
            _print_table("end to end (tracing off)", metrics, end_to_end)
            for key in ("setup_s", "main_s", "wall_s"):
                print(f"# per round {key}: {' '.join(f'{r[key]:.4g}' for r in rounds)}")
        if args.trace and not checks.failed:
            # after the untraced rounds, so that its large array stays
            # out of their peak_rss_mb
            stream_mib = 16 if args.smoke else math.ceil(4 * (info["llc_mib"] or 256))
            ref = machine.reference(stream_mib)
            print(f"# reference: stream over a {stream_mib} MiB array against a "
                  f"{info['llc_mib']:.0f} MiB last-level cache; GEMM {machine.GEMM_N}^2")
            tracer = spans.Tracer()
            tracer.install()
            try:
                # same rounds as untraced, minus the round-trip check, so
                # every traced round does the same work
                traced = _rounds(runner, None, count=len(rounds), verify=False,
                                 tracer=tracer)
            finally:
                tracer.uninstall()
            tracer.write(out_dir / f"{args.workload}-seed{args.seed}-spans.json")
        if args.trace and not checks.failed:
            summary = spans.summarize(tracer.spans, len(traced), ref)
            overhead = _median("wall_s", traced) / _median("wall_s", rounds) - 1
            metrics = _per_layer(per_layer, summary, ref, runner, overhead)
            units = per_layer
            _print_table("all traced figures (per round unless a rate)", summary)
            _print_table("per layer", metrics, units)
            (out_dir / f"{args.workload}-seed{args.seed}-layers.json").write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed, "machine": info,
                 "reference": ref, "rounds": len(traced), "per_layer": metrics,
                 "all": summary}, indent=1, sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# ops attempted={checks.attempted} failed={checks.failed} "
          f"ops_failed_frac={checks.failed / max(1, checks.attempted):.6g}")
    for msg in checks.messages:
        print(f"# FAILED CHECK: {msg}")
    correct = checks.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
