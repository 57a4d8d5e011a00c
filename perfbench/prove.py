"""Run the benchmark over seeds 1-10 and summarise the spread.

    python3 perfbench/prove.py [--traced-seed 1] [--out perfbench/baseline/<commit>.json]

For each workload in BENCHMARK.json, runs ``run.py --trace 0`` once per
seed, one after another, for BENCHMARK.json's ``run_seconds``, and
prints for every end-to-end metric the median, the quartiles
(``statistics.quantiles(n=4)``) and the spread (q3 - q1) as a share of
the median, next to a third of the metric's bound. It exits 1 when any
spread reaches that third. With ``--traced-seed`` it also makes one
``--trace 1`` run per workload. With ``--out`` the whole record is
written as JSON, which is how a baseline is checked in for later
before/after comparisons.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(1, 11))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{' '.join(cmd)} reported failed checks:\n{proc.stdout[-2000:]}")
    return result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()

    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run_once(workload, s, seconds, 0) for s in SEEDS]
        entry = {"attempted": sum(r["attempted"] for r in runs),
                 "failed": sum(r["failed"] for r in runs), "end_to_end": {}}
        for name, bound in bounds.items():
            st = spread([r["metrics"][name]["value"] for r in runs])
            st["unit"] = runs[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = st
            steady = st["spread"] < bound / 3
            ok = ok and steady
            print(f"{workload:<14} {name:<14} median {st['median']:>12.6g} {st['unit']:<6} "
                  f"spread {st['spread']:.4f} (bound/3 {bound / 3:.4f})"
                  f"{'' if steady else '  NOT STEADY'} "
                  f"[{' '.join(f'{v:.4g}' for v in st['values'])}]", flush=True)
        if args.traced_seed is not None:
            traced = run_once(workload, args.traced_seed, seconds, 1)
            entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
            table = ROOT / ".perfbench_out" / f"{workload}-seed{args.traced_seed}-layers.json"
            entry["traced"] = json.loads(table.read_text())
        record["workloads"][workload] = entry
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
