#!/usr/bin/env python3
"""Run-to-run spread of the benchmark's metrics over several seeds.

Usage, from the root of the repository:

    python3 perfbench/spread.py --workload <name> --seeds 1-10 [--seconds 10] [--trace 0]

Runs perfbench/run.py once per seed and prints, for every metric, the
median of the per-seed values and the distance between their first and
third quartile (Python's statistics.quantiles, n=4) as a share of that
median, next to the metric's bound from BENCHMARK.json. Exits non-zero
if any run fails or reports incorrect outputs.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds(spec: str) -> list[int]:
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", default="0")
    args = ap.parse_args()

    bench = Path(__file__).resolve().parent
    root = bench.parent
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in manifest["end_to_end"]}
    seconds = args.seconds or manifest["run_seconds"]

    values: dict[str, list[float]] = {}
    for seed in seeds(args.seeds):
        cmd = [sys.executable, str(bench / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: incorrect result {result}", file=sys.stderr)
            return 1
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.6g}"
                                           for k, v in result["metrics"].items()),
              file=sys.stderr)

    print(f"{'metric':<38} {'median':>14} {'iqr/median':>11} {'bound':>7}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        share = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<38} {med:>14.6g} {share:>11.4f} {bound if bound is not None else '':>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
