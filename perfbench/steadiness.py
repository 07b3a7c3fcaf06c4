"""Steadiness check of the benchmark: one workload, several seeds.

    python3 perfbench/steadiness.py --workload verify_default --seeds 1-10

Runs ``run.py`` once per seed, one run at a time, each for ``run_seconds``
from BENCHMARK.json, and prints for each end-to-end metric its median and
its spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, beside the
metric's bound in BENCHMARK.json.  The same spread of the
raw, uncalibrated wall time shows what the calibration removes; the
calibrated ``wall_s`` should spread less than ``raw_wall_s`` on every
workload.  Exits 1 if a run fails or reports wrong output, or if a spread
other than that of ``setup_s`` exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def parse_seeds(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    values: dict[str, list[float]] = {name: [] for name in bounds}
    values["raw_wall_s"] = []
    ok = True
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: run failed ({proc.returncode})\n{proc.stderr}")
            return 1
        result = json.loads(lines[-1])
        harness = json.loads(next(line for line in proc.stderr.splitlines()
                                  if line.startswith("harness "))[len("harness "):])
        ok &= result["correct"] and result["failed"] == 0
        for name in bounds:
            values[name].append(result["metrics"][name]["value"])
        values["raw_wall_s"].append(harness["raw_wall_s"])
        shown = " ".join(f"{name}={result['metrics'][name]['value']:.5g}" for name in bounds)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              f"{shown} raw_wall_s={harness['raw_wall_s']:.5g} passes={harness['passes']}",
              flush=True)

    print(f"{'metric':<14} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        s = spread(vals)
        bound = bounds.get(name)
        print(f"{name:<14} {statistics.median(vals):>12.6g} {s:>8.4f} "
              f"{'' if bound is None else f'{bound:>6.2f}'}")
        if bound is not None and name != "setup_s" and s > bound:
            ok = False
    calibrated, raw = spread(values["wall_s"]), spread(values["raw_wall_s"])
    print(f"calibration: wall_s spread {calibrated:.4f} vs raw {raw:.4f} "
          f"({'narrower' if calibrated < raw else 'NOT narrower'})")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
