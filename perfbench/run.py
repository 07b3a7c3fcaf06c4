"""Benchmark of cauchykit: three workloads, calibrated timings, a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_default --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen):

* ``verify_default`` -- one fresh process per pass runs
  ``cauchykit.cli.main(["verify", "--format", "json"])`` on the default grid;
* ``tables_large_n`` -- a fixed list of ``table``/``poly``/``series`` CLI
  calls per pass, each in a fresh process, in an order drawn from the seed;
* ``library_stream`` -- one fresh long-lived process per pass runs a
  seeded stream of public-library calls.

Passes repeat, one measured process at a time, until ``--seconds`` have
passed (at least one pass).  Every time is *calibrated*: each measured
process samples a fixed stdlib ``Fraction`` reference pass on an interval
timer, and an op's raw seconds are scaled by ``(ref_nominal_us / R) **
exponent``, R being the mean reference-pass time sampled during it
(``calibration.json``).  This takes the host's momentary speed out of the
numbers, which raw wall-clock time on a shared host does not allow.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones: one pass with span wrappers under the timer, then one pass under
``cProfile``.  The last line of stdout is the JSON result; a line starting
with ``harness`` on stderr gives the raw (uncalibrated) wall time beside the
calibrated one.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
AGENT = os.path.join(HERE, "agent.py")

with open(os.path.join(HERE, "calibration.json"), encoding="utf-8") as _fh:
    CALIBRATION = json.load(_fh)
with open(os.path.join(HERE, "expected.json"), encoding="utf-8") as _fh:
    EXPECTED = json.load(_fh)

SETUP_PROBES = 9          # fresh processes per run that only set up
CHILD_TIMEOUT_S = 170

VERIFY_ARGV = ["verify", "--format", "json"]
TABLES_ARGVS = [
    ["table", "--family", "stirling1", "--n-max", "600"],
    ["table", "--family", "stirling2", "--n-max", "600"],
    ["table", "--family", "cauchy_hi1", "--order", "3", "--n-max", "60"],
    ["table", "--family", "cauchy_hi2", "--order", "2", "--n-max", "60"],
    ["table", "--family", "bernoulli_hi", "--alpha", "-2", "--n-max", "60"],
    ["table", "--family", "poly_cauchy1", "--order", "2", "--n-max", "200"],
    ["table", "--family", "poly_cauchy2", "--order", "2", "--n-max", "200"],
    ["poly", "--family", "cauchy_hi_poly1", "--n", "40", "--order", "3"],
    ["poly", "--family", "cauchy_hi_poly2", "--n", "30", "--order", "4"],
    ["series", "cauchy1_gf", "--terms", "120"],
]

# -- library stream ------------------------------------------------------------

STREAM_BLOCKS = 96        # a multiple of the 16 classes keeps the tail balanced
HOT_N_MAX = 12            # most calls draw n up to here and hit warm memo tables
TAIL_N_MAX = 30           # each call class's tail walks n up to here, filling them
STIRLING_N_MAX = 400
METHODS_FIRST = ["stirling_sum", "convolution", "gf_coeff", "bernoulli_bridge",
                 "integral_oracle"]
METHODS_SECOND = [m for m in METHODS_FIRST if m != "convolution"]
STIRLING_KINDS = ["stirling1_signed", "stirling1_unsigned", "stirling2"]
STREAM_CLASSES = ([("cauchy_hi1", m) for m in METHODS_FIRST]
                  + [("cauchy_hi2", m) for m in METHODS_SECOND]
                  + [("cauchy_hi_poly", None), ("bernoulli_hi_poly", None),
                     ("bernoulli_hi_poly", None), ("poly_cauchy_poly1", None),
                     ("poly_cauchy_poly2", None), ("stirling", None), ("stirling", None)])
TAILS_PER_CLASS = STREAM_BLOCKS * 2 // len(STREAM_CLASSES)  # two tail calls per block


def _params(n_values: list[int]) -> list[dict]:
    """Parameter sets for the given n, the other parameters cycling with n's rank.

    The pairing is fixed, so every seed fills the same memo entries.
    """
    z_values = [f"{p}/{q}" for p in range(-4, 5) for q in (1, 2, 3, 5, 7)]
    return [{"n": n, "k": 1 + i % 4, "alpha": -3 + i % 7, "z": z_values[i % len(z_values)],
             "kind": "12"[i % 2], "stirling": STIRLING_KINDS[i % 3]}
            for i, n in enumerate(sorted(n_values))]


def library_stream(seed: int) -> list[list]:
    """The seeded call stream.

    Each block of 16 calls holds one call of each class in STREAM_CLASSES:
    cauchy_hi1 by all five methods, cauchy_hi2 by its four, one
    cauchy_hi_poly1/2, two bernoulli_hi_poly, one poly_cauchy_poly1 and one
    poly_cauchy_poly2 at a rational z, and two Stirling lookups.  Most calls
    draw n from a skewed hot range and hit warm memo tables; two calls per
    block are tail calls, which walk each class's n up a fixed ladder and
    keep filling them.  Each class draws its parameters from a fixed set;
    the seed orders the calls, places the tail calls and deals the hot
    parameters, so every seed makes the same work in another arrangement.
    """
    rng = random.Random(seed)
    hot_size = STREAM_BLOCKS - TAILS_PER_CLASS
    hot_n = [min(int(-4 * math.log(1 - (i + 0.5) / hot_size)), HOT_N_MAX)
             for i in range(hot_size)]
    tail_n = [HOT_N_MAX + 1 + round(j * (TAIL_N_MAX - HOT_N_MAX - 1) / (TAILS_PER_CLASS - 1))
              for j in range(TAILS_PER_CLASS)]
    stirling_tail = [round(STIRLING_N_MAX * (j + 1) / TAILS_PER_CLASS)
                     for j in range(TAILS_PER_CLASS)]
    tail_order = list(range(len(STREAM_CLASSES)))
    rng.shuffle(tail_order)
    hot, tails = [], []
    for _ in STREAM_CLASSES:
        deck = _params(hot_n)
        rng.shuffle(deck)
        hot.append(deck)
        tails.append(_params(tail_n))
    stirling_max = dict.fromkeys(STIRLING_KINDS, 0)
    calls: list[list] = []
    for block in range(STREAM_BLOCKS):
        tail_slots = {tail_order[(2 * block + i) % len(STREAM_CLASSES)] for i in (0, 1)}
        slots = list(range(len(STREAM_CLASSES)))
        rng.shuffle(slots)
        for slot in slots:
            name, method = STREAM_CLASSES[slot]
            is_tail = slot in tail_slots
            p = (tails if is_tail else hot)[slot].pop(0)
            n = p["n"]
            if name in ("cauchy_hi1", "cauchy_hi2"):
                calls.append([name, n, p["k"], method])
            elif name == "cauchy_hi_poly":
                calls.append([name + p["kind"], n, p["k"]])
            elif name == "bernoulli_hi_poly":
                calls.append([name, n, p["alpha"]])
            elif name.startswith("poly_cauchy_poly"):
                calls.append([name, n, p["k"], p["z"]])
            elif is_tail:  # tails grow each kind's table along a fixed ladder
                step = TAILS_PER_CLASS - len(tails[slot]) - 1
                kind = STIRLING_KINDS[(step + slot) % len(STIRLING_KINDS)]
                sn = stirling_tail[step]
                stirling_max[kind] = max(stirling_max[kind], sn)
                calls.append([kind, sn, rng.randint(0, sn)])
            else:  # hot lookups stay inside what the tails have grown
                sn = rng.randint(0, stirling_max[p["stirling"]])
                calls.append([p["stirling"], sn, rng.randint(0, sn)])
    return calls


def workload_passes(workload: str, seed: int):
    """A function that gives, per pass, the jobs of its measured processes."""
    if workload == "verify_default":
        return lambda: [{"mode": "cli", "argv": VERIFY_ARGV}]
    if workload == "tables_large_n":
        rng = random.Random(seed)

        def tables_pass():
            order = list(TABLES_ARGVS)
            rng.shuffle(order)
            return [{"mode": "cli", "argv": argv} for argv in order]
        return tables_pass
    calls = library_stream(seed)
    return lambda: [{"mode": "library", "calls": calls}]


# -- processes -------------------------------------------------------------------

def spawn(job: dict) -> dict | None:
    """Run one agent process to completion; None if it failed."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    job = dict(job, src=SRC)
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, AGENT], input=json.dumps(job),
                              capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"agent timed out: {job.get('argv') or job['mode']}", file=sys.stderr)
        return None
    if proc.returncode != 0 or not proc.stdout.strip():
        print(f"agent failed ({proc.returncode}): {proc.stderr[-2000:]}", file=sys.stderr)
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["t_spawn"] = t_spawn
    return result


# -- calibration -------------------------------------------------------------------

NOMINAL_S = CALIBRATION["ref_nominal_us"] * 1e-6
EXPONENTS = CALIBRATION["exponents"]


def op_key(job: dict) -> str:
    return " ".join(job["argv"]) if job["mode"] == "cli" else job["mode"]


def exponent(job: dict) -> float:
    return EXPONENTS.get(op_key(job), EXPONENTS["default"])


class Samples:
    """One process's reference samples, for windowed means."""

    def __init__(self, samples: list):
        samples = sorted(samples)
        self.times = [t for t, _ in samples]
        self.durations = [d for _, d in samples]

    def mean(self, t0: float, t1: float) -> float:
        """Mean reference-pass seconds within the window around [t0, t1]."""
        window = CALIBRATION["window_s"]
        lo = bisect_left(self.times, t0 - window)
        hi = bisect_right(self.times, t1 + window)
        need = min(CALIBRATION["min_window_samples"], len(self.times))
        while hi - lo < need:
            if lo > 0 and (hi >= len(self.times)
                           or t0 - self.times[lo - 1] <= self.times[hi] - t1):
                lo -= 1
            else:
                hi += 1
        return statistics.fmean(self.durations[lo:hi])

    def whole_mean(self) -> float:
        return statistics.fmean(self.durations)


def calibrate(raw: float, ref_mean: float, power: float) -> float:
    return raw * (NOMINAL_S / ref_mean) ** power


def setup_seconds(result: dict) -> float:
    return calibrate(result["t_ready"] - result["t_spawn"],
                     Samples(result["setup_samples"]).whole_mean(), EXPONENTS["setup"])


def op_seconds(job: dict, result: dict) -> tuple[list[float], list[float]]:
    """(calibrated, raw) seconds of each op of one process.

    An op is cut at each reference sample taken inside it; each piece is
    scaled by the mean of the samples near that piece, so an op that spans
    fast and slow spells of the host is corrected spell by spell.
    """
    samples = Samples(result["samples"])
    power = exponent(job)
    cal, raw = [], []
    for t0, t1, handler in result["ops"]:
        pieces = []
        start = t0
        for i in range(bisect_left(samples.times, t0), bisect_right(samples.times, t1)):
            pieces.append((start, samples.times[i]))
            start = samples.times[i] + samples.durations[i]
        pieces.append((start, t1))
        weights = [max(b - a, 0.0) for a, b in pieces]
        factors = [calibrate(1.0, samples.mean(a, b), power) for a, b in pieces]
        total = sum(weights)
        factor = (sum(w * f for w, f in zip(weights, factors)) / total if total > 0
                  else calibrate(1.0, samples.mean(t0, t1), power))
        raw.append(t1 - t0 - handler)
        cal.append(raw[-1] * factor)
    return cal, raw


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    values = sorted(values)
    pos = (len(values) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


# -- correctness ---------------------------------------------------------------------

def failed_ops(job: dict, result: dict | None, seed: int) -> tuple[int, int]:
    """(attempted, failed) ops of one process against the stored outputs."""
    if job["mode"] == "cli":
        ok = (result is not None and result["exit_code"] == 0
              and result["digest"] == EXPECTED["cli"][op_key(job)])
        return 1, 0 if ok else 1
    attempted = len(job["calls"])
    if result is None:
        return attempted, attempted
    failed = set(result["failed_ops"])
    if seed == EXPECTED["library_stream"]["seed"]:
        stored = EXPECTED["library_stream"]["digests"]
        failed |= {i for i, (a, b) in enumerate(zip(result["digests"], stored)) if a != b}
        failed |= set(range(len(stored), attempted))
    return attempted, len(failed)


# -- runs ---------------------------------------------------------------------------

def run_pass(jobs: list[dict], seed: int, options: dict) -> dict:
    """Run a pass's processes one at a time; keep (job, result) of those that ran."""
    done = []
    attempted = failed = 0
    for job in jobs:
        result = spawn(dict(job, **options))
        a, f = failed_ops(job, result, seed)
        attempted += a
        failed += f
        if result is not None:
            done.append((job, result))
    return {"done": done, "attempted": attempted, "failed": failed}


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, dict, int, int]:
    next_pass = workload_passes(workload, seed)
    probes = [spawn({"mode": "probe"}) for _ in range(SETUP_PROBES)]
    if any(p is None for p in probes):
        raise SystemExit("set-up probe failed")
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(next_pass(), seed, {}))
    measured = [result for p in passes for _, result in p["done"]]
    if not measured:
        raise SystemExit("no measured process completed")

    walls, raw_walls, ops = [], [], []
    for p in passes:
        cal_sum = raw_sum = 0.0
        for job, result in p["done"]:
            cal, raw = op_seconds(job, result)
            ops.extend(cal)
            cal_sum += sum(cal)
            raw_sum += sum(raw)
        walls.append(cal_sum)
        raw_walls.append(raw_sum)
    setups = [setup_seconds(r) for r in probes + measured]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_ms": (percentile(ops, 50) * 1e3, "ms"),
        "op_p99_ms": (percentile(ops, 99) * 1e3, "ms"),
        "peak_rss_mb": (max(r["maxrss_kb"] for r in measured) / 1024, "MB"),
    }
    durations = [d for r in measured for _, d in r["samples"]]
    harness = {
        "raw_wall_s": statistics.median(raw_walls),
        "ref_pass_us": statistics.fmean(durations) * 1e6,
        "ref_samples": len(durations),
        "passes": len(passes),
        "ops": len(ops),
    }
    return (metrics, harness, sum(p["attempted"] for p in passes),
            sum(p["failed"] for p in passes))


CHECK_IDS = ["T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "T9", "T10", "L11",
             "T12", "T13", "EQ6", "EQ7", "EQ19", "EQ28", "EQ52", "EQ53", "EQ58",
             "EQ59_61", "POLYC_ORACLE"]
LAYERS = ["rational", "polynomial", "series", "stirling", "bernoulli", "cauchy", "cli"]
SPAN_NAMES = ([f"verifier.{check}_s" for check in CHECK_IDS]
              + [f"cauchy.method.{method}_s" for method in METHODS_FIRST])


def per_layer(workload: str, seed: int) -> tuple[dict, int, int]:
    """One pass with span wrappers under the timer, then one under cProfile."""
    jobs = workload_passes(workload, seed)()
    spans_pass = run_pass(jobs, seed, {"spans": True})
    profile_pass = run_pass(jobs, seed, {"profile": True})
    if len(spans_pass["done"]) != len(jobs) or len(profile_pass["done"]) != len(jobs):
        raise SystemExit("a traced process did not complete")

    metrics: dict[str, tuple[float, str]] = {}

    def add(name: str, value: float, unit: str) -> None:
        metrics[name] = (metrics.get(name, (0, unit))[0] + value, unit)

    spans_cal = spans_raw = 0.0
    durations = []
    for job, result in spans_pass["done"]:
        cal, raw = op_seconds(job, result)
        spans_cal += sum(cal)
        spans_raw += sum(raw)
        durations.extend(d for _, d in result["samples"])
        ref_mean = Samples(result["samples"]).whole_mean()
        for name in SPAN_NAMES:
            add(name, calibrate(result["spans"].get(name, 0.0), ref_mean, exponent(job)), "s")
        add("verifier.cases_checked", result["cases_checked"], "count")

    profile_cal = 0.0
    hits = 0
    for job, result in profile_pass["done"]:
        profile_cal += sum(op_seconds(job, result)[0])
        ref_mean = Samples(result["samples"]).whole_mean()
        layers = result["layers"]
        for layer in LAYERS:
            add(f"{layer}.self_s",
                calibrate(layers["self_s"].get(layer, 0.0), ref_mean, exponent(job)), "s")
        for name, count in layers["calls"].items():
            add(name, count, "count")
        counts = result["counts"]
        for name in ("cauchy.hi_poly.calls", "cauchy.sum_power_volume.calls",
                     "stirling.rows"):
            add(name, counts[name], "count")
        hits += counts["cauchy.hi_poly.hits"]
        add("cli.output_bytes", result.get("output_bytes", 0), "bytes")
    calls = metrics["cauchy.hi_poly.calls"][0]
    metrics["cauchy.hi_poly.hit_ratio"] = (hits / calls if calls else 0.0, "ratio")
    metrics["harness.raw_wall_s"] = (spans_raw, "s")
    metrics["harness.ref_pass_us"] = (statistics.fmean(durations) * 1e6, "us")
    metrics["harness.ref_samples"] = (len(durations), "count")
    metrics["harness.trace_overhead"] = (profile_cal / spans_cal, "ratio")
    return (metrics, spans_pass["attempted"] + profile_pass["attempted"],
            spans_pass["failed"] + profile_pass["failed"])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify_default", "tables_large_n", "library_stream"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cauchykit", "__init__.py")):
        print(f"no cauchykit sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    if args.trace:
        metrics, attempted, failed = per_layer(args.workload, args.seed)
    else:
        metrics, harness, attempted, failed = end_to_end(args.workload, args.seed,
                                                         args.seconds)
        print("harness " + json.dumps(harness), file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
