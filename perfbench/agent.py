"""One measured process of the cauchykit benchmark.

``run.py`` starts this script with a JSON job on stdin and reads one JSON
result from its stdout.  The script imports cauchykit and its CLI before
anything else, so the time from spawn to ``t_ready`` is the package's
set-up time as a user meets it: a fresh interpreter and empty memo tables.

Jobs (``mode``):

* ``probe``   -- set-up only;
* ``cli``     -- one ``cauchykit.cli.main(argv)`` call, stdout hashed;
* ``library`` -- a stream of public-library calls, each timed on its own,
  then checked against independent paths outside the timed section.

Options: ``spans`` wraps the verifier checks and the ``cauchy_hi1/2``
entry points; ``profile`` runs the ops under ``cProfile`` and reports
per-layer self time and call counts.  Reference passes are sampled before
and after the ops and, unless profiling, on an interval timer during them.
All times are raw seconds with the calibration handler's own time taken
out; ``run.py`` turns them into calibrated seconds.
"""

import time

import cauchykit
import cauchykit.cli

T_READY = time.perf_counter()

import cProfile  # noqa: E402  (imported after the set-up clock stops)
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from math import comb, factorial  # noqa: E402

from cauchykit import cauchy, stirling  # noqa: E402
from cauchykit.rational import format_rational, parse_rational  # noqa: E402

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "calibration.json"), encoding="utf-8") as _fh:
    CALIBRATION = json.load(_fh)

SETUP_REF_PASSES = 8     # synchronous reference passes right after set-up
BRACKET_REF_PASSES = 20  # before and after the ops; a profiled process has no others


def reference_pass() -> Fraction:
    """The fixed reference work: a harmonic sum in stdlib Fractions.

    It touches no cauchykit code, so it measures the host's momentary
    speed for the kind of arithmetic the package does, not the package.
    """
    acc = Fraction(0)
    for i in range(1, CALIBRATION["ref_terms"] + 1):
        acc += Fraction(1, i)
    return acc


class Calibrator:
    """Reference samples taken on an interval timer, plus their total cost."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, seconds)
        self.handler_s = 0.0

    def sample(self) -> None:
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference_pass()
            t1 = time.perf_counter()
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append((t0, t1 - t0))

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.sample()
        self.handler_s += time.perf_counter() - t0

    def start(self) -> None:
        tick = CALIBRATION["tick_s"]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, tick, tick)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class HashSink:
    """Stands in for stdout: hashes and counts what the CLI writes."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.bytes = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.digest.update(data)
        self.bytes += len(data)
        return len(text)

    def flush(self) -> None:
        pass


def canonical(value) -> str:
    if isinstance(value, cauchykit.Polynomial):
        return "[" + ",".join(format_rational(c) for c in value.coeffs) + "]"
    if isinstance(value, int):
        return str(value)
    return format_rational(value)


# -- spans ------------------------------------------------------------------

class Spans:
    """Inclusive, handler-corrected seconds per span name."""

    def __init__(self, cal: Calibrator):
        self.cal = cal
        self.seconds: dict[str, float] = {}
        self.cases_checked = 0

    def _add(self, name: str, t0: float, h0: float) -> None:
        spent = time.perf_counter() - t0 - (self.cal.handler_s - h0)
        self.seconds[name] = self.seconds.get(name, 0.0) + spent

    def install(self) -> None:
        verifier = cauchykit.verifier
        verify = verifier.verify

        def traced_verify(check_id, grid=None):
            t0, h0 = time.perf_counter(), self.cal.handler_s
            report = verify(check_id, grid)
            self._add(f"verifier.{check_id.value}_s", t0, h0)
            self.cases_checked += report.cases_checked
            return report

        # run_suite looks verify up through the module at call time.
        verifier.verify = traced_verify

        for name in ("cauchy_hi1", "cauchy_hi2"):
            original = getattr(cauchy, name)

            def traced(n, k, method=cauchy.CauchyMethod.GF_COEFF, _f=original):
                t0, h0 = time.perf_counter(), self.cal.handler_s
                try:
                    return _f(n, k, method)
                finally:
                    self._add(f"cauchy.method.{method.value}_s", t0, h0)

            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").startswith("cauchykit")
                        and getattr(module, name, None) is original):
                    setattr(module, name, traced)


# -- profile ----------------------------------------------------------------

PACKAGE_DIR = os.path.dirname(os.path.abspath(cauchykit.__file__))
FRACTIONS_FILE = os.path.abspath(sys.modules["fractions"].__file__)

# (layer, function name) -> counter; counted from cProfile's exact call counts
PROFILE_CALLS = {
    ("rational", "__new__"): "rational.new.calls",
    ("rational", "_add"): "rational.add.calls",
    ("rational", "_mul"): "rational.mul.calls",
    ("series", "revert"): "series.revert.calls",
    ("series", "compose"): "series.compose.calls",
    ("series", "__mul__"): "series.mul.calls",
    ("series", "__truediv__"): "series.div.calls",
    ("series", "__pow__"): "series.pow.calls",
    ("polynomial", "__mul__"): "polynomial.mul.calls",
    ("polynomial", "shift"): "polynomial.shift.calls",
    ("polynomial", "interpolate"): "polynomial.interpolate.calls",
    ("stirling", "value"): "stirling.value.calls",
    ("stirling", "multinomial"): "stirling.multinomial.calls",
    ("bernoulli", "bernoulli_hi_poly"): "bernoulli.hi_poly.calls",
    ("cauchy", "cube_integrate"): "cauchy.cube_integrate.calls",
}


def layer_of(code) -> str | None:
    """The layer that defines a profiled function, or None if outside them."""
    if isinstance(code, str):  # a builtin, named like "<built-in method math.gcd>"
        return "rational" if "math.gcd" in code else None
    path = os.path.abspath(code.co_filename)
    if path == FRACTIONS_FILE:
        return "rational"
    if os.path.dirname(path) == PACKAGE_DIR:
        stem = os.path.splitext(os.path.basename(path))[0]
        return None if stem == "__init__" else stem
    return None


def profile_layers(profiler: cProfile.Profile) -> dict:
    """Self seconds per layer and the counted calls, from the raw profile entries.

    ``pstats`` keys functions by (file, line, name) and keeps only one of
    the code objects that share a key (nested comprehensions on one line,
    the ``forward`` closures of ``fractions``), so the entries are summed
    here directly.
    """
    self_s: dict[str, float] = {}
    calls = dict.fromkeys(PROFILE_CALLS.values(), 0)
    for entry in profiler.getstats():
        layer = layer_of(entry.code)
        if layer is None:
            continue
        self_s[layer] = self_s.get(layer, 0.0) + entry.inlinetime
        counter = PROFILE_CALLS.get((layer, getattr(entry.code, "co_name", None)))
        if counter is not None:
            calls[counter] += entry.callcount
    return {"self_s": self_s, "calls": calls}


def cache_counts() -> dict:
    """Exact call counts of memoised functions, which cProfile sees only on a miss."""
    hi = [cauchy.cauchy_hi_poly1.cache_info(), cauchy.cauchy_hi_poly2.cache_info()]
    spv = cauchy._sum_power_volume.cache_info()
    return {
        "cauchy.hi_poly.hits": sum(i.hits for i in hi),
        "cauchy.hi_poly.calls": sum(i.hits + i.misses for i in hi),
        "cauchy.sum_power_volume.calls": spv.hits + spv.misses,
        "stirling.rows": sum(len(stirling.stirling_table(kind).rows)
                             for kind in stirling.StirlingKind),
    }


# -- jobs -------------------------------------------------------------------

class Runner:
    def __init__(self, job: dict, cal: Calibrator, profiler):
        self.job = job
        self.cal = cal
        self.profiler = profiler
        self.ops: list[tuple[float, float, float]] = []  # (start, end, handler s)

    def timed(self, fn, *args):
        if self.profiler is not None:
            self.profiler.enable()
        h0 = self.cal.handler_s
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = time.perf_counter()
            h1 = self.cal.handler_s
            if self.profiler is not None:
                self.profiler.disable()
            self.ops.append((t0, t1, h1 - h0))


def run_cli(runner: Runner) -> dict:
    sink = HashSink()
    real_stdout = sys.stdout
    sys.stdout = sink
    try:
        exit_code = runner.timed(cauchykit.cli.main, runner.job["argv"])
    except SystemExit as exc:
        exit_code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout = real_stdout
    return {"exit_code": exit_code, "digest": sink.digest.hexdigest(),
            "output_bytes": sink.bytes}


METHODS = {m.value: m for m in cauchykit.CauchyMethod}


def library_call(call: list):
    """Resolve one stream entry to (public function, positional arguments)."""
    name, *args = call
    if name in ("cauchy_hi1", "cauchy_hi2"):
        n, k, method = args
        return getattr(cauchykit, name), (n, k, METHODS[method])
    if name in ("poly_cauchy_poly1", "poly_cauchy_poly2"):
        n, k, z = args
        return getattr(cauchykit, name), (n, k, parse_rational(z))
    return getattr(cauchykit, name), tuple(args)


def check_library(calls: list, results: list) -> list[int]:
    """Indices of stream calls whose result an independent path contradicts.

    Run after the timed stream.  Every ``CauchyMethod`` must give the same
    rational for the same (n, k); polynomials must agree with the numbers
    at x = 0; poly-Cauchy values with the product-integral oracle; Stirling
    values with the other kind's table or the explicit formula.
    """
    bad = []
    hi_reference: dict[tuple, set] = {}

    def hi_values(name: str, n: int, k: int) -> set:
        """Values of cauchy_hi1/2(n, k) over every method the kind has."""
        key = (name, n, k)
        if key not in hi_reference:
            methods = [m for m in cauchykit.CauchyMethod
                       if not (name == "cauchy_hi2" and m is cauchykit.CauchyMethod.CONVOLUTION)]
            hi_reference[key] = {getattr(cauchykit, name)(n, k, m) for m in methods}
        return hi_reference[key]

    for index, (call, result) in enumerate(zip(calls, results)):
        name, *args = call
        try:
            if name in ("cauchy_hi1", "cauchy_hi2"):
                n, k, _method = args
                ok = hi_values(name, n, k) == {result}
            elif name in ("cauchy_hi_poly1", "cauchy_hi_poly2"):
                n, k = args
                ok = (result.degree == n
                      and hi_values(name.replace("_poly", ""), n, k) == {result.evaluate(0)})
            elif name == "bernoulli_hi_poly":
                n, alpha = args
                ok = (result.degree == n and result.leading == 1
                      and result.evaluate(0) == cauchykit.bernoulli_hi_number(n, alpha))
            elif name in ("poly_cauchy_poly1", "poly_cauchy_poly2"):
                n, k, z = args
                ff = cauchykit.falling_factorial(n)
                if name.endswith("2"):
                    ff = ff.reflect()
                ok = result == cauchykit.product_integrate(ff.shift(-parse_rational(z)), k)
            elif name == "stirling1_signed":
                n, l = args
                ok = result == (-1) ** (n - l) * cauchykit.stirling1_unsigned(n, l)
            elif name == "stirling1_unsigned":
                n, l = args
                ok = result == abs(cauchykit.stirling1_signed(n, l))
            else:  # stirling2, by the explicit inclusion-exclusion formula
                n, l = args
                ok = result * factorial(l) == sum((-1) ** j * comb(l, j) * (l - j) ** n
                                                  for j in range(l + 1))
        except Exception:  # a crash in a check is a failed op, not a crashed run
            ok = False
        if not ok:
            bad.append(index)
    return bad


def run_stream(runner: Runner) -> list:
    """Time each library call; a call that raises yields None."""
    resolved = [library_call(call) for call in runner.job["calls"]]
    results = []
    for fn, args in resolved:
        try:
            results.append(runner.timed(fn, *args))
        except Exception:  # counted, not raised: the stream goes on
            results.append(None)
    return results


def stream_outcome(calls: list, results: list) -> dict:
    """Per-call output digests and the calls that raised or failed a check."""
    digests = [None if r is None else hashlib.sha256(canonical(r).encode()).hexdigest()[:16]
               for r in results]
    ok = [i for i, r in enumerate(results) if r is not None]
    bad = check_library([calls[i] for i in ok], [results[i] for i in ok])
    failed = sorted(set(range(len(calls))) - set(ok) | {ok[j] for j in bad})
    return {"digests": digests, "failed_ops": failed}


def main() -> int:
    job = json.load(sys.stdin)
    src = os.path.abspath(job["src"])
    if not os.path.abspath(cauchykit.__file__).startswith(src + os.sep):
        print(f"cauchykit imported from {cauchykit.__file__}, not from {src}",
              file=sys.stderr)
        return 3

    cal = Calibrator()
    for _ in range(SETUP_REF_PASSES):
        cal.sample()
    result = {"t_ready": T_READY, "setup_samples": cal.samples}
    cal.samples = []
    mode = job["mode"]
    if mode != "probe":
        profiler = cProfile.Profile() if job.get("profile") else None
        spans = Spans(cal) if job.get("spans") else None
        if spans is not None:
            spans.install()
        runner = Runner(job, cal, profiler)
        for _ in range(BRACKET_REF_PASSES):
            cal.sample()
        if profiler is None:  # the handler's Fraction work would pollute the profile
            cal.start()
        try:
            if mode == "cli":
                result.update(run_cli(runner))
            else:
                stream_results = run_stream(runner)
        finally:
            cal.stop()
        for _ in range(BRACKET_REF_PASSES):
            cal.sample()
        if profiler is not None:
            result["layers"] = profile_layers(profiler)
        # snapshots come before the stream checks, which call the library too
        result["counts"] = cache_counts()
        if spans is not None:
            result["spans"] = dict(spans.seconds)
            result["cases_checked"] = spans.cases_checked
        result["ops"] = runner.ops
        result["samples"] = cal.samples
        result["handler_s"] = cal.handler_s
        if mode == "library":
            result.update(stream_outcome(job["calls"], stream_results))
    result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
