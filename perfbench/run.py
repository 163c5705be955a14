#!/usr/bin/env python3
"""The bbf benchmark: one seeded workload, measured for a fixed time.

    python3 perfbench/run.py --workload walls-hyp --seed 1 --seconds 35 --trace 0

Run from the repository root; bbf is imported from ./src.  With --trace 0
it prints the end-to-end metrics of the calls made in --seconds of call
time; with --trace 1 it makes a fixed number of calls per second of run
twice, the second time with every layer wrapped in spans (see tracing.py),
and prints the per-layer metrics and the tracing overhead.  Every output is
checked (see workloads.py).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  The exit code is 1, with no
result line, when bbf cannot be imported from ./src.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from itertools import cycle, islice
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 15

# A fresh interpreter times importing bbf, loading the bundled catalog and
# building the workload's lattices.  bbf is imported first, so that the
# stdlib modules it shares with workloads.py count in its import time, and
# importing workloads.py is left out of the timed region.
SETUP_CHILD = """
import sys
sys.path[:0] = [{src!r}, {here!r}]
from time import perf_counter
start = perf_counter()
import bbf
imported = perf_counter()
from workloads import WORKLOADS
lattices = WORKLOADS[{name!r}].lattices
resumed = perf_counter()
lattices(bbf, bbf.builtin_catalog())
print(repr(imported - start + perf_counter() - resumed))
"""


def setup_seconds(name: str) -> float:
    code = SETUP_CHILD.format(src=str(SRC), here=str(HERE), name=name)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True,
            timeout=120, check=True,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Measurement:
    """Calls, failures, the fastest call of each input and the digest of
    every exact output.

    Inputs are numbered; a workload may call each input several times (see
    measure), and an input's latency is its fastest call, since the host
    only ever slows a call down.  A call that raises (refused or failed)
    counts in `attempted`, and its input's fastest time counts in
    `fastest_seconds`, but it gives no latency sample: refusing faster
    cannot raise a rate or lower a percentile.  The digest covers the first
    answer of each input; a later call of the same input must give the same
    answer."""

    def __init__(self):
        self.attempted = 0
        self.call_seconds = 0.0
        self.fastest: dict[int, float] = {}  # input number -> fastest call
        self.planes: dict[int, int] = {}     # answered input number -> subspaces tested
        self.failed = 0
        self.refused = 0
        self.problems: list[str] = []
        self._records: dict[int, str] = {}
        self._digest = hashlib.sha256()

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()[:16]

    @property
    def latencies(self) -> list[float]:
        """The fastest call of each answered input."""
        return [self.fastest[i] for i in self.planes]

    @property
    def fastest_seconds(self) -> float:
        return sum(self.fastest.values())

    def call(self, bbf, workload, lattices, inp, number: int = 0) -> None:
        """Time one public call of input `number`; check and digest its
        output untimed."""
        start = perf_counter()
        try:
            out = workload.call(bbf, lattices, inp)
        except Exception as exc:  # a failed call is counted, and the loop goes on
            self._timed(number, start)
            if isinstance(exc, bbf.InvariantViolation) and str(exc) == workload.refusal:
                self.refused += 1
                problems = self._record(number, repr((inp, str(exc))))
            else:
                problems = ["raised: " + traceback.format_exc()]
        else:
            self._timed(number, start)
            problems = []
            if number not in self._records:
                problems = workload.check(lattices, inp, out)
                self.planes[number] = workload.planes(out)
            problems += self._record(number, repr(workload.record(inp, out)))
        if problems:
            self.failed += 1
            self.problems.extend("call %d: %s" % (self.attempted, p) for p in problems)

    def _timed(self, number: int, start: float) -> None:
        elapsed = perf_counter() - start
        self.attempted += 1
        self.call_seconds += elapsed
        self.fastest[number] = min(elapsed, self.fastest.get(number, elapsed))

    def _record(self, number: int, record: str) -> list[str]:
        """Digest an input's first outcome; a repeat must match it."""
        first = self._records.get(number)
        if first is None:
            self._records[number] = record
            self._digest.update(record.encode())
        elif first != record:
            return ["input %d gave %s, before %s" % (number, record, first)]
        return []


def measure(bbf, workload, lattices, inputs, seconds) -> Measurement:
    """Closed loop, one thread: the first `workload.batch` inputs are called
    in turn, pass after pass, until the calls have taken `seconds` in total.
    Inputs are generated between the calls of the first pass.  A workload
    without a batch calls a new input every time."""
    m = Measurement()
    size = workload.batch
    for i, inp in enumerate(cycle(islice(inputs, size))):
        m.call(bbf, workload, lattices, inp, i % size if size else i)
        if m.call_seconds >= seconds:
            break
    return m


def measure_traced(bbf, workload, lattices, inputs, calls):
    """Each of `calls` inputs called untraced, then traced: alternating
    keeps drifts in machine speed out of the tracing overhead.  Set-up is
    traced once as well, for the catalog layer."""
    tracer = Tracer()
    plain, traced = Measurement(), Measurement()
    with tracer.patched():
        workload.lattices(bbf, bbf.builtin_catalog())
    for i, inp in enumerate(islice(inputs, calls)):
        plain.call(bbf, workload, lattices, inp, i)
        with tracer.patched():
            traced.call(bbf, workload, lattices, inp, i)
    return plain, traced, tracer


def percentile(values, q):
    """Linear-interpolation percentile (q in 0..100) of at least one value."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(m: Measurement, setup_s: float, tail: int) -> dict:
    ms = [1000 * t for t in m.latencies]
    return {
        "setup_s": (setup_s, "s"),
        "calls_per_s": (len(ms) / m.fastest_seconds, "1/s"),
        "call_ms_p50": (percentile(ms, 50), "ms"),
        "call_ms_tail": (percentile(ms, tail), "ms"),
        "planes_per_s": (sum(m.planes.values()) / m.fastest_seconds, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def import_bbf():
    sys.path.insert(0, str(SRC))
    try:
        import bbf
    except ImportError as exc:
        return None, "cannot import bbf from %s: %s" % (SRC, exc)
    if not Path(bbf.__file__).resolve().is_relative_to(SRC):
        return None, "bbf was imported from %s, not from %s" % (bbf.__file__, SRC)
    return bbf, None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=2026)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    bbf, error = import_bbf()
    if error:
        print(error, file=sys.stderr)
        return 1
    workload = WORKLOADS[args.workload]
    lattices = workload.lattices(bbf, bbf.builtin_catalog())
    inputs = workload.inputs(bbf, lattices, args.seed)

    if args.trace:
        # A fixed number of calls per second of run, so that the per-layer
        # counts of a seed repeat exactly and compare directly between commits.
        calls = max(1, round(args.seconds * workload.traced_calls_per_s))
        plain, traced, tracer = measure_traced(bbf, workload, lattices, inputs, calls)
        metrics = tracer.metrics()
        overhead = traced.call_seconds - plain.call_seconds
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_share"] = (overhead / plain.call_seconds, "ratio")
        metrics["periods.refusals"] = (traced.refused, "count")
        runs = (plain, traced)
        if traced.digest != plain.digest:
            plain.problems.append("traced digest %s != untraced %s" % (traced.digest, plain.digest))
    else:
        setup_s = setup_seconds(args.workload)
        plain = measure(bbf, workload, lattices, inputs, seconds=args.seconds)
        metrics = end_to_end(plain, setup_s, workload.tail_percentile)
        runs = (plain,)

    attempted = sum(m.attempted for m in runs)
    failed = sum(m.failed for m in runs)
    problems = [p for m in runs for p in m.problems]
    for p in problems[:20]:
        print("PROBLEM " + p, file=sys.stderr)
    print("workload %s seed %d trace %d: %d calls of %d inputs, digest %s" % (
        args.workload, args.seed, args.trace, plain.attempted, len(plain.fastest), plain.digest))
    print("fail_ratio %.4f (%d of %d calls); refused %d" % (
        failed / attempted, failed, attempted, sum(m.refused for m in runs)))
    if not args.trace:
        tail = workload.tail_percentile
        cut = percentile(plain.latencies, tail)
        print("call_ms_tail is p%d: %d of %d samples lie beyond it" % (
            tail, sum(t > cut for t in plain.latencies), len(plain.latencies)))
    for name, (value, unit) in metrics.items():
        print("  %-50s %16.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
