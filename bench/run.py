"""Benchmark of contestq: one workload per run, one process, one thread.

    python3 bench/run.py --workload brute-scan --seed 1 --seconds 15 --trace 0

The run builds the workload's seeded corpus (timed as `setup_s`, the
median of repeated builds), runs one untimed warm-up pass, then timed
passes over the same fixed operation list until the summed operation
time reaches `--seconds` and at least MIN_OPS operations ran.  A pass is
never cut short.  Every output is checked against the exact oracle in
`oracle.py`.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

With `--trace 1` the run instead reports the per-layer metrics: it
traces one set-up build and one pass, and compares that pass with an
untraced pass of the same operations for the tracing overhead.  The
end-to-end metrics come only from untraced runs.

Run from the root of a checkout; the library is imported from its
`src/` directory.  Scratch files go to `.bench_out/` and are removed at
the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOAD_NAMES = ("brute-scan", "concave-solve", "graph-dynamics", "cli-corpus")

# A p90 with at least ten samples beyond it needs a hundred samples.
MIN_OPS = 100
# Set-up is rebuilt until both hold, and its median reported.
MIN_SETUP_BUILDS = 5
MIN_SETUP_SECONDS = 2.0
# Median time of `probe()` on the reference host (Intel Xeon at 2.0 GHz,
# Python 3.11, in its fast phases); see "Host speed" in README.md.
REFERENCE_PROBE_S = 0.62e-3
SPEED_WINDOW = 3
SETUP_PROBES = 15

END_TO_END_UNITS = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def import_library():
    """Import contestq from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "contestq" / "__init__.py").is_file():
        raise SystemExit(f"error: no contestq sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import contestq

    if Path(contestq.__file__).resolve().parent != src / "contestq":
        raise SystemExit(f"error: imported contestq from {contestq.__file__}")


def probe():
    """A fixed stdlib-only computation: exact fractions, tuples and a dict."""
    acc, table = Fraction(0), {}
    for i in range(1, 80):
        f = Fraction(i, i + 7)
        acc += f * f
        table[(i, i % 7)] = acc
    return acc


def probe_seconds():
    t0 = time.perf_counter()
    probe()
    return time.perf_counter() - t0


class Tally:
    """Latencies and outcomes of the timed operations.

    Every op is preceded by an untimed probe.  An op's latency is scaled
    by REFERENCE_PROBE_S / (median time of the probes within SPEED_WINDOW
    ops of it), so it reads as a time on a host at the reference speed.
    """

    def __init__(self):
        self.latencies = []   # scaled seconds; a failed op counts as infinitely slow
        self.op_time = 0.0    # summed scaled op time of the timed passes
        self.wall_time = 0.0  # summed unscaled op time of the timed passes
        self.speeds = []      # per timed pass: host speed against the reference
        self.attempted = 0
        self.failed = 0
        self.wrong = {}       # label -> first check message
        self.errors = {}      # label -> first exception text

    def run_pass(self, ops, timed=True):
        """Run every op once; time the call, then check its output.

        Returns the pass's summed op time, scaled.
        """
        gc.collect()
        clock = time.perf_counter
        times, failed, probes = [], [], []
        for op in ops:
            probes.append(probe_seconds())
            t0 = clock()
            try:
                result = op.call()
            except Exception as exc:  # a crash of the program under test
                times.append(clock() - t0)
                failed.append(True)
                self.errors.setdefault(op.label, f"{type(exc).__name__}: {exc}")
                continue
            times.append(clock() - t0)
            failed.append(False)
            try:
                op.check(result)
            except Exception as exc:  # any check error means a wrong output
                self.wrong.setdefault(op.label, f"{type(exc).__name__}: {exc}")
        w = SPEED_WINDOW
        speeds = [REFERENCE_PROBE_S / statistics.median(probes[max(0, i - w):i + w + 1])
                  for i in range(len(probes))]
        scaled = [t * speed for t, speed in zip(times, speeds)]
        if timed:
            self.speeds.append(REFERENCE_PROBE_S / statistics.median(probes))
            self.wall_time += sum(times)
            self.attempted += len(times)
            self.failed += sum(failed)
            self.latencies += [float("inf") if bad else t for t, bad in zip(scaled, failed)]
            self.op_time += sum(scaled)
        return sum(scaled)


def timed_setup(setup, seed, workdir):
    """Build the corpus repeatedly; return the last build and the median
    build time, each build scaled by the probes taken around it.

    Every build writes into a new directory, as a first build does; the
    one before it is removed, untimed.  (Rewriting the same files took up
    to twice as long, and grew slower build by build.)"""
    times, spent, previous = [], 0.0, None
    probes = [probe_seconds() for _ in range(SETUP_PROBES)]
    while len(times) < MIN_SETUP_BUILDS or spent < MIN_SETUP_SECONDS:
        target = workdir / f"build-{len(times)}"
        target.mkdir()
        t0 = time.perf_counter()
        corpus = setup(seed, target)
        elapsed = time.perf_counter() - t0
        if previous is not None:
            shutil.rmtree(previous)
        previous = target
        after = [probe_seconds() for _ in range(SETUP_PROBES)]
        spent += elapsed
        times.append(elapsed * REFERENCE_PROBE_S / statistics.median(probes + after))
        probes = after
    return corpus, statistics.median(times)


def run_workload(name, seed, seconds, trace, workdir):
    """Run one workload; return (correct, attempted, failed, metrics, tally)."""
    import workloads

    setup, make_ops = workloads.WORKLOADS[name]
    tally = Tally()
    if trace:
        return _traced_run(setup, make_ops, seed, workdir, tally)
    corpus, setup_s = timed_setup(setup, seed, workdir)
    ops = make_ops(corpus, workdir, seed)
    tally.run_pass(ops, timed=False)
    while tally.wall_time < seconds or tally.attempted < MIN_OPS:
        tally.run_pass(ops)
    lat = sorted(tally.latencies)
    metrics = {
        "ops_per_s": (tally.attempted - tally.failed) / tally.op_time,
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[-1] * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    units = END_TO_END_UNITS
    return (not tally.wrong, tally.attempted, tally.failed,
            {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}, tally)


def _traced_run(setup, make_ops, seed, workdir, tally):
    import tracer as tracing

    tracer = tracing.Tracer()
    tracer.install()
    try:
        corpus = setup(seed, workdir)
    finally:
        tracer.remove()
    ops = make_ops(corpus, workdir, seed)
    tally.run_pass(ops, timed=False)
    plain = tally.run_pass(ops)
    tracer.install()
    try:
        traced = tally.run_pass(ops)
    finally:
        tracer.remove()
    layer = tracer.layer_metrics(len(ops), traced / plain)
    units = tracing.LAYER_METRICS
    return (not tally.wrong, tally.attempted, tally.failed,
            {k: {"value": v, "unit": units[k]} for k, v in layer.items()}, tally)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("CONTESTQ_CAP", None)  # every run uses the library's default caps
    import_library()

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        correct, attempted, failed, metrics, tally = run_workload(
            args.workload, args.seed, args.seconds, args.trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for label, text in sorted(tally.errors.items()):
        print(f"failed: {label}: {text}", file=sys.stderr)
    for label, text in sorted(tally.wrong.items()):
        print(f"WRONG: {label}: {text}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print("host speed per pass: " + " ".join(f"{s:.3f}" for s in tally.speeds))
    print(f"attempted: {attempted}; failed: {failed}; correct: {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
