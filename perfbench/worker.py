"""One workload process: set up, warm up, then run the timed closed loop.

Started by run.py, one process per role, so peak RSS belongs to the
workload alone.  Roles:

    setup    import, generate and write the inputs, run one warm-up op,
             report the time since the process was started (as wall time
             and at the reference clock, below), and exit;
    measure  the same set-up, then whole cycles of ops until the op time
             reaches --seconds, checking each output between ops;
    trace    the same set-up, then untraced and traced cycles in turn
             until the untraced ones reach half of --seconds, reporting
             per-layer metrics.

The last line of stdout is one JSON object for run.py.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402

MAX_REPORTED_FAILURES = 5

# The clock probe's time at full clock speed on the reference machine
# (2-vCPU Xeon sandbox).  Its CPU ran at two speeds about 1.45x apart,
# switching every few seconds to minutes, and moved whole runs by up to
# that factor.  Each op's time is therefore also given scaled by
# PROBE_REFERENCE_S / (probe time around that op): the op's time at the
# reference clock.
PROBE_REFERENCE_S = 0.42e-3
# Set-up is timed once per process, so its probe is the median of several.
SETUP_PROBES = 9


class ClockProbe:
    """A fixed piece of CPU work, independent of dsrep, timed between ops.

    Part BLAS (two complex 96x96 products), part interpreter loop, like
    the ops it calibrates; the fastest of three tries drops interrupts.
    """

    def __init__(self):
        grid = np.arange(96 * 96).reshape(96, 96)
        self._a = (grid % 13 - 6) / 13 + 1j * (grid % 7 - 3) / 7
        for _ in range(3):
            self()

    def __call__(self) -> float:
        best = math.inf
        for _ in range(3):
            start = time.perf_counter()
            self._a @ self._a
            self._a @ self._a
            sum(i * i for i in range(3000))
            best = min(best, time.perf_counter() - start)
        return best


class Loop:
    """A single client: runs ops one after another and checks each output."""

    def __init__(self):
        # (label, wall seconds, seconds at the reference clock or None)
        self.times: list[tuple[str, float, float | None]] = []
        self.failures: list[str] = []
        self.attempted = 0

    def record(self, op, result, error, seconds, probe_s=None):
        self.attempted += 1
        if error is None:
            try:
                op.check(result)
            except (workloads.CheckFailed, AttributeError, KeyError, TypeError,
                    ValueError) as exc:
                error = f"{type(exc).__name__}: {exc}"
        if error is None:
            scaled = None if probe_s is None else seconds * PROBE_REFERENCE_S / probe_s
            self.times.append((op.label, seconds, scaled))
        else:
            self.failures.append(f"{op.label}: {error}")


def _timed(op):
    start = time.perf_counter()
    try:
        result, error = op.run(), None
    except (Exception, SystemExit) as exc:  # one failed op must not end the run
        result, error = None, "".join(traceback.format_exception_only(exc)).strip()
    return result, error, time.perf_counter() - start


def _traced(tracer, op_id, op):
    try:
        result, seconds = tracer.run_op(op_id, op.run)
        return result, None, seconds
    except (Exception, SystemExit) as exc:
        return None, "".join(traceback.format_exception_only(exc)).strip(), 0.0


def run_cycles(cycle, budget_s, run_one, loop, cycles=None, probe=None):
    """Run whole cycles; stop where the next would end over half a cycle late.

    With ``cycles`` given, run exactly that many.  With ``probe``, the
    clock probe runs after every op, and each op is scaled by the mean of
    the probes on either side of it.  Returns the count of cycles run.
    """
    done, busy = 0, 0.0
    before = probe() if probe else None
    while True:
        for op in cycle:
            result, error, seconds = run_one(op)
            busy += seconds
            after = probe() if probe else None
            probe_s = (before + after) / 2 if probe else None
            loop.record(op, result, error, seconds, probe_s)
            before = after
            del result  # the next op must not run with this one's output alive
        done += 1
        if cycles is not None:
            if done >= cycles:
                return done
        elif busy + busy / done / 2 > budget_s:
            return done


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--role", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--started", type=float, required=True,
                        help="time.monotonic() when the parent started this process")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--trace-file")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)

    workdir = Path(tempfile.mkdtemp(prefix=f"{args.role}-", dir=args.workdir))
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        warm = Loop()
        warm.record(workload.warmup, *_timed(workload.warmup))
        setup_s = time.monotonic() - args.started
        probe = ClockProbe()
        clock_s = statistics.median(probe() for _ in range(SETUP_PROBES))
        out = {"setup_wall_s": setup_s, "setup_s": setup_s * PROBE_REFERENCE_S / clock_s,
               "warmup_failures": warm.failures}
        if args.role == "measure":
            loop = Loop()
            out["cycles"] = run_cycles(workload.cycle, args.seconds, _timed, loop, probe=probe)
            out.update(ops=loop.times, attempted=loop.attempted, failed=len(loop.failures),
                       failures=loop.failures[:MAX_REPORTED_FAILURES],
                       tail_pct=workload.tail_pct,
                       peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        elif args.role == "trace":
            # Untraced and traced cycles alternate, so a drift in machine
            # speed falls on both sides of the overhead estimate.
            plain, traced, tracer = Loop(), Loop(), spans.Tracer()
            op_ids = itertools.count()
            cycles, busy = 0, 0.0
            while busy + busy / max(cycles, 1) / 2 <= args.seconds / 2 or not cycles:
                run_cycles(workload.cycle, 0, _timed, plain, 1)
                tracer.install()
                try:
                    run_cycles(workload.cycle, 0, lambda op: _traced(tracer, next(op_ids), op),
                               traced, 1)
                finally:
                    tracer.uninstall()
                cycles += 1
                busy = sum(t for _, t, _ in plain.times)
            if args.trace_file:
                tracer.dump(args.trace_file)
            layer = spans.layer_metrics(tracer.spans)
            traced_s = sum(t for _, t, _ in traced.times)
            layer["trace.overhead_frac"] = (traced_s / busy - 1, "frac")
            failures = plain.failures + traced.failures
            out.update(cycles=cycles, layer=layer, attempted=plain.attempted + traced.attempted,
                       failed=len(failures), failures=failures[:MAX_REPORTED_FAILURES])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
