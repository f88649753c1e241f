"""dsrep benchmark: one workload per invocation, metrics checked and printed.

    python3 perfbench/run.py --workload chain-verify --seed 1 --seconds 30 --trace 0

Workloads (see perfbench/README.md for why each was chosen):
    chain-verify     `dsrep generate` -> `dsrep verify --format json`
    validate-corpus  `dsrep validate --format json` on a seeded proposal stream
    gauge-search     solve_and_verify(..., allow_noncanonical=True) on so(5) irreps

With --trace 0 the end-to-end metrics are measured with tracing off: set-up
time is the median over several fresh processes, and the op timings come
from one more process that runs a single-client closed loop.  With
--trace 1 a separate process reports the per-layer metrics from spans
recorded around dsrep's module boundaries.  Every op's output is checked.
The last stdout line is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

--smoke runs tiny inputs, for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("chain-verify", "validate-corpus", "gauge-search")
SETUP_PROCESSES = 10 # besides the measuring process, which also sets up once
RUN_LIMIT_S = 170    # the whole invocation must end within 180 s
BLAS_THREADS = 1     # one client, one BLAS thread: steadier on a shared box


def _env() -> dict:
    env = dict(os.environ)
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": int(_env()["OPENBLAS_NUM_THREADS"]),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
    }


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


class RunFailed(Exception):
    pass


def _worker(args, role: str, deadline: float) -> dict:
    started = time.monotonic()
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--role", role,
           "--started", repr(started), "--workdir", str(OUT_DIR / "work")]
    if role == "trace":
        cmd += ["--trace-file", str(OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")]
    if args.smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"{role} process exceeded the time limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RunFailed(f"{role} process exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, deadline: float):
    setups = [_worker(args, "setup", deadline) for _ in range(1 if args.smoke else SETUP_PROCESSES)]
    run = _worker(args, "measure", deadline)
    setup_times = [s["setup_s"] for s in setups] + [run["setup_s"]]  # at the reference clock
    setup_wall = [s["setup_wall_s"] for s in setups] + [run["setup_wall_s"]]
    warmup_failures = [f for s in setups + [run] for f in s["warmup_failures"]]
    if not run["ops"]:
        raise RunFailed("no op completed: " + "; ".join(run["failures"] or warmup_failures))
    wall = [seconds for _, seconds, _ in run["ops"]]
    times = [scaled for _, _, scaled in run["ops"]]  # at the reference clock
    pct = run["tail_pct"]
    beyond = len(times) - math.ceil(pct / 100 * len(times))
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "op_tail_ms": (1e3 * percentile(times, pct), "ms"),
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    notes = [
        f"ops: {len(times)} completed in {run['cycles']} cycles, {sum(wall):.2f} s of op time",
        "op times are scaled to the reference clock; as wall time: "
        f"p50 {1e3 * statistics.median(wall):.4g} ms, p{pct} {1e3 * percentile(wall, pct):.4g} ms, "
        f"{len(wall) / sum(wall):.4g} ops/s",
        f"op_tail_ms is p{pct}: {beyond} samples beyond it"
        + ("" if beyond >= 10 else " (fewer than ten: read it as rough)"),
        f"setup_s is the median of {len(setup_times)} fresh processes at the reference clock: "
        + ", ".join(f"{t:.3f}" for t in setup_times)
        + "; as wall time: " + ", ".join(f"{t:.3f}" for t in setup_wall),
        f"error_rate: {run['failed']}/{run['attempted']} = "
        f"{run['failed'] / run['attempted']:.4f}",
    ]
    failures = warmup_failures + run["failures"]
    raw = {"setup_s": setup_times, "setup_wall_s": setup_wall, "ops": run["ops"]}
    return metrics, run["attempted"], run["failed"] + len(warmup_failures), failures, notes, raw


def per_layer(args, deadline: float):
    run = _worker(args, "trace", deadline)
    metrics = {name: tuple(value) for name, value in run["layer"].items()}
    notes = [f"traced and untraced passes of {run['cycles']} cycles each"]
    failures = run["warmup_failures"] + run["failures"]
    failed = run["failed"] + len(run["warmup_failures"])
    return metrics, run["attempted"], failed, failures, notes, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for self-tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "dsrep" / "__init__.py").is_file():
        print(f"error: dsrep sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (OUT_DIR / "work").mkdir(parents=True, exist_ok=True)

    measure = per_layer if args.trace else end_to_end
    try:
        metrics, attempted, failed, failures, notes, raw = measure(args, deadline)
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    env = environment()
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, trace {args.trace}")
    print("env " + json.dumps(env))
    for note in notes:
        print(note)
    for failure in failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, notes=notes, failures=failures, raw=raw)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
