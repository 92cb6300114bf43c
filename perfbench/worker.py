"""One benchmark process: set up the CLI, then run one workload closed loop.

run.py starts this file in a fresh interpreter with BLAS pinned to one
thread and `src` on the import path. Two modes:

  probe  import qmeasure.cli, run the warm-up op, print "ready" (or
         "failed") and the monotonic clock, exit. run.py takes the set-up
         time from that clock reading.
  run    the same set-up, then the timed phase; prints one JSON object.

Every op is one in-process call to `qmeasure.cli.main(argv)` with stdout and
stderr captured. The next op starts when the previous one returns. Input
generation and the oracle run between ops, outside the timed call.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np

import workloads
from tracer import Tracer

# tracemalloc slows every allocation, so the allocation probe runs apart from
# the span-traced phase and only for a few ops
ALLOC_OPS = 3
TRACE_BLOCKS = 4


class Runner:
    """Runs ops of one workload and keeps the tally the oracle feeds."""

    def __init__(self, cli_main, workload: str, seed: int, workdir: Path):
        self.cli_main = cli_main
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.recorded: dict = {}

    def call(self, op) -> tuple[float, int, str, str]:
        """Run one op; return (seconds inside the CLI call, exit code,
        stdout, stderr)."""
        path = ""
        if op.document is not None:
            path = str(self.workdir / "scenario.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(op.document)
        argv = op.argv_for(path)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli_main(argv)
            except Exception as exc:  # the op failed; count it, keep running
                code = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        return elapsed, code, out.getvalue(), err.getvalue()

    def run_op(self, phase: int, index: int) -> float:
        """Run and check one op; return its latency in seconds."""
        op = workloads.make_op(self.workload, self.seed, phase, index)
        elapsed, code, stdout, stderr = self.call(op)
        self.attempted += 1
        try:
            recorded = workloads.check_output(self.workload, op, code, stdout)
        except workloads.OracleError as err:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append(f"op {phase}/{index}: {err} {stderr.strip()[:200]}".rstrip())
        else:
            self.recorded.update(recorded)
        return elapsed

    def loop(self, phase: int, seconds: float, start: int = 0, before_op=None) -> list[float]:
        """Closed loop over ops start, start + 1, ... for `seconds` of wall
        time (at least one op)."""
        latencies: list[float] = []
        stop = time.perf_counter() + seconds
        while not latencies or time.perf_counter() < stop:
            index = start + len(latencies)
            if before_op is not None:
                before_op(index)
            latencies.append(self.run_op(phase, index))
        return latencies


def _percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _timing(latencies: list[float]) -> dict:
    return {
        "ops": len(latencies),
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": 1e3 * _percentile(latencies, 0.5),
        "op_p90_ms": 1e3 * _percentile(latencies, 0.9),
        "op_mean_ms": 1e3 * sum(latencies) / len(latencies),
    }


def _trace_run(runner: Runner, seconds: float, out_dir: Path) -> dict:
    """Untraced and traced blocks in turn over the same inputs, so that drift
    in machine speed falls on both sides of the overhead ratio; then the
    allocation probe."""
    tracer = Tracer()
    untraced: list[float] = []
    traced: list[float] = []
    block = seconds / (2 * TRACE_BLOCKS)

    def begin(index):
        tracer.op = index

    for _ in range(TRACE_BLOCKS):
        untraced += runner.loop(workloads.TIMED, block, start=len(untraced))
        tracer.install()
        try:
            traced += runner.loop(workloads.TIMED, block, start=len(traced), before_op=begin)
        finally:
            tracer.uninstall()
    layers = tracer.summarize(len(traced))
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{runner.workload}.csv")

    tracemalloc.start()
    peaks = []
    for index in range(ALLOC_OPS):
        tracemalloc.reset_peak()
        runner.run_op(workloads.TIMED, index)
        peaks.append(tracemalloc.get_traced_memory()[1])
    tracemalloc.stop()

    untraced_t, traced_t = _timing(untraced), _timing(traced)
    layers["op.traced_ms"] = traced_t["op_mean_ms"]
    layers["op.untraced_remainder_ms"] = traced_t["op_mean_ms"] - layers.pop("root_ms")
    layers["op.alloc_peak_mb"] = statistics.median(peaks) / 2**20
    layers["trace.overhead_frac"] = untraced_t["ops_per_s"] / traced_t["ops_per_s"] - 1.0
    return {
        "layers": layers,
        "untraced": untraced_t,
        "traced": traced_t,
        "missing": tracer.missing,
        "spans": len(tracer.spans),
    }


def _environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):  # numpy before 2.0 prints, returns nothing
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


def _setup(workload: str, seed: int, root: Path, workdir: Path):
    import qmeasure
    import qmeasure.cli

    src = (root / "src").resolve()
    if Path(qmeasure.__file__).resolve().parent.parent != src:
        raise SystemExit(f"qmeasure imported from {qmeasure.__file__}, not from {src}")
    runner = Runner(qmeasure.cli.main, workload, seed, workdir)
    runner.run_op(workloads.WARMUP, 0)
    return runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("probe", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", required=True)
    args = parser.parse_args(argv)
    root = Path(args.root)
    workdir = root / ".perfbench_work" / f"{args.mode}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = _setup(args.workload, args.seed, root, workdir)
        if args.mode == "probe":
            ready = time.clock_gettime(time.CLOCK_MONOTONIC)
            print("failed" if runner.failed else "ready", repr(ready), flush=True)
            return 0
        if args.trace:
            result = _trace_run(runner, args.seconds, root / ".perfbench_out")
        else:
            result = {"timing": _timing(runner.loop(workloads.TIMED, args.seconds))}
        result.update(
            attempted=runner.attempted,
            failed=runner.failed,
            errors=runner.errors,
            recorded=runner.recorded,
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            environment=_environment(),
        )
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # another process still uses it
            pass


if __name__ == "__main__":
    sys.exit(main())
