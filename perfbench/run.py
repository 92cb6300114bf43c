"""qmeasure benchmark: CLI workloads, end-to-end metrics and a per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload compare_d16 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1                   # all four workloads, 20 s each

With --trace 0 it reports, for one workload, the gated end-to-end metrics:
setup_s (median over fresh interpreters of `import qmeasure.cli` plus the
warm-up op), ops_per_s of the closed-loop timed phase, and peak_rss_mb of
the workload's process. op_p50_ms, op_p90_ms, fail_frac and the environment
are printed on the lines above the result. With --trace 1 it reports the
per-layer metrics of a traced run instead (see tracer.py). WORKLOADS.md
explains the workloads, the metrics and why op_p50_ms is not gated.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The program is built from `src/` of the
checkout this file sits in; without it the benchmark exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import metric_names
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_PROBES = 7
BLAS_THREADS = 1
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in metric_names():
        units[name] = "count" if name.endswith(".calls") else "ms"
    units.update({
        "op.traced_ms": "ms",
        "op.untraced_remainder_ms": "ms",
        "op.alloc_peak_mb": "MB",
        "trace.overhead_frac": "ratio",
    })
    return units


class BenchError(RuntimeError):
    """The benchmark could not run the program."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_argv(mode: str, args) -> list[str]:
    return [
        sys.executable, str(WORKER), mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--root", str(ROOT),
    ]


def probe_setup(args) -> tuple[list[float], int]:
    """Time fresh interpreter to ready, SETUP_PROBES times; return the times
    and how many probes' warm-up ops failed. The probe prints the system-wide
    monotonic clock when it is ready, so its exit is not timed."""
    times, failed = [], 0
    for _ in range(SETUP_PROBES):
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.Popen(
            worker_argv("probe", args), cwd=ROOT, env=child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired as exc:
            proc.kill()
            proc.wait()
            raise BenchError(f"set-up probe did not finish in {PROBE_TIMEOUT_S} s") from exc
        status, _, ready = out.strip().partition(" ")
        if proc.returncode != 0 or status not in ("ready", "failed"):
            raise BenchError(f"set-up probe exited {proc.returncode}: {err.strip()[-2000:]}")
        times.append(float(ready) - start)
        failed += status == "failed"
    return times, failed


def run_worker(args) -> dict:
    try:
        proc = subprocess.run(
            worker_argv("run", args), cwd=ROOT, env=child_env(),
            capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as err:
        raise BenchError(f"workload process did not finish in {err.timeout} s") from err
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"workload process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without starting git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(args) -> dict:
    """Run one workload; return its result object and print the report."""
    probes, probe_failed = ([], 0) if args.trace else probe_setup(args)
    out = run_worker(args)
    attempted = out["attempted"] + len(probes)
    failed = out["failed"] + probe_failed

    if args.trace:
        units = per_layer_units()
        values = out["layers"]
        ops = out["traced"]["ops"]
    else:
        units = END_TO_END
        timing = out["timing"]
        values = {
            "setup_s": statistics.median(probes),
            "ops_per_s": timing["ops_per_s"],
            "peak_rss_mb": out["peak_rss_mb"],
        }
        ops = timing["ops"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    mode = "traced" if args.trace else "untraced"
    print(f"workload {args.workload}, seed {args.seed}, {args.seconds:g} s, {mode}, {ops} timed ops")
    for name, m in metrics.items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':<40} {failed / attempted:>14.6g} ratio ({failed} of {attempted})")
    detail = {"workload": args.workload, "fail_frac": failed / attempted, "errors": out["errors"]}
    if args.trace:
        detail.update(untraced=out["untraced"], traced=out["traced"])
    else:
        for name in ("op_p50_ms", "op_p90_ms"):
            print(f"  {name:<40} {timing[name]:>14.6g} ms (n={ops}, not gated)")
        detail.update(timing=timing, setup_probes_s=probes)
    if out["recorded"].get("checks"):
        checks = out["recorded"]["checks"]
        print(f"  verify ran {len(checks)} checks: {', '.join(checks)}")
        detail["checks"] = checks
    if out.get("missing"):
        print(f"  not found, reported as 0: {', '.join(out['missing'])}")
    environment = dict(out["environment"], git_commit=git_commit(), seed=args.seed,
                       seconds=args.seconds, ops=ops)
    print(json.dumps({"environment": environment, "detail": detail}))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    if not (ROOT / "src" / "qmeasure" / "cli.py").is_file():
        print(f"error: no qmeasure sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
