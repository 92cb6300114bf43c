"""Tests of the benchmark itself: generated inputs, oracles, tracer, contract.

Run from the root of the repository:

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import qmeasure.cli  # noqa: E402
import qmeasure.scenario  # noqa: E402
import qmeasure.states  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import Runner  # noqa: E402

WITH_INPUTS = ("compare_d16", "cat_chain7", "run_mixed")


def _inputs(workload: str, seed: int, n: int = 3) -> bytes:
    ops = [workloads.make_op(workload, seed, workloads.TIMED, i) for i in range(n)]
    return json.dumps([[op.argv, op.document] for op in ops]).encode()


@pytest.fixture
def runner_for(tmp_path):
    def make(workload, cli_main=qmeasure.cli.main, seed=3):
        return Runner(cli_main, workload, seed, tmp_path)

    return make


@pytest.mark.parametrize("workload", WITH_INPUTS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    assert _inputs(workload, 5) == _inputs(workload, 5)
    assert _inputs(workload, 5) != _inputs(workload, 6)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_output_are_byte_identical(workload, runner_for):
    runner = runner_for(workload)
    op = workloads.make_op(workload, 3, workloads.TIMED, 0)
    _, code, plain, _ = runner.call(op)
    t = tracer.Tracer()
    t.install()
    try:
        _, traced_code, traced, _ = runner.call(op)
    finally:
        t.uninstall()
    assert code == traced_code == 0
    assert plain.encode() == traced.encode()
    assert t.spans and not t.missing
    workloads.check_output(workload, op, code, plain)


def _corrupt(workload: str, out):
    if workload == "compare_d16":
        out["worst_case_key"][1] += 1
    elif workload == "cat_chain7":
        p = out["born"]["probabilities"]
        p[0], p[-1] = p[-1], p[0]
    elif workload == "run_mixed":
        out["restricted"]["weights"][0] += 1e-6
    else:
        out[-1]["passed"] = False
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_corrupted_output_is_counted_as_failed(workload, runner_for):
    def corrupting_main(argv):
        code = qmeasure.cli.main(argv)
        out = json.loads(sys.stdout.getvalue())
        sys.stdout.seek(0)
        sys.stdout.truncate()
        sys.stdout.write(json.dumps(_corrupt(workload, out)))
        return code

    runner = runner_for(workload, corrupting_main)
    runner.run_op(workloads.TIMED, 0)
    assert (runner.attempted, runner.failed) == (1, 1)
    assert runner.errors


@pytest.mark.parametrize("outcome", [2, "raised RuntimeError: boom"])
def test_nonzero_exit_or_exception_is_counted_as_failed(outcome, runner_for):
    def failing_main(argv):
        if isinstance(outcome, str):
            raise RuntimeError("boom")
        return outcome

    runner = runner_for("cat_chain7", failing_main)
    runner.run_op(workloads.TIMED, 0)
    assert (runner.attempted, runner.failed) == (1, 1)


def test_missing_layer_and_function_are_listed_not_fatal(monkeypatch, runner_for):
    monkeypatch.setattr(tracer, "HOT_FUNCTIONS", tracer.HOT_FUNCTIONS + ("linalg.gone",))
    t = tracer.Tracer(layers=tracer.LAYERS + ("gone",))
    t.install()
    try:
        runner_for("cat_chain7").run_op(workloads.TIMED, 0)
    finally:
        t.uninstall()
    assert t.missing == ["qmeasure.gone", "linalg.gone"]
    summary = t.summarize(1)
    assert summary["linalg.gone.ms"] == 0.0
    assert summary["observables.joint_eigenblocks.ms"] > 0.0


def test_uninstall_restores_every_binding():
    original = qmeasure.scenario.parse_scenario
    validator = vars(qmeasure.states.DensityMatrix)["__post_init__"]
    t = tracer.Tracer()
    t.install()
    assert qmeasure.scenario.parse_scenario is not original
    assert qmeasure.cli.parse_scenario is qmeasure.scenario.parse_scenario
    assert vars(qmeasure.states.DensityMatrix)["__post_init__"] is not validator
    t.uninstall()
    assert qmeasure.scenario.parse_scenario is original
    assert qmeasure.cli.parse_scenario is original
    assert vars(qmeasure.states.DensityMatrix)["__post_init__"] is validator


def test_layer_self_times_add_up_to_outermost_spans(runner_for):
    t = tracer.Tracer()
    t.install()
    try:
        runner_for("run_mixed").run_op(workloads.TIMED, 0)
    finally:
        t.uninstall()
    summary = t.summarize(1)
    total_self = sum(summary[f"{layer}.self_ms"] for layer in tracer.LAYERS)
    assert total_self == pytest.approx(summary["root_ms"], rel=1e-9)
    assert summary["cli.calls"] == 1
    assert summary["measurement.premeasure_density.ms"] > 0.0


def _run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_reports_every_declared_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _run_bench(ROOT, "--workload", "cat_chain7", "--seed", "2",
                      "--seconds", "0.5", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_without_the_program_the_benchmark_exits_nonzero(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_bench(tmp_path, "--workload", "cat_chain7", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
