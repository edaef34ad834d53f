"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from catkit.limits import ChosenTerminal  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _labels(workload, seed, tmp_path, tag):
    workdir = tmp_path / f"{workload}-{seed}-{tag}"
    workdir.mkdir()
    return [(op.label, op.morphisms) for op in workloads.build(workload, seed, str(workdir))]


@pytest.mark.parametrize("workload", layers.WORKLOADS)
def test_operation_list_is_a_function_of_the_seed(workload, tmp_path):
    first = _labels(workload, 7, tmp_path, "a")
    assert first == _labels(workload, 7, tmp_path, "b")
    assert first != _labels(workload, 8, tmp_path, "c")


def _smallest(workload, tmp_path, prefix):
    ops = workloads.build(workload, 1, str(tmp_path))
    return min((op for op in ops if op.label.startswith(prefix)), key=lambda op: op.morphisms)


def _failures_with(op, corrupt):
    """Failures the closed loop counts when ``corrupt`` edits the output."""
    call = op.call
    op.call = lambda *args: corrupt(call(*args))
    loop = run.Loop([op])
    loop.run_pass()
    return loop.failures


def test_correct_outputs_pass(tmp_path):
    for workload, prefix in (("structured-pipeline", "pipeline"), ("documents", "complete"),
                             ("skeletal-cli", "factor")):
        workdir = tmp_path / workload
        workdir.mkdir()
        assert _failures_with(_smallest(workload, workdir, prefix), lambda out: out) == []


def test_oracle_rejects_a_wrong_witness(tmp_path):
    op = _smallest("structured-pipeline", tmp_path, "pipeline")

    def wrong_terminal(out):
        sc, _ = out
        sc.completed["terminal"] = ChosenTerminal(0)  # the bottom of a chain
        return out

    assert len(_failures_with(op, wrong_terminal)) == 1


def test_oracle_rejects_a_corrupted_composite(tmp_path):
    op = _smallest("documents", tmp_path, "complete")

    def corrupt(out):
        code, text = out
        report = json.loads(text)
        triples = report["payload"]["result"]["composition"]
        f, g, fg = triples[0]
        triples[0] = [f, g, next(t[2] for t in triples if t[2] != fg)]
        return code, json.dumps(report)

    assert len(_failures_with(op, corrupt)) == 1


def test_oracle_rejects_an_unexpected_exit_code(tmp_path):
    op = _smallest("skeletal-cli", tmp_path, "analyze --structure")
    assert len(_failures_with(op, lambda out: (0, out[1]))) == 1


def test_an_unexpected_raise_is_a_failure(tmp_path):
    op = _smallest("skeletal-cli", tmp_path, "demo")

    def boom(out):
        raise RuntimeError("planted")

    assert len(_failures_with(op, boom)) == 1


def test_metric_names_and_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    per_layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert per_layer == layers.per_layer_metrics()
    names = [m["name"] for m in bench["end_to_end"]] + [n for n, _, _ in per_layer]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert {w["name"] for w in bench["workloads"]} == set(layers.WORKLOADS)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(100))) == (90, 89)
    assert run.tail_percentile(list(range(1000))) == (99, 989)
    assert run.tail_percentile(list(range(30))) == (50, 14)


def test_latency_is_the_fastest_run_of_an_input(monkeypatch):
    def op(label):
        return workloads.Op(label, 1, True, lambda: (), lambda: None,
                            lambda args, out: [], lambda out: "")

    a, b = op("a"), op("b")
    loop = run.Loop([a, b, a])  # a pass that lists input a twice
    durations = iter([5, 2, 3, 4, 1, 6])  # two passes
    clock = iter(t for d in durations for t in (0.0, float(d)))
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))
    loop.run_pass()
    loop.run_pass()
    assert loop.latencies() == [3.0, 1.0, 3.0]
    assert loop.attempted == 6 and loop.failures == []


def _traced(workload, seed=1):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    spans = json.loads((ROOT / ".perfbench" / f"spans-{workload}-seed{seed}.json").read_text())
    return result, {s[0] for s in spans}


@pytest.mark.parametrize("workload", layers.WORKLOADS)
def test_declared_spans_fire_in_their_workloads(workload):
    result, fired = _traced(workload)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {n for n, _, _ in layers.per_layer_metrics()}
    missing = [s.name for s in layers.SPANS if workload in s.fires_in and s.name not in fired]
    assert missing == []


def test_candidate_checks_repeat_exactly():
    first, _ = _traced("skeletal-cli", seed=3)
    second, _ = _traced("skeletal-cli", seed=3)
    key = "search.candidate_checks"
    assert first["metrics"][key]["value"] == second["metrics"][key]["value"] > 0


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "documents", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
