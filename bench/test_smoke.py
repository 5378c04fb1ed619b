"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 -m pytest bench/test_smoke.py -q
"""

import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import workloads
from fagnano import cli, optimize, theorem
from fagnano.geometry import OrthicResult
from tracing import NullTracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
TINY = workloads.SIZES["tiny"]


def declared(section):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def run_bench(workload, trace, cwd=ROOT, root=ROOT):
    command = [
        sys.executable,
        os.path.join(root, "bench", "run.py"),
        "--workload", workload,
        "--seed", "3",
        "--seconds", "0.2",
        "--trace", str(trace),
        "--size", "tiny",
    ]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize(
    "workload, trace",
    [("verify", 0), ("oracle", 0), ("cli", 0), ("oracle", 1)],
)
def test_every_named_metric_is_emitted_with_its_unit(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
    for name, metric in result["metrics"].items():
        assert math.isfinite(metric["value"]), name
        if not trace:
            assert metric["value"] > 0, name


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("verify", 0, cwd=tmp_path, root=str(tmp_path))
    assert done.returncode != 0
    assert "correct" not in done.stdout


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_the_same_seed_gives_the_same_inputs(name, tmp_path):
    make = workloads.WORKLOADS[name].make_inputs
    first = make(11, TINY, str(tmp_path))
    assert make(11, TINY, str(tmp_path)) == first
    assert make(12, TINY, str(tmp_path)) != first


def test_a_slower_host_level_cancels_out(monkeypatch):
    # Pass 2 runs at half speed: the calls and the reference take twice as long.
    levels = iter([1e-4, 1e-4, 2e-4, 2e-4, 1e-4, 1e-4])
    monkeypatch.setattr(workloads, "reference_sample", lambda: next(levels))
    monkeypatch.setattr(workloads, "REFERENCE_EVERY_S", 1.0)
    tally = workloads.Tally()
    for scale in (1.0, 2.0, 1.0):
        tally.start_pass()
        tally.record(0.004 * scale, 10, False)
        tally.record(0.010 * scale, 1, True)
        tally.take_reference()
    assert tally.call_times() == pytest.approx([0.004, 0.010])
    doc = tally.to_document()
    assert doc["passes"] == 3 and doc["ops_per_pass"] == 11
    assert doc["ops_per_s"] == pytest.approx(11 / 0.014)
    assert doc["op_p50_ms"] == pytest.approx(10.0) and doc["latency_samples"] == 1


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_pass_makes_the_same_calls(name, tmp_path):
    inputs = workloads.WORKLOADS[name].make_inputs(5, TINY, str(tmp_path))
    tally = workloads.measure(name, inputs, 0.5, NullTracer())
    assert len(tally.passes) >= 2
    assert {len(times) for times in tally.passes} == {len(tally.calls)}
    assert tally.failed == 0


def measure_tiny(name, tmp_path):
    inputs = workloads.WORKLOADS[name].make_inputs(5, TINY, str(tmp_path))
    return workloads.measure(name, inputs, 0.0, NullTracer())


def test_a_wrong_closed_form_fails_every_oracle_op(monkeypatch, tmp_path):
    exact = optimize.min_perimeter_closed_form
    monkeypatch.setattr(
        optimize, "min_perimeter_closed_form", lambda t: exact(t) * (1.0 + 1e-3)
    )
    tally = measure_tiny("oracle", tmp_path)
    assert tally.attempted == TINY.oracle_blocks * TINY.oracle_block
    assert tally.failed == tally.attempted
    assert "perimeter off" in tally.failures[0]


def test_a_wrong_incenter_check_fails_its_verify_ops(monkeypatch, tmp_path):
    monkeypatch.setattr(theorem, "incenter_orthocenter_check", lambda t: 1e-6)
    tally = measure_tiny("verify", tmp_path)
    assert tally.failed == TINY.acute_triangles + TINY.quarter_triangles
    assert "incenter/orthocenter gap" in tally.failures[0]


def test_a_wrong_cli_answer_is_counted_not_timed_as_a_success(monkeypatch, tmp_path):
    inputs = workloads.WORKLOADS["cli"].make_inputs(5, TINY, str(tmp_path))
    exact = cli.orthic_triangle

    def skewed(t, tol):
        r = exact(t, tol)
        return OrthicResult(*r.feet, r.angles, r.perimeter * (1.0 + 1e-9))

    monkeypatch.setattr(cli, "orthic_triangle", skewed)
    tally = workloads.measure("cli", inputs, 0.0, NullTracer())
    orthic = sum(req.kind == "orthic" for req in inputs[0])
    assert tally.failed == orthic
    assert "differ from the library" in tally.failures[0]


def test_unreadable_cli_output_is_a_failure_not_a_crash(monkeypatch, tmp_path):
    inputs = workloads.WORKLOADS["cli"].make_inputs(5, TINY, str(tmp_path))
    monkeypatch.setattr(cli.jsonio, "dumps", lambda doc: "not json\n")
    tally = workloads.measure("cli", inputs, 0.0, NullTracer())
    assert tally.failed == sum(req.kind != "render" for req in inputs[0])
    assert "unreadable result" in tally.failures[0]
