"""Self-tests of the benchmark at tiny sizes.

Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def _declared(kind: str) -> set:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return {entry["name"] for entry in json.load(handle)[kind]}


@pytest.fixture(scope="module")
def tiny_outputs():
    """The tiny-size outputs of every workload, from one plain campaign each."""
    recorded = {}
    for workload in workloads.WORKLOADS:
        path = os.path.join(run.WORKDIR, f"selftest-{workload}")
        os.makedirs(path, exist_ok=True)
        job = {
            "workload": workload,
            "seed": workloads.input_seed(SEED),
            "workdir": path,
            "trace": False,
            "tiny": True,
        }
        env = run.child_env(workloads.WORKLOADS[workload]["env"])
        try:
            record = run.launch(env, job, time.perf_counter() + 120)
        finally:
            shutil.rmtree(path, ignore_errors=True)
        recorded[workload] = record["result"]["outputs"]
    return recorded


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_emitted(workload, trace, tiny_outputs):
    report = run.benchmark(
        workload, SEED, 1, trace, tiny=True, expected=tiny_outputs[workload]
    )
    result = report["result"]
    assert report["detail"]["failures"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = _declared("per_layer" if trace else "end_to_end")
    assert set(result["metrics"]) == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(result["metrics"][name]["value"] > 0 for name in expected)


def test_pooled_outputs_equal_serial(tiny_outputs):
    assert tiny_outputs["pooled-resilience"] == tiny_outputs["exact-resilience"]


def test_traced_run_attributes_the_pool(tiny_outputs):
    report = run.benchmark(
        "pooled-resilience", SEED, 1, True, tiny=True,
        expected=tiny_outputs["pooled-resilience"],
    )
    metrics = {name: m["value"] for name, m in report["result"]["metrics"].items()}
    assert metrics["pool.worker_busy_s"] > 0
    assert metrics["fast.wave_s"] >= metrics["pool.worker_busy_s"]
    assert metrics["pool.publish_attach"] >= 1
    assert 0 <= metrics["executor.unattributed_fraction"] < 1


@pytest.mark.parametrize("trace", [False, True])
def test_perturbed_expectation_counts_as_failure(trace, tiny_outputs):
    perturbed = json.loads(json.dumps(tiny_outputs["hub-takedown"]))
    perturbed["summary"]["max_degree"] += 1
    report = run.benchmark("hub-takedown", SEED, 1, trace, tiny=True, expected=perturbed)
    result = report["result"]
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert all("differ" in failure for failure in report["detail"]["failures"])


def test_child_env_drops_inherited_repro_variables(monkeypatch):
    monkeypatch.setenv("REPRO_GRAPH_BACKEND", "python")
    monkeypatch.setenv("REPRO_FORCE_POPCOUNT_LUT", "1")
    monkeypatch.setenv("REPRO_PATH_WORKERS", "7")
    env = run.child_env({"REPRO_PATH_WORKERS": "2"})
    assert {k: v for k, v in env.items() if k.startswith("REPRO_")} == {
        "REPRO_PATH_WORKERS": "2"
    }
    assert env["PYTHONPATH"] == run.SRC


def test_self_time_subtracts_direct_children():
    tracer = tracing.Tracer()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        tracer.call("inner", inner)

    tracer.call("outer", outer)
    (outer_self,), (inner_self,) = tracer.self_times("outer"), tracer.self_times("inner")
    assert inner_self >= 0.02
    assert 0.01 <= outer_self < 0.02
    assert outer_self + inner_self == pytest.approx(tracer.total("outer"))


def test_every_expected_variant_is_recorded():
    for workload in workloads.WORKLOADS:
        with open(workloads.expectation_file(workload), encoding="utf-8") as handle:
            recorded = json.load(handle)
        assert set(recorded) == {str(v) for v in range(workloads.INPUT_VARIANTS)}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hub-takedown",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
