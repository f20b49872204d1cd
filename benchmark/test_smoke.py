"""Reduced-size smoke test of the benchmark.

Runs every workload shape once at a small N (``--smoke``), untraced and
traced, and checks that the output carries every metric BENCHMARK.json
names, with its unit, and that every correctness gate passed.  Run with

    python3 -m pytest -q benchmark/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

sys.path.insert(0, HERE)
import tracer  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)

ENVIRONMENT_KEYS = ("nproc", "python", "numpy", "scipy", "blas", "thread_caps",
                    "git_commit", "src_amplab_lines")


def run_benchmark(workload, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
    lines = out.stdout.strip().splitlines()
    return [json.loads(line) for line in lines[-3:]]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_reported(workload, trace):
    env, summary, result = run_benchmark(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], summary["failures"]
    assert result["failed"] == 0 and result["attempted"] >= 3
    assert summary["error_rate"] == 0.0
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in group}
    for m in group:
        reported = result["metrics"][m["name"]]
        assert reported["unit"] == m["unit"]
        assert isinstance(reported["value"], (int, float)), m["name"]
    if trace:
        assert summary["missing_spans"] == []
    for key in ENVIRONMENT_KEYS:
        assert key in env["environment"]


def test_missing_span_reads_null(tmp_path):
    """A wrapped name that is gone yields null metrics, not a crash."""
    spans = tmp_path / "spans.json"
    script = (
        "import sys; sys.path.insert(0, sys.argv[1])\n"
        "import amplab.tap, tracer\n"
        "del amplab.tap.tap_residual\n"
        "sys.exit(tracer.main(sys.argv[2:]))\n")
    subprocess.run(
        [sys.executable, "-c", script, HERE, str(spans), "run",
         "--ensemble", "signed-sine", "--N", "256", "--T", "3", "--seeds", "1",
         "--out", str(tmp_path / "report.csv")],
        check=True, cwd=ROOT, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")))
    record = json.loads(spans.read_text())
    assert record["missing"] == ["tap.tap_residual"]
    values = tracer.layer_metrics(record)
    for name, (_, sources) in tracer.LAYERS.items():
        if "tap.tap_residual" in sources:
            assert values[name] is None, name
        else:
            assert values[name] is not None, name
    assert values["amp.steps"] == 3
