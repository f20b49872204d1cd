"""The benchmark tracer wraps amplab functions by (module, name).

A wrapped name that is renamed or removed turns the per-layer metrics
derived from it into ``null``, and a caller that stops going through a
wrapped name turns them to 0.  These tests catch both in tier 1, without
running the benchmark.
"""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from amplab.amp import gaussian_init, run_amp
from amplab.ensembles import build_random_orthogonal
from amplab.metrics import observable_row
from amplab.state_evolution import Nonlinearity

TRACER = Path(__file__).resolve().parents[1] / "benchmark" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("amplab_bench_tracer",
                                                  TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module_name, attr", load_tracer().WRAPPED,
                         ids=lambda value: value)
def test_wrapped_name_is_a_module_function(module_name, attr):
    module = importlib.import_module(f"amplab.{module_name}")
    fn = getattr(module, attr, None)
    assert callable(fn), f"amplab.{module_name}.{attr} is gone"
    inspect.signature(fn)  # the tracer binds arguments through it


def test_run_amp_counts_reads_the_haar_store():
    # the tracer's haar_directions count reads the lazy store's q rows
    T = 4
    op = build_random_orthogonal(256, seed=3, max_directions=2 * T)
    trace = run_amp(op, [Nonlinearity(np.tanh, "tanh")] * T,
                    gaussian_init(256, 1.0, 3), T, "simple", seed=3)
    counts = load_tracer()._run_amp_counts((op,), {}, trace)
    assert counts["steps"] == T
    assert counts["haar_directions"] == op.haar_basis.q.shape[0] == 2 * T


def test_run_amp_counts_on_a_streamed_trace():
    # a run that observes rows keeps z^T only: trace_bytes is one N-vector
    n, T = 256, 4
    op = build_random_orthogonal(n, seed=3, max_directions=2 * T)
    trace = run_amp(op, [Nonlinearity(np.tanh, "tanh")] * T,
                    gaussian_init(n, 1.0, 3), T, "simple", seed=3,
                    observe=lambda t, prev, z: observable_row(prev, z, 1.0))
    counts = load_tracer()._run_amp_counts((op,), {}, trace)
    assert counts["steps"] == T
    assert counts["haar_directions"] == 2 * T
    assert counts["trace_bytes"] == n * 8


# Per-layer metrics that read 0 by design on every invocation: the CLI
# computes no TAP residual and solves nothing by CG, and tap.seed_s reads
# 0 since run_tap_amp left the CLI's path (ROADMAP item 1 re-points it).
NEVER_EXERCISED = {"tap.residual_s", "tap.residual_matvecs",
                   "ensembles.cg_iters_per_solve", "tap.seed_s"}

TAP_ONLY = {"tap.ensemble_law_s", "tap.solve_q_star_s", "tap.q_star_iterations",
            "ensembles.resolvent_build_s"}

# (CLI arguments, metrics it does not exercise besides NEVER_EXERCISED)
TRACED_INVOCATIONS = {
    "tap-signed-sine": (["tap", "--ensemble", "signed-sine", "--N", "256",
                         "--T", "3", "--seeds", "1"],
                        {"ensembles.haar_directions"}),
    # the dense resolvent is written from J's blocks: J takes no matvec
    "tap-hopfield": (["tap", "--ensemble", "hopfield", "--N", "64", "--T", "3",
                      "--beta", "1", "--seeds", "1"],
                     {"ensembles.haar_directions", "ensembles.coupling_matvecs",
                      "ensembles.coupling_matvec_s"}),
    # run's operator is the spec's own, with no coupling behind it
    "run-random-orthogonal": (["run", "--ensemble", "random-orthogonal",
                               "--N", "256", "--T", "3", "--mode", "projected",
                               "--seeds", "1"],
                              TAP_ONLY | {"ensembles.coupling_matvecs",
                                          "ensembles.coupling_matvec_s"}),
}


def test_every_exercised_layer_metric_is_positive(tmp_path):
    # the three traced invocations run side by side to keep the test short
    env = dict(os.environ, AMP_LAB_THREADS="1",
               PYTHONPATH=str(TRACER.parents[1] / "src"))
    children = {name: subprocess.Popen(
        [sys.executable, str(TRACER), str(tmp_path / f"{name}.json"), *argv,
         "--out", str(tmp_path / f"{name}.csv")], env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        for name, (argv, _) in TRACED_INVOCATIONS.items()}
    tracer, dark = load_tracer(), []
    for name, child in children.items():
        _, err = child.communicate(timeout=60)
        assert child.returncode == 0, f"{name}: {err}"
        record = json.loads((tmp_path / f"{name}.json").read_text())
        assert record["missing"] == [], name
        values = tracer.layer_metrics(record)
        skipped = NEVER_EXERCISED | TRACED_INVOCATIONS[name][1]
        dark += [f"{name}: {metric} = {value}"
                 for metric, value in values.items()
                 if metric not in skipped and not (value and value > 0)]
    assert not dark, dark
