"""The benchmark tracer wraps amplab functions by (module, name).

A wrapped name that is renamed or removed turns the per-layer metrics
derived from it into ``null``; this test catches that in tier 1, without
running the benchmark.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from amplab.amp import gaussian_init, run_amp
from amplab.ensembles import build_random_orthogonal
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
    # a run given sigma keeps z^T only: trace_bytes is one N-vector
    n, T = 256, 4
    op = build_random_orthogonal(n, seed=3, max_directions=2 * T)
    trace = run_amp(op, [Nonlinearity(np.tanh, "tanh")] * T,
                    gaussian_init(n, 1.0, 3), T, "simple", seed=3,
                    sigma=np.ones(T + 1))
    counts = load_tracer()._run_amp_counts((op,), {}, trace)
    assert counts["steps"] == T
    assert counts["haar_directions"] == 2 * T
    assert counts["trace_bytes"] == n * 8
