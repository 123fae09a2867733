"""The names the benchmark under perfbench/ calls or wraps still exist.

The benchmark's files are read here, never edited: a rename in the package
then fails this fast test instead of the benchmark run.
"""

import importlib
import importlib.util
import inspect
import re
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from urnnet import dynamics, montecarlo, theory
from urnnet.dynamics import HeterogeneousScheme, ReplacementMatrix
from urnnet.graph import DirectedGraph, generate_graph

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def spans():
    return _load("spans")


def _resolve(layer: str):
    """The object a span name stands for, e.g. graph.DirectedGraph.adjacency."""
    module, _, path = layer.partition(".")
    obj = importlib.import_module("urnnet." + module)
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_layer_resolves(spans):
    for layer in spans.LAYERS:
        if layer == "dynamics.fill":  # the stream's bulk draw
            assert callable(dynamics.make_stream(0, 0).random)
        elif layer == "montecarlo.from_moments":
            assert callable(montecarlo.EnsembleResult.from_moments)
        else:
            assert callable(_resolve(layer)), layer


def _urnnet_namespaces():
    modules = [m for k, m in sorted(sys.modules.items()) if k.split(".")[0] == "urnnet"]
    return {m.__name__: dict(vars(m)) for m in modules}


def test_instrument_wraps_and_restores_every_name(spans):
    before = _urnnet_namespaces()
    originals = {layer: _resolve(layer) for layer in spans.LAYERS
                 if layer not in spans._NOT_MODULE_FUNCTIONS}
    adjacency = DirectedGraph.__dict__["adjacency"]
    from_moments = montecarlo.EnsembleResult.__dict__["from_moments"]
    tracer = spans.Tracer()
    with spans.instrument(tracer):
        for layer, original in originals.items():
            assert _resolve(layer) is not original, layer
        assert DirectedGraph.__dict__["adjacency"] is not adjacency
        assert montecarlo.EnsembleResult.__dict__["from_moments"] is not from_moments
        theory.predict(generate_graph("cycle_undirected", {"n": 5}), 0.25, 0.25)
    assert {"theory.predict", "spectral.lyapunov_solve"} <= set(tracer.names)
    after = _urnnet_namespaces()
    for module, namespace in before.items():
        for key, value in namespace.items():
            assert after[module][key] is value, f"{module}.{key}"
    assert DirectedGraph.__dict__["adjacency"] is adjacency
    assert montecarlo.EnsembleResult.__dict__["from_moments"] is from_moments


def test_workload_calls_keep_their_arguments():
    source = (PERFBENCH / "workloads.py").read_text()
    # attribute uses, not file names in strings such as "graph.txt"
    uses = re.findall(r"(?<![\w\"'/.])(theory|verify|montecarlo|graph|cli)\.(\w+)", source)
    assert len(set(uses)) >= 10
    for module, name in set(uses):
        assert hasattr(importlib.import_module("urnnet." + module), name), f"{module}.{name}"
    for name in re.findall(r"\btheory\.((?:REGIME|RATE)_\w+)", source):
        assert isinstance(getattr(theory, name), str)

    g = generate_graph("cycle_undirected", {"n": 5})
    a_t = g.weighted_adjacency()
    inspect.signature(theory.predict).bind(g, 0.25, 0.25)
    assert theory.predict(g, 0.25, 0.25).regime == theory.REGIME_SQRT_T
    scheme = HeterogeneousScheme((ReplacementMatrix(1, 2, 4),) * 3 + (ReplacementMatrix(2, 1, 3),) * 2)
    assert theory.heterogeneous_limit(g, scheme).shape == (5,)
    closed = theory.clt_covariance_regular_closed_form(0.25, 0.25, a_t)
    assert np.allclose(closed, theory.fluctuations(0.25, 0.25, a_t).sigma, atol=1e-12)


def test_workload_ensemble_keys_are_written():
    # simulate-wide reads these keys of the ensemble JSON's "result"; a trim
    # of `EnsembleResult.to_dict` must keep them
    keys = set(re.findall(r"\bresult\[\"(\w+)\"\]", (PERFBENCH / "workloads.py").read_text()))
    assert {"mean_Z", "var_phi", "cov_Z_final", "checkpoints"} <= keys
    g = generate_graph("cycle_directed", {"n": 3})
    initial = dynamics.default_initial_state(3)
    result = montecarlo.run_ensemble(g, ReplacementMatrix(1, 2, 3), initial, 4, 3, 0,
                                     checkpoints=range(5))
    assert keys <= result.to_dict().keys()


@pytest.mark.parametrize("seed", [0, 1])
def test_predict_theory_solves_every_case(tmp_path, seed):
    # each operation once, under its own output check: neither a failure
    # nor a refusal, which the benchmark would count against ops_ok_frac
    workloads = _load("workloads")
    labels = []
    for op in workloads.build("predict-theory", seed, str(tmp_path)):
        op.check(op.run())
        labels.append(op.label)
    # the Polya cases read lambda_2 from `spectral.eigenvalues`
    assert sum(label.endswith("alpha=beta=1.0") for label in labels) == 3


@pytest.mark.parametrize("seed", [0, 1])
def test_oracle_exact_one_step_means_pass_their_checks(tmp_path, seed):
    # the exact conditional mean against the mean of the enumerated law,
    # compared with == as the benchmark does
    workloads = _load("workloads")
    ops = [op for op in workloads.build("oracle-exact", seed, str(tmp_path))
           if op.label.startswith("one-step mean")]
    assert len(ops) == 2
    for op in ops:
        op.check(op.run())


@pytest.mark.parametrize(
    "family, n, scheme, horizon",
    [
        ("cycle_directed", 5, ReplacementMatrix(0, 0, 1), 2),
        ("cycle_directed", 2, ReplacementMatrix(1, 1, 1), 3),
        ("complete_with_loops", 3, HeterogeneousScheme(
            (ReplacementMatrix(1, 2, 3), ReplacementMatrix(0, 1, 1), ReplacementMatrix(2, 2, 2))
        ), 2),
    ],
)
def test_enumerated_law_layout(family, n, scheme, horizon):
    # what the oracle-exact workload's enumeration check and state counter
    # read: (UrnState, Fraction) pairs, ascending in the white counts, with
    # equal ball totals
    g = generate_graph(family, {"n": n})
    initial = dynamics.default_initial_state(n)
    dist = montecarlo.brute_force_distribution(g, scheme, initial, horizon)
    assert all(type(s) is dynamics.UrnState and type(p) is Fraction for s, p in dist)
    whites = [s.white.tolist() for s, _ in dist]
    assert whites == sorted(whites) and len({tuple(w) for w in whites}) == len(dist)
    totals = dist[0][0].totals()
    assert all(np.array_equal(s.totals(), totals) and s.time == horizon for s, _ in dist)
    assert sum(p for _, p in dist) == 1


class _CountingStream:
    """Stands in for the tracer's stream proxy: counts the `random` calls,
    the doubles they fill and the threads that make them."""

    def __init__(self, gen):
        self._gen, self.calls, self.doubles, self.threads = gen, 0, 0, set()

    def random(self, *args, **kwargs):
        drawn = self._gen.random(*args, **kwargs)
        self.calls += 1
        self.doubles += np.size(drawn)
        self.threads.add(threading.get_ident())
        return drawn

    def __getattr__(self, name):
        return getattr(self._gen, name)


def test_tracer_hooks_see_every_fill(monkeypatch, spans):
    # the tracer counts fill spans through the generator `make_stream`
    # returns, and reads the batch size and checkpoints off `EngineOutput`
    assert callable(spans._TracedStream.random) and callable(spans._count_simulate_runs)
    g, scheme = generate_graph("cycle_directed", {"n": 3}), ReplacementMatrix(1, 2, 3)
    initial, runs, horizon = dynamics.default_initial_state(3), range(7, 12), 100
    plain = dynamics.simulate_runs(g, scheme, initial, horizon, 3, runs, checkpoints=[50, 100])
    streams, make = [], dynamics.make_stream

    def counted(*args):
        streams.append(_CountingStream(make(*args)))
        return streams[-1]

    monkeypatch.setattr(dynamics, "make_stream", counted)
    # half of 2^10 doubles holds 34 steps of 5 runs x 3 urns: 4 prefetched blocks of 32
    monkeypatch.setattr(dynamics, "_BLOCK_DOUBLES", 1 << 10)
    out = dynamics.simulate_runs(g, scheme, initial, horizon, 3, runs, checkpoints=[50, 100])
    [stream] = streams
    assert stream.calls == len(runs) * 4  # once per run and block
    assert stream.doubles == len(runs) * horizon * g.n
    assert threading.get_ident() not in stream.threads  # the helper thread drew them
    assert out.count == len(runs) and out.checkpoints == (50, 100)
    assert np.array_equal(out.sum_outer, plain.sum_outer)
