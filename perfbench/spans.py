"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: `instrument` wraps the
public functions of the urnnet modules and undoes the wrapping on exit.
Nothing inside the package changes.  A span holds its name, start, end,
parent span and the operation it belongs to; spans stay in memory until
`Tracer.save` writes them out.

A layer's self time is the duration of its spans minus the time their
direct children cover.  Spans nest strictly (the program is
single-threaded), so the children of a span never overlap.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import os
import sys
import time
from array import array

import numpy as np

# Span names, one per wrapped public function.  The benchmark's own
# operation span is OP_SPAN; its self time is the time no layer accounts for.
OP_SPAN = "bench.op"
LAYERS = (
    "dynamics.make_stream",
    "dynamics.fill",
    "dynamics.simulate_runs",
    "montecarlo.run_ensemble",
    "montecarlo.from_moments",
    "montecarlo.oracle_check",
    "montecarlo.brute_force_distribution",
    "spectral.lyapunov_solve",
    "spectral.log_averaged_gram",
    "spectral.eigenvalues",
    "theory.predict",
    "theory.heterogeneous_limit",
    "verify.verify_clt_critical",
    "fileio.write_ensemble_json",
    "fileio.write_ensemble_summary_csv",
    "cli.main",
    "graph.generate_graph",
    "graph.DirectedGraph.adjacency",
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self.current_op = -1
        self.counters = collections.Counter()

    def begin(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        sid = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def count(self, key: str, amount=1) -> None:
        self.counters[key] += amount

    def durations(self) -> np.ndarray:
        return np.frombuffer(self.end) - np.frombuffer(self.start)

    def self_times(self) -> np.ndarray:
        """Per-span duration minus the durations of its direct children."""
        dur = self.durations()
        parent = np.frombuffer(self.parent, dtype=np.int32)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        return dur - covered

    def by_name(self, values: np.ndarray) -> dict:
        """Sum `values` (one per span) over the spans of each name."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        sums = np.bincount(ids, weights=values, minlength=len(self.names))
        calls = np.bincount(ids, minlength=len(self.names))
        return {name: (float(sums[i]), int(calls[i])) for i, name in enumerate(self.names)}

    def max_duration(self, name: str) -> float:
        if name not in self._ids:
            return 0.0
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        dur = self.durations()[ids == self._ids[name]]
        return float(dur.max()) if dur.size else 0.0

    def child_count(self, child: str, parent: str) -> int:
        """Number of `child` spans whose direct parent is a `parent` span."""
        if child not in self._ids or parent not in self._ids:
            return 0
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        up = np.frombuffer(self.parent, dtype=np.int32)
        is_child = (ids == self._ids[child]) & (up >= 0)
        return int(np.count_nonzero(ids[up[is_child]] == self._ids[parent]))

    def save(self, path) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
        )


def _spanned(tracer: Tracer, name: str, fn, on_return=None):
    """`fn` wrapped in a span; failures count as `<name>.failed`."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        except Exception:
            tracer.count(name + ".failed")
            raise
        finally:
            tracer.finish(sid)
        if on_return is not None:
            on_return(tracer, args, kwargs, result)
        return result

    return wrapper


class _TracedStream:
    """Generator proxy whose `random` draws are `dynamics.fill` spans."""

    __slots__ = ("_gen", "_tracer")

    def __init__(self, gen, tracer):
        self._gen = gen
        self._tracer = tracer

    def random(self, *args, **kwargs):
        sid = self._tracer.begin("dynamics.fill")
        try:
            drawn = self._gen.random(*args, **kwargs)
        finally:
            self._tracer.finish(sid)
        self._tracer.count("dynamics.fill.doubles", np.size(drawn))
        return drawn

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _count_simulate_runs(tracer, args, kwargs, out):
    horizon = args[3] if len(args) > 3 else kwargs["horizon"]
    runs, n = out.count, args[0].n
    tracer.count("dynamics.simulate_runs.urn_steps", runs * horizon * n)
    tracer.count("dynamics.kernel.flops_computed", 2 * runs * n * n * horizon)
    tracer.count("dynamics.record.flops_computed", 2 * runs * n * n * len(out.checkpoints))


def _count_from_moments(tracer, args, kwargs, result):
    tracer.count("montecarlo.from_moments.checkpoints", len(result.checkpoints))


def _count_brute_force(tracer, args, kwargs, dist):
    tracer.count("montecarlo.brute_force_distribution.states", len(dist))


def _count_bytes(name):
    def on_return(tracer, args, kwargs, result):
        tracer.count(name + ".bytes", os.path.getsize(args[0]))

    return on_return


_ON_RETURN = {
    "dynamics.simulate_runs": _count_simulate_runs,
    "montecarlo.brute_force_distribution": _count_brute_force,
    "fileio.write_ensemble_json": _count_bytes("fileio.write_ensemble_json"),
    "fileio.write_ensemble_summary_csv": _count_bytes("fileio.write_ensemble_summary_csv"),
}

_NOT_MODULE_FUNCTIONS = (
    "dynamics.fill",
    "montecarlo.from_moments",
    "graph.DirectedGraph.adjacency",
)

# Modules that import a traced function by name; each of these names must
# be patched, or calls through them would escape the trace.
REQUIRED_IMPORTERS = {
    "dynamics.simulate_runs": ("urnnet.montecarlo", "urnnet.verify"),
    "montecarlo.run_ensemble": ("urnnet.verify", "urnnet.cli"),
    "montecarlo.oracle_check": ("urnnet.cli",),
    "graph.generate_graph": ("urnnet.cli", "urnnet.verify"),
}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced function under each name it is imported as."""
    from urnnet import montecarlo
    from urnnet.graph import DirectedGraph

    modules = [m for k, m in sorted(sys.modules.items()) if k == "urnnet" or k.startswith("urnnet.")]
    undo = []

    def patch(owner, attr, new):
        undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    try:
        for layer in LAYERS:
            if layer in _NOT_MODULE_FUNCTIONS:
                continue
            module_name, _, func_name = layer.partition(".")
            original = getattr(sys.modules["urnnet." + module_name], func_name)
            if layer == "dynamics.make_stream":
                wrapped = _spanned(tracer, layer, original)

                def traced_stream(*args, _make=wrapped, **kwargs):
                    return _TracedStream(_make(*args, **kwargs), tracer)

                replacement = functools.wraps(original)(traced_stream)
            else:
                replacement = _spanned(tracer, layer, original, _ON_RETURN.get(layer))
            patched = set()
            for module in modules:
                if module.__dict__.get(func_name) is original:
                    patch(module, func_name, replacement)
                    patched.add(module.__name__)
            missing = set(REQUIRED_IMPORTERS.get(layer, ())) - patched
            if missing:
                raise RuntimeError(f"{layer} is no longer imported by {sorted(missing)}")

        patch(
            DirectedGraph,
            "adjacency",
            _spanned(tracer, "graph.DirectedGraph.adjacency", DirectedGraph.adjacency),
        )
        from_moments = montecarlo.EnsembleResult.__dict__["from_moments"].__func__
        patch(
            montecarlo.EnsembleResult,
            "from_moments",
            classmethod(
                _spanned(tracer, "montecarlo.from_moments", from_moments, _count_from_moments)
            ),
        )
        yield tracer
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
