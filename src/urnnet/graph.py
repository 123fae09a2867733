"""Finite directed graphs: degrees, weighted adjacency, standard families.

Vertices are labelled 1..n.  Undirected graphs are stored as symmetric
directed edge sets, so a single representation serves both cases.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .errors import InvalidParamsError, ZeroInDegreeError

FAMILIES = (
    "complete_with_loops",
    "complete",
    "cycle_directed",
    "cycle_undirected",
    "star_undirected",
    "d_regular_random",
    "erdos_renyi_min_indegree",
)


@dataclass(frozen=True)
class DirectedGraph:
    """Simple directed graph on vertices 1..n; self-loops allowed, no multi-edges."""

    n_vertices: int
    edges: frozenset

    def __post_init__(self):
        if self.n_vertices < 1:
            raise InvalidParamsError("graph needs at least one vertex")
        object.__setattr__(self, "edges", frozenset((int(i), int(j)) for i, j in self.edges))
        for i, j in self.edges:
            if not (1 <= i <= self.n_vertices and 1 <= j <= self.n_vertices):
                raise InvalidParamsError(f"edge ({i}, {j}) leaves vertex range 1..{self.n_vertices}")

    @property
    def n(self) -> int:
        return self.n_vertices

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def in_degrees(self) -> np.ndarray:
        """Number of incoming edges per vertex, index k for vertex k+1."""
        d = np.zeros(self.n_vertices, dtype=np.int64)
        for _, j in self.edges:
            d[j - 1] += 1
        return d

    def out_degrees(self) -> np.ndarray:
        d = np.zeros(self.n_vertices, dtype=np.int64)
        for i, _ in self.edges:
            d[i - 1] += 1
        return d

    def has_positive_in_degrees(self) -> bool:
        """True iff every urn receives reinforcement (in-degree >= 1 everywhere)."""
        return bool(np.all(self.in_degrees() > 0))

    def adjacency(self) -> np.ndarray:
        """0/1 matrix with A[i-1, j-1] = 1 when (i, j) is an edge."""
        a = np.zeros((self.n_vertices, self.n_vertices), dtype=np.int64)
        for i, j in self.edges:
            a[i - 1, j - 1] = 1
        return a

    def check_reinforced(self) -> None:
        """Raise ZeroInDegreeError naming every vertex without incoming
        edges, whose urn is never reinforced."""
        missing = np.flatnonzero(self.in_degrees() == 0) + 1
        if missing.size:
            raise ZeroInDegreeError(missing)

    def weighted_adjacency(self) -> np.ndarray:
        """Column-normalized adjacency: entry (i, j) is 1/in_degree(j) on edges.

        Every column of the result sums to one, which vertices without
        incoming edges make impossible: they raise ZeroInDegreeError.
        """
        self.check_reinforced()
        a = self.adjacency()
        return a / a.sum(axis=0)

    def is_undirected(self) -> bool:
        return all((j, i) in self.edges for i, j in self.edges)

    def is_regular_undirected(self) -> bool:
        """Undirected with one common degree: the case with a symmetric,
        doubly stochastic weighted adjacency."""
        if not self.is_undirected():
            return False
        d = self.in_degrees()
        return bool(d.min() == d.max() and d.min() > 0)


def _undirected(pairs: Iterable) -> set:
    out = set()
    for i, j in pairs:
        out.add((i, j))
        out.add((j, i))
    return out


def _require(params: Mapping, keys: tuple) -> tuple:
    """The family's parameters `keys` from `params`, which may hold no others."""
    unused = sorted(set(params) - set(keys))
    if unused:
        raise InvalidParamsError(f"this family reads {', '.join(keys)}, not {', '.join(unused)}")
    try:
        return tuple(params[k] for k in keys)
    except KeyError as exc:
        raise InvalidParamsError(f"missing parameter {exc.args[0]!r}") from exc


def _pairing_model_regular(n: int, d: int, rng: np.random.Generator) -> set:
    # Rejection-sampled pairing model: retry whole matchings until simple.
    stubs = np.repeat(np.arange(1, n + 1), d)
    while True:
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        canon = {(min(i, j), max(i, j)) for i, j in pairs}
        if len(canon) == pairs.shape[0]:
            return _undirected(canon)


def generate_graph(family: str, params: Mapping, seed: int = 0) -> DirectedGraph:
    """Build a graph from one of the supported families.

    Deterministic in (family, params, seed); the seed only matters for the
    random families.
    """
    if family not in FAMILIES:
        raise InvalidParamsError(f"unknown family {family!r}; choose from {FAMILIES}")
    if int(seed) < 0:
        raise InvalidParamsError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(int(seed))

    if family == "complete_with_loops":
        (n,) = _require(params, ("n",))
        if n < 1:
            raise InvalidParamsError("n must be >= 1")
        edges = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}

    elif family == "complete":
        (n,) = _require(params, ("n",))
        if n < 2:
            raise InvalidParamsError("loopless complete graph needs n >= 2")
        edges = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j}

    elif family == "cycle_directed":
        (n,) = _require(params, ("n",))
        if n < 1:
            raise InvalidParamsError("n must be >= 1")
        edges = {(i, i % n + 1) for i in range(1, n + 1)}

    elif family == "cycle_undirected":
        (n,) = _require(params, ("n",))
        if n < 3:
            raise InvalidParamsError("undirected cycle needs n >= 3")
        edges = _undirected({(i, i % n + 1) for i in range(1, n + 1)})

    elif family == "star_undirected":
        (n,) = _require(params, ("n",))
        if n < 2:
            raise InvalidParamsError("star needs n >= 2")
        edges = _undirected({(1, j) for j in range(2, n + 1)})

    elif family == "d_regular_random":
        n, d = _require(params, ("n", "d"))
        if not (0 < d < n):
            raise InvalidParamsError("d-regular needs 0 < d < n")
        if (n * d) % 2 != 0:
            raise InvalidParamsError("pairing model needs n*d even")
        edges = _pairing_model_regular(n, d, rng)

    else:  # erdos_renyi_min_indegree
        n, p = _require(params, ("n", "p"))
        if n < 1 or not (0.0 <= p <= 1.0):
            raise InvalidParamsError("need n >= 1 and p in [0, 1]")
        mask = rng.random((n, n)) < p
        np.fill_diagonal(mask, False)
        edges = {(i + 1, j + 1) for i, j in zip(*np.nonzero(mask))}
        got_in = {j for _, j in edges}
        # Repair: a self-loop at every vertex nothing points to.
        edges |= {(v, v) for v in range(1, n + 1) if v not in got_in}

    return DirectedGraph(n_vertices=int(n), edges=frozenset(edges))
