"""Finite directed graphs: degrees, weighted adjacency, standard families.

Vertices are labelled 1..n; undirected graphs are symmetric directed edge
sets.  Every query reads one read-only int64 adjacency built at construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
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
    _adjacency: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n = self.n_vertices
        if n < 1:
            raise InvalidParamsError("graph needs at least one vertex")
        object.__setattr__(self, "edges", frozenset((int(i), int(j)) for i, j in self.edges))
        try:
            ij = np.fromiter(chain.from_iterable(self.edges), np.int64).reshape(-1, 2)
            bad = ij[((ij < 1) | (ij > n)).any(axis=1)].tolist()
        except OverflowError:  # a vertex beyond int64 is out of range too
            bad = [e for e in self.edges if not (1 <= e[0] <= n and 1 <= e[1] <= n)]
        if bad:
            raise InvalidParamsError(f"edge {min(map(tuple, bad))} leaves vertex range 1..{n}")
        try:
            a = np.zeros((n, n), dtype=np.int64)
        except (ValueError, MemoryError) as exc:
            raise InvalidParamsError(f"n = {n} is too large for a dense n x n adjacency") from exc
        a[ij[:, 0] - 1, ij[:, 1] - 1] = 1
        a.flags.writeable = False
        object.__setattr__(self, "_adjacency", a)

    def __reduce__(self):  # copies go through the constructor: read-only adjacency
        return type(self), (self.n_vertices, self.edges)

    @property
    def n(self) -> int:
        return self.n_vertices

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def sorted_edges(self) -> list:
        return list(zip(*(np.argwhere(self._adjacency) + 1).T.tolist()))

    def in_degrees(self) -> np.ndarray:
        """Number of incoming edges per vertex, index k for vertex k+1."""
        return self._adjacency.sum(axis=0)

    def out_degrees(self) -> np.ndarray:
        return self._adjacency.sum(axis=1)

    def has_positive_in_degrees(self) -> bool:
        """True iff every urn receives reinforcement (in-degree >= 1 everywhere)."""
        return bool(np.all(self.in_degrees() > 0))

    def adjacency(self) -> np.ndarray:
        """0/1 matrix with A[i-1, j-1] = 1 when (i, j) is an edge; the graph's
        own read-only array, shared by every call, so copy it to modify it."""
        return self._adjacency

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
        d = self.in_degrees()
        if not d.all():
            self.check_reinforced()
        return self._adjacency / d

    def is_regular_undirected(self) -> bool:
        """Undirected with one common degree: the case with a symmetric,
        doubly stochastic weighted adjacency."""
        a, d = self._adjacency, self.in_degrees()
        return bool(np.array_equal(a, a.T) and d.min() == d.max() and d.min() > 0)


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


#: random pairings tried before a d-regular graph is refused: a simple one
#: takes about exp((d^2 - 1) / 4) tries (42 at d = 4), each 20-160 us at n <= 200
_PAIRING_ATTEMPTS = 10**5


def _pairing_model_regular(n: int, d: int, rng: np.random.Generator) -> set:
    # Rejection-sampled pairing model: retry whole matchings until simple.
    stubs = np.repeat(np.arange(1, n + 1), d)
    for _ in range(_PAIRING_ATTEMPTS):
        rng.shuffle(stubs)
        pairs = stubs.reshape(-1, 2)
        if np.any(pairs[:, 0] == pairs[:, 1]):
            continue
        canon = {(min(i, j), max(i, j)) for i, j in pairs}
        if len(canon) == pairs.shape[0]:
            return _undirected(canon)
    raise InvalidParamsError(
        f"the pairing model found no simple {d}-regular graph on {n} vertices in "
        f"{_PAIRING_ATTEMPTS} attempts; a simple pairing becomes rare as d grows"
    )


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
