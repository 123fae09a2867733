"""Graph structure, degree data, weighted adjacency, and generators."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnnet import graph
from urnnet.errors import InvalidParamsError, ZeroInDegreeError
from urnnet.graph import DirectedGraph, generate_graph


def star5():
    return generate_graph("star_undirected", {"n": 5})


def test_star_in_degrees():
    assert star5().in_degrees().tolist() == [4, 1, 1, 1, 1]


def test_self_loop_in_degree():
    g = DirectedGraph(1, frozenset({(1, 1)}))
    assert g.in_degrees().tolist() == [1]


def test_single_edge_in_degrees():
    g = DirectedGraph(2, frozenset({(1, 2)}))
    assert g.in_degrees().tolist() == [0, 1]


def test_positive_in_degree_check():
    assert star5().has_positive_in_degrees()
    out_star = DirectedGraph(5, frozenset({(1, j) for j in range(2, 6)}))
    assert not out_star.has_positive_in_degrees()
    assert not DirectedGraph(3, frozenset()).has_positive_in_degrees()


def test_edge_validation():
    for bad in ((1, 3), (0, 1), (1, -1), (1, 2**70)):  # 2**70 overflows int64
        with pytest.raises(InvalidParamsError, match=rf"edge \({bad[0]}, {bad[1]}\)"):
            DirectedGraph(2, frozenset({bad}))
    # of several bad edges, the smallest is named
    with pytest.raises(InvalidParamsError, match=r"edge \(1, 5\) leaves"):
        DirectedGraph(2, frozenset({(1, 1), (3, 1), (1, 5)}))
    with pytest.raises(InvalidParamsError):
        DirectedGraph(0, frozenset())


def test_star_weighted_adjacency_rows():
    w = star5().weighted_adjacency()
    assert np.array_equal(w[0], [0, 1, 1, 1, 1])
    for row in w[1:]:
        assert np.array_equal(row, [0.25, 0, 0, 0, 0])


def test_two_vertex_complete_with_loops_is_half():
    g = generate_graph("complete_with_loops", {"n": 2})
    assert np.array_equal(g.weighted_adjacency(), np.full((2, 2), 0.5))


def test_weighted_adjacency_zero_in_degree_raises():
    g = DirectedGraph(3, frozenset({(1, 2), (2, 1)}))
    for check in (g.weighted_adjacency, g.check_reinforced):
        with pytest.raises(ZeroInDegreeError) as exc:
            check()
        assert exc.value.vertices == (3,)
    DirectedGraph(2, frozenset({(1, 2), (2, 1)})).check_reinforced()


@pytest.mark.parametrize("family", ["complete", "erdos_renyi_min_indegree"])
def test_generator_refuses_negative_seed(family):
    with pytest.raises(InvalidParamsError, match="seed must be non-negative"):
        generate_graph(family, {"complete": {"n": 3}}.get(family, {"n": 5, "p": 0.5}), seed=-1)


@pytest.mark.parametrize(
    "family,params",
    [
        ("complete_with_loops", {"n": 6}),
        ("cycle_directed", {"n": 7}),
        ("cycle_undirected", {"n": 8}),
        ("star_undirected", {"n": 5}),
        ("d_regular_random", {"n": 10, "d": 3}),
        ("erdos_renyi_min_indegree", {"n": 15, "p": 0.15}),
    ],
)
def test_column_sums_are_one(family, params):
    g = generate_graph(family, params, seed=3)
    assert g.has_positive_in_degrees()
    sums = g.weighted_adjacency().sum(axis=0)
    assert np.abs(sums - 1.0).max() <= 1e-12


def test_cycle_undirected_degrees():
    g = generate_graph("cycle_undirected", {"n": 4})
    assert g.in_degrees().tolist() == [2, 2, 2, 2]
    assert g.n_edges == 8


def test_d_regular_degrees_and_symmetry():
    g = generate_graph("d_regular_random", {"n": 10, "d": 3}, seed=7)
    assert g.in_degrees().tolist() == [3] * 10
    assert g.out_degrees().tolist() == [3] * 10
    assert g.is_regular_undirected()
    w = g.weighted_adjacency()
    assert np.array_equal(w, w.T)
    assert np.abs(w.sum(axis=1) - 1.0).max() <= 1e-12


def test_d_regular_invalid_params():
    with pytest.raises(InvalidParamsError):
        generate_graph("d_regular_random", {"n": 5, "d": 3}, seed=0)
    with pytest.raises(InvalidParamsError):
        generate_graph("d_regular_random", {"n": 4, "d": 4}, seed=0)


def test_d_regular_pairing_attempts_are_bounded(monkeypatch):
    # a simple 10-regular pairing takes about 5e10 tries, so the sampler
    # refuses after its cap instead of running on
    monkeypatch.setattr(graph, "_PAIRING_ATTEMPTS", 50)
    with pytest.raises(InvalidParamsError, match="pairing model .* 10-regular .* 50 attempts"):
        generate_graph("d_regular_random", {"n": 50, "d": 10}, seed=0)


def test_unknown_family():
    with pytest.raises(InvalidParamsError):
        generate_graph("petersen", {"n": 10}, seed=0)


@pytest.mark.parametrize(
    "family, params",
    [("star_undirected", {"n": 5, "d": 3}), ("complete", {"n": 4, "p": 0.5}),
     ("d_regular_random", {"n": 6, "d": 3, "p": 0.5}),
     ("erdos_renyi_min_indegree", {"n": 6, "p": 0.5, "d": 2})],
)
def test_parameters_the_family_does_not_read_are_refused(family, params):
    with pytest.raises(InvalidParamsError):
        generate_graph(family, params, seed=0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 20), p=st.floats(0.0, 0.3))
def test_er_repair_guarantees_reinforcement(seed, n, p):
    g = generate_graph("erdos_renyi_min_indegree", {"n": n, "p": p}, seed=seed)
    assert g.has_positive_in_degrees()


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_generation_is_deterministic(seed):
    a = generate_graph("d_regular_random", {"n": 12, "d": 3}, seed=seed)
    b = generate_graph("d_regular_random", {"n": 12, "d": 3}, seed=seed)
    assert a.edges == b.edges


def test_star_matches_hand_built_edge_set():
    expected = {(1, j) for j in range(2, 6)} | {(j, 1) for j in range(2, 6)}
    assert star5().edges == frozenset(expected)


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(1, 8),
    edges=st.sets(st.tuples(st.integers(1, 8), st.integers(1, 8)), max_size=40),
)
def test_degrees_and_weights_match_edge_counts(n, edges):
    g = DirectedGraph(n, frozenset((i, j) for i, j in edges if i <= n and j <= n))
    a = np.zeros((n, n), dtype=np.int64)
    for i, j in g.edges:
        a[i - 1, j - 1] = 1
    # one shared, read-only matrix
    assert np.array_equal(g.adjacency(), a) and g.adjacency().dtype == np.int64
    assert g.adjacency() is g.adjacency() and not g.adjacency().flags.writeable
    assert g.sorted_edges() == sorted(g.edges)
    undirected = all((j, i) in g.edges for i, j in g.edges)
    regular = len({sum(1 for _, j in g.edges if j == v) for v in range(1, n + 1)}) == 1
    assert g.is_regular_undirected() == (undirected and regular and bool(g.edges))
    copy = pickle.loads(pickle.dumps(g))
    assert copy == g and hash(copy) == hash(g) and not copy.adjacency().flags.writeable
    d_in = [sum(1 for _, j in g.edges if j == v) for v in range(1, n + 1)]
    d_out = [sum(1 for i, _ in g.edges if i == v) for v in range(1, n + 1)]
    assert g.in_degrees().tolist() == d_in and g.out_degrees().tolist() == d_out
    unreinforced = tuple(v for v in range(1, n + 1) if d_in[v - 1] == 0)
    if unreinforced:
        with pytest.raises(ZeroInDegreeError) as exc:
            g.weighted_adjacency()
        assert exc.value.vertices == unreinforced
    else:
        w = g.weighted_adjacency()
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert w[i - 1, j - 1] == ((i, j) in g.edges) / d_in[j - 1]
