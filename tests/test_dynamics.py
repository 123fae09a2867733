"""Exact state machine behaviour, stream determinism, and the batch engine."""

import sys
import threading

import numpy as np
import pytest
import scipy.linalg.lapack  # noqa: F401  loaded, so the BLAS cap holds scipy's OpenBLAS too
from fractions import Fraction

from urnnet import dynamics
from urnnet.dynamics import (
    HeterogeneousScheme,
    Reinforcement,
    ReplacementMatrix,
    UrnState,
    check_batch,
    default_initial_state,
    expected_fractions_after_step,
    geometric_checkpoints,
    make_stream,
    mean_field_path,
    run_trajectory,
    simulate_runs,
    step,
)
from urnnet.errors import InvalidParamsError
from urnnet.graph import DirectedGraph, generate_graph
from urnnet.montecarlo import brute_force_distribution


def two_cycle():
    return generate_graph("cycle_directed", {"n": 2})


@pytest.mark.parametrize(
    "entry",
    [
        lambda g, s, x: step(x, g, s, make_stream(0)),
        lambda g, s, x: check_batch(g, s, x, 1, range(1)),
        lambda g, s, x: brute_force_distribution(g, s, x, 1),
        lambda g, s, x: expected_fractions_after_step(x, g, s),
        lambda g, s, x: mean_field_path(g, s, x, 1),
    ],
    ids=["step", "check_batch", "brute_force_distribution", "expected_fractions_after_step",
         "mean_field_path"],
)
def test_start_state_size_must_match_graph(entry):
    # a 3-urn start state on the 2-cycle: brute force once returned a law
    # summing to 1/2, and the one-step formulas raised numpy errors
    with pytest.raises(InvalidParamsError, match="initial state size does not match graph"):
        entry(two_cycle(), ReplacementMatrix(1, 1, 1), default_initial_state(3))


class TestReplacementMatrix:
    def test_validation(self):
        with pytest.raises(InvalidParamsError):
            ReplacementMatrix(2, 0, 1)
        with pytest.raises(InvalidParamsError):
            ReplacementMatrix(0, -1, 1)
        with pytest.raises(InvalidParamsError):
            ReplacementMatrix(0, 0, 0)

    @pytest.mark.parametrize(
        "abm", [(1.5, 1, 2), (1, 1, 2.0), (True, 1, 1), (1, np.bool_(True), 1), (1, "1", 2)]
    )
    def test_rejects_non_integers(self, abm):
        with pytest.raises(InvalidParamsError):
            ReplacementMatrix(*abm)

    def test_accepts_numpy_integers(self):
        r = ReplacementMatrix(np.int64(1), np.int32(3), np.uint8(4))
        assert r == ReplacementMatrix(1, 3, 4)
        assert type(r.m) is int

    def test_normalized_params(self):
        r = ReplacementMatrix(1, 3, 4)
        assert (r.alpha, r.beta) == (0.25, 0.75)

    def test_classification(self):
        assert ReplacementMatrix(1, 1, 1).is_polya()
        assert ReplacementMatrix(3, 3, 3).is_polya()

    def test_matrix_rows_balanced(self):
        m = ReplacementMatrix(1, 3, 4).as_matrix()
        assert m.sum(axis=1).tolist() == [4, 4]


class TestUrnState:
    def test_fractions(self):
        s = UrnState(np.array([1, 1]), np.array([1, 1]))
        assert s.fractions().tolist() == [0.5, 0.5]
        s = UrnState(np.array([2, 0]), np.array([1, 3]))
        assert np.allclose(s.fractions(), [2 / 3, 0.0])
        s = UrnState(np.array([3]), np.array([1]))
        assert s.fractions().tolist() == [0.75]

    def test_invariants(self):
        with pytest.raises(InvalidParamsError):
            UrnState(np.array([0]), np.array([0]))
        with pytest.raises(InvalidParamsError):
            UrnState(np.array([-1]), np.array([2]))

    @pytest.mark.parametrize(
        "white, black",
        [([1.9, 2.5], [1, 1]), ([1, 2], [1.0, 1.0]), ([True, False], [1, 1]),
         (np.array([1, 2], dtype=float), np.array([1, 1]))],
    )
    def test_rejects_non_integer_counts(self, white, black):
        with pytest.raises(InvalidParamsError):
            UrnState(white, black)

    def test_accepts_integer_lists_and_arrays(self):
        s = UrnState([1, 2], np.array([3, 4], dtype=np.int32))
        assert s.white.dtype == s.black.dtype == np.int64
        assert s.white.tolist() == [1, 2] and s.black.tolist() == [3, 4]
        counts = np.array([5, 6], dtype=np.int64)
        assert UrnState(counts, counts).white is counts


class TestReinforcement:
    # vertex 1 has a self-loop, vertex 3 has no in-edges
    GRAPH = DirectedGraph(3, frozenset({(1, 1), (1, 2), (2, 1), (3, 2)}))

    def test_heterogeneous_payouts(self):
        rules = (ReplacementMatrix(1, 2, 4), ReplacementMatrix(3, 0, 3), ReplacementMatrix(0, 1, 2))
        rf = Reinforcement.of(self.GRAPH, HeterogeneousScheme(rules))
        # on_white[j, i] = a_j A[j, i], on_black[j, i] = (m_j - b_j) A[j, i]
        assert rf.on_white.tolist() == [[1, 1, 0], [3, 0, 0], [0, 0, 0]]
        assert rf.on_black.tolist() == [[2, 2, 0], [3, 0, 0], [0, 1, 0]]
        assert rf.inflow.tolist() == [7, 6, 0]
        assert rf.on_white.dtype == rf.on_black.dtype == rf.inflow.dtype == np.int64

    def test_homogeneous_payouts(self):
        rf = Reinforcement.of(self.GRAPH, ReplacementMatrix(2, 1, 3))
        assert rf.on_white.tolist() == rf.on_black.tolist() == [[2, 2, 0], [2, 0, 0], [0, 2, 0]]
        assert rf.inflow.tolist() == [6, 6, 0]

    def test_rejects_mismatched_or_unknown_schemes(self):
        two = HeterogeneousScheme((ReplacementMatrix(1, 1, 1),) * 2)
        with pytest.raises(InvalidParamsError, match="2 matrices for 3 vertices"):
            Reinforcement.of(self.GRAPH, two)
        with pytest.raises(InvalidParamsError, match="unsupported scheme"):
            Reinforcement.of(self.GRAPH, (1, 1, 1))


def test_single_polya_urn_step():
    g = DirectedGraph(1, frozenset({(1, 1)}))
    scheme = ReplacementMatrix(1, 1, 1)
    s = default_initial_state(1)
    nxt = step(s, g, scheme, make_stream(5))
    assert nxt.totals().tolist() == [3]
    assert sorted([int(nxt.white[0]), int(nxt.black[0])]) == [1, 2]


def test_star_ball_bookkeeping_m2():
    g = generate_graph("star_undirected", {"n": 5})
    s = default_initial_state(5)
    nxt = step(s, g, ReplacementMatrix(1, 1, 2), make_stream(1))
    gained = nxt.totals() - s.totals()
    assert gained.tolist() == [8, 2, 2, 2, 2]
    assert nxt.time == 1


def test_total_ball_identity_homogeneous():
    g = generate_graph("cycle_undirected", {"n": 6})
    m = 3
    s = default_initial_state(6)
    rng = make_stream(11)
    for t in range(1, 21):
        s = step(s, g, ReplacementMatrix(2, 1, m), rng)
        assert int(s.totals().sum()) == 6 * 2 + t * m * g.n_edges


def test_all_white_rule_is_deterministic():
    # a = m, b = 0 sends only white regardless of the draw.
    g = generate_graph("cycle_undirected", {"n": 4})
    m = 2
    s = default_initial_state(4)
    rng = make_stream(3)
    prev = s.fractions()
    for t in range(1, 31):
        s = step(s, g, ReplacementMatrix(m, 0, m), rng)
        assert np.array_equal(s.black, np.ones(4, dtype=np.int64))
        assert np.array_equal(s.white, 1 + t * m * 2 * np.ones(4, dtype=np.int64))
        assert np.all(s.fractions() >= prev)
        prev = s.fractions()


def test_step_requires_reinforced_graph():
    g = DirectedGraph(2, frozenset({(1, 2)}))
    s = default_initial_state(2)
    # the stepper runs any graph: vertex 1 has no in-edge, and its urn stays
    # frozen; the code that claims a limit refuses such graphs
    nxt = step(s, g, ReplacementMatrix(1, 1, 1), make_stream(0))
    assert int(nxt.white[0]) == 1 and int(nxt.black[0]) == 1


def test_heterogeneous_inflow_exact():
    g = two_cycle()
    scheme = HeterogeneousScheme((ReplacementMatrix(1, 2, 5), ReplacementMatrix(0, 1, 3)))
    s = default_initial_state(2)
    rng = make_stream(17)
    for t in range(1, 11):
        s = step(s, g, scheme, rng)
        # urn 1 only hears from vertex 2 (m=3), urn 2 from vertex 1 (m=5)
        assert s.totals().tolist() == [2 + 3 * t, 2 + 5 * t]


def test_two_cycle_step_support():
    g = two_cycle()
    seen = set()
    for seed in range(60):
        nxt = step(default_initial_state(2), g, ReplacementMatrix(1, 1, 1), make_stream(seed))
        seen.add((int(nxt.white[0]), int(nxt.white[1])))
    assert seen == {(1, 1), (1, 2), (2, 1), (2, 2)}


def test_expected_fractions_after_step_exact():
    g = two_cycle()
    s = UrnState(np.array([3, 1]), np.array([1, 3]))
    out = expected_fractions_after_step(s, g, ReplacementMatrix(1, 1, 1))
    assert out == [Fraction(13, 20), Fraction(7, 20)]


def test_trajectory_t0():
    g = two_cycle()
    traj = run_trajectory(g, ReplacementMatrix(1, 1, 1), default_initial_state(2), 0, 9)
    assert len(traj) == 1
    assert traj[0][0] == 0
    assert np.array_equal(traj[0][1], [0.5, 0.5])


def test_trajectory_determinism():
    g = generate_graph("star_undirected", {"n": 5})
    kw = dict(times=[0, *geometric_checkpoints(500)])
    a = run_trajectory(g, ReplacementMatrix(1, 1, 2), default_initial_state(5), 500, 123, **kw)
    b = run_trajectory(g, ReplacementMatrix(1, 1, 2), default_initial_state(5), 500, 123, **kw)
    assert [t for t, _ in a] == [t for t, _ in b]
    for (_, za), (_, zb) in zip(a, b):
        assert np.array_equal(za, zb)


def test_record_policies():
    # run_trajectory records every step by default, else the times it is given;
    # the CLI's --checkpoints names its times in one table
    from urnnet.cli import _CHECKPOINTS

    g, scheme, init = two_cycle(), ReplacementMatrix(1, 2, 3), default_initial_state(2)
    every = run_trajectory(g, scheme, init, 5, 3)
    assert [t for t, _ in every] == [0, 1, 2, 3, 4, 5]
    [(t, z)] = run_trajectory(g, scheme, init, 5, 3, [5])
    assert t == 5 and np.array_equal(z, every[-1][1])
    assert _CHECKPOINTS["every"](5) == [0, 1, 2, 3, 4, 5]
    assert _CHECKPOINTS["final"](5) == [5]
    geo = _CHECKPOINTS["geometric"](100)
    assert geo == [0, *geometric_checkpoints(100)] and geo[-1] == 100


def test_geometric_checkpoints_cover_endpoint():
    cps = geometric_checkpoints(10_000)
    assert cps[0] == 1 and cps[-1] == 10_000
    assert len(cps) >= 15


def test_engine_matches_exact_steps():
    g = generate_graph("star_undirected", {"n": 5})
    scheme = ReplacementMatrix(2, 1, 3)
    init = default_initial_state(5)
    rng = make_stream(99, run_index=3)
    s = init
    for _ in range(40):
        s = step(s, g, scheme, rng)
    out = simulate_runs(g, scheme, init, 40, 99, [3], snapshot_times=[40])
    assert np.array_equal(out.snapshots[40][0], s.white)
    assert np.array_equal(out.snapshot_totals[40], s.totals())


def test_engine_matches_exact_steps_heterogeneous():
    g = generate_graph("cycle_directed", {"n": 3})
    scheme = HeterogeneousScheme(
        (ReplacementMatrix(1, 0, 2), ReplacementMatrix(0, 1, 1), ReplacementMatrix(3, 2, 5))
    )
    init = default_initial_state(3)
    rng = make_stream(7, run_index=1)
    s = init
    for _ in range(25):
        s = step(s, g, scheme, rng)
    out = simulate_runs(g, scheme, init, 25, 7, [1], snapshot_times=[25])
    assert np.array_equal(out.snapshots[25][0], s.white)


def test_trajectory_equals_ensemble_member():
    g = two_cycle()
    scheme = ReplacementMatrix(1, 1, 1)
    init = default_initial_state(2)
    traj = run_trajectory(g, scheme, init, 64, 7, [64])
    out = simulate_runs(g, scheme, init, 64, 7, range(8), snapshot_times=[64])
    assert np.array_equal(out.snapshots[64][0] / out.snapshot_totals[64], traj[-1][1])


def test_engine_zero_in_degree_freezes_urn():
    g = DirectedGraph(3, frozenset({(1, 2), (2, 1), (3, 1)}))  # vertex 3 never reinforced
    scheme = ReplacementMatrix(1, 1, 1)
    init = default_initial_state(3)
    out = simulate_runs(g, scheme, init, 10, 0, [0], snapshot_times=[10])
    assert out.snapshots[10][0][2] == 1
    assert out.snapshot_totals[10][2] == 2


def test_overflow_guard():
    g = DirectedGraph(1, frozenset({(1, 1)}))
    big = 2**40
    scheme = ReplacementMatrix(big, big, big)
    with pytest.raises(InvalidParamsError):
        simulate_runs(g, scheme, default_initial_state(1), 2**14, 0, [0])


def test_inflow_just_below_float32_bound_matches_exact_steps():
    g = generate_graph("complete_with_loops", {"n": 3})
    # every urn gains 2**23 + 2**22 + (2**22 - 1) = 2**24 - 1 balls a step, and
    # 2**22 + drew_white @ (2**23, -2**22, 2**22 - 1) of them white: from 0
    # (all black) to 2**24 - 1 (all white)
    scheme = HeterogeneousScheme((
        ReplacementMatrix(2**23, 2**23, 2**23),
        ReplacementMatrix(0, 0, 2**22),
        ReplacementMatrix(2**22 - 1, 2**22 - 1, 2**22 - 1),
    ))
    init = default_initial_state(3)
    assert Reinforcement.of(g, scheme).inflow.max() == dynamics.MAX_EXACT_INFLOW - 1
    horizon, runs = 30, range(4)
    out = simulate_runs(g, scheme, init, horizon, 11, runs, snapshot_times=range(horizon + 1))
    for i, r in enumerate(runs):
        rng, state = make_stream(11, r), init
        for t in range(1, horizon + 1):
            state = step(state, g, scheme, rng)
            assert np.array_equal(out.snapshots[t][i], state.white), (r, t)


def test_inflow_at_float32_bound_refused():
    g = DirectedGraph(1, frozenset({(1, 1)}))
    scheme = ReplacementMatrix(1, 1, dynamics.MAX_EXACT_INFLOW)
    init = default_initial_state(1)
    with pytest.raises(InvalidParamsError, match="exactness"):
        check_batch(g, scheme, init, 5, [0])
    with pytest.raises(InvalidParamsError, match="exactness"):
        simulate_runs(g, scheme, init, 5, 0, [0])


@pytest.mark.parametrize("runs", [range(3, -2, -1), range(2**64 - 2, 2**64 + 1)])
def test_run_range_refused_as_its_list(runs):
    # a range is checked by its two ends; the error is the list's
    args = (two_cycle(), ReplacementMatrix(1, 1, 1), default_initial_state(2), 3)
    messages = []
    for indices in (runs, list(runs)):
        with pytest.raises(InvalidParamsError, match="run index must fit in 64 bits") as info:
            check_batch(*args, indices)
        messages.append(str(info.value))
        with pytest.raises(InvalidParamsError) as info:
            simulate_runs(*args, 0, indices)
        messages.append(str(info.value))
    assert len(set(messages)) == 1


@pytest.mark.parametrize("runs", [range(5, 5), range(2**64 - 1, 2**64 - 6, -2), range(10, -1, -3)])
def test_run_range_inside_bounds_accepted(runs):
    g, scheme, init = two_cycle(), ReplacementMatrix(1, 2, 3), default_initial_state(2)
    assert isinstance(check_batch(g, scheme, init, 3, runs), Reinforcement)
    kept, listed = (simulate_runs(g, scheme, init, 9, 4, r, checkpoints=[9], snapshot_times=[9])
                    for r in (runs, list(runs)))
    assert kept.count == len(runs) and kept.snapshots.keys() == listed.snapshots.keys()
    for t in listed.snapshots:
        assert np.array_equal(kept.snapshots[t], listed.snapshots[t])
    assert np.array_equal(kept.sum_outer, listed.sum_outer)


def test_empty_batch_records_every_requested_time():
    # an empty batch has zero sums and (0, n) rows at every checkpoint and
    # snapshot time, where a nonempty one has them filled
    g, scheme, init = two_cycle(), ReplacementMatrix(1, 2, 3), default_initial_state(2)
    out = simulate_runs(g, scheme, init, 9, 4, range(5, 5), checkpoints=[9], snapshot_times=[9])
    assert out.snapshots[9].shape == (0, 2) and out.snapshots[9].dtype == np.int64
    assert np.array_equal(out.snapshot_totals[9], init.totals() + 9 * 3)
    assert out.sum_z.shape == (1, 2) and not out.sum_z.any() and not out.sum_outer.any()
    kw = dict(checkpoints=[0, 4, 9], snapshot_times=[3, 9])
    empty, full = (simulate_runs(g, scheme, init, 9, 4, r, **kw) for r in (range(0), range(1)))
    assert empty.snapshots.keys() == empty.snapshot_totals.keys() == full.snapshots.keys()
    for t in full.snapshots:
        assert empty.snapshots[t].shape == (0, 2)
        assert np.array_equal(empty.snapshot_totals[t], full.snapshot_totals[t])


def _blas_counts():
    """Thread counts of numpy's and scipy's OpenBLAS, as the cap finds them."""
    return [dynamics._openblas(package)[0]() for package in ("numpy", "scipy")]


class _WatchedStream:
    """A generator whose draws note whether they run on the main thread and
    numpy's OpenBLAS thread count, then call `on_draw(number_of_the_draw)`."""

    def __init__(self, gen, on_draw=lambda k: None):
        self._gen, self._on_draw, self.draws = gen, on_draw, []

    @property
    def bit_generator(self):
        return self._gen.bit_generator

    def random(self, *args, **kwargs):
        self.draws.append((threading.current_thread() is threading.main_thread(), _blas_counts()))
        self._on_draw(len(self.draws))
        return self._gen.random(*args, **kwargs)


def _watch_streams(monkeypatch, on_draw=lambda k: None):
    streams = []

    def watched(*args):
        streams.append(_WatchedStream(make_stream(*args), on_draw))
        return streams[-1]

    monkeypatch.setattr(dynamics, "make_stream", watched)
    return streams


# 4 runs x 3 urns: a budget of 96 doubles holds two blocks of 4 steps
_PREFETCH_CASE = dict(n=3, runs=range(4), horizon=40, block_doubles=96)


@pytest.mark.parametrize("blocks", [1, 2])
def test_prefetch_thread_and_blas_cap(monkeypatch, blocks):
    case = _PREFETCH_CASE
    g, scheme = generate_graph("cycle_directed", {"n": case["n"]}), ReplacementMatrix(2, 1, 3)
    init, horizon = default_initial_state(case["n"]), case["horizon"]
    # a budget of `blocks` blocks of 4 steps: one block is filled and stepped
    # in turn, two let a helper fill the next one
    monkeypatch.setattr(dynamics, "_BLOCK_DOUBLES", case["block_doubles"] * blocks // 2)
    streams = _watch_streams(monkeypatch)
    before, threads = _blas_counts(), threading.active_count()
    out = simulate_runs(g, scheme, init, horizon, 5, case["runs"], snapshot_times=[horizon])
    assert _blas_counts() == before and threading.active_count() == threads
    (stream,) = streams
    # one draw per run and block of 4 steps
    assert len(stream.draws) == len(case["runs"]) * horizon // 4
    if blocks == 1:
        assert stream.draws == [(True, before)] * len(stream.draws)
    else:
        # every block is drawn on the helper, both BLAS at one thread fewer
        # than numpy's
        capped = [max(1, min(count, before[0] - 1)) for count in before]
        assert stream.draws == [(False, capped)] * len(stream.draws)
    for i, r in enumerate(case["runs"]):
        rng, state = make_stream(5, r), init
        for _ in range(horizon):
            state = step(state, g, scheme, rng)
        assert np.array_equal(out.snapshots[horizon][i], state.white)


@pytest.mark.parametrize("where", ["helper", "main"])
def test_prefetch_joins_helper_and_restores_blas_on_error(monkeypatch, where):
    case = _PREFETCH_CASE
    g, scheme = generate_graph("cycle_directed", {"n": case["n"]}), ReplacementMatrix(2, 1, 3)
    monkeypatch.setattr(dynamics, "_BLOCK_DOUBLES", case["block_doubles"])
    armed = []

    class Interrupted(UrnState):
        """A start state whose totals, read at every snapshot, raise once armed."""

        def totals(self):
            if armed:
                raise KeyboardInterrupt
            return super().totals()

    def on_draw(k):
        if k == 9:  # the third block, drawn while the second is stepped
            if where == "helper":
                raise RuntimeError("draw failed")
            armed.append(k)

    _watch_streams(monkeypatch, on_draw)
    init = Interrupted(np.ones(case["n"], dtype=np.int64), np.ones(case["n"], dtype=np.int64))
    before, threads = _blas_counts(), threading.active_count()
    with pytest.raises(RuntimeError if where == "helper" else KeyboardInterrupt):
        simulate_runs(
            g, scheme, init, case["horizon"], 5, case["runs"],
            snapshot_times=range(case["horizon"] + 1),
        )
    assert _blas_counts() == before and threading.active_count() == threads


class _FakeBlas:
    """Stand-ins for numpy's and scipy's OpenBLAS: a thread count each,
    behind the (get, put) pair that `dynamics._openblas` finds."""

    def __init__(self, numpy_count, scipy_count):
        self.counts = [numpy_count, scipy_count]

    def find(self, package):
        i = ("numpy", "scipy").index(package)
        return (lambda: self.counts[i]), (lambda count: self.counts.__setitem__(i, count))


def _fake_blas(monkeypatch, count, scipy_count=None):
    """Put stand-ins with `count` threads (scipy's: `scipy_count`, default
    `count`) in the place of both libraries; scipy's LAPACK is loaded here,
    so the cap holds both."""
    lib = _FakeBlas(count, count if scipy_count is None else scipy_count)
    monkeypatch.setattr(dynamics, "_openblas", lib.find)
    return lib


def test_blas_cap_spares_one_thread_and_restores(monkeypatch):
    # the engine's prefetch cap: one thread fewer than the caller's, at least one
    for counts, capped in (((1, 3), [1, 1]), ((3, 3), [2, 2]), ((3, 1), [2, 1])):
        lib = _fake_blas(monkeypatch, *counts)
        with dynamics.blas_threads(counts[0] - 1):
            assert lib.counts == capped
        assert lib.counts == list(counts)


def test_worker_blas_cap_never_raises_a_count(monkeypatch):
    for count, capped in ((1, 1), (2, 2), (3, 2), (8, 2)):
        lib = _fake_blas(monkeypatch, count, 5)
        restore = dynamics.set_blas_threads(2)
        assert [before for _, before in restore] == [count, 5]
        assert lib.counts == [capped, 2]


def test_blas_scopes_nest_and_restore_on_error(monkeypatch):
    lib = _fake_blas(monkeypatch, 4, 6)

    @dynamics.blas_threads(1)
    def inner():
        assert lib.counts == [1, 1]
        raise KeyboardInterrupt

    with dynamics.blas_threads(3):
        assert lib.counts == [3, 3]
        with dynamics.blas_threads(8):  # never raises a count
            assert lib.counts == [3, 3]
        with pytest.raises(KeyboardInterrupt):
            inner()
        assert lib.counts == [3, 3]
    assert lib.counts == [4, 6]


def test_blas_cap_holds_scipy_only_once_its_lapack_is_loaded(monkeypatch):
    # a scope opened before scipy's LAPACK loads caps numpy's OpenBLAS alone
    # and restores only what it capped; a scope opened after caps both
    lib = _fake_blas(monkeypatch, 4, 2)
    flapack = sys.modules["scipy.linalg._flapack"]
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")  # put back after the test
    with dynamics.blas_threads(1):
        assert lib.counts == [1, 2]
        sys.modules["scipy.linalg._flapack"] = flapack  # loaded inside the scope
        with dynamics.blas_threads(1):
            assert lib.counts == [1, 1]
        assert lib.counts == [1, 2]
        lib.counts[1] = 3  # a change the scope did not make survives it
    assert lib.counts == [4, 3]


def test_each_openblas_is_found_once():
    # a scan of /proc/self/maps costs about 300 us; a scope must not repeat it
    for package in ("numpy", "scipy"):
        dynamics._openblas(package)
    scans = dynamics._openblas.cache_info().misses
    with dynamics.blas_threads(1):
        with dynamics.blas_threads(1):
            pass
    assert dynamics._openblas.cache_info().misses == scans


def test_make_stream_validation():
    with pytest.raises(InvalidParamsError):
        make_stream(-1)
    with pytest.raises(InvalidParamsError):
        make_stream(0, run_index=2**64)


@pytest.mark.parametrize("run_index", [-1, 2**64])
def test_simulate_runs_rejects_run_index_outside_64_bits(run_index):
    g = two_cycle()
    init = default_initial_state(2)
    with pytest.raises(InvalidParamsError):
        simulate_runs(g, ReplacementMatrix(1, 1, 1), init, 5, 0, [run_index])
    with pytest.raises(InvalidParamsError):
        simulate_runs(g, ReplacementMatrix(1, 1, 1), init, 5, 0, [0, 3, run_index])


def test_friedman_consensus_single_run():
    # A single long run settles near 1/2 under a = b = 0.  The graph must
    # not be bipartite-like: with a + b = 0 an adjacency eigenvalue at -1
    # creates a neutral drift mode and a whole line of equilibria (the
    # undirected star ends up at (1/2 - s, (1/2 + s) 1) for random s).
    g = generate_graph("cycle_undirected", {"n": 5})
    traj = run_trajectory(
        g, ReplacementMatrix(0, 0, 1), default_initial_state(5), 100_000, 21, [100_000]
    )
    assert np.abs(traj[-1][1] - 0.5).max() < 0.05


def test_mean_field_path_fixed_point():
    g = generate_graph("star_undirected", {"n": 5})
    scheme = ReplacementMatrix(1, 1, 4)  # alpha = beta = 1/4, c = 1/2
    init = default_initial_state(5)
    path = mean_field_path(g, scheme, init, 50)
    assert np.abs(path - 0.5).max() <= 1e-14


def test_mean_field_path_equilibrium_is_constant():
    # alpha = 1/4, beta = 1/2: c = 0.4, which 2 white and 3 black balls hit exactly
    g = generate_graph("star_undirected", {"n": 5})
    init = UrnState(np.full(5, 2), np.full(5, 3))
    path = mean_field_path(g, ReplacementMatrix(1, 2, 4), init, 5000)
    assert np.abs(path - 0.4).max() <= 1e-12


def test_mean_field_path_polya_mean_preserved_on_regular_graph():
    # equal totals on a regular graph: every urn gains the same number of
    # balls, and the Polya rule passes the fractions on unchanged in the mean
    g = generate_graph("cycle_undirected", {"n": 6})
    white = np.random.default_rng(1).integers(1, 10, size=6)
    init = UrnState(white, 10 - white)
    path = mean_field_path(g, ReplacementMatrix(1, 1, 1), init, 1000)
    assert np.abs(path.mean(axis=1) - init.fractions().mean()).max() <= 1e-12


def test_mean_field_path_converges_to_consensus():
    g = generate_graph("star_undirected", {"n": 5})
    scheme = ReplacementMatrix(1, 2, 4)  # c = 0.4
    init = UrnState(np.array([9, 1, 9, 1, 5]), np.array([1, 9, 1, 9, 5]))
    path = mean_field_path(g, scheme, init, 20_000)
    assert np.abs(path[-1] - 0.4).max() < 1e-3
