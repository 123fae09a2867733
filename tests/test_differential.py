"""Randomized differential tests: each fast path against its exact reference.

The batched float64 engine must reproduce `step` driven by the run's own
stream, draw for draw, and its moment sums and sup deviations must equal
those recomputed from its snapshots, bit for bit; its outputs must not
depend on whether a helper thread prefetches the uniforms; an ensemble run on a
process pool must equal the same ensemble run in one process, bit for bit;
and the integer-weight enumerator must return the same exact law as a plain
Fraction enumeration over every draw vector.
"""

import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from urnnet import dynamics, montecarlo
from urnnet.dynamics import (
    HeterogeneousScheme,
    ReplacementMatrix,
    UrnState,
    make_stream,
    mean_field_path,
    simulate_runs,
    step,
)
from urnnet.graph import DirectedGraph
from urnnet.montecarlo import brute_force_distribution, run_ensemble


@st.composite
def urn_problems(draw, max_n=6):
    """A random graph (zero in-degree and self-loops included), a homogeneous
    or heterogeneous rule, and initial urns that may be all white or all
    black."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(1, n)
    g = DirectedGraph(n, draw(st.frozensets(st.tuples(vertex, vertex), max_size=n * n)))
    rule = st.integers(1, 4).flatmap(
        lambda m: st.builds(ReplacementMatrix, st.integers(0, m), st.integers(0, m), st.just(m))
    )
    if draw(st.booleans()):
        scheme = draw(rule)
    else:
        scheme = HeterogeneousScheme(tuple(draw(rule) for _ in range(n)))
    white = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    black = [draw(st.integers(0 if w else 1, 3)) for w in white]
    return g, scheme, UrnState(np.array(white), np.array(black))


run_index_sets = st.lists(
    st.one_of(st.integers(0, 63), st.integers(2**63, 2**64 - 1)),
    min_size=1,
    max_size=5,
    unique=True,
)


@settings(max_examples=60, deadline=None)
@given(
    problem=urn_problems(),
    horizon=st.integers(1, 24),
    seed=st.integers(0, 2**64 - 1),
    runs=run_index_sets,
    block_doubles=st.integers(1, 64),
)
def test_engine_equals_exact_steps(problem, horizon, seed, runs, block_doubles):
    g, scheme, init = problem
    # a small block budget makes the horizon span several random blocks
    with mock.patch.object(dynamics, "_BLOCK_DOUBLES", block_doubles):
        out = simulate_runs(
            g, scheme, init, horizon, seed, runs,
            snapshot_times=range(horizon + 1),
        )
    for i, r in enumerate(runs):
        rng = make_stream(seed, r)
        state = init
        for t in range(1, horizon + 1):
            state = step(state, g, scheme, rng)
            assert np.array_equal(out.snapshots[t][i], state.white), (r, t)
            assert np.array_equal(out.snapshot_totals[t], state.totals())


@settings(max_examples=60, deadline=None)
@given(
    problem=urn_problems(),
    horizon=st.integers(1, 24),
    seed=st.integers(0, 2**64 - 1),
    runs=run_index_sets,
    block_doubles=st.integers(1, 64),
    deviation_start=st.integers(-1, 26),
)
def test_moment_sums_equal_snapshot_moments(
    problem, horizon, seed, runs, block_doubles, deviation_start
):
    g, scheme, init = problem
    times = range(horizon + 1)
    ref = mean_field_path(g, scheme, init, horizon)
    with mock.patch.object(dynamics, "_BLOCK_DOUBLES", block_doubles):
        out = simulate_runs(
            g, scheme, init, horizon, seed, runs, checkpoints=times, snapshot_times=times,
            reference_path=ref, deviation_start=deviation_start,
        )
    sup_dev = np.zeros(len(runs))
    for k, t in enumerate(times):
        z = out.snapshots[t] / out.snapshot_totals[t]
        assert np.array_equal(out.sum_z[k], z.sum(axis=0)), t
        assert np.array_equal(out.sum_outer[k], z.T @ z), t
        if t >= deviation_start:
            sup_dev = np.maximum(sup_dev, np.abs(z - ref[t]).max(axis=1))
    assert np.array_equal(out.sup_dev, sup_dev)


@settings(max_examples=60, deadline=None)
@given(
    problem=urn_problems(),
    horizon=st.integers(1, 40),
    seed=st.integers(0, 2**64 - 1),
    runs=run_index_sets,
    budget_steps=st.integers(1, 24),
    deviation_start=st.integers(-1, 42),
)
def test_engine_output_independent_of_core_budget(
    problem, horizon, seed, runs, budget_steps, deviation_start
):
    g, scheme, init = problem
    times = range(horizon + 1)
    ref = mean_field_path(g, scheme, init, horizon)
    per_step = len(runs) * g.n
    outs = []
    # a budget of the whole horizon twice over: one block, filled on this
    # thread; then one of 1-24 steps of the batch: the small ones make many
    # blocks, and from 8 steps on two blocks fit, so a helper prefetches
    for steps in (2 * horizon, budget_steps):
        with mock.patch.object(dynamics, "_BLOCK_DOUBLES", steps * per_step):
            outs.append(simulate_runs(
                g, scheme, init, horizon, seed, runs, checkpoints=times, snapshot_times=times,
                reference_path=ref, deviation_start=deviation_start,
            ))
    one, two = outs
    assert np.array_equal(one.sum_z, two.sum_z)
    assert np.array_equal(one.sum_outer, two.sum_outer)
    assert np.array_equal(one.sup_dev, two.sup_dev)
    for t in times:
        assert np.array_equal(one.snapshots[t], two.snapshots[t]), t
        assert np.array_equal(one.snapshot_totals[t], two.snapshot_totals[t]), t


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    problem=urn_problems(),
    horizon=st.integers(0, 16),
    seed=st.integers(0, 2**64 - 1),
    runs=st.integers(2, 24),
    batch_size=st.integers(1, 8),
)
def test_ensemble_equal_across_workers(problem, horizon, seed, runs, batch_size):
    g, scheme, init = problem
    kw = dict(checkpoints=range(horizon + 1), snapshot_times=[horizon])
    # a small batch makes the runs span several batches
    with mock.patch.object(montecarlo, "_BATCH_RUNS", batch_size):
        one = run_ensemble(g, scheme, init, horizon, runs, seed, workers=1, **kw)
        two = run_ensemble(g, scheme, init, horizon, runs, seed, workers=2, **kw)
    for name in ("mean_z", "cov_final", "var_phi"):
        assert np.array_equal(getattr(one, name), getattr(two, name)), name
    assert np.array_equal(one.snapshots[horizon], two.snapshots[horizon])
    assert np.array_equal(one.snapshot_totals[horizon], two.snapshot_totals[horizon])


def reference_distribution(g, scheme, initial, horizon):
    """Exact law by enumerating every draw vector with Fraction products."""
    n = g.n
    rules = scheme.matrices if isinstance(scheme, HeterogeneousScheme) else (scheme,) * n
    a_vec = [r.a for r in rules]
    b_vec = [r.b for r in rules]
    m_vec = [r.m for r in rules]
    adj = g.adjacency()
    inflow = np.array(m_vec) @ adj

    states = {tuple(int(x) for x in initial.white): Fraction(1)}
    totals = initial.totals().copy()
    for _ in range(horizon):
        nxt: dict = {}
        for w, prob in states.items():
            z = [Fraction(w[i], int(totals[i])) for i in range(n)]
            for draws in itertools.product((1, 0), repeat=n):
                p_draw = prob
                for i, d in enumerate(draws):
                    p_draw *= z[i] if d else 1 - z[i]
                    if p_draw == 0:
                        break
                if p_draw == 0:
                    continue
                sent = [a_vec[j] if d else m_vec[j] - b_vec[j] for j, d in enumerate(draws)]
                w_next = tuple(
                    w[i] + sum(sent[j] for j in range(n) if adj[j, i]) for i in range(n)
                )
                nxt[w_next] = nxt.get(w_next, Fraction(0)) + p_draw
        states = nxt
        totals = totals + inflow

    out = []
    for w in sorted(states):
        white = np.array(w, dtype=np.int64)
        out.append((UrnState(white=white, black=totals - white, time=horizon), states[w]))
    return out


def as_rows(dist):
    return [(s.white.tolist(), s.black.tolist(), s.time, p) for s, p in dist]


@settings(max_examples=40, deadline=None)
@given(problem=urn_problems(max_n=4), horizon=st.integers(0, 3))
def test_enumeration_equals_fraction_reference(problem, horizon):
    g, scheme, init = problem
    dist = brute_force_distribution(g, scheme, init, horizon)
    assert all(type(p) is Fraction and p > 0 for _, p in dist)
    assert as_rows(dist) == as_rows(reference_distribution(g, scheme, init, horizon))
