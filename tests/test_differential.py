"""Randomized differential tests: each fast path against its exact reference.

The batched float64 engine must reproduce `step` driven by the run's own
stream, draw for draw, and its moment sums and sup deviations must equal
those recomputed from its snapshots, bit for bit; its outputs must not
depend on whether a helper thread prefetches the uniforms; an ensemble run on a
process pool must equal the same ensemble run in one process, bit for bit;
the packed second-moment sums must give the mean, covariance and var_phi
of the full-matrix formula, bit for bit, since matmul returns z^T z
exactly symmetric; the integer-weight enumerator must return the same
exact law as a plain Fraction enumeration over every draw vector, in int64
and in Python ints, and its record must hold the rows of its pairs; and
the one-step conditional mean, on Fractions and on float64, must be that
law's mean.
"""

import itertools
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urnnet import dynamics, montecarlo
from urnnet.dynamics import (
    HeterogeneousScheme,
    ReplacementMatrix,
    UrnState,
    expected_fractions_after_step,
    make_stream,
    mean_field_path,
    simulate_runs,
    step,
)
from urnnet.graph import DirectedGraph, generate_graph
from urnnet.montecarlo import brute_force_distribution, distribution_mean_fractions, run_ensemble


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


def _ring(n, scheme, white, black):
    """A directed n-cycle with self-loops and the given rule and start state."""
    edges = {(i, i % n + 1) for i in range(1, n + 1)} | {(i, i) for i in range(1, n + 1)}
    return DirectedGraph(n, frozenset(edges)), scheme, UrnState(np.array(white), np.array(black))


LOOP1 = _ring(1, ReplacementMatrix(1, 2, 3), [1], [2])
RING2 = _ring(2, ReplacementMatrix(0, 1, 2), [2, 1], [1, 3])
RING4 = _ring(4, ReplacementMatrix(2, 2, 2), [1, 3, 1, 2], [1, 1, 2, 1])
TOP = 2**64 - 1


@settings(max_examples=60, deadline=None)
@given(
    problem=urn_problems(),
    horizon=st.integers(1, 24),
    seed=st.integers(0, 2**64 - 1),
    runs=run_index_sets,
    block_doubles=st.integers(1, 64),
)
# rows of at most 4 doubles, one Philox block each, drawn for all runs at once
@example(problem=LOOP1, horizon=4, seed=TOP, runs=range(TOP - 2, TOP + 1), block_doubles=64)
@example(problem=RING2, horizon=2, seed=2**63, runs=[TOP, 0, 2**63], block_doubles=64)
@example(problem=RING4, horizon=1, seed=0, runs=range(2**63 - 1, 2**63 + 2), block_doubles=64)
# n = 1 in blocks of 4 steps (10 = 4 + 4 + 2), stepped in turn and prefetched
@example(problem=LOOP1, horizon=10, seed=5, runs=[TOP - 1, 7], block_doubles=8)
@example(problem=LOOP1, horizon=10, seed=TOP, runs=[TOP], block_doubles=8)
# n = 2 in blocks of 4 steps: rows of 8 doubles re-keyed, then one of 4 drawn at once
@example(problem=RING2, horizon=10, seed=3, runs=[TOP], block_doubles=8)
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
        assert np.array_equal(out.sum_outer[k], (z.T @ z)[np.triu_indices(g.n)]), t
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


def full_matrix_moments(runs, sum_z, sum_outer):
    """mean_z, cov_final and var_phi from full (checkpoints, n, n) sums: the
    formula of `EnsembleResult.from_moments` before the sums were packed."""
    checkpoints = range(len(sum_z))
    n = sum_z.shape[1]
    mean = sum_z / runs
    centering = np.eye(n) - np.full((n, n), 1.0 / n)
    var_phi = np.empty(len(checkpoints))
    cov = np.zeros((n, n)) if checkpoints else None  # stays zero for one run
    for k in range(len(checkpoints)):
        if runs > 1:
            c = (sum_outer[k] - runs * np.outer(mean[k], mean[k])) / (runs - 1)
            cov[:] = 0.5 * (c + c.T)
        var_phi[k] = np.trace(centering @ cov @ centering) / n
    return mean, cov, var_phi


def assert_packed_equals_full_matrix(g, scheme, init, horizon, runs, seed, checkpoints):
    """An ensemble in batches of 4 runs, on 1 and 2 workers, against the
    full-matrix formula on sums of z^T z from the batches' snapshots, merged
    in batch order."""
    checkpoints = sorted(checkpoints)
    sum_z = sum_outer = None
    for lo in range(0, runs, 4):
        out = simulate_runs(
            g, scheme, init, horizon, seed, range(lo, min(lo + 4, runs)), checkpoints,
            snapshot_times=checkpoints,
        )
        zs = [out.snapshots[t] / out.snapshot_totals[t] for t in checkpoints]
        outer = np.array([z.T @ z for z in zs]).reshape(len(checkpoints), g.n, g.n)
        if sum_z is None:
            sum_z, sum_outer = out.sum_z, outer
        else:
            sum_z += out.sum_z
            sum_outer += outer
    mean, cov, var_phi = full_matrix_moments(runs, sum_z, sum_outer)
    with mock.patch.object(montecarlo, "_BATCH_RUNS", 4):
        for workers in (1, 2):
            res = run_ensemble(g, scheme, init, horizon, runs, seed, checkpoints, workers=workers)
            assert np.array_equal(res.mean_z, mean), workers
            assert (res.cov_final is None) == (cov is None), workers
            if cov is not None:
                assert np.array_equal(res.cov_final, cov), workers
            assert np.array_equal(res.var_phi, var_phi), workers


CYCLE3 = (
    DirectedGraph(3, frozenset({(1, 2), (2, 3), (3, 1)})),
    ReplacementMatrix(1, 2, 3),
    UrnState(np.array([1, 0, 2]), np.array([1, 1, 1])),
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    problem=urn_problems(max_n=8),
    checkpoints=st.sets(st.integers(0, 12), max_size=6),
    beyond=st.integers(0, 3),
    runs=st.integers(1, 14),
    seed=st.integers(0, 2**64 - 1),
)
@example(problem=CYCLE3, checkpoints={0, 5}, beyond=0, runs=1, seed=0)
@example(problem=CYCLE3, checkpoints={0}, beyond=2, runs=9, seed=1)
def test_packed_moments_equal_full_matrix_formula(problem, checkpoints, beyond, runs, seed):
    g, scheme, init = problem
    horizon = max(checkpoints, default=0) + beyond
    assert_packed_equals_full_matrix(g, scheme, init, horizon, runs, seed, checkpoints)


def test_packed_moments_equal_full_matrix_formula_at_n_200():
    g = generate_graph("d_regular_random", {"n": 200, "d": 4}, seed=3)
    rule, init = ReplacementMatrix(1, 1, 4), UrnState(np.ones(200, int), np.ones(200, int))
    assert_packed_equals_full_matrix(g, rule, init, 6, 10, 11, range(7))


@settings(max_examples=60, deadline=None)
@given(
    runs=st.integers(1, 1100),
    n=st.one_of(st.integers(1, 64), st.just(200)),
    seed=st.integers(0, 2**32 - 1),
)
def test_gram_matrix_is_bitwise_symmetric(runs, n, seed):
    # the engine keeps only the upper triangle of z^T z, which loses
    # nothing because matmul returns it exactly symmetric
    z = np.random.default_rng(seed).random((runs, n))
    square = np.empty((n, n))
    for gram in (z.T @ z, np.matmul(z.T, z, out=square)):
        assert np.array_equal(gram, gram.T)


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
@given(problem=urn_problems(max_n=4), horizon=st.integers(0, 4))
@example(problem=CYCLE3, horizon=4)
def test_enumeration_equals_fraction_reference(problem, horizon):
    g, scheme, init = problem
    # the reference walks all 2^(n T) draw vectors: horizon 4 up to n = 3
    horizon = min(horizon, 3 if g.n > 3 else 4)
    dist = brute_force_distribution(g, scheme, init, horizon)
    assert all(type(p) is Fraction and p > 0 for _, p in dist)
    assert as_rows(dist) == as_rows(reference_distribution(g, scheme, init, horizon))


# past 2^63 the enumeration keeps its keys and weights as Python ints
PYTHON_INT_CASES = {
    # denominator (2^21 (2^21 + 1))^2
    "denominator": (generate_graph("cycle_directed", {"n": 2}), ReplacementMatrix(1, 1, 1),
                    UrnState(np.full(2, 2**20), np.full(2, 2**20))),
    # radix product (2 * 2^22 + 1)^3
    "radix": (generate_graph("cycle_directed", {"n": 3}), ReplacementMatrix(2**22, 2**21, 2**22),
              dynamics.default_initial_state(3)),
}


@pytest.mark.parametrize("case", sorted(PYTHON_INT_CASES))
def test_python_int_enumeration_equals_reference(case):
    g, scheme, init = PYTHON_INT_CASES[case]
    assert montecarlo.exact_law(g, scheme, init, 2).weights.dtype == object
    dist = brute_force_distribution(g, scheme, init, 2)
    assert as_rows(dist) == as_rows(reference_distribution(g, scheme, init, 2))


@settings(max_examples=40, deadline=None)
@given(problem=urn_problems(max_n=4), horizon=st.integers(0, 4))
def test_exact_law_rebuilds_the_pairs(problem, horizon):
    # the record's rows, weights and denominator are the pairs, in order
    g, scheme, init = problem
    law = montecarlo.exact_law(g, scheme, init, horizon)
    pairs = brute_force_distribution(g, scheme, init, horizon)
    assert law.white.dtype == np.int64 and type(law.denominator) is int
    assert len(law.white) == len(law.weights) == len(pairs)
    for w, p, (state, prob) in zip(law.white.tolist(), law.weights.tolist(), pairs):
        assert state.white.tolist() == w and prob == Fraction(p, law.denominator)


@settings(max_examples=100, deadline=None)
@given(problem=urn_problems(max_n=4))
def test_one_step_mean_in_both_arithmetics(problem):
    # the conditional-mean map, on Fractions and on float64, against the
    # mean of the exact one-step law
    g, scheme, init = problem
    exact = expected_fractions_after_step(init, g, scheme)
    assert all(type(v) is Fraction for v in exact)
    assert exact == distribution_mean_fractions(brute_force_distribution(g, scheme, init, 1))
    floats = np.array([float(v) for v in exact])
    path = mean_field_path(g, scheme, init, 1)
    assert np.array_equal(path[0], init.fractions())
    assert np.all(np.abs(path[1] - floats) <= 1e-15 * np.abs(floats))
