"""Ensemble statistics, estimators, and the exact enumeration oracle."""

import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from urnnet import dynamics, montecarlo, theory
from urnnet.dynamics import (
    HeterogeneousScheme,
    ReplacementMatrix,
    UrnState,
    default_initial_state,
    expected_fractions_after_step,
    run_trajectory,
    simulate_runs,
)
from urnnet import errors
from urnnet.errors import (
    EnumerationTooLargeError,
    InsufficientCheckpointsError,
    InvalidParamsError,
    NotRegularError,
    SingularMatrixError,
    UrnNetError,
    WrongRegimeError,
    ZeroInDegreeError,
)
from urnnet.graph import generate_graph
from urnnet.theory import Fluctuations
from urnnet.montecarlo import (
    EnsembleResult,
    brute_force_distribution,
    distribution_mean_fractions,
    martingale_test,
    oracle_check,
    run_ensemble,
    scaled_covariance,
    variance_decay_slope,
)


def two_cycle():
    return generate_graph("cycle_directed", {"n": 2})


def _exit_worker(*args, **kwargs):
    os._exit(1)


POLYA = ReplacementMatrix(1, 1, 1)
FRIEDMAN0 = ReplacementMatrix(0, 0, 1)


class TestRunEnsemble:
    def test_single_run_matches_trajectory(self):
        g = two_cycle()
        init = default_initial_state(2)
        res = run_ensemble(g, POLYA, init, 50, 1, 12, checkpoints=[0, 50])
        traj = run_trajectory(g, POLYA, init, 50, 12, record="final_only")
        assert np.array_equal(res.mean_z[-1], traj[-1][1])

    def test_doubling_runs_preserves_substreams(self):
        g = two_cycle()
        init = default_initial_state(2)
        small = run_ensemble(g, POLYA, init, 40, 4, 9, checkpoints=[40], snapshot_times=[40])
        large = run_ensemble(g, POLYA, init, 40, 8, 9, checkpoints=[40], snapshot_times=[40])
        assert np.array_equal(small.snapshots[40], large.snapshots[40][:4])

    def test_thread_count_does_not_change_results(self, monkeypatch):
        g = generate_graph("cycle_undirected", {"n": 6})
        init = default_initial_state(6)
        monkeypatch.setattr(montecarlo, "_BATCH_RUNS", 8)
        kw = dict(checkpoints=[0, 30, 60], snapshot_times=[30, 60])
        serial = run_ensemble(g, POLYA, init, 60, 20, 77, workers=1, **kw)
        for workers in (2, 3):
            pooled = run_ensemble(g, POLYA, init, 60, 20, 77, workers=workers, **kw)
            assert np.array_equal(serial.mean_z, pooled.mean_z)
            assert np.array_equal(serial.cov_final, pooled.cov_final)
            for t in (30, 60):
                assert np.array_equal(serial.snapshots[t], pooled.snapshots[t])
                assert np.array_equal(serial.snapshot_totals[t], pooled.snapshot_totals[t])

    def test_mean_bounds_and_psd(self):
        g = generate_graph("star_undirected", {"n": 5})
        res = run_ensemble(g, FRIEDMAN0, default_initial_state(5), 200, 50, 3)
        assert np.all(res.mean_z >= 0) and np.all(res.mean_z <= 1)
        final_cov = res.cov_final
        assert np.allclose(final_cov, final_cov.T, atol=1e-10)
        assert np.min(np.linalg.eigvalsh(final_cov)) >= -1e-10

    def test_default_checkpoints_geometric(self):
        g = two_cycle()
        res = run_ensemble(g, POLYA, default_initial_state(2), 1000, 2, 5)
        assert res.checkpoints[0] == 1 and res.checkpoints[-1] == 1000

    @pytest.mark.parametrize("workers", [1, 2])
    def test_in_place_merge_keeps_every_bit(self, monkeypatch, workers):
        g = generate_graph("cycle_directed", {"n": 5})
        scheme, init = ReplacementMatrix(1, 2, 3), default_initial_state(5)
        runs, horizon, seed, cps = 11, 30, 5, (0, 7, 30)
        monkeypatch.setattr(montecarlo, "_BATCH_RUNS", 4)  # batches of 4, 4 and 3 runs
        res = run_ensemble(g, scheme, init, horizon, runs, seed, cps, workers=workers)

        # the out-of-place arithmetic: batch sums added into fresh zeros, and
        # the covariance formed in an array of its own
        sum_z, sum_outer = np.zeros((3, 5)), np.zeros((3, 5, 5))
        for lo in (0, 4, 8):
            out = simulate_runs(g, scheme, init, horizon, seed, range(lo, min(lo + 4, runs)), cps)
            sum_z += out.sum_z
            sum_outer += out.sum_outer
        mean = sum_z / runs
        cov = np.zeros_like(sum_outer)
        for k in range(3):
            cov[k] = (sum_outer[k] - runs * np.outer(mean[k], mean[k])) / (runs - 1)
            cov[k] = 0.5 * (cov[k] + cov[k].T)
        centering = np.eye(5) - np.full((5, 5), 1.0 / 5)
        var_phi = np.array([np.trace(centering @ cov[k] @ centering) / 5 for k in range(3)])
        assert np.array_equal(res.mean_z, mean)
        assert np.array_equal(res.cov_final, cov[-1])
        assert np.array_equal(res.var_phi, var_phi)

        # the result shares no memory with what the caller holds, and
        # from_moments leaves the sums it is handed as they were
        for got in (res.mean_z, res.cov_final, res.var_phi, res.initial_white, res.initial_black):
            assert not any(np.shares_memory(got, held) for held in (init.white, init.black))
        held_z, held_outer = sum_z.copy(), sum_outer.copy()
        direct = EnsembleResult.from_moments(
            runs, horizon, cps, held_z, held_outer, seed, init, False, False
        )
        assert np.array_equal(held_z, sum_z) and np.array_equal(held_outer, sum_outer)
        for got in (direct.mean_z, direct.cov_final):
            assert not any(np.shares_memory(got, held) for held in (held_z, held_outer))
        assert np.array_equal(direct.cov_final, cov[-1]) and np.array_equal(direct.var_phi, var_phi)

    def test_peak_memory_is_one_moment_array(self, monkeypatch):
        n, horizon = 64, 60
        g = generate_graph("d_regular_random", {"n": n, "d": 4}, seed=1)
        monkeypatch.setattr(dynamics, "_BLOCK_DOUBLES", 1 << 14)  # the smallest block: 4 steps
        monkeypatch.setattr(montecarlo, "_BATCH_RUNS", 256)
        moments = (horizon + 1) * n * n * 8  # one (checkpoints, n, n) array of sums
        block = 256 * (4 + 1) * n * 8  # the uniform block, padded by one step
        work = 12 * 256 * n * 8  # allowance: the engine's (runs, n) arrays and temporaries

        def peak_and_held(runs):
            """Peak memory of the call, and what its result still holds."""
            tracing = tracemalloc.is_tracing()  # numpy reports its buffers to tracemalloc
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                result = run_ensemble(
                    g, ReplacementMatrix(1, 1, 4), default_initial_state(n), horizon, runs, 0,
                    checkpoints=range(horizon + 1), workers=1,
                )
                held, top = tracemalloc.get_traced_memory()
                assert result.runs == runs
                return top - base, held - base
            finally:
                if not tracing:
                    tracemalloc.stop()

        (one, held_one), (three, held_three) = peak_and_held(256), peak_and_held(3 * 256)
        assert one <= moments + block + work, one / moments
        # three batches: the total, and the sums of the batch being added into it
        assert three <= 2 * moments + block + work, three / moments
        # the result keeps one n x n covariance, not one per checkpoint
        assert max(held_one, held_three) < moments, max(held_one, held_three) / moments


def _from_z_samples(z, checkpoints, horizon, is_polya=False):
    """A result built from explicit per-run fraction samples, shape
    (runs, checkpoints, n), for estimator calibration on synthetic data."""
    z = np.asarray(z, dtype=float)
    runs, _, n = z.shape
    ones = np.ones(n, dtype=np.int64)
    return EnsembleResult.from_moments(
        runs, horizon, checkpoints, z.sum(axis=0), np.einsum("rki,rkj->kij", z, z), 0,
        UrnState(ones, ones), is_polya, False,
    )


def _record(regime, rho=1.0, c=0.5):
    return Fluctuations(c=c, rho=rho, regime=regime, sigma=None)


SQRT_T = _record(theory.REGIME_SQRT_T)


class TestScaledCovariance:
    def test_constant_runs_give_zero(self):
        z = np.full((30, 1, 3), 0.5)
        res = _from_z_samples(z, [100], horizon=100)
        out = scaled_covariance(res, SQRT_T)
        assert np.abs(out).max() <= 1e-15

    def test_recovers_injected_gaussian_covariance(self):
        rng = np.random.default_rng(101)
        t = 10_000
        target = np.full((2, 2), 1 / 64)
        samples = 0.5 + rng.multivariate_normal([0, 0], target / t, size=20_000)
        res = _from_z_samples(samples[:, None, :], [t], horizon=t)
        out = scaled_covariance(res, SQRT_T)
        rel = np.linalg.norm(out - target) / np.linalg.norm(target)
        assert rel <= 0.05

    @pytest.mark.parametrize(
        "regime,rho,s2",
        [
            (theory.REGIME_SQRT_T, 0.8, lambda t: t),
            (theory.REGIME_CRITICAL, 0.5, lambda t: t / math.log(t)),
            (theory.REGIME_SUBCRITICAL, 0.3, lambda t: t**0.6),  # t^(2 rho)
        ],
        ids=["sqrt_t", "critical", "subcritical"],
    )
    def test_scale_of_each_regime(self, regime, rho, s2):
        # every run sits 0.1 from c = 0.5 at both checkpoints, so the second
        # moment about c is 0.01 and the output is 0.01 s(t)^2 at the final t
        z = np.stack([np.full((40, 2), 0.4), np.full((40, 2), 0.6)], axis=1)
        record = _record(regime, rho=rho)
        for cps in ([20], [20, 400]):
            res = _from_z_samples(z[:, : len(cps)], cps, horizon=cps[-1])
            out = scaled_covariance(res, record)
            assert np.allclose(out, 0.01 * s2(cps[-1]), rtol=1e-12, atol=0)
        # c comes from the record: about c = 0.6 the final deviation is zero
        moved = scaled_covariance(res, _record(regime, rho=rho, c=0.6))
        assert np.abs(moved).max() <= 1e-12

    def test_polya_guard(self):
        z = np.full((10, 1, 2), 0.5)
        res = _from_z_samples(z, [50], horizon=50, is_polya=True)
        with pytest.raises(WrongRegimeError):
            scaled_covariance(res, SQRT_T)


def _synthetic_var_phi(checkpoints, values, is_polya=True):
    n_cp = len(checkpoints)
    return EnsembleResult(
        runs=100,
        horizon=checkpoints[-1],
        checkpoints=tuple(checkpoints),
        n=2,
        mean_z=np.full((n_cp, 2), 0.5),
        cov_final=np.zeros((2, 2)),
        var_phi=np.array(values, dtype=float),
        raw_seed=0,
        initial_white=np.ones(2, dtype=np.int64),
        initial_black=np.ones(2, dtype=np.int64),
        is_polya=is_polya,
        regular_graph=True,
    )


class TestVarianceDecaySlope:
    def test_exact_power_law(self):
        ts = [int(1.5**k) for k in range(4, 26)]
        ts = sorted(set(ts))
        res = _synthetic_var_phi(ts, [7.0 / t for t in ts])
        est = variance_decay_slope(res)
        assert est.slope == pytest.approx(-1.0, abs=1e-9)
        assert est.ci_halfwidth <= 1e-9

    def test_requires_enough_checkpoints(self):
        res = _synthetic_var_phi([10, 20, 40, 80], [1e-3] * 4)
        with pytest.raises(InsufficientCheckpointsError):
            variance_decay_slope(res)

    def test_polya_guard(self):
        ts = [int(1.5**k) for k in range(4, 26)]
        ts = sorted(set(ts))
        res = _synthetic_var_phi(ts, [7.0 / t for t in ts], is_polya=False)
        with pytest.raises(WrongRegimeError):
            variance_decay_slope(res)

    def test_identical_neighbourhoods_are_degenerate(self):
        # With self-loops on a complete graph every urn receives the same
        # reinforcement, so Z stays synchronized and no slope can be fitted.
        g = generate_graph("complete_with_loops", {"n": 4})
        res = run_ensemble(g, POLYA, default_initial_state(4), 2000, 40, 6)
        assert res.var_phi.max() <= 1e-25
        with pytest.raises(InsufficientCheckpointsError):
            variance_decay_slope(res)

    def test_loopless_complete_has_real_dispersion(self):
        g = generate_graph("complete", {"n": 4})
        res = run_ensemble(g, POLYA, default_initial_state(4), 2000, 40, 6)
        assert res.var_phi[-1] > 1e-8


class TestMartingale:
    def test_symmetric_initials_pass(self):
        g = two_cycle()
        res = run_ensemble(g, POLYA, default_initial_state(2), 500, 400, 15, checkpoints=[500])
        rep = martingale_test(res)
        assert rep.passed
        assert abs(rep.drift_estimate) <= rep.threshold

    def test_asymmetric_initials_pass(self):
        g = two_cycle()
        init = UrnState(np.array([3, 1]), np.array([1, 3]))
        res = run_ensemble(g, POLYA, init, 2000, 500, 16, checkpoints=[2000])
        rep = martingale_test(res)
        assert rep.passed

    def test_exact_mean_preserved_one_step(self):
        # Exact oracle: the cross-sectional mean is preserved in expectation.
        g = two_cycle()
        init = UrnState(np.array([3, 1]), np.array([1, 3]))
        dist = brute_force_distribution(g, POLYA, init, 1)
        means = distribution_mean_fractions(dist)
        assert sum(means) / 2 == Fraction(1, 2)

    @pytest.mark.parametrize("horizon, runs", [(0, 2), (10, 1)])
    def test_vacuous_ensembles_refused(self, horizon, runs):
        # the drift at t = 0 is zero by construction, and one run has no
        # standard error: neither verdict would say anything
        g = two_cycle()
        init = UrnState(np.array([3, 1]), np.array([1, 3]))
        res = run_ensemble(g, POLYA, init, horizon, runs, 15, checkpoints=[horizon])
        with pytest.raises(InvalidParamsError, match="martingale test needs"):
            martingale_test(res)

    def test_friedman_rejected(self):
        g = two_cycle()
        res = run_ensemble(g, FRIEDMAN0, default_initial_state(2), 100, 50, 2, checkpoints=[100])
        with pytest.raises(WrongRegimeError):
            martingale_test(res)

    def test_irregular_graph_rejected(self):
        g = generate_graph("star_undirected", {"n": 5})
        res = run_ensemble(g, POLYA, default_initial_state(5), 100, 50, 2, checkpoints=[100])
        with pytest.raises(NotRegularError):
            martingale_test(res)


class TestBruteForce:
    def test_two_cycle_polya_one_step(self):
        dist = brute_force_distribution(two_cycle(), POLYA, default_initial_state(2), 1)
        assert len(dist) == 4
        whites = {tuple(map(int, s.white)): p for s, p in dist}
        assert whites == {
            (1, 1): Fraction(1, 4),
            (1, 2): Fraction(1, 4),
            (2, 1): Fraction(1, 4),
            (2, 2): Fraction(1, 4),
        }
        for state, _ in dist:
            assert state.totals().tolist() == [3, 3]

    def test_deterministic_rule_single_atom(self):
        dist = brute_force_distribution(
            two_cycle(), ReplacementMatrix(2, 0, 2), default_initial_state(2), 3
        )
        assert len(dist) == 1
        state, p = dist[0]
        assert p == 1
        assert state.white.tolist() == [7, 7]

    def test_t0_point_mass(self):
        init = default_initial_state(2)
        dist = brute_force_distribution(two_cycle(), POLYA, init, 0)
        assert len(dist) == 1
        assert dist[0][1] == 1
        assert np.array_equal(dist[0][0].white, init.white)

    def test_probabilities_sum_to_one(self):
        dist = brute_force_distribution(two_cycle(), FRIEDMAN0, default_initial_state(2), 3)
        assert sum(p for _, p in dist) == 1

    def test_size_guard(self):
        with pytest.raises(EnumerationTooLargeError):
            brute_force_distribution(two_cycle(), POLYA, default_initial_state(2), 11)

    def test_marginal_mean_matches_one_step_formula(self):
        g = two_cycle()
        init = UrnState(np.array([3, 1]), np.array([1, 3]))
        for scheme in (POLYA, FRIEDMAN0, ReplacementMatrix(1, 2, 4)):
            dist = brute_force_distribution(g, scheme, init, 1)
            assert distribution_mean_fractions(dist) == expected_fractions_after_step(
                init, g, scheme
            )

    def test_polya_regular_conditional_mean_identity(self):
        # Identity-type rule on a regular graph: E[Z_1 | Z_0] equals
        # Z_0 (N_0 I + A) / N_1 in exact arithmetic.
        g = two_cycle()
        init = UrnState(np.array([3, 1]), np.array([1, 3]))
        adj = g.adjacency()
        n0, n1 = 4, 5
        z0 = [Fraction(3, 4), Fraction(1, 4)]
        formula = [
            (z0[0] * n0 + sum(z0[j] * adj[j, 0] for j in range(2))) / n1,
            (z0[1] * n0 + sum(z0[j] * adj[j, 1] for j in range(2))) / n1,
        ]
        dist = brute_force_distribution(g, POLYA, init, 1)
        assert distribution_mean_fractions(dist) == formula

    def test_heterogeneous_supported(self):
        scheme = HeterogeneousScheme((ReplacementMatrix(1, 0, 2), ReplacementMatrix(0, 1, 1)))
        dist = brute_force_distribution(two_cycle(), scheme, default_initial_state(2), 2)
        assert sum(p for _, p in dist) == 1


def test_mean_deviation_shrinks_with_horizon():
    # Non-identity rules: the ensemble mean tightens around c as t grows
    # (allowing 2 standard errors of slack at each comparison).
    g = generate_graph("complete_with_loops", {"n": 2})
    scheme = ReplacementMatrix(1, 1, 4)
    runs = 200
    devs, slacks = [], []
    for horizon, seed in ((1000, 51), (10_000, 52), (100_000, 53)):
        res = run_ensemble(g, scheme, default_initial_state(2), horizon, runs, seed,
                           checkpoints=[horizon])
        devs.append(np.abs(res.mean_z[-1] - 0.5).max())
        se = math.sqrt(max(res.cov_final.max(), 0.0) / runs)
        slacks.append(2 * se)
    assert devs[1] <= devs[0] + slacks[0] + slacks[1]
    assert devs[2] <= devs[1] + slacks[1] + slacks[2]
    assert devs[2] < devs[0]


class TestOracleCheck:
    def test_deterministic_rule_zero_distance(self):
        rep = oracle_check(
            two_cycle(), ReplacementMatrix(2, 0, 2), default_initial_state(2), 2, 500, 31
        )
        assert rep.tv_distance == 0.0
        assert rep.passed

    def test_two_cycle_polya(self):
        rep = oracle_check(two_cycle(), POLYA, default_initial_state(2), 1, 20_000, 33)
        assert rep.passed
        assert rep.tv_distance < 0.03
        assert rep.support_size == 4

    def test_size_guard_propagates(self):
        with pytest.raises(EnumerationTooLargeError):
            oracle_check(two_cycle(), POLYA, default_initial_state(2), 30, 100, 1)

    def test_zero_horizon_refused(self):
        # at t = 0 both laws are the start state: the check would compare it
        # with itself
        with pytest.raises(InvalidParamsError, match="horizon >= 1"):
            oracle_check(two_cycle(), POLYA, default_initial_state(2), 0, 10, 1)


class TestProcessPool:
    def test_errors_survive_pickling(self):
        special = {ZeroInDegreeError: ([1, 3],), SingularMatrixError: (3.5e17,)}
        subclasses = [
            cls for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, UrnNetError)
        ]
        assert ZeroInDegreeError in subclasses and len(subclasses) > 10
        for cls in subclasses:
            exc = cls(*special.get(cls, ("bad input",)))
            back = pickle.loads(pickle.dumps(exc))
            assert type(back) is cls
            assert str(back) == str(exc)
            assert vars(back) == vars(exc)

    def test_zero_in_degree_raised_before_dispatch(self, monkeypatch):
        # input the calling process must reject before any of the three
        # batches reaches a worker: ball counts past integer exactness
        big = ReplacementMatrix(2**40, 2**40, 2**40)
        with pytest.raises(InvalidParamsError, match="exactness") as info:
            run_ensemble(two_cycle(), big, default_initial_state(2), 2**14, 3000, 0, workers=2)
        assert info.value.__cause__ is None  # raised here, not carried back from a worker
        g = two_cycle()
        monkeypatch.setattr(montecarlo, "_BATCH_RUNS", 4)
        kw = dict(checkpoints=[20])
        pooled = run_ensemble(g, POLYA, default_initial_state(2), 20, 12, 1, workers=2, **kw)
        serial = run_ensemble(g, POLYA, default_initial_state(2), 20, 12, 1, workers=1, **kw)
        assert np.array_equal(pooled.cov_final, serial.cov_final)

    def test_broken_pool_is_replaced(self, monkeypatch):
        g = two_cycle()
        args = (g, POLYA, default_initial_state(2), 20, 12, 1)
        monkeypatch.setattr(montecarlo, "_BATCH_RUNS", 4)
        kw = dict(checkpoints=[20], workers=2)
        from concurrent.futures.process import BrokenProcessPool

        with monkeypatch.context() as patch:
            patch.setattr(montecarlo, "simulate_runs", _exit_worker)
            with pytest.raises(BrokenProcessPool):
                run_ensemble(*args, **kw)
        pooled = run_ensemble(*args, **kw)
        serial = run_ensemble(*args, **{**kw, "workers": 1})
        assert np.array_equal(pooled.mean_z, serial.mean_z)

    def test_rejects_nonpositive_workers(self):
        with pytest.raises(InvalidParamsError):
            run_ensemble(two_cycle(), POLYA, default_initial_state(2), 5, 4, 0, workers=0)


def test_import_loads_no_pool_or_scipy():
    src = os.path.dirname(os.path.dirname(montecarlo.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    # the CLI's suite table must hold factories: building its default graphs
    # at import would slow every command
    code = (
        "import sys, urnnet, urnnet.graph as graph; "
        "built = []; real = graph.generate_graph; "
        "graph.generate_graph = lambda *a, **k: built.append(a) or real(*a, **k); "
        "import urnnet.cli; urnnet.cli.build_parser(); "
        "print(built + [m for m in ('scipy', 'multiprocessing', 'concurrent.futures.process') "
        "if m in sys.modules])"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.strip() == "[]"
