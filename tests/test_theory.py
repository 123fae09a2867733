"""Closed-form predictions against hand-derived and independent oracles."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from urnnet import spectral, theory
from urnnet.dynamics import HeterogeneousScheme, ReplacementMatrix
from urnnet.errors import (
    InvalidParamsError,
    NotRegularError,
    PolyaTypeError,
    SingularLimitSystemError,
    ZeroInDegreeError,
)
from urnnet.graph import DirectedGraph, generate_graph

from test_spectral import _factorisations

ALL_FAMILIES = [
    ("complete_with_loops", {"n": 4}),
    ("cycle_directed", {"n": 5}),
    ("cycle_undirected", {"n": 6}),
    ("star_undirected", {"n": 5}),
    ("d_regular_random", {"n": 10, "d": 3}),
    ("erdos_renyi_min_indegree", {"n": 8, "p": 0.3}),
]


class TestDrift:
    @pytest.mark.parametrize("family,params", ALL_FAMILIES)
    @pytest.mark.parametrize("alpha,beta", [(0.25, 0.25), (0.25, 0.5), (0.9, 0.1), (0.0, 0.0)])
    def test_zero_at_consensus(self, family, params, alpha, beta):
        a_tilde = generate_graph(family, params, seed=2).weighted_adjacency()
        c = theory.consensus_equilibrium(alpha, beta)
        z = np.full(a_tilde.shape[0], c)
        assert np.abs(theory.drift(z, a_tilde, alpha, beta)).max() <= 1e-12

    def test_polya_constant_vectors_are_equilibria(self):
        a_tilde = generate_graph("star_undirected", {"n": 5}).weighted_adjacency()
        for u in (0.0, 0.3, 1.0):
            z = np.full(5, u)
            assert np.abs(theory.drift(z, a_tilde, 1.0, 1.0)).max() <= 1e-12

    def test_finite_difference_jacobian(self):
        rng = np.random.default_rng(4)
        a_tilde = generate_graph("d_regular_random", {"n": 8, "d": 3}, seed=9).weighted_adjacency()
        alpha, beta = 0.3, 0.6
        z = rng.uniform(0.1, 0.9, size=8)
        eps = 1e-6
        jac = np.empty((8, 8))
        for i in range(8):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            jac[i] = (
                theory.drift(zp, a_tilde, alpha, beta) - theory.drift(zm, a_tilde, alpha, beta)
            ) / (2 * eps)
        assert np.abs(jac - ((alpha + beta - 1.0) * a_tilde - np.eye(8))).max() <= 1e-6


class TestConsensus:
    def test_friedman_half(self):
        assert theory.consensus_equilibrium(0.25, 0.25) == pytest.approx(0.5)
        assert theory.consensus_equilibrium(0.0, 0.0) == pytest.approx(0.5)

    def test_all_white(self):
        assert theory.consensus_equilibrium(1.0, 0.0) == pytest.approx(1.0)

    def test_polya_rejected(self):
        with pytest.raises(PolyaTypeError):
            theory.consensus_equilibrium(1.0, 1.0)

    @settings(max_examples=60, deadline=None)
    @given(alpha=st.floats(0, 1), beta=st.floats(0, 0.999))
    def test_range(self, alpha, beta):
        assert 0.0 <= theory.consensus_equilibrium(alpha, beta) <= 1.0

    @pytest.mark.parametrize("family,params", ALL_FAMILIES)
    def test_explicit_inverse_matches(self, family, params):
        g = generate_graph(family, params, seed=6)
        a_tilde = g.weighted_adjacency()
        alpha, beta = 0.25, 0.5
        c = theory.consensus_equilibrium(alpha, beta)
        k = alpha + beta - 1.0
        explicit = (1.0 - beta) * np.linalg.solve((np.eye(g.n) - k * a_tilde).T, np.ones(g.n))
        assert np.abs(explicit - c).max() <= 1e-10
        scheme = HeterogeneousScheme((ReplacementMatrix(1, 2, 4),) * g.n)
        assert np.abs(theory.heterogeneous_limit(g, scheme) - c).max() <= 1e-10

    @pytest.mark.parametrize("r",[-0.99, -0.5, 0.0, 0.5, 0.99])
    def test_shifted_adjacency_invertible_inside_unit_interval(self, r):
        a_tilde = generate_graph("star_undirected", {"n": 5}).weighted_adjacency()
        inv = spectral.invert(r * a_tilde - np.eye(5))
        assert np.linalg.norm((r * a_tilde - np.eye(5)) @ inv - np.eye(5)) <= 1e-9


class TestRho:
    def test_critical_sum(self):
        a_tilde = generate_graph("cycle_undirected", {"n": 6}).weighted_adjacency()
        fl = theory.fluctuations(0.75, 0.75, a_tilde)
        assert fl.rho == pytest.approx(0.5, abs=1e-12)
        assert fl.regime == theory.REGIME_CRITICAL

    def test_sum_one_gives_unit_rho(self):
        a_tilde = generate_graph("star_undirected", {"n": 5}).weighted_adjacency()
        fl = theory.fluctuations(0.4, 0.6, a_tilde)
        assert fl.rho == pytest.approx(1.0, abs=1e-12)
        assert fl.regime == theory.REGIME_SQRT_T

    def test_negative_branch_two_vertex(self):
        a_tilde = generate_graph("complete_with_loops", {"n": 2}).weighted_adjacency()
        fl = theory.fluctuations(0.0, 0.0, a_tilde)
        assert fl.rho == pytest.approx(1.0, abs=1e-12)

    def test_subcritical_five_cycle(self):
        a_tilde = generate_graph("cycle_undirected", {"n": 5}).weighted_adjacency()
        fl = theory.fluctuations(0.0, 0.0, a_tilde)
        assert fl.rho == pytest.approx(1.0 + math.cos(4 * math.pi / 5), abs=1e-9)
        assert fl.regime == theory.REGIME_SUBCRITICAL
        assert fl.sigma is None

    @pytest.mark.parametrize("family,params", ALL_FAMILIES)
    @pytest.mark.parametrize("alpha,beta", [(0.1, 0.2), (0.5, 0.5), (0.75, 0.7), (0.0, 0.9)])
    def test_case_split_matches_direct_spectrum(self, family, params, alpha, beta):
        a_tilde = generate_graph(family, params, seed=8).weighted_adjacency()
        fl = theory.fluctuations(alpha, beta, a_tilde)
        h = theory.drift_matrix(alpha, beta, a_tilde)
        direct = spectral.eigenvalues(h).eigenvalues.real.min()
        assert fl.rho == pytest.approx(direct, abs=1e-9)
        assert fl.c == theory.consensus_equilibrium(alpha, beta)

    def test_polya_rejected(self):
        a_tilde = np.eye(2)
        with pytest.raises(PolyaTypeError):
            theory.fluctuations(1.0, 1.0, a_tilde)

    @pytest.mark.parametrize("family,params", ALL_FAMILIES)
    @pytest.mark.parametrize("alpha,beta", [(0.4, 0.6), (0.75, 0.75), (0.9, 0.3), (1.0, 0.6)])
    def test_perron_value_binds_from_sum_one(self, monkeypatch, family, params, alpha, beta):
        # A~ is column-stochastic, so its largest real part is exactly 1
        a_tilde = generate_graph(family, params, seed=8).weighted_adjacency()
        calls = _factorisations(monkeypatch)
        fl = theory.fluctuations(alpha, beta, a_tilde, theory.REGIME_SUBCRITICAL)
        assert calls == {"eigh": 0, "eig": 0, "schur": 0}
        assert fl.rho == 2.0 - alpha - beta

    @pytest.mark.parametrize(
        "a_tilde",
        [
            np.array([[0.5, 1.0], [0.5, 1e-9]]),  # a column off by 1e-9
            np.array([[1.5, 0.0], [-0.5, 1.0]]),  # a negative entry
            np.array([[0.5, np.nan], [0.5, 1.0]]),
            np.full((2, 3), 0.5),
            np.ones(2),
            np.zeros((0, 0)),
        ],
    )
    def test_refuses_non_stochastic(self, a_tilde):
        with pytest.raises(InvalidParamsError):
            theory.fluctuations(0.25, 0.25, a_tilde)


def _solver_calls(monkeypatch) -> list:
    """Record which covariance solver each later `fluctuations` call runs."""
    calls = []
    for name in ("lyapunov_solve", "log_averaged_gram"):
        original = getattr(spectral, name)

        def counted(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(spectral, name, counted)
    return calls


class TestNoiseVariance:
    def test_friedman_closed_form(self):
        for a in (0.0, 0.25, 0.75):
            assert theory.noise_variance_c(a, a) == pytest.approx((a - 0.5) ** 2, abs=1e-12)

    def test_deterministic_reinforcement(self):
        assert theory.noise_variance_c(1.0, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_symmetric_zero_params(self):
        assert theory.noise_variance_c(0.0, 0.0) == pytest.approx(0.25)

    @settings(max_examples=80, deadline=None)
    @given(alpha=st.floats(0, 1), beta=st.floats(0, 0.999))
    def test_range(self, alpha, beta):
        c = theory.noise_variance_c(alpha, beta)
        assert -1e-12 <= c <= 0.25 + 1e-12


def _sigma(alpha, beta, a_tilde, regime):
    fl = theory.fluctuations(alpha, beta, a_tilde)
    assert fl.regime == regime
    return fl.sigma


class TestCltCovariance:
    def test_two_vertex_j_over_64(self):
        a_tilde = generate_graph("complete_with_loops", {"n": 2}).weighted_adjacency()
        sigma = _sigma(0.25, 0.25, a_tilde, theory.REGIME_SQRT_T)
        assert np.abs(sigma - 1 / 64).max() <= 1e-12

    def test_sum_one_reduces_to_gram(self):
        a_tilde = generate_graph("star_undirected", {"n": 5}).weighted_adjacency()
        alpha, beta = 0.3, 0.7
        sigma = _sigma(alpha, beta, a_tilde, theory.REGIME_SQRT_T)
        expected = theory.noise_variance_c(alpha, beta) * a_tilde.T @ a_tilde
        assert np.abs(sigma - expected).max() <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_regular_closed_form_agreement(self, seed):
        g = generate_graph("d_regular_random", {"n": 10, "d": 4}, seed=seed)
        a_tilde = g.weighted_adjacency()
        ab = (0.35, 0.4, 0.45, 0.55, 0.6)[seed]  # skip 0.5, where C(a,b) = 0
        sigma = _sigma(ab, ab, a_tilde, theory.REGIME_SQRT_T)
        closed = theory.clt_covariance_regular_closed_form(ab, ab, a_tilde)
        rel = np.linalg.norm(sigma - closed) / np.linalg.norm(closed)
        assert rel <= 1e-8

    def test_psd_and_symmetric(self):
        a_tilde = generate_graph("cycle_directed", {"n": 5}).weighted_adjacency()
        sigma = _sigma(0.4, 0.4, a_tilde, theory.REGIME_SQRT_T)
        assert np.allclose(sigma, sigma.T, atol=1e-12)
        assert np.min(np.linalg.eigvalsh(sigma)) >= -1e-12

    def test_regime_guard(self, monkeypatch):
        calls = _solver_calls(monkeypatch)
        a_tilde = generate_graph("cycle_undirected", {"n": 6}).weighted_adjacency()
        a5 = generate_graph("cycle_undirected", {"n": 5}).weighted_adjacency()
        theory.fluctuations(0.25, 0.25, a5)
        assert calls == ["lyapunov_solve"]
        # the critical and subcritical regimes never run the Lyapunov solver
        theory.fluctuations(0.75, 0.75, a_tilde)
        assert theory.fluctuations(0.0, 0.0, a5).sigma is None
        assert calls == ["lyapunov_solve", "log_averaged_gram"]
        # a caller's regime: sigma is solved there only, and no solver runs
        # for a rule in another regime
        fl = theory.fluctuations(0.75, 0.75, a_tilde, theory.REGIME_SQRT_T)
        assert fl.regime == theory.REGIME_CRITICAL and fl.sigma is None
        assert theory.fluctuations(0.0, 0.0, a5, theory.REGIME_SQRT_T).sigma is None
        assert theory.fluctuations(0.25, 0.25, a5, theory.REGIME_SQRT_T).sigma is not None
        assert len(calls) == 3


class TestCltCovarianceCritical:
    def test_regular_all_ones_form(self):
        a_tilde = generate_graph("complete_with_loops", {"n": 4}).weighted_adjacency()
        sigma = _sigma(0.75, 0.75, a_tilde, theory.REGIME_CRITICAL)
        assert np.abs(sigma - (1 / 16) / 4).max() <= 1e-8

    def test_single_vertex_scalar(self):
        a_tilde = np.array([[1.0]])
        sigma = _sigma(0.75, 0.75, a_tilde, theory.REGIME_CRITICAL)
        assert sigma[0, 0] == pytest.approx(1 / 16, abs=1e-12)

    def test_friedman_regular_entries(self):
        a_tilde = generate_graph("cycle_undirected", {"n": 6}).weighted_adjacency()
        sigma = _sigma(0.75, 0.75, a_tilde, theory.REGIME_CRITICAL)
        assert np.abs(sigma - 1 / (16 * 6)).max() <= 1e-8

    def test_regime_guard(self, monkeypatch):
        calls = _solver_calls(monkeypatch)
        a_tilde = generate_graph("complete_with_loops", {"n": 4}).weighted_adjacency()
        theory.fluctuations(0.75, 0.75, a_tilde)
        theory.fluctuations(0.25, 0.25, a_tilde)
        assert calls == ["log_averaged_gram", "lyapunov_solve"]
        fl = theory.fluctuations(0.25, 0.25, a_tilde, theory.REGIME_CRITICAL)
        assert fl.regime == theory.REGIME_SQRT_T and fl.sigma is None
        assert theory.fluctuations(0.75, 0.75, a_tilde, theory.REGIME_SUBCRITICAL).sigma is None
        assert len(calls) == 2


class TestPolyaRateClass:
    def test_complete_with_loops(self):
        a_tilde = generate_graph("complete_with_loops", {"n": 5}).weighted_adjacency()
        rate = theory.polya_rate_class(a_tilde)
        assert rate.kind == theory.RATE_T_INV
        assert rate.lambda2 == pytest.approx(0.0, abs=1e-12)

    def test_six_cycle_critical(self):
        a_tilde = generate_graph("cycle_undirected", {"n": 6}).weighted_adjacency()
        rate = theory.polya_rate_class(a_tilde)
        assert rate.kind == theory.RATE_LOGT_OVER_T
        assert rate.lambda2 == pytest.approx(0.5, abs=1e-12)

    def test_eight_cycle_power(self):
        a_tilde = generate_graph("cycle_undirected", {"n": 8}).weighted_adjacency()
        rate = theory.polya_rate_class(a_tilde)
        assert rate.kind == theory.RATE_T_POW
        assert rate.exponent == pytest.approx(2 * math.cos(math.pi / 4) - 2, abs=1e-9)

    def test_requires_regularity(self):
        with pytest.raises(NotRegularError):
            theory.polya_rate_class(generate_graph("star_undirected", {"n": 5}).weighted_adjacency())
        with pytest.raises(NotRegularError):
            theory.polya_rate_class(generate_graph("cycle_directed", {"n": 4}).weighted_adjacency())


class TestHeterogeneousLimit:
    def test_two_node_formula(self):
        g = generate_graph("complete_with_loops", {"n": 2})
        m = 4
        scheme = HeterogeneousScheme((ReplacementMatrix(1, 2, m), ReplacementMatrix(3, 1, m)))
        expected = float(Fraction(5, 9))  # (1 - 3/8) / (2 - 4/8 - 3/8)
        limit = theory.heterogeneous_limit(g, scheme)
        assert np.abs(limit - expected).max() <= 1e-12

    @pytest.mark.parametrize("family,params", ALL_FAMILIES)
    def test_homogeneous_reduction(self, family, params):
        g = generate_graph(family, params, seed=3)
        scheme = HeterogeneousScheme((ReplacementMatrix(1, 2, 4),) * g.n)
        limit = theory.heterogeneous_limit(g, scheme)
        assert np.abs(limit - 0.4).max() <= 1e-12

    def test_star_influence_formula(self):
        d1, d2 = 3, 2
        d = d1 + d2
        edges = frozenset((j, 1) for j in range(2, d + 2))
        g = DirectedGraph(d + 1, edges)
        camp1, camp2 = ReplacementMatrix(4, 2, 5), ReplacementMatrix(1, 2, 5)
        scheme = HeterogeneousScheme(
            (ReplacementMatrix(5, 5, 5),) + (camp1,) * d1 + (camp2,) * d2
        )
        limit = theory.heterogeneous_limit(g, scheme, frozen_fractions=np.ones(d + 1))
        assert limit[0] == pytest.approx((0.8 * d1 + 0.2 * d2) / d, abs=1e-12)
        assert np.array_equal(limit[1:], np.ones(d))

    def test_frozen_required_for_unreinforced(self):
        g = DirectedGraph(2, frozenset({(1, 2)}))
        scheme = HeterogeneousScheme((ReplacementMatrix(1, 0, 2),) * 2)
        with pytest.raises(InvalidParamsError):
            theory.heterogeneous_limit(g, scheme)

    def test_polya_system_is_singular(self):
        g = generate_graph("complete_with_loops", {"n": 2})
        scheme = HeterogeneousScheme((ReplacementMatrix(1, 1, 1),) * 2)
        with pytest.raises(SingularLimitSystemError):
            theory.heterogeneous_limit(g, scheme)

    @pytest.mark.parametrize("seed", range(6))
    def test_components_in_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        g = generate_graph("erdos_renyi_min_indegree", {"n": 7, "p": 0.4}, seed=seed)
        mats = []
        for _ in range(7):
            m = int(rng.integers(1, 6))
            a = int(rng.integers(0, m + 1))
            b = int(rng.integers(0, m))  # avoid all-identity schemes
            mats.append(ReplacementMatrix(a, b, m))
        limit = theory.heterogeneous_limit(g, HeterogeneousScheme(tuple(mats)))
        assert np.all(limit >= -1e-9) and np.all(limit <= 1.0 + 1e-9)


class TestInfluenceThreshold:
    def test_documented_example(self):
        assert theory.influence_threshold(10, 0.9, 0.1, 0.5) == 5

    def test_equal_rates(self):
        assert theory.influence_threshold(8, 0.3, 0.3, 0.4) is None
        assert theory.influence_threshold(8, 0.6, 0.6, 0.4) == 0

    def test_zero_target(self):
        assert theory.influence_threshold(12, 0.2, 0.1, 0.0) == 0

    def test_unreachable(self):
        assert theory.influence_threshold(5, 0.4, 0.1, 0.9) is None

    def test_first_hit_property(self):
        for d in range(1, 21):
            got = theory.influence_threshold(d, 0.7, 0.2, 0.6)
            meets = [
                Fraction(0.7) * x + Fraction(0.2) * (d - x) >= Fraction(0.6) * d
                for x in range(d + 1)
            ]
            expected = meets.index(True) if any(meets) else None
            assert got == expected


class TestPredict:
    def test_sqrt_t_regime_report(self):
        g = generate_graph("star_undirected", {"n": 5})
        rep = theory.predict(g, 0.5, 0.5)
        assert rep.regime == theory.REGIME_SQRT_T
        assert rep.rho == pytest.approx(1.0)
        assert np.allclose(rep.equilibrium, 0.5)
        assert rep.sigma is not None
        json.dumps(rep.to_dict())

    def test_critical_regime_report(self):
        g = generate_graph("complete_with_loops", {"n": 4})
        rep = theory.predict(g, 0.75, 0.75)
        assert rep.regime == theory.REGIME_CRITICAL
        assert np.abs(np.array(rep.sigma) - 1 / 64).max() <= 1e-8

    def test_subcritical_regime_report(self):
        g = generate_graph("cycle_undirected", {"n": 5})
        rep = theory.predict(g, 0.0, 0.0)
        assert rep.regime == theory.REGIME_SUBCRITICAL
        assert rep.sigma is None
        assert rep.rho == pytest.approx(1 + math.cos(4 * math.pi / 5), abs=1e-9)

    @pytest.mark.parametrize(
        "family,params,ab,factor",
        [
            ("star_undirected", {"n": 5}, 0.5, "schur"),  # sqrt(t), alpha + beta = 1
            ("cycle_undirected", {"n": 5}, 0.6, "eigh"),  # sqrt(t), alpha + beta > 1
            ("cycle_undirected", {"n": 5}, 0.25, "eigh"),  # sqrt(t), alpha + beta < 1
            ("cycle_directed", {"n": 5}, 0.4, "schur"),  # directed sqrt(t)
            ("complete_with_loops", {"n": 4}, 0.75, "eigh"),  # critical
            ("cycle_directed", {"n": 5}, 0.75, "eig"),  # directed critical
            ("cycle_undirected", {"n": 5}, 0.0, "eigh"),  # subcritical, alpha + beta < 1
            ("cycle_directed", {"n": 5}, 0.9, None),  # subcritical, alpha + beta > 1
        ],
    )
    def test_one_factorisation_per_prediction(self, monkeypatch, family, params, ab, factor):
        g = generate_graph(family, params)
        calls = _factorisations(monkeypatch)
        theory.predict(g, ab, ab)
        expected = {"eigh": 0, "eig": 0, "schur": 0}
        if factor:
            expected[factor] = 1
        assert calls == expected

    def test_polya_reports(self):
        g8 = generate_graph("cycle_undirected", {"n": 8})
        rep = theory.predict(g8, 1.0, 1.0)
        assert rep.regime == theory.REGIME_POLYA
        assert rep.rate_class.kind == theory.RATE_T_POW
        star = generate_graph("star_undirected", {"n": 5})
        rep2 = theory.predict(star, 1.0, 1.0)
        assert rep2.rate_class is None and rep2.notes

    def test_unreinforced_graph_rejected(self):
        g = DirectedGraph(2, frozenset({(1, 2)}))
        with pytest.raises(ZeroInDegreeError) as info:
            theory.predict(g, 0.25, 0.25)
        assert info.value.vertices == (1,)
