"""Closed-form predictions against hand-derived and independent oracles."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from urnnet import dynamics, spectral, theory
from urnnet.dynamics import HeterogeneousScheme, ReplacementMatrix, normalised_rule
from urnnet.errors import (
    InvalidParamsError,
    NonDiagonalizableError,
    NotRegularError,
    SingularLimitSystemError,
    UrnNetError,
    ZeroInDegreeError,
)
from urnnet.graph import DirectedGraph, generate_graph

from test_dynamics import _blas_counts, _fake_blas
from test_spectral import _factorisations, drift_jacobian

ALL_FAMILIES = [
    ("complete_with_loops", {"n": 4}),
    ("cycle_directed", {"n": 5}),
    ("cycle_undirected", {"n": 6}),
    ("star_undirected", {"n": 5}),
    ("d_regular_random", {"n": 10, "d": 3}),
    ("erdos_renyi_min_indegree", {"n": 8, "p": 0.3}),
]


def _drift(z, a_tilde, alpha, beta):
    """Mean displacement of the fraction process, from its definition."""
    return (alpha * z + (1.0 - beta) * (1.0 - z)) @ a_tilde - z


class TestDrift:
    """`theory._linearisation`, the one place B is built: z B + q - z is the
    mean displacement, for one common rule and per vertex."""

    @pytest.mark.parametrize("family,params", ALL_FAMILIES)
    @pytest.mark.parametrize("alpha,beta", [(0.25, 0.25), (0.25, 0.5), (0.9, 0.1), (0.0, 0.0)])
    def test_zero_at_consensus(self, family, params, alpha, beta):
        a_tilde = generate_graph(family, params, seed=2).weighted_adjacency()
        c = theory.consensus_equilibrium(alpha, beta)
        z = np.full(a_tilde.shape[0], c)
        assert np.abs(_drift(z, a_tilde, alpha, beta)).max() <= 1e-12
        b, q = theory._linearisation(alpha, beta, a_tilde)
        assert np.abs(z @ b + q - z).max() <= 1e-12

    def test_polya_constant_vectors_are_equilibria(self):
        a_tilde = generate_graph("star_undirected", {"n": 5}).weighted_adjacency()
        b, q = theory._linearisation(np.ones(5), np.ones(5), a_tilde)
        for u in (0.0, 0.3, 1.0):
            z = np.full(5, u)
            assert np.abs(z @ b + q - z).max() <= 1e-12

    def test_finite_difference_jacobian(self):
        # per-vertex rules: the displacement written out urn by urn, with
        # vertex j's payouts weighted by its share W[j, i] of urn i's inflow
        rng = np.random.default_rng(4)
        g = generate_graph("erdos_renyi_min_indegree", {"n": 8, "p": 0.3}, seed=9)
        m = rng.integers(1, 6, size=8)
        a, b = rng.integers(0, m + 1), rng.integers(0, m + 1)
        alpha, beta, w = normalised_rule(
            g, HeterogeneousScheme(tuple(map(ReplacementMatrix, a, b, m)))
        )
        adj = g.adjacency()

        def displacement(z):
            white = (a * z + (m - b) * (1.0 - z)) @ adj
            return white / (m @ adj) - z

        z = rng.uniform(0.1, 0.9, size=8)
        eps = 1e-6
        jac = np.empty((8, 8))
        for i in range(8):
            zp, zm = z.copy(), z.copy()
            zp[i] += eps
            zm[i] -= eps
            jac[i] = (displacement(zp) - displacement(zm)) / (2 * eps)
        lin, q = theory._linearisation(alpha, beta, w)
        assert np.abs(jac - (lin - np.eye(8))).max() <= 1e-6
        assert np.abs(z @ lin + q - z - displacement(z)).max() <= 1e-12


class TestConsensus:
    def test_friedman_half(self):
        assert theory.consensus_equilibrium(0.25, 0.25) == pytest.approx(0.5)
        assert theory.consensus_equilibrium(0.0, 0.0) == pytest.approx(0.5)

    def test_all_white(self):
        assert theory.consensus_equilibrium(1.0, 0.0) == pytest.approx(1.0)

    def test_polya_rejected(self):
        with pytest.raises(SingularLimitSystemError):
            theory.consensus_equilibrium(1.0, 1.0)
        # rho = 8e-13 lies above SINGULAR_RHO_TOL: a rule with a unique limit,
        # 1/2 up to the cancellation in 1 - beta and 2 - alpha - beta
        assert theory.consensus_equilibrium(1 - 4e-13, 1 - 4e-13) == pytest.approx(0.5, abs=1e-3)

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
        h = drift_jacobian(alpha, beta, a_tilde)
        direct = spectral.eigenvalues(h).real.min()
        assert fl.rho == pytest.approx(direct, abs=1e-9)
        assert fl.c == theory.consensus_equilibrium(alpha, beta)

    def test_polya_rejected(self):
        # H = I - A~ is singular, so a Polya-type rule is refused with every
        # other rule without a unique limit, for one rule or one per vertex
        a_tilde = np.eye(2)
        with pytest.raises(SingularLimitSystemError):
            theory.fluctuations(1.0, 1.0, a_tilde)
        with pytest.raises(SingularLimitSystemError):
            theory.fluctuations(np.ones(2), np.ones(2), a_tilde)

    @pytest.mark.parametrize("family,params", ALL_FAMILIES)
    @pytest.mark.parametrize("alpha,beta", [(0.4, 0.6), (0.75, 0.75), (0.9, 0.3), (1.0, 0.6)])
    def test_perron_value_binds_from_sum_one(self, monkeypatch, family, params, alpha, beta):
        # A~ is column-stochastic, so its largest real part is exactly 1
        a_tilde = generate_graph(family, params, seed=8).weighted_adjacency()
        calls = _factorisations(monkeypatch)
        fl = theory.fluctuations(alpha, beta, a_tilde, theory.REGIME_SUBCRITICAL)
        assert calls == []
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


def _path_with_loops(n):
    """Directed path with a loop at every vertex: A~ is one Jordan block."""
    edges = {(i, i) for i in range(1, n + 1)} | {(i, i + 1) for i in range(1, n)}
    return DirectedGraph(n, frozenset(edges))


@st.composite
def _graph_and_rule(draw):
    """A directed graph with n <= 8 and every in-degree >= 1, and a
    non-identity rule."""
    n = draw(st.integers(1, 8))
    adj = np.array(draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
    for i in np.flatnonzero(~adj.any(axis=0)):
        adj[draw(st.integers(0, n - 1)), i] = True
    edges = frozenset((int(j) + 1, int(i) + 1) for j, i in zip(*np.nonzero(adj)))
    m = draw(st.integers(1, 5))
    a, b = draw(st.integers(0, m)), draw(st.integers(0, m))
    if a == b == m:
        a -= 1
    return DirectedGraph(n, edges), ReplacementMatrix(a, b, m)


class TestOneRuleIsPerVertex:
    """n copies of one rule, given per vertex, take the B-based path (z* by
    the limit solve, Gamma from B) and must give what the scalar rule
    gives: the regime, rho, c and sigma, or the same refusal."""

    @settings(max_examples=80, deadline=None)
    @given(case=_graph_and_rule())
    @example(case=(_path_with_loops(6), ReplacementMatrix(1, 1, 4)))  # defective, sqrt(t)
    @example(case=(_path_with_loops(6), ReplacementMatrix(3, 2, 4)))  # defective, sqrt(t)
    @example(case=(_path_with_loops(5), ReplacementMatrix(3, 3, 4)))  # defective, critical
    @example(case=(generate_graph("cycle_undirected", {"n": 4}), ReplacementMatrix(0, 0, 1)))
    @example(case=(generate_graph("erdos_renyi_min_indegree", {"n": 6, "p": 0.4}, seed=3),
                   ReplacementMatrix(0, 0, 1)))  # non-normal, subcritical
    def test_same_prediction(self, case):
        g, rule = case
        a_tilde = g.weighted_adjacency()
        per_vertex = normalised_rule(g, HeterogeneousScheme((rule,) * g.n))
        assert isinstance(per_vertex[0], np.ndarray) and np.array_equal(per_vertex[2], a_tilde)
        try:
            one = theory.fluctuations(rule.alpha, rule.beta, a_tilde)
        except UrnNetError as exc:
            with pytest.raises(type(exc)):
                theory.fluctuations(*per_vertex)
            return
        per = theory.fluctuations(*per_vertex)
        assert per.regime == one.regime
        assert abs(per.rho - one.rho) <= 1e-12
        assert np.abs(per.c - one.c).max() <= 1e-12
        if one.sigma is None:
            assert per.sigma is None
        else:
            # absolute at c = 0 or 1, where the payouts carry no noise and sigma = 0
            err = np.linalg.norm(per.sigma - one.sigma)
            assert err <= 1e-12 * np.linalg.norm(one.sigma) + 1e-15

    @pytest.mark.parametrize("family,n", [("cycle_undirected", 4), ("cycle_directed", 2)])
    def test_bipartite_friedman_refused_on_every_path(self, family, n):
        # a = b = 0: H = I + A~ is singular where A~ has the eigenvalue -1
        g = generate_graph(family, {"n": n})
        rules = HeterogeneousScheme((ReplacementMatrix(0, 0, 1),) * n)
        with pytest.raises(SingularLimitSystemError):
            theory.fluctuations(0.0, 0.0, g.weighted_adjacency())
        with pytest.raises(SingularLimitSystemError):
            theory.fluctuations(*normalised_rule(g, rules))
        with pytest.raises(SingularLimitSystemError) as exc:
            theory.heterogeneous_limit(g, rules)
        assert not exc.value.__cause__.condition <= spectral.INVERSION_COND_MAX
        with pytest.raises(SingularLimitSystemError):
            theory.predict(g, 0.0, 0.0)

    def test_refuses_mismatched_per_vertex_inputs(self):
        a_tilde = generate_graph("cycle_directed", {"n": 3}).weighted_adjacency()
        for alpha, beta in ((np.full(2, 0.25), np.full(2, 0.25)), (0.25, np.full(3, 0.25)),
                            (np.full(3, 0.25), np.full(3, 1.5))):
            with pytest.raises(InvalidParamsError):
                theory.fluctuations(alpha, beta, a_tilde)


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

    def test_nothing_reinforced_keeps_every_start(self):
        g = DirectedGraph(2, frozenset())
        limit = theory.heterogeneous_limit(g, ReplacementMatrix(1, 1, 2), frozen_fractions=[0.3, 0.6])
        assert np.array_equal(limit, [0.3, 0.6])

    def test_frozen_required_for_unreinforced(self):
        g = DirectedGraph(2, frozenset({(1, 2)}))
        scheme = HeterogeneousScheme((ReplacementMatrix(1, 0, 2),) * 2)
        with pytest.raises(InvalidParamsError):
            theory.heterogeneous_limit(g, scheme)

    def test_polya_system_is_singular(self):
        g = generate_graph("complete_with_loops", {"n": 2})
        scheme = HeterogeneousScheme((ReplacementMatrix(1, 1, 1),) * 2)
        with pytest.raises(SingularLimitSystemError) as exc:
            theory.heterogeneous_limit(g, scheme)
        # the guard's estimate, carried by the cause: inf at a zero pivot
        assert not exc.value.__cause__.condition <= spectral.INVERSION_COND_MAX

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
        # floats are read as the decimals they print as
        for d in range(1, 21):
            got = theory.influence_threshold(d, 0.7, 0.2, 0.6)
            meets = [
                Fraction("0.7") * x + Fraction("0.2") * (d - x) >= Fraction("0.6") * d
                for x in range(d + 1)
            ]
            expected = meets.index(True) if any(meets) else None
            assert got == expected

    @pytest.mark.parametrize("d,expected", [(8, 7), (16, 14)])
    def test_decimal_ties(self, d, expected):
        # 0.6 * 7 + 0.2 * 1 = 4.4 = 0.55 * 8 exactly in decimals, not in binary
        assert theory.influence_threshold(d, 0.6, 0.2, 0.55) == expected
        assert theory.influence_threshold(d, np.float64(0.6), 0.2, 0.55) == expected
        exact = (Fraction(3, 5), Fraction(1, 5), Fraction(11, 20))
        assert theory.influence_threshold(d, *exact) == expected


# alpha or beta anywhere in [0, 1], exactly 1, or within 1e-12 of 1
_NEAR_ONE = st.one_of(st.floats(0, 1), st.just(1.0), st.floats(0, 1e-12).map(lambda d: 1.0 - d))


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
            ("cycle_directed", {"n": 5}, 0.75, "schur"),  # directed critical
            ("cycle_undirected", {"n": 5}, 0.0, "eigh"),  # subcritical, alpha + beta < 1
            ("cycle_directed", {"n": 5}, 0.9, None),  # subcritical, alpha + beta > 1
            # critical with alpha + beta < 1, where rho comes from the form
            ("cycle_undirected", {"n": 6}, 0.25, "eigh"),
            ("cycle_directed", {"n": 6}, 0.25, "schur"),
            ("cycle_directed", {"n": 3}, 0.0, "schur"),  # a complex critical pair
            ("cycle_undirected", {"n": 8}, 1.0, "eigh"),  # Polya rate class
        ],
    )
    def test_one_factorisation_per_prediction(self, monkeypatch, family, params, ab, factor):
        # one n x n factorisation on every branch; the critical Gram adds
        # only the eig of its cluster block, the k modes near Re = 1/2
        g = generate_graph(family, params)
        lam = np.linalg.eigvals(drift_jacobian(ab, ab, g.weighted_adjacency()))
        k = int(np.sum(np.abs(lam.real - 0.5) <= spectral.CRITICAL_CLUSTER_RADIUS))
        calls = _factorisations(monkeypatch)
        rep = theory.predict(g, ab, ab)
        expected = [(factor, (g.n, g.n))] if factor else []
        if rep.regime == theory.REGIME_CRITICAL:
            expected.append(("eig", (k, k)))
        assert calls == expected

    @pytest.mark.parametrize("ab", [0.25, 0.75, 1.0])  # sqrt(t), critical, Polya
    @pytest.mark.parametrize(
        "family,params",
        [("d_regular_random", {"n": 64, "d": 4}), ("erdos_renyi_min_indegree", {"n": 64, "p": 1 / 16})],
    )
    def test_warm_prediction_factors_no_n_by_n(self, monkeypatch, family, params, ab):
        # every common rule reads W's form, so after any rule on the same
        # graph the memo holds it, and a hit changes no bit of the report
        g = generate_graph(family, params, seed=3)
        calls = _factorisations(monkeypatch)
        cold = theory.predict(g, ab, ab)
        cold_calls = list(calls)
        # a cold prediction factors W, unless a Polya rule refused the directed graph
        assert cold.notes or cold_calls[0][1] == (g.n, g.n)
        theory.predict(g, 0.25, 0.25)
        calls.clear()
        warm = theory.predict(g, ab, ab)
        assert calls == [call for call in cold_calls if call[1] != (g.n, g.n)]
        assert json.dumps(warm.to_dict()) == json.dumps(cold.to_dict())

    def test_polya_refuses_a_directed_graph_before_factoring(self, monkeypatch):
        calls = _factorisations(monkeypatch)
        rep = theory.predict(generate_graph("cycle_directed", {"n": 5}), 1.0, 1.0)
        assert calls == []
        assert rep.rate_class is None
        assert rep.notes == ("variance decay class unavailable: weighted adjacency is not symmetric",)

    def test_per_vertex_critical_factors_once(self, monkeypatch):
        # B = diag(k) J / 4 on K4 has the one nonzero eigenvalue sum(k) / 4 =
        # 1/2, so rho = 1/2 comes from B's Schur form, which the Gram reuses
        a_tilde = generate_graph("complete_with_loops", {"n": 4}).weighted_adjacency()
        ab = (1.0 + np.array([0.2, 0.4, 0.6, 0.8])) / 2
        calls = _factorisations(monkeypatch)
        fl = theory.fluctuations(ab, ab, a_tilde)
        assert fl.regime == theory.REGIME_CRITICAL
        assert calls == [("schur", (4, 4)), ("eig", (1, 1))]

    def test_polya_reports(self):
        g8 = generate_graph("cycle_undirected", {"n": 8})
        rep = theory.predict(g8, 1.0, 1.0)
        assert rep.regime == theory.REGIME_POLYA
        assert rep.rate_class.kind == theory.RATE_T_POW
        star = generate_graph("star_undirected", {"n": 5})
        rep2 = theory.predict(star, 1.0, 1.0)
        assert rep2.rate_class is None and rep2.notes

    @settings(max_examples=80, deadline=None)
    @given(alpha=_NEAR_ONE, beta=_NEAR_ONE)
    @example(alpha=1.0, beta=1.0)
    @example(alpha=1 - 4e-13, beta=1 - 4e-13)  # rho = 8e-13
    @example(alpha=1.0, beta=1 - 1e-13)  # rho at SINGULAR_RHO_TOL, up to rounding
    def test_polya_branch_is_the_singular_refusal(self, alpha, beta):
        # one predicate: predict reports a Polya-type rule exactly where
        # consensus_equilibrium and fluctuations refuse a singular H
        g = generate_graph("cycle_undirected", {"n": 5})
        a_tilde, refused = g.weighted_adjacency(), []
        for solve in (lambda: theory.consensus_equilibrium(alpha, beta),
                      lambda: theory.fluctuations(alpha, beta, a_tilde)):
            try:
                solve()
                refused.append(False)
            except SingularLimitSystemError:
                refused.append(True)
        polya = theory.predict(g, alpha, beta).regime == theory.REGIME_POLYA
        assert refused == [polya, polya]

    def test_unreinforced_graph_rejected(self):
        g = DirectedGraph(2, frozenset({(1, 2)}))
        with pytest.raises(ZeroInDegreeError) as info:
            theory.predict(g, 0.25, 0.25)
        assert info.value.vertices == (1,)


def _blas_spy(monkeypatch, module, name):
    """Wrap `module.name` so that each call notes numpy's and scipy's
    OpenBLAS counts."""
    seen, original = [], getattr(module, name)

    def spy(*args, **kwargs):
        seen.append(_blas_counts())
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, spy)
    return seen


# each entry point on the 6-cycle, with a solver it calls inside its scope
_CAPPED = {
    "fluctuations": (  # rho = 1/2 there: the critical Gram
        lambda a_t, g: theory.fluctuations(0.25, 0.25, a_t), spectral, "log_averaged_gram",
    ),
    "polya_rate_class": (
        lambda a_t, g: theory.polya_rate_class(a_t), spectral, "schur_form",
    ),
    "heterogeneous_limit": (
        lambda a_t, g: theory.heterogeneous_limit(g, ReplacementMatrix(1, 2, 4)),
        theory, "_solve_limit",
    ),
}
# A~ has a Jordan block at -1/2, so a = b = 0 puts one in H = I + A~ at 1/2
_JORDAN_PAIR = DirectedGraph(3, frozenset({(1, 2), (1, 3), (2, 1), (2, 3), (3, 2)}))


class TestBlasCap:
    """The theory entry points hold numpy's and scipy's OpenBLAS at one
    thread for their own scope, and every exit restores the caller's counts."""

    @pytest.mark.parametrize("entry", sorted(_CAPPED))
    def test_one_thread_inside_restored_after(self, monkeypatch, entry):
        call, module, name = _CAPPED[entry]
        lib = _fake_blas(monkeypatch, 3, 2)
        seen = _blas_spy(monkeypatch, module, name)
        g = generate_graph("cycle_undirected", {"n": 6})
        call(g.weighted_adjacency(), g)
        assert seen == [[1, 1]] and lib.counts == [3, 2]

    @pytest.mark.parametrize("error,ab,g", [
        (SingularLimitSystemError, 1.0, generate_graph("cycle_directed", {"n": 4})),
        (NonDiagonalizableError, 0.0, _JORDAN_PAIR),
    ])
    def test_restored_after_refusal(self, monkeypatch, error, ab, g):
        lib = _fake_blas(monkeypatch, 3, 2)
        with pytest.raises(error):
            theory.fluctuations(ab, ab, g.weighted_adjacency())
        assert lib.counts == [3, 2]

    def test_nested_scopes_restore_the_outer_count(self, monkeypatch):
        lib = _fake_blas(monkeypatch, 4, 3)
        seen = _blas_spy(monkeypatch, spectral, "lyapunov_solve")
        g = generate_graph("erdos_renyi_min_indegree", {"n": 12, "p": 0.3}, seed=2)
        with dynamics.blas_threads(2):
            assert theory.predict(g, 0.25, 0.25).regime == theory.REGIME_SQRT_T
            assert lib.counts == [2, 2]
        assert seen == [[1, 1]] and lib.counts == [4, 3]

    def test_real_library_capped_and_restored(self, monkeypatch):
        libs = [dynamics._openblas(package) for package in ("numpy", "scipy")]
        before = _blas_counts()
        for _, put in libs:
            put(2)  # two threads to cap, on any machine
        try:
            if _blas_counts() != [2, 2]:
                pytest.skip("numpy's and scipy's BLAS are not OpenBLAS this process can find")
            seen = _blas_spy(monkeypatch, spectral, "schur_form")
            g = generate_graph("erdos_renyi_min_indegree", {"n": 40, "p": 0.1}, seed=1)
            theory.predict(g, 0.25, 0.25)
            assert seen == [[1, 1]] and _blas_counts() == [2, 2]
        finally:
            for (_, put), count in zip(libs, before):
                put(count)
