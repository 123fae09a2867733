"""Spectra, Lyapunov solves, inversion, and the log-averaged Gram limit."""

import numpy as np
import pytest
import scipy.linalg

from urnnet import spectral, theory
from urnnet.errors import (
    InvalidParamsError,
    NonDiagonalizableError,
    NotCriticalRegimeError,
    SingularMatrixError,
    SingularSylvesterError,
)
from urnnet.graph import DirectedGraph, generate_graph


def test_identity_spectrum():
    spec = spectral.eigenvalues(np.eye(3))
    assert np.allclose(spec.eigenvalues, [1, 1, 1])
    assert np.all(spec.eigenvalues.real == 1.0)
    assert spec.second_max_real == 1.0


def test_two_vertex_complete_spectrum():
    g = generate_graph("complete_with_loops", {"n": 2})
    spec = spectral.eigenvalues(g.weighted_adjacency())
    assert np.allclose(sorted(spec.eigenvalues.real), [0, 1], atol=1e-12)
    assert np.allclose(spec.eigenvalues.imag, 0)
    assert spec.second_max_real == pytest.approx(0.0, abs=1e-12)


def test_directed_4cycle_roots_of_unity():
    g = generate_graph("cycle_directed", {"n": 4})
    lam = spectral.eigenvalues(g.weighted_adjacency()).eigenvalues
    expected = np.array([1, 1j, -1j, -1])
    got = sorted(lam, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    want = sorted(expected, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    assert np.allclose(got, want, atol=1e-9)
    # independent check: the recovered characteristic polynomial is z^4 - 1
    assert np.allclose(np.poly(lam), [1, 0, 0, 0, -1], atol=1e-9)


def test_conjugate_pairs_for_directed_graphs():
    g = generate_graph("cycle_directed", {"n": 5})
    lam = spectral.eigenvalues(g.weighted_adjacency()).eigenvalues
    for z in lam:
        assert np.min(np.abs(lam - np.conj(z))) <= 1e-9


def test_real_part_ordering():
    for family, params in [("cycle_directed", {"n": 6}), ("star_undirected", {"n": 5})]:
        spec = spectral.eigenvalues(generate_graph(family, params).weighted_adjacency())
        lam = spec.eigenvalues.real
        assert lam.min() <= spec.second_max_real <= lam.max()


@pytest.mark.parametrize(
    "family,params",
    [
        ("complete_with_loops", {"n": 5}),
        ("cycle_directed", {"n": 6}),
        ("cycle_undirected", {"n": 7}),
        ("star_undirected", {"n": 6}),
        ("d_regular_random", {"n": 12, "d": 4}),
        ("erdos_renyi_min_indegree", {"n": 10, "p": 0.2}),
    ],
)
def test_column_stochastic_spectrum_bounds(family, params):
    g = generate_graph(family, params, seed=5)
    spec = spectral.eigenvalues(g.weighted_adjacency())
    assert np.min(np.abs(spec.eigenvalues - 1.0)) <= 1e-9
    assert np.max(np.abs(spec.eigenvalues)) <= 1.0 + 1e-9


def test_non_finite_rejected():
    with pytest.raises(InvalidParamsError):
        spectral.eigenvalues(np.array([[np.nan, 0], [0, 1.0]]))


def test_lyapunov_identity_case():
    s = spectral.lyapunov_solve(0.5 * np.eye(3), np.eye(3))
    assert np.allclose(s, np.eye(3), atol=1e-12)


def test_lyapunov_scalar():
    s = spectral.lyapunov_solve(np.array([[1.0]]), np.array([[2.0]]))
    assert s[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_lyapunov_closed_form_two_vertex():
    # A~ = J/2, alpha = beta = 1/4: solution is J/4 by eigendecomposition.
    g = generate_graph("complete_with_loops", {"n": 2})
    a_tilde = g.weighted_adjacency()
    h = np.eye(2) - (0.25 + 0.25 - 1.0) * a_tilde
    s = spectral.lyapunov_solve(h - 0.5 * np.eye(2), a_tilde.T @ a_tilde)
    closed = a_tilde @ a_tilde @ np.linalg.inv(np.eye(2) + a_tilde)
    assert np.allclose(s, np.full((2, 2), 0.25), atol=1e-12)
    assert np.allclose(s, closed, atol=1e-8)


def _random_stable(n, rng):
    a = rng.standard_normal((n, n))
    shift = np.abs(np.linalg.eigvals(a).real).max() + 1.0
    return a + shift * np.eye(n)


def _path_with_loops(n):
    edges = {(i, i) for i in range(1, n + 1)} | {(i, i + 1) for i in range(1, n)}
    return DirectedGraph(n_vertices=n, edges=frozenset(edges))


def _shifted_drift(a_tilde):
    """H - I/2 and A~^T A~ for alpha = beta = 1/4, as fluctuations builds them."""
    n = a_tilde.shape[0]
    return theory.drift_matrix(0.25, 0.25, a_tilde) - 0.5 * np.eye(n), a_tilde.T @ a_tilde


def _random_case(n, asymmetry=None):
    """A random stable A and PSD Q; with `asymmetry`, A is symmetric plus a
    perturbation of that size, so 0 gives an exactly symmetric A."""
    rng = np.random.default_rng(n)
    if asymmetry is None:
        a = _random_stable(n, rng)
    else:
        x = rng.standard_normal((n, n))
        a = x @ x.T / n + np.eye(n) + asymmetry * rng.uniform(-1.0, 1.0, (n, n))
    q0 = rng.standard_normal((n, n))
    return a, q0 @ q0.T


LYAPUNOV_CASES = {
    **{str(n): lambda n=n: _random_case(n) for n in (2, 5, 9, 64, 65, 200)},
    # H - I/2 is one Jordan block at 3/4 plus the eigenvalue 1: defective
    **{
        f"path{n}": lambda n=n: _shifted_drift(_path_with_loops(n).weighted_adjacency())
        for n in (64, 65)
    },
    "er40": lambda: _shifted_drift(
        generate_graph("erdos_renyi_min_indegree", {"n": 40, "p": 0.1}, seed=3).weighted_adjacency()
    ),
    **{f"sym{n}": lambda n=n: _random_case(n, 0.0) for n in (5, 64, 65, 200)},
    # below the symmetry test's 1e-13: these take the symmetric factor too
    **{f"near_sym{n}": lambda n=n: _random_case(n, 5e-14) for n in (5, 65)},
    "reg64": lambda: _shifted_drift(
        generate_graph("d_regular_random", {"n": 64, "d": 4}, seed=2).weighted_adjacency()
    ),
}


@pytest.mark.parametrize("case", LYAPUNOV_CASES)
def test_lyapunov_residual_and_scipy_oracle(case):
    a, q = LYAPUNOV_CASES[case]()
    s = spectral.lyapunov_solve(a, q)
    residual = np.linalg.norm(a.T @ s + s @ a - q)
    assert residual <= 1e-10 * max(1.0, np.linalg.norm(q))
    assert np.allclose(s, s.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(s)) >= -1e-10
    oracle = scipy.linalg.solve_sylvester(a.T, a, q)
    assert np.allclose(s, oracle, atol=1e-9)


def test_defective_path_lyapunov_inputs():
    a, _ = LYAPUNOV_CASES["path65"]()
    lam = np.linalg.eigvals(a)
    assert np.sum(np.abs(lam - 0.75) <= 1e-12) == 64
    # a single eigenvector for the 64-fold eigenvalue: one Jordan block
    assert np.linalg.matrix_rank(a - 0.75 * np.eye(65)) == 64


def test_clt_covariance_on_defective_path():
    a_tilde = _path_with_loops(65).weighted_adjacency()
    fl = theory.fluctuations(0.25, 0.25, a_tilde)
    assert fl.regime == theory.REGIME_SQRT_T
    sigma = fl.sigma
    assert sigma.shape == (65, 65)
    assert np.all(np.isfinite(sigma))


def _directed_cases():
    """Random directed graphs with n <= 12, and the defective path with loops."""
    rng = np.random.default_rng(12)
    for seed in range(12):
        n = int(rng.integers(2, 13))
        p = float(rng.uniform(0.15, 0.6))
        yield f"er{n}_s{seed}", generate_graph(
            "erdos_renyi_min_indegree", {"n": n, "p": p}, seed=seed
        )
    for n in (5, 12):
        yield f"path{n}", _path_with_loops(n)


@pytest.mark.parametrize("name,g", list(_directed_cases()))
@pytest.mark.parametrize("ab", [(0.25, 0.25), (0.3, 0.45), (0.5, 0.5), (0.6, 0.7), (0.9, 0.4)])
def test_fluctuations_sigma_matches_scipy_lyapunov(name, g, ab):
    # an independent solve of the same equation from H itself:
    # (H - I/2)^T S + S (H - I/2) = A~^T A~, sigma = C(alpha, beta) S
    alpha, beta = ab
    a_tilde = g.weighted_adjacency()
    fl = theory.fluctuations(alpha, beta, a_tilde)
    assert fl.regime == theory.REGIME_SQRT_T, name
    m = theory.drift_matrix(alpha, beta, a_tilde) - 0.5 * np.eye(g.n)
    expected = theory.noise_variance_c(alpha, beta) * scipy.linalg.solve_continuous_lyapunov(
        m.T, a_tilde.T @ a_tilde
    )
    assert np.linalg.norm(fl.sigma - expected) <= 1e-9 * np.linalg.norm(expected)


@pytest.mark.parametrize("case", ["sym5", "near_sym65", "9", "path65", "er40", "reg64"])
@pytest.mark.parametrize("c0,c1", [(0.5, 0.25), (0.5, -0.75), (-1.0, 2.0), (0.5, 0.0)])
def test_shifted_schur_form(case, c0, c1):
    # the shifted form is a Schur form of c0 I + c1 A, from the same U
    a, _ = LYAPUNOV_CASES[case]()
    n = a.shape[0]
    form = spectral.schur_form(a)
    shifted = form.shifted(c0, c1)
    assert shifted.u is form.u and shifted.symmetric == form.symmetric
    m = c0 * np.eye(n) + c1 * a
    assert np.linalg.norm(shifted.u @ shifted.r @ shifted.u.T - m.T) <= 1e-12 * max(1.0, np.linalg.norm(m))
    got = shifted.eigenvalues
    want = c0 + c1 * form.eigenvalues
    if case != "path65":  # eig scatters the copies of a 64-fold Jordan eigenvalue
        want = np.concatenate([want, np.linalg.eigvals(m)])
    assert np.abs(got[:, None] - want[None, :]).min(axis=0).max() <= 1e-9


def test_symmetric_lyapunov_needs_no_trsyl(monkeypatch):
    def refused(*args, **kwargs):
        raise AssertionError("a diagonal R needs no triangular Sylvester solve")

    monkeypatch.setattr(scipy.linalg.lapack, "dtrsyl", refused)
    for case in ("sym200", "near_sym65", "reg64"):
        a, q = LYAPUNOV_CASES[case]()
        oracle = scipy.linalg.solve_sylvester(a.T, a, q)
        assert np.allclose(spectral.lyapunov_solve(a, q), oracle, atol=1e-9)


def test_lyapunov_singular_pair_detected():
    with pytest.raises(SingularSylvesterError):
        spectral.lyapunov_solve(np.diag([1.0, -1.0]), np.eye(2))
    # a complex pair +-i, read from the 2x2 block of the Schur factor
    with pytest.raises(SingularSylvesterError):
        spectral.lyapunov_solve(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))


def _factorisations(monkeypatch):
    """Count the spectral factorisations numpy and scipy run from here on;
    the eigenvalue-only routines raise."""
    calls = {"eigh": 0, "eig": 0, "schur": 0}

    def counted(module, name):
        f = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    def refused(*args, **kwargs):
        raise AssertionError("eigenvalues computed apart from the factorisation")

    counted(np.linalg, "eigh")
    counted(np.linalg, "eig")
    counted(scipy.linalg, "schur")
    monkeypatch.setattr(np.linalg, "eigvals", refused)
    monkeypatch.setattr(np.linalg, "eigvalsh", refused)
    return calls


@pytest.mark.parametrize(
    "case,factor", [("sym5", "eigh"), ("near_sym65", "eigh"), ("9", "schur"), ("path65", "schur")]
)
def test_lyapunov_factors_once(monkeypatch, case, factor):
    a, q = LYAPUNOV_CASES[case]()
    calls = _factorisations(monkeypatch)
    spectral.lyapunov_solve(a, q)
    assert calls == {"eigh": 0, "eig": 0, "schur": 0, factor: 1}


@pytest.mark.parametrize("scale,info", [(0.5, 0), (1.0, 1)])
def test_lyapunov_honours_trsyl_scale_and_info(monkeypatch, scale, info):
    # trsyl returns X with R X + X R^T = scale * C, and info 1 when it had to
    # perturb nearly cancelling eigenvalues
    a, q = LYAPUNOV_CASES["9"]()
    dtrsyl = scipy.linalg.lapack.dtrsyl

    def scaled(*args, **kwargs):
        x, _, _ = dtrsyl(*args, **kwargs)
        return scale * x, scale, info

    monkeypatch.setattr(scipy.linalg.lapack, "dtrsyl", scaled)
    if info:
        with pytest.raises(SingularSylvesterError):
            spectral.lyapunov_solve(a, q)
    else:
        oracle = scipy.linalg.solve_sylvester(a.T, a, q)
        assert np.allclose(spectral.lyapunov_solve(a, q), oracle, atol=1e-9)


def test_invert_basics():
    assert np.allclose(spectral.invert(np.eye(4)), np.eye(4))
    assert np.allclose(spectral.invert(np.diag([2.0, 4.0])), np.diag([0.5, 0.25]))


def test_invert_star_shifted_adjacency():
    a_tilde = generate_graph("star_undirected", {"n": 5}).weighted_adjacency()
    m = 0.5 * a_tilde - np.eye(5)
    inv = spectral.invert(m)
    assert np.linalg.norm(m @ inv - np.eye(5)) <= 1e-10 * 5


def test_invert_twice_is_identity():
    rng = np.random.default_rng(0)
    m = _random_stable(6, rng)
    again = spectral.invert(spectral.invert(m))
    assert np.allclose(again, m, atol=1e-8 * np.linalg.norm(m))


def test_invert_singular_raises_with_condition():
    with pytest.raises(SingularMatrixError) as exc:
        spectral.invert(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert exc.value.condition > spectral.INVERSION_COND_MAX or not np.isfinite(
        exc.value.condition
    )


def test_log_averaged_gram_scalar():
    out = spectral.log_averaged_gram(np.array([[0.5]]), np.array([[1.0]]))
    assert out[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_log_averaged_gram_two_modes():
    out = spectral.log_averaged_gram(np.diag([0.5, 1.0]), np.eye(2))
    assert np.allclose(out, np.diag([1.0, 0.0]), atol=1e-12)


@pytest.mark.parametrize("family,params", [("complete_with_loops", {"n": 4}), ("cycle_undirected", {"n": 6})])
def test_log_averaged_gram_regular_graph_projects_to_j(family, params):
    # With alpha + beta = 3/2 only the Perron mode sits on the critical line,
    # so the average collapses to the rank-one all-ones projector.
    g = generate_graph(family, params)
    a_tilde = g.weighted_adjacency()
    n = g.n
    h = np.eye(n) - 0.5 * a_tilde
    out = spectral.log_averaged_gram(h, a_tilde.T @ a_tilde)
    assert np.allclose(out, np.full((n, n), 1.0 / n), atol=1e-10)


def test_log_averaged_gram_psd():
    g = generate_graph("cycle_undirected", {"n": 6})
    a_tilde = g.weighted_adjacency()
    h = np.eye(6) - 0.5 * a_tilde
    out = spectral.log_averaged_gram(h, a_tilde.T @ a_tilde)
    assert np.allclose(out, out.T, atol=1e-12)
    assert np.min(np.linalg.eigvalsh(out)) >= -1e-12


def test_log_averaged_gram_not_critical():
    with pytest.raises(NotCriticalRegimeError):
        spectral.log_averaged_gram(np.eye(3), np.eye(3))


def test_log_averaged_gram_eigenvalue_below_half():
    with pytest.raises(InvalidParamsError):
        spectral.log_averaged_gram(0.25 * np.eye(2), np.eye(2))


def _critical_graph_case(g, alpha_plus_beta=1.5, seed=0):
    """H for the given alpha + beta on g, and a random PSD Gamma."""
    rng = np.random.default_rng(seed)
    h = theory.drift_matrix(alpha_plus_beta / 2, alpha_plus_beta / 2, g.weighted_adjacency())
    x = rng.standard_normal((g.n, g.n))
    return h, x @ x.T


def _two_components(g1, g2):
    edges = g1.edges | {(i + g1.n, j + g1.n) for i, j in g2.edges}
    return DirectedGraph(n_vertices=g1.n + g2.n, edges=frozenset(edges))


GRAM_CASES = {
    **{
        f"er{n}": lambda n=n: _critical_graph_case(
            generate_graph("erdos_renyi_min_indegree", {"n": n, "p": 0.3}, seed=n + 1), seed=n
        )
        for n in (6, 12, 40)
    },
    # two closed classes: eigenvalue 1 of A~, so 1/2 of H, twice
    "er_two_classes": lambda: _critical_graph_case(
        _two_components(
            generate_graph("erdos_renyi_min_indegree", {"n": 7, "p": 0.4}, seed=1),
            generate_graph("erdos_renyi_min_indegree", {"n": 5, "p": 0.5}, seed=2),
        )
    ),
    "reg12": lambda: _critical_graph_case(
        generate_graph("d_regular_random", {"n": 12, "d": 3}, seed=4)
    ),
    # bipartite: alpha + beta = 1/2 puts the eigenvalue -1 of A~ on the line
    "cycle6_bipartite": lambda: _critical_graph_case(
        generate_graph("cycle_undirected", {"n": 6}), alpha_plus_beta=0.5
    ),
    "two_K4": lambda: _critical_graph_case(
        _two_components(*[generate_graph("complete_with_loops", {"n": 4})] * 2)
    ),
    # eigenvector condition 3.1e7: rows of V^-1 from inv(V) miss the bound
    "er16_ill": lambda: _critical_graph_case(
        generate_graph("erdos_renyi_min_indegree", {"n": 16, "p": 0.25}, seed=2690213548)
    ),
}


@pytest.mark.parametrize("case", GRAM_CASES)
def test_log_averaged_gram_is_projector_form(case):
    # Every critical mode here is real, so the average keeps exactly the
    # modes of ker(H - I/2): sigma = P^T Gamma P, with P the projector onto
    # that kernel along the range of H - I/2.
    h, gamma = GRAM_CASES[case]()
    m = h - 0.5 * np.eye(h.shape[0])
    right, left = scipy.linalg.null_space(m, rcond=1e-10), scipy.linalg.null_space(m.T, rcond=1e-10)
    proj = right @ np.linalg.solve(left.T @ right, left.T)
    expected = proj.T @ gamma @ proj
    out = spectral.log_averaged_gram(h, gamma)
    assert np.linalg.norm(out - expected) <= 1e-9 * np.linalg.norm(expected)


def test_log_averaged_gram_symmetric_needs_no_inverse(monkeypatch):
    h, gamma = GRAM_CASES["reg12"]()
    calls = _factorisations(monkeypatch)

    def refused(*args, **kwargs):
        raise AssertionError("orthonormal eigenvectors need no condition number or inverse")

    monkeypatch.setattr(np.linalg, "cond", refused)
    monkeypatch.setattr(np.linalg, "inv", refused)
    monkeypatch.setattr(np.linalg, "solve", refused)
    spectral.log_averaged_gram(h, gamma)
    assert calls == {"eigh": 1, "eig": 0, "schur": 0}


def test_log_averaged_gram_defective():
    h = np.array([[0.5, 1.0], [0.0, 0.5]])
    with pytest.raises(NonDiagonalizableError):
        spectral.log_averaged_gram(h, np.eye(2))
