"""Spectra, Lyapunov solves, inversion, and the log-averaged Gram limit."""

import contextlib
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from urnnet import dynamics, spectral, theory
from urnnet.dynamics import HeterogeneousScheme, ReplacementMatrix, blas_threads, normalised_rule
from urnnet.errors import (
    InvalidParamsError,
    NonDiagonalizableError,
    NotCriticalRegimeError,
    SingularMatrixError,
    SingularSylvesterError,
)
from urnnet.graph import DirectedGraph, generate_graph


def test_identity_spectrum():
    lam = spectral.eigenvalues(np.eye(3))
    assert isinstance(lam, np.ndarray) and lam.dtype == complex
    assert np.allclose(lam, [1, 1, 1])
    assert np.all(lam.real == 1.0)


def test_two_vertex_complete_spectrum():
    g = generate_graph("complete_with_loops", {"n": 2})
    lam = spectral.eigenvalues(g.weighted_adjacency())
    assert np.allclose(lam, [1, 0], atol=1e-12)
    assert np.allclose(lam.imag, 0)


def test_directed_4cycle_roots_of_unity():
    g = generate_graph("cycle_directed", {"n": 4})
    lam = spectral.eigenvalues(g.weighted_adjacency())
    expected = np.array([1, 1j, -1j, -1])
    got = sorted(lam, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    want = sorted(expected, key=lambda z: (round(z.real, 9), round(z.imag, 9)))
    assert np.allclose(got, want, atol=1e-9)
    # independent check: the recovered characteristic polynomial is z^4 - 1
    assert np.allclose(np.poly(lam), [1, 0, 0, 0, -1], atol=1e-9)


def test_conjugate_pairs_for_directed_graphs():
    g = generate_graph("cycle_directed", {"n": 5})
    lam = spectral.eigenvalues(g.weighted_adjacency())
    for z in lam:
        assert np.min(np.abs(lam - np.conj(z))) <= 1e-9


def test_real_part_ordering():
    # descending real part; among equal real parts, smaller |imag| first
    for family, params in [("cycle_directed", {"n": 6}), ("star_undirected", {"n": 5})]:
        lam = spectral.eigenvalues(generate_graph(family, params).weighted_adjacency())
        keys = list(zip(-lam.real, np.abs(lam.imag)))
        assert keys == sorted(keys)
        assert abs(lam[0] - 1.0) <= 1e-12


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
    lam = spectral.eigenvalues(g.weighted_adjacency())
    assert np.min(np.abs(lam - 1.0)) <= 1e-9
    assert np.max(np.abs(lam)) <= 1.0 + 1e-9


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


def drift_jacobian(alpha, beta, a_tilde):
    """H = I - (alpha + beta - 1) A~ of one common rule, built here from its
    definition."""
    return np.eye(len(a_tilde)) - (alpha + beta - 1.0) * a_tilde


def _shifted_drift(a_tilde):
    """H - I/2 and A~^T A~ for alpha = beta = 1/4."""
    n = a_tilde.shape[0]
    return drift_jacobian(0.25, 0.25, a_tilde) - 0.5 * np.eye(n), a_tilde.T @ a_tilde


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
    m = drift_jacobian(alpha, beta, a_tilde) - 0.5 * np.eye(g.n)
    expected = theory.noise_variance_c(alpha, beta) * scipy.linalg.solve_continuous_lyapunov(
        m.T, a_tilde.T @ a_tilde
    )
    assert np.linalg.norm(fl.sigma - expected) <= 1e-9 * np.linalg.norm(expected)


@pytest.mark.parametrize("name,g", list(_directed_cases()))
def test_per_vertex_sigma_matches_scipy_lyapunov(name, g):
    # one random rule per vertex with |alpha + beta - 1| < 1/2, so rho > 1/2;
    # H, z* and Gamma are built here from the payouts and the adjacency
    rng = np.random.default_rng(g.n * 100 + g.n_edges)
    m = 4 * rng.integers(2, 5, size=g.n)
    a, b = (rng.integers(m // 4 + 1, 3 * m // 4) for _ in range(2))
    scheme = HeterogeneousScheme(tuple(map(ReplacementMatrix, a.tolist(), b.tolist(), m.tolist())))
    fl = theory.fluctuations(*normalised_rule(g, scheme))
    adj = g.adjacency().astype(float)
    w = m[:, None] * adj / (m @ adj)
    lin = ((a + b) / m - 1.0)[:, None] * w
    h = np.eye(g.n) - lin
    z = np.linalg.solve(h.T, w.T @ (1.0 - b / m))
    expected = scipy.linalg.solve_continuous_lyapunov(
        (h - 0.5 * np.eye(g.n)).T, lin.T @ np.diag(z * (1.0 - z)) @ lin
    )
    assert fl.regime == theory.REGIME_SQRT_T, name
    assert fl.rho == pytest.approx(np.linalg.eigvals(h).real.min(), abs=1e-9)
    assert np.abs(fl.c - z).max() <= 1e-12
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
    """Record, as (name, shape) in call order, the spectral factorisations
    numpy and scipy run from here on, starting from an empty `schur_form`
    memo; the eigenvalue-only routines raise."""
    calls = []
    monkeypatch.setattr(spectral, "_last_form", [None])

    def counted(module, name):
        f = getattr(module, name)

        def wrapper(m, *args, **kwargs):
            calls.append((name, np.shape(m)))
            return f(m, *args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    def refused(*args, **kwargs):
        raise AssertionError("eigenvalues computed apart from the factorisation")

    counted(np.linalg, "eigh")
    counted(np.linalg, "eig")
    counted(scipy.linalg, "eig")
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
    assert calls == [(factor, a.shape)]


@pytest.mark.parametrize("case,factor", [("reg64", "eigh"), ("er40", "schur")])
def test_schur_form_memo_keys_on_every_byte(monkeypatch, case, factor):
    # the same bytes hit the memo; an edit in place, or a 0.0 turned -0.0, misses
    a = LYAPUNOV_CASES[case]()[0].copy()
    calls = _factorisations(monkeypatch)
    form = spectral.schur_form(a)
    assert spectral.schur_form(a.copy()) is form
    a[tuple(np.argwhere(a == 0.0)[0])] = -0.0
    assert spectral.schur_form(a) is not form
    a[0, 0] += 1e-3
    spectral.schur_form(a)
    assert calls == [(factor, a.shape)] * 3


@pytest.mark.parametrize("case", ["reg64", "er40"])
def test_schur_form_holds_read_only_arrays(case):
    form = spectral.schur_form(LYAPUNOV_CASES[case]()[0])
    for held in (form.r, form.u):
        with pytest.raises(ValueError, match="read-only"):
            held[0, 0] = 1.0


@pytest.mark.parametrize(
    "family,params",
    [("d_regular_random", {"n": 200, "d": 4}), ("erdos_renyi_min_indegree", {"n": 200, "p": 0.02})],
)
def test_schur_form_same_bits_in_any_blas_scope(monkeypatch, family, params):
    # a hit hands out a form factored in an earlier caller's BLAS scope; at
    # n = 200 scipy's Schur rounds differently on 1 and 2 threads (er200 at
    # seed 5), so neither library's count in the caller may reach it
    a = generate_graph(family, params, seed=5).weighted_adjacency()
    get, put = dynamics._openblas("scipy")
    before, forms = get(), []
    try:
        for scipy_threads in (2, 1):
            put(scipy_threads)  # a caller's own count, which no scope raises
            for scope in (contextlib.nullcontext(), blas_threads(1)):
                monkeypatch.setattr(spectral, "_last_form", [None])
                with scope:
                    forms.append(spectral.schur_form(a))
    finally:
        put(before)
    for form in forms[1:]:
        assert form.r.tobytes() == forms[0].r.tobytes()
        assert form.u.tobytes() == forms[0].u.tobytes()


def test_schur_form_memo_under_threads(monkeypatch):
    # one thread's hit must never hand out the form another thread stored
    # for a different matrix
    mats = [LYAPUNOV_CASES[case]()[0] for case in ("sym5", "5", "9", "near_sym5")]
    expected = []
    for m in mats:
        monkeypatch.setattr(spectral, "_last_form", [None])
        expected.append(spectral.schur_form(m).u.tobytes())
    wrong = []

    def hammer(i):
        for k in range(200):
            j = (i + k // 2) % len(mats)  # hits as well as misses
            if spectral.schur_form(mats[j]).u.tobytes() != expected[j]:
                wrong.append(j)

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(t.is_alive() for t in threads) and wrong == []


@pytest.mark.parametrize("scale,info", [(0.5, 0), (1.0, 1)])
def test_lyapunov_honours_trsyl_scale_and_info(monkeypatch, scale, info):
    # trsyl returns X with A X + X B^T = scale * C, and info 1 when it had to
    # perturb nearly cancelling eigenvalues; at n = 200 the blocked solve
    # calls it at every split and leaf, and each call's scale and info count
    dtrsyl = scipy.linalg.lapack.dtrsyl
    for case in ("9", "200"):
        a, q = LYAPUNOV_CASES[case]()
        calls, fail_at = [], [None]

        def scaled(*args, **kwargs):
            x, _, _ = dtrsyl(*args, **kwargs)
            call_scale = scale ** (len(calls) % 3)  # each call its own scale
            calls.append(call_scale)
            return call_scale * x, call_scale, info * (len(calls) - 1 == fail_at[0])

        monkeypatch.setattr(scipy.linalg.lapack, "dtrsyl", scaled)
        oracle = scipy.linalg.solve_sylvester(a.T, a, q)
        assert np.allclose(spectral.lyapunov_solve(a, q), oracle, atol=1e-9)
        assert (len(calls) > 1) == (case == "200")
        for fail_at[0] in range(len(calls) if info else 0):
            calls.clear()
            with pytest.raises(SingularSylvesterError):
                spectral.lyapunov_solve(a, q)


def _quasi_triangular(n, seed):
    """A random quasi-triangular R, eigenvalue real parts in [1/2, 2], with a
    standardised 2x2 block (a complex pair) across the midpoint of every
    block that the blocked Lyapunov solve halves, and at its top left when
    it halves none."""
    rng = np.random.default_rng(seed)
    r = np.triu(rng.standard_normal((n, n))) / np.sqrt(n)
    np.fill_diagonal(r, rng.uniform(0.5, 2.0, n))
    starts = []

    def halve(lo, hi):
        if hi - lo > spectral.TRSYL_BLOCK:
            p = lo + (hi - lo) // 2
            starts.append(p - 1)
            halve(lo, p + 1)
            halve(p + 1, hi)

    halve(0, n)
    for i in starts or range(min(n - 1, 1)):
        r[i + 1, i + 1] = r[i, i]
        r[i, i + 1], r[i + 1, i] = rng.uniform(0.2, 1.0), -rng.uniform(0.2, 1.0)
    return r


_LEAF = spectral.TRSYL_BLOCK


@pytest.mark.parametrize("n", [1, 2, 3, _LEAF - 1, _LEAF, _LEAF + 1, 2 * _LEAF + 1, 200])
def test_blocked_lyapunov_matches_unblocked_trsyl(n):
    r = _quasi_triangular(n, seed=n)
    c = np.random.default_rng(n + 1).standard_normal((n, n))
    c = c + c.T
    x, scale, info = scipy.linalg.lapack.dtrsyl(r, r, c, tranb="T")
    assert info == 0
    blocked = spectral._triangular_lyapunov(r, c)
    assert np.linalg.norm(blocked - x / scale) <= 1e-13 * np.linalg.norm(x / scale)


def test_blocked_lyapunov_on_the_defective_path():
    # H - I/2 of the path with loops is one 64-fold Jordan block plus one mode
    a, q = LYAPUNOV_CASES["path65"]()
    form = spectral.schur_form(a)
    x, scale, _ = scipy.linalg.lapack.dtrsyl(form.r, form.r, form.u.T @ q @ form.u, tranb="T")
    unblocked = form.u @ (x / scale) @ form.u.T
    unblocked = 0.5 * (unblocked + unblocked.T)
    s = spectral.lyapunov_solve(form, q)
    assert np.linalg.norm(s - unblocked) <= 1e-13 * np.linalg.norm(unblocked)


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


@pytest.mark.parametrize("solve", [spectral.lyapunov_solve, spectral.log_averaged_gram])
def test_solvers_refuse_mismatched_shapes(solve):
    with pytest.raises(InvalidParamsError, match="equal shape"):
        solve(np.eye(2), np.eye(3))


def test_invert_singular_raises_with_condition():
    with pytest.raises(SingularMatrixError) as exc:
        spectral.invert(np.array([[1.0, 1.0], [1.0, 1.0]]))
    assert exc.value.condition > spectral.INVERSION_COND_MAX or not np.isfinite(
        exc.value.condition
    )


def test_guarded_solve_refuses_on_its_lu_condition_estimate():
    # gecon's 1-norm estimate from the one LU, against INVERSION_COND_MAX = 1e13
    b = np.array([1.0, 1.0])
    assert np.array_equal(spectral.guarded_solve(np.diag([1.0, 1e-11]), b), [1.0, 1e11])
    with pytest.raises(SingularMatrixError) as exc:
        spectral.guarded_solve(np.diag([1.0, 1e-14]), b)
    assert exc.value.condition == pytest.approx(1e14)
    with pytest.raises(SingularMatrixError) as exc:  # a zero pivot
        spectral.guarded_solve(np.array([[1.0, 1.0], [1.0, 1.0]]), b)
    assert exc.value.condition == np.inf
    # order 0, which LAPACK refuses: the limit of a graph no urn of which is reinforced
    assert spectral.guarded_solve(np.zeros((0, 0)), np.zeros(0)).shape == (0,)


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
    h = drift_jacobian(alpha_plus_beta / 2, alpha_plus_beta / 2, g.weighted_adjacency())
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
    # vertices without out-edges give A~ a defective eigenvalue 0, at mu = 1/2
    # off the line: the eigenvectors of all of H have condition 2e14, while
    # the two critical modes' own are orthonormal
    "er64_sinks": lambda: _critical_graph_case(
        generate_graph("erdos_renyi_min_indegree", {"n": 64, "p": 4 / 64}, seed=996521834)
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


def _jordan_form_gram(j_blocks, q, gamma):
    """H = Q J Q^-1 and its Gram limit from J's exact eigenvectors: J is block
    diagonal in `j_blocks`, real modes x and pairs (x, w) as [[x, w], [-w, x]],
    whose eigenvectors (1, +-i) belong to x +- i w.  Only pairs of modes whose
    shifted eigenvalues cancel exactly survive the average."""
    n = len(q)
    j, z, lam = np.zeros((n, n)), np.zeros((n, n), complex), np.zeros(n, complex)
    i = 0
    for block in j_blocks:
        if np.ndim(block):
            x, w = block
            j[i:i + 2, i:i + 2] = [[x, w], [-w, x]]
            z[i:i + 2, i:i + 2] = [[1, 1], [1j, -1j]]
            lam[i:i + 2] = [x + 1j * w, x - 1j * w]
            i += 2
        else:
            j[i, i], z[i, i], lam[i] = block, 1.0, block
            i += 1
    q_inv = np.linalg.inv(q)
    x_h, w_h = q @ z, np.linalg.inv(z) @ q_inv  # H = X diag(lam) W
    mu = lam - 0.5
    surviving = mu[:, None] + mu[None, :] == 0
    sigma = (w_h.T @ ((x_h.T @ gamma @ x_h) * surviving) @ w_h).real
    return q @ j @ q_inv, 0.5 * (sigma + sigma.T)


@st.composite
def _critical_spectra(draw):
    """Blocks of J on and off the critical line, and a Q with cond(Q) <= 100."""
    blocks = [0.5] * draw(st.integers(0, 2))
    blocks += [(0.5, w) for w in draw(st.lists(st.sampled_from([0.3, 0.7, 1.3]), max_size=2))]
    if not blocks:
        blocks = [draw(st.sampled_from([0.5, (0.5, 0.7)]))]
    # a decaying mode inside the critical cluster, delta >= 1e-4 off the line:
    # sigma's conditioning grows like 1/delta, and at delta = 1e-5 a left and
    # right eig solve of all of H errs by up to 1.6e-8 as well
    blocks += draw(st.lists(st.floats(1e-4, 9e-4).map(lambda d: 0.5 + d), max_size=1))
    blocks += draw(st.lists(st.floats(0.6, 2.5), max_size=3))
    blocks += draw(st.lists(st.tuples(st.floats(0.6, 2.5), st.floats(0.1, 2.0)), max_size=1))
    n = sum(1 + bool(np.ndim(b)) for b in blocks)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    (u, _), (v, _) = (np.linalg.qr(rng.standard_normal((n, n))) for _ in range(2))
    singular = np.geomspace(1.0, draw(st.floats(1.0, 100.0)), n)
    x = rng.standard_normal((n, n))
    return blocks, (u * singular) @ v.T, x @ x.T


@settings(max_examples=150, deadline=None)
@given(_critical_spectra())
def test_log_averaged_gram_matches_jordan_form(spectrum):
    # complex critical pairs, resonant pairs sharing an omega and decaying
    # modes inside the cluster, which GRAM_CASES does not reach
    h, expected = _jordan_form_gram(*spectrum)
    out = spectral.log_averaged_gram(h, spectrum[2])
    assert np.linalg.norm(out - expected) <= 1e-8 * np.linalg.norm(expected)


def test_log_averaged_gram_directed_three_cycle():
    # a = b = 0: H = I + A~ has the critical pair 1/2 +- i sqrt(3)/2 on the
    # Fourier modes f1 and f2 = conj(f1) and the decaying mode 2, so
    # sigma = 2 Re f2 (f1^T Gamma f2) f2^H: (I - J/3) / 4 for fluctuations'
    # Gamma = A~^T A~ / 4 = I / 4
    a_tilde = generate_graph("cycle_directed", {"n": 3}).weighted_adjacency()
    h = np.eye(3) + a_tilde
    f = np.exp(2j * np.pi * np.outer(np.arange(3), [1, 2]) / 3) / np.sqrt(3)
    gamma = np.random.default_rng(3).standard_normal((3, 3))
    gamma = gamma @ gamma.T
    expected = 2 * (f[:, 1:] * (f[:, :1].T @ gamma @ f[:, 1:]) @ f[:, 1:].conj().T).real
    assert np.abs(spectral.log_averaged_gram(h, gamma) - expected).max() <= 1e-14
    fl = theory.fluctuations(0.0, 0.0, a_tilde)
    assert fl.regime == theory.REGIME_CRITICAL
    assert np.abs(fl.sigma - (np.eye(3) - 1 / 3) / 4).max() <= 1e-14


def test_log_averaged_gram_symmetric_needs_no_inverse(monkeypatch):
    # a diagonal R needs no reordering and no Sylvester solve, and only the
    # k x k critical block is diagonalised, inverted or judged
    sizes = {"reg12": 1, "two_K4": 2, "cycle6_bipartite": 1}
    cases = [(*GRAM_CASES[case](), k) for case, k in sizes.items()]
    calls = _factorisations(monkeypatch)

    def at_most_k(name):
        f = getattr(np.linalg, name)

        def wrapper(m, *args, **kwargs):
            assert np.shape(m)[0] <= k, f"{name} of a {np.shape(m)} matrix"
            return f(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, wrapper)

    def refused(*args, **kwargs):
        raise AssertionError("a symmetric form called LAPACK through scipy")

    for name in ("cond", "inv", "solve"):
        at_most_k(name)
    for name in ("dtrsen", "dtrsyl"):
        monkeypatch.setattr(scipy.linalg.lapack, name, refused)
    for h, gamma, k in cases:
        calls.clear()
        spectral.log_averaged_gram(h, gamma)
        assert calls == [("eigh", h.shape), ("eig", (k, k))]


def test_log_averaged_gram_directed_factors_once(monkeypatch):
    h, gamma = GRAM_CASES["er12"]()
    calls = _factorisations(monkeypatch)
    spectral.log_averaged_gram(h, gamma)
    assert calls == [("schur", h.shape), ("eig", (1, 1))]


@pytest.mark.parametrize(
    "routine,scale,info,error",
    [("dtrsyl", 0.5, 0, None), ("dtrsyl", 1.0, 1, SingularSylvesterError),
     ("dtrsen", 1.0, 1, SingularSylvesterError)],
)
def test_log_averaged_gram_honours_trsen_and_trsyl(monkeypatch, routine, scale, info, error):
    # trsyl returns Y with R11 Y - Y R22 = scale * C, and info 1 when it had
    # to perturb eigenvalues shared by both blocks; trsen returns info 1 when
    # swapping such eigenvalues would be too ill-conditioned to reorder
    h, gamma = GRAM_CASES["er12"]()
    expected = spectral.log_averaged_gram(h, gamma)
    real = getattr(scipy.linalg.lapack, routine)

    def patched(*args, **kwargs):
        *out, _ = real(*args, **kwargs)
        if routine == "dtrsyl":
            out = [scale * out[0], scale]
        return (*out, info)

    monkeypatch.setattr(scipy.linalg.lapack, routine, patched)
    if error:
        with pytest.raises(error):
            spectral.log_averaged_gram(h, gamma)
    else:
        out = spectral.log_averaged_gram(h, gamma)
        assert np.linalg.norm(out - expected) <= 1e-12 * np.linalg.norm(expected)


def test_log_averaged_gram_defective():
    h = np.array([[0.5, 1.0], [0.0, 0.5]])
    with pytest.raises(NonDiagonalizableError):
        spectral.log_averaged_gram(h, np.eye(2))


def test_log_averaged_gram_jordan_pair_on_the_line():
    # A~ of this 3-vertex graph has a Jordan block at -1/2, so a = b = 0
    # puts one in H = I + A~ at 1/2; rounding splits it to 1/2 +- 7.6e-9,
    # past the line's tolerance on both sides, with eigenvector condition 7.6e7
    g = DirectedGraph(3, frozenset({(1, 2), (1, 3), (2, 1), (2, 3), (3, 2)}))
    h = np.eye(3) + g.weighted_adjacency()
    with pytest.raises(NonDiagonalizableError, match="Jordan block"):
        spectral.log_averaged_gram(h, np.eye(3))
    # larger blocks at 1/2 split further, by up to 1.3e-5 (size 3) and
    # 3.7e-4 (size 4) in these draws, so modes below the line must not be
    # refused first
    for size in (3, 4):
        j = np.diag([0.5] * size + [1.0, 2.0]) + np.diag([1.0] * (size - 1) + [0.0, 0.0], 1)
        for seed in range(3):
            q = np.random.default_rng(seed).standard_normal((size + 2, size + 2))
            h = q @ j @ np.linalg.inv(q)
            with pytest.raises(NonDiagonalizableError, match="Jordan block"):
                spectral.log_averaged_gram(h, np.eye(size + 2))
