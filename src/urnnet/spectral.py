"""Dense linear algebra for the prediction engine.

Everything here operates on small dense matrices (target scale n <= 200):
full spectra of nonsymmetric real matrices, Lyapunov-type solves, guarded
inversion, and the log-averaged Gram integral that appears in the critical
fluctuation regime.  Each solve factors its matrix once, and symmetric
inputs (one shared test) take the symmetric eigensolver.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    EigenConvergenceError,
    InvalidParamsError,
    NonDiagonalizableError,
    NotCriticalRegimeError,
    SingularMatrixError,
    SingularSylvesterError,
)

#: eigenvalues within this distance of 1 count as the unit (Perron) value
UNIT_EIGENVALUE_TOL = 1e-9

#: eigenvector condition bound beyond which spectral solves are refused
DIAGONALIZABILITY_COND_MAX = 1e8

#: inversion is refused above this condition estimate
INVERSION_COND_MAX = 1e13


@dataclass(frozen=True)
class Spectrum:
    """Full eigenvalue multiset of a real matrix, ordered by descending
    real part (ties: smaller imaginary magnitude first)."""

    eigenvalues: np.ndarray

    @property
    def n(self) -> int:
        return len(self.eigenvalues)

    @property
    def min_real(self) -> float:
        return float(self.eigenvalues.real.min())

    @property
    def max_real(self) -> float:
        return float(self.eigenvalues.real.max())

    @property
    def second_max_real(self):
        """Largest real part after removing one copy of the unit eigenvalue.

        None when 1 is not an eigenvalue, or when nothing else remains.
        """
        lam = self.eigenvalues
        near_one = np.abs(lam - 1.0)
        if near_one.min() > UNIT_EIGENVALUE_TOL:
            return None
        rest = np.delete(lam, int(np.argmin(near_one)))
        if rest.size == 0:
            return None
        return float(rest.real.max())


def _is_symmetric(m: np.ndarray) -> bool:
    """The one symmetry test: symmetric inputs take the symmetric solvers."""
    return np.allclose(m, m.T, rtol=0.0, atol=1e-13)


def eigenvalues(m: np.ndarray) -> Spectrum:
    """Spectrum of a real square matrix.

    Symmetric inputs take the symmetric fast path; everything else goes
    through the general (Schur-based) solver and keeps complex conjugate
    pairs intact.
    """
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParamsError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidParamsError("matrix has non-finite entries")
    try:
        if _is_symmetric(m):
            lam = np.linalg.eigvalsh(m).astype(complex)
        else:
            lam = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    order = np.lexsort((np.abs(lam.imag), -lam.real))
    return Spectrum(eigenvalues=lam[order])


def lyapunov_solve(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve A^T S + S A = Q for symmetric Q.

    Solvable iff no two eigenvalues of A sum to zero (always true when all
    real parts are positive).  Bartels-Stewart, O(n^3): one real Schur form
    A^T = U R U^T (eigh's for a symmetric A, else schur's, defective or not)
    gives the eigenvalues for that check and, by LAPACK's trsyl, the X of
    R X + X R^T = U^T Q U; then S = U X U^T.
    """
    # scipy.linalg takes longer to import than the whole package; only the
    # callers of this function pay for it.
    from scipy.linalg import schur
    from scipy.linalg.lapack import dtrsyl

    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n) or q.shape != (n, n):
        raise InvalidParamsError("A and Q must be square with equal shape")

    if _is_symmetric(a):
        lam, u = np.linalg.eigh(a)
        r = np.diag(lam)
    else:
        r, u = schur(a.T, output="real")
        lam = np.diag(r).astype(complex)
        k = np.flatnonzero(np.diag(r, -1))  # 2x2 blocks [[x, b], [c, x]], bc < 0
        lam[k] += 1j * np.sqrt(-r[k, k + 1] * r[k + 1, k])
        lam[k + 1] = lam[k].conj()
    pair_sums = np.abs(lam[:, None] + lam[None, :])
    scale = max(1.0, float(np.abs(lam).max()))
    if pair_sums.min() <= 1e-12 * scale:
        raise SingularSylvesterError(
            f"eigenvalue pair sums reach {pair_sums.min():.3e}; equation is singular"
        )

    # trsyl solves R X + X R^T = scale * C, scaling down to avoid overflow
    x, trsyl_scale, info = dtrsyl(r, r, u.T @ q @ u, tranb="T")
    if info != 0:
        raise SingularSylvesterError(f"trsyl perturbed nearly cancelling eigenvalues (info {info})")
    s = u @ (x / trsyl_scale) @ u.T
    return 0.5 * (s + s.T)


def invert(m: np.ndarray) -> np.ndarray:
    """Inverse with a condition-number guard."""
    m = np.asarray(m, dtype=float)
    n = m.shape[0]
    if m.shape != (n, n):
        raise InvalidParamsError("expected a square matrix")
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > INVERSION_COND_MAX:
        raise SingularMatrixError(cond)
    return np.linalg.solve(m, np.eye(n))


def log_averaged_gram(h: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Limit of (1/L) * integral_0^L exp(-(H - I/2) u)^T Gamma exp(-(H - I/2) u) du.

    Requires H diagonalizable with all eigenvalue real parts >= 1/2 and at
    least one exactly on the critical line.  In the eigenbasis, only mode
    pairs whose shifted eigenvalues cancel survive the averaging (both on
    the critical line, conjugate imaginary parts); every other mode decays
    or oscillates to zero and is dropped.  The result is symmetric PSD when
    Gamma is.
    """
    h = np.asarray(h, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    n = h.shape[0]
    if h.shape != (n, n) or gamma.shape != (n, n):
        raise InvalidParamsError("H and Gamma must be square with equal shape")

    symmetric = _is_symmetric(h)
    try:
        # a symmetric H has orthonormal eigenvectors: condition 1, V^-1 = V^T
        lam, v = np.linalg.eigh(h) if symmetric else np.linalg.eig(h)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    cond = 1.0 if symmetric else float(np.linalg.cond(v))
    if not np.isfinite(cond) or cond > DIAGONALIZABILITY_COND_MAX:
        raise NonDiagonalizableError(
            f"eigenvector condition {cond:.3e}: H is numerically defective, and a "
            "Jordan block on Re = 1/2 changes the sqrt(t / log t) scaling by extra "
            "powers of log t, so the log-averaged Gram limit does not apply"
        )
    mu = lam - 0.5
    if np.any(mu.real < -UNIT_EIGENVALUE_TOL):
        raise InvalidParamsError("an eigenvalue of H has real part below 1/2")
    if np.abs(mu.real).min() > UNIT_EIGENVALUE_TOL:
        raise NotCriticalRegimeError("no eigenvalue of H on the critical line Re = 1/2")

    # a surviving pair has Re mu_i + Re mu_j <= tol with both >= -tol, so both
    # modes lie within 2 tol of the critical line: project onto those only
    k = np.flatnonzero(mu.real <= 2 * UNIT_EIGENVALUE_TOL)
    mu, v_k = mu[k], v[:, k]
    # rows k of V^-1 by one solve: more accurate than inv(V) near the condition limit
    w_k = v_k.T if symmetric else np.linalg.solve(v.T, np.eye(n)[:, k]).T
    surviving = np.abs(mu[:, None] + mu[None, :]) <= UNIT_EIGENVALUE_TOL
    g = v_k.T @ gamma @ v_k
    s = (w_k.T @ (g * surviving) @ w_k).real
    return 0.5 * (s + s.T)
