"""Dense linear algebra for the prediction engine.

Everything here operates on small dense matrices (target scale n <= 200):
full spectra and reusable real Schur forms of real matrices, Lyapunov-type
solves, guarded inversion, and the log-averaged Gram integral that appears
in the critical fluctuation regime.  Each solve factors its matrix once, and
symmetric inputs (one shared test) take the symmetric eigensolver.
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


def square_matrix(m) -> np.ndarray:
    """m as a float array, refused unless square with finite entries."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParamsError(f"expected a square matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidParamsError("matrix has non-finite entries")
    return m


def eigenvalues(m: np.ndarray) -> Spectrum:
    """Spectrum of a real square matrix.

    Symmetric inputs take the symmetric fast path; everything else goes
    through the general (Schur-based) solver and keeps complex conjugate
    pairs intact.
    """
    m = square_matrix(m)
    try:
        if _is_symmetric(m):
            lam = np.linalg.eigvalsh(m).astype(complex)
        else:
            lam = np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    order = np.lexsort((np.abs(lam.imag), -lam.real))
    return Spectrum(eigenvalues=lam[order])


@dataclass(frozen=True)
class SchurForm:
    """Real Schur form m^T = U R U^T: R is quasi-triangular, with each complex
    pair x +- i sqrt(-bc) in a standardised 2x2 block [[x, b], [c, x]]; from
    eigh (m symmetric) R is diagonal."""

    r: np.ndarray
    u: np.ndarray
    symmetric: bool

    @property
    def eigenvalues(self) -> np.ndarray:
        r = self.r
        lam = np.diag(r).astype(complex)
        k = np.flatnonzero(np.diag(r, -1))
        lam[k] += 1j * np.sqrt(-r[k, k + 1] * r[k + 1, k])
        lam[k + 1] = lam[k].conj()
        return lam

    def shifted(self, c0: float, c1: float) -> SchurForm:
        """The form of c0 I + c1 m, from the same U; blocks stay standardised."""
        r = c1 * self.r + c0 * np.eye(len(self.r))
        return SchurForm(r, self.u, self.symmetric)


def schur_form(m: np.ndarray) -> SchurForm:
    """One real Schur factorisation of m^T: eigh's for a matrix that passes
    the symmetry test, scipy's schur for every other, defective or not."""
    m = square_matrix(m)
    try:
        if _is_symmetric(m):
            lam, u = np.linalg.eigh(m)
            return SchurForm(np.diag(lam), u, symmetric=True)
        # scipy.linalg takes longer to import than the whole package
        from scipy.linalg import schur

        return SchurForm(*schur(m.T, output="real"), symmetric=False)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc


def lyapunov_solve(a: np.ndarray | SchurForm, q: np.ndarray) -> np.ndarray:
    """Solve A^T S + S A = Q for symmetric Q, given A or its `schur_form`.

    Solvable iff no two eigenvalues of A sum to zero (always true when all
    real parts are positive).  Bartels-Stewart, O(n^3): with A^T = U R U^T,
    X = U^T S U solves R X + X R^T = U^T Q U, elementwise X_ij = C_ij /
    (mu_i + mu_j) when R is diagonal (symmetric A), else by LAPACK's trsyl;
    then S = U X U^T.
    """
    form = a if isinstance(a, SchurForm) else schur_form(a)
    q = np.asarray(q, dtype=float)
    if q.shape != form.u.shape:
        raise InvalidParamsError("A and Q must be square with equal shape")
    lam = form.eigenvalues
    pair_sums = lam[:, None] + lam[None, :]
    smallest = np.abs(pair_sums).min()
    if smallest <= 1e-12 * max(1.0, np.abs(lam).max()):
        raise SingularSylvesterError(
            f"eigenvalue pair sums reach {smallest:.3e}; equation is singular"
        )

    c = form.u.T @ q @ form.u
    if form.symmetric:
        x = c / pair_sums.real
    else:
        from scipy.linalg.lapack import dtrsyl

        # trsyl solves R X + X R^T = scale * C, scaling down to avoid overflow
        x, scale, info = dtrsyl(form.r, form.r, c, tranb="T")
        if info != 0:
            raise SingularSylvesterError(
                f"trsyl perturbed nearly cancelling eigenvalues (info {info})"
            )
        x /= scale
    s = form.u @ x @ form.u.T
    return 0.5 * (s + s.T)


def invert(m: np.ndarray) -> np.ndarray:
    """Inverse with a condition-number guard."""
    m = square_matrix(m)
    cond = np.linalg.cond(m)
    if not np.isfinite(cond) or cond > INVERSION_COND_MAX:
        raise SingularMatrixError(cond)
    return np.linalg.solve(m, np.eye(len(m)))


def log_averaged_gram(h: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Limit of (1/L) * integral_0^L exp(-(H - I/2) u)^T Gamma exp(-(H - I/2) u) du.

    Requires H diagonalizable with all eigenvalue real parts >= 1/2 and at
    least one exactly on the critical line.  In the eigenbasis, only mode
    pairs whose shifted eigenvalues cancel survive the averaging (both on
    the critical line, conjugate imaginary parts); every other mode decays
    or oscillates to zero and is dropped.  The result is symmetric PSD when
    Gamma is.
    """
    h, gamma = square_matrix(h), np.asarray(gamma, dtype=float)
    if gamma.shape != h.shape:
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
    w_k = v_k.T if symmetric else np.linalg.solve(v.T, np.eye(len(h))[:, k]).T
    surviving = np.abs(mu[:, None] + mu[None, :]) <= UNIT_EIGENVALUE_TOL
    g = v_k.T @ gamma @ v_k
    s = (w_k.T @ (g * surviving) @ w_k).real
    return 0.5 * (s + s.T)
