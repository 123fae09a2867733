"""Dense linear algebra for the prediction engine.

Everything here operates on small dense matrices (target scale n <= 200):
reusable real Schur forms of real matrices, the one factorisation that the
spectrum, the Lyapunov-type solve and the log-averaged Gram integral of the
critical fluctuation regime all read, and guarded solves.  Each takes a
matrix or its form, so a caller holding a form factors nothing again, and
symmetric inputs (one shared test) take the symmetric eigensolver.
`schur_form` remembers the last matrix it factored, its bytes and read-only
form (about 1 MB at n = 200), so rules that share a graph's W factor it once.
Every scipy LAPACK call holds both OpenBLAS libraries at one thread
(`dynamics.blas_threads(1)`), so no caller's thread count changes its bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import blas_threads
from .errors import (
    EigenConvergenceError,
    InvalidParamsError,
    NonDiagonalizableError,
    NotCriticalRegimeError,
    SingularMatrixError,
    SingularSylvesterError,
)

#: real parts within this distance of 1/2 lie on the critical line Re = 1/2
CRITICAL_LINE_TOL = 1e-9

#: modes of H this close to the critical line in real part form its critical
#: cluster, which holds every mode of a Jordan block there split by rounding
#: (~1e-8 for a pair, ~1e-5 for size 3 and up to ~4e-4 for size 4)
CRITICAL_CLUSTER_RADIUS = 1e-3

#: eigenvector condition bound of the critical cluster, about 4.5e6: beyond it
#: Bauer-Fike leaves its real parts uncertain by more than CRITICAL_LINE_TOL
DIAGONALIZABILITY_COND_MAX = CRITICAL_LINE_TOL / np.finfo(float).eps

#: a guarded solve is refused above this condition estimate
INVERSION_COND_MAX = 1e13

#: blocks up to this order are one trsyl call: LAPACK's NB (16-64 run alike at n = 200)
TRSYL_BLOCK = 32


def is_symmetric(m: np.ndarray) -> bool:
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


def eigenvalues(m: np.ndarray | SchurForm) -> np.ndarray:
    """Eigenvalues of m, or of its `schur_form`, by descending real part (ties:
    smaller imaginary magnitude first), complex with conjugate pairs intact."""
    lam = (m if isinstance(m, SchurForm) else schur_form(m)).eigenvalues
    return lam[np.lexsort((np.abs(lam.imag), -lam.real))]


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


#: the (shape, bytes) key and form of the last matrix factored, set in place
_last_form: list = [None]


def schur_form(m: np.ndarray) -> SchurForm:
    """One real Schur factorisation of m^T: eigh's for a matrix that passes
    the symmetry test, scipy's schur for every other, defective or not.
    The last matrix's bytes (-0.0 is not 0.0) and form, r and u read-only,
    are held: about 1 MB at n = 200.  The same bytes again return that form,
    the one a fresh factorisation gives."""
    m = square_matrix(m)
    key = (m.shape, m.tobytes())
    held = _last_form[0]
    if held is not None and held[0] == key:
        return held[1]
    try:
        if is_symmetric(m):
            lam, u = np.linalg.eigh(m)
            form = SchurForm(np.diag(lam), u, symmetric=True)
        else:
            # slower to import than the whole package; imported first so the cap holds its BLAS
            from scipy.linalg import schur

            with blas_threads(1):
                form = SchurForm(*schur(m.T, output="real"), symmetric=False)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(str(exc)) from exc
    form.r.flags.writeable = form.u.flags.writeable = False
    _last_form[0] = (key, form)
    return form


def _trsyl(a: np.ndarray, b: np.ndarray, c: np.ndarray, **kwargs) -> np.ndarray:
    """X with A X + isgn X op(B) = C by LAPACK's trsyl, which returns scale * X
    (scaled against overflow), refused when it perturbed cancelling eigenvalues."""
    from scipy.linalg.lapack import dtrsyl

    x, scale, info = dtrsyl(a, b, c, **kwargs)
    if info != 0:
        raise SingularSylvesterError(f"trsyl perturbed nearly cancelling eigenvalues (info {info})")
    return x / scale


def _triangular_lyapunov(r: np.ndarray, c: np.ndarray) -> np.ndarray:
    """X with R X + X R^T = C (symmetric) by halving quasi-triangular R outside its 2x2
    blocks (Jonsson and Kagstrom's recursive blocking): X22, X12 by one trsyl, X11."""
    n = len(r)
    if n <= TRSYL_BLOCK:
        return _trsyl(r, r, c, tranb="T")
    p = n // 2 + int(r[n // 2, n // 2 - 1] != 0)
    r11, r12, r22 = r[:p, :p], r[:p, p:], r[p:, p:]
    x22 = _triangular_lyapunov(r22, c[p:, p:])
    x12 = _trsyl(r11, r22, c[:p, p:] - r12 @ x22, tranb="T")
    x11 = _triangular_lyapunov(r11, c[:p, :p] - r12 @ x12.T - x12 @ r12.T)
    return np.block([[x11, x12], [x12.T, x22]])


def lyapunov_solve(a: np.ndarray | SchurForm, q: np.ndarray) -> np.ndarray:
    """Solve A^T S + S A = Q for symmetric Q, given A or its `schur_form`.

    Solvable iff no two eigenvalues of A sum to zero (always true when all
    real parts are positive).  Bartels-Stewart, O(n^3): with A^T = U R U^T,
    X = U^T S U solves R X + X R^T = U^T Q U, elementwise X_ij = C_ij /
    (mu_i + mu_j) when R is diagonal (symmetric A), else by halving R down
    to blocks of `TRSYL_BLOCK`, each one LAPACK trsyl call; then S = U X U^T.
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

    with blas_threads(1):  # a non-symmetric form is scipy's: its LAPACK is loaded
        c = form.u.T @ q @ form.u
        x = c / pair_sums.real if form.symmetric else _triangular_lyapunov(form.r, c)
        s = form.u @ x @ form.u.T
    return 0.5 * (s + s.T)


def guarded_solve(m: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with m x = b on one LU of m (LAPACK getrf, getrs), refused above
    INVERSION_COND_MAX of its 1-norm condition estimate (gecon; inf at a zero pivot)."""
    from scipy.linalg.lapack import dgecon, dgetrf, dgetrs

    m = square_matrix(m)
    if not m.size:  # LAPACK refuses order 0
        return np.asarray(b, dtype=float)
    with blas_threads(1):
        lu, piv, info = dgetrf(m)
        rcond = 0.0 if info else dgecon(lu, np.linalg.norm(m, 1))[0]
        cond = 1.0 / rcond if rcond > 0.0 else np.inf
        if cond > INVERSION_COND_MAX:
            raise SingularMatrixError(cond)
        return dgetrs(lu, piv, b)[0]


def invert(m: np.ndarray) -> np.ndarray:
    """Inverse by `guarded_solve`."""
    return guarded_solve(m, np.eye(len(m)))


def _cluster_to_top(form: SchurForm, cluster: np.ndarray) -> tuple:
    """R11, U1 and the rows [I, -Y] U^T of the form reordered with the
    `cluster` modes first, where R11 Y - Y R22 = -R12 decouples its blocks."""
    if form.symmetric:  # R is diagonal: a permutation, and Y = 0
        u1 = form.u[:, cluster]
        return form.r[np.ix_(cluster, cluster)], u1, u1.T
    from scipy.linalg.lapack import dtrsen

    with blas_threads(1):
        r, u, *_, k, _, _, info = dtrsen(cluster, form.r, form.u, job="N")
        if info != 0:
            raise SingularSylvesterError(f"critical modes not separable (trsen info {info})")
        y = _trsyl(r[:k, :k], r[k:, k:], -r[:k, k:], isgn=-1) if k < len(r) else np.zeros((k, 0))
    return r[:k, :k], u[:, :k], u[:, :k].T - y @ u[:, k:].T


def log_averaged_gram(h: np.ndarray | SchurForm, gamma: np.ndarray) -> np.ndarray:
    """Limit of (1/L) * integral_0^L exp(-(H - I/2) u)^T Gamma exp(-(H - I/2) u) du,
    given H or its `schur_form` H^T = U R U^T.

    Requires eigenvalue real parts >= 1/2, one at least on the critical line,
    and only the modes near it (the critical cluster) semisimple.  Only mode
    pairs whose shifted eigenvalues cancel survive the averaging (both on the
    line, conjugate imaginary parts), so only the cluster is diagonalised:
    moved to the top of R and decoupled, its block R11 = V M V^-1 gives H's
    eigenvectors X = U1 V and rows W = V^-1 [I, -Y] U^T, and sigma =
    X ((W Gamma W^T) * S) X^T keeps the surviving pairs S.  The result is
    symmetric PSD when Gamma is.
    """
    form = h if isinstance(h, SchurForm) else schur_form(h)
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != form.u.shape:
        raise InvalidParamsError("H and Gamma must be square with equal shape")

    mu = form.eigenvalues.real - 0.5
    cluster = np.abs(mu) <= CRITICAL_CLUSTER_RADIUS
    if cluster.any():
        # of H, not H - I/2: LAPACK can return parallel eigenvectors for modes at 0
        r11, u1, rows = _cluster_to_top(form, cluster)
        lam, v = np.linalg.eig(r11)
        cond = float(np.linalg.cond(v))
        if not np.isfinite(cond) or cond > DIAGONALIZABILITY_COND_MAX:
            raise NonDiagonalizableError(
                f"eigenvector condition {cond:.3e} of the modes at Re = 1/2: H has a "
                "Jordan block there, which changes the sqrt(t / log t) scaling by extra "
                "powers of log t, so the log-averaged Gram limit does not apply"
            )
    if np.any(mu < -CRITICAL_LINE_TOL):
        raise InvalidParamsError("an eigenvalue of H has real part below 1/2")
    if np.abs(mu).min() > CRITICAL_LINE_TOL:
        raise NotCriticalRegimeError("no eigenvalue of H on the critical line Re = 1/2")

    # a surviving pair has |Re mu_i + Re mu_j| <= tol with both >= -tol: both
    # lie in the cluster, whose other modes the mask drops
    mu = lam - 0.5
    surviving = np.abs(mu[:, None] + mu[None, :]) <= CRITICAL_LINE_TOL
    x, w = u1 @ v, np.linalg.solve(v, rows)
    s = (x @ ((w @ gamma @ w.T) * surviving) @ x.T).real
    return 0.5 * (s + s.T)
