"""Closed-form predictions for the urn process.

All results are stated for normalized reinforcement parameters
alpha = a/m and beta = b/m in [0, 1], one pair for all vertices or one per
vertex.  With W[j, i] vertex j's share of urn i's inflow (A~, the
column-stochastic weighted adjacency, when m is common) the mean drift is

    h(z) = z B + (1 - beta) W - z,    B = diag(alpha + beta - 1) W

(row convention: z multiplies from the left).  Its limit and fluctuations
follow from H = I - B; rho, the smallest eigenvalue real part of H, sets
the regime.  One common rule sends every urn to the consensus value
c = (1 - beta) / (2 - alpha - beta) unless H is singular: at the identity
rule alpha = beta = 1, and at a = b = 0 where A~ has the eigenvalue -1 (a
bipartite graph).  The limit is random there, and every solve refuses.

`fluctuations`, `polya_rate_class` and `heterogeneous_limit` (which loads
scipy's LAPACK on its first call) hold numpy's and scipy's OpenBLAS at one
thread (`dynamics.blas_threads(1)`), faster at n <= 200 on 2 cores.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import spectral
from .dynamics import blas_threads, normalised_rule
from .errors import InvalidParamsError, NotRegularError, SingularLimitSystemError, SingularMatrixError
from .graph import DirectedGraph

REGIME_POLYA = "polya"
REGIME_SQRT_T = "gaussian_sqrt_t"
REGIME_CRITICAL = "gaussian_sqrt_tlogt"
REGIME_SUBCRITICAL = "subcritical_t_rho"

RATE_T_INV = "t_inv"
RATE_LOGT_OVER_T = "logt_over_t"
RATE_T_POW = "t_pow"

#: rho at or below this makes H singular: the reciprocal of the condition
#: bound above which the limit solve refuses
SINGULAR_RHO_TOL = 1.0 / spectral.INVERSION_COND_MAX


def _check_params(alpha, beta):
    if not all(np.all((0.0 <= x) & (x <= 1.0)) for x in map(np.asarray, (alpha, beta))):
        raise InvalidParamsError("alpha and beta must lie in [0, 1]")


def _nonsingular(rho: float) -> float:
    """rho, unless H is singular at it: rho <= SINGULAR_RHO_TOL raises
    `SingularLimitSystemError`, the one refusal of a rule with no unique limit."""
    if rho <= SINGULAR_RHO_TOL:
        raise SingularLimitSystemError(f"H = I - B is singular (rho = {rho:.3e}): no unique limit")
    return rho


def consensus_equilibrium(alpha: float, beta: float) -> float:
    """Common limit fraction c = (1 - beta) / (2 - alpha - beta).  Its
    denominator is rho for alpha + beta >= 1, so a Polya-type rule
    (alpha = beta = 1) is refused as a singular H.  Both terms of
    (1 - alpha) + (1 - beta) are exact, so rho keeps its digits near 1."""
    _check_params(alpha, beta)
    return (1.0 - beta) / _nonsingular((1.0 - alpha) + (1.0 - beta))


def noise_variance_c(alpha: float, beta: float) -> float:
    """Per-urn reinforcement noise variance at equilibrium: the variance
    c (1 - c) (alpha + beta - 1)^2 of the normalized white-ball payout,
    alpha with probability c and 1 - beta otherwise; in [0, 1/4]."""
    c = consensus_equilibrium(alpha, beta)
    return c * (1.0 - c) * (alpha + beta - 1.0) ** 2


def _linearisation(alpha, beta, w: np.ndarray) -> tuple:
    """B = diag(alpha + beta - 1) W and q = (1 - beta) W: the mean drift is
    z B + q - z.  Float alpha and beta hold for every vertex."""
    col = np.reshape(np.add(alpha, beta) - 1.0, (-1, 1))
    return col * w, (np.reshape(1.0 - np.asarray(beta), (-1, 1)) * w).sum(axis=0)


def _solve_limit(b: np.ndarray, q: np.ndarray, z: np.ndarray, free: np.ndarray) -> np.ndarray:
    """z with its `free` entries set to the fixed point of z = z B + q."""
    idx, held = np.flatnonzero(free), np.flatnonzero(~free)
    system = np.eye(idx.size) - b[np.ix_(idx, idx)]
    try:
        z[idx] = spectral.guarded_solve(system.T, q[idx] + z[held] @ b[np.ix_(held, idx)])
    except SingularMatrixError as exc:
        raise SingularLimitSystemError(f"the limit system's {exc}") from exc
    return z


class Fluctuations(NamedTuple):
    """Limit c (a float for one common rule, else one entry per vertex),
    regime parameter rho, the regime rho selects, and the asymptotic
    covariance sigma of s(t) (Z_t - c): s(t) = sqrt(t) above 1/2,
    sqrt(t / log t) at 1/2 (sigma then the log-averaged Gram limit) and
    t^rho below, where no Gaussian limit applies.  sigma is None below 1/2
    and outside the regime a caller of `fluctuations` asked for."""

    c: float | np.ndarray
    rho: float
    regime: str
    sigma: np.ndarray | None


@blas_threads(1)
def fluctuations(alpha, beta, w: np.ndarray, regime: str | None = None) -> Fluctuations:
    """The one linear-response solve: limit, regime and covariance of a
    rule given as floats alpha, beta or as per-vertex arrays.

    W is the nonnegative, column-stochastic matrix of
    `dynamics.normalised_rule` (A~ for a common m).  The limit is c's closed
    form for floats, else the fixed point z* of z = z B + (1 - beta) W.  rho
    is 2 - alpha - beta when k = alpha + beta - 1 is common and >= 0, as the
    Perron value 1 of W binds; otherwise it comes from one real Schur form,
    W's scaled when k is common (B = k W) and B's if not, which both sigma
    solves reuse.  rho <= SINGULAR_RHO_TOL, a Polya-type rule among others,
    raises `SingularLimitSystemError` before any limit is solved.
    With Gamma = B^T diag(z*(1 - z*)) B, sigma solves (H - I/2)^T S +
    S (H - I/2) = Gamma above 1/2, and is the log-averaged Gram limit at
    1/2 (within `spectral.CRITICAL_LINE_TOL`); each reads the one form, so
    a call factors at most once.  With `regime`, sigma is solved only
    when rho falls in that regime, so no other solver runs and none can
    refuse.
    """
    w = spectral.square_matrix(w)
    if not (w.size and w.min() >= 0.0 and np.abs(w.sum(0) - 1.0).max() <= 1e-12):
        raise InvalidParamsError("W must be nonnegative and column-stochastic")
    per_vertex = np.ndim(alpha) or np.ndim(beta)
    if per_vertex and (np.shape(alpha), np.shape(beta)) != (w.shape[:1],) * 2:
        raise InvalidParamsError("per-vertex alpha and beta need one entry per vertex")
    _check_params(alpha, beta)
    b, q = _linearisation(alpha, beta, w)
    k = np.add(alpha, beta) - 1.0
    common = k.min() == k.max()  # then B = k W, whose Schur form is W's, scaled

    def schur_b():
        return spectral.schur_form(w).shifted(0.0, k.max()) if common else spectral.schur_form(b)

    form = None if common and k.max() >= 0.0 else schur_b()
    rho = float(np.min((1.0 - alpha) + (1.0 - beta)) if form is None
                else 1.0 - form.eigenvalues.real.max())
    _nonsingular(rho)
    if per_vertex:
        c = _solve_limit(b, q, np.zeros(len(w)), w.any(axis=0))
    else:  # a Polya-type rule never gets here: its H is singular
        c = consensus_equilibrium(alpha, beta)
    if abs(rho - 0.5) <= spectral.CRITICAL_LINE_TOL:
        found = REGIME_CRITICAL
    else:
        found = REGIME_SQRT_T if rho > 0.5 else REGIME_SUBCRITICAL
    if found == REGIME_SUBCRITICAL or regime not in (None, found):
        return Fluctuations(c, rho, found, None)
    gamma = b.T @ (np.reshape(c * (1.0 - c), (-1, 1)) * b)
    # H^T = U (I - R) U^T, (H - I/2)^T = U (I/2 - R) U^T: the one form of B^T
    form = schur_b() if form is None else form
    if found == REGIME_SQRT_T:
        return Fluctuations(c, rho, found, spectral.lyapunov_solve(form.shifted(0.5, -1.0), gamma))
    return Fluctuations(c, rho, found, spectral.log_averaged_gram(form.shifted(1.0, -1.0), gamma))


def clt_covariance_regular_closed_form(
    alpha: float, beta: float, a_tilde: np.ndarray
) -> np.ndarray:
    """Closed form C(a,b) A~^2 (I - 2(alpha+beta-1) A~)^(-1), valid for
    symmetric A~ (undirected regular graphs)."""
    a_tilde = np.asarray(a_tilde, dtype=float)
    n = a_tilde.shape[0]
    k = alpha + beta - 1.0
    inv = spectral.invert(np.eye(n) - 2.0 * k * a_tilde)
    return noise_variance_c(alpha, beta) * (a_tilde @ a_tilde) @ inv


@dataclass(frozen=True)
class RateClass:
    """Decay class of Var(Z_t - mean(Z_t) 1) under identity-type reinforcement.

    The decay is governed by the largest eigenvalue of A~ other than the
    Perron value 1 (the slowest surviving mode): below 1/2 every mode decays
    like 1/t, at 1/2 a log factor appears, above 1/2 the rate is the power
    2*lambda2 - 2.
    """

    kind: str
    exponent: float
    lambda2: float


@blas_threads(1)
def polya_rate_class(a_tilde: np.ndarray) -> RateClass:
    """Rate class of a symmetric, doubly stochastic A~ from its one Schur form,
    eigh's, factored after every refusal: lambda2 is its second real eigenvalue."""
    a_tilde = spectral.square_matrix(a_tilde)
    if not spectral.is_symmetric(a_tilde):
        raise NotRegularError("weighted adjacency is not symmetric")
    # symmetric, so its row sums are its column sums
    if not np.allclose(np.sum(a_tilde, axis=0), 1.0, atol=1e-9):
        raise NotRegularError("weighted adjacency is not doubly stochastic")
    if len(a_tilde) < 2:
        raise NotRegularError("rate class needs at least two vertices")
    lam2 = float(spectral.eigenvalues(a_tilde)[1].real)
    if abs(lam2 - 0.5) <= spectral.CRITICAL_LINE_TOL:
        return RateClass(kind=RATE_LOGT_OVER_T, exponent=-1.0, lambda2=lam2)
    if lam2 < 0.5:
        return RateClass(kind=RATE_T_INV, exponent=-1.0, lambda2=lam2)
    return RateClass(kind=RATE_T_POW, exponent=2.0 * lam2 - 2.0, lambda2=lam2)


@blas_threads(1)
def heterogeneous_limit(g: DirectedGraph, scheme, frozen_fractions=None) -> np.ndarray:
    """Almost-sure limit fractions under one replacement matrix per vertex
    or one for all: the fixed point z* of `fluctuations`.

    Vertices without incoming edges are never reinforced and keep their
    starting fraction forever; supply those values via `frozen_fractions`
    (indexed per vertex, only the unreinforced entries are read).
    """
    alpha, beta, w = normalised_rule(g, scheme)
    reinforced = w.any(axis=0)
    if not reinforced.all() and frozen_fractions is None:
        raise InvalidParamsError(
            "graph has unreinforced vertices; pass frozen_fractions for them"
        )
    # the solve overwrites the reinforced entries
    z = np.zeros(g.n) if reinforced.all() else np.array(frozen_fractions, dtype=float)
    if z.shape != (g.n,):
        raise InvalidParamsError("frozen_fractions must have one entry per vertex")
    return _solve_limit(*_linearisation(alpha, beta, w), z, reinforced)


def influence_threshold(d: int, a: float, r: float, target: float):
    """Smallest group-1 size d1 with (a d1 + r (d - d1)) / d >= target.

    Exact rational comparisons on the affine formula, a float read as the
    decimal it prints as (0.55 is 11/20).  None when even d1 = d falls short.
    """
    if d < 1:
        raise InvalidParamsError("d must be >= 1")
    for name, value in (("a", a), ("r", r), ("target", target)):
        if not (0.0 <= value <= 1.0):
            raise InvalidParamsError(f"{name} must lie in [0, 1]")
    fa, fr, ft = (Fraction(repr(float(x))) if isinstance(x, float) else Fraction(x)
                  for x in (a, r, target))
    for d1 in range(d + 1):
        if fa * d1 + fr * (d - d1) >= ft * d:
            return d1
    return None


@dataclass
class TheoryReport:
    """Bundle of every closed-form prediction that applies to one setup."""

    regime: str
    n: int
    alpha: float
    beta: float
    rho: float | None = None
    equilibrium: np.ndarray | None = None
    noise_var_c: float | None = None
    sigma: np.ndarray | None = None
    rate_class: RateClass | None = None
    notes: tuple = ()

    def to_dict(self) -> dict:
        """The fields, arrays as nested lists; noise_var_c is written noise_var_C."""
        out = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in asdict(self).items()}
        out["noise_var_C"] = out.pop("noise_var_c")
        return out


def predict(g: DirectedGraph, alpha: float, beta: float) -> TheoryReport:
    """All predictions for a homogeneous rule on a fully reinforced graph.
    A rule whose closed-form rho = 2 - alpha - beta makes H singular, the
    Polya-type alpha = beta = 1, gets its variance decay class instead."""
    try:
        noise = noise_variance_c(alpha, beta)
    except SingularLimitSystemError:
        noise = None
    a_tilde = g.weighted_adjacency()

    if noise is None:
        notes, rate = (), None
        try:
            rate = polya_rate_class(a_tilde)
        except NotRegularError as exc:
            notes = (f"variance decay class unavailable: {exc}",)
        return TheoryReport(
            regime=REGIME_POLYA, n=g.n, alpha=alpha, beta=beta, rate_class=rate, notes=notes
        )

    fl = fluctuations(alpha, beta, a_tilde)
    return TheoryReport(
        regime=fl.regime, n=g.n, alpha=alpha, beta=beta, rho=fl.rho,
        equilibrium=np.full(g.n, fl.c), noise_var_c=noise, sigma=fl.sigma,
    )
