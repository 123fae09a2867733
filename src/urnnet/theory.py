"""Closed-form predictions for the urn process.

All results are stated for normalized reinforcement parameters
alpha = a/m and beta = b/m in [0, 1].  The drift of the fraction process is

    h(z) = (alpha z + (1 - beta)(1 - z)) A~ - z

with A~ the column-stochastic weighted adjacency (row-vector convention:
z multiplies from the left).  Away from the identity-type rule
(alpha = beta = 1) every urn converges to the consensus value
c = (1 - beta) / (2 - alpha - beta), and fluctuations around it scale by
the regime parameter rho, the smallest eigenvalue real part of
H = I - (alpha + beta - 1) A~.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import spectral
from .dynamics import HeterogeneousScheme, Reinforcement
from .errors import (
    InvalidParamsError,
    NotRegularError,
    PolyaTypeError,
    SingularLimitSystemError,
)
from .graph import DirectedGraph

REGIME_POLYA = "polya"
REGIME_SQRT_T = "gaussian_sqrt_t"
REGIME_CRITICAL = "gaussian_sqrt_tlogt"
REGIME_SUBCRITICAL = "subcritical_t_rho"

RATE_T_INV = "t_inv"
RATE_LOGT_OVER_T = "logt_over_t"
RATE_T_POW = "t_pow"

#: |rho - 1/2| at or below this counts as the critical regime
CRITICAL_RHO_TOL = 1e-9

_POLYA_PARAM_TOL = 1e-12


def is_polya_params(alpha: float, beta: float) -> bool:
    return abs(alpha - 1.0) <= _POLYA_PARAM_TOL and abs(beta - 1.0) <= _POLYA_PARAM_TOL


def _check_params(alpha: float, beta: float):
    if not (0.0 <= alpha <= 1.0 and 0.0 <= beta <= 1.0):
        raise InvalidParamsError("alpha and beta must lie in [0, 1]")


def drift(z: np.ndarray, a_tilde: np.ndarray, alpha: float, beta: float) -> np.ndarray:
    """Mean displacement field of the fraction process (row convention)."""
    z = np.asarray(z, dtype=float)
    return (alpha * z + (1.0 - beta) * (1.0 - z)) @ a_tilde - z


def consensus_equilibrium(alpha: float, beta: float) -> float:
    """Common limit fraction c = (1 - beta) / (2 - alpha - beta)."""
    _check_params(alpha, beta)
    if is_polya_params(alpha, beta):
        raise PolyaTypeError("no deterministic consensus for alpha = beta = 1")
    return (1.0 - beta) / (2.0 - alpha - beta)


def noise_variance_c(alpha: float, beta: float) -> float:
    """Per-urn reinforcement noise variance at equilibrium.

    Variance of the normalized white-ball payout, which takes value alpha
    with probability c and 1 - beta otherwise; always in [0, 1/4].
    """
    c = consensus_equilibrium(alpha, beta)
    mean_sq = alpha**2 * c + (1.0 - beta) ** 2 * (1.0 - c)
    mean = alpha * c + (1.0 - beta) * (1.0 - c)
    return mean_sq - mean**2


def drift_matrix(alpha: float, beta: float, a_tilde: np.ndarray) -> np.ndarray:
    """H = I - (alpha + beta - 1) A~, the negated drift Jacobian."""
    n = a_tilde.shape[0]
    return np.eye(n) - (alpha + beta - 1.0) * np.asarray(a_tilde, dtype=float)


class Fluctuations(NamedTuple):
    """Consensus value c, regime parameter rho, the regime rho selects, and
    the asymptotic covariance sigma of s(t) (Z_t - c 1): s(t) = sqrt(t) above
    1/2, sqrt(t / log t) at 1/2 (sigma then the log-averaged Gram limit) and
    t^rho below, where no Gaussian limit applies.  sigma is None below 1/2
    and outside the regime a caller of `fluctuations` asked for."""

    c: float
    rho: float
    regime: str
    sigma: np.ndarray | None


def fluctuations(
    alpha: float, beta: float, a_tilde: np.ndarray, regime: str | None = None
) -> Fluctuations:
    """Classify the fluctuation regime of a non-Polya rule and solve for its
    covariance, factoring A~ (nonnegative, column-stochastic) at most once,
    except at rho = 1/2 with alpha + beta < 1, where the Gram limit factors H.

    rho, the smallest eigenvalue real part of H = I - (alpha+beta-1) A~, is
    2 - alpha - beta for alpha + beta >= 1, where the Perron value 1 of A~
    binds; otherwise it comes from one real Schur form of A~^T, which the
    sqrt(t) solve reuses.  Above 1/2, sigma is C(alpha, beta) times the
    solution S of (H - I/2)^T S + S (H - I/2) = A~^T A~; at 1/2 (within
    CRITICAL_RHO_TOL) it is C(alpha, beta) times the log-averaged Gram
    limit, which for an undirected d-regular graph on N vertices is the
    all-ones matrix over N.  With `regime`, sigma is solved only when rho
    falls in that regime and is None otherwise, so a caller that needs one
    regime runs no other solver and cannot be refused by one.
    """
    c = consensus_equilibrium(alpha, beta)
    a_tilde = spectral.square_matrix(a_tilde)
    if not (a_tilde.size and a_tilde.min() >= 0.0 and np.abs(a_tilde.sum(0) - 1.0).max() <= 1e-12):
        raise InvalidParamsError("A~ must be nonnegative and column-stochastic")
    k = alpha + beta - 1.0
    form = None if k >= 0.0 else spectral.schur_form(a_tilde)
    rho = float(2.0 - alpha - beta if form is None else 1.0 - k * form.eigenvalues.real.min())
    if abs(rho - 0.5) <= CRITICAL_RHO_TOL:
        found = REGIME_CRITICAL
    else:
        found = REGIME_SQRT_T if rho > 0.5 else REGIME_SUBCRITICAL
    if found == REGIME_SUBCRITICAL or regime not in (None, found):
        return Fluctuations(c, rho, found, None)
    gamma = a_tilde.T @ a_tilde
    if found == REGIME_SQRT_T:
        # (H - I/2)^T = U (I/2 - k R) U^T, from the one form of A~^T
        form = spectral.schur_form(a_tilde) if form is None else form
        s = spectral.lyapunov_solve(form.shifted(0.5, -k), gamma)
    else:
        s = spectral.log_averaged_gram(drift_matrix(alpha, beta, a_tilde), gamma)
    return Fluctuations(c, rho, found, noise_variance_c(alpha, beta) * s)


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


def polya_rate_class(a_tilde: np.ndarray) -> RateClass:
    a_tilde = spectral.square_matrix(a_tilde)
    if not np.allclose(a_tilde, a_tilde.T, atol=1e-12):
        raise NotRegularError("weighted adjacency is not symmetric")
    # symmetric, so its row sums are its column sums
    if not np.allclose(a_tilde.sum(axis=0), 1.0, atol=1e-9):
        raise NotRegularError("weighted adjacency is not doubly stochastic")
    lam2 = spectral.eigenvalues(a_tilde).second_max_real
    if lam2 is None:
        raise NotRegularError("rate class needs at least two vertices")
    if abs(lam2 - 0.5) <= CRITICAL_RHO_TOL:
        return RateClass(kind=RATE_LOGT_OVER_T, exponent=-1.0, lambda2=lam2)
    if lam2 < 0.5:
        return RateClass(kind=RATE_T_INV, exponent=-1.0, lambda2=lam2)
    return RateClass(kind=RATE_T_POW, exponent=2.0 * lam2 - 2.0, lambda2=lam2)


def heterogeneous_limit(
    g: DirectedGraph,
    scheme: HeterogeneousScheme,
    frozen_fractions=None,
) -> np.ndarray:
    """Almost-sure limit fractions under per-vertex replacement matrices.

    Solves the fixed point of z = (z C + (m - b)) A Mhat^(-1) where C holds
    c_i = a_i + b_i - m_i and Mhat the per-vertex inflow totals.  Vertices
    without incoming edges are never reinforced and keep their starting
    fraction forever; supply those values via `frozen_fractions` (indexed
    per vertex, only the unreinforced entries are read).  When every vertex
    is reinforced and all matrices equal a common non-identity rule, the
    result reduces to the consensus value on every coordinate.
    """
    n = g.n
    rf = Reinforcement.of(g, scheme)
    reinforced = rf.inflow > 0

    if not reinforced.all():
        if frozen_fractions is None:
            raise InvalidParamsError(
                "graph has unreinforced vertices; pass frozen_fractions for them"
            )
        frozen_fractions = np.asarray(frozen_fractions, dtype=float)
        if frozen_fractions.shape != (n,):
            raise InvalidParamsError("frozen_fractions must have one entry per vertex")

    # an unreinforced column has no payouts, so any positive divisor works
    m_hat = np.maximum(rf.inflow, 1)
    cp = (rf.on_white - rf.on_black) / m_hat
    intercept = rf.on_black.sum(axis=0) / m_hat

    z = np.zeros(n)
    idx = np.flatnonzero(reinforced)
    if idx.size:
        rhs = intercept[idx]
        if not reinforced.all():
            frozen_idx = np.flatnonzero(~reinforced)
            z[frozen_idx] = frozen_fractions[frozen_idx]
            rhs = rhs + z[frozen_idx] @ cp[np.ix_(frozen_idx, idx)]
        system = np.eye(idx.size) - cp[np.ix_(idx, idx)]
        cond = np.linalg.cond(system)
        if not np.isfinite(cond) or cond > spectral.INVERSION_COND_MAX:
            raise SingularLimitSystemError(
                f"limit system is singular (condition estimate {cond:.3e})"
            )
        z[idx] = np.linalg.solve(system.T, rhs)
    return z


def influence_threshold(d: int, a: float, r: float, target: float):
    """Smallest group-1 size d1 with (a d1 + r (d - d1)) / d >= target.

    Exact rational comparisons on the affine formula.  Returns None when
    even d1 = d falls short.
    """
    if d < 1:
        raise InvalidParamsError("d must be >= 1")
    for name, value in (("a", a), ("r", r), ("target", target)):
        if not (0.0 <= value <= 1.0):
            raise InvalidParamsError(f"{name} must lie in [0, 1]")
    fa, fr, ft = Fraction(a), Fraction(r), Fraction(target)
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
        out = {
            "regime": self.regime,
            "n": self.n,
            "alpha": self.alpha,
            "beta": self.beta,
            "rho": self.rho,
            "equilibrium": None if self.equilibrium is None else list(map(float, self.equilibrium)),
            "noise_var_C": self.noise_var_c,
            "sigma": None if self.sigma is None else [list(map(float, row)) for row in self.sigma],
            "rate_class": None
            if self.rate_class is None
            else {
                "kind": self.rate_class.kind,
                "exponent": self.rate_class.exponent,
                "lambda2": self.rate_class.lambda2,
            },
            "notes": list(self.notes),
        }
        return out


def predict(g: DirectedGraph, alpha: float, beta: float) -> TheoryReport:
    """All predictions for a homogeneous rule on a fully reinforced graph."""
    _check_params(alpha, beta)
    a_tilde = g.weighted_adjacency()

    if is_polya_params(alpha, beta):
        notes = ()
        rate = None
        try:
            rate = polya_rate_class(a_tilde)
        except NotRegularError as exc:
            notes = (f"variance decay class unavailable: {exc}",)
        return TheoryReport(
            regime=REGIME_POLYA, n=g.n, alpha=alpha, beta=beta, rate_class=rate, notes=notes
        )

    fl = fluctuations(alpha, beta, a_tilde)
    return TheoryReport(
        regime=fl.regime,
        n=g.n,
        alpha=alpha,
        beta=beta,
        rho=fl.rho,
        equilibrium=np.full(g.n, fl.c),
        noise_var_c=noise_variance_c(alpha, beta),
        sigma=fl.sigma,
    )
