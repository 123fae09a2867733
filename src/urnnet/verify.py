"""Named verification suites: desk-scale statistical reproductions of the
limit theory, plus exact oracle comparisons.

Each suite returns a JSON-ready report dict with a boolean "pass" and the
statistics behind it.  Thresholds default to the documented acceptance
values; callers may widen or tighten them.
"""

from __future__ import annotations

import time
from fractions import Fraction

import numpy as np

from . import montecarlo, theory
from .dynamics import (
    HeterogeneousScheme,
    ReplacementMatrix,
    UrnState,
    default_initial_state,
    expected_fractions_after_step,
    mean_field_path,
    simulate_runs,
)
from .graph import DirectedGraph, generate_graph
from .montecarlo import run_ensemble


def _frobenius_rel_error(estimate: np.ndarray, target: np.ndarray) -> float:
    denom = np.linalg.norm(target)
    if denom == 0.0:
        return float(np.linalg.norm(estimate))
    return float(np.linalg.norm(estimate - target) / denom)


def verify_consensus(
    g: DirectedGraph,
    scheme: ReplacementMatrix,
    horizon: int = 100_000,
    runs: int = 200,
    seed: int = 2024,
    tol: float = 0.02,
    initial: UrnState | None = None,
) -> dict:
    """Per-vertex ensemble means against the predicted consensus value."""
    if initial is None:
        initial = default_initial_state(g.n)
    c = theory.consensus_equilibrium(scheme.alpha, scheme.beta)
    result = run_ensemble(g, scheme, initial, horizon, runs, seed, checkpoints=[horizon])
    deviations = np.abs(result.mean_z[-1] - c)
    return {
        "suite": "consensus",
        "target": c,
        "per_vertex_mean": [float(v) for v in result.mean_z[-1]],
        "max_abs_deviation": float(deviations.max()),
        "tolerance": tol,
        "horizon": horizon,
        "runs": runs,
        "pass": bool(deviations.max() < tol),
    }


def lyapunov_closed_form_sweep(
    n_graphs: int = 20, seed: int = 7, tol: float = 1e-8
) -> dict:
    """Lyapunov-solver covariance against the symmetric closed form on
    random regular graphs."""
    rng = np.random.default_rng(seed)
    sizes = [(6, 3), (8, 3), (10, 3), (10, 4), (12, 4), (8, 4), (12, 3), (14, 4)]
    alphas = [0.35, 0.45, 0.6]  # Friedman rules away from the zero-noise point 1/2
    start = time.perf_counter()
    worst = 0.0
    for k in range(n_graphs):
        n, d = sizes[k % len(sizes)]
        ab = alphas[k % len(alphas)]
        g = generate_graph("d_regular_random", {"n": n, "d": d}, seed=int(rng.integers(2**32)))
        a_tilde = g.weighted_adjacency()
        sigma = theory.clt_covariance(ab, ab, a_tilde)
        closed = theory.clt_covariance_regular_closed_form(ab, ab, a_tilde)
        worst = max(worst, _frobenius_rel_error(sigma, closed))
    elapsed = time.perf_counter() - start
    return {
        "n_graphs": n_graphs,
        "max_rel_error": worst,
        "tolerance": tol,
        "elapsed_s": elapsed,
        "pass": bool(worst <= tol),
    }


def verify_clt(
    g: DirectedGraph,
    scheme: ReplacementMatrix,
    horizon: int = 10_000,
    runs: int = 5000,
    seed: int = 11,
    tol_rel: float = 0.15,
    sweep: bool = True,
    initial: UrnState | None = None,
) -> dict:
    """Empirical sqrt(t)-scaled covariance against the Lyapunov prediction."""
    if initial is None:
        initial = default_initial_state(g.n)
    alpha, beta = scheme.alpha, scheme.beta
    a_tilde = g.weighted_adjacency()
    c = theory.consensus_equilibrium(alpha, beta)
    sigma = theory.clt_covariance(alpha, beta, a_tilde)
    result = run_ensemble(g, scheme, initial, horizon, runs, seed, checkpoints=[horizon])
    empirical = montecarlo.scaled_covariance(result, c, montecarlo.SCALING_SQRT_T)
    rel = _frobenius_rel_error(empirical, sigma)
    report = {
        "suite": "clt",
        "rho": theory.rho(alpha, beta, a_tilde).value,
        "sigma_theory": [list(map(float, row)) for row in sigma],
        "sigma_empirical": [list(map(float, row)) for row in empirical],
        "frobenius_rel_error": rel,
        "tolerance": tol_rel,
        "horizon": horizon,
        "runs": runs,
        "pass": bool(rel <= tol_rel),
    }
    if sweep:
        report["closed_form_sweep"] = lyapunov_closed_form_sweep()
        report["pass"] = bool(report["pass"] and report["closed_form_sweep"]["pass"])
    return report


def verify_clt_critical(
    g: DirectedGraph,
    scheme: ReplacementMatrix,
    horizon: int = 100_000,
    runs: int = 5000,
    seed: int = 13,
    tol_rel: float = 0.20,
    initial: UrnState | None = None,
) -> dict:
    """Empirical sqrt(t / log t)-scaled covariance on the critical line."""
    if initial is None:
        initial = default_initial_state(g.n)
    alpha, beta = scheme.alpha, scheme.beta
    a_tilde = g.weighted_adjacency()
    c = theory.consensus_equilibrium(alpha, beta)
    sigma = theory.clt_covariance_critical(alpha, beta, a_tilde)
    result = run_ensemble(g, scheme, initial, horizon, runs, seed, checkpoints=[horizon])
    empirical = montecarlo.scaled_covariance(result, c, montecarlo.SCALING_CRITICAL)
    rel = _frobenius_rel_error(empirical, sigma)
    return {
        "suite": "clt-critical",
        "rho": theory.rho(alpha, beta, a_tilde).value,
        "sigma_theory": [list(map(float, row)) for row in sigma],
        "sigma_empirical": [list(map(float, row)) for row in empirical],
        "frobenius_rel_error": rel,
        "tolerance": tol_rel,
        "horizon": horizon,
        "runs": runs,
        "pass": bool(rel <= tol_rel),
    }


def verify_subcritical(
    g: DirectedGraph,
    scheme: ReplacementMatrix,
    horizons=(1000, 10_000, 100_000),
    runs: int = 200,
    seed: int = 17,
    ratio_window=(0.3, 3.0),
    initial: UrnState | None = None,
) -> dict:
    """Regime detection plus stability of the t^rho-scaled deviation norm.

    Checks that rho < 1/2 is reported and that the median of
    t^rho * ||Z_t - c 1||_2 neither vanishes nor explodes across decades.
    """
    if initial is None:
        initial = default_initial_state(g.n)
    alpha, beta = scheme.alpha, scheme.beta
    a_tilde = g.weighted_adjacency()
    rr = theory.rho(alpha, beta, a_tilde)
    c = theory.consensus_equilibrium(alpha, beta)
    horizons = sorted(int(t) for t in horizons)
    result = run_ensemble(
        g, scheme, initial, horizons[-1], runs, seed,
        checkpoints=horizons, snapshot_times=horizons,
    )
    medians = []
    for t in horizons:
        norms = np.linalg.norm(result.z_at(t) - c, axis=1)
        medians.append(float(t**rr.value * np.median(norms)))
    ratios = [medians[i + 1] / medians[i] for i in range(len(medians) - 1)]
    lo, hi = ratio_window
    ratios_ok = all(lo <= r <= hi for r in ratios)
    return {
        "suite": "subcritical",
        "rho": rr.value,
        "regime": rr.regime,
        "horizons": horizons,
        "scaled_medians": medians,
        "ratios": ratios,
        "ratio_window": [lo, hi],
        "runs": runs,
        "pass": bool(rr.regime == theory.REGIME_SUBCRITICAL and ratios_ok),
    }


def verify_polya_rate(
    g: DirectedGraph,
    horizon: int = 100_000,
    runs: int = 500,
    seed: int = 19,
    slope_window=None,
    m: int = 1,
    initial: UrnState | None = None,
) -> dict:
    """Log-log decay slope of the cross-sectional variance under the
    identity-type rule, against the predicted rate class."""
    if initial is None:
        initial = default_initial_state(g.n)
    scheme = ReplacementMatrix(a=m, b=m, m=m)
    rate = theory.polya_rate_class(g.weighted_adjacency())
    if slope_window is None:
        slope_window = (rate.exponent - 0.15, rate.exponent + 0.15)
    result = run_ensemble(g, scheme, initial, horizon, runs, seed)
    est = montecarlo.variance_decay_slope(result)

    # Log-correction diagnostic: slope of log(var * t) vs log log t is near 1
    # when the decay carries a log factor, near 0 for a clean 1/t law.
    tail = [
        (t, v) for t, v in zip(result.checkpoints, result.var_phi) if t >= 2 and v > 0
    ]
    tail = tail[len(tail) // 2 :]
    x = np.log(np.log([t for t, _ in tail]))
    y = np.log([v * t for t, v in tail])
    x_c = x - x.mean()
    log_diag = float(x_c @ y / (x_c @ x_c))

    lo, hi = slope_window
    return {
        "suite": "polya-rate",
        "rate_class": {"kind": rate.kind, "exponent": rate.exponent, "lambda2": rate.lambda2},
        "slope": est.slope,
        "ci_halfwidth": est.ci_halfwidth,
        "slope_window": [lo, hi],
        "log_correction_diagnostic": log_diag,
        "t_window": list(est.t_window),
        "horizon": horizon,
        "runs": runs,
        "pass": bool(lo <= est.slope <= hi),
    }


def verify_martingale(
    g: DirectedGraph,
    horizon: int = 10_000,
    runs: int = 2000,
    seed: int = 23,
    m: int = 1,
    initial: UrnState | None = None,
) -> dict:
    """Preservation of the cross-sectional mean under identity-type rules."""
    if initial is None:
        initial = default_initial_state(g.n)
    scheme = ReplacementMatrix(a=m, b=m, m=m)
    result = run_ensemble(g, scheme, initial, horizon, runs, seed, checkpoints=[horizon])
    rep = montecarlo.martingale_test(result)
    return {
        "suite": "martingale",
        "drift_estimate": rep.drift_estimate,
        "threshold": rep.threshold,
        "standard_error": rep.standard_error,
        "horizon": horizon,
        "runs": runs,
        "pass": bool(rep.passed),
    }


def verify_oracle(
    g: DirectedGraph,
    scheme,
    horizon: int = 1,
    runs: int = 100_000,
    seed: int = 29,
    initial: UrnState | None = None,
    allow_zero_in_degree: bool = False,
) -> dict:
    """Simulator law against exact enumeration, plus the exact one-step
    conditional mean identity."""
    if initial is None:
        initial = default_initial_state(g.n)
    rep = montecarlo.oracle_check(
        g, scheme, initial, horizon, runs, seed, allow_zero_in_degree=allow_zero_in_degree
    )
    one_step = montecarlo.brute_force_distribution(
        g, scheme, initial, 1, allow_zero_in_degree=allow_zero_in_degree
    )
    mean_exact = montecarlo.distribution_mean_fractions(one_step)
    mean_formula = expected_fractions_after_step(initial, g, scheme)
    mean_match = mean_exact == mean_formula
    return {
        "suite": "oracle",
        "tv_distance": rep.tv_distance,
        "tv_threshold": rep.threshold,
        "support_size": rep.support_size,
        "one_step_mean_exact_match": bool(mean_match),
        "horizon": horizon,
        "runs": runs,
        "pass": bool(rep.passed and mean_match),
    }


def verify_ode_tracking(
    g: DirectedGraph,
    scheme: ReplacementMatrix,
    initial: UrnState,
    horizon: int = 100_000,
    n_seeds: int = 100,
    seed: int = 31,
    sup_tol: float = 0.05,
    start_time: int = 1000,
    required_fraction: float = 0.9,
) -> dict:
    """Fraction of seeded runs that stay near the noise-free companion path.

    The companion is the conditional-mean recursion, an Euler path of the
    limit ODE with the process's own step sizes; deviation is measured in
    sup norm from `start_time` onward.
    """
    reference = mean_field_path(g, scheme, initial, horizon)
    out = simulate_runs(
        g,
        scheme,
        initial,
        horizon,
        seed,
        range(n_seeds),
        reference_path=reference,
        deviation_start=start_time,
    )
    frac_ok = float(np.mean(out.sup_dev <= sup_tol))
    return {
        "suite": "ode-tracking",
        "fraction_within": frac_ok,
        "required_fraction": required_fraction,
        "sup_tolerance": sup_tol,
        "start_time": start_time,
        "max_sup_deviation": float(out.sup_dev.max()),
        "n_seeds": n_seeds,
        "horizon": horizon,
        "pass": bool(frac_ok >= required_fraction),
    }


def verify_heterogeneous(
    horizon: int = 100_000,
    runs: int = 64,
    seed: int = 37,
    sim_tol: float = 0.02,
    exact_tol: float = 1e-12,
) -> dict:
    """Per-vertex limits under mixed replacement matrices.

    Covers the two-node mutual-influence formula, the star of influencers
    with two camps, and the group-size threshold sweep.
    """
    # Two nodes, self-loops plus both cross edges, different matrices.
    g2 = generate_graph("complete_with_loops", {"n": 2})
    m = 4
    r1, r2 = ReplacementMatrix(1, 2, m), ReplacementMatrix(3, 1, m)
    scheme2 = HeterogeneousScheme((r1, r2))
    b_sum = r1.b + r2.b
    a_sum = r1.a + r2.a
    expected2 = (1 - b_sum / (2 * m)) / (2 - a_sum / (2 * m) - b_sum / (2 * m))
    limit2 = theory.heterogeneous_limit(g2, scheme2)
    err2 = float(np.abs(limit2 - expected2).max())
    res2 = run_ensemble(g2, scheme2, default_initial_state(2), horizon, runs, seed,
                        checkpoints=[horizon])
    sim_err2 = float(np.abs(res2.mean_z[-1] - expected2).max())

    # Star of influencers: d1 senders in camp one, d2 in camp two, all
    # fully white, only the centre is reinforced.
    d1, d2 = 3, 2
    d = d1 + d2
    m_star = 5
    camp1 = ReplacementMatrix(4, 2, m_star)
    camp2 = ReplacementMatrix(1, 2, m_star)
    centre = ReplacementMatrix(m_star, m_star, m_star)  # centre sends nothing (no out-edges)
    edges = frozenset((j, 1) for j in range(2, d + 2))
    g_star = DirectedGraph(n_vertices=d + 1, edges=edges)
    scheme_star = HeterogeneousScheme((centre,) + (camp1,) * d1 + (camp2,) * d2)
    expected_star = (camp1.alpha * d1 + camp2.alpha * d2) / d
    frozen = np.ones(d + 1)
    limit_star = theory.heterogeneous_limit(g_star, scheme_star, frozen_fractions=frozen)
    err_star = abs(float(limit_star[0]) - expected_star)
    init_star = UrnState(
        white=np.array([1] + [1] * d, dtype=np.int64),
        black=np.array([1] + [0] * d, dtype=np.int64),
    )
    res_star = run_ensemble(
        g_star, scheme_star, init_star, horizon, runs, seed + 1,
        checkpoints=[horizon], allow_zero_in_degree=True,
    )
    sim_err_star = abs(float(res_star.mean_z[-1][0]) - expected_star)

    # Threshold sweep: first-hit property re-derived with exact rationals.
    sweep_ok = True
    for dd in range(1, 21):
        for a, r, target in ((0.9, 0.1, 0.5), (0.6, 0.2, 0.55), (0.3, 0.3, 0.4), (0.2, 0.1, 0.9)):
            got = theory.influence_threshold(dd, a, r, 0.5, target)
            meets = [
                Fraction(a) * x + Fraction(r) * (dd - x) >= Fraction(target) * dd
                for x in range(dd + 1)
            ]
            direct = meets.index(True) if any(meets) else None
            if got != direct:
                sweep_ok = False

    passed = (
        err2 <= exact_tol
        and err_star <= exact_tol
        and sim_err2 <= sim_tol
        and sim_err_star <= sim_tol
        and sweep_ok
    )
    return {
        "suite": "heterogeneous",
        "two_node_expected": expected2,
        "two_node_exact_error": err2,
        "two_node_sim_error": sim_err2,
        "star_expected": expected_star,
        "star_exact_error": err_star,
        "star_sim_error": sim_err_star,
        "threshold_sweep_ok": sweep_ok,
        "exact_tolerance": exact_tol,
        "sim_tolerance": sim_tol,
        "pass": bool(passed),
    }
