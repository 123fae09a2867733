"""Named verification suites: desk-scale statistical reproductions of the
limit theory, plus exact oracle comparisons.

Every runner takes (g, scheme, initial=None, *, horizon, runs, seed[, tol])
and refuses a graph with an unreinforced urn (`ZeroInDegreeError`); the
heterogeneous one builds its own graphs and takes only the keywords.
Each returns a JSON-ready report with the statistics behind its verdict,
"checks" as {name, value, bound, pass} records, and "pass", true when every
check passes.  Thresholds default to the documented acceptance values;
callers may widen or tighten them.  `SUITES` holds the CLI defaults.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

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
from .errors import InvalidParamsError, WrongRegimeError
from .graph import DirectedGraph, generate_graph
from .montecarlo import run_ensemble

EXACT_TOL = 1e-12  # exact limits in the heterogeneous suite
_SWEEP_TOL = 1e-8  # Lyapunov solver against the regular-graph closed form
_POLYA = ReplacementMatrix(1, 1, 1)


def _frobenius_rel_error(estimate: np.ndarray, target: np.ndarray) -> float:
    denom = np.linalg.norm(target)
    if denom == 0.0:
        return float(np.linalg.norm(estimate))
    return float(np.linalg.norm(estimate - target) / denom)


def _verdict(report: dict, checks) -> dict:
    """Attach `(name, value, bound, passed)` checks and the overall verdict."""
    report["checks"] = [
        {"name": name, "value": value, "bound": bound, "pass": bool(ok)}
        for name, value, bound, ok in checks
    ]
    report["pass"] = all(c["pass"] for c in report["checks"])
    return report


def _initial(g, initial) -> UrnState:
    """Refuse a graph with unreinforced urns, which the suites' limits
    exclude, then return the start state, by default one ball of each
    colour per urn."""
    g.check_reinforced()
    return default_initial_state(g.n) if initial is None else initial


def _start(g, scheme, initial, suite: str, polya: bool = False) -> UrnState:
    """Refuse a scheme the suite's theory does not cover, then `_initial`."""
    if not isinstance(scheme, ReplacementMatrix) or (polya and not scheme.is_polya()):
        need = "a Polya-type rule a = b = m" if polya else "one replacement matrix for every vertex"
        raise InvalidParamsError(f"suite {suite} needs {need}, got {scheme}")
    return _initial(g, initial)


def verify_consensus(
    g: DirectedGraph,
    scheme: ReplacementMatrix,
    initial: UrnState | None = None,
    *,
    horizon: int = 100_000,
    runs: int = 200,
    seed: int = 2024,
    tol: float = 0.02,
) -> dict:
    """Per-vertex ensemble means against the predicted consensus value; a
    horizon below 100 is refused, as it would mostly measure the start."""
    initial = _start(g, scheme, initial, "consensus")
    if horizon < 100:
        raise InvalidParamsError(f"suite consensus needs horizon >= 100, got {horizon}")
    c = theory.consensus_equilibrium(scheme.alpha, scheme.beta)
    result = run_ensemble(g, scheme, initial, horizon, runs, seed, checkpoints=[horizon])
    worst = float(np.abs(result.mean_z[-1] - c).max())
    report = {
        "suite": "consensus",
        "target": c,
        "per_vertex_mean": [float(v) for v in result.mean_z[-1]],
        "max_abs_deviation": worst,
        "horizon": horizon,
        "runs": runs,
    }
    return _verdict(report, [("max_abs_deviation", worst, tol, worst < tol)])


def lyapunov_closed_form_sweep() -> dict:
    """Lyapunov-solver covariance against the symmetric closed form on 20
    random regular graphs."""
    n_graphs = 20
    rng = np.random.default_rng(7)
    sizes = [(6, 3), (8, 3), (10, 3), (10, 4), (12, 4), (8, 4), (12, 3), (14, 4)]
    alphas = [0.35, 0.45, 0.6]  # Friedman rules away from the zero-noise point 1/2
    worst = 0.0
    for k in range(n_graphs):
        n, d = sizes[k % len(sizes)]
        ab = alphas[k % len(alphas)]
        g = generate_graph("d_regular_random", {"n": n, "d": d}, seed=int(rng.integers(2**32)))
        a_tilde = g.weighted_adjacency()
        sigma = theory.fluctuations(ab, ab, a_tilde).sigma
        closed = theory.clt_covariance_regular_closed_form(ab, ab, a_tilde)
        worst = max(worst, _frobenius_rel_error(sigma, closed))
    return {"n_graphs": n_graphs, "max_rel_error": worst}


def _clt(suite, regime, g, scheme, initial, horizon, runs, seed, tol):
    """Empirical scaled covariance against the theoretical one of `regime`;
    the body shared by the sqrt(t) and the critical sqrt(t / log t) suites.
    A rule in another regime is refused before anything is simulated."""
    initial = _start(g, scheme, initial, suite)
    fl = theory.fluctuations(scheme.alpha, scheme.beta, g.weighted_adjacency(), regime)
    if fl.regime != regime:
        raise WrongRegimeError(f"rho = {fl.rho:.6g} gives regime {fl.regime}, not {regime}")
    result = run_ensemble(g, scheme, initial, horizon, runs, seed, checkpoints=[horizon])
    empirical = montecarlo.scaled_covariance(result, fl)
    rel = _frobenius_rel_error(empirical, fl.sigma)
    report = {
        "suite": suite,
        "rho": fl.rho,
        "sigma_theory": [list(map(float, row)) for row in fl.sigma],
        "sigma_empirical": [list(map(float, row)) for row in empirical],
        "frobenius_rel_error": rel,
        "horizon": horizon,
        "runs": runs,
    }
    return report, [("frobenius_rel_error", rel, tol, rel <= tol)]


def verify_clt(
    g: DirectedGraph,
    scheme: ReplacementMatrix,
    initial: UrnState | None = None,
    *,
    horizon: int = 10_000,
    runs: int = 5000,
    seed: int = 11,
    tol: float = 0.15,
) -> dict:
    """Empirical sqrt(t)-scaled covariance against the Lyapunov prediction,
    plus the Lyapunov solver against the regular-graph closed form."""
    report, checks = _clt(
        "clt", theory.REGIME_SQRT_T, g, scheme, initial, horizon, runs, seed, tol,
    )
    sweep = report["closed_form_sweep"] = lyapunov_closed_form_sweep()
    err = sweep["max_rel_error"]
    checks.append(("closed_form_sweep", err, _SWEEP_TOL, err <= _SWEEP_TOL))
    return _verdict(report, checks)


def verify_clt_critical(
    g: DirectedGraph,
    scheme: ReplacementMatrix,
    initial: UrnState | None = None,
    *,
    horizon: int = 100_000,
    runs: int = 5000,
    seed: int = 13,
    tol: float = 0.20,
) -> dict:
    """Empirical sqrt(t / log t)-scaled covariance on the critical line."""
    return _verdict(*_clt(
        "clt-critical", theory.REGIME_CRITICAL, g, scheme, initial, horizon, runs, seed, tol,
    ))


def verify_subcritical(
    g: DirectedGraph,
    scheme: ReplacementMatrix,
    initial: UrnState | None = None,
    *,
    horizon: int = 100_000,
    runs: int = 200,
    seed: int = 17,
    ratio_window=(0.3, 3.0),
) -> dict:
    """Regime detection plus stability of the t^rho-scaled deviation norm.

    Checks that rho < 1/2 is reported and that the median of
    t^rho * ||Z_t - c 1||_2 neither vanishes nor explodes across the decades
    horizon // 100, horizon // 10 and horizon.
    """
    initial = _start(g, scheme, initial, "subcritical")
    if horizon < 100:
        raise InvalidParamsError(f"suite subcritical needs horizon >= 100, got {horizon}")
    fl = theory.fluctuations(
        scheme.alpha, scheme.beta, g.weighted_adjacency(), theory.REGIME_SUBCRITICAL
    )
    horizons = [horizon // 100, horizon // 10, horizon]
    result = run_ensemble(
        g, scheme, initial, horizon, runs, seed,
        checkpoints=horizons, snapshot_times=horizons,
    )
    medians = []
    for t in horizons:
        norms = np.linalg.norm(result.z_at(t) - fl.c, axis=1)
        medians.append(float(t**fl.rho * np.median(norms)))
    # a vanished median has no ratio: null, and the check fails
    ratios = [b / a if a else None for a, b in zip(medians, medians[1:])]
    lo, hi = ratio_window
    report = {
        "suite": "subcritical",
        "rho": fl.rho,
        "regime": fl.regime,
        "horizons": horizons,
        "scaled_medians": medians,
        "ratios": ratios,
        "runs": runs,
    }
    return _verdict(report, [
        ("rho", fl.rho, 0.5, fl.regime == theory.REGIME_SUBCRITICAL),
        ("ratios", ratios, [lo, hi], all(r is not None and lo <= r <= hi for r in ratios)),
    ])


def verify_polya_rate(
    g: DirectedGraph,
    scheme: ReplacementMatrix = _POLYA,
    initial: UrnState | None = None,
    *,
    horizon: int = 100_000,
    runs: int = 500,
    seed: int = 19,
    slope_window=None,
) -> dict:
    """Log-log decay slope of the cross-sectional variance under an
    identity-type rule, against the predicted rate class."""
    initial = _start(g, scheme, initial, "polya-rate", polya=True)
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
    report = {
        "suite": "polya-rate",
        "rate_class": {"kind": rate.kind, "exponent": rate.exponent, "lambda2": rate.lambda2},
        "slope": est.slope,
        "ci_halfwidth": est.ci_halfwidth,
        "log_correction_diagnostic": log_diag,
        "t_window": list(est.t_window),
        "horizon": horizon,
        "runs": runs,
    }
    return _verdict(report, [("slope", est.slope, [lo, hi], lo <= est.slope <= hi)])


def verify_martingale(
    g: DirectedGraph,
    scheme: ReplacementMatrix = _POLYA,
    initial: UrnState | None = None,
    *,
    horizon: int = 10_000,
    runs: int = 2000,
    seed: int = 23,
) -> dict:
    """Preservation of the cross-sectional mean under identity-type rules."""
    initial = _start(g, scheme, initial, "martingale", polya=True)
    montecarlo.check_martingale_inputs(g.is_regular_undirected(), runs, horizon)
    result = run_ensemble(g, scheme, initial, horizon, runs, seed, checkpoints=[horizon])
    rep = montecarlo.martingale_test(result)
    report = {
        "suite": "martingale",
        "drift_estimate": rep.drift_estimate,
        "threshold": rep.threshold,
        "standard_error": rep.standard_error,
        "horizon": horizon,
        "runs": runs,
    }
    return _verdict(report, [("abs_drift", abs(rep.drift_estimate), rep.threshold, rep.passed)])


def verify_oracle(
    g: DirectedGraph,
    scheme,
    initial: UrnState | None = None,
    *,
    horizon: int = 1,
    runs: int = 100_000,
    seed: int = 29,
) -> dict:
    """Simulator law against exact enumeration, plus the exact one-step
    conditional mean identity."""
    initial = _initial(g, initial)
    rep = montecarlo.oracle_check(g, scheme, initial, horizon, runs, seed)
    one_step = montecarlo.brute_force_distribution(g, scheme, initial, 1)
    mean_exact = montecarlo.distribution_mean_fractions(one_step)
    mean_formula = expected_fractions_after_step(initial, g, scheme)
    mean_match = bool(mean_exact == mean_formula)
    report = {
        "suite": "oracle",
        "tv_distance": rep.tv_distance,
        "support_size": rep.support_size,
        "one_step_mean_exact_match": mean_match,
        "horizon": horizon,
        "runs": runs,
    }
    return _verdict(report, [
        ("tv_distance", rep.tv_distance, rep.threshold, rep.passed),
        ("one_step_mean_exact_match", mean_match, True, mean_match),
    ])


def verify_ode_tracking(
    g: DirectedGraph,
    scheme: ReplacementMatrix,
    initial: UrnState | None = None,
    *,
    horizon: int = 100_000,
    runs: int = 100,
    seed: int = 31,
    tol: float = 0.05,
    start_time: int = 1000,
    required_fraction: float = 0.9,
) -> dict:
    """Fraction of seeded runs whose sup-norm distance from the noise-free
    companion path stays within `tol`.

    The companion is the conditional-mean recursion, an Euler path of the
    limit ODE with the process's own step sizes; deviation is measured in
    sup norm from `start_time` onward, so a shorter horizon is refused: it
    would measure no step and pass.
    """
    if horizon < start_time:
        raise InvalidParamsError(f"suite ode-tracking needs horizon >= {start_time}, got {horizon}")
    if runs < 1:
        raise InvalidParamsError("runs must be >= 1")
    initial = _initial(g, initial)
    reference = mean_field_path(g, scheme, initial, horizon)
    out = simulate_runs(
        g,
        scheme,
        initial,
        horizon,
        seed,
        range(runs),
        reference_path=reference,
        deviation_start=start_time,
    )
    frac_ok = float(np.mean(out.sup_dev <= tol))
    report = {
        "suite": "ode-tracking",
        "fraction_within": frac_ok,
        "start_time": start_time,
        "max_sup_deviation": float(out.sup_dev.max()),
        "runs": runs,
        "horizon": horizon,
    }
    return _verdict(report, [
        ("fraction_within", frac_ok, required_fraction, frac_ok >= required_fraction),
    ])


def verify_heterogeneous(
    *,
    horizon: int = 100_000,
    runs: int = 64,
    seed: int = 37,
    tol: float = 0.02,
) -> dict:
    """Per-vertex limits under mixed replacement matrices.

    Covers the two-node mutual-influence formula, the star of influencers
    with two camps, and the group-size threshold sweep.  `tol` bounds the
    simulated limits; the exact ones are held to `EXACT_TOL`.
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
    res_star = run_ensemble(g_star, scheme_star, init_star, horizon, runs, seed + 1,
                            checkpoints=[horizon])
    sim_err_star = abs(float(res_star.mean_z[-1][0]) - expected_star)

    # Threshold sweep: first-hit property re-derived with exact rationals.
    sweep_ok = True
    for dd in range(1, 21):
        for a, r, target in ((0.9, 0.1, 0.5), (0.6, 0.2, 0.55), (0.3, 0.3, 0.4), (0.2, 0.1, 0.9)):
            got = theory.influence_threshold(dd, a, r, target)
            meets = [
                Fraction(a) * x + Fraction(r) * (dd - x) >= Fraction(target) * dd
                for x in range(dd + 1)
            ]
            direct = meets.index(True) if any(meets) else None
            if got != direct:
                sweep_ok = False

    report = {
        "suite": "heterogeneous",
        "two_node_expected": expected2,
        "two_node_exact_error": err2,
        "two_node_sim_error": sim_err2,
        "star_expected": expected_star,
        "star_exact_error": err_star,
        "star_sim_error": sim_err_star,
        "threshold_sweep_ok": sweep_ok,
    }
    return _verdict(report, [
        ("two_node_exact_error", err2, EXACT_TOL, err2 <= EXACT_TOL),
        ("star_exact_error", err_star, EXACT_TOL, err_star <= EXACT_TOL),
        ("two_node_sim_error", sim_err2, tol, sim_err2 <= tol),
        ("star_sim_error", sim_err_star, tol, sim_err_star <= tol),
        ("threshold_sweep_ok", sweep_ok, True, sweep_ok),
    ])


def _alternating(heavy: int, light: int) -> Callable[[int], UrnState]:
    """Start states with `heavy` white and `light` black balls at vertices
    1, 3, 5, ... and the reverse at vertices 2, 4, ..."""
    def start(n: int) -> UrnState:
        white = np.full(n, heavy, dtype=np.int64)
        black = np.full(n, light, dtype=np.int64)
        white[1::2], black[1::2] = light, heavy
        return UrnState(white, black)
    return start


def _graph(name: str, seed: int = 0, **params) -> Callable[[], DirectedGraph]:
    return lambda: generate_graph(name, params, seed)


@dataclass(frozen=True)
class Suite:
    """A runner and its CLI defaults: `graph` builds the default graph (None
    when the runner builds its own), `rule` is the default (a, b, m), and
    `initial` maps the vertex count to the start state."""

    run: Callable[..., dict]
    graph: Callable[[], DirectedGraph] | None = None
    rule: tuple | None = None
    initial: Callable[[int], UrnState] = default_initial_state

    @property
    def tol(self) -> float | None:
        """The runner's default `tol`, None when it takes none."""
        param = inspect.signature(self.run).parameters.get("tol")
        return None if param is None else param.default


SUITES = {
    "consensus": Suite(verify_consensus, _graph("d_regular_random", seed=1, n=10, d=3), (1, 1, 4)),
    "clt": Suite(verify_clt, _graph("complete_with_loops", n=2), (1, 1, 4)),
    "clt-critical": Suite(verify_clt_critical, _graph("complete_with_loops", n=4), (3, 3, 4)),
    # loopless: with self-loops all urns stay identical and the
    # cross-sectional variance is identically zero
    "polya-rate": Suite(verify_polya_rate, _graph("complete", n=5), (1, 1, 1)),
    "martingale": Suite(
        verify_martingale, _graph("cycle_directed", n=2), (1, 1, 1), _alternating(3, 1)
    ),
    "oracle": Suite(verify_oracle, _graph("cycle_directed", n=2), (1, 1, 1)),
    "ode-tracking": Suite(
        verify_ode_tracking, _graph("star_undirected", n=5), (1, 1, 4), _alternating(9, 1)
    ),
    "subcritical": Suite(verify_subcritical, _graph("cycle_undirected", n=5), (0, 0, 1)),
    "heterogeneous": Suite(verify_heterogeneous),
}
