"""Named verification suites: desk-scale statistical reproductions of the
limit theory, plus exact oracle comparisons.

Each row of `SUITES` is a plan, a judge and the suite's inputs, which
`Suite.run` joins over the one engine path, `run_ensemble`; an input left
out is the row's, so the API and `urnnet verify` run one experiment.  A
plan makes every refusal (an unreinforced urn is `ZeroInDegreeError`),
computes the prediction and any other seed-free part, and returns it with
the `run_ensemble` keyword sets it needs, each from
`montecarlo.check_ensemble`, refused before any O(horizon) work.  A judge
reads only the results and the prediction, so one stored result can be
judged many times; its checks become {name, value, bound, pass} records
and "pass", true when every check passes.  Each statistic a judge tests is
computed here, in or beside that judge (`scaled_covariance` is the one
public helper); `montecarlo` only simulates and knows no regime.  The
`verify_*` names are the table's runs.  Tolerances default to the
documented acceptance values, and fixed bounds are module constants.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass
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
    geometric_checkpoints,
    mean_field_path,
    normalised_rule,
    simulate_runs,  # noqa: F401  bound here for perfbench's tracer, which patches it by name
)
from .errors import InsufficientCheckpointsError, InvalidParamsError, NotRegularError, WrongRegimeError
from .graph import DirectedGraph, generate_graph
from .montecarlo import check_ensemble, run_ensemble

EXACT_TOL = 1e-12  # exact limits in the heterogeneous suite
_SWEEP_TOL = 1e-8  # Lyapunov solver against the regular-graph closed form
RATIO_WINDOW = (0.3, 3.0)  # subcritical decade ratios of the t^rho-scaled median
REQUIRED_FRACTION = 0.9  # ode-tracking runs that must stay within tol
ODE_START_TIME = 1000  # ode-tracking measures deviations from this step on
SLOPE_HALFWIDTH = 0.15  # polya-rate slope window either side of the exponent
_VAR_FLOOR = 1e-25  # polya-rate: cross-sectional variance below this is rounding dust


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


def _start(g, scheme, suite: str) -> None:
    """Refuse a rule other than one Polya-type a = b = m, then unreinforced urns."""
    if not (isinstance(scheme, ReplacementMatrix) and scheme.is_polya()):
        raise InvalidParamsError(f"suite {suite} needs a Polya-type rule a = b = m, got {scheme}")
    g.check_reinforced()


def _consensus_plan(g, scheme, initial, horizon, runs, seed):
    """Per-vertex ensemble means against the predicted limit: the consensus
    value of one rule, one value per vertex for a per-vertex rule.  A horizon
    below 100 is refused, as it would mostly measure the start."""
    g.check_reinforced()
    if horizon < 100:
        raise InvalidParamsError(f"suite consensus needs horizon >= 100, got {horizon}")
    # the subcritical regime asks for c and rho only, with no covariance solve
    c = theory.fluctuations(*normalised_rule(g, scheme), theory.REGIME_SUBCRITICAL).c
    return c, [check_ensemble(g, scheme, initial, horizon, runs, seed, checkpoints=[horizon])]


def _consensus_judge(results, prediction, tol):
    (result,), c = results, prediction
    worst = float(np.abs(result.mean_z[-1] - c).max())
    report = {
        "suite": "consensus",
        "target": np.asarray(c).tolist(),
        "per_vertex_mean": [float(v) for v in result.mean_z[-1]],
        "max_abs_deviation": worst,
        "horizon": result.horizon,
        "runs": result.runs,
    }
    return report, [("max_abs_deviation", worst, tol, worst < tol)]


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


def _clt_plan(regime, g, scheme, initial, horizon, runs, seed):
    """Empirical scaled covariance against the theoretical one of `regime`,
    for one rule or one per vertex: sqrt(t), plus the Lyapunov solver
    against the regular-graph closed form (clt), or sqrt(t / log t) on the
    critical line (clt-critical).  Another regime or a singular H is
    refused."""
    g.check_reinforced()
    fl = theory.fluctuations(*normalised_rule(g, scheme), regime)
    if fl.regime != regime:
        raise WrongRegimeError(f"rho = {fl.rho:.6g} gives regime {fl.regime}, not {regime}")
    ensemble = check_ensemble(g, scheme, initial, horizon, runs, seed, checkpoints=[horizon])
    _scale_squared(fl, horizon)  # refuses a horizon with no critical scale
    sweep = lyapunov_closed_form_sweep() if regime == theory.REGIME_SQRT_T else None
    return (fl, sweep), [ensemble]


def _scale_squared(record: theory.Fluctuations, t: int) -> float:
    """s(t)^2 for the regime of `record`: t above the critical line, t^(2 rho)
    below it, and t / log t on it (t < 2 refused), not t log t: the fraction
    variance decays like log(t)/t there (sqrt(t log t) scales ball counts,
    which carry an extra factor of t)."""
    if record.regime == theory.REGIME_SQRT_T:
        return float(t)
    if record.regime == theory.REGIME_CRITICAL:
        if t < 2:
            raise InvalidParamsError("critical scaling needs t >= 2")
        return t / math.log(t)
    return float(t) ** (2.0 * record.rho)


def scaled_covariance(result: montecarlo.EnsembleResult, record: theory.Fluctuations) -> np.ndarray:
    """Empirical covariance of the scaled deviation s(t) (Z_t - c 1) at the
    final checkpoint t: the second moment about the predicted limit c of
    `record`, common or one entry per vertex (the limit law is centred),
    times s(t)^2 of the record's regime (`_scale_squared`)."""
    s2 = _scale_squared(record, result.checkpoints[-1])
    mean = result.mean_z[-1]
    second = result.cov_final * (result.runs - 1) / result.runs + np.outer(mean, mean)
    cvec = np.full(result.n, record.c, dtype=float)
    moment = second - np.outer(mean, cvec) - np.outer(cvec, mean) + np.outer(cvec, cvec)
    return s2 * 0.5 * (moment + moment.T)


def _clt_judge(results, prediction, tol):
    (result,), (fl, sweep) = results, prediction
    empirical = scaled_covariance(result, fl)
    rel = _frobenius_rel_error(empirical, fl.sigma)
    report = {
        "suite": "clt" if sweep is not None else "clt-critical",
        "rho": fl.rho,
        "sigma_theory": [list(map(float, row)) for row in fl.sigma],
        "sigma_empirical": [list(map(float, row)) for row in empirical],
        "frobenius_rel_error": rel,
        "horizon": result.horizon,
        "runs": result.runs,
    }
    checks = [("frobenius_rel_error", rel, tol, rel <= tol)]
    if sweep is not None:
        report["closed_form_sweep"] = dict(sweep)
        err = sweep["max_rel_error"]
        checks.append(("closed_form_sweep", err, _SWEEP_TOL, err <= _SWEEP_TOL))
    return report, checks


def _subcritical_plan(g, scheme, initial, horizon, runs, seed):
    """Regime detection plus stability of the t^rho-scaled deviation norm.

    Checks that rho < 1/2 is reported and that the median of
    t^rho * ||Z_t - c||_2 neither vanishes nor explodes across the decades
    horizon // 100, horizon // 10 and horizon, each ratio in RATIO_WINDOW.
    """
    g.check_reinforced()
    if horizon < 100:
        raise InvalidParamsError(f"suite subcritical needs horizon >= 100, got {horizon}")
    fl = theory.fluctuations(*normalised_rule(g, scheme), theory.REGIME_SUBCRITICAL)
    horizons = [horizon // 100, horizon // 10, horizon]
    return fl, [check_ensemble(g, scheme, initial, horizon, runs, seed,
                               checkpoints=horizons, snapshot_times=horizons)]


def _subcritical_judge(results, prediction, tol):
    (result,), fl = results, prediction
    horizons = list(result.checkpoints)
    medians = []
    for t in horizons:
        norms = np.linalg.norm(result.z_at(t) - fl.c, axis=1)
        medians.append(float(t**fl.rho * np.median(norms)))
    # a vanished median has no ratio: null, and the check fails
    ratios = [b / a if a else None for a, b in zip(medians, medians[1:])]
    lo, hi = RATIO_WINDOW
    report = {
        "suite": "subcritical",
        "rho": fl.rho,
        "regime": fl.regime,
        "horizons": horizons,
        "scaled_medians": medians,
        "ratios": ratios,
        "runs": result.runs,
    }
    return report, [
        ("rho", fl.rho, 0.5, fl.regime == theory.REGIME_SUBCRITICAL),
        ("ratios", ratios, [lo, hi], all(r is not None and lo <= r <= hi for r in ratios)),
    ]


def _polya_rate_plan(g, scheme, initial, horizon, runs, seed):
    """Log-log decay slope of the cross-sectional variance under an
    identity-type rule, against the predicted rate class: within
    SLOPE_HALFWIDTH either side of its exponent.  A horizon whose
    checkpoints leave the slope fit fewer than 5 points is refused, as are
    fewer than 2 runs, whose cross-run variance is identically zero."""
    _start(g, scheme, "polya-rate")
    if runs < 2:
        raise InvalidParamsError(f"suite polya-rate needs at least 2 runs, got {runs}")
    rate = theory.polya_rate_class(g.weighted_adjacency())
    checkpoints = geometric_checkpoints(horizon)
    ensemble = check_ensemble(g, scheme, initial, horizon, runs, seed, checkpoints=checkpoints)
    _slope_tail([t for t in checkpoints if t >= 1])  # as if every variance were positive
    return rate, [ensemble]


def least_squares_slope(x: np.ndarray, y: np.ndarray) -> tuple:
    """Least-squares slope of y on x and its standard error (0 for two points)."""
    x_c = x - x.mean()
    sxx = float(x_c @ x_c)
    slope = float(x_c @ y) / sxx
    resid = y - y.mean() - slope * x_c
    dof = len(x) - 2
    return slope, math.sqrt(max(float(resid @ resid), 0.0) / dof / sxx) if dof > 0 else 0.0


def _slope_tail(points: list) -> list:
    """The later half of the slope fit's points, refused below 5."""
    tail = points[len(points) // 2 :]
    if len(tail) < 5:
        raise InsufficientCheckpointsError(f"need at least 5 tail checkpoints, have {len(tail)}")
    return tail


def _polya_rate_judge(results, prediction, tol):
    (result,), rate = results, prediction
    lo, hi = rate.exponent - SLOPE_HALFWIDTH, rate.exponent + SLOPE_HALFWIDTH
    var = list(zip(result.checkpoints, result.var_phi))

    # Decay slope: log var_phi against log t on the later half of the
    # checkpoints whose variance is above rounding dust, with a
    # 1.96-standard-error halfwidth.  Graphs whose in-neighbourhoods all
    # coincide keep every urn identical, so no slope can be fitted there.
    tail = _slope_tail([(t, v) for t, v in var if t >= 1 and v > _VAR_FLOOR])
    slope, se = least_squares_slope(np.log([t for t, _ in tail]), np.log([v for _, v in tail]))

    # Log-correction diagnostic: slope of log(var * t) vs log log t is near 1
    # when the decay carries a log factor, near 0 for a clean 1/t law.
    log_tail = [(t, v) for t, v in var if t >= 2 and v > 0]
    log_tail = log_tail[len(log_tail) // 2 :]
    log_diag, _ = least_squares_slope(
        np.log(np.log([t for t, _ in log_tail])), np.log([v * t for t, v in log_tail])
    )
    report = {
        "suite": "polya-rate",
        "rate_class": asdict(rate),
        "slope": slope,
        "ci_halfwidth": 1.96 * se,
        "log_correction_diagnostic": log_diag,
        "t_window": [tail[0][0], tail[-1][0]],
        "horizon": result.horizon,
        "runs": result.runs,
    }
    return report, [("slope", slope, [lo, hi], lo <= slope <= hi)]


def _martingale_plan(g, scheme, initial, horizon, runs, seed):
    """Preservation of the cross-sectional mean under identity-type rules,
    which is a martingale on a regular undirected graph: any other rule or
    graph is refused, as are fewer than 2 runs (no standard error) and a
    horizon below 1 (zero drift by construction).  The prediction is the
    start's mean fraction, from which the horizon's may drift 3 SE."""
    _start(g, scheme, "martingale")
    if not g.is_regular_undirected():
        raise NotRegularError("martingale test needs a regular undirected graph")
    if runs < 2:
        raise InvalidParamsError(f"martingale test needs at least 2 runs, got {runs}")
    if horizon < 1:
        raise InvalidParamsError("martingale test needs a last checkpoint after t = 0")
    return float(initial.fractions().mean()), [
        check_ensemble(g, scheme, initial, horizon, runs, seed, checkpoints=[horizon])]


def _martingale_judge(results, prediction, tol):
    (result,), start_mean = results, prediction
    ones = np.ones(result.n)
    var_zbar = float(ones @ result.cov_final @ ones) / result.n**2
    se = math.sqrt(max(var_zbar, 0.0) / result.runs)
    drift = float(result.mean_z[-1].mean()) - start_mean
    report = {
        "suite": "martingale",
        "drift_estimate": drift,
        "threshold": 3.0 * se,
        "standard_error": se,
        "horizon": result.horizon,
        "runs": result.runs,
    }
    return report, [("abs_drift", abs(drift), 3.0 * se, abs(drift) <= 3.0 * se)]


def _oracle_plan(g, scheme, initial, horizon, runs, seed):
    """Simulator law against exact enumeration (`montecarlo.oracle_plan`),
    plus the exact one-step conditional mean identity."""
    g.check_reinforced()
    law, ensemble = montecarlo.oracle_plan(g, scheme, initial, horizon, runs, seed)
    one_step = montecarlo.brute_force_distribution(g, scheme, initial, 1)
    mean_exact = montecarlo.distribution_mean_fractions(one_step)
    mean_match = bool(mean_exact == expected_fractions_after_step(initial, g, scheme))
    return (law, mean_match), [ensemble]


def _oracle_judge(results, prediction, tol):
    (result,), (law, mean_match) = results, prediction
    rep = montecarlo.oracle_judge(law, result)
    report = {
        "suite": "oracle",
        "tv_distance": rep.tv_distance,
        "support_size": rep.support_size,
        "one_step_mean_exact_match": mean_match,
        "horizon": result.horizon,
        "runs": result.runs,
    }
    return report, [
        ("tv_distance", rep.tv_distance, rep.threshold, rep.passed),
        ("one_step_mean_exact_match", mean_match, True, mean_match),
    ]


def _ode_tracking_plan(g, scheme, initial, horizon, runs, seed):
    """Fraction of seeded runs whose sup-norm distance from the noise-free
    companion path stays within `tol`, which must reach REQUIRED_FRACTION.

    The companion is the conditional-mean recursion, an Euler path of the
    limit ODE with the process's own step sizes; deviation is measured in
    sup norm from ODE_START_TIME onward, so a shorter horizon is refused: it
    would measure no step and pass.  The prediction is that start.
    """
    if horizon < ODE_START_TIME:
        raise InvalidParamsError(
            f"suite ode-tracking needs horizon >= {ODE_START_TIME}, got {horizon}")
    g.check_reinforced()
    ensemble = check_ensemble(g, scheme, initial, horizon, runs, seed, checkpoints=(),
                              deviation_start=ODE_START_TIME)
    ensemble["reference_path"] = mean_field_path(g, scheme, initial, horizon)
    return ODE_START_TIME, [ensemble]


def _ode_tracking_judge(results, prediction, tol):
    (result,) = results
    frac_ok = float(np.mean(result.sup_dev <= tol))
    report = {
        "suite": "ode-tracking",
        "fraction_within": frac_ok,
        "start_time": prediction,
        "max_sup_deviation": float(result.sup_dev.max()),
        "runs": result.runs,
        "horizon": result.horizon,
    }
    return report, [
        ("fraction_within", frac_ok, REQUIRED_FRACTION, frac_ok >= REQUIRED_FRACTION),
    ]


def _heterogeneous_plan(g, scheme, initial, horizon, runs, seed):
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

    # Star of influencers: d1 senders in camp one, d2 in camp two, all
    # fully white, only the centre is reinforced.
    d1, d2 = 3, 2
    d = d1 + d2
    m_star = 5
    camp1 = ReplacementMatrix(4, 2, m_star)
    camp2 = ReplacementMatrix(1, 2, m_star)
    centre = ReplacementMatrix(m_star, m_star, m_star)  # centre sends nothing (no out-edges)
    g_star = DirectedGraph(n_vertices=d + 1, edges=frozenset((j, 1) for j in range(2, d + 2)))
    scheme_star = HeterogeneousScheme((centre,) + (camp1,) * d1 + (camp2,) * d2)
    init_star = UrnState(
        white=np.array([1] + [1] * d, dtype=np.int64),
        black=np.array([1] + [0] * d, dtype=np.int64),
    )
    ensembles = [
        check_ensemble(g2, scheme2, default_initial_state(2), horizon, runs, seed, [horizon]),
        check_ensemble(g_star, scheme_star, init_star, horizon, runs, seed + 1, [horizon]),
    ]

    a_sum, b_sum = r1.a + r2.a, r1.b + r2.b
    expected2 = (1 - b_sum / (2 * m)) / (2 - a_sum / (2 * m) - b_sum / (2 * m))
    limit2 = theory.heterogeneous_limit(g2, scheme2)
    expected_star = (camp1.alpha * d1 + camp2.alpha * d2) / d
    limit_star = theory.heterogeneous_limit(g_star, scheme_star,
                                            frozen_fractions=np.ones(d + 1))

    # Threshold sweep, tied to the limit solver: with its senders fully white
    # the centre's limit is their mean alpha, so the first d1 at which it
    # reaches the target is the threshold.  Counts over m = 20: exact ties.
    sweep_ok = True
    for dd in range(1, 21):
        g_sweep = DirectedGraph(dd + 1, frozenset((j, 1) for j in range(2, dd + 2)))
        for a, r, target in ((18, 2, 10), (12, 4, 11), (6, 6, 8), (4, 2, 18)):
            camps = (ReplacementMatrix(a, 0, 20), ReplacementMatrix(r, 0, 20))
            first = next((d1 for d1 in range(dd + 1) if theory.heterogeneous_limit(
                g_sweep, HeterogeneousScheme((centre,) + (camps[0],) * d1 + (camps[1],) * (dd - d1)),
                frozen_fractions=np.ones(dd + 1),
            )[0] >= target / 20 - EXACT_TOL), None)
            exact = (Fraction(x, 20) for x in (a, r, target))
            sweep_ok &= first == theory.influence_threshold(dd, *exact)

    exact = {
        "two_node_expected": expected2,
        "two_node_exact_error": float(np.abs(limit2 - expected2).max()),
        "star_expected": expected_star,
        "star_exact_error": abs(float(limit_star[0]) - expected_star),
        "threshold_sweep_ok": sweep_ok,
    }
    return exact, ensembles


def _heterogeneous_judge(results, prediction, tol):
    (two_node, star), exact = results, prediction
    report = {
        "suite": "heterogeneous",
        **exact,
        "two_node_sim_error": float(np.abs(two_node.mean_z[-1] - exact["two_node_expected"]).max()),
        "star_sim_error": abs(float(star.mean_z[-1][0]) - exact["star_expected"]),
    }
    bounds = {"two_node_exact_error": EXACT_TOL, "star_exact_error": EXACT_TOL,
              "two_node_sim_error": tol, "star_sim_error": tol}
    checks = [(name, report[name], bound, report[name] <= bound) for name, bound in bounds.items()]
    sweep_ok = exact["threshold_sweep_ok"]
    return report, checks + [("threshold_sweep_ok", sweep_ok, True, sweep_ok)]


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
    """A suite: `plan(g, scheme, initial, horizon, runs, seed)` returns
    (prediction, a list of `run_ensemble` keyword sets), and
    `judge(results, prediction, tol)` returns (report, checks) from those
    ensembles' results in order.  `graph` builds the suite's graph (None
    when the plan builds its own), `rule` is its (a, b, m) and `initial`
    maps the vertex count to its start state (None when the plan builds its
    own start states); these, `horizon`, `runs`, `seed` and `tol` (None
    when the suite takes none) are the defaults of every caller, the CLI
    included.
    """

    plan: Callable[..., tuple]
    judge: Callable[..., tuple]
    graph: Callable[[], DirectedGraph] | None
    rule: tuple | None
    initial: Callable[[int], UrnState] | None
    horizon: int
    runs: int
    seed: int
    tol: float | None = None

    def run(self, g=None, scheme=None, initial=None, *, horizon=None, runs=None, seed=None,
            tol=None) -> dict:
        """Plan, simulate each planned ensemble, judge, attach the verdict.  An
        argument left None takes the row's value, so a call with the CLI's
        flags runs the CLI's experiment."""
        if tol is not None and self.tol is None:
            raise TypeError("this suite takes no tol")
        if self.graph is None:
            if any(arg is not None for arg in (g, scheme, initial)):
                raise TypeError("this suite builds its own graphs, rules and start states")
        else:
            g = self.graph() if g is None else g
            scheme = ReplacementMatrix(*self.rule) if scheme is None else scheme
            initial = self.initial(g.n) if initial is None else initial
        prediction, ensembles = self.plan(
            g, scheme, initial, self.horizon if horizon is None else horizon,
            self.runs if runs is None else runs, self.seed if seed is None else seed,
        )
        results = [run_ensemble(**ensemble) for ensemble in ensembles]
        return _verdict(*self.judge(results, prediction, self.tol if tol is None else tol))


SUITES = {
    # plan, judge, default graph, rule, start state, horizon, runs, seed[, tol]
    "consensus": Suite(_consensus_plan, _consensus_judge, _graph("d_regular_random", 1, n=10, d=3),
                       (1, 1, 4), default_initial_state, 100_000, 200, 2024, 0.02),
    "clt": Suite(functools.partial(_clt_plan, theory.REGIME_SQRT_T), _clt_judge,
                 _graph("complete_with_loops", n=2), (1, 1, 4), default_initial_state,
                 10_000, 5000, 11, 0.15),
    "clt-critical": Suite(functools.partial(_clt_plan, theory.REGIME_CRITICAL), _clt_judge,
                          _graph("complete_with_loops", n=4), (3, 3, 4), default_initial_state,
                          100_000, 5000, 13, 0.20),
    # loopless: with self-loops all urns stay identical and the
    # cross-sectional variance is identically zero
    "polya-rate": Suite(_polya_rate_plan, _polya_rate_judge, _graph("complete", n=5),
                        (1, 1, 1), default_initial_state, 100_000, 500, 19),
    "martingale": Suite(_martingale_plan, _martingale_judge, _graph("cycle_directed", n=2),
                        (1, 1, 1), _alternating(3, 1), 10_000, 2000, 23),
    "oracle": Suite(_oracle_plan, _oracle_judge, _graph("cycle_directed", n=2),
                    (1, 1, 1), default_initial_state, 1, 100_000, 29),
    "ode-tracking": Suite(_ode_tracking_plan, _ode_tracking_judge, _graph("star_undirected", n=5),
                          (1, 1, 4), _alternating(9, 1), 100_000, 100, 31, 0.05),
    "subcritical": Suite(_subcritical_plan, _subcritical_judge, _graph("cycle_undirected", n=5),
                         (0, 0, 1), default_initial_state, 100_000, 200, 17),
    "heterogeneous": Suite(_heterogeneous_plan, _heterogeneous_judge, None,
                           None, None, 100_000, 64, 37, 0.02),
}

# the runners, in table order
(verify_consensus, verify_clt, verify_clt_critical, verify_polya_rate, verify_martingale,
 verify_oracle, verify_ode_tracking, verify_subcritical, verify_heterogeneous) = (
    suite.run for suite in SUITES.values())
