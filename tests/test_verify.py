"""Structure and serializability of the verification suite reports.

Statistical power lives in the acceptance tests; these runs use toy sizes
and only check report shape, JSON round-tripping, and obvious verdicts.
"""

import json
import os
import pickle
import subprocess
import sys

import pytest

from urnnet import cli, montecarlo, spectral, theory, verify
from urnnet.dynamics import (
    HeterogeneousScheme,
    ReplacementMatrix,
    UrnState,
    default_initial_state,
    run_trajectory,
    simulate_runs,
)
from urnnet.errors import InvalidParamsError, WrongRegimeError, ZeroInDegreeError
from urnnet.fileio import write_edge_list
from urnnet.graph import DirectedGraph, generate_graph

import numpy as np

from test_dynamics import _fake_blas
from test_spectral import _factorisations


def _check_report(report, suite):
    assert report["suite"] == suite
    assert isinstance(report["pass"], bool)
    json.dumps(report)


def test_consensus_report():
    g = generate_graph("complete_with_loops", {"n": 2})
    rep = verify.verify_consensus(g, ReplacementMatrix(1, 1, 4), horizon=2000, runs=50, seed=1)
    _check_report(rep, "consensus")
    assert rep["pass"]


def test_consensus_absurd_tolerance_fails():
    g = generate_graph("complete_with_loops", {"n": 2})
    rep = verify.verify_consensus(
        g, ReplacementMatrix(1, 1, 4), horizon=100, runs=10, seed=1, tol=1e-12
    )
    assert not rep["pass"]


@pytest.mark.parametrize("horizon", [0, 99])
def test_consensus_refuses_short_horizon(horizon):
    # the default start already sits at c = 1/2 for the rule (1, 1, 4)
    g = generate_graph("complete_with_loops", {"n": 2})
    with pytest.raises(InvalidParamsError, match="horizon >= 100"):
        verify.verify_consensus(g, ReplacementMatrix(1, 1, 4), horizon=horizon, runs=2)


def test_clt_report():
    g = generate_graph("complete_with_loops", {"n": 2})
    rep = verify.verify_clt(
        g, ReplacementMatrix(1, 1, 4), horizon=2000, runs=400, seed=2, tol=0.5
    )
    _check_report(rep, "clt")
    assert rep["closed_form_sweep"]["max_rel_error"] <= 1e-8


def test_clt_critical_report():
    g = generate_graph("complete_with_loops", {"n": 4})
    rep = verify.verify_clt_critical(
        g, ReplacementMatrix(3, 3, 4), horizon=5000, runs=400, seed=3, tol=0.5
    )
    _check_report(rep, "clt-critical")
    assert rep["rho"] == pytest.approx(0.5)


def test_clt_critical_factors_once(monkeypatch):
    g = generate_graph("complete_with_loops", {"n": 4})
    calls = _factorisations(monkeypatch)
    verify.verify_clt_critical(g, ReplacementMatrix(3, 3, 4), horizon=200, runs=20, seed=3)
    assert calls == [("eigh", (4, 4)), ("eig", (1, 1))]


def test_symmetric_critical_path_loads_no_scipy():
    # K4's A~ is symmetric: its form is eigh's, whose diagonal R needs none of
    # scipy's LAPACK wrappers, so the critical prediction and suite never
    # import scipy (about 20 MB of resident memory)
    src = os.path.dirname(os.path.dirname(verify.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys; from urnnet import theory, verify; "
        "from urnnet.dynamics import ReplacementMatrix; from urnnet.graph import generate_graph; "
        "g = generate_graph('complete_with_loops', {'n': 4}); "
        "theory.fluctuations(0.75, 0.75, g.weighted_adjacency()); "
        "verify.verify_clt_critical(g, ReplacementMatrix(3, 3, 4), horizon=50, runs=8, seed=3); "
        "print('scipy' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.strip() == "False"


def test_blas_cap_stays_in_the_theory_solves(monkeypatch):
    # the suite's prediction runs on one BLAS thread, but the ensemble's
    # moment reductions (about 1.3x faster on two threads at n = 200) keep
    # the caller's count
    lib = _fake_blas(monkeypatch, 3, 2)
    seen = {"solve": [], "moments": []}
    solve, moments = spectral.lyapunov_solve, montecarlo.EnsembleResult.from_moments

    def spy_solve(*args):
        seen["solve"].append(tuple(lib.counts))
        return solve(*args)

    def spy_moments(cls, *args, **kwargs):
        seen["moments"].append(tuple(lib.counts))
        return moments(*args, **kwargs)

    monkeypatch.setattr(spectral, "lyapunov_solve", spy_solve)
    monkeypatch.setattr(montecarlo.EnsembleResult, "from_moments", classmethod(spy_moments))
    suite = verify.SUITES["clt"]
    verify.verify_clt(suite.graph(), ReplacementMatrix(*suite.rule), horizon=100, runs=16, seed=2)
    assert seen["solve"] and set(seen["solve"]) == {(1, 1)}
    assert seen["moments"] == [(3, 2)] and lib.counts == [3, 2]


def test_blas_cap_holds_scipy_openblas_too():
    # scipy's wheel brings its own OpenBLAS; mapped before urnnet's first
    # lookup, neither library must be taken for the other, and the theory
    # solves hold both at one thread
    src = os.path.dirname(os.path.dirname(verify.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = """
import ctypes, json, os
import numpy as np, scipy, scipy.linalg
from urnnet import dynamics, spectral, theory
from urnnet.graph import generate_graph

def handle(package):
    root = os.path.dirname(package.__file__)
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
    for path in paths:
        if path.startswith(root):
            lib = ctypes.CDLL(path)
            for suffix in ("64_", ""):
                get = getattr(lib, "scipy_openblas_get_num_threads" + suffix, None)
                if get is not None:
                    put = getattr(lib, "scipy_openblas_set_num_threads" + suffix)
                    get.restype, put.argtypes = ctypes.c_int, [ctypes.c_int]
                    return get, put

numpy_lib, scipy_lib = handle(np), handle(scipy)
if numpy_lib is None or scipy_lib is None:
    print(json.dumps(None))
    raise SystemExit
for _, put in (numpy_lib, scipy_lib):
    put(2)  # a known start on any machine
address = lambda f: ctypes.cast(f, ctypes.c_void_p).value
found = [address(dynamics._openblas(package)[0]) for package in ("numpy", "scipy")]
found = found == [address(numpy_lib[0]), address(scipy_lib[0])]
seen, schur = [], spectral.schur_form
def spy(*args):
    seen.append([numpy_lib[0](), scipy_lib[0]()])
    return schur(*args)
spectral.schur_form = spy
g = generate_graph("erdos_renyi_min_indegree", {"n": 200, "p": 0.02}, seed=0)
theory.predict(g, 0.25, 0.25)
print(json.dumps([found, seen, [numpy_lib[0](), scipy_lib[0]()]]))
"""
    done = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, check=True, timeout=60,
    )
    result = json.loads(done.stdout)
    if result is None:
        pytest.skip("numpy and scipy do not each bring their own OpenBLAS here")
    # inside the solve both libraries read 1, and both read 2 again after it
    assert result == [True, [[1, 1]], [2, 2]]


@pytest.mark.parametrize("suite,rule", [("clt", ("3", "3", "4")), ("clt-critical", ("1", "1", "4"))])
def test_wrong_regime_refused_before_simulating(monkeypatch, capsys, suite, rule):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a rule of the wrong regime")

    monkeypatch.setattr(verify, "run_ensemble", no_simulation)
    a, b, m = rule
    assert cli.main(["verify", "--suite", suite, "--a", a, "--b", b, "--m", m]) == 2
    assert "regime" in capsys.readouterr().err


# a = b = 0 on a bipartite graph: A~ has the eigenvalue -1, so H = I + A~ is
# singular and each run has its own random limit; no suite may claim one
@pytest.mark.parametrize("suite", ["consensus", "subcritical", "clt"])
@pytest.mark.parametrize("family,n", [("cycle_undirected", 4), ("cycle_directed", 2)])
def test_singular_h_refused_before_simulating(monkeypatch, capsys, tmp_path, suite, family, n):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a rule without a unique limit")

    monkeypatch.setattr(verify, "run_ensemble", no_simulation)
    graph = tmp_path / "g.edges"
    write_edge_list(generate_graph(family, {"n": n}), graph)
    argv = ["verify", "--suite", suite, "--graph", str(graph), "--a", "0", "--b", "0"]
    assert cli.main(argv) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "singular" in err


# a Polya-type rule, however it is spelled, has a singular H like the rules
# above: the same one refusal in every suite that needs a unique limit
@pytest.mark.parametrize("spelling", ["polya", "hetero"])
@pytest.mark.parametrize("suite", ["consensus", "subcritical", "clt", "clt-critical"])
def test_polya_rule_refused_before_simulating(monkeypatch, capsys, tmp_path, suite, spelling):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a rule without a unique limit")

    monkeypatch.setattr(verify, "run_ensemble", no_simulation)
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps([{"a": 2, "b": 2, "m": 2}] * verify.SUITES[suite].graph().n))
    flag = ["--polya"] if spelling == "polya" else ["--hetero", str(rules)]
    assert cli.main(["verify", "--suite", suite, *flag]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "singular" in err


@pytest.mark.parametrize("suite,seed", [
    ("heterogeneous", "18446744073709551615"),  # the star's ensemble takes seed + 1
    ("ode-tracking", "18446744073709551616"),
])
def test_bad_seed_refused_before_simulating(monkeypatch, capsys, suite, seed):
    # every planned ensemble is checked before the mean-field path, the exact
    # solves and the first simulation
    def no_work(*args, **kwargs):
        raise AssertionError("worked on a seed the engine refuses")

    monkeypatch.setattr(verify, "run_ensemble", no_work)
    monkeypatch.setattr(verify, "mean_field_path", no_work)
    monkeypatch.setattr(theory, "heterogeneous_limit", no_work)
    assert cli.main(["verify", "--suite", suite, "--seed", seed]) == 2
    assert capsys.readouterr().err == "error: master seed must fit in 64 bits\n"


def _suite_args(suite):
    """A suite's default graph, rule and start state, as its plan takes them."""
    if suite.graph is None:
        return None, None, None
    g = suite.graph()
    return g, ReplacementMatrix(*suite.rule), suite.initial(g.n)


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_suite_is_a_plan_and_a_pure_judge(monkeypatch, name):
    suite = verify.SUITES[name]
    horizon, runs = (2, 2000) if name == "oracle" else (2000, 16)
    args = _suite_args(suite)

    def no_simulation(*a, **k):
        raise AssertionError("a plan simulated")

    with monkeypatch.context() as m:
        for module in (verify, montecarlo):
            m.setattr(module, "run_ensemble", no_simulation)
        m.setattr(montecarlo, "simulate_runs", no_simulation)
        prediction, ensembles = suite.plan(*args, horizon, runs, 5)
    assert len(ensembles) == (2 if name == "heterogeneous" else 1)
    results = [montecarlo.run_ensemble(**ensemble) for ensemble in ensembles]
    stored = pickle.dumps((results, prediction))
    reports = [json.dumps(verify._verdict(*suite.judge(results, prediction, suite.tol)),
                          sort_keys=True) for _ in range(2)]
    assert reports[0] == reports[1]
    assert pickle.dumps((results, prediction)) == stored
    run = suite.run(*(a for a in args if a is not None), horizon=horizon, runs=runs, seed=5)
    assert json.dumps(run, sort_keys=True) == reports[0]
    assert getattr(verify, "verify_" + name.replace("-", "_")).__self__ is suite


def test_suite_refuses_arguments_it_would_ignore():
    g = verify.SUITES["polya-rate"].graph()
    with pytest.raises(TypeError, match="no tol"):
        verify.verify_polya_rate(g, horizon=100, runs=4, tol=0.1)
    with pytest.raises(TypeError, match="graph"):
        verify.verify_heterogeneous(g, horizon=100, runs=4)
    with pytest.raises(TypeError, match="graph"):
        verify.verify_heterogeneous(initial=default_initial_state(2), horizon=100, runs=4)
    # a graph suite given no graph runs its row's
    row_graph = verify.verify_consensus(verify.SUITES["consensus"].graph(), horizon=100, runs=4)
    assert verify.verify_consensus(horizon=100, runs=4) == row_graph


def test_ode_tracking_keeps_every_bit_through_the_pool(monkeypatch):
    monkeypatch.setattr(montecarlo, "_BATCH_RUNS", 4)  # three batches on two workers
    suite = verify.SUITES["ode-tracking"]
    g, scheme, initial = _suite_args(suite)
    prediction, (ensemble,) = suite.plan(g, scheme, initial, 1500, 10, 31)
    one, pooled = (montecarlo.run_ensemble(**ensemble, workers=w) for w in (1, 2))
    # merged in run order: one batch of all ten runs gives the same row
    alone = simulate_runs(g, scheme, initial, 1500, 31, range(10),
                          reference_path=ensemble["reference_path"], deviation_start=1000)
    assert one.sup_dev.tobytes() == pooled.sup_dev.tobytes() == alone.sup_dev.tobytes()
    reports = [suite.judge([r], prediction, suite.tol)[0] for r in (one, pooled)]
    for key in ("fraction_within", "max_sup_deviation"):
        assert float.hex(reports[0][key]) == float.hex(reports[1][key])

    def no_pool(workers):
        raise AssertionError("started the pool for a path of the wrong shape")

    monkeypatch.setattr(montecarlo, "_batch_pool", no_pool)
    short = {**ensemble, "reference_path": ensemble["reference_path"][:-1]}
    with pytest.raises(InvalidParamsError, match="reference path must have shape"):
        montecarlo.run_ensemble(**short, workers=2)


def _alternating_rules(n, *rules):
    return HeterogeneousScheme(tuple(ReplacementMatrix(*rules[i % 2]) for i in range(n)))


# per-vertex rules at each suite's default tolerance or window: the suite
# graphs, with rules alternating along the vertices
@pytest.mark.parametrize("seed", [2024, 2025])
def test_consensus_per_vertex_rule(seed):
    g = verify.SUITES["consensus"].graph()
    scheme = _alternating_rules(g.n, (1, 2, 4), (3, 1, 4))
    rep = verify.verify_consensus(g, scheme, horizon=10_000, runs=200, seed=seed)
    _check_report(rep, "consensus")
    limit = theory.heterogeneous_limit(g, scheme)
    assert rep["target"] == limit.tolist() and limit.max() - limit.min() > 0.4
    assert rep["pass"] and rep["max_abs_deviation"] <= 1e-3


@pytest.mark.parametrize("seed", [17, 18])
def test_subcritical_per_vertex_rule(seed):
    g = verify.SUITES["subcritical"].graph()
    rep = verify.verify_subcritical(g, _alternating_rules(g.n, (0, 0, 1), (0, 0, 2)), seed=seed)
    _check_report(rep, "subcritical")
    assert rep["rho"] == pytest.approx(0.140, abs=1e-3)
    assert rep["pass"]


def _six_rule_er_graph():
    """A directed graph with in-degrees 1, 3, 1, 1, 5, 1 and six different
    rules: rho = 0.795, in the sqrt(t) regime."""
    g = generate_graph("erdos_renyi_min_indegree", {"n": 6, "p": 0.4}, seed=3)
    rules = [(3, 2, 4), (1, 2, 4), (2, 1, 3), (0, 1, 2), (4, 3, 5), (1, 1, 3)]
    return g, HeterogeneousScheme(tuple(ReplacementMatrix(*r) for r in rules))


PER_VERTEX_CLT = {
    "two_node": lambda: (
        generate_graph("complete_with_loops", {"n": 2}),
        HeterogeneousScheme((ReplacementMatrix(1, 2, 4), ReplacementMatrix(3, 1, 4))),
    ),
    "er6": _six_rule_er_graph,
}


@pytest.mark.parametrize("seed", [11, 12])
@pytest.mark.parametrize("case", PER_VERTEX_CLT)
def test_clt_per_vertex_rule(case, seed):
    # the sqrt(t)-scaled second moment about z* against B's Lyapunov solution
    g, scheme = PER_VERTEX_CLT[case]()
    rep = verify.verify_clt(g, scheme, horizon=10_000, runs=2048, seed=seed, tol=0.15)
    _check_report(rep, "clt")
    assert rep["pass"], rep["frobenius_rel_error"]


def test_clt_critical_accepts_per_vertex_rule(tmp_path, capsys):
    # alpha + beta = 3/2 at every vertex: B = A~ / 2, so rho = 1/2
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps([{"a": a, "b": 6 - a, "m": 4} for a in (3, 4, 2, 3)]))
    argv = ["verify", "--suite", "clt-critical", "--hetero", str(rules),
            "--horizon", "2000", "--runs", "64", "--seed", "5"]
    assert cli.main(argv) in (0, 1)
    report = json.loads(capsys.readouterr().out.rsplit("\nsuite ", 1)[0])
    assert report["rho"] == 0.5 and np.shape(report["sigma_theory"]) == (4, 4)


def test_threshold_sweep_follows_the_limit_solver(monkeypatch):
    # a centre limit off by 0.01 moves the first d1 that reaches the target
    solve = theory.heterogeneous_limit

    def off_centre(*args, **kwargs):
        z = solve(*args, **kwargs)
        z[0] -= 0.01
        return z

    monkeypatch.setattr(theory, "heterogeneous_limit", off_centre)
    rep = verify.verify_heterogeneous(horizon=200, runs=4, seed=9)
    assert rep["threshold_sweep_ok"] is False
    assert not rep["pass"]


@pytest.mark.parametrize(
    "suite,flags,message",
    [
        ("martingale", ["--runs", "1", "--horizon", "300000"], "at least 2 runs, got 1"),
        ("martingale", ["--runs", "2", "--horizon", "0"], "last checkpoint after t = 0"),
        ("martingale", ["--runs", "2", "--horizon", "-3"], "last checkpoint after t = 0"),
        ("martingale", ["--graph", "IRREGULAR", "--runs", "4", "--horizon", "300000"],
         "regular undirected graph"),
        # geometric_checkpoints(26) is the first grid with 9 points at t >= 1
        ("polya-rate", ["--horizon", "20"], "need at least 5 tail checkpoints, have 4"),
        ("polya-rate", ["--horizon", "25"], "need at least 5 tail checkpoints, have 4"),
        # one run has no cross-run variance: every var_phi is 0
        ("polya-rate", ["--runs", "1", "--horizon", "30"], "at least 2 runs, got 1"),
        ("clt-critical", ["--horizon", "1", "--runs", "3000"], "critical scaling needs t >= 2"),
    ],
    ids=["martingale-one-run", "martingale-horizon-0", "martingale-horizon-negative",
         "martingale-irregular", "polya-rate-horizon-20", "polya-rate-horizon-25",
         "polya-rate-one-run", "clt-critical-horizon-1"],
)
def test_refused_before_simulating(monkeypatch, capsys, tmp_path, suite, flags, message):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated an input the suite refuses")

    monkeypatch.setattr(verify, "run_ensemble", no_simulation)
    irregular = tmp_path / "g.edges"  # in-degrees 2 and 1
    write_edge_list(DirectedGraph(2, frozenset({(1, 1), (1, 2), (2, 1)})), irregular)
    flags = [str(irregular) if f == "IRREGULAR" else f for f in flags]
    assert cli.main(["verify", "--suite", suite, *flags]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def test_subcritical_report():
    g = generate_graph("cycle_undirected", {"n": 5})
    rep = verify.verify_subcritical(
        g, ReplacementMatrix(0, 0, 1), horizon=10_000, runs=60, seed=4
    )
    _check_report(rep, "subcritical")
    assert rep["rho"] < 0.5
    assert rep["horizons"] == [100, 1000, 10_000]
    assert len(rep["ratios"]) == 2


def test_subcritical_vanished_median_fails_check(capsys):
    # one run at seed 17: every urn sits exactly at c = 1/2 at t = 10, so the
    # scaled median there is 0 and its ratio is reported as null
    g = generate_graph("cycle_undirected", {"n": 5})
    for horizon, ratios in ((100, [0.0, None]), (1000, [None, pytest.approx(0.6738, abs=1e-4)])):
        rep = verify.verify_subcritical(g, ReplacementMatrix(0, 0, 1), horizon=horizon, runs=1)
        assert rep["ratios"] == ratios
        assert not rep["pass"] and not rep["checks"][1]["pass"]
        json.dumps(rep, allow_nan=False)
        argv = ["verify", "--suite", "subcritical", "--horizon", str(horizon), "--runs", "1"]
        assert cli.main(argv) == 1
        assert "suite subcritical: FAIL" in capsys.readouterr().out


def test_other_regimes_on_defective_graph_need_no_solve():
    # a critical rule on a path with loops, where the log-averaged Gram
    # solve refuses (H is defective): the subcritical suite reports its
    # failed rho check, and the sqrt(t) suite refuses the rule's regime
    edges = {(i, i) for i in range(1, 6)} | {(i, i + 1) for i in range(1, 5)}
    g = DirectedGraph(5, frozenset(edges))
    critical = ReplacementMatrix(3, 3, 4)
    rep = verify.verify_subcritical(g, critical, horizon=100, runs=4, seed=1)
    assert rep["regime"] == "gaussian_sqrt_tlogt"
    assert not rep["pass"] and not rep["checks"][0]["pass"]
    with pytest.raises(WrongRegimeError):
        verify.verify_clt(g, critical, horizon=100, runs=4, seed=1)


def test_polya_rate_report():
    g = generate_graph("complete", {"n": 5})
    rep = verify.verify_polya_rate(g, horizon=5000, runs=80, seed=5, slope_window=(-2.0, 0.0))
    _check_report(rep, "polya-rate")
    assert rep["rate_class"]["kind"] == "t_inv"


def test_martingale_report():
    g = generate_graph("cycle_directed", {"n": 2})
    rep = verify.verify_martingale(
        g, horizon=500, runs=200, seed=6, initial=UrnState(np.array([3, 1]), np.array([1, 3]))
    )
    _check_report(rep, "martingale")
    assert rep["pass"]


def test_oracle_report():
    g = generate_graph("cycle_directed", {"n": 2})
    rep = verify.verify_oracle(g, ReplacementMatrix(1, 1, 1), horizon=2, runs=5000, seed=7)
    _check_report(rep, "oracle")
    assert rep["one_step_mean_exact_match"]
    assert rep["pass"]


def test_ode_tracking_report():
    g = generate_graph("star_undirected", {"n": 5})
    initial = UrnState(np.array([9, 1, 9, 1, 5]), np.array([1, 9, 1, 9, 5]))
    rep = verify.verify_ode_tracking(
        g, ReplacementMatrix(1, 1, 4), initial, horizon=5000, runs=20, seed=8,
        tol=0.2, start_time=100,
    )
    _check_report(rep, "ode-tracking")
    assert 0.0 <= rep["fraction_within"] <= 1.0


def test_ode_tracking_refuses_horizon_before_start_time():
    # no step would reach start_time, so every deviation would stay 0 and pass
    g = generate_graph("star_undirected", {"n": 5})
    with pytest.raises(InvalidParamsError, match="horizon >= 1000"):
        verify.verify_ode_tracking(g, ReplacementMatrix(1, 1, 4), horizon=500, runs=4)
    rep = verify.verify_ode_tracking(
        g, ReplacementMatrix(1, 1, 4), horizon=100, runs=4, seed=8, start_time=100
    )
    assert rep["max_sup_deviation"] > 0.0


@pytest.mark.parametrize("runs", [0, -2])
def test_ode_tracking_refuses_nonpositive_runs(runs):
    g = generate_graph("star_undirected", {"n": 5})
    with pytest.raises(InvalidParamsError, match="runs must be >= 1"):
        verify.verify_ode_tracking(g, ReplacementMatrix(1, 1, 4), horizon=1000, runs=runs)


def test_unreinforced_urns_refused_by_suites_run_frozen_by_engine(monkeypatch):
    # four vertices all pointing at vertex 1; vertices 2-5 are never reinforced
    star = DirectedGraph(5, frozenset((j, 1) for j in range(2, 6)))
    for name, suite in verify.SUITES.items():
        if suite.graph is None:
            continue
        with pytest.raises(ZeroInDegreeError) as info:
            suite.run(star, ReplacementMatrix(*suite.rule), horizon=1000, runs=4)
        assert info.value.vertices == (2, 3, 4, 5), name

    init = UrnState(np.array([1, 1, 2, 3, 1]), np.array([1, 3, 1, 1, 1]))
    monkeypatch.setattr(montecarlo, "_BATCH_RUNS", 4)  # three batches on two workers
    res = montecarlo.run_ensemble(
        star, ReplacementMatrix(1, 1, 1), init, 20, 12, 5, snapshot_times=[20], workers=2
    )
    assert np.array_equal(res.snapshots[20][:, 1:], np.tile(init.white[1:], (12, 1)))
    assert np.array_equal(res.snapshot_totals[20][1:], init.totals()[1:])
    assert res.snapshots[20][:, 0].min() > 1  # the centre is reinforced
    rep = montecarlo.oracle_check(star, ReplacementMatrix(1, 1, 1), init, 1, 2000, 3)
    assert rep.support_size == 5 and rep.passed
    traj = run_trajectory(star, ReplacementMatrix(1, 2, 3), init, 30, 7)
    for _, z in traj:
        assert np.array_equal(z[1:], init.fractions()[1:])


def test_heterogeneous_report():
    rep = verify.verify_heterogeneous(horizon=5000, runs=16, seed=9, tol=0.05)
    _check_report(rep, "heterogeneous")
    assert rep["threshold_sweep_ok"]
    assert rep["two_node_exact_error"] <= 1e-12


def test_default_initial_used_when_omitted():
    g, rule = generate_graph("complete_with_loops", {"n": 2}), ReplacementMatrix(1, 1, 4)
    rep = verify.verify_consensus(g, rule, horizon=200, runs=20, seed=10)
    row = verify.SUITES["consensus"].initial(g.n)
    assert rep == verify.verify_consensus(g, rule, initial=row, horizon=200, runs=20, seed=10)
    # the start state reaches the result: another one moves the means
    skewed = UrnState(np.array([3, 1]), np.array([1, 3]))
    other = verify.verify_consensus(g, rule, initial=skewed, horizon=200, runs=20, seed=10)
    assert other["per_vertex_mean"] != rep["per_vertex_mean"]


@pytest.mark.parametrize("name", list(verify.SUITES))
def test_api_and_cli_run_one_experiment(capsys, name):
    """A row's run with the CLI's sizes is the CLI's experiment: every left-out
    input (graph, rule, start state) comes from the row on both sides."""
    horizon = 1 if name == "oracle" else 1000  # ode-tracking starts at t = 1000
    report = verify.SUITES[name].run(horizon=horizon, runs=8, seed=3)
    code = cli.main(["verify", "--suite", name, "--horizon", str(horizon), "--runs", "8",
                     "--seed", "3"])
    printed, verdict = capsys.readouterr().out.rsplit("\n", 2)[:2]
    assert printed == json.dumps(report, indent=1, sort_keys=True)
    assert verdict == f"suite {name}: {'PASS' if report['pass'] else 'FAIL'}"
    assert code == (0 if report["pass"] else 1)


@pytest.mark.parametrize("suite", list(verify.SUITES))
def test_suite_table_reports_checks(tmp_path, suite):
    """Every suite in the table runs from the CLI and reports its checks."""
    verify_parser = cli.build_parser()._subparsers._group_actions[0].choices["verify"]
    (suite_flag,) = [a for a in verify_parser._actions if a.dest == "suite"]
    assert list(suite_flag.choices) == list(verify.SUITES)

    out = tmp_path / "report.json"
    horizon = "1" if suite == "oracle" else "5000"  # the oracle enumerates every path
    code = cli.main([
        "verify", "--suite", suite, "--horizon", horizon, "--runs", "16", "--seed", "1",
        "--out", str(out),
    ])
    report = json.loads(out.read_text())["report"]
    assert code == (0 if report["pass"] else 1)
    assert report["suite"] == suite
    assert report["checks"]
    for check in report["checks"]:
        assert set(check) == {"name", "value", "bound", "pass"}
        assert isinstance(check["name"], str) and isinstance(check["pass"], bool)
    assert report["pass"] == all(check["pass"] for check in report["checks"])
