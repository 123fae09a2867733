"""Structure and serializability of the verification suite reports.

Statistical power lives in the acceptance tests; these runs use toy sizes
and only check report shape, JSON round-tripping, and obvious verdicts.
"""

import json

import pytest

from urnnet import cli, montecarlo, verify
from urnnet.dynamics import ReplacementMatrix, UrnState, default_initial_state, run_trajectory
from urnnet.errors import InvalidParamsError, WrongRegimeError, ZeroInDegreeError
from urnnet.fileio import write_edge_list
from urnnet.graph import DirectedGraph, generate_graph

import numpy as np

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
    assert calls == {"eigh": 1, "eig": 0, "schur": 0}


@pytest.mark.parametrize("suite,rule", [("clt", ("3", "3", "4")), ("clt-critical", ("1", "1", "4"))])
def test_wrong_regime_refused_before_simulating(monkeypatch, capsys, suite, rule):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated a rule of the wrong regime")

    monkeypatch.setattr(verify, "run_ensemble", no_simulation)
    a, b, m = rule
    assert cli.main(["verify", "--suite", suite, "--a", a, "--b", b, "--m", m]) == 2
    assert "regime" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--runs", "1", "--horizon", "300000"],
        ["--runs", "2", "--horizon", "0"],
        ["--runs", "2", "--horizon", "-3"],
        ["--graph", "IRREGULAR", "--runs", "4", "--horizon", "300000"],
    ],
)
def test_martingale_refused_before_simulating(monkeypatch, capsys, tmp_path, flags):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated an input the martingale test refuses")

    monkeypatch.setattr(verify, "run_ensemble", no_simulation)
    irregular = tmp_path / "g.edges"  # in-degrees 2 and 1
    write_edge_list(DirectedGraph(2, frozenset({(1, 1), (1, 2), (2, 1)})), irregular)
    flags = [str(irregular) if f == "IRREGULAR" else f for f in flags]
    assert cli.main(["verify", "--suite", "martingale", *flags]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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
    g = generate_graph("complete_with_loops", {"n": 2})
    rep = verify.verify_consensus(g, ReplacementMatrix(1, 1, 4), horizon=200, runs=20, seed=10)
    assert rep["runs"] == 20
    assert default_initial_state(2).fractions().tolist() == [0.5, 0.5]


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
