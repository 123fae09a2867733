"""Command-line behaviour: outputs, exit codes, reproducibility."""

import argparse
import json
from pathlib import Path

import pytest

import urnnet
from urnnet.cli import build_parser, main
from urnnet.fileio import read_edge_list, read_graph, write_edge_list
from urnnet.graph import DirectedGraph


def run_cli(*argv):
    return main(list(argv))


def test_generate_star(tmp_path, capsys):
    out = tmp_path / "star.edges"
    assert run_cli("generate", "--family", "star", "--n", "5", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "edges = 8" in printed
    assert "all vertices reinforced = True" in printed
    assert read_edge_list(out).n_edges == 8
    # --graph instead of --family re-writes a graph file, here as JSON
    mirror = tmp_path / "star.json"
    assert run_cli("generate", "--graph", str(out), "--out", str(mirror)) == 0
    assert read_graph(mirror) == read_edge_list(out)


def test_generate_cycle_undirected(tmp_path):
    out = tmp_path / "c6.edges"
    assert run_cli("generate", "--family", "cycle-undirected", "--n", "6", "--out", str(out)) == 0
    assert read_edge_list(out).n_edges == 12


def test_generate_er_reports_reinforced(tmp_path, capsys):
    out = tmp_path / "er.edges"
    code = run_cli(
        "generate", "--family", "er-min-indegree", "--n", "20", "--p", "0.1",
        "--seed", "1", "--out", str(out),
    )
    assert code == 0
    assert "all vertices reinforced = True" in capsys.readouterr().out


def test_generate_invalid_params_exit_2(tmp_path, capsys):
    assert run_cli("generate", "--family", "d-regular", "--n", "5", "--d", "3") == 2
    assert run_cli("generate", "--family", "star") == 2  # missing --n
    assert run_cli("generate", "--n", "5") == 2  # neither --family nor --graph
    # negative generator seeds
    assert run_cli("generate", "--family", "complete", "--n", "3", "--seed", "-1") == 2
    assert run_cli(
        "predict", "--family", "er-min-indegree", "--n", "5", "--p", "0.5", "--seed", "-3",
        "--a", "1", "--b", "1", "--m", "4",
    ) == 2
    assert run_cli(
        "simulate", "--family", "star", "--n", "3", "--a", "1", "--b", "1", "--horizon", "2",
        "--seed", "-1", "--out", str(tmp_path / "traj.csv"),
    ) == 2
    # too many vertices for a dense adjacency: n^2 * 8 bytes overflow, so
    # numpy refuses before allocating
    huge = tmp_path / "huge.edges"
    huge.write_text("2000000000 1\n1 1\n")
    capsys.readouterr()
    assert run_cli("generate", "--graph", str(huge)) == 2
    assert "n = 2000000000" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flags",
    [
        ["--family", "star", "--n", "5", "--d", "3", "--p", "0.5"],
        ["--family", "complete", "--n", "4", "--d", "2"],
        ["--family", "d-regular", "--n", "6", "--d", "3", "--p", "0.5"],
        ["--family", "er-min-indegree", "--n", "6", "--p", "0.5", "--d", "2"],
    ],
)
def test_generate_refuses_parameters_the_family_does_not_read(tmp_path, capsys, flags):
    out = tmp_path / "g.edges"
    assert run_cli("generate", *flags, "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_predict_star_friedman(tmp_path, capsys):
    graph = tmp_path / "star.edges"
    run_cli("generate", "--family", "star", "--n", "5", "--out", str(graph))
    capsys.readouterr()
    out = tmp_path / "report.json"
    code = run_cli(
        "predict", "--graph", str(graph), "--a", "1", "--b", "1", "--m", "2",
        "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())["report"]
    assert report["regime"] == "gaussian_sqrt_t"
    assert report["rho"] == pytest.approx(1.0)
    assert report["equilibrium"] == pytest.approx([0.5] * 5)
    # Friedman with alpha = 1/2 sends one ball of each colour whatever is
    # drawn, so the reinforcement noise vanishes.
    assert report["noise_var_C"] == pytest.approx(0.0)


def test_predict_polya_rate_class(tmp_path):
    graph = tmp_path / "c8.edges"
    run_cli("generate", "--family", "cycle-undirected", "--n", "8", "--out", str(graph))
    out = tmp_path / "report.json"
    assert run_cli("predict", "--graph", str(graph), "--polya", "--out", str(out)) == 0
    report = json.loads(out.read_text())["report"]
    assert report["regime"] == "polya"
    assert report["rate_class"]["kind"] == "t_pow"
    assert report["rate_class"]["exponent"] == pytest.approx(-0.5857864376269053)


def _write_in_star(path):
    # four vertices all pointing at vertex 1; vertex 1 sends nothing
    write_edge_list(DirectedGraph(5, frozenset({(j, 1) for j in range(2, 6)})), path)


def test_predict_violations_exit_3(tmp_path):
    graph = tmp_path / "instar.edges"
    _write_in_star(graph)
    assert run_cli("predict", "--graph", str(graph), "--a", "1", "--b", "2", "--m", "4") == 3


def test_predict_violations_allowed(tmp_path):
    graph = tmp_path / "instar.edges"
    _write_in_star(graph)
    out = tmp_path / "report.json"
    code = run_cli(
        "predict", "--graph", str(graph), "--a", "1", "--b", "2", "--m", "4",
        "--allow-violations", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())["report"]
    # alpha = 0.25, beta = 0.5: reinforced vertex tends to (1-beta)(alpha+beta)
    assert report["equilibrium"][0] == pytest.approx(0.375)
    assert report["equilibrium"][1:] == pytest.approx([0.5] * 4)
    assert report["reinforced"] == [True, False, False, False, False]


def test_predict_violations_homogeneous_in_star(tmp_path):
    # Unreinforced leaves keep their initial 1/2; the centre, fed only by
    # them, tends to (1/2 (a + b - m) + m - b) / m = 1/2 for a = b = 1, m = 4.
    graph = tmp_path / "instar.edges"
    _write_in_star(graph)
    out = tmp_path / "report.json"
    code = run_cli(
        "predict", "--graph", str(graph), "--a", "1", "--b", "1", "--m", "4",
        "--allow-violations", "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())["report"]
    assert report["equilibrium"] == pytest.approx([0.5] * 5, abs=1e-12)
    # normalized parameters name no integer rule to run the limit system on
    assert run_cli(
        "predict", "--graph", str(graph), "--alpha", "0.25", "--beta", "0.25",
        "--allow-violations",
    ) == 2


def test_predict_violations_agree_with_simulation(tmp_path):
    # Leaves frozen at 1/4 send the centre to (1/4 * -2 + 3) / 4 = 0.625.
    graph = tmp_path / "instar.edges"
    _write_in_star(graph)
    initial = tmp_path / "initial.json"
    initial.write_text(json.dumps({"white": [1] * 5, "black": [1, 3, 3, 3, 3]}))
    flags = [
        "--graph", str(graph), "--a", "1", "--b", "1", "--m", "4",
        "--initial", str(initial), "--allow-violations",
    ]
    report_path, ens_path = tmp_path / "report.json", tmp_path / "ens.json"
    assert run_cli("predict", *flags, "--out", str(report_path)) == 0
    assert run_cli(
        "simulate", *flags, "--horizon", "2000", "--runs", "64", "--seed", "3",
        "--checkpoints", "final", "--out", str(ens_path),
    ) == 0
    predicted = json.loads(report_path.read_text())["report"]["equilibrium"]
    simulated = json.loads(ens_path.read_text())["result"]["mean_Z"][-1]
    assert predicted == pytest.approx([0.625] + [0.25] * 4, abs=1e-12)
    assert simulated == pytest.approx(predicted, abs=0.01)


def test_predict_fractional_params(tmp_path):
    graph = tmp_path / "c5.edges"
    run_cli("generate", "--family", "cycle-undirected", "--n", "5", "--out", str(graph))
    out = tmp_path / "report.json"
    code = run_cli(
        "predict", "--graph", str(graph), "--alpha", "0.0", "--beta", "0.0",
        "--out", str(out),
    )
    assert code == 0
    report = json.loads(out.read_text())["report"]
    assert report["regime"] == "subcritical_t_rho"
    assert report["rho"] < 0.5


def test_predict_heterogeneous_limit(tmp_path):
    graph = tmp_path / "k2.edges"
    run_cli("generate", "--family", "complete-loops", "--n", "2", "--out", str(graph))
    hetero = tmp_path / "scheme.json"
    hetero.write_text(json.dumps([{"a": 1, "b": 2, "m": 4}, {"a": 3, "b": 1, "m": 4}]))
    out = tmp_path / "report.json"
    code = run_cli("predict", "--graph", str(graph), "--hetero", str(hetero), "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())["report"]
    assert report["heterogeneous_limit"] == pytest.approx([5 / 9, 5 / 9])


def test_predict_heterogeneous_singular_exit_4(tmp_path):
    graph = tmp_path / "k2.edges"
    run_cli("generate", "--family", "complete-loops", "--n", "2", "--out", str(graph))
    hetero = tmp_path / "scheme.json"
    hetero.write_text(json.dumps([{"a": 1, "b": 1, "m": 1}, {"a": 1, "b": 1, "m": 1}]))
    assert run_cli("predict", "--graph", str(graph), "--hetero", str(hetero)) == 4


def test_numerical_errors_share_one_class(monkeypatch, capsys):
    from urnnet import errors, theory

    six = (
        errors.SingularMatrixError, errors.SingularSylvesterError,
        errors.SingularLimitSystemError, errors.NotCriticalRegimeError,
        errors.NonDiagonalizableError, errors.EigenConvergenceError,
    )
    for cls in six:
        assert issubclass(cls, errors.NumericalError)
        exc = cls(2.0) if cls is errors.SingularMatrixError else cls("injected")

        def fail(*args, exc=exc):
            raise exc

        monkeypatch.setattr(theory, "predict", fail)
        assert run_cli("predict", "--family", "complete", "--n", "3", "--polya") == 4
        assert capsys.readouterr().err == f"error: {exc}\n"


def test_simulate_trajectory_reproducible(tmp_path):
    graph = tmp_path / "star.edges"
    run_cli("generate", "--family", "star", "--n", "5", "--out", str(graph))
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    args = [
        "simulate", "--graph", str(graph), "--a", "0", "--b", "0", "--m", "1",
        "--horizon", "500", "--runs", "1", "--seed", "42",
    ]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    a, b = out1.read_bytes(), out2.read_bytes()
    assert a.replace(b"a.csv", b"") == b.replace(b"b.csv", b"")
    # identical command, identical path: byte-identical file
    first = out1.read_bytes()
    assert run_cli(*args, "--out", str(out1)) == 0
    assert out1.read_bytes() == first


def test_simulate_rerun_from_embedded_config(tmp_path):
    graph = tmp_path / "c2.edges"
    run_cli("generate", "--family", "cycle-directed", "--n", "2", "--out", str(graph))
    out1 = tmp_path / "traj.csv"
    assert run_cli(
        "simulate", "--graph", str(graph), "--polya", "--horizon", "100",
        "--runs", "1", "--seed", "7", "--out", str(out1),
    ) == 0
    # extract the embedded config and re-run from it
    cfg_path = tmp_path / "rerun.cfg"
    from urnnet.fileio import format_config, read_config

    cfg_path.write_text(format_config(read_config(out1)))
    out2 = tmp_path / "again.csv"
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out2)) == 0
    assert out1.read_bytes().replace(b"traj.csv", b"") == out2.read_bytes().replace(
        b"again.csv", b""
    )


@pytest.mark.parametrize(
    "command,flags,name",
    [
        ("simulate", ["--runs", "1"], "traj.csv"),
        ("simulate", ["--runs", "1", "--format", "jsonl"], "traj.jsonl"),
        ("simulate", ["--runs", "3"], "ens.json"),
        ("predict", [], "report.json"),
    ],
)
def test_rerun_from_output_file(tmp_path, command, flags, name):
    graph = tmp_path / "c2.edges"
    write_edge_list(DirectedGraph(2, frozenset({(1, 2), (2, 1)})), graph)
    setup = ["--graph", str(graph), "--a", "1", "--b", "1", "--m", "4"]
    if command == "simulate":
        setup += ["--horizon", "50", "--seed", "7"]
    first, again = tmp_path / name, tmp_path / f"again-{name}"
    assert run_cli(command, *setup, *flags, "--out", str(first)) == 0
    assert run_cli(command, "--config", str(first), "--out", str(again)) == 0
    assert again.read_bytes().replace(b"again-", b"") == first.read_bytes()


def test_simulate_rerun_from_config_with_threads(tmp_path):
    # configs written by 0.1.0 carry a threads key; they must still rerun
    graph = tmp_path / "c2.edges"
    run_cli("generate", "--family", "cycle-directed", "--n", "2", "--out", str(graph))
    out1, out2 = tmp_path / "ens.json", tmp_path / "again.json"
    assert run_cli(
        "simulate", "--graph", str(graph), "--polya", "--horizon", "50",
        "--runs", "3", "--seed", "7", "--out", str(out1),
    ) == 0
    from urnnet.fileio import format_config, read_config

    cfg = read_config(out1)
    assert "threads" not in cfg
    cfg_path = tmp_path / "old.cfg"
    cfg_path.write_text(format_config({**cfg, "threads": "1"}))
    assert run_cli("simulate", "--config", str(cfg_path), "--out", str(out2)) == 0
    assert out1.read_bytes().replace(b"ens.json", b"") == out2.read_bytes().replace(
        b"again.json", b""
    )


def test_simulate_ensemble_outputs(tmp_path):
    graph = tmp_path / "c2.edges"
    run_cli("generate", "--family", "cycle-directed", "--n", "2", "--out", str(graph))
    ens = tmp_path / "ens.json"
    summary = tmp_path / "summary.csv"
    code = run_cli(
        "simulate", "--graph", str(graph), "--polya", "--horizon", "200",
        "--runs", "16", "--seed", "5", "--out", str(ens), "--summary-out", str(summary),
    )
    assert code == 0
    payload = json.loads(ens.read_text())
    assert payload["result"]["runs"] == 16
    lines = [l for l in summary.read_text().splitlines() if not l.startswith("#")]
    assert lines[0] == "t,mean_1,mean_2,var_phi"
    assert len(lines) > 5


def test_simulate_refuses_rule_past_float32_exactness_exit_2(tmp_path, capsys):
    graph = tmp_path / "loop.edges"
    graph.write_text("1 1\n1 1\n")  # one urn reinforced by itself: it gains m a step
    argv = ("simulate", "--graph", str(graph), "--a", "1", "--b", "1", "--horizon", "5",
            "--out", str(tmp_path / "traj.csv"))
    assert run_cli(*argv, "--m", str(2**24)) == 2
    assert "exactness" in capsys.readouterr().err
    assert run_cli(*argv, "--m", str(2**24 - 1)) == 0


def test_simulate_jsonl_format(tmp_path):
    graph = tmp_path / "c2.edges"
    run_cli("generate", "--family", "cycle-directed", "--n", "2", "--out", str(graph))
    out = tmp_path / "traj.jsonl"
    code = run_cli(
        "simulate", "--graph", str(graph), "--polya", "--horizon", "10", "--runs", "1",
        "--seed", "1", "--format", "jsonl", "--checkpoints", "every", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 12  # header + 11 records
    rec = json.loads(lines[-1])
    assert rec["t"] == 10 and len(rec["z"]) == 2


def test_simulate_violations_exit_3(tmp_path):
    graph = tmp_path / "instar.edges"
    _write_in_star(graph)
    assert run_cli(
        "simulate", "--graph", str(graph), "--polya", "--horizon", "10", "--runs", "1",
        "--seed", "0",
    ) == 3


def test_simulate_multibatch_violations_exit_3(tmp_path, capsys):
    graph = tmp_path / "instar.edges"
    _write_in_star(graph)
    assert run_cli(
        "simulate", "--graph", str(graph), "--polya", "--horizon", "10", "--runs", "2048",
        "--seed", "0",
    ) == 3
    assert "zero in-degree at vertices (2, 3, 4, 5)" in capsys.readouterr().err


def test_verify_oracle_passes(tmp_path, capsys):
    graph = tmp_path / "c2.edges"
    run_cli("generate", "--family", "cycle-directed", "--n", "2", "--out", str(graph))
    capsys.readouterr()
    code = run_cli(
        "verify", "--suite", "oracle", "--graph", str(graph), "--polya",
        "--horizon", "1", "--runs", "20000", "--seed", "3",
    )
    assert code == 0
    assert "suite oracle: PASS" in capsys.readouterr().out


def test_verify_consensus_fails_with_absurd_tolerance(tmp_path):
    code = run_cli(
        "verify", "--suite", "consensus", "--horizon", "100", "--runs", "10",
        "--seed", "1", "--tol", "1e-9",
    )
    assert code == 1


def test_verify_report_file(tmp_path):
    out = tmp_path / "verdict.json"
    code = run_cli(
        "verify", "--suite", "martingale", "--horizon", "300", "--runs", "200",
        "--seed", "2", "--out", str(out),
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["suite"] == "martingale"
    assert payload["report"]["pass"] is True


def test_verify_clt_report_file_is_reproducible(tmp_path):
    out = tmp_path / "clt.json"
    written = []
    for _ in range(2):
        assert run_cli(
            "verify", "--suite", "clt", "--horizon", "500", "--runs", "50", "--seed", "4",
            "--out", str(out),
        ) in (0, 1)
        written.append(out.read_bytes())
    assert written[0] == written[1]


# Flags the suite cannot use, rules its theory does not cover, a subcritical
# horizon too short for three decades, a consensus horizon that would mostly
# measure the start state, an ode-tracking horizon that ends before the
# deviation is measured, ode-tracking without runs, and the vacuous verdicts:
# a martingale drift at t = 0 or from one run, which has no standard error,
# and an oracle at t = 0, which compares the start state with itself.  The
# small sizes keep the run short should a case be accepted by mistake.
@pytest.mark.parametrize(
    "suite, flags",
    [
        ("polya-rate", ["--tol", "1e-30"]),
        ("martingale", ["--tol", "1e-30"]),
        ("oracle", ["--tol", "1e-30"]),
        ("subcritical", ["--tol", "1e-30"]),
        ("heterogeneous", ["--graph", "GRAPH"]),
        ("heterogeneous", ["--a", "1", "--b", "1"]),
        ("heterogeneous", ["--polya"]),
        ("heterogeneous", ["--hetero", "HETERO"]),
        ("polya-rate", ["--a", "0", "--b", "0"]),
        ("martingale", ["--a", "0", "--b", "0"]),
        ("consensus", ["--hetero", "HETERO"]),
        ("clt", ["--hetero", "HETERO"]),
        ("clt-critical", ["--hetero", "HETERO"]),
        ("subcritical", ["--hetero", "HETERO"]),
        ("subcritical", ["--horizon", "50"]),
        # --m alone, or beside another rule source, names no rule
        ("consensus", ["--m", "2"]),
        ("polya-rate", ["--polya", "--m", "3"]),
        ("heterogeneous", ["--m", "4"]),
        ("ode-tracking", ["--horizon", "500"]),
        ("ode-tracking", ["--runs", "0"]),
        ("ode-tracking", ["--runs", "-2"]),
        ("consensus", ["--horizon", "0"]),
        ("martingale", ["--horizon", "0", "--runs", "2"]),
        ("martingale", ["--horizon", "10", "--runs", "1"]),
        ("oracle", ["--horizon", "0", "--runs", "10"]),
    ],
)
def test_verify_refuses_flags_the_suite_cannot_use(tmp_path, capsys, suite, flags):
    n = {"consensus": 10, "clt-critical": 4, "subcritical": 5}.get(suite, 2)  # default graphs
    graph, hetero = tmp_path / "g.edges", tmp_path / "rules.json"
    write_edge_list(DirectedGraph(2, frozenset({(1, 2), (2, 1)})), graph)
    hetero.write_text(json.dumps([{"a": 1, "b": 2, "m": 4}] * n))
    flags = [{"GRAPH": str(graph), "HETERO": str(hetero)}.get(f, f) for f in flags]
    argv = ["verify", "--suite", suite, "--horizon", "1000", "--runs", "16", "--seed", "1"]
    if suite == "oracle":
        argv[4] = "1"
    assert run_cli(*argv, *flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


# Rule sources that exclude each other, --m or --alpha without its partners,
# files or formats the command would not read or write, and an oracle at
# t = 0.
@pytest.mark.parametrize(
    "command, flags",
    [
        ("simulate", ["--polya", "--m", "3"]),
        ("simulate", ["--hetero", "HETERO", "--a", "1", "--b", "1"]),
        ("simulate", ["--m", "2"]),
        ("simulate", ["--polya", "--runs", "2", "--format", "jsonl"]),
        ("simulate", ["--polya", "--summary-out", "SUMMARY"]),
        ("oracle", ["--polya", "--m", "3"]),
        ("oracle", ["--hetero", "HETERO", "--a", "1", "--b", "1"]),
        ("oracle", ["--m", "2"]),
        ("predict", ["--a", "1", "--alpha", "0.3", "--beta", "0.3"]),
        ("predict", ["--polya", "--alpha", "0.3", "--beta", "0.3"]),
        ("predict", ["--alpha", "0.3"]),
        ("predict", ["--polya", "--initial", "INITIAL"]),
        ("predict", ["--family", "star", "--n", "5", "--polya"]),
        ("generate", ["--n", "5"]),
        ("generate", ["--family", "star"]),
        ("simulate", ["--polya", "--d", "3"]),
        # every urn of the 2-cycle is reinforced, so no start state is read
        ("predict", ["--polya", "--allow-violations", "--initial", "INITIAL"]),
        ("oracle", ["--polya", "--horizon", "0"]),
    ],
)
def test_commands_refuse_flags_they_would_ignore(tmp_path, capsys, command, flags):
    graph, hetero = tmp_path / "c2.edges", tmp_path / "rules.json"
    initial = tmp_path / "initial.json"
    write_edge_list(DirectedGraph(2, frozenset({(1, 2), (2, 1)})), graph)
    hetero.write_text(json.dumps([{"a": 1, "b": 2, "m": 4}] * 2))
    initial.write_text(json.dumps({"white": [1, 2], "black": [2, 1]}))
    paths = {"HETERO": str(hetero), "INITIAL": str(initial), "SUMMARY": str(tmp_path / "s.csv")}
    argv = [command, "--graph", str(graph)]
    if command == "simulate":
        argv += ["--horizon", "2", "--out", str(tmp_path / "out")]
    elif command == "oracle":
        argv += ["--horizon", "2", "--runs", "16"]
    assert run_cli(*argv, *(paths.get(f, f) for f in flags)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == urnnet.__version__


def test_rule_flags_default_to_unset():
    # a default would be indistinguishable from a rule the user gave
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    seen = set()
    for command, parser in sub.choices.items():
        for action in parser._actions:
            if action.dest in ("a", "b", "m", "hetero", "alpha", "beta"):
                assert action.default is None, (command, action.dest)
            elif action.dest == "polya":
                assert action.default is False, command
            else:
                continue
            seen.add(command)
    assert seen == {"predict", "simulate", "verify", "oracle"}


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--polya", "--runs", "16"],
        ["verify", "--suite", "oracle", "--runs", "16"],
        # every other command and suite that claims a limit refuses the same way
        ["predict", "--a", "1", "--b", "2", "--m", "4"],
        ["simulate", "--polya", "--horizon", "10", "--runs", "1", "--out", "OUT"],
        ["simulate", "--polya", "--horizon", "10", "--runs", "2048", "--out", "OUT"],
        *(
            ["verify", "--suite", suite, "--runs", "16"]
            for suite in (
                "consensus", "clt", "clt-critical", "polya-rate", "martingale",
                "ode-tracking", "subcritical",
            )
        ),
    ],
)
def test_oracle_unreinforced_exit_3(tmp_path, capsys, argv):
    graph = tmp_path / "instar.edges"
    _write_in_star(graph)
    argv = [str(tmp_path / "out") if a == "OUT" else a for a in argv]
    assert run_cli(*argv, "--graph", str(graph)) == 3
    assert "zero in-degree at vertices (2, 3, 4, 5)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_old_configs_with_default_m_rerun(tmp_path):
    # 0.1.x wrote the old default m = 1 into every config, also beside --polya
    # and into rule-less verify runs
    from urnnet.fileio import format_config, read_config

    graph = tmp_path / "c2.edges"
    write_edge_list(DirectedGraph(2, frozenset({(1, 2), (2, 1)})), graph)
    out1, out2, cfg = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "old.cfg"
    assert run_cli(
        "simulate", "--graph", str(graph), "--polya", "--horizon", "50", "--seed", "7",
        "--out", str(out1),
    ) == 0
    old = read_config(out1)
    assert "m" not in old
    cfg.write_text(format_config({**old, "m": "1"}))
    assert run_cli("simulate", "--config", str(cfg), "--out", str(out2)) == 0

    def normalised(path):
        lines = path.read_text().replace(path.name, "OUT").splitlines()
        return [l for l in lines if not l.startswith("# version = ")]

    assert normalised(out2) == normalised(out1)
    cfg.write_text(format_config({
        "command": "verify", "suite": "consensus", "horizon": "100", "runs": "4",
        "seed": "1", "m": "1", "polya": "false",
    }))
    assert run_cli("verify", "--config", str(cfg)) in (0, 1)


def test_oracle_command(tmp_path, capsys):
    graph = tmp_path / "c2.edges"
    run_cli("generate", "--family", "cycle-directed", "--n", "2", "--out", str(graph))
    capsys.readouterr()
    code = run_cli(
        "oracle", "--graph", str(graph), "--a", "0", "--b", "0", "--horizon", "2",
        "--runs", "20000", "--seed", "9",
    )
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        run_cli("generate", "--family", "dodecahedron", "--n", "5")
    assert exc.value.code == 2


def test_missing_scheme_exit_2(tmp_path):
    graph = tmp_path / "c2.edges"
    run_cli("generate", "--family", "cycle-directed", "--n", "2", "--out", str(graph))
    assert run_cli("simulate", "--graph", str(graph), "--horizon", "5") == 2


def _bad_input_argv(tmp_path, case):
    """Command line for one malformed-input case."""
    graph = tmp_path / "c2.edges"
    write_edge_list(DirectedGraph(2, frozenset({(1, 2), (2, 1)})), graph)
    missing = str(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    predict = ["predict", "--graph", str(graph)]
    simulate = ["simulate", "--graph", str(graph), "--polya", "--horizon", "5"]
    if case == "missing-graph":
        return ["predict", "--graph", missing, "--polya"]
    if case == "directory-graph":
        return ["predict", "--graph", str(tmp_path), "--polya"]
    if case == "missing-initial":
        return simulate + ["--initial", missing]
    if case == "missing-hetero":
        return predict + ["--hetero", missing]
    if case == "missing-config":
        return ["simulate", "--config", missing]
    if case == "binary-graph":
        binary = tmp_path / "binary.edges"
        binary.write_bytes(b"\xff\xfe 2 1\n")
        return ["predict", "--graph", str(binary), "--polya"]
    text = {
        "hetero-no-a": '[{"b": 1, "m": 2}, {"a": 1, "b": 1, "m": 2}]',
        "hetero-no-b": '[{"a": 1, "m": 2}, {"a": 1, "b": 1, "m": 2}]',
        "hetero-no-m": '[{"a": 1, "b": 1}, {"a": 1, "b": 1, "m": 2}]',
        "hetero-float": '[{"a": 1.5, "b": 1, "m": 2}, {"a": 1, "b": 1, "m": 2}]',
        "hetero-string": '[{"a": "1", "b": 1, "m": 2}, {"a": 1, "b": 1, "m": 2}]',
        "hetero-not-records": "[1, 2]",
        "hetero-json": '[{"a": 1, "b": 1, "m": 2}',
        "initial-json": '{"white": [1, 1], "black": [1, 1',
        "graph-json": '{"n": 2, "edges": [[1, 2], [2, 1]',
        # numbers that int() would truncate into a valid input
        "graph-float-n": '{"n": 2.7, "edges": [[1, 2], [2, 1]]}',
        "graph-bool-n": '{"n": true, "edges": [[1, 1]]}',
        "graph-float-edge": '{"n": 2, "edges": [[1.0, 2], [2, 1]]}',
        "graph-string-edge": '{"n": 2, "edges": [["1", 2], [2, 1]]}',
        "initial-float": '{"white": [1.9, 1], "black": [1, 1]}',
        "initial-bool": '{"white": [1, 1], "black": [true, 1]}',
    }[case]
    bad.write_text(text)
    if case.startswith("hetero"):
        return predict + ["--hetero", str(bad)]
    if case.startswith("initial"):
        return simulate + ["--initial", str(bad)]
    return ["predict", "--graph", str(bad), "--polya"]


@pytest.mark.parametrize(
    "case",
    [
        "missing-graph", "directory-graph", "missing-initial", "missing-hetero",
        "missing-config", "binary-graph", "hetero-no-a", "hetero-no-b", "hetero-no-m", "hetero-float",
        "hetero-string", "hetero-not-records", "hetero-json", "initial-json", "graph-json",
        "graph-float-n", "graph-bool-n", "graph-float-edge", "graph-string-edge",
        "initial-float", "initial-bool",
    ],
)
def test_bad_input_files_exit_2(tmp_path, capsys, case):
    argv = _bad_input_argv(tmp_path, case)
    capsys.readouterr()
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
