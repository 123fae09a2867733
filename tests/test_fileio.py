"""Round trips and provenance for the on-disk formats."""

import io
import json

import pytest

from urnnet import fileio
from urnnet.dynamics import default_initial_state, run_trajectory, ReplacementMatrix
from urnnet.errors import InvalidParamsError
from urnnet.graph import DirectedGraph, generate_graph
from urnnet.montecarlo import run_ensemble


def test_edge_list_round_trip(tmp_path):
    g = generate_graph("d_regular_random", {"n": 10, "d": 3}, seed=4)
    path = tmp_path / "g.edges"
    fileio.write_edge_list(g, path)
    back = fileio.read_edge_list(path)
    assert back.n_vertices == g.n_vertices
    assert back.edges == g.edges


def test_edge_list_isolated_vertices_survive(tmp_path):
    g = DirectedGraph(4, frozenset({(1, 2)}))
    path = tmp_path / "g.edges"
    fileio.write_edge_list(g, path)
    back = fileio.read_edge_list(path)
    assert back.n_vertices == 4 and back.edges == g.edges


def test_json_mirror_round_trip(tmp_path):
    g = generate_graph("star_undirected", {"n": 5})
    path = tmp_path / "g.json"
    fileio.write_graph_json(g, path)
    assert fileio.read_graph(path).edges == g.edges


def test_edge_list_malformed(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("2 2\n1 2\n")
    with pytest.raises(InvalidParamsError):
        fileio.read_edge_list(path)
    path.write_text("2 one\n")
    with pytest.raises(InvalidParamsError):
        fileio.read_edge_list(path)


def test_initial_state_round_trip(tmp_path):
    path = tmp_path / "init.json"
    path.write_text('{"black": [1, 3], "white": [3, 1]}\n')
    back = fileio.read_initial_state(path)
    assert back.white.tolist() == [3, 1] and back.black.tolist() == [1, 3]
    assert back.time == 0


def test_config_text_round_trip(tmp_path):
    cfg = {"a": "1", "horizon": "100", "out": "x.csv"}
    path = tmp_path / "run.cfg"
    path.write_text("a = 1\nhorizon = 100\nout = x.csv\n")
    assert fileio.read_config(path) == cfg
    path.write_text("# comment\n\na = 1\n")
    assert fileio.read_config(path) == {"a": "1"}
    for bad in (b"not a pair\n", b"{not json\n", b'{"result": {}}\n', b"\xb0\x00"):
        path.write_bytes(bad)
        with pytest.raises(InvalidParamsError):
            fileio.read_config(path)


def test_trajectory_csv_provenance(tmp_path):
    g = generate_graph("cycle_directed", {"n": 2})
    traj = run_trajectory(g, ReplacementMatrix(1, 1, 1), default_initial_state(2), 10, 3)
    path = tmp_path / "traj.csv"
    cfg = {"command": "simulate", "horizon": "10", "seed": "3"}
    fileio.write_trajectory_csv(path, traj, cfg, version="0.1.0")
    text = path.read_text()
    assert text.splitlines()[0] == "# version = 0.1.0"
    assert "t,Z_1,Z_2" in text
    recovered = fileio.read_config(path)
    assert recovered == cfg
    jsonl = tmp_path / "traj.jsonl"
    fileio.write_trajectory_jsonl(jsonl, traj, cfg, version="0.1.0")
    assert fileio.read_config(jsonl) == cfg


def test_ensemble_json_and_summary(tmp_path):
    g = generate_graph("cycle_directed", {"n": 2})
    res = run_ensemble(g, ReplacementMatrix(1, 1, 1), default_initial_state(2), 50, 4, 8)
    cfg = {"command": "simulate", "runs": "4"}
    jpath = tmp_path / "ens.json"
    fileio.write_ensemble_json(jpath, res, cfg, version="0.1.0")
    payload = json.loads(jpath.read_text())
    assert payload["config"] == cfg
    assert payload["result"]["runs"] == 4
    assert fileio.read_config(jpath) == cfg

    cpath = tmp_path / "summary.csv"
    fileio.write_ensemble_summary_csv(cpath, res, cfg, version="0.1.0")
    header = [l for l in cpath.read_text().splitlines() if not l.startswith("#")][0]
    assert header == "t,mean_1,mean_2,var_phi"
    assert fileio.read_config(cpath) == cfg


def _streamed_json(payload) -> bytes:
    """The earlier writer: `json.dump` token by token, then a newline."""
    buf = io.StringIO()
    json.dump(payload, buf, sort_keys=True, indent=1)
    buf.write("\n")
    return buf.getvalue().encode("ascii")


def test_json_writers_keep_the_streamed_bytes(tmp_path):
    g = generate_graph("star_undirected", {"n": 4})
    res = run_ensemble(
        g, ReplacementMatrix(2, 1, 3), default_initial_state(4), 40, 9, 3,
        checkpoints=[0, 1, 7, 40],
    )
    cfg = {"command": "simulate", "runs": "9"}
    # the result as the earlier `to_dict` built it, element by element
    result = {
        "runs": res.runs,
        "horizon": res.horizon,
        "checkpoints": list(res.checkpoints),
        "n": res.n,
        "raw_seed": res.raw_seed,
        "mean_Z": [list(map(float, row)) for row in res.mean_z],
        "var_phi": list(map(float, res.var_phi)),
        "cov_Z_final": [list(map(float, row)) for row in res.cov_final],
        "initial_white": list(map(int, res.initial_white)),
        "initial_black": list(map(int, res.initial_black)),
    }
    assert res.to_dict() == result
    path = tmp_path / "ens.json"
    fileio.write_ensemble_json(path, res, cfg, version="0.1.0")
    assert path.read_bytes() == _streamed_json(
        {"config": cfg, "version": "0.1.0", "result": result}
    )
    report = {"suite": "oracle", "passed": True, "tv": 0.0125, "rows": [[1, 2.5], [3, None]]}
    path = tmp_path / "report.json"
    fileio.write_report_json(path, report, cfg, version="0.1.0")
    assert path.read_bytes() == _streamed_json({"config": cfg, "version": "0.1.0", "report": report})
