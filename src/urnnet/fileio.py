"""File formats: edge lists, state files, configs, and result writers.

All writers are deterministic (sorted keys, repr floats, no timestamps), so
re-running a command from the config block embedded in its own output
reproduces the file byte for byte.
"""

from __future__ import annotations

import itertools
import json

import numpy as np

from .dynamics import HeterogeneousScheme, ReplacementMatrix, UrnState
from .errors import InvalidParamsError
from .graph import DirectedGraph


def write_edge_list(g: DirectedGraph, path) -> None:
    """Plain text: first line "n m", then one "i j" line per edge (1-based)."""
    lines = [f"{g.n_vertices} {g.n_edges}"]
    lines += [f"{i} {j}" for i, j in g.sorted_edges()]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def read_edge_list(path) -> DirectedGraph:
    with open(path, "r", encoding="ascii") as fh:
        try:
            tokens = fh.read().split()
        except UnicodeDecodeError as exc:
            raise InvalidParamsError(f"{path}: not an ASCII edge list ({exc.reason})") from exc
    if len(tokens) < 2:
        raise InvalidParamsError(f"{path}: missing 'n m' header")
    try:
        n, m = int(tokens[0]), int(tokens[1])
        flat = [int(x) for x in tokens[2:]]
    except ValueError as exc:
        raise InvalidParamsError(f"{path}: non-integer token ({exc})") from exc
    if len(flat) != 2 * m:
        raise InvalidParamsError(f"{path}: expected {m} edges, found {len(flat) // 2}")
    edges = frozenset(zip(flat[0::2], flat[1::2]))
    if len(edges) != m:
        raise InvalidParamsError(f"{path}: duplicate edges in list")
    return DirectedGraph(n_vertices=n, edges=edges)


def _load_json(path):
    with open(path, "r", encoding="ascii") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise InvalidParamsError(f"{path}: malformed JSON ({exc})") from exc


def graph_to_json(g: DirectedGraph) -> dict:
    return {"n": g.n_vertices, "edges": [[i, j] for i, j in g.sorted_edges()]}


def _integers(values, what: str) -> list:
    """`values` as a list, refusing anything but JSON integers (booleans too),
    so that 2.7 or true is an error rather than a silently truncated 2 or 1."""
    values = list(values)
    if not all(type(v) is int for v in values):
        raise InvalidParamsError(f"{what} must be integers, got {values}")
    return values


def graph_from_json(payload: dict) -> DirectedGraph:
    try:
        n, edges = payload["n"], [tuple(e) for e in payload["edges"]]
    except (KeyError, TypeError) as exc:
        raise InvalidParamsError(f"bad graph JSON: {exc}") from exc
    if any(len(e) != 2 for e in edges):
        raise InvalidParamsError("bad graph JSON: every edge needs two vertices")
    _integers([n, *itertools.chain(*edges)], "bad graph JSON: n and edge vertices")
    return DirectedGraph(n_vertices=n, edges=frozenset(edges))


def write_graph_json(g: DirectedGraph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(graph_to_json(g), fh, sort_keys=True)
        fh.write("\n")


def read_graph_json(path) -> DirectedGraph:
    return graph_from_json(_load_json(path))


def read_graph(path) -> DirectedGraph:
    """Dispatch on extension: .json uses the JSON mirror, anything else the
    edge-list text format."""
    if str(path).endswith(".json"):
        return read_graph_json(path)
    return read_edge_list(path)


def read_initial_state(path) -> UrnState:
    payload = _load_json(path)
    try:
        white, black = (
            np.array(_integers(payload[k], f"bad initial state JSON: {k}"), dtype=np.int64)
            for k in ("white", "black")
        )
    except (KeyError, TypeError) as exc:
        raise InvalidParamsError(f"bad initial state JSON: {exc}") from exc
    return UrnState(white=white, black=black, time=0)


def read_hetero_scheme(path) -> HeterogeneousScheme:
    """JSON list with one {"a": .., "b": .., "m": ..} record of integers per vertex."""
    rows = _load_json(path)
    try:
        values = [tuple(row[k] for k in "abm") for row in rows]
    except (KeyError, TypeError) as exc:
        raise InvalidParamsError(f"{path}: every record needs keys a, b, m ({exc!r})") from exc
    for abm in values:
        _integers(abm, f"{path}: a, b, m")
    return HeterogeneousScheme(tuple(ReplacementMatrix(*abm) for abm in values))


def read_config(path) -> dict:
    """The resolved configuration in a config file or in a program output.

    Reads a flat "key = value" file (blank lines and "#" comments skipped),
    the comment header of a CSV output, the "config" object of a JSON
    output, or the header line of a JSONL trajectory.  Values are strings;
    the version an output records is not part of its configuration.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidParamsError(f"{path}: not a text config ({exc.reason})") from exc
    if text.lstrip().startswith("{"):
        try:
            # the first JSON value: the whole of a JSON output, the header
            # line of a JSONL one
            payload, _ = json.JSONDecoder().raw_decode(text.lstrip())
        except ValueError as exc:
            raise InvalidParamsError(f"{path}: malformed JSON ({exc})") from exc
        config = payload.get("config")
        if not isinstance(config, dict):
            raise InvalidParamsError(f"{path}: JSON without a 'config' object")
        return {k: str(v) for k, v in config.items()}
    out = {}
    lines = text.splitlines()
    csv_header = bool(lines) and lines[0].startswith("# version = ")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if csv_header:
            if not line.startswith("# "):
                break  # end of the comment header, start of the CSV body
            line = line[2:]
        elif not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidParamsError(f"{path}: config line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        out[key.strip()] = value.strip()
    out.pop("version", None)
    return out


def provenance_comments(config: dict, version: str) -> list:
    lines = [f"# version = {version}"]
    lines += [f"# {k} = {config[k]}" for k in sorted(config)]
    return lines


def write_trajectory_csv(path, trajectory, config: dict, version: str) -> None:
    """Header "t,Z_1,...,Z_n" after a provenance comment block."""
    n = len(trajectory[0][1])
    lines = provenance_comments(config, version)
    lines.append("t," + ",".join(f"Z_{i}" for i in range(1, n + 1)))
    for t, z in trajectory:
        lines.append(f"{t}," + ",".join(repr(float(v)) for v in z))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trajectory_jsonl(path, trajectory, config: dict, version: str) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps({"config": config, "version": version}, sort_keys=True) + "\n")
        for t, z in trajectory:
            fh.write(json.dumps({"t": int(t), "z": [float(v) for v in z]}) + "\n")


def _write_json(path, payload: dict) -> None:
    """Indented, key-sorted JSON in one write: `json.dump` would make one
    small write per token."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(json.dumps(payload, sort_keys=True, indent=1) + "\n")


def write_ensemble_json(path, result, config: dict, version: str) -> None:
    _write_json(path, {"config": config, "version": version, "result": result.to_dict()})


def write_ensemble_summary_csv(path, result, config: dict, version: str) -> None:
    """Per-checkpoint rows "t,mean_1..mean_n,var_phi"."""
    lines = provenance_comments(config, version)
    lines.append(
        "t," + ",".join(f"mean_{i}" for i in range(1, result.n + 1)) + ",var_phi"
    )
    for k, t in enumerate(result.checkpoints):
        means = ",".join(repr(float(v)) for v in result.mean_z[k])
        lines.append(f"{t},{means},{repr(float(result.var_phi[k]))}")
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def write_report_json(path, report: dict, config: dict, version: str) -> None:
    _write_json(path, {"config": config, "version": version, "report": report})
