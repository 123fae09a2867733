"""Command-line entry point.

Commands: generate, predict, simulate, verify, oracle.  Every output file
embeds its resolved configuration, and re-running the same command from that
configuration reproduces the file byte for byte.

Exit codes: 0 success, 1 verification failure, 2 usage or configuration
error, 3 a vertex without incoming edges where reinforcement is required,
4 numerical singularity.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__, fileio, theory, verify
from .dynamics import (
    HeterogeneousScheme,
    ReplacementMatrix,
    UrnState,
    default_initial_state,
    record_times,
    run_trajectory,
)
from .errors import (
    EigenConvergenceError,
    InvalidParamsError,
    NonDiagonalizableError,
    NotCriticalRegimeError,
    SingularLimitSystemError,
    SingularMatrixError,
    SingularSylvesterError,
    UrnNetError,
    ZeroInDegreeError,
)
from .graph import DirectedGraph, generate_graph
from .montecarlo import oracle_check, run_ensemble

_FAMILY_ALIASES = {
    "complete-loops": "complete_with_loops",
    "complete_with_loops": "complete_with_loops",
    "complete": "complete",
    "cycle-directed": "cycle_directed",
    "cycle_directed": "cycle_directed",
    "cycle-undirected": "cycle_undirected",
    "cycle_undirected": "cycle_undirected",
    "star": "star_undirected",
    "star_undirected": "star_undirected",
    "d-regular": "d_regular_random",
    "d_regular_random": "d_regular_random",
    "er-min-indegree": "erdos_renyi_min_indegree",
    "erdos_renyi_min_indegree": "erdos_renyi_min_indegree",
}

_NUMERICAL_ERRORS = (
    SingularMatrixError,
    SingularSylvesterError,
    SingularLimitSystemError,
    NotCriticalRegimeError,
    NonDiagonalizableError,
    EigenConvergenceError,
)


def _family_params(args) -> dict:
    params = {}
    if args.n is not None:
        params["n"] = args.n
    if args.d is not None:
        params["d"] = args.d
    if args.p is not None:
        params["p"] = args.p
    return params


def _load_graph(args) -> DirectedGraph:
    if getattr(args, "graph", None):
        return fileio.read_graph(args.graph)
    if getattr(args, "family", None):
        return generate_graph(_FAMILY_ALIASES[args.family], _family_params(args), args.seed)
    raise InvalidParamsError("need --graph FILE or --family NAME")


def _load_scheme(args, n: int):
    if getattr(args, "hetero", None):
        return fileio.read_hetero_scheme(args.hetero)
    if getattr(args, "polya", False):
        return ReplacementMatrix(1, 1, 1)
    if args.a is None or args.b is None:
        raise InvalidParamsError("need --a and --b (with --m), or --polya, or --hetero FILE")
    return ReplacementMatrix(args.a, args.b, args.m)


def _normalized_params(args, scheme=None):
    if getattr(args, "alpha", None) is not None and getattr(args, "beta", None) is not None:
        return args.alpha, args.beta
    if scheme is not None and isinstance(scheme, ReplacementMatrix):
        return scheme.alpha, scheme.beta
    raise InvalidParamsError("need --alpha/--beta or integer --a/--b/--m")


def _resolved_config(args, command: str) -> dict:
    skip = {"config", "func"}
    out = {"command": command}
    for key, value in sorted(vars(args).items()):
        if key in skip or value is None or key == "command":
            continue
        if isinstance(value, bool):
            out[key] = "true" if value else "false"
        elif isinstance(value, float):
            out[key] = repr(value)
        else:
            out[key] = str(value)
    return out


def _initial_state(args, n: int) -> UrnState:
    if getattr(args, "initial", None):
        state = fileio.read_initial_state(args.initial)
        if state.n != n:
            raise InvalidParamsError("initial state size does not match graph")
        return state
    return default_initial_state(n)


def cmd_generate(args) -> int:
    g = generate_graph(_FAMILY_ALIASES[args.family], _family_params(args), args.seed)
    if args.out:
        if args.out.endswith(".json"):
            fileio.write_graph_json(g, args.out)
        else:
            fileio.write_edge_list(g, args.out)
    d_in = g.in_degrees()
    print(f"n = {g.n_vertices}  edges = {g.n_edges}")
    print(f"in-degree range = [{d_in.min()}, {d_in.max()}]")
    print(f"all vertices reinforced = {g.has_positive_in_degrees()}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_predict(args) -> int:
    g = _load_graph(args)

    if getattr(args, "hetero", None):
        scheme = _load_scheme(args, g.n)
        frozen = None
        if not g.has_positive_in_degrees():
            if not args.allow_violations:
                raise ZeroInDegreeError(np.flatnonzero(g.in_degrees() == 0) + 1)
            frozen = _initial_state(args, g.n).fractions()
        limit = theory.heterogeneous_limit(g, scheme, frozen_fractions=frozen)
        report = {
            "n": g.n,
            "heterogeneous_limit": [float(v) for v in limit],
            "reinforced": (g.in_degrees() > 0).tolist(),
        }
        if args.out:
            fileio.write_report_json(args.out, report, _resolved_config(args, "predict"), __version__)
        print(json.dumps(report, indent=1, sort_keys=True))
        return 0

    scheme = None
    if getattr(args, "polya", False):
        scheme = ReplacementMatrix(1, 1, 1)
    elif args.a is not None and args.b is not None:
        scheme = ReplacementMatrix(args.a, args.b, args.m)
    alpha, beta = _normalized_params(args, scheme)

    if not g.has_positive_in_degrees() and args.allow_violations:
        if scheme is None:
            raise InvalidParamsError(
                "--allow-violations needs an integer rule (--a/--b/--m or --polya)"
            )
        # Unreinforced urns keep their initial fractions, and those feed the
        # limits of everything downstream of them.
        limit = theory.heterogeneous_limit(
            g,
            HeterogeneousScheme((scheme,) * g.n),
            frozen_fractions=_initial_state(args, g.n).fractions(),
        )
        reinforced = (g.in_degrees() > 0).tolist()
        report = {
            "regime": None,
            "n": g.n,
            "alpha": alpha,
            "beta": beta,
            "equilibrium": [float(v) for v in limit],
            "reinforced": reinforced,
            "notes": [
                "graph has unreinforced vertices: they keep their initial fractions, "
                "and the limits of the reinforced vertices follow from those"
            ],
        }
    else:
        report = theory.predict(g, alpha, beta).to_dict()

    if args.out:
        fileio.write_report_json(args.out, report, _resolved_config(args, "predict"), __version__)
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


def cmd_simulate(args) -> int:
    g = _load_graph(args)
    scheme = _load_scheme(args, g.n)
    initial = _initial_state(args, g.n)
    config = _resolved_config(args, "simulate")
    policy = {"every": "every_step", "geometric": "geometric_checkpoints", "final": "final_only"}[
        args.checkpoints
    ]

    if args.runs == 1:
        traj = run_trajectory(
            g, scheme, initial, args.horizon, args.seed,
            record=policy, allow_zero_in_degree=args.allow_violations,
        )
        out = args.out or "trajectory.csv"
        if args.format == "jsonl":
            fileio.write_trajectory_jsonl(out, traj, config, __version__)
        else:
            fileio.write_trajectory_csv(out, traj, config, __version__)
        print(f"wrote {out}  (final Z = {np.array2string(traj[-1][1], precision=6)})")
        return 0

    checkpoints = record_times(args.horizon, policy)
    result = run_ensemble(
        g, scheme, initial, args.horizon, args.runs, args.seed,
        checkpoints=checkpoints, allow_zero_in_degree=args.allow_violations,
    )
    out = args.out or "ensemble.json"
    fileio.write_ensemble_json(out, result, config, __version__)
    print(f"wrote {out}")
    if args.summary_out:
        fileio.write_ensemble_summary_csv(args.summary_out, result, config, __version__)
        print(f"wrote {args.summary_out}")
    return 0


def cmd_verify(args) -> int:
    suite = verify.SUITES[args.suite]
    given = {key for key, value in vars(args).items() if value is not None and value is not False}
    refused = {"tol"} if suite.tol is None else set()
    if suite.graph is None:
        refused |= {"graph", "a", "b", "polya", "hetero"}
    if given & refused:
        flags = " ".join(f"--{key}" for key in sorted(given & refused))
        raise InvalidParamsError(f"suite {args.suite} does not use {flags}")
    kw = {key: vars(args)[key] for key in given & {"horizon", "runs", "seed", "tol"}}
    if suite.graph is None:
        report = suite.run(**kw)
    else:
        g = fileio.read_graph(args.graph) if args.graph else suite.graph()
        if given & {"a", "b", "polya", "hetero"}:
            scheme = _load_scheme(args, g.n)
        else:
            scheme = ReplacementMatrix(*suite.rule)
        report = suite.run(g, scheme, suite.initial(g.n), **kw)

    if args.out:
        fileio.write_report_json(args.out, report, _resolved_config(args, "verify"), __version__)
    print(json.dumps(report, indent=1, sort_keys=True))
    print(f"suite {args.suite}: {'PASS' if report['pass'] else 'FAIL'}")
    return 0 if report["pass"] else 1


def cmd_oracle(args) -> int:
    g = _load_graph(args)
    scheme = _load_scheme(args, g.n)
    initial = _initial_state(args, g.n)
    report = oracle_check(
        g, scheme, initial, args.horizon, args.runs, args.seed,
        allow_zero_in_degree=args.allow_violations,
    )
    print(
        f"TV = {report.tv_distance:.6f}  threshold = {report.threshold:.6f}  "
        f"support = {report.support_size}  runs = {report.runs}"
    )
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _add_graph_source(p):
    p.add_argument("--graph", help="edge-list or .json graph file")
    p.add_argument("--family", choices=sorted(_FAMILY_ALIASES), help="generator family")
    p.add_argument("--n", type=int, help="vertex count for generators")
    p.add_argument("--d", type=int, help="degree for d-regular generator")
    p.add_argument("--p", type=float, help="edge probability for the ER generator")


def _add_scheme_flags(p):
    p.add_argument("--a", type=int, help="white-draw white payout (integer)")
    p.add_argument("--b", type=int, help="black-draw black payout (integer)")
    p.add_argument("--m", type=int, default=1, help="balls sent per draw (row sum)")
    p.add_argument("--polya", action="store_true", help="shorthand for a = b = m = 1")
    p.add_argument("--hetero", help="JSON file with one {a,b,m} record per vertex")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="urnnet",
        description="Interacting two-colour urns on directed graphs: "
        "simulation, predictions, and statistical verification.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a graph from a standard family")
    _add_graph_source(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="output path (.json for the JSON mirror)")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("predict", help="closed-form predictions for a setup")
    _add_graph_source(p)
    _add_scheme_flags(p)
    p.add_argument("--alpha", type=float, help="normalized a/m (theory-only)")
    p.add_argument("--beta", type=float, help="normalized b/m (theory-only)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--allow-violations", action="store_true",
                   help="predict on graphs with unreinforced vertices, whose urns stay frozen")
    p.add_argument("--initial", help="JSON initial state (fixes the frozen urns' fractions)")
    p.add_argument("--out", help="write the report as JSON")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("simulate", help="run seeded trajectories or ensembles")
    _add_graph_source(p)
    _add_scheme_flags(p)
    p.add_argument("--horizon", type=int, required=True)
    p.add_argument("--runs", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--initial", help="JSON initial state file")
    p.add_argument("--checkpoints", choices=("every", "geometric", "final"), default="geometric")
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--allow-violations", action="store_true")
    p.add_argument("--out", help="trajectory (runs=1) or ensemble JSON output path")
    p.add_argument("--summary-out", help="per-checkpoint summary CSV (ensembles)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("--suite", required=True, choices=tuple(verify.SUITES))
    p.add_argument("--graph", help="override the suite's default graph")
    _add_scheme_flags(p)
    p.add_argument("--horizon", type=int)
    p.add_argument("--runs", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--tol", type=float)
    p.add_argument("--out", help="write the verdict report as JSON")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="simulator law vs exact enumeration")
    _add_graph_source(p)
    _add_scheme_flags(p)
    p.add_argument("--horizon", type=int, default=1)
    p.add_argument("--runs", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--initial", help="JSON initial state file")
    p.add_argument("--allow-violations", action="store_true")
    p.set_defaults(func=cmd_oracle)

    return parser


def _config_argv(path: str, command: str) -> list:
    """Turn an embedded/flat config file into argv tokens for `command`."""
    cfg = fileio.read_config_file(path)
    cfg.pop("command", None)
    # configs written by 0.1.0 carry the removed --threads flag; the worker
    # count never changed the output, so dropping it reruns them unchanged
    cfg.pop("threads", None)
    argv = []
    for key, value in sorted(cfg.items()):
        flag = "--" + key.replace("_", "-")
        if value == "true":
            argv.append(flag)
        elif value == "false":
            continue
        else:
            argv += [flag, value]
    return argv


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        # --config FILE injects defaults; explicit flags afterwards override.
        if "--config" in argv:
            i = argv.index("--config")
            if i + 1 >= len(argv):
                print("error: --config needs a file path", file=sys.stderr)
                return 2
            path = argv[i + 1]
            rest = argv[:i] + argv[i + 2 :]
            if not rest:
                print("usage: urnnet COMMAND [--config FILE] [flags]", file=sys.stderr)
                return 2
            command, tail = rest[0], rest[1:]
            argv = [command] + _config_argv(path, command) + tail

        args = build_parser().parse_args(argv)
        return args.func(args)
    except ZeroInDegreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except _NUMERICAL_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (UrnNetError, OSError) as exc:
        # usage and configuration errors, unreadable or unwritable files
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
