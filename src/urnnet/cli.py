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
    check_state,
    default_initial_state,
    record_times,
    run_trajectory,
)
from .errors import InvalidParamsError, NumericalError, UrnNetError, ZeroInDegreeError
from .graph import FAMILIES, DirectedGraph, generate_graph
from .montecarlo import oracle_check, run_ensemble

# short names for `--family`; the full names of graph.FAMILIES work as well
_FAMILY_ALIASES = {
    "complete-loops": "complete_with_loops",
    "cycle-directed": "cycle_directed",
    "cycle-undirected": "cycle_undirected",
    "star": "star_undirected",
    "d-regular": "d_regular_random",
    "er-min-indegree": "erdos_renyi_min_indegree",
}

_RULE_FLAGS = ("a", "b", "m", "polya", "hetero")


def _family_params(args) -> dict:
    return {key: vars(args)[key] for key in ("n", "d", "p") if vars(args)[key] is not None}


def _load_graph(args) -> DirectedGraph:
    if args.graph:
        generator = [f"--{key}" for key in ("family", "n", "d", "p") if vars(args)[key] is not None]
        if generator:
            raise InvalidParamsError(f"--graph excludes the generator flags {' '.join(generator)}")
        return fileio.read_graph(args.graph)
    if args.family:
        family = _FAMILY_ALIASES.get(args.family, args.family)
        return generate_graph(family, _family_params(args), args.seed)
    raise InvalidParamsError("need --graph FILE or --family NAME")


def _given_rule_flags(args) -> list:
    given = ((key, getattr(args, key)) for key in _RULE_FLAGS)
    # `is` tests: --a 0 compares equal to False
    return [f"--{key}" for key, value in given if value is not None and value is not False]


def _load_scheme(args, default=None):
    """The rule from exactly one of --polya, --hetero FILE and --a/--b[/--m]
    (m = 1 when omitted); `default` when no rule flag is given."""
    given = _given_rule_flags(args)
    if not given:
        if default is None:
            raise InvalidParamsError("need --a and --b (with --m), or --polya, or --hetero FILE")
        return default
    if len(given) > 1 and not set(given) <= {"--a", "--b", "--m"}:
        raise InvalidParamsError(f"{' '.join(given)}: give one of --polya, --hetero, --a/--b/--m")
    if args.hetero is not None:
        return fileio.read_hetero_scheme(args.hetero)
    if args.polya:
        return ReplacementMatrix(1, 1, 1)
    if args.a is None or args.b is None:
        raise InvalidParamsError("need both --a and --b (--m defaults to 1)")
    return ReplacementMatrix(args.a, args.b, 1 if args.m is None else args.m)


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


def _initial_state(args, g: DirectedGraph) -> UrnState:
    if getattr(args, "initial", None):
        state = fileio.read_initial_state(args.initial)
        check_state(g, state)
        return state
    return default_initial_state(g.n)


def cmd_generate(args) -> int:
    g = _load_graph(args)
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
    reinforced = g.in_degrees() > 0
    if args.initial is not None and (not args.allow_violations or reinforced.all()):
        raise InvalidParamsError(
            "--initial is read only with --allow-violations on a graph with unreinforced vertices"
        )
    if args.alpha is None and args.beta is None:
        scheme = _load_scheme(args)
    elif args.alpha is None or args.beta is None:
        raise InvalidParamsError("need both --alpha and --beta")
    elif _given_rule_flags(args):
        raise InvalidParamsError("--alpha/--beta are theory-only and exclude the rule flags")
    else:
        scheme = None

    if not args.allow_violations:
        g.check_reinforced()
    frozen = None
    if not reinforced.all():
        if scheme is None:
            raise InvalidParamsError("--allow-violations needs a ball rule, not --alpha/--beta")
        # Unreinforced urns keep their initial fractions, and those feed the
        # limits of everything downstream of them.
        frozen = _initial_state(args, g).fractions()

    if isinstance(scheme, HeterogeneousScheme):
        limit = theory.heterogeneous_limit(g, scheme, frozen_fractions=frozen)
        report = {
            "n": g.n,
            "heterogeneous_limit": [float(v) for v in limit],
            "reinforced": reinforced.tolist(),
        }
    elif frozen is not None:
        rules = HeterogeneousScheme((scheme,) * g.n)
        limit = theory.heterogeneous_limit(g, rules, frozen_fractions=frozen)
        report = {
            "regime": None,
            "n": g.n,
            "alpha": scheme.alpha,
            "beta": scheme.beta,
            "equilibrium": [float(v) for v in limit],
            "reinforced": reinforced.tolist(),
            "notes": [
                "graph has unreinforced vertices: they keep their initial fractions, "
                "and the limits of the reinforced vertices follow from those"
            ],
        }
    else:
        alpha, beta = (args.alpha, args.beta) if scheme is None else (scheme.alpha, scheme.beta)
        report = theory.predict(g, alpha, beta).to_dict()

    if args.out:
        fileio.write_report_json(args.out, report, _resolved_config(args, "predict"), __version__)
    print(json.dumps(report, indent=1, sort_keys=True))
    return 0


def cmd_simulate(args) -> int:
    if args.runs == 1 and args.summary_out:
        raise InvalidParamsError("--summary-out is written only for ensembles (--runs > 1)")
    if args.runs > 1 and args.format == "jsonl":
        raise InvalidParamsError("ensembles (--runs > 1) are written as JSON, not --format jsonl")
    g = _load_graph(args)
    scheme = _load_scheme(args)
    initial = _initial_state(args, g)
    if not args.allow_violations:
        g.check_reinforced()
    config = _resolved_config(args, "simulate")
    policy = {"every": "every_step", "geometric": "geometric_checkpoints", "final": "final_only"}[
        args.checkpoints
    ]

    if args.runs == 1:
        traj = run_trajectory(g, scheme, initial, args.horizon, args.seed, record=policy)
        out = args.out or "trajectory.csv"
        if args.format == "jsonl":
            fileio.write_trajectory_jsonl(out, traj, config, __version__)
        else:
            fileio.write_trajectory_csv(out, traj, config, __version__)
        print(f"wrote {out}  (final Z = {np.array2string(traj[-1][1], precision=6)})")
        return 0

    checkpoints = record_times(args.horizon, policy)
    result = run_ensemble(
        g, scheme, initial, args.horizon, args.runs, args.seed, checkpoints=checkpoints,
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
        refused |= {"graph", *_RULE_FLAGS}
    if given & refused:
        flags = " ".join(f"--{key}" for key in sorted(given & refused))
        raise InvalidParamsError(f"suite {args.suite} does not use {flags}")
    kw = {key: vars(args)[key] for key in given & {"horizon", "runs", "seed", "tol"}}
    if suite.graph is None:
        report = suite.run(**kw)
    else:
        g = fileio.read_graph(args.graph) if args.graph else suite.graph()
        scheme = _load_scheme(args, default=ReplacementMatrix(*suite.rule))
        report = suite.run(g, scheme, suite.initial(g.n), **kw)

    if args.out:
        fileio.write_report_json(args.out, report, _resolved_config(args, "verify"), __version__)
    print(json.dumps(report, indent=1, sort_keys=True))
    print(f"suite {args.suite}: {'PASS' if report['pass'] else 'FAIL'}")
    return 0 if report["pass"] else 1


def cmd_oracle(args) -> int:
    g = _load_graph(args)
    scheme = _load_scheme(args)
    initial = _initial_state(args, g)
    if not args.allow_violations:
        g.check_reinforced()
    report = oracle_check(g, scheme, initial, args.horizon, args.runs, args.seed)
    print(
        f"TV = {report.tv_distance:.6f}  threshold = {report.threshold:.6f}  "
        f"support = {report.support_size}  runs = {report.runs}"
    )
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _add_graph_source(p):
    p.add_argument("--graph", help="edge-list or .json graph file")
    p.add_argument("--family", choices=sorted({*FAMILIES, *_FAMILY_ALIASES}),
                   help="generator family")
    p.add_argument("--n", type=int, help="vertex count for generators")
    p.add_argument("--d", type=int, help="degree for d-regular generator")
    p.add_argument("--p", type=float, help="edge probability for the ER generator")


def _add_scheme_flags(p):
    p.add_argument("--a", type=int, help="white-draw white payout (integer)")
    p.add_argument("--b", type=int, help="black-draw black payout (integer)")
    p.add_argument("--m", type=int, help="balls sent per draw (row sum, default 1 with --a/--b)")
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

    p = sub.add_parser("generate", help="write a graph from a standard family or a --graph file")
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
    cfg = fileio.read_config(path)
    cfg.pop("command", None)
    # configs written by 0.1.0 carry the removed --threads flag; the worker
    # count never changed the output, so dropping it reruns them unchanged
    cfg.pop("threads", None)
    # 0.1.x wrote the old default m = 1 into every config, also beside
    # --polya, --hetero or no rule at all, where it was never read
    if "a" not in cfg and cfg.get("m") == "1":
        del cfg["m"]
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
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (UrnNetError, OSError) as exc:
        # usage and configuration errors, unreadable or unwritable files
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
