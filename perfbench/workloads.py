"""Workloads of the urnnet benchmark: inputs, operations and output checks.

`build(name, seed, workdir)` makes a workload's inputs from its seed: every
graph seed and master seed derives from it, and the program receives only
the generated inputs.  Building is the set-up that `setup_s` times.  A
workload is a list of operations; one pass runs each of them once, in
order, and passes repeat identically.

Every operation has a check that raises `CheckError` when its output is
wrong.  Statistical and analytic checks run at every seed; digests pinned
from the parent commit are compared only at `DEFAULT_SEED`.  An operation
may also end in a refusal: `NonDiagonalizableError`, which the spectral
solvers raise instead of a result on ill-conditioned eigenvectors.
Refusals are counted apart from failures, so that a solver fix shows, but
only where the solver can rightly refuse (`may_refuse`); at `DEFAULT_SEED`
only the operations pinned in `pins.json` may refuse.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from urnnet import cli, graph, montecarlo, theory, verify
from urnnet.dynamics import (
    HeterogeneousScheme,
    ReplacementMatrix,
    default_initial_state,
    expected_fractions_after_step,
)
from urnnet.errors import NonDiagonalizableError
from urnnet.graph import DirectedGraph

DEFAULT_SEED = 0

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")) as _fh:
    PINS = json.load(_fh)


class CheckError(Exception):
    """An operation's output is wrong."""


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], None]
    refusals: tuple = ()


def derive(seed: int, label: str) -> int:
    """A 63-bit seed for one input, fixed by the workload seed and a label."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def require(ok, message: str) -> None:
    if not ok:
        raise CheckError(message)


def sha256_floats(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


def noise_c(alpha: float, beta: float) -> float:
    """C(alpha, beta): variance of the normalized payout at consensus."""
    c = (1 - beta) / (2 - alpha - beta)
    return c * (1 - c) * (alpha + beta - 1) ** 2


def adjacency(g: DirectedGraph) -> np.ndarray:
    """0/1 adjacency, built from the edge set."""
    a = np.zeros((g.n, g.n))
    for i, j in g.edges:
        a[i - 1, j - 1] = 1.0
    return a


def weighted_adjacency(g: DirectedGraph) -> np.ndarray:
    """Column-normalized adjacency."""
    a = adjacency(g)
    return a / a.sum(axis=0)


# ensemble-critical ---------------------------------------------------------

CRITICAL_RUNS = 2048
CRITICAL_HORIZON = 10_000


def _ensemble_critical(seed: int, workdir: str) -> list:
    g = graph.generate_graph("complete_with_loops", {"n": 4})
    scheme = ReplacementMatrix(3, 3, 4)
    master = derive(seed, "ensemble-critical/master")
    target = noise_c(scheme.alpha, scheme.beta) / g.n

    def check(rep):
        require(rep["frobenius_rel_error"] <= 0.20, f"rel error {rep['frobenius_rel_error']}")
        require(rep["pass"], "suite verdict is FAIL")
        require(abs(rep["rho"] - 0.5) <= 1e-12, f"rho = {rep['rho']}")
        sigma = np.asarray(rep["sigma_theory"])
        require(np.abs(sigma - target).max() <= 1e-12, "sigma_theory != C/N J")
        if seed == DEFAULT_SEED:
            require(
                sha256_floats(rep["sigma_empirical"]) == PINS["ensemble-critical"]["sigma_empirical"],
                "empirical sigma differs from the pinned value",
            )

    return [
        Op(
            "verify_clt_critical",
            lambda: verify.verify_clt_critical(
                g, scheme, horizon=CRITICAL_HORIZON, runs=CRITICAL_RUNS, seed=master
            ),
            check,
        )
    ]


# oracle-exact --------------------------------------------------------------

ORACLE_RUNS = 25_000


def _oracle_exact(seed: int, workdir: str) -> list:
    cycle2 = graph.generate_graph("cycle_directed", {"n": 2})
    cycle5 = graph.generate_graph("cycle_directed", {"n": 5})
    init2, init5 = default_initial_state(2), default_initial_state(5)
    schemes = {"polya": ReplacementMatrix(1, 1, 1), "friedman": ReplacementMatrix(0, 0, 1)}
    ops = []

    def oracle_op(name, scheme, horizon):
        master = derive(seed, f"oracle-exact/{name}/T{horizon}")

        def check(rep):
            require(rep.runs == ORACLE_RUNS, f"runs = {rep.runs}")
            require(rep.tv_distance <= rep.threshold, f"TV {rep.tv_distance} > threshold")
            require(rep.tv_distance <= 0.02, f"TV {rep.tv_distance} > 0.02")
            # every urn gains one ball a step, white or black, on any path
            require(rep.support_size == (horizon + 1) ** 2, f"support {rep.support_size}")

        return Op(
            f"oracle_check {name} T={horizon}",
            lambda: montecarlo.oracle_check(cycle2, scheme, init2, horizon, ORACLE_RUNS, master),
            check,
        )

    def mean_identity_op(name, scheme):
        def run():
            dist = montecarlo.brute_force_distribution(cycle2, scheme, init2, 1)
            return (
                montecarlo.distribution_mean_fractions(dist),
                expected_fractions_after_step(init2, cycle2, scheme),
            )

        def check(pair):
            exact, formula = pair
            require(exact == formula, f"one-step mean {exact} != {formula}")

        return Op(f"one-step mean {name}", run, check)

    for name, scheme in schemes.items():
        ops += [oracle_op(name, scheme, 1), oracle_op(name, scheme, 2)]
        ops.append(mean_identity_op(name, scheme))

    horizon5 = 4
    friedman = schemes["friedman"]
    totals5 = init5.totals() + horizon5

    def check_enumeration(dist):
        require(sum(p for _, p in dist) == 1, "probabilities do not sum to 1")
        require(len(dist) == (horizon5 + 1) ** 5, f"support {len(dist)}")
        require(all(np.array_equal(s.totals(), totals5) for s, _ in dist), "ball totals")
        require(all(isinstance(p, Fraction) and p > 0 for _, p in dist), "non-exact law")

    ops.append(
        Op(
            "brute_force_distribution cycle5 T=4",
            lambda: montecarlo.brute_force_distribution(cycle5, friedman, init5, horizon5),
            check_enumeration,
        )
    )
    return ops


# predict-theory ------------------------------------------------------------

SQRT_T, CRITICAL, POLYA = (0.25, 0.25), (0.75, 0.75), (1.0, 1.0)


def path_with_loops(n: int) -> DirectedGraph:
    """Directed path 1 -> 2 -> ... -> n with a self-loop at every vertex."""
    edges = {(i, i) for i in range(1, n + 1)} | {(i, i + 1) for i in range(1, n)}
    return DirectedGraph(n_vertices=n, edges=frozenset(edges))


def null_space(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Orthonormal basis of the kernel of m, from its singular values."""
    _, sv, vt = np.linalg.svd(m)
    return vt[sv <= tol * max(sv[0], 1.0)].T


def _check_prediction(g: DirectedGraph, alpha: float, beta: float):
    a_t = weighted_adjacency(g)
    n = g.n
    undirected_regular = g.is_regular_undirected()

    def check(rep):
        require(rep.n == n and rep.alpha == alpha and rep.beta == beta, "echoed inputs")
        if (alpha, beta) == POLYA:
            lam = np.sort(np.linalg.eigvalsh(a_t))
            lam2 = float(lam[-2])
            kind = rep.rate_class.kind
            if abs(lam2 - 0.5) <= 1e-9:
                require(kind == theory.RATE_LOGT_OVER_T, f"rate class {kind}")
            elif lam2 < 0.5:
                require(kind == theory.RATE_T_INV, f"rate class {kind}")
            else:
                require(kind == theory.RATE_T_POW, f"rate class {kind}")
                require(abs(rep.rate_class.exponent - (2 * lam2 - 2)) <= 1e-9, "exponent")
            return
        k = alpha + beta - 1
        lam = np.linalg.eigvals(a_t)
        rho = 1 - k * (lam.real.max() if k >= 0 else lam.real.min())
        require(abs(rep.rho - rho) <= 1e-9, f"rho {rep.rho} != {rho}")
        c = noise_c(alpha, beta)
        require(abs(rep.noise_var_c - c) <= 1e-15, "noise variance C")
        require(np.all(rep.equilibrium == (1 - beta) / (2 - alpha - beta)), "consensus value")
        if rep.regime == theory.REGIME_SUBCRITICAL:
            require(rho < 0.5 and rep.sigma is None, "subcritical report")
            return
        s = rep.sigma / c
        shifted = np.eye(n) - k * a_t - 0.5 * np.eye(n)
        lhs = shifted.T @ s + s @ shifted
        if rep.regime == theory.REGIME_SQRT_T:
            require(rho > 0.5, f"regime {rep.regime} at rho {rho}")
            q = a_t.T @ a_t
            residual = np.linalg.norm(lhs - q) / np.linalg.norm(q)
            require(residual <= 1e-8, f"Lyapunov residual {residual:.2e}")
            if undirected_regular:
                closed = theory.clt_covariance_regular_closed_form(alpha, beta, a_t)
                err = np.linalg.norm(rep.sigma - closed) / np.linalg.norm(closed)
                require(err <= 1e-8, f"closed form differs by {err:.2e}")
        else:
            require(rep.regime == theory.REGIME_CRITICAL, f"regime {rep.regime}")
            require(abs(rho - 0.5) <= 1e-9, f"critical regime at rho {rho}")
            # Only modes on the critical line survive the log-averaging: those
            # of eigenvalue 1 of A~, the kernel of M = H - I/2.  So sigma / C
            # = P^T (A~^T A~) P, with P the projector onto ker M along range M.
            right, left = null_space(shifted), null_space(shifted.T)
            proj = right @ np.linalg.solve(left.T @ right, left.T)
            expected = proj.T @ (a_t.T @ a_t) @ proj
            err = np.linalg.norm(s - expected) / np.linalg.norm(expected)
            require(err <= 1e-8, f"critical covariance off the projector form by {err:.2e}")
            if g.n_edges == n * n:
                require(np.abs(rep.sigma - c / n).max() <= 1e-12, "sigma != C/N J")

    return check


def _check_heterogeneous(g: DirectedGraph, scheme: HeterogeneousScheme):
    a = adjacency(g)
    am, bm, mm = (np.array([getattr(r, x) for r in scheme.matrices], dtype=float) for x in "abm")
    w = a / (mm @ a)

    def check(z):
        fixed = (z * (am + bm - mm) + (mm - bm)) @ w
        require(np.abs(fixed - z).max() <= 1e-10, "not a fixed point")
        require(np.all((z >= 0) & (z <= 1)), "limit outside [0, 1]")

    return check


# At the parent commit, sqrt(t) solves up to this size go through the
# Kronecker linear system, which never refuses.
KRONECKER_MAX_N = 64


def may_refuse(g: DirectedGraph, alpha: float, beta: float) -> bool:
    """Whether `theory.predict` may rightly raise `NonDiagonalizableError`.

    Only a non-symmetric A~ can have ill-conditioned eigenvectors, and only
    the eigenvector paths refuse: every critical case (`log_averaged_gram`)
    and the sqrt(t) cases above `KRONECKER_MAX_N`.  Polya cases solve nothing.
    """
    a_t = weighted_adjacency(g)
    if (alpha, beta) == POLYA or np.array_equal(a_t, a_t.T):
        return False
    return (alpha, beta) == CRITICAL or g.n > KRONECKER_MAX_N


def _predict_theory(seed: int, workdir: str) -> list:
    def gseed(label):
        return derive(seed, "predict-theory/" + label) % 2**32

    cases = []
    for n in (16, 64, 65, 200):
        g = graph.generate_graph(
            "erdos_renyi_min_indegree", {"n": n, "p": 4 / n}, seed=gseed(f"er{n}")
        )
        cases += [(f"er{n}", g, SQRT_T), (f"er{n}", g, CRITICAL)]
    for n in (64, 65, 200):
        g = graph.generate_graph("d_regular_random", {"n": n, "d": 4}, seed=gseed(f"reg{n}"))
        cases += [(f"reg{n}", g, SQRT_T), (f"reg{n}", g, CRITICAL), (f"reg{n}", g, POLYA)]
    for n in (64, 65):
        cases.append((f"path{n}", path_with_loops(n), SQRT_T))
    for n in (16, 200):
        cases.append((f"K{n}", graph.generate_graph("complete_with_loops", {"n": n}), CRITICAL))

    pinned = set(PINS["predict-theory"]["refused"])
    ops = []
    for name, g, ab in cases:
        label = f"predict {name} alpha=beta={ab[0]}"
        refusable = may_refuse(g, *ab) and (seed != DEFAULT_SEED or label in pinned)
        ops.append(
            Op(
                label,
                lambda g=g, ab=ab: theory.predict(g, *ab),
                _check_prediction(g, *ab),
                refusals=(NonDiagonalizableError,) if refusable else (),
            )
        )

    g = graph.generate_graph("d_regular_random", {"n": 200, "d": 4}, seed=gseed("hetero"))
    rng = np.random.default_rng(derive(seed, "predict-theory/hetero-scheme"))
    matrices = []
    for _ in range(g.n):
        m = int(rng.integers(2, 6))
        a, b = (int(x) for x in rng.integers(1, m, size=2))
        matrices.append(ReplacementMatrix(a, b, m))
    scheme = HeterogeneousScheme(tuple(matrices))
    ops.append(
        Op(
            "heterogeneous_limit reg200",
            lambda: theory.heterogeneous_limit(g, scheme),
            _check_heterogeneous(g, scheme),
        )
    )
    return ops


# simulate-wide -------------------------------------------------------------

WIDE_N, WIDE_RUNS, WIDE_HORIZON = 200, 1024, 250


def wide_payload_digest(ensemble_path: str, summary_path: str) -> str:
    """Digest of the numbers in both output files, without their config."""
    with open(ensemble_path) as fh:
        result = json.load(fh)["result"]
    with open(summary_path) as fh:
        rows = [line for line in fh.read().splitlines() if not line.startswith("#")]
    payload = json.dumps([result["mean_Z"], result["var_phi"], result["cov_Z_final"], rows])
    return hashlib.sha256(payload.encode()).hexdigest()


def check_wide_outputs(ensemble_path: str, summary_path: str, seed: int) -> None:
    with open(ensemble_path) as fh:
        result = json.load(fh)["result"]
    mean = np.asarray(result["mean_Z"])
    var_phi = np.asarray(result["var_phi"])
    cov = np.asarray(result["cov_Z_final"])
    require(mean.shape == (WIDE_HORIZON + 1, WIDE_N), f"mean_Z shape {mean.shape}")
    require(result["checkpoints"] == list(range(WIDE_HORIZON + 1)), "checkpoints")
    require(np.all(mean[0] == 0.5) and var_phi[0] == 0.0, "t = 0 row")
    require(np.all((mean >= 0) & (mean <= 1)), "mean fraction outside [0, 1]")
    require(np.all(var_phi >= -1e-15), "negative dispersion")
    require(np.array_equal(cov, cov.T), "cov_Z_final not symmetric")
    # a = b and a half-white start make the law colour-symmetric: E Z = 1/2
    var_mean = float(cov.sum()) / WIDE_N**2
    se = math.sqrt(max(var_mean, 0.0) / WIDE_RUNS)
    drift = float(mean[-1].mean()) - 0.5
    require(abs(drift) <= 5 * se, f"mean fraction drifts by {drift:.3g} (SE {se:.3g})")
    with open(summary_path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines() if not line.startswith("#")]
    require(len(rows) == WIDE_HORIZON + 2, f"{len(rows)} summary lines")
    body = np.array(rows[1:], dtype=float)
    require(np.array_equal(body[:, 1:-1], mean) and np.array_equal(body[:, -1], var_phi),
            "summary CSV disagrees with the ensemble JSON")
    if seed == DEFAULT_SEED:
        require(
            wide_payload_digest(ensemble_path, summary_path) == PINS["simulate-wide"]["payload"],
            "output numbers differ from the pinned digest",
        )


def _simulate_wide(seed: int, workdir: str) -> list:
    os.makedirs(workdir, exist_ok=True)
    graph_path = os.path.join(workdir, "graph.txt")
    ensemble_path = os.path.join(workdir, "ensemble.json")
    summary_path = os.path.join(workdir, "summary.csv")
    generate = [
        "generate", "--family", "d-regular", "--n", str(WIDE_N), "--d", "4",
        "--seed", str(derive(seed, "simulate-wide/graph") % 2**32), "--out", graph_path,
    ]
    simulate = [
        "simulate", "--graph", graph_path, "--a", "1", "--b", "1", "--m", "4",
        "--horizon", str(WIDE_HORIZON), "--runs", str(WIDE_RUNS), "--checkpoints", "every",
        "--seed", str(derive(seed, "simulate-wide/master")),
        "--out", ensemble_path, "--summary-out", summary_path,
    ]

    def run_cli(argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def check_generate(code):
        require(code == 0, f"generate exited {code}")
        with open(graph_path) as fh:
            require(fh.readline().split() == [str(WIDE_N), str(WIDE_N * 4)], "graph header")

    def check_simulate(code):
        require(code == 0, f"simulate exited {code}")
        check_wide_outputs(ensemble_path, summary_path, seed)

    return [
        Op("cli generate", lambda: run_cli(generate), check_generate),
        Op("cli simulate", lambda: run_cli(simulate), check_simulate),
    ]


WORKLOADS = {
    "ensemble-critical": _ensemble_critical,
    "oracle-exact": _oracle_exact,
    "predict-theory": _predict_theory,
    "simulate-wide": _simulate_wide,
}


def build(name: str, seed: int, workdir: str) -> list:
    return WORKLOADS[name](seed, workdir)
