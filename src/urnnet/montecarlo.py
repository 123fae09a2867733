"""Seeded ensembles, scaled statistics, and exact small-case oracles.

Ensembles stream first and second moments of the fraction vector at a fixed
checkpoint grid, so memory stays flat in the number of runs.  Runs are
independent work items keyed by (master_seed, run_index); batches run on a
pool of worker processes and merge in fixed index order, which makes
results identical for any worker count.

The second-moment sums, (checkpoints, n, n) doubles, are the largest arrays
(80 MB at n = 200 with 250 steps recorded).  Each batch adds into the first
one's sums as it arrives, so the total and one batch's sums are held while
the ensemble runs.  The result keeps one n x n covariance, the final
checkpoint's: the only one the scaled statistics and the output read.
"""

from __future__ import annotations

import atexit
import functools
import math
import operator
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .dynamics import (
    UrnState,
    check_batch,
    geometric_checkpoints,
    set_blas_threads,
    simulate_runs,
)
from .errors import (
    EnumerationTooLargeError,
    InsufficientCheckpointsError,
    InvalidParamsError,
    NotRegularError,
    WrongRegimeError,
)
from .graph import DirectedGraph
from .theory import REGIME_CRITICAL, REGIME_SQRT_T, Fluctuations

#: bound on n * horizon for exact enumeration (2^(n*T) draw sequences)
BRUTE_FORCE_MAX_BITS = 20

#: runs per batch; fixed, so no result depends on how the runs are split
_BATCH_RUNS = 1024

#: (workers, executor) of the process pool that run_ensemble reuses
_pool = None


@dataclass
class EnsembleResult:
    """Streaming-moment summary of a seeded ensemble.

    mean_z and var_phi are indexed by checkpoint; var_phi is the average
    over vertices of the variance of Z_i minus the cross-sectional mean (the
    dispersion the identity-type decay theory is about).  cov_final is the
    covariance of Z at the last checkpoint, None without checkpoints.
    Snapshots, when requested, hold exact white counts per run at selected
    times.
    """

    runs: int
    horizon: int
    checkpoints: tuple
    n: int
    mean_z: np.ndarray
    cov_final: np.ndarray | None
    var_phi: np.ndarray
    raw_seed: int
    initial_white: np.ndarray
    initial_black: np.ndarray
    is_polya: bool
    regular_graph: bool
    snapshots: dict = field(default_factory=dict)
    snapshot_totals: dict = field(default_factory=dict)

    def initial_fractions(self) -> np.ndarray:
        return self.initial_white / (self.initial_white + self.initial_black)

    def z_at(self, t: int) -> np.ndarray:
        """Per-run fraction vectors at a snapshot time, shape (runs, n)."""
        if t not in self.snapshots:
            raise InvalidParamsError(f"no snapshot stored at time {t}")
        return self.snapshots[t] / self.snapshot_totals[t]

    @classmethod
    def from_moments(
        cls,
        runs,
        horizon,
        checkpoints,
        sum_z,
        sum_outer,
        raw_seed,
        initial: UrnState,
        is_polya: bool,
        regular_graph: bool,
        snapshots=None,
        snapshot_totals=None,
    ) -> "EnsembleResult":
        """Normalise moment sums over `runs` into a result.  Each
        checkpoint's covariance is written into one n x n array and reduced
        to its var_phi; the last one is kept.  The sums are only read."""
        checkpoints = tuple(checkpoints)
        n = sum_z.shape[1]
        mean = sum_z / runs
        centering = np.eye(n) - np.full((n, n), 1.0 / n)
        var_phi = np.empty(len(checkpoints))
        cov = np.zeros((n, n)) if checkpoints else None  # stays zero for one run
        for k in range(len(checkpoints)):
            if runs > 1:
                c = (sum_outer[k] - runs * np.outer(mean[k], mean[k])) / (runs - 1)
                cov[:] = 0.5 * (c + c.T)
            var_phi[k] = np.trace(centering @ cov @ centering) / n
        return cls(
            runs=runs,
            horizon=horizon,
            checkpoints=checkpoints,
            n=n,
            mean_z=mean,
            cov_final=cov,
            var_phi=var_phi,
            raw_seed=raw_seed,
            initial_white=initial.white.copy(),
            initial_black=initial.black.copy(),
            is_polya=is_polya,
            regular_graph=regular_graph,
            snapshots=dict(snapshots or {}),
            snapshot_totals=dict(snapshot_totals or {}),
        )

    def to_dict(self) -> dict:
        return {
            "runs": self.runs,
            "horizon": self.horizon,
            "checkpoints": list(self.checkpoints),
            "n": self.n,
            "raw_seed": self.raw_seed,
            "mean_Z": self.mean_z.tolist(),
            "var_phi": self.var_phi.tolist(),
            "cov_Z_final": None if self.cov_final is None else self.cov_final.tolist(),
            "initial_white": self.initial_white.tolist(),
            "initial_black": self.initial_black.tolist(),
            "is_polya": self.is_polya,
            "regular_graph": self.regular_graph,
        }


def usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _batch_pool(workers: int):
    """The shared pool of `workers` forked processes, or None without fork.

    Created on first use and kept for later calls, since starting workers
    costs more than a small ensemble; a call asking for another size
    replaces it.
    """
    global _pool
    import multiprocessing

    if "fork" not in multiprocessing.get_all_start_methods():
        return None
    if _pool is None or _pool[0] != workers:
        from concurrent.futures import ProcessPoolExecutor

        _discard_pool()
        # fork, not spawn: workers inherit the loaded package and need not
        # re-import the caller's main module
        context = multiprocessing.get_context("fork")
        threads = max(1, usable_cores() // workers)
        _pool = (
            workers,
            ProcessPoolExecutor(
                workers, mp_context=context, initializer=set_blas_threads, initargs=(threads,),
            ),
        )
        # release it before interpreter teardown clears the modules its
        # finalizer uses
        atexit.register(_discard_pool)
    return _pool[1]


def _discard_pool() -> None:
    global _pool
    if _pool is not None:
        _pool[1].shutdown(wait=False, cancel_futures=True)
        _pool = None
        atexit.unregister(_discard_pool)


def run_ensemble(
    g: DirectedGraph,
    scheme,
    initial: UrnState,
    horizon: int,
    runs: int,
    master_seed: int,
    checkpoints=None,
    snapshot_times=(),
    workers: int | None = None,
) -> EnsembleResult:
    """Simulate `runs` seeded trajectories and stream their moments.

    Deterministic in master_seed; run r always consumes substream
    (master_seed, r), so adding runs or changing `workers` never perturbs
    existing ones.  Runs go in fixed batches of 1,024; with more than one
    batch, the batches run on a shared pool of `workers` forked processes
    (default: every core this process may use), and their sums merge in
    batch order, so the result is bit-identical for every worker count.
    One batch, one worker, or a platform without fork runs in this process.
    Every batch, in this process or in a worker, draws its next uniform
    block on a helper thread while it steps the current one, when its
    horizon spans more than one block (see `simulate_runs`); a worker caps
    OpenBLAS at (usable cores // workers) threads.  Urns without in-edges
    stay frozen.
    """
    if runs < 1:
        raise InvalidParamsError("runs must be >= 1")
    if workers is None:
        workers = usable_cores()
    if workers < 1:
        raise InvalidParamsError("workers must be >= 1")
    if checkpoints is None:
        checkpoints = geometric_checkpoints(horizon) if horizon > 0 else [0]
    checkpoints = tuple(sorted(set(int(t) for t in checkpoints)))
    check_batch(g, scheme, initial, horizon, range(runs), (*checkpoints, *snapshot_times))

    batches = [range(lo, min(lo + _BATCH_RUNS, runs)) for lo in range(0, runs, _BATCH_RUNS)]
    work = functools.partial(
        simulate_runs, g, scheme, initial, horizon, master_seed, checkpoints=checkpoints,
        snapshot_times=snapshot_times,
    )
    pool = _batch_pool(workers) if workers > 1 and len(batches) > 1 else None
    if pool is None:
        broken = ()
    else:
        from concurrent.futures.process import BrokenProcessPool

        broken = (BrokenProcessPool, KeyboardInterrupt)
    try:
        # submitting can meet a worker that died on an earlier batch
        outs = map(work, batches) if pool is None else pool.map(work, batches)
        # batches add into the first one's sums as they arrive, in the fixed
        # batch order that keeps merging schedule-independent
        first = next(outs)
        sum_z, sum_outer, snapshots = first.sum_z, first.sum_outer, [first.snapshots]
        for out in outs:
            sum_z += out.sum_z
            sum_outer += out.sum_outer
            snapshots.append(out.snapshots)
            del out  # else it holds this batch while the next one runs
    except broken:
        # a dead worker, or an interrupt that reached the workers too: the
        # next call starts a fresh pool
        _discard_pool()
        raise
    snapshots = {t: np.concatenate([s[t] for s in snapshots], axis=0) for t in first.snapshots}

    return EnsembleResult.from_moments(
        runs,
        horizon,
        checkpoints,
        sum_z,
        sum_outer,
        master_seed,
        initial,
        scheme.is_polya(),
        g.is_regular_undirected(),
        snapshots,
        first.snapshot_totals,
    )


def scaled_covariance(result: EnsembleResult, record: Fluctuations) -> np.ndarray:
    """Empirical covariance of the scaled deviation s(t) (Z_t - c 1).

    Second moment about the predicted limit c of `record` (the limit law is
    centred), taken at the final checkpoint t.

    The record's regime sets s(t): sqrt(t) above the critical line, t^rho
    below it, and sqrt(t / log t) on it.  The critical factor is
    sqrt(t / log t), not sqrt(t log t): the fraction variance decays like
    log(t)/t there (the familiar sqrt(t log t) belongs to ball counts, which
    carry an extra factor of t).
    """
    if result.is_polya:
        raise WrongRegimeError("scaled deviations from c are for non-identity rules")
    t = result.checkpoints[-1]
    if record.regime == REGIME_SQRT_T:
        s2 = float(t)
    elif record.regime == REGIME_CRITICAL:
        if t < 2:
            raise InvalidParamsError("critical scaling needs t >= 2")
        s2 = t / math.log(t)
    else:
        s2 = float(t) ** (2.0 * record.rho)

    mean = result.mean_z[-1]
    second = result.cov_final * (result.runs - 1) / result.runs + np.outer(mean, mean)
    cvec = np.full(result.n, float(record.c))
    moment = second - np.outer(mean, cvec) - np.outer(cvec, mean) + np.outer(cvec, cvec)
    return s2 * 0.5 * (moment + moment.T)


class SlopeEstimate(NamedTuple):
    slope: float
    ci_halfwidth: float
    n_points: int
    t_window: tuple


def variance_decay_slope(result: EnsembleResult) -> SlopeEstimate:
    """Log-log slope of var_phi against t over the late checkpoints.

    Fits ordinary least squares on the later half of the positive-variance
    checkpoints and returns the slope with a 1.96-standard-error halfwidth.
    """
    if not result.is_polya:
        raise WrongRegimeError("variance decay classes apply to identity-type rules")
    # Graphs where all in-neighbourhoods coincide keep every urn identical,
    # so the cross-sectional variance is exactly zero up to rounding dust;
    # refuse to fit a slope through that.
    floor = 1e-25
    usable = [
        (t, v)
        for t, v in zip(result.checkpoints, result.var_phi)
        if t >= 1 and v > floor
    ]
    tail = usable[len(usable) // 2 :]
    if len(tail) < 5:
        raise InsufficientCheckpointsError(
            f"need at least 5 tail checkpoints, have {len(tail)}"
        )
    x = np.log([t for t, _ in tail])
    y = np.log([v for _, v in tail])
    x_c = x - x.mean()
    sxx = float(x_c @ x_c)
    slope = float(x_c @ y) / sxx
    resid = y - y.mean() - slope * x_c
    dof = len(tail) - 2
    se = math.sqrt(max(float(resid @ resid), 0.0) / dof / sxx) if dof > 0 else 0.0
    return SlopeEstimate(
        slope=slope,
        ci_halfwidth=1.96 * se,
        n_points=len(tail),
        t_window=(tail[0][0], tail[-1][0]),
    )


@dataclass(frozen=True)
class MartingaleReport:
    drift_estimate: float
    threshold: float
    standard_error: float
    passed: bool


def check_martingale_inputs(regular_graph: bool, runs: int, last_checkpoint: int) -> None:
    """Refuse what the martingale test cannot judge, known before simulating:
    a graph that is not regular and undirected, fewer than 2 runs, which give
    no standard error, and a last checkpoint at t = 0, where the drift is
    zero by construction."""
    if not regular_graph:
        raise NotRegularError("martingale test needs a regular undirected graph")
    if runs < 2:
        raise InvalidParamsError(f"martingale test needs at least 2 runs, got {runs}")
    if last_checkpoint < 1:
        raise InvalidParamsError("martingale test needs a last checkpoint after t = 0")


def martingale_test(result: EnsembleResult) -> MartingaleReport:
    """Check that the cross-sectional mean fraction keeps its starting value.

    Valid for identity-type reinforcement on a regular undirected graph,
    where the cross-sectional mean is a bounded martingale; passes when the
    observed drift is within three standard errors.  Refuses a non-identity
    rule and whatever `check_martingale_inputs` refuses.
    """
    if not result.is_polya:
        raise WrongRegimeError("martingale test applies to identity-type rules")
    check_martingale_inputs(result.regular_graph, result.runs, (result.checkpoints or (0,))[-1])
    zbar0 = float(result.initial_fractions().mean())
    mean_zbar = float(result.mean_z[-1].mean())
    ones = np.ones(result.n)
    var_zbar = float(ones @ result.cov_final @ ones) / result.n**2
    se = math.sqrt(max(var_zbar, 0.0) / result.runs)
    drift = mean_zbar - zbar0
    return MartingaleReport(
        drift_estimate=drift,
        threshold=3.0 * se,
        standard_error=se,
        passed=abs(drift) <= 3.0 * se,
    )


def brute_force_distribution(
    g: DirectedGraph,
    scheme,
    initial: UrnState,
    horizon: int,
) -> list:
    """Exact law of the urn state at time `horizon` by path enumeration.

    Probabilities are exact rationals and sum to one.  Feasible only while
    n * horizon stays small (2^(n*horizon) draw sequences).

    Ball totals are the same on every path, so each step's draw
    probabilities share the denominator prod_i T_i(t).  States therefore
    carry integer weights (products of the numerators w_i and T_i - w_i)
    over one common denominator, and each step convolves the urns' draws
    vertex by vertex, merging paths that reach the same partial state.
    """
    n = g.n
    if n * horizon > BRUTE_FORCE_MAX_BITS:
        raise EnumerationTooLargeError(
            f"n * horizon = {n * horizon} exceeds {BRUTE_FORCE_MAX_BITS}"
        )
    rf = check_batch(g, scheme, initial, horizon, ())
    inflow = rf.inflow.tolist()
    # white balls vertex j adds to every urn when it draws white / black
    sends = list(zip(map(tuple, rf.on_white.tolist()), map(tuple, rf.on_black.tolist())))

    states = {tuple(int(x) for x in initial.white): 1}
    totals = [int(x) for x in initial.totals()]
    denom = 1
    for _ in range(horizon):
        nxt: dict = {}
        for w, weight in states.items():
            partial = {w: weight}
            for j, (if_white, if_black) in enumerate(sends):
                # draw numerators; a zero one is an impossible branch
                branches = [(if_white, w[j]), (if_black, totals[j] - w[j])]
                merged: dict = {}
                for acc, wt in partial.items():
                    for add, p in branches:
                        if p:
                            key = tuple(map(operator.add, acc, add))
                            merged[key] = merged.get(key, 0) + wt * p
                partial = merged
            for key, wt in partial.items():
                nxt[key] = nxt.get(key, 0) + wt
        states = nxt
        denom *= math.prod(totals)
        totals = [t + f for t, f in zip(totals, inflow)]

    totals = np.array(totals, dtype=np.int64)
    out = []
    for w in sorted(states):
        white = np.array(w, dtype=np.int64)
        out.append(
            (
                UrnState(white=white, black=totals - white, time=horizon),
                Fraction(states[w], denom),
            )
        )
    return out


def distribution_mean_fractions(dist) -> list:
    """Exact per-vertex mean of the white fractions under an enumerated law."""
    if not dist:
        return []
    n = dist[0][0].n
    acc = [Fraction(0)] * n
    for state, prob in dist:
        z = state.exact_fractions()
        for i in range(n):
            acc[i] += prob * z[i]
    return acc


@dataclass(frozen=True)
class OracleReport:
    tv_distance: float
    threshold: float
    support_size: int
    runs: int
    passed: bool


def oracle_check(
    g: DirectedGraph,
    scheme,
    initial: UrnState,
    horizon: int,
    runs: int,
    master_seed: int,
) -> OracleReport:
    """Total-variation distance between the simulator's empirical law and
    the enumerated exact law at the same horizon, which must be at least 1:
    at t = 0 both laws are the start state."""
    if horizon < 1:
        raise InvalidParamsError(f"oracle check needs horizon >= 1, got {horizon}")
    exact = brute_force_distribution(g, scheme, initial, horizon)
    result = run_ensemble(
        g,
        scheme,
        initial,
        horizon,
        runs,
        master_seed,
        checkpoints=[horizon],
        snapshot_times=[horizon],
    )
    whites = result.snapshots[horizon]
    counts: dict = {}
    for row in map(tuple, whites.tolist()):
        counts[row] = counts.get(row, 0) + 1

    exact_by_w = {tuple(int(x) for x in state.white): float(p) for state, p in exact}
    support = set(exact_by_w) | set(counts)
    tv = 0.5 * sum(
        abs(counts.get(w, 0) / runs - exact_by_w.get(w, 0.0)) for w in support
    )
    threshold = 3.0 * math.sqrt(len(exact_by_w) / runs)
    return OracleReport(
        tv_distance=tv,
        threshold=threshold,
        support_size=len(exact_by_w),
        runs=runs,
        passed=tv <= threshold,
    )
