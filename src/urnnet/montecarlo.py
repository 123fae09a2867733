"""Seeded ensembles and exact small-case oracles.

Ensembles stream first and second moments of the fraction vector at a fixed
checkpoint grid, so memory stays flat in the number of runs.  Runs are
independent work items keyed by (master_seed, run_index); batches run on a
pool of worker processes and merge in fixed index order, which makes
results identical for any worker count.  The pool takes consecutive batches
in chunks whose outputs fit the engine's uniform budget, in the same order.

The second-moment sums, n(n + 1)/2 packed doubles per checkpoint, are the
largest arrays (40 MB at n = 200 with 250 steps recorded).  Each batch adds
into the first one's sums as it arrives, so the total and one batch's sums
are held while the ensemble runs.  The result keeps one n x n covariance,
the final checkpoint's, the only one the suites' judges and output read.

This layer knows the engine and the graph, not the theory: each statistic
a suite judges by (scaled covariance, decay slope, martingale drift) is
computed in `urnnet.verify`, beside the judge that reads it.
"""

from __future__ import annotations

import atexit
import functools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import dynamics
from .dynamics import (
    UrnState,
    check_batch,
    geometric_checkpoints,
    packed_upper,
    set_blas_threads,
    simulate_runs,
)
from .errors import EnumerationTooLargeError, InvalidParamsError
from .graph import DirectedGraph

#: bound on n * horizon for exact enumeration (2^(n*T) draw sequences)
BRUTE_FORCE_MAX_BITS = 20

#: runs per batch; fixed, so no result depends on how the runs are split
_BATCH_RUNS = 1024

#: (workers, executor) of the process pool that run_ensemble reuses
_pool = None


@dataclass
class EnsembleResult:
    """Streaming-moment summary of a seeded ensemble: its statistics only.

    mean_z and var_phi are indexed by checkpoint; var_phi is the average
    over vertices of the variance of Z_i minus the cross-sectional mean (the
    dispersion the identity-type decay theory is about).  cov_final is the
    covariance of Z at the last checkpoint, None without checkpoints.
    Snapshots, when requested, hold exact white counts per run at selected
    times; sup_dev, given a reference path, each run's sup-norm distance
    from it.  It records nothing about the rule or the graph: the suites of
    `urnnet.verify` judge those before they simulate.
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
    snapshots: dict = field(default_factory=dict)
    snapshot_totals: dict = field(default_factory=dict)
    sup_dev: np.ndarray | None = None

    def z_at(self, t: int) -> np.ndarray:
        """Per-run fraction vectors at a snapshot time, shape (runs, n)."""
        if t not in self.snapshots:
            raise InvalidParamsError(f"no snapshot stored at time {t}")
        return self.snapshots[t] / self.snapshot_totals[t]

    @classmethod
    def from_moments(cls, runs, horizon, checkpoints, sum_z, sum_outer, raw_seed,
                     initial: UrnState, snapshots=None, snapshot_totals=None,
                     sup_dev=None) -> "EnsembleResult":
        """Normalise moment sums over `runs` into a result.  `sum_outer[k]`
        is checkpoint k's Z^T Z sum packed at `packed_upper(n)`; its
        covariance is formed on that triangle, mirrored into one n x n array
        and reduced to its var_phi.  The last is kept; the sums are only read."""
        checkpoints = tuple(checkpoints)
        n = sum_z.shape[1]
        upper, unpack = packed_upper(n), np.empty((n, n), dtype=np.intp)
        unpack.flat[upper] = unpack.T.flat[upper] = np.arange(upper.size)
        mean = sum_z / runs
        centering = np.eye(n) - np.full((n, n), 1.0 / n)
        var_phi = np.empty(len(checkpoints))
        cov = np.zeros((n, n)) if checkpoints else None  # stays zero for one run
        left, right = np.empty((2, n, n))  # fresh products at n = 200: 0.45 ms a checkpoint, not 0.29
        for k in range(len(checkpoints)):
            if runs > 1:
                c = (sum_outer[k] - runs * np.outer(mean[k], mean[k]).take(upper)) / (runs - 1)
                np.take(c, unpack, out=cov, mode="clip")  # in range: clip skips a buffered copy
            np.matmul(np.matmul(centering, cov, out=left), centering, out=right)
            var_phi[k] = np.trace(right) / n
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
            snapshots=dict(snapshots or {}),
            snapshot_totals=dict(snapshot_totals or {}),
            sup_dev=sup_dev,
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


def check_ensemble(g, scheme, initial, horizon, runs, master_seed, checkpoints=None,
                   snapshot_times=(), reference_path=None, deviation_start=0) -> dict:
    """Raise what `run_ensemble` would raise for the same ensemble, else
    return its keywords, checkpoints resolved and sorted.  Cheap: plans
    build their ensembles with it."""
    if runs < 1:
        raise InvalidParamsError("runs must be >= 1")
    if checkpoints is None:
        checkpoints = geometric_checkpoints(horizon)
    checkpoints = tuple(sorted(set(int(t) for t in checkpoints)))
    check_batch(g, scheme, initial, horizon, range(runs), (*checkpoints, *snapshot_times),
                master_seed, reference_path)
    return dict(g=g, scheme=scheme, initial=initial, horizon=horizon, runs=runs,
                master_seed=master_seed, checkpoints=checkpoints, snapshot_times=snapshot_times,
                reference_path=reference_path, deviation_start=deviation_start)


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
    reference_path: np.ndarray | None = None,
    deviation_start: int = 0,
) -> EnsembleResult:
    """Simulate `runs` seeded trajectories and stream their moments.

    Deterministic in master_seed; run r always consumes substream
    (master_seed, r), so adding runs or changing `workers` never perturbs
    existing ones.  Runs go in fixed batches of 1,024; with more than one
    batch, the batches run on a shared pool of `workers` forked processes
    (default: every core this process may use), and their sums merge in
    batch order, so the result is bit-identical for every worker count.
    A pool task takes ceil(batches / workers) consecutive batches, or fewer
    (at least one) so that their moment sums and snapshot rows stay within
    the engine's 2^22-double budget (`dynamics._BLOCK_DOUBLES`).
    One batch, one worker, or a platform without fork runs in this process.
    Every batch, in this process or in a worker, draws its next uniform
    block on a helper thread while it steps the current one, when its
    horizon spans more than one block (see `simulate_runs`); a worker caps
    numpy's OpenBLAS at (usable cores // workers) threads.  Urns without
    in-edges stay frozen.  A reference path and deviation start go to every
    batch (see `simulate_runs`), and sup_dev joins the batches' in run order.
    """
    checkpoints = check_ensemble(g, scheme, initial, horizon, runs, master_seed, checkpoints,
                                 snapshot_times, reference_path)["checkpoints"]
    workers = usable_cores() if workers is None else workers
    if workers < 1:
        raise InvalidParamsError("workers must be >= 1")

    batches = [range(lo, min(lo + _BATCH_RUNS, runs)) for lo in range(0, runs, _BATCH_RUNS)]
    work = functools.partial(
        simulate_runs, g, scheme, initial, horizon, master_seed, checkpoints=checkpoints,
        snapshot_times=snapshot_times, reference_path=reference_path,
        deviation_start=deviation_start,
    )
    pool = _batch_pool(workers) if workers > 1 and len(batches) > 1 else None
    if pool is None:
        broken = ()
    else:
        from concurrent.futures.process import BrokenProcessPool

        broken = (BrokenProcessPool, KeyboardInterrupt)
        held = (len(checkpoints) * g.n * (g.n + 3) // 2  # doubles a batch returns
                + len(set(snapshot_times)) * _BATCH_RUNS * g.n)
        chunk = max(1, min(-(-len(batches) // workers), dynamics._BLOCK_DOUBLES // max(held, 1)))
    try:
        # submitting can meet a worker that died on an earlier batch
        outs = map(work, batches) if pool is None else pool.map(work, batches, chunksize=chunk)
        # batches add into the first one's sums as they arrive, in the fixed
        # batch order that keeps merging schedule-independent
        first = next(outs)
        sum_z, sum_outer, rows = first.sum_z, first.sum_outer, [(first.snapshots, first.sup_dev)]
        for out in outs:
            sum_z += out.sum_z
            sum_outer += out.sum_outer
            rows.append((out.snapshots, out.sup_dev))
            del out  # else it holds this batch while the next one runs
    except broken:
        # a dead worker, or an interrupt that reached the workers too: the
        # next call starts a fresh pool
        _discard_pool()
        raise
    snapshots = {t: np.concatenate([s[t] for s, _ in rows], axis=0) for t in first.snapshots}
    sup_dev = None if first.sup_dev is None else np.concatenate([d for _, d in rows])

    return EnsembleResult.from_moments(
        runs, horizon, checkpoints, sum_z, sum_outer, master_seed, initial, snapshots,
        first.snapshot_totals, sup_dev,
    )


class ExactLaw(NamedTuple):
    """State k has white counts `white[k]` and probability `weights[k] /
    denominator`, rows distinct and ascending, ball totals all equal.
    `weights` is int64 or an object array of Python ints (see `exact_law`)."""

    white: np.ndarray
    weights: np.ndarray
    denominator: int


def exact_law(g: DirectedGraph, scheme, initial: UrnState, horizon: int) -> ExactLaw:
    """Exact law of the urn state at time `horizon` by path enumeration,
    feasible only while n * horizon stays small (2^(n*horizon) draw
    sequences).  Ball totals are the same on every path, so each step's draw
    probabilities share the denominator prod_i T_i(t), and states carry
    integer weights (products of the numerators w_i and T_i - w_i).

    A state is one integer key in mixed radix: digit i is urn i's white gain
    since t = 0, in radix horizon * g_i + 1 (g_i the most white balls urn i
    gains in a step), urn 1 most significant, so that a draw adds a fixed
    key per vertex and colour with no carry and integer order is the white
    counts' lexicographic order.  Each step branches every state at once,
    vertex by vertex, into a row of 2^n weights (times the draw numerators),
    adds each draw vector's key, drops the zero weights and merges equal
    keys after one stable sort.  Keys and weights are int64 when the radix
    product and the denominator are below 2^63, which bound every partial
    key and weight, and Python ints otherwise.
    """
    n = g.n
    if n * horizon > BRUTE_FORCE_MAX_BITS:
        raise EnumerationTooLargeError(f"n * horizon = {n * horizon} exceeds {BRUTE_FORCE_MAX_BITS}")
    rf = check_batch(g, scheme, initial, horizon, ())
    gain = np.maximum(rf.on_white, rf.on_black).sum(axis=0)  # an urn's most white balls a step
    radix = [horizon * f + 1 for f in gain.tolist()]
    place = [math.prod(radix[i + 1 :]) for i in range(n)]
    totals = [initial.totals() + t * rf.inflow for t in range(horizon)]
    denominator = math.prod(math.prod(row.tolist()) for row in totals)
    dtype = np.int64 if max(math.prod(radix), denominator) < 2**63 else object
    # the key each of the 2^n draw vectors adds, vertex n's draw slowest:
    # its payouts at place value when it draws white / black
    offsets = np.zeros(1, dtype)
    for sent in zip(*(m.astype(object) @ place for m in (rf.on_white, rf.on_black))):
        offsets = np.add.outer(np.array(sent, dtype), offsets).ravel()

    def whites(keys):
        white = keys[:, None] // np.array(place, dtype)
        white %= np.array(radix, dtype)
        white = white.astype(np.int64, copy=False)
        white += initial.white
        return white

    keys, weights = np.zeros(1, dtype), np.ones(1, dtype)
    for total in totals:
        white = whites(keys)
        # draw numerators w_j and T_j - w_j per state, in offsets' layout
        numerators = np.stack([white, total - white], axis=1, dtype=dtype)
        weights = weights[:, None]
        for j in range(n):
            weights = (numerators[:, :, j, None] * weights[:, None, :]).reshape(keys.size, -1)
        del numerators
        keys, weights = np.add.outer(keys, offsets).ravel(), weights.ravel()
        drawn = weights != 0  # a zero numerator is an impossible branch
        if not drawn.all():
            keys, weights = keys[drawn], weights[drawn]
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        weights = weights[order]
        del order  # each generation goes before the next is built
        starts = np.flatnonzero(np.concatenate(([True], keys[1:] != keys[:-1])))
        keys, weights = keys[starts], np.add.reduceat(weights, starts)
    return ExactLaw(white=whites(keys), weights=weights, denominator=denominator)


def brute_force_distribution(g: DirectedGraph, scheme, initial: UrnState, horizon: int) -> list:
    """`exact_law` as (UrnState, Fraction) pairs, in its ascending row order.
    The probabilities are exact rationals and sum to one.  The rows pass
    `check_counts` once, as arrays, and no state is checked again."""
    law = exact_law(g, scheme, initial, horizon)
    black = initial.totals() + horizon * dynamics.Reinforcement.of(g, scheme).inflow - law.white
    white, black = dynamics.check_counts(law.white, black, horizon)
    return [(UrnState.from_checked(w, b, horizon), Fraction(p, law.denominator))
            for w, b, p in zip(white, black, law.weights.tolist())]


def distribution_mean_fractions(dist) -> list:
    """Exact per-vertex mean of the white fractions under an enumerated law."""
    terms = ([p * z for z in state.exact_fractions()] for state, p in dist)
    return [sum(vertex, Fraction(0)) for vertex in zip(*terms)]


@dataclass(frozen=True)
class OracleReport:
    tv_distance: float
    threshold: float
    support_size: int
    runs: int
    passed: bool


def oracle_plan(g: DirectedGraph, scheme, initial: UrnState, horizon: int, runs: int,
                master_seed: int) -> tuple:
    """The oracle's first half: refuse a horizon below 1 (at t = 0 both laws
    are the start state) and what `run_ensemble` would, then return the exact
    law at `horizon` and the keywords of its ensemble, snapshotted there."""
    if horizon < 1:
        raise InvalidParamsError(f"oracle check needs horizon >= 1, got {horizon}")
    ensemble = check_ensemble(g, scheme, initial, horizon, runs, master_seed, checkpoints=(),
                              snapshot_times=[horizon])
    return exact_law(g, scheme, initial, horizon), ensemble


def oracle_judge(law: ExactLaw, result: EnsembleResult) -> OracleReport:
    """The oracle's second half: total-variation distance between the
    result's white rows at its horizon and the law's rows, exactly.  Runs
    are counted on integer keys by searching the law's, which ascend.  With
    c_k of the R runs on row k, of probability p_k / D, and `off` runs on no
    row, TV = (sum_k |c_k D - p_k R| + off D) / (2 R D), summed in Python
    ints and divided once: the exact distance, correctly rounded."""
    runs, rows = result.runs, result.snapshots[result.horizon]
    tables = (law.white, rows)
    # keys in one mixed radix, urn 1 most significant, digit i of radix high_i - low_i + 1 over
    # column i of both tables; a column at a time, 10 times faster than reducing along axis 0
    low = [min(int(t[:, i].min()) for t in tables) for i in range(rows.shape[1])]
    high = [max(int(t[:, i].max()) for t in tables) for i in range(rows.shape[1])]
    place = [math.prod(h - lo + 1 for lo, h in zip(low[i + 1 :], high[i + 1 :])) for i in range(len(low))]
    dtype = np.int64 if sum(h * p for h, p in zip(high, place)) < 2**63 else object
    law_keys, run_keys = (t.astype(dtype, copy=False) @ np.array(place, dtype) for t in tables)
    at = np.searchsorted(law_keys[:-1], run_keys)  # a key past them all meets the last
    hit = law_keys[at] == run_keys  # bool for object keys too
    tally = np.bincount(at[hit], minlength=len(law_keys)).tolist()
    d = law.denominator
    off = runs - sum(tally)
    gap = sum(abs(c * d - p * runs) for c, p in zip(tally, law.weights.tolist()))
    tv = (gap + off * d) / (2 * runs * d)
    threshold = 3.0 * math.sqrt(len(tally) / runs)
    return OracleReport(tv, threshold, len(tally), runs, tv <= threshold)


def oracle_check(g: DirectedGraph, scheme, initial: UrnState, horizon: int, runs: int,
                 master_seed: int) -> OracleReport:
    """Total-variation distance between the simulator's empirical law and
    the enumerated exact law at the same horizon: `oracle_plan`, which
    checks every input before it enumerates, its ensemble, `oracle_judge`."""
    law, ensemble = oracle_plan(g, scheme, initial, horizon, runs, master_seed)
    return oracle_judge(law, run_ensemble(**ensemble))
