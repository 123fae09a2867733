"""The discrete-time urn state machine.

Every vertex holds an urn of white and black balls.  Each step, one ball is
drawn (and replaced) from every urn independently; urn i then receives, from
each in-neighbour j, a_j white and m_j - a_j black balls if j drew white,
and m_j - b_j white and b_j black balls if j drew black.  Ball counts stay
exact integers and grow deterministically: urn i gains the sum of m_j over
its in-neighbours at every step.

Two execution paths share one random stream layout: `step` advances a single
exact integer state, and `simulate_runs` advances a whole batch of runs in
lockstep on float64 (exact for integers below 2**53).  Run r of master seed
s always consumes the same counter-based stream keyed by (s, r), so results
never depend on batching or execution order.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InvalidParamsError, ZeroInDegreeError
from .graph import DirectedGraph

#: largest ball count the float64 fast path may reach while staying exact
MAX_EXACT_COUNT = 2.0**53

#: target number of uniforms held in memory per random block
_BLOCK_DOUBLES = 1 << 24

RECORD_POLICIES = ("every_step", "geometric_checkpoints", "final_only")


@dataclass(frozen=True)
class ReplacementMatrix:
    """Balanced 2x2 reinforcement rule [[a, m-a], [m-b, b]] with row sum m."""

    a: int
    b: int
    m: int

    def __post_init__(self):
        for name in ("a", "b", "m"):
            value = getattr(self, name)
            # bool is an Integral, but True as a ball count is a caller's mistake
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise InvalidParamsError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.m < 1:
            raise InvalidParamsError("m must be a positive integer")
        if not (0 <= self.a <= self.m and 0 <= self.b <= self.m):
            raise InvalidParamsError("need 0 <= a <= m and 0 <= b <= m")

    @property
    def alpha(self) -> float:
        return self.a / self.m

    @property
    def beta(self) -> float:
        return self.b / self.m

    def is_polya(self) -> bool:
        """Drawn colour reinforced only (the identity-type rule a = b = m)."""
        return self.a == self.m and self.b == self.m

    def is_friedman(self) -> bool:
        return self.a == self.b and self.a != self.m

    def as_matrix(self) -> np.ndarray:
        return np.array([[self.a, self.m - self.a], [self.m - self.b, self.b]], dtype=np.int64)


@dataclass(frozen=True)
class HeterogeneousScheme:
    """One replacement matrix per vertex; vertex j's matrix governs the balls
    it sends to its out-neighbours."""

    matrices: tuple

    def __post_init__(self):
        object.__setattr__(self, "matrices", tuple(self.matrices))
        if not self.matrices:
            raise InvalidParamsError("scheme needs at least one matrix")
        for r in self.matrices:
            if not isinstance(r, ReplacementMatrix):
                raise InvalidParamsError("matrices must be ReplacementMatrix values")

    @property
    def n(self) -> int:
        return len(self.matrices)

    def is_polya(self) -> bool:
        return all(r.is_polya() for r in self.matrices)


def scheme_vectors(scheme, n: int):
    """Per-vertex (a, b, m) int64 vectors for either scheme flavour."""
    if isinstance(scheme, ReplacementMatrix):
        a = np.full(n, scheme.a, dtype=np.int64)
        b = np.full(n, scheme.b, dtype=np.int64)
        m = np.full(n, scheme.m, dtype=np.int64)
        return a, b, m
    if isinstance(scheme, HeterogeneousScheme):
        if scheme.n != n:
            raise InvalidParamsError(f"scheme has {scheme.n} matrices for {n} vertices")
        a = np.array([r.a for r in scheme.matrices], dtype=np.int64)
        b = np.array([r.b for r in scheme.matrices], dtype=np.int64)
        m = np.array([r.m for r in scheme.matrices], dtype=np.int64)
        return a, b, m
    raise InvalidParamsError(f"unsupported scheme type {type(scheme).__name__}")


@dataclass(frozen=True)
class UrnState:
    """Ball counts of every urn at one time step."""

    white: np.ndarray
    black: np.ndarray
    time: int = 0

    def __post_init__(self):
        w, b = np.asarray(self.white), np.asarray(self.black)
        if w.shape != b.shape or w.ndim != 1:
            raise InvalidParamsError("white and black must be 1-d vectors of equal length")
        if w.size and (w.dtype.kind not in "iu" or b.dtype.kind not in "iu"):
            raise InvalidParamsError("ball counts must be integers")
        w, b = w.astype(np.int64, copy=False), b.astype(np.int64, copy=False)
        if np.any(w < 0) or np.any(b < 0):
            raise InvalidParamsError("ball counts must be non-negative")
        if np.any(w + b < 1):
            raise InvalidParamsError("every urn needs at least one ball")
        if self.time < 0:
            raise InvalidParamsError("time must be non-negative")
        object.__setattr__(self, "white", w)
        object.__setattr__(self, "black", b)

    @property
    def n(self) -> int:
        return len(self.white)

    def totals(self) -> np.ndarray:
        return self.white + self.black

    def fractions(self) -> np.ndarray:
        """Proportion of white balls per urn."""
        return self.white / self.totals()

    def exact_fractions(self) -> list:
        return [Fraction(int(w), int(w + b)) for w, b in zip(self.white, self.black)]


def default_initial_state(n: int, white: int = 1, black: int = 1) -> UrnState:
    return UrnState(
        white=np.full(n, white, dtype=np.int64),
        black=np.full(n, black, dtype=np.int64),
        time=0,
    )


def make_stream(master_seed: int, run_index: int = 0) -> np.random.Generator:
    """Counter-based stream for one run, keyed by (master_seed, run_index)."""
    master_seed = int(master_seed)
    run_index = int(run_index)
    if not (0 <= master_seed < 2**64):
        raise InvalidParamsError("master seed must fit in 64 bits")
    if not (0 <= run_index < 2**64):
        raise InvalidParamsError("run index must fit in 64 bits")
    key = np.array([master_seed, run_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _check_reinforced(g: DirectedGraph, allow_zero_in_degree: bool):
    if allow_zero_in_degree:
        return
    d_in = g.in_degrees()
    missing = np.flatnonzero(d_in == 0) + 1
    if missing.size:
        raise ZeroInDegreeError(missing)


def step(
    state: UrnState,
    g: DirectedGraph,
    scheme,
    rng: np.random.Generator,
    allow_zero_in_degree: bool = False,
) -> UrnState:
    """Advance the exact integer state by one draw-and-reinforce step.

    Consumes exactly n uniforms (one per urn, urn order).  Urns at vertices
    with no in-neighbours never change; by default their presence is an
    error because the limit theory assumes every urn is reinforced.
    """
    n = g.n
    if state.n != n:
        raise InvalidParamsError("state size does not match graph")
    _check_reinforced(g, allow_zero_in_degree)
    a_vec, b_vec, m_vec = scheme_vectors(scheme, n)
    adj = g.adjacency()
    drew_white = rng.random(n) < state.fractions()
    sent_white = np.where(drew_white, a_vec, m_vec - b_vec)
    add_white = sent_white @ adj
    add_black = (m_vec @ adj) - add_white
    return UrnState(
        white=state.white + add_white,
        black=state.black + add_black,
        time=state.time + 1,
    )


def expected_fractions_after_step(state: UrnState, g: DirectedGraph, scheme) -> list:
    """One-step conditional expectation of the white fractions, exact rationals."""
    n = g.n
    a_vec, b_vec, m_vec = scheme_vectors(scheme, n)
    adj = g.adjacency()
    z = state.exact_fractions()
    mean_sent = [
        Fraction(int(a_vec[j])) * z[j] + Fraction(int(m_vec[j] - b_vec[j])) * (1 - z[j])
        for j in range(n)
    ]
    out = []
    for i in range(n):
        incoming = sum(mean_sent[j] for j in range(n) if adj[j, i])
        total_next = int(state.white[i] + state.black[i] + (m_vec @ adj[:, i]))
        out.append((Fraction(int(state.white[i])) + incoming) / total_next)
    return out


def geometric_checkpoints(horizon: int, ratio: float = 1.5) -> list:
    """Geometrically spaced recording times in [1, horizon], end included."""
    if horizon < 1:
        return [horizon] if horizon == 0 else []
    times = set()
    x = 1.0
    while int(x) <= horizon:
        times.add(int(x))
        x *= ratio
    times.add(horizon)
    return sorted(times)


def record_times(horizon: int, policy: str) -> list:
    if policy == "every_step":
        return list(range(horizon + 1))
    if policy == "geometric_checkpoints":
        return sorted({0, *geometric_checkpoints(horizon)})
    if policy == "final_only":
        return [horizon]
    raise InvalidParamsError(f"unknown record policy {policy!r}; choose from {RECORD_POLICIES}")


@dataclass
class EngineOutput:
    """Raw per-batch simulation output: moment sums per checkpoint, integer
    snapshots at selected times, and optional per-run sup deviations."""

    checkpoints: tuple
    count: int
    sum_z: np.ndarray
    sum_outer: np.ndarray
    snapshots: dict = field(default_factory=dict)
    snapshot_totals: dict = field(default_factory=dict)
    sup_dev: np.ndarray | None = None


def check_batch(
    g: DirectedGraph,
    scheme,
    initial: UrnState,
    horizon: int,
    run_indices,
    recording_times=(),
    allow_zero_in_degree: bool = False,
) -> None:
    """Raise the error `simulate_runs` would raise for these arguments.

    Runs every check on the inputs before the first draw: sizes, a
    reinforced graph, the scheme, integer exactness of the ball counts up
    to `horizon`, run indices in [0, 2**64) and recording times in
    [0, horizon].  Cheap, so callers that hand batches to other processes
    run it first and report bad input in their own process.
    """
    n = g.n
    if initial.n != n:
        raise InvalidParamsError("initial state size does not match graph")
    if horizon < 0:
        raise InvalidParamsError("horizon must be non-negative")
    _check_reinforced(g, allow_zero_in_degree)
    _, _, m_vec = scheme_vectors(scheme, n)
    # balls each urn gains per step, summed over the edges: an n x n
    # temporary here shifts the heap under simulate_runs' step loop, which
    # then made glibc re-fault its temporaries every step at n = 200
    inflow = [0] * n
    for i, j in g.edges:
        inflow[j - 1] += int(m_vec[i - 1])
    if float(initial.totals().max()) + horizon * float(max(inflow)) >= MAX_EXACT_COUNT:
        raise InvalidParamsError("horizon too large: ball counts would lose integer exactness")
    if len(run_indices) and not (0 <= min(run_indices) and max(run_indices) < 2**64):
        raise InvalidParamsError("run index must fit in 64 bits")
    if any(t < 0 or t > horizon for t in recording_times):
        raise InvalidParamsError("recording times must lie in [0, horizon]")


def simulate_runs(
    g: DirectedGraph,
    scheme,
    initial: UrnState,
    horizon: int,
    master_seed: int,
    run_indices,
    checkpoints=(),
    snapshot_times=(),
    reference_path: np.ndarray | None = None,
    deviation_start: int = 0,
    allow_zero_in_degree: bool = False,
) -> EngineOutput:
    """Run a batch of independent trajectories in lockstep.

    Each run index gets its own stream; per-run results are identical to
    driving `step` with `make_stream(master_seed, run_index)`.  The batch
    builds one generator and re-keys its Philox bit generator for every run
    and random block: key (master_seed, run_index), counter at the run's
    next unused draw.  Blocks shorter than the horizon hold a multiple of 4
    steps, so every block starts on a counter boundary (Philox yields 4
    doubles per counter value) and no draw is skipped or repeated.  Checkpoints
    accumulate sums of Z and of Z^T Z across the batch; snapshot times store
    exact white counts per run.  With a reference path (shape (horizon+1, n)),
    the running sup-norm deviation from it is tracked per run from
    `deviation_start` onward.
    """
    run_indices = [int(r) for r in run_indices]
    checkpoints = tuple(sorted(set(int(t) for t in checkpoints)))
    snapshot_set = set(int(t) for t in snapshot_times)
    check_batch(
        g, scheme, initial, horizon, run_indices, (*checkpoints, *snapshot_set),
        allow_zero_in_degree,
    )
    n = g.n
    n_runs = len(run_indices)
    cp_index = {t: k for k, t in enumerate(checkpoints)}
    a_vec, b_vec, m_vec = scheme_vectors(scheme, n)

    adj = g.adjacency().astype(float)
    inflow = m_vec.astype(float) @ adj
    base_w = (m_vec - b_vec).astype(float) @ adj
    bonus = (a_vec + b_vec - m_vec).astype(float)[:, None] * adj
    totals0 = initial.totals()

    out = EngineOutput(
        checkpoints=checkpoints,
        count=n_runs,
        sum_z=np.zeros((len(checkpoints), n)),
        sum_outer=np.zeros((len(checkpoints), n, n)),
    )
    if reference_path is not None:
        reference_path = np.asarray(reference_path, dtype=float)
        if reference_path.shape != (horizon + 1, n):
            raise InvalidParamsError("reference path must have shape (horizon+1, n)")
        out.sup_dev = np.zeros(n_runs)

    w = np.repeat(initial.white.astype(float)[None, :], n_runs, axis=0)
    totals = totals0.astype(float)

    def record(t: int):
        k = cp_index.get(t)
        if k is not None:
            z = w / totals
            out.sum_z[k] += z.sum(axis=0)
            out.sum_outer[k] += z.T @ z
        if t in snapshot_set:
            out.snapshots[t] = w.astype(np.int64)
            out.snapshot_totals[t] = totals.astype(np.int64)

    record(0)
    if reference_path is not None and deviation_start <= 0:
        np.maximum(out.sup_dev, np.abs(w / totals - reference_path[0]).max(axis=1), out=out.sup_dev)

    if horizon == 0 or n_runs == 0:
        return out

    gen = make_stream(master_seed, run_indices[0])
    bitgen = gen.bit_generator
    rekey = bitgen.state
    key, counter = [int(master_seed), 0], [0, 0, 0, 0]
    rekey["state"] = {"key": key, "counter": counter}
    rekey["buffer_pos"] = 4  # empty buffer: the next draw starts a new counter
    block = max(1, min(horizon, _BLOCK_DOUBLES // max(1, n_runs * n)))
    if block < horizon:
        block = min(horizon, max(4, block - block % 4))
    uniforms = np.empty((n_runs, block, n))

    t = 0
    while t < horizon:
        this_block = min(block, horizon - t)
        counter[0] = t * n // 4
        for i, r in enumerate(run_indices):
            key[1] = r
            bitgen.state = rekey
            gen.random(out=uniforms[i, :this_block, :])
        for s in range(this_block):
            drew_white = uniforms[:, s, :] < (w / totals)
            w += base_w + drew_white.astype(float) @ bonus
            totals = totals + inflow
            t += 1
            if reference_path is not None and t >= deviation_start:
                dev = np.abs(w / totals - reference_path[t]).max(axis=1)
                np.maximum(out.sup_dev, dev, out=out.sup_dev)
            if t in cp_index or t in snapshot_set:
                record(t)
    return out


def run_trajectory(
    g: DirectedGraph,
    scheme,
    initial: UrnState,
    horizon: int,
    seed: int,
    record: str = "every_step",
    run_index: int = 0,
    allow_zero_in_degree: bool = False,
) -> list:
    """Simulate one seeded run and return [(t, Z_t)] at the recorded times.

    Deterministic in (seed, run_index); the trajectory equals run
    `run_index` of any ensemble drawn from the same master seed.
    """
    times = record_times(horizon, record)
    out = simulate_runs(
        g,
        scheme,
        initial,
        horizon,
        seed,
        [run_index],
        snapshot_times=times,
        allow_zero_in_degree=allow_zero_in_degree,
    )
    return [(t, out.snapshots[t][0] / out.snapshot_totals[t]) for t in times]


def mean_field_path(g: DirectedGraph, scheme, initial: UrnState, horizon: int) -> np.ndarray:
    """Noise-free companion path: iterate the one-step conditional mean.

    Row t is the fraction vector after t steps when every draw is replaced
    by its expectation.  This is an Euler path of the limit ODE with the
    recursion's own per-vertex step sizes.
    """
    n = g.n
    a_vec, b_vec, m_vec = scheme_vectors(scheme, n)
    adj = g.adjacency().astype(float)
    inflow = m_vec.astype(float) @ adj
    path = np.empty((horizon + 1, n))
    x = initial.fractions()
    totals = initial.totals().astype(float)
    path[0] = x
    for t in range(1, horizon + 1):
        mean_sent = a_vec * x + (m_vec - b_vec) * (1.0 - x)
        totals_next = totals + inflow
        x = (totals * x + mean_sent @ adj) / totals_next
        totals = totals_next
        path[t] = x
    return path
