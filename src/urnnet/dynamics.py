"""The discrete-time urn state machine.

Every vertex holds an urn of white and black balls.  Each step, one ball is
drawn (and replaced) from every urn independently; urn i then receives, from
each in-neighbour j, a_j white and m_j - a_j black balls if j drew white,
and m_j - b_j white and b_j black balls if j drew black.  Ball counts stay
exact integers and grow deterministically: urn i gains the sum of m_j over
its in-neighbours at every step.

Two execution paths share one random stream layout: `step` advances a single
exact integer state, and `simulate_runs` advances a whole batch of runs in
lockstep on float64 (exact for integers below 2**53), with the
reinforcement product in float32 (exact while an urn gains fewer than 2**24
balls a step).  Run r of master seed s always consumes the same
counter-based stream keyed by (s, r), so results never depend on batching,
execution order or the thread that draws them.
"""

from __future__ import annotations

import contextlib
import functools
import numbers
import sys
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from .errors import InvalidParamsError
from .graph import DirectedGraph

#: largest ball count the float64 fast path may reach while staying exact
MAX_EXACT_COUNT = 2.0**53

#: bound on the balls an urn gains per step: the float32 reinforcement
#: product is exact below it
MAX_EXACT_INFLOW = 2**24

#: target number of uniforms held in memory per batch, over all its blocks
_BLOCK_DOUBLES = 1 << 22


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


@dataclass(frozen=True, eq=False)
class Reinforcement:
    """A rule's payouts along the edges of a graph, as int64 arrays.

    `on_white[j, i]` and `on_black[j, i]` are the white balls urn i + 1
    receives from urn j + 1 when j + 1 draws white or black: a_j A[j, i] and
    (m_j - b_j) A[j, i].  `inflow[i]` is the balls urn i + 1 gains every
    step, m @ A, and `rules` the per-vertex rows a, b and m.  Every path
    that advances or predicts the urns reads these.
    """

    on_white: np.ndarray
    on_black: np.ndarray
    inflow: np.ndarray
    rules: np.ndarray

    @classmethod
    def of(cls, g: DirectedGraph, scheme) -> "Reinforcement":
        if isinstance(scheme, ReplacementMatrix):
            rules = (scheme,) * g.n
        elif isinstance(scheme, HeterogeneousScheme):
            if scheme.n != g.n:
                raise InvalidParamsError(f"scheme has {scheme.n} matrices for {g.n} vertices")
            rules = scheme.matrices
        else:
            raise InvalidParamsError(f"unsupported scheme type {type(scheme).__name__}")
        if max(r.m for r in rules) * max(1, int(g.in_degrees().max())) >= 2**63:  # a, b <= m
            raise InvalidParamsError("m times an urn's in-degree must stay below 2**63 (int64)")
        a, b, m = rules = np.array([(r.a, r.b, r.m) for r in rules], dtype=np.int64).T
        adj = g.adjacency()
        return cls(a[:, None] * adj, (m - b)[:, None] * adj, m @ adj, rules)


def normalised_rule(g: DirectedGraph, scheme) -> tuple:
    """(alpha, beta, W) of a rule on g: alpha = a/m and beta = b/m, floats
    for a `ReplacementMatrix` and per-vertex arrays for a scheme, and
    W[j, i] = m_j A_ji / Mhat_i, vertex j's share of urn i's inflow (A~ for
    a common m; zero columns at unreinforced vertices)."""
    rf = Reinforcement.of(g, scheme)
    a, b, m = rf.rules
    w = m[:, None] * g.adjacency() / np.maximum(rf.inflow, 1)
    if isinstance(scheme, ReplacementMatrix):
        return scheme.alpha, scheme.beta, w
    return a / m, b / m, w


def check_counts(white: np.ndarray, black: np.ndarray, time: int) -> tuple:
    """(white, black) as int64, refusing non-integer or negative counts, empty urns, time < 0."""
    if white.size and (white.dtype.kind not in "iu" or black.dtype.kind not in "iu"):
        raise InvalidParamsError("ball counts must be integers")
    w, b = white.astype(np.int64, copy=False), black.astype(np.int64, copy=False)
    if w.size and (w | b).min() < 1:  # one reduction: a count's sign bit, or an empty urn
        if min(w.min(), b.min()) < 0:
            raise InvalidParamsError("ball counts must be non-negative")
        raise InvalidParamsError("every urn needs at least one ball")
    if time < 0:
        raise InvalidParamsError("time must be non-negative")
    return w, b


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
        w, b = check_counts(w, b, self.time)
        object.__setattr__(self, "white", w)
        object.__setattr__(self, "black", b)

    @classmethod
    def from_checked(cls, white: np.ndarray, black: np.ndarray, time: int) -> "UrnState":
        """A state of int64 vectors that `check_counts` passed, not checked again."""
        state = object.__new__(cls)
        state.__dict__.update(white=white, black=black, time=time)
        return state

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


def default_initial_state(n: int) -> UrnState:
    """One white and one black ball in every urn."""
    return UrnState(white=np.ones(n, dtype=np.int64), black=np.ones(n, dtype=np.int64))


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


#: Philox4x64 round multipliers and key bumps (Salmon, Moraes, Dror and
#: Shaw, SC 2011), as numpy's Philox uses them, for words 0 and 2 and for
#: key words 0 and 1
_PHILOX_M = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_W = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)


def philox_doubles(master_seed: int, run_indices: np.ndarray, counter: int) -> np.ndarray:
    """(runs, 4) doubles: row i is `make_stream(master_seed, r).random(4)` for
    r = run_indices[i] (uint64) with its Philox counter set to `counter`.

    numpy increments the counter before it draws, so this is one
    Philox4x64-10 block at counter + 1 under key (master_seed, r), computed
    for every run at once in uint64 arrays, which wrap mod 2**64 without a
    warning.  A round maps the words (x0, x1, x2, x3) to (hi(M1 x2) ^ x1 ^
    k0, lo(M1 x2), hi(M0 x0) ^ x3 ^ k1, lo(M0 x0)), so both products run as
    one (2, runs) expression, their high words from 32-bit halves; round 1,
    whose words are (counter + 1, 0, 0, 0) in every run, is one product on
    Python ints.  A double is (x >> 11) * 2**-53, as numpy draws it.
    """
    even, odd = np.empty((2, 2, len(run_indices)), dtype=np.uint64)  # words (x0, x2), (x1, x3)
    x2_high, x3 = divmod(int(_PHILOX_M[0, 0]) * (counter + 1), 2**64)  # round 1
    even[0], even[1], odd[0], odd[1] = master_seed, run_indices ^ np.uint64(x2_high), 0, x3
    key = np.stack((even[0], run_indices)) + _PHILOX_W  # (master_seed, r), bumped once
    m_lo, m_hi = _PHILOX_M & 0xFFFFFFFF, _PHILOX_M >> 32
    for _ in range(9):
        lo, hi = even & 0xFFFFFFFF, even >> 32
        mid = hi * m_lo + (lo * m_lo >> 32)  # below 2**64, as is low_mid
        low_mid = lo * m_hi + (mid & 0xFFFFFFFF)
        high = hi * m_hi + (mid >> 32) + (low_mid >> 32)
        even, odd = high[::-1] ^ odd ^ key, (even * _PHILOX_M)[::-1]
        key += _PHILOX_W
    return (np.stack((even[0], odd[0], even[1], odd[1]), axis=1) >> 11) * 2.0**-53


@functools.cache
def _openblas(package: str) -> tuple:
    """(get, set) thread counts of the OpenBLAS `package` (numpy or scipy) maps, found
    once in /proc/self/maps, in its own tree (numpy.libs) first: never the other
    wheel's copy.  Without it, or with another BLAS, they read 1, set nothing."""
    import ctypes
    import os

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        paths = set()
    root = os.path.dirname(sys.modules[package].__file__)  # a prefix of its .libs too
    names = [
        (f"{prefix}_get_num_threads{suffix}", f"{prefix}_set_num_threads{suffix}")
        for prefix in ("scipy_openblas", "openblas")
        for suffix in ("64_", "")
    ]
    for path in sorted(paths, key=lambda p: (not p.startswith(root), p)):
        lib = ctypes.CDLL(path)
        for get_name, set_name in names:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                return get, put
    return (lambda: 1), (lambda threads: None)


def set_blas_threads(threads: int) -> list:
    """Cap numpy's OpenBLAS, and scipy's once its LAPACK is loaded (never
    importing it), at `threads` (at least one, raising no count); return
    [(set, old count)].  Pool workers start with it, so their BLAS threads do
    not contend for cores (2,048 runs x 250 steps, n = 200, 2 vCPUs: 5.6-7.4 s
    uncapped on two workers, 2.5-3.1 s capped)."""
    loaded = ("numpy", "scipy") if "scipy.linalg._flapack" in sys.modules else ("numpy",)
    capped = [(put, get()) for get, put in map(_openblas, loaded)]
    for put, before in capped:
        put(max(1, min(before, threads)))
    return capped


@contextlib.contextmanager
def blas_threads(threads: int):
    """`set_blas_threads` for one scope, or a decorator; restores what it
    capped on every exit, so nested scopes restore in order.  The prefetch
    holds one thread fewer, leaving the fill thread a core.  The theory solves
    and every scipy LAPACK call in `spectral` hold one: idle OpenBLAS threads
    spin about 0.13 s after a call, which oversubscribes 2 cores, and scipy's
    n = 200 Schur form rounds differently on 1 and 2 threads."""
    capped = set_blas_threads(threads)
    try:
        yield
    finally:
        for put, before in reversed(capped):
            put(before)


def check_state(g: DirectedGraph, state: UrnState) -> None:
    """Raise unless `state` holds one urn per vertex of `g`."""
    if state.n != g.n:
        raise InvalidParamsError("initial state size does not match graph")


def step(
    state: UrnState,
    g: DirectedGraph,
    scheme,
    rng: np.random.Generator,
) -> UrnState:
    """Advance the exact integer state by one draw-and-reinforce step.

    Consumes exactly n uniforms (one per urn, urn order).  Urns at vertices
    with no in-neighbours never change; the code that claims a limit, which
    needs every urn reinforced, refuses such graphs itself.
    """
    check_state(g, state)
    rf = Reinforcement.of(g, scheme)
    drew_white = rng.random(g.n) < state.fractions()
    add_white = np.where(drew_white[:, None], rf.on_white, rf.on_black).sum(axis=0)
    return UrnState(
        white=state.white + add_white,
        black=state.black + rf.inflow - add_white,
        time=state.time + 1,
    )


def _mean_step(x: np.ndarray, totals: np.ndarray, rf: Reinforcement) -> np.ndarray:
    """E[Z_{t+1} | Z_t = x] at totals T: (T x + x on_white + (1 - x) on_black)
    / (T + inflow), exact on an object array of Fractions, else float64."""
    return (totals * x + x @ rf.on_white + (1 - x) @ rf.on_black) / (totals + rf.inflow)


def expected_fractions_after_step(state: UrnState, g: DirectedGraph, scheme) -> list:
    """One-step conditional expectation of the white fractions, exact rationals."""
    check_state(g, state)
    z = np.array(state.exact_fractions(), dtype=object)
    return list(_mean_step(z, state.totals(), Reinforcement.of(g, scheme)))


def geometric_checkpoints(horizon: int) -> list:
    """Recording times in [1, horizon], spaced by a factor of 1.5, end included."""
    if horizon < 1:
        return [horizon] if horizon == 0 else []
    times = set()
    x = 1.0
    while int(x) <= horizon:
        times.add(int(x))
        x *= 1.5
    times.add(horizon)
    return sorted(times)


@functools.cache
def packed_upper(n: int) -> np.ndarray:
    """Flat indices of an n x n upper triangle, row by row; shared, never written."""
    return np.ravel_multi_index(np.triu_indices(n), (n, n))


@dataclass
class EngineOutput:
    """Raw per-batch simulation output: moment sums per checkpoint (Z^T Z packed
    at `packed_upper(n)`), integer snapshots and optional per-run sup deviations."""

    checkpoints: tuple
    count: int
    sum_z: np.ndarray
    sum_outer: np.ndarray  # upper triangles of the exactly symmetric Z^T Z sums
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
    master_seed: int = 0,
    reference_path: np.ndarray | None = None,
) -> Reinforcement:
    """Raise the error `simulate_runs` would raise for these arguments, and
    return the rule's `Reinforcement` on `g` otherwise.

    Runs every check on the inputs before the first draw: sizes, the
    scheme, integer exactness of the ball counts up to `horizon` (below
    2**53) and of the balls an urn gains per step (below 2**24), the master
    seed (default 0) and run indices in [0, 2**64), a `range` by its two
    ends, recording times in [0, horizon], and a reference path's shape,
    (horizon + 1, n).  A vertex without in-edges is
    no error: its urn stays frozen.  Cheap, so callers that hand batches to
    other processes run it first and report bad input in their own process.
    """
    check_state(g, initial)
    if horizon < 0:
        raise InvalidParamsError("horizon must be non-negative")
    rf = Reinforcement.of(g, scheme)
    if float(initial.totals().max()) + horizon * float(rf.inflow.max()) >= MAX_EXACT_COUNT:
        raise InvalidParamsError("horizon too large: ball counts would lose integer exactness")
    if int(rf.inflow.max()) >= MAX_EXACT_INFLOW:
        raise InvalidParamsError(
            f"rule too large: an urn gains {int(rf.inflow.max())} balls a step, and the "
            "float32 reinforcement product keeps integer exactness only below 2**24"
        )
    if not (0 <= int(master_seed) < 2**64):
        raise InvalidParamsError("master seed must fit in 64 bits")
    ends = (*run_indices[:1], *run_indices[-1:]) if isinstance(run_indices, range) else run_indices
    if len(ends) and not (0 <= min(ends) and max(ends) < 2**64):
        raise InvalidParamsError("run index must fit in 64 bits")
    if any(t < 0 or t > horizon for t in recording_times):
        raise InvalidParamsError("recording times must lie in [0, horizon]")
    if reference_path is not None and np.shape(reference_path) != (horizon + 1, g.n):
        raise InvalidParamsError("reference path must have shape (horizon+1, n)")
    return rf


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
) -> EngineOutput:
    """Run a batch of independent trajectories in lockstep.

    Each run index gets its own stream; per-run results are identical to
    driving `step` with `make_stream(master_seed, run_index)`.  Blocks
    shorter than the horizon hold a multiple of 4 steps, so every block
    starts on a counter boundary (Philox yields 4 doubles per counter
    value) and no draw is skipped or repeated.  A block whose rows fit in
    one counter value (steps * n <= 4, as in the oracle's 1- and 2-step
    runs on 2 urns) is one Philox block per run, and `philox_doubles`
    computes it for every run at once, on keys that a `range` gives as one
    `np.arange`: about 0.11 ms a batch plus 0.22 us a run (2-vCPU Xeon).
    Every longer block re-keys the batch's one Philox bit generator for
    every run: key (master_seed, run_index), counter at the run's next
    unused draw.  The re-key state is one dict of plain Python ints, built
    once per batch, so setting it converts no numpy scalar: a re-key and a
    4-double fill cost about 1.3 us a run.  Checkpoints
    accumulate sums of Z and of Z^T Z (its upper triangle) across the batch;
    snapshot times store exact white counts per run.  With a reference path
    (shape (horizon+1, n)), the running sup-norm deviation from it is
    tracked per run from `deviation_start` onward.

    When the 2**22-double budget holds two blocks of at least 4 steps and
    the horizon needs more than one, a helper thread fills block k + 1 into
    one of two half-budget buffers while this thread steps block k from the
    other, and numpy's OpenBLAS runs one thread fewer (at least one) until
    the helper is joined, on every exit path.  Otherwise this thread fills
    one buffer and steps it in turn.  The generator is built here and, while
    the loop runs, only the helper draws.

    The white balls an urn gains are base + drew_white @ bonus, a float32
    product of a 0/1 and an integer matrix: every partial sum is an integer
    no larger in magnitude than the urn's inflow, below 2**24
    (`check_batch`), so it is exact.  Each run's row of a uniform buffer is
    padded by ceil(8 / n) steps, at least one 64-byte cache line, so the
    rows one step reads do not all fall in the same cache sets when a row's
    length is a power of two.  The totals, the inflow and the gain of an
    all-black draw are held as full (runs, n) arrays, so no step broadcasts
    an n-vector across the runs, but for the reference row of the deviation
    track.  Z = W / T is divided once per step, after the update; the next
    draw, the deviation track and the checkpoint sums all read it.  Memory:
    the uniform buffers, 32 MB together plus a pad each, the (checkpoints,
    n(n + 1)/2) and (checkpoints, n) moment sums, an n x n scratch for
    Z^T Z, and these three and a few more (runs, n) arrays.
    """
    if not isinstance(run_indices, range):  # a range holds ints already
        run_indices = [int(r) for r in run_indices]
    checkpoints = tuple(sorted(set(int(t) for t in checkpoints)))
    snapshot_set = set(int(t) for t in snapshot_times)
    rf = check_batch(g, scheme, initial, horizon, run_indices, (*checkpoints, *snapshot_set),
                     master_seed, reference_path)
    n = g.n
    n_runs = len(run_indices)
    cp_index = {t: k for k, t in enumerate(checkpoints)}

    out = EngineOutput(
        checkpoints=checkpoints,
        count=n_runs,
        sum_z=np.zeros((len(checkpoints), n)),
        sum_outer=np.zeros((len(checkpoints), n * (n + 1) // 2)),
    )
    square, upper = np.empty((n, n)), packed_upper(n)
    track_from = horizon + 1  # no deviation track
    if reference_path is not None:
        reference_path = np.asarray(reference_path, dtype=float)
        out.sup_dev = np.zeros(n_runs)
        track_from = deviation_start
        dev = np.empty((n_runs, n))

    # white balls gained per step = base_w + drew_white @ bonus, integers
    # below 2**24 in float32; one row per run, so no step broadcasts an n-vector
    w, totals, inflow = (
        np.tile(v.astype(float), (n_runs, 1)) for v in (initial.white, initial.totals(), rf.inflow)
    )
    base_w = np.tile(rf.on_black.sum(axis=0).astype(np.float32), (n_runs, 1))
    bonus = (rf.on_white - rf.on_black).astype(np.float32)
    z = w / totals

    def record(t: int):
        if t >= track_from:
            np.subtract(z, reference_path[t], out=dev)
            np.maximum(out.sup_dev, np.abs(dev, out=dev).max(axis=1), out=out.sup_dev)
        k = cp_index.get(t)
        if k is not None:
            np.sum(z, axis=0, out=out.sum_z[k])
            np.take(np.matmul(z.T, z, out=square), upper, out=out.sum_outer[k], mode="clip")
        if t in snapshot_set:
            out.snapshots[t] = w.astype(np.int64)
            out.snapshot_totals[t] = initial.totals() + t * rf.inflow

    # an empty batch records every time at once: zero sums, (0, n) rows
    for t in (0,) if n_runs else {0, *checkpoints, *snapshot_set}:
        record(t)
    if horizon == 0 or n_runs == 0:
        return out

    gen = make_stream(master_seed, run_indices[0])
    bitgen, random = gen.bit_generator, gen.random
    # buffer_pos = 4: an empty buffer, so the next draw starts a new counter
    key, counter = [int(master_seed), 0], [0, 0, 0, 0]
    rekey = {"bit_generator": "Philox", "state": {"key": key, "counter": counter},
             "buffer": [0, 0, 0, 0], "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    per_step = max(1, n_runs * n)
    half = _BLOCK_DOUBLES // 2 // per_step
    prefetch = 4 <= half < horizon
    block = max(1, min(horizon, half if prefetch else _BLOCK_DOUBLES // per_step))
    if block < horizon:
        block = min(horizon, max(4, block - block % 4))
    starts = range(0, horizon, block)
    pad = -(-8 // n)  # ceil(8 / n) steps: at least one 64-byte cache line per run
    buffers = [np.empty((n_runs, block + pad, n)) for _ in range(2 if prefetch else 1)]
    # the step loop writes into these, so it allocates nothing per step
    drew_white = np.empty((n_runs, n), dtype=np.float32)  # 1 where the urn drew white
    gain = np.empty((n_runs, n), dtype=np.float32)

    # the last block is the shortest: if its rows fit in one Philox block, so
    # may others, and the kernel draws those for every run at once
    keys = None if (horizon - starts[-1]) * n > 4 else (  # a range's keys convert no int
        np.arange(run_indices.start, run_indices.stop, run_indices.step, dtype=np.uint64)
        if isinstance(run_indices, range) else np.array(run_indices, dtype=np.uint64))

    def fill(k: int) -> np.ndarray:
        """Draw block k into its buffer: rows of at most 4 doubles by
        `philox_doubles`, longer ones one run's row view at a time."""
        uniforms = buffers[k % len(buffers)]
        steps = min(block, horizon - starts[k])
        counter[0] = starts[k] * n // 4
        if steps * n <= 4:
            drawn = philox_doubles(master_seed, keys, counter[0])[:, : steps * n]
            uniforms[:, :steps] = drawn.reshape(n_runs, steps, n)
            return uniforms
        for row, r in zip(uniforms[:, :steps], run_indices):
            key[1] = r
            bitgen.state = rekey
            random(None, np.float64, row)
        return uniforms

    with contextlib.ExitStack() as stack:
        if prefetch:
            from concurrent.futures import ThreadPoolExecutor

            # exits in reverse: the helper is joined, then BLAS restored
            stack.enter_context(blas_threads(_openblas("numpy")[0]() - 1))
            helper = stack.enter_context(ThreadPoolExecutor(1))
            ahead = helper.submit(fill, 0)
        t = 0
        for k in range(len(starts)):
            if prefetch:
                uniforms = ahead.result()
                if k + 1 < len(starts):
                    ahead = helper.submit(fill, k + 1)
            else:
                uniforms = fill(k)
            for s in range(min(block, horizon - t)):
                np.less(uniforms[:, s, :], z, out=drew_white)
                np.matmul(drew_white, bonus, out=gain)
                gain += base_w
                w += gain
                totals += inflow
                np.divide(w, totals, out=z)
                t += 1
                if t >= track_from or t in cp_index or t in snapshot_set:
                    record(t)
    return out


def run_trajectory(
    g: DirectedGraph,
    scheme,
    initial: UrnState,
    horizon: int,
    seed: int,
    times=None,
) -> list:
    """Simulate one seeded run and return [(t, Z_t)] at `times`, by default
    every step 0, ..., horizon.

    Deterministic in the seed; the trajectory equals run 0 of any ensemble
    drawn from the same master seed.
    """
    times = range(horizon + 1) if times is None else times
    out = simulate_runs(g, scheme, initial, horizon, seed, [0], snapshot_times=times)
    return [(t, out.snapshots[t][0] / out.snapshot_totals[t]) for t in times]


def mean_field_path(g: DirectedGraph, scheme, initial: UrnState, horizon: int) -> np.ndarray:
    """Noise-free companion path: iterate the one-step conditional mean.

    Row t is the fraction vector after t steps when every draw is replaced
    by its expectation.  This is an Euler path of the limit ODE with the
    recursion's own per-vertex step sizes.
    """
    check_state(g, initial)
    rf = Reinforcement.of(g, scheme)
    # cast once: a float @ int64 matmul casts the payouts again at every step
    rf = replace(rf, on_white=rf.on_white.astype(float), on_black=rf.on_black.astype(float))
    path = np.empty((horizon + 1, g.n))
    path[0] = x = initial.fractions()
    totals = initial.totals().astype(float)
    for t in range(1, horizon + 1):
        path[t] = x = _mean_step(x, totals, rf)
        totals = totals + rf.inflow
    return path
