"""urnnet benchmark: one workload per run, or all four with a summary table.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Run from the repository root; the package is imported from `src/`.  A run
builds the workload's inputs from the seed (timed as set-up), runs one
warm-up pass that is discarded, then repeats passes for S seconds and runs
every output check.  The last line of standard output is one JSON object:
`{"correct", "attempted", "failed", "metrics"}`.

With `--trace 0` the metrics are the end-to-end ones:
  wall_ref     mean wall time of one pass over the workload's operations,
               divided by the mean wall time of the reference kernel
               (reference.py), which runs between the passes in its own
               interpreter; a run has only 4 to 9 passes, and the means use
               every one of them where a median would drop most
  setup_s      median, over this process and one fresh process per pass, of
               the time to import urnnet and build the inputs
  peak_rss_mb  peak resident set of this process
  ops_ok_frac  operations that returned a result passing its check, over
               operations attempted; refusals lower it, failures too
With `--trace 1`, untraced and traced passes alternate, and the metrics are
per layer (see spans.py): each layer's calls, self time and work counts per
traced pass, the tracing overhead, and the time no layer accounts for.
Spans are written to .perfbench_out/.

`--workload all` runs each workload in its own process with `--trace 0`
and prints every end-to-end metric with its unit; it exits 1 if any output
check failed.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOAD_NAMES = ("ensemble-critical", "oracle-exact", "predict-theory", "simulate-wide")
MIN_PASSES = 3
CHILD_TIMEOUT_S = 170
PROBE_TIMEOUT_S = 30
# the environment before urnnet is imported, for the processes that must not
# see what the program sets for its own process
BASE_ENV = dict(os.environ)

END_TO_END_UNITS = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB", "ops_ok_frac": "ratio"}


def measure_setup(name: str, seed: int):
    """Import urnnet and build the workload's inputs; returns (seconds, ops)."""
    start = time.perf_counter()
    import workloads

    ops = workloads.build(name, seed, os.path.join(OUT, name))
    return time.perf_counter() - start, ops


def setup_probe(name: str, seed: int) -> float:
    """Set-up time measured in a fresh interpreter."""
    argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
            "--workload", name, "--seed", str(seed)]
    done = subprocess.run(argv, cwd=ROOT, env=BASE_ENV, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    return float(done.stdout.split()[-1])


@contextlib.contextmanager
def reference_kernel():
    """Yields a function that runs the reference kernel once and returns its
    seconds.  The kernel runs in a fresh interpreter that never imports
    urnnet, so that nothing the program sets for its process (BLAS threads,
    say) changes the denominator of `wall_ref`."""
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "reference.py")], cwd=ROOT,
                            env=BASE_ENV, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            text=True)

    def seconds() -> float:
        proc.stdin.write("\n")
        proc.stdin.flush()
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"reference kernel exited {proc.wait()}")
        return float(line)

    try:
        yield seconds
    finally:
        proc.stdin.close()  # end of input ends the kernel's loop
        try:
            proc.wait(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


class Tally:
    """Outcome of every operation run: ok, refused or failed."""

    def __init__(self):
        self.attempted = self.ok = self.refused = self.failed = 0

    def record(self, op, outcome) -> None:
        self.attempted += 1
        if isinstance(outcome, op.refusals):
            self.refused += 1
            return
        if isinstance(outcome, BaseException):
            self.fail(op, f"raised {type(outcome).__name__}: {outcome}")
            return
        try:
            op.check(outcome)
        except Exception as exc:  # CheckError, or a malformed output breaking the check
            self.fail(op, f"{type(exc).__name__}: {exc}")
        else:
            self.ok += 1

    def fail(self, op, message: str) -> None:
        self.failed += 1
        if self.failed <= 20:
            print(f"FAILED {op.label}: {message}", file=sys.stderr)


def run_pass(ops, tracer=None, latencies=None):
    """Run every operation once; returns (summed operation time, outcomes).

    An outcome is the operation's return value or the exception it raised.
    With a tracer, each operation is a top-level span and the layers
    inside it are its descendants.
    """
    import spans

    wall = 0.0
    outcomes = []
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.current_op = index
            sid = tracer.begin(spans.OP_SPAN)
        start = time.perf_counter()
        try:
            outcome = op.run()
        except Exception as exc:
            outcome = exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.finish(sid)
            elapsed = tracer.end[sid] - tracer.start[sid]
        wall += elapsed
        if latencies is not None:
            latencies.setdefault(op.label.split()[0], []).append(elapsed)
        outcomes.append(outcome)
    return wall, outcomes


def checked_pass(ops, tally: Tally, tracer=None, latencies=None) -> float:
    """One pass, then the output checks, which stay outside timing and tracing."""
    import spans

    if tracer is None:
        wall, outcomes = run_pass(ops, latencies=latencies)
    else:
        with spans.instrument(tracer):
            wall, outcomes = run_pass(ops, tracer, latencies)
    for op, outcome in zip(ops, outcomes):
        tally.record(op, outcome)
    return wall


def tail_percentile(samples):
    """Highest of p50/p75/p90/p95/p99 with at least ten samples beyond it."""
    ordered = sorted(samples)
    best = (50, ordered[(len(ordered) - 1) // 2] if ordered else 0.0)
    for level in (75, 90, 95, 99):
        beyond = len(ordered) - int(len(ordered) * level / 100)
        if beyond < 10:
            break
        best = (level, ordered[int(len(ordered) * level / 100)])
    return best


def layer_metrics(tracer, passes: int, untraced_walls, traced_walls, latencies, setup_tracer):
    import spans

    self_s = tracer.by_name(tracer.self_times())
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def per_pass(name):
        total, calls = self_s.get(name, (0.0, 0))
        return total / passes, calls / passes

    for layer in spans.LAYERS:
        seconds, calls = per_pass(layer)
        put(f"{layer}.self_s", seconds, "s")
        put(f"{layer}.calls", calls, "count")
    counters = {k: v / passes for k, v in tracer.counters.items()}

    def counter(name):
        return counters.get(name, 0)

    doubles = counter("dynamics.fill.doubles")
    put("dynamics.fill.doubles", doubles, "count")
    put("dynamics.fill.bytes_computed", 8 * doubles, "B")
    fill_s = per_pass("dynamics.fill")[0]
    put("dynamics.fill.ns_per_double", fill_s / doubles * 1e9 if doubles else 0.0, "ns")
    steps = counter("dynamics.simulate_runs.urn_steps")
    put("dynamics.simulate_runs.urn_steps", steps, "count")
    sim_s = per_pass("dynamics.simulate_runs")[0]
    put("dynamics.simulate_runs.ns_per_urn_step", sim_s / steps * 1e9 if steps else 0.0, "ns")
    put("dynamics.kernel.flops_computed", counter("dynamics.kernel.flops_computed"), "flop")
    put("dynamics.record.flops_computed", counter("dynamics.record.flops_computed"), "flop")
    batches = tracer.child_count("dynamics.simulate_runs", "montecarlo.run_ensemble")
    put("montecarlo.run_ensemble.batches", batches / passes, "count")
    put("montecarlo.from_moments.checkpoints",
        counter("montecarlo.from_moments.checkpoints"), "count")
    put("montecarlo.brute_force_distribution.states",
        counter("montecarlo.brute_force_distribution.states"), "count")
    for layer in ("spectral.lyapunov_solve", "spectral.log_averaged_gram", "theory.predict"):
        put(f"{layer}.failed", counter(f"{layer}.failed"), "count")
    put("spectral.lyapunov_solve.max_ms", 1e3 * tracer.max_duration("spectral.lyapunov_solve"), "ms")
    for writer in ("fileio.write_ensemble_json", "fileio.write_ensemble_summary_csv"):
        put(f"{writer}.bytes", counter(f"{writer}.bytes"), "B")

    predict_ms = [1e3 * s for s in latencies.get("predict", [])]
    level, tail = tail_percentile(predict_ms)
    put("theory.predict.latency_ms.p50", statistics.median(predict_ms) if predict_ms else 0.0, "ms")
    put("theory.predict.latency_ms.tail", tail, "ms")
    put("theory.predict.latency_ms.tail_level", level, "percentile")
    put("theory.predict.latency_ms.samples", len(predict_ms), "count")

    put("graph.generate_graph.setup_s",
        setup_tracer.by_name(setup_tracer.durations()).get("graph.generate_graph", (0.0, 0))[0], "s")
    traced_wall = sum(traced_walls) / passes
    untraced_wall = sum(untraced_walls) / len(untraced_walls)
    unaccounted = per_pass(spans.OP_SPAN)[0]
    put("trace.wall_s", traced_wall, "s")
    put("trace.untraced_wall_s", untraced_wall, "s")
    put("trace.overhead_frac", traced_wall / untraced_wall - 1, "ratio")
    put("trace.unaccounted_s", unaccounted, "s")
    put("trace.passes", passes, "count")
    accounted = sum(per_pass(layer)[0] for layer in spans.LAYERS) + unaccounted
    if abs(accounted - traced_wall) > 1e-6 * traced_wall:
        raise RuntimeError(f"self times add up to {accounted}, traced wall is {traced_wall}")
    return metrics


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    setup_tracer = None
    if traced:
        # set-up is timed untraced by --trace 0 runs; here only the graph
        # generation inside it is of interest, so trace it after the import
        import spans
        import workloads  # noqa: F401  (imports urnnet)

        setup_tracer = spans.Tracer()
        with spans.instrument(setup_tracer):
            _, ops = measure_setup(name, seed)
    else:
        setup_s, ops = measure_setup(name, seed)
        setups = [setup_s]

    import spans

    tally = Tally()
    checked_pass(ops, tally)  # warm-up, discarded
    untraced, traced_walls, latencies = [], [], {}
    tracer = spans.Tracer() if traced else None
    with contextlib.ExitStack() as stack:
        if not traced:
            reference = stack.enter_context(reference_kernel())
            for _ in range(2):  # its first runs start BLAS threads and touch fresh pages
                reference()
            refs = [reference()]
        start = time.perf_counter()
        while True:
            if traced:
                untraced.append(checked_pass(ops, tally, latencies=latencies))
                traced_walls.append(checked_pass(ops, tally, tracer=tracer))
            else:
                untraced.append(checked_pass(ops, tally))
                refs.append(reference())
                # one fresh-process set-up per pass, so that the samples spread
                # over the run instead of sharing one stretch of machine load
                setups.append(setup_probe(name, seed))
            if len(untraced) >= MIN_PASSES and time.perf_counter() - start >= seconds:
                break

    if traced:
        metrics = layer_metrics(tracer, len(traced_walls), untraced, traced_walls, latencies,
                                setup_tracer)
        tracer.save(os.path.join(OUT, f"spans-{name}-seed{seed}.npz"))
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = {
            "wall_ref": statistics.fmean(untraced) / statistics.fmean(refs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_mb,
            "ops_ok_frac": tally.ok / tally.attempted,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
        print(
            f"{name}: {len(untraced)} passes, mean pass {statistics.fmean(untraced):.4g} s, "
            f"mean reference {statistics.fmean(refs):.4g} s; "
            f"ops ok {tally.ok} refused {tally.refused} "
            f"failed {tally.failed} of {tally.attempted}",
            file=sys.stderr,
        )
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def child(name: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in its own process; returns its result object."""
    argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    sys.stderr.write(done.stderr)
    if done.returncode != 0:
        raise RuntimeError(f"{name} did not run (exit {done.returncode})")
    return json.loads(done.stdout.splitlines()[-1])


def run_all(seed: int, seconds: float) -> int:
    ok = True
    print(f"{'workload':<18} {'metric':<12} {'value':>14}  unit")
    for name in WORKLOAD_NAMES:
        try:
            result = child(name, seed, seconds, 0)
        except RuntimeError as exc:
            print(exc)
            ok = False
            continue
        for metric, entry in result["metrics"].items():
            print(f"{name:<18} {metric:<12} {entry['value']:>14.6g}  {entry['unit']}")
        verdict = "correct" if result["correct"] else "INCORRECT"
        print(f"{name:<18} checks: {verdict}, {result['failed']} of {result['attempted']} "
              f"operations failed")
        ok &= result["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "urnnet", "__init__.py")):
        print(f"error: no urnnet package under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    sys.path.insert(0, SRC)

    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.setup_probe:
        print(measure_setup(args.workload, args.seed)[0])
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
