"""Write perfbench/BASELINE.json: the machine, the code measured, and one
traced baseline table per workload.

    python3 perfbench/provenance.py

Runs every workload twice through run.py, untraced and traced, at the
default seed and for the `run_seconds` of BENCHMARK.json, and records
for each layer its self time per pass and its share of the traced wall
time.  The shares, with the time no layer accounts for, add up to one.
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import platform
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SECONDS = json.load(_fh)["run_seconds"]


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def cpu_model():
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            return line.partition(":")[2].strip()
    return platform.processor() or None


def cache_sizes():
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if level in ("2", "3") and kind == "Unified":
            sizes[f"l{level}"] = _read(f"{index}/size")
    return sizes


def blas_info():
    import numpy as np

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        threads = get()
    return {"name": blas["name"], "version": blas.get("version"), "threads": threads}


def versions():
    import numpy as np

    out = {"python": platform.python_version(), "numpy": np.__version__}
    try:
        import scipy

        out["scipy"] = scipy.__version__
    except ImportError:
        out["scipy"] = None
    return out


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() or None


def src_lines():
    total = 0
    for path in glob.glob(os.path.join(ROOT, "src", "urnnet", "*.py")):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def layer_table(metrics):
    wall = metrics["trace.wall_s"]["value"]
    rows = {}
    for layer in spans.LAYERS:
        self_s = metrics[f"{layer}.self_s"]["value"]
        if metrics[f"{layer}.calls"]["value"]:
            rows[layer] = {"self_s": self_s, "share": self_s / wall}
    unaccounted = metrics["trace.unaccounted_s"]["value"]
    rows["unaccounted"] = {"self_s": unaccounted, "share": unaccounted / wall}
    return rows


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import workloads

    baseline = {
        "machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(), **cache_sizes(),
                    **versions(), "blas": blas_info()},
        "git_commit": git_commit(),
        "src_lines": src_lines(),
        "seed": workloads.DEFAULT_SEED,
        "seconds": SECONDS,
        "workloads": {},
    }
    for name in run.WORKLOAD_NAMES:
        plain = run.child(name, workloads.DEFAULT_SEED, SECONDS, 0)
        traced = run.child(name, workloads.DEFAULT_SEED, SECONDS, 1)
        m = traced["metrics"]
        baseline["workloads"][name] = {
            "end_to_end": {k: v["value"] for k, v in plain["metrics"].items()},
            "traced_wall_s": m["trace.wall_s"]["value"],
            "trace_overhead_frac": m["trace.overhead_frac"]["value"],
            "layers": layer_table(m),
            "correct": plain["correct"] and traced["correct"],
        }
        print(f"{name}: done", file=sys.stderr)
    with open(os.path.join(HERE, "BASELINE.json"), "w") as fh:
        json.dump(baseline, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
