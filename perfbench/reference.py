"""Reference kernel: fixed work that measures how fast the machine runs now.

The benchmark's host shares its cores with other tenants, and the speed of
the same code drifts by tens of percent over minutes.  The runner times
this kernel between passes and reports `wall_ref`, the mean pass time
over the mean kernel time, so that the drift mostly cancels while a
change in the program does not.  The kernel runs in its own interpreter,
which never imports urnnet: `python3 perfbench/reference.py` runs it once
per line read from standard input and prints its seconds.  It does two
kinds of work the workloads do: Philox draws with small-array steps (the
engine) and dense LU and matrix products (spectral solves, checkpoint
reductions).  In trials, interpreter work on Python objects tracked the
workloads' drift worse and is left out, and a large LU matched to
predict-theory did no better than this kernel.
"""

from __future__ import annotations

import sys
import time

import numpy as np

_RNG = np.random.default_rng(20190525)
_DENSE = _RNG.random((500, 500)) + 500 * np.eye(500)
_BONUS = _RNG.random((8, 8))


def _engine_like() -> float:
    gen = np.random.Generator(np.random.Philox(key=np.array([1, 2], dtype=np.uint64)))
    u = np.empty((1024, 8))
    w = np.ones((1024, 8))
    for _ in range(2000):
        gen.random(out=u)
        w += (u < 0.5).astype(float) @ _BONUS
    return float(w[0, 0])


def _dense() -> float:
    total = 0.0
    for _ in range(20):
        total += np.linalg.solve(_DENSE, np.ones(500))[0] + (_DENSE @ _DENSE)[0, 0]
    return float(total)


def reference_seconds() -> float:
    """Wall time of one run of the fixed kernel, about 0.3 s."""
    start = time.perf_counter()
    _engine_like()
    _dense()
    return time.perf_counter() - start


def serve() -> None:
    """Run the kernel once per line of standard input; print its seconds."""
    for _ in sys.stdin:
        print(reference_seconds(), flush=True)


if __name__ == "__main__":
    serve()
