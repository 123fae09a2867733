"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs every operation of every workload once at the default seed, checks
that each genuine output passes, then feeds corrupted copies of the outputs
to the checks and requires each corruption to be caught.  Exits 1 if a
genuine output fails or a corruption slips through.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKDIR = os.path.join(ROOT, ".perfbench_out", "selftest")


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    import workloads as w
    from urnnet.dynamics import UrnState
    from urnnet.errors import NonDiagonalizableError

    problems = []

    def expect_pass(op, output):
        try:
            op.check(output)
        except Exception as exc:
            problems.append(f"genuine output of {op.label!r} fails: {exc}")

    def expect_caught(op, output, what):
        try:
            op.check(output)
        except Exception:
            return
        problems.append(f"{op.label!r}: corruption not caught: {what}")

    def outputs(name):
        ops = w.build(name, w.DEFAULT_SEED, os.path.join(WORKDIR, name))
        pairs = []
        for op in ops:
            try:
                out = op.run()
            except op.refusals:
                continue
            expect_pass(op, out)
            pairs.append((op, out))
        return pairs

    # ensemble-critical
    [(op, rep)] = outputs("ensemble-critical")
    for key, value, what in (
        ("frobenius_rel_error", 0.25, "relative error above 0.20"),
        ("pass", False, "suite verdict FAIL"),
        ("rho", 0.5 + 1e-9, "rho off 1/2"),
    ):
        expect_caught(op, {**rep, key: value}, what)
    bad = copy.deepcopy(rep)
    bad["sigma_theory"][0][1] *= 1 + 1e-9
    expect_caught(op, bad, "sigma_theory off C/N J")
    bad = copy.deepcopy(rep)
    bad["sigma_empirical"][2][3] = float(np.nextafter(bad["sigma_empirical"][2][3], 1.0))
    expect_caught(op, bad, "empirical sigma one ulp off the pin")

    # oracle-exact
    for op, out in outputs("oracle-exact"):
        if op.label.startswith("oracle_check"):
            expect_caught(op, dataclasses.replace(out, runs=out.runs - 1), "run count")
            expect_caught(op, dataclasses.replace(out, support_size=out.support_size + 1), "support")
            expect_caught(op, dataclasses.replace(out, tv_distance=0.019, threshold=0.018),
                          "TV above threshold")
            expect_caught(op, dataclasses.replace(out, tv_distance=0.021, threshold=0.05),
                          "TV above 0.02")
        elif op.label.startswith("one-step"):
            exact, formula = out
            expect_caught(op, (exact, [formula[0] + Fraction(1, 10**9)] + formula[1:]),
                          "one-step mean mismatch")
        else:
            expect_caught(op, out[1:], "state dropped from the law")
            (s0, p0), (s1, p1) = out[0], out[1]
            expect_caught(op, [(s0, p0 + p1), (s1, Fraction(0))] + out[2:], "zero-probability state")
            expect_caught(op, [(s0, float(p0))] + out[1:], "inexact probability")
            moved = UrnState(s0.white, s0.black + 1, s0.time)
            expect_caught(op, [(moved, p0)] + out[1:], "ball totals")

    # predict-theory
    seen = set()
    for op, out in outputs("predict-theory"):
        if op.label.startswith("heterogeneous"):
            expect_caught(op, out + 1e-6, "limit off the fixed point")
            expect_caught(op, np.where(np.arange(out.size) == 0, 1.5, out), "limit above 1")
            continue
        if out.rho is not None:
            expect_caught(op, dataclasses.replace(out, rho=out.rho + 1e-6), "rho")
        if out.rate_class is not None:
            rc = out.rate_class
            wrong = "t_inv" if rc.kind != "t_inv" else "t_pow"
            expect_caught(op, dataclasses.replace(out, rate_class=dataclasses.replace(rc, kind=wrong)),
                          "rate class")
            if rc.kind == "t_pow":
                bent = dataclasses.replace(rc, exponent=rc.exponent + 1e-6)
                expect_caught(op, dataclasses.replace(out, rate_class=bent), "decay exponent")
        if out.sigma is not None:
            expect_caught(op, dataclasses.replace(out, sigma=out.sigma * (1 + 1e-6)), "sigma scale")
            bumped = out.sigma.copy()
            bumped[0, 0] += 1e-6 * np.linalg.norm(out.sigma)
            expect_caught(op, dataclasses.replace(out, sigma=bumped), "one sigma entry")
        if out.noise_var_c is not None:
            expect_caught(op, dataclasses.replace(out, noise_var_c=out.noise_var_c * 1.001), "C")
            expect_caught(op, dataclasses.replace(out, equilibrium=out.equilibrium + 1e-9),
                          "consensus value")
        seen.add(out.regime)
    if not {"gaussian_sqrt_t", "gaussian_sqrt_tlogt", "polya"} <= seen:
        problems.append(f"predict-theory covered only regimes {sorted(seen)}")
    # a refusal is a failure wherever the solver cannot rightly refuse: on a
    # symmetric A~, in a Polya case, or in a sqrt(t) case of n <= 64; at the
    # default seed, everywhere but the pinned refusals
    refusal = NonDiagonalizableError("injected")
    may_refuse = {
        w.DEFAULT_SEED: set(w.PINS["predict-theory"]["refused"]),
        1: {f"predict er{n} alpha=beta=0.75" for n in (16, 64, 65, 200)}
        | {f"predict er{n} alpha=beta=0.25" for n in (65, 200)}
        | {"predict path65 alpha=beta=0.25"},
    }
    for seed, expected in may_refuse.items():
        ops = w.build("predict-theory", seed, os.path.join(WORKDIR, "predict-theory"))
        refusable = {op.label for op in ops if isinstance(refusal, op.refusals)}
        if refusable != expected:
            problems.append(f"seed {seed}: refusals allowed for {sorted(refusable)}")

    # simulate-wide: corrupt the written files in place, check, restore
    (gen_op, gen_code), (sim_op, sim_code) = outputs("simulate-wide")
    expect_caught(gen_op, 1, "generate exit code")
    expect_caught(sim_op, 2, "simulate exit code")
    ensemble = os.path.join(WORKDIR, "simulate-wide", "ensemble.json")
    summary = os.path.join(WORKDIR, "simulate-wide", "summary.csv")
    for path in (ensemble, summary):
        shutil.copyfile(path, path + ".orig")

    def corrupted(edit_json=None, edit_csv=None, what=""):
        if edit_json is not None:
            with open(ensemble + ".orig") as fh:
                payload = json.load(fh)
            edit_json(payload["result"])
            with open(ensemble, "w") as fh:
                json.dump(payload, fh)
        if edit_csv is not None:
            with open(summary + ".orig") as fh:
                lines = fh.read().splitlines()
            with open(summary, "w") as fh:
                fh.write("\n".join(edit_csv(lines)) + "\n")
        expect_caught(sim_op, sim_code, what)
        for path in (ensemble, summary):
            shutil.copyfile(path + ".orig", path)

    def shift_final_means(result):
        result["mean_Z"][-1] = [z + 0.05 for z in result["mean_Z"][-1]]

    def nudge_cov(result):
        cov = result["cov_Z_final"]
        cov[0][1] = cov[1][0] = cov[0][1] * (1 + 1e-12)

    def asymmetric_cov(result):
        result["cov_Z_final"][0][1] *= 2

    def drop_checkpoint(result):
        result["mean_Z"].pop()

    def edit_summary(lines):
        fields = lines[-1].split(",")
        fields[1] = repr(float(fields[1]) + 1e-3)
        return lines[:-1] + [",".join(fields)]

    corrupted(edit_json=shift_final_means, what="mean fraction drift")
    corrupted(edit_json=nudge_cov, what="payload digest")
    corrupted(edit_json=asymmetric_cov, what="asymmetric covariance")
    corrupted(edit_json=drop_checkpoint, what="missing checkpoint")
    corrupted(edit_csv=edit_summary, what="summary CSV out of step")
    corrupted(edit_csv=lambda lines: lines[:-1], what="summary row missing")

    for message in problems:
        print(message)
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
