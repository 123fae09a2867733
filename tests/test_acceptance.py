"""Acceptance suite: desk-scale statistical reproductions of the limit
theory plus exact oracle checks, one test per criterion.

Each test prints a single PASS/FAIL line (visible even without -s) with the
key statistic; tolerances are the documented acceptance values.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from urnnet import montecarlo, theory, verify
from urnnet.dynamics import (
    ReplacementMatrix,
    UrnState,
    default_initial_state,
)
from urnnet.graph import generate_graph
from urnnet.montecarlo import (
    brute_force_distribution,
    distribution_mean_fractions,
    oracle_check,
    run_ensemble,
)
from urnnet.dynamics import expected_fractions_after_step


def announce(capsys, name, passed, detail):
    with capsys.disabled():
        print(f"[acceptance] {name}: {'PASS' if passed else 'FAIL'}  ({detail})")


def test_criterion_1_consensus(capsys):
    start = time.perf_counter()
    g = generate_graph("d_regular_random", {"n": 10, "d": 3}, seed=1)
    r1 = verify.verify_consensus(
        g, ReplacementMatrix(1, 1, 4), horizon=100_000, runs=200, seed=101, tol=0.02
    )
    r2 = verify.verify_consensus(
        g, ReplacementMatrix(1, 2, 4), horizon=100_000, runs=200, seed=102, tol=0.02
    )
    elapsed = time.perf_counter() - start
    passed = r1["pass"] and r2["pass"] and elapsed < 60.0
    announce(
        capsys,
        "1 consensus",
        passed,
        f"max dev {r1['max_abs_deviation']:.4f} @ c=0.5, "
        f"{r2['max_abs_deviation']:.4f} @ c=0.4, {elapsed:.1f}s",
    )
    assert r1["target"] == pytest.approx(0.5)
    assert r2["target"] == pytest.approx(0.4)
    assert r1["pass"] and r2["pass"]
    assert elapsed < 60.0


def test_criterion_2_clt_sqrt_t(capsys):
    g = generate_graph("complete_with_loops", {"n": 2})
    report = verify.verify_clt(
        g, ReplacementMatrix(1, 1, 4), horizon=10_000, runs=5000, seed=201, tol=0.15
    )
    start = time.perf_counter()
    sweep = verify.lyapunov_closed_form_sweep()
    sweep_s = time.perf_counter() - start
    passed = report["pass"] and sweep_s < 5.0
    announce(
        capsys,
        "2 clt rho>1/2",
        passed,
        f"cov rel err {report['frobenius_rel_error']:.3f} (tol 0.15), "
        f"sweep max {sweep['max_rel_error']:.2e} in {sweep_s:.2f}s",
    )
    assert np.allclose(report["sigma_theory"], 1 / 64, atol=1e-12)
    assert report["frobenius_rel_error"] <= 0.15
    assert sweep["max_rel_error"] <= 1e-8
    assert sweep_s < 5.0


def test_criterion_3_clt_critical(capsys):
    start = time.perf_counter()
    g = generate_graph("complete_with_loops", {"n": 4})
    report = verify.verify_clt_critical(
        g, ReplacementMatrix(3, 3, 4), horizon=100_000, runs=5000, seed=301, tol=0.20
    )
    elapsed = time.perf_counter() - start
    passed = report["pass"] and elapsed < 600.0
    announce(
        capsys,
        "3 clt critical",
        passed,
        f"rel err {report['frobenius_rel_error']:.3f} (tol 0.20), rho={report['rho']:.3f}, "
        f"{elapsed:.0f}s",
    )
    assert report["rho"] == pytest.approx(0.5, abs=1e-12)
    assert np.allclose(report["sigma_theory"], (1 / 16) / 4, atol=1e-8)
    assert report["frobenius_rel_error"] <= 0.20
    assert elapsed < 600.0


def test_criterion_4_subcritical_scaling(capsys):
    g = generate_graph("cycle_undirected", {"n": 5})
    scheme = ReplacementMatrix(0, 0, 1)
    report = verify.verify_subcritical(
        g, scheme, horizon=100_000, runs=200, seed=401,
    )
    announce(
        capsys,
        "4 subcritical",
        report["pass"],
        f"rho={report['rho']:.4f} (<1/2), median ratios "
        + ", ".join(f"{r:.2f}" for r in report["ratios"]),
    )
    assert report["rho"] == pytest.approx(1 + math.cos(4 * math.pi / 5), abs=1e-9)
    assert report["rho"] < 0.5
    assert report["regime"] == theory.REGIME_SUBCRITICAL
    assert report["checks"][1]["bound"] == [0.3, 3.0]
    for ratio in report["ratios"]:
        assert 0.3 <= ratio <= 3.0


def test_criterion_5_polya_variance_rates(capsys):
    start = time.perf_counter()
    # Complete K5 without self-loops: still in the 1/t class (second
    # eigenvalue -1/4), and the urns genuinely differ.  With self-loops all
    # in-neighbourhoods coincide, every urn receives identical balls, and
    # the cross-sectional variance is identically zero (no slope exists).
    k5 = verify.verify_polya_rate(
        generate_graph("complete", {"n": 5}),
        horizon=100_000, runs=500, seed=501, slope_window=(-1.15, -0.85),
    )
    c8 = verify.verify_polya_rate(
        generate_graph("cycle_undirected", {"n": 8}),
        horizon=100_000, runs=500, seed=502,
        slope_window=(2 * math.cos(math.pi / 4) - 2 - 0.15, 2 * math.cos(math.pi / 4) - 2 + 0.15),
    )
    c6 = verify.verify_polya_rate(
        generate_graph("cycle_undirected", {"n": 6}),
        horizon=100_000, runs=500, seed=503, slope_window=(-1.1, -0.75),
    )
    elapsed = time.perf_counter() - start
    passed = k5["pass"] and c8["pass"] and c6["pass"] and elapsed < 600.0
    announce(
        capsys,
        "5 polya rates",
        passed,
        f"K5 slope {k5['slope']:.3f}, 8-cycle {c8['slope']:.3f} "
        f"(target {2 * math.cos(math.pi / 4) - 2:.3f}), 6-cycle {c6['slope']:.3f} "
        f"(log diag {c6['log_correction_diagnostic']:.2f}), {elapsed:.0f}s",
    )
    assert k5["rate_class"]["kind"] == "t_inv"
    assert c8["rate_class"]["kind"] == "t_pow"
    assert c6["rate_class"]["kind"] == "logt_over_t"
    assert -1.15 <= k5["slope"] <= -0.85
    assert abs(c8["slope"] - (2 * math.cos(math.pi / 4) - 2)) <= 0.15
    assert -1.1 <= c6["slope"] <= -0.75
    assert c6["log_correction_diagnostic"] is not None
    assert elapsed < 600.0


def test_criterion_6_martingale_mean(capsys):
    g = generate_graph("cycle_directed", {"n": 2})
    initial = UrnState(np.array([3, 1]), np.array([1, 3]))
    report = verify.verify_martingale(
        g, horizon=10_000, runs=2000, seed=601, initial=initial
    )
    announce(
        capsys,
        "6 martingale",
        report["pass"],
        f"drift {report['drift_estimate']:+.5f} vs 3SE {report['threshold']:.5f}",
    )
    assert abs(report["drift_estimate"]) <= report["threshold"]


#: criterion 7's reports as (float.hex(tv_distance), support_size), pinned
#: bit for bit: how the exact law is enumerated and the simulated whites are
#: counted may change, these may not
ORACLE_PINS = {
    "polya T=1": ("0x1.3d31b9b66f940p-8", 4),
    "polya T=2": ("0x1.cc100e6afcce8p-9", 9),
    "friedman T=1": ("0x1.54c985f06f680p-9", 4),
    "friedman T=2": ("0x1.fd6ee472942ccp-9", 9),
}


def test_criterion_7_exact_oracle(capsys):
    g = generate_graph("cycle_directed", {"n": 2})
    init = default_initial_state(2)
    schemes = {"polya": ReplacementMatrix(1, 1, 1), "friedman": ReplacementMatrix(0, 0, 1)}
    tvs, reports = {}, {}
    all_ok = True
    seed = 701
    for name, scheme in schemes.items():
        for horizon in (1, 2):
            rep = oracle_check(g, scheme, init, horizon, 100_000, seed)
            seed += 1
            tvs[f"{name} T={horizon}"] = rep.tv_distance
            reports[f"{name} T={horizon}"] = (float.hex(rep.tv_distance), rep.support_size)
            all_ok &= rep.tv_distance <= 0.02
        # one-step conditional mean, exact integer arithmetic
        dist = brute_force_distribution(g, scheme, init, 1)
        exact = distribution_mean_fractions(dist)
        formula = expected_fractions_after_step(init, g, scheme)
        all_ok &= exact == formula
    announce(
        capsys,
        "7 oracle",
        all_ok,
        "TV " + ", ".join(f"{k}: {v:.4f}" for k, v in tvs.items()) + " (tol 0.02)",
    )
    for key, tv in tvs.items():
        assert tv <= 0.02, key
    assert reports == ORACLE_PINS
    # asymmetric-start conditional mean identity, also exact
    init_asym = UrnState(np.array([3, 1]), np.array([1, 3]))
    dist = brute_force_distribution(g, schemes["polya"], init_asym, 1)
    assert distribution_mean_fractions(dist) == expected_fractions_after_step(
        init_asym, g, schemes["polya"]
    )
    assert all_ok


def test_criterion_8_ode_tracking(capsys):
    g = generate_graph("star_undirected", {"n": 5})
    scheme = ReplacementMatrix(1, 1, 4)
    initial = UrnState(np.array([9, 1, 9, 1, 5]), np.array([1, 9, 1, 9, 5]))
    report = verify.verify_ode_tracking(
        g, scheme, initial, horizon=100_000, runs=100, seed=801,
        tol=0.05, start_time=1000,
    )
    announce(
        capsys,
        "8 ode tracking",
        report["pass"],
        f"{report['fraction_within'] * 100:.0f}% of seeds within 0.05 "
        f"(max dev {report['max_sup_deviation']:.4f})",
    )
    assert report["checks"][0]["bound"] == 0.9
    assert report["fraction_within"] >= 0.9


def test_criterion_9_heterogeneous_limits(capsys):
    report = verify.verify_heterogeneous(horizon=100_000, runs=64, seed=901)
    announce(
        capsys,
        "9 heterogeneous",
        report["pass"],
        f"two-node exact {report['two_node_exact_error']:.1e}, sim {report['two_node_sim_error']:.4f}; "
        f"star exact {report['star_exact_error']:.1e}, sim {report['star_sim_error']:.4f}; "
        f"sweep {'ok' if report['threshold_sweep_ok'] else 'FAIL'}",
    )
    assert report["two_node_expected"] == pytest.approx(float(Fraction(5, 9)))
    assert report["two_node_exact_error"] <= 1e-12
    assert report["star_exact_error"] <= 1e-12
    assert report["two_node_sim_error"] <= 0.02
    assert report["star_sim_error"] <= 0.02
    assert report["threshold_sweep_ok"]
