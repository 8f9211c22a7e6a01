"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import numpy as np
import pytest

from blockaloha import (
    AccessPolicy,
    BlockHistory,
    BlockShape,
    NetworkParams,
    OptimizerConfig,
    chi,
    chi_bruteforce,
    expected_paoi,
    expected_peak_latency,
    pcl_pmf,
    run_block,
    run_horizon,
    simulate_bernoulli,
    simulate_renewal_pcl,
    simulate_spatial,
    slot_success_prob,
)
from blockaloha.plant import controllability_index, PlantModel
from oracles import expected_pcl, first_time_controllability, max_run

DEFAULT_PARAMS = NetworkParams(lam=1e-4, alpha=3.0, gamma=0.1, xi=10.0, N0=1e-17, r0=25.0)


def conclude(number, description, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {number} {status} - {description}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


@pytest.fixture(scope="module")
def horizon_traces():
    cfg = OptimizerConfig(K=400, grid_step=0.05)
    return {
        v: run_horizon(DEFAULT_PARAMS, BlockShape(5, v), cfg) for v in (2, 3, 4, 5)
    }


def test_criterion_1_chi_oracle_equivalence():
    failures = []
    xs = np.round(np.linspace(0.0, 1.0, 21), 10)
    worst = 0.0
    for T in range(1, 13):
        for v in range(1, T + 1):
            shape = BlockShape(T, v)
            for x in xs:
                diff = abs(chi(shape, float(x)) - chi_bruteforce(shape, float(x)))
                worst = max(worst, diff)
                if diff > 1e-12:
                    failures.append(f"T={T} v={v} x={x}: diff={diff:g}")
    sq = BlockShape(2, 2)
    for x in xs:
        if abs(chi(sq, float(x)) - x * x) > 1e-15:
            failures.append(f"chi(T=v=2, {x}) != x^2")
    conclude(1, f"chi equals enumeration oracle for all T<=12 (max diff {worst:.2e})",
             failures)


def test_criterion_2_slot_success_backends_and_spatial_mc():
    failures = []
    worst_rel = 0.0
    for alpha in (2.5, 3.0, 3.5, 4.0):
        p = NetworkParams(1e-4, alpha, 0.1, 10.0, 1e-17, 25.0)
        for lam_eff in (0.0, 5e-5, 1e-4, 3e-4):
            a = slot_success_prob(p, lam_eff)
            b = slot_success_prob(p, lam_eff, backend="quadrature")
            rel = abs(a - b) / a
            worst_rel = max(worst_rel, rel)
            if rel > 1e-9:
                failures.append(f"alpha={alpha} lam={lam_eff}: rel={rel:g}")

    # spatial Monte Carlo at three parameter points, 2e4 PPP realizations
    # each; single-slot blocks keep the samples independent, and the field
    # beyond the 300 m disk enters through its exact factor
    shape = BlockShape(1, 1)
    points = [
        NetworkParams(1e-4, 3.0, 0.1, 10.0, 1e-17, 25.0),
        NetworkParams(2e-4, 3.0, 0.1, 10.0, 1e-17, 25.0),
        NetworkParams(1e-4, 3.5, 0.2, 10.0, 1e-17, 25.0),
    ]
    zs = []
    for i, p in enumerate(points):
        rep = simulate_spatial(
            p, AccessPolicy(1.0, 0.0, 0.0), shape, 20_000, seed=900 + i,
            disk_radius=300.0,
        )
        analytic = slot_success_prob(p, p.lam)
        est = rep["slot_rate"]
        z = (est.value - analytic) / est.stderr
        zs.append(z)
        if abs(z) >= 3.0:
            failures.append(f"point {i}: z={z:.2f}")
    z_txt = ", ".join(f"{z:+.2f}" for z in zs)
    conclude(
        2,
        f"slot-success backends agree to {worst_rel:.1e} rel; spatial MC z = [{z_txt}]",
        failures,
    )


def test_criterion_3_latency_age_formulas_vs_monte_carlo():
    failures = []
    shape = BlockShape(5, 2)
    histories = [
        (0.2, 0.2, 0.2),
        (0.5, 0.5, 0.5),
        (0.8, 0.8, 0.8),
        (0.9, 0.1, 0.8),
        (0.3, 0.7, 0.45),
    ]
    zs = []
    for i, p_seq in enumerate(histories):
        h = BlockHistory(5, p_seq, (0.0,) * 3, (0.0,) * 3)
        rep = simulate_bernoulli(p_seq, shape, 1_000_000, seed=300 + i)
        for key, analytic in (
            ("peak_latency", expected_peak_latency(h)),
            ("paoi", expected_paoi(h)),
        ):
            est = rep[key]
            z = (est.value - analytic) / est.stderr
            zs.append(abs(z))
            if abs(z) >= 3.0:
                failures.append(f"{key}@{p_seq}: z={z:.2f}")
    closed = 5 * (31 / 32) + 26 / 31 + 1
    h1 = BlockHistory(5, (0.5,), (0.0,), (0.0,))
    if abs(expected_paoi(h1) - closed) > 1e-12:
        failures.append("k=1 closed PAoI value not reproduced to 1e-12")
    conclude(
        3,
        f"latency/age formulas match 1e6-episode MC on 5 histories (max |z| = {max(zs):.2f}); "
        "k=1 closed value exact",
        failures,
    )


def test_criterion_4_pcl_pmf_normalization_and_geometric():
    failures = []
    rng = np.random.default_rng(44)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 51))
        h = BlockHistory(5, tuple(rng.random(k)), tuple(rng.random(k)),
                         tuple(rng.random(k)))
        dev = abs(pcl_pmf(h).sum() - 1.0)
        worst = max(worst, dev)
        if dev > 1e-9:
            failures.append(f"pmf sum off by {dev:g}")
    c, k = 0.3, 10
    h = BlockHistory(5, (0.5,) * k, (c,) * k, (c,) * k)
    pmf = pcl_pmf(h)
    geometric = np.array(
        [c * (1 - c) ** (t - 1) for t in range(1, k)] + [(1 - c) ** (k - 1)]
    )
    if not np.allclose(pmf, geometric, atol=1e-12):
        failures.append("constant-c pmf is not the truncated geometric")
    rep = simulate_renewal_pcl((c,) * k, (c,) * k, 400_000, seed=400)
    est = rep["pcl_mean"]
    z = (est.value - expected_pcl(h)) / est.stderr
    if abs(z) >= 3.0:
        failures.append(f"renewal MC mean z={z:.2f}")
    conclude(
        4,
        f"pcl pmf sums to 1 on 1000 random histories (max dev {worst:.1e}); "
        f"constant-c regime geometric, renewal MC z={z:+.2f}",
        failures,
    )


def test_criterion_5_steady_state_limit():
    failures = []
    details = []
    for v in (2, 3):
        shape = BlockShape(5, v)
        # constant post-controllability regime: delta_C = 1, full density
        rho = slot_success_prob(DEFAULT_PARAMS, DEFAULT_PARAMS.lam)
        c = chi(shape, rho)
        K = 400
        if (1 - c) ** K >= 1e-4:
            failures.append(f"v={v}: regime not converged at K={K}")
        h = BlockHistory(5, (rho,) * K, (c,) * K, (c,) * K)
        mean = expected_pcl(h)
        rel = abs(mean - 1 / c) * c
        details.append(f"v={v}: |E-1/chi|/(1/chi)={rel:.2e}")
        if rel >= 0.01:
            failures.append(f"v={v}: rel error {rel:g}")
    conclude(5, "steady-state E[pcl] within 1% of 1/chi ("
             + "; ".join(details) + ")", failures)


def test_criterion_6_block_vs_slot_access_counterexample():
    failures = []
    shape = BlockShape(2, 2)
    for d in np.round(np.arange(0.1, 0.95, 0.1), 10):
        for rho in (0.25, 0.5, 0.9):
            a = first_time_controllability(shape, AccessPolicy(float(d), 0.0, 0.0), rho)
            b = first_time_controllability(shape, AccessPolicy(0.0, float(d), 0.0), rho)
            margin = d * (1 - d) * rho**2
            if abs((a - b) - margin) > 1e-12:
                failures.append(f"d={d} rho={rho}: identity off by {(a - b) - margin:g}")
            if a - b <= 0:
                failures.append(f"d={d} rho={rho}: block access does not win")
    conclude(6, "block access beats slot access by d(1-d)rho^2 exactly (T=v=2)",
             failures)


def test_criterion_7_optimizer_qualitative(horizon_traces):
    failures = []
    transition = {}
    for v in (2, 3):
        recs = horizon_traces[v]
        p_o = [r.P_O for r in recs]
        if any(b < a - 1e-15 for a, b in zip(p_o, p_o[1:])):
            failures.append(f"v={v}: P_O not nondecreasing")
        if p_o[-1] < 0.99:
            failures.append(f"v={v}: P_O final {p_o[-1]:.4f} < 0.99")
        transition[v] = next(k + 1 for k, p in enumerate(p_o) if p >= 0.99)
        post = [r for r in recs if r.k > 1 and recs[r.k - 2].P_O > 1 - 1e-6]
        if not post:
            failures.append(f"v={v}: never reached P_O > 1 - 1e-6")
        bad = [r.k for r in post if not (r.delta_B == 0.0 and r.delta_S == 1.0)]
        if bad:
            failures.append(f"v={v}: delta_B/delta_S wrong at blocks {bad[:5]}")
    if not transition[3] > transition[2]:
        failures.append(
            f"transition order wrong: v=3 at block {transition[3]}, "
            f"v=2 at block {transition[2]}"
        )
    conclude(
        7,
        f"optimizer traces reach P_O >= 0.99 (transition blocks v=2: {transition[2]}, "
        f"v=3: {transition[3]}), post-transition policy is (0, 1, delta_C)",
        failures,
    )


def test_criterion_8_pcl_ordering_in_v(horizon_traces):
    failures = []
    steady = {v: horizon_traces[v][-1].pcl_mean for v in (2, 3, 4, 5)}
    vals = [steady[v] for v in (2, 3, 4, 5)]
    if not all(b > a for a, b in zip(vals, vals[1:])):
        failures.append(f"not strictly increasing: {vals}")
    txt = ", ".join(f"v={v}: {steady[v]:.4f}" for v in (2, 3, 4, 5))
    conclude(8, f"steady-state E[pcl] strictly increasing in v ({txt})", failures)


def test_criterion_9_closed_loop_random_plants():
    failures = []
    rng = np.random.default_rng(99)
    T = 7
    n_run, n_hit = 0, 0
    while n_run < 1000:
        n = int(rng.integers(1, 4))
        m = int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        B = rng.normal(size=(n, m))
        v = controllability_index(A, B)
        if v is None or v > T:
            continue
        eye_minus = np.eye(n) - A
        if abs(np.linalg.det(eye_minus)) < 1e-6:
            continue
        x_des = np.linalg.solve(eye_minus, B @ rng.normal(size=m))
        if np.max(np.abs(x_des)) > 50:
            continue
        plant = PlantModel(A=A, B=B, x_des=x_des, v=v)
        flags = (rng.random(T) < rng.uniform(0.3, 0.95)).astype(int).tolist()
        trace = run_block(plant, BlockShape(T, v), rng.normal(size=n), flags)
        n_run += 1
        if max_run(flags) >= v:
            n_hit += 1
            err = np.max(np.abs(trace.x_final - plant.x_des))
            if not trace.controllable:
                failures.append("run present but flag false")
            if err > 1e-9:
                failures.append(f"terminal error {err:g}")
        elif trace.controllable:
            failures.append("flag true without a v-run")
    conclude(
        9,
        f"closed loop hits the target to 1e-9 on {n_hit}/{n_run} v-run episodes "
        "(random controllable pairs, n <= 3)",
        failures,
    )


def test_criterion_10_byte_identical_outputs(tmp_path):
    from blockaloha.cli import main

    failures = []
    outs = {}
    for tag, workers in (("a", "1"), ("b", "2")):
        d = tmp_path / tag
        code_opt = main(["optimize", "--outdir", str(d), "--set", "K=25"])
        code_val = main(
            ["validate", "--outdir", str(d), "--episodes-scale", "0.05",
             "--workers", workers]
        )
        if code_opt != 0 or code_val != 0:
            failures.append(f"run {tag}: exit codes {code_opt}/{code_val}")
        outs[tag] = {
            name: (d / name).read_bytes()
            for name in (
                "trace.csv", "trace.meta.json", "validation.csv",
                "validation.meta.json",
            )
        }
    for name in outs["a"]:
        if outs["a"][name] != outs["b"][name]:
            failures.append(f"{name} differs across runs/parallelism")
    conclude(
        10,
        "optimize + validate outputs byte-identical across reruns and worker counts",
        failures,
    )
