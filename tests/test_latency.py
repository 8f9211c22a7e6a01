import math

import numpy as np
import pytest

from blockaloha import (
    AccessPolicy,
    BlockHistory,
    BlockShape,
    DegenerateHistoryError,
    expected_paoi,
    expected_peak_latency,
    pcl_pmf,
)
from oracles import (
    DegeneratePolicyError,
    cdf_terms,
    current_block_latency,
    enumerate_latency,
    expected_pcl,
    first_time_controllability,
    instantaneous_controllability,
    truncated_geometric_mean,
)


def hist_of(p_seq, T=5, p_tilde=None, chi_c=None):
    k = len(p_seq)
    return BlockHistory(
        T,
        tuple(p_seq),
        tuple(p_tilde if p_tilde is not None else [0.0] * k),
        tuple(chi_c if chi_c is not None else [0.0] * k),
    )


# ------------------------------------------------- latency / age formulas


@pytest.mark.parametrize("mode", ["extend", "boundary"])
@pytest.mark.parametrize(
    "p_seq,T",
    [
        ((0.5,), 3),
        ((0.5,), 4),
        ((0.3, 0.6), 3),
        ((0.9, 0.2, 0.7), 3),
        ((0.2, 1.0, 0.4), 3),
        ((0.6, 0.1), 4),
        ((0.7, 0.2, 0.9, 0.4, 0.55), 2),
        ((0.35, 0.8, 0.15, 0.6, 0.25), 2),
        # blocks that cannot succeed, before and in place of block 1
        ((0.3, 0.0, 0.5), 3),
        ((0.0, 0.0, 0.6), 3),
        ((0.0, 0.5), 3),
    ],
)
def test_formulas_match_exact_enumeration(p_seq, T, mode):
    h = hist_of(p_seq, T=T)
    el, ea = enumerate_latency(p_seq, T, mode)
    assert expected_peak_latency(h, mode) == pytest.approx(el, abs=1e-12)
    assert expected_paoi(h, mode) == pytest.approx(ea, abs=1e-12)


@pytest.mark.parametrize("mode", ["extend", "boundary"])
def test_all_success_limits(mode):
    for T in (1, 5, 9):
        for k in (1, 2, 4):
            h = hist_of((1.0,) * k, T=T)
            assert expected_peak_latency(h, mode) == pytest.approx(1.0, abs=1e-12)
            assert expected_paoi(h, mode) == pytest.approx(T + 1.0, abs=1e-12)


def test_paoi_k1_closed_value():
    # T(1 - q^T) + E[X | Z] + 1 at T=5, p=0.5 with the p0 = p1 convention
    h = hist_of((0.5,))
    expected = 5 * (31 / 32) + 26 / 31 + 1
    assert expected_paoi(h) == pytest.approx(expected, abs=1e-12)


def test_current_block_p0_domain_error():
    with pytest.raises(ValueError):
        expected_peak_latency(hist_of((0.5, 0.0)))
    with pytest.raises(ValueError):
        expected_paoi(hist_of((0.0,)))


def test_zero_p_in_past_history_is_fine():
    # a dead early block only removes gap mass; must not produce NaN
    h = hist_of((0.0, 0.5, 0.6))
    val = expected_peak_latency(h)
    assert math.isfinite(val)


def test_modes_differ_and_difference_shrinks_with_k():
    p = (0.5,) * 10
    gaps = []
    for k in (1, 4, 10):
        h = hist_of(p[:k])
        gaps.append(abs(expected_paoi(h, "extend") - expected_paoi(h, "boundary")))
    assert gaps[0] > gaps[1] > gaps[2]


def test_empty_history_rejected():
    with pytest.raises(ValueError):
        expected_peak_latency(BlockHistory(5, (), (), ()))
    with pytest.raises(ValueError):
        pcl_pmf(BlockHistory(5, (), (), ()))


def test_unknown_virtual_block_rejected():
    for formula in (expected_peak_latency, expected_paoi):
        with pytest.raises(ValueError, match="virtual_block"):
            formula(hist_of((0.5, 0.6)), "nope")


# ---------------------------------------------------------------- pcl


def test_pcl_pmf_k1_point_mass():
    h = hist_of((0.5,), p_tilde=(0.4,), chi_c=(0.3,))
    pmf = pcl_pmf(h)
    assert pmf.shape == (1,)
    assert pmf[0] == 1.0
    assert expected_pcl(h) == 1.0


def test_pcl_pmf_constant_regime_truncated_geometric():
    c = 0.3
    for k in (2, 5, 9):
        h = hist_of((0.5,) * k, p_tilde=(c,) * k, chi_c=(c,) * k)
        pmf = pcl_pmf(h)
        expected = [c * (1 - c) ** (t - 1) for t in range(1, k)] + [(1 - c) ** (k - 1)]
        assert np.allclose(pmf, expected, atol=1e-14)


def test_pcl_pmf_normalization_random_histories():
    rng = np.random.default_rng(5)
    for _ in range(300):
        k = int(rng.integers(1, 50))
        h = hist_of(rng.random(k), p_tilde=rng.random(k), chi_c=rng.random(k))
        assert abs(pcl_pmf(h).sum() - 1.0) <= 1e-9


def test_pcl_degenerate_history():
    # every candidate previous block impossible and chi_c = 1 kills tau = k too
    h = hist_of((0.5, 0.5), p_tilde=(0.0, 0.9), chi_c=(1.0, 0.0))
    with pytest.raises(DegenerateHistoryError):
        pcl_pmf(h)


def test_expected_pcl_approaches_reciprocal():
    c = 0.25
    k = 60  # (1 - c)^k ~ 3e-8
    h = hist_of((0.5,) * k, p_tilde=(c,) * k, chi_c=(c,) * k)
    assert abs(expected_pcl(h) - 1 / c) < 0.01 / c


# ---------------------------------------------------------------- theta_curr


def test_current_block_single_regime_block_access():
    shape = BlockShape(5, 2)
    res = current_block_latency(shape, AccessPolicy(1.0, 0.0, 0.0), 0.8, 0.0)
    assert res.expected_slots == pytest.approx(truncated_geometric_mean(0.8, 5), abs=1e-15)
    assert res.block_success_prob == pytest.approx(1 - 0.2**5, abs=1e-15)


def test_current_block_single_regime_post():
    shape = BlockShape(5, 2)
    res = current_block_latency(shape, AccessPolicy(0.3, 0.9, 0.5), 0.8, 1.0)
    assert res.expected_slots == pytest.approx(truncated_geometric_mean(0.4, 5), abs=1e-15)
    assert res.block_success_prob == pytest.approx(0.5 * (1 - 0.6**5), abs=1e-15)


def test_current_block_mixture_against_arithmetic_oracle():
    # spreadsheet-style recomputation of the three-regime mixture
    shape = BlockShape(5, 2)
    policy = AccessPolicy(0.5, 0.5, 0.5)
    rho, P_prev, T = 0.8, 0.5, 5

    regimes = [
        ((1 - P_prev) * policy.delta_B, rho),
        ((1 - P_prev) * (1 - policy.delta_B) * policy.delta_S, policy.delta_S * rho),
        (P_prev * policy.delta_C, policy.delta_C * rho),
    ]
    masses = [w * (1 - (1 - p) ** T) for w, p in regimes]
    ex = [
        (1 - p) / p - T * (1 - p) ** T / (1 - (1 - p) ** T) for _, p in regimes
    ]
    expected = sum(m * e for m, e in zip(masses, ex)) / sum(masses)

    res = current_block_latency(shape, policy, rho, P_prev)
    assert res.expected_slots == pytest.approx(expected, abs=1e-14)
    assert res.block_success_prob == pytest.approx(sum(masses), abs=1e-14)


def test_current_block_degenerate_policy():
    shape = BlockShape(5, 2)
    with pytest.raises(DegeneratePolicyError):
        current_block_latency(shape, AccessPolicy(0.0, 0.0, 0.5), 0.8, 0.0)
    with pytest.raises(DegeneratePolicyError):
        current_block_latency(shape, AccessPolicy(0.0, 0.0, 0.0), 0.8, 1.0)


# ---------------------------------------------------------------- cdf terms


def test_cdf_terms_full_mass():
    shape = BlockShape(5, 2)
    policy = AccessPolicy(0.6, 0.4, 0.5)
    rho, P_prev = 0.85, 0.3
    past = hist_of((0.7, 0.6), p_tilde=(0.5, 0.4), chi_c=(0.2, 0.3))
    # eta_pcl >= k: the pcl term collapses to P_tilde_k
    pi = first_time_controllability(shape, policy, rho)
    p_tilde = instantaneous_controllability(P_prev, pi, shape, policy.delta_C, rho)
    _, p_pcl = cdf_terms(shape, policy, rho, P_prev, past, 3.0, 10.0)
    assert p_pcl == pytest.approx(p_tilde, abs=1e-14)
    # huge eta_curr: the current term collapses to P(Z=1)
    res = current_block_latency(shape, policy, rho, P_prev)
    p_curr, _ = cdf_terms(shape, policy, rho, P_prev, past, 1e9, 3.0)
    assert p_curr == pytest.approx(res.block_success_prob, abs=1e-14)


def test_cdf_terms_internal_consistency_constant_regime():
    shape = BlockShape(5, 2)
    c = 0.4
    k_minus_1 = 6
    past = hist_of((0.5,) * k_minus_1, p_tilde=(c,) * k_minus_1, chi_c=(c,) * k_minus_1)
    policy = AccessPolicy(0.0, 0.0, 1.0)
    # P_prev = 1, delta_C = 1: P_tilde_k = chi(rho)
    rho = 0.77
    from blockaloha import chi

    p_tilde_k = instantaneous_controllability(1.0, 0.0, shape, 1.0, rho)
    full = past.extended(rho, p_tilde_k, chi(shape, rho))
    pmf = pcl_pmf(full)
    _, p_pcl = cdf_terms(shape, policy, rho, 1.0, past, 3.0, 1.0)
    assert p_pcl == pytest.approx(pmf[0] * p_tilde_k, abs=1e-14)


def test_cdf_terms_indicator_threshold():
    shape = BlockShape(5, 2)
    policy = AccessPolicy(1.0, 0.0, 0.0)
    rho = 0.8
    res = current_block_latency(shape, policy, rho, 0.0)
    below, _ = cdf_terms(shape, policy, rho, 0.0, None, res.expected_slots + 1e-9, 3.0)
    above, _ = cdf_terms(shape, policy, rho, 0.0, None, res.expected_slots - 1e-9, 3.0)
    assert below == pytest.approx(res.block_success_prob)
    assert above == 0.0


def test_cdf_terms_degenerate_policy_zero():
    shape = BlockShape(5, 2)
    p_curr, p_pcl = cdf_terms(shape, AccessPolicy(0.0, 0.0, 0.0), 0.8, 0.5, None, 3.0, 3.0)
    assert p_curr == 0.0
    assert p_pcl == 0.0  # P_tilde = 0 with no access anywhere


def test_pcl_pmf_matches_naive_loop():
    # naive per-tau reimplementation, no shared code with the library path
    rng = np.random.default_rng(21)
    for _ in range(100):
        k = int(rng.integers(1, 25))
        pt = rng.random(k)
        cc = rng.random(k)
        h = hist_of(rng.random(k), p_tilde=pt, chi_c=cc)
        weights = []
        for tau in range(1, k + 1):
            m = k - tau
            w = 1.0 if m == 0 else pt[m - 1]
            for i in range(m + 1, k):
                w *= 1.0 - cc[i - 1]
            weights.append(w)
        total = sum(weights)
        if total == 0.0:
            continue
        assert np.allclose(pcl_pmf(h), np.array(weights) / total, atol=1e-13)


def test_cdf_terms_eta_zero():
    shape = BlockShape(5, 2)
    policy = AccessPolicy(1.0, 0.0, 0.5)
    p_curr, p_pcl = cdf_terms(shape, policy, 0.8, 0.3, None, 0.0, 0.0)
    assert p_curr == 0.0  # theta_curr > 0 here
    assert p_pcl == 0.0  # no gap can be <= 0
