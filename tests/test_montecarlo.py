import functools
import itertools
import json
import math
import operator
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from blockaloha import (
    AccessPolicy,
    BlockHistory,
    BlockShape,
    Estimate,
    HistoryState,
    NetworkParams,
    block_recursion,
    chi,
    episode_rng,
    expected_paoi,
    expected_peak_latency,
    pcl_pmf,
    simulate_bernoulli,
    simulate_policy_chain,
    simulate_renewal_pcl,
    simulate_spatial,
    slot_success_prob,
)
from blockaloha.montecarlo import (
    _GAIN_CAP,
    _Sample,
    _block_stats,
    _interferer_gains,
    _skipped,
    _slot_probs,
)
from blockaloha.spatial import interference_tail, noise_exponent
from oracles import (
    block_stats_reference,
    expected_pcl,
    first_time_controllability,
    instantaneous_controllability,
    max_run,
    spatial_probs_reference,
    spatial_reference,
)

PARAMS = NetworkParams(lam=1e-4, alpha=3.0, gamma=0.1, xi=10.0, N0=1e-17, r0=25.0)
PINS = json.loads((Path(__file__).parent / "block_pins.json").read_text())


def hist_of(p_seq, T):
    k = len(p_seq)
    return BlockHistory(T, tuple(p_seq), (0.0,) * k, (0.0,) * k)


def assert_within(est, analytic, sigmas=3.0):
    assert est.n > 0
    assert abs(est.value - analytic) <= sigmas * est.stderr, (
        f"{est.value} vs {analytic} (se={est.stderr}, n={est.n})"
    )


def test_bernoulli_all_success_exact():
    shape = BlockShape(4, 2)
    rep = simulate_bernoulli((1.0, 1.0), shape, 500, seed=0)
    assert rep["peak_latency"].value == 1.0
    assert rep["paoi"].value == shape.T + 1.0
    assert rep["run_freq_b1"].value == 1.0


def test_bernoulli_run_freq_matches_chi():
    shape = BlockShape(5, 3)
    rep = simulate_bernoulli((0.5,), shape, 200_000, seed=10)
    assert_within(rep["run_freq_b1"], 0.25)
    assert_within(rep["slot_rate_b1"], 0.5)
    assert_within(rep["block_success_b1"], 1 - 0.5**5)


@pytest.mark.parametrize("mode", ["extend", "boundary"])
# (0.3, 0.0, 0.5): a block that cannot succeed carries no trailing failure run
@pytest.mark.parametrize("p_seq", [(0.5, 0.5, 0.5), (0.9, 0.1, 0.8), (0.3, 0.0, 0.5)])
def test_bernoulli_latency_age_match_formulas(p_seq, mode):
    shape = BlockShape(5, 2)
    h = hist_of(p_seq, shape.T)
    rep = simulate_bernoulli(p_seq, shape, 200_000, seed=11, virtual_block=mode)
    assert_within(rep["peak_latency"], expected_peak_latency(h, mode))
    assert_within(rep["paoi"], expected_paoi(h, mode))
    # paired-sample relation: the difference of the two metrics on shared paths
    diff = expected_paoi(h, mode) - expected_peak_latency(h, mode)
    assert_within(rep["paoi_minus_pl"], diff)


def test_bernoulli_k1_closed_value():
    shape = BlockShape(5, 2)
    rep = simulate_bernoulli((0.5,), shape, 300_000, seed=12)
    assert_within(rep["paoi"], 5 * (31 / 32) + 26 / 31 + 1)


def test_bernoulli_conditional_sample_counts():
    shape = BlockShape(3, 1)
    rep = simulate_bernoulli((0.4, 0.3), shape, 50_000, seed=13)
    n_z = rep["block_success_b2"]
    assert rep["peak_latency"].n == round(n_z.value * 50_000)


def test_bernoulli_thread_count_independent():
    shape = BlockShape(5, 3)
    a = simulate_bernoulli((0.6, 0.4), shape, 60_000, seed=14, workers=1, batch_size=7_000)
    b = simulate_bernoulli((0.6, 0.4), shape, 60_000, seed=14, workers=4, batch_size=7_000)
    assert a == b


def test_renewal_constant_regime():
    c, k = 0.3, 8
    h = BlockHistory(5, (0.5,) * k, (c,) * k, (c,) * k)
    rep = simulate_renewal_pcl((c,) * k, (c,) * k, 200_000, seed=15)
    pmf = pcl_pmf(h)
    for tau in range(1, k + 1):
        assert_within(rep[f"pcl_pmf_{tau}"], pmf[tau - 1])
    assert_within(rep["pcl_mean"], expected_pcl(h))


def test_renewal_k1_point_mass():
    rep = simulate_renewal_pcl((0.7,), (0.5,), 20_000, seed=16)
    assert rep["pcl_pmf_1"].value == 1.0
    assert rep["pcl_mean"].value == 1.0


def test_policy_chain_matches_recursions():
    shape = BlockShape(5, 2)
    policies = [AccessPolicy(0.3, 0.4, 0.6)] * 6
    # analytic recursion threading the mean-field state
    from blockaloha import effective_densities

    P_O = 0.0
    rho_seq, pi_seq, po_seq, pt_seq = [], [], [], []
    for pol in policies:
        dens = effective_densities(PARAMS, pol, P_O)
        rho = slot_success_prob(PARAMS, dens.lambda_eff)
        pi = first_time_controllability(shape, pol, rho)
        pt = instantaneous_controllability(P_O, pi, shape, pol.delta_C, rho)
        P_O = P_O + (1 - P_O) * pi
        rho_seq.append(rho)
        pi_seq.append(pi)
        po_seq.append(P_O)
        pt_seq.append(pt)

    rep = simulate_policy_chain(shape, policies, rho_seq, 150_000, seed=17)
    for i in (0, 2, 5):
        assert_within(rep[f"pi_b{i + 1}"], pi_seq[i])
        assert_within(rep[f"P_O_b{i + 1}"], po_seq[i])
        assert_within(rep[f"P_tilde_b{i + 1}"], pt_seq[i])


def test_policy_chain_pcl_matches_gap_formula_in_steady_regime():
    # post-controllability regime from the start: the gap distribution of
    # the chain is exactly the truncated geometric the gap formula gives
    shape = BlockShape(5, 2)
    pol = AccessPolicy(0.9, 0.9, 0.7)
    K = 10
    rho = slot_success_prob(PARAMS, PARAMS.lam * 0.8)
    rho_seq = [rho] * K
    rep = simulate_policy_chain(shape, [pol] * K, rho_seq, 100_000, seed=18)
    # build the analytic history the chain realizes

    P_O = 0.0
    pt_seq, cc_seq, p_seq = [], [], []
    for _ in range(K):
        pi = first_time_controllability(shape, pol, rho)
        cc = chi(shape, pol.delta_C * rho)
        pt = instantaneous_controllability(P_O, pi, shape, pol.delta_C, rho)
        P_O = P_O + (1 - P_O) * pi
        pt_seq.append(pt)
        cc_seq.append(cc)
        p_seq.append(rho)
    h = BlockHistory(shape.T, tuple(p_seq), tuple(pt_seq), tuple(cc_seq))
    # the gap formula's tau = K boundary term is an approximation of the true
    # chain; with pi ~ 0.99 the residual mass is ~1e-20 here
    assert_within(rep["pcl_mean"], expected_pcl(h))
    pmf = pcl_pmf(h)
    assert_within(rep["pcl_pmf_1"], pmf[0])


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4, Finding 1: the pcl law mixes the pre- and "
                   "post-controllability regimes of a block")
def test_policy_chain_pcl_matches_history_state_across_regimes():
    # (0.15, 0.3, 0.5) x 8 at the defaults, eta_pcl = 1: a controller that
    # has never been controllable sends at rho in a block it accesses whole
    # (probability 0.15) and at 0.3 rho otherwise, one that has at 0.5 rho,
    # so a block's two regimes succeed at different rates.  The law gives
    # mean 1.7620 and P(tau = 1) 0.5640 at block 8; the chain gives
    # 1.9119 +- 0.0045 (z = +33.5) and 0.5514 +- 0.0015 (z = -8.4).
    shape, policy, K = BlockShape(5, 2), AccessPolicy(0.15, 0.3, 0.5), 8
    state = HistoryState.start(shape.T, "extend", 1.0)
    P_O, rho_seq = 0.0, []
    for k in range(K):
        block = {name: float(x) for name, x in block_recursion(
            P_O, PARAMS, shape, policy.delta_B, policy.delta_S, policy.delta_C).items()}
        P_O = block["P_O"]
        rho_seq.append(block["rho"])
        if k < K - 1:
            state = state.extended(block["rho"], block["P_O_tilde"], block["chi_C"])
    cdf, mean = state.pcl_context()  # blocks 1..7, read at block 8
    rep = simulate_policy_chain(shape, [policy] * K, rho_seq, 200_000, seed=5)
    assert abs(rep["pcl_mean"].z_against(mean)) < 3.0
    assert abs(rep["pcl_pmf_1"].z_against(cdf)) < 3.0


def test_spatial_slot_rate_matches_closed_form():
    shape = BlockShape(5, 2)
    analytic = slot_success_prob(PARAMS, PARAMS.lam)
    rep = simulate_spatial(
        PARAMS, AccessPolicy(1.0, 0.0, 0.0), shape, 6_000, seed=19, disk_radius=1500.0
    )
    # no slack: the field beyond the disk enters through its exact factor
    assert_within(rep["slot_rate"], analytic)


def test_spatial_run_freq_matches_chi_per_slot_geometry():
    shape = BlockShape(5, 2)
    analytic = slot_success_prob(PARAMS, PARAMS.lam)
    rep = simulate_spatial(
        PARAMS, AccessPolicy(1.0, 0.0, 0.0), shape, 6_000, seed=20, disk_radius=1500.0
    )
    assert_within(rep["run_freq"], chi(shape, analytic))


def test_spatial_integrated_matches_closed_form():
    # no slack: integrating the fading out leaves no truncation bias
    shape = BlockShape(5, 2)
    rho = slot_success_prob(PARAMS, PARAMS.lam)
    rep = simulate_spatial(PARAMS, AccessPolicy(1.0, 0.0, 0.0), shape, 3_000, seed=19,
                           disk_radius=1500.0, fading="integrated")
    assert rep["slot_rate"].n == 3_000 * shape.T and rep["run_freq"].n == 3_000
    assert_within(rep["slot_rate"], rho)
    assert_within(rep["run_freq"], chi(shape, rho))
    assert_within(rep["block_success"], chi(BlockShape(shape.T, 1), rho))


def test_spatial_integrated_has_no_truncation_bias():
    # a 300 m disk leaves out interferers worth a relative 6.5e-3 of the
    # success probability; the drawn tier would center on rho exp(lam A_out)
    p = NetworkParams(lam=2e-4, alpha=3.0, gamma=0.1, xi=10.0, N0=1e-17, r0=25.0)
    rho = slot_success_prob(p, p.lam)
    rep = simulate_spatial(p, AccessPolicy(1.0, 0.0, 0.0), BlockShape(5, 2), 20_000, seed=41,
                           disk_radius=300.0, fading="integrated")
    assert_within(rep["slot_rate"], rho)
    truncated = rho * math.exp(p.lam * interference_tail(p, 300.0))
    assert abs(rep["slot_rate"].value - truncated) > 5 * rep["slot_rate"].stderr


def test_spatial_drawn_has_no_truncation_bias():
    # as for the integrated fading: on a 300 m disk the drawn slots centre on
    # rho, not on the disk-truncated rho exp(lam A_out), 6.5e-3 relative away
    p = NetworkParams(lam=2e-4, alpha=3.0, gamma=0.1, xi=10.0, N0=1e-17, r0=25.0)
    rho = slot_success_prob(p, p.lam)
    rep = simulate_spatial(p, AccessPolicy(1.0, 0.0, 0.0), BlockShape(5, 2), 60_000, seed=41,
                           disk_radius=300.0)
    assert_within(rep["slot_rate"], rho)
    truncated = rho * math.exp(p.lam * interference_tail(p, 300.0))
    assert abs(rep["slot_rate"].value - truncated) > 5 * rep["slot_rate"].stderr


def test_spatial_per_episode_geometry_shows_correlation():
    # frozen geometry correlates slots; for T=5, v=2 at these parameters the
    # run frequency drops ~0.04 below the i.i.d.-slot value (meta-distribution
    # effect, outside the analytic model)
    shape = BlockShape(5, 2)
    analytic = slot_success_prob(PARAMS, PARAMS.lam)
    rep = simulate_spatial(
        PARAMS,
        AccessPolicy(1.0, 0.0, 0.0),
        shape,
        6_000,
        seed=21,
        disk_radius=1500.0,
        geometry="per-episode",
    )
    assert rep["run_freq"].value < chi(shape, analytic) - 0.02
    # the per-slot marginal is exact either way
    assert_within(rep["slot_rate"], analytic)


def test_spatial_per_episode_slot_rate_stderr_is_calibrated():
    # the frozen field correlates an episode's slots, so the slot rate's
    # standard error is taken over episodes: across 40 seeds the estimates
    # scatter as much as their reported standard error says (a binomial
    # stderr over the n T slots understates it by about a third here)
    reps = [
        simulate_spatial(PARAMS, AccessPolicy(1.0, 0.0, 0.0), BlockShape(5, 2), 2_000, seed,
                         disk_radius=300.0, geometry="per-episode")["slot_rate"]
        for seed in range(40)
    ]
    assert all(r.n == 2_000 for r in reps)
    ratio = np.std([r.value for r in reps], ddof=1) / np.mean([r.stderr for r in reps])
    assert 0.8 <= ratio <= 1.25, ratio


def test_sample_folds_chunks_like_one_pass_property():
    # integer totals are exact, so a folded summary has the one-pass value;
    # its standard error stays within 1e-13 of the exact one even for means
    # of 1e5: on the example below the sum-of-squares path is 2e-3 off, and a
    # merge that subtracts the two rounded means 5e-13
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        kind=st.sampled_from(["rate", "integer", "constant"]),
        n=st.integers(0, 200_000),
        base=st.integers(2, 100_000),
        spread=st.integers(1, 1_000),
        share=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(100, 200_000),
        cuts=st.lists(st.integers(0, 200_000), max_size=8),
    )
    # the Bernoulli tier's 4,369-value chunks of a nearly constant sample
    @hypothesis.example(kind="integer", n=200_000, base=100_000, spread=1, share=1e-3, seed=0,
                        size=4_369, cuts=[0, 0])
    def agree(kind, n, base, spread, share, seed, size, cuts):
        rng = np.random.default_rng(seed)
        hit = rng.random(n) < share
        x = {"rate": hit, "integer": base + hit * rng.integers(0, spread + 1, n),
             "constant": np.full(n, base / spread)}[kind]  # 1.0 when base == spread
        chunks = np.split(x, sorted([*range(size, n, size), *(c % (n + 1) for c in cuts)]))
        folded = functools.reduce(operator.add, map(_Sample.of, chunks)).estimate()
        whole = _Sample.of(x).estimate()
        assert folded.n == whole.n == n
        if n == 0:
            assert math.isnan(folded.value) and math.isnan(folded.stderr)
        elif kind == "constant":  # its chunks' means differ in the last bits, its stderr not
            assert folded.value == pytest.approx(base / spread, rel=1e-12)  # 2,000 float totals
            if n > 1 or base == spread:
                assert folded.stderr == 0.0
            else:
                assert math.isnan(folded.stderr)
        else:
            assert folded.value == whole.value == int(x.sum()) / n
            if kind == "rate":  # the binomial standard error, also of the same 0/1 floats
                p = folded.value
                assert folded.stderr == whole.stderr == math.sqrt(p * (1 - p) / n)
                assert _Sample.of(x.astype(float)).estimate() == whole
            elif n > 1:
                total, total_sq = int(x.sum()), int((x * x).sum())  # < 2^63: exact
                exact = math.sqrt(Fraction(n * total_sq - total**2, n * n * (n - 1)))
                for est in (folded, whole):
                    assert abs(est.stderr - exact) <= 1e-13 * exact, (est, exact)
            else:  # one value, not 0 or 1: no spread to estimate
                assert math.isnan(folded.stderr)

    agree()


def test_z_against_scores_a_constant_sample_against_the_reference_spread():
    # zero stderr and 0 < ref < 1: the score uses sqrt(ref (1 - ref) / n)
    assert Estimate(1.0, 0.0, 1000).z_against(0.99) > 3.0
    assert Estimate(1.0, 0.0, 1000).z_against(0.99) == pytest.approx(
        0.01 / math.sqrt(0.99 * 0.01 / 1000), rel=1e-12)
    assert abs(Estimate(1.0, 0.0, 25_000).z_against(1.0 - 1.6e-15)) < 1e-4
    assert Estimate(0.0, 0.0, 50).z_against(0.5) == pytest.approx(-math.sqrt(50), rel=1e-12)
    # outside (0, 1): 0 on equality, inf otherwise, as before
    for value, ref, z in [(1.0, 1.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, math.inf),
                          (0.0, 1.0, math.inf), (2.5, 2.5, 0.0), (2.5, 3.0, math.inf)]:
        assert Estimate(value, 0.0, 100).z_against(ref) == z
    assert Estimate(0.6, 0.05, 100).z_against(0.5) == pytest.approx(2.0, rel=1e-12)


def test_spatial_constant_sample_has_zero_stderr_over_batches():
    # at lam = 1e-13 no slot of this run holds an interferer, so every slot
    # probability is the same constant; its four batches' means differ in
    # the last bits, which must not read as a standard error
    p = NetworkParams(lam=1e-13, alpha=3.0, gamma=0.1, xi=10.0, N0=1e-17, r0=25.0)
    rep = simulate_spatial(p, AccessPolicy(1.0, 0.0, 0.0), BlockShape(5, 2), 6_350, seed=7,
                           disk_radius=300.0, fading="integrated")
    for key in ("slot_rate", "run_freq", "block_success"):
        assert rep[key].stderr == 0.0
    assert abs(rep["slot_rate"].z_against(slot_success_prob(p, p.lam))) < 3.0


def test_spatial_zero_interference():
    shape = BlockShape(3, 1)
    p = NetworkParams(lam=1e-4, alpha=3.0, gamma=0.1, xi=10.0, N0=1e-30, r0=25.0)
    rep = simulate_spatial(p, AccessPolicy(0.0, 0.0, 0.0), shape, 2_000, seed=22)
    assert rep["slot_rate"].value == 1.0


# (alpha, lam, disk_radius, episodes, batch_size): the 3e-7 density leaves
# most cells and whole batches without interferers; 700 is not a multiple
# of 300, nor 500 of 16; at 1e-2 every cell holds ~70,700 interferers, more
# than one fading chunk
SPATIAL_CASES = [
    (2.5, 1e-4, 600.0, 700, 300),
    (3.0, 1e-4, 600.0, 700, 300),
    (4.0, 1e-4, 600.0, 700, 300),
    (3.0, 3e-7, 100.0, 500, 16),
    (3.0, 1e-2, 1500.0, 3, 2),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("geometry", ["per-slot", "per-episode"])
@pytest.mark.parametrize("alpha,lam,radius,episodes,batch", SPATIAL_CASES)
def test_spatial_matches_reference_sampler(alpha, lam, radius, episodes, batch, geometry,
                                           workers):
    # same draws as the repeat + bincount sampler: identical counts and
    # identical 0/1 slot outcomes in every batch; the frozen field's slot
    # rate is the mean of its episodes' success fractions
    p = NetworkParams(lam=lam, alpha=alpha, gamma=0.1, xi=10.0, N0=1e-17, r0=25.0)
    shape = BlockShape(5, 2)
    seed = 37
    counts, batches = spatial_reference(
        p, lam, shape.T, shape.v, episodes, seed, radius, geometry, batch
    )
    rep = simulate_spatial(p, AccessPolicy(1.0, 0.0, 0.0), shape, episodes, seed,
                           disk_radius=radius, geometry=geometry, workers=workers,
                           batch_size=batch)
    n = counts["n"]
    assert rep["run_freq"].n == n
    if geometry == "per-slot":
        assert rep["slot_rate"].n == n * shape.T
        assert rep["slot_rate"].value == counts["slot_cnt"] / (n * shape.T)
    else:
        rates = counts["episode_rates"]
        assert rep["slot_rate"].n == n
        assert rep["slot_rate"].value == pytest.approx(np.mean(rates), rel=1e-12)
        assert rep["slot_rate"].stderr == pytest.approx(
            np.std(rates, ddof=1) / math.sqrt(n), rel=1e-6)
    assert rep["run_freq"].value == counts["run_cnt"] / n
    assert rep["block_success"].value == counts["z_cnt"] / n
    mean_pts = lam * math.pi * radius**2
    outer = noise_exponent(p) + lam * interference_tail(p, radius)
    empty_batches = empty_cells = 0
    for i, size, ok, ref in batches:
        got = _slot_probs(
            episode_rng(seed, i), size, shape.T, mean_pts, radius, p, geometry, "drawn", outer
        )
        assert got.shape == ok.shape == ref.shape == (size, shape.T)
        np.testing.assert_array_equal(got, ok.astype(float))
        empty_batches += not ref.any()
        empty_cells += int((ref == 0.0).sum())
    if lam < 1e-6:
        assert 0 < empty_batches < len(batches)
    else:
        assert empty_cells == 0


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("alpha,lam,radius,episodes,batch", SPATIAL_CASES)
def test_spatial_integrated_matches_reference_sampler(alpha, lam, radius, episodes, batch,
                                                      workers):
    # same draws as the materializing sampler; the slot probabilities agree
    # up to the order of summation, and the estimates are their means
    p = NetworkParams(lam=lam, alpha=alpha, gamma=0.1, xi=10.0, N0=1e-17, r0=25.0)
    shape, seed = BlockShape(5, 2), 43
    mean_pts = lam * math.pi * radius**2
    outer = noise_exponent(p) + lam * interference_tail(p, radius)
    probs = []
    for i, lo in enumerate(range(0, episodes, batch)):
        size = min(batch, episodes - lo)
        ref = math.exp(-outer) * spatial_probs_reference(
            episode_rng(seed, i), size, shape.T, mean_pts, radius, p)
        got = _slot_probs(episode_rng(seed, i), size, shape.T, mean_pts, radius, p,
                          "per-slot", "integrated", outer)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=0.0)
        probs.append(ref)
    probs = np.concatenate(probs)
    rep = simulate_spatial(p, AccessPolicy(1.0, 0.0, 0.0), shape, episodes, seed,
                           disk_radius=radius, workers=workers, batch_size=batch,
                           fading="integrated")
    block = 1.0 - np.prod(1.0 - probs, axis=1)
    runs = [sum(np.prod(np.where(bits, row, 1.0 - row))
                for bits in itertools.product((0, 1), repeat=shape.T)
                if max_run(bits) >= shape.v) for row in probs]
    for key, values in (("slot_rate", probs), ("block_success", block), ("run_freq", runs)):
        assert rep[key].n == np.size(values)
        assert rep[key].value == pytest.approx(np.mean(values), rel=1e-12)
        assert rep[key].stderr == pytest.approx(
            np.std(values, ddof=1) / math.sqrt(np.size(values)), rel=1e-6)


def test_spatial_drawn_at_large_alpha_matches_closed_form():
    # alpha=300: (r/r0)^-a spans far beyond the float range, and a near
    # interferer's gain once overflowed to inf and met an underflowed 0
    p = NetworkParams(lam=1e-4, alpha=300.0, gamma=0.1, xi=10.0, N0=1e-17, r0=0.5)
    rho = slot_success_prob(p, p.lam)
    assert 0.9999 < rho < 1.0
    with np.errstate(all="raise"):
        rep = simulate_spatial(p, AccessPolicy(1.0, 0.0, 0.0), BlockShape(5, 2), 20_000,
                               seed=61, disk_radius=100.0)
        # the frozen field's stderr is taken over episodes; every slot of
        # this run succeeds, so it is 0 and z uses the reference's spread
        frozen = simulate_spatial(p, AccessPolicy(1.0, 0.0, 0.0), BlockShape(5, 2), 2_000,
                                  seed=61, disk_radius=100.0, geometry="per-episode")
    assert rep["slot_rate"].stderr > 0.0
    assert abs(rep["slot_rate"].z_against(rho)) < 3.0
    assert frozen["slot_rate"].value > 0.999
    assert abs(frozen["slot_rate"].z_against(rho)) < 3.0


def test_interferer_gains_are_exact_below_the_cap():
    # U^2 u = 0 (u = 0) and any alpha: no overflow; a gain beyond the cap
    # takes the cap, and so, above alpha ~1.2e19, does every U^2 u < 1
    def expected(x, alpha):
        if x == 0.0 or -0.5 * alpha * math.log(x) > math.log(_GAIN_CAP):
            return _GAIN_CAP
        return x ** (-0.5 * alpha)

    x = [0.0, 1e-3, 0.5, 0.99, 1.5, 40.0]
    with np.errstate(over="raise", divide="raise", invalid="raise", under="ignore"):
        for alpha in (3.0, 300.0, 1e20, 1e300):
            # r0 = g = 1: U is the disk radius
            p = NetworkParams(lam=1e-4, alpha=alpha, gamma=1.0, xi=1.0, N0=1.0, r0=1.0)
            gains = _interferer_gains(np.array(x), 1.0, p)
            want = [expected(xi, alpha) for xi in x]
            np.testing.assert_allclose(gains, want, rtol=1e-12, atol=0.0)
            np.testing.assert_array_equal(_interferer_gains(np.array(x) / 4.0, 2.0, p), gains)


def test_spatial_per_slot_peak_memory_is_one_float_per_interferer():
    # one batch of 400 episodes at R=1500 m: ~1.4M interferers, 11 MB of float64
    shape = BlockShape(5, 2)
    n, radius, seed = 400, 1500.0, 31
    mean_pts = PARAMS.lam * math.pi * radius**2
    interferers = int(episode_rng(seed, 0).poisson(mean_pts, size=n * shape.T).sum())
    tracemalloc.start()
    try:
        simulate_spatial(PARAMS, AccessPolicy(1.0, 0.0, 0.0), shape, n, seed,
                         disk_radius=radius, batch_size=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 8 * interferers, (peak, interferers)


@pytest.mark.parametrize("n", [400, 2_000])
def test_spatial_per_slot_peak_memory_is_independent_of_interferers(n):
    # ~1.4M and ~7.1M interferers: the per-slot batch streams them in
    # groups of about one fading chunk instead of holding one float each
    shape = BlockShape(5, 2)
    tracemalloc.start()
    try:
        simulate_spatial(PARAMS, AccessPolicy(1.0, 0.0, 0.0), shape, n, 31,
                         disk_radius=1500.0, batch_size=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


@pytest.mark.parametrize("n", [400, 2_000])
def test_spatial_per_episode_peak_memory_is_one_float_per_interferer(n):
    # ~0.28M and ~1.4M interferers: the frozen field keeps its uniforms, but
    # the faded products go through one buffer of about a fading chunk
    from blockaloha.montecarlo import _FADING_CHUNK

    shape, radius, seed = BlockShape(5, 2), 1500.0, 31
    mean_pts = PARAMS.lam * math.pi * radius**2
    interferers = int(episode_rng(seed, 0).poisson(mean_pts, size=n).sum())
    tracemalloc.start()
    try:
        simulate_spatial(PARAMS, AccessPolicy(1.0, 0.0, 0.0), shape, n, seed,
                         disk_radius=radius, geometry="per-episode", batch_size=n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * interferers + 4 * 8 * _FADING_CHUNK, (peak, interferers)


def test_bernoulli_batch_peak_memory_does_not_grow_with_blocks():
    # one 5,000-episode batch: its uniforms alone would take 8 B per slot
    peaks = {}
    for k in (3, 300):
        tracemalloc.start()
        try:
            simulate_bernoulli((0.5,) * k, BlockShape(5, 2), 5_000, 3, batch_size=5_000)
            _, peaks[k] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert peaks[300] < 1.5 * peaks[3], peaks


def test_bernoulli_batch_peak_memory_does_not_grow_with_block_bytes(monkeypatch):
    # T=40 packs five bytes per block and walks them one at a time, so a
    # chunk's state stays O(chunk), not O(T x chunk): the peak grows neither
    # with the blocks nor past the one-byte T=5 peak
    import blockaloha.montecarlo

    def peak(T, k, episodes):
        tracemalloc.start()
        try:
            simulate_bernoulli((0.5,) * k, BlockShape(T, 2), episodes, 3, batch_size=episodes)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peaks = {(T, k): peak(T, k, episodes)
             for T, k, episodes in ((5, 3, 5_000), (40, 3, 5_000), (40, 300, 250))}
    assert peaks[40, 300] < 1.5 * peaks[40, 3], peaks
    assert peaks[40, 3] < 1.5 * peaks[5, 3], peaks
    # each chunk folds into the batch's summaries as it ends: at four episodes
    # per chunk, 200 chunks peak no higher than 2
    monkeypatch.setattr(blockaloha.montecarlo, "_FADING_CHUNK", 4 * 3 * 40)
    chunks = {episodes: peak(40, 3, episodes) for episodes in (8, 800)}
    assert chunks[800] < 1.5 * chunks[8], chunks


def assert_block_stats(bits, v):
    ones, first, last, longest = _block_stats(bits)
    ref_ones, ref_first, ref_last, ref_run = block_stats_reference(bits, v)
    np.testing.assert_array_equal(ones, ref_ones)
    np.testing.assert_array_equal(first, ref_first)
    np.testing.assert_array_equal(last, ref_last)
    np.testing.assert_array_equal(longest >= v, ref_run)
    rows = bits.reshape(-1, bits.shape[-1]).tolist()
    np.testing.assert_array_equal(longest.reshape(-1), [max_run(row) for row in rows])


def test_block_stats_matches_reference_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        T=st.integers(1, 200),
        p=st.one_of(st.just(0.0), st.floats(0.05, 0.95), st.just(1.0)),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def agree(T, p, seed, data):
        v = data.draw(st.integers(1, T), label="v")
        assert_block_stats(np.random.default_rng(seed).random((16, 3, T)) < p, v)

    agree()


@pytest.mark.parametrize("T, v, ones_at, longest", [
    (9, 2, [7, 8], 2),  # slots 8-9: the last bit of byte 0 and the first of byte 1
    (9, 3, [7, 8], 2),
    (16, 9, range(4, 13), 9),
    (16, 9, [*range(8), *range(9, 16)], 8),
    (24, 24, range(24), 24),  # the run carries through a whole 0xFF byte
    (24, 9, [*range(3, 21)], 18),
    (17, 1, [16], 1),
])
def test_block_stats_runs_cross_byte_boundaries(T, v, ones_at, longest):
    bits = np.zeros((2, T), dtype=bool)
    bits[1, list(ones_at)] = True
    assert _block_stats(bits)[3].tolist() == [0, longest]
    assert_block_stats(bits, v)


@pytest.mark.parametrize("T", [1, 5, 8, 9, 40])
def test_block_stats_without_successes(T):
    ones, first, last, longest = _block_stats(np.zeros((3, 2, T), dtype=bool))
    for stat, empty in ((ones, 0), (first, -1), (last, -1), (longest, 0)):
        assert stat.shape == (3, 2) and (stat == empty).all()


@pytest.mark.parametrize("mode", ["extend", "boundary"])
def test_bernoulli_chunk_reduces_blocks_0_to_k_in_one_block_stats_call(monkeypatch, mode):
    # the virtual block is row 0 of one block-major (k+1, n, T) array
    import blockaloha.montecarlo

    shapes = []

    def record(bits):
        shapes.append(bits.shape)
        return _block_stats(bits)

    monkeypatch.setattr(blockaloha.montecarlo, "_block_stats", record)
    # 300 episodes of 3 x 5 slots are one chunk
    rep = simulate_bernoulli((0.3, 0.55, 0.2), BlockShape(5, 2), 300, 41, virtual_block=mode)
    assert shapes == [(4, 300, 5)]
    assert rep["slot_rate_b1"].n == 1500


@pytest.mark.parametrize("case", PINS["bernoulli"],
                         ids=lambda c: f"T{c['T']}-v{c['v']}-{c['virtual_block']}")
def test_bernoulli_multibyte_blocks_match_pinned_values(case):
    rep = simulate_bernoulli(case["p_seq"], BlockShape(case["T"], case["v"]), case["episodes"],
                             case["seed"], virtual_block=case["virtual_block"],
                             batch_size=case["batch_size"])
    assert rep == {key: Estimate(*est) for key, est in case["estimates"].items()}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", PINS["policy_chain"], ids=lambda c: f"T{c['T']}-v{c['v']}")
def test_policy_chain_multibyte_blocks_match_pinned_values(case, workers):
    policies = [AccessPolicy(*pol) for pol in case["policies"]]
    rep = simulate_policy_chain(BlockShape(case["T"], case["v"]), policies, case["rho_seq"],
                                case["episodes"], case["seed"], workers=workers,
                                batch_size=case["batch_size"])
    assert rep == {key: Estimate(*est) for key, est in case["estimates"].items()}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", PINS["spatial"], ids=lambda c: "-".join(
    (f"lam{c['params']['lam']:g}", f"a{c['params']['alpha']:g}", c["geometry"], c["fading"])))
def test_spatial_samplers_match_pinned_values(case, workers):
    # cells of more interferers than one fading chunk (lam=1e-2 on 1500 m)
    # and batches with no interferer at all (lam=3e-7 on 100 m, batch 16)
    rep = simulate_spatial(NetworkParams(**case["params"]), AccessPolicy(1.0, 0.0, 0.0),
                           BlockShape(case["T"], case["v"]), case["episodes"], case["seed"],
                           disk_radius=case["disk_radius"], geometry=case["geometry"],
                           workers=workers, batch_size=case["batch_size"],
                           fading=case["fading"])
    assert rep == {key: Estimate(*est) for key, est in case["estimates"].items()}


@pytest.mark.parametrize("m", [*range(10), 65_537, 200_003])
def test_skipped_stream_starts_after_m_raw_outputs(m):
    # every Philox buffer position: 0-3 raw draws plus one or two Poisson
    # draws reach 1-4, and 0 (four buffered outputs) is set directly
    positions = set()
    for raw, size, pos in [(r, s, None) for r in range(4) for s in (1, 2)] + [(0, 1, 0)]:
        rng = episode_rng(7, 0)
        rng.bit_generator.random_raw(raw)
        rng.poisson(50.0, size=size)
        if pos is not None:
            state = rng.bit_generator.state
            state["buffer_pos"] = pos
            rng.bit_generator.state = state
        positions.add(rng.bit_generator.state["buffer_pos"])
        view = _skipped(rng, m)
        rng.random(m)
        assert np.array_equal(view.standard_exponential(1_000), rng.standard_exponential(1_000))
    assert positions == {0, 1, 2, 3, 4}


@pytest.mark.parametrize(
    "bad",
    [
        dict(disk_radius=-1500.0),
        dict(disk_radius=0.0),
        dict(disk_radius=math.inf),
        dict(disk_radius=math.nan),
        dict(batch_size=0),
        dict(batch_size=-5),
        dict(workers=0),
        dict(fading="exact"),
        dict(fading="integrated", geometry="per-episode"),
        dict(disk_radius=10.0),  # inside 2^(1/3) r0 gamma^(1/3)
        dict(fading="integrated", disk_radius=10.0),
        dict(disk_radius=1e160),  # R^2 overflows: once an OverflowError
        # counts are integers >= 1 and seeds integers in [0, 2^64), checked
        # before a batch runs: 1.5 ran seed 1, and range() raised TypeError
        dict(seed=1.5),
        dict(seed=-1),
        dict(seed=2**64),
        dict(seed="1"),
        dict(workers=1.5),
        dict(episodes=2.5),
        dict(batch_size=2.5),
        dict(episodes=0),
    ],
)
def test_spatial_rejects_bad_arguments(bad):
    with pytest.raises(ValueError):
        simulate_spatial(PARAMS, AccessPolicy(1.0, 0.0, 0.0), BlockShape(3, 1),
                         **{"episodes": 10, "seed": 1, **bad})


CHAIN = (BlockShape(3, 1), [AccessPolicy(1.0, 0.0, 0.0)] * 2)


@pytest.mark.parametrize(
    "tier, args, kw",
    [
        pytest.param(simulate_bernoulli, ([0.5, math.nan], BlockShape(3, 1)), {}, id="bern-nan"),
        pytest.param(simulate_renewal_pcl, ([0.5, 1.7], [0.2, 0.3]), {}, id="renewal-above-1"),
        pytest.param(simulate_renewal_pcl, ([0.5, 0.7], [0.2, -0.3]), {}, id="renewal-negative"),
        pytest.param(simulate_renewal_pcl, ([0.5, 0.7], [math.nan, 0.3]), {}, id="renewal-nan"),
        pytest.param(simulate_policy_chain, (*CHAIN, [0.5, math.nan]), {}, id="chain-nan"),
        pytest.param(simulate_policy_chain, (*CHAIN, [0.5, 1.2]), {}, id="chain-above-1"),
        pytest.param(simulate_policy_chain, (*CHAIN, [-0.1, 0.5]), {}, id="chain-negative"),
        # every tier takes a 1-D probability sequence; [[0.5], [0.5]] ran one policy per row
        pytest.param(simulate_policy_chain, (*CHAIN, [[0.5], [0.5]]), {}, id="chain-2d"),
        # seed 1.5 ran seed 1's streams; counts that are not integers are ValueErrors
        pytest.param(simulate_bernoulli, ([0.5], BlockShape(5, 2)), dict(seed=1.5),
                     id="bern-seed-float"),
        pytest.param(simulate_bernoulli, ([0.5], BlockShape(5, 2)), dict(workers=1.5),
                     id="bern-workers-float"),
        pytest.param(simulate_renewal_pcl, ([0.5], [0.5]), dict(episodes=2.5),
                     id="renewal-episodes-float"),
        pytest.param(simulate_policy_chain, (*CHAIN, [0.5, 0.5]), dict(batch_size=2.5),
                     id="chain-batch-size-float"),
    ],
)
def test_tiers_reject_bad_probabilities(tier, args, kw):
    with pytest.raises(ValueError):
        tier(*args, **{"episodes": 10, "seed": 1, **kw})


def test_bernoulli_reproduces_spatial_block_statistics():
    # mean-field decoupling: Bernoulli tier at p = rho matches the spatial tier
    shape = BlockShape(5, 2)
    rho = slot_success_prob(PARAMS, PARAMS.lam)
    spatial = simulate_spatial(
        PARAMS, AccessPolicy(1.0, 0.0, 0.0), shape, 6_000, seed=23, disk_radius=1500.0
    )
    bern = simulate_bernoulli((rho,), shape, 6_000, seed=24)
    for key_s, key_b in [("run_freq", "run_freq_b1"), ("block_success", "block_success_b1")]:
        diff = spatial[key_s].value - bern[key_b].value
        se = math.hypot(spatial[key_s].stderr, bern[key_b].stderr)
        assert abs(diff) <= 3 * se


@pytest.mark.parametrize("seed", [101, 202, 303, 404, 505])
def test_randomized_configurations_three_sigma(seed):
    # seeded random parameter points for the analytic-vs-empirical gauntlet
    rng = np.random.default_rng(seed)
    T = int(rng.integers(2, 7))
    v = int(rng.integers(1, T + 1))
    shape = BlockShape(T, v)
    p_seq = tuple(rng.uniform(0.15, 0.95, size=int(rng.integers(1, 4))))
    h = hist_of(p_seq, T)
    rep = simulate_bernoulli(p_seq, shape, 120_000, seed=seed)
    assert_within(rep["peak_latency"], expected_peak_latency(h))
    assert_within(rep["paoi"], expected_paoi(h))
    assert_within(rep[f"run_freq_b{len(p_seq)}"], chi(shape, p_seq[-1]))

    c = float(rng.uniform(0.15, 0.8))
    k = int(rng.integers(2, 12))
    hc = BlockHistory(T, (0.5,) * k, (c,) * k, (c,) * k)
    rep = simulate_renewal_pcl((c,) * k, (c,) * k, 100_000, seed=seed + 1)
    assert_within(rep["pcl_mean"], expected_pcl(hc))


def test_episode_rng_streams_are_distinct_and_stable():
    a = episode_rng(5, 0).random(4)
    b = episode_rng(5, 1).random(4)
    c = episode_rng(5, 0).random(4)
    assert not np.allclose(a, b)
    assert np.array_equal(a, c)
