import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from blockaloha import (
    AccessPolicy,
    BlockHistory,
    BlockShape,
    HistoryState,
    MetricsRecord,
    NetworkParams,
    OptimizerConfig,
    block_recursion,
    optimize_block,
    run_horizon,
)
from oracles import (
    current_block_latency,
    evaluate_candidate,
    first_time_controllability,
    history_state,
    optimize_block_reference,
)

PARAMS = NetworkParams(lam=1e-4, alpha=3.0, gamma=0.1, xi=10.0, N0=1e-17, r0=25.0)
SHAPE = BlockShape(5, 2)
# the horizon-congested network: its winners at low P_O_prev lie outside the
# sliced scan's first slice
CONGESTED = (NetworkParams(2e-3, 3.5, 0.2, 1.0, 1e-15, 30.0), BlockShape(10, 5))


def config(**over):
    kw = dict(K=4, grid_step=0.25)
    kw.update(over)
    return OptimizerConfig(**kw)


def state_of(hist, cfg):
    return history_state(hist, cfg.virtual_block, cfg.eta_pcl)


def start_of(cfg):
    return HistoryState.start(SHAPE.T, cfg.virtual_block, cfg.eta_pcl)


def test_config_validation():
    with pytest.raises(ValueError):
        OptimizerConfig(grid_step=0.3)
    with pytest.raises(ValueError):
        OptimizerConfig(grid_step=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(rho1=0.0)
    with pytest.raises(ValueError):
        OptimizerConfig(rho2=1.0)
    with pytest.raises(ValueError):
        OptimizerConfig(K=0)
    for K in (2.5, 2.0):  # K=2.5 once constructed, and run_horizon raised TypeError
        with pytest.raises(ValueError, match="must be an integer"):
            OptimizerConfig(K=K)
    assert len(run_horizon(PARAMS, SHAPE, config(K=np.int64(2), grid_step=1.0))) == 2
    with pytest.raises(ValueError):
        OptimizerConfig(cdf_mode="nope")
    for bad in (dict(eta_curr=math.nan), dict(eta_pcl=math.nan), dict(eta_pcl=math.inf)):
        with pytest.raises(ValueError):
            OptimizerConfig(**bad)
    assert OptimizerConfig(eta_curr=math.inf).eta_curr == math.inf  # no latency threshold


def test_full_block_access_composition_identity():
    from blockaloha import chi, effective_densities, slot_success_prob

    cfg = config()
    policy = AccessPolicy(1.0, 0.0, 0.0)
    rec = evaluate_candidate(1, policy, 0.0, None, PARAMS, SHAPE, cfg)
    dens = effective_densities(PARAMS, policy, 0.0)
    rho = slot_success_prob(PARAMS, dens.lambda_eff)
    assert rec.rho == rho
    assert rec.pi == first_time_controllability(SHAPE, policy, rho)
    assert rec.pi == pytest.approx(chi(SHAPE, rho), abs=1e-15)
    assert rec.P_O == rec.pi  # k = 1 base case
    curr = current_block_latency(SHAPE, policy, rho, 0.0)
    assert rec.theta_curr == pytest.approx(curr.expected_slots)
    assert rec.block_success_prob == pytest.approx(curr.block_success_prob)
    # cost recomposed from the record's own components
    assert rec.cost == pytest.approx(
        rec.P_O + cfg.rho1 * rec.cdf_curr + cfg.rho2 * rec.cdf_pcl, abs=1e-15
    )


def test_degenerate_candidate_no_error():
    cfg = config()
    rec = evaluate_candidate(1, AccessPolicy(0.0, 0.0, 0.7), 0.0, None, PARAMS, SHAPE, cfg)
    assert rec.P_O == 0.0
    assert rec.cdf_curr == 0.0
    assert rec.cdf_pcl == 0.0
    assert math.isnan(rec.theta_curr)
    assert rec.cost == 0.0


def test_cost_recomposition_random_candidates():
    cfg = config()
    rng = np.random.default_rng(2)
    hist = None
    P_prev = 0.37
    hist = BlockHistory(SHAPE.T, (0.8, 0.7), (0.3, 0.4), (0.2, 0.25))
    for _ in range(50):
        pol = AccessPolicy(*np.round(rng.random(3), 3))
        rec = evaluate_candidate(3, pol, P_prev, hist, PARAMS, SHAPE, cfg)
        assert rec.cost == pytest.approx(
            rec.P_O + cfg.rho1 * rec.cdf_curr + cfg.rho2 * rec.cdf_pcl, abs=1e-14
        )
        assert 0.0 <= rec.cost <= 1.0 + cfg.rho1 + cfg.rho2


def test_optimize_block_against_exhaustive_recomputation():
    cfg = config(grid_step=0.5)  # 27 candidates
    hist = BlockHistory(SHAPE.T, (0.8,), (0.6,), (0.5,))
    P_prev = 0.6
    record = optimize_block(2, P_prev, state_of(hist, cfg), PARAMS, SHAPE, cfg)

    # independent exhaustive recomputation with the documented tie-break:
    # max cost, then smallest delta_B, largest delta_S, smallest delta_C
    vals = [0.0, 0.5, 1.0]
    recs = [
        evaluate_candidate(2, AccessPolicy(dB, dS, dC), P_prev, hist, PARAMS, SHAPE, cfg)
        for dB in vals
        for dS in vals
        for dC in vals
    ]
    top = max(r.cost for r in recs)
    ties = [r for r in recs if r.cost >= top - 1e-12]
    chosen = min(ties, key=lambda r: (r.delta_B, -r.delta_S, r.delta_C))
    assert record.policy == chosen.policy
    assert record.cost == pytest.approx(chosen.cost, abs=1e-12)


def test_vectorized_matches_scalar_on_random_candidates():
    cfg = config(grid_step=0.2)
    trace_fields = [
        "rho", "pi", "P_O", "P_O_tilde", "chi_C", "p_scalar", "theta_curr",
        "block_success_prob", "pcl_mean", "cdf_curr", "cdf_pcl", "cost",
    ]
    from blockaloha.optimizer import _evaluate_grid

    rng = np.random.default_rng(9)
    hist = BlockHistory(SHAPE.T, (0.9, 0.85), (0.5, 0.6), (0.4, 0.45))
    P_prev = 0.55
    dB, dS, dC = rng.random(100), rng.random(100), rng.random(100)
    cdf_pcl_cond, pcl_mean = state_of(hist, cfg).pcl_context()
    fields = _evaluate_grid(P_prev, cdf_pcl_cond, PARAMS, SHAPE, cfg, dB, dS, dC)
    assert "pcl_mean" not in fields
    for i in rng.choice(100, size=25, replace=False):
        rec = evaluate_candidate(
            3, AccessPolicy(dB[i], dS[i], dC[i]), P_prev, hist, PARAMS, SHAPE, cfg
        )
        for name in trace_fields:
            got = pcl_mean if name == "pcl_mean" else float(fields[name][i])
            want = getattr(rec, name)
            if math.isnan(want):
                assert math.isnan(got)
            else:
                assert got == pytest.approx(want, rel=1e-12, abs=1e-14), name


def test_chosen_cost_dominates_grid():
    cfg = config(grid_step=0.25)
    hist = BlockHistory(SHAPE.T, (0.8,), (0.6,), (0.5,))
    record = optimize_block(2, 0.5, state_of(hist, cfg), PARAMS, SHAPE, cfg)
    rng = np.random.default_rng(4)
    vals = cfg.grid_values
    for _ in range(100):
        cand = AccessPolicy(*(float(rng.choice(vals)) for _ in range(3)))
        rec = evaluate_candidate(2, cand, 0.5, hist, PARAMS, SHAPE, cfg)
        assert record.cost >= rec.cost - 1e-12


def test_horizon_k1_equals_optimize_block():
    cfg = config(K=1)
    records = run_horizon(PARAMS, SHAPE, cfg)
    record = optimize_block(1, 0.0, start_of(cfg), PARAMS, SHAPE, cfg)
    assert records == [record]


def test_horizon_trace_properties():
    cfg = config(K=25, grid_step=0.1)
    records = run_horizon(PARAMS, SHAPE, cfg)
    p_o = [r.P_O for r in records]
    assert all(b >= a - 1e-15 for a, b in zip(p_o, p_o[1:]))
    assert p_o[-1] > 0.99
    for r in records:
        if r.P_O > 1 - 1e-6 and r.k > 1:
            later = [s for s in records if s.k > r.k]
            assert all(s.delta_B == 0.0 and s.delta_S == 1.0 for s in later)
            break
    assert len(records) == 25


def test_horizon_deterministic():
    cfg = config(K=6, grid_step=0.2)
    a = run_horizon(PARAMS, SHAPE, cfg)
    b = run_horizon(PARAMS, SHAPE, cfg)
    for ra, rb in zip(a, b):
        assert dataclasses.asdict(ra) == dataclasses.asdict(rb)


def test_grid_rank_mode_runs_and_orders():
    cfg = config(K=3, grid_step=0.25, cdf_mode="grid-rank")
    records = run_horizon(PARAMS, SHAPE, cfg)
    assert len(records) == 3
    for r in records:
        assert 0.0 <= r.cdf_curr <= 1.0
    # grid-rank scores beat-fractions: a candidate with the smallest
    # theta_curr among valid ones gets the largest score factor
    from blockaloha.optimizer import _evaluate_grid

    vals = cfg.grid_values
    B, S, C = np.meshgrid(vals, vals, vals, indexing="ij")
    # an empty history's pcl_context()[0] is 1 at eta_pcl = 3
    fields = _evaluate_grid(0.0, 1.0, PARAMS, SHAPE, cfg, B.ravel(), S.ravel(), C.ravel())
    theta = fields["theta_curr"]
    score = np.where(fields["block_success_prob"] > 0,
                     fields["cdf_curr"] / np.where(fields["block_success_prob"] > 0,
                                                   fields["block_success_prob"], 1.0), 0.0)
    valid = ~np.isnan(theta)
    i_best = np.nanargmin(np.where(valid, theta, np.nan))
    assert score[i_best] == score[valid].max()


@pytest.mark.parametrize("params, shape", [(PARAMS, SHAPE), CONGESTED])
def test_block_recursion_on_one_candidate_equals_the_grid_bitwise(params, shape):
    # validate's policy chain evaluates one candidate at a time: it must
    # read the very numbers the grid scan computes
    from blockaloha.optimizer import _evaluate_grid

    cfg = config(grid_step=0.25)
    vals = cfg.grid_values
    B, S, C = np.meshgrid(vals, vals, vals, indexing="ij")
    dB, dS, dC = B.ravel(), S.ravel(), C.ravel()
    for P_prev in (0.0, 0.55, 1.0):
        fields = _evaluate_grid(P_prev, 1.0, params, shape, cfg, dB, dS, dC)
        for i in range(dB.size):
            one = block_recursion(P_prev, params, shape, dB[i : i + 1], dS[i : i + 1],
                                  dC[i : i + 1])
            assert sorted(one) == ["P_O", "P_O_tilde", "chi_C", "pi", "rho"]
            for name, arr in one.items():
                assert arr.shape == (1,)
                assert arr[0] == fields[name][i], (name, i, P_prev)


def test_block_recursion_calls_chi_once_per_block(monkeypatch):
    # rho, delta_S rho and delta_C rho of every candidate in a slice go in
    # one call of the scan's unchecked kernel; a grid of more than one slice
    # may add one call for a winner whose slice the scan has already dropped
    import blockaloha.optimizer as optimizer

    real_core, calls = optimizer._chi_core, []

    def counting_core(shape, x, q):
        calls.append(np.shape(x))
        return real_core(shape, x, q)

    monkeypatch.setattr(optimizer, "_chi_core", counting_core)
    cfg = config(K=5, grid_step=0.25)
    run_horizon(PARAMS, SHAPE, cfg)
    assert calls == [(3, cfg.grid_values.size ** 3)] * cfg.K

    lone = 0
    for params, shape in ((PARAMS, SHAPE), CONGESTED):
        cfg = config(K=5, grid_step=0.05)
        n = cfg.grid_values.size ** 3
        for k in range(1, cfg.K + 1):
            calls.clear()
            hist = [0.9] * (k - 1)
            state = HistoryState.fold(shape.T, cfg.virtual_block, cfg.eta_pcl, hist, hist, hist)
            optimize_block(k, 0.1 * (k - 1), state, params, shape, cfg)
            sliced = [c for c in calls if c != (3, 1)]
            assert all(c[0] == 3 and c[1] <= optimizer._SCAN_SLICE for c in sliced)
            assert sum(c[1] for c in sliced) == n
            assert len(calls) - len(sliced) <= 1
            lone += len(calls) - len(sliced)
    assert lone > 0  # the one-candidate evaluation was exercised


# the scan against the reference scan: the defaults; T=1, where _ex_term is
# 0; a dense network whose slot probabilities reach _ex_term's series
# (T p < 1e-2); the congested network; T=200, v=2, where chi evaluates some
# points by the run-length chain.  Every grid has delta = 0 rows, where a
# slot probability is 0.
SCAN_CASES = {
    "defaults": (PARAMS, SHAPE),
    "T1": (PARAMS, BlockShape(1, 1)),
    "series": (dataclasses.replace(PARAMS, lam=1e-2), SHAPE),
    "congested": CONGESTED,
    "T200": (PARAMS, BlockShape(200, 2)),
}


@pytest.mark.parametrize("history_scalar", ["posterior", "predominant"])
@pytest.mark.parametrize("cdf_mode", ["indicator", "grid-rank"])
@pytest.mark.parametrize("case", list(SCAN_CASES))
def test_scan_equals_the_reference_scan_bitwise(case, cdf_mode, history_scalar, monkeypatch):
    import blockaloha.runlength as runlength
    from blockaloha.optimizer import _evaluate_grid
    from oracles import evaluate_grid_reference

    chain_calls = []
    real_chain = runlength.run_probability
    monkeypatch.setattr(runlength, "run_probability",
                        lambda p, v: chain_calls.append(p.shape) or real_chain(p, v))
    params, shape = SCAN_CASES[case]
    cfg = config(grid_step=0.05, cdf_mode=cdf_mode, history_scalar=history_scalar)
    vals = cfg.grid_values
    B, S, C = np.meshgrid(vals, vals, vals, indexing="ij")
    dB, dS, dC = B.ravel(), S.ravel(), C.ravel()
    for P_prev in (0.0, 0.55, 1.0):
        got = _evaluate_grid(P_prev, 0.7, params, shape, cfg, dB, dS, dC)
        want = evaluate_grid_reference(P_prev, 0.7, params, shape, cfg, dB, dS, dC)
        assert list(got) == list(want)
        for name, arr in want.items():
            assert got[name].dtype == arr.dtype and got[name].shape == arr.shape, name
            assert got[name].tobytes() == arr.tobytes(), (name, P_prev)
        slot = np.concatenate([want["rho"], dS * want["rho"], dC * want["rho"]])
        assert (slot == 0.0).any()
        if case == "series":
            assert ((slot > 0.0) & (slot < 1e-2 / shape.T)).any()
    assert bool(chain_calls) == (case == "T200")


def test_block_recursion_takes_no_interference_where_no_interferer_transmits():
    # 2 pi I overflows at r0 = 1.2e154 while the noise exponent (N0 = 5e-324)
    # stays finite: where lam_eff = 0 the exponent is 0, not inf * 0 = nan
    from blockaloha.optimizer import _evaluate_grid
    from blockaloha.spatial import interference_integral, noise_exponent

    params = NetworkParams(lam=1e-4, alpha=2.05, gamma=0.1, xi=10.0, N0=5e-324, r0=1.2e154)
    assert 2.0 * math.pi * interference_integral(params) == math.inf
    quiet = math.exp(-noise_exponent(params))
    assert 0.0 < quiet < 1.0
    cfg = config(grid_step=0.5)
    vals = cfg.grid_values
    B, S, C = np.meshgrid(vals, vals, vals, indexing="ij")
    dB, dS, dC = B.ravel(), S.ravel(), C.ravel()
    for P_prev in (0.0, 0.5, 1.0):
        silent = (1.0 - P_prev) * (dB + (1.0 - dB) * dS) + P_prev * dC == 0.0
        assert silent.any() and not silent.all()
        fields = block_recursion(P_prev, params, SHAPE, dB, dS, dC)
        assert (fields["rho"][~silent] == 0.0).all()
        assert fields["rho"][silent] == pytest.approx(quiet, rel=1e-15)
        scan = _evaluate_grid(P_prev, 1.0, params, SHAPE, cfg, dB, dS, dC)
        for name in fields:
            assert scan[name].tobytes() == fields[name].tobytes(), name
        for name in ("P_O", "cost", "p_scalar", "block_success_prob"):
            assert not np.isnan(scan[name]).any(), name


@pytest.mark.parametrize("P_prev, deltas", [
    (1.5, (0.5, 0.5, 0.5)), (-0.1, (0.5, 0.5, 0.5)), (math.nan, (0.5, 0.5, 0.5)),
    (0.0, (2.0, 0.0, 0.0)), (0.0, (0.5, -0.5, 0.5)), (0.3, (0.5, 0.5, math.nan)),
])
def test_block_recursion_rejects_values_outside_the_unit_interval(P_prev, deltas):
    # P_O_prev = 0, delta_B = 2 once gave pi = P_O = 1.902, and P_O_prev = 1.5
    # gave P_O = 1.109
    one = [np.array([d]) for d in deltas]
    with pytest.raises(ValueError, match="must lie in"):
        block_recursion(P_prev, PARAMS, SHAPE, *one)


@pytest.mark.parametrize("P_prev", [1.5, -0.1, math.nan])
def test_optimize_block_rejects_p_o_prev_outside_the_unit_interval(P_prev):
    cfg = config(grid_step=0.5)
    with pytest.raises(ValueError, match="P_O_prev must lie in"):
        optimize_block(1, P_prev, start_of(cfg), PARAMS, SHAPE, cfg)


def test_optimize_block_reads_pcl_context_once_per_block(monkeypatch):
    # the history enters the scan as one scalar: at grid step 0.05 the scan
    # walks five slices, and all of them share one pcl_context read
    import blockaloha.optimizer as optimizer

    real_context, calls = HistoryState.pcl_context, []

    def counting_context(state):
        calls.append(len(state))
        return real_context(state)

    monkeypatch.setattr(HistoryState, "pcl_context", counting_context)
    cfg = config(K=3, grid_step=0.05)
    assert cfg.grid_values.size ** 3 > 4 * optimizer._SCAN_SLICE
    run_horizon(PARAMS, SHAPE, cfg)
    assert calls == [0, 1, 2]


@pytest.mark.parametrize(
    "params, shape, cdf_mode, history_scalar, virtual_block, grid_step",
    [
        (*net, *modes)
        for net, *modes in itertools.product(
            [(PARAMS, SHAPE), CONGESTED], ["indicator", "grid-rank"],
            ["posterior", "predominant"], ["extend", "boundary"], [0.1, 0.05, 0.025],
        )
    ],
)
def test_sliced_scan_equals_the_whole_grid_bitwise(
    params, shape, cdf_mode, history_scalar, virtual_block, grid_step
):
    # P_O_prev = 1 makes the cost flat in delta_B and delta_S, so its tie set
    # spans every slice
    cfg = config(grid_step=grid_step, cdf_mode=cdf_mode, history_scalar=history_scalar,
                 virtual_block=virtual_block)
    hist = BlockHistory(shape.T, (0.8, 0.7), (0.6, 0.5), (0.5, 0.4))
    state = state_of(hist, cfg)
    for P_prev in (0.0, 0.37, 1.0):
        got = optimize_block(3, P_prev, state, params, shape, cfg)
        want = optimize_block_reference(3, P_prev, state, params, shape, cfg)
        # repr is exact for floats, tells -0.0 from 0.0 and matches NaN to NaN
        for name, value in dataclasses.asdict(got).items():
            assert repr(value) == repr(getattr(want, name)), (name, P_prev)


def test_sliced_scan_memory_is_bounded_by_the_slice():
    # 68,921 candidates: the whole-grid scan peaks at about 18.5 MiB
    cfg = config(grid_step=0.025)
    state = start_of(cfg)
    optimize_block(1, 0.0, state, PARAMS, SHAPE, cfg)  # first-use caches
    tracemalloc.start()
    try:
        optimize_block(1, 0.0, state, PARAMS, SHAPE, cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20


def test_history_scalar_conventions():
    cfg_post = config(K=3, grid_step=0.5)
    cfg_pred = config(K=3, grid_step=0.5, history_scalar="predominant")
    t1 = run_horizon(PARAMS, SHAPE, cfg_post)
    t2 = run_horizon(PARAMS, SHAPE, cfg_pred)
    for r1, r2 in zip(t1, t2):
        # same chosen policy here; scalar history entries differ by convention
        d_eff = r2.delta_B + (1 - r2.delta_B) * r2.delta_S
        assert r2.p_scalar == pytest.approx(d_eff * r2.rho, abs=1e-15)
        assert r1.p_scalar <= 1.0


def test_evaluate_candidate_history_length_check():
    cfg = config()
    with pytest.raises(ValueError):
        evaluate_candidate(3, AccessPolicy(1, 0, 0), 0.0, None, PARAMS, SHAPE, cfg)


def test_coarsest_grid_step():
    cfg = config(K=2, grid_step=1.0)  # 8 candidates per block
    records = run_horizon(PARAMS, SHAPE, cfg)
    assert len(records) == 2
    for r in records:
        assert r.delta_B in (0.0, 1.0)
        assert r.delta_S in (0.0, 1.0)
        assert r.delta_C in (0.0, 1.0)


def test_current_block_latency_is_exactly_zero_at_T1():
    # a one-slot block has no leading failure slots: the kernel's two terms
    # cancel only to rounding, so it must return exact zeros there
    from blockaloha.latency import _ex_term
    from blockaloha.optimizer import _evaluate_grid

    assert (_ex_term(np.linspace(0.0, 1.0, 101), 1) == 0.0).all()
    shape = BlockShape(1, 1)
    cfg = config(grid_step=0.05)
    vals = cfg.grid_values
    B, S, C = np.meshgrid(vals, vals, vals, indexing="ij")
    for P_prev in (0.0, 0.4):
        theta = _evaluate_grid(P_prev, 1.0, PARAMS, shape, cfg,
                               B.ravel(), S.ravel(), C.ravel())["theta_curr"]
        assert (theta[~np.isnan(theta)] >= 0.0).all()
