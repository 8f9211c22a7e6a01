"""HistoryState (running sums) against the array-form oracles on BlockHistory."""

import math

import numpy as np
import pytest

from blockaloha import (
    AccessPolicy,
    BlockHistory,
    BlockShape,
    HistoryState,
    NetworkParams,
    OptimizerConfig,
    expected_paoi,
    expected_peak_latency,
    optimize_block,
    run_horizon,
)
from oracles import (
    array_paoi,
    array_peak_latency,
    evaluate_candidate,
    history_state,
    pcl_context,
)

REL, ABS = 1e-12, 1e-14
MODES = ("extend", "boundary")


def close(got, want, rel=REL, abs_=ABS):
    if math.isnan(want):
        return math.isnan(got)
    return got == pytest.approx(want, rel=rel, abs=abs_)


def random_series(rng, n):
    """Entries in [0, 1] with about a tenth exact 0 and a tenth exact 1."""
    x = rng.random(n)
    u = rng.random(n)
    x[u < 0.1] = 0.0
    x[u > 0.9] = 1.0
    return x


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("k", [1, 2, 3, 50, 2000])
def test_state_matches_array_formulas(k, mode):
    rng = np.random.default_rng(1000 * k + len(mode))
    T = int(rng.integers(1, 12))
    p = random_series(rng, k)
    p[-1] = max(p[-1], 0.05)  # the current block needs p_k > 0
    pt, cc = random_series(rng, k), random_series(rng, k)
    full = BlockHistory(T, tuple(p), tuple(pt), tuple(cc))
    past = BlockHistory(T, tuple(p[:-1]), tuple(pt[:-1]), tuple(cc[:-1]))
    for eta in (0.0, 0.5, 1.0, 3.0, 7.5, k + 1.5):
        state = history_state(past, mode, eta)
        assert len(state) == k - 1
        assert len(state.pcl_tail) == min(math.floor(eta), k)
        pl, pa = state.peak_metrics(p[-1])
        assert close(pl, array_peak_latency(full, mode))
        assert close(pa, array_paoi(full, mode))
        # the public functions are this fold, not a second form
        assert (expected_peak_latency(full, mode), expected_paoi(full, mode)) == (pl, pa)
        cdf, mean = state.pcl_context()
        want_cdf, want_mean = pcl_context(past, eta)
        assert close(cdf, want_cdf)
        assert close(mean, want_mean)


def test_fold_equals_step_by_step_extension():
    series = ((0.9, 0.2, 0.6), (0.3, 0.5, 0.1), (0.4, 0.8, 0.7))
    state = HistoryState.start(5, "boundary", 2.0)
    for entry in zip(*series):
        state = state.extended(*entry)
    assert HistoryState.fold(5, "boundary", 2.0, *series) == state
    assert HistoryState.fold(5, "extend", 1.0, (), (), ()) == HistoryState.start(5, "extend", 1.0)
    with pytest.raises(ValueError):
        HistoryState.fold(5, "extend", 1.0, (0.5, 0.5), (0.1,), (0.2, 0.3))


@pytest.mark.parametrize("mode", MODES)
def test_state_degenerate_pcl_and_zero_current_p(mode):
    # chi_C = 1 at block 2 cuts every older gap; P_tilde = 0 afterwards
    hist = BlockHistory(4, (0.5, 0.3, 0.7), (0.4, 0.0, 0.0), (0.2, 1.0, 0.6))
    state = history_state(hist, mode, 3.0)
    assert state.pcl_context()[0] == 0.0
    assert math.isnan(state.pcl_context()[1])
    assert pcl_context(hist, 3.0)[0] == 0.0
    with pytest.raises(ValueError):
        state.peak_metrics(0.0)
    with pytest.raises(ValueError):
        expected_peak_latency(hist.extended(0.0, 0.0, 0.0), mode)


def test_peak_metrics_bounds_property():
    # age exceeds latency in both conventions; under 'boundary' the gap
    # weights are a distribution over kappa >= 1, so latency >= 1 and age
    # >= T + 1.  'extend' scores a path with no earlier success kappa = 0,
    # a sample latency of first + 1 - T, so its latency may fall below 1.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    entry = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        T=st.integers(1, 30),
        past=st.lists(entry, max_size=12),
        p=st.one_of(st.just(1.0), st.floats(0.0, 1.0, exclude_min=True)),
    )
    def holds(T, past, p):
        for mode in MODES:
            state = HistoryState.fold(T, mode, 0.0, past, past, past)
            pl, pa = state.peak_metrics(p)
            assert pa >= pl, (mode, pl, pa)
            if mode == "boundary":
                assert pl >= 1.0 - 1e-9 and pa >= T + 1.0 - 1e-9, (pl, pa)
                # the public functions fold the same state
                hist = BlockHistory(T, (*past, p), (*past, p), (*past, p))
                assert expected_peak_latency(hist, mode) == pl
                assert expected_paoi(hist, mode) == pa

    holds()


def _reference_horizon(params, shape, cfg):
    """Best ``evaluate_candidate`` per block, threading a BlockHistory."""
    vals = cfg.grid_values
    hist = BlockHistory(shape.T, (), (), ())
    P_O = 0.0
    chosen = []
    for k in range(1, cfg.K + 1):
        recs = [
            evaluate_candidate(k, AccessPolicy(b, s, c), P_O, hist, params, shape, cfg)
            for b in vals
            for s in vals
            for c in vals
        ]
        if cfg.cdf_mode == "grid-rank":
            # score: share of valid candidates whose theta_curr is larger by
            # more than the 1e-12 tie tolerance
            thetas = [r.theta_curr for r in recs if not math.isnan(r.theta_curr)]
            rescored = []
            for r in recs:
                cdf_curr = 0.0
                if not math.isnan(r.theta_curr):
                    worse = sum(t > r.theta_curr + 1e-12 for t in thetas)
                    cdf_curr = worse / len(thetas) * r.block_success_prob
                cost = r.P_O + cfg.rho1 * cdf_curr + cfg.rho2 * r.cdf_pcl
                rescored.append((cost, cdf_curr, r))
        else:
            rescored = [(r.cost, r.cdf_curr, r) for r in recs]
        top = max(cost for cost, _, _ in rescored)
        ties = [x for x in rescored if x[0] >= top - 1e-12]
        cost, cdf_curr, best = min(
            ties, key=lambda x: (x[2].delta_B, -x[2].delta_S, x[2].delta_C)
        )
        chosen.append((cost, cdf_curr, best))
        hist = hist.extended(best.p_scalar, best.P_O_tilde, best.chi_C)
        P_O = best.P_O
    return chosen


@pytest.mark.parametrize("virtual_block", MODES)
@pytest.mark.parametrize("history_scalar", ["posterior", "predominant"])
@pytest.mark.parametrize("cdf_mode", ["indicator", "grid-rank"])
def test_horizon_matches_reference_loop(cdf_mode, history_scalar, virtual_block):
    params = NetworkParams(lam=1e-3, alpha=3.0, gamma=0.1, xi=10.0, N0=1e-17, r0=25.0)
    shape = BlockShape(5, 3)
    cfg = OptimizerConfig(
        K=60,
        grid_step=0.5,
        cdf_mode=cdf_mode,
        history_scalar=history_scalar,
        virtual_block=virtual_block,
    )
    records = run_horizon(params, shape, cfg)
    reference = _reference_horizon(params, shape, cfg)
    assert len(records) == len(reference)
    for got, (cost, cdf_curr, want) in zip(records, reference):
        assert got.policy == want.policy, got.k
        for name in (
            "rho", "pi", "P_O", "P_O_tilde", "chi_C", "p_scalar", "theta_curr",
            "block_success_prob", "pcl_mean", "cdf_pcl", "theta_pl", "theta_pa",
        ):
            assert close(getattr(got, name), getattr(want, name), 1e-12, 1e-12), name
        assert close(got.cdf_curr, cdf_curr, 1e-12, 1e-12)
        assert close(got.cost, cost, 1e-12, 1e-12)


def test_driver_never_builds_block_history(monkeypatch):
    def forbidden(self):
        raise AssertionError("BlockHistory built by the horizon driver")

    monkeypatch.setattr(BlockHistory, "__post_init__", forbidden)
    longest = []
    extended = HistoryState.extended

    def tracked(self, *entry):
        state = extended(self, *entry)
        longest.append(len(state.pcl_tail))
        return state

    monkeypatch.setattr(HistoryState, "extended", tracked)
    params = NetworkParams(lam=2e-3, alpha=3.0, gamma=0.1, xi=10.0, N0=1e-17, r0=25.0)
    cfg = OptimizerConfig(K=5000, grid_step=1.0, eta_pcl=7.5)
    assert len(run_horizon(params, BlockShape(10, 5), cfg)) == 5000
    assert len(longest) == 5000
    assert max(longest) == 7


@pytest.mark.parametrize("name", ["p", "P_O_tilde", "chi_C"])
@pytest.mark.parametrize("bad", [math.nan, -1e-12, 1.0 + 1e-12, math.inf])
def test_extended_rejects_bad_entries(name, bad):
    entry = {"p": 0.5, "P_O_tilde": 0.5, "chi_C": 0.5, name: bad}
    state = HistoryState.start(5, "boundary", 3.0)
    with pytest.raises(ValueError):
        state.extended(**entry)
    with pytest.raises(ValueError):
        BlockHistory(5, (entry["p"],), (entry["P_O_tilde"],), (entry["chi_C"],))


def test_start_rejects_bad_settings():
    with pytest.raises(ValueError):
        HistoryState.start(0, "extend", 3.0)
    # a 5.5-slot history once gave peak metrics (2.61, 7.25)
    with pytest.raises(ValueError, match="must be an integer"):
        HistoryState.start(5.5, "extend", 3.0)
    assert HistoryState.start(np.int64(5), "extend", 3.0) == HistoryState.start(5, "extend", 3.0)
    with pytest.raises(ValueError):
        HistoryState.start(5, "nope", 3.0)
    for eta in (-1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            HistoryState.start(5, "extend", eta)


def test_optimize_block_checks_state():
    params = NetworkParams(lam=1e-4, alpha=3.0, gamma=0.1, xi=10.0, N0=1e-17, r0=25.0)
    shape = BlockShape(5, 2)
    cfg = OptimizerConfig(K=4, grid_step=0.5)
    state = HistoryState.start(5, cfg.virtual_block, cfg.eta_pcl).extended(0.8, 0.6, 0.5)
    optimize_block(2, 0.6, state, params, shape, cfg)
    for k in (1, 3):  # state must cover exactly k - 1 blocks
        with pytest.raises(ValueError):
            optimize_block(k, 0.6, state, params, shape, cfg)
    for other in (
        HistoryState.start(4, cfg.virtual_block, cfg.eta_pcl),
        HistoryState.start(5, "boundary", cfg.eta_pcl),
        HistoryState.start(5, cfg.virtual_block, 2.0),
    ):
        with pytest.raises(ValueError):
            optimize_block(2, 0.6, other.extended(0.8, 0.6, 0.5), params, shape, cfg)
