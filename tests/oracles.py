"""Independent oracles shared across test modules.

These deliberately avoid the library's own code paths: run detection walks
bit patterns or compares cumulative counts over windows, where the library
reads packed bytes through tables; the latency/age expectations enumerate
every outcome of the block process and weight it by its Bernoulli
probability; and the spatial samplers build every interferer's power as
its own array entry.
The array forms of the peak latency and peak age sum the gap weights of a
whole ``BlockHistory`` at once, where the library's ``HistoryState`` keeps
running sums.  The scalar reference pipeline at the end evaluates one
candidate policy at a time from the library's scalar building blocks and
those array forms; the optimizer's vectorized grid scan and its running-sum
``HistoryState`` are tested against it.  ``evaluate_grid_reference``
computes the grid scan step by step: it builds the slot array and its
complement again where it needs them, raises q^T twice, and evaluates
``chi_reference`` and ``ex_term_reference``, the kernels' full sums; the
optimizer's one-pass scan and its unchecked cores must reproduce it bit for
bit.  ``optimize_block_reference`` scores the whole grid in one
``evaluate_grid_reference`` call, the form the optimizer's sliced scan must
reproduce bit for bit.
"""

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from blockaloha import (
    BlockHistory,
    HistoryState,
    MetricsRecord,
    chi,
    default_disk_radius,
    effective_densities,
    episode_rng,
    pcl_pmf,
    slot_success_prob,
)
from blockaloha.latency import _EX_SERIES_MAX_TP, VIRTUAL_BLOCK_MODES, _ex_term, _pcl_weights
from blockaloha.runlength import _CHI_MAX_BOUND, _CHI_MAX_MAGNITUDE, run_probability
from blockaloha.spatial import _thinning, interference_tail


def max_run(bits) -> int:
    best = run = 0
    for b in bits:
        run = run + 1 if b else 0
        best = max(best, run)
    return best


def has_run(bits: np.ndarray, v: int) -> np.ndarray:
    """True where the trailing axis contains >= v consecutive ones: a window
    of v slots whose cumulative success counts differ by v."""
    if v == 1:
        return bits.any(axis=-1)
    c = np.cumsum(bits, axis=-1, dtype=np.int32)
    pad = np.zeros(bits.shape[:-1] + (1,), dtype=np.int32)
    c = np.concatenate([pad, c], axis=-1)
    window = c[..., v:] - c[..., :-v]
    return (window == v).any(axis=-1)


def block_stats_reference(bits: np.ndarray, v: int):
    """(ones, first one, last one, run of >= v ones) along the trailing axis
    by sum, argmax and ``has_run``; first and last are -1 where it has no one."""
    T = bits.shape[-1]
    hit = bits.any(axis=-1)
    first = np.where(hit, np.argmax(bits, axis=-1), -1)
    last = np.where(hit, T - 1 - np.argmax(bits[..., ::-1], axis=-1), -1)
    return bits.sum(axis=-1), first, last, has_run(bits, v)


def chi_by_enumeration(T: int, v: int, x: float) -> float:
    total = 0.0
    for state in range(2**T):
        bits = [(state >> j) & 1 for j in range(T)]
        if max_run(bits) >= v:
            ones = sum(bits)
            total += x**ones * (1.0 - x) ** (T - ones)
    return total


def enumerate_latency(p_hist, T: int, mode: str):
    """Exact (E[peak latency], E[peak age] | final block succeeds).

    Enumerates every slot outcome of blocks 0..k.  mode 'extend' draws the
    virtual block 0 with p_1 and scores episodes with no prior success via
    the kappa = 0, W = 0 convention; 'boundary' pins a success on the last
    slot of block 0.
    """
    k = len(p_hist)
    if mode == "extend":
        probs = [p_hist[0]] + list(p_hist)
        random_blocks = list(range(0, k + 1))
    elif mode == "boundary":
        probs = [None] + list(p_hist)
        random_blocks = list(range(1, k + 1))
    else:
        raise ValueError(mode)
    e_latency = e_age = p_cond = 0.0
    for outcome in itertools.product(range(2**T), repeat=len(random_blocks)):
        weight = 1.0
        pattern = {}
        for idx, i in enumerate(random_blocks):
            bits = [(outcome[idx] >> j) & 1 for j in range(T)]
            ones = sum(bits)
            weight *= probs[i] ** ones * (1.0 - probs[i]) ** (T - ones)
            pattern[i] = bits
        if mode == "boundary":
            pattern[0] = [0] * (T - 1) + [1]
        final = pattern[k]
        if not any(final):
            continue
        x = final.index(1)
        kappa = 0
        for i in range(k - 1, -1, -1):
            if any(pattern[i]):
                kappa = k - i
                break
        if kappa == 0:
            w = 0
        else:
            prev = pattern[k - kappa]
            w = T - 1 - max(j for j, b in enumerate(prev) if b)
        e_latency += weight * (T * (kappa - 1) + w + x + 1)
        e_age += weight * (kappa * T + x + 1)
        p_cond += weight
    return e_latency / p_cond, e_age / p_cond


# -- array forms of the peak latency and peak age --------------------------


def _padded_q_powers(hist, virtual_block):
    """(p, q, q^T) arrays indexed 0..k with the virtual block 0 prepended.

    The current block k must have p_k > 0: the peak formulas condition on
    its success.
    """
    if virtual_block not in VIRTUAL_BLOCK_MODES:
        raise ValueError(f"virtual_block must be one of {VIRTUAL_BLOCK_MODES}")
    if len(hist) == 0:
        raise ValueError("history must cover at least one block")
    if hist.p[-1] <= 0.0:
        raise ValueError("current block must have p_k > 0")
    p0 = hist.p[0] if virtual_block == "extend" else 1.0
    p = np.concatenate(([p0], hist.p))
    q = 1.0 - p
    return p, q, q**hist.T


def _suffix_products(qT, k):
    """suffix[m] = prod_{i=m}^{k-1} q_i^T for m = 0..k (factors <= 1, so
    underflow of long products rounds to an exact 0 contribution)."""
    suffix = np.ones(k + 1)
    suffix[:k] = np.multiply.accumulate(qT[k - 1 :: -1])[::-1]
    return suffix


def _gap_weights(qT, k):
    """weights[m] = (1 - q_m^T) prod_{i=m+1}^{k-1} q_i^T for m = 0..k-1.

    weights[k - kappa] is the probability that the most recent successful
    block before k is block k-kappa (sub-stochastic in 'extend' mode, where
    the all-failed event keeps the leftover mass).
    """
    suffix = _suffix_products(qT, k)
    return (1.0 - qT[:k]) * suffix[1 : k + 1]


def array_peak_latency(hist, virtual_block="extend") -> float:
    """Expected peak latency of the first input of block k = len(hist), given Z(k)=1.

    Sum over the gap kappa to the previous successful block of the trailing
    failure run of that block, the T(kappa-1) failed blocks in between, and
    the leading failure run of block k, plus the success slot itself.
    """
    T = hist.T
    k = len(hist)
    p, q, qT = _padded_q_powers(hist, virtual_block)
    x_term = float(_ex_term(p[k], T))
    w = _gap_weights(qT, k)
    kappa = np.arange(k, 0, -1)  # kappa for m = k - kappa = 0..k-1
    # q_m / p_m only matters where the gap weight is nonzero (p_m > 0 there)
    trailing = np.where(w > 0.0, q[:k] / np.where(p[:k] > 0.0, p[:k], 1.0), 0.0)
    s1 = float(np.sum(w * (trailing + T * kappa)))
    # only blocks that can succeed (q_m^T < 1) have a trailing failure run
    s2 = float(np.sum(_suffix_products(qT, k)[:k][qT[:k] < 1.0]))
    return s1 - T * s2 - T + x_term + 1.0


def array_paoi(hist, virtual_block="extend") -> float:
    """Expected peak age of information of the first input of block k, given Z(k)=1.

    kappa full blocks of staleness plus the leading failure run of block k
    plus the success slot.
    """
    T = hist.T
    k = len(hist)
    p, _, qT = _padded_q_powers(hist, virtual_block)
    x_term = float(_ex_term(p[k], T))
    w = _gap_weights(qT, k)
    kappa = np.arange(k, 0, -1)
    return T * float(np.sum(kappa * w)) + x_term + 1.0


def sample_sinr_success(params, lambda_eff, rng, disk_radius=None) -> bool:
    """Draw one PPP + fading realization and test SINR > gamma at the origin.

    Interferers are placed on a disk of ``disk_radius`` (default per
    ``default_disk_radius``); every link carries unit-mean exponential power
    fading (Rayleigh amplitude).  The typical transmitter sits at distance
    r0 from its actuator at the origin.
    """
    if disk_radius is None:
        disk_radius = default_disk_radius(lambda_eff)
    n = rng.poisson(lambda_eff * np.pi * disk_radius**2)
    signal = params.xi * rng.exponential() * params.r0 ** (-params.alpha)
    interference = 0.0
    if n > 0:
        radii = disk_radius * np.sqrt(rng.random(n))
        fading = rng.exponential(size=n)
        interference = float(np.sum(params.xi * fading * radii ** (-params.alpha)))
    return signal > params.gamma * (params.N0 + interference)


def spatial_slots_reference(rng, n, T, mean_pts, disk_radius, params, geometry, outside):
    """One spatial batch with a per-interferer owner index and ``np.bincount``.

    Same draws, same order and the same (n, T) slot successes as
    ``blockaloha.montecarlo._slot_probs`` with drawn fading; it also returns
    the interference, in watts.  Every intermediate holds one entry per
    interferer.  A slot succeeds when its signal power beats
    gamma (N0 + interference) plus the outside-disk exponent ``outside``
    (lambda_eff A_out(R)) in watts of signal.
    """
    signal_scale = params.xi * params.r0 ** (-params.alpha)
    outside_power = outside * signal_scale
    if geometry == "per-episode":
        counts = rng.poisson(mean_pts, size=n)
        owner = np.repeat(np.arange(n), counts)
        radii = disk_radius * np.sqrt(rng.random(int(counts.sum())))
        attenuation = params.xi * radii ** (-params.alpha)
        slot_success = np.empty((n, T), dtype=bool)
        interference = np.empty((n, T))
        for t in range(T):
            fading = rng.exponential(size=attenuation.size)
            interference[:, t] = np.bincount(owner, weights=attenuation * fading, minlength=n)
            signal = signal_scale * rng.exponential(size=n)
            slot_success[:, t] = (signal > params.gamma * (params.N0 + interference[:, t])
                                  + outside_power)
    elif geometry == "per-slot":
        counts = rng.poisson(mean_pts, size=n * T)
        owner = np.repeat(np.arange(n * T), counts)
        radii = disk_radius * np.sqrt(rng.random(int(counts.sum())))
        power = params.xi * radii ** (-params.alpha) * rng.exponential(size=radii.size)
        interference = np.bincount(owner, weights=power, minlength=n * T)
        signal = signal_scale * rng.exponential(size=n * T)
        threshold = params.gamma * (params.N0 + interference) + outside_power
        slot_success = (signal > threshold).reshape(n, T)
        interference = interference.reshape(n, T)
    else:
        raise ValueError(geometry)
    return slot_success, interference


def spatial_probs_reference(rng, n, T, mean_pts, disk_radius, params):
    """Disk part of each slot's success probability given its interferers,
    prod_j 1 / (1 + g (r0/r_j)^a), shape (n, T), of one ``per-slot`` batch.

    Same draws and order as ``blockaloha.montecarlo._slot_probs`` with
    integrated fading: counts, then one uniform per interferer, no fading.
    Every intermediate holds one entry per interferer; each slot sums its
    log factors with ``np.bincount``.
    """
    counts = rng.poisson(mean_pts, size=n * T)
    owner = np.repeat(np.arange(n * T), counts)
    radii = disk_radius * np.sqrt(rng.random(int(counts.sum())))
    log_keep = -np.log1p(params.gamma * (params.r0 / radii) ** params.alpha)
    return np.exp(np.bincount(owner, weights=log_keep, minlength=n * T)).reshape(n, T)


def spatial_reference(params, lambda_eff, T, v, episodes, seed, disk_radius, geometry,
                      batch_size):
    """Serial reference run of the spatial tier over its fixed batch plan.

    Returns the success, run and block-success counts, the episode count,
    each episode's fraction of successful slots, and the per-batch (seed
    stream, size, slot successes, interference) tuples.
    """
    mean_pts = lambda_eff * np.pi * disk_radius**2
    outside = lambda_eff * interference_tail(params, disk_radius)
    counts = {"slot_cnt": 0, "run_cnt": 0, "z_cnt": 0, "n": 0, "episode_rates": []}
    batches = []
    for i, lo in enumerate(range(0, episodes, batch_size)):
        n = min(batch_size, episodes - lo)
        ok, interference = spatial_slots_reference(
            episode_rng(seed, i), n, T, mean_pts, disk_radius, params, geometry, outside
        )
        runs = [max_run(row) >= v for row in ok.tolist()]
        counts["slot_cnt"] += int(ok.sum())
        counts["run_cnt"] += sum(runs)
        counts["z_cnt"] += int(ok.any(axis=1).sum())
        counts["n"] += n
        counts["episode_rates"].extend(ok.mean(axis=1))
        batches.append((i, n, ok, interference))
    return counts, batches


# -- scalar reference pipeline ---------------------------------------------


def first_time_controllability(shape, policy, rho_k):
    """P(block k is the first controllable one | not yet controllable).

    Block-access controllers see per-slot success rho, slot-access ones
    delta_S * rho:  pi = dB chi(rho) + (1 - dB) chi(dS rho).
    """
    return policy.delta_B * chi(shape, rho_k) + (1.0 - policy.delta_B) * chi(
        shape, policy.delta_S * np.asarray(rho_k, dtype=float)
    )


def expected_pcl(hist) -> float:
    """Expected number of blocks back to the previous controllable block."""
    pmf = pcl_pmf(hist)
    return float(np.sum(np.arange(1, pmf.size + 1) * pmf))


class DegeneratePolicyError(ValueError):
    """Raised when no access regime can produce a successful transmission."""


@dataclass(frozen=True)
class CurrentBlockLatency:
    """Regime-averaged current-block latency term and its success normalizer."""

    expected_slots: float
    block_success_prob: float  # P(Z(k) = 1): sum of regime fraction * (1 - q^T)


def truncated_geometric_mean(p: float, T: int):
    """Mean number of leading failures in a T-slot block given >= 1 success.

    Evaluates q/p - T q^T / (1 - q^T) with q = 1 - p.  The same expression is
    the mean number of trailing failure slots after the last success, by
    symmetry of the within-block failure runs.  Clamped to the analytic
    range [0, T-1] (the two fractions cancel exactly at T=1, where float
    round-off can leave a ~1e-13 residue).
    """
    if T < 1:
        raise ValueError(f"T must be >= 1, got {T}")
    arr = np.asarray(p, dtype=float)
    if np.any(arr <= 0.0) or np.any(arr > 1.0):
        raise ValueError(f"p must lie in (0, 1], got {p!r}")
    q = 1.0 - arr
    qT = q**T
    out = np.clip(q / arr - T * qT / (1.0 - qT), 0.0, float(T - 1))
    return float(out) if np.ndim(p) == 0 else out


def instantaneous_controllability(P_O_prev, pi_k, shape, delta_C, rho_k):
    """P(block k itself is controllable), mixing the pre and post populations."""
    return (1.0 - P_O_prev) * pi_k + P_O_prev * chi(
        shape, delta_C * np.asarray(rho_k, dtype=float)
    )


def _regime_table(policy, rho_k, P_O_prev):
    """Per-regime (fraction, slot success) pairs for (block, pre-slot, post-slot)."""
    pre = 1.0 - P_O_prev
    fractions = np.array(
        [
            pre * policy.delta_B,
            pre * (1.0 - policy.delta_B) * policy.delta_S,
            P_O_prev * policy.delta_C,
        ]
    )
    slot_p = np.array([rho_k, policy.delta_S * rho_k, policy.delta_C * rho_k])
    return fractions, slot_p


def current_block_latency(shape, policy, rho_k, P_O_prev) -> CurrentBlockLatency:
    """Expected leading-failure run of the current block under regime uncertainty.

    Mixes the per-regime truncated-geometric means with posterior regime
    weights proportional to fraction * (1 - q^T); also reports the
    normalizer, the block success probability P(Z(k)=1).
    """
    if not 0.0 <= rho_k <= 1.0:
        raise ValueError(f"rho_k must lie in [0, 1], got {rho_k}")
    if not 0.0 <= P_O_prev <= 1.0:
        raise ValueError(f"P_O_prev must lie in [0, 1], got {P_O_prev}")
    fractions, slot_p = _regime_table(policy, rho_k, P_O_prev)
    success = np.where(slot_p > 0.0, 1.0 - (1.0 - slot_p) ** shape.T, 0.0)
    mass = fractions * success
    total = float(mass.sum())
    if total <= 0.0:
        raise DegeneratePolicyError("no regime can transmit successfully under this policy")
    value = 0.0
    for m, p in zip(mass, slot_p):
        if m > 0.0:
            value += m * truncated_geometric_mean(float(p), shape.T)
    return CurrentBlockLatency(expected_slots=value / total, block_success_prob=total)


def cdf_terms(shape, policy, rho_k, P_O_prev, hist, eta_curr, eta_pcl):
    """Joint CDF terms of the cost at thresholds (eta_curr slots, eta_pcl blocks).

    ``hist`` covers blocks 1..k-1 before the one being evaluated (None for
    k=1).  The current-block term uses the deterministic-indicator form
    1{theta_curr <= eta} * P(Z(k)=1); the control-latency term is the exact
    gap CDF times the instantaneous controllability probability.
    """
    if eta_curr < 0.0 or eta_pcl < 0.0:
        raise ValueError("thresholds must be >= 0")
    pi_k = first_time_controllability(shape, policy, rho_k)
    p_tilde_k = instantaneous_controllability(P_O_prev, pi_k, shape, policy.delta_C, rho_k)
    try:
        curr = current_block_latency(shape, policy, rho_k, P_O_prev)
        p_curr = float(curr.expected_slots <= eta_curr) * curr.block_success_prob
    except DegeneratePolicyError:
        p_curr = 0.0
    if hist is None:
        past_pt, past_cc = (), ()
    else:
        past_pt, past_cc = hist.P_O_tilde, hist.chi_C
    weights = _pcl_weights(past_pt, past_cc)
    total = weights.sum()
    if total <= 0.0:
        cdf = 0.0
    else:
        n_in = min(len(weights), int(math.floor(eta_pcl)))
        cdf = float(weights[:n_in].sum() / total)
    return p_curr, cdf * p_tilde_k


def pcl_context(hist, eta_pcl):
    """(conditional cdf at eta, mean) of the gap distribution at the next block."""
    weights = _pcl_weights(hist.P_O_tilde, hist.chi_C)
    total = weights.sum()
    if total <= 0.0:
        return 0.0, math.nan
    pmf = weights / total
    n_in = min(pmf.size, int(math.floor(eta_pcl)))
    cdf = float(pmf[:n_in].sum())
    mean = float(np.sum(np.arange(1, pmf.size + 1) * pmf))
    return cdf, mean


def history_state(hist, virtual_block, eta_pcl):
    """``HistoryState`` after every block of ``hist``, folded one block at a time."""
    return HistoryState.fold(hist.T, virtual_block, eta_pcl, hist.p, hist.P_O_tilde, hist.chi_C)


def evaluate_candidate(k, policy, P_O_prev, hist, params, shape, config) -> MetricsRecord:
    """Scalar reference evaluation of one candidate policy at block k.

    Composes the scalar operations step by step on a ``BlockHistory`` and
    reads the peak latency and age from the array forms above.  A degenerate candidate (no regime can transmit)
    yields zero CDF terms instead of an error so a grid scan never aborts.
    ``hist`` covers blocks 1..k-1 (None for k=1).
    """
    hist = hist if hist is not None else BlockHistory(shape.T, (), (), ())
    if len(hist) != k - 1:
        raise ValueError(f"history covers {len(hist)} blocks, expected {k - 1}")
    dens = effective_densities(params, policy, P_O_prev)
    rho = slot_success_prob(params, dens.lambda_eff)
    pi = first_time_controllability(shape, policy, rho)
    P_O = P_O_prev + (1.0 - P_O_prev) * pi
    P_tilde = instantaneous_controllability(P_O_prev, pi, shape, policy.delta_C, rho)
    chi_C_k = chi(shape, policy.delta_C * rho)
    try:
        curr = current_block_latency(shape, policy, rho, P_O_prev)
        theta_curr, pz = curr.expected_slots, curr.block_success_prob
    except DegeneratePolicyError:
        theta_curr, pz = math.nan, 0.0
    cdf_curr, cdf_pcl = cdf_terms(
        shape, policy, rho, P_O_prev, hist, config.eta_curr, config.eta_pcl
    )
    _, pcl_mean = pcl_context(hist, config.eta_pcl)
    cost = P_O + config.rho1 * cdf_curr + config.rho2 * cdf_pcl

    if pz > 0.0:
        fractions, slot_p = _regime_table(policy, rho, P_O_prev)
        mass = fractions * (1.0 - (1.0 - slot_p) ** shape.T)
        p_scalar = float((mass * slot_p).sum() / pz)
    else:
        p_scalar = 0.0
    if config.history_scalar == "predominant":
        d_eff = policy.delta_B + (1.0 - policy.delta_B) * policy.delta_S
        p_scalar = d_eff * rho

    record = MetricsRecord(
        k=k,
        delta_B=policy.delta_B,
        delta_S=policy.delta_S,
        delta_C=policy.delta_C,
        rho=float(rho),
        pi=float(pi),
        P_O=float(P_O),
        P_O_tilde=float(P_tilde),
        chi_C=float(chi_C_k),
        p_scalar=p_scalar,
        theta_curr=theta_curr,
        block_success_prob=pz,
        pcl_mean=pcl_mean,
        cdf_curr=float(cdf_curr),
        cdf_pcl=float(cdf_pcl),
        cost=float(cost),
        theta_pl=math.nan,
        theta_pa=math.nan,
    )
    if p_scalar <= 0.0:
        return record
    full = hist.extended(p_scalar, record.P_O_tilde, record.chi_C)
    return replace(
        record,
        theta_pl=array_peak_latency(full, config.virtual_block),
        theta_pa=array_paoi(full, config.virtual_block),
    )


def optimize_block_reference(k, P_O_prev, state, params, shape, config):
    """``optimize_block`` with the whole grid in one ``evaluate_grid_reference`` call.

    Scores every candidate at once, applies the documented tie-break (cost
    within 1e-12 of the maximum, then the smallest delta_B, the largest
    delta_S and the smallest delta_C) and builds the record at the winner.
    ``state`` covers blocks 1..k-1.
    """
    vals = config.grid_values
    B, S, C = np.meshgrid(vals, vals, vals, indexing="ij")
    dB, dS, dC = B.ravel(), S.ravel(), C.ravel()
    cdf_pcl_cond, pcl_mean = state.pcl_context()
    fields = evaluate_grid_reference(P_O_prev, cdf_pcl_cond, params, shape, config, dB, dS, dC)
    cost = fields["cost"]
    ties = np.flatnonzero(cost >= cost.max() - 1e-12)
    best = int(ties[np.lexsort((dC[ties], -dS[ties], dB[ties]))[0]])
    p_scalar = float(fields["p_scalar"][best])
    theta = state.peak_metrics(p_scalar) if p_scalar > 0.0 else (math.nan, math.nan)
    return MetricsRecord(
        k, float(dB[best]), float(dS[best]), float(dC[best]),
        pcl_mean=pcl_mean, theta_pl=theta[0], theta_pa=theta[1],
        **{name: float(arr[best]) for name, arr in fields.items()},
    )


def chi_reference(shape, x):
    """``chi`` by its full alternating sum: every term with its coefficient and
    q powers multiplied in, and the magnitude sum taken at every point."""
    arr = np.asarray(x, dtype=float)
    T, v = shape.T, shape.v
    total = np.zeros_like(arr)
    magnitude = np.zeros_like(arr)
    one_minus = 1.0 - arr
    runs = range(1, (T + 1) // (v + 1) + 1)
    coeffs = [math.comb(T - l * v, l - 1) for l in runs]
    if sum(c * max(l, T - l * v + 1) for l, c in zip(runs, coeffs)) > _CHI_MAX_BOUND:
        magnitude[...] = math.inf
    else:
        for l, coeff in zip(runs, coeffs):
            boundary = arr + ((T - l * v + 1) / l) * one_minus
            term = float(coeff) * boundary * arr ** (l * v) * one_minus ** (l - 1)
            if l % 2 == 1:
                total += term
            else:
                total -= term
            magnitude += term
    if magnitude.max(initial=0.0) > _CHI_MAX_MAGNITUDE:
        lossy = magnitude > _CHI_MAX_MAGNITUDE
        total[lossy] = run_probability(np.broadcast_to(arr[lossy][:, None], (lossy.sum(), T)), v)
    out = np.clip(total, 0.0, 1.0)
    return float(out) if np.isscalar(x) or np.ndim(x) == 0 else out


def ex_term_reference(p, T):
    """``_ex_term`` with its own q and q^T, taken at p = 1 wherever the series
    or the zero applies."""
    if T == 1:
        return np.zeros_like(np.asarray(p, dtype=float))
    p = np.asarray(p, dtype=float)
    closed = p >= _EX_SERIES_MAX_TP / T
    safe = np.where(closed, p, 1.0)
    q = 1.0 - safe
    qT = q**T
    out = np.asarray(q / safe - T * qT / (1.0 - qT))
    if not closed.all():
        series = ~closed & (p > 0.0)
        x, t2 = p[series], float(T * T)
        poly = 1.0 + x / 2.0 - (t2 - 19.0) * x**2 / 60.0 - (t2 - 9.0) * x**3 / 40.0
        out[series] = (T - 1) / 2.0 - (t2 - 1.0) * x / 12.0 * poly
    return out


def evaluate_grid_reference(P_O_prev, cdf_pcl_cond, params, shape, config, dB, dS, dC):
    """The optimizer's ``_evaluate_grid`` computed step by step: the
    recursion on ``slot_success_prob``'s rho at ``_thinning``'s lambda_eff,
    then the slot array, its complement and q^T again for the current-block
    latency, through the reference kernels, weighted by ``_thinning``'s
    shares."""
    T = shape.T
    pre = 1.0 - P_O_prev
    share, lam_eff = _thinning(params, P_O_prev, dB, dS, dC)
    rho = slot_success_prob(params, lam_eff)
    chi_rho, chi_S, chi_C = chi_reference(shape, np.stack([rho, dS * rho, dC * rho]))
    pi = dB * chi_rho + (1.0 - dB) * chi_S
    fields = {
        "rho": rho,
        "pi": pi,
        "P_O": P_O_prev + pre * pi,
        "P_O_tilde": pre * pi + P_O_prev * chi_C,
        "chi_C": chi_C,
    }

    slot_p = np.stack([rho, dS * rho, dC * rho])
    m = share * (1.0 - (1.0 - slot_p) ** T)  # regime share * block success
    pz = m.sum(axis=0)
    valid = pz > 0.0
    ex = ex_term_reference(slot_p, T)
    theta_curr = np.where(valid, (m * ex).sum(axis=0) / np.where(valid, pz, 1.0), np.nan)

    if config.cdf_mode == "indicator":
        cdf_curr = np.where(valid & (theta_curr <= config.eta_curr), pz, 0.0)
    else:
        cdf_curr = np.zeros_like(pz)
        if valid.any():
            vals = theta_curr[valid]
            order = np.sort(vals)
            n_valid = vals.size
            worse = n_valid - np.searchsorted(order, vals, side="right")
            cdf_curr[valid] = worse / n_valid * pz[valid]

    cdf_pcl = cdf_pcl_cond * fields["P_O_tilde"]
    cost = fields["P_O"] + config.rho1 * cdf_curr + config.rho2 * cdf_pcl
    if config.history_scalar == "predominant":
        p_scalar = (dB + (1.0 - dB) * dS) * rho
    else:
        p_scalar = np.where(valid, (m * slot_p).sum(axis=0) / np.where(valid, pz, 1.0), 0.0)
    return {
        **fields,
        "p_scalar": p_scalar,
        "theta_curr": theta_curr,
        "block_success_prob": pz,
        "cdf_curr": cdf_curr,
        "cdf_pcl": cdf_pcl,
        "cost": cost,
    }
