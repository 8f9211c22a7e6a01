"""Independent brute-force oracles shared across test modules.

These deliberately avoid the library's own code paths: run detection walks
bit patterns, the latency/age expectations enumerate every outcome of
the block process and weight it by its Bernoulli probability, and the
spatial samplers build every interferer's power as its own array entry.
"""

import itertools

import numpy as np

from blockaloha import default_disk_radius, episode_rng


def max_run(bits) -> int:
    best = run = 0
    for b in bits:
        run = run + 1 if b else 0
        best = max(best, run)
    return best


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


def spatial_slots_reference(rng, n, T, mean_pts, disk_radius, params, geometry):
    """One spatial batch with a per-interferer owner index and ``np.bincount``.

    Same draws, same order and same (n, T) results (slot successes and
    interference) as ``blockaloha.montecarlo._spatial_slots``; every
    intermediate holds one entry per interferer.
    """
    signal_scale = params.xi * params.r0 ** (-params.alpha)
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
            slot_success[:, t] = signal > params.gamma * (params.N0 + interference[:, t])
    elif geometry == "per-slot":
        counts = rng.poisson(mean_pts, size=n * T)
        owner = np.repeat(np.arange(n * T), counts)
        radii = disk_radius * np.sqrt(rng.random(int(counts.sum())))
        power = params.xi * radii ** (-params.alpha) * rng.exponential(size=radii.size)
        interference = np.bincount(owner, weights=power, minlength=n * T)
        signal = signal_scale * rng.exponential(size=n * T)
        slot_success = (signal > params.gamma * (params.N0 + interference)).reshape(n, T)
        interference = interference.reshape(n, T)
    else:
        raise ValueError(geometry)
    return slot_success, interference


def spatial_reference(params, lambda_eff, T, v, episodes, seed, disk_radius, geometry,
                      batch_size):
    """Serial reference run of the spatial tier over its fixed batch plan.

    Returns the success, run and block-success counts, the episode count
    and the per-batch (seed stream, size, interference) triples.
    """
    mean_pts = lambda_eff * np.pi * disk_radius**2
    counts = {"slot_cnt": 0, "run_cnt": 0, "z_cnt": 0, "n": 0}
    batches = []
    for i, lo in enumerate(range(0, episodes, batch_size)):
        n = min(batch_size, episodes - lo)
        ok, interference = spatial_slots_reference(
            episode_rng(seed, i), n, T, mean_pts, disk_radius, params, geometry
        )
        runs = [max_run(row) >= v for row in ok.tolist()]
        counts["slot_cnt"] += int(ok.sum())
        counts["run_cnt"] += sum(runs)
        counts["z_cnt"] += int(ok.any(axis=1).sum())
        counts["n"] += n
        batches.append((i, n, interference))
    return counts, batches
