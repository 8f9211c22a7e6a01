"""Two-tier Monte Carlo validation of the analytic formulas.

Bernoulli tier: slot outcomes drawn from given per-block success
probabilities, measuring empirical run, latency, age, and controllability
statistics.  Spatial tier: full PPP + Rayleigh fading + SINR simulation of
the typical link, or, with the fading integrated out, each slot's success
probability given its interferer positions; one sampler draws either and
one body reduces it to the slot, run and block statistics.  All estimators
are seed-deterministic and independent of the worker count: episodes are
split into fixed-size batches, each batch gets its own counter-based random
stream keyed by (seed, batch index), and every statistic of every tier is one
mergeable sample summary, ``_Sample``, merged in batch order.
"""

from __future__ import annotations

import copy
import functools
import math
import operator
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .latency import VIRTUAL_BLOCK_MODES
from .runlength import BlockShape, _check_count, _check_prob, run_probability
from .spatial import (
    AccessPolicy,
    NetworkParams,
    default_disk_radius,
    effective_densities,
    interference_tail,
    noise_exponent,
)

__all__ = [
    "Estimate",
    "episode_rng",
    "simulate_bernoulli",
    "simulate_spatial",
    "simulate_renewal_pcl",
    "simulate_policy_chain",
]

_DEFAULT_BATCH = 50_000
# Interferers per fading draw in the spatial tier, and slots per episode
# chunk in the Bernoulli tier (512 KiB of uniforms; O(chunk) block stats).
_FADING_CHUNK = 1 << 16
# Largest interferer gain g (r0/r)^a that the spatial tier represents: a
# nearer interferer counts with this gain, which changes a drawn slot only
# when its fading is below 1e-150 of the signal's and a slot's integrated
# success probability by less than 1e-150.
_GAIN_CAP = 1e150


@dataclass(frozen=True)
class Estimate:
    """Point estimate with standard error and the sample count behind it."""

    value: float
    stderr: float
    n: int

    def z_against(self, reference: float) -> float:
        """(value - ref) / stderr; a constant sample (stderr 0) is scored
        against sqrt(ref (1 - ref) / n) if 0 < ref < 1: the binomial score
        test for a rate, and for any mean of [0, 1] values the largest
        stderr its null allows (Bhatia & Davis 2000)."""
        stderr = self.stderr
        if stderr == 0.0 and 0.0 < reference < 1.0:
            stderr = math.sqrt(reference * (1.0 - reference) / self.n)
        if stderr == 0.0:
            return 0.0 if self.value == reference else math.inf
        return (self.value - reference) / stderr


def episode_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for one batch: key = (seed, stream), seed in [0, 2^64)."""
    if not hasattr(type(seed), "__index__") or not 0 <= operator.index(seed) < 1 << 64:
        raise ValueError(f"seed must be an integer in [0, 2^64), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=(int(seed) << 64) + int(stream)))


def _run_batches(seed, episodes, batch_size, workers, batch_fn) -> dict[str, Estimate]:
    """Map batch_fn(rng, n) -> {key: _Sample} over a fixed batch plan (sizes
    independent of the worker count), merging the samples in batch order."""
    _check_count(episodes, "episodes")
    _check_count(batch_size, "batch_size")
    _check_count(workers, "workers")
    starts = range(0, episodes, batch_size)
    jobs = [(episode_rng(seed, i), min(batch_size, episodes - lo)) for i, lo in enumerate(starts)]
    if workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda j: batch_fn(*j), jobs))
    else:
        results = [batch_fn(*j) for j in jobs]
    merged = functools.reduce(_accumulate, results)
    return {key: s.estimate() for key, s in merged.items()}


def _accumulate(total: dict, part: dict) -> dict:
    """Add the statistics of ``part`` into ``total``, key by key."""
    for key, val in part.items():
        total[key] = total[key] + val
    return total


@dataclass(frozen=True)
class _Sample:
    """Summary of one sample: its count, total, squared deviations from its
    mean (m2), least and greatest value, and whether every value is 0 or 1.

    ``+`` merges two summaries by Chan, Golub & LeVeque (1983), so chunks and
    batches fold in O(1) memory and a nearly constant sample keeps the
    variance that a sum of squares would lose.
    """

    n: int = 0
    total: float = 0
    m2: float = 0.0
    lo: float = math.inf
    hi: float = -math.inf
    binary: bool = True

    @classmethod
    def of(cls, x: np.ndarray) -> _Sample:
        """Summary of an array; a bool array is a rate, counted without a float pass."""
        if x.size == 0:
            return cls()
        if x.dtype == bool:
            return cls.rate(int(np.count_nonzero(x)), x.size)
        total = int(x.sum()) if x.dtype.kind in "iu" else x.sum()
        binary = bool(((x == 0) | (x == 1)).all())
        return cls(x.size, total, float(((x - x.mean()) ** 2).sum()), x.min(), x.max(), binary)

    @classmethod
    def rate(cls, count, n) -> _Sample:
        """Summary of ``count`` ones among ``n`` 0/1 values."""
        count, n = int(count), int(n)
        if n == 0:
            return cls()
        return cls(n, count, count * (n - count) / n, float(count == n), float(count > 0))

    def __add__(self, other: _Sample) -> _Sample:
        if not (self.n and other.n):
            return self if self.n else other
        n, cross = self.n + other.n, self.n * other.n
        delta = (other.total * self.n - self.total * other.n) / cross  # one rounding for ints
        m2 = self.m2 + other.m2 + delta * delta * (cross / n)
        return _Sample(n, self.total + other.total, m2, min(self.lo, other.lo),
                       max(self.hi, other.hi), self.binary and other.binary)

    def estimate(self) -> Estimate:
        """Mean and standard error: binomial for a 0/1 sample, 0 for a constant one."""
        if self.n == 0:
            return Estimate(math.nan, math.nan, 0)
        mean = self.total / self.n
        if self.binary:
            stderr = math.sqrt(mean * (1.0 - mean) / self.n)
        elif self.n == 1:
            stderr = math.nan
        elif self.lo == self.hi:
            stderr = 0.0
        else:
            stderr = math.sqrt(self.m2 / (self.n - 1) / self.n)
        return Estimate(mean, stderr, self.n)


def _gap_stats(last: np.ndarray, ctrl: np.ndarray, k: int) -> dict[str, _Sample]:
    """``pcl_mean`` and ``pcl_pmf_1..k`` of the gap tau = k - last at the final
    block k over the episodes where it is controllable (``last``: latest
    earlier controllable block, 0 if none)."""
    tau = (k - last)[ctrl]
    counts = np.bincount(tau, minlength=k + 1)
    pmf = {f"pcl_pmf_{t}": _Sample.rate(counts[t], tau.size) for t in range(1, k + 1)}
    return {"pcl_mean": _Sample.of(tau), **pmf}


@functools.cache
def _byte_tables() -> np.ndarray:
    """Read-only (6, 256) table, built on first use, of each byte's ones, first and last
    one (-1 if none), leading, trailing and longest run of ones; bit j holds slot j."""
    rows = []
    for s in (f"{b:08b}"[::-1] for b in range(256)):
        runs = [len(r) for r in s.split("0")]
        rows.append((s.count("1"), s.find("1"), s.rfind("1"), runs[0], runs[-1], max(runs)))
    table = np.array(rows, dtype=np.int64).T.copy()
    table.flags.writeable = False
    return table


def _block_stats(bits: np.ndarray):
    """(ones, first one, last one, longest run of ones) along the trailing slot
    axis of a bool array, first and last -1 where it has no one: packed eight
    slots to a byte and read through ``_byte_tables``, each byte after the
    first extending the run that ends on the slot before it (``carry``)."""
    T = bits.shape[-1]  # one flat pack: packbits along a 5-slot axis is 3x slower
    padded = np.zeros(bits.shape[:-1] + (T + -T % 8,), dtype=bool)
    padded[..., :T] = bits
    packed = np.packbits(padded, bitorder="little").reshape(bits.shape[:-1] + (-1,))
    table = _byte_tables()
    ones, first, last, _, carry, longest = np.take(table, packed[..., 0], axis=1)
    for j in range(1, packed.shape[-1]):
        b_ones, b_first, b_last, lead, trail, best = np.take(table, packed[..., j], axis=1)
        hit = b_ones > 0
        ones = ones + b_ones
        first = np.where((first < 0) & hit, 8 * j + b_first, first)
        last = np.where(hit, 8 * j + b_last, last)
        longest = np.maximum(longest, np.maximum(best, carry + lead))
        carry = np.where(b_ones == 8, carry + 8, trail)
    return ones, first, last, longest


def simulate_bernoulli(
    p_seq,
    shape: BlockShape,
    episodes: int,
    seed: int,
    virtual_block: str = "extend",
    workers: int = 1,
    batch_size: int = _DEFAULT_BATCH,
) -> dict[str, Estimate]:
    """Empirical block statistics for i.i.d. Bernoulli slots with given per-block p.

    Per episode: blocks 1..k with p_seq probabilities, plus the virtual
    block 0 per the selected convention ('extend' draws it with p_1,
    'boundary' fixes a success on its last slot).  Reports per-block slot,
    success and run rates, and the latency / age of the first input of the
    final block conditioned on that block succeeding.

    A batch draws blocks 1..k episode-major, then block 0.  It walks chunks
    of whole episodes of about ``_FADING_CHUNK`` slots, reading block 0 from
    a view of the stream skipped past blocks 1..k, so its memory does not
    grow with k; one ``_block_stats`` call reduces blocks 0..k, block j as
    row j, and the chunks fold into integer counts and ``_Sample`` means.
    """
    p = _check_prob(p_seq, "p_seq")
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p_seq must be a non-empty 1-D sequence")
    if virtual_block not in VIRTUAL_BLOCK_MODES:
        raise ValueError(f"unknown virtual_block mode {virtual_block!r}")
    k, T, v = p.size, shape.T, shape.v

    def chunk(rng, block0_rng, n):
        bits = np.empty((k + 1, n, T), dtype=bool)
        np.less(rng.random((n, k, T)), p[None, :, None], out=bits[1:].transpose(1, 0, 2))
        if virtual_block == "extend":
            np.less(block0_rng.random((n, T)), p[0], out=bits[0])
        else:  # a success on block 0's last slot
            bits[0] = np.arange(T) == T - 1
        ones, first, last, longest = _block_stats(bits)
        zk = ones[k] > 0
        # gap to the last successful block j of blocks 0..k-1 and its trailing failure run
        kappa = np.zeros(n, dtype=np.int64)
        w_prev = np.zeros(n, dtype=np.int64)
        for j in range(k):
            hit = ones[j] > 0
            np.copyto(kappa, k - j, where=hit)
            np.copyto(w_prev, T - 1 - last[j], where=hit)

        L = (T * (kappa - 1) + w_prev + first[k] + 1)[zk]
        D = (kappa * T + first[k] + 1)[zk]
        return {
            "slots": ones[1:].sum(axis=1),
            "successes": (ones[1:] > 0).sum(axis=1),
            "runs": (longest[1:] >= v).sum(axis=1),
            "peak_latency": _Sample.of(L),
            "paoi": _Sample.of(D),
            "paoi_minus_pl": _Sample.of(D - L),
        }

    def batch(rng, n):
        block0_rng = _skipped(rng, n * k * T) if virtual_block == "extend" else None
        step = max(1, _FADING_CHUNK // (k * T))
        parts = (chunk(rng, block0_rng, min(step, n - lo)) for lo in range(0, n, step))
        counts = functools.reduce(_accumulate, parts)
        slots, successes, runs = (counts.pop(key) for key in ("slots", "successes", "runs"))
        rates = {}
        for i in range(k):
            rates[f"slot_rate_b{i + 1}"] = _Sample.rate(slots[i], n * T)
            rates[f"block_success_b{i + 1}"] = _Sample.rate(successes[i], n)
            rates[f"run_freq_b{i + 1}"] = _Sample.rate(runs[i], n)
        return {**rates, **counts}

    return _run_batches(seed, episodes, batch_size, workers, batch)


def _skipped(rng, m: int) -> np.random.Generator:
    """A copy of the Philox generator ``rng`` that starts m raw outputs on.

    ``Philox.advance`` counts blocks of 4 outputs and drops the buffered
    ones, so the buffer is drained first, ``advance`` skips only whole
    blocks and the remainder is drawn raw.
    """
    bg = copy.deepcopy(rng.bit_generator)
    head = min(m, 4 - bg.state["buffer_pos"])
    bg.random_raw(head)
    if m - head >= 4:
        bg.advance((m - head) // 4)
    bg.random_raw((m - head) % 4)
    return np.random.Generator(bg)


def _group_sums(counts: np.ndarray, fill) -> np.ndarray:
    """Cell c's sum of the next counts[c] per-interferer values (0 if empty).

    The cells are walked in groups, those whose first interferer falls in
    one ``_FADING_CHUNK``; ``fill(lo, out)`` returns the values of the
    group that starts at interferer lo, one per entry of ``out``, a view of
    one buffer that every group reuses.  So the memory is O(_FADING_CHUNK +
    largest cell), and ``fill`` reads its streams in interferer order.
    """
    offsets = np.r_[0, np.cumsum(counts)]
    edges = np.r_[0, np.flatnonzero(np.diff(offsets[:-1] // _FADING_CHUNK)) + 1, counts.size]
    starts = offsets[edges]
    buffer = np.empty(np.diff(starts).max())
    sums = np.zeros(counts.size)
    for a, b, lo, hi in zip(edges[:-1], edges[1:], starts[:-1], starts[1:]):
        if hi > lo:  # an empty group draws nothing
            values = fill(lo, buffer[: hi - lo])
            nonempty = counts[a:b] > 0
            sums[a:b][nonempty] = np.add.reduceat(values, offsets[a:b][nonempty] - lo)
    return sums


def _interferer_gains(x: np.ndarray, disk_radius: float, params: NetworkParams) -> np.ndarray:
    """Overwrite the uniforms x with the gains g (r0/r)^a = (U^2 x)^(-a/2) of
    interferers at r = R sqrt(x), U = R / (r0 g^(1/a)), capped at ``_GAIN_CAP``.

    The cap enters as a floor on U^2 x, so the power never overflows.  Above
    alpha ~1.2e19 that floor rounds to 1, where every U^2 x < 1 would
    overflow: those entries then take the cap as well (and so does the
    measure-zero U^2 x = 1).
    """
    alpha = params.alpha
    floor = _GAIN_CAP ** (-2.0 / alpha)
    x *= (disk_radius / (params.r0 * params.gamma ** (1.0 / alpha))) ** 2
    np.maximum(x, floor, out=x)
    np.power(x, -0.5 * alpha, out=x)
    if floor == 1.0:
        x[x == 1.0] = _GAIN_CAP
    return x


def _slot_probs(rng, n, T, mean_pts, disk_radius, params, geometry, fading, outer):
    """Success probabilities p, shape (n, T), of one batch's slots.

    Draws: interferer counts per cell (a slot, or a frozen episode), their
    uniforms, which ``_interferer_gains`` maps to gains g (r0/r)^a, then,
    with 'drawn' ``fading``, per slot the interferer and the signal fading.
    Each cell sums one value per interferer through ``_group_sums``: drawn,
    the faded gain, and p is 1 where the link's Exp(1) fading beats
    ``outer`` (the noise and outside-disk exponents) plus that sum, in units
    of the signal's xi r0^-a / g; 'integrated' (``per-slot`` only), log1p of
    the gain, as under Rayleigh fading an interferer keeps the link with
    probability 1 / (1 + g (r0/r)^a), and p = exp(-outer - sum).
    ``per-slot`` uses each uniform once and reads the fading from a view of
    the same stream skipped past them.  ``per-episode`` reuses each gain T
    times, so it keeps them all, and draws their fading once per slot.
    """
    drawn = fading == "drawn"
    if geometry == "per-slot":
        counts = rng.poisson(mean_pts, size=n * T)
        fading_rng = _skipped(rng, int(counts.sum())) if drawn else None

        def fill(lo, out):
            gains = _interferer_gains(rng.random(out=out), disk_radius, params)
            if drawn:
                return np.multiply(gains, fading_rng.standard_exponential(out.size), out=out)
            return np.log1p(gains, out=out)

        sums = _group_sums(counts, fill).reshape(n, T)
        if not drawn:
            return np.exp(-(sums + outer))
        signal = fading_rng.exponential(size=n * T).reshape(n, T)
    else:
        counts = rng.poisson(mean_pts, size=n)
        gains = _interferer_gains(rng.random(int(counts.sum())), disk_radius, params)

        def fill(lo, out):
            rng.standard_exponential(out=out)
            return np.multiply(gains[lo : lo + out.size], out, out=out)

        sums = np.empty((n, T))
        signal = np.empty((n, T))
        for t in range(T):
            sums[:, t] = _group_sums(counts, fill)
            signal[:, t] = rng.exponential(size=n)
    return (signal > outer + sums).astype(float)


def simulate_spatial(
    params: NetworkParams,
    policy: AccessPolicy,
    shape: BlockShape,
    episodes: int,
    seed: int,
    P_O_prev: float = 0.0,
    disk_radius: float | None = None,
    geometry: str = "per-slot",
    workers: int = 1,
    batch_size: int = 2_000,
    fading: str = "drawn",
) -> dict[str, Estimate]:
    """One-block spatial simulation of the typical link.

    Interferers form a PPP of the policy's effective density: those on a disk
    of radius R are simulated, and the rest enter exactly, as the factor
    exp(-lambda_eff A_out(R)) (``interference_tail``).  Fading is unit-mean
    exponential, redrawn each slot, and the typical controller sends in every
    slot, so the slot rate estimates ``slot_success_prob`` on any disk.

    ``geometry``: 'per-slot' (default) redraws the interferer field every
    slot, making slot successes i.i.d. as the closed-form block analytics
    assume; 'per-episode' freezes the disk's field for the whole block (the
    static network), whose correlated slots move run frequencies off the
    mean-field value (the meta-distribution effect).  Its slot marginals are
    exact, but the correlation the frozen field beyond R adds is left out.

    One sampler, ``_slot_probs``, fills a batch's (n, T) array p of slot
    success probabilities, and ``fading`` selects with what: 'drawn'
    (default) draws every fading and p holds the 0/1 SINR outcomes;
    'integrated' (``per-slot`` only) draws the positions alone and p holds
    each slot's success probability given them.  One body reduces p: the
    slot rate, ``run_probability(p, v)`` (exact on 0/1 slots) and
    1 - prod(1 - p), each averaged over independent cells: episodes, and
    for the 'per-slot' slot rate, slots.  0/1 samples get binomial standard
    errors.
    """
    if geometry not in ("per-slot", "per-episode"):
        raise ValueError(f"unknown geometry mode {geometry!r}")
    if fading not in ("drawn", "integrated"):
        raise ValueError(f"unknown fading mode {fading!r}")
    if fading == "integrated" and geometry != "per-slot":
        raise ValueError("integrated fading needs the per-slot geometry")
    lam_eff = effective_densities(params, policy, P_O_prev).lambda_eff
    if disk_radius is None:
        disk_radius = default_disk_radius(lam_eff)
    T, v = shape.T, shape.v
    outer = noise_exponent(params) + lam_eff * interference_tail(params, disk_radius)
    try:
        mean_pts = lam_eff * math.pi * disk_radius**2
    except OverflowError:
        mean_pts = math.inf
    if not mean_pts < math.inf:
        raise ValueError(f"expected interferer count {mean_pts} on the disk is not finite")

    @np.errstate(under="ignore")  # a far interferer's gain may round to 0
    def batch(rng, n):
        p = _slot_probs(rng, n, T, mean_pts, disk_radius, params, geometry, fading, outer)
        return {
            "slot_rate": _Sample.of(p.mean(axis=1) if geometry == "per-episode" else p),
            "run_freq": _Sample.of(run_probability(p, v)),
            "block_success": _Sample.of(1.0 - np.prod(1.0 - p, axis=1)),
        }

    return _run_batches(seed, episodes, batch_size, workers, batch)


def simulate_renewal_pcl(
    P_tilde_seq,
    chi_C_seq,
    episodes: int,
    seed: int,
    workers: int = 1,
    batch_size: int = _DEFAULT_BATCH,
) -> dict[str, Estimate]:
    """Simulate the controllability indicator chain and measure the final gap.

    Block i is controllable with its marginal probability until the first
    real controllable block, after which the chain switches to the
    post-controllability run probabilities.  The gap tau at the final block
    is measured against the virtual controllable block 0.
    """
    pt = _check_prob(P_tilde_seq, "P_tilde_seq")
    cc = _check_prob(chi_C_seq, "chi_C_seq")
    if pt.shape != cc.shape or pt.ndim != 1 or pt.size == 0:
        raise ValueError("P_tilde_seq and chi_C_seq must be equal-length 1-D sequences")
    k = pt.size

    def batch(rng, n):
        last = np.zeros(n, dtype=np.int64)
        for i in range(k):
            ctrl = rng.random(n) < np.where(last > 0, cc[i], pt[i])
            if i < k - 1:
                last = np.where(ctrl, i + 1, last)
        return _gap_stats(last, ctrl, k)

    return _run_batches(seed, episodes, batch_size, workers, batch)


def simulate_policy_chain(
    shape: BlockShape,
    policies,
    rho_seq,
    episodes: int,
    seed: int,
    workers: int = 1,
    batch_size: int = 20_000,
) -> dict[str, Estimate]:
    """Full Bernoulli-tier system simulation under a per-block policy schedule.

    Each episode tracks one controller: before controllability it draws
    block access with delta_B (slots at rho) or falls back to slot access
    (slots at delta_S * rho); after its first controllable block it uses
    delta_C * rho; a block is controllable when ``_block_stats`` finds a run
    of at least v successes.  Validates the first-time / cumulative /
    instantaneous controllability recursions and the gap distribution at
    the final block.
    """
    rho = _check_prob(rho_seq, "rho_seq")
    policies = list(policies)
    if rho.ndim != 1 or len(policies) != rho.size or rho.size == 0:
        raise ValueError("policies and rho_seq must be of equal nonzero length, rho_seq 1-D")
    K, T, v = rho.size, shape.T, shape.v

    def batch(rng, n):
        ever = np.zeros(n, dtype=bool)
        last = np.zeros(n, dtype=np.int64)
        rates = {}
        for i, pol in enumerate(policies):
            pre = ~ever
            is_block = rng.random(n) < pol.delta_B
            p_slot = np.where(
                pre,
                np.where(is_block, rho[i], pol.delta_S * rho[i]),
                pol.delta_C * rho[i],
            )
            ctrl = _block_stats(rng.random((n, T)) < p_slot[:, None])[3] >= v
            rates[f"pi_b{i + 1}"] = _Sample.of(ctrl[pre])
            ever |= ctrl
            rates[f"P_O_b{i + 1}"] = _Sample.of(ever)
            rates[f"P_tilde_b{i + 1}"] = _Sample.of(ctrl)
            if i < K - 1:
                last = np.where(ctrl, i + 1, last)
        return {**rates, **_gap_stats(last, ctrl, K)}

    return _run_batches(seed, episodes, batch_size, workers, batch)
