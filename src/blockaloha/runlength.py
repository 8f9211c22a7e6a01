"""Exact run-length combinatorics for finite Bernoulli blocks.

A block of T slots is "controllable" when its success/failure sequence
contains a run of at least v consecutive successes.  ``chi`` evaluates the
probability of that event in closed form (inclusion-exclusion over run
placements); ``chi_bruteforce`` recomputes it by enumerating all 2^T
sequences and is the ground-truth oracle for ``chi``.  ``run_probability``
is the same event for slots of unequal success probabilities, by the
run-length Markov chain.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "BlockShape",
    "chi",
    "chi_bruteforce",
    "run_probability",
]

_BRUTE_FORCE_MAX_T = 24
# the magnitude sum of chi's terms above which 2^-52 of it exceeds 1e-12
_CHI_MAX_MAGNITUDE = 1e-12 * 2.0**52
# the exact bound on that sum above which a term or the sum could overflow a float
_CHI_MAX_BOUND = 2**1023


@dataclass(frozen=True)
class BlockShape:
    """Slots per block (T) and required success-run length (v)."""

    T: int
    v: int

    def __post_init__(self):
        _check_count(self.T, "block length T")
        _check_count(self.v, "run length v")
        if self.v > self.T:
            # v > T can never be satisfied; treat as a configuration mistake
            # rather than silently returning probability 0.
            raise ValueError(f"run length v={self.v} exceeds block length T={self.T}")


def _check_count(value, name: str) -> None:
    """Raise ValueError unless ``value`` is an integer (numpy's too) >= 1."""
    if not hasattr(type(value), "__index__") or operator.index(value) < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def _check_prob(x, name="x"):
    arr = np.asarray(x, dtype=float)
    if not ((arr >= 0.0) & (arr <= 1.0)).all():  # NaN fails both comparisons
        raise ValueError(f"{name} must lie in [0, 1], got {x!r}")
    return arr


def chi(shape: BlockShape, x):
    """Probability that T i.i.d. Bernoulli(x) slots contain a run of >= v ones.

    Accepts a scalar or ndarray ``x``; returns the same shape.  The
    alternating inclusion-exclusion sum carries the sum of its terms'
    magnitudes beside it, and 2^-52 times that sum estimates its rounding
    error: points where the estimate exceeds 1e-12 (none for T <= 20) are
    evaluated by ``run_probability`` instead, and so is every point when the
    binomials are too large for the terms to fit a float (from T = 1,461 at
    v = 1).  The sum can still undershoot 0 (or overshoot 1) by a few ulps,
    so the result is clamped to [0, 1].
    """
    flat = _check_prob(x).reshape(-1)  # a scalar takes the array path's bits
    out = _chi_core(shape, flat, 1.0 - flat)
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def _chi_core(shape: BlockShape, x, q):
    """``chi`` of an array ``x`` in [0, 1], unchecked, given its complement q = 1 - x.

    Factors that are exactly 1 (a binomial or ratio of 1, q^0) are not
    multiplied in, q^1 is q, and the magnitude sum is skipped where the
    exact bound on it is at most 2^52 1e-12 (6 at T=5, v=2), since no point
    can then need the chain: each gives the bits of the full sum.
    """
    T, v = shape.T, shape.v
    total = np.zeros_like(x)
    runs = range(1, (T + 1) // (v + 1) + 1)
    # binomials computed in exact integer arithmetic, one float conversion;
    # term l is at most comb(T - l v, l - 1) max(l, T - l v + 1)
    coeffs = [math.comb(T - l * v, l - 1) for l in runs]
    bound = sum(c * max(l, T - l * v + 1) for l, c in zip(runs, coeffs))
    magnitude = None if bound <= _CHI_MAX_MAGNITUDE else np.zeros_like(x)
    if bound > _CHI_MAX_BOUND:
        magnitude[...] = math.inf  # every point is lossy
        coeffs = []
    for l, coeff in zip(runs, coeffs):
        ratio = (T - l * v + 1) / l
        term = x + (q if ratio == 1.0 else ratio * q)
        if coeff != 1:
            term = float(coeff) * term
        term = term * x ** (l * v)
        if l > 1:
            term = term * (q if l == 2 else q ** (l - 1))
        if l % 2 == 1:
            total += term
        else:
            total -= term
        if magnitude is not None:
            magnitude += term
    if magnitude is not None and magnitude.max(initial=0.0) > _CHI_MAX_MAGNITUDE:
        lossy = magnitude > _CHI_MAX_MAGNITUDE
        total[lossy] = run_probability(np.broadcast_to(x[lossy][:, None], (lossy.sum(), T)), v)
    return np.clip(total, 0.0, 1.0)


def run_probability(p, v: int) -> np.ndarray:
    """Probability that independent slots t = 1..T, a success with
    probability ``p[..., t-1]``, contain a run of >= v successes.

    The run-length Markov chain (Fu & Koutras 1994, JASA) walks the slots
    with v transient states, the length 0..v-1 of the trailing success run,
    and absorbs the mass that completes a run; all its terms are
    non-negative.  Returns an array of shape ``p.shape[:-1]``.
    """
    p = _check_prob(p, "p")
    _check_count(v, "run length v")
    if p.ndim < 1:
        raise ValueError(f"p needs a slot axis, got shape {p.shape}")
    state = np.zeros(p.shape[:-1] + (v,))
    state[..., 0] = 1.0
    hit = np.zeros(p.shape[:-1])
    for t in range(p.shape[-1]):
        pt = p[..., t]
        hit += pt * state[..., v - 1]
        alive = state.sum(axis=-1)
        state[..., 1:] = pt[..., None] * state[..., :-1]
        state[..., 0] = (1.0 - pt) * alive
    return hit


@lru_cache(maxsize=32)
def _run_histogram(T: int) -> np.ndarray:
    """counts[o, r] = number of length-T bit strings with o ones, max run r."""
    states = np.arange(1 << T, dtype=np.uint32)
    ones = np.zeros(states.shape, dtype=np.int64)
    run = np.zeros(states.shape, dtype=np.int64)
    best = np.zeros(states.shape, dtype=np.int64)
    for i in range(T):
        bit = (states >> i) & 1
        ones += bit
        run = (run + 1) * bit
        np.maximum(best, run, out=best)
    counts = np.zeros((T + 1, T + 1), dtype=np.int64)
    np.add.at(counts, (ones, best), 1)
    return counts


def chi_bruteforce(shape: BlockShape, x: float) -> float:
    """Run probability by direct enumeration of all 2^T sequences.

    Independent oracle for ``chi``: sums the Bernoulli weight
    x^ones (1-x)^zeros of every sequence whose longest success run is >= v.
    Enumeration is cached per T, so repeated (v, x) queries are cheap.
    """
    if shape.T > _BRUTE_FORCE_MAX_T:
        raise ValueError(
            f"brute-force enumeration limited to T <= {_BRUTE_FORCE_MAX_T}, got T={shape.T}"
        )
    xf = float(_check_prob(x))
    counts = _run_histogram(shape.T)
    T, v = shape.T, shape.v
    total = 0.0
    for o in range(T + 1):
        n_qualifying = int(counts[o, v:].sum())
        if n_qualifying:
            total += n_qualifying * xf**o * (1.0 - xf) ** (T - o)
    return total
