"""Exact run-length combinatorics for finite Bernoulli blocks.

A block of T slots is "controllable" when its success/failure sequence
contains a run of at least v consecutive successes.  ``chi`` evaluates the
probability of that event by the first-completion recursion, in O(T) IEEE
adds and multiplies per point, with no binomial; ``chi_bruteforce``
recomputes it by enumerating all 2^T sequences and is the ground-truth
oracle for ``chi``.  ``run_probability`` is the same event for slots of
unequal success probabilities, by the run-length Markov chain.
"""

from __future__ import annotations

import operator
from collections import deque
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

    Accepts a scalar or ndarray ``x``; returns the same shape.  Evaluated by
    the first-completion recursion of ``_chi_core``, on one path for every
    T.  Its terms are all >= 0, so it never goes below 0, and its rounding
    stays within (T + 1) 2^-52 of the exact value (tested up to T = 3000);
    near x = 1 that rounding can take it past 1 (by 248 ulps at T = 3000,
    v = 1000), so the result is capped at 1.
    """
    flat = _check_prob(x).reshape(-1)  # a scalar takes the array path's bits
    out = _chi_core(shape, flat, 1.0 - flat)
    return float(out[0]) if np.ndim(x) == 0 else out.reshape(np.shape(x))


def _chi_core(shape: BlockShape, x, q):
    """``chi`` of an array ``x`` in [0, 1], unchecked, given its complement q = 1 - x.

    The first run completes at slot n > v only if there is no run by slot
    n - v - 1, a failure at n - v and then v successes (Feller 1968, vol. I,
    XIII.7), so chi_n = chi_{n-1} + (1 - chi_{n-v-1}) q x^v, with
    chi_n = x^v (1 + (n - v) q) for v <= n <= 2v, where no run can end
    before slot n - v - 1.  Only the last v + 1 values are kept.
    """
    T, v = shape.T, shape.v
    xv = _power(x, v)
    step = q * xv
    first = v if T > 2 * v else T  # chi_v..chi_2v start the recursion, or chi_T alone
    window = deque(xv * (1.0 + (n - v) * q) for n in range(first, min(T, 2 * v) + 1))
    for _ in range(2 * v + 1, T + 1):
        chi_n = window.popleft()  # chi_{n-v-1}, read for the last time
        np.subtract(1.0, chi_n, out=chi_n)
        chi_n *= step
        chi_n += window[-1]
        window.append(chi_n)
    return np.minimum(window[-1], 1.0, out=window[-1])


def _power(x, n: int):
    """x^n for an integer n >= 1 by repeated squaring, with IEEE multiplies only."""
    if n == 1:
        return x
    half = _power(x * x, n // 2)
    return half * x if n % 2 else half


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
