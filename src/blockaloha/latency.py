"""Latency and age analytics over a history of per-block success probabilities.

Implements the closed-form expected peak latency and peak age of the first
input of a successful block, the peak-control-latency distribution between
controllable blocks, and the truncated-geometric term ``_ex_term`` that the
peak formulas and the optimizer's current-block latency share.

``BlockHistory`` holds the per-block series and is what the array formulas
take.  ``HistoryState`` carries the same information forward as a fixed set
of running sums, so a horizon driver can append a block and read the next
block's gap statistics in O(1 + floor(eta_pcl)) work however long the
history has grown.

Block 0 is a virtual successful block that anchors the gap variables.  Its
slot statistics are not pinned down by the model, so two conventions are
supported: ``extend`` reuses the first real block's success probability
(p0 = p1, the default), ``boundary`` places a sure success on the final
slot of block 0 (p0 = 1, which makes the gap weights a proper
distribution).  The two give slightly different values for small histories;
both are exact against direct enumeration of their own convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlockHistory",
    "HistoryState",
    "DegenerateHistoryError",
    "VIRTUAL_BLOCK_MODES",
    "expected_peak_latency",
    "expected_paoi",
    "pcl_pmf",
]

VIRTUAL_BLOCK_MODES = ("extend", "boundary")


class DegenerateHistoryError(ValueError):
    """Raised when every candidate previous controllable block has probability 0."""


def _as_prob_seq(seq, name):
    arr = np.asarray(seq, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D sequence")
    if arr.size and not ((arr >= 0.0) & (arr <= 1.0)).all():
        raise ValueError(f"{name} entries must lie in [0, 1]")
    return arr


def _as_prob(value, name) -> float:
    value = float(value)
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {value}")
    return value


@dataclass(frozen=True)
class BlockHistory:
    """Per-block series through the current block k (1-based, k = len(p)).

    p[i] is the scalar slot-success probability of block i+1, P_O_tilde[i]
    its instantaneous controllability probability, chi_C[i] the
    post-controllability run probability chi(delta_C * rho) of that block.
    """

    T: int
    p: tuple[float, ...]
    P_O_tilde: tuple[float, ...]
    chi_C: tuple[float, ...]

    def __post_init__(self):
        if self.T < 1:
            raise ValueError(f"T must be >= 1, got {self.T}")
        p = _as_prob_seq(self.p, "p")
        pt = _as_prob_seq(self.P_O_tilde, "P_O_tilde")
        cc = _as_prob_seq(self.chi_C, "chi_C")
        if not (len(p) == len(pt) == len(cc)):
            raise ValueError("history sequences must share one length")
        object.__setattr__(self, "p", tuple(map(float, p)))
        object.__setattr__(self, "P_O_tilde", tuple(map(float, pt)))
        object.__setattr__(self, "chi_C", tuple(map(float, cc)))

    def __len__(self) -> int:
        return len(self.p)

    def extended(self, p: float, P_O_tilde: float, chi_C: float) -> "BlockHistory":
        """History with one more block appended."""
        return BlockHistory(
            self.T,
            self.p + (float(p),),
            self.P_O_tilde + (float(P_O_tilde),),
            self.chi_C + (float(chi_C),),
        )


# (sum w, sum w kappa, sum w q/p, sum of suffix products) over no blocks
_NO_GAP = (0.0, 0.0, 0.0, 0.0)


def _push_gap(gap, p: float, T: int):
    """Gap sums after appending a block with slot success p.

    Every older gap weight picks up the new block's q^T and its gap kappa
    grows by one; the new block enters with weight 1 - q^T at kappa = 1.
    The suffix products follow suffix' = q^T (suffix + 1).
    """
    w, wk, wr, s2 = gap
    q = 1.0 - p
    qT = q**T
    fresh = 1.0 - qT
    trailing = q / p if fresh > 0.0 else 0.0  # fresh > 0 implies p > 0
    return (qT * w + fresh, qT * (wk + w) + fresh, qT * wr + fresh * trailing, qT * (s2 + 1.0))


@dataclass(frozen=True)
class HistoryState:
    """Fixed-size summary of blocks 1..n that the next block's statistics need.

    Build one with ``start`` (no blocks) or ``fold`` (a whole per-block
    series); ``extended`` appends a block.  It holds, for the peak latency
    and peak age, the gap sums over the virtual block 0 and blocks 1..n
    (``gap_sums``, None until block 1 fixes the virtual block's p in
    ``extend`` mode), and, for the peak control latency, the weight total,
    the tau-weighted total and the last floor(eta_pcl) pairs
    (P_O_tilde, 1 - chi_C), the virtual block counting as (1, 1).  Values
    agree with the ``BlockHistory`` formulas to rounding; they are summed
    in another order.
    """

    T: int
    virtual_block: str
    eta_pcl: float
    n: int
    gap_sums: tuple[float, float, float, float] | None
    pcl_total: float
    pcl_tau_sum: float
    pcl_tail: tuple[tuple[float, float], ...]

    @classmethod
    def start(cls, T: int, virtual_block: str, eta_pcl: float) -> "HistoryState":
        """State before block 1."""
        if T < 1:
            raise ValueError(f"T must be >= 1, got {T}")
        if virtual_block not in VIRTUAL_BLOCK_MODES:
            raise ValueError(f"virtual_block must be one of {VIRTUAL_BLOCK_MODES}")
        if not 0.0 <= eta_pcl < math.inf:
            raise ValueError(f"eta_pcl must be finite and >= 0, got {eta_pcl}")
        gap = _push_gap(_NO_GAP, 1.0, T) if virtual_block == "boundary" else None
        tail = ((1.0, 1.0),)[: math.floor(eta_pcl)]
        return cls(T, virtual_block, float(eta_pcl), 0, gap, 1.0, 1.0, tail)

    @classmethod
    def fold(
        cls, T: int, virtual_block: str, eta_pcl: float, p, P_O_tilde, chi_C
    ) -> "HistoryState":
        """State after blocks 1..n of equal-length per-block series, appended in order."""
        state = cls.start(T, virtual_block, eta_pcl)
        for entry in zip(p, P_O_tilde, chi_C, strict=True):
            state = state.extended(*entry)
        return state

    def __len__(self) -> int:
        return self.n

    def _gap_before(self, p_next: float):
        if self.gap_sums is None:  # 'extend': block 1 lends its p to block 0
            return _push_gap(_NO_GAP, p_next, self.T)
        return self.gap_sums

    def extended(self, p: float, P_O_tilde: float, chi_C: float) -> "HistoryState":
        """State with block n+1 appended."""
        p = _as_prob(p, "p")
        pt = _as_prob(P_O_tilde, "P_O_tilde")
        g = 1.0 - _as_prob(chi_C, "chi_C")
        keep = math.floor(self.eta_pcl)
        return HistoryState(
            self.T,
            self.virtual_block,
            self.eta_pcl,
            self.n + 1,
            _push_gap(self._gap_before(p), p, self.T),
            g * self.pcl_total + pt,
            g * (self.pcl_tau_sum + self.pcl_total) + pt,
            (self.pcl_tail + ((pt, g),))[-keep:] if keep else (),
        )

    def peak_metrics(self, p: float) -> tuple[float, float]:
        """(expected peak latency, expected peak age) of block n+1 with slot success p.

        Equals ``expected_peak_latency`` / ``expected_paoi`` of the history
        extended by that block; p must be > 0.
        """
        p = _as_prob(p, "p")
        if p <= 0.0:
            raise ValueError("current block must have p_k > 0")
        T = self.T
        w, wk, wr, s2 = self._gap_before(p)
        x_term = float(_ex_term(p, T))
        return float(wr + T * wk - T * s2 - T + x_term + 1.0), float(T * wk + x_term + 1.0)

    def pcl_context(self) -> tuple[float, float]:
        """(P(pcl <= eta_pcl), mean pcl) of the gap distribution at block n+1.

        (0, nan) when every candidate previous controllable block has
        probability 0.
        """
        if self.pcl_total <= 0.0:
            return 0.0, math.nan
        below, prod = 0.0, 1.0
        for pt, g in reversed(self.pcl_tail):
            below += pt * prod
            prod *= g
        return below / self.pcl_total, self.pcl_tau_sum / self.pcl_total


def _padded_q_powers(hist: BlockHistory, virtual_block: str):
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


def _suffix_products(qT: np.ndarray, k: int) -> np.ndarray:
    """suffix[m] = prod_{i=m}^{k-1} q_i^T for m = 0..k (factors <= 1, so
    underflow of long products rounds to an exact 0 contribution)."""
    suffix = np.ones(k + 1)
    suffix[:k] = np.multiply.accumulate(qT[k - 1 :: -1])[::-1]
    return suffix


def _gap_weights(qT: np.ndarray, k: int) -> np.ndarray:
    """weights[m] = (1 - q_m^T) prod_{i=m+1}^{k-1} q_i^T for m = 0..k-1.

    weights[k - kappa] is the probability that the most recent successful
    block before k is block k-kappa (sub-stochastic in 'extend' mode, where
    the all-failed event keeps the leftover mass).
    """
    suffix = _suffix_products(qT, k)
    return (1.0 - qT[:k]) * suffix[1 : k + 1]


def _ex_term(p, T: int) -> np.ndarray:
    """Elementwise q/p - T q^T / (1 - q^T) with q = 1 - p; 0 where p is 0.

    For p > 0 this is the mean number of leading failure slots of a T-slot
    block given at least one success, and by symmetry the mean trailing
    failure run after its last success.  A block with p = 0 never succeeds,
    so its term carries zero weight; it is evaluated at p = 1, where the
    expression is exactly 0.  At T = 1 it is exactly 0 for every p, and
    is returned as such: the two terms cancel only to rounding (1e-15).
    """
    if T == 1:
        return np.zeros_like(np.asarray(p, dtype=float))
    safe = np.where(np.asarray(p, dtype=float) > 0.0, p, 1.0)
    q = 1.0 - safe
    qT = q**T
    return q / safe - T * qT / (1.0 - qT)


def expected_peak_latency(hist: BlockHistory, virtual_block: str = "extend") -> float:
    """Expected peak latency of the first input of block k, given Z(k)=1.

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
    s2 = float(np.sum(_suffix_products(qT, k)[:k]))
    return s1 - T * s2 - T + x_term + 1.0


def expected_paoi(hist: BlockHistory, virtual_block: str = "extend") -> float:
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


def _pcl_weights(past_P_tilde, past_chi_C) -> np.ndarray:
    """Unnormalized P(gap = tau) for tau = 1..k at block k = len(past)+1.

    Entry tau-1 is P_tilde[k-tau] * prod_{i=k-tau+1}^{k-1} (1 - chi_C[i]),
    with the virtual block 0 contributing probability 1 at tau = k.
    """
    pt = np.concatenate(([1.0], np.asarray(past_P_tilde, dtype=float)))  # index 0..k-1
    g = 1.0 - np.asarray(past_chi_C, dtype=float)  # failures for blocks 1..k-1
    k = pt.size
    # prod_{i=m+1}^{k-1} g_i for m = 0..k-1
    prods = np.ones(k)
    if k > 1:
        prods[:-1] = np.multiply.accumulate(g[::-1])[::-1]
    weights = pt * prods  # index m = k - tau
    return weights[::-1]  # tau = 1..k


def pcl_pmf(hist: BlockHistory) -> np.ndarray:
    """PMF of the peak control latency at block k = len(hist), over tau = 1..k.

    Only the history strictly before block k enters; the current block's own
    run probability cancels between numerator and normalizer.
    """
    if len(hist) == 0:
        raise ValueError("history must cover at least one block")
    w = _pcl_weights(hist.P_O_tilde[:-1], hist.chi_C[:-1])
    total = w.sum()
    if total <= 0.0:
        raise DegenerateHistoryError(
            "all candidate previous controllable blocks have probability 0"
        )
    return w / total
