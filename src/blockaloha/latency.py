"""Latency and age analytics over a history of per-block success probabilities.

Implements the closed-form expected peak latency and peak age of the first
input of a successful block, the peak-control-latency distribution between
controllable blocks, and the truncated-geometric term ``_ex_term`` that the
peak formulas and the optimizer's current-block latency share.

``HistoryState`` is the one implementation of the history quantities: it
carries blocks 1..n as a fixed set of running sums, so a horizon driver can
append a block and read the next block's gap statistics in O(1 +
floor(eta_pcl)) work however long the history has grown.  ``BlockHistory``
is the input record of the public convenience functions
``expected_peak_latency``, ``expected_paoi`` and ``pcl_pmf``; the first two
fold it into a ``HistoryState``.  The array forms of the peak formulas live
in the tests as an independent oracle.

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

from .runlength import _check_count, _check_prob

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
        _check_count(self.T, "T")
        for name in ("p", "P_O_tilde", "chi_C"):
            arr = _check_prob(getattr(self, name), name)
            if arr.ndim != 1:
                raise ValueError(f"{name} must be a 1-D sequence")
            object.__setattr__(self, name, tuple(map(float, arr)))
        if not (len(self.p) == len(self.P_O_tilde) == len(self.chi_C)):
            raise ValueError("history sequences must share one length")

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
    The suffix products follow suffix' = q^T (suffix + 1), summed over the
    blocks that can succeed: a block with q^T = 1 has no trailing run.
    """
    w, wk, wr, s2 = gap
    q = 1.0 - p
    qT = q**T
    fresh = 1.0 - qT
    if fresh > 0.0:  # implies p > 0
        wr, s2 = qT * wr + fresh * (q / p), qT * (s2 + 1.0)
    return (qT * w + fresh, qT * (wk + w) + fresh, wr, s2)


@dataclass(frozen=True)
class HistoryState:
    """Fixed-size summary of blocks 1..n that the next block's statistics need.

    Build one with ``start`` (no blocks) or ``fold`` (a whole per-block
    series); ``extended`` appends a block.  It holds, for the peak latency
    and peak age, the gap sums over the virtual block 0 and blocks 1..n
    (``gap_sums``, None until block 1 fixes the virtual block's p in
    ``extend`` mode), and, for the peak control latency, the weight total,
    the tau-weighted total and the last floor(eta_pcl) pairs
    (P_O_tilde, 1 - chi_C), the virtual block counting as (1, 1).  Its pcl
    values agree with ``pcl_pmf`` to rounding; they are summed in another
    order.
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
        _check_count(T, "T")
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


# T p below which ``_ex_term`` sums its series: the first term it drops is
# below 1e-13 of the value there
_EX_SERIES_MAX_TP = 1e-2


def _ex_term(p, T: int) -> np.ndarray:
    """Elementwise q/p - T q^T / (1 - q^T) with q = 1 - p; 0 where p is 0.

    For p > 0 this is the mean number of leading failure slots of a T-slot
    block given at least one success, and by symmetry the mean trailing
    failure run after its last success.  A block with p = 0 never succeeds,
    so its term carries zero weight and is exactly 0.  At T = 1 it is
    exactly 0 for every p, and is returned as such: the two terms cancel
    only to rounding (1e-15).  Below T p = ``_EX_SERIES_MAX_TP`` the two
    terms cancel to rounding noise of order 2^-53 / p^2, so there it is the
    series (T-1)/2 - (T^2-1) p/12 (1 + p/2 - (T^2-19) p^2/60 - (T^2-9)
    p^3/40) + O(T^6 p^5).
    """
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    qT = q**T
    return _ex_core(p, q, qT, 1.0 - qT, T)


def _ex_core(p, q, qT, fresh, T: int) -> np.ndarray:
    """``_ex_term`` of an ndarray ``p``, given q = 1 - p, qT = q^T and fresh = 1 - q^T."""
    if T == 1:
        return np.zeros_like(p)
    closed = p >= _EX_SERIES_MAX_TP / T
    # the discarded points below the switch may divide by 0 or overflow
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        out = np.where(closed, q / p - T * qT / fresh, 0.0)
    if not closed.all():
        series = ~closed & (p > 0.0)
        if series.any():
            x, t2 = p[series], float(T * T)
            poly = 1.0 + x / 2.0 - (t2 - 19.0) * x**2 / 60.0 - (t2 - 9.0) * x**3 / 40.0
            out[series] = (T - 1) / 2.0 - (t2 - 1.0) * x / 12.0 * poly
    return out


def _final_block_peaks(hist: BlockHistory, virtual_block: str) -> tuple[float, float]:
    """``HistoryState.peak_metrics`` of the last block of ``hist`` given blocks before it."""
    if len(hist) == 0:
        raise ValueError("history must cover at least one block")
    state = HistoryState.fold(
        hist.T, virtual_block, 0.0, hist.p[:-1], hist.P_O_tilde[:-1], hist.chi_C[:-1]
    )
    return state.peak_metrics(hist.p[-1])


def expected_peak_latency(hist: BlockHistory, virtual_block: str = "extend") -> float:
    """Expected peak latency of the first input of block k = len(hist), given Z(k)=1.

    Sum over the gap kappa to the previous successful block of the trailing
    failure run of that block, the T(kappa-1) failed blocks in between, and
    the leading failure run of block k, plus the success slot itself.
    Folds blocks 1..k-1 into a ``HistoryState`` one block at a time, a
    Python loop (8 ms for 3,000 blocks on one core of a 2-core x86 VM); to
    read every prefix of a long history, extend one state with
    ``HistoryState.extended`` instead.
    """
    return _final_block_peaks(hist, virtual_block)[0]


def expected_paoi(hist: BlockHistory, virtual_block: str = "extend") -> float:
    """Expected peak age of information of the first input of block k, given Z(k)=1.

    kappa full blocks of staleness plus the leading failure run of block k
    plus the success slot.  Costs the same fold as ``expected_peak_latency``.
    """
    return _final_block_peaks(hist, virtual_block)[1]


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
