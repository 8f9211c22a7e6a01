"""Per-block grid search over access probabilities and the horizon driver.

Each block k scans the (delta_B, delta_S, delta_C) grid, scoring every
candidate with J = P_O + rho1 * P(theta_curr <= eta, Z=1)
+ rho2 * P(pcl <= eta, controllable), and picks the maximizer under a
deterministic tie-break; its ``MetricsRecord`` is one row of ``trace.csv``.
The chosen block's scalar statistics are folded into a fixed-size
``HistoryState`` that feeds the next block's gap distribution, so each
block costs the same however long the horizon runs; ``run_horizon``
starts that history and returns one record per block.

The grid scan is vectorized over candidates and is the only path that
computes the per-candidate quantities.  Its only history input is one
scalar, the gap distribution's conditional cdf at eta_pcl, read once per
block.  It walks the grid in slices of 2,048 candidates, last slice first,
and keeps only their costs, so its memory is O(slice) plus one cost array.
Its controllability recursion, ``block_recursion``, is also what
``validate`` evaluates its policy chain with; the scan takes the slot array
and its complement from it, raises q^T once, and calls the unchecked cores
of ``chi`` and ``_ex_term``.  The tests hold both to a
scalar reference of the same pipeline that computes the peak latency and
age with array formulas of its own; ``BlockHistory`` is only the input
record of the public convenience functions in ``latency``, not a second
form of the formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .latency import VIRTUAL_BLOCK_MODES, HistoryState, _ex_core
# Not used here: the traced benchmark run (benchmarks/run.py --trace 1) wraps
# these names on this module.  Drop this line with the next benchmark change.
from .latency import _pcl_weights, expected_paoi, expected_peak_latency  # noqa: F401
from .runlength import BlockShape, _check_count, _check_prob, _chi_core, chi
from .spatial import AccessPolicy, NetworkParams, _thinning, slot_success_prob

__all__ = [
    "OptimizerConfig",
    "MetricsRecord",
    "block_recursion",
    "optimize_block",
    "run_horizon",
]

CDF_MODES = ("indicator", "grid-rank")
HISTORY_SCALAR_MODES = ("posterior", "predominant")
_TIE_TOL = 1e-12
# candidates per _evaluate_grid call: a slice's largest array, (3, 2048)
# float64, is 48 KiB, so the heap keeps its pages from block to block
_SCAN_SLICE = 2048


@dataclass(frozen=True)
class OptimizerConfig:
    """Grid resolution, cost weights, thresholds, horizon and convention flags."""

    K: int = 400
    grid_step: float = 0.05
    rho1: float = 0.5
    rho2: float = 0.5
    eta_curr: float = 3.0
    eta_pcl: float = 3.0
    cdf_mode: str = "indicator"
    history_scalar: str = "posterior"
    virtual_block: str = "extend"

    def __post_init__(self):
        _check_count(self.K, "horizon K")
        _unit_grid(self.grid_step, "grid_step")
        for name in ("rho1", "rho2"):
            val = getattr(self, name)
            if not 0.0 < val < 1.0:
                raise ValueError(f"{name} must lie in (0, 1), got {val}")
        if not self.eta_curr >= 0.0:  # NaN fails it too
            raise ValueError(f"eta_curr must be >= 0, got {self.eta_curr}")
        if not 0.0 <= self.eta_pcl < math.inf:
            raise ValueError(f"eta_pcl must be finite and >= 0, got {self.eta_pcl}")
        if self.cdf_mode not in CDF_MODES:
            raise ValueError(f"cdf_mode must be one of {CDF_MODES}")
        if self.history_scalar not in HISTORY_SCALAR_MODES:
            raise ValueError(f"history_scalar must be one of {HISTORY_SCALAR_MODES}")
        if self.virtual_block not in VIRTUAL_BLOCK_MODES:
            raise ValueError(f"virtual_block must be one of {VIRTUAL_BLOCK_MODES}")

    @property
    def grid_values(self) -> np.ndarray:
        return _unit_grid(self.grid_step, "grid_step")


def _unit_grid(step: float, name: str) -> np.ndarray:
    """The grid 0, step, ..., 1; ``step`` must be finite, > 0 and divide 1."""
    if not 0.0 < step < math.inf:
        raise ValueError(f"{name} must be finite and > 0, got {step}")
    n = round(1.0 / step)
    if abs(n * step - 1.0) > 1e-9:
        raise ValueError(f"{name} must divide 1, got {step}")
    return np.linspace(0.0, 1.0, n + 1)


@dataclass(frozen=True)
class MetricsRecord:
    """One block's ``trace.csv`` row, ``k`` to ``cost``, then its history inputs."""

    k: int
    delta_B: float
    delta_S: float
    delta_C: float
    rho: float
    pi: float
    P_O: float
    P_O_tilde: float
    theta_curr: float  # nan for a degenerate candidate
    theta_pl: float
    theta_pa: float
    pcl_mean: float
    block_success_prob: float
    cdf_curr: float
    cdf_pcl: float
    cost: float
    chi_C: float
    p_scalar: float  # scalar slot-success entry appended to the history

    @property
    def policy(self) -> AccessPolicy:
        return AccessPolicy(self.delta_B, self.delta_S, self.delta_C)


def block_recursion(P_O_prev, params, shape, dB, dS, dC) -> dict[str, np.ndarray]:
    """Controllability recursion of one block over candidate policy arrays.

    Given the cumulative probability ``P_O_prev`` before the block: slot
    success ``rho`` at the candidates' effective density, first-time
    ``pi = dB chi(rho) + (1 - dB) chi(dS rho)``, cumulative ``P_O``,
    instantaneous ``P_O_tilde`` and ``chi_C = chi(dC rho)``; one ``chi``
    call checks and evaluates the three run probabilities on the stacked
    slot arrays.  ``P_O_prev`` and the deltas must lie in [0, 1].
    """
    for name, x in (("P_O_prev", P_O_prev), ("dB", dB), ("dS", dS), ("dC", dC)):
        _check_prob(x, name)
    return _recursion(P_O_prev, params, shape, dB, dS, dC, checked=True)[0]


def _recursion(P_O_prev, params, shape, dB, dS, dC, checked=False):
    """``block_recursion``'s fields, the stacked slot array [rho, dS rho, dC rho],
    its complement q = 1 - slot and the stacked regime shares of ``_thinning``;
    ``chi`` runs unchecked unless ``checked``."""
    share, lam_eff = _thinning(params, P_O_prev, dB, dS, dC)
    rho = slot_success_prob(params, lam_eff)

    slot = np.stack([rho, dS * rho, dC * rho])
    q = 1.0 - slot
    chi_rho, chi_S, chi_C = chi(shape, slot) if checked else _chi_core(shape, slot, q)
    pi = dB * chi_rho + (1.0 - dB) * chi_S
    pre_pi = (1.0 - P_O_prev) * pi
    fields = {
        "rho": rho,
        "pi": pi,
        "P_O": P_O_prev + pre_pi,
        "P_O_tilde": pre_pi + P_O_prev * chi_C,
        "chi_C": chi_C,
    }
    return fields, slot, q, share


def _evaluate_grid(P_O_prev, cdf_pcl_cond, params, shape, config, dB, dS, dC):
    """Vectorized per-block evaluation pipeline over candidate arrays; the history
    enters only as ``cdf_pcl_cond``, its ``pcl_context()[0]``.

    One pass: the slot array, its complement and the regime shares come from
    the recursion, q^T is raised once for the block success 1 - q^T and
    ``_ex_term``'s closed form, and the kernels run without input checks,
    since every slot probability lies in [0, 1] by construction.
    """
    T = shape.T
    fields, slot, q, m = _recursion(P_O_prev, params, shape, dB, dS, dC)
    qT = q**T
    fresh = 1.0 - qT
    m *= fresh  # regime share * block success
    pz = m.sum(axis=0)
    valid = pz > 0.0
    pz_safe = np.where(valid, pz, 1.0)
    ex = _ex_core(slot, q, qT, fresh, T)
    theta_curr = np.where(valid, (m * ex).sum(axis=0) / pz_safe, np.nan)

    if config.cdf_mode == "indicator":
        cdf_curr = np.where(valid & (theta_curr <= config.eta_curr), pz, 0.0)
    else:
        # rank score: fraction of valid candidates this one strictly beats
        # (larger theta_curr elsewhere), so smaller latency scores higher
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
        p_scalar = (dB + (1.0 - dB) * dS) * fields["rho"]
    else:
        p_scalar = np.where(valid, (m * slot).sum(axis=0) / pz_safe, 0.0)
    return {
        **fields,
        "p_scalar": p_scalar,
        "theta_curr": theta_curr,
        "block_success_prob": pz,
        "cdf_curr": cdf_curr,
        "cdf_pcl": cdf_pcl,
        "cost": cost,
    }


def optimize_block(
    k: int,
    P_O_prev: float,
    state: HistoryState,
    params: NetworkParams,
    shape: BlockShape,
    config: OptimizerConfig,
) -> MetricsRecord:
    """Exhaustive grid scan at block k with a deterministic tie-break.

    Returns the winner's record; its ``policy`` is the chosen access policy.
    ``state`` covers blocks 1..k-1 (``HistoryState.start`` for k=1), built
    for ``shape.T``, ``config.virtual_block`` and ``config.eta_pcl``.  Its
    ``pcl_context`` is read once: the cdf is the scan's one history input,
    the mean goes straight into the record, as do the winner's peak metrics.

    Candidates within 1e-12 of the maximum cost are ties; among them the
    smallest delta_B, then the largest delta_S, then the smallest delta_C
    wins.  (Full slot access is indistinguishable from block access in the
    model, and once P_O saturates numerically the cost goes exactly flat in
    delta_S, so the slot-access side of the flat ridge is kept to preserve
    the post-transition policy.)

    ``indicator`` mode scores the grid in slices from last to first, so the
    slice in hand at the end holds the smallest delta_B; a winner outside it
    is evaluated again alone, which gives the same bits.  ``grid-rank``
    ranks each candidate against the whole grid, so it scans the grid as
    one slice.
    """
    if not 0.0 <= P_O_prev <= 1.0:  # NaN fails it too
        raise ValueError(f"P_O_prev must lie in [0, 1], got {P_O_prev}")
    if len(state) != k - 1:
        raise ValueError(f"history covers {len(state)} blocks, expected {k - 1}")
    if (state.T, state.virtual_block, state.eta_pcl) != (
        shape.T, config.virtual_block, config.eta_pcl
    ):
        raise ValueError("history state was built for another T, virtual_block or eta_pcl")
    vals = config.grid_values
    B, S, C = np.meshgrid(vals, vals, vals, indexing="ij")
    dB, dS, dC = B.ravel(), S.ravel(), C.ravel()
    cdf_pcl_cond, pcl_mean = state.pcl_context()

    def scan(part):
        return _evaluate_grid(
            P_O_prev, cdf_pcl_cond, params, shape, config, dB[part], dS[part], dC[part]
        )

    step = _SCAN_SLICE if config.cdf_mode == "indicator" else dB.size
    cost = np.empty(dB.size)
    for lo in reversed(range(0, dB.size, step)):
        fields = scan(slice(lo, lo + step))
        cost[lo : lo + step] = fields["cost"]
    ties = np.flatnonzero(cost >= cost.max() - _TIE_TOL)
    order = np.lexsort((dC[ties], -dS[ties], dB[ties]))
    best = int(ties[order[0]])
    if best >= lo + step:  # the winner's slice is gone: evaluate it alone
        lo, fields = best, scan(slice(best, best + 1))
    p_scalar = float(fields["p_scalar"][best - lo])
    theta = state.peak_metrics(p_scalar) if p_scalar > 0.0 else (math.nan, math.nan)
    return MetricsRecord(
        k, float(dB[best]), float(dS[best]), float(dC[best]),
        pcl_mean=pcl_mean, theta_pl=theta[0], theta_pa=theta[1],
        **{name: float(arr[best - lo]) for name, arr in fields.items()},
    )


def run_horizon(
    params: NetworkParams, shape: BlockShape, config: OptimizerConfig
) -> list[MetricsRecord]:
    """Optimize blocks 1..K, threading P_O and the history: one record per block."""
    records = []
    state = HistoryState.start(shape.T, config.virtual_block, config.eta_pcl)
    P_O = 0.0
    for k in range(1, config.K + 1):
        record = optimize_block(k, P_O, state, params, shape, config)
        records.append(record)
        state = state.extended(record.p_scalar, record.P_O_tilde, record.chi_C)
        P_O = record.P_O
    return records
