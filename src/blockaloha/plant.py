"""Desk-scale LTI control loop exercised block by block.

The controller senses the state at the block boundary, computes a
v-step input sequence through the pseudo-inverse of the controllability
matrix, retransmits on failure, and hands over to pre-stored steady-state
inputs once the estimate reaches the target.  All in-block dynamics act on
the controller's noise-free estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .runlength import _check_count

__all__ = [
    "PlantModel",
    "SlotRecord",
    "BlockTrace",
    "controllability_matrix",
    "controllability_index",
    "estimate_state",
    "control_sequence",
    "run_block",
    "default_plant",
]

_SVD_CUTOFF = 1e-10


def controllability_matrix(A: np.ndarray, B: np.ndarray, v: int) -> np.ndarray:
    """[A^(v-1) B, A^(v-2) B, ..., B], shape (n, m v)."""
    blocks = []
    power = np.eye(A.shape[0])
    for _ in range(v):
        blocks.append(power @ B)
        power = power @ A
    return np.hstack(blocks[::-1])


def _full_row_rank(psi: np.ndarray) -> bool:
    """Full row rank: as many singular values above _SVD_CUTOFF x the largest as rows."""
    s = np.linalg.svd(psi, compute_uv=False)
    return bool(s.size and s[0] > 0.0 and np.sum(s > _SVD_CUTOFF * s[0]) == psi.shape[0])


def controllability_index(A: np.ndarray, B: np.ndarray) -> int | None:
    """Smallest v with rank [A^(v-1)B ... B] = n, or None if uncontrollable."""
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    for v in range(1, A.shape[0] + 1):
        if _full_row_rank(controllability_matrix(A, B, v)):
            return v
    return None


@dataclass(frozen=True)
class PlantModel:
    """Discrete-time LTI plant with its target state and controllability index.

    Rejects (A, B, v) whose controllability matrix is row-rank deficient.
    """

    A: np.ndarray
    B: np.ndarray
    x_des: np.ndarray
    v: int
    # controllability matrix [A^(v-1) B ... B], built once by the rank check
    psi: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        B = np.atleast_2d(np.asarray(self.B, dtype=float))
        x_des = np.asarray(self.x_des, dtype=float).reshape(-1)
        n = A.shape[0]
        if A.shape != (n, n):
            raise ValueError(f"A must be square, got {A.shape}")
        if B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got {B.shape}")
        if x_des.shape != (n,):
            raise ValueError(f"x_des must have length {n}")
        _check_count(self.v, "controllability index v")
        psi = controllability_matrix(A, B, self.v)
        if not _full_row_rank(psi):
            raise ValueError(
                f"controllability matrix with v={self.v} is rank deficient; "
                "the pair (A, B) cannot reach an arbitrary state in v steps"
            )
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "x_des", x_des)
        object.__setattr__(self, "psi", psi)

    @property
    def n(self) -> int:
        return self.A.shape[0]

    @property
    def m(self) -> int:
        return self.B.shape[1]

    @cached_property
    def psi_pinv(self) -> np.ndarray:
        return np.linalg.pinv(self.psi, rcond=_SVD_CUTOFF)

    @cached_property
    def _A_to_v(self) -> np.ndarray:
        return np.linalg.matrix_power(self.A, self.v)

    def steady_state_input(self) -> np.ndarray:
        """Input retaining x_des: solves (I - A) x_des = B u, least squares.

        Exact retention only when the system is consistent; the residual is
        the per-step drift the actuator accepts during the dummy phase.
        """
        target = (np.eye(self.n) - self.A) @ self.x_des
        u, *_ = np.linalg.lstsq(self.B, target, rcond=None)
        return u

    def steady_state_residual(self) -> float:
        """Max-norm drift per dummy slot under the steady-state input."""
        u = self.steady_state_input()
        drift = (np.eye(self.n) - self.A) @ self.x_des - self.B @ u
        return float(np.max(np.abs(drift)))


def estimate_state(model: PlantModel, x_sensed, steps) -> np.ndarray:
    """State estimate after replaying (input, ack) pairs from the sensed state.

    ``steps`` lists one (u, g) pair per elapsed slot since the block
    boundary; failed slots (g = 0) contribute pure drift.
    """
    x = np.asarray(x_sensed, dtype=float).reshape(-1).copy()
    for u, g in steps:
        x = model.A @ x
        if g:
            x = x + model.B @ np.asarray(u, dtype=float).reshape(-1)
    return x


def control_sequence(model: PlantModel, x_hat) -> np.ndarray:
    """The v inputs driving the estimate to x_des, shape (v, m).

    Stacked solution psi_pinv (x_des - A^v x_hat); the first row is
    transmitted first.
    """
    x_hat = np.asarray(x_hat, dtype=float).reshape(-1)
    gap = model.x_des - model._A_to_v @ x_hat
    stacked = model.psi_pinv @ gap
    return stacked.reshape(model.v, model.m)


@dataclass(frozen=True)
class SlotRecord:
    """One slot of a block replay."""

    slot: int  # 0-based within the block
    phase: str  # 'control' or 'dummy'
    g: int
    u: np.ndarray | None  # input applied at the actuator this slot
    x_hat: np.ndarray  # estimate after the slot


@dataclass
class BlockTrace:
    """Replay of one block: per-slot records and the controllability outcome."""

    records: list[SlotRecord] = field(default_factory=list)
    controllable: bool = False
    target_slot: int | None = None  # 0-based slot after which x_hat = x_des

    @property
    def x_final(self) -> np.ndarray:
        return self.records[-1].x_hat


def run_block(model: PlantModel, shape, x_sensed, flags) -> BlockTrace:
    """Replay the in-block protocol against a given success-flag sequence.

    Transmits the current v-sequence until a failure (recompute from the
    drifted estimate at the next slot) or v consecutive successes (switch
    to dummy packets while the actuator applies the steady-state input).
    The controllable outcome is equivalent to the flags containing a run of
    at least v successes.
    """
    if shape.v != model.v:
        raise ValueError(
            f"block shape v={shape.v} does not match plant controllability index v={model.v}"
        )
    flags = [int(bool(g)) for g in flags]
    if len(flags) != shape.T:
        raise ValueError(f"expected {shape.T} success flags, got {len(flags)}")
    x_hat = np.asarray(x_sensed, dtype=float).reshape(-1).copy()
    u_bar = model.steady_state_input()
    seq = control_sequence(model, x_hat)
    pointer = 0
    trace = BlockTrace()
    for s, g in enumerate(flags):
        if trace.controllable:
            # the actuator applies the steady-state input whatever the flag
            x_hat = estimate_state(model, x_hat, [(u_bar, 1)])
            trace.records.append(SlotRecord(s, "dummy", g, u_bar.copy(), x_hat))
            continue
        u = seq[pointer]
        x_hat = estimate_state(model, x_hat, [(u, g)])
        if g:
            pointer += 1
            if pointer == model.v:
                trace.controllable = True
                trace.target_slot = s
        trace.records.append(SlotRecord(s, "control", g, u.copy() if g else None, x_hat))
        if not g:
            seq = control_sequence(model, x_hat)
            pointer = 0
    return trace


def default_plant(v: int = 2) -> PlantModel:
    """Integrator-chain demo plant with controllability index v (n = v, m = 1).

    v = 2 is the double integrator, the smallest nontrivial controllable
    pair.  The target state (1, 0, ..., 0) is consistent with a zero
    steady-state input, so the dummy phase retains it exactly.  The demo
    plant exists for v <= 8: from v = 9 on the smallest singular value of
    its controllability matrix falls below the rank cutoff, and
    ``PlantModel`` rejects it.
    """
    _check_count(v, "v")
    A = np.eye(v) + 0.1 * np.eye(v, k=1)
    B = np.zeros((v, 1))
    B[-1, 0] = 1.0
    x_des = np.zeros(v)
    x_des[0] = 1.0
    return PlantModel(A=A, B=B, x_des=x_des, v=v)
