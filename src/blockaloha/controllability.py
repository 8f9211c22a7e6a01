"""First-time block controllability of the typical controller.

The first-time probability mixes block access and slot access.  The
cumulative probability (absorbing at 1) and the instantaneous per-block
probability, which adds the post-controllability population, are applied
over candidate arrays in the optimizer's grid scan.
"""

from __future__ import annotations

import numpy as np

from .runlength import BlockShape, chi
from .spatial import AccessPolicy

__all__ = ["first_time_controllability"]


def first_time_controllability(shape: BlockShape, policy: AccessPolicy, rho_k):
    """P(block k is the first controllable one | not yet controllable).

    Block-access controllers see per-slot success rho, slot-access ones
    delta_S * rho:  pi = dB chi(rho) + (1 - dB) chi(dS rho).
    """
    return policy.delta_B * chi(shape, rho_k) + (1.0 - policy.delta_B) * chi(
        shape, policy.delta_S * np.asarray(rho_k, dtype=float)
    )
