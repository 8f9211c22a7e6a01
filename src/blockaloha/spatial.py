"""Stochastic-geometry layer: access thinning and slot success probability.

Controllers form a homogeneous PPP of density ``lam``.  Per-block access
probabilities thin it into three transmitting populations (block access,
pre-controllability slot access, post-controllability slot access); the
conditional slot success probability of the typical link under Rayleigh
fading is a Laplace-functional closed form, cross-checked by a trapezoid
rule on the whole real line (plain ``math``, no closed-form terms) and by a
direct spatial Monte Carlo sampler.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NetworkParams",
    "AccessPolicy",
    "RegimeDensities",
    "effective_densities",
    "interference_integral",
    "interference_tail",
    "noise_exponent",
    "slot_success_prob",
    "default_disk_radius",
    "parse_power_watts",
]

# Trapezoid rule for int e^(2y/a) / (1 + e^y) dy over the real line: the
# integrand is analytic in |Im y| < pi, so the step 2 pi^2 / 40 leaves an
# error of about e^-40; the nodes k h, |k| <= _TRAPEZOID_HALF, reach
# |y| >= 40, past which 1/(1 + e^(-|y|)) is 1 to 1e-17 and each tail of the
# sum is a geometric series.  165 nodes for every alpha > 2.
_TRAPEZOID_STEP = 2.0 * math.pi**2 / 40.0
_TRAPEZOID_HALF = math.ceil(40.0 / _TRAPEZOID_STEP)
# Terms of the outside-disk tail series: q^56 <= 2^-56 < 1.4e-17 for q <= 1/2.
_TAIL_TERMS = 57
# Largest x with exp(x) finite.
_LOG_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class NetworkParams:
    """Physical constants: density, path loss, SINR threshold, powers, link range."""

    lam: float  # controller density (m^-2)
    alpha: float  # path-loss exponent, > 2
    gamma: float  # SINR threshold (linear)
    xi: float  # transmit power (W)
    N0: float  # noise power (W)
    r0: float = 25.0  # typical controller-actuator distance (m)

    def __post_init__(self):
        for name in ("lam", "alpha", "gamma", "xi", "N0", "r0"):
            val = getattr(self, name)
            if not 0.0 < val < math.inf:
                raise ValueError(f"{name} must be finite and > 0, got {val}")
        if self.alpha <= 2.0:
            raise ValueError(
                f"path-loss exponent alpha must exceed 2 (interference integral "
                f"diverges otherwise), got {self.alpha}"
            )


@dataclass(frozen=True)
class AccessPolicy:
    """Per-block access probabilities (block / pre-slot / post-slot)."""

    delta_B: float
    delta_S: float
    delta_C: float

    def __post_init__(self):
        for name in ("delta_B", "delta_S", "delta_C"):
            val = getattr(self, name)
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.delta_B, self.delta_S, self.delta_C)


@dataclass(frozen=True)
class RegimeDensities:
    """Transmitting-controller densities per access regime and their total."""

    lambda_B: float
    lambda_S: float
    lambda_C: float
    lambda_eff: float


def _thinning(params: NetworkParams, P_O_prev, dB, dS, dC):
    """(share, lambda_eff) for scalars or arrays that broadcast together: the
    controller shares transmitting by block access, by slot access before
    and after controllability, ((1-P) dB, (1-P)(1-dB) dS, P dC) at P =
    ``P_O_prev``, stacked, and lambda_eff = lam share.sum(axis=0)."""
    pre = 1.0 - P_O_prev
    share = np.stack(np.broadcast_arrays(pre * dB, pre * (1.0 - dB) * dS, P_O_prev * dC))
    return share, params.lam * share.sum(axis=0)


def effective_densities(
    params: NetworkParams, policy: AccessPolicy, P_O_prev: float
) -> RegimeDensities:
    """Thin the controller PPP into per-regime transmitting densities.

    ``P_O_prev`` is the fraction of controllers already past controllability
    at the start of the block (0 for the first block).  ``lambda_eff`` is
    the grid scan's, bit for bit.
    """
    if not 0.0 <= P_O_prev <= 1.0:
        raise ValueError(f"P_O_prev must lie in [0, 1], got {P_O_prev}")
    share, lam_eff = _thinning(params, P_O_prev, *policy.as_tuple())
    return RegimeDensities(*(params.lam * share).tolist(), float(lam_eff))


def interference_integral(params: NetworkParams, backend: str = "closed") -> float:
    """The radial interference integral I = int_0^inf g r^-a / (r0^-a + g r^-a) r dr.

    'closed' uses I = r0^2 g^(2/a) (pi/a) / sin(2 pi/a).  'quadrature'
    substitutes r = r0 g^(1/a) e^(y/a), so that
    I = r0^2 g^(2/a) (1/a) int e^(2y/a) / (1 + e^y) dy over the real line,
    and sums it with the trapezoid rule of ``_trapezoid_unit``.  Where r0^2
    overflows (r0 >= 1.341e154), r0^2 g^(2/a) is taken in logarithms, and I
    is inf where it overflows too, as in ``noise_exponent``.
    """
    a, g, r0 = params.alpha, params.gamma, params.r0
    try:
        scale = r0**2 * g ** (2.0 / a)
    except OverflowError:
        log_scale = 2.0 * math.log(r0) + 2.0 / a * math.log(g)
        scale = math.exp(log_scale) if log_scale < _LOG_MAX else math.inf
    if backend == "closed":
        # sin(2 pi/a) folded into [0, pi/2]; a - 2 is exact, so no cancellation at a -> 2
        unit = (math.pi / a) / math.sin(math.pi * min(a - 2.0, 2.0) / a)
    elif backend == "quadrature":
        unit = _trapezoid_unit(a)
    else:
        raise ValueError(f"unknown backend {backend!r}")
    return scale * unit


def _trapezoid_unit(a: float) -> float:
    """(1/a) int e^(2y/a) / (1 + e^y) dy over the real line, by the trapezoid rule.

    The nodes k h with |k| <= n are summed term by term.  Beyond them the
    integrand is e^(2y/a) on the left and e^(-(a-2)y/a) on the right, so
    each tail is a geometric series, summed in closed form with ``expm1``;
    the left one is written in x = 2h/a, where x / -expm1(-x) tends to 1
    as a grows.
    """
    h, n = _TRAPEZOID_STEP, _TRAPEZOID_HALF
    left_rate, right_rate = 2.0 / a, (a - 2.0) / a
    nodes = (k * h for k in range(-n, n + 1))
    middle = math.fsum(math.exp(left_rate * y) / (1.0 + math.exp(y)) for y in nodes)
    x = left_rate * h
    left = 0.5 * x / -math.expm1(-x) * math.exp(-(n + 1) * x)
    right = h / a * math.exp(-(n + 1) * right_rate * h) / -math.expm1(-right_rate * h)
    return h / a * middle + left + right


def interference_tail(params: NetworkParams, disk_radius: float) -> float:
    """A_out(R) = 2 pi int_R^inf g (r0/r)^a / (1 + g (r0/r)^a) r dr (m^2).

    Interferers of a PPP of density lam outside the disk of radius R
    multiply the success probability by exactly exp(-lam A_out(R)).  In
    normalized units U = R / (r0 g^(1/a)) the integral is the alternating
    series sum_k (-1)^k U^(2 - a(k+1)) / (a(k+1) - 2), whose terms shrink
    by at least q = U^-a.  R must reach U >= 2^(1/a), so that q <= 1/2:
    then ``_TAIL_TERMS`` terms reach 1e-17 of the first, and cancellation
    costs at most a factor of 3; closer in it raises ValueError.
    """
    a = params.alpha
    scale = params.r0 * params.gamma ** (1.0 / a)
    if not 0.0 < disk_radius < math.inf:
        raise ValueError(f"disk_radius must be finite and > 0, got {disk_radius}")
    lowest = 2.0 ** (1.0 / a) * scale
    if disk_radius < lowest:
        raise ValueError(
            f"disk_radius {disk_radius} is below 2^(1/alpha) r0 gamma^(1/alpha) = {lowest}, "
            "where the tail series stops converging fast"
        )
    U = disk_radius / scale
    lead, q = U ** (2.0 - a), U**-a
    terms = (lead * (-q) ** k / (a * (k + 1) - 2.0) for k in range(_TAIL_TERMS))
    try:
        return 2.0 * math.pi * scale**2 * math.fsum(terms)
    except OverflowError:  # scale^2 overflows: inf, as interference_integral is there
        return math.inf


def noise_exponent(params: NetworkParams) -> float:
    """s N0 = g N0 r0^a / xi, the exponent of the Rayleigh noise term.

    Where r0^a alone overflows, the product is taken in logarithms, and it
    is inf where it overflows too: the success probability then rounds to 0.
    """
    try:
        return params.gamma * params.N0 * params.r0**params.alpha / params.xi
    except OverflowError:
        log_s = (math.log(params.gamma) + math.log(params.N0) - math.log(params.xi)
                 + params.alpha * math.log(params.r0))
        return math.exp(log_s) if log_s < _LOG_MAX else math.inf


def slot_success_prob(
    params: NetworkParams, lambda_eff: float | np.ndarray, backend: str = "closed"
) -> float | np.ndarray:
    """Conditional slot success probability of the typical link at a scalar
    (a float back) or an array of effective densities.

    Product of the noise-limited Rayleigh term exp(-g N0 r0^a / xi) and the
    interference term exp(-b lambda_eff), b = 2 pi I, which is 1 at
    lambda_eff = 0 even where b is inf; a product past the float range is
    inf, so the success probability is 0.  This is the grid scan's rho.
    Both backends of the interference integral agree to better than 1e-9
    relative.
    """
    lam = np.asarray(lambda_eff, dtype=float)
    if not (lam >= 0.0).all():  # NaN fails it too
        raise ValueError(f"lambda_eff must be >= 0, got {lam[~(lam >= 0.0)][0]}")
    b = 2.0 * math.pi * interference_integral(params, backend)
    # b * 0 is nan where b is inf, and b * lam may pass the float range
    with np.errstate(invalid="ignore", over="ignore"):
        rho = np.where(lam > 0.0, b * lam, 0.0)
    np.exp(np.subtract(-noise_exponent(params), rho, out=rho), out=rho)
    return float(rho) if rho.ndim == 0 else rho


def default_disk_radius(lambda_eff: float) -> float:
    """Simulation disk radius holding about 10,000 expected interferers, at most 5000 m.

    The spatial tier adds the field beyond the disk exactly, so the radius
    sets only its cost.  The cap binds for lambda_eff up to 4e-4/pi (about
    1.27e-4): at 1e-4 a slot expects 7,854 interferers, about 280 times the
    28 on ``validate``'s 300 m disk.  Callers who care about cost pass
    ``disk_radius``.
    """
    if not lambda_eff >= 0.0:  # NaN fails it too
        raise ValueError(f"lambda_eff must be >= 0, got {lambda_eff}")
    if lambda_eff == 0.0:
        return 5000.0
    return min(5000.0, 10.0 / math.sqrt(math.pi * lambda_eff * 0.01))


def parse_power_watts(text: str | float) -> float:
    """Parse a power value: plain numbers are watts; '40dBm'/'10W' suffixes allowed."""
    if isinstance(text, (int, float)):
        return float(text)
    s = text.strip().replace(" ", "")
    low = s.lower()
    if low.endswith("dbm"):
        return 10.0 ** (float(s[:-3]) / 10.0) * 1e-3
    if low.endswith("w"):
        return float(s[:-1])
    return float(s)
