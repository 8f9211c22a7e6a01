import math
import warnings

import numpy as np
import pytest

from blockaloha import (
    AccessPolicy,
    BlockShape,
    NetworkParams,
    block_recursion,
    default_disk_radius,
    effective_densities,
    episode_rng,
    interference_integral,
    parse_power_watts,
    slot_success_prob,
)
from blockaloha.spatial import _thinning, interference_tail, noise_exponent
from oracles import sample_sinr_success

DEFAULTS = dict(lam=1e-4, alpha=3.0, gamma=0.1, xi=10.0, N0=1e-17, r0=25.0)


def params(**over):
    kw = dict(DEFAULTS)
    kw.update(over)
    return NetworkParams(**kw)


def test_network_params_validation():
    with pytest.raises(ValueError):
        params(alpha=2.0)  # integral diverges
    with pytest.raises(ValueError):
        params(lam=0.0)
    with pytest.raises(ValueError):
        params(gamma=-0.1)


@pytest.mark.parametrize("name", ["lam", "alpha", "gamma", "xi", "N0", "r0"])
@pytest.mark.parametrize("bad", [math.inf, math.nan, 0.0, -1.0])
def test_network_params_reject_non_finite_or_non_positive(name, bad):
    with pytest.raises(ValueError, match=name):
        params(**{name: bad})


def test_access_policy_validation():
    with pytest.raises(ValueError):
        AccessPolicy(1.2, 0.0, 0.0)
    with pytest.raises(ValueError):
        AccessPolicy(0.5, -0.1, 0.0)


def test_effective_densities_examples():
    p = params()
    d = effective_densities(p, AccessPolicy(1.0, 0.0, 0.3), 0.0)
    assert (d.lambda_B, d.lambda_S, d.lambda_C) == (1e-4, 0.0, 0.0)
    d = effective_densities(p, AccessPolicy(0.5, 0.5, 0.5), 0.0)
    assert d.lambda_B == pytest.approx(5e-5)
    assert d.lambda_S == pytest.approx(2.5e-5)
    assert d.lambda_C == 0.0
    d = effective_densities(p, AccessPolicy(0.5, 0.5, 0.4), 1.0)
    assert (d.lambda_B, d.lambda_S) == (0.0, 0.0)
    assert d.lambda_C == pytest.approx(4e-5)


def test_effective_densities_sum_and_bounds():
    p = params()
    rng = np.random.default_rng(7)
    for _ in range(200):
        pol = AccessPolicy(*rng.random(3))
        po = float(rng.random())
        d = effective_densities(p, pol, po)
        assert d.lambda_eff == pytest.approx(d.lambda_B + d.lambda_S + d.lambda_C)
        assert 0.0 <= d.lambda_eff <= p.lam + 1e-18


def test_effective_densities_domain_error():
    with pytest.raises(ValueError):
        effective_densities(params(), AccessPolicy(0.5, 0.5, 0.5), 1.5)


def test_interference_integral_closed_form_value():
    # alpha=3, gamma=0.1, r0=25: I = r0^2 * gamma^(2/3) * (pi/3)/sin(2pi/3)
    expected = 625.0 * 0.1 ** (2.0 / 3.0) * (math.pi / 3.0) / math.sin(2.0 * math.pi / 3.0)
    assert interference_integral(params()) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("alpha", [2.0000001, 2.05, 2.5, 3.0, 6.0, 3879.0, 1e6])
def test_closed_form_matches_mpmath(alpha):
    # sin(2 pi/a) is taken as sin(pi (a-2)/a) below a = 4: near a = 2 the
    # plain form cancels (1.7e-10 off at a = 2.0000001), and the unfolded
    # one loses digits at large a (1.4e-13 off at a = 3879)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        unit = (mpmath.pi / a) / mpmath.sin(2 * mpmath.pi / a)
        expected = float(mpmath.mpf(25.0) ** 2 * mpmath.mpf(0.1) ** (2 / a) * unit)
    assert interference_integral(params(alpha=alpha)) == pytest.approx(expected, rel=1e-15,
                                                                        abs=0.0)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 3.5, 4.0])
def test_backends_agree(alpha):
    p = params(alpha=alpha)
    for lam_eff in (0.0, 5e-5, 1e-4, 3e-4):
        a = slot_success_prob(p, lam_eff)
        b = slot_success_prob(p, lam_eff, backend="quadrature")
        assert abs(a - b) / a <= 1e-9


# alpha from near 2, where the right tail decays slowly, to where the left
# tail is almost flat and the mass of u / (1 + u^a) sits below u = 1
QUADRATURE_ALPHAS = [2.05, 2.5, 3.0, 3.5, 4.0, 6.0, 50.0, 300.0, 1e6, 1e300]


@pytest.mark.parametrize("alpha", QUADRATURE_ALPHAS)
@pytest.mark.parametrize("r0", [25.0, 0.5])
def test_quadrature_matches_mpmath(alpha, r0):
    mpmath = pytest.importorskip("mpmath")
    p = params(alpha=alpha, r0=r0)
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        unit = (mpmath.pi / a) / mpmath.sin(2 * mpmath.pi / a)
        expected = float(mpmath.mpf(r0) ** 2 * mpmath.mpf(0.1) ** (2 / a) * unit)
    got = interference_integral(p, backend="quadrature")
    assert got == pytest.approx(expected, rel=1e-13, abs=0.0)


def test_quadrature_node_count_does_not_depend_on_alpha(monkeypatch):
    calls = []
    exp = math.exp
    monkeypatch.setattr(math, "exp", lambda x: calls.append(x) or exp(x))
    counts = set()
    for alpha in QUADRATURE_ALPHAS:
        p = params(alpha=alpha)
        calls.clear()
        interference_integral(p, backend="quadrature")
        counts.add(len(calls))
    assert counts == {2 * 165 + 2}  # two per node, one per tail


def test_backends_agree_property():
    hypothesis = pytest.importorskip("hypothesis")

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(alpha=hypothesis.strategies.floats(min_value=2.05, max_value=1e6))
    def agree(alpha):
        p = params(alpha=alpha)
        closed = interference_integral(p)
        assert interference_integral(p, backend="quadrature") == pytest.approx(
            closed, rel=1e-13, abs=0.0)

    agree()


def test_interference_free_limit():
    p = params()
    expected = math.exp(-p.gamma * p.N0 * p.r0**p.alpha / p.xi)
    assert slot_success_prob(p, 0.0) == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("alpha", [2.5, 3.0, 4.0, 6.0])
def test_interference_tail_matches_mpmath(alpha):
    mpmath = pytest.importorskip("mpmath")
    p = params(alpha=alpha)
    scale = p.r0 * p.gamma ** (1.0 / alpha)
    lowest = 2.0 ** (1.0 / alpha)
    with mpmath.workdps(50):
        a = mpmath.mpf(alpha)
        for U in (lowest, 1.5, 2.0, 10.0, 129.3, 1e3, 1e4):
            U = max(U, lowest)
            tail = mpmath.quad(lambda u: u / (1 + u**a), [U, 2 * U, mpmath.inf])
            expected = float(2 * mpmath.pi * mpmath.mpf(scale) ** 2 * tail)
            got = interference_tail(p, U * scale)
            assert got == pytest.approx(expected, rel=1e-13, abs=0.0), (U, got, expected)
    # below U = 2^(1/alpha) the series converges too slowly, and a radius must be finite
    for U in (lowest * (1.0 - 1e-9), 1.0, 0.5):
        with pytest.raises(ValueError):
            interference_tail(p, U * scale)
    for bad in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            interference_tail(p, bad)


def test_noise_exponent():
    p = params()
    assert noise_exponent(p) == p.gamma * p.N0 * p.r0**p.alpha / p.xi  # bit for bit
    # r0^alpha overflows: the exponent is inf and the success probability 0
    big = params(alpha=300.0)
    assert noise_exponent(big) == math.inf
    assert slot_success_prob(big, 1e-4) == 0.0
    assert slot_success_prob(big, 1e-4, backend="quadrature") == 0.0
    one = [np.array([1.0]), np.array([0.0]), np.array([0.0])]
    assert block_recursion(0.0, big, BlockShape(5, 2), *one)["rho"][0] == 0.0
    # r0^alpha overflows, but the product does not: 0.1 * 1e-315 * 10^310 / 10
    tiny_noise = params(r0=10.0, alpha=310.0, N0=1e-315)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        expected = float(mpmath.mpf(0.1) * mpmath.mpf(1e-315) * mpmath.mpf(10) ** 310 / 10)
    assert noise_exponent(tiny_noise) == pytest.approx(expected, rel=1e-12)


def test_interference_integral_where_r0_squared_overflows():
    # r0^2 overflows from r0 = 1.341e154: the scale is taken in logarithms,
    # so I keeps its r0^2 law while r0^2 g^(2/a) fits a float
    for backend in ("closed", "quadrature"):
        near = interference_integral(params(r0=1.4e154), backend)
        assert near == pytest.approx(4.0 * interference_integral(params(r0=0.7e154), backend),
                                     rel=1e-13)
    # beyond, I is inf; where no interferer transmits its exponent is 0, so
    # the success probability is the noise term exp(-1) alone, not nan
    far = params(r0=1e200, alpha=2.1, xi=1e119, N0=1e-300)
    assert noise_exponent(far) == pytest.approx(1.0, rel=1e-12)
    for backend in ("closed", "quadrature"):
        assert interference_integral(far, backend) == math.inf
        assert slot_success_prob(far, 0.0, backend) == math.exp(-noise_exponent(far))
        assert slot_success_prob(far, 1e-4, backend) == 0.0
    # the tail's (r0 g^(1/a))^2 overflows too: A_out is inf, not an OverflowError
    assert interference_tail(params(r0=1e200), 1e201) == math.inf


def test_slot_success_monotonicities():
    p = params()
    lams = np.linspace(0.0, 5e-4, 20)
    vals = [slot_success_prob(p, float(l)) for l in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    gammas = np.linspace(0.05, 2.0, 15)
    vals = [slot_success_prob(params(gamma=float(g)), 1e-4) for g in gammas]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    n0s = np.geomspace(1e-18, 1e-10, 10)
    vals = [slot_success_prob(params(N0=float(n)), 1e-4) for n in n0s]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    xis = np.geomspace(1e-3, 10.0, 10)
    vals = [slot_success_prob(params(xi=float(x)), 1e-4) for x in xis]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_slot_success_rejects_negative_density():
    with pytest.raises(ValueError):
        slot_success_prob(params(), -1e-5)
    # a NaN density once gave the interference-free value 0.9999999999999984
    for backend in ("closed", "quadrature"):
        with pytest.raises(ValueError, match="lambda_eff"):
            slot_success_prob(params(), math.nan, backend)
    # one bad entry of an array is enough
    for bad in (-1e-5, math.nan):
        with pytest.raises(ValueError, match="lambda_eff"):
            slot_success_prob(params(), np.array([0.0, 1e-4, bad]))


def test_slot_success_prob_is_the_scans_rho_property():
    # the scan's rho, the array call and scalar calls share one formula, bit for
    # bit; per candidate, effective_densities holds lam times the scan's shares
    # and the scan's lambda_eff, so the spatial tier's rho is the scan's
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))
    net = st.fixed_dictionaries({
        "lam": st.floats(1e-6, 1e-2), "alpha": st.floats(2.05, 8.0),
        "gamma": st.floats(1e-3, 10.0), "xi": st.floats(1e-3, 100.0),
        "N0": st.floats(1e-20, 1e-8), "r0": st.floats(1.0, 500.0),
    })

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(net=net, P_prev=unit,
                      deltas=st.lists(st.tuples(unit, unit, unit), min_size=1, max_size=20))
    def holds(net, P_prev, deltas):
        p = NetworkParams(**net)
        dB, dS, dC = np.array(deltas).T
        share, lam_eff = _thinning(p, P_prev, dB, dS, dC)
        rho = block_recursion(P_prev, p, BlockShape(5, 2), dB, dS, dC)["rho"]
        assert rho.tobytes() == slot_success_prob(p, lam_eff).tobytes()
        scalars = [slot_success_prob(p, float(lam)) for lam in lam_eff]
        assert all(type(x) is float for x in scalars)
        assert rho.tolist() == scalars
        for i, policy in enumerate(deltas):
            d = effective_densities(p, AccessPolicy(*policy), P_prev)
            assert [d.lambda_B, d.lambda_S, d.lambda_C] == (p.lam * share[:, i]).tolist()
            assert d.lambda_eff.hex() == float(lam_eff[i]).hex()
            assert slot_success_prob(p, d.lambda_eff).hex() == float(rho[i]).hex()

    holds()


def test_slot_success_prob_array_where_the_interference_integral_overflows():
    # 2 pi I is inf: no interference term where lambda_eff = 0, 0 elsewhere,
    # and no inf * 0 warning on the way
    far = params(r0=1e200, alpha=2.1, xi=1e119, N0=1e-300)
    quiet = np.exp(-noise_exponent(far))
    assert 0.0 < quiet < 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for backend in ("closed", "quadrature"):
            rho = slot_success_prob(far, np.array([0.0, 1e-4, 0.0, 2e-3]), backend)
            assert rho.tolist() == [quiet, 0.0, quiet, 0.0]


def test_default_disk_radius_rejects_negative_and_nan_density():
    # both once gave the 5000 m cap
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="lambda_eff"):
            default_disk_radius(bad)


def test_default_disk_radius():
    # 10,000 expected interferers, capped at 5000 m (7,854 at lambda = 1e-4)
    assert default_disk_radius(1e-4) == 5000.0
    assert default_disk_radius(0.0) == 5000.0
    for lam in (1.3e-4, 1e-2):
        assert default_disk_radius(lam) == 10.0 / math.sqrt(math.pi * lam * 0.01)
        assert lam * math.pi * default_disk_radius(lam) ** 2 == pytest.approx(1e4, rel=1e-12)


def test_parse_power_watts():
    assert parse_power_watts("40dBm") == pytest.approx(10.0)
    assert parse_power_watts("40 dBm") == pytest.approx(10.0)
    assert parse_power_watts("0dBm") == pytest.approx(1e-3)
    assert parse_power_watts("10W") == 10.0
    assert parse_power_watts("1e-17") == 1e-17
    assert parse_power_watts(2.5) == 2.5


def test_sample_sinr_noise_free_limit():
    # no interferers and negligible noise: success almost surely
    p = params(N0=1e-30)
    rng = episode_rng(0)
    hits = sum(sample_sinr_success(p, 0.0, rng, disk_radius=100.0) for _ in range(500))
    assert hits == 500


def test_sample_sinr_huge_threshold():
    p = params(gamma=1e12)
    rng = episode_rng(1)
    hits = sum(sample_sinr_success(p, 1e-4, rng, disk_radius=500.0) for _ in range(200))
    assert hits == 0


def test_sample_sinr_matches_analytic():
    # modest disk: truncation bias ~6e-4 at these parameters, well under 3 sigma
    p = params()
    lam_eff = 1e-4
    analytic = slot_success_prob(p, lam_eff)
    rng = episode_rng(42)
    n = 4000
    hits = sum(sample_sinr_success(p, lam_eff, rng, disk_radius=1500.0) for _ in range(n))
    rate = hits / n
    se = math.sqrt(analytic * (1 - analytic) / n)
    assert abs(rate - analytic) < 3 * se + 1e-3
