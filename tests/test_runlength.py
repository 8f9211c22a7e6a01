import itertools
import math
import warnings

import numpy as np
import pytest

from blockaloha import BlockShape, chi, chi_bruteforce
from blockaloha.latency import _ex_term
from blockaloha.runlength import run_probability
from oracles import chi_by_enumeration, chi_mpmath, max_run, truncated_geometric_mean


def test_block_shape_rejects_bad_dimensions():
    with pytest.raises(ValueError):
        BlockShape(T=2, v=3)
    with pytest.raises(ValueError):
        BlockShape(T=0, v=1)
    with pytest.raises(ValueError):
        BlockShape(T=3, v=0)


@pytest.mark.parametrize("T, v", [(5.5, 2), (5, 2.5), (5.0, 2), ("5", 2), (None, 2)])
def test_block_shape_rejects_non_integer_counts(T, v):
    # BlockShape(5.5, 2) once constructed, and chi then failed with a TypeError
    with pytest.raises(ValueError, match="must be an integer"):
        BlockShape(T, v)


def test_block_shape_takes_numpy_integers():
    shape = BlockShape(np.int64(5), np.int32(2))
    assert chi(shape, 0.5) == chi(BlockShape(5, 2), 0.5)


def test_chi_rejects_out_of_range_x():
    shape = BlockShape(5, 2)
    with pytest.raises(ValueError):
        chi(shape, -0.1)
    with pytest.raises(ValueError):
        chi(shape, 1.1)


@pytest.mark.parametrize("x", np.linspace(0.0, 1.0, 11))
def test_chi_T2_v2_is_x_squared(x):
    assert chi(BlockShape(2, 2), float(x)) == pytest.approx(x * x, abs=1e-15)


def test_chi_boundary_values():
    for T in (1, 3, 7):
        for v in range(1, T + 1):
            shape = BlockShape(T, v)
            assert chi(shape, 1.0) == 1.0
            assert chi(shape, 0.0) == 0.0


def test_chi_frozen_examples():
    # enumeration-derived: closed forms 3x^3 - 2x^4 and 2x^2 - x^3 at x = 0.5
    assert chi(BlockShape(5, 3), 0.5) == pytest.approx(0.25, abs=1e-15)
    assert chi(BlockShape(3, 2), 0.5) == pytest.approx(0.375, abs=1e-15)


def test_chi_v_equals_T_is_x_to_T():
    for T in (1, 2, 5, 9):
        for x in (0.2, 0.7, 1.0):
            assert chi(BlockShape(T, T), x) == pytest.approx(x**T, abs=1e-14)


def test_chi_matches_bruteforce_small_grid():
    xs = np.linspace(0.0, 1.0, 21)
    for T in range(1, 10):
        for v in range(1, T + 1):
            shape = BlockShape(T, v)
            for x in xs:
                assert abs(chi(shape, float(x)) - chi_bruteforce(shape, float(x))) <= 1e-12


def test_bruteforce_matches_direct_enumeration():
    for T, v, x in [(4, 2, 0.3), (6, 3, 0.65), (5, 5, 0.9)]:
        assert chi_bruteforce(BlockShape(T, v), x) == pytest.approx(
            chi_by_enumeration(T, v, x), abs=1e-14
        )


def test_bruteforce_trivials():
    assert chi_bruteforce(BlockShape(2, 2), 0.3) == pytest.approx(0.09, abs=1e-15)
    assert chi_bruteforce(BlockShape(1, 1), 0.7) == pytest.approx(0.7, abs=1e-15)
    assert chi_bruteforce(BlockShape(5, 3), 0.5) == pytest.approx(0.25, abs=1e-15)


def test_bruteforce_rejects_large_T():
    with pytest.raises(ValueError):
        chi_bruteforce(BlockShape(25, 3), 0.5)


def test_chi_monotone_in_x():
    xs = np.linspace(0.0, 1.0, 201)
    for T, v in [(5, 2), (8, 3), (6, 6)]:
        vals = chi(BlockShape(T, v), xs)
        assert np.all(np.diff(vals) >= -1e-12)


def test_chi_monotone_in_v_and_T():
    for x in (0.2, 0.5, 0.8):
        for T in (4, 7):
            vals = [chi(BlockShape(T, v), x) for v in range(1, T + 1)]
            assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))
        for v in (2, 3):
            vals = [chi(BlockShape(T, v), x) for T in range(v, 11)]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_chi_clamped_to_unit_interval():
    xs = np.linspace(0.0, 1.0, 401)
    for T, v in [(12, 2), (9, 1)]:
        vals = chi(BlockShape(T, v), xs)
        assert np.all(vals >= 0.0) and np.all(vals <= 1.0)


@pytest.mark.parametrize("T, v", [(200, 2), (500, 5), (1000, 5)])
def test_chi_matches_the_run_length_chain_at_large_T(T, v):
    # the alternating sum in floats is off by up to 1.3e-7, 1.6e-6 and 1.0 here
    xs = np.linspace(0.01, 0.99, 50)
    want = run_probability(np.broadcast_to(xs[:, None], (xs.size, T)), v)
    np.testing.assert_allclose(chi(BlockShape(T, v), xs), want, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("T", [1480, 2000])
def test_chi_matches_the_chain_where_binomials_pass_float_range(T):
    # comb(T - l, l - 1) overflows a float from T = 1,484 at v = 1, where the
    # alternating sum could not be evaluated in floats; the recursion takes
    # no binomial and may raise no error or warning there
    xs = np.linspace(0.0, 1.0, 41)
    want = run_probability(np.broadcast_to(xs[:, None], (xs.size, T)), 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = chi(BlockShape(T, 1), xs)
        scalar = chi(BlockShape(T, 1), 0.3)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    assert abs(scalar - float(run_probability(np.full(T, 0.3), 1))) <= 1e-12


def test_chi_is_a_monotone_probability_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=150, deadline=None)
    @hypothesis.given(T=st.integers(1, 1000), data=st.data())
    def holds(T, data):
        # short runs in long blocks take the longest recursions
        v = data.draw(st.one_of(st.integers(1, min(T, 8)), st.integers(1, T)), label="v")
        lo = data.draw(st.floats(0.0, 1.0), label="lo")
        hi = data.draw(st.floats(lo, 1.0), label="hi")
        vals = chi(BlockShape(T, v), np.linspace(lo, hi, 64))
        assert ((vals >= 0.0) & (vals <= 1.0)).all()
        assert (np.diff(vals) >= -1e-12).all()

    holds()


def test_chi_matches_the_exact_sum_property():
    # every term of the recursion is >= 0, so it loses at most an ulp or so
    # per slot; within (T+1) 2^-52 of the exact value, the cap at 1 removes
    # rounding only
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    unit = st.one_of(st.floats(0.0, 1.0), st.floats(-8.0, 0.0).map(lambda e: 10.0**e),
                     st.floats(0.0, 1e-8).map(lambda d: 1.0 - d))

    @hypothesis.settings(max_examples=60, deadline=None)
    @hypothesis.given(T=st.integers(1, 3000), data=st.data())
    def holds(T, data):
        v = data.draw(st.one_of(st.integers(1, min(T, 8)), st.integers(1, T)), label="v")
        xs = data.draw(st.lists(unit, min_size=1, max_size=3), label="xs")
        got = chi(BlockShape(T, v), np.array(xs))
        want = np.array([chi_mpmath(T, v, x) for x in xs])
        assert (np.abs(got - want) <= (T + 1) * 2.0**-52).all(), (got, want)

    holds()
    # points where the recursion passes 1 before the cap, by 16 and 248 ulps,
    # and a block long enough that the alternating sum's binomials overflow
    for T, v, x in [(3000, 40, 0.9999774425), (3000, 1000, 0.99999999254935), (2000, 1, 1e-3)]:
        assert abs(chi(BlockShape(T, v), x) - chi_mpmath(T, v, x)) <= (T + 1) * 2.0**-52


@pytest.mark.parametrize("T", range(1, 9))
def test_run_probability_matches_enumeration(T):
    # unequal slot probabilities: weight every bit string by its own product
    p = np.random.default_rng(T).random((3, T))
    p[0, 0], p[1, -1] = 0.0, 1.0
    for v in range(1, T + 1):
        expected = np.zeros(3)
        for bits in itertools.product((0, 1), repeat=T):
            if max_run(bits) >= v:
                expected += np.prod(np.where(bits, p, 1.0 - p), axis=1)
        np.testing.assert_allclose(run_probability(p, v), expected, rtol=1e-13, atol=1e-16)


def test_run_probability_with_equal_slots_is_chi():
    xs = np.linspace(0.0, 1.0, 11)
    for T, v in [(1, 1), (5, 2), (12, 3), (40, 6)]:
        got = run_probability(np.repeat(xs[:, None], T, axis=1), v)
        np.testing.assert_allclose(got, chi(BlockShape(T, v), xs), rtol=1e-12, atol=1e-14)


@pytest.mark.parametrize("p, v", [([0.5, math.nan], 1), ([0.5, 1.2], 1), ([-0.1], 1),
                                  ([0.5, 0.5], 0), (0.5, 1), ([0.5, 0.5], 2.5),
                                  ([0.5, 0.5], 2.0), ([0.5, 0.5], "2"), ([0.5, 0.5], None)])
def test_run_probability_rejects_bad_input(p, v):
    with pytest.raises(ValueError):
        run_probability(p, v)


def test_chi_array_matches_scalar():
    xs = np.linspace(0.0, 1.0, 17)
    shape = BlockShape(7, 3)
    arr = chi(shape, xs)
    assert arr.shape == xs.shape
    for x, val in zip(xs, arr):
        assert val == chi(shape, float(x))


def test_truncated_geometric_mean_examples():
    assert truncated_geometric_mean(1.0, 7) == 0.0
    assert truncated_geometric_mean(0.5, 1) == 0.0
    # direct series: sum n q^n p / (1 - q^T) over n = 0..T-1
    direct = sum(n * 0.5**n * 0.5 for n in range(5)) / (1 - 0.5**5)
    assert truncated_geometric_mean(0.5, 5) == pytest.approx(26 / 31, abs=1e-15)
    assert truncated_geometric_mean(0.5, 5) == pytest.approx(direct, abs=1e-15)


def test_truncated_geometric_mean_domain_error():
    with pytest.raises(ValueError):
        truncated_geometric_mean(0.0, 5)
    with pytest.raises(ValueError):
        truncated_geometric_mean(-0.2, 5)


def test_truncated_geometric_mean_range_and_monotonicity():
    for T in (1, 2, 5, 12):
        prev = math.inf
        for p in np.linspace(0.01, 1.0, 100):
            val = truncated_geometric_mean(float(p), T)
            assert 0.0 <= val <= T - 1
            assert val <= prev + 1e-12
            prev = val


@pytest.mark.parametrize("T", [2, 5, 12])
def test_ex_term_matches_truncated_geometric_mean(T):
    # the one kernel behind the grid's current-block latency and the peak formulas
    ps = np.linspace(0.01, 1.0, 100)
    want = [truncated_geometric_mean(float(p), T) for p in ps]
    assert _ex_term(ps, T) == pytest.approx(want, rel=1e-12, abs=1e-15)
    for p in (0.01, 0.5, 1.0):  # scalar input, as the peak formulas pass it
        assert float(_ex_term(p, T)) == pytest.approx(truncated_geometric_mean(p, T), rel=1e-12)
    # a block that never succeeds carries zero weight
    assert float(_ex_term(0.0, T)) == 0.0
    assert list(_ex_term(np.array([0.0, 0.5, 0.0]), T)[[0, 2]]) == [0.0, 0.0]


def _ex_term_mpmath(p: float, T: int) -> float:
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        q = 1 - mpmath.mpf(p)
        return float(q / mpmath.mpf(p) - T * q**T / (1 - q**T))


@pytest.mark.parametrize("T", [2, 3, 5, 10, 20, 100, 1000])
def test_ex_term_matches_mpmath_down_to_tiny_p(T):
    # below T p = 1e-2 the series holds 1e-12; above it the closed form
    # carries the rounding of q = 1 - p, about 2^-54 / p^2 against (T-1)/2
    ps = np.logspace(-15, 0, 151)
    threshold = 1e-2 / T
    ps = np.append(ps, [np.nextafter(threshold, 0.0), threshold])
    for p, got in zip(ps, _ex_term(ps, T)):
        want = _ex_term_mpmath(p, T)
        tol = 1e-12 if p < threshold else 1e-12 + 2.0**-52 / (T * p * p)
        assert abs(got - want) <= tol * want, (p, got, want)
    assert float(_ex_term(1e-9, 5)) == pytest.approx(1.999999998, rel=1e-12)


def test_chi_and_ex_term_give_a_scalar_the_array_bits_property():
    # the peak formulas and validate pass scalars, the scan arrays: one value each
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    unit = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0), st.floats(1e-15, 1e-2))

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(T=st.integers(1, 60), v_share=st.floats(0.0, 1.0), big_T=st.integers(1, 1000),
                      xs=st.lists(unit, min_size=1, max_size=20))
    def holds(T, v_share, big_T, xs):
        shape = BlockShape(T, 1 + round(v_share * (T - 1)))
        arr = np.array(xs)
        assert np.array([chi(shape, x) for x in xs]).tobytes() == chi(shape, arr).tobytes()
        for n in (T, big_T):
            scalars = [_ex_term(x, n) for x in xs]
            assert all(s.shape == () for s in scalars)
            assert np.array(scalars).tobytes() == _ex_term(arr, n).tobytes()

    holds()
    # points where a scalar once took other bits than the array path
    assert chi(BlockShape(11, 1), 0.4) == chi(BlockShape(11, 1), np.array([0.4]))[0]
    p = 0.016411074326549795
    assert float(_ex_term(p, 3)) == _ex_term(np.array([p]), 3)[0]


def test_ex_term_lies_between_zero_and_half_the_block_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(
        T=st.integers(1, 1000),
        ps=st.lists(st.one_of(st.just(0.0), st.floats(1e-15, 1.0)), min_size=1, max_size=8),
    )
    def holds(T, ps):
        # the array path and the scalar path the peak formulas take
        vals = np.append(_ex_term(np.array(ps), T), [_ex_term(p, T) for p in ps])
        assert ((vals >= 0.0) & (vals <= (T - 1) / 2)).all(), vals

    holds()
