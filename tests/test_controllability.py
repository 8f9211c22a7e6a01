import numpy as np
import pytest

from blockaloha import AccessPolicy, BlockShape, chi, chi_bruteforce
from oracles import first_time_controllability, instantaneous_controllability


def test_first_time_block_access_only():
    # T = v = 2: chi(x) = x^2, so pure block access gives d * rho^2
    shape = BlockShape(2, 2)
    for d in (0.1, 0.4, 0.9):
        for rho in (0.3, 0.8, 1.0):
            pi = first_time_controllability(shape, AccessPolicy(d, 0.0, 0.5), rho)
            assert pi == pytest.approx(d * rho**2, abs=1e-15)


def test_first_time_slot_access_only():
    shape = BlockShape(2, 2)
    for d in (0.1, 0.4, 0.9):
        for rho in (0.3, 0.8, 1.0):
            pi = first_time_controllability(shape, AccessPolicy(0.0, d, 0.5), rho)
            assert pi == pytest.approx((d * rho) ** 2, abs=1e-15)


def test_first_time_full_block_access():
    shape = BlockShape(6, 3)
    for ds in (0.0, 0.5, 1.0):
        pi = first_time_controllability(shape, AccessPolicy(1.0, ds, 0.2), 0.77)
        assert pi == pytest.approx(chi(shape, 0.77), abs=1e-15)


def test_first_time_between_slot_and_block_values():
    shape = BlockShape(5, 2)
    rho = 0.85
    for dB in (0.2, 0.5, 0.8):
        for dS in (0.0, 0.3, 0.7):
            pi = first_time_controllability(shape, AccessPolicy(dB, dS, 0.0), rho)
            lo, hi = chi(shape, dS * rho), chi(shape, rho)
            assert lo - 1e-15 <= pi <= hi + 1e-15


def test_instantaneous_examples():
    shape = BlockShape(2, 2)
    assert instantaneous_controllability(0.0, 0.2, shape, 0.9, 0.5) == pytest.approx(0.2)
    assert instantaneous_controllability(1.0, 0.2, shape, 1.0, 1.0) == pytest.approx(1.0)
    # chi(0.4) for T=v=2 via the enumeration oracle
    chi_04 = chi_bruteforce(shape, 0.4)
    assert chi_04 == pytest.approx(0.16, abs=1e-15)
    val = instantaneous_controllability(0.5, 0.2, shape, 0.5, 0.8)
    assert val == pytest.approx(0.5 * 0.2 + 0.5 * chi_04, abs=1e-15)


def test_block_access_beats_slot_access_T2():
    # pi_block - pi_slot = d (1 - d) rho^2 > 0 exactly, for T = v = 2
    shape = BlockShape(2, 2)
    for d in np.linspace(0.1, 0.9, 9):
        for rho in (0.25, 0.5, 0.9, 1.0):
            a = first_time_controllability(shape, AccessPolicy(float(d), 0.0, 0.0), rho)
            b = first_time_controllability(shape, AccessPolicy(0.0, float(d), 0.0), rho)
            assert a - b == pytest.approx(d * (1 - d) * rho**2, abs=1e-12)
            assert a > b
