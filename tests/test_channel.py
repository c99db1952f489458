import math

import numpy as np
import pytest

from bmst.channel import (bpsk_capacity_ebn0_db, channel_mi, ebn0_to_sigma,
                          llr_demap, sigma_to_ebn0, transmit)
from bmst.jfun import jfun_quad


def test_sigma_at_zero_db_rate_one():
    assert ebn0_to_sigma(0.0, 1.0) == pytest.approx(1.0 / math.sqrt(2.0))


def test_round_trip():
    for g in (-3.0, 0.0, 4.2, 11.0):
        for r in (0.25, 0.5, 0.9, 1.0):
            assert sigma_to_ebn0(ebn0_to_sigma(g, r), r) == pytest.approx(g, abs=1e-12)


def test_rate_scaling():
    g = 3.0
    assert ebn0_to_sigma(g, 0.5) == pytest.approx(
        math.sqrt(2.0) * ebn0_to_sigma(g, 1.0))


def test_rate_domain():
    with pytest.raises(ValueError):
        ebn0_to_sigma(0.0, 0.0)
    with pytest.raises(ValueError):
        ebn0_to_sigma(0.0, 1.5)


def test_transmit_noiseless():
    rng = np.random.default_rng(0)
    y = transmit(np.array([0, 1, 1, 0]), 0.0, rng)
    np.testing.assert_array_equal(y, [1.0, -1.0, -1.0, 1.0])


def test_transmit_deterministic():
    a = transmit(np.zeros(64, dtype=np.uint8), 0.8, np.random.default_rng(5))
    b = transmit(np.zeros(64, dtype=np.uint8), 0.8, np.random.default_rng(5))
    np.testing.assert_array_equal(a, b)


def test_transmit_mean():
    rng = np.random.default_rng(7)
    n = 1_000_000
    sigma = 1.3
    y = transmit(np.zeros(n, dtype=np.uint8), sigma, rng)
    se = sigma / math.sqrt(n)
    assert abs(float(y.mean()) - 1.0) < 5 * se


def test_llr_demap_basics():
    sigma = 0.9
    y = np.array([0.0, 0.3, -2.0])
    llr = llr_demap(y, sigma)
    assert llr[0] == 0.0
    assert np.all(np.sign(llr) == np.sign(y))
    assert llr[1] == pytest.approx(2.0 * 0.3 / sigma ** 2)
    big = llr_demap(np.array([sigma ** 2 / 2 * 60.0]), sigma)
    assert big[0] == 50.0
    np.testing.assert_array_equal(llr_demap(np.array([0.2, -0.1]), 0.0),
                                  [50.0, -50.0])


def test_llr_consistency_statistics():
    # all-zero transmission: LLR mean 2/sigma^2, variance 4/sigma^2
    rng = np.random.default_rng(21)
    sigma = 0.8
    n = 2_000_000
    y = transmit(np.zeros(n, dtype=np.uint8), sigma, rng)
    llr = 2.0 * y / sigma ** 2  # unclipped for the moment statistics
    mean, var = float(llr.mean()), float(llr.var())
    want_mean, want_var = 2.0 / sigma ** 2, 4.0 / sigma ** 2
    assert abs(mean - want_mean) < 5 * math.sqrt(want_var / n)
    assert abs(var - want_var) < 6 * want_var / math.sqrt(n)
    assert mean == pytest.approx(var / 2.0, rel=2e-2)


class TestChannelMi:
    def test_limits(self):
        assert channel_mi(-60.0, 0.5) < 1e-3
        assert channel_mi(40.0, 0.5) == 1.0

    def test_strictly_increasing(self):
        grid = np.linspace(-10.0, 12.0, 100)
        vals = [channel_mi(float(g), 0.5) for g in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_against_quadrature(self):
        # 2 dB at rate 0.499 puts the LLR std at 2.5154
        want = jfun_quad(math.sqrt(8.0 * 0.499 * 10.0 ** 0.2))
        assert math.sqrt(8.0 * 0.499 * 10.0 ** 0.2) == pytest.approx(2.5154, abs=2e-4)
        assert channel_mi(2.0, 0.499) == pytest.approx(want, abs=1e-9)


def test_capacity_self_consistent():
    for rate in (0.25, 0.4995, 0.75):
        g = bpsk_capacity_ebn0_db(rate)
        assert channel_mi(g, rate) == pytest.approx(rate, abs=1e-5)
        # below the limit the channel MI falls short of the rate
        assert channel_mi(g - 0.5, rate) < rate
