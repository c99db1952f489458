import math

import numpy as np
import pytest

from bmst.jfun import (SIGMA_MAX, jdual, jfun, jfun_quad, jinv, qfunc,
                       qfunc_inv)

LN2 = math.log(2.0)


def mc_mutual_information(sigma, samples, seed):
    """Monte Carlo estimate of the consistent-Gaussian LLR MI."""
    rng = np.random.default_rng(seed)
    xi = 0.5 * sigma * sigma + sigma * rng.standard_normal(samples)
    return 1.0 - float(np.mean(np.log1p(np.exp(-np.clip(xi, -700, 700))) / LN2))


def test_endpoints():
    assert jfun(0.0) == 0.0
    assert jfun(math.inf) == 1.0
    assert jfun(SIGMA_MAX + 5.0) == 1.0
    assert jinv(0.0) == 0.0
    assert jinv(1.0) == math.inf


def test_monotone_increasing():
    grid = np.linspace(0.0, 14.0, 2000)
    vals = jfun(grid)
    assert np.all(np.diff(vals) >= 0.0)
    # strictly increasing away from saturation
    low = grid < 10.0
    assert np.all(np.diff(vals[low]) > 0.0)


def test_roundtrip_inverse():
    xs = np.linspace(1e-4, 1.0 - 1e-4, 1000)
    worst = max(abs(jfun(jinv(float(x))) - float(x)) for x in xs)
    assert worst <= 1e-8


def test_spline_matches_quadrature_off_grid():
    for s in [0.003, 0.0571, 0.5137, 1.2345, 2.5154, 4.0401, 7.77, 11.113]:
        assert abs(jfun(s) - jfun_quad(s)) < 1e-9


def test_quadrature_matches_monte_carlo():
    for i, s in enumerate([0.4, 1.0, 2.0, 3.5]):
        mc = mc_mutual_information(s, 10_000_000, seed=100 + i)
        assert abs(jfun_quad(s) - mc) < 1e-3


def test_small_sigma_expansion():
    # J(sigma) ~ sigma^2 / (8 ln 2) as sigma -> 0
    for s in (1e-3, 3e-3, 1e-2):
        assert jfun_quad(s) == pytest.approx(s * s / (8 * LN2), rel=2e-2)


def test_array_and_scalar_agree():
    xs = np.array([0.0, 0.3, 1.7, 6.2, 25.0])
    arr = jfun(xs)
    for x, v in zip(xs, arr):
        assert jfun(float(x)) == pytest.approx(float(v), abs=1e-12)
    mis = np.array([0.0, 0.25, 0.75, 1.0])
    inv = jinv(mis)
    for m, v in zip(mis, inv):
        assert jinv(float(m)) == v or (math.isinf(jinv(float(m))) and math.isinf(v))


def test_domain_errors():
    with pytest.raises(ValueError):
        jfun(-0.1)
    with pytest.raises(ValueError):
        jinv(-0.01)
    with pytest.raises(ValueError):
        jinv(1.01)


# Step 0.0005 lands on every node of the duality table and halfway between;
# the shifted copy lands at other points between nodes.  Both start below
# the first node, where jdual inverts exactly.
DUAL_GRID = np.concatenate([np.linspace(0.0, SIGMA_MAX + 1.0, 46_001),
                            np.linspace(1e-6, SIGMA_MAX, 20_001) + 3.7e-4])


def test_jdual_defining_equation():
    worst = max(abs(jfun(jdual(float(s))) + jfun(float(s)) - 1.0)
                for s in DUAL_GRID)
    assert worst <= 1e-12


def test_jdual_endpoints():
    assert jdual(0.0) == math.inf
    for s in (SIGMA_MAX, SIGMA_MAX + 1e-9, SIGMA_MAX + 5.0, math.inf):
        assert jdual(s) == 0.0
    with pytest.raises(ValueError):
        jdual(-0.1)


def test_jdual_non_increasing():
    grid = np.sort(DUAL_GRID)
    vals = np.array([jdual(float(s)) for s in grid])
    assert np.all(vals[1:] <= vals[:-1])


def test_jdual_is_an_involution():
    for s in np.linspace(0.5, 8.0, 400):
        assert jdual(jdual(float(s))) == pytest.approx(float(s), rel=1e-9)


def test_qfunc():
    assert qfunc(0.0) == 0.5
    assert qfunc(math.inf) == 0.0
    assert qfunc(5.199) == pytest.approx(1.0023e-7, rel=1e-3)
    for p in (0.4, 0.1, 1e-3, 1e-7):
        assert qfunc(qfunc_inv(p)) == pytest.approx(p, rel=1e-10)
    with pytest.raises(ValueError):
        qfunc_inv(0.0)
