import numpy as np
import pytest

from bmst.llr import LLR_CLIP, leave_one_out_boxplus, tanh_half
from llr_oracles import boxplus, boxplus_reduce


def boxplus_logdomain(a, b):
    """Independent reference: sign-min plus exact log correction."""
    s = np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
    return s + np.log1p(np.exp(-np.abs(a + b))) - np.log1p(np.exp(-np.abs(a - b)))


def test_boxplus_absorbs_zero():
    x = np.array([-3.0, 0.5, 42.0])
    assert np.all(boxplus(x, 0.0) == 0.0)


def test_boxplus_certainty_passthrough():
    x = np.array([-3.0, 0.5, 12.0, -30.0, 35.0])
    np.testing.assert_allclose(boxplus(x, LLR_CLIP), x, atol=1e-12)
    np.testing.assert_allclose(boxplus(x, -LLR_CLIP), -x, atol=1e-12)
    # past tanh saturation both operands behave as certainties
    assert boxplus(49.0, LLR_CLIP) == LLR_CLIP
    assert boxplus(LLR_CLIP, LLR_CLIP) == LLR_CLIP
    assert boxplus(LLR_CLIP, -LLR_CLIP) == -LLR_CLIP


def test_boxplus_matches_log_domain_reference():
    rng = np.random.default_rng(7)
    a = rng.uniform(-20, 20, 5000)
    b = rng.uniform(-20, 20, 5000)
    np.testing.assert_allclose(boxplus(a, b), boxplus_logdomain(a, b),
                               atol=1e-10)


def test_boxplus_commutative_and_bounded():
    rng = np.random.default_rng(8)
    a = rng.uniform(-50, 50, 1000)
    b = rng.uniform(-50, 50, 1000)
    np.testing.assert_allclose(boxplus(a, b), boxplus(b, a), atol=0)
    # magnitude bound holds below the certainty (tanh saturation) regime
    a35 = rng.uniform(-35, 35, 1000)
    b35 = rng.uniform(-35, 35, 1000)
    out = boxplus(a35, b35)
    assert np.all(np.abs(out) <= np.minimum(np.abs(a35), np.abs(b35)) + 1e-9)


def test_leave_one_out_boxplus_matches_naive():
    rng = np.random.default_rng(9)
    terms = [rng.uniform(-15, 15, 64) for _ in range(5)]
    outs = leave_one_out_boxplus([tanh_half(t) for t in terms])
    for i in range(5):
        rest = [t for j, t in enumerate(terms) if j != i]
        np.testing.assert_allclose(outs[i], boxplus_reduce(rest), atol=1e-9)


def test_leave_one_out_boxplus_single_term_is_certainty():
    with np.errstate(divide="ignore"):  # the empty product's atanh(1)
        (out,) = leave_one_out_boxplus([tanh_half(np.array([1.0, -2.0]))])
    assert np.all(out == LLR_CLIP)


def test_leave_one_out_boxplus_needed_subset():
    rng = np.random.default_rng(10)
    terms = [rng.uniform(-5, 5, 16) for _ in range(4)]
    outs = leave_one_out_boxplus([tanh_half(t) for t in terms], needed=[2])
    assert outs[0] is None and outs[1] is None and outs[3] is None
    rest = [terms[0], terms[1], terms[3]]
    np.testing.assert_allclose(outs[2], boxplus_reduce(rest), atol=1e-9)
