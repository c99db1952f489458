"""MI thresholds pinned to the last digit.

Every value is the smallest Eb/N0 (dB) that the bisection over -6..14 dB at
0.01 dB resolution finds at L=100; a change to the MI engine or the J
numerics that moves any of them shows here.
"""

import pytest

from bmst.basic_codes import make_small_code
from bmst.exit_engine import ThresholdQuery, threshold_search

RC2 = make_small_code("rc", 2)
SPC4 = make_small_code("spc", 4)


@pytest.mark.parametrize("small,m,d,target,star", [
    (RC2, 1, 3, 1e-2, 2.046875),
    (RC2, 2, 6, 1e-2, 0.533203125),
    (RC2, 1, 3, 1e-5, 6.63671875),
    (RC2, 2, 6, 1e-5, 4.908203125),
    (RC2, 3, 9, 1e-5, 3.70703125),
    (RC2, 2, 2, 1e-7, 6.998046875),
    (SPC4, 1, 3, 1e-2, 2.2421875),
], ids=["rc2-m1-d3-1e-2", "rc2-m2-d6-1e-2", "rc2-m1-d3-1e-5",
        "rc2-m2-d6-1e-5", "rc2-m3-d9-1e-5", "rc2-m2-d2-1e-7",
        "spc4-m1-d3-1e-2"])
def test_threshold_at_l100(small, m, d, target, star):
    q = ThresholdQuery(small, m, d, 100, target, -6.0, 14.0)
    assert threshold_search(q).ebn0_star_db == star
