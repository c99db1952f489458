"""Bit-for-bit pins of the two node rules the window decoder runs.

``golden/node_outputs.json`` holds seeded LLR arrays, mixed with 0.0, -0.0,
+/-LLR_CLIP and +/-49.9, and the outputs of ``leave_one_out_boxplus`` (fed
their ``tanh_half``) and of ``siso_decode_basic`` (with the all-zero source,
``"src": null``) on them, all as ``float.hex`` strings.  Any change to
either rule must reproduce every output, signed zeros included, and so must
the boxplus when its outputs go into a block the caller gives.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from bmst.basic_codes import cartesian, make_small_code, siso_decode_basic
from bmst.llr import leave_one_out_boxplus, tanh_half

CASES = json.loads(
    (Path(__file__).parent / "golden" / "node_outputs.json").read_text())
BOXPLUS = [c for c in CASES if c["node"] == "boxplus"]
SISO = [c for c in CASES if c["node"] == "siso"]


def value(item):
    flat = [float.fromhex(h) for h in item["hex"]]
    return np.array(flat).reshape(item["shape"])


def pinned(out):
    return {"shape": list(np.shape(out)),
            "hex": [float(v).hex() for v in np.ravel(out)]}


@pytest.fixture(autouse=True)
def saturated_products():
    # The pinned terms include saturated ones, so some products are +/-1,
    # whose atanh is +/-inf before the clip; the node rules leave numpy's
    # report of that division by zero to their caller, and the window
    # decoder ignores it, as this module does.
    with np.errstate(divide="ignore"):
        yield


@pytest.mark.parametrize("case", BOXPLUS,
                         ids=lambda c: f"q{len(c['terms'])}-arrays")
def test_leave_one_out_boxplus_bit_exact(case):
    th = [tanh_half(value(t)) for t in case["terms"]]
    q = len(th)
    for r in range(q + 1):
        for needed in itertools.combinations(range(q), r):
            outs = leave_one_out_boxplus(th, needed=list(needed))
            for i, out in enumerate(outs):
                if i in needed:
                    assert pinned(out) == case["outs"][i], (needed, i)
                else:
                    assert out is None
            if needed:
                check_out_block(th, needed, case["outs"])
    for i in range(q):
        # a lone wanted output's own input may be None, as the window
        # decoder passes it for a lone receiver
        outs = leave_one_out_boxplus(th[:i] + [None] + th[i + 1:], needed=[i])
        assert pinned(outs[i]) == case["outs"][i], i
    outs = leave_one_out_boxplus(th)
    assert [pinned(o) for o in outs] == case["outs"]


def check_out_block(th, needed, pins):
    """The wanted outputs written into a block the caller gives: row r
    holds output needed[r], its pinned bits broadcast to the row's shape,
    and the outputs returned are those rows."""
    shape = np.broadcast_shapes(*(tuple(pins[i]["shape"]) for i in needed))
    block = np.full((len(needed),) + shape, np.nan)
    outs = leave_one_out_boxplus(th, needed=list(needed), out=block)
    for r, i in enumerate(needed):
        want = pinned(np.broadcast_to(value(pins[i]), shape))
        row = block[r, ...]
        assert pinned(row) == want, (needed, i)
        assert np.shares_memory(outs[i], row) and pinned(outs[i]) == want
    assert all(out is None for i, out in enumerate(outs) if i not in needed)


@pytest.mark.parametrize("info_app", [False, True])
@pytest.mark.parametrize("case", SISO, ids=lambda c: "{}-lead{}-nosrc".format(
    c["code"], "x".join(map(str, c["cw"]["shape"][:-1])) or "0"))
def test_siso_decode_basic_bit_exact(case, info_app):
    # the equality node asks for the extrinsics alone (info_app false)
    kind, n = case["code"].split(":")
    basic = cartesian(make_small_code(kind, int(n)), case["cart"])
    ext, app = siso_decode_basic(basic, value(case["cw"]), info_app=info_app)
    assert pinned(ext) == case["ext"]
    if info_app:
        assert pinned(app) == case["app"]
    else:
        assert app is None
