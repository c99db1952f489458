"""Bit-for-bit pins of the two node rules the window decoder runs.

``golden/node_outputs.json`` holds seeded LLR inputs, mixed with 0.0, -0.0,
+/-LLR_CLIP, +/-49.9 and plain-float terms, and the outputs of
``leave_one_out_boxplus`` and ``siso_decode_basic`` on them, all as
``float.hex`` strings.  Any change to either rule must reproduce every
output, signed zeros included.
"""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest

from bmst.basic_codes import cartesian, make_small_code, siso_decode_basic
from bmst.llr import leave_one_out_boxplus

CASES = json.loads(
    (Path(__file__).parent / "golden" / "node_outputs.json").read_text())
BOXPLUS = [c for c in CASES if c["node"] == "boxplus"]
SISO = [c for c in CASES if c["node"] == "siso"]


def value(item):
    if "float" in item:
        return float.fromhex(item["float"])
    flat = [float.fromhex(h) for h in item["hex"]]
    return np.array(flat).reshape(item["shape"])


def pinned(out):
    return {"shape": list(np.shape(out)),
            "hex": [float(v).hex() for v in np.ravel(out)]}


@pytest.mark.parametrize("case", BOXPLUS, ids=lambda c: "q{}-{}".format(
    len(c["terms"]),
    "mixed" if any("float" in t for t in c["terms"]) else "arrays"))
def test_leave_one_out_boxplus_bit_exact(case):
    terms = [value(t) for t in case["terms"]]
    q = len(terms)
    for r in range(q + 1):
        for needed in itertools.combinations(range(q), r):
            outs = leave_one_out_boxplus(terms, needed=list(needed))
            for i, out in enumerate(outs):
                if i in needed:
                    assert pinned(out) == case["outs"][i], (needed, i)
                else:
                    assert out is None
    outs = leave_one_out_boxplus(terms)
    assert [pinned(o) for o in outs] == case["outs"]


@pytest.mark.parametrize("assume_clipped", [False, True])
@pytest.mark.parametrize("case", SISO, ids=lambda c: "{}-lead{}-{}".format(
    c["code"], "x".join(map(str, c["cw"]["shape"][:-1])) or "0",
    "src" if c["src"] else "nosrc"))
def test_siso_decode_basic_bit_exact(case, assume_clipped):
    kind, n = case["code"].split(":")
    basic = cartesian(make_small_code(kind, int(n)), case["cart"])
    src = None if case["src"] is None else value(case["src"])
    ext, app = siso_decode_basic(basic, value(case["cw"]), src,
                                 assume_clipped=assume_clipped)
    assert pinned(ext) == case["ext"]
    assert pinned(app) == case["app"]
    # the equality node asks for the extrinsics alone
    ext, app = siso_decode_basic(basic, value(case["cw"]), src,
                                 assume_clipped=assume_clipped, info_app=False)
    assert pinned(ext) == case["ext"]
    assert app is None
