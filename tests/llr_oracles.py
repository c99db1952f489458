"""Reference LLR combines that the tests compare the decoders against.

``boxplus`` evaluates the two-operand parity-check combine exactly,
including the saturated regime the decoders' tanh-product form clips.
"""

import numpy as np

from bmst.llr import LLR_CLIP


def boxplus(a, b):
    """Check-node combine 2*atanh(tanh(a/2)*tanh(b/2)), saturated at
    ``LLR_CLIP``.

    Where the tanh product approaches +/-1 the evaluation switches to the
    exact max-log-plus-correction form, and an operand whose tanh has fully
    saturated (magnitude about 38 and beyond) acts as a certainty and passes
    the other operand through.  ``boxplus(x, 0) == 0`` exactly.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    ta = np.tanh(a * 0.5)
    tb = np.tanh(b * 0.5)
    t = ta * tb
    with np.errstate(divide="ignore"):
        r = 2.0 * np.arctanh(t)
    near = np.abs(t) > 1.0 - 1e-9
    if np.any(near):
        sat_a = np.abs(ta) == 1.0
        sat_b = np.abs(tb) == 1.0
        exact = (np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
                 + np.log1p(np.exp(-np.abs(a + b)))
                 - np.log1p(np.exp(-np.abs(a - b))))
        exact = np.where(sat_a, np.sign(ta) * b, exact)
        exact = np.where(sat_b, np.sign(tb) * a, exact)
        exact = np.where(sat_a & sat_b, np.sign(t) * LLR_CLIP, exact)
        r = np.where(near, exact, r)
    return np.clip(r, -LLR_CLIP, LLR_CLIP)


def boxplus_reduce(terms):
    """Boxplus of a non-empty sequence of LLR arrays, left to right."""
    acc = np.asarray(terms[0], dtype=float)
    for t in terms[1:]:
        acc = boxplus(acc, t)
    return acc
