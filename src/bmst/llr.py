"""Log-likelihood-ratio primitives shared by the SISO decoders.

Convention: positive LLR favors bit 0.  All messages are clipped to
``+/- LLR_CLIP``; at that magnitude ``tanh(LLR/2)`` rounds to ``+/-1`` in
double precision, so clipped values behave as exact certainties inside the
parity-check combine (a certain input passes the others through).
"""

from __future__ import annotations

import numpy as np

#: Saturation magnitude for all LLR messages.
LLR_CLIP = 50.0


def clip_llr(x):
    """Clip LLRs to ``[-LLR_CLIP, LLR_CLIP]``; non-finite inputs map to the
    bounds."""
    return np.clip(np.nan_to_num(x, nan=0.0, posinf=LLR_CLIP, neginf=-LLR_CLIP),
                   -LLR_CLIP, LLR_CLIP)


def leave_one_out_boxplus(terms, needed=None):
    """For q input arrays return q outputs, the parity-check combine of all
    other inputs: out[i] = 2*atanh(prod over j != i of tanh(terms[j]/2)).

    Prefix/suffix products in the tanh domain keep the cost linear in q.
    With a single input the output is full certainty (``LLR_CLIP``).
    ``needed`` optionally restricts which output indices are materialized
    (the rest are None).
    """
    q = len(terms)
    want = range(q) if needed is None else set(needed)
    th = [np.tanh(np.multiply(t, 0.5)) for t in terms]
    prefix = [1.0]
    for i in range(q - 1):
        prefix.append(prefix[-1] * th[i])
    suffix = 1.0
    outs = [None] * q
    with np.errstate(divide="ignore"):
        for i in range(q - 1, -1, -1):
            if i in want:
                outs[i] = np.clip(2.0 * np.arctanh(prefix[i] * suffix),
                                  -LLR_CLIP, LLR_CLIP)
            suffix = suffix * th[i]
    return outs
