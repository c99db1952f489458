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


def clip_llr(x, out=None):
    """``np.clip(x, -LLR_CLIP, LLR_CLIP, out=out)`` for NaN-free ``x``, as
    two ufunc calls: np.clip's Python wrapper costs more than both."""
    out = np.maximum(x, -LLR_CLIP, out=out)
    return np.minimum(out, LLR_CLIP, out=out)


def tanh_half(x):
    """``tanh(x/2)`` of an array, the domain in which parity checks
    multiply, as a new C-ordered array."""
    th = np.multiply(x, 0.5, order="C")
    return np.tanh(th, out=th)


def leave_one_out_boxplus(th, needed=None, out=None):
    """For q inputs, each given as its ``tanh(L/2)`` array, return q
    outputs, the parity-check combine of all other inputs:
    out[i] = 2*atanh(prod over j != i of th[j]).

    Prefix/suffix products keep the cost linear in q.  With a single input
    the output is full certainty (``LLR_CLIP``).  ``needed`` optionally
    restricts which output indices are materialized (the rest are None).
    A lone wanted output never reads its own input, so ``th`` may hold None
    there.  The function never writes into the ``th`` arrays.

    The wanted outputs are the consecutive rows, in index order, of one
    block: ``out`` if the caller gives it, one row per wanted output, else
    a new one whose rows are shaped like the inputs, arrays of one shape.
    Each product is written into its row, and the atanh, the doubling and
    the clip run once over the whole block.  A product of +/-1 has atanh
    +/-inf, which the clip saturates; numpy reports it as a division by
    zero unless the caller's ``np.errstate`` ignores that.
    """
    q = len(th)
    want = sorted(range(q) if needed is None else set(needed))
    outs = [None] * q
    if not want:
        return outs
    # A lone wanted output reads neither its own input nor that input's shape.
    lone = want[0] if len(want) == 1 else None
    if out is None:
        shape = next((h.shape for i, h in enumerate(th) if i != lone), ())
        out = np.empty((len(want),) + shape)
    for r, i in enumerate(want):
        outs[i] = out[r, ...]
    # prefix[i] = th[0] * ... * th[i-1] and suffix = th[q-1] * ... * th[i+1],
    # each multiplied in that order; None is the empty product, so no array
    # is ever multiplied by 1.0.  The last prefix and the last suffix, each
    # the whole product of an end output, go straight into its row.
    prefix = [None]
    for i in range(want[-1]):
        prefix.append(th[i] if i == 0 else np.multiply(
            prefix[-1], th[i], out=outs[q - 1] if i == q - 2 else None))
    suffix = None
    for i in range(q - 1, want[0] - 1, -1):
        row = outs[i]
        if row is not None and row is not prefix[i] and row is not suffix:
            if prefix[i] is not None and suffix is not None:
                np.multiply(prefix[i], suffix, out=row)
            else:
                one = suffix if prefix[i] is None else prefix[i]
                row[...] = 1.0 if one is None else one
        if i > want[0]:
            suffix = th[i] if suffix is None else np.multiply(
                suffix, th[i], out=outs[0] if i == 1 else None)
    np.arctanh(out, out=out)
    np.multiply(out, 2.0, out=out)
    clip_llr(out, out=out)
    return outs
