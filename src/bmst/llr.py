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


def tanh_half(x):
    """``tanh(x/2)``, the domain in which parity checks multiply; arrays
    come back as a new C-ordered array."""
    th = np.multiply(x, 0.5, order="C")
    return np.tanh(th, out=th) if isinstance(th, np.ndarray) else np.tanh(th)


def leave_one_out_boxplus(terms, needed=None, th=None):
    """For q input arrays return q outputs, the parity-check combine of all
    other inputs: out[i] = 2*atanh(prod over j != i of tanh(terms[j]/2)).

    Prefix/suffix products in the tanh domain keep the cost linear in q.
    With a single input the output is full certainty (``LLR_CLIP``).
    ``needed`` optionally restricts which output indices are materialized
    (the rest are None).  ``th`` optionally lists ``tanh(terms[i]/2)``
    already computed by the caller, with None where this function should
    compute it; the function never writes into those arrays.  ``terms[i]``
    is read only where ``th[i]`` is None, so a caller that gives the tanh
    may pass None for the term.
    """
    q = len(terms)
    want = sorted(range(q) if needed is None else set(needed))
    outs = [None] * q
    if not want:
        return outs
    # A lone wanted output never reads its own term's tanh.
    lone = want[0] if len(want) == 1 else None
    th = [h if h is not None or i == lone else tanh_half(t)
          for i, (t, h) in enumerate(zip(terms, th or [None] * q))]
    # prefix[i] = th[0] * ... * th[i-1] and suffix = th[q-1] * ... * th[i+1],
    # each multiplied in that order; None is the empty product, so no array
    # is ever multiplied by 1.0.  A product of two or more factors is a new
    # array that the output may reuse.
    prefix = [None]
    for i in range(want[-1]):
        prefix.append(th[i] if i == 0 else prefix[-1] * th[i])
    suffix = None
    with np.errstate(divide="ignore"):
        for i in range(q - 1, want[0] - 1, -1):
            if i in want:
                if prefix[i] is not None and suffix is not None:
                    outs[i] = _from_product(prefix[i] * suffix, True)
                else:
                    one = suffix if prefix[i] is None else prefix[i]
                    outs[i] = _from_product(1.0 if one is None else one, q > 2)
            if i > want[0]:
                suffix = th[i] if suffix is None else suffix * th[i]
    return outs


def _from_product(p, owned):
    """``clip(2*atanh(p))``; written into ``p`` itself when ``owned``."""
    if not isinstance(p, np.ndarray):
        return np.clip(2.0 * np.arctanh(p), -LLR_CLIP, LLR_CLIP)
    r = np.arctanh(p, out=p if owned else None)
    np.multiply(r, 2.0, out=r)
    return np.clip(r, -LLR_CLIP, LLR_CLIP, out=r)
