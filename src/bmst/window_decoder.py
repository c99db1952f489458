"""Iterative sliding-window BP decoding on the coupled normal graph.

Layer t of the graph ties together the code-constraint node of basic
codeword v_t, the replication (equality) node that fans v_t out to the m+1
superposition (parity) nodes it participates in, and the parity node of
transmitted block c_t with its channel half-edge.  A window with delay d
spans layers t..t+d; the first layer is the target and is the only one
decided before the window shifts.

Each window runs the schedule of :func:`bmst.encoder.window_plan`, which
the MI analysis runs too.  A decided layer left of the window is certain:
its re-encoded codeword enters each parity node it touches as signs, which
flip that node's channel term; edges toward the known all-zero codewords
past either end of the chain drop out.  Parity nodes of the m tail blocks
past the last layer carry real channel observations and are processed once
the window holds the last layer.

A window's arrays carry a trial axis, so many independent noise
realizations decode through the same vectorized operations.  Each node
reads the current value of every message.  A trial stops at an exact fixed
point of its messages, found as they are written, or after ``max_iters``
sweeps; trials that are done drop out of the arrays later sweeps work on,
so a trial's decisions and its work do not depend on its batch-mates.  A
parity node recomputes only the outputs whose inputs moved, which at m = 1
halves its work (see :func:`decode_window`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basic_codes import encode_basic, siso_decode_basic
from .encoder import BmstCode, WindowPlan, window_plan
from .llr import clip_llr, leave_one_out_boxplus, tanh_half


@dataclass
class DecoderConfig:
    """Knobs of the window decoder."""

    delay: int
    max_iters: int

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(f"delay must be non-negative, got {self.delay}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")


@dataclass
class _ActiveRows:
    """Window-local arrays of the trials that are still iterating.

    The trial axis sits after the layer axes.  ``fixed[k]`` is the one
    term of parity node ``position + k`` that stays fixed for the whole
    window, computed when the window starts: the ``tanh(x/2)`` of its
    channel block times the signs of its decided edges.

    ``epm[w, i]``, shaped ``(trials, N)``, is the message from the equality
    node of layer ``position + w`` toward parity node ``position + w + i``;
    ``ppm[w, i]`` flows the opposite way.  Both live in the codeword-bit
    (pre-permutation) domain.  Each direction has one buffer, and a node
    writes its outputs over the messages they replace, so a message its
    sender has not yet rewritten in a sweep holds the previous sweep's
    value.  ``rows`` maps each trial to its index in the flattened batch.

    ``ppm_ver[w][i]`` and ``epm_ver[w]``, one for the equality node's
    outputs, are the messages' versions, the same for every trial: the
    ``clock`` tick of the node update that last computed them, or 0 for the
    buffers' starting zeros.  An input newer than an output was computed
    after it.

    ``moved`` flags the trials of which the current sweep has changed a
    message by value, and ``still`` is set while some trial has not moved.
    """

    rows: np.ndarray
    fixed: np.ndarray
    epm: np.ndarray
    ppm: np.ndarray
    epm_ver: list[int]
    ppm_ver: list[list[int]]
    clock: int = 0
    moved: np.ndarray | None = None
    still: bool = False

    def subset(self, keep: np.ndarray) -> None:
        """Keep only the trials where ``keep`` is set.  Each array is
        replaced on its own, so at most one array has an old and a new copy
        in memory at a time."""
        self.rows = self.rows[keep]
        self.fixed = self.fixed[:, keep]
        self.epm = self.epm[:, :, keep]
        self.ppm = self.ppm[:, :, keep]

    def out(self, msgs: np.ndarray) -> np.ndarray:
        """Where a node computes the messages that replace ``msgs``: a new
        buffer, to compare them, while some trial has not moved; else
        ``msgs``."""
        return np.empty_like(msgs) if self.still else msgs

    def write(self, msgs: np.ndarray, new: np.ndarray, axis) -> None:
        """Replace ``msgs`` by ``new`` from :meth:`out`, flagging the trials
        where they differ by value."""
        if new is not msgs:
            self.moved |= (new != msgs).any(axis=axis)
            self.still = not self.moved.all()
            msgs[...] = new


def _plus_node(code: BmstCode, act: _ActiveRows, t: int, s: int,
               edges) -> None:
    """Update parity node of block s in the window of target layer t; write
    its extrinsics toward the window's layers.

    An output reads the node's fixed term and the other live edges'
    messages.  It is recomputed only if one of those is newer than it, else
    left as it is: a node rule is a fixed function of its inputs, so the
    buffer holds the bits a recomputation would give.  At the start the
    buffers' +0.0 stands for the +/-0.0 the rule gives from zero messages;
    a zero's sign moves no nonzero result, and both SISO paths return +0.0
    for it.  An output that reads no live message is computed in the first
    sweep only.  The inputs enter as their tanh: the fixed term, and the
    messages the recomputed outputs read, gathered into the rows of one
    block that becomes their tanh in place; the others are None.
    """
    live = [(j, x - t) for j, x in edges if x >= t]
    ins = [act.epm_ver[w] for _, w in live]
    redo = []
    for k, (j, w) in enumerate(live):
        others = ins[:k] + ins[k + 1:]
        made = act.ppm_ver[w][j]
        if max(others) > made if others else made == 0:
            redo.append(k)
    if not redo:
        return
    th = [act.fixed[s - t]] + [None] * len(live)
    read = [i for i in range(len(live)) if redo != [i]]
    if read:
        block = np.empty((len(read),) + act.fixed.shape[1:])
        for i, row in zip(read, block):
            j, w = live[i]
            # the indices are valid; mode "clip" only spares a buffer copy
            act.epm[w, j].take(code.perms[j], axis=-1, out=row, mode="clip")
            th[1 + i] = row
        np.multiply(block, 0.5, out=block)
        np.tanh(block, out=block)
    outs = leave_one_out_boxplus(th, needed=[1 + k for k in redo])
    act.clock += 1
    for k in redo:
        j, w = live[k]
        msgs = act.ppm[w, j]
        new = act.out(msgs)
        outs[1 + k].take(code.perms_inv[j], axis=-1, out=new, mode="clip")
        act.write(msgs, new, -1)
        act.ppm_ver[w][j] = act.clock


def _eq_c_node(code: BmstCode, act: _ActiveRows, w: int) -> None:
    """Equality and code-constraint updates of the window's layer w.  The
    outputs get a new version only if an input is newer than them; else
    they are the bits the node computed before, and are not compared."""
    # Parity node of layer w has just spoken; the ones after it speak later.
    now, later = act.ppm[w, 0], act.ppm[w, 1:]
    # numpy sums over a leading axis edge by edge from +0.0; so does this.
    total = 0.0 + now
    for msg in later:
        total += msg
    from_c, _ = siso_decode_basic(code.basic, clip_llr(total),
                                  info_app=False)
    act.clock += 1
    msgs = out = act.epm[w]
    if max(act.ppm_ver[w]) > act.epm_ver[w]:
        act.epm_ver[w] = act.clock
        out = act.out(msgs)
    np.subtract(total, now, out=out[0])
    np.subtract(total, later, out=out[1:])
    out += from_c
    clip_llr(out, out=out)
    act.write(msgs, out, (0, 2))


def _iterate(code: BmstCode, plan: WindowPlan, act: _ActiveRows) -> None:
    """One sweep of the plan: each parity node, then the equality and code
    node of its layer if the window holds one; flags the trials it moves."""
    act.moved = np.zeros(act.rows.size, dtype=bool)
    act.still = True
    t = plan.position
    for s, edges in plan.sweep:
        _plus_node(code, act, t, s, edges)
        if s <= plan.layer_end:
            _eq_c_node(code, act, s - t)


def decode_window(code: BmstCode, plan: WindowPlan, config: DecoderConfig,
                  channel_llr: np.ndarray, decided_signs: np.ndarray):
    """Run up to ``max_iters`` sweeps of ``plan`` and decide its target
    layer.

    ``channel_llr``, shaped ``(trials, L+m, N)``, holds the full received
    sequences; the window reads the blocks of the parity nodes it sweeps.
    ``decided_signs``, shaped ``(trials, L, N)``, holds the hard decisions
    of the decided layers' codeword bits as signs, +1 for 0 and -1 for 1;
    the window reads those its plan ties to it.  Returns the hard decisions
    on the target layer's info bits and their APP LLRs, each shaped
    ``(trials, K)``, and each trial's sweeps, shaped ``(trials,)``: the
    first sweep that moved none of its messages, or ``max_iters``.

    A decided edge is a factor of +/-1.0 in its parity node's tanh
    products, and a product by +/-1.0 is exact in any order, so each swept
    parity node has one term fixed for the window: its channel block's
    ``tanh(x/2)`` times the signs of its decided edges.  Those terms are
    computed once, before the first sweep.

    Each direction keeps one message buffer (:class:`_ActiveRows`).  A
    trial stops at an exact fixed point, once a sweep moves none of its
    messages by value, or after ``max_iters`` sweeps, and leaves the active
    set: its decisions and its work do not depend on its batch-mates.  The
    fixed point is found as messages are written: while some trial has not
    moved in a sweep, a node compares each message whose version moved
    with the one it replaces.

    The window keeps each message's version, and a parity node recomputes
    only the outputs that read a newer input (:func:`_plus_node`); the
    equality and code nodes run every sweep.  At m = 1 a parity node's
    output toward its own layer reads the previous layer's message of this
    sweep, and the one toward the previous layer its own layer's message of
    the last sweep.  So the messages of odd and of even sweeps never read
    each other; both start from zero, so each even sweep repeats the odd
    one before it.  The equality nodes' outputs move every other sweep,
    and an interior parity node recomputes one of its two outputs a sweep.
    """
    m, N = code.memory, code.N
    t = plan.position
    trials = channel_llr.shape[0]
    layers = plan.layer_end - t + 1
    shape = (layers, m + 1, trials, N)
    # The swept blocks' fixed terms as (blocks, trials, N).
    fixed = tanh_half(channel_llr[:, t:plan.sweep[-1][0] + 1].swapaxes(0, 1))
    for s, edges in plan.sweep:
        for j, x in edges:
            if x < t:
                fixed[s - t] *= decided_signs[:, x, code.perms[j]]
    act = _ActiveRows(np.arange(trials), fixed, np.zeros(shape),
                      np.zeros(shape), [0] * layers,
                      [[0] * (m + 1) for _ in range(layers)])
    # The target layer's incoming parity messages, for the decision.
    target = np.empty(shape[1:])
    sweeps = np.empty(trials, dtype=int)
    with np.errstate(divide="ignore"):  # atanh(+/-1), saturated by the clip
        for sweep in range(1, config.max_iters + 1):
            _iterate(code, plan, act)
            done = ~act.moved | (sweep == config.max_iters)
            if done.any():
                target[:, act.rows[done]] = act.ppm[0][:, done]
                sweeps[act.rows[done]] = sweep
                act.subset(~done)
                if not act.rows.size:
                    break
        total = target.sum(axis=0)
        _, info_app = siso_decode_basic(code.basic,
                                        clip_llr(total, out=total))
    bits = (info_app < 0).astype(np.uint8)
    return bits, info_app, sweeps


def decode_sequence(code: BmstCode, channel_llrs: np.ndarray,
                    config: DecoderConfig) -> np.ndarray:
    """Window-decode a full received sequence into L*K info decisions.

    Takes LLRs shaped ``(..., L+m, N)``.  Each window is decoded
    independently given the channel LLRs and the decision log; decided
    layers feed back their re-encoded codewords as hard decisions, the
    signs +1 and -1, to all later windows.  The lead axes are flattened
    into one trial axis for decoding and restored on the result.
    """
    L, m, N, K = code.coupling_len, code.memory, code.N, code.K
    llr = np.asarray(channel_llrs, dtype=float)
    if llr.ndim < 2 or llr.shape[-2:] != (L + m, N):
        raise ValueError(f"expected channel LLRs shaped (..., {L + m}, {N}), "
                         f"got {llr.shape}")
    lead = llr.shape[:-2]
    llr = llr.reshape((-1,) + llr.shape[-2:])
    signs = np.zeros((llr.shape[0], L, N), dtype=np.int8)
    decisions = np.zeros((llr.shape[0], L, K), dtype=np.uint8)
    for t in range(L):
        plan = window_plan(L, m, config.delay, t)
        bits, _, _ = decode_window(code, plan, config, llr, signs)
        decisions[:, t] = bits
        signs[:, t] = 1 - 2 * encode_basic(code.basic, bits).astype(np.int8)
    return decisions.reshape(lead + (L * K,))
