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

All arrays accept leading batch axes, so many independent noise
realizations decode through the same vectorized operations.  Within a
window a trial stops at an exact fixed point of its messages (a sweep
leaves every message unchanged) or after ``max_iters`` sweeps; trials that
are done drop out of the arrays later sweeps work on, so a trial's
decisions and its work do not depend on its batch-mates.  A parity node
recomputes only the outputs whose inputs moved and copies the others,
which at m = 1 halves its work (see :func:`decode_window`).
"""

from __future__ import annotations

import math
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
    (pre-permutation) domain.  Each direction has two buffers: a sweep
    writes every message of ``epm``/``ppm`` once and reads the ones it has
    not yet rewritten, the previous sweep's, from ``old_epm``/``old_ppm``.
    ``rows`` maps each trial to its index in the flattened batch.

    ``ppm_ver[w][i]`` and ``epm_ver[w]``, one for the equality node's
    outputs, are the messages' versions, the same for every trial: the
    ``clock`` tick of the node update that last computed them, or 0 for the
    buffers' starting zeros.  An input newer than an output was computed
    after it.
    """

    rows: np.ndarray
    fixed: np.ndarray
    epm: np.ndarray
    ppm: np.ndarray
    old_epm: np.ndarray
    old_ppm: np.ndarray
    epm_ver: list[int]
    ppm_ver: list[list[int]]
    clock: int = 0

    def subset(self, keep: np.ndarray) -> None:
        """Keep only the trials where ``keep`` is set.  Each array is
        replaced on its own, so at most one array has an old and a new copy
        in memory at a time."""
        self.rows = self.rows[keep]
        self.fixed = self.fixed[:, keep]
        self.epm = self.epm[:, :, keep]
        self.old_epm = self.old_epm[:, :, keep]
        self.ppm = self.ppm[:, :, keep]
        self.old_ppm = self.old_ppm[:, :, keep]

    def swap(self) -> None:
        """Make the newest messages the old ones before a sweep."""
        self.epm, self.old_epm = self.old_epm, self.epm
        self.ppm, self.old_ppm = self.old_ppm, self.ppm

    def unchanged(self) -> np.ndarray:
        """Per trial, whether the last sweep left every message equal by
        value to the one before.  The window's last layer, whose messages
        settle last, is compared first, and the whole state only if some
        trial's last layer agrees."""
        same = (self.epm[-1] == self.old_epm[-1]).all(axis=(0, 2))
        if same.any():
            for a, b in ((self.epm, self.old_epm), (self.ppm, self.old_ppm)):
                same &= (a == b).all(axis=(0, 1, 3))
        return same


def _plus_node(code: BmstCode, act: _ActiveRows, t: int, s: int,
               edges) -> None:
    """Update parity node of block s in the window of target layer t; write
    its extrinsics toward the window's layers.

    An output reads the node's fixed term and the other live edges'
    messages.  It is recomputed only if one of those is newer than it, else
    copied from the previous sweep's buffer: a node rule is a fixed
    function of its inputs, so the copy holds the bits a recomputation
    would give.  At the start the buffers' +0.0 stands for the +/-0.0 the
    rule gives from zero messages; a zero's sign moves no nonzero result,
    and both SISO paths return +0.0 for it.  An output that reads no live
    message is computed in the first sweep only.  The inputs enter as their
    tanh: the fixed term, and the messages the recomputed outputs read,
    gathered into the rows of one block that becomes their tanh in place;
    the others are None.
    """
    live = [(j, x - t) for j, x in edges if x >= t]
    ins = [act.epm_ver[w] for _, w in live]
    redo = []
    for k, (j, w) in enumerate(live):
        others = ins[:k] + ins[k + 1:]
        made = act.ppm_ver[w][j]
        if max(others) > made if others else made == 0:
            redo.append(k)
        else:
            act.ppm[w, j] = act.old_ppm[w, j]
    if not redo:
        return
    th = [act.fixed[s - t]] + [None] * len(live)
    read = [i for i in range(len(live)) if redo != [i]]
    if read:
        block = np.empty((len(read),) + act.fixed.shape[1:])
        for i, row in zip(read, block):
            j, w = live[i]
            # layer s speaks after this node in a sweep, layers left of it
            # before; the indices are valid, and mode "clip" only spares
            # take a buffer copy
            msgs = act.old_epm if j == 0 else act.epm
            msgs[w, j].take(code.perms[j], axis=-1, out=row, mode="clip")
            th[1 + i] = row
        np.multiply(block, 0.5, out=block)
        np.tanh(block, out=block)
    outs = leave_one_out_boxplus(th, needed=[1 + k for k in redo])
    act.clock += 1
    for k in redo:
        j, w = live[k]
        outs[1 + k].take(code.perms_inv[j], axis=-1, out=act.ppm[w, j],
                         mode="clip")
        act.ppm_ver[w][j] = act.clock


def _eq_c_node(code: BmstCode, act: _ActiveRows, w: int) -> None:
    """Equality and code-constraint updates of the window's layer w.  The
    outputs get a new version only if an input is newer than them; else
    they are the bits the node computed before."""
    # Parity node of layer w has just spoken; the ones after it speak later.
    now, later = act.ppm[w, 0], act.old_ppm[w, 1:]
    # numpy sums over a leading axis edge by edge from +0.0; so does this.
    total = 0.0 + now
    for msg in later:
        total += msg
    from_c, _ = siso_decode_basic(code.basic, clip_llr(total),
                                  info_app=False)
    out = act.epm[w]
    np.subtract(total, now, out=out[0])
    np.subtract(total, later, out=out[1:])
    out += from_c
    clip_llr(out, out=out)
    act.clock += 1
    if max(act.ppm_ver[w]) > act.epm_ver[w]:
        act.epm_ver[w] = act.clock


def _iterate(code: BmstCode, plan: WindowPlan, act: _ActiveRows) -> None:
    """One sweep of the plan: each parity node, followed by the equality and
    code node of its layer if the window holds one."""
    t = plan.position
    for s, edges in plan.sweep:
        _plus_node(code, act, t, s, edges)
        if s <= plan.layer_end:
            _eq_c_node(code, act, s - t)


def decode_window(code: BmstCode, plan: WindowPlan, config: DecoderConfig,
                  channel_llr: np.ndarray, decided_signs: np.ndarray):
    """Run up to ``max_iters`` sweeps of ``plan`` and decide its target
    layer.

    ``channel_llr``, shaped ``(..., L+m, N)``, holds the full received
    sequence; the window reads the blocks of the parity nodes it sweeps.
    ``decided_signs``, shaped ``(..., L, N)``, holds the hard decisions of
    the decided layers' codeword bits as signs, +1 for 0 and -1 for 1; the
    window reads those its plan ties to it.  Returns the hard decisions on
    the target layer's info bits and their APP LLRs, shaped like the batch's
    lead axes plus ``(K,)``.  A decided edge is a factor of +/-1.0 in its
    parity node's tanh products, and a product by +/-1.0 is exact in any
    order, so each swept parity node has one term fixed for the window: its
    channel block's ``tanh(x/2)`` times the signs of its decided edges.
    Those terms are computed once, before the first sweep.

    Each sweep writes one message buffer per direction while the other
    keeps the previous sweep's.  A trial stops at an exact fixed point,
    once a sweep leaves every one of its messages unchanged (the buffers
    agree by value), or after ``max_iters`` sweeps, and leaves the active
    set: its decisions and its work do not depend on its batch-mates.

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
    lead = channel_llr.shape[:-2]
    trials = math.prod(lead)
    layers = plan.layer_end - t + 1
    shape = (layers, m + 1, trials, N)
    # The swept blocks' fixed terms as (blocks, trials, N).
    channel = channel_llr.reshape((trials,) + channel_llr.shape[-2:])
    fixed = tanh_half(channel[:, t:plan.sweep[-1][0] + 1].swapaxes(0, 1))
    signs = decided_signs.reshape((trials,) + decided_signs.shape[-2:])
    for s, edges in plan.sweep:
        for j, x in edges:
            if x < t:
                fixed[s - t] *= signs[:, x, code.perms[j]]
    act = _ActiveRows(np.arange(trials), fixed, np.zeros(shape),
                      np.zeros(shape), np.zeros(shape), np.zeros(shape),
                      [0] * layers, [[0] * (m + 1) for _ in range(layers)])
    # The target layer's incoming parity messages, for the decision.
    target = np.empty(shape[1:])
    with np.errstate(divide="ignore"):  # atanh(+/-1), saturated by the clip
        for sweep in range(1, config.max_iters + 1):
            act.swap()
            _iterate(code, plan, act)
            done = act.unchanged() | (sweep == config.max_iters)
            if done.any():
                target[:, act.rows[done]] = act.ppm[0][:, done]
                act.subset(~done)
                if not act.rows.size:
                    break
        total = target.sum(axis=0)
        _, info_app = siso_decode_basic(code.basic,
                                        clip_llr(total, out=total))
    info_app = info_app.reshape(lead + (code.K,))
    bits = (info_app < 0).astype(np.uint8)
    return bits, info_app


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
        bits, _ = decode_window(code, plan, config, llr, signs)
        decisions[:, t] = bits
        signs[:, t] = 1 - 2 * encode_basic(code.basic, bits).astype(np.int8)
    return decisions.reshape(lead + (L * K,))
