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
window each trial iterates until its own messages reach an exact fixed
point (a sweep leaves every message unchanged), until they reach the state
that ``max_iters`` sweeps would leave them in, found by an exact limit
cycle, or until ``max_iters`` sweeps have run; trials that are done drop
out of the arrays later sweeps work on.  A trial's decisions and its work
thus do not depend on its batch-mates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basic_codes import encode_basic, siso_decode_basic
from .encoder import BmstCode, WindowPlan, window_plan
from .llr import clip_llr, leave_one_out_boxplus, tanh_half

#: Sweeps between the message states a trial's later states are compared
#: with; a limit cycle of at most this period is found.
CHECKPOINT_SWEEPS = 8


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
    ``rows`` maps each trial to its index in the flattened batch, and
    ``stop`` to the sweep after which it is done at the latest.  ``saved``
    holds ``(epm, ppm)`` as they were after sweep ``saved_at``, or is None
    before the first checkpoint.
    """

    rows: np.ndarray
    fixed: np.ndarray
    epm: np.ndarray
    ppm: np.ndarray
    old_epm: np.ndarray
    old_ppm: np.ndarray
    stop: np.ndarray
    saved: tuple[np.ndarray, np.ndarray] | None
    saved_at: int

    def subset(self, keep: np.ndarray) -> None:
        """Keep only the trials where ``keep`` is set.  Each array is
        replaced on its own, so at most one array has an old and a new copy
        in memory at a time."""
        self.rows = self.rows[keep]
        self.stop = self.stop[keep]
        self.fixed = self.fixed[:, keep]
        self.epm = self.epm[:, :, keep]
        self.old_epm = self.old_epm[:, :, keep]
        self.ppm = self.ppm[:, :, keep]
        self.old_ppm = self.old_ppm[:, :, keep]
        if self.saved is not None:
            self.saved = tuple(msgs[:, :, keep] for msgs in self.saved)

    def save(self, sweep: int) -> None:
        """Take the checkpoint of the state after ``sweep``."""
        self.saved = (self.epm.copy(), self.ppm.copy())
        self.saved_at = sweep

    def find_cycles(self, sweep: int, max_iters: int) -> None:
        """Set ``stop`` of each trial whose state after ``sweep`` equals its
        state at the checkpoint.

        Every step of a sweep maps states equal by value to states equal by
        value (a zero's sign changes no nonzero result), so such a trial
        repeats its states by value with period p = ``sweep - saved_at``.
        Its state after ``max_iters`` sweeps is then, by value, the one
        after ``sweep + (max_iters - sweep) % p``, at most p - 1 sweeps on;
        both SISO paths turn a zero into +0.0, so its APPs are the same
        bits.
        """
        same = _agree((self.epm, self.ppm), self.saved)
        period = sweep - self.saved_at
        self.stop[same] = sweep + (max_iters - sweep) % period

    def swap(self) -> None:
        """Make the newest messages the old ones before a sweep."""
        self.epm, self.old_epm = self.old_epm, self.epm
        self.ppm, self.old_ppm = self.old_ppm, self.ppm


def _agree(now, then) -> np.ndarray:
    """Per trial, whether two message states, each an ``(epm, ppm)`` pair,
    are equal element by element.  The window's last layer, whose messages
    settle last, is compared first, and the whole state only if some
    trial's last layer agrees."""
    same = (now[0][-1] == then[0][-1]).all(axis=(0, 2))
    if same.any():
        for a, b in zip(now, then):
            same &= (a == b).all(axis=(0, 1, 3))
    return same


def _plus_node(code: BmstCode, act: _ActiveRows, t: int, s: int,
               edges) -> None:
    """Update parity node of block s in the window of target layer t; write
    its extrinsics toward the window's layers.  Every input enters as its
    tanh: the node's fixed term as computed when the window starts, and the
    messages of the window's layers gathered into the rows of one block,
    which becomes their tanh in place.  A lone receiver's message is never
    read, so it is not gathered, and its input is None."""
    live = [(j, x - t) for j, x in edges if x >= t]
    th = [act.fixed[s - t], None]
    if len(live) > 1:
        block = np.empty((len(live),) + act.fixed.shape[1:])
        for (j, w), row in zip(live, block):
            # layer s speaks after this node in a sweep, layers left of it
            # before; the indices are valid, and mode "clip" only spares
            # take a buffer copy
            msgs = act.old_epm if j == 0 else act.epm
            msgs[w, j].take(code.perms[j], axis=-1, out=row, mode="clip")
        np.multiply(block, 0.5, out=block)
        np.tanh(block, out=block)
        th[1:] = block
    outs = leave_one_out_boxplus(th, needed=range(1, len(th)))
    for (j, w), out in zip(live, outs[1:]):
        out.take(code.perms_inv[j], axis=-1, out=act.ppm[w, j], mode="clip")


def _eq_c_node(code: BmstCode, act: _ActiveRows, w: int) -> None:
    """Equality and code-constraint updates of the window's layer w."""
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


def _iterate(code: BmstCode, plan: WindowPlan, act: _ActiveRows) -> None:
    """One sweep of the plan: each parity node, followed by the equality and
    code node of its layer if the window holds one.  Parity node t is left
    out: its output is fixed for the window and computed before the first
    sweep."""
    t = plan.position
    for s, edges in plan.sweep:
        if s > t:
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
    Those terms are computed once, before the first sweep, and so is the
    output of parity node t, which reads nothing else.  Each sweep writes
    one message buffer per direction while the other keeps the previous
    sweep's messages.  Each trial stops on its own: once a sweep leaves
    every one of its messages unchanged (the two buffers agree), it sits at
    an exact fixed point and further sweeps would be no-ops, so it leaves
    the active set and later sweeps skip it.  Every ``CHECKPOINT_SWEEPS``
    sweeps the state of both directions is saved, and after each sweep each
    trial's state is compared with the saved one.  A match at sweep i
    against the state after sweep c puts the trial in an exact limit cycle
    of period p = i - c, so its state after
    ``max_iters`` sweeps is its state after i + (max_iters - i) mod p: it
    runs those at most p - 1 sweeps more and leaves the active set as a
    converged trial does.  Otherwise it stops after ``max_iters`` sweeps.
    The decision reads the state each trial leaves with, which is the one
    ``max_iters`` sweeps would leave.  A trial's decisions and its work
    therefore do not depend on its batch-mates.
    """
    m, N = code.memory, code.N
    t = plan.position
    lead = channel_llr.shape[:-2]
    trials = math.prod(lead)
    shape = (plan.layer_end - t + 1, m + 1, trials, N)
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
                      np.full(trials, config.max_iters), None, 0)
    # The target layer's incoming parity messages, for the decision.
    target = np.empty(shape[1:])
    with np.errstate(divide="ignore"):  # atanh(+/-1), saturated by the clip
        # Parity node t answers only the target layer, whose message it
        # never reads, from its fixed term: its output is the same in every
        # sweep, so both buffers get it once.
        _plus_node(code, act, t, t, plan.sweep[0][1])
        act.old_ppm[0, 0] = act.ppm[0, 0]
        for sweep in range(1, config.max_iters + 1):
            act.swap()
            _iterate(code, plan, act)
            done = _agree((act.epm, act.ppm), (act.old_epm, act.old_ppm))
            if act.saved is not None:
                act.find_cycles(sweep, config.max_iters)
            done |= act.stop == sweep
            if done.any():
                target[:, act.rows[done]] = act.ppm[0][:, done]
                act.subset(~done)
                if not act.rows.size:
                    break
            if sweep % CHECKPOINT_SWEEPS == 0:
                act.save(sweep)
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
