"""Iterative sliding-window BP decoding on the coupled normal graph.

Layer t of the graph ties together the code-constraint node of basic
codeword v_t, the replication (equality) node that fans v_t out to the m+1
superposition (parity) nodes it participates in, and the parity node of
transmitted block c_t with its channel half-edge.  A window with delay d
spans layers t..t+d; the first layer is the target and is the only one
decided before the window shifts.

Each window runs the schedule of :func:`bmst.encoder.window_plan`, which
the MI analysis runs too.  Messages from decided layers left of the window
are saturated at the clip magnitude according to the decided bits; edges
toward the known all-zero codewords past either end of the chain drop
out.  Parity nodes of the m tail blocks past the last layer carry real
channel observations and are processed once the window holds the last
layer.

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
from .llr import LLR_CLIP, clip_llr, leave_one_out_boxplus, tanh_half

#: Sweeps between the message states a trial's later states are compared
#: with; a limit cycle of at most this period is found.
CHECKPOINT_SWEEPS = 8


@dataclass
class DecoderConfig:
    """Knobs of the window decoder."""

    delay: int
    max_iters: int = 50

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(f"delay must be non-negative, got {self.delay}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")


@dataclass
class _ActiveRows:
    """Window-local arrays of the trials that are still iterating.

    The trial axis sits after the layer axes.  The terms that stay fixed for
    the whole window enter the parity nodes only through their
    ``tanh(x/2)``, computed once, when the window starts: ``channel_th[k]``
    is that of block ``position + k``, ``feedback[x, j]`` that of decided
    layer ``x`` as parity node ``x + j`` sees it (already permuted by
    ``perms[j]``).

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
    channel_th: np.ndarray
    feedback: dict[tuple[int, int], np.ndarray]
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
        self.channel_th = self.channel_th[:, keep]
        self.feedback = {key: th[keep] for key, th in self.feedback.items()}
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
        """Set ``stop`` of each trial whose state after ``sweep`` equals,
        bit for bit, its state at the checkpoint.

        A sweep is a function of the state the previous one left and of
        the window's fixed terms, so such a trial repeats its states with
        period p = ``sweep - saved_at``.  Its state after ``max_iters``
        sweeps is then the one after ``sweep + (max_iters - sweep) % p``,
        at most p - 1 sweeps on.  The comparison is of the bits, so +0.0
        and -0.0 differ.  It reads the window's last layer first, whose
        messages settle last, and the whole state only if some trial's
        agree.
        """
        saved_epm, saved_ppm = self.saved
        bits = np.int64
        same = (self.epm[-1].view(bits) == saved_epm[-1].view(bits)).all(
            axis=(0, 2))
        if not same.any():
            return
        for now, then in ((self.epm, saved_epm), (self.ppm, saved_ppm)):
            same &= (now.view(bits) == then.view(bits)).all(axis=(0, 1, 3))
        period = sweep - self.saved_at
        self.stop[same] = sweep + (max_iters - sweep) % period

    def swap(self) -> None:
        """Make the newest messages the old ones before a sweep."""
        self.epm, self.old_epm = self.old_epm, self.epm
        self.ppm, self.old_ppm = self.old_ppm, self.ppm


def _plus_node(code: BmstCode, act: _ActiveRows, t: int, s: int,
               edges) -> None:
    """Update parity node of block s in the window of target layer t; write
    its extrinsics toward the window's layers.  A fixed term enters as its
    tanh alone, with None for its LLR.  A gathered term becomes its own
    tanh in place and stands as both (``leave_one_out_boxplus`` reads a
    term only where its tanh is None), unless it is the lone receiver's,
    which is never read."""
    lone = sum(x >= t for _, x in edges) == 1
    terms = [None]
    th = [act.channel_th[s - t]]
    receivers = []
    for j, x in edges:
        if x < t:
            term, h = None, act.feedback[x, j]
        else:
            # layer s speaks after this node in a sweep, layers left of it
            # before
            msgs = act.old_epm if j == 0 else act.epm
            term = h = msgs[x - t, j].take(code.perms[j], axis=-1)
            if lone:
                h = None
            else:  # tanh_half, in place
                np.multiply(term, 0.5, out=term)
                np.tanh(term, out=term)
            receivers.append((len(terms), j, x - t))
        terms.append(term)
        th.append(h)
    outs = leave_one_out_boxplus(terms, needed=[i for i, _, _ in receivers],
                                 th=th)
    for i, j, w in receivers:
        # the indices are valid; mode "clip" only spares take a buffer copy
        outs[i].take(code.perms_inv[j], axis=-1, out=act.ppm[w, j],
                     mode="clip")


def _eq_c_node(code: BmstCode, act: _ActiveRows, w: int) -> None:
    """Equality and code-constraint updates of the window's layer w."""
    m = code.memory
    # Parity node of layer w has just spoken; the ones after it speak later.
    inc = [act.ppm[w, 0]] + [act.old_ppm[w, i] for i in range(1, m + 1)]
    # numpy sums over a leading axis edge by edge from +0.0; so does this.
    total = 0.0 + inc[0]
    for msg in inc[1:]:
        total += msg
    from_c, _ = siso_decode_basic(code.basic, clip_llr(total),
                                  info_app=False)
    out = act.epm[w]
    for i in range(m + 1):
        np.subtract(total, inc[i], out=out[i])
    out += from_c
    clip_llr(out, out=out)


def _iterate(code: BmstCode, plan: WindowPlan, act: _ActiveRows) -> None:
    """One sweep of the plan: each parity node, followed by the equality and
    code node of its layer if the window holds one."""
    t = plan.position
    for s, edges in plan.sweep:
        _plus_node(code, act, t, s, edges)
        if s <= plan.layer_end:
            _eq_c_node(code, act, s - t)


def decode_window(code: BmstCode, plan: WindowPlan, config: DecoderConfig,
                  channel_llr: np.ndarray, feedback_llr: np.ndarray):
    """Run up to ``max_iters`` sweeps of ``plan`` and decide its target
    layer.

    ``channel_llr``, shaped ``(..., L+m, N)``, holds the full received
    sequence; the window reads the blocks of the parity nodes it sweeps.
    ``feedback_llr``, shaped ``(..., L, N)``, carries the saturated codeword
    LLRs of the decided layers; the window reads those its plan ties to it.
    Returns the hard decisions on the target layer's info bits and their APP
    LLRs, shaped like the batch's lead axes plus ``(K,)``.  The channel
    blocks and the decided layers' feedback stay fixed for the window, so
    their ``tanh(x/2)`` terms are computed once, before the first sweep.
    Each sweep writes one message buffer per direction while the other
    keeps the previous sweep's messages.  Each trial stops on its own: once
    a sweep leaves every one of its messages unchanged (the two buffers
    agree), it sits at an exact fixed point and further sweeps would be
    no-ops, so it leaves the active set and later sweeps skip it.  Every
    ``CHECKPOINT_SWEEPS`` sweeps the state of both directions is saved, and
    after each sweep each trial's state is compared, bit for bit, with the
    saved one.  A match at sweep i against the state after sweep c puts the
    trial in an exact limit cycle of period p = i - c, so its state after
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
    # The swept blocks as (blocks, trials, N): a view, as only its tanh
    # enters the arithmetic.
    channel = channel_llr.reshape((trials,) + channel_llr.shape[-2:])
    channel = channel[:, t:plan.sweep[-1][0] + 1].swapaxes(0, 1)
    decided = feedback_llr.reshape((trials,) + feedback_llr.shape[-2:])
    feedback = {}
    for _, edges in plan.sweep:
        for j, x in edges:
            if x < t:
                feedback[x, j] = tanh_half(decided[:, x, code.perms[j]])
    act = _ActiveRows(np.arange(trials), tanh_half(channel), feedback,
                      np.zeros(shape), np.zeros(shape), np.zeros(shape),
                      np.zeros(shape), np.full(trials, config.max_iters),
                      None, 0)
    # The target layer's incoming parity messages, for the decision.
    target = np.empty(shape[1:])
    for sweep in range(1, config.max_iters + 1):
        act.swap()
        _iterate(code, plan, act)
        done = ((act.epm == act.old_epm).all(axis=(0, 1, 3))
                & (act.ppm == act.old_ppm).all(axis=(0, 1, 3)))
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
    _, info_app = siso_decode_basic(code.basic, clip_llr(total, out=total))
    info_app = info_app.reshape(lead + (code.K,))
    bits = (info_app < 0).astype(np.uint8)
    return bits, info_app


def decode_sequence(code: BmstCode, channel_llrs: np.ndarray,
                    config: DecoderConfig) -> np.ndarray:
    """Window-decode a full received sequence into L*K info decisions.

    Takes LLRs shaped ``(..., L+m, N)``.  Each window is decoded
    independently given the channel LLRs and the decision log; decided
    layers feed back their re-encoded codewords as saturated LLRs to all
    later windows.  The lead axes are flattened into one trial axis for
    decoding and restored on the result.
    """
    L, m, N, K = code.coupling_len, code.memory, code.N, code.K
    llr = np.asarray(channel_llrs, dtype=float)
    if llr.ndim < 2 or llr.shape[-2:] != (L + m, N):
        raise ValueError(f"expected channel LLRs shaped (..., {L + m}, {N}), "
                         f"got {llr.shape}")
    lead = llr.shape[:-2]
    llr = llr.reshape((-1,) + llr.shape[-2:])
    # int8 holds +/-LLR_CLIP exactly, and a window reads only its tanh,
    # which is exactly +/-1.0.
    feedback = np.zeros((llr.shape[0], L, N), dtype=np.int8)
    decisions = np.zeros((llr.shape[0], L, K), dtype=np.uint8)
    for t in range(L):
        plan = window_plan(L, m, config.delay, t)
        bits, _ = decode_window(code, plan, config, llr, feedback)
        decisions[:, t] = bits
        feedback[:, t] = np.where(encode_basic(code.basic, bits), -LLR_CLIP,
                                  LLR_CLIP)
    return decisions.reshape(lead + (L * K,))
