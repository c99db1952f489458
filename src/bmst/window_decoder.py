"""Iterative sliding-window BP decoding on the coupled normal graph.

Layer t of the graph ties together the code-constraint node of basic
codeword v_t, the replication (equality) node that fans v_t out to the m+1
superposition (parity) nodes it participates in, and the parity node of
transmitted block c_t with its channel half-edge.  A window with delay d
spans layers t..t+d; the first layer is the target and is the only one
decided before the window shifts.

Messages referencing layers left of the window are saturated at the clip
magnitude according to decided (or known-zero termination) bits; messages
from layers right of the window are zero.  Parity nodes of the m tail
blocks past the last layer carry real channel observations and are
processed whenever the window reaches them.

All arrays accept leading batch axes, so many independent noise
realizations decode through the same vectorized operations.  Within a
window each trial iterates until its own messages reach an exact fixed
point (a sweep leaves every message unchanged) or ``max_iters`` sweeps have
run; converged trials drop out of the arrays later sweeps work on.  A
trial's decisions and its work thus do not depend on its batch-mates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basic_codes import encode_basic, siso_decode_basic
from .encoder import BmstCode
from .llr import LLR_CLIP, leave_one_out_boxplus, tanh_half


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
class WindowState:
    """Context of one window position.

    ``channel_llr`` holds the full received sequence; the window reads
    blocks ``position .. layer_end + m``.  ``feedback_llr`` carries the
    saturated codeword LLRs of already-decided layers (rows at or past
    ``position`` are ignored).
    """

    position: int
    layer_end: int
    channel_llr: np.ndarray
    feedback_llr: np.ndarray

    @classmethod
    def create(cls, code: BmstCode, config: DecoderConfig,
               channel_llr: np.ndarray, position: int,
               feedback_llr: np.ndarray | None = None) -> "WindowState":
        L, m, N = code.coupling_len, code.memory, code.N
        llr = np.asarray(channel_llr, dtype=float)
        if llr.shape[-1] != N or llr.shape[-2] != L + m:
            raise ValueError(
                f"expected channel LLRs shaped (..., {L + m}, {N}), got {llr.shape}")
        if not 0 <= position < L:
            raise ValueError(f"window position must lie in [0, {L}), got {position}")
        lead = llr.shape[:-2]
        if feedback_llr is None:
            feedback_llr = np.zeros(lead + (L, N))
        layer_end = min(position + config.delay, L - 1)
        return cls(position, layer_end, llr, feedback_llr)


@dataclass
class _ActiveRows:
    """Window-local arrays of the trials that are still iterating.

    The trial axis sits after the layer axes.  The terms that stay fixed for
    the whole window are computed once, when it starts: ``channel[k]`` is
    block ``position + k`` and ``channel_th[k]`` its ``tanh(x/2)``;
    ``feedback[x, j]`` pairs decided layer ``x`` as parity node ``x + j``
    sees it (already permuted by ``perms[j]``) with its ``tanh(x/2)``.

    ``epm[w, i]``, shaped ``(trials, N)``, is the message from the equality
    node of layer ``position + w`` toward parity node ``position + w + i``;
    ``ppm[w, i]`` flows the opposite way.  Both live in the codeword-bit
    (pre-permutation) domain.  Each direction has two buffers: a sweep
    writes every message of ``epm``/``ppm`` once and reads the ones it has
    not yet rewritten, the previous sweep's, from ``old_epm``/``old_ppm``.
    Left out, the old buffers are the new ones, which is the same schedule
    run in place.  ``rows`` maps each trial to its index in the flattened
    batch.
    """

    rows: np.ndarray
    channel: np.ndarray
    feedback: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]]
    epm: np.ndarray
    ppm: np.ndarray
    channel_th: np.ndarray | None = None
    old_epm: np.ndarray | None = None
    old_ppm: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.old_epm is None:
            self.old_epm = self.epm
        if self.old_ppm is None:
            self.old_ppm = self.ppm

    def subset(self, keep: np.ndarray) -> None:
        """Keep only the trials where ``keep`` is set.  Each array is
        replaced on its own, so at most one array has an old and a new copy
        in memory at a time."""
        self.rows = self.rows[keep]
        self.channel = self.channel[:, keep]
        self.channel_th = self.channel_th[:, keep]
        self.feedback = {key: (llr[keep], th[keep])
                         for key, (llr, th) in self.feedback.items()}
        self.epm = self.epm[:, :, keep]
        self.old_epm = self.old_epm[:, :, keep]
        self.ppm = self.ppm[:, :, keep]
        self.old_ppm = self.old_ppm[:, :, keep]

    def swap(self) -> None:
        """Make the newest messages the old ones before a sweep."""
        self.epm, self.old_epm = self.old_epm, self.epm
        self.ppm, self.old_ppm = self.old_ppm, self.ppm


def _plus_node(code: BmstCode, state: WindowState, act: _ActiveRows,
               s: int) -> None:
    """Update parity node of block s; write extrinsics to in-window layers."""
    m = code.memory
    t, t_end = state.position, state.layer_end
    terms = [act.channel[s - t]]
    th = [act.channel_th[s - t]]
    receivers = []
    for j in range(m + 1):
        x = s - j
        h = None
        if x < 0 or x >= code.coupling_len:
            term = LLR_CLIP  # termination: known all-zero codeword
        elif x < t:
            term, h = act.feedback[x, j]
        elif x > t_end:
            term = 0.0
        else:
            # layer s speaks after this node in a sweep, layers left of it
            # before
            msgs = act.old_epm if j == 0 else act.epm
            term = msgs[x - t, j][..., code.perms[j]]
            receivers.append(j)
        terms.append(term)
        th.append(h)
    outs = leave_one_out_boxplus(terms, needed=[j + 1 for j in receivers],
                                 th=th)
    for j in receivers:
        # the indices are valid; mode "clip" only spares take a buffer copy
        np.take(outs[j + 1], code.perms_inv[j], axis=-1,
                out=act.ppm[s - j - t, j], mode="clip")


def _eq_c_node(code: BmstCode, state: WindowState, act: _ActiveRows,
               tp: int) -> None:
    """Equality and code-constraint updates of layer tp."""
    m = code.memory
    wi = tp - state.position
    # Parity node tp has just spoken; parity nodes tp+1.. speak later.
    inc = [act.ppm[wi, 0]] + [act.old_ppm[wi, i] for i in range(1, m + 1)]
    # numpy sums over a leading axis edge by edge from +0.0; so does this.
    total = 0.0 + inc[0]
    for msg in inc[1:]:
        total += msg
    to_c = np.clip(total, -LLR_CLIP, LLR_CLIP)
    from_c, _ = siso_decode_basic(code.basic, to_c, assume_clipped=True,
                                  info_app=False)
    for i in range(m + 1):
        out = act.epm[wi, i]
        np.subtract(total, inc[i], out=out)
        out += from_c
        np.clip(out, -LLR_CLIP, LLR_CLIP, out=out)


def _iterate(code: BmstCode, state: WindowState, act: _ActiveRows) -> None:
    """One forward sweep: each window layer's parity then equality/code
    node, followed by the tail parity nodes the window reaches."""
    L, m = code.coupling_len, code.memory
    for tp in range(state.position, state.layer_end + 1):
        _plus_node(code, state, act, tp)
        _eq_c_node(code, state, act, tp)
    for s in range(max(state.layer_end + 1, L),
                   min(state.layer_end + m, L + m - 1) + 1):
        _plus_node(code, state, act, s)


def decode_window(code: BmstCode, state: WindowState, config: DecoderConfig):
    """Run up to ``max_iters`` schedule sweeps and decide the target layer.

    Returns the hard decisions on the target layer's info bits and their APP
    LLRs, shaped like the batch's lead axes plus ``(K,)``.  The channel
    blocks and the decided layers' feedback stay fixed for the window, so
    their ``tanh(x/2)`` terms are computed once, before the first sweep.
    Each sweep writes one message buffer per direction while the other
    keeps the previous sweep's messages.  Each trial stops on its own: once
    a sweep leaves every one of its messages unchanged (the two buffers
    agree), it sits at an exact fixed point and further sweeps would be
    no-ops, so it leaves the active set and later sweeps skip it.  Otherwise
    it stops after ``max_iters`` sweeps.  A trial's decisions and its work
    therefore do not depend on its batch-mates.
    """
    L, m, N = code.coupling_len, code.memory, code.N
    t = state.position
    lead = state.channel_llr.shape[:-2]
    trials = math.prod(lead)
    shape = (state.layer_end - t + 1, m + 1, trials, N)
    # Blocks t..stop-1 as (blocks, trials, N): a view, as only its tanh
    # enters the arithmetic.
    stop = min(state.layer_end + m, L + m - 1) + 1
    channel = state.channel_llr.reshape((trials, L + m, N))[:, t:stop]
    channel = channel.swapaxes(0, 1)
    decided = state.feedback_llr.reshape((trials, L, N))
    feedback = {}
    for x in range(max(t - m, 0), t):
        for j in range(t - x, m + 1):
            llr = decided[:, x, code.perms[j]]
            feedback[x, j] = (llr, tanh_half(llr))
    act = _ActiveRows(np.arange(trials), channel, feedback, np.zeros(shape),
                      np.zeros(shape), tanh_half(channel), np.zeros(shape),
                      np.zeros(shape))
    # The target layer's incoming parity messages, for the decision.
    target = np.empty(shape[1:])
    for _ in range(config.max_iters):
        act.swap()
        _iterate(code, state, act)
        moving = ~((act.epm == act.old_epm).all(axis=(0, 1, 3))
                   & (act.ppm == act.old_ppm).all(axis=(0, 1, 3)))
        if not moving.all():
            done = ~moving
            target[:, act.rows[done]] = act.ppm[0][:, done]
            act.subset(moving)
            if not act.rows.size:
                break
    target[:, act.rows] = act.ppm[0]
    total = target.sum(axis=0)
    _, info_app = siso_decode_basic(
        code.basic, np.clip(total, -LLR_CLIP, LLR_CLIP), assume_clipped=True)
    info_app = info_app.reshape(lead + (code.K,))
    bits = (info_app < 0).astype(np.uint8)
    return bits, info_app


def decode_sequence(code: BmstCode, channel_llrs: np.ndarray,
                    config: DecoderConfig) -> np.ndarray:
    """Window-decode a full received sequence into L*K info decisions.

    Accepts LLRs shaped ``(..., L+m, N)`` or flat ``((L+m)*N,)``.  Each
    window is decoded independently given the channel LLRs and the decision
    log; decided layers feed back their re-encoded codewords as saturated
    LLRs to all later windows.  The lead axes are flattened into one trial
    axis for decoding and restored on the result.
    """
    L, m, N, K = code.coupling_len, code.memory, code.N, code.K
    llr = np.asarray(channel_llrs, dtype=float)
    flat_input = llr.ndim == 1
    if flat_input:
        if llr.size != (L + m) * N:
            raise ValueError(f"expected {(L + m) * N} LLRs, got {llr.size}")
        llr = llr.reshape(L + m, N)
    lead = llr.shape[:-2]
    llr = llr.reshape((-1,) + llr.shape[-2:])
    feedback = np.zeros((llr.shape[0], L, N))
    decisions = np.zeros((llr.shape[0], L, K), dtype=np.uint8)
    for t in range(L):
        state = WindowState.create(code, config, llr, t, feedback)
        bits, _ = decode_window(code, state, config)
        decisions[:, t] = bits
        feedback[:, t] = LLR_CLIP * (
            1.0 - 2.0 * encode_basic(code.basic, bits))
    return decisions.reshape(lead + (L * K,))
