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
from .llr import LLR_CLIP, leave_one_out_boxplus


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
    """Messages and context of one window position.

    ``channel_llr`` holds the full received sequence; the window reads
    blocks ``position .. layer_end + m``.  ``feedback_llr`` carries the
    saturated codeword LLRs of already-decided layers (rows at or past
    ``position`` are ignored).  ``epm[w, i]`` is the message from the
    equality node of layer ``position + w`` toward parity node
    ``position + w + i``; ``ppm[w, i]`` flows the opposite way.  Both live
    in the codeword-bit (pre-permutation) domain.
    """

    position: int
    layer_end: int
    channel_llr: np.ndarray
    feedback_llr: np.ndarray
    epm: np.ndarray
    ppm: np.ndarray

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
        w = layer_end - position + 1
        msg_shape = (w, m + 1) + lead + (N,)
        return cls(position, layer_end, llr, feedback_llr,
                   np.zeros(msg_shape), np.zeros(msg_shape))


@dataclass
class _ActiveRows:
    """Window-local arrays of the trials that are still iterating.

    The trial axis sits after the layer axes: ``channel[k]`` is block
    ``position + k``, ``feedback[k]`` is decided layer
    ``position - len(feedback) + k``, and ``epm``/``ppm`` are shaped
    ``(w, m + 1, trials, N)`` like the window's messages.  ``rows`` maps each
    trial to its index in the flattened batch.
    """

    rows: np.ndarray
    channel: np.ndarray
    feedback: np.ndarray
    epm: np.ndarray
    ppm: np.ndarray

    def subset(self, keep: np.ndarray) -> "_ActiveRows":
        return _ActiveRows(self.rows[keep], self.channel[:, keep],
                           self.feedback[:, keep], self.epm[:, :, keep],
                           self.ppm[:, :, keep])


def _local(x: np.ndarray, start: int, stop: int, trials: int) -> np.ndarray:
    """Blocks ``start:stop`` of ``(..., blocks, N)`` as ``(blocks, trials, N)``."""
    part = x[..., start:stop, :]
    return part.reshape((trials,) + part.shape[-2:]).swapaxes(0, 1).copy()


def _edge_out(code: BmstCode, state: WindowState, act: _ActiveRows, x: int,
              i: int):
    """Message from the equality node of layer x toward parity node x+i."""
    if x < 0 or x >= code.coupling_len:
        return LLR_CLIP  # termination: known all-zero codeword
    if x < state.position:
        return act.feedback[x - state.position]
    if x > state.layer_end:
        return 0.0
    return act.epm[x - state.position, i]


def _plus_node(code: BmstCode, state: WindowState, act: _ActiveRows,
               s: int) -> None:
    """Update parity node of block s; write extrinsics to in-window layers."""
    m = code.memory
    t, t_end = state.position, state.layer_end
    terms = [act.channel[s - t]]
    receivers = []
    for j in range(m + 1):
        x = s - j
        val = _edge_out(code, state, act, x, j)
        if isinstance(val, float):
            terms.append(val)
        else:
            terms.append(val[..., code.perms[j]])
        if t <= x <= t_end:
            receivers.append(j)
    if not receivers:
        return
    outs = leave_one_out_boxplus(terms, needed=[j + 1 for j in receivers])
    for j in receivers:
        act.ppm[s - j - t, j] = outs[j + 1][..., code.perms_inv[j]]


def _eq_c_node(code: BmstCode, state: WindowState, act: _ActiveRows,
               tp: int) -> None:
    """Equality and code-constraint updates of layer tp."""
    m = code.memory
    wi = tp - state.position
    inc = act.ppm[wi]
    total = inc.sum(axis=0)
    to_c = np.clip(total, -LLR_CLIP, LLR_CLIP)
    from_c, _ = siso_decode_basic(code.basic, to_c, assume_clipped=True)
    for i in range(m + 1):
        act.epm[wi, i] = np.clip(total - inc[i] + from_c, -LLR_CLIP, LLR_CLIP)


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
    LLRs, shaped like the batch's lead axes plus ``(K,)``.  Each trial stops
    on its own: once a sweep leaves every one of its messages unchanged, it
    sits at an exact fixed point and further sweeps would be no-ops, so it
    leaves the active set and later sweeps skip it.  Otherwise it stops
    after ``max_iters`` sweeps.  A trial's decisions and its work therefore
    do not depend on its batch-mates.  On return ``state.epm`` and
    ``state.ppm`` hold every trial's final messages.
    """
    L, m, N = code.coupling_len, code.memory, code.N
    t = state.position
    lead = state.channel_llr.shape[:-2]
    trials = math.prod(lead)
    w = state.layer_end - t + 1
    epm = state.epm.reshape((w, m + 1, trials, N))
    ppm = state.ppm.reshape((w, m + 1, trials, N))
    act = _ActiveRows(
        np.arange(trials),
        _local(state.channel_llr, t, min(state.layer_end + m, L + m - 1) + 1,
               trials),
        _local(state.feedback_llr, max(t - m, 0), t, trials), epm, ppm)
    for _ in range(config.max_iters):
        prev_epm = act.epm.copy()
        prev_ppm = act.ppm.copy()
        _iterate(code, state, act)
        moving = ~((act.epm == prev_epm).all(axis=(0, 1, 3))
                   & (act.ppm == prev_ppm).all(axis=(0, 1, 3)))
        if not moving.all():
            done = ~moving
            epm[:, :, act.rows[done]] = act.epm[:, :, done]
            ppm[:, :, act.rows[done]] = act.ppm[:, :, done]
            act = act.subset(moving)
            if not act.rows.size:
                break
    epm[:, :, act.rows] = act.epm
    ppm[:, :, act.rows] = act.ppm
    state.epm = epm.reshape(state.epm.shape)
    state.ppm = ppm.reshape(state.ppm.shape)
    total = ppm[0].sum(axis=0)
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
