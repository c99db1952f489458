"""Repetition and single-parity-check codes and their Cartesian products.

These short codes are the building blocks that get coupled by the
superposition encoder.  Every operation treats the B-fold Cartesian product
blockwise: encoding, soft-in/soft-out decoding, and the scalar EXIT transfer
all act independently per length-n block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ebn0_to_sigma, llr_demap, transmit
from .jfun import jfun, jinv, qfunc
from .llr import LLR_CLIP, clip_llr, leave_one_out_boxplus, tanh_half

RC = "rc"
SPC = "spc"

#: Blocks per batch of the SPC Monte Carlo in :func:`ber_basic`.
BER_BATCH_BLOCKS = 200_000


@dataclass(frozen=True, eq=False)
class SmallCode:
    """An [n, k] repetition (k=1) or single-parity-check (k=n-1) code."""

    kind: str
    n: int
    k: int
    generator: np.ndarray  # k x n over GF(2), full rank

    @property
    def rate(self) -> float:
        return self.k / self.n

    def __repr__(self) -> str:
        return f"SmallCode({self.kind}[{self.n},{self.k}])"


@dataclass(frozen=True, eq=False)
class BasicCode:
    """B-fold Cartesian product of a small code; block-diagonal generator."""

    small: SmallCode
    cart_order: int
    N: int
    K: int

    @property
    def rate(self) -> float:
        return self.K / self.N

    def generator(self) -> np.ndarray:
        """Dense K x N block-diagonal generator; intended for small instances."""
        g = np.zeros((self.K, self.N), dtype=np.uint8)
        n, k = self.small.n, self.small.k
        for b in range(self.cart_order):
            g[b * k:(b + 1) * k, b * n:(b + 1) * n] = self.small.generator
        return g

    def __repr__(self) -> str:
        s = self.small
        return f"BasicCode({s.kind}[{s.n},{s.k}]^{self.cart_order})"


def make_small_code(kind: str, n: int) -> SmallCode:
    """Build the canonical RC [n,1] or SPC [n,n-1] code."""
    kind = kind.lower()
    if n < 2:
        raise ValueError(f"small-code length must be at least 2, got {n}")
    if kind == RC:
        gen = np.ones((1, n), dtype=np.uint8)
        return SmallCode(RC, n, 1, gen)
    if kind == SPC:
        gen = np.hstack([np.eye(n - 1, dtype=np.uint8),
                         np.ones((n - 1, 1), dtype=np.uint8)])
        return SmallCode(SPC, n, n - 1, gen)
    raise ValueError(f"unknown code kind {kind!r}; expected 'rc' or 'spc'")


def cartesian(small: SmallCode, cart_order: int) -> BasicCode:
    """B-fold Cartesian product of ``small``."""
    if cart_order < 1:
        raise ValueError(f"Cartesian order must be positive, got {cart_order}")
    return BasicCode(small, cart_order, small.n * cart_order, small.k * cart_order)


def encode_basic(code: BasicCode, info: np.ndarray) -> np.ndarray:
    """Encode K info bits into an N-bit codeword, independently per block.

    Supports stacked inputs: the last axis must have length K and is mapped
    to an axis of length N.
    """
    info = np.asarray(info, dtype=np.uint8)
    if info.shape[-1] != code.K:
        raise ValueError(f"expected {code.K} info bits, got {info.shape[-1]}")
    lead = info.shape[:-1]
    blocks = info.reshape(lead + (code.cart_order, code.small.k))
    cw = (blocks.astype(np.int32) @ code.small.generator.astype(np.int32)) & 1
    return cw.astype(np.uint8).reshape(lead + (code.N,))


def siso_decode_basic(code: BasicCode, cw_apriori: np.ndarray,
                      src_apriori: np.ndarray | None = None,
                      assume_clipped: bool = False, info_app: bool = True):
    """Exact symbol-MAP SISO decode, independently per block.

    ``cw_apriori`` carries N codeword-bit LLRs and ``src_apriori`` K source
    LLRs (defaults to all-zero, the equiprobable source).  Returns the
    codeword-edge extrinsic LLRs and the info-bit APP LLRs, or None in
    place of the latter when ``info_app`` is false.  Stacked inputs are
    decoded along the last axis.  ``assume_clipped`` skips the input
    sanitization for callers that guarantee finite, clipped LLRs.
    """
    if assume_clipped:
        cw = np.asarray(cw_apriori, dtype=float)
    else:
        cw = clip_llr(np.asarray(cw_apriori, dtype=float))
    if cw.shape[-1] != code.N:
        raise ValueError(f"expected {code.N} codeword LLRs, got {cw.shape[-1]}")
    lead = cw.shape[:-1]
    # An absent source adds +0.0, which only turns -0.0 into +0.0.
    src = 0.0
    if src_apriori is not None:
        src = clip_llr(np.asarray(src_apriori, dtype=float))
        if src.shape[-1] != code.K:
            raise ValueError(f"expected {code.K} source LLRs, got {src.shape[-1]}")
    n, k = code.small.n, code.small.k
    app = None

    if code.small.kind == RC:
        cwb = cw.reshape(lead + (code.cart_order, n))
        if n < 8:
            # numpy sums fewer than 8 terms one by one from +0.0; adding the
            # columns in that order gives the same bits at a fraction of the
            # cost of a reduction over a short last axis.
            cw_sum = 0.0 + cwb[..., 0]
            for j in range(1, n):
                cw_sum = cw_sum + cwb[..., j]
        else:
            cw_sum = cwb.sum(axis=-1)
        total = src + cw_sum  # K == B: one source bit per block
        ext = np.clip(total[..., None] - cwb, -LLR_CLIP, LLR_CLIP)
        if info_app:
            app = np.clip(total, -LLR_CLIP, LLR_CLIP)[..., None]
    else:
        # One contiguous row per bit position of the small code, so the
        # tanh and every product run over contiguous memory.
        rows = cw.reshape(-1, n)
        eff = np.empty((n, rows.shape[0]))
        srcb = src if src_apriori is None else src.reshape(-1, k).T
        np.add(rows[:, :k].T, srcb, out=eff[:k])
        eff[k:] = rows[:, k:].T
        th = list(tanh_half(eff))
        ext = np.stack(leave_one_out_boxplus(list(eff), th=th), axis=-1)
        if info_app:
            app = np.add(eff[:k].T, ext[:, :k])
            np.clip(app, -LLR_CLIP, LLR_CLIP, out=app)
    if info_app:
        app = app.reshape(lead + (code.K,))
    return ext.reshape(lead + (code.N,)), app


def exit_transfer_c(code: BasicCode | SmallCode, i_a: float) -> float:
    """Scalar EXIT transfer of the code-constraint node.

    Under the consistent-Gaussian assumption the repetition code combines the
    other n-1 a-priori inputs like a variable node, and the SPC code is its
    dual; the all-zero-information source half-edge contributes nothing.
    """
    if not 0.0 <= i_a <= 1.0:
        raise ValueError(f"a-priori MI must lie in [0, 1], got {i_a}")
    small = code.small if isinstance(code, BasicCode) else code
    scale = math.sqrt(small.n - 1)
    if small.kind == RC:
        return jfun(scale * jinv(i_a))
    return 1.0 - jfun(scale * jinv(1.0 - i_a))


@dataclass(frozen=True)
class BerEstimate:
    """A BER value with its standard error (zero for closed forms)."""

    ber: float
    std_error: float
    bits: int = 0


def ber_basic(code: BasicCode | SmallCode, ebn0_db: float, *,
              trials: int = 1_000_000, seed: int = 0) -> BerEstimate:
    """BER of the basic code under MAP decoding on the BPSK-AWGN channel.

    ``ebn0_db`` is normalized by the basic code rate k/n.  Repetition codes
    use the closed form Q(sqrt(2 Eb/N0)); SPC codes are estimated by Monte
    Carlo with exact per-block MAP decoding, ``trials`` blocks in total.
    Batch ``b`` of ``BER_BATCH_BLOCKS`` blocks draws from a stream seeded
    by ``(seed, b)``.
    """
    small = code.small if isinstance(code, BasicCode) else code
    if small.kind == RC:
        # n observations at Es/N0 = (Eb/N0)/n combine to 2*Eb/N0 after ML.
        p = qfunc(math.sqrt(2.0 * 10.0 ** (ebn0_db / 10.0)))
        return BerEstimate(p, 0.0)

    one_block = cartesian(small, 1)
    k = small.k
    sigma = ebn0_to_sigma(ebn0_db, small.rate)
    err_sum = 0.0
    err_sq_sum = 0.0
    blocks_done = 0
    batch_index = 0
    while blocks_done < trials:
        nb = min(BER_BATCH_BLOCKS, trials - blocks_done)
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((seed, batch_index))))
        info = rng.integers(0, 2, size=(nb, k), dtype=np.uint8)
        y = transmit(encode_basic(one_block, info), sigma, rng)
        _, app = siso_decode_basic(one_block, llr_demap(y, sigma))
        errs = ((app < 0).astype(np.uint8) != info).sum(axis=-1).astype(float)
        err_sum += errs.sum()
        err_sq_sum += (errs * errs).sum()
        blocks_done += nb
        batch_index += 1
    total_bits = blocks_done * k
    p_hat = err_sum / total_bits
    var_block = err_sq_sum / blocks_done - (err_sum / blocks_done) ** 2
    se = math.sqrt(max(var_block, 0.0) / blocks_done) / k
    return BerEstimate(p_hat, se, total_bits)
