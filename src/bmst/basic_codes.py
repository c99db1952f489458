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

from .jfun import jfun, jinv, qfunc
from .llr import LLR_CLIP, clip_llr, leave_one_out_boxplus

RC = "rc"
SPC = "spc"


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
                      assume_clipped: bool = False):
    """Exact symbol-MAP SISO decode, independently per block.

    ``cw_apriori`` carries N codeword-bit LLRs and ``src_apriori`` K source
    LLRs (defaults to all-zero, the equiprobable source).  Returns the
    codeword-edge extrinsic LLRs and the info-bit APP LLRs.  Stacked inputs
    are decoded along the last axis.  ``assume_clipped`` skips the input
    sanitization for callers that guarantee finite, clipped LLRs.
    """
    if assume_clipped:
        cw = np.asarray(cw_apriori, dtype=float)
    else:
        cw = clip_llr(np.asarray(cw_apriori, dtype=float))
    if cw.shape[-1] != code.N:
        raise ValueError(f"expected {code.N} codeword LLRs, got {cw.shape[-1]}")
    lead = cw.shape[:-1]
    if src_apriori is None:
        src = np.zeros(lead + (code.K,))
    else:
        src = clip_llr(np.asarray(src_apriori, dtype=float))
        if src.shape[-1] != code.K:
            raise ValueError(f"expected {code.K} source LLRs, got {src.shape[-1]}")
    n, k, B = code.small.n, code.small.k, code.cart_order
    cwb = cw.reshape(lead + (B, n))
    srcb = src.reshape(lead + (B, k))

    if code.small.kind == RC:
        if n < 8:
            # numpy sums fewer than 8 terms one by one from +0.0; adding the
            # columns in that order gives the same bits at a fraction of the
            # cost of a reduction over a short last axis.
            cw_sum = 0.0 + cwb[..., 0]
            for j in range(1, n):
                cw_sum = cw_sum + cwb[..., j]
        else:
            cw_sum = cwb.sum(axis=-1)
        total = srcb[..., 0] + cw_sum
        ext = np.clip(total[..., None] - cwb, -LLR_CLIP, LLR_CLIP)
        app = np.clip(total, -LLR_CLIP, LLR_CLIP)[..., None]
    else:
        eff = cwb.copy()
        eff[..., :k] += srcb
        cols = [eff[..., j] for j in range(n)]
        ext_cols = leave_one_out_boxplus(cols)
        ext = np.stack(ext_cols, axis=-1)
        app = np.clip(eff[..., :k] + ext[..., :k], -LLR_CLIP, LLR_CLIP)
    return ext.reshape(lead + (code.N,)), app.reshape(lead + (code.K,))


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
              trials: int = 1_000_000, seed: int = 0,
              batch_blocks: int = 200_000) -> BerEstimate:
    """BER of the basic code under MAP decoding on the BPSK-AWGN channel.

    ``ebn0_db`` is normalized by the basic code rate k/n.  Repetition codes
    use the closed form Q(sqrt(2 Eb/N0)); SPC codes are estimated by Monte
    Carlo with exact per-block MAP decoding, ``trials`` blocks in total.
    Per-batch RNG streams are derived from ``(seed, batch_index)`` so the
    result is independent of the batching schedule.
    """
    small = code.small if isinstance(code, BasicCode) else code
    if small.kind == RC:
        # n observations at Es/N0 = (Eb/N0)/n combine to 2*Eb/N0 after ML.
        p = qfunc(math.sqrt(2.0 * 10.0 ** (ebn0_db / 10.0)))
        return BerEstimate(p, 0.0)

    one_block = cartesian(small, 1)
    n, k = small.n, small.k
    sigma = 1.0 / math.sqrt(2.0 * (k / n) * 10.0 ** (ebn0_db / 10.0))
    err_sum = 0.0
    err_sq_sum = 0.0
    blocks_done = 0
    batch_index = 0
    while blocks_done < trials:
        nb = min(batch_blocks, trials - blocks_done)
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((seed, batch_index))))
        info = rng.integers(0, 2, size=(nb, k), dtype=np.uint8)
        cw = encode_basic(one_block, info)
        y = (1.0 - 2.0 * cw) + sigma * rng.standard_normal((nb, n))
        llr = clip_llr(2.0 * y / (sigma * sigma))
        _, app = siso_decode_basic(one_block, llr)
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
