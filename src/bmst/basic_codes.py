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

from .channel import ebn0_to_sigma
from .jfun import jfun, jinv, qfunc
from .llr import clip_llr, leave_one_out_boxplus, tanh_half

RC = "rc"
SPC = "spc"

#: Points of each Gauss rule of the extrinsic's law in :func:`ber_basic`.
GAUSS_POINTS = 64
#: Below this magnitude of ``tanh(a/2) tanh(b/2)`` :func:`_boxplus` takes
#: its atanh; above it the log form's relative error, about 2**-52 over the
#: product, stays below 2**-32.
_SMALL_PRODUCT = 2.0 ** -20


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
                      info_app: bool = True):
    """Exact symbol-MAP SISO decode, independently per block.

    ``cw_apriori`` carries N codeword-bit LLRs, finite and within
    ``+/- LLR_CLIP``; the source half-edge is all-zero, the equiprobable
    source.  Returns the codeword-edge extrinsic LLRs and the info-bit APP
    LLRs, or None in place of the latter when ``info_app`` is false.
    Stacked inputs are decoded along the last axis.  An SPC check with
    saturated inputs reaches atanh(+/-1) (see
    :func:`bmst.llr.leave_one_out_boxplus`), which the caller's
    ``np.errstate`` decides how to report.
    """
    cw = np.asarray(cw_apriori, dtype=float)
    if cw.shape[-1] != code.N:
        raise ValueError(f"expected {code.N} codeword LLRs, got {cw.shape[-1]}")
    lead = cw.shape[:-1]
    n, k = code.small.n, code.small.k
    app = None

    if code.small.kind == RC:
        cwb = cw.reshape(lead + (code.cart_order, n))
        # K == B: the block's one source bit adds +0.0 to the column sum,
        # which only turns -0.0 into +0.0.
        if n < 8:
            # numpy sums fewer than 8 terms one by one from +0.0; adding the
            # columns in that order gives the same bits at a fraction of the
            # cost of a reduction over a short last axis, and the sum, begun
            # at +0.0, is never -0.0.
            total = 0.0 + cwb[..., 0]
            for j in range(1, n):
                total = total + cwb[..., j]
        else:
            total = 0.0 + cwb.sum(axis=-1)
        ext = np.subtract(total[..., None], cwb)
        clip_llr(ext, out=ext)
        if info_app:
            app = clip_llr(total)[..., None]
    else:
        # One row per block: its k info bits take the source's +0.0, which
        # only turns -0.0 into +0.0, and its parity bit is taken as is.  The
        # n bit positions, the columns, are the combine's inputs, and its
        # outputs fill the columns of ``ext``.
        rows = cw.reshape(-1, n)
        eff = rows + 0.0
        eff[:, k:] = rows[:, k:]
        ext = np.empty_like(eff)
        leave_one_out_boxplus(list(tanh_half(eff).T), out=ext.T)
        if info_app:
            app = np.add(eff[:, :k], ext[:, :k])
            clip_llr(app, out=app)
    if info_app:
        app = app.reshape(lead + (code.K,))
    return ext.reshape(lead + (code.N,)), app


def exit_transfer_c(small: SmallCode, i_a: float) -> float:
    """Scalar EXIT transfer of the code-constraint node.

    Under the consistent-Gaussian assumption the repetition code combines the
    other n-1 a-priori inputs like a variable node, and the SPC code is its
    dual; the all-zero-information source half-edge contributes nothing.
    """
    if not 0.0 <= i_a <= 1.0:
        raise ValueError(f"a-priori MI must lie in [0, 1], got {i_a}")
    scale = math.sqrt(small.n - 1)
    if small.kind == RC:
        return jfun(scale * jinv(i_a))
    return 1.0 - jfun(scale * jinv(1.0 - i_a))


@dataclass(frozen=True)
class BerEstimate:
    """A basic-code BER, exact up to quadrature for SPC codes."""

    ber: float


def _boxplus(a, b):
    """Parity-check combine of two LLR arrays, unsaturated.  The log form
    is exact for large inputs, but its terms cancel to an absolute error of
    a few ulps of 1, all of a small result; where the tanh product is small,
    ``2 atanh`` of it is accurate to a few ulps of the result instead."""
    out = (np.sign(a) * np.sign(b) * np.minimum(np.abs(a), np.abs(b))
           + np.log1p(np.exp(-np.abs(a + b)))
           - np.log1p(np.exp(-np.abs(a - b))))
    product = np.tanh(0.5 * a) * np.tanh(0.5 * b)
    small = np.abs(product) < _SMALL_PRODUCT
    out[small] = 2.0 * np.arctanh(product[small])
    return out


def _gauss_rule(x: np.ndarray, w: np.ndarray, points: int):
    """Nodes and weights of the ``points``-point Gauss rule (or one of the
    rank, if lower) of the measure with weight ``w[j]`` at ``x[j]``: the
    Stieltjes procedure gives the Jacobi matrix, its eigenvalues are the
    nodes and the Christoffel numbers the weights (Golub and Welsch, Math.
    Comp. 1969); a weight whose sum overflows is 0.  The inner products
    are ``np.add.reduce`` sums, not ``np.dot``: BLAS sums in an order that
    depends on its thread count, and so would the rule."""
    # The rule of 2**k x is the rule of x with its nodes times 2**k, and the
    # scaling is exact; with the support inside [-1, 1] the sums of squares
    # below cannot underflow, however small the support is.
    shift = math.frexp(np.abs(x).max())[1]
    x = np.ldexp(x, -shift)
    total = w.sum()
    points = min(points, len(np.unique(x[w > 0])))
    alpha, beta = np.empty(points), np.zeros(points)  # beta[0] is unused
    v_prev, v = np.zeros_like(x), np.sqrt(w / total)
    for j in range(points):
        alpha[j] = np.add.reduce(x * v * v)
        if j + 1 < points:
            u = (x - alpha[j]) * v - beta[j] * v_prev
            beta[j + 1] = math.sqrt(np.add.reduce(u * u))
            v_prev, v = v, u / beta[j + 1]
    nodes = np.linalg.eigvalsh(np.diag(alpha) + np.diag(beta[1:], -1))
    p_prev, p, norm = np.zeros(points), np.ones(points), np.ones(points)
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(points - 1):
            p_prev, p = p, (((nodes - alpha[j]) * p - beta[j] * p_prev)
                            / beta[j + 1])
            norm += p * p
    return (np.ldexp(nodes, shift),
            np.where(np.isfinite(norm), total / norm, 0.0))


def ber_basic(small: SmallCode, ebn0_db: float) -> BerEstimate:
    """BER of the basic code under MAP decoding on the BPSK-AWGN channel.

    ``ebn0_db`` is normalized by the basic code rate k/n.  Repetition codes
    use the closed form Q(sqrt(2 Eb/N0)).  An SPC[n, n-1] bit with channel
    LLR l ~ N(mu, 2 mu), mu = 2/sigma^2, errs when l < -E, E the combine of
    the other n-1 LLRs, so the BER is E[Q((mu + E) / sqrt(2 mu))].  E's law
    starts from a Gauss-Hermite rule of l, and each of n-2 pairwise
    combines is compressed to its ``GAUSS_POINTS``-point Gauss rule.  The
    rule of l takes twice as many points: the combine bends the integrand
    sharply in l, and with as many the value moved by 2e-5 relative when
    ``GAUSS_POINTS`` doubled (n = 8, 8.5 dB), with twice as many by 3e-7.
    Far below 0 dB the LLRs and their combines are tiny, and both steps
    keep them to a few ulps, so the BER falls with Eb/N0 down to at least
    -200 dB.  Below about -310 dB the sum is 0.5 up to the rounding of the
    weights' sum, which may lie above 1, so it is capped at 0.5.
    """
    if small.kind == RC:
        # n observations at Es/N0 = (Eb/N0)/n combine to 2*Eb/N0 after ML.
        p = qfunc(math.sqrt(2.0 * 10.0 ** (ebn0_db / 10.0)))
        return BerEstimate(p)

    mu = 2.0 / ebn0_to_sigma(ebn0_db, small.rate) ** 2
    scale = math.sqrt(2.0 * mu)
    x, w = np.polynomial.hermite_e.hermegauss(2 * GAUSS_POINTS)
    llr, w_llr = mu + scale * x, w / math.sqrt(2.0 * math.pi)
    ext, w_ext = llr, w_llr
    for _ in range(small.n - 2):
        ext, w_ext = _gauss_rule(_boxplus(ext[:, None], llr).ravel(),
                                 np.outer(w_ext, w_llr).ravel(), GAUSS_POINTS)
    return BerEstimate(min(0.5, math.fsum(
        wi * qfunc((mu + e) / scale)
        for wi, e in zip(w_ext.tolist(), ext.tolist()))))
