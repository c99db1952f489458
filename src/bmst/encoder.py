"""Superposition encoder: couple L basic codewords across m+1 time slots.

Each transmitted block is the XOR of the current basic codeword and the m
previous ones, each scrambled by its own fixed random permutation.  The
explicit generator-matrix view exists for testing small instances; the
streaming encoder is the production path.  :func:`window_plan` states the
sliding-window schedule on this coupling, which the window decoder and the
MI analysis both run, and :data:`MAX_ITERS` how many sweeps of it a window
may take.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .basic_codes import BasicCode, encode_basic

if TYPE_CHECKING:
    import scipy.sparse as sp

#: Identifier of the permutation-sampling scheme, recorded in run metadata.
PERM_ALGORITHM = "fisher-yates/pcg64"


@dataclass(frozen=True, eq=False)
class BmstCode:
    """A coupled code: basic code, memory m, coupling length L, permutations.

    ``perms[i]`` maps the v-domain (basic codeword) to the c-domain
    (transmitted block) as ``c[j] = v[perms[i][j]]``; ``perms_inv`` undoes it.
    """

    basic: BasicCode
    memory: int
    coupling_len: int
    perms: tuple[np.ndarray, ...]
    perms_inv: tuple[np.ndarray, ...]
    seed: int

    @property
    def N(self) -> int:
        return self.basic.N

    @property
    def K(self) -> int:
        return self.basic.K

    @property
    def info_bits(self) -> int:
        return self.coupling_len * self.basic.K

    @property
    def coded_bits(self) -> int:
        return (self.coupling_len + self.memory) * self.basic.N

    def __repr__(self) -> str:
        return (f"BmstCode({self.basic!r}, m={self.memory}, "
                f"L={self.coupling_len}, seed={self.seed})")


class RateInfo(NamedTuple):
    fraction: Fraction
    value: float


def coupled_rate(k: int, n: int, memory: int, coupling_len: int) -> Fraction:
    """Exact rate L*k / ((L+m)*n) of the coupled code."""
    return Fraction(coupling_len * k, (coupling_len + memory) * n)


def _fisher_yates(rng: np.random.Generator, n: int) -> np.ndarray:
    p = np.arange(n, dtype=np.int64)
    for i in range(n - 1, 0, -1):
        j = int(rng.integers(0, i + 1))
        p[i], p[j] = p[j], p[i]
    return p


def build_bmst(basic: BasicCode, memory: int, coupling_len: int,
               seed: int) -> BmstCode:
    """Draw the m+1 permutations uniformly at random from a seeded PCG64
    stream and assemble."""
    if memory < 0:
        raise ValueError(f"memory must be non-negative, got {memory}")
    if coupling_len < 1:
        raise ValueError(f"coupling length must be positive, got {coupling_len}")
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))
    perms = [_fisher_yates(rng, basic.N) for _ in range(memory + 1)]
    inv = []
    for p in perms:
        q = np.empty_like(p)
        q[p] = np.arange(basic.N, dtype=np.int64)
        inv.append(q)
    return BmstCode(basic, memory, coupling_len, tuple(perms), tuple(inv), seed)


def rate_bmst(code: BmstCode) -> RateInfo:
    """Exact and floating-point rate of the coupled code."""
    frac = coupled_rate(code.K, code.N, code.memory, code.coupling_len)
    return RateInfo(frac, float(frac))


def encode_bmst(code: BmstCode, info: np.ndarray) -> np.ndarray:
    """Encode L*K info bits into L+m transmitted blocks of N bits.

    Block t is the XOR over offsets i of the permuted codeword v_{t-i}; the
    m tail blocks terminate the superposition (virtual codewords past the
    ends are all-zero).
    """
    info = np.asarray(info, dtype=np.uint8)
    if info.size != code.info_bits:
        raise ValueError(f"expected {code.info_bits} info bits, got {info.size}")
    L, m, N = code.coupling_len, code.memory, code.N
    v = encode_basic(code.basic, info.reshape(L, code.K))
    out = np.zeros((L + m, N), dtype=np.uint8)
    for i in range(m + 1):
        out[i:i + L] ^= v[:, code.perms[i]]
    return out


#: Sweeps of its plan a window may take, in the decoder and in the MI
#: analysis that predicts it: the one default of every iteration budget.
MAX_ITERS = 50


class WindowPlan(NamedTuple):
    """The schedule of one window, which the window decoder and the MI
    analysis both run.

    The window holds layers ``position .. layer_end``.  ``sweep`` lists
    ``(s, live, decided)`` in sweep order: parity node s, then, if s <=
    ``layer_end``, the equality and code node of layer s.  ``live`` and
    ``decided`` hold, in order of j, the ``(j, x)`` pairs that tie parity
    node s through permutation j to layer ``x = s - j`` of the window
    (``position <= x < L``) and of the decided layers (``0 <= x <
    position``).
    """

    position: int
    layer_end: int
    sweep: tuple[tuple[int, tuple[tuple[int, int], ...],
                       tuple[tuple[int, int], ...]], ...]


def window_plan(coupling_len: int, memory: int, delay: int,
                position: int) -> WindowPlan:
    """The window of target layer ``position`` at delay ``delay``.

    It holds layers ``position .. min(position + delay, L - 1)`` and sweeps
    their parity nodes, plus the m tail nodes ``L .. L + m - 1`` once it
    holds the last layer.  Edges toward the known all-zero codewords past
    either end of the chain carry no uncertainty and drop out.  A tail node
    swept earlier would see a layer right of the window, which knows
    nothing, and so would tell its neighbours nothing; it drops out too.
    """
    L, m = coupling_len, memory
    if not 0 <= position < L:
        raise ValueError(f"window position must lie in [0, {L}), got {position}")
    layer_end = min(position + delay, L - 1)
    stop = L + m if layer_end == L - 1 else layer_end + 1
    sweep = tuple(
        (s, tuple((j, s - j) for j in range(m + 1) if position <= s - j < L),
         tuple((j, s - j) for j in range(m + 1) if 0 <= s - j < position))
        for s in range(position, stop))
    return WindowPlan(position, layer_end, sweep)


#: The most block entries :func:`generator_matrix` builds.
MAX_GENERATOR_ENTRIES = 50_000_000


def generator_matrix(code: BmstCode) -> sp.csr_array:
    """Explicit sparse L*K x (L+m)*N generator; for testing small instances.

    Block (i, j) is the basic generator column-permuted by the offset-(j-i)
    permutation when 0 <= j-i <= m, and zero otherwise.
    """
    import scipy.sparse as sp

    L, m = code.coupling_len, code.memory
    nnz = L * (m + 1) * code.K * code.N
    if nnz > MAX_GENERATOR_ENTRIES:
        raise ValueError(
            f"generator matrix would hold {nnz} block entries, "
            f"above the limit of {MAX_GENERATOR_ENTRIES}")
    g = code.basic.generator()
    blocks = [sp.csr_array(g[:, code.perms[i]]) for i in range(m + 1)]
    grid = [[blocks[j - i] if 0 <= j - i <= m else None
             for j in range(L + m)] for i in range(L)]
    return sp.csr_array(sp.bmat(grid, format="csr", dtype=np.uint8))
