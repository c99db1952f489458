"""BPSK modulation, AWGN sampling, LLR demapping, and SNR conversions.

Bit 0 maps to +1 so the all-zero codeword is the all-plus-one sequence and
all-zero-based analysis lines up with simulation.  Gaussian noise comes from
numpy's ziggurat sampler on a PCG64 stream; the identifiers are recorded in
run metadata for replay.
"""

from __future__ import annotations

import math

import numpy as np

from .jfun import bisect, jfun
from .llr import LLR_CLIP, clip_llr

#: Identifier of the noise-sampling scheme, recorded in run metadata.
NOISE_ALGORITHM = "ziggurat/pcg64"
#: Bisection tolerance of :func:`bpsk_capacity_ebn0_db`, in dB.
CAPACITY_TOL_DB = 1e-6
#: Largest |Eb/N0| (dB) an SNR sweep, threshold bracket or analysis run may
#: reach.  Far past it 10**(Eb/N0 / 10) leaves the float range: it
#: overflows above about 3,082 dB and rounds to 0 below about -3,240 dB.
MAX_ABS_SNR_DB = 400.0


def check_ebn0_db(ebn0_db: float, name: str = "Eb/N0") -> None:
    """Raise ``ValueError`` unless ``ebn0_db`` is finite and lies within
    +/-``MAX_ABS_SNR_DB``."""
    if not abs(ebn0_db) <= MAX_ABS_SNR_DB:  # False for NaN too
        raise ValueError(f"{name} must be finite and lie within "
                         f"+/-{MAX_ABS_SNR_DB} dB, got {ebn0_db}")


def ebn0_to_sigma(ebn0_db: float, rate: float) -> float:
    """Noise standard deviation for a given Eb/N0 (dB) and code rate."""
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must lie in (0, 1], got {rate}")
    return 1.0 / math.sqrt(2.0 * rate * 10.0 ** (ebn0_db / 10.0))


def transmit(bits: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """BPSK-modulate bits (0 -> +1) and add white Gaussian noise."""
    if sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    bits = np.asarray(bits)
    symbols = 1.0 - 2.0 * bits.astype(float)
    if sigma == 0.0:
        return symbols
    return symbols + sigma * rng.standard_normal(bits.shape)


def llr_demap(y: np.ndarray, sigma: float) -> np.ndarray:
    """Channel LLRs 2*y/sigma^2, clipped; sigma == 0 saturates by sign.
    The result is the one array this allocates."""
    y = np.asarray(y, dtype=float)
    if sigma == 0.0:
        return np.where(y >= 0.0, LLR_CLIP, -LLR_CLIP)
    llr = np.multiply(y, 2.0)
    llr /= sigma * sigma
    return clip_llr(llr, out=llr)


def channel_mi(ebn0_db: float, rate: float) -> float:
    """Mutual information of the BPSK-AWGN channel LLR at this operating point.

    Equals J(sqrt(8 * rate * Eb/N0)); the channel LLR is a consistent
    Gaussian with variance 8 * rate * Eb/N0.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must lie in (0, 1], got {rate}")
    return jfun(math.sqrt(8.0 * rate * 10.0 ** (ebn0_db / 10.0)))


def bpsk_capacity_ebn0_db(rate: float) -> float:
    """Smallest Eb/N0 (dB) at which BPSK-AWGN capacity reaches ``rate``.

    Solves channel_mi(ebn0, rate) == rate by bisection; the constrained
    capacity equals the channel MI under the consistent-Gaussian LLR model.
    """
    if not 0.0 < rate < 1.0:
        raise ValueError(f"rate must lie in (0, 1), got {rate}")
    lo, hi = bisect(lambda db: channel_mi(db, rate) < rate, -20.0, 40.0,
                    CAPACITY_TOL_DB)
    return 0.5 * (lo + hi)
