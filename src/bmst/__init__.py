"""Block Markov superposition transmission of short codes.

Construction and encoding of coupled repetition / single-parity-check
codes, finite-length sliding-window BP decoding over the BPSK-AWGN
channel, and MI-domain threshold analysis with a genie-aided BER bound.
"""

from .basic_codes import ber_basic, cartesian, make_small_code
from .channel import ebn0_to_sigma, llr_demap, transmit
from .encoder import build_bmst, encode_bmst, generator_matrix, rate_bmst
from .exit_engine import (BracketError, ThresholdQuery, ber_estimate,
                          exit_window_run, genie_bound_ebn0_at_target,
                          genie_lower_bound, mi_ap, threshold_search)
from .jfun import jfun, jfun_quad, jinv
from .window_decoder import DecoderConfig, decode_sequence

__version__ = "0.1.0"

__all__ = [
    "ber_basic", "cartesian", "make_small_code",
    "ebn0_to_sigma", "llr_demap", "transmit",
    "build_bmst", "encode_bmst", "generator_matrix", "rate_bmst",
    "BracketError", "ThresholdQuery", "ber_estimate", "exit_window_run",
    "genie_bound_ebn0_at_target", "genie_lower_bound", "mi_ap",
    "threshold_search",
    "jfun", "jfun_quad", "jinv",
    "DecoderConfig", "decode_sequence",
    "__version__",
]
