"""Experiment runners with replayable CSV output.

An :class:`ExperimentSpec` checks every rule when it is built and raises
:class:`SpecError` for the first it breaks, so no runner sees a bad spec.
Every run emits a commented metadata header that echoes the full experiment
spec plus the RNG algorithm identifiers and package version; feeding that
header back through :func:`replay` regenerates the CSV bit-exactly (the
timestamp line is informational and excluded from the comparison).
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from datetime import datetime, timezone
from functools import partial
from typing import get_args, get_origin, get_type_hints

import numpy as np

from . import __version__
from .basic_codes import SmallCode, cartesian, make_small_code
from .channel import (MAX_ABS_SNR_DB, NOISE_ALGORITHM, bpsk_capacity_ebn0_db,
                      check_ebn0_db, ebn0_to_sigma, llr_demap, transmit)
from .encoder import (MAX_ITERS, PERM_ALGORITHM, build_bmst, coupled_rate,
                      encode_bmst, rate_bmst)
from .exit_engine import (MIN_TARGET_BER, BracketError, ThresholdQuery,
                          genie_bound_ebn0_at_target, genie_lower_bound,
                          threshold_search)
from .forked import forked_sum, worker_count
from .window_decoder import DecoderConfig, decode_sequence

#: Codewords decoded per batch; recorded in metadata, fixed for determinism.
BATCH_CODEWORDS = 32
#: Most points an SNR sweep (``ber``, ``bound``) may hold.
MAX_SNR_POINTS = 10_000
#: Most values one ``ber`` or ``encode`` frame may hold: its (L + m)*n*B
#: code bits and, for ``ber``, each buffer of a window's messages, w*(m +
#: 1)*n*B values for a window of w = min(d + 1, L) layers.  At the bound a
#: 32-frame batch's channel LLRs take 1 GiB.  So is a threshold run's MI
#: state, (L + m)*(m + 1) messages a direction, and, for every command, the
#: n*n values that bound the small code's dense generator (n <= 2,048).
MAX_FRAME_VALUES = 2 ** 22


class SpecError(ValueError):
    """The experiment spec is invalid (CLI exit code 2)."""


#: The list fields of which each command reads only the first value.
_FIRST_ONLY = {"ber": ("memories", "lengths", "delays"),
               "threshold-vs-l": ("delays", "targets"),
               "threshold-vs-target": ("lengths",),
               "bound": (),
               "encode": ("memories", "lengths")}


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to replay one experiment bit-exactly."""

    command: str
    kind: str = "rc"
    n: int = 2
    cart: int = 100
    memories: tuple[int, ...] = (1,)
    lengths: tuple[int, ...] = (100,)
    delays: tuple[int, ...] = ()      # empty: command-specific default
    max_iters: int = MAX_ITERS
    seed: int = 1
    snr_lo: float = 0.0
    snr_hi: float = 6.0
    snr_step: float = 1.0
    targets: tuple[float, ...] = (1e-7,)
    max_bits: int = 100_000_000
    max_errors: int = 200
    out: str = ""

    def __post_init__(self) -> None:
        if self.command not in _FIRST_ONLY:
            raise SpecError(f"unknown command {self.command!r}")
        for name in _FIRST_ONLY[self.command]:
            if len(getattr(self, name)) > 1:
                raise SpecError(f"{self.command} reads only the first value "
                                f"of {name}, got {getattr(self, name)}")
        if self.kind not in ("rc", "spc"):
            raise SpecError(f"code kind must be rc or spc, got {self.kind!r}")
        if self.n < 2:
            raise SpecError(f"small-code length must be at least 2, got {self.n}")
        if self.n * self.n > MAX_FRAME_VALUES:
            raise SpecError(f"small-code length may be at most "
                            f"{math.isqrt(MAX_FRAME_VALUES)}, got {self.n}")
        if self.cart < 1:
            raise SpecError(f"Cartesian order must be positive, got {self.cart}")
        if not self.memories or any(m < 0 for m in self.memories):
            raise SpecError(f"memories must be non-negative, got {self.memories}")
        if not self.lengths or any(length < 1 for length in self.lengths):
            raise SpecError(f"lengths must be positive, got {self.lengths}")
        if any(d < 0 for d in self.delays):
            raise SpecError(f"delays must be non-negative, got {self.delays}")
        m, length, N = max(self.memories), max(self.lengths), self.n * self.cart
        size = 0
        if self.command.startswith("threshold"):
            size = (length + m) * (m + 1)
        elif self.command in ("ber", "encode"):
            size = (length + m) * N
            if self.command == "ber":
                width = min(self.delay_for(m) + 1, length)
                size = max(size, width * (m + 1) * N)
        if size > MAX_FRAME_VALUES:
            raise SpecError(f"a {self.command} frame may hold at most "
                            f"{MAX_FRAME_VALUES} values, got {size}")
        if self.max_iters < 1:
            raise SpecError(f"max_iters must be positive, got {self.max_iters}")
        if self.seed < 0:
            raise SpecError(f"seed must be non-negative, got {self.seed}")
        snr = (self.snr_lo, self.snr_hi, self.snr_step)
        if not all(map(math.isfinite, snr)):
            raise SpecError(f"snr bounds and step must be finite, got {snr}")
        if max(abs(self.snr_lo), abs(self.snr_hi)) > MAX_ABS_SNR_DB:
            raise SpecError(f"snr bounds must lie within +/-{MAX_ABS_SNR_DB} "
                            f"dB, got {snr[:2]}")
        if self.snr_step <= 0 or self.snr_hi < self.snr_lo:
            raise SpecError("need snr_lo <= snr_hi and snr_step > 0")
        if self.command.startswith("threshold") and self.snr_hi <= self.snr_lo:
            raise SpecError("threshold searches need snr_lo < snr_hi")
        # snr_points raises for a sweep that is too long; its last point may
        # pass snr_hi by up to 1e-9 dB.
        if (self.command in ("ber", "bound")
                and (last := self.snr_points()[-1]) > MAX_ABS_SNR_DB):
            raise SpecError(f"an SNR sweep may reach at most {MAX_ABS_SNR_DB} "
                            f"dB, got {last}")
        if not self.targets or any(not MIN_TARGET_BER < t < 0.5
                                   for t in self.targets):
            raise SpecError(f"targets must lie in ({MIN_TARGET_BER}, 0.5), "
                            f"got {self.targets}")
        if self.max_bits < 1 or self.max_errors < 1:
            raise SpecError("trial budget must be positive")

    @property
    def memory(self) -> int:
        return self.memories[0]

    @property
    def length(self) -> int:
        return self.lengths[0]

    def delay_for(self, memory: int) -> int:
        return self.delays[0] if self.delays else 3 * memory

    def snr_points(self) -> list[float]:
        """The sweep's Eb/N0 points; a sweep of more than
        ``MAX_SNR_POINTS`` (or one whose step no longer moves the point) is
        a :class:`SpecError`."""
        pts = []
        g = self.snr_lo
        while g <= self.snr_hi + 1e-9:
            if len(pts) == MAX_SNR_POINTS:
                raise SpecError(f"an SNR sweep holds at most {MAX_SNR_POINTS} "
                                f"points; step {self.snr_step} is too fine")
            pts.append(round(g, 9))
            g += self.snr_step
        return pts


def spec_to_metadata(spec: ExperimentSpec) -> dict[str, str]:
    values = ((f.name, getattr(spec, f.name)) for f in fields(spec))
    return {name: ",".join(map(_fmt, v)) if isinstance(v, tuple) else _fmt(v)
            for name, v in values}


def _from_text(hint, raw: str):
    """Parse one metadata value by its field's declared type."""
    if get_origin(hint) is tuple:
        cast = get_args(hint)[0]
        return tuple(cast(x) for x in raw.split(",")) if raw else ()
    return hint(raw)


def spec_from_metadata(meta: dict[str, str]) -> ExperimentSpec:
    hints = get_type_hints(ExperimentSpec)
    values = {}
    for name in (f.name for f in fields(ExperimentSpec) if f.name in meta):
        try:
            values[name] = _from_text(hints[name], meta[name])
        except ValueError:
            raise SpecError(f"metadata field {name} does not parse: "
                            f"{meta[name]!r}")
    return ExperimentSpec(**values)


@dataclass(frozen=True)
class BerPoint:
    """One measured point of a BER sweep."""

    ebn0_db: float
    bits_simulated: int
    bit_errors: int
    ber: float
    lower_bound_ber: float
    standard_error: float


def _fmt(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))  # numpy scalars would print as np.float64(...)
    return str(v)


def _csv_text(spec: ExperimentSpec, columns: list[str],
              rows: list[tuple]) -> str:
    lines = [f"# bmst-csv v1 package={__version__}"]
    for k, v in spec_to_metadata(spec).items():
        lines.append(f"# {k}={v}")
    lines.append(f"# rng=pcg64 perms={PERM_ALGORITHM.split('/')[0]} "
                 f"noise={NOISE_ALGORITHM.split('/')[0]} numpy={np.__version__}")
    lines.append(f"# batch_codewords={BATCH_CODEWORDS}")
    lines.append(f"# timestamp={datetime.now(timezone.utc).isoformat()}")
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def parse_metadata(text: str) -> dict[str, str]:
    meta: dict[str, str] = {}
    for line in text.splitlines():
        if not line.startswith("# "):
            continue
        body = line[2:]
        if "=" in body and " " not in body.split("=", 1)[0]:
            key, value = body.split("=", 1)
            meta[key] = value
    return meta


def _chunk_bit_errors(code, sigma: float, config: DecoderConfig, seed: int,
                      point_index: int, trials: range) -> int:
    """Draw, transmit and window-decode ``trials``; return their bit errors.

    Trial j draws its info bits and noise from the stream seeded by
    ``(seed, point_index, j)``; its received row is demapped at once, so
    only the chunk's LLRs are kept.
    """
    info = np.empty((len(trials), code.info_bits), dtype=np.uint8)
    llr = np.empty((len(trials), code.coupling_len + code.memory, code.N))
    for row, j in enumerate(trials):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((seed, point_index, j))))
        info[row] = rng.integers(0, 2, code.info_bits, dtype=np.uint8)
        llr[row] = llr_demap(
            transmit(encode_bmst(code, info[row]), sigma, rng), sigma)
    dec = decode_sequence(code, llr, config)
    return int((dec != info).sum())


def simulate_ber_point(spec: ExperimentSpec, ebn0_db: float,
                       point_index: int) -> BerPoint:
    """Monte Carlo BER at one SNR point under the window decoder.

    Info bits and noise for trial j come from a stream seeded by
    ``(seed, point_index, j)``, and a trial's decisions do not depend on
    its batch-mates, so the result does not depend on how trials are
    grouped.  Each batch of ``BATCH_CODEWORDS`` trials is split into W
    contiguous chunks, W being the number of CPUs in the process's affinity
    mask: this process decodes chunk 0 while W - 1 children, forked for
    this batch only, decode the others and send back their bit-error
    counts.  Every child is joined before the next batch starts, and a
    child exits after its chunk even if its parent has died.  With W = 1 the
    whole batch is decoded here and nothing is forked.  The stopping rule
    is checked after each whole batch.
    """
    check_ebn0_db(ebn0_db)
    small = make_small_code(spec.kind, spec.n)
    basic = cartesian(small, spec.cart)
    code = build_bmst(basic, spec.memory, spec.length, spec.seed)
    rate = rate_bmst(code).value
    sigma = ebn0_to_sigma(ebn0_db, rate)
    config = DecoderConfig(delay=spec.delay_for(spec.memory),
                           max_iters=spec.max_iters)
    workers = worker_count(BATCH_CODEWORDS)
    bits_done = 0
    errors = 0
    trial = 0
    while bits_done < spec.max_bits and errors < spec.max_errors:
        nb = BATCH_CODEWORDS
        cuts = [trial + nb * w // workers for w in range(workers + 1)]
        chunks = [partial(_chunk_bit_errors, code, sigma, config, spec.seed,
                          point_index, range(lo, hi))
                  for lo, hi in zip(cuts, cuts[1:])]
        errors += forked_sum(chunks)
        bits_done += nb * code.info_bits
        trial += nb
    ber = errors / bits_done if bits_done else 0.0
    se = math.sqrt(ber * (1.0 - ber) / bits_done) if bits_done else 0.0
    bound = genie_lower_bound(small, spec.memory, spec.length, ebn0_db).ber
    return BerPoint(ebn0_db, bits_done, errors, ber, bound, se)


def run_ber_sweep(spec: ExperimentSpec) -> str:
    """Window-decoder BER over the SNR sweep, with the genie bound column."""
    rows = [astuple(simulate_ber_point(spec, g, idx))
            for idx, g in enumerate(spec.snr_points())]
    return _csv_text(spec, [f.name for f in fields(BerPoint)], rows)


def _threshold(spec: ExperimentSpec, small: SmallCode, memory: int,
               delay: int, length: int,
               target: float) -> tuple[float, float, str]:
    """Threshold Eb/N0, sigma* and status of one search.  A bracket that
    fails gives NaN values and a ``no-bracket:`` status."""
    try:
        res = threshold_search(ThresholdQuery(
            small, memory, delay, length, target, spec.snr_lo, spec.snr_hi,
            resolution_db=spec.snr_step, max_iters=spec.max_iters))
    except BracketError as exc:
        return math.nan, math.nan, f"no-bracket: {exc}"
    return res.ebn0_star_db, res.sigma_star, "ok"


def run_threshold_vs_l(spec: ExperimentSpec) -> tuple[str, int]:
    """One threshold search per (memory, length); emits both the noise-std
    and Eb/N0 views plus the BPSK capacity reference for each rate.

    Returns the CSV text and the count of bracket failures (rows with a
    non-bracketing interval are recorded and the run continues).
    """
    small = make_small_code(spec.kind, spec.n)
    rows = []
    for m in spec.memories:
        for L in spec.lengths:
            rate = float(coupled_rate(small.k, small.n, m, L))
            cap = bpsk_capacity_ebn0_db(rate)
            d = spec.delay_for(m)
            star, sigma_star, status = _threshold(spec, small, m, d, L,
                                                  spec.targets[0])
            rows.append((spec.kind, m, L, d, rate, sigma_star, star, cap,
                         star - cap, status))
    cols = ["family", "memory", "length", "delay", "rate", "sigma_star",
            "ebn0_star_db", "capacity_ebn0_db", "gap_to_capacity_db", "status"]
    return _csv_text(spec, cols, rows), sum(r[-1] != "ok" for r in rows)


def run_threshold_vs_target(spec: ExperimentSpec) -> tuple[str, int]:
    """Thresholds across target BERs, next to the Eb/N0 at which the
    genie-aided bound reaches each target.

    Without an explicit delay list, each memory m contributes rows for both
    d = m and d = 3m, one set when they are equal (m = 0).
    """
    small = make_small_code(spec.kind, spec.n)
    L = spec.length
    rows = []
    for m in spec.memories:
        delays = spec.delays if spec.delays else dict.fromkeys((m, 3 * m))
        # The bound does not depend on the delay.
        bounds = [genie_bound_ebn0_at_target(small, m, L, target)
                  for target in spec.targets]
        for d in delays:
            for target, bound_db in zip(spec.targets, bounds):
                star, _, status = _threshold(spec, small, m, d, L, target)
                rows.append((spec.kind, m, d, L, target, star, bound_db,
                             status))
    cols = ["family", "memory", "delay", "length", "target_ber",
            "ebn0_star_db", "genie_bound_ebn0_db", "status"]
    return _csv_text(spec, cols, rows), sum(r[-1] != "ok" for r in rows)


def run_lower_bound_table(spec: ExperimentSpec) -> str:
    """Genie-aided BER bound tabulated over the SNR sweep."""
    small = make_small_code(spec.kind, spec.n)
    rows = []
    for m in spec.memories:
        for L in spec.lengths:
            for g in spec.snr_points():
                b = genie_lower_bound(small, m, L, g)
                rows.append((spec.kind, m, L, g, b.ber))
    cols = ["family", "memory", "length", "ebn0_db", "ber_bound"]
    return _csv_text(spec, cols, rows)


def run_encode_debug(spec: ExperimentSpec) -> str:
    """Encode one random info sequence and dump every block as a bit string."""
    small = make_small_code(spec.kind, spec.n)
    basic = cartesian(small, spec.cart)
    code = build_bmst(basic, spec.memory, spec.length, spec.seed)
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence((spec.seed, 0, 0))))
    info = rng.integers(0, 2, code.info_bits, dtype=np.uint8)
    tx = encode_bmst(code, info)
    rows = [("info", -1, "".join(map(str, info)))]
    for t in range(tx.shape[0]):
        rows.append(("coded", t, "".join(map(str, tx[t]))))
    return _csv_text(spec, ["row_type", "index", "bits"], rows)


def run_spec(spec: ExperimentSpec) -> tuple[str, int]:
    """Dispatch a spec to its runner; returns (csv_text, bracket_failures)."""
    if spec.command == "ber":
        return run_ber_sweep(spec), 0
    if spec.command == "threshold-vs-l":
        return run_threshold_vs_l(spec)
    if spec.command == "threshold-vs-target":
        return run_threshold_vs_target(spec)
    if spec.command == "bound":
        return run_lower_bound_table(spec), 0
    return run_encode_debug(spec), 0


def strip_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("# timestamp=")) + "\n"


def replay(text: str) -> str:
    """Re-run the experiment recorded in a CSV's metadata header."""
    spec = spec_from_metadata(parse_metadata(text))
    out, _ = run_spec(spec)
    return out
