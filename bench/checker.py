"""Correctness rules for the CSVs the benchmark's operations emit.

An operation is one BER point or one threshold search.  A BER point fails
when

* its CSV row is missing or malformed, or disagrees with itself
  (``ber != bit_errors / bits_simulated``, a wrong standard error, or a bit
  count other than the workload's fixed budget);
* ``(bits_simulated, bit_errors)`` differs from the reference recorded at
  its spec seed.  Every pass seed is drawn from the recorded ones (see
  ``worker.pass_seeds``), so the exact match catches any change of output
  and subsumes the acceptance-06 rule (``ber < lower_bound_ber - 3 *
  standard_error``), which the benchmark does not apply.

A threshold search fails when its status is not ``ok`` or its
``ebn0_star_db`` is more than one resolution step (0.01 dB) from the
recorded reference.  An operation whose CSV (timestamp aside) differs from
an earlier pass's at the same spec seed also fails.
"""

from __future__ import annotations

import math
import re

BER_COLUMNS = ["ebn0_db", "bits_simulated", "bit_errors", "ber",
               "lower_bound_ber", "standard_error"]
THRESHOLD_COLUMNS = ["family", "memory", "length", "delay", "rate",
                     "sigma_star", "ebn0_star_db", "capacity_ebn0_db",
                     "gap_to_capacity_db", "status"]
# numpy 2 scalars print as np.float64(x); the harness writes lower_bound_ber
# of SPC codes that way.  Accepted as the number it wraps, and reported.
_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


class Malformed(ValueError):
    pass


def _row(text: str, columns: list[str]) -> list[str]:
    """The single data row of a CSV whose header is ``columns``."""
    body = [line for line in text.splitlines() if not line.startswith("#")]
    if not body or body[0].split(",") != columns:
        raise Malformed(f"header is not {','.join(columns)}")
    rows = [line.split(",") for line in body[1:] if line]
    if len(rows) != 1 or len(rows[0]) != len(columns):
        raise Malformed(f"expected one row of {len(columns)} fields")
    return rows[0]


def _number(field: str, notes: set[str]) -> float:
    match = _NUMPY_REPR.fullmatch(field)
    if match:
        notes.add(f"numpy scalar repr in CSV: {field}")
        field = match.group(1)
    try:
        return float(field)
    except ValueError:
        raise Malformed(f"not a number: {field!r}") from None


def _integer(field: str) -> int:
    try:
        return int(field)
    except ValueError:
        raise Malformed(f"not an integer: {field!r}") from None


def check_ber(text: str, expect: dict, seed: int, notes: set[str]) -> list[str]:
    """Failures of one BER-point CSV (an empty list means it passed)."""
    try:
        row = _row(text, BER_COLUMNS)
        ebn0 = _number(row[0], notes)
        bits, errors = _integer(row[1]), _integer(row[2])
        ber, _, se = (_number(f, notes) for f in row[3:6])
    except Malformed as exc:
        return [f"malformed BER CSV: {exc}"]
    fails = []
    if ebn0 != expect["ebn0_db"]:
        fails.append(f"point at {ebn0} dB, expected {expect['ebn0_db']} dB")
    if bits != expect["info_bits_per_op"]:
        fails.append(f"bits_simulated={bits}, expected {expect['info_bits_per_op']}")
    if not 0 <= errors <= bits or ber != errors / bits:
        fails.append(f"ber={ber} is not bit_errors/bits_simulated={errors}/{bits}")
    elif not math.isclose(se, math.sqrt(ber * (1.0 - ber) / bits),
                          rel_tol=1e-9, abs_tol=1e-300):
        fails.append(f"standard_error={se} does not match ber and bits")
    ref = expect["references"][str(seed)]
    if [bits, errors] != ref[:2]:
        fails.append(f"(bits_simulated, bit_errors)=({bits}, {errors}), "
                     f"reference at seed {seed} is {tuple(ref[:2])}")
    return fails


def check_threshold(text: str, search: dict, tolerance_db: float) -> list[str]:
    """Failures of one threshold-vs-l CSV."""
    try:
        row = _row(text, THRESHOLD_COLUMNS)
        if row[9] != "ok":
            return [f"status {row[9]!r}"]
        star = _number(row[6], set())
    except Malformed as exc:
        return [f"malformed threshold CSV: {exc}"]
    ref = search["ebn0_star_db"]
    if not abs(star - ref) <= tolerance_db + 1e-9:
        return [f"ebn0_star_db={star}, reference {ref} +- {tolerance_db}"]
    return []


def strip_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines()
                     if not line.startswith("# timestamp="))


def check_passes(workload: dict, passes: list[tuple[int, list[str]]],
                 notes: set[str]) -> tuple[int, list[str]]:
    """Check every operation of every pass; returns (attempted, failures).

    ``passes[p]`` is ``(spec seed, CSVs of the pass's operations)``.  Each
    failing operation contributes one failure line.
    """
    attempted = 0
    failures = []
    first: dict[int, list[str]] = {}
    for p, (seed, csvs) in enumerate(passes):
        earlier = first.setdefault(seed, csvs)
        for i, text in enumerate(csvs):
            attempted += 1
            if workload["kind"] == "ber":
                fails = check_ber(text, workload, seed, notes)
            else:
                fails = check_threshold(text, workload["searches"][i],
                                        workload["tolerance_db"])
            if strip_timestamp(text) != strip_timestamp(earlier[i]):
                fails.append("CSV differs from an earlier pass at the same seed")
            if fails:
                failures.append(f"pass {p} op {i}: " + "; ".join(fails))
    return attempted, failures


def tamper(workload: dict, csvs: list[str]) -> list[str]:
    """The same result with one bit_errors raised by 1 (BER workloads) or
    one threshold moved by 0.02 dB (threshold workloads)."""
    head, _, row = csvs[0].rstrip("\n").rpartition("\n")
    fields = row.split(",")
    if workload["kind"] == "ber":
        fields[2] = str(int(fields[2]) + 1)
    else:
        fields[6] = repr(float(fields[6]) + 0.02)
    return [head + "\n" + ",".join(fields) + "\n", *csvs[1:]]


def self_test(workload: dict, seed: int, csvs: list[str]) -> dict:
    """Run the checker on one pass's result as emitted and tampered."""
    ratios = {}
    for label, result in (("untampered", csvs),
                          ("tampered", tamper(workload, csvs))):
        attempted, failures = check_passes(workload, [(seed, result)], set())
        ratios[label] = len(failures) / attempted
    return {"untampered_failed_op_ratio": ratios["untampered"],
            "tampered_failed_op_ratio": ratios["tampered"],
            "ok": ratios["untampered"] == 0.0 and ratios["tampered"] > 0.0}
