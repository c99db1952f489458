"""Bit-for-bit pins of the searches the analysis makes.

``golden/search_outputs.json`` holds, as float.hex, each input with the value
the search returns for it:

- ``capacity_ebn0_db``: :func:`bmst.channel.bpsk_capacity_ebn0_db` over a
  grid of rates;
- ``genie_bound_ebn0_at_target``: the SPC genie bound's Eb/N0 at a target,
  as ``[code, m, L, target, Eb/N0]``.  spc:4 at m = 1, L = 50 and target 0.3
  widens its bracket below -10 dB once, and spc:3 at 0.4999 seven times;
- ``jinv_above_mi_hi``: :func:`bmst.jfun.jinv` above the seed table's range
  ``mi_hi``: the 100 doubles just above it, 100 random MIs between it and 1,
  and MIs within 1e-15 and 1e-9 of 1.

``golden/threshold_vs_l_rc2.csv`` is a ``threshold-vs-l`` run whose sigma*,
capacity and gap columns replay byte for byte.

Every value was recorded while each search still ran its own loop, so the
pins hold that sharing :func:`bmst.jfun.bisect` moved no bit.

``golden/numeric_outputs.json`` pins, the same way, numerics that other
tests check only to a tolerance:

- ``ber_basic``: :func:`bmst.basic_codes.ber_basic` of spc:3, 8, 12 and 16
  from -100 to 8 dB, as ``[code, Eb/N0, BER]``;
- ``jinv_newton``: :func:`bmst.jfun.jinv` on its Newton path, at MIs below
  1e-4, 200 random MIs across the seed table and ``mi_hi`` itself;
- ``jdual_below_table``: :func:`bmst.jfun.jdual` below its table (s < 0.5).

A change to these numerics on purpose (a variance-domain J, a new Gauss
rule for the SPC BER) shows here as a moved pin.
"""

import json
from pathlib import Path

import pytest

from bmst.basic_codes import ber_basic, make_small_code
from bmst.channel import bpsk_capacity_ebn0_db
from bmst.cli import spec_from_args
from bmst.exit_engine import genie_bound_ebn0_at_target
from bmst.harness import parse_metadata, replay, spec_from_metadata
from bmst.jfun import jdual, jinv

GOLDEN = Path(__file__).parent / "golden"
PINS = json.loads((GOLDEN / "search_outputs.json").read_text())
NUMERIC = json.loads((GOLDEN / "numeric_outputs.json").read_text())


def test_capacity_reference_is_bit_exact():
    for rate, want in PINS["capacity_ebn0_db"]:
        assert bpsk_capacity_ebn0_db(float.fromhex(rate)).hex() == want, rate


@pytest.mark.parametrize("pin", PINS["genie_bound_ebn0_at_target"],
                         ids=lambda p: f"{p[0]}-m{p[1]}-L{p[2]}-{p[3]}")
def test_genie_bound_at_target_is_bit_exact(pin):
    code, memory, length, target, want = pin
    kind, n = code.split(":")
    got = genie_bound_ebn0_at_target(make_small_code(kind, int(n)), memory,
                                     length, target)
    assert got.hex() == want


def test_jinv_above_the_seed_table_is_bit_exact():
    got = [[mi, jinv(float.fromhex(mi)).hex()]
           for mi, _ in PINS["jinv_above_mi_hi"]]
    assert got == PINS["jinv_above_mi_hi"]


def test_spc_basic_ber_is_bit_exact():
    got = [[code, ebn0, ber_basic(make_small_code("spc", int(code[4:])),
                                  float.fromhex(ebn0)).ber.hex()]
           for code, ebn0, _ in NUMERIC["ber_basic"]]
    assert got == NUMERIC["ber_basic"]


@pytest.mark.parametrize("name, fun", [("jinv_newton", jinv),
                                       ("jdual_below_table", jdual)])
def test_j_inverses_are_bit_exact(name, fun):
    got = [[x, fun(float.fromhex(x)).hex()] for x, _ in NUMERIC[name]]
    assert got == NUMERIC[name]


THRESHOLD_VS_L_RUN = ["threshold-vs-l", "--code", "rc:2", "--memory", "1,2",
                      "--length", "20,100", "--target-ber", "1e-2",
                      "--snr=-6:14:0.01"]


def test_threshold_vs_l_golden_replays_bit_exactly():
    text = (GOLDEN / "threshold_vs_l_rc2.csv").read_text()
    assert spec_from_metadata(parse_metadata(text)) == \
        spec_from_args(THRESHOLD_VS_L_RUN)
    rows = [line for line in text.splitlines() if not line.startswith("#")]
    assert len(rows) == 5  # header and four searches
    assert [line for line in replay(text).splitlines()
            if not line.startswith("#")] == rows
