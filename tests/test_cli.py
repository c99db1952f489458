from pathlib import Path

import numpy as np
import pytest

from bmst.cli import main, spec_from_args
from bmst.harness import parse_metadata, replay, strip_timestamp


def test_flag_parsing():
    spec = spec_from_args(["ber", "--code", "spc:4", "--cart", "12",
                           "--memory", "2", "--length", "9", "--delay", "6",
                           "--max-iters", "25", "--seed", "3",
                           "--snr", "1:5:0.5", "--max-bits", "10000",
                           "--max-errors", "40"])
    assert spec.kind == "spc" and spec.n == 4 and spec.cart == 12
    assert spec.memories == (2,) and spec.lengths == (9,)
    assert spec.delays == (6,) and spec.max_iters == 25
    assert (spec.snr_lo, spec.snr_hi, spec.snr_step) == (1.0, 5.0, 0.5)


def test_list_flags():
    spec = spec_from_args(["threshold-vs-l", "--code", "rc:2",
                           "--memory", "1,2", "--length", "10,100,1000",
                           "--target-ber", "1e-7"])
    assert spec.memories == (1, 2)
    assert spec.lengths == (10, 100, 1000)
    assert spec.targets == (1e-7,)
    assert spec.max_iters == 1000  # threshold default


def test_config_file_and_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("code=rc:2\ncart=5\nmemory=1\nlength=6\nseed=2\n"
                   "snr=3:5:1\nmax_bits=4000\nmax_errors=30\n")
    spec = spec_from_args(["ber", "--config", str(cfg)])
    assert spec.cart == 5 and spec.seed == 2
    spec2 = spec_from_args(["ber", "--config", str(cfg), "--cart", "9"])
    assert spec2.cart == 9  # flag wins


def test_cli_ber_writes_file_and_replays(tmp_path, capsys):
    out = tmp_path / "ber.csv"
    rc = main(["ber", "--code", "rc:2", "--cart", "6", "--memory", "1",
               "--length", "8", "--delay", "3", "--max-iters", "8",
               "--seed", "5", "--snr", "5:6:1", "--max-bits", "5000",
               "--max-errors", "30", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert parse_metadata(text)["command"] == "ber"
    assert strip_timestamp(replay(text)) == strip_timestamp(text)


def test_cli_invalid_spec_exit_2(capsys):
    assert main(["ber", "--code", "rc:2", "--max-bits", "0"]) == 2
    assert main(["ber", "--code", "hamming:7"]) == 2
    assert main(["ber", "--snr", "oops"]) == 2
    err = capsys.readouterr().err
    assert "invalid spec" in err


def test_cli_bracket_failure_exit_3(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["threshold-vs-l", "--code", "rc:2", "--memory", "1",
               "--length", "10", "--snr", "10:14:0.05", "--out", str(out)])
    assert rc == 3
    assert "no-bracket" in out.read_text()


def test_cli_stdout_default(capsys):
    rc = main(["encode", "--code", "rc:2", "--cart", "2", "--memory", "1",
               "--length", "3", "--seed", "4"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("# bmst-csv")
    assert "coded" in out


def test_config_file_missing_exit_2(tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    assert main(["ber", "--config", str(missing)]) == 2
    err = capsys.readouterr().err
    assert "error: invalid spec:" in err and str(missing) in err


@pytest.mark.parametrize("line", ["memroy=2", "max-iters=7"])
def test_config_file_unknown_key_exit_2(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    # a tiny spec, so a run that ignored the key would end at once
    cfg.write_text(f"code=rc:2\ncart=2\nmemory=1\nlength=2\nsnr=5:5:1\n"
                   f"max_bits=64\n{line}\n")
    assert main(["ber", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error: invalid spec:" in err
    assert repr(line.split("=")[0]) in err


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RUNS = {
    "encode_spc4.csv": "encode --code spc:4 --cart 3 --memory 2 --length 5 "
                       "--seed 9",
    "bound_rc2.csv": "bound --code rc:2 --memory 0,1,2 --length 10,1000 "
                     "--snr 0:4:2",
    "bound_spc4.csv": "bound --code spc:4 --memory 0,2 --length 50 "
                      "--snr 1:3:2",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_data_rows_match_golden(capsys, name):
    # pins the permutation draws, the encoder and the bound's numbers
    assert main(GOLDEN_RUNS[name].split()) == 0
    out = capsys.readouterr().out
    rows = "".join(line + "\n" for line in out.splitlines()
                   if not line.startswith("#"))
    assert rows.encode() == (GOLDEN / name).read_bytes()
