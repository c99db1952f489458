import inspect
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bmst
import bmst.cli as cli
import bmst.exit_engine as exit_engine
import bmst.harness as harness
from bmst.basic_codes import make_small_code
from bmst.cli import main, spec_from_args
from bmst.encoder import MAX_ITERS
from bmst.harness import (SpecError, parse_metadata, replay,
                          spec_from_metadata, strip_timestamp)


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
    assert spec.max_iters == MAX_ITERS


def test_one_iteration_budget():
    # the threshold commands analyse the decoder that ber runs, and the
    # decoder takes its budget from the spec alone
    budgets = {spec_from_args([command]).max_iters
               for command in ("ber", "threshold-vs-l", "threshold-vs-target")}
    budgets.add(exit_engine.ThresholdQuery(make_small_code("rc", 2), 1, 3, 10,
                                           1e-3, 0.0, 1.0).max_iters)
    budgets.add(inspect.signature(exit_engine.exit_window_run)
                .parameters["max_iters"].default)
    assert budgets == {MAX_ITERS}
    with pytest.raises(TypeError):
        bmst.DecoderConfig(delay=3)


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


def test_threshold_vs_l_default_target_is_the_specs(capsys):
    # the run without --target-ber is the run with the spec's default
    argv = ["threshold-vs-l", *TINY["threshold-vs-l"].split()]
    texts = []
    for extra in ([], ["--target-ber", "1e-7"]):
        assert main(argv + extra) == 0
        texts.append(strip_timestamp(capsys.readouterr().out))
    assert texts[0] == texts[1]
    assert parse_metadata(texts[0])["targets"] == "1e-07"


def test_cli_bracket_failure_exit_3(tmp_path):
    out = tmp_path / "t.csv"
    rc = main(["threshold-vs-l", "--code", "rc:2", "--memory", "1",
               "--length", "10", "--snr", "10:14:0.05", "--out", str(out)])
    assert rc == 3
    assert "no-bracket" in out.read_text()


@pytest.mark.parametrize("out", ["missing/x.csv", "."])
def test_cli_unwritable_out_exit_2_before_the_run(tmp_path, capsys,
                                                  monkeypatch, out):
    # a threshold sweep would otherwise fail only after hours of work
    def no_run(spec):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "run_spec", no_run)
    rc = main(["encode", "--code", "rc:2", "--cart", "2", "--memory", "1",
               "--length", "2", "--out", str(tmp_path / out)])
    assert rc == 2
    assert "error: invalid spec:" in capsys.readouterr().err


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


# Small runs of each command, so a check that let a bad flag through would
# still end at once.
TINY = {
    "ber": "--code rc:2 --cart 2 --memory 1 --length 2 --snr 5:5:1 "
           "--max-bits 64",
    "threshold-vs-l": "--code rc:2 --memory 1 --length 10 --snr 0:14:1",
    "threshold-vs-target": "--code rc:2 --memory 1 --length 10 "
                           "--target-ber 1e-2 --snr=-6:14:1",
    "bound": "--code rc:2 --memory 1 --length 10 --snr 5:5:1",
    "encode": "--code rc:2 --cart 2 --memory 1 --length 2",
}


@pytest.mark.parametrize("command, flag, value", [
    ("ber", "--target-ber", "1e-3"),
    ("threshold-vs-l", "--cart", "5"),
    ("threshold-vs-target", "--max-bits", "5"),
    ("bound", "--delay", "3"),
    ("encode", "--snr", "1:2:1"),
    ("bound", "--seed", "3"),
    ("threshold-vs-target", "--seed", "3"),
])
def test_key_the_command_does_not_read_exit_2(tmp_path, capsys, command,
                                               flag, value):
    argv = [command, *TINY[command].split()]
    assert main(argv) in (0, 3)
    capsys.readouterr()
    assert main(argv + [flag, value]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid spec:") and flag in err
    key = flag[2:].replace("-", "_")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{key}={value}\n")
    assert main(argv + ["--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert "error: invalid spec:" in err and repr(key) in err


@pytest.mark.parametrize("command", ["ber", "encode"])
def test_negative_seed_exit_2(capsys, command):
    # a negative seed cannot seed a SeedSequence
    assert main([command, *TINY[command].split(), "--seed", "-1"]) == 2
    assert capsys.readouterr().err.startswith("error: invalid spec: seed ")


@pytest.mark.parametrize("argv", [
    ["ber", "--cart"],                      # a flag without its value
    ["encode", "--code", "rc:2", "--seed"],
    [],                                     # no subcommand
    ["simulate"],                           # an unknown subcommand
])
def test_bad_command_line_is_an_invalid_spec(capsys, argv):
    with pytest.raises(SpecError):
        spec_from_args(argv)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: invalid spec:")


@pytest.mark.parametrize("snr", ["nan:14:0.01", "0:nan:0.01", "0:14:nan",
                                 "-inf:14:0.01", "0:inf:0.01", "0:14:inf",
                                 "-inf:inf:0.01"])
def test_non_finite_snr_is_an_invalid_spec(snr):
    # a NaN or infinite bound never ends a bisection or an SNR sweep
    with pytest.raises(SpecError):
        spec_from_args(["ber", "--snr=" + snr])


@pytest.mark.parametrize("argv", [
    ["bound", "--snr=3000:3100:100"],   # 10**(snr/10) overflows
    ["ber", "--snr=-3300:-3300:1", "--length", "2", "--cart", "1",
     "--max-bits", "1"],                # ... or rounds to 0
    ["threshold-vs-l", "--snr=-5:3100:50", "--length", "4", "--memory", "1"],
    ["bound", "--snr=400.5:401:1"],
    ["ber", "--snr=-401:-400:1"],
    ["bound", "--snr=0:400:400.000000001"],  # its last point passes 400 dB
])
def test_snr_beyond_the_bound_exits_2(capsys, argv):
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: invalid spec:")


@pytest.mark.parametrize("command", ["threshold-vs-l", "threshold-vs-target"])
@pytest.mark.parametrize("memory,length", [
    ("1", str(2 ** 21)), ("2048", "1"), ("1,2048", "1"), ("1", "1000000000000"),
])
def test_threshold_run_beyond_the_frame_bound_exits_2(capsys, command,
                                                       memory, length):
    # the MI state holds (L + m)*(m + 1) messages a direction; before the
    # bound, a huge L ran out of memory and a huge m never left window_plan
    assert main([command, "--code", "rc:2", "--memory", memory, "--length",
                 length, "--snr", "0:4:0.5"]) == 2
    assert capsys.readouterr().err.startswith("error: invalid spec:")


@pytest.mark.parametrize("memory,length", [("1", str(2 ** 21 - 1)),
                                           ("0,2047", "1")])
def test_threshold_run_at_the_frame_bound_is_valid(memory, length):
    spec_from_args(["threshold-vs-l", "--memory", memory,
                    "--length", length])


@pytest.mark.parametrize("argv", [
    "bound --code spc:100000",
    "threshold-vs-l --code spc:100000",
    "ber --code spc:4194304 --cart 1 --memory 0 --length 1 --delay 0",
])
def test_small_code_past_the_bound_is_an_invalid_spec(argv):
    # the spec alone: a run would build a dense generator of n*n bytes
    # (10 GB, and 17.6 TB for the ber run) before it failed
    with pytest.raises(SpecError, match="small-code length may be at most "
                                        "2048, got"):
        spec_from_args(argv.split())


def test_snr_at_the_bound_is_valid():
    spec_from_args(["bound", "--snr=-400:400:800"])


def test_nan_snr_exit_2(capsys):
    assert main(["threshold-vs-l", "--snr", "nan:14:0.01",
                 "--length", "10"]) == 2
    assert capsys.readouterr().err.startswith("error: invalid spec:")


def test_help_still_exits_0(capsys):
    for argv in (["--help"], ["ber", "--help"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
    assert "--max-bits" in capsys.readouterr().out


@pytest.mark.parametrize("command, flag, value", [
    ("ber", "--memory", "1,2"),
    ("ber", "--length", "3,4"),
    ("ber", "--delay", "3,4"),
    ("encode", "--memory", "1,2"),
    ("encode", "--length", "3,4"),
    ("threshold-vs-l", "--delay", "3,6"),
    ("threshold-vs-l", "--target-ber", "1e-2,1e-5"),
    ("threshold-vs-target", "--length", "10,20"),
])
def test_list_the_command_would_cut_short_exit_2(capsys, command, flag,
                                                 value):
    # the command reads only the first value of this list
    assert main([command, *TINY[command].split(), flag, value]) == 2
    assert "error: invalid spec:" in capsys.readouterr().err


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_cli_table_lists_each_commands_flags():
    # one row per subcommand: | `name` | `--flag --flag ...` |
    section = README.read_text().split("## CLI", 1)[1].split("```sh", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip().strip("`") for c in line.strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 2:
            rows[cells[0]] = cells[1].split()
    assert rows == {name: ["--" + key.replace("_", "-") for key in keys]
                    for name, (keys, _) in cli.COMMANDS.items()}


def test_readme_cli_examples_parse():
    readme = README.read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```")[0]
    lines = [shlex.split(line) for line in
             block.replace("\\\n", " ").splitlines()
             if line.startswith("bmst ")]
    assert len(lines) == 5
    for argv in lines:
        spec_from_args(argv[1:])


def data_rows(text):
    return "".join(line + "\n" for line in text.splitlines()
                   if not line.startswith("#"))


GOLDEN = Path(__file__).parent / "golden"
GOLDEN_RUNS = {
    "encode_spc4.csv": "encode --code spc:4 --cart 3 --memory 2 --length 5 "
                       "--seed 9",
    "bound_rc2.csv": "bound --code rc:2 --memory 0,1,2 --length 10,1000 "
                     "--snr 0:4:2",
    "bound_spc4.csv": "bound --code spc:4 --memory 0,2 --length 50 "
                      "--snr 1:3:2",
    # 10 of its 12 windows run to the iteration cap
    "ber_spc4.csv": "ber --code spc:4 --cart 8 --memory 2 --length 6 "
                    "--delay 4 --max-iters 12 --seed 3 --snr 1.5:2.5:1 "
                    "--max-bits 1200 --max-errors 1000000",
    # its trials leave the active set at different sweeps: 326 shrinks in
    # 48 windows
    "ber_rc2.csv": "ber --code rc:2 --cart 10 --memory 1 --length 8 "
                   "--delay 3 --max-iters 30 --seed 4 --snr 3:5:1 "
                   "--max-bits 5000 --max-errors 1000000",
}


@pytest.mark.parametrize("name", sorted(GOLDEN_RUNS))
def test_data_rows_match_golden(capsys, name):
    # pins the permutation draws, the encoder, the bound's numbers and the
    # window decoder's decisions
    assert main(GOLDEN_RUNS[name].split()) == 0
    rows = data_rows(capsys.readouterr().out)
    assert rows.encode() == (GOLDEN / name).read_bytes()


def test_golden_and_benchmark_runs_are_valid_specs():
    # with the README's examples (checked above) these are the largest runs
    # on record; the frame-size bound (harness.MAX_FRAME_VALUES) takes them
    workloads = json.loads((Path(__file__).parents[1] / "bench" /
                            "workloads.json").read_text())["workloads"]
    runs = [text.split() for text in GOLDEN_RUNS.values()]
    runs += [w["argv"] for w in workloads.values() if "argv" in w]
    assert {argv[0] for argv in runs} >= {"ber", "encode"}
    for argv in runs:
        spec_from_args(argv)


@pytest.mark.parametrize("threads", ["1", "2"])
def test_spc_bound_does_not_depend_on_blas_threads(threads):
    # np.dot sums in an order set by OpenBLAS's thread count; the SPC bound's
    # Gauss rules must not go through it
    src = str(Path(bmst.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "bmst", *GOLDEN_RUNS["bound_spc4.csv"].split()],
        env=dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS=threads),
        capture_output=True, text=True, check=True)
    assert data_rows(done.stdout).encode() == (
        GOLDEN / "bound_spc4.csv").read_bytes()


def count_chunks(monkeypatch, tmp_path):
    """Log each chunk a ber batch is split into, with the pid decoding it."""
    log = tmp_path / "chunks.txt"
    chunk = harness._chunk_bit_errors

    def logged(*args):
        point_index, trials = args[-2:]
        with log.open("a") as fh:
            fh.write(f"{os.getpid()} {point_index} {trials.start} "
                     f"{len(trials)}\n")
        return chunk(*args)

    monkeypatch.setattr(harness, "_chunk_bit_errors", logged)
    return log


@pytest.mark.parametrize("name", ["ber_rc2.csv", "ber_spc4.csv"])
def test_cpu_count_cannot_change_an_output(monkeypatch, tmp_path, name):
    # A batch splits into one chunk per CPU, each decoded in its own
    # process; ber_rc2's trials leave the active set at different sweeps.
    log = count_chunks(monkeypatch, tmp_path)
    spec = spec_from_args(GOLDEN_RUNS[name].split())
    texts = []
    for cpus, sizes in ((1, [32]), (2, [16, 16]), (3, [10, 11, 11])):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, cpus=cpus: set(range(cpus)))
        log.write_text("")
        texts.append(strip_timestamp(harness.run_spec(spec)[0]))
        # the first batch of the first SNR point
        first = sorted((int(start), int(size), pid) for pid, point, start, size
                       in map(str.split, log.read_text().splitlines())
                       if point == "0" and int(start) < 32)
        assert [size for _, size, _ in first] == sizes
        assert len({pid for _, _, pid in first}) == cpus
    assert texts[1] == texts[0] and texts[2] == texts[0]
    assert data_rows(texts[0]).encode() == (GOLDEN / name).read_bytes()


# Thresholds of RC[2,1]^100 at L=20; the genie column goes through qfunc_inv.
THRESHOLD_GOLDEN = GOLDEN / "threshold_vs_target_rc2.csv"
THRESHOLD_RUN = ["threshold-vs-target", "--code", "rc:2", "--memory", "1,2",
                 "--length", "20", "--target-ber", "1e-1,1e-2,1e-3",
                 "--snr=-6:14:0.01"]


def test_threshold_golden_replays_bit_exactly():
    golden = THRESHOLD_GOLDEN.read_bytes()
    text = golden.decode()
    assert spec_from_metadata(parse_metadata(text)) == \
        spec_from_args(THRESHOLD_RUN)
    again = replay(text)
    golden_rows = b"".join(line for line in golden.splitlines(keepends=True)
                           if not line.startswith(b"#"))
    assert len(golden_rows.splitlines()) == 13  # header and 12 searches
    assert data_rows(again).encode() == golden_rows
    assert strip_timestamp(again) == strip_timestamp(text)


def count_window_runs(monkeypatch, tmp_path):
    """Log the pid of each MI window run."""
    log = tmp_path / "runs.txt"
    run = exit_engine.exit_window_run

    def logged(*args):
        with log.open("a") as fh:
            fh.write(f"{os.getpid()}\n")
        return run(*args)

    monkeypatch.setattr(exit_engine, "exit_window_run", logged)
    return log


@pytest.mark.parametrize("argv", [
    THRESHOLD_RUN,
    ["threshold-vs-l", "--code", "spc:4", "--memory", "1,2", "--length",
     "8,16", "--target-ber", "1e-2", "--snr=-2:10:0.05"],
], ids=["threshold-vs-target", "threshold-vs-l"])
def test_threshold_runs_fork_nothing(monkeypatch, tmp_path, argv):
    # a threshold search bisects serially in this process, whatever the
    # number of CPUs
    log = count_window_runs(monkeypatch, tmp_path)
    spec = spec_from_args(argv)
    texts = []
    for cpus in (1, 2):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, cpus=cpus: set(range(cpus)))
        log.write_text("")
        texts.append(strip_timestamp(harness.run_spec(spec)[0]))
        pids = log.read_text().split()
        assert pids and set(pids) == {str(os.getpid())}
    assert texts[1] == texts[0]
    if argv is THRESHOLD_RUN:
        assert texts[0] == strip_timestamp(THRESHOLD_GOLDEN.read_text())


# The commands the benchmark times, and the SPC genie bound of ber and
# bound; importing scipy would be most of their start-up time, and
# multiprocessing, which only a ber batch split across CPUs needs, a tenth
# of it.  A threshold search forks nothing, so it imports no
# multiprocessing.  The check goes by what was imported, not by timing.
NO_SCIPY_RUNS = """
import sys
import bmst.cli


def imported(*packages):
    return sorted(name for name in sys.modules
                  if name.split(".")[0] in packages)


print(imported("multiprocessing", "concurrent"))
from bmst.harness import run_spec
for argv in (["threshold-vs-l", "--code", "rc:2", "--memory", "1",
              "--length", "10"],
             ["ber", "--code", "rc:2", "--cart", "4", "--memory", "1",
              "--length", "5", "--snr", "4:4:1", "--max-bits", "2000"],
             ["bound", "--code", "spc:4", "--snr", "4:5:1"],
             ["ber", "--code", "spc:3", "--cart", "4", "--memory", "1",
              "--length", "5", "--snr", "4:4:1", "--max-bits", "2000"]):
    assert run_spec(bmst.cli.spec_from_args(argv))[1] == 0
    if argv[0] == "threshold-vs-l":
        assert imported("multiprocessing") == []
print(imported("scipy"))
"""


def test_ber_and_threshold_vs_l_runs_import_no_scipy():
    src = str(Path(bmst.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", NO_SCIPY_RUNS],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, check=True)
    assert done.stdout.split("\n") == ["[]", "[]", ""]
