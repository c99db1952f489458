"""Seeded random command lines through ``bmst.cli.main``.

Each spec draws, for one subcommand of ``cli.COMMANDS``, a value for some of
the keys that ``cli.KEYS`` gives it: mostly a valid one, sometimes an edge
value (0, a negative, NaN, inf, a malformed list, an SNR bracket up to
+/-400 dB), a key the subcommand does not read, a ``--config`` file or an
``--out`` path.  Whatever the draw, ``main`` must return 0, 2 or 3 and raise
nothing.  Sizes stay tiny (Cartesian order <= 4, L <= 6, a few batches), so
the keys that set a run's size are always given.
"""

import random

import pytest

from bmst.cli import COMMANDS, KEYS, main

SPECS = 250

#: Texts any key may get; none is a valid value of every key.
EDGE = ["0", "-1", "-7", "nan", "inf", "-inf", "", "1,,2", ",", "1;2", "x",
        "1e400", "2.5"]

#: Valid tiny values per key; ``snr`` and ``out`` are drawn apart.
TINY = {
    "code": ["rc:2", "rc:3", "spc:2", "spc:4", "spc:5", "spc:16", "RC:2"],
    "cart": ["1", "2", "4"],
    "memory": ["0", "1", "1", "2", "1,2"],
    "length": ["1", "2", "4", "6", "6", "2,5"],
    "delay": ["0", "1", "3", "3", "1,4"],
    "max_iters": ["1", "3", "20"],
    "seed": ["0", "1", "7", str(2 ** 64 + 3)],
    "target_ber": ["1e-2", "0.3", "1e-7", "1e-2,1e-4", "0.5", "1e-300"],
    "max_bits": ["1", "100", "2000"],
    "max_errors": ["1", "5", "1000"],
}
BAD_CODES = ["rc:1", "spc:0", "rc:-2", "rc", "rc:2:3", "ldpc:3", "spc:nan",
             "spc:2049", "rc:4096"]  # the last two: past n <= 2,048

#: Keys that set how long a run takes; omitted, they default to full size.
SIZE_KEYS = ("cart", "length", "max_bits", "memory", "max_iters", "snr")

#: SNR ends.  At -107 dB the SPC genie bound of spc:16 combines LLRs far
#: below 1e-5 in magnitude.
DB = [-400.0, -107.0, -5.0, 0.0, 1.5, 4.0, 400.0]


def snr_text(rng, command):
    """An SNR flag: a bracket up to +/-400 dB with a step that keeps a
    sweep to three points (a threshold search to about 17), or an edge."""
    if rng.random() < 0.1:
        return rng.choice(["nan:1:1", "0:inf:1", "1:0:1", "0:1:0", "0:1:-1",
                           "0:1:nan", "0:400:1e-6", "0:1", "a:b:c", "2:2:1"])
    lo, hi = sorted(rng.sample(DB, 2))
    if command.startswith("threshold"):
        step = rng.choice([0.01, 0.5, 5.0, 1000.0])
    else:
        step = (hi - lo) / rng.choice([1, 2]) + 1e-9
    return f"{lo!r}:{hi!r}:{step!r}"


def value_text(rng, key, command, tmp_path):
    if key == "snr":
        return snr_text(rng, command)
    if key == "out":
        return rng.choice([str(tmp_path / "out.csv")] * 3 + [
            str(tmp_path), str(tmp_path / "missing" / "out.csv")])
    if rng.random() < 0.04:
        return rng.choice(EDGE)
    if key == "code" and rng.random() < 0.15:
        return rng.choice(BAD_CODES)
    return rng.choice(TINY[key])


def draw_argv(index, tmp_path):
    rng = random.Random(index)
    command = rng.choice(sorted(COMMANDS))
    keys = COMMANDS[command][0]
    values = {key: value_text(rng, key, command, tmp_path) for key in keys
              if key in SIZE_KEYS or rng.random() < 0.5}
    argv = [command]
    if rng.random() < 0.1:
        # some keys go to a config file, perhaps with a line it rejects
        lines = [f"{k}={values.pop(k)}"
                 for k in rng.sample(sorted(set(values) - {"out"}), 2)]
        lines += rng.choice([[], ["# a comment"], ["no equals sign"],
                             [f"{rng.choice(sorted(KEYS))}=1"]])
        path = tmp_path / "run.cfg"
        path.write_text("\n".join(lines) + "\n")
        argv += ["--config", str(path)]
    # "--snr=-5:4:1", as "--snr -5:4:1" reads "-5:4:1" as a flag
    argv += [f"--{key.replace('_', '-')}={text}" for key, text in values.items()]
    draw = rng.random()
    if draw < 0.03:
        argv += ["--" + rng.choice(sorted(set(KEYS) - set(keys)))
                 .replace("_", "-"), "1"]
    elif draw < 0.05:
        argv.append("--seed" if "seed" in keys else "--code")  # no value
    elif draw < 0.07:
        argv[0] = rng.choice(["", "threshold", "--code"])
    return argv


@pytest.mark.parametrize("index", range(SPECS), ids=lambda i: f"spec{i:03d}")
def test_random_spec_exits_0_2_or_3(index, tmp_path, capsys):
    argv = draw_argv(index, tmp_path)
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in (0, 2, 3), argv
    if code == 2:
        assert err.startswith("error: invalid spec:"), (argv, err)
    else:
        if any(arg.startswith("--out=") for arg in argv):
            out = (tmp_path / "out.csv").read_text()
        assert out.startswith("# bmst-csv v1"), argv
