"""Command-line front end for the experiment runners.

Two tables drive the parser.  ``KEYS`` maps each key to the spec fields it
sets, its parser and the form it expects; ``COMMANDS`` maps each subcommand
to the keys its run reads and their defaults.  A subcommand takes exactly
those keys, as ``--flag-name`` flags and as ``flag_name=value`` lines of a
``--config`` file; flags given on the command line win.

Exit codes: 0 on success, 2 for an invalid spec (any bad command line: a
flag or config key the subcommand does not read, a flag without its value,
a missing subcommand, an ``--out`` path that cannot be written), 3 when a
threshold search interval fails to bracket.
"""

from __future__ import annotations

import argparse
import os
import sys

from .harness import ExperimentSpec, SpecError, run_spec


def _list(cast):
    return lambda text: tuple(cast(x) for x in text.split(","))


def _code(text: str) -> tuple[str, int]:
    kind, n = text.split(":")
    return kind.lower(), int(n)


def _snr(text: str) -> tuple[float, float, float]:
    lo, hi, step = text.split(":")
    return float(lo), float(hi), float(step)


#: key -> (the spec fields it sets, its parser, the form it expects).  A
#: parser raises ValueError on bad text; one that sets several fields returns
#: one value per field.
KEYS = {
    "code": (("kind", "n"), _code, "kind:n (e.g. rc:2 or spc:4)"),
    "cart": (("cart",), int, "an integer (Cartesian order B)"),
    "memory": (("memories",), _list(int), "a comma list of memories m"),
    "length": (("lengths",), _list(int), "a comma list of lengths L"),
    "delay": (("delays",), _list(int), "a comma list of delays d (default 3m, "
              "or m and 3m for threshold-vs-target)"),
    "max_iters": (("max_iters",), int, "an integer (iterations per window)"),
    "seed": (("seed",), int, "an integer (master seed)"),
    "snr": (("snr_lo", "snr_hi", "snr_step"), _snr,
            "lo:hi:step in dB (the sweep, or the search bracket and step)"),
    "target_ber": (("targets",), _list(float), "a comma list of target BERs"),
    "max_bits": (("max_bits",), int, "an integer (bit budget per point)"),
    "max_errors": (("max_errors",), int, "an integer (error budget per point)"),
    "out": (("out",), str, "a CSV path (default stdout)"),
}

#: subcommand -> (the keys its run reads, defaults that differ from the spec's)
COMMANDS = {
    "ber": (("code", "cart", "memory", "length", "delay", "max_iters", "seed",
             "snr", "max_bits", "max_errors", "out"), {}),
    "threshold-vs-l": (("code", "memory", "length", "delay", "max_iters",
                        "snr", "target_ber", "out"), {
        "max_iters": "1000", "snr": "0:14:0.01", "target_ber": "1e-7"}),
    "threshold-vs-target": (("code", "memory", "length", "delay", "max_iters",
                             "seed", "snr", "target_ber", "out"),
                            {"max_iters": "1000", "snr": "-2:14:0.01"}),
    "bound": (("code", "memory", "length", "seed", "snr", "out"), {}),
    "encode": (("code", "cart", "memory", "length", "seed", "out"), {}),
}


def _read_config(path: str, command: str) -> dict[str, str]:
    keys = COMMANDS[command][0]
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecError(f"cannot read config file {path!r}: {exc}")
    values: dict[str, str] = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise SpecError(f"config line without '=': {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in keys:
            raise SpecError(f"{command} does not read key {key!r} of config "
                            f"file {path!r}; its keys: {', '.join(keys)}")
        values[key] = val
    return values


class _Parser(argparse.ArgumentParser):
    """Raises SpecError for a bad command line; ``--help`` still exits."""

    def error(self, message: str):
        raise SpecError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bmst",
        description="Superposition-coupled short codes: BER simulation, "
                    "decoding thresholds, and genie-aided bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (keys, _) in COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value file; flags override it")
        for key in keys:
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           help=KEYS[key][2])
    return parser


def spec_from_args(argv: list[str]) -> ExperimentSpec:
    args = _build_parser().parse_args(argv)
    keys, defaults = COMMANDS[args.command]
    values = dict(defaults)
    if args.config:
        values.update(_read_config(args.config, args.command))
    values.update((key, getattr(args, key)) for key in keys
                  if getattr(args, key) is not None)
    kwargs: dict = {"command": args.command}
    for key, text in values.items():
        names, parse, form = KEYS[key]
        try:
            value = parse(text)
        except ValueError:
            raise SpecError(f"--{key.replace('_', '-')} expects {form}, "
                            f"got {text!r}")
        kwargs.update(zip(names, value) if len(names) > 1 else
                      [(names[0], value)])
    return ExperimentSpec(**kwargs)


def _check_out(path: str) -> None:
    """Fail before the run, not after it, when ``--out`` cannot be written.
    ``replay`` does not call this: a recorded ``out`` may point anywhere."""
    folder = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not (os.path.isdir(folder)
                                   and os.access(folder, os.W_OK | os.X_OK)):
        raise SpecError(f"--out {path!r} is not a file in a writable "
                        f"directory")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        spec = spec_from_args(argv)
        if spec.out:
            _check_out(spec.out)
        text, bracket_failures = run_spec(spec)
    except SpecError as exc:
        print(f"error: invalid spec: {exc}", file=sys.stderr)
        return 2
    if spec.out:
        with open(spec.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 3 if bracket_failures else 0


if __name__ == "__main__":
    sys.exit(main())
