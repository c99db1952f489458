"""Command-line front end for the experiment runners.

Exit codes: 0 on success, 2 for an invalid spec, 3 when a threshold search
interval fails to bracket.  A flat key=value config file can seed any flag;
flags given on the command line win.
"""

from __future__ import annotations

import argparse
import sys

from .harness import ExperimentSpec, SpecError, run_spec

_SUBCOMMANDS = ("ber", "threshold-vs-l", "threshold-vs-target", "bound", "encode")

#: Flag names (dashes as underscores) a spec is built from; also the keys a
#: config file may set.
_SPEC_KEYS = ("code", "cart", "memory", "length", "delay", "max_iters", "seed",
              "snr", "target_ber", "max_bits", "max_errors", "out")


def _parse_code(text: str) -> tuple[str, int]:
    try:
        kind, n = text.split(":")
        return kind.lower(), int(n)
    except ValueError:
        raise SpecError(f"--code expects kind:n (e.g. rc:2 or spc:4), got {text!r}")


def _parse_snr(text: str) -> tuple[float, float, float]:
    try:
        lo, hi, step = (float(x) for x in text.split(":"))
        return lo, hi, step
    except ValueError:
        raise SpecError(f"--snr expects lo:hi:step, got {text!r}")


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise SpecError(f"expected a comma-separated integer list, got {text!r}")


def _parse_float_list(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(","))
    except ValueError:
        raise SpecError(f"expected a comma-separated float list, got {text!r}")


def _read_config(path: str) -> dict[str, str]:
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
        if key not in _SPEC_KEYS:
            raise SpecError(f"unknown key {key!r} in config file {path!r}; "
                            f"accepted keys: {', '.join(_SPEC_KEYS)}")
        values[key] = val
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bmst",
        description="Superposition-coupled short codes: BER simulation, "
                    "decoding thresholds, and genie-aided bounds.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _SUBCOMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", help="key=value file; flags override it")
        p.add_argument("--code", help="code family kind:n (rc:2, spc:4)")
        p.add_argument("--cart", help="Cartesian product order B")
        p.add_argument("--memory", help="encoding memory m (comma list for sweeps)")
        p.add_argument("--length", help="coupling length L (comma list for sweeps)")
        p.add_argument("--delay", help="decoding delay d (comma list; default 3m, "
                                       "or m and 3m for threshold-vs-target)")
        p.add_argument("--max-iters", dest="max_iters",
                       help="iterations per window position")
        p.add_argument("--seed", help="master seed")
        p.add_argument("--snr", help="lo:hi:step in dB (also the threshold "
                                     "search bracket and resolution)")
        p.add_argument("--target-ber", dest="target_ber",
                       help="comma list of target BERs")
        p.add_argument("--max-bits", dest="max_bits",
                       help="per-point bit budget for BER sweeps")
        p.add_argument("--max-errors", dest="max_errors",
                       help="per-point error budget for BER sweeps")
        p.add_argument("--out", help="output CSV path (default stdout)")
    return parser


_DEFAULTS = {
    "ber": {"max_iters": "50"},
    "threshold-vs-l": {"max_iters": "1000", "snr": "0:14:0.01",
                       "target_ber": "1e-7"},
    "threshold-vs-target": {"max_iters": "1000", "snr": "-2:14:0.01"},
    "bound": {},
    "encode": {},
}


def spec_from_args(argv: list[str]) -> ExperimentSpec:
    args = _build_parser().parse_args(argv)
    values = dict(_DEFAULTS[args.command])
    if args.config:
        values.update(_read_config(args.config))
    for key in _SPEC_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag

    kwargs: dict = {"command": args.command}
    if "code" in values:
        kwargs["kind"], kwargs["n"] = _parse_code(values["code"])
    if "cart" in values:
        kwargs["cart"] = _to_int(values["cart"], "cart")
    if "memory" in values:
        kwargs["memories"] = _parse_int_list(values["memory"])
    if "length" in values:
        kwargs["lengths"] = _parse_int_list(values["length"])
    if "delay" in values:
        kwargs["delays"] = _parse_int_list(values["delay"])
    if "max_iters" in values:
        kwargs["max_iters"] = _to_int(values["max_iters"], "max-iters")
    if "seed" in values:
        kwargs["seed"] = _to_int(values["seed"], "seed")
    if "snr" in values:
        kwargs["snr_lo"], kwargs["snr_hi"], kwargs["snr_step"] = \
            _parse_snr(values["snr"])
    if "target_ber" in values:
        kwargs["targets"] = _parse_float_list(values["target_ber"])
    if "max_bits" in values:
        kwargs["max_bits"] = _to_int(values["max_bits"], "max-bits")
    if "max_errors" in values:
        kwargs["max_errors"] = _to_int(values["max_errors"], "max-errors")
    if "out" in values:
        kwargs["out"] = values["out"]
    return ExperimentSpec(**kwargs)


def _to_int(text: str, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise SpecError(f"--{name} expects an integer, got {text!r}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        spec = spec_from_args(argv)
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
