"""Benchmark of bmst: decoder BER throughput and MI threshold searches.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a checkout.  Each workload (see ``workloads.json``)
runs in a fresh single-threaded process (``worker.py``) through the same
in-process path as the CLI: ``bmst.cli.spec_from_args`` then
``bmst.harness.run_spec``.  The CSVs it emits are checked by ``checker.py``.

With ``--trace 0`` the run reports the end-to-end metrics:

* ``setup_s``: process start to ready (import, J table, spec parsing,
  ``build_bmst``), the median over the workload process and
  ``SETUP_PROBES`` processes that only set up;
* ``work_s``: median wall time of one pass of the workload's operations (one
  BER point at the fixed bit budget, or all six threshold searches);
* ``peak_rss_mb``: ``ru_maxrss`` of the workload process.

With ``--trace 1`` it reports the per-layer metrics of ``tracer.py`` (median
over two traced passes), the J-table build time and the tracing overhead
against an untraced pass in the same process.

The second-to-last stdout line is a JSON record of the details (machine
facts, every sample, per-operation failures, the checker self-test); the
last line is the result.  Exit code 2 means the run could not be made.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from statistics import median

from checker import check_passes, self_test
from worker import BENCH, ROOT, load_workloads

SETUP_PROBES = 6
TIMEOUT_S = 170.0
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}


class RunError(RuntimeError):
    pass


def run_worker(args: argparse.Namespace, mode: str,
               deadline: float) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from start to ready, its JSON)."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode]
    env = dict(os.environ, **SINGLE_THREAD)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT,
                            text=True)
    watchdog = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if code != 0 or ready.strip() != "ready":
        raise RunError(f"worker --mode {mode} exited with code {code}")
    return ready_s, json.loads(rest.splitlines()[-1]) if rest.strip() else None


def traced_metrics(passes: list[dict], setup: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from passes [untraced, traced, traced, ...]."""
    untraced, traced = passes[0], passes[1:]
    metrics = {name: median(p["layers"][name] for p in traced)
               for name in traced[0]["layers"]}
    metrics["jfun.table_build_s"] = setup["table_build_s"]
    metrics["trace.overhead_ratio"] = (
        median(p["wall_s"] for p in traced) / untraced["wall_s"] - 1.0)
    problems = [f"traced pass {i} counts differ from traced pass 0"
                for i, p in enumerate(traced) if p["counts"] != traced[0]["counts"]]
    return metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + TIMEOUT_S
    workloads = load_workloads()["workloads"]
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "bmst" / "__init__.py").is_file():
        print(f"no bmst sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workload = workloads[args.workload]

    # Half of the set-up probes run before the workload process, half after,
    # so that the median spans the machine's load over the whole run.
    probes = 0 if args.trace else SETUP_PROBES // 2
    try:
        setup_samples = [run_worker(args, "setup", deadline)[0]
                         for _ in range(probes)]
        ready_s, doc = run_worker(args, "trace" if args.trace else "measure",
                                  deadline)
        setup_samples.append(ready_s)
        setup_samples += [run_worker(args, "setup", deadline)[0]
                          for _ in range(probes)]
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    passes = doc["passes"]
    notes: set[str] = set()
    attempted, op_failures = check_passes(
        workload, [(p["seed"], p["csvs"]) for p in passes], notes)
    problems = []
    selftest = self_test(workload, passes[0]["seed"], passes[0]["csvs"])
    if not selftest["ok"]:
        problems.append("checker self-test did not catch the tampered result")
    untraced = passes[:1] if args.trace else passes
    work_s = median(p["wall_s"] for p in untraced)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": doc["machine"], "setup": doc["setup"],
        "setup_samples_s": setup_samples,
        "pass_seeds": [p["seed"] for p in passes],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "op_s": [p["op_s"] for p in passes],
        "rows": [text.rstrip("\n").rpartition("\n")[2]
                 for text in passes[0]["csvs"]],
        "failed_op_ratio": len(op_failures) / attempted,
        "op_failures": op_failures, "notes": sorted(notes),
        "self_test": selftest,
    }
    if workload["kind"] == "ber":
        detail["info_bits_per_s"] = workload["info_bits_per_op"] / work_s
    else:
        detail["slice_s"] = work_s

    if args.trace:
        metrics, count_problems = traced_metrics(passes, doc["setup"])
        problems += count_problems
        detail["counts"] = passes[1]["counts"]
        detail["spans"] = passes[1]["spans"]
        units = {m["name"]: m["unit"] for m in _declared("per_layer")}
    else:
        metrics = {"setup_s": median(setup_samples), "work_s": work_s,
                   "peak_rss_mb": doc["peak_rss_mb"]}
        units = {m["name"]: m["unit"] for m in _declared("end_to_end")}
    detail["problems"] = problems
    print(json.dumps(detail))
    print(json.dumps({
        "correct": not op_failures and not problems, "attempted": attempted,
        "failed": len(op_failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


def _declared(section: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[section]


if __name__ == "__main__":
    sys.exit(main())
