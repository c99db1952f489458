"""Workload process of the bmst benchmark, started by ``bench/run.py``.

It sets bmst up the way the CLI does (import, J-table build,
``bmst.cli.spec_from_args``, and ``build_bmst`` for BER specs), prints
``ready``, and then, unless ``--mode setup``, runs the workload's operations
through ``bmst.harness.run_spec`` in passes, each at one spec seed (see
``pass_seeds``).  The last stdout line is one JSON document with the CSVs,
timings and, with ``--mode trace``, per-layer counters.

Modes: ``setup`` stops after ``ready``; ``measure`` runs
``round(--seconds / pass_s)`` untraced passes, at least one, where
``pass_s`` is the workload's recorded pass time, so that a run decodes the
same strata whatever the host's speed; ``trace`` runs one untraced pass and
then two traced passes at the same seed (see ``tracer.py``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACED_PASSES = 2
STRATUM_ORDER = (3, 4, 0, 7, 2, 5, 1, 6)


def load_workloads() -> dict:
    return json.loads((BENCH / "workloads.json").read_text(encoding="utf-8"))


def pass_seeds(workload: dict, seed: int) -> list[int]:
    """Spec seeds of a run's passes, in order (cycled if a run needs more).

    A BER pass decodes one 32-frame batch, and its work varies by about 13%
    from one noise realisation to the next (sweeps per window 26 to 44 at
    the reference point).  So a run draws its realisations from the 64 with
    a recorded reference by stratified sampling: the pool is sorted by the
    decoder sweeps recorded with each reference and cut into eight equal
    strata, the run's seed picks one realisation per stratum, and the
    passes visit the strata in ``STRATUM_ORDER``: the two middle ones, then
    the two extremes, then the pairs between.  Adding strata in pairs that
    mirror each other keeps the median pass near the pool's median whatever
    the number of passes, and every run of four passes or more decodes both
    tails.  The threshold slice has no randomness and ignores the seed.
    """
    if workload["kind"] != "ber":
        return [seed]
    refs = workload["references"]
    pool = sorted(refs, key=lambda s: (refs[s][2], int(s)))
    size = len(pool) // len(STRATUM_ORDER)
    rng = random.Random(seed)
    return [int(rng.choice(pool[j * size:(j + 1) * size]))
            for j in STRATUM_ORDER]


def op_argvs(workload: dict, seed: int) -> list[list[str]]:
    """CLI argument lists of the workload's operations at spec seed ``seed``."""
    if workload["kind"] == "ber":
        return [workload["argv"] + ["--seed", str(seed)]]
    return [search["argv"] for search in workload["searches"]]


def machine_facts() -> dict:
    import numpy
    import scipy
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                         "MKL_NUM_THREADS")}}


def setup(argvs: list[list[str]]) -> dict:
    """Import bmst from this checkout and build what the operations need."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import bmst
    if Path(bmst.__file__).resolve().parent != ROOT / "src" / "bmst":
        raise ImportError(f"imported bmst from {bmst.__file__}, "
                          f"not from {ROOT / 'src'}")
    from bmst.basic_codes import cartesian, make_small_code
    from bmst.cli import spec_from_args
    from bmst.encoder import build_bmst
    t1 = time.perf_counter()
    importlib.import_module("bmst.jfun").jfun(1.0)  # builds the J table
    t2 = time.perf_counter()
    specs = [spec_from_args(argv) for argv in argvs]
    for spec in specs:
        if spec.command == "ber":
            build_bmst(cartesian(make_small_code(spec.kind, spec.n), spec.cart),
                       spec.memory, spec.length, spec.seed)
    t3 = time.perf_counter()
    return {"import_s": t1 - t0, "table_build_s": t2 - t1,
            "spec_and_build_s": t3 - t2}


def run_pass(workload: dict, seed: int) -> dict:
    """Run the workload's operations at spec seed ``seed``, timing each."""
    from bmst.cli import spec_from_args
    harness = importlib.import_module("bmst.harness")
    specs = [spec_from_args(argv) for argv in op_argvs(workload, seed)]
    csvs, op_s = [], []
    t0 = time.perf_counter()
    for spec in specs:
        t = time.perf_counter()
        csvs.append(harness.run_spec(spec)[0])
        op_s.append(time.perf_counter() - t)
    return {"seed": seed, "wall_s": time.perf_counter() - t0, "op_s": op_s,
            "csvs": csvs}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "measure", "trace"),
                        required=True)
    args = parser.parse_args(argv)
    workload = load_workloads()["workloads"][args.workload]

    seeds = pass_seeds(workload, args.seed)
    info = setup(op_argvs(workload, seeds[0]))
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    out = {"setup": info, "machine": machine_facts()}
    if args.mode == "measure":
        count = max(1, round(args.seconds / workload["pass_s"]))
        out["passes"] = [run_pass(workload, seeds[i % len(seeds)])
                         for i in range(count)]
    else:
        # Every pass at one seed: the traced passes must repeat the untraced
        # one's CSVs and each other's counts exactly.
        from tracer import Tracer
        out["passes"] = [run_pass(workload, seeds[0])]
        tracer = Tracer()
        tracer.install()
        try:
            for _ in range(TRACED_PASSES):
                tracer.reset()
                traced_t0 = time.perf_counter()
                traced = run_pass(workload, seeds[0])
                traced["layers"] = tracer.layer_metrics()
                traced["counts"] = tracer.counts()
                traced["spans"] = [
                    (i, name, parent, start - traced_t0, end - traced_t0)
                    for i, name, parent, start, end in tracer.spans]
                out["passes"].append(traced)
        finally:
            tracer.uninstall()
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
