"""The benchmark's tracer, ``bench/tracer.py``, wraps module attributes of
bmst and checks that each decoded window makes 1 + sweeps x width SISO
calls.  This test runs it on both engines, the decoder at m = 2 and at the
reference point's m = 1 and d = 3, so that a change to those attributes, to
``decode_window``'s arguments or to its node calls cannot break
``bench/run.py --trace 1`` unseen."""

import importlib.util
from pathlib import Path

import numpy as np

import bmst.exit_engine as exit_engine
import bmst.window_decoder as wd
from bmst.basic_codes import cartesian, make_small_code
from bmst.encoder import build_bmst

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_every_window_of_both_engines():
    small = make_small_code("rc", 2)
    L, m = 6, 2
    code = build_bmst(cartesian(small, 4), m, L, seed=3)
    rng = np.random.default_rng(0)
    llr = rng.normal(2.0, 2.0, (2, L + m, code.N))
    # The reference point's m = 1 and d = 3, where the decoder copies half
    # its parity outputs in each sweep.
    ref = build_bmst(cartesian(small, 4), 1, L, seed=3)
    ref_llr = rng.normal(2.0, 2.0, (2, L + 1, ref.N))
    decode_window = wd.decode_window
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        wd.decode_sequence(code, llr, wd.DecoderConfig(delay=1, max_iters=5))
        wd.decode_sequence(ref, ref_llr,
                           wd.DecoderConfig(delay=3, max_iters=20))
        res = exit_engine.exit_window_run(small, m, 3, L, 6.0, 1e-3)
    finally:
        tracer.uninstall()
    assert wd.decode_window is decode_window
    assert len(tracer.window_sweeps) == 2 * L
    assert all(1 <= sweeps <= 5 for sweeps in tracer.window_sweeps[:L])
    assert all(1 <= sweeps <= 20 for sweeps in tracer.window_sweeps[L:])
    assert max(tracer.window_sweeps[L:]) > 2
    assert tracer.windows_computed == res.windows_computed > 0
