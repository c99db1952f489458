"""Per-layer tracing of bmst from outside the package.

``Tracer.install`` replaces module attributes of ``bmst.harness``,
``bmst.window_decoder``, ``bmst.basic_codes`` and ``bmst.exit_engine`` with
timing wrappers via ``setattr``; callers inside the package look these names
up as module globals at call time, so every call goes through a wrapper.
``uninstall`` puts the originals back.  The wrappers pass arguments and
results through untouched.

Two kinds of wrapper:

* hot leaves (``jfun``/``jinv``, ``exit_transfer_c``, boxplus, SISO, encoder,
  demapper) aggregate a call count and summed time;
* coarse boundaries (``run_spec``, BER point, ``decode_sequence``, genie
  bound, ``decode_window``, ``exit_window_run``) also keep an in-memory span
  ``(id, name, parent_id, start, end)``.

Self time is a call's duration minus the time of the wrapped calls nested in
it.  ``jfun``/``jinv`` and ``exit_transfer_c`` take the cheapest path (count
and time only) because the threshold slice makes millions of them.
"""

from __future__ import annotations

import importlib
import time
from statistics import median

_perf = time.perf_counter

# Layer names under which each wrapped attribute is reported.
_TIMED = {
    ("bmst.harness", "run_spec"): "harness.run_spec",
    ("bmst.harness", "simulate_ber_point"): "harness.simulate_ber_point",
    ("bmst.harness", "decode_sequence"): "window_decoder.decode_sequence",
    ("bmst.harness", "genie_lower_bound"): "exit_engine.genie_lower_bound",
    ("bmst.harness", "encode_bmst"): "encoder.encode_bmst",
    ("bmst.harness", "llr_demap"): "channel.llr_demap",
    ("bmst.window_decoder", "decode_window"): "window_decoder.decode_window",
    ("bmst.window_decoder", "siso_decode_basic"): "basic_codes.siso_decode_basic",
    ("bmst.window_decoder", "leave_one_out_boxplus"): "llr.leave_one_out_boxplus",
    ("bmst.basic_codes", "leave_one_out_boxplus"): "llr.leave_one_out_boxplus",
    ("bmst.exit_engine", "exit_window_run"): "exit_engine.exit_window_run",
    ("bmst.exit_engine", "ber_basic"): "basic_codes.ber_basic",
}
_SPANS = {"harness.run_spec", "harness.simulate_ber_point",
          "window_decoder.decode_sequence", "exit_engine.genie_lower_bound",
          "window_decoder.decode_window", "exit_engine.exit_window_run",
          "basic_codes.ber_basic"}
_FAST = {
    ("bmst.basic_codes", "jfun"): "jfun.jfun",
    ("bmst.basic_codes", "jinv"): "jfun.jinv",
    ("bmst.exit_engine", "jfun"): "jfun.jfun",
    ("bmst.exit_engine", "jinv"): "jfun.jinv",
    ("bmst.exit_engine", "exit_transfer_c"): "basic_codes.exit_transfer_c",
}
_LAYERS = {*_TIMED.values(), *_FAST.values(), "genie.leave_one_out_boxplus"}


class Tracer:
    """Counts, times and spans of one traced pass; ``reset`` between passes."""

    def __init__(self) -> None:
        self._originals: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        # name -> [calls, total_s, self_s, elements]
        self.agg: dict[str, list] = {
            name: [0, 0.0, 0.0, 0] for name in _LAYERS}
        self.spans: list[tuple[int, str, int | None, float, float]] = []
        # One frame per open wrapped call: [enclosing span id, nested time].
        self._stack: list[list] = [[None, 0.0]]
        self._next_span = 0
        self._window_siso = 0
        self._in_genie = False
        self.window_sweeps: list[int] = []
        self.windows_at_cap = 0
        self.windows_computed = 0
        self.eval_s: list[float] = []

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for (mod_name, attr), layer in _TIMED.items():
            self._patch(mod_name, attr, lambda fn, layer=layer:
                        self._timed(layer, fn))
        for (mod_name, attr), layer in _FAST.items():
            self._patch(mod_name, attr, lambda fn, layer=layer:
                        self._fast(layer, fn))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, fn = self._originals.pop()
            setattr(module, attr, fn)

    def _patch(self, mod_name: str, attr: str, make) -> None:
        module = importlib.import_module(mod_name)
        fn = getattr(module, attr)
        self._originals.append((module, attr, fn))
        setattr(module, attr, make(fn))

    # -- wrappers -----------------------------------------------------------

    def _fast(self, layer: str, fn):
        def wrapper(*args, **kwargs):
            t0 = _perf()
            out = fn(*args, **kwargs)
            slot = self.agg[layer]
            slot[1] += _perf() - t0
            slot[0] += 1
            return out
        return wrapper

    def _timed(self, layer: str, fn):
        is_span = layer in _SPANS

        def wrapper(*args, **kwargs):
            stack = self._stack
            parent = stack[-1][0]
            span_id = parent
            if is_span:
                span_id = self._next_span
                self._next_span += 1
            frame = [span_id, 0.0]
            name = self._before(layer, args)
            stack.append(frame)
            t0 = _perf()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
                dt = t1 - t0
                stack[-1][1] += dt
                slot = self.agg[name]
                slot[0] += 1
                slot[1] += dt
                slot[2] += dt - frame[1]
                if name == "llr.leave_one_out_boxplus":
                    terms = args[0]
                    slot[3] += len(terms) * max(getattr(t, "size", 1)
                                                for t in terms)
                if is_span:
                    self.spans.append((span_id, name, parent, t0, t1))
            self._after(layer, args, out, dt)
            return out
        return wrapper

    def _before(self, layer: str, args) -> str:
        """Per-layer bookkeeping on entry; returns the name to count under."""
        if layer == "basic_codes.siso_decode_basic":
            self._window_siso += 1
        elif layer == "window_decoder.decode_window":
            self._window_siso = 0
        elif layer == "exit_engine.genie_lower_bound":
            self._in_genie = True
        elif layer == "llr.leave_one_out_boxplus" and self._in_genie:
            # Boxplus inside the genie bound's Monte Carlo is not decoder work.
            return "genie.leave_one_out_boxplus"
        return layer

    def _after(self, layer: str, args, out, dt: float) -> None:
        if layer == "window_decoder.decode_window":
            _, state, config = args[:3]
            width = state.layer_end - state.position + 1
            sweeps, rest = divmod(self._window_siso - 1, width)
            if rest:
                raise RuntimeError(
                    f"decode_window made {self._window_siso} SISO calls, "
                    f"not 1 + sweeps * {width}")
            self.window_sweeps.append(sweeps)
            self.windows_at_cap += sweeps == config.max_iters
        elif layer == "exit_engine.genie_lower_bound":
            self._in_genie = False
        elif layer == "exit_engine.exit_window_run":
            self.windows_computed += out.windows_computed
            self.eval_s.append(dt)

    # -- results ------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.agg[name][0]

    def seconds(self, name: str, index: int = 1) -> float:
        return self.agg[name][index]

    def counts(self) -> dict[str, int]:
        """Deterministic counters: identical across passes at one seed."""
        out = {name: slot[0] for name, slot in sorted(self.agg.items())}
        out["llr.leave_one_out_boxplus.elements"] = \
            self.agg["llr.leave_one_out_boxplus"][3]
        out["window_decoder.sweeps"] = sum(self.window_sweeps)
        out["window_decoder.windows_at_cap"] = self.windows_at_cap
        out["exit_engine.windows_computed"] = self.windows_computed
        return out

    def layer_metrics(self) -> dict[str, float]:
        """The benchmark's per-layer metrics for this pass."""
        windows = len(self.window_sweeps)
        computed = self.windows_computed
        trialgen = (self.seconds("harness.simulate_ber_point")
                    - self.seconds("window_decoder.decode_sequence")
                    - self.seconds("exit_engine.genie_lower_bound"))
        return {
            "window_decoder.sweeps_per_window":
                sum(self.window_sweeps) / windows if windows else 0.0,
            "window_decoder.windows_at_cap_ratio":
                self.windows_at_cap / windows if windows else 0.0,
            "window_decoder.decode_window.calls":
                self.calls("window_decoder.decode_window"),
            "window_decoder.decode_window.self_s":
                self.seconds("window_decoder.decode_window", 2),
            "llr.leave_one_out_boxplus.calls":
                self.calls("llr.leave_one_out_boxplus"),
            "llr.leave_one_out_boxplus.s":
                self.seconds("llr.leave_one_out_boxplus"),
            "llr.leave_one_out_boxplus.elements":
                self.agg["llr.leave_one_out_boxplus"][3],
            "basic_codes.siso_decode_basic.calls":
                self.calls("basic_codes.siso_decode_basic"),
            "basic_codes.siso_decode_basic.self_s":
                self.seconds("basic_codes.siso_decode_basic", 2),
            "basic_codes.ber_basic.s": self.seconds("basic_codes.ber_basic"),
            "harness.trialgen_s": trialgen,
            "encoder.encode_bmst.calls": self.calls("encoder.encode_bmst"),
            "encoder.encode_bmst.s": self.seconds("encoder.encode_bmst"),
            "channel.llr_demap.s": self.seconds("channel.llr_demap"),
            "exit_engine.exit_window_run.calls": len(self.eval_s),
            "exit_engine.exit_window_run.s_p50":
                median(self.eval_s) if self.eval_s else 0.0,
            "exit_engine.exit_window_run.s_max":
                max(self.eval_s) if self.eval_s else 0.0,
            "exit_engine.windows_computed": computed,
            "exit_engine.transfer_calls_per_window":
                self.calls("basic_codes.exit_transfer_c") / computed
                if computed else 0.0,
            "jfun.jfun.calls": self.calls("jfun.jfun"),
            "jfun.jfun.s": self.seconds("jfun.jfun"),
            "jfun.jinv.calls": self.calls("jfun.jinv"),
            "jfun.jinv.s": self.seconds("jfun.jinv"),
        }
