import math
import multiprocessing
import os
from dataclasses import fields

import numpy as np
import pytest

import bmst.harness as harness
from bmst.basic_codes import ber_basic, make_small_code
from bmst.cli import main, spec_from_args
from bmst.exit_engine import MIN_TARGET_BER, genie_bound_ebn0_at_target
from bmst.harness import (BATCH_CODEWORDS, ExperimentSpec, SpecError,
                          parse_metadata, replay, run_ber_sweep,
                          run_lower_bound_table, run_spec,
                          run_threshold_vs_l, run_threshold_vs_target,
                          simulate_ber_point, spec_from_metadata,
                          spec_to_metadata, strip_timestamp)
from time_limit import time_limit


def tiny_ber_spec(**over):
    base = dict(command="ber", kind="rc", n=2, cart=8, memories=(1,),
                lengths=(10,), delays=(3,), max_iters=10, seed=7,
                snr_lo=4.0, snr_hi=6.0, snr_step=2.0,
                max_bits=6000, max_errors=50)
    base.update(over)
    return ExperimentSpec(**base)


def test_spec_metadata_round_trip():
    # every field off its default, so each declared type goes through the
    # codec; bound reads every list field in full
    spec = ExperimentSpec(command="bound", kind="spc", n=5,
                          cart=7, memories=(2, 3), lengths=(20, 30),
                          delays=(4, 5), max_iters=77, seed=9, snr_lo=-1.5,
                          snr_hi=7.25, snr_step=0.125, targets=(1e-3, 2.5e-5),
                          max_bits=1234, max_errors=56, out="x.csv")
    default = ExperimentSpec(command="ber")
    back = spec_from_metadata(spec_to_metadata(spec))
    assert back == spec
    for f in fields(ExperimentSpec):
        value = getattr(spec, f.name)
        assert value != getattr(default, f.name), f.name
        # (2,) == (2.0,), so compare the types too
        assert repr(getattr(back, f.name)) == repr(value), f.name


@pytest.mark.parametrize("field,text", [("n", "abc"), ("memories", "1,,2"),
                                        ("snr_lo", "x"), ("max_iters", "1.5")])
def test_spec_metadata_value_that_does_not_parse(field, text):
    meta = spec_to_metadata(ExperimentSpec(command="ber"))
    meta[field] = text
    with pytest.raises(SpecError, match=f"{field} .*{text!r}"):
        spec_from_metadata(meta)


def test_spec_validation():
    with pytest.raises(SpecError):
        tiny_ber_spec(kind="turbo")
    with pytest.raises(SpecError):
        tiny_ber_spec(snr_step=-1.0)
    with pytest.raises(SpecError):
        ExperimentSpec(command="threshold-vs-l", snr_lo=3.0, snr_hi=3.0,
                       snr_step=0.01)
    with pytest.raises(SpecError):
        tiny_ber_spec(targets=(0.7,))
    # the MI-to-BER map cannot tell targets at or below this floor apart
    for target in (MIN_TARGET_BER, 1e-20, 1e-300):
        with pytest.raises(SpecError, match="targets"):
            tiny_ber_spec(targets=(1e-3, target))
    tiny_ber_spec(targets=(2e-17,))


@pytest.mark.parametrize("over", [dict(max_bits=0), dict(memories=(1, 2)),
                                  dict(command="simulate-everything")])
def test_spec_checks_itself_when_built(over):
    # simulate_ber_point runs no check of its own: it would give 0 bits,
    # decode m = 1 alone and decode as ber
    with pytest.raises(SpecError):
        tiny_ber_spec(**over)


@pytest.mark.parametrize("command", ["ber", "encode", "bound",
                                     "threshold-vs-l", "threshold-vs-target"])
@pytest.mark.parametrize("kind", ["rc", "spc"])
def test_small_code_of_more_than_2048_bits_is_an_invalid_spec(command, kind):
    # specs alone, never a run: make_small_code builds a dense generator,
    # (n - 1)*n values for SPC
    tiny_ber_spec(command=command, kind=kind, n=2048, delays=(3,))
    for n in (2049, 100_000):
        with pytest.raises(SpecError, match="small-code length"):
            tiny_ber_spec(command=command, kind=kind, n=n, delays=(3,))


@pytest.mark.parametrize("ebn0_db", [math.nan, math.inf, -math.inf, 5000.0,
                                     -5000.0])
def test_ber_point_checks_its_ebn0_before_decoding(monkeypatch, ebn0_db):
    def no_decode(*args):
        raise AssertionError("decoded before checking Eb/N0")

    monkeypatch.setattr(harness, "decode_sequence", no_decode)
    with pytest.raises(ValueError, match="Eb/N0"):
        simulate_ber_point(tiny_ber_spec(), ebn0_db, 0)


@pytest.mark.parametrize("lo, hi, step", [
    (1.0, 2.0, 1e-300),   # the step no longer moves the point
    (1.0, 1.0, 1e-300),
    (1.0, 2.0, 1e-9),     # 10**9 points
    (0.0, 10_000.0, 1.0),  # one point too many
    (0.0, 10_000 / 32, 1 / 32),  # one point too many, within the SNR bound
])
def test_sweep_of_too_many_points_is_an_invalid_spec(lo, hi, step):
    # specs alone, never a run: such a sweep would not end, or would fill
    # the memory
    for command in ("ber", "bound"):
        with pytest.raises(SpecError):
            tiny_ber_spec(command=command, snr_lo=lo, snr_hi=hi,
                          snr_step=step)


@pytest.mark.parametrize("command", ["ber", "encode"])
def test_frame_of_too_many_values_is_an_invalid_spec(command):
    # specs alone, never a run: a run would try to allocate the frame.  Two
    # code bits per block; (L + m)*n*B sits at the bound, then one block
    # past it.
    at = dict(command=command, cart=2 ** 20, memories=(0,), lengths=(2,),
              delays=(0,))
    tiny_ber_spec(**at)
    with pytest.raises(SpecError):
        tiny_ber_spec(**dict(at, cart=2 ** 20 + 1))
    for huge in (dict(cart=10 ** 9), dict(lengths=(10 ** 9,)),
                 dict(memories=(10 ** 9,), delays=(0,))):
        with pytest.raises(SpecError):
            tiny_ber_spec(**dict(at, **huge))
    # the largest decoder runs on record: RC[2,1]^1000, L = 100, m = 3
    tiny_ber_spec(command=command, cart=1000, memories=(3,), lengths=(100,),
                  delays=(9,))


def test_window_of_too_many_values_is_an_invalid_ber_spec():
    # m = 3 and d = 9 on L = 4: each window buffer holds min(d + 1, L)*(m +
    # 1) = 16 blocks, more than the frame's L + m = 7
    at = dict(cart=2 ** 17, memories=(3,), lengths=(4,), delays=(9,))
    tiny_ber_spec(**at)
    with pytest.raises(SpecError):
        tiny_ber_spec(**dict(at, cart=2 ** 17 + 1))
    tiny_ber_spec(**dict(at, command="encode", cart=2 ** 17 + 1))
    # the commands that build no frame take any n*B; of them only bound
    # takes any L, since a threshold run holds (L + m)*(m + 1) MI messages
    for command in ("bound", "threshold-vs-l"):
        tiny_ber_spec(command=command, cart=10 ** 9, delays=())
    tiny_ber_spec(command="bound", lengths=(10 ** 9,))


def test_sweep_limits():
    spec = tiny_ber_spec(snr_lo=0.0, snr_hi=9_999 / 32, snr_step=1 / 32)
    assert len(spec.snr_points()) == harness.MAX_SNR_POINTS
    # a threshold search's step is its resolution, not a sweep
    tiny_ber_spec(command="threshold-vs-l", snr_lo=0.0, snr_hi=14.0,
                  snr_step=1e-300)


def test_ber_sweep_deterministic_and_replayable():
    spec = tiny_ber_spec()
    a = run_ber_sweep(spec)
    b = run_ber_sweep(spec)
    assert strip_timestamp(a) == strip_timestamp(b)
    c = replay(a)
    assert strip_timestamp(c) == strip_timestamp(a)


def test_ber_point_fields_consistent():
    spec = tiny_ber_spec()
    p = simulate_ber_point(spec, 5.0, 0)
    assert p.bits_simulated % (spec.length * 8) == 0
    assert p.ber == p.bit_errors / p.bits_simulated
    assert p.lower_bound_ber > 0.0
    assert p.standard_error >= 0.0


def test_ber_point_matches_per_trial_streams():
    # one batch exactly; re-derive each trial's stream and decode singly
    from bmst.channel import ebn0_to_sigma, llr_demap
    from bmst.encoder import build_bmst, encode_bmst, rate_bmst
    from bmst.basic_codes import cartesian
    from bmst.window_decoder import DecoderConfig, decode_sequence

    spec = tiny_ber_spec(max_bits=1, max_errors=10 ** 9)  # stops after batch 1
    point = simulate_ber_point(spec, 4.0, 0)
    code = build_bmst(cartesian(make_small_code("rc", 2), spec.cart),
                      spec.memory, spec.length, spec.seed)
    assert point.bits_simulated == BATCH_CODEWORDS * code.info_bits
    sigma = ebn0_to_sigma(4.0, rate_bmst(code).value)
    cfg = DecoderConfig(delay=3, max_iters=spec.max_iters)
    errors = 0
    for j in range(BATCH_CODEWORDS):
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((spec.seed, 0, j))))
        info = rng.integers(0, 2, code.info_bits, dtype=np.uint8)
        tx = encode_bmst(code, info)
        y = (1.0 - 2.0 * tx) + sigma * rng.standard_normal(tx.shape)
        dec = decode_sequence(code, llr_demap(y, sigma), cfg)
        errors += int((dec != info).sum())
    assert errors == point.bit_errors


def decoder_breaks():
    raise ValueError("decoder broke")


FAILED_CHUNKS = [
    ("child-raises", True, decoder_breaks, RuntimeError,
     r"(?s)BER chunk 1 failed in its child.*decoder broke"),
    ("child-dies", True, lambda: os._exit(1), RuntimeError,
     "BER chunk 1: its child exited with code 1 without a result"),
    ("parent-raises", False, decoder_breaks, ValueError, "decoder broke"),
]


# At 3 CPUs chunk 2's child is still unread when the error is raised, so
# the cleanup of unread children terminates and joins it.
@pytest.mark.parametrize("cpus, in_child, fail, error, match", [
    pytest.param(cpus, *case, id=name if cpus == 2 else f"{name}-3cpus")
    for cpus in (2, 3) for name, *case in FAILED_CHUNKS])
def test_failed_chunk_fails_loudly_and_leaves_no_child(monkeypatch, cpus,
                                                       in_child, fail, error,
                                                       match):
    # a module function patched here is inherited through fork
    parent, decode = os.getpid(), harness.decode_sequence

    def failing(*args):
        if (os.getpid() != parent) == in_child:
            fail()
        return decode(*args)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    monkeypatch.setattr(harness, "decode_sequence", failing)
    with time_limit(60), pytest.raises(error, match=match):
        simulate_ber_point(tiny_ber_spec(), 4.0, 0)
    assert multiprocessing.active_children() == []


def test_ber_point_in_a_pool_worker_decodes_in_place(monkeypatch):
    # a pool worker is daemonic, and multiprocessing lets it have no children
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    spec = tiny_ber_spec(max_bits=1)
    with time_limit(60), multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply(simulate_ber_point, (spec, 4.0, 0))
    assert got == simulate_ber_point(spec, 4.0, 0)


def test_bound_table_properties():
    spec = ExperimentSpec(command="bound", kind="rc", n=2, memories=(0, 1),
                          lengths=(100000,), snr_lo=0.0, snr_hi=6.0,
                          snr_step=1.0)
    text = run_lower_bound_table(spec)
    rows = [line.split(",") for line in text.splitlines()
            if line and not line.startswith("#") and not line.startswith("family")]
    m0 = {float(r[3]): float(r[4]) for r in rows if r[1] == "0"}
    m1 = {float(r[3]): float(r[4]) for r in rows if r[1] == "1"}
    for g, val in m0.items():
        assert val == ber_basic(make_small_code("rc", 2), g).ber
    # m=1 at gamma matches m=0 shifted by ~3.01 dB for large L
    for g in (1.0, 3.0):
        want = ber_basic(make_small_code("rc", 2),
                         g + 10 * math.log10(2) - 10 * math.log10(1 + 1e-5)).ber
        assert m1[g] == pytest.approx(want, rel=1e-6)
    vals = [m1[g] for g in sorted(m1)]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_spc_numeric_fields_print_as_plain_numbers():
    # The SPC genie bound is computed with numpy arrays; every numeric CSV
    # field must still parse with float().
    ber_text = run_ber_sweep(tiny_ber_spec(kind="spc", n=3, snr_lo=3.0,
                                           snr_hi=4.0, snr_step=1.0,
                                           max_bits=600))
    bound_text = run_lower_bound_table(ExperimentSpec(
        command="bound", kind="spc", n=3, memories=(1,), lengths=(50,),
        snr_lo=3.0, snr_hi=4.0, snr_step=1.0))
    for text, skip in ((ber_text, set()), (bound_text, {"family"})):
        lines = [line for line in text.splitlines()
                 if line and not line.startswith("#")]
        header = lines[0].split(",")
        assert len(lines) == 3
        for line in lines[1:]:
            for name, field in zip(header, line.split(",")):
                if name not in skip:
                    float(field)


def test_threshold_vs_l_csv():
    spec = ExperimentSpec(command="threshold-vs-l", kind="rc", n=2,
                          memories=(1,), lengths=(10, 50), snr_lo=0.0,
                          snr_hi=14.0, snr_step=0.02, targets=(1e-5,),
                          max_iters=1000)
    text, failures = run_threshold_vs_l(spec)
    assert failures == 0
    rows = [line.split(",") for line in text.splitlines()
            if line and not (line.startswith("#") or line.startswith("family"))]
    assert len(rows) == 2
    stars = [float(r[6]) for r in rows]
    assert stars[0] > stars[1]  # ebn0* improves with L
    sigma_db = [-20 * math.log10(float(r[5])) for r in rows]
    assert abs(sigma_db[0] - sigma_db[1]) < 0.03
    assert all(r[9] == "ok" for r in rows)


def test_threshold_vs_l_bracket_failure_recorded():
    spec = ExperimentSpec(command="threshold-vs-l", kind="rc", n=2,
                          memories=(1,), lengths=(10,), snr_lo=10.0,
                          snr_hi=14.0, snr_step=0.02, targets=(1e-5,))
    text, failures = run_threshold_vs_l(spec)
    assert failures == 1
    assert "no-bracket" in text


def test_threshold_vs_target_csv():
    spec = ExperimentSpec(command="threshold-vs-target", kind="rc", n=2,
                          memories=(1,), lengths=(100,), delays=(3,),
                          snr_lo=0.0, snr_hi=14.0, snr_step=0.02,
                          targets=(1e-3, 1e-6))
    text, failures = run_threshold_vs_target(spec)
    assert failures == 0
    rows = [line.split(",") for line in text.splitlines()
            if line and not (line.startswith("#") or line.startswith("family"))]
    assert len(rows) == 2
    by_target = {float(r[4]): (float(r[5]), float(r[6])) for r in rows}
    assert by_target[1e-6][0] > by_target[1e-3][0]
    # at the small target the threshold approaches the bound-implied point
    star6, bound6 = by_target[1e-6]
    assert star6 >= bound6 - 0.02
    assert star6 - bound6 < 0.5


def test_threshold_vs_target_bracket_failure_recorded(tmp_path):
    # rc:2 already passes at 10 dB, so the bracket fails
    argv = ["threshold-vs-target", "--code", "rc:2", "--memory", "1",
            "--length", "10", "--delay", "3", "--target-ber", "1e-5",
            "--snr", "10:14:0.05"]
    spec = spec_from_args(argv)
    text, failures = run_threshold_vs_target(spec)
    assert failures == 1
    rows = [line.split(",") for line in text.splitlines()
            if line and not (line.startswith("#") or line.startswith("family"))]
    assert len(rows) == 1
    star, bound, status = rows[0][5], rows[0][6], rows[0][7]
    assert math.isnan(float(star))
    assert float(bound) == genie_bound_ebn0_at_target(
        make_small_code("rc", 2), 1, 10, 1e-5)
    assert status.startswith("no-bracket: ")
    out = tmp_path / "t.csv"
    assert main(argv + ["--out", str(out)]) == 3
    assert out.read_text().splitlines()[-2:] == text.splitlines()[-2:]


def test_threshold_vs_target_default_delays_cover_m_and_3m():
    # at m = 0 both defaults are 0, and that one search runs once
    for memory, delays in ((2, [2, 6]), (0, [0])):
        spec = ExperimentSpec(command="threshold-vs-target", kind="rc", n=2,
                              memories=(memory,), lengths=(50,), snr_lo=0.0,
                              snr_hi=14.0, snr_step=0.05, targets=(1e-4,))
        text, _ = run_threshold_vs_target(spec)
        rows = [line.split(",") for line in text.splitlines()
                if line and not (line.startswith("#")
                                 or line.startswith("family"))]
        assert sorted(int(r[2]) for r in rows) == delays


def test_threshold_vs_target_computes_each_genie_bound_once(monkeypatch):
    # the bound depends on (m, L, target), not on the delay
    import bmst.harness as harness
    calls = []
    bound = harness.genie_bound_ebn0_at_target

    def counting_bound(*args, **kwargs):
        calls.append(args)
        return bound(*args, **kwargs)

    monkeypatch.setattr(harness, "genie_bound_ebn0_at_target", counting_bound)
    spec = ExperimentSpec(command="threshold-vs-target", kind="rc", n=2,
                          memories=(1, 2), lengths=(20,), snr_lo=-6.0,
                          snr_hi=14.0, snr_step=0.1, targets=(1e-2, 1e-3))
    text, _ = run_threshold_vs_target(spec)
    rows = [line for line in text.splitlines()
            if line and not (line.startswith("#") or line.startswith("family"))]
    assert len(rows) == 8  # 2 memories x 2 delays x 2 targets
    assert len(calls) == 4


def test_encode_replay():
    spec = ExperimentSpec(command="encode", kind="spc", n=4, cart=3,
                          memories=(2,), lengths=(4,), seed=99)
    a, rc = run_spec(spec)
    assert rc == 0
    assert strip_timestamp(replay(a)) == strip_timestamp(a)
    meta = parse_metadata(a)
    assert meta["command"] == "encode"
    data_rows = [line for line in a.splitlines()
                 if line and not (line.startswith("#") or line.startswith("row_type"))]
    assert len(data_rows) == 1 + 4 + 2  # info row plus L+m coded blocks
