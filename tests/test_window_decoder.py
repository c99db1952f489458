import json
import math
from pathlib import Path

import numpy as np
import pytest

from bmst.basic_codes import ber_basic, cartesian, encode_basic, make_small_code
from bmst.channel import ebn0_to_sigma, llr_demap, transmit
from bmst.encoder import build_bmst, rate_bmst, window_plan
from bmst.llr import leave_one_out_boxplus
from bmst.window_decoder import DecoderConfig, decode_sequence, decode_window


def build(kind="rc", n=2, B=4, m=1, L=6, seed=9):
    return build_bmst(cartesian(make_small_code(kind, n), B), m, L, seed=seed)


def received_llr(code, info, ebn0_db, seed):
    rate = rate_bmst(code).value
    sigma = ebn0_to_sigma(ebn0_db, rate)
    rng = np.random.default_rng(seed)
    y = transmit(encode_bmst_all(code, info), sigma, rng)
    return llr_demap(y, sigma)


def encode_bmst_all(code, info):
    from bmst.encoder import encode_bmst
    if info.ndim == 1:
        return encode_bmst(code, info)
    return np.stack([encode_bmst(code, row) for row in info])


def windows_one_by_one(code, cfg, llr):
    """Decode window after window, feeding each decision back as
    ``decode_sequence`` does; yields each window's bits and APP LLRs."""
    L, N = code.coupling_len, code.N
    feedback = np.zeros(llr.shape[:-2] + (L, N))
    for t in range(L):
        plan = window_plan(L, code.memory, cfg.delay, t)
        bits, app = decode_window(code, plan, cfg, llr, feedback)
        yield bits, app
        feedback[..., t, :] = 50.0 * (1.0 - 2.0 * encode_basic(code.basic,
                                                                bits))


def plus_node(incoming, channel_llr):
    """Parity-node extrinsics toward the incoming edges, computed by the call
    the window decoder makes: the channel LLR is term 0."""
    return leave_one_out_boxplus([channel_llr, *incoming])[1:]


class TestNodePlus:
    def test_single_edge_passes_channel(self):
        ch = np.array([1.5, -2.0])
        (out,) = plus_node([np.array([0.7, 0.1])], ch)
        np.testing.assert_allclose(out, ch, atol=1e-12)

    def test_zero_sibling_absorbs(self):
        ch = np.array([3.0, -1.0])
        outs = plus_node([np.zeros(2), np.array([2.0, 2.0])], ch)
        np.testing.assert_array_equal(outs[1], 0.0)

    def test_saturated_siblings_reveal_channel(self):
        ch = np.array([0.25, -7.0])
        outs = plus_node([np.full(2, 50.0), np.full(2, 50.0)], ch)
        for out in outs:
            np.testing.assert_allclose(out, ch, atol=1e-12)


def eq_node(code, incoming, monkeypatch):
    """Run the window decoder's equality and code node of layer 0 on the
    parity-edge messages ``incoming`` (m+1 arrays of N LLRs).

    Returns ``(to_plus, to_c, from_c)``: the messages toward the parity
    nodes, the message the code node received and the one it answered.
    """
    import bmst.window_decoder as wd

    shape = (1, code.memory + 1, 1, code.N)  # (window, edge, trial, bit)
    ppm = np.stack(incoming).reshape(shape)
    epm = np.zeros(shape)
    act = wd._ActiveRows(np.arange(1), None, None, epm, ppm, epm, ppm,
                         None, None, 0)
    seen = []
    siso = wd.siso_decode_basic

    def recording_siso(basic, cw, *args, **kwargs):
        out = siso(basic, cw, *args, **kwargs)
        seen.append((cw.copy(), out[0].copy()))
        return out

    monkeypatch.setattr(wd, "siso_decode_basic", recording_siso)
    wd._eq_c_node(code, act, 0)
    ((to_c, from_c),) = seen
    return act.epm[0, :, 0], to_c[0], from_c[0]


class TestNodeEq:
    def test_memory_zero_swap(self, monkeypatch):
        code = build(kind="spc", n=2, B=1, m=0, L=2)
        inc = np.array([1.0, -2.0])
        to_plus, to_c, from_c = eq_node(code, [inc], monkeypatch)
        np.testing.assert_array_equal(to_c, inc)
        np.testing.assert_array_equal(to_plus[0], from_c)

    def test_all_zero(self, monkeypatch):
        code = build(kind="spc", n=3, B=1, m=2, L=3)
        to_plus, to_c, _ = eq_node(code, [np.zeros(3)] * 3, monkeypatch)
        assert np.all(to_plus == 0.0)
        assert np.all(to_c == 0.0)

    def test_leave_one_out_sums_exact(self, monkeypatch):
        # multiples of 1/4 add without rounding, in any order
        code = build(kind="rc", n=2, B=4, m=2, L=3)
        rng = np.random.default_rng(4)
        inc = [rng.integers(-40, 40, 8) / 4.0 for _ in range(3)]
        to_plus, to_c, from_c = eq_node(code, inc, monkeypatch)
        np.testing.assert_array_equal(to_c, inc[0] + inc[1] + inc[2])
        for i in range(3):
            others = [inc[j] for j in range(3) if j != i]
            np.testing.assert_array_equal(to_plus[i],
                                          others[0] + others[1] + from_c)


class TestNoiseless:
    @pytest.mark.parametrize("kind,n", [("rc", 2), ("spc", 4)])
    @pytest.mark.parametrize("m", [1, 2])
    def test_round_trip(self, kind, n, m):
        code = build(kind, n, B=3, m=m, L=8, seed=m * 7 + n)
        rng = np.random.default_rng(1)
        info = rng.integers(0, 2, code.info_bits, dtype=np.uint8)
        llr = received_llr(code, info, 30.0, seed=2)
        llr = np.where(llr >= 0, 50.0, -50.0)  # force exact saturation
        cfg = DecoderConfig(delay=3 * m, max_iters=8)
        np.testing.assert_array_equal(decode_sequence(code, llr, cfg), info)

    def test_zero_delay_noiseless(self):
        code = build(m=1, L=5)
        rng = np.random.default_rng(3)
        info = rng.integers(0, 2, code.info_bits, dtype=np.uint8)
        sigma0 = transmit(encode_bmst_all(code, info), 0.0,
                          np.random.default_rng(0))
        llr = llr_demap(sigma0, 0.0)
        cfg = DecoderConfig(delay=0, max_iters=4)
        np.testing.assert_array_equal(decode_sequence(code, llr, cfg), info)

    def test_monotone_app_growth(self):
        code = build(m=1, L=4)
        rng = np.random.default_rng(8)
        info = rng.integers(0, 2, code.info_bits, dtype=np.uint8)
        llr = llr_demap(transmit(encode_bmst_all(code, info), 0.0,
                                 np.random.default_rng(0)), 0.0)
        mags = []
        for iters in (1, 2, 4):
            cfg = DecoderConfig(delay=3, max_iters=iters)
            _, app = next(windows_one_by_one(code, cfg, llr))
            mags.append(float(np.abs(app).mean()))
        assert mags[0] <= mags[1] <= mags[2]


def test_decisions_deterministic():
    code = build(m=2, L=6)
    rng = np.random.default_rng(11)
    info = rng.integers(0, 2, code.info_bits, dtype=np.uint8)
    llr = received_llr(code, info, 3.0, seed=5)
    cfg = DecoderConfig(delay=6, max_iters=20)
    a = decode_sequence(code, llr, cfg)
    b = decode_sequence(code, llr, cfg)
    np.testing.assert_array_equal(a, b)


def test_full_sequence_equals_window_composition():
    code = build(m=1, L=5, B=6)
    rng = np.random.default_rng(13)
    info = rng.integers(0, 2, code.info_bits, dtype=np.uint8)
    llr = received_llr(code, info, 4.0, seed=21)
    cfg = DecoderConfig(delay=3, max_iters=15)
    want = decode_sequence(code, llr, cfg)
    got = np.stack([bits for bits, _ in windows_one_by_one(code, cfg, llr)])
    np.testing.assert_array_equal(want, got.ravel())


# Every window's APP LLRs, as float.hex, of ten 4-trial batches at 2 dB:
# SPC and RC, m = 2 and 3, every d < m.  Each holds windows whose last
# layer lies in [L - m, L - 2]: a tail parity node would see a layer right
# of such a window, so the window plan leaves it out.  Three named cases,
# one RC[2,1]^100 trial each at the reference point (m=1, L=10, d=3,
# 5.5 dB, 50 sweeps), list in ``capped`` each window that ran to the cap
# when the decoder had no cycle exit, with the period of the exact limit
# cycle its messages had entered (null: none within the cap).
WINDOW_APPS = json.loads(
    (Path(__file__).parent / "golden" / "window_apps.json").read_text())


@pytest.mark.parametrize("case", WINDOW_APPS, ids=lambda c: c.get(
    "name", f"{c['code']}-m{c['memory']}-d{c['delay']}"))
def test_window_apps_replay_bit_exactly(case):
    code, cfg, llr = window_apps_inputs(case)
    got = [[float(v).hex() for v in app.ravel()]
           for _, app in windows_one_by_one(code, cfg, llr)]
    assert got == case["apps"]


def window_apps_inputs(case):
    """The code, decoder config and channel LLRs of a window-APP case."""
    kind, n = case["code"].split(":")
    code = build(kind, int(n), B=case["cart"], m=case["memory"],
                 L=case["length"], seed=case["seed"])
    rng = np.random.default_rng(case["info_seed"])
    info = rng.integers(0, 2, (case["trials"], code.info_bits),
                        dtype=np.uint8)
    llr = received_llr(code, info, case["ebn0_db"], seed=case["noise_seed"])
    cfg = DecoderConfig(delay=case["delay"], max_iters=case["max_iters"])
    return code, cfg, llr


@pytest.mark.parametrize("case", [c for c in WINDOW_APPS if "capped" in c],
                         ids=lambda c: c["name"])
def test_capped_windows_leave_at_their_limit_cycle(case, monkeypatch):
    # A window whose messages enter an exact limit cycle leaves before the
    # cap with the APPs the cap would give (the replay test checks those);
    # one without a cycle still runs every sweep.
    import bmst.window_decoder as wd

    code, cfg, llr = window_apps_inputs(case)
    calls = [0]  # SISO calls per window
    siso = wd.siso_decode_basic

    def counting_siso(*args, **kwargs):
        calls[-1] += 1
        return siso(*args, **kwargs)

    monkeypatch.setattr(wd, "siso_decode_basic", counting_siso)
    for _ in windows_one_by_one(code, cfg, llr):
        calls.append(0)
    for window, period in case["capped"]:
        plan = window_plan(code.coupling_len, code.memory, cfg.delay, window)
        full = 1 + cfg.max_iters * (plan.layer_end - window + 1)
        if period is None:
            assert calls[window] == full
        else:
            assert calls[window] < full


def test_batched_trials_match_individual():
    code = build(m=1, L=4, B=5)
    cfg = DecoderConfig(delay=3, max_iters=12)
    rng = np.random.default_rng(17)
    info = rng.integers(0, 2, (3, code.info_bits), dtype=np.uint8)
    llr = received_llr(code, info, 2.5, seed=6)
    batch = decode_sequence(code, llr, cfg)
    for i in range(3):
        single = decode_sequence(code, llr[i], cfg)
        np.testing.assert_array_equal(batch[i], single)


def test_zero_delay_worse_than_wide_window():
    # paired comparison on identical noise
    code = build(m=1, L=30, B=40, seed=3)
    rng = np.random.default_rng(4)
    info = rng.integers(0, 2, (8, code.info_bits), dtype=np.uint8)
    llr = received_llr(code, info, 2.5, seed=9)
    errs = {}
    for d in (0, 3):
        cfg = DecoderConfig(delay=d, max_iters=30)
        dec = decode_sequence(code, llr, cfg)
        errs[d] = int((dec != info).sum())
    assert errs[0] > 2 * errs[3]


def test_memory_zero_delay_zero_matches_basic_code():
    small = make_small_code("rc", 2)
    code = build_bmst(cartesian(small, 60), 0, 40, seed=15)
    ebn0 = 4.0
    rate = rate_bmst(code).value
    assert rate == 0.5
    sigma = ebn0_to_sigma(ebn0, rate)
    rng = np.random.default_rng(8)
    info = rng.integers(0, 2, (10, code.info_bits), dtype=np.uint8)
    y = transmit(encode_bmst_all(code, info), sigma, rng)
    dec = decode_sequence(code, llr_demap(y, sigma),
                          DecoderConfig(delay=0, max_iters=5))
    errs = int((dec != info).sum())
    bits = info.size
    p_hat = errs / bits
    p_ref = ber_basic(small, ebn0).ber
    se = math.sqrt(p_ref * (1 - p_ref) / bits)
    assert abs(p_hat - p_ref) < 3 * se


def test_all_zero_matches_random_codewords():
    code = build(m=1, L=20, B=50, seed=5)
    cfg = DecoderConfig(delay=3, max_iters=25)
    rate = rate_bmst(code).value
    sigma = ebn0_to_sigma(3.0, rate)
    trials = 12
    zero_info = np.zeros((trials, code.info_bits), dtype=np.uint8)
    rng = np.random.default_rng(31)
    rand_info = rng.integers(0, 2, (trials, code.info_bits), dtype=np.uint8)
    res = {}
    for name, info in (("zero", zero_info), ("rand", rand_info)):
        y = transmit(encode_bmst_all(code, info), sigma,
                     np.random.default_rng(777))  # identical noise draws
        dec = decode_sequence(code, llr_demap(y, sigma), cfg)
        res[name] = int((dec != info).sum())
    bits = trials * code.info_bits
    p = max(res["zero"], res["rand"], 1) / bits
    tol = 4 * math.sqrt(p * (1 - p) / bits) * bits
    assert abs(res["zero"] - res["rand"]) <= tol


def test_window_input_validation():
    code = build(m=1, L=4)
    cfg = DecoderConfig(delay=2, max_iters=5)
    with pytest.raises(ValueError):
        decode_sequence(code, np.zeros((3, code.N)), cfg)
    with pytest.raises(ValueError):  # the flat form is not taken
        decode_sequence(code, np.zeros(5 * code.N), cfg)
    with pytest.raises(ValueError):
        DecoderConfig(delay=-1)
    with pytest.raises(ValueError):
        DecoderConfig(delay=1, max_iters=0)


MIXED_SNRS = (None, 2.5, 8.0, 1.0, 4.0, 2.5)  # None: noiseless


def mixed_snr_llr(code, seed=41):
    """Channel LLRs of one trial per entry of MIXED_SNRS, so trials converge
    at very different sweeps within one batch."""
    rng = np.random.default_rng(seed)
    info = rng.integers(0, 2, (len(MIXED_SNRS), code.info_bits),
                        dtype=np.uint8)
    rows = []
    for k, snr in enumerate(MIXED_SNRS):
        if snr is None:
            tx = transmit(encode_bmst_all(code, info[k]), 0.0,
                          np.random.default_rng(seed + k))
            rows.append(llr_demap(tx, 0.0))
        else:
            rows.append(received_llr(code, info[k], snr, seed=seed + k))
    return np.stack(rows)


@pytest.mark.parametrize("lead", [(), (6,), (2, 3)])
def test_active_set_matches_trials_decoded_alone(lead):
    code = build(kind="spc", n=3, m=2, L=8, B=4, seed=12)
    llr = mixed_snr_llr(code)
    cfg = DecoderConfig(delay=4, max_iters=30)
    alone = np.stack([decode_sequence(code, row, cfg) for row in llr])
    if lead == ():
        # a lone trial against the same trial as a batch of one
        got = np.stack([decode_sequence(code, row[None], cfg)[0]
                        for row in llr])
    else:
        got = decode_sequence(code, llr.reshape(lead + llr.shape[1:]), cfg)
    np.testing.assert_array_equal(got.reshape(alone.shape), alone)


def test_window_active_set_exits_each_trial_at_its_own_fixed_point(
        monkeypatch):
    import bmst.window_decoder as wd

    code = build(kind="spc", n=3, m=2, L=8, B=4, seed=12)
    llr = mixed_snr_llr(code)
    cfg = DecoderConfig(delay=4, max_iters=500)
    width = cfg.delay + 1
    siso_rows = []
    siso = wd.siso_decode_basic

    def counting_siso(basic, cw, *args, **kwargs):
        siso_rows.append(int(np.prod(cw.shape[:-1])))
        return siso(basic, cw, *args, **kwargs)

    monkeypatch.setattr(wd, "siso_decode_basic", counting_siso)

    bits, app, sweeps = [], [], []
    for row in llr:
        siso_rows.clear()
        b, a = next(windows_one_by_one(code, cfg, row))
        bits.append(b)
        app.append(a)
        n, rest = divmod(len(siso_rows) - 1, width)
        assert rest == 0
        sweeps.append(n)
    assert max(sweeps) < cfg.max_iters  # every trial exits early ...
    assert len(set(sweeps)) > 2  # ... and at its own sweep

    siso_rows.clear()
    got_bits, got_app = next(windows_one_by_one(code, cfg, llr))
    np.testing.assert_array_equal(got_bits, np.stack(bits))
    np.testing.assert_array_equal(got_app, np.stack(app))
    # one SISO call per layer per sweep while any trial iterates, plus the
    # final decision; a converged trial costs no further work
    assert len(siso_rows) == 1 + max(sweeps) * width
    assert sum(siso_rows) == len(llr) + width * sum(sweeps)
