import math

import numpy as np
import pytest

from bmst.basic_codes import ber_basic, cartesian, encode_basic, make_small_code
from bmst.channel import ebn0_to_sigma, llr_demap, transmit
from bmst.encoder import build_bmst, rate_bmst
from bmst.llr import leave_one_out_boxplus
from bmst.window_decoder import (DecoderConfig, WindowState, decode_sequence,
                                 decode_window)


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

    cfg = DecoderConfig(delay=0)
    state = WindowState.create(
        code, cfg, np.zeros((code.coupling_len + code.memory, code.N)), 0)
    shape = (1, code.memory + 1, 1, code.N)  # (window, edge, trial, bit)
    act = wd._ActiveRows(np.arange(1), None, None, np.zeros(shape),
                         np.stack(incoming).reshape(shape))
    seen = []
    siso = wd.siso_decode_basic

    def recording_siso(basic, cw, *args, **kwargs):
        out = siso(basic, cw, *args, **kwargs)
        seen.append((cw.copy(), out[0].copy()))
        return out

    monkeypatch.setattr(wd, "siso_decode_basic", recording_siso)
    wd._eq_c_node(code, state, act, 0)
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
            state = WindowState.create(code, cfg, llr, 0)
            _, app = decode_window(code, state, cfg)
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


def test_flat_input_accepted():
    code = build(m=1, L=4)
    rng = np.random.default_rng(2)
    info = rng.integers(0, 2, code.info_bits, dtype=np.uint8)
    llr = received_llr(code, info, 20.0, seed=3)
    cfg = DecoderConfig(delay=3, max_iters=10)
    np.testing.assert_array_equal(decode_sequence(code, llr.ravel(), cfg),
                                  decode_sequence(code, llr, cfg))


def test_full_sequence_equals_window_composition():
    code = build(m=1, L=5, B=6)
    rng = np.random.default_rng(13)
    info = rng.integers(0, 2, code.info_bits, dtype=np.uint8)
    llr = received_llr(code, info, 4.0, seed=21)
    cfg = DecoderConfig(delay=3, max_iters=15)
    want = decode_sequence(code, llr, cfg)

    L, K, N = code.coupling_len, code.K, code.N
    feedback = np.zeros((L, N))
    got = np.zeros((L, K), dtype=np.uint8)
    for t in range(L):
        state = WindowState.create(code, cfg, llr, t, feedback)
        bits, _ = decode_window(code, state, cfg)
        got[t] = bits
        feedback[t] = 50.0 * (1.0 - 2.0 * encode_basic(code.basic, bits))
    np.testing.assert_array_equal(want, got.ravel())


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


def test_window_state_validation():
    code = build(m=1, L=4)
    cfg = DecoderConfig(delay=2, max_iters=5)
    with pytest.raises(ValueError):
        WindowState.create(code, cfg, np.zeros((3, code.N)), 0)
    with pytest.raises(ValueError):
        WindowState.create(code, cfg, np.zeros((5, code.N)), 4)
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
        state = WindowState.create(code, cfg, row, 0)
        b, a = decode_window(code, state, cfg)
        bits.append(b)
        app.append(a)
        n, rest = divmod(len(siso_rows) - 1, width)
        assert rest == 0
        sweeps.append(n)
    assert max(sweeps) < cfg.max_iters  # every trial exits early ...
    assert len(set(sweeps)) > 2  # ... and at its own sweep

    siso_rows.clear()
    state = WindowState.create(code, cfg, llr, 0)
    got_bits, got_app = decode_window(code, state, cfg)
    np.testing.assert_array_equal(got_bits, np.stack(bits))
    np.testing.assert_array_equal(got_app, np.stack(app))
    # one SISO call per layer per sweep while any trial iterates, plus the
    # final decision; a converged trial costs no further work
    assert len(siso_rows) == 1 + max(sweeps) * width
    assert sum(siso_rows) == len(llr) + width * sum(sweeps)
