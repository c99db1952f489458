import itertools
import math

import numpy as np
import pytest

import bmst.basic_codes as basic_codes
from bmst.basic_codes import (ber_basic, cartesian, encode_basic,
                              exit_transfer_c, make_small_code,
                              siso_decode_basic)
from bmst.jfun import qfunc
from bmst.llr import LLR_CLIP


def gf2_rank(mat):
    m = mat.copy().astype(np.uint8) & 1
    rank = 0
    rows, cols = m.shape
    for c in range(cols):
        pivots = np.nonzero(m[rank:, c])[0]
        if pivots.size == 0:
            continue
        p = rank + pivots[0]
        m[[rank, p]] = m[[p, rank]]
        for r in range(rows):
            if r != rank and m[r, c]:
                m[r] ^= m[rank]
        rank += 1
        if rank == rows:
            break
    return rank


def enumeration_siso(code, cw_llr):
    """Brute-force symbol-MAP reference: marginalize over all codewords of
    each independent block, with the all-zero source prior."""
    small = code.small
    n, k, B = small.n, small.k, code.cart_order
    cw_llr = np.asarray(cw_llr, dtype=float).reshape(B, n)
    infos = np.array(list(itertools.product([0, 1], repeat=k)), dtype=np.uint8)
    words = (infos.astype(np.int32) @ small.generator.astype(np.int32)) & 1
    ext = np.zeros((B, n))
    app = np.zeros((B, k))
    for b in range(B):
        # log-weight of each codeword under the bit-wise priors
        logw = -(words @ cw_llr[b])
        for j in range(n):
            w0 = logw[words[:, j] == 0]
            w1 = logw[words[:, j] == 1]
            full = (np.logaddexp.reduce(w0) - np.logaddexp.reduce(w1))
            ext[b, j] = full - cw_llr[b, j]
        for j in range(k):
            w0 = logw[infos[:, j] == 0]
            w1 = logw[infos[:, j] == 1]
            app[b, j] = np.logaddexp.reduce(w0) - np.logaddexp.reduce(w1)
    return ext.reshape(-1), app.reshape(-1)


class TestConstruction:
    def test_rc_canonical(self):
        c = make_small_code("rc", 2)
        np.testing.assert_array_equal(c.generator, [[1, 1]])
        assert (c.n, c.k) == (2, 1)
        c3 = make_small_code("RC", 3)
        np.testing.assert_array_equal(c3.generator, [[1, 1, 1]])

    def test_spc_canonical(self):
        c = make_small_code("spc", 4)
        assert (c.n, c.k) == (4, 3)
        np.testing.assert_array_equal(
            c.generator, [[1, 0, 0, 1], [0, 1, 0, 1], [0, 0, 1, 1]])

    def test_generators_full_rank(self):
        for kind, n in [("rc", 2), ("rc", 5), ("spc", 3), ("spc", 8)]:
            c = make_small_code(kind, n)
            assert gf2_rank(c.generator) == c.k

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            make_small_code("rc", 1)
        with pytest.raises(ValueError):
            make_small_code("hamming", 7)
        with pytest.raises(ValueError):
            cartesian(make_small_code("rc", 2), 0)

    def test_cartesian_sizes(self):
        rc = cartesian(make_small_code("rc", 2), 5000)
        assert (rc.N, rc.K) == (10000, 5000)
        spc = cartesian(make_small_code("spc", 4), 2500)
        assert (spc.N, spc.K) == (10000, 7500)

    def test_cartesian_order_one_is_small_code(self):
        small = make_small_code("rc", 2)
        one = cartesian(small, 1)
        np.testing.assert_array_equal(one.generator(), small.generator)

    def test_block_diagonal_generator(self):
        code = cartesian(make_small_code("spc", 3), 4)
        g = code.generator()
        assert g.shape == (code.K, code.N)
        assert gf2_rank(g) == code.K
        assert g[:2, 3:].sum() == 0
        assert g[2:, :3].sum() == 0


class TestEncode:
    def test_repetition_example(self):
        code = cartesian(make_small_code("rc", 2), 2)
        np.testing.assert_array_equal(encode_basic(code, [1, 0]), [1, 1, 0, 0])

    def test_spc_parity_example(self):
        code = cartesian(make_small_code("spc", 4), 1)
        np.testing.assert_array_equal(encode_basic(code, [1, 1, 0]), [1, 1, 0, 0])

    def test_zero_maps_to_zero(self):
        code = cartesian(make_small_code("spc", 5), 3)
        assert encode_basic(code, np.zeros(code.K, dtype=np.uint8)).sum() == 0

    def test_linearity(self):
        code = cartesian(make_small_code("spc", 4), 6)
        rng = np.random.default_rng(3)
        for _ in range(20):
            a = rng.integers(0, 2, code.K, dtype=np.uint8)
            b = rng.integers(0, 2, code.K, dtype=np.uint8)
            np.testing.assert_array_equal(
                encode_basic(code, a ^ b),
                encode_basic(code, a) ^ encode_basic(code, b))

    def test_length_mismatch(self):
        code = cartesian(make_small_code("rc", 2), 2)
        with pytest.raises(ValueError):
            encode_basic(code, [1, 0, 1])


class TestSiso:
    def test_repetition_passes_other_bit(self):
        code = cartesian(make_small_code("rc", 2), 1)
        ext, app = siso_decode_basic(code, [0.0, 5.0])
        assert ext[0] == pytest.approx(5.0)
        assert app[0] == pytest.approx(5.0)

    def test_spc_saturated_parity(self):
        # inputs at the clip, where tanh(LLR / 2) rounds to +-1: the parity
        # answers the clip, with the sign of their product
        # (whose atanh is +-inf, a division by zero numpy reports unless the
        # caller ignores it, as the window decoder does)
        code = cartesian(make_small_code("spc", 4), 1)
        with np.errstate(divide="ignore"):
            ext, _ = siso_decode_basic(code, [LLR_CLIP, -LLR_CLIP, -LLR_CLIP,
                                              0.0])
        assert ext[3] == 50.0

    def test_spc_zero_absorbs(self):
        code = cartesian(make_small_code("spc", 4), 1)
        ext, _ = siso_decode_basic(code, [2.0, 0.0, 1.0, -3.0])
        assert ext[0] == 0.0 and ext[2] == 0.0 and ext[3] == 0.0
        assert ext[1] != 0.0

    @pytest.mark.parametrize("kind,n", [("rc", 2), ("rc", 4), ("spc", 3), ("spc", 5)])
    def test_matches_enumeration_map(self, kind, n):
        code = cartesian(make_small_code(kind, n), 7)
        rng = np.random.default_rng(n * 11)
        cw = rng.uniform(-8, 8, code.N)
        ext, app = siso_decode_basic(code, cw)
        ext_ref, app_ref = enumeration_siso(code, cw)
        np.testing.assert_allclose(app, app_ref, atol=1e-9)
        np.testing.assert_allclose(ext, ext_ref, atol=1e-9)

    def test_certain_codeword_recovers_info(self):
        for kind, n in [("rc", 2), ("spc", 4)]:
            code = cartesian(make_small_code(kind, n), 5)
            rng = np.random.default_rng(n)
            info = rng.integers(0, 2, code.K, dtype=np.uint8)
            cw = encode_basic(code, info)
            llr = 50.0 * (1.0 - 2.0 * cw.astype(float))
            with np.errstate(divide="ignore"):  # atanh(+-1) in the SPC check
                _, app = siso_decode_basic(code, llr)
            np.testing.assert_array_equal((app < 0).astype(np.uint8), info)

    def test_cartesian_independence(self):
        code = cartesian(make_small_code("spc", 4), 6)
        one = cartesian(make_small_code("spc", 4), 1)
        rng = np.random.default_rng(17)
        cw = rng.uniform(-9, 9, code.N)
        ext, app = siso_decode_basic(code, cw)
        for b in range(6):
            e, a = siso_decode_basic(one, cw[4 * b:4 * b + 4])
            np.testing.assert_allclose(ext[4 * b:4 * b + 4], e, atol=1e-12)
            np.testing.assert_allclose(app[3 * b:3 * b + 3], a, atol=1e-12)

    def test_length_mismatch(self):
        code = cartesian(make_small_code("rc", 2), 2)
        with pytest.raises(ValueError):
            siso_decode_basic(code, np.zeros(5))

    @pytest.mark.parametrize("n", [2, 3, 7, 8, 11])
    def test_rc_bits_equal_numpy_sum(self, n):
        # The repetition SISO adds its columns one by one; the decoder's
        # outputs stay bit-identical only while that equals numpy's sum.
        code = cartesian(make_small_code("rc", n), 6)
        rng = np.random.default_rng(n)
        cw = np.clip(rng.standard_normal((4, code.N)) * 20.0, -50.0, 50.0)
        cw[rng.random(cw.shape) < 0.2] = -0.0
        ext, app = siso_decode_basic(code, cw)
        cwb = cw.reshape(4, 6, n)
        total = np.zeros((4, 6)) + cwb.sum(axis=-1)
        want_ext = np.clip(total[..., None] - cwb, -50.0, 50.0)
        want_app = np.clip(total, -50.0, 50.0)
        assert ext.tobytes() == want_ext.reshape(4, -1).tobytes()
        assert app.tobytes() == want_app.tobytes()


class TestExitTransfer:
    def test_rc2_is_identity(self):
        code = make_small_code("rc", 2)
        for x in (0.0, 0.21, 0.68, 1.0):
            assert exit_transfer_c(code, x) == pytest.approx(x, abs=1e-9)

    def test_spc_endpoints(self):
        code = make_small_code("spc", 4)
        assert exit_transfer_c(code, 1.0) == 1.0
        assert exit_transfer_c(code, 0.0) == 0.0

    @pytest.mark.parametrize("kind,n", [("rc", 3), ("rc", 5), ("spc", 4), ("spc", 6)])
    def test_monotone(self, kind, n):
        code = make_small_code(kind, n)
        grid = np.linspace(0.0, 1.0, 201)
        vals = [exit_transfer_c(code, float(x)) for x in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[0] == 0.0 and vals[-1] == 1.0

    def test_domain_error(self):
        with pytest.raises(ValueError):
            exit_transfer_c(make_small_code("rc", 2), 1.2)


class TestBerBasic:
    def rc_ml_oracle(self, n, ebn0_db, trials, seed):
        """Simulate ML (sum) decoding of an [n,1] repetition code."""
        rng = np.random.default_rng(seed)
        es_n0 = (1.0 / n) * 10.0 ** (ebn0_db / 10.0)
        sigma = 1.0 / math.sqrt(2.0 * es_n0)
        y = 1.0 + sigma * rng.standard_normal((trials, n))
        errs = int((y.sum(axis=1) < 0).sum())
        p = errs / trials
        return p, math.sqrt(max(p * (1 - p), 1e-12) / trials)

    @pytest.mark.parametrize("ebn0", [0.0, 3.0, 6.0])
    def test_rc_closed_form_vs_mc(self, ebn0):
        est = ber_basic(make_small_code("rc", 2), ebn0)
        expect = qfunc(math.sqrt(2.0 * 10.0 ** (ebn0 / 10.0)))
        assert est.ber == pytest.approx(expect, rel=1e-12)
        mc, se = self.rc_ml_oracle(2, ebn0, 400_000, seed=int(ebn0 * 10) + 1)
        assert abs(est.ber - mc) < 3.0 * se

    def test_pure_noise_limit(self):
        assert ber_basic(make_small_code("rc", 2), -60.0).ber > 0.49

    def test_spc_monte_carlo_vs_enumeration(self):
        # oracle: brute-force MAP marginals over all codewords, by Monte Carlo
        rng = np.random.default_rng(99)
        blocks = 200_000
        for n in (3, 4):
            small = make_small_code("spc", n)
            code = cartesian(small, 1)
            k = n - 1
            infos = np.array(list(itertools.product([0, 1], repeat=k)),
                             dtype=np.uint8)
            words = (infos.astype(np.int32) @ small.generator.astype(np.int32)) & 1
            for ebn0 in (2.0, 4.0, 6.0):
                sigma = 1.0 / math.sqrt(2.0 * small.rate * 10.0 ** (ebn0 / 10))
                info = rng.integers(0, 2, (blocks, k), dtype=np.uint8)
                cw = encode_basic(code, info)
                y = (1.0 - 2.0 * cw) + sigma * rng.standard_normal(cw.shape)
                logw = -(2.0 * y / sigma ** 2) @ words.T
                app = np.empty((blocks, k))
                for j in range(k):
                    w0 = np.logaddexp.reduce(logw[:, infos[:, j] == 0], axis=1)
                    w1 = np.logaddexp.reduce(logw[:, infos[:, j] == 1], axis=1)
                    app[:, j] = w0 - w1
                errs = int(((app < 0).astype(np.uint8) != info).sum())
                p_oracle = errs / (blocks * k)
                se = math.sqrt(p_oracle * (1 - p_oracle) / (blocks * k))
                assert abs(ber_basic(small, ebn0).ber - p_oracle) < 3.0 * se

    def test_spc2_is_the_repetition_closed_form(self):
        spc2, rc2 = make_small_code("spc", 2), make_small_code("rc", 2)
        for ebn0 in (-5.0, 0.0, 3.0, 6.0, 9.0, 12.0):
            assert ber_basic(spc2, ebn0).ber == pytest.approx(
                ber_basic(rc2, ebn0).ber, rel=1e-12)

    def test_spc_converged_in_gauss_points(self, monkeypatch):
        for n in (3, 4, 8):
            small = make_small_code("spc", n)
            for ebn0 in np.arange(-1.0, 13.0, 1.0):
                monkeypatch.setattr(basic_codes, "GAUSS_POINTS", 64)
                base = ber_basic(small, ebn0).ber
                if not 1e-9 <= base <= 1e-1:
                    continue
                monkeypatch.setattr(basic_codes, "GAUSS_POINTS", 128)
                assert ber_basic(small, ebn0).ber == pytest.approx(base, rel=1e-6)

    def test_spc_finite_and_non_increasing(self):
        # up to 55 dB, where tanh(l/2) of every channel LLR rounds to 1.0
        small = make_small_code("spc", 4)
        vals = [ber_basic(small, ebn0).ber
                for ebn0 in np.arange(-10.0, 55.0 + 1e-9, 0.25)]
        assert all(math.isfinite(v) for v in vals)
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", [3, 4, 8, 12, 16])
    def test_spc_at_most_half_and_non_increasing_far_below_0_db(self, n):
        # There the combined LLRs are tiny: the log form of a pairwise
        # combine cancels to rounding noise, and a Gauss rule's sums of
        # squares underflow, unless both are kept accurate.  A RuntimeWarning
        # fails the test too.
        small = make_small_code("spc", n)
        vals = [ber_basic(small, float(ebn0)).ber for ebn0 in range(-120, 21)]
        assert all(v <= 0.5 for v in vals)
        assert all(b <= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("n", [3, 4, 8, 16])
    def test_spc_at_most_half_at_minus_400_db(self, n):
        # There the sum rounds to 0.5 plus a few ulps of the weights' sum.
        small = make_small_code("spc", n)
        for ebn0 in (-400.0, -395.0, -350.0, -310.0):
            assert ber_basic(small, ebn0).ber <= 0.5
