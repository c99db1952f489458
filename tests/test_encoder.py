import itertools
from fractions import Fraction

import numpy as np
import pytest

from bmst.basic_codes import cartesian, make_small_code
from bmst.encoder import (MAX_GENERATOR_ENTRIES, build_bmst, coupled_rate,
                          encode_bmst, generator_matrix, rate_bmst,
                          window_plan)


def small_rc2(B=2):
    return cartesian(make_small_code("rc", 2), B)


class TestBuild:
    def test_permutations_are_bijections(self):
        code = build_bmst(cartesian(make_small_code("spc", 4), 25), 3, 10, seed=7)
        for p, q in zip(code.perms, code.perms_inv):
            assert sorted(p.tolist()) == list(range(code.N))
            np.testing.assert_array_equal(p[q], np.arange(code.N))

    def test_same_seed_reproduces(self):
        a = build_bmst(small_rc2(50), 2, 5, seed=123)
        b = build_bmst(small_rc2(50), 2, 5, seed=123)
        for pa, pb in zip(a.perms, b.perms):
            np.testing.assert_array_equal(pa, pb)
        c = build_bmst(small_rc2(50), 2, 5, seed=124)
        assert any(not np.array_equal(pa, pc)
                   for pa, pc in zip(a.perms, c.perms))

    def test_degenerate_memory_zero(self):
        code = build_bmst(small_rc2(1), 0, 1, seed=1)
        assert len(code.perms) == 1
        assert code.coded_bits == code.N

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            build_bmst(small_rc2(), -1, 5, seed=0)
        with pytest.raises(ValueError):
            build_bmst(small_rc2(), 1, 0, seed=0)


class TestRate:
    def test_spec_example(self):
        code = build_bmst(small_rc2(10), 2, 1000, seed=0)
        info = rate_bmst(code)
        assert info.fraction == Fraction(1000, 2004)
        assert info.value == pytest.approx(0.499002, abs=5e-7)

    def test_memory_zero_is_basic_rate(self):
        code = build_bmst(cartesian(make_small_code("spc", 4), 3), 0, 7, seed=0)
        assert rate_bmst(code).fraction == Fraction(3, 4)

    def test_monotone_in_length(self):
        vals = [coupled_rate(1, 2, 2, L) for L in (1, 5, 50, 500, 5000)]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert float(vals[-1]) < 0.5

    def test_random_tuples_exact(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            kind = "rc" if rng.integers(2) else "spc"
            n = int(rng.integers(2, 9))
            B = int(rng.integers(1, 50))
            m = int(rng.integers(0, 9))
            L = int(rng.integers(1, 2000))
            basic = cartesian(make_small_code(kind, n), B)
            code = build_bmst(basic, m, L, seed=int(rng.integers(1 << 30)))
            assert rate_bmst(code).fraction == Fraction(L * basic.K,
                                                        (L + m) * basic.N)


class TestEncode:
    def test_zero_maps_to_zero(self):
        code = build_bmst(small_rc2(4), 2, 6, seed=5)
        out = encode_bmst(code, np.zeros(code.info_bits, dtype=np.uint8))
        assert out.sum() == 0

    def test_memory_zero_is_permuted_codeword(self):
        code = build_bmst(small_rc2(4), 0, 3, seed=5)
        rng = np.random.default_rng(0)
        info = rng.integers(0, 2, code.info_bits, dtype=np.uint8)
        out = encode_bmst(code, info)
        from bmst.basic_codes import encode_basic
        v = encode_basic(code.basic, info.reshape(3, code.K))
        np.testing.assert_array_equal(out, v[:, code.perms[0]])

    def test_streaming_equals_matrix_exhaustive(self):
        # every input for every small config with at most 12 info bits
        for m in (0, 1, 2):
            for L in (1, 2, 3):
                code = build_bmst(small_rc2(2), m, L, seed=11 * m + L)
                gm = generator_matrix(code).toarray().astype(np.int64)
                k_total = code.info_bits
                for bits in itertools.product((0, 1), repeat=k_total):
                    info = np.array(bits, dtype=np.uint8)
                    streamed = encode_bmst(code, info).ravel()
                    matrixed = (info @ gm) & 1
                    np.testing.assert_array_equal(streamed, matrixed)

    def test_streaming_equals_matrix_randomized(self):
        code = build_bmst(cartesian(make_small_code("spc", 4), 3), 2, 6, seed=9)
        gm = generator_matrix(code).toarray().astype(np.int64)
        rng = np.random.default_rng(1)
        for _ in range(50):
            info = rng.integers(0, 2, code.info_bits, dtype=np.uint8)
            np.testing.assert_array_equal(encode_bmst(code, info).ravel(),
                                          (info @ gm) & 1)

    def test_tail_blocks_depend_only_on_last_info_blocks(self):
        code = build_bmst(small_rc2(5), 2, 8, seed=2)
        rng = np.random.default_rng(3)
        info = rng.integers(0, 2, (8, code.K), dtype=np.uint8)
        out = encode_bmst(code, info.ravel())
        other = info.copy()
        other[:8 - code.memory] = rng.integers(
            0, 2, (8 - code.memory, code.K), dtype=np.uint8)
        out2 = encode_bmst(code, other.ravel())
        np.testing.assert_array_equal(out[-code.memory:], out2[-code.memory:])

    def test_length_mismatch(self):
        code = build_bmst(small_rc2(), 1, 3, seed=0)
        with pytest.raises(ValueError):
            encode_bmst(code, np.zeros(code.info_bits + 1, dtype=np.uint8))


class TestGeneratorMatrix:
    def test_single_block(self):
        code = build_bmst(small_rc2(3), 0, 1, seed=4)
        gm = generator_matrix(code).toarray()
        g = code.basic.generator()
        np.testing.assert_array_equal(gm, g[:, code.perms[0]])

    def test_row_weight_bound(self):
        code = build_bmst(cartesian(make_small_code("spc", 4), 2), 2, 5, seed=6)
        gm = generator_matrix(code).toarray()
        g_row_weight = code.basic.generator().sum(axis=1).max()
        assert gm.sum(axis=1).max() <= (code.memory + 1) * g_row_weight

    def test_dimensions_match_rate(self):
        code = build_bmst(small_rc2(4), 2, 7, seed=8)
        gm = generator_matrix(code)
        assert Fraction(gm.shape[0], gm.shape[1]) == rate_bmst(code).fraction

    def test_resource_guard(self):
        # one layer past the limit: 501 * 5 * 100 * 200 = 50,100,000 block
        # entries, rejected before any array is built
        code = build_bmst(small_rc2(100), 4, 501, seed=1)
        assert 501 * 5 * code.K * code.N > MAX_GENERATOR_ENTRIES
        with pytest.raises(ValueError, match="above the limit"):
            generator_matrix(code)


class TestWindowPlan:
    def test_matches_brute_force(self):
        # Parity node s ties to layer x through permutation s - x when
        # 0 <= s - x <= m, as in the generator matrix.  The window sweeps,
        # in order, each node from its target layer on whose layers all lie
        # at or before the window's last layer.
        for L, m, d in itertools.product(range(1, 7), range(4), range(5)):
            for t in range(L):
                plan = window_plan(L, m, d, t)
                end = min(t + d, L - 1)
                assert (plan.position, plan.layer_end) == (t, end)
                want = []
                for s in range(t, L + m):
                    layers = [x for x in range(L) if 0 <= s - x <= m]
                    if max(layers) <= end:
                        edges = sorted((s - x, x) for x in layers)
                        want.append((s, tuple(e for e in edges if e[1] >= t),
                                     tuple(e for e in edges if e[1] < t)))
                assert plan.sweep == tuple(want), (L, m, d, t)
                tails = [s for s, _, _ in plan.sweep if s >= L]
                assert tails == (list(range(L, L + m)) if end == L - 1
                                 else []), (L, m, d, t)
                # the decided edges: layers left of the window, seen by a
                # swept parity node
                swept = {s for s, _, _ in plan.sweep}
                decided = {(x, j) for _, _, edges in plan.sweep
                           for j, x in edges}
                assert decided == {
                    (x, j) for x in range(max(t - m, 0), t)
                    for j in range(t - x, m + 1) if x + j in swept}

    def test_rejects_position_outside_chain(self):
        for t in (-1, 4):
            with pytest.raises(ValueError):
                window_plan(4, 1, 2, t)


def test_production_scale_configuration():
    # the finite-length simulation scale: RC [2,1]^5000 coupled over L=1000
    basic = cartesian(make_small_code("rc", 2), 5000)
    code = build_bmst(basic, 8, 1000, seed=2025)
    assert code.N == 10000 and code.info_bits == 5_000_000
    rng = np.random.default_rng(1)
    info = rng.integers(0, 2, code.info_bits, dtype=np.uint8)
    tx = encode_bmst(code, info)
    assert tx.shape == (1008, 10000)
    assert rate_bmst(code).fraction == Fraction(1000 * 5000, 1008 * 10000)
