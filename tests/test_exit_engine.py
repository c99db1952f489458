import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import bmst.exit_engine as exit_engine
import bmst.window_decoder as wd
from bmst.basic_codes import (ber_basic, cartesian, exit_transfer_c,
                              make_small_code)
from bmst.channel import MAX_ABS_SNR_DB, channel_mi, ebn0_to_sigma
from bmst.encoder import build_bmst
from bmst.exit_engine import (BracketError, ThresholdQuery, ber_estimate,
                              exit_window_run, genie_bound_ebn0_at_target,
                              genie_lower_bound, mi_ap, threshold_search)
from bmst.jfun import jfun, jinv, qfunc, qfunc_inv
from time_limit import time_limit

RC2 = make_small_code("rc", 2)
SPC4 = make_small_code("spc", 4)


class TestMiAp:
    def test_zero_prior_is_identity(self):
        for x in (0.0, 0.31, 0.77, 0.999):
            assert mi_ap(0.0, x) == pytest.approx(x, abs=1e-8)

    def test_perfect_prior_is_one(self):
        for x in (0.0, 0.5, 1.0):
            assert mi_ap(1.0, x) == 1.0

    def test_symmetric(self):
        assert mi_ap(0.3, 0.8) == pytest.approx(mi_ap(0.8, 0.3), abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            mi_ap(-0.1, 0.5)
        with pytest.raises(ValueError):
            mi_ap(0.5, 1.1)


class TestBerEstimate:
    def test_endpoints(self):
        assert ber_estimate(1.0) == 0.0
        assert ber_estimate(0.0) == 0.5

    def test_strictly_decreasing(self):
        grid = np.linspace(0.0, 1.0, 400)
        vals = [ber_estimate(float(x)) for x in grid]
        assert all(b < a for a, b in zip(vals, vals[1:]))


class TestConvergenceCheck:
    """A window passes when the BER estimate of its target layer's
    a-posteriori MI is strictly below the target, which lies in
    (MIN_TARGET_BER, 0.5)."""

    def test_perfect_prior_passes(self):
        assert ber_estimate(mi_ap(1.0, 0.0)) == 0.0

    def test_no_information_fails(self):
        assert ber_estimate(mi_ap(0.0, 0.0)) == 0.5

    def test_boundary_is_strict(self):
        p = exit_window_run(RC2, 1, 0, 1, 2.0, 0.25).p_est[0]
        assert 1e-6 < p < 0.25
        at = exit_window_run(RC2, 1, 0, 1, 2.0, p)
        assert not at.success and at.fail_layer == 0 and at.p_est[0] == p
        assert exit_window_run(RC2, 1, 0, 1, 2.0, np.nextafter(p, 1)).success


class TestExitWindowRun:
    def test_far_above_threshold_succeeds(self):
        res = exit_window_run(RC2, 1, 3, 50, 14.0, 1e-7)
        assert res.success and res.fail_layer is None
        assert np.all(res.p_est < 1e-7)

    def test_far_below_capacity_fails_immediately(self):
        res = exit_window_run(RC2, 1, 3, 50, -5.0, 1e-7)
        assert not res.success and res.fail_layer == 0

    def test_shortcut_matches_honest_run(self):
        for g in (5.0, 8.4, 9.5):
            fast = exit_window_run(RC2, 2, 6, 60, g, 1e-6,
                                   steady_state_shortcut=True)
            slow = exit_window_run(RC2, 2, 6, 60, g, 1e-6,
                                   steady_state_shortcut=False)
            assert fast.success == slow.success
            assert fast.fail_layer == slow.fail_layer
            if fast.success:
                np.testing.assert_allclose(fast.p_est, slow.p_est, atol=1e-12)
                assert fast.windows_computed < slow.windows_computed

    def test_steady_state_is_position_invariant(self):
        res = exit_window_run(RC2, 1, 3, 1000, 9.0, 1e-7,
                              steady_state_shortcut=False)
        assert res.success
        assert abs(res.p_est[100] - res.p_est[500]) < 1e-9

    def test_spc_family_runs(self):
        res = exit_window_run(SPC4, 1, 3, 50, 14.0, 1e-7)
        assert res.success

    @pytest.mark.parametrize("small", [RC2, SPC4], ids=["rc2", "spc4"])
    def test_certain_messages_at_high_snr(self, small):
        # above about 18 dB the equality node sees infinite variances
        for g in (19.0, 30.0):
            res = exit_window_run(small, 1, 3, 10, g, 1e-7)
            assert res.success and np.all(res.p_est == 0.0)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_single_layer_matches_genie_bound(self, n, m):
        # At L=1 every parity node's other edges carry known codewords, so
        # each passes the channel MI; the equality node adds m+1 of them and
        # the code node n-1 more.  That is the genie's n(m+1)-fold repetition
        # at the rate 1/(n(m+1)), whose BER is the basic code's at the same
        # Eb/N0: Q(sqrt(2 Eb/N0)).
        small = make_small_code("rc", n)
        for g in (-1.0, 0.5, 2.0, 4.0):
            res = exit_window_run(small, m, 3 * m, 1, g, 1e-3)
            want = genie_lower_bound(small, m, 1, g).ber
            assert res.p_est[0] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_two_sweeps_unrolled(self, n):
        # m=1, d=1, L=2, stopped after max_iters=2 sweeps.  A sweep runs parity
        # node 0, layer 0's equality and code nodes, parity node 1, layer
        # 1's equality and code nodes, then the tail parity node 2.  In
        # sweep 2 parity node 1 answers layer 0 with what layer 1's
        # equality node sent it in sweep 1, so both equality nodes' outputs
        # and both code nodes reach p_est[0].
        small = make_small_code("rc", n)

        def var(mi):  # variance of a message toward an equality node
            return jinv(mi) ** 2

        def weight(mi):  # weight of a message toward a parity node
            return jinv(1.0 - mi) ** 2

        def code(total):  # code-node extrinsic variance from the eq total
            return var(exit_transfer_c(small, jfun(math.sqrt(total))))

        for g in (0.0, 2.0, 4.0):
            w_ch = weight(channel_mi(g, 2.0 / (3 * n)))
            v00 = var(1.0 - jfun(math.sqrt(w_ch)))  # parity 0: channel only
            w01 = weight(jfun(math.sqrt(v00 + code(v00))))  # layer 0 out
            # parity 1 -> layer 1; toward layer 0 it sends MI 0 in sweep 1,
            # as layer 1 has not spoken yet
            v10 = var(1.0 - jfun(math.sqrt(w_ch + w01)))
            w10 = weight(jfun(math.sqrt(code(v10))))  # layer 1 -> parity 1
            v01 = var(1.0 - jfun(math.sqrt(w_ch + w10)))  # sweep 2
            i_a = jfun(math.sqrt(v00 + v01))
            want = ber_estimate(mi_ap(i_a, exit_transfer_c(small, i_a)))
            res = exit_window_run(small, 1, 1, 2, g, 1e-3, max_iters=2)
            assert res.p_est[0] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            exit_window_run(RC2, -1, 3, 10, 5.0, 1e-3)
        with pytest.raises(ValueError):
            exit_window_run(RC2, 1, 3, 10, 5.0, 0.7)
        for target in (1e-300, 1e-17, exit_engine.MIN_TARGET_BER):
            with pytest.raises(ValueError, match="target BER"):
                exit_window_run(RC2, 1, 3, 10, 5.0, target)
        for max_iters in (0, -3):
            with pytest.raises(ValueError, match="max_iters"):
                exit_window_run(RC2, 1, 3, 10, 5.0, 1e-3, max_iters)
        # 10**(Eb/N0 / 10) overflows far past +/-MAX_ABS_SNR_DB
        for ebn0_db in (math.nan, math.inf, -math.inf, 5000.0, -5000.0,
                        MAX_ABS_SNR_DB + 1.0):
            with pytest.raises(ValueError, match="Eb/N0"):
                exit_window_run(RC2, 1, 3, 10, ebn0_db, 1e-3)


@pytest.mark.parametrize("m,d", [(1, 0), (2, 1), (2, 4), (3, 2)])
def test_analysis_runs_the_decoders_window_plans(monkeypatch, m, d):
    L = 7
    plans = {}
    for name, module in (("decoder", wd), ("analysis", exit_engine)):
        made = plans[name] = []

        def recording(*args, plan=module.window_plan, made=made):
            made.append(plan(*args))
            return made[-1]

        monkeypatch.setattr(module, "window_plan", recording)
    code = build_bmst(cartesian(RC2, 3), m, L, seed=5)
    wd.decode_sequence(code, np.ones((L + m, code.N)),
                       wd.DecoderConfig(delay=d, max_iters=3))
    res = exit_window_run(RC2, m, d, L, 10.0, 1e-3,
                          steady_state_shortcut=False)
    assert res.success
    assert [p.position for p in plans["decoder"]] == list(range(L))
    assert plans["analysis"] == plans["decoder"]


def test_wrapped_j_functions_see_every_call(monkeypatch):
    # exit_window_run looks jfun and jdual up as module attributes once per
    # run, so a wrapper (bench/tracer.py wraps jfun) sees their calls and
    # leaves the outputs alone
    for small in (RC2, SPC4):
        args = (small, 1, 3, 60, 4.0, 1e-3)
        plain = exit_window_run(*args)
        calls = {"jfun": 0, "jdual": 0}
        with monkeypatch.context() as patch:
            for name in calls:
                def counted(x, name=name, original=getattr(exit_engine, name)):
                    calls[name] += 1
                    return original(x)

                patch.setattr(exit_engine, name, counted)
            wrapped = exit_window_run(*args)
        assert calls["jfun"] > 0 and calls["jdual"] > 0
        assert wrapped.p_est.tobytes() == plain.p_est.tobytes()
        assert (wrapped.success, wrapped.fail_layer,
                wrapped.windows_computed) == (plain.success, plain.fail_layer,
                                              plain.windows_computed)


# Twenty-three runs, RC and SPC, m = 0-3, shortcut on and off; eleven take
# the steady-state shortcut and five fail (at layers 1, 3 and 6, and two at
# layer 0).  Among the first fifteen: an L=1000 run whose shortcut comes
# late; a run in which jdual takes its jinv(1 - jfun(s)) path below s = 0.5;
# RC and SPC at 19 dB, where weights are infinite.  The last eight, edges of
# making a layer's rows when a window first holds it: two windows wider than
# the chain (L = 3 and 4), two runs at L = 1, the two failures at layer 0,
# and two shortcuts at the first window that may take one (the second with
# d < m).
GOLDEN_RUNS = json.loads(
    (Path(__file__).parent / "golden" / "exit_window_runs.json").read_text())


@pytest.mark.parametrize("run", GOLDEN_RUNS, ids=lambda r: (
    f"{r['code']}-m{r['memory']}-d{r['delay']}-L{r['length']}-"
    f"{r['ebn0_db']}dB-{r['target_ber']}-"
    f"{'shortcut' if r['steady_state_shortcut'] else 'honest'}"))
def test_window_run_is_bit_exact(run):
    kind, n = run["code"].split(":")
    res = exit_window_run(make_small_code(kind, int(n)), run["memory"],
                          run["delay"], run["length"], run["ebn0_db"],
                          run["target_ber"],
                          steady_state_shortcut=run["steady_state_shortcut"])
    assert [float(x).hex() for x in res.p_est] == run["p_est"]
    assert (res.success, res.fail_layer, res.windows_computed) == (
        run["success"], run["fail_layer"], run["windows_computed"])


class TestThresholdSearch:
    def test_bracket_errors(self):
        with pytest.raises(BracketError):
            threshold_search(ThresholdQuery(RC2, 1, 3, 50, 1e-7, 10.0, 14.0))
        with pytest.raises(BracketError):
            threshold_search(ThresholdQuery(RC2, 1, 3, 50, 1e-7, -6.0, -3.0))

    def test_resolution_and_monotone_log(self):
        q = ThresholdQuery(RC2, 1, 3, 100, 1e-5, 0.0, 12.0, resolution_db=0.02)
        res = threshold_search(q)
        fails = [g for g, ok in res.evaluations if not ok]
        passes = [g for g, ok in res.evaluations if ok]
        assert max(fails) < min(passes)
        assert res.ebn0_star_db == min(passes)
        assert min(passes) - max(fails) <= 0.02 + 1e-9
        assert res.sigma_star == pytest.approx(
            ebn0_to_sigma(res.ebn0_star_db, res.rate))

    def test_longer_delay_never_hurts(self):
        for small, m in ((RC2, 1), (RC2, 2), (SPC4, 1)):
            a = threshold_search(ThresholdQuery(small, m, 3 * m, 100, 1e-6,
                                                0.0, 14.0)).ebn0_star_db
            b = threshold_search(ThresholdQuery(small, m, m, 100, 1e-6,
                                                0.0, 14.0)).ebn0_star_db
            assert a <= b + 1e-9

    def test_threshold_meets_bound_at_low_target(self):
        # at the returned threshold the genie bound clears the target, and
        # two resolutions below it no longer does
        q = ThresholdQuery(RC2, 1, 3, 1000, 1e-7, 0.0, 14.0)
        star = threshold_search(q).ebn0_star_db
        assert genie_lower_bound(RC2, 1, 1000, star).ber <= 1e-7
        back = star - 2 * q.resolution_db
        assert genie_lower_bound(RC2, 1, 1000, back).ber > 1e-7

    def test_resolution_finer_than_float_grid_ends(self):
        # the search ends once the interval's middle rounds onto one of its
        # ends, which are then adjacent floats
        q = ThresholdQuery(RC2, 1, 1, 4, 1e-2, 0.0, 12.0, resolution_db=1e-300)
        with time_limit(60):
            res = threshold_search(q)
        points = [g for g, _ in res.evaluations]
        assert len(set(points)) == len(points) < 100
        worst_fail = max(g for g, ok in res.evaluations if not ok)
        assert math.nextafter(worst_fail, math.inf) == res.ebn0_star_db

    def test_query_validation(self):
        with pytest.raises(ValueError):
            ThresholdQuery(RC2, 1, 3, 10, 1e-7, 5.0, 5.0)
        with pytest.raises(ValueError):
            ThresholdQuery(RC2, 1, 3, 10, 0.9, 0.0, 5.0)
        with pytest.raises(ValueError):
            ThresholdQuery(RC2, 1, 3, 10, 1e-7, 0.0, 5.0, resolution_db=0.0)
        # a NaN or infinite bound or resolution never ends a bisection
        # meaningfully, and a window needs at least one sweep
        good = ThresholdQuery(RC2, 1, 3, 10, 1e-7, 0.0, 5.0)
        for bad in (dict(lo_db=math.nan), dict(hi_db=math.inf),
                    dict(lo_db=-math.inf), dict(resolution_db=math.nan),
                    dict(resolution_db=math.inf), dict(max_iters=0),
                    dict(max_iters=-3), dict(hi_db=5000.0),
                    dict(lo_db=-5000.0), dict(hi_db=MAX_ABS_SNR_DB + 1.0),
                    dict(target_ber=exit_engine.MIN_TARGET_BER),
                    dict(target_ber=1e-20)):
            with pytest.raises(ValueError):
                replace(good, **bad)
        replace(good, target_ber=2e-17)


def test_min_target_ber_is_the_smallest_nonzero_ber_estimate():
    # Below it the estimate is 0 exactly, so every smaller target would get
    # the threshold of the first MI that rounds to 1.
    below_one = math.nextafter(1.0, 0.0)
    assert exit_engine.MIN_TARGET_BER == ber_estimate(below_one) > 0.0
    assert ber_estimate(1.0) == 0.0
    assert ber_estimate(math.nextafter(below_one, 0.0)) > ber_estimate(
        below_one)


# Ten cheap searches (RC and SPC, m = 1-3, several targets and resolutions)
# and the two bracket failures of test_bracket_errors, recorded from the
# serial search: each Eb/N0 as float.hex with its outcome, or the
# BracketError message.
GOLDEN_SEARCHES = json.loads(
    (Path(__file__).parent / "golden" / "threshold_evaluations.json")
    .read_text())


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_cpu_count_cannot_change_a_search(monkeypatch, cpus):
    # the bisection runs serially in this process: whatever the number of
    # CPUs, each search replays its recorded points and forks nothing
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    pids, run = set(), exit_engine.exit_window_run

    def logged(*args):
        pids.add(os.getpid())
        return run(*args)

    monkeypatch.setattr(exit_engine, "exit_window_run", logged)
    for entry in GOLDEN_SEARCHES:
        kind, n = entry["code"].split(":")
        query = ThresholdQuery(make_small_code(kind, int(n)), entry["memory"],
                               entry["delay"], entry["length"],
                               entry["target_ber"], entry["lo_db"],
                               entry["hi_db"],
                               resolution_db=entry["resolution_db"])
        try:
            res = threshold_search(query)
        except BracketError as exc:
            assert str(exc) == entry["bracket_error"]
        else:
            assert [[g.hex(), ok] for g, ok in res.evaluations] == \
                entry["evaluations"]
    assert pids == {os.getpid()}


class TestGenieBound:
    def test_memory_zero_equals_basic(self):
        for g in (0.0, 3.0, 7.5):
            assert genie_lower_bound(RC2, 0, 50, g).ber == ber_basic(RC2, g).ber

    def test_large_length_shift_is_3db(self):
        g = 4.0
        b = genie_lower_bound(RC2, 1, 10_000_000, g).ber
        want = ber_basic(RC2, g + 10.0 * math.log10(2.0)).ber
        assert b == pytest.approx(want, rel=1e-4)

    def test_shift_arithmetic_example(self):
        # m=3, L=1000: net shift 6.0206 - 10*log10(1.003) = 6.0076 dB
        g = 2.0
        shift = 10 * math.log10(4.0) - 10 * math.log10(1.003)
        assert shift == pytest.approx(6.0076, abs=2e-4)
        got = genie_lower_bound(RC2, 3, 1000, g).ber
        assert got == pytest.approx(ber_basic(RC2, g + shift).ber, rel=1e-12)

    def test_bound_at_target_inverts(self):
        for m, L, target in [(1, 1000, 1e-7), (2, 100, 1e-4), (0, 10, 1e-2)]:
            g = genie_bound_ebn0_at_target(RC2, m, L, target)
            assert genie_lower_bound(RC2, m, L, g).ber == pytest.approx(
                target, rel=1e-9)

    def test_spc_bound_via_bisection(self):
        g = genie_bound_ebn0_at_target(SPC4, 1, 1000, 1e-3)
        val = genie_lower_bound(SPC4, 1, 1000, g).ber
        assert val == pytest.approx(1e-3, rel=0.01)

    def test_spc4_bound_at_targets(self):
        # independent values of the SPC[4,3] m=1, L=1000 genie bound
        for target, want in [(1e-2, 0.705), (1e-5, 5.289), (1e-6, 6.149),
                             (1e-7, 6.870)]:
            got = genie_bound_ebn0_at_target(SPC4, 1, 1000, target)
            assert abs(got - want) <= exit_engine.GENIE_RESOLUTION_DB

    def test_spc_bound_at_a_target_above_the_bound_at_minus_10_db(self):
        # the bound is 0.2897 at -10 dB, so the bisection must start lower
        g = genie_bound_ebn0_at_target(SPC4, 1, 50, 0.3)
        assert genie_lower_bound(SPC4, 1, 50, g - 0.01).ber > 0.3
        assert genie_lower_bound(SPC4, 1, 50, g + 0.01).ber <= 0.3

    def test_validation(self):
        for ebn0_db in (math.nan, math.inf, 5000.0, -5000.0,
                        -MAX_ABS_SNR_DB - 1.0):
            with pytest.raises(ValueError, match="Eb/N0"):
                genie_lower_bound(RC2, 1, 10, ebn0_db)

    def test_monotone_decreasing_in_snr(self):
        vals = [genie_lower_bound(RC2, 2, 500, g).ber for g in np.arange(0, 8, 0.5)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_error_propagation_ordering_emerges_at_high_target():
    # with decided layers frozen (not perfected) the high-target thresholds
    # degrade as memory grows
    ths = []
    for m in (1, 2, 3):
        q = ThresholdQuery(RC2, m, 3 * m, 1000, 1e-1, -3.0, 10.0)
        ths.append(threshold_search(q).ebn0_star_db)
    assert ths[0] <= ths[1] <= ths[2]
