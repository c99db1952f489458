"""MI-domain convergence analysis of window decoding.

Instead of asking the a-posteriori MI to reach 1 (which superposition
coupling cannot deliver — the decided layers keep a residual uncertainty
floor), each target layer converts its a-priori/extrinsic MI pair into a
BER estimate and declares success when that estimate beats a preselected
target.  Thresholds are the smallest Eb/N0 at which every target layer in
the chain succeeds.

The recursion tracks one scalar MI per edge class under the consistent-
Gaussian assumption; interleavers are MI-transparent in the ensemble limit,
so the Cartesian order drops out and only the small-code family matters.
Each message is one number, the std its sender computes, kept beside the
weight its receiver reads: the message's variance in the receiver's domain,
``jdual(std)**2`` by the J-duality map.  The sender computes that weight,
and only when the message changes, so a node sums stored weights, needs no
J inversion, and a message that stays put costs no ``jdual``.
Decided layers keep (freeze) their final outgoing MI rather than being
forced to 1, which is what makes error propagation into later windows
visible at low SNR.  Each window runs the window decoder's schedule,
:func:`bmst.encoder.window_plan`: the parity nodes of the m tail blocks
join the sweep once the window holds the last layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basic_codes import RC, BerEstimate, SmallCode, ber_basic, exit_transfer_c
from .channel import (MAX_ABS_SNR_DB, channel_mi, check_ebn0_db,
                      ebn0_to_sigma)
from .encoder import MAX_ITERS, coupled_rate, window_plan
from .jfun import bisect, jdual, jfun, jinv, qfunc, qfunc_inv

_INF = math.inf

#: A window sweep that moves no MI message by more than this is a fixed point.
FIXED_POINT_TOL = 1e-14
#: Bisection step of the Eb/N0 at which the SPC genie bound meets a target.
GENIE_RESOLUTION_DB = 0.01
#: The smallest nonzero BER estimate, ``ber_estimate(1 - 2**-53)``: J^-1 of
#: the largest MI below 1 is 16.885, and an MI that rounds to 1 estimates 0.
#: Every target at or below it gets the same threshold, so none is taken.
MIN_TARGET_BER = 1.5531071206800548e-17


def check_target_ber(target_ber: float) -> None:
    """Raise ValueError unless the MI-to-BER map can resolve the target."""
    if not MIN_TARGET_BER < target_ber < 0.5:
        raise ValueError(f"target BER must lie in ({MIN_TARGET_BER}, 0.5), "
                         f"got {target_ber}")


def mi_ap(i_a: float, i_e: float) -> float:
    """A-posteriori MI from an a-priori/extrinsic pair: the underlying
    Gaussian variances add."""
    _check_mi(i_a, "i_a")
    _check_mi(i_e, "i_e")
    return jfun(math.hypot(jinv(i_a), jinv(i_e)))


def ber_estimate(i_ap: float) -> float:
    """BER estimate of a bit whose a-posteriori MI is ``i_ap``.

    A consistent Gaussian LLR with std sigma mis-signs with probability
    Q(sigma/2); perfect knowledge gives 0, no knowledge gives Q(0) = 0.5.
    """
    _check_mi(i_ap, "i_ap")
    return qfunc(0.5 * jinv(i_ap))


def _check_mi(x: float, name: str) -> None:
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"{name} must lie in [0, 1], got {x}")


@dataclass
class ExitRunResult:
    success: bool
    fail_layer: int | None
    p_est: np.ndarray
    windows_computed: int


def exit_window_run(small: SmallCode, memory: int, delay: int,
                    coupling_len: int, ebn0_db: float, target_ber: float,
                    max_iters: int = MAX_ITERS, *,
                    steady_state_shortcut: bool = True) -> ExitRunResult:
    """Slide the MI-domain window over all L target layers.

    All full-edge MI start at 0, channel half-edges at the channel MI of
    the coupled rate, source half-edges at 0.  Each window position runs up
    to ``max_iters`` sweeps of the layer schedule, the window decoder's
    budget (a sweep that no longer moves any MI message by more than
    ``FIXED_POINT_TOL`` is a fixed point and ends the window early), then
    applies the convergence check at the target layer.  On success the
    target layer's outgoing MI freeze at their final values and the window
    shifts; on failure the run stops.

    The state is one number per message, the std ``sqrt(a)`` its sender
    computes from ``a``, the sum of its other input variances.  A parity
    node's message has MI 1 - J(sqrt(a)), an equality node's J(sqrt(a));
    either receiver reads it as the variance (or weight)
    ``jdual(sqrt(a))**2``, which the state keeps beside the std
    (``w_plus``, ``w_eq``).  The sender computes it when it writes a std
    that differs from the one before, and receivers read it as stored.  A
    window reads the weights of its decided layers' edges once, when it
    starts; they come last in a parity node's edge order, so every sum adds
    the same terms in the same order as a loop over the edges would.

    The code node's extrinsic variance is (n-1) * total for RC and
    ``jdual(sqrt(n-1) * jdual(sqrt(total)))**2`` for SPC: the variance
    forms of :func:`~bmst.basic_codes.exit_transfer_c`, which the
    convergence check still evaluates in the MI domain.  The fixed-point
    test and the steady-state shortcut compare MI, which an unchanged std
    leaves alone; the shortcut copies the weights with the stds.

    Mid-chain windows repeat verbatim once their frozen inputs stop
    changing; ``steady_state_shortcut`` detects that and skips ahead, which
    is an exact shortcut up to ``FIXED_POINT_TOL``.
    """
    if memory < 0 or coupling_len < 1 or delay < 0 or max_iters < 1:
        raise ValueError("need memory >= 0, coupling_len >= 1, delay >= 0, "
                         "max_iters >= 1")
    check_target_ber(target_ber)
    check_ebn0_db(ebn0_db)
    m, d, L = memory, delay, coupling_len
    rate = float(coupled_rate(small.k, small.n, m, L))
    i_ch = channel_mi(ebn0_db, rate)
    w_ch = jinv(1.0 - i_ch) ** 2

    q = m + 1
    # sigma of each message, by its receiver's side: MI 0 is sigma 0 toward
    # a parity node and sigma inf toward an equality node.  Beside it, the
    # weight its receiver reads, jdual(sigma)**2: inf and 0.0 at the start.
    # Layer x's rows are made when a window first holds x.
    to_plus, w_plus, to_eq, w_eq = [], [], [], []
    p_trace = np.full(L, np.nan)

    # Module attributes are looked up once per run, so a wrapped jfun, jdual
    # or exit_transfer_c still sees every call.
    j_fun, j_dual, transfer = jfun, jdual, exit_transfer_c
    sqrt = math.sqrt
    rc = small.kind == RC
    n_other = small.n - 1
    scale = sqrt(n_other)
    inf = _INF
    tol = FIXED_POINT_TOL

    def run_window(t: int) -> float:
        plan = window_plan(L, m, d, t)
        for _ in range(len(to_plus), plan.layer_end + 1):
            to_plus.append([0.0] * q)
            w_plus.append([inf] * q)
            to_eq.append([inf] * q)
            w_eq.append([0.0] * q)
        nodes = []
        for s, edges in plan.sweep:
            # A decided layer's weights are frozen: read them once.
            frozen = [w_plus[x][j] for j, x in edges if x < t]
            layer = ((w_eq[s], to_plus[s], w_plus[s])
                     if s <= plan.layer_end else None)
            nodes.append(([(w_plus[x], j, to_eq[x], w_eq[x])
                           for j, x in edges if x >= t],
                          frozen.count(inf), [w for w in frozen if w != inf],
                          layer))
        for _ in range(max_iters):
            # A sweep is a fixed point when no message of the window's layers
            # moves by more than tol in MI; each is written once per sweep.
            moved = False
            for live, n_frozen_inf, frozen, layer in nodes:
                # Parity node s.  ``live`` holds its edges to the window's
                # layers as (wrow, j, erow, werow): it reads the weight
                # wrow[j] and answers into erow[j] and werow[j].  The
                # decided layers' edges come last in edge order; they add
                # n_frozen_inf infinite weights and the finite ones in frozen.
                n_inf = n_frozen_inf
                fin = 0.0
                for wrow, j, _, _ in live:
                    w = wrow[j]
                    if w == inf:
                        n_inf += 1
                    else:
                        fin += w
                for w in frozen:
                    fin += w
                for wrow, j, erow, werow in live:
                    w = wrow[j]  # this node writes no weight it reads
                    if w == inf:
                        others_inf = n_inf - 1
                        others_fin = fin
                    else:
                        # fin - w >= 0: a float sum of non-negative
                        # terms is never below one of them
                        others_inf = n_inf
                        others_fin = fin - w
                    if others_inf:
                        sa = inf
                    else:
                        sa = sqrt(w_ch + others_fin)
                    old = erow[j]
                    if sa != old:
                        if not moved:
                            diff = (1.0 - j_fun(sa)) - (1.0 - j_fun(old))
                            moved = diff > tol or -diff > tol
                        erow[j] = sa
                        werow[j] = j_dual(sa) ** 2
                if layer is None:
                    continue
                # The equality and code nodes of layer s: they read the
                # weights v and answer into row and wrow.
                v, row, wrow = layer
                total = 0.0
                for vi in v:  # in edge order; sum() compensates from 3.12 on
                    total += vi
                if rc:
                    v_c = n_other * total
                else:
                    v_c = j_dual(scale * j_dual(sqrt(total))) ** 2
                for i in range(q):
                    # An infinite input makes v_c infinite: no inf - inf.
                    # As in the parity node, total >= vi.
                    vi = v[i]
                    sa = inf if vi == inf else sqrt(total - vi + v_c)
                    old = row[i]
                    if sa != old:
                        if not moved:
                            diff = j_fun(sa) - j_fun(old)
                            moved = diff > tol or -diff > tol
                        row[i] = sa
                        wrow[i] = j_dual(sa) ** 2
            if not moved:
                break
        total = 0.0
        for w in w_eq[t]:
            total += w
        i_a = j_fun(sqrt(total))
        return ber_estimate(mi_ap(i_a, transfer(small, i_a)))

    def snapshot_band(t: int, t_end: int):
        """The MI of the messages a window reads and writes."""
        band = []
        for x in range(t - m, t_end + 1):
            band.extend(j_fun(s) for s in to_plus[x])
        for x in range(t, t_end + 1):
            band.extend(1.0 - j_fun(s) for s in to_eq[x])
        return band

    last_mid = L - 1 - d - m  # last window whose references stay mid-chain
    prev_band = None
    windows = 0
    t = 0
    while t < L:
        p = p_trace[t] = run_window(t)
        windows += 1
        if not p < target_ber:
            return ExitRunResult(False, t, p_trace, windows)
        if steady_state_shortcut and m + 1 <= t <= last_mid:
            # Mid-chain: the window ends at t + d; all bands are one length.
            band = snapshot_band(t, t + d)
            if (prev_band is not None and t + 1 <= last_mid
                    and abs(p - p_trace[t - 1]) <= tol
                    and all(abs(a - b) <= tol
                            for a, b in zip(band, prev_band))):
                # Every window up to last_mid will repeat this one verbatim:
                # each layer it decides gets a copy of layer t's parity
                # rows, and window last_mid a copy of window t's rows.  No
                # later window reads the equality rows of the layers between.
                p_trace[t + 1:last_mid + 1] = p
                for plus, eq in ((to_plus, to_eq), (w_plus, w_eq)):
                    saved_plus = [list(row) for row in plus[t:t + d + 1]]
                    saved_eq = [list(row) for row in eq[t:t + d + 1]]
                    plus[t + 1:] = [list(plus[t])
                                    for _ in range(t + 1, last_mid)]
                    plus += saved_plus
                    eq.extend([None] * (last_mid - len(eq)))
                    eq[last_mid:] = saved_eq
                t = last_mid + 1
                continue
            prev_band = band
        t += 1
    return ExitRunResult(True, None, p_trace, windows)


class BracketError(RuntimeError):
    """The search interval does not bracket the threshold."""


@dataclass
class ThresholdQuery:
    """One threshold question: family, coupling parameters, target, bracket."""

    small: SmallCode
    memory: int
    delay: int
    coupling_len: int
    target_ber: float
    lo_db: float
    hi_db: float
    resolution_db: float = 0.01
    max_iters: int = MAX_ITERS

    def __post_init__(self) -> None:
        check_ebn0_db(self.lo_db, "lo_db")
        check_ebn0_db(self.hi_db, "hi_db")
        if self.lo_db >= self.hi_db:
            raise ValueError("need lo_db < hi_db")
        if not 0.0 < self.resolution_db < math.inf:
            raise ValueError("resolution must be positive and finite")
        check_target_ber(self.target_ber)
        if self.max_iters < 1:
            raise ValueError("need max_iters >= 1")


@dataclass
class ThresholdResult:
    ebn0_star_db: float
    sigma_star: float
    rate: float
    evaluations: list[tuple[float, bool]]


def threshold_search(query: ThresholdQuery) -> ThresholdResult:
    """Bisect Eb/N0 to the query resolution; the returned value is the
    smallest tested point that succeeds.

    Raises :class:`BracketError` unless the run fails at ``lo_db`` and
    succeeds at ``hi_db``.  Every failure then lies below every success:
    each failure becomes the interval's lower end and each success its
    upper end, and each point evaluated lies strictly between the two.  The
    search ends once the interval is no wider than the resolution or its
    middle rounds onto one of its ends (the ends are adjacent floats).
    """
    evals: list[tuple[float, bool]] = []

    def succeeds(db: float) -> bool:
        ok = exit_window_run(query.small, query.memory, query.delay,
                             query.coupling_len, db, query.target_ber,
                             query.max_iters).success
        evals.append((db, ok))
        return ok

    lo, hi = query.lo_db, query.hi_db
    if succeeds(lo):
        raise BracketError(f"analysis already succeeds at lo = {lo} dB; "
                           "widen downward")
    if not succeeds(hi):
        raise BracketError(f"analysis still fails at hi = {hi} dB; "
                           "widen upward")
    lo, hi = bisect(lambda db: not succeeds(db), lo, hi, query.resolution_db)
    rate = float(coupled_rate(query.small.k, query.small.n,
                              query.memory, query.coupling_len))
    return ThresholdResult(hi, ebn0_to_sigma(hi, rate), rate, evals)


def genie_lower_bound(small: SmallCode, memory: int, coupling_len: int,
                      ebn0_db: float) -> BerEstimate:
    """BER lower bound of the coupled code from a genie-aided argument.

    A decoder told every other layer's bits sees the basic code repeated
    m+1 times (a 10*log10(m+1) dB energy gain) minus the termination rate
    loss 10*log10(1 + m/L); the bound evaluates the basic-code BER
    (:func:`~bmst.basic_codes.ber_basic`) there.
    """
    if memory < 0 or coupling_len < 1:
        raise ValueError("need memory >= 0 and coupling_len >= 1")
    check_ebn0_db(ebn0_db)
    shifted = (ebn0_db + 10.0 * math.log10(memory + 1)
               - 10.0 * math.log10(1.0 + memory / coupling_len))
    return ber_basic(small, shifted)


def genie_bound_ebn0_at_target(small: SmallCode, memory: int,
                               coupling_len: int, target_ber: float) -> float:
    """Eb/N0 (dB) at which the genie-aided bound equals the target BER;
    SPC codes bisect the bound to ``GENIE_RESOLUTION_DB`` between 40 dB and
    a lower end at which the bound is above the target: -10 dB, or 10 dB
    steps below it, to -``MAX_ABS_SNR_DB`` at most."""
    if not 0.0 < target_ber < 0.5:
        raise ValueError("target BER must lie in (0, 0.5)")
    correction = (10.0 * math.log10(memory + 1)
                  - 10.0 * math.log10(1.0 + memory / coupling_len))
    if small.kind == RC:
        # Closed form: Q(sqrt(2 x)) = target  =>  x = qinv^2 / 2.
        x = 0.5 * qfunc_inv(target_ber) ** 2
        return 10.0 * math.log10(x) - correction
    lo, hi = -10.0, 40.0
    while (lo > -MAX_ABS_SNR_DB and genie_lower_bound(
            small, memory, coupling_len, lo).ber <= target_ber):
        lo -= 10.0
    lo, hi = bisect(lambda db: genie_lower_bound(
        small, memory, coupling_len, db).ber > target_ber, lo, hi,
        GENIE_RESOLUTION_DB)
    return 0.5 * (lo + hi)
