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
Each message is one number, the std its sender computes; the receiver
reads it as a variance in its own domain through the J-duality map
(``jdual``), so a node sums variances and needs no J inversion.
Decided layers keep (freeze) their final outgoing MI rather than being
forced to 1, which is what makes error propagation into later windows
visible at low SNR.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .basic_codes import (RC, BasicCode, BerEstimate, SmallCode, ber_basic,
                          exit_transfer_c)
from .channel import channel_mi, ebn0_to_sigma
from .encoder import coupled_rate
from .forked import Children, worker_count
from .jfun import jdual, jfun, jinv, qfunc, qfunc_inv

_INF = math.inf

#: A window sweep that moves no MI message by more than this is a fixed point.
FIXED_POINT_TOL = 1e-14
#: Bisection step of the Eb/N0 at which the Monte Carlo genie bound meets a
#: target BER.
GENIE_RESOLUTION_DB = 0.01


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
    sigma = jinv(i_ap)
    if math.isinf(sigma):
        return 0.0
    return qfunc(0.5 * sigma)


@dataclass(frozen=True)
class ConvergenceCheck:
    passed: bool
    p_est: float


def convergence_check(i_a: float, i_e: float, target_ber: float) -> ConvergenceCheck:
    """Declare a local decoding success iff the BER estimate derived from
    the a-posteriori MI is strictly below the target."""
    p = ber_estimate(mi_ap(i_a, i_e))
    return ConvergenceCheck(p < target_ber, p)


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
                    i_max: int = 1000, *,
                    steady_state_shortcut: bool = True) -> ExitRunResult:
    """Slide the MI-domain window over all L target layers.

    All full-edge MI start at 0, channel half-edges at the channel MI of
    the coupled rate, source half-edges at 0.  Each window position runs up
    to ``i_max`` sweeps of the layer schedule (a sweep that no longer moves
    any MI message by more than ``FIXED_POINT_TOL`` is a fixed point and
    ends the window early), then applies the convergence check at the target
    layer.  On success the target layer's outgoing MI freeze at their final
    values and the window shifts; on failure the run stops.

    The state is one number per message, the std ``sqrt(a)`` its sender
    computes from ``a``, the sum of its other input variances.  A parity
    node's message has MI 1 - J(sqrt(a)), an equality node's J(sqrt(a));
    either receiver reads it as the variance (or weight)
    ``jdual(sqrt(a))**2``.  The code node's extrinsic variance is
    (n-1) * total for RC and ``jdual(sqrt(n-1) * jdual(sqrt(total)))**2``
    for SPC: the variance forms of
    :func:`~bmst.basic_codes.exit_transfer_c`, which the convergence check
    still evaluates in the MI domain.  The fixed-point test and the
    steady-state shortcut compare MI, which an unchanged std leaves alone.

    Mid-chain windows repeat verbatim once their frozen inputs stop
    changing; ``steady_state_shortcut`` detects that and skips ahead, which
    is an exact shortcut up to ``FIXED_POINT_TOL``.
    """
    if memory < 0 or coupling_len < 1 or delay < 0:
        raise ValueError("need memory >= 0, coupling_len >= 1, delay >= 0")
    if not 0.0 < target_ber < 0.5:
        raise ValueError(f"target BER must lie in (0, 0.5), got {target_ber}")
    m, d, L = memory, delay, coupling_len
    rate = float(coupled_rate(small.k, small.n, m, L))
    i_ch = channel_mi(ebn0_db, rate)
    w_ch = jinv(1.0 - i_ch) ** 2

    q = m + 1
    # sigma of each message, by its receiver's side: MI 0 is sigma 0 toward
    # a parity node and sigma inf toward an equality node.
    to_plus = [[0.0] * q for _ in range(L)]
    to_eq = [[_INF] * q for _ in range(L)]
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

    def variances(row):
        """A row's messages as variances in the receiver's domain, and
        their sum."""
        v = [j_dual(s) ** 2 for s in row]
        total = 0.0
        for vi in v:
            total += vi
        return v, total

    def plus_plan(s: int, t: int, t_end: int):
        """Parity node s in window [t, t_end]: how many of its edges carry
        MI 0 from beyond the window, and per edge it reads (in edge order)
        the equality-node row and index, plus the row it answers into, or
        None left of the window.  Edges past either end of the chain carry a
        known codeword (MI 1, weight 0) and drop out."""
        n_inf = 0
        edges = []
        for j in range(q):
            x = s - j
            if x < 0 or x >= L:
                continue
            if x > t_end:
                n_inf += 1
                continue
            edges.append((to_plus[x], j, to_eq[x] if x >= t else None))
        return n_inf, edges

    def plus_node(plan, moved: bool) -> bool:
        """Update one parity node; returns whether any message of the sweep
        so far moved by more than ``tol``."""
        n_inf, edges = plan
        weights = [j_dual(prow[j]) ** 2 for prow, j, _ in edges]
        fin = 0.0
        for w in weights:
            if w == inf:
                n_inf += 1
            else:
                fin += w
        for (_, j, erow), w in zip(edges, weights):
            if erow is None:
                continue
            if w == inf:
                others_inf = n_inf - 1
                others_fin = fin
            else:
                others_inf = n_inf
                others_fin = fin - w
            if others_inf:
                sa = inf
            else:
                a = w_ch + others_fin
                sa = sqrt(0.0 if a < 0.0 else a)
            old = erow[j]
            if not moved and sa != old:
                diff = (1.0 - j_fun(sa)) - (1.0 - j_fun(old))
                moved = diff > tol or -diff > tol
            erow[j] = sa
        return moved

    def eq_c_node(tp: int, moved: bool) -> bool:
        """Update the equality and code nodes of layer tp; returns the
        running ``moved`` flag as :func:`plus_node` does."""
        v, total = variances(to_eq[tp])
        if rc:
            v_c = n_other * total
        else:
            v_c = j_dual(scale * j_dual(sqrt(total))) ** 2
        row = to_plus[tp]
        for i in range(q):
            a = total - v[i] + v_c
            sa = sqrt(0.0 if a < 0.0 else a)
            old = row[i]
            if not moved and sa != old:
                diff = j_fun(sa) - j_fun(old)
                moved = diff > tol or -diff > tol
            row[i] = sa
        return moved

    def run_window(t: int) -> ConvergenceCheck:
        t_end = min(t + d, L - 1)
        tail = range(max(t_end + 1, L), min(t_end + m, L + m - 1) + 1)
        rows = [(tp, plus_plan(tp, t, t_end)) for tp in range(t, t_end + 1)]
        tail_plans = [plus_plan(s, t, t_end) for s in tail]
        for _ in range(i_max):
            # A sweep is a fixed point when no message of the window's layers
            # moves by more than tol in MI; each is written once per sweep.
            moved = False
            for tp, plan in rows:
                moved = plus_node(plan, moved)
                moved = eq_c_node(tp, moved)
            for plan in tail_plans:
                moved = plus_node(plan, moved)
            if not moved:
                break
        i_a = j_fun(sqrt(variances(to_eq[t])[1]))
        return convergence_check(i_a, transfer(small, i_a), target_ber)

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
    prev_p = None
    windows = 0
    t = 0
    while t < L:
        check = run_window(t)
        windows += 1
        p_trace[t] = check.p_est
        if not check.passed:
            return ExitRunResult(False, t, p_trace, windows)
        if steady_state_shortcut and m + 1 <= t <= last_mid:
            # Mid-chain: the window ends at t + d; all bands are one length.
            band = snapshot_band(t, t + d)
            if (prev_band is not None and t + 1 <= last_mid
                    and abs(check.p_est - prev_p) <= tol
                    and all(abs(a - b) <= tol
                            for a, b in zip(band, prev_band))):
                # Every window up to last_mid will repeat this one verbatim.
                saved_plus = [list(row) for row in to_plus[t:t + d + 1]]
                saved_eq = [list(row) for row in to_eq[t:t + d + 1]]
                p_trace[t + 1:last_mid + 1] = check.p_est
                for x in range(t + 1, last_mid + 1):
                    to_plus[x] = list(to_plus[t])
                to_plus[last_mid:last_mid + d + 1] = saved_plus
                to_eq[last_mid:last_mid + d + 1] = saved_eq
                t = last_mid + 1
                continue
            prev_band = band
            prev_p = check.p_est
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
    i_max: int = 1000

    def __post_init__(self) -> None:
        if self.lo_db >= self.hi_db:
            raise ValueError("need lo_db < hi_db")
        if self.resolution_db <= 0.0:
            raise ValueError("resolution must be positive")
        if not 0.0 < self.target_ber < 0.5:
            raise ValueError("target BER must lie in (0, 0.5)")


@dataclass
class ThresholdResult:
    ebn0_star_db: float
    sigma_star: float
    rate: float
    query: ThresholdQuery
    evaluations: list[tuple[float, bool]] = field(default_factory=list)


def _bisection_point(query: ThresholdQuery,
                     outcomes: list[bool]) -> float | None:
    """The Eb/N0 the bisection evaluates after its evaluations so far
    returned ``outcomes``: ``lo_db``, then ``hi_db``, then the middle of the
    interval those outcomes leave, until that is no wider than the
    resolution; None once the search is done."""
    if len(outcomes) < 2:
        return (query.lo_db, query.hi_db)[len(outcomes)]
    lo, hi = query.lo_db, query.hi_db
    for ok in outcomes[2:]:
        mid = 0.5 * (lo + hi)
        if ok:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi) if hi - lo > query.resolution_db else None


def _expected(index: int) -> bool:
    """The outcome speculation assumes for a search's ``index``-th
    evaluation: ``lo_db`` fails and every later point passes."""
    return index > 0


def threshold_search(query: ThresholdQuery) -> ThresholdResult:
    """Bisect Eb/N0 to the query resolution; the returned value is the
    smallest tested point that succeeds.

    Raises :class:`BracketError` unless the run fails at ``lo_db`` and
    succeeds at ``hi_db``.  Success is asserted to be an up-set over the
    sampled points (all failures below all successes).

    The search uses W processes, W being the number of CPUs in the
    process's affinity mask.  This process runs the point the bisection
    needs next while W - 1 children, each forked for one point alone, run
    the points that follow if that point and each after it turn out as
    expected: ``lo_db`` fails and every later point passes, so the children
    run ``hi_db`` or the chain of midpoints toward ``lo``.  Their results
    are read in order while the path stays as expected; at the first point
    that does not, the children still running are terminated and joined.
    Every run is deterministic, and ``evaluations`` holds only the points
    the bisection needs, in its order, so neither it nor the threshold
    depends on W.  With W = 1 the same loop forks nothing.  A child that
    fails or dies on a needed point raises a ``RuntimeError`` naming it.
    """
    evals: list[tuple[float, bool]] = []
    outcomes: list[bool] = []
    workers = worker_count()

    def succeeds(db: float) -> bool:
        return exit_window_run(query.small, query.memory, query.delay,
                               query.coupling_len, db, query.target_ber,
                               query.i_max).success

    def record(db: float, ok: bool) -> None:
        evals.append((db, ok))
        outcomes.append(ok)
        if len(outcomes) == 1 and ok:
            raise BracketError(f"analysis already succeeds at lo = "
                               f"{query.lo_db} dB; widen downward")
        if len(outcomes) == 2 and not ok:
            raise BracketError(f"analysis still fails at hi = "
                               f"{query.hi_db} dB; widen upward")

    def name(db: float) -> str:
        return f"threshold run at Eb/N0 = {db!r} dB"

    with Children() as children:
        while (db := _bisection_point(query, outcomes)) is not None:
            assumed = outcomes + [_expected(len(outcomes))]
            ahead = []
            while len(ahead) < workers - 1:
                point = _bisection_point(query, assumed)
                if point is None:
                    break
                children.start(name(point), partial(succeeds, point))
                ahead.append(point)
                assumed.append(_expected(len(assumed)))
            record(db, succeeds(db))
            # While every outcome so far is the assumed one, the next
            # child's point is the one the bisection needs.
            for point in ahead:
                if outcomes[-1] != _expected(len(outcomes) - 1):
                    break
                record(point, children.result(name(point)))
            children.cancel_all()
    worst_fail = max(db for db, ok in evals if not ok)
    best_pass = min(db for db, ok in evals if ok)
    if worst_fail >= best_pass:
        raise BracketError("success region is not an up-set over the sampled points")
    rate = float(coupled_rate(query.small.k, query.small.n,
                              query.memory, query.coupling_len))
    return ThresholdResult(best_pass, ebn0_to_sigma(best_pass, rate), rate,
                           query, evals)


def genie_lower_bound(code: BasicCode | SmallCode, memory: int,
                      coupling_len: int, ebn0_db: float,
                      seed: int = 0) -> BerEstimate:
    """BER lower bound of the coupled code from a genie-aided argument.

    A decoder told every other layer's bits sees the basic code repeated
    m+1 times (a 10*log10(m+1) dB energy gain) minus the termination rate
    loss 10*log10(1 + m/L); the bound evaluates the basic-code BER there,
    by Monte Carlo at ``seed`` for SPC codes.
    """
    if memory < 0 or coupling_len < 1:
        raise ValueError("need memory >= 0 and coupling_len >= 1")
    shifted = (ebn0_db + 10.0 * math.log10(memory + 1)
               - 10.0 * math.log10(1.0 + memory / coupling_len))
    return ber_basic(code, shifted, seed=seed)


def genie_bound_ebn0_at_target(code: BasicCode | SmallCode, memory: int,
                               coupling_len: int, target_ber: float,
                               seed: int = 0) -> float:
    """Eb/N0 (dB) at which the genie-aided bound equals the target BER;
    SPC codes bisect the Monte Carlo bound to ``GENIE_RESOLUTION_DB``."""
    if not 0.0 < target_ber < 0.5:
        raise ValueError("target BER must lie in (0, 0.5)")
    small = code.small if isinstance(code, BasicCode) else code
    correction = (10.0 * math.log10(memory + 1)
                  - 10.0 * math.log10(1.0 + memory / coupling_len))
    if small.kind == RC:
        # Closed form: Q(sqrt(2 x)) = target  =>  x = qinv^2 / 2.
        x = 0.5 * qfunc_inv(target_ber) ** 2
        return 10.0 * math.log10(x) - correction
    lo, hi = -10.0, 40.0
    while hi - lo > GENIE_RESOLUTION_DB:
        mid = 0.5 * (lo + hi)
        if genie_lower_bound(code, memory, coupling_len, mid, seed).ber > target_ber:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
