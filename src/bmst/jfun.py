"""Mutual-information numerics for consistent Gaussian LLR messages.

A consistent Gaussian LLR with parameter ``sigma`` has mean ``sigma**2 / 2``
and variance ``sigma**2`` (conditioned on the transmitted bit being 0).  The
J function maps ``sigma`` to the mutual information between such an LLR and
the bit it refers to; ``jinv`` is its inverse.

``jfun_quad`` is the normative definition, evaluated by adaptive quadrature.
``jfun``/``jinv`` evaluate the same function through a dense cubic-spline
table built once per process from the quadrature values; the table agrees
with the quadrature to better than 1e-9 absolute and is fast enough for the
inner loops of the MI recursion.

``jdual`` is the duality map s -> J^-1(1 - J(s)) of the Gaussian
approximation (Chung, Richardson and Urbanke, IEEE T-IT 2001): the std of
the message whose MI is one minus that of a message with std ``s``.  It is
read from a second table, built on the J spline at its first call, so that
the MI recursion needs no Newton inversion per message.
"""

from __future__ import annotations

import math
from array import array

import numpy as np
from scipy.integrate import quad
from scipy.interpolate import CubicSpline
from scipy.special import erfcinv

_LN2 = math.log(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_SQRT2 = math.sqrt(2.0)

#: Largest tabulated sigma; J(SIGMA_MAX) rounds to 1.0 in double precision.
SIGMA_MAX = 22.0
_STEP = 0.01
_INV_STEP = 1.0 / _STEP
#: Leading coefficient of J(sigma) ~ sigma**2 / (8 ln 2) as sigma -> 0.
_SMALL_MI_COEFF = 1.0 / (8.0 * _LN2)
#: First node and step of the duality table.  Below the first node the map
#: is steep (J^-1 of an MI near 1) and ``jdual`` inverts exactly instead.
_DUAL_S0 = 0.5
_DUAL_STEP = 0.002
_DUAL_INV_STEP = 1.0 / _DUAL_STEP


def jfun_quad(sigma: float) -> float:
    """J(sigma) by adaptive quadrature (absolute error below 1e-10).

    This is the reference definition; prefer :func:`jfun` in hot paths.
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    if sigma == 0.0:
        return 0.0
    if math.isinf(sigma):
        return 1.0
    s = float(sigma)

    def integrand(u: float) -> float:
        t = -(0.5 * s * s + s * u)
        if t > 30.0:
            v = t / _LN2
        else:
            v = math.log1p(math.exp(t)) / _LN2
        return math.exp(-0.5 * u * u) * v

    # The integrand mass sits near u = 0 and u = -sigma; hint both regions.
    val, _ = quad(integrand, -40.0, 40.0, epsabs=1e-13, epsrel=1e-11,
                  limit=200, points=[-s, 0.0])
    return min(1.0, max(0.0, 1.0 - val / _SQRT_2PI))


class _JTable:
    """Spline table of J on a uniform sigma grid, built lazily from quadrature."""

    def __init__(self) -> None:
        self.grid = np.arange(0.0, SIGMA_MAX + 0.5 * _STEP, _STEP)
        values = np.array([jfun_quad(s) for s in self.grid])
        values[0] = 0.0
        self.values = np.clip(values, 0.0, 1.0)
        self.spline = CubicSpline(self.grid, self.values)
        # Per-interval (c0, c1, c2, c3): one lookup per evaluation.
        self._coef = list(zip(*(self.spline.c[::-1].tolist())))
        self._n_int = len(self.grid) - 1

        # Inverse lookup table on a uniform MI grid for Newton seeding.
        # Restricted to where 1 - J is comfortably above double-precision noise.
        self.mi_hi = float(jfun_quad(12.0))          # about 1 - 4.3e-9
        self.sigma_hi = 12.0
        n_inv = 4096
        self._inv_mi_step = self.mi_hi / n_inv
        mi_targets = np.linspace(0.0, self.mi_hi, n_inv + 1)
        lo = np.zeros_like(mi_targets)
        hi = np.full_like(mi_targets, self.sigma_hi)
        for _ in range(52):
            mid = 0.5 * (lo + hi)
            too_low = self.spline(mid) < mi_targets
            lo = np.where(too_low, mid, lo)
            hi = np.where(too_low, hi, mid)
        sig = 0.5 * (lo + hi)
        sig[0] = 0.0
        self._inv_sigma = sig.tolist()

    def eval(self, x: float) -> float:
        if x >= SIGMA_MAX:
            return 1.0
        i = int(x * _INV_STEP)
        if i >= self._n_int:
            i = self._n_int - 1
        u = x - i * _STEP
        c0, c1, c2, c3 = self._coef[i]
        y = c0 + u * (c1 + u * (c2 + u * c3))
        if y <= 0.0:
            return 0.0
        return y if y < 1.0 else 1.0


class _DualTable:
    """Piecewise-cubic table of g(s) = J^-1(1 - J(s)) on [_DUAL_S0, end).

    Node values come from a vectorized bisection on the J spline, slopes from
    g'(s) = -J'(s) / J'(g(s)); each interval is the cubic Hermite
    interpolant.  Where 1 - J(s) is down to a few ulps the node values are
    rounding noise, so they are made non-increasing and the slopes limited
    to [-3 |secant|, 0] on both sides, so that every cubic is monotone too.
    From ``end`` on, where J(s) rounds to 1, g is 0.  The build works in
    place on a few node-sized arrays: it runs on the first ``jdual`` call,
    inside whatever computation made it, and its peak memory stays there.
    """

    def __init__(self, tab: _JTable) -> None:
        n_max = round((SIGMA_MAX - _DUAL_S0) * _DUAL_INV_STEP)
        s = _DUAL_S0 + _DUAL_STEP * np.arange(n_max + 1)
        target = 1.0 - np.clip(tab.spline(s), 0.0, 1.0)
        n = int(np.argmax(target == 0.0))  # J(SIGMA_MAX) rounds to 1
        s, target = s[:n + 1], target[:n + 1]
        lo = np.zeros_like(s)
        hi = np.full_like(s, SIGMA_MAX)
        g = np.empty_like(s)
        for _ in range(60):
            np.add(lo, hi, out=g)
            g *= 0.5
            too_low = tab.spline(g) < target
            np.copyto(lo, g, where=too_low)
            np.copyto(hi, g, where=~too_low)
        del target, too_low
        np.add(lo, hi, out=g)
        g *= 0.5
        del lo, hi
        g[n] = 0.0
        np.minimum.accumulate(g, out=g)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = tab.spline(s, 1)
            slope /= tab.spline(g, 1)
        np.negative(slope, out=slope)
        slope[~np.isfinite(slope)] = 0.0
        dx = np.diff(s)
        secant = np.diff(g)
        secant /= dx
        slope[0] = min(max(slope[0], 3.0 * secant[0]), 0.0)
        np.clip(slope[1:-1], 3.0 * np.maximum(secant[:-1], secant[1:]), 0.0,
                out=slope[1:-1])
        slope[n] = 0.0
        # Per-interval (c0, c1, c2, c3) of the Hermite cubic in s - s_i,
        # flattened: one lookup per evaluation.
        self.coef = array("d", [0.0]) * (4 * n)
        c = np.frombuffer(self.coef).reshape(n, 4)
        t = (slope[:-1] + slope[1:] - 2.0 * secant) / dx
        c[:, 0] = g[:-1]
        c[:, 1] = slope[:-1]
        c[:, 2] = (secant - slope[:-1]) / dx - t
        c[:, 3] = t / dx
        self.last = n - 1
        self.end = float(s[n])


_TABLE: _JTable | None = None
_DUAL: _DualTable | None = None


def _table() -> _JTable:
    global _TABLE
    if _TABLE is None:
        _TABLE = _JTable()
    return _TABLE


def _dual_table() -> _DualTable:
    global _DUAL
    if _DUAL is None:
        _DUAL = _DualTable(_table())
    return _DUAL


def jfun(sigma):
    """Mutual information of a consistent Gaussian LLR with std ``sigma``.

    Accepts a scalar or ndarray; values above ``SIGMA_MAX`` map to 1.0.
    """
    tab = _TABLE if _TABLE is not None else _table()
    if isinstance(sigma, (float, int)):
        if sigma < 0.0:
            raise ValueError(f"sigma must be non-negative, got {sigma}")
        return tab.eval(float(sigma))  # inf lies above SIGMA_MAX: 1.0
    arr = np.asarray(sigma, dtype=float)
    if np.any(arr < 0.0):
        raise ValueError("sigma must be non-negative")
    out = np.clip(tab.spline(np.minimum(arr, SIGMA_MAX)), 0.0, 1.0)
    out = np.where(arr >= SIGMA_MAX, 1.0, out)
    return out


def jinv(mi):
    """Inverse of :func:`jfun`; ``jinv(1.0)`` is ``inf``, ``jinv(0.0)`` is 0.

    Accepts a scalar or ndarray in [0, 1]; satisfies
    ``|jfun(jinv(x)) - x| <= 1e-8`` everywhere (typically below 1e-12).
    """
    tab = _TABLE if _TABLE is not None else _table()
    if not isinstance(mi, (float, int)):
        arr = np.asarray(mi, dtype=float)
        if np.any((arr < 0.0) | (arr > 1.0)):
            raise ValueError("mutual information must lie in [0, 1]")
        return np.array([jinv(float(x)) for x in arr.ravel()]).reshape(arr.shape)
    if mi < 0.0 or mi > 1.0:
        raise ValueError(f"mutual information must lie in [0, 1], got {mi}")
    mi = float(mi)
    if mi == 0.0:
        return 0.0
    if mi == 1.0:
        return math.inf
    if mi > tab.mi_hi:
        # Deep saturation: bisect on the spline between sigma_hi and SIGMA_MAX.
        lo, hi = tab.sigma_hi, SIGMA_MAX
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if tab.eval(mid) < mi:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)
    if mi < 1e-4:
        s = math.sqrt(mi / _SMALL_MI_COEFF)
    else:
        # Linear interpolation in the inverse table.
        inv_sigma = tab._inv_sigma
        r = mi / tab._inv_mi_step
        k = int(r)
        if k >= len(inv_sigma) - 1:
            s = inv_sigma[-1]
        else:
            a = inv_sigma[k]
            s = a + (r - k) * (inv_sigma[k + 1] - a)
    # Safeguarded Newton on the spline; J and J' are evaluated inline (the
    # arithmetic of _JTable.eval and its derivative) from one lookup of the
    # interval's coefficients.
    coef = tab._coef
    last = tab._n_int - 1
    lo, hi = 0.0, SIGMA_MAX
    for _ in range(30):
        inside = s < SIGMA_MAX
        if inside:
            i = int(s * _INV_STEP)
            if i > last:
                i = last
            u = s - i * _STEP
            c0, c1, c2, c3 = coef[i]
            y = c0 + u * (c1 + u * (c2 + u * c3))
            if y <= 0.0:
                y = 0.0
            elif y >= 1.0:
                y = 1.0
        else:
            y = 1.0
        f = y - mi
        if -1e-13 <= f <= 1e-13:
            break
        if f > 0.0:
            hi = s
        else:
            lo = s
        d = c1 + u * (2.0 * c2 + 3.0 * c3 * u) if inside else 0.0
        nxt = s - f / d if d > 0.0 else 0.5 * (lo + hi)
        if not lo < nxt < hi:
            nxt = 0.5 * (lo + hi)
        s = nxt
    return s


def jdual(s: float) -> float:
    """The std ``sigma'`` with ``J(sigma') = 1 - J(s)``, for a scalar ``s >= 0``.

    ``jdual(0)`` is ``inf`` and ``jdual(s)`` is 0 for ``s >= SIGMA_MAX``.  The
    map is non-increasing and, up to rounding, its own inverse;
    ``|J(jdual(s)) + J(s) - 1|`` stays below 1e-12.  Below the table's first
    node it is computed as ``jinv(1.0 - jfun(s))``.
    """
    tab = _DUAL if _DUAL is not None else _dual_table()
    if s < _DUAL_S0:
        return jinv(1.0 - jfun(s))
    if s >= tab.end:
        return 0.0
    i = int((s - _DUAL_S0) * _DUAL_INV_STEP)
    if i > tab.last:
        i = tab.last
    u = s - (_DUAL_S0 + i * _DUAL_STEP)
    coef = tab.coef
    k = 4 * i
    y = coef[k] + u * (coef[k + 1] + u * (coef[k + 2] + u * coef[k + 3]))
    return y if y > 0.0 else 0.0


def qfunc(x):
    """Gaussian tail probability Q(x), evaluated via erfc for stability."""
    if isinstance(x, (float, int)):
        if math.isinf(x):
            return 0.0 if x > 0 else 1.0
        return 0.5 * math.erfc(x / _SQRT2)
    from scipy.special import erfc
    return 0.5 * erfc(np.asarray(x, dtype=float) / _SQRT2)


def qfunc_inv(p: float) -> float:
    """Inverse of :func:`qfunc` on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    return _SQRT2 * float(erfcinv(2.0 * p))
