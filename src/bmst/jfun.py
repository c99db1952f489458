"""Mutual-information numerics for consistent Gaussian LLR messages.

A consistent Gaussian LLR with parameter ``sigma`` has mean ``sigma**2 / 2``
and variance ``sigma**2`` (conditioned on the transmitted bit being 0).  The
J function maps ``sigma`` to the mutual information between such an LLR and
the bit it refers to; ``jinv`` is its inverse.

``jfun_quad`` is the normative definition, evaluated by adaptive quadrature.
``jfun``/``jinv`` evaluate the same function through a dense cubic-spline
table read from the shipped file ``jtables.bin`` at the first call; the
table agrees with the quadrature to better than 1e-9 absolute and is fast
enough for the inner loops of the MI recursion.

``jdual`` is the duality map s -> J^-1(1 - J(s)) of the Gaussian
approximation (Chung, Richardson and Urbanke, IEEE T-IT 2001): the std of
the message whose MI is one minus that of a message with std ``s``.  It is
read from a second table in the same file, so that the MI recursion needs no
Newton inversion per message.

:func:`write_tables` builds that file from the quadrature values; it is the
only code that needs scipy to evaluate J.  Regenerate the file with
``python -c "from bmst.jfun import TABLES_PATH, write_tables;
write_tables(TABLES_PATH)"``, which works with the file missing or damaged
(the J functions then raise); the tests check that it equals a fresh build
byte for byte.

:func:`bisect` is the package's one scalar bisection: ``jinv`` near 1, the
BPSK capacity reference, the SPC genie bound's Eb/N0 at a target and the
threshold search all call it.
"""

from __future__ import annotations

import math
import sys
from array import array
from pathlib import Path

import numpy as np

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
    from scipy.integrate import quad
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


#: The shipped tables, little-endian float64 in this order: the J spline's
#: coefficients c0..c3 as four rows with one entry per interval
#: (``CubicSpline(...).c[::-1]``), ``mi_hi``, the Newton seeds of ``jinv``,
#: and the duality table as one (c0, c1, c2, c3) run per interval.  The
#: spline's nodes are ``i * _STEP`` and not stored.
TABLES_PATH = Path(__file__).with_name("jtables.bin")
_N_INT = 2200       # J-spline intervals of width _STEP on [0, SIGMA_MAX]
_N_INV = 4096       # steps of the seed table on the MI grid [0, mi_hi]
_SIGMA_HI = 12.0    # mi_hi = J(_SIGMA_HI), about 1 - 4.3e-9
_DUAL_N = 8194      # duality-table intervals; J rounds to 1 at their end
_DUAL_END = _DUAL_S0 + _DUAL_STEP * _DUAL_N
_TABLE_BYTES = 8 * (4 * _N_INT + 1 + (_N_INV + 1) + 4 * _DUAL_N)
_REGENERATE = ("regenerate the J tables with python -c \"from bmst.jfun "
               "import TABLES_PATH, write_tables; write_tables(TABLES_PATH)\"")


def _read_tables(path: Path = TABLES_PATH) -> tuple:
    """The J spline's rows, ``mi_hi`` followed by the seeds of ``jinv``, and
    the duality table's rows, read from ``path``; a missing or wrong-sized
    file raises ``RuntimeError``.

    A row is one interval's ``(x0, c0, c1, c2, c3)``: its first node ``x0``
    and the cubic in ``s - x0``, so that a lookup reads one row.  ``x0`` is
    ``i * _STEP`` and ``_DUAL_S0 + i * _DUAL_STEP`` for interval i."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise RuntimeError(f"cannot read the J tables: {exc}; {_REGENERATE}"
                           ) from exc
    if len(data) != _TABLE_BYTES:
        raise RuntimeError(f"J table file {path} holds {len(data)} bytes, "
                           f"not {_TABLE_BYTES}; {_REGENERATE}")
    vals = array("d", data)
    if sys.byteorder == "big":
        vals.byteswap()
    coef = list(zip([i * _STEP for i in range(_N_INT)],
                    *(vals[j * _N_INT:(j + 1) * _N_INT] for j in range(4))))
    k = 4 * _N_INT
    dual = vals[k + _N_INV + 2:]
    dual_coef = list(zip([_DUAL_S0 + i * _DUAL_STEP for i in range(_DUAL_N)],
                         *(dual[j::4] for j in range(4))))
    return coef, vals[k:k + _N_INV + 2].tolist(), dual_coef


def _load_tables() -> None:
    """Read ``TABLES_PATH`` and bind its tables to the names the J functions
    read."""
    global _J_COEF, _INV, _DUAL_COEF
    _J_COEF, _INV, _DUAL_COEF = _read_tables()


class _Unread:
    """Stands in for a table until its first lookup, which reads the file:
    importing bmst opens no file, and a J evaluation tests nothing per call
    to find its table.  While the file cannot be read, each lookup raises
    and :func:`write_tables` can still mend it."""

    def __init__(self, name: str) -> None:
        self.name = name

    def __getitem__(self, index):
        if globals()[self.name] is self:  # a caller may hold it past the load
            _load_tables()
        return globals()[self.name][index]


_J_COEF, _INV, _DUAL_COEF = (_Unread("_J_COEF"), _Unread("_INV"),
                              _Unread("_DUAL_COEF"))


def bisect(below, lo: float, hi: float, tol: float) -> tuple[float, float]:
    """Halve ``[lo, hi]`` while it is wider than ``tol`` and its midpoint
    lies strictly between its ends; the midpoint replaces ``lo`` where
    ``below(mid)`` holds, else ``hi``.  ``below`` is evaluated at interior
    points only, and ``tol = 0`` bisects down to adjacent floats."""
    while hi - lo > tol and lo < (mid := 0.5 * (lo + hi)) < hi:
        if below(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _bisect_rows(f, target: np.ndarray, hi: float, steps: int) -> np.ndarray:
    """Per entry, the midpoint of ``[0, hi]`` after ``steps`` halvings
    toward ``f(s) = target``, for an increasing ``f`` of an array."""
    lo = np.zeros_like(target)
    hi = np.full_like(target, hi)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        too_low = f(mid) < target
        np.copyto(lo, mid, where=too_low)
        np.copyto(hi, mid, where=~too_low)
    return 0.5 * (lo + hi)


def write_tables(path: Path | str) -> None:
    """Build the tables that ``TABLES_PATH`` ships and write them to ``path``.

    J comes from :func:`jfun_quad` on the nodes, interpolated by scipy's
    ``CubicSpline``; the seeds of ``jinv`` and the duality table come from
    bisections on that spline.
    """
    from scipy.interpolate import CubicSpline

    grid = np.arange(0.0, SIGMA_MAX + 0.5 * _STEP, _STEP)
    values = np.array([jfun_quad(s) for s in grid])
    values[0] = 0.0
    spline = CubicSpline(grid, np.clip(values, 0.0, 1.0))

    # Inverse lookup table on a uniform MI grid for Newton seeding.
    # Restricted to where 1 - J is comfortably above double-precision noise.
    mi_hi = float(jfun_quad(_SIGMA_HI))
    inv_sigma = _bisect_rows(spline, np.linspace(0.0, mi_hi, _N_INV + 1),
                             _SIGMA_HI, 52)
    inv_sigma[0] = 0.0

    # Duality table: g(s) = J^-1(1 - J(s)) on [_DUAL_S0, end), one cubic
    # Hermite interpolant per interval.  Node values come from a bisection
    # on the spline, slopes from g'(s) = -J'(s) / J'(g(s)).  Where 1 - J(s)
    # is down to a few ulps the node values are rounding noise, so they are
    # made non-increasing and the slopes limited to [-3 |secant|, 0] on both
    # sides, so that every cubic is monotone too.  From ``end`` on, where
    # J(s) rounds to 1, g is 0.
    n_max = round((SIGMA_MAX - _DUAL_S0) * _DUAL_INV_STEP)
    s = _DUAL_S0 + _DUAL_STEP * np.arange(n_max + 1)
    target = 1.0 - np.clip(spline(s), 0.0, 1.0)
    n = int(np.argmax(target == 0.0))  # J(SIGMA_MAX) rounds to 1
    if n != _DUAL_N:
        raise RuntimeError(f"J rounds to 1 after {n} duality-table "
                           f"intervals, not {_DUAL_N}")
    s = s[:n + 1]
    g = _bisect_rows(spline, target[:n + 1], SIGMA_MAX, 60)
    g[n] = 0.0
    np.minimum.accumulate(g, out=g)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = spline(s, 1)
        slope /= spline(g, 1)
    np.negative(slope, out=slope)
    slope[~np.isfinite(slope)] = 0.0
    dx = np.diff(s)
    secant = np.diff(g)
    secant /= dx
    slope[0] = min(max(slope[0], 3.0 * secant[0]), 0.0)
    np.clip(slope[1:-1], 3.0 * np.maximum(secant[:-1], secant[1:]), 0.0,
            out=slope[1:-1])
    slope[n] = 0.0
    # Per-interval (c0, c1, c2, c3) of the Hermite cubic in s - s_i.
    dual = np.empty((n, 4))
    t = (slope[:-1] + slope[1:] - 2.0 * secant) / dx
    dual[:, 0] = g[:-1]
    dual[:, 1] = slope[:-1]
    dual[:, 2] = (secant - slope[:-1]) / dx - t
    dual[:, 3] = t / dx

    data = np.concatenate([spline.c[::-1].ravel(), [mi_hi], inv_sigma,
                           dual.ravel()])
    Path(path).write_bytes(data.astype("<f8").tobytes())


def jfun(sigma: float) -> float:
    """Mutual information of a consistent Gaussian LLR with std ``sigma``, a
    real scalar; values from ``SIGMA_MAX`` on (``inf`` too) map to 1.0.
    """
    if sigma < 0.0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    if sigma >= SIGMA_MAX:
        return 1.0  # inf too
    i = int(sigma * _INV_STEP)
    if i >= _N_INT:
        i = _N_INT - 1
    x0, c0, c1, c2, c3 = _J_COEF[i]
    u = sigma - x0
    y = c0 + u * (c1 + u * (c2 + u * c3))
    if y <= 0.0:
        return 0.0
    return y if y < 1.0 else 1.0


def _jslope(x: float) -> float:
    """J'(x) from the interval :func:`jfun` reads; 0 from ``SIGMA_MAX`` on."""
    if x >= SIGMA_MAX:
        return 0.0
    i = int(x * _INV_STEP)
    if i >= _N_INT:
        i = _N_INT - 1
    x0, _, c1, c2, c3 = _J_COEF[i]
    u = x - x0
    return c1 + u * (2.0 * c2 + 3.0 * c3 * u)


def jinv(mi: float) -> float:
    """Inverse of :func:`jfun`; ``jinv(1.0)`` is ``inf``, ``jinv(0.0)`` is 0.

    Takes a real scalar in [0, 1]; satisfies ``|jfun(jinv(x)) - x| <= 1e-8``
    everywhere (typically below 1e-12).
    """
    if mi < 0.0 or mi > 1.0:
        raise ValueError(f"mutual information must lie in [0, 1], got {mi}")
    mi = float(mi)
    if mi == 0.0:
        return 0.0
    if mi == 1.0:
        return math.inf
    inv = _INV  # mi_hi, then the seeds on the MI grid [0, mi_hi]
    mi_hi = inv[0]
    if mi > mi_hi:
        # Deep saturation: bisect on the spline between sigma_hi and
        # SIGMA_MAX down to adjacent floats.  J(_SIGMA_HI) is mi_hi, below mi.
        lo, hi = bisect(lambda s: jfun(s) < mi, _SIGMA_HI, SIGMA_MAX, 0.0)
        return 0.5 * (lo + hi)
    if mi < 1e-4:
        s = math.sqrt(mi / _SMALL_MI_COEFF)
    else:
        # Linear interpolation in the inverse table.
        r = mi / (mi_hi / _N_INV)
        k = int(r)
        if k >= _N_INV:
            s = inv[_N_INV + 1]
        else:
            a = inv[k + 1]
            s = a + (r - k) * (inv[k + 2] - a)
    # Safeguarded Newton on the spline.
    lo, hi = 0.0, SIGMA_MAX
    for _ in range(30):
        f = jfun(s) - mi
        if -1e-13 <= f <= 1e-13:
            break
        if f > 0.0:
            hi = s
        else:
            lo = s
        d = _jslope(s)
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
    if s < _DUAL_S0:
        return jinv(1.0 - jfun(s))
    if s >= _DUAL_END:
        return 0.0
    i = int((s - _DUAL_S0) * _DUAL_INV_STEP)
    if i >= _DUAL_N:
        i = _DUAL_N - 1
    x0, c0, c1, c2, c3 = _DUAL_COEF[i]
    u = s - x0
    y = c0 + u * (c1 + u * (c2 + u * c3))
    return y if y > 0.0 else 0.0


def qfunc(x: float) -> float:
    """Gaussian tail probability Q(x), evaluated via erfc for stability."""
    return 0.5 * math.erfc(x / _SQRT2)


def qfunc_inv(p: float) -> float:
    """Inverse of :func:`qfunc` on (0, 1)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must lie in (0, 1), got {p}")
    from scipy.special import erfcinv
    return _SQRT2 * float(erfcinv(2.0 * p))
