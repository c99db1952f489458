import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bmst
from bmst.jfun import (_DUAL_END, _DUAL_INV_STEP, _DUAL_N, _DUAL_S0,
                       _DUAL_STEP, _INV_STEP, _N_INT, _N_INV, _STEP,
                       SIGMA_MAX, TABLES_PATH, _jslope, _read_tables, bisect,
                       jdual, jfun, jfun_quad, jinv, qfunc, qfunc_inv,
                       write_tables)

LN2 = math.log(2.0)


def mc_mutual_information(sigma, samples, seed):
    """Monte Carlo estimate of the consistent-Gaussian LLR MI."""
    rng = np.random.default_rng(seed)
    xi = 0.5 * sigma * sigma + sigma * rng.standard_normal(samples)
    return 1.0 - float(np.mean(np.log1p(np.exp(-np.clip(xi, -700, 700))) / LN2))


def test_endpoints():
    assert jfun(0.0) == 0.0
    assert jfun(math.inf) == 1.0
    assert jfun(SIGMA_MAX + 5.0) == 1.0
    assert jinv(0.0) == 0.0
    assert jinv(1.0) == math.inf


def test_monotone_increasing():
    grid = np.linspace(0.0, 14.0, 2000)
    vals = np.array([jfun(s) for s in grid.tolist()])
    assert np.all(np.diff(vals) >= 0.0)
    # strictly increasing away from saturation
    low = grid < 10.0
    assert np.all(np.diff(vals[low]) > 0.0)


def test_roundtrip_inverse():
    xs = np.linspace(1e-4, 1.0 - 1e-4, 1000)
    worst = max(abs(jfun(jinv(float(x))) - float(x)) for x in xs)
    assert worst <= 1e-8


def test_spline_matches_quadrature_off_grid():
    for s in [0.003, 0.0571, 0.5137, 1.2345, 2.5154, 4.0401, 7.77, 11.113]:
        assert abs(jfun(s) - jfun_quad(s)) < 1e-9


def test_quadrature_matches_monte_carlo():
    for i, s in enumerate([0.4, 1.0, 2.0, 3.5]):
        mc = mc_mutual_information(s, 10_000_000, seed=100 + i)
        assert abs(jfun_quad(s) - mc) < 1e-3


def test_small_sigma_expansion():
    # J(sigma) ~ sigma^2 / (8 ln 2) as sigma -> 0
    for s in (1e-3, 3e-3, 1e-2):
        assert jfun_quad(s) == pytest.approx(s * s / (8 * LN2), rel=2e-2)


def test_domain_errors():
    with pytest.raises(ValueError):
        jfun(-0.1)
    with pytest.raises(ValueError):
        jinv(-0.01)
    with pytest.raises(ValueError):
        jinv(1.01)


# Step 0.0005 lands on every node of the duality table and halfway between;
# the shifted copy lands at other points between nodes.  Both start below
# the first node, where jdual inverts exactly.
DUAL_GRID = np.concatenate([np.linspace(0.0, SIGMA_MAX + 1.0, 46_001),
                            np.linspace(1e-6, SIGMA_MAX, 20_001) + 3.7e-4])


def test_jdual_defining_equation():
    worst = max(abs(jfun(jdual(float(s))) + jfun(float(s)) - 1.0)
                for s in DUAL_GRID)
    assert worst <= 1e-12


def test_jdual_endpoints():
    assert jdual(0.0) == math.inf
    for s in (SIGMA_MAX, SIGMA_MAX + 1e-9, SIGMA_MAX + 5.0, math.inf):
        assert jdual(s) == 0.0
    with pytest.raises(ValueError):
        jdual(-0.1)


def test_jdual_non_increasing():
    grid = np.sort(DUAL_GRID)
    vals = np.array([jdual(float(s)) for s in grid])
    assert np.all(vals[1:] <= vals[:-1])


def test_jdual_is_an_involution():
    for s in np.linspace(0.5, 8.0, 400):
        assert jdual(jdual(float(s))) == pytest.approx(float(s), rel=1e-9)


def flat_tables():
    """The J spline's nodes ``i * _STEP``, its coefficients c0..c3 as four
    rows, and the duality table's (c0, c1, c2, c3) runs, read from the
    shipped file as flat float64."""
    vals = np.frombuffer(TABLES_PATH.read_bytes(), dtype="<f8").tolist()
    coef = [vals[j * _N_INT:(j + 1) * _N_INT] for j in range(4)]
    return ([i * _STEP for i in range(_N_INT + 1)], coef,
            vals[4 * _N_INT + _N_INV + 2:])


def flat_j(coef, x):
    """J(x) and J'(x) read from the flat spline rows: the interval's
    offset is ``x - i * _STEP`` and its coefficients four separate reads."""
    if x >= SIGMA_MAX:
        return 1.0, 0.0
    i = min(int(x * _INV_STEP), _N_INT - 1)
    u = x - i * _STEP
    c0, c1, c2, c3 = (row[i] for row in coef)
    y = c0 + u * (c1 + u * (c2 + u * c3))
    y = 0.0 if y <= 0.0 else y if y < 1.0 else 1.0
    return y, c1 + u * (2.0 * c2 + 3.0 * c3 * u)


def flat_dual(coef, dual, s):
    """The duality map read from the flat duality runs, with the offset
    ``s - (_DUAL_S0 + i * _DUAL_STEP)``."""
    if s < _DUAL_S0:
        return jinv(1.0 - flat_j(coef, s)[0])
    if s >= _DUAL_END:
        return 0.0
    i = min(int((s - _DUAL_S0) * _DUAL_INV_STEP), _DUAL_N - 1)
    u = s - (_DUAL_S0 + i * _DUAL_STEP)
    c0, c1, c2, c3 = dual[4 * i:4 * i + 4]
    y = c0 + u * (c1 + u * (c2 + u * c3))
    return y if y > 0.0 else 0.0


def test_table_rows_replay_the_file():
    # Each lookup reads one (x0, c0, c1, c2, c3) row; at every node, between
    # nodes and at the ends, the rows give the values the flat file gives,
    # bit for bit.  A row whose x0 or coefficients belong to the next
    # interval changes every midpoint of its own.
    nodes, coef, dual = flat_tables()
    dual_nodes = [_DUAL_S0 + i * _DUAL_STEP for i in range(_DUAL_N + 1)]
    points = nodes + dual_nodes
    points += [x + 0.5 * _STEP for x in nodes[:-1]]
    points += [x + 0.5 * _DUAL_STEP for x in dual_nodes[:-1]]
    points += [math.nextafter(_DUAL_END, 0.0), math.nextafter(SIGMA_MAX, 0.0),
               math.nextafter(_DUAL_S0, 0.0), 0.1234, 1e-9, math.inf]
    got, want = [], []
    for x in points:
        j, slope = flat_j(coef, x)
        want.append([j.hex(), slope.hex(), flat_dual(coef, dual, x).hex()])
        got.append([jfun(x).hex(), _jslope(x).hex(), jdual(x).hex()])
    assert got == want


def logged_bisect(lo, hi, tol, level=0.3):
    """bisect toward ``level`` from [lo, hi], with every point it evaluates."""
    calls = []

    def below(x):
        calls.append(x)
        assert len(calls) < 2000, "bisect does not stop"
        return x < level

    return bisect(below, lo, hi, tol), calls


def replays_inside(calls, lo, hi, level=0.3):
    """Each point lies strictly between the ends the interval had then."""
    for x in calls:
        if not lo < x < hi:
            return False
        lo, hi = (x, hi) if x < level else (lo, x)
    return True


def test_bisect_stops_at_the_width():
    (lo, hi), calls = logged_bisect(0.0, 1.0, 0.01)
    assert len(calls) == 7 and hi - lo == 2.0 ** -7  # 2**-6 > 0.01
    assert lo < 0.3 <= hi
    assert replays_inside(calls, 0.0, 1.0)


def test_bisect_stops_at_adjacent_floats():
    (lo, hi), calls = logged_bisect(0.0, 1.0, 0.0)
    assert hi == 0.3 and lo == math.nextafter(0.3, 0.0)
    assert replays_inside(calls, 0.0, 1.0)
    # past 2**53 the width stays above 1 while no midpoint is new
    (lo, hi), calls = logged_bisect(2.0 ** 60, 2.0 ** 61, 1.0, level=1.5e18)
    assert hi == math.nextafter(lo, math.inf) and hi - lo == 256.0
    assert replays_inside(calls, 2.0 ** 60, 2.0 ** 61, level=1.5e18)
    # ends already adjacent: nothing is evaluated
    one_up = math.nextafter(1.0, 2.0)
    assert logged_bisect(1.0, one_up, 0.0) == ((1.0, one_up), [])


def test_qfunc():
    assert qfunc(0.0) == 0.5
    assert qfunc(math.inf) == 0.0
    assert qfunc(5.199) == pytest.approx(1.0023e-7, rel=1e-3)
    for p in (0.4, 0.1, 1e-3, 1e-7):
        assert qfunc(qfunc_inv(p)) == pytest.approx(p, rel=1e-10)
    with pytest.raises(ValueError):
        qfunc_inv(0.0)


def test_shipped_tables_equal_a_fresh_build(tmp_path):
    fresh = tmp_path / "jtables.bin"
    write_tables(fresh)
    assert fresh.read_bytes() == TABLES_PATH.read_bytes()


def test_damaged_or_missing_table_file_raises(tmp_path):
    # the message names the command the module docstring gives, which works
    # although bmst.jfun is the function that bmst re-exports
    command = re.escape("from bmst.jfun import TABLES_PATH, write_tables; "
                        "write_tables(TABLES_PATH)")
    short = tmp_path / "short.bin"
    short.write_bytes(TABLES_PATH.read_bytes()[:-32])
    with pytest.raises(RuntimeError, match=command):
        _read_tables(short)
    with pytest.raises(RuntimeError, match=command):
        _read_tables(tmp_path / "absent.bin")


def test_table_file_is_declared_package_data():
    # an installed copy holds only the files that pyproject.toml declares
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    with pyproject.open("rb") as fh:
        package_data = tomllib.load(fh)["tool"]["setuptools"]["package-data"]
    assert TABLES_PATH.parent == Path(bmst.__file__).parent
    assert TABLES_PATH.name in package_data["bmst"]


def test_unreadable_tables_still_let_write_tables_mend_them(tmp_path):
    # bmst imports without its tables, each J function then raises the
    # reading error, and write_tables rebuilds the file
    pkg = tmp_path / "bmst"
    shutil.copytree(Path(bmst.__file__).parent, pkg,
                    ignore=shutil.ignore_patterns("__pycache__"))
    table = pkg / TABLES_PATH.name
    table.write_bytes(table.read_bytes()[:-32])
    script = (
        "import math, pytest\n"
        "from bmst.jfun import jdual, jfun, jinv, write_tables, TABLES_PATH\n"
        "for f, x in ((jfun, 1.0), (jinv, 0.5), (jinv, 1e-5), (jdual, 1.0),\n"
        "             (jdual, 0.1)):\n"
        "    with pytest.raises(RuntimeError, match='write_tables'):\n"
        "        f(x)\n"
        "write_tables(TABLES_PATH)\n")
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    subprocess.run([sys.executable, "-c", script], env=env, check=True)
    assert table.read_bytes() == TABLES_PATH.read_bytes()
