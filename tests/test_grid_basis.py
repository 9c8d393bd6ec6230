"""Tests for grid construction and the quintic basis."""

import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splinequad.grid_basis import (
    SplineCoefficients,
    _basis_integrals,
    _cell_shapes,
    _locate,
    basis_eval,
    basis_integral,
    make_grid,
)
from splinequad.oracle import random_spline
from splinequad.quadrature import apply_rule, build_rule

from references import blend_eval, reference_integral


# ---------------------------------------------------------------- make_grid

def test_make_grid_single_cell():
    grid = make_grid(0, 1, 1)
    assert grid.h == 1.0
    assert [grid.knot(j) for j in (-1, 0, 1, 2)] == [-1.0, 0.0, 1.0, 2.0]
    assert grid.dimension == 6


def test_make_grid_unit_spacing():
    grid = make_grid(0, 5, 5)
    assert grid.h == 1.0
    assert list(grid.knots()) == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
    assert grid.knot(-1) == -1.0
    assert grid.knot(6) == 6.0


def test_make_grid_fractional_spacing():
    assert make_grid(0, 1, 4).h == 0.25


def test_make_grid_rejects_bad_input():
    with pytest.raises(ValueError, match="invalid interval"):
        make_grid(1.0, 1.0, 3)
    with pytest.raises(ValueError, match="invalid interval"):
        make_grid(2.0, -1.0, 3)
    with pytest.raises(ValueError, match="subinterval"):
        make_grid(0.0, 1.0, 0)
    with pytest.raises(ValueError):
        make_grid(float("nan"), 1.0, 2)
    with pytest.raises(ValueError, match="overflows"):
        make_grid(-1e308, 1e308, 2)


def test_make_grid_takes_only_a_finite_integral_n():
    # int(2.7) would build n = 2 and int(inf) ends in OverflowError
    for n in (2.7, 1.5, math.inf, -math.inf, math.nan, np.float32(3.5), "3", None):
        with pytest.raises(ValueError, match="must be an integer"):
            make_grid(0.0, 1.0, n)
    for n in (3, 3.0, np.int64(3), np.float64(3.0), Fraction(6, 2)):
        grid = make_grid(0.0, 1.0, n)
        assert grid.n == 3 and type(grid.n) is int


def test_knot_index_range():
    grid = make_grid(0, 3, 3)
    with pytest.raises(ValueError):
        grid.knot(-2)
    with pytest.raises(ValueError):
        grid.knot(5)


# ------------------------------------------------- divided-difference oracle
#
# The basis is defined through confluent divided differences of the
# truncated power (x - t)_+^5 over seven knots with multiplicities.  With
# rational knots and rational t the whole table is exact Fraction
# arithmetic, giving an independent closed-form-free value to compare
# against.

def _truncated_power_derivative(x: Fraction, t: Fraction, r: int) -> Fraction:
    if x <= t or r > 5:
        return Fraction(0)
    coeff = 1
    for i in range(r):
        coeff *= 5 - i
    return coeff * (x - t) ** (5 - r)


def _confluent_dd(points: list[Fraction], t: Fraction) -> Fraction:
    m = len(points)
    table = [[Fraction(0)] * m for _ in range(m)]
    for j in range(m):
        table[0][j] = _truncated_power_derivative(points[j], t, 0)
    for lvl in range(1, m):
        for j in range(m - lvl):
            lo, hi = points[j], points[j + lvl]
            if hi == lo:
                table[lvl][j] = _truncated_power_derivative(
                    points[j], t, lvl
                ) / math.factorial(lvl)
            else:
                table[lvl][j] = (table[lvl - 1][j + 1] - table[lvl - 1][j]) / (hi - lo)
    return table[m - 1][0]


def _dd_basis_value(a: Fraction, h: Fraction, i: int, t: Fraction) -> Fraction:
    k = (i + 3) // 4
    r = i - 4 * (k - 1)
    x = lambda j: a + j * h
    if r == 1:
        pts = [x(k - 2)] * 2 + [x(k - 1)] * 4 + [x(k)]
    elif r == 2:
        pts = [x(k - 2)] + [x(k - 1)] * 4 + [x(k)] * 2
    elif r == 3:
        pts = [x(k - 1)] * 4 + [x(k)] * 3
    else:
        pts = [x(k - 1)] * 3 + [x(k)] * 4
    return _confluent_dd(pts, t)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_basis_matches_divided_differences(n):
    grid = make_grid(0, 1, n)
    a, h = Fraction(0), Fraction(1, n)
    # a few off-knot rational points in every cell
    points = [
        a + (j + frac) * h
        for j in range(n)
        for frac in (Fraction(1, 7), Fraction(1, 2), Fraction(6, 7))
    ]
    for i in range(1, grid.dimension + 1):
        for t in points:
            expected = float(_dd_basis_value(a, h, i, t))
            got = basis_eval(grid, i, float(t))
            assert got == pytest.approx(expected, abs=5e-14 * n)


# --------------------------------------------------------------- basis_eval

def test_basis_value_at_shared_knot():
    # the two spanning shapes take the value 1/(4h) where they meet
    grid = make_grid(0, 2, 2)
    assert basis_eval(grid, 5, 1.0) == pytest.approx(0.25, abs=1e-15)


def test_basis_value_at_cell_midpoint():
    grid = make_grid(0, 1, 1)
    assert basis_eval(grid, 3, 0.5) == pytest.approx(5.0 / 16.0, abs=1e-15)
    assert basis_eval(grid, 4, 0.5) == pytest.approx(5.0 / 16.0, abs=1e-15)


def test_basis_spanning_midpoint_values():
    # values used by the residue bookkeeping: 5.5/(64h) and 1/(128h)
    grid = make_grid(0, 3, 3)
    assert basis_eval(grid, 5, 0.5) == pytest.approx(5.5 / 64.0, abs=1e-15)
    assert basis_eval(grid, 6, 0.5) == pytest.approx(1.0 / 128.0, abs=1e-15)


def test_basis_zero_outside_support():
    grid = make_grid(0, 3, 3)
    assert basis_eval(grid, 3, 2.5) == 0.0
    assert basis_eval(grid, 12, 0.5) == 0.0


def test_basis_eval_rejects_bad_input():
    grid = make_grid(0, 3, 3)
    with pytest.raises(ValueError, match="basis index"):
        basis_eval(grid, 0, 0.5)
    with pytest.raises(ValueError, match="basis index"):
        basis_eval(grid, 15, 0.5)
    with pytest.raises(ValueError, match="outside"):
        basis_eval(grid, 3, -0.1)
    with pytest.raises(ValueError, match="outside"):
        basis_eval(grid, 3, 3.1)


def test_basis_continuity_at_interior_knots():
    grid = make_grid(-1.0, 2.0, 6)
    for i in range(1, grid.dimension + 1):
        for j in range(1, grid.n):
            t = grid.knot(j)
            left = basis_eval(grid, i, math.nextafter(t, grid.a))
            right = basis_eval(grid, i, math.nextafter(t, grid.b))
            at = basis_eval(grid, i, t)
            assert abs(left - at) <= 1e-13 / grid.h
            assert abs(right - at) <= 1e-13 / grid.h


def test_basis_c1_at_interior_knots():
    # one-sided difference quotients agree: the pieces join with equal slope
    grid = make_grid(0.0, 4.0, 4)
    step = 1e-6
    for i in range(1, grid.dimension + 1):
        for j in range(1, grid.n):
            t = grid.knot(j)
            fwd = (basis_eval(grid, i, t + step) - basis_eval(grid, i, t)) / step
            bwd = (basis_eval(grid, i, t) - basis_eval(grid, i, t - step)) / step
            assert fwd == pytest.approx(bwd, abs=1e-5)


def test_basis_nonnegative():
    grid = make_grid(0, 5, 5)
    ts = np.linspace(0.0, 5.0, 501)
    for i in range(1, grid.dimension + 1):
        assert all(basis_eval(grid, i, float(t)) >= 0.0 for t in ts)


def test_basis_ordering_of_spanning_pair():
    # D_{4k+2} <= D_{4k+1} throughout each cell
    grid = make_grid(0, 4, 4)
    for k in range(1, grid.n + 1):
        lo = grid.knot(k - 1)
        for t in np.linspace(lo, lo + grid.h, 100):
            t = float(min(t, grid.b))
            assert basis_eval(grid, 4 * k + 2, t) <= basis_eval(grid, 4 * k + 1, t) + 1e-15


# ----------------------------------------------------------- basis_integral

def test_basis_integral_values():
    grid = make_grid(0, 5, 5)
    assert basis_integral(grid, 1) == 1.0 / 24.0
    assert basis_integral(grid, 2) == 1.0 / 8.0
    assert basis_integral(grid, 3) == 1.0 / 6.0
    assert basis_integral(grid, 21) == 1.0 / 8.0
    assert basis_integral(grid, 22) == 1.0 / 24.0
    with pytest.raises(ValueError):
        basis_integral(grid, 23)


def test_basis_integral_independent_of_h():
    for a, b, n in [(0, 1, 7), (-3, 9, 5), (2, 2.5, 4)]:
        grid = make_grid(a, b, n)
        assert basis_integral(grid, 3) == 1.0 / 6.0


def test_basis_integral_matches_reference_integration():
    for a, b, n in [(0.0, 1.0, 4), (0.0, 5.0, 5), (-2.0, 1.0, 3)]:
        grid = make_grid(a, b, n)
        for i in range(1, grid.dimension + 1):
            val = reference_integral(lambda t: basis_eval(grid, i, t), grid, 4)
            assert val == pytest.approx(basis_integral(grid, i), abs=1e-13)


# ----------------------------------------------------------------- blend

def test_blend_zero_at_cell_edge_and_midpoint():
    grid = make_grid(0, 3, 3)
    assert blend_eval(grid, 1, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert blend_eval(grid, 1, 0.5) == pytest.approx(0.0, abs=1e-15)


def test_blend_bernstein_form_on_left_half():
    # control points on [x0, x0 + h/2] are (0, 0, 1/(8h), 1/(16h), 0, 0)
    grid = make_grid(0, 3, 3)
    h = grid.h
    coefs = (0.0, 0.0, 1.0 / (8 * h), 1.0 / (16 * h), 0.0, 0.0)

    def bernstein(s):
        return math.fsum(
            c * math.comb(5, i) * s**i * (1 - s) ** (5 - i)
            for i, c in enumerate(coefs)
        )

    for t in np.linspace(0.0, 0.5, 51):
        s = 2.0 * float(t) / h
        assert blend_eval(grid, 1, float(t)) == pytest.approx(bernstein(s), abs=1e-14)
    # spot value at t = 1/4: the form evaluates to 15/256
    assert blend_eval(grid, 1, 0.25) == pytest.approx(15.0 / 256.0, abs=1e-15)


def test_blend_nonnegative_with_midpoint_root():
    grid = make_grid(0, 3, 3)
    for k in (1, 2):
        lo = grid.knot(k - 1)
        mid = lo + 0.5 * grid.h
        vals = [
            blend_eval(grid, k, float(t))
            for t in np.linspace(lo, grid.knot(k), 1000)
        ]
        assert min(vals) >= -1e-15
        assert abs(blend_eval(grid, k, mid)) <= 1e-15


def test_blend_nonnegative_on_scaled_grid():
    grid = make_grid(-3.0, 0.5, 5)   # h = 0.7
    vals = [
        blend_eval(grid, 2, float(t))
        for t in np.linspace(grid.knot(1), grid.knot(2), 1000)
    ]
    # tolerance scales with the blend's natural magnitude ~ 1/h
    assert min(vals) >= -4e-15 / grid.h


def test_blend_range_checks():
    grid = make_grid(0, 3, 3)
    with pytest.raises(ValueError, match="interval index"):
        blend_eval(grid, 0, 0.5)
    with pytest.raises(ValueError, match="interval index"):
        blend_eval(grid, 3, 2.5)   # k = n is excluded
    with pytest.raises(ValueError, match="outside"):
        blend_eval(grid, 1, 1.5)
    grid1 = make_grid(0, 1, 1)
    with pytest.raises(ValueError, match="interval index"):
        blend_eval(grid1, 1, 0.5)


# --------------------------------------------- constant-function surrogate

@pytest.mark.parametrize("n", [1, 2, 5, 8])
def test_constant_function_lies_in_space(n):
    # solve collocation for coefficients reproducing f == 1, then verify
    # the reproduction at fresh points
    grid = make_grid(0.0, 1.0, n)
    dim = grid.dimension
    ts = np.linspace(grid.a, grid.b, dim)
    m = np.array([[basis_eval(grid, i + 1, float(t)) for i in range(dim)] for t in ts])
    coefs = np.linalg.solve(m, np.ones(dim))
    spline = SplineCoefficients(grid=grid, c=coefs)
    rng = np.random.default_rng(7)
    for t in rng.uniform(grid.a, grid.b, size=200):
        assert spline.value(float(t)) == pytest.approx(1.0, abs=1e-12)


# ------------------------------------------------------ SplineCoefficients

def test_spline_coefficients_length_check():
    grid = make_grid(0, 2, 2)
    with pytest.raises(ValueError, match="length"):
        SplineCoefficients(grid=grid, c=np.ones(9))


def test_spline_value_matches_full_expansion():
    grid = make_grid(0.0, 2.0, 2)
    rng = np.random.default_rng(3)
    spline = SplineCoefficients(grid=grid, c=rng.uniform(-1, 1, grid.dimension))
    for t in rng.uniform(0.0, 2.0, size=50):
        full = math.fsum(
            spline.c[i] * basis_eval(grid, i + 1, float(t))
            for i in range(grid.dimension)
        )
        assert spline.value(float(t)) == pytest.approx(full, abs=1e-15)


def test_spline_exact_integral_by_linearity():
    grid = make_grid(0.0, 3.0, 3)
    spline = SplineCoefficients(grid=grid, c=np.arange(1.0, grid.dimension + 1.0))
    expected = math.fsum(
        spline.c[i] * basis_integral(grid, i + 1) for i in range(grid.dimension)
    )
    assert spline.exact_integral() == pytest.approx(expected, rel=1e-15)


@pytest.mark.parametrize("n", [1, 2, 200])
def test_spline_exact_integral_equals_per_index_products(n):
    # the shared array of basis integrals gives the same products as the
    # scalar definition, and fsum makes the order immaterial
    grid = make_grid(-2.0, 5.0, n)
    expected = [basis_integral(grid, i) for i in range(1, grid.dimension + 1)]
    assert _basis_integrals(grid).tolist() == expected
    c = np.random.default_rng(n).uniform(-1e3, 1e3, grid.dimension)
    spline = SplineCoefficients(grid=grid, c=c)
    assert spline.exact_integral() == math.fsum(
        ci * basis_integral(grid, i + 1) for i, ci in enumerate(c)
    )


@pytest.mark.parametrize("n", list(range(1, 51)) + [16400, 10**5])
def test_spline_exact_integral_bit_identical_to_fsum_of_the_products(n):
    # 4n + 2 products: the shorter ones take math.fsum, 16400 and 10^5
    # cells the array sum that apply_rule uses; 16400 cells are 65602
    # coefficients, a full block and a last block of 66, which the sum
    # takes as it is
    rng = np.random.default_rng([n, 3])
    grid = make_grid(-2.0, 5.0, n)
    for c in (rng.uniform(-1e3, 1e3, grid.dimension),
              np.ldexp(rng.uniform(-1.0, 1.0, grid.dimension),
                       rng.integers(-60, 60, grid.dimension))):
        spline = SplineCoefficients(grid=grid, c=c)
        old = math.fsum((spline.c * _basis_integrals(grid)).tolist())
        assert spline.exact_integral().hex() == old.hex()


def test_spline_value_array_matches_scalar():
    # points at a, at b, at every interior knot and inside the cells; the
    # array path agrees with the per-point path to a few ulps of
    # sum |c_i D_i(t)| (the value of the spline with coefficients |c_i|,
    # the D_i being nonnegative)
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(40):
        a = float(rng.uniform(-1e6, 1e6))
        grid = make_grid(a, a + float(10.0 ** rng.uniform(-3, 3)), int(rng.integers(1, 60)))
        c = rng.uniform(-1.0, 1.0, grid.dimension)
        spline = SplineCoefficients(grid=grid, c=c)
        size = SplineCoefficients(grid=grid, c=np.abs(c))
        t = np.concatenate([grid.knots(), rng.uniform(grid.a, grid.b, 50)])
        values = spline.value(t)
        assert values.shape == t.shape
        for ti, vi in zip(t.tolist(), values.tolist()):
            err = abs(vi - spline.value(ti)) / (size.value(ti) * np.finfo(float).eps)
            worst = max(worst, err)
    assert worst <= 4.0


def _mp_shapes(mp, h, u):
    """The six shapes on a cell of width h at the double offset u, clamped
    to [0, h], in 50 digits: g = h - u is exact here."""
    with mp.workdps(50):
        h, u = mp.mpf(h), mp.mpf(min(max(u, 0.0), h))
        g = h - u
        c = 4 * h**6
        return [g**5 / c, g**4 * (h + 9 * u) / c, 40 * u**2 * g**3 / c,
                40 * u**3 * g**2 / c, u**4 * (10 * h - 9 * u) / c, u**5 / c]


# The array shapes (powers by products) are within this many ulps of the
# largest of the six at the point.  Most of it is the formulas' own: near
# u = h, 10h - 9u and h + 9u are about h but rounded to ulps of 10h.  Over
# 12000 seeded offsets on six grids the worst was 13.2 (12.1 with powers by
# pow), always in D_{4j+1} or D_{4j-1}; the points below reach 8.3.
SHAPE_ULPS = 16.0


def test_array_shapes_match_50_digit_shapes():
    # at u = 0 and u = h, offsets that the clamp moves, the cell middle and
    # seeded offsets, and the offsets of knots and seeded points as _locate
    # places them, on grids near and far from the origin
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(20261019)
    worst = 0.0
    for a, b, n in [(0.0, 1.0, 7), (-3.0, 17.0, 27), (1e6, 1e6 + 3.7, 11),
                    (-1e12, -1e12 + 5.0, 3), (2.5e-3, 2.5e-3 + 1e-3, 5), (0.0, 1e4, 1)]:
        grid = make_grid(a, b, n)
        h = grid.h
        points = np.concatenate([grid.knots(), rng.uniform(a, b, 40)])
        u = np.concatenate([
            [0.0, h, -0.0, -1e-3 * h, -math.ulp(h), h + math.ulp(h), 1.001 * h, h / 2],
            rng.uniform(0.0, h, 40), _locate(grid, np.minimum(points, b))[1],
        ])
        shapes = _cell_shapes(grid, u)
        assert shapes.shape == (6, len(u))
        for k, uk in enumerate(u.tolist()):
            exact = _mp_shapes(mp, h, uk)
            ulp = math.ulp(float(max(exact)))
            for s in range(6):
                worst = max(worst, float(abs(mp.mpf(shapes[s, k]) - exact[s])) / ulp)
    assert worst <= SHAPE_ULPS, worst


# sha256 of the .hex() texts of basis_eval at every index and of a random
# spline's scalar value, at the knots and at seeded points of three grids,
# frozen from the per-index closed forms the scalar paths used before the
# six shapes were written once
SCALAR_BITS_SHA256 = "715ab59cd0c707a1b9df22b1f3eae53d9c52ff6fd3ef6a780b1bead327501ad8"


def test_scalar_basis_and_spline_bits_are_pinned():
    digest = hashlib.sha256()
    rng = np.random.default_rng(20261018)
    for a, b, n in [(0.0, 1.0, 7), (-3.0, 17.0, 27), (-100000.37, -99995.8, 11)]:
        grid = make_grid(a, b, n)
        ts = np.minimum(grid.knots(), b).tolist() + rng.uniform(a, b, 200).tolist()
        spline = random_spline(grid, 5)
        for t in ts:
            for i in range(1, grid.dimension + 1):
                digest.update(basis_eval(grid, i, t).hex().encode() + b" ")
            digest.update(spline.value(t).hex().encode() + b"\n")
    assert digest.hexdigest() == SCALAR_BITS_SHA256


def test_spline_value_array_refuses_points_outside():
    grid = make_grid(0.0, 1.0, 3)
    spline = SplineCoefficients(grid=grid, c=np.ones(grid.dimension))
    for t in ([0.5, 1.0 + 1e-9], [-1e-9, 0.5], [0.5, np.nan]):
        with pytest.raises(ValueError, match="outside"):
            spline.value(np.array(t))
    # apply_rule's array call fails, and the per-node path reports the
    # first node outside the grid
    wide = build_rule(make_grid(0.0, 2.0, 40))
    with pytest.raises(ValueError, match=r"^point 1\.0[0-9]* outside \[0\.0, 1\.0\]"):
        apply_rule(wide, spline.value)


# [0, b] in two cells: h**6 subnormal (h = 5e-53), zero (5e-61), or 4 h**6
# (h = 1.9e51) or h**6 itself (5e59) beyond the double range
@pytest.mark.parametrize("b", [1e-52, 1e-60, 3.8e51, 1e60])
def test_shapes_refuse_cells_outside_the_range_of_h6(b):
    grid = make_grid(0.0, b, 2)
    spline = SplineCoefficients(grid=grid, c=np.ones(grid.dimension))
    t = 0.3 * b
    evaluations = (
        lambda: basis_eval(grid, 3, t),
        lambda: spline.value(t),
        lambda: spline.value(np.array([t, 0.7 * b])),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # refused before any arithmetic warns
        for evaluate in evaluations:
            with pytest.raises(ValueError, match="outside the range of the basis shapes"):
                evaluate()


@pytest.mark.parametrize("b", [1.1e-51, 3.7e51])
def test_shapes_on_the_narrowest_and_widest_cells_scale_the_unit_cell(b):
    # just inside the range: D_i(t) = D_i(t / h) / h on the unit-width grid
    grid, unit = make_grid(0.0, b, 2), make_grid(0.0, 2.0, 2)
    spline = SplineCoefficients(grid=grid, c=np.ones(grid.dimension))
    ts = (0.1, 0.75, 1.0, 1.4, 2.0)
    for s in ts:
        for i in range(1, grid.dimension + 1):
            assert basis_eval(grid, i, s * grid.h) * grid.h == pytest.approx(
                basis_eval(unit, i, s), rel=1e-13, abs=1e-300), (i, s)
    values = spline.value(np.array(ts) * grid.h) * grid.h
    assert values == pytest.approx([spline.value(s * grid.h) * grid.h for s in ts], rel=1e-13)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    a=st.floats(-50, 50),
    width=st.floats(0.1, 100),
    n=st.integers(1, 12),
    frac=st.floats(0.0, 1.0),
)
def test_basis_nonnegative_property(a, width, n, frac):
    grid = make_grid(a, a + width, n)
    t = grid.a + frac * (grid.b - grid.a)
    t = min(max(t, grid.a), grid.b)
    for i in range(1, grid.dimension + 1):
        assert basis_eval(grid, i, t) >= 0.0
