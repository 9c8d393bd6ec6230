"""Uniform knot grids and the non-normalized C1 quintic B-spline basis.

The spline space on a uniform partition of [a, b] with n subintervals has
dimension 4n + 2 (every interior knot carries multiplicity four, so the
splines are quintic polynomials on each cell, glued with C1 continuity).
The basis used throughout is the non-normalized divided-difference family
``D_1 .. D_{4n+2}``: interior members integrate to 1/6, the first and last
pairs to 1/24 and 1/8.

All objects in this module are immutable and all functions are pure, so
everything here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass

import numpy as np

from ._fsum import _BLOCK, fsum_blocks

__all__ = [
    "UniformKnotGrid",
    "SplineCoefficients",
    "make_grid",
    "basis_eval",
    "basis_integral",
]


@dataclass(frozen=True)
class UniformKnotGrid:
    """Uniform partition of [a, b] into n cells of width h = (b - a)/n.

    ``knot`` also gives the two extra knots a - h and b + h, the outer ends
    of the supports of D_1, D_2 and D_{4n+1}, D_{4n+2} (see ``basis_eval``).
    They are not part of the domain, and nothing in the package uses them.
    """

    a: float
    b: float
    n: int
    h: float

    @property
    def dimension(self) -> int:
        """Dimension of the spline space, 4n + 2."""
        return 4 * self.n + 2

    def knot(self, j: int) -> float:
        """Knot x_j = a + j*h for j in {-1, 0, ..., n, n+1}."""
        if not -1 <= j <= self.n + 1:
            raise ValueError(f"knot index {j} outside [-1, {self.n + 1}]")
        return self.a + j * self.h

    def knots(self) -> np.ndarray:
        """The n + 1 partition knots x_0 .. x_n (without the extensions)."""
        return self.a + np.arange(self.n + 1) * self.h

    def cell_of(self, t: float) -> int:
        """1-based cell index with half-open convention; t = b maps to cell n."""
        if not self.a <= t <= self.b:
            raise ValueError(f"point {t} outside [{self.a}, {self.b}]")
        j = int(math.floor((t - self.a) / self.h)) + 1
        return min(max(j, 1), self.n)


def make_grid(a: float, b: float, n: int) -> UniformKnotGrid:
    """Build a uniform grid over [a, b] with n subintervals.

    Parameters
    ----------
    a, b : float
        Interval endpoints, b > a.
    n : int
        Number of subintervals, n >= 1: an integer, or a finite number
        of integral value (3.0, say).

    Raises
    ------
    ValueError
        If the interval is empty/inverted, b - a overflows, n is not a
        finite integral number, or n < 1.
    """
    a = float(a)
    b = float(b)
    try:
        n = operator.index(n)  # int, bool and numpy integers
    except TypeError:
        if not (isinstance(n, numbers.Real) and math.isfinite(n) and n == int(n)):
            raise ValueError(f"number of subintervals must be an integer, got {n!r}") from None
        n = int(n)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("interval endpoints must be finite")
    if b <= a:
        raise ValueError(f"invalid interval: need b > a, got [{a}, {b}]")
    if n < 1:
        raise ValueError(f"need at least one subinterval, got n={n}")
    if not math.isfinite(b - a):
        raise ValueError(f"interval too wide: b - a overflows for [{a}, {b}]")
    return UniformKnotGrid(a=a, b=b, n=n, h=(b - a) / n)


def _check_index(grid: UniformKnotGrid, i: int) -> None:
    if not 1 <= i <= grid.dimension:
        raise ValueError(f"basis index {i} outside [1, {grid.dimension}]")


def _powers(h: float, u: float):
    """g^k and u^k, k = 1..5, g = h - u, of a float u, by ``**``."""
    g = h - u
    return g, u, g**2, u**2, g**3, u**3, g**4, u**4, g**5, u**5


def _products(h: float, u: np.ndarray) -> tuple[np.ndarray, ...]:
    """``_powers`` of an array u clamped to [0, h] as ``_place`` clamps, by
    products: g^k and u^k are the two rows of one (2,) + u.shape array.

    numpy raises an array to the powers 3..5 by calling libm ``pow`` once
    per element: ``u**3`` took 2.4 us on 201 points against 0.58 us for
    ``u * u`` (2-vCPU x86-64 VM, numpy 2.4).  The products round
    differently from ``pow``: over 120000 seeded points on six grids, two
    thirds of the shapes kept their bits and the others moved by at most 4
    ulps of the largest of the six (the tests bound the array shapes
    against 50 digits).
    """
    x = np.empty((2,) + u.shape)
    np.minimum(np.maximum(u, 0.0, out=x[1]), h, out=x[1])
    np.subtract(h, x[1], out=x[0])
    x2 = x * x
    x4 = x2 * x2
    return (*x, *x2, *(x2 * x), *x4, *(x4 * x))


# The bounds of h**6 where it and 4 h**6 are normal doubles: cells of width
# about 5.3e-52 to 1.9e51.  Outside them the shapes divide by a subnormal,
# zero or infinite power of h, and come out inexact, zero or NaN.
_H6_MIN = sys.float_info.min
_H6_MAX = sys.float_info.max / 4.0


def _shapes(h: float, u, powers=_powers):
    """The six basis functions alive on a cell of width h, at the local
    coordinate u in [0, h] (a float, or an ndarray of them).

    Entry s is D_{4j-3+s} on cell j = [x_{j-1}, x_j], with u = t - x_{j-1}:
    D_{4j-3} and D_{4j-2} decay from the cell's left knot, D_{4j-1} and
    D_{4j} are the scaled Bernstein bumps supported on the cell alone, and
    D_{4j+1} and D_{4j+2} rise toward its right knot.  Local coordinates
    keep wide or far-from-origin grids from losing precision.

    ``powers(h, u)`` gives g^k and u^k, k = 1..5, with g = h - u:
    ``_powers`` by ``**`` on the scalar path, whose bits are pinned, and
    ``_products`` on the array path (``_cell_shapes``).

    Raises ``ValueError`` where h**6 or 4 h**6 is not a normal double.
    """
    try:
        h6 = h**6
    except OverflowError:  # a Python float raises where numpy gives inf
        h6 = math.inf
    if not _H6_MIN <= h6 <= _H6_MAX:
        raise ValueError(
            f"cell width {h!r} is outside the range of the basis shapes: "
            "h**6 and 4 h**6 must be normal doubles"
        )
    g, u, g2, u2, g3, u3, g4, u4, g5, u5 = powers(h, u)
    h6x4 = 4.0 * h6
    u9 = 9.0 * u
    return (
        g5 / h6x4,                        # D_{4j-3}, decaying
        g4 * (h + u9) / h6x4,             # D_{4j-2}, decaying
        10.0 * u2 * g3 / h6,              # D_{4j-1}
        10.0 * u3 * g2 / h6,              # D_{4j}
        u4 * (10.0 * h - u9) / h6x4,      # D_{4j+1}, rising
        u5 / h6x4,                        # D_{4j+2}, rising
    )


def _place(grid: UniformKnotGrid, t: float) -> tuple[int, float]:
    """The cell j of t, as ``cell_of`` places it, and t's local coordinate
    there, clamped to [0, h]."""
    j = grid.cell_of(t)
    u = t - (grid.a + (j - 1) * grid.h)
    # cell location can round u a hair outside [0, h]; the pieces are
    # continuous, so clamping is value-neutral
    return j, min(max(u, 0.0), grid.h)


def _cell_shapes(grid: UniformKnotGrid, u: np.ndarray) -> np.ndarray:
    """``_shapes`` at the local coordinates u, clamped to [0, h] as
    ``_place`` clamps, with the powers by ``_products``: the result has
    shape (6,) + u.shape, entry s first.  It took 17.2, 20.2 and 24.3 us on
    11, 201 and 401 points, against 21.7, 29.3 and 38.4 us with powers by
    ``**`` stacked by ``np.stack`` on a last axis (interleaved medians,
    2-vCPU x86-64 VM, numpy 2.4); ``np.array`` stacks six rows of 201 in
    1.2 us, ``np.stack`` in 4.7."""
    return np.array(_shapes(grid.h, u, _products))


# Entry s of a cell's six, as a column: 4 * cells + _SIX indexes the
# coefficients (or basis functions) of the (6, m) shapes of m points.
_SIX = np.arange(6)[:, None]


def _locate(grid: UniformKnotGrid, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """0-based cells and offsets of the points, placed as ``cell_of`` places
    them: in the cell on the right at an interior knot, in cell n at b.
    Every array audit places nodes here, once per rule.

    Raises
    ------
    ValueError
        If a point lies outside [a, b] (or is NaN).
    """
    # ufunc reductions: the methods min and max pass through Python wrappers
    if points.size and not (grid.a <= np.minimum.reduce(points)
                            and np.maximum.reduce(points) <= grid.b):
        raise ValueError(f"points outside [{grid.a}, {grid.b}]")
    cells = points - grid.a
    cells /= grid.h
    # at least 0, as no point lies below a: the cast truncates to the floor
    cells = cells.astype(np.intp)
    np.minimum(cells, grid.n - 1, out=cells)
    offsets = cells * grid.h
    offsets += grid.a
    np.subtract(points, offsets, out=offsets)
    return cells, offsets


def basis_eval(grid: UniformKnotGrid, i: int, t: float) -> float:
    """Evaluate the basis function D_i at a point t in [a, b].

    D_{4k-3} and D_{4k-2} are supported on [x_{k-2}, x_k] (two polynomial
    pieces); D_{4k-1} and D_{4k} live on the single cell [x_{k-1}, x_k].
    At an interior knot the two pieces agree (the basis is C1); evaluation
    uses the right piece there, and t = b uses the last cell.

    Raises
    ------
    ValueError
        If i is outside [1, 4n+2] or t outside [a, b], or D_i is alive at
        t on a cell too narrow or too wide for the shapes (``_shapes``).
    """
    _check_index(grid, i)
    j, u = _place(grid, t)
    s = i - (4 * j - 3)
    return _shapes(grid.h, u)[s] if 0 <= s < 6 else 0.0


def basis_integral(grid: UniformKnotGrid, i: int) -> float:
    """Integral of D_i over [a, b]: 1/24 for the outermost pair, 1/8 for the
    next pair in, 1/6 for every interior index. Independent of h."""
    _check_index(grid, i)
    if i == 1 or i == grid.dimension:
        return 1.0 / 24.0
    if i == 2 or i == grid.dimension - 1:
        return 1.0 / 8.0
    return 1.0 / 6.0


# ``basis_integral`` of D_1 and D_2; D_{4n+2} and D_{4n+1} mirror them, and
# every other index integrates to 1/6.
_END_INTEGRALS = np.array([1.0 / 24.0, 1.0 / 8.0])


def _basis_integrals(grid: UniformKnotGrid) -> np.ndarray:
    """``basis_integral`` of every index, as one array of length 4n + 2."""
    out = np.full(grid.dimension, 1.0 / 6.0)
    out[:2] = _END_INTEGRALS
    out[-2:] = _END_INTEGRALS[::-1]
    return out


def _frozen(x) -> np.ndarray:
    """A read-only, C-contiguous float64 copy of x: what a record built by
    its caller keeps of each array passed, so that no later write to that
    array, or to its base, reaches the record."""
    x = np.array(x, dtype=float, order="C")
    x.setflags(write=False)
    return x


def _record(cls, **fields):
    """A record of the dataclass cls holding fields as given, without its
    ``__post_init__``: how build_rule, random_spline and kernel_profile
    hand over the read-only arrays they made, uncopied."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


@dataclass(frozen=True)
class SplineCoefficients:
    """A spline written as sum_i c_i * D_i over a grid's basis.

    c is a read-only float64 copy of the coefficients given
    (``random_spline``'s spline holds its own read-only array, not copied).
    """

    grid: UniformKnotGrid
    c: np.ndarray

    def __post_init__(self) -> None:
        c = _frozen(self.c)
        if c.shape != (self.grid.dimension,):
            raise ValueError(
                f"coefficient vector must have length {self.grid.dimension}, "
                f"got shape {c.shape}"
            )
        object.__setattr__(self, "c", c)

    def value(self, t):
        """Evaluate the spline at t (only the six basis functions active on
        the containing cell contribute).

        t is a float or an ndarray of points.  Either way each point is
        placed in a cell j as ``cell_of`` places it, and the six shapes
        alive there (``_shapes``) meet the coefficients c_{4j-3} .. c_{4j+2}.
        A float t gives the ``math.fsum`` of the six products.  An array is
        evaluated in one pass: its shapes are ``_cell_shapes``, powers by
        products, multiplied by each cell's coefficients and summed in
        order of s, so ``apply_rule`` takes its array path.  Its result is
        within 4 ulps of sum |c_i D_i(t)| of the float one (at most 2.5
        over the 3126 points of the tests' 40 seeded grids).

        Raises
        ------
        ValueError
            If t (any point of an array t) lies outside [a, b], or the
            cells are too narrow or too wide for the shapes (``_shapes``).
        """
        grid = self.grid
        if isinstance(t, np.ndarray):
            cells, u = _locate(grid, t.ravel())
            c = self.c[4 * cells + _SIX]
            c *= _cell_shapes(grid, u)
            return np.add.reduce(c).reshape(t.shape)
        j, u = _place(grid, t)
        c = self.c[4 * j - 4 : 4 * j + 2].tolist()
        return math.fsum(map(operator.mul, c, _shapes(grid.h, u)))

    def exact_integral(self) -> float:
        """Integral by linearity: sum of c_i times the known basis integrals,
        summed as ``apply_rule`` sums its products (the correctly rounded
        sum of the double products, equal to their ``math.fsum``)."""
        c, integrals = self.c, _basis_integrals(self.grid)
        return fsum_blocks(lambda lo: c[lo : lo + _BLOCK] * integrals[lo : lo + _BLOCK], len(c))
