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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UniformKnotGrid",
    "SplineCoefficients",
    "make_grid",
    "basis_eval",
    "basis_integral",
    "blend_eval",
]


@dataclass(frozen=True)
class UniformKnotGrid:
    """Uniform partition of [a, b] into n cells of width h = (b - a)/n.

    Two extra knots at a - h and b + h extend the sequence; they exist only
    so that the boundary basis functions can be written with the same
    closed forms as the interior ones, and are not part of the domain.
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
        Number of subintervals, n >= 1.

    Raises
    ------
    ValueError
        If the interval is empty/inverted, b - a overflows, or n < 1.
    """
    a = float(a)
    b = float(b)
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


def _decode(i: int) -> tuple[int, int]:
    """Map basis index i to (k, r) with i = 4(k-1) + r, r in {1, 2, 3, 4}.

    r identifies which of the four per-knot shapes D_{4k-3} .. D_{4k} the
    index refers to; k runs from 1 to n+1 for r in {1, 2} and 1 to n for
    r in {3, 4}.
    """
    k = (i + 3) // 4
    return k, i - 4 * (k - 1)


def _check_index(grid: UniformKnotGrid, i: int) -> None:
    if not 1 <= i <= grid.dimension:
        raise ValueError(f"basis index {i} outside [1, {grid.dimension}]")


def _local(u: float, h: float) -> float:
    # cell location can round u a hair outside [0, h]; the pieces are
    # continuous, so clamping is value-neutral
    return min(max(u, 0.0), h)


def _eval_on_cell(grid: UniformKnotGrid, i: int, j: int, u: float) -> float:
    """Value of D_i at local coordinate u inside cell j = [x_{j-1}, x_j].

    Evaluation uses u = t - x_{j-1} rather than absolute coordinates so
    that wide or far-from-origin grids do not lose precision.
    """
    h = grid.h
    k, r = _decode(i)
    u = _local(u, h)
    if r == 1:
        if j == k - 1:          # rising piece on [x_{k-2}, x_{k-1}]
            return u**4 * (10.0 * h - 9.0 * u) / (4.0 * h**6)
        if j == k:              # decaying piece on [x_{k-1}, x_k]
            return (h - u) ** 5 / (4.0 * h**6)
        return 0.0
    if r == 2:
        if j == k - 1:
            return u**5 / (4.0 * h**6)
        if j == k:
            return (h - u) ** 4 * (h + 9.0 * u) / (4.0 * h**6)
        return 0.0
    if j != k:
        return 0.0
    if r == 3:                  # scaled Bernstein bumps, single-cell support
        return 10.0 * u**2 * (h - u) ** 3 / h**6
    return 10.0 * u**3 * (h - u) ** 2 / h**6


def _cell_shapes(grid: UniformKnotGrid, u: np.ndarray) -> np.ndarray:
    """The six basis functions alive on a cell at local coordinates u.

    Array form of ``_eval_on_cell`` with the same closed forms and the same
    clamping: entry [..., s] is D_{4j-3+s} on cell j, so the result has
    shape ``u.shape + (6,)``.
    """
    h = grid.h
    u = np.clip(u, 0.0, h)
    g = h - u
    return np.stack(
        [
            g**5 / (4.0 * h**6),                        # D_{4j-3}, decaying
            g**4 * (h + 9.0 * u) / (4.0 * h**6),        # D_{4j-2}, decaying
            10.0 * u**2 * g**3 / h**6,                  # D_{4j-1}
            10.0 * u**3 * g**2 / h**6,                  # D_{4j}
            u**4 * (10.0 * h - 9.0 * u) / (4.0 * h**6),  # D_{4j+1}, rising
            u**5 / (4.0 * h**6),                        # D_{4j+2}, rising
        ],
        axis=-1,
    )


def _locate(grid: UniformKnotGrid, points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """0-based cells and offsets of the points, placed as ``cell_of`` places
    them: in the cell on the right at an interior knot, in cell n at b.
    Every array audit places nodes here, once per rule.

    Raises
    ------
    ValueError
        If a point lies outside [a, b] (or is NaN).
    """
    if points.size and not (grid.a <= points.min() and points.max() <= grid.b):
        raise ValueError(f"points outside [{grid.a}, {grid.b}]")
    cells = np.floor((points - grid.a) / grid.h)
    np.clip(cells, 0, grid.n - 1, out=cells)
    offsets = points - (grid.a + cells * grid.h)
    return cells.astype(np.intp), offsets


def _by_row(rows: int, keys: np.ndarray, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """Each column regrouped into a zero-padded (rows, m) array.

    Row k holds, in their original order, the entries whose key is k; m is
    the most entries of one row.
    """
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    slots = np.arange(len(keys)) - np.searchsorted(keys, keys)
    m = int(slots.max()) + 1
    tables = np.zeros((len(columns), rows, m))
    for table, column in zip(tables, columns):
        table[keys, slots] = column[order]
    return tuple(tables)


def basis_eval(grid: UniformKnotGrid, i: int, t: float) -> float:
    """Evaluate the basis function D_i at a point t in [a, b].

    D_{4k-3} and D_{4k-2} are supported on [x_{k-2}, x_k] (two polynomial
    pieces); D_{4k-1} and D_{4k} live on the single cell [x_{k-1}, x_k].
    At an interior knot the two pieces agree (the basis is C1); evaluation
    uses the right piece there, and t = b uses the last cell.

    Raises
    ------
    ValueError
        If i is outside [1, 4n+2] or t outside [a, b].
    """
    _check_index(grid, i)
    j = grid.cell_of(t)
    return _eval_on_cell(grid, i, j, t - (grid.a + (j - 1) * grid.h))


def basis_integral(grid: UniformKnotGrid, i: int) -> float:
    """Integral of D_i over [a, b]: 1/24 for the outermost pair, 1/8 for the
    next pair in, 1/6 for every interior index. Independent of h."""
    _check_index(grid, i)
    if i == 1 or i == grid.dimension:
        return 1.0 / 24.0
    if i == 2 or i == grid.dimension - 1:
        return 1.0 / 8.0
    return 1.0 / 6.0


def _basis_integrals(grid: UniformKnotGrid) -> np.ndarray:
    """``basis_integral`` of every index, as one array of length 4n + 2."""
    out = np.full(grid.dimension, 1.0 / 6.0)
    out[[0, -1]] = 1.0 / 24.0
    out[[1, -2]] = 1.0 / 8.0
    return out


def blend_eval(grid: UniformKnotGrid, k: int, t: float) -> float:
    """The nonnegative blend 2*D_{4k+1} - 2*D_{4k+2} + D_{4k-1}/2 - D_{4k}
    on cell k.

    On [x_{k-1}, x_k] this combination is nonnegative and vanishes exactly
    at the cell midpoint (a double root); it is the certificate that rules
    with fewer than two nodes per cell cannot integrate the space.

    Only k = 1 .. n-1 is accepted: for larger k the participating indices
    no longer all have interior integrals, and the blend loses its meaning.
    """
    n = grid.n
    if not 1 <= k <= n - 1:
        raise ValueError(f"blend interval index {k} outside [1, {n - 1}]")
    x_lo = grid.a + (k - 1) * grid.h
    x_hi = grid.a + k * grid.h
    if not x_lo <= t <= x_hi:
        raise ValueError(f"point {t} outside cell [{x_lo}, {x_hi}]")
    u = t - x_lo
    return (
        2.0 * _eval_on_cell(grid, 4 * k + 1, k, u)
        - 2.0 * _eval_on_cell(grid, 4 * k + 2, k, u)
        + 0.5 * _eval_on_cell(grid, 4 * k - 1, k, u)
        - _eval_on_cell(grid, 4 * k, k, u)
    )


@dataclass(frozen=True)
class SplineCoefficients:
    """A spline written as sum_i c_i * D_i over a grid's basis."""

    grid: UniformKnotGrid
    c: np.ndarray

    def __post_init__(self) -> None:
        c = np.ascontiguousarray(self.c, dtype=float)
        if c.shape != (self.grid.dimension,):
            raise ValueError(
                f"coefficient vector must have length {self.grid.dimension}, "
                f"got shape {c.shape}"
            )
        c.setflags(write=False)
        object.__setattr__(self, "c", c)

    def value(self, t):
        """Evaluate the spline at t (only the six basis functions active on
        the containing cell contribute).

        t is a float or an ndarray of points.  An array is evaluated in one
        pass: the points are placed in cells as ``cell_of`` places them and
        the six shapes of each cell (``_cell_shapes``) are contracted with
        that cell's six coefficients, so ``apply_rule`` takes its array path.
        The array result equals the float one to a few ulps of
        sum |c_i D_i(t)|.

        Raises
        ------
        ValueError
            If t (any point of an array t) lies outside [a, b].
        """
        grid = self.grid
        if isinstance(t, np.ndarray):
            cells, u = _locate(grid, t)
            c = self.c[4 * cells[..., None] + np.arange(6)]
            return np.einsum("...s,...s->...", c, _cell_shapes(grid, u))
        j = grid.cell_of(t)
        u = t - (grid.a + (j - 1) * grid.h)
        lo = 4 * j - 3          # six active indices: 4j-3 .. 4j+2
        return math.fsum(
            self.c[i - 1] * _eval_on_cell(grid, i, j, u) for i in range(lo, lo + 6)
        )

    def exact_integral(self) -> float:
        """Integral by linearity: sum of c_i times the known basis integrals,
        summed as ``apply_rule`` sums its products (the correctly rounded
        sum of the double products, equal to their ``math.fsum``)."""
        from .quadrature import _fsum_products  # quadrature imports this module

        return _fsum_products(self.c, _basis_integrals(self.grid))
