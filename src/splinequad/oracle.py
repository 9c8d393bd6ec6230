"""Independent brute-force checks for the quadrature construction.

Everything here deliberately avoids the recursion it is used to audit:
the basis audits evaluate the closed-form basis shapes of ``grid_basis``
at the nodes, random splines come from a counter-based generator with
documented constants, and the cubic-factor check from direct sign
analysis on monotone pieces.  That check and the odd middle system run
on the unit cell and take no width: the recursion is free of h.  The
composite Gauss-Legendre reference integrator, which only the tests use,
lives with them (``tests/references.py``).  All functions are pure;
audits over many grid sizes can run concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid_basis import (
    _END_INTEGRALS,
    _SIX,
    SplineCoefficients,
    UniformKnotGrid,
    _cell_shapes,
    _locate,
    _record,
    make_grid,
)
from .quadrature import QuadratureRule, ResidueState

__all__ = [
    "ExactnessReport",
    "random_spline",
    "exactness_report",
    "limit_rule_deviation",
    "middle_system_residual",
    "cubic_rootfree_check",
]

# SplitMix64: additive constant and finalizer multipliers.
_SM64_GAMMA = 0x9E3779B97F4A7C15
_SM64_M1 = 0xBF58476D1CE4E5B9
_SM64_M2 = 0x94D049BB133111EB
_U64 = (1 << 64) - 1

# Nodes that exactness_report places, shapes and adds at a time.  A block's
# temporaries take about 0.4 MiB: with a byte of node count per cell, the
# report holds 1.3 MiB beyond its 4n + 2 sums at n = 10^6 (tracemalloc).
_REPORT_BLOCK = 1 << 11
_ONES = np.ones(_REPORT_BLOCK, np.uint8)  # a node apiece, for the counts


@dataclass(frozen=True)
class ExactnessReport:
    """Result of auditing one rule against its whole basis."""

    n: int
    max_basis_residual: float
    worst_index: int
    per_interval_node_counts: tuple[int, ...]


def random_spline(grid: UniformKnotGrid, seed: int) -> SplineCoefficients:
    """Deterministic pseudo-random coefficients in [-1, 1].

    Coefficient i is 2*u - 1 where u is the top 53 bits of the i-th
    SplitMix64 output divided by 2^53.  The stream is drawn in unsigned
    64-bit integer arithmetic, which wraps modulo 2^64 as the generator
    does, so every platform reproduces the same vector bit for bit.
    """
    x = np.arange(1, grid.dimension + 1, dtype=np.uint64)
    x *= np.uint64(_SM64_GAMMA)
    # int(): a numpy integer seed (from rng.integers, say) overflows the mask
    x += np.uint64(int(seed) & _U64)
    x ^= x >> 30
    x *= np.uint64(_SM64_M1)
    x ^= x >> 27
    x *= np.uint64(_SM64_M2)
    x ^= x >> 31
    # 2 (u 2^-53) - 1 = u 2^-52 - 1 for the top 53 bits u: the scalings are exact
    c = (x >> 11).astype(float)
    c *= 2.0**-52
    c -= 1.0
    c.setflags(write=False)
    return _record(SplineCoefficients, grid=grid, c=c)


def _counted_cells(grid: UniformKnotGrid, cells: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The cell each node counts toward, from the cells and offsets of
    ``_locate``: a node whose offset lies within rounding of h (mirror
    arithmetic can shave a bit off a knot node) counts toward the next
    cell, and the last cell is closed on the right."""
    scale = abs(grid.a) + abs(grid.b) + (grid.b - grid.a)
    return np.minimum(cells + (grid.h - offsets <= 4e-16 * scale), grid.n - 1)


def _node_counts(grid: UniformKnotGrid, cells: np.ndarray, offsets: np.ndarray) -> tuple[int, ...]:
    """Nodes per cell (``_counted_cells``) of all of a rule's nodes at once."""
    return tuple(np.bincount(_counted_cells(grid, cells, offsets), minlength=grid.n).tolist())


def exactness_report(rule: QuadratureRule) -> ExactnessReport:
    """Worst basis-integration residual of a rule, plus its node layout.

    The audit runs per node, in one loop over blocks of ``_REPORT_BLOCK``
    (2048) nodes in the rule's order.  Each block is placed in cells once
    (``_locate``, as ``basis_eval`` places a point), for the residual and
    the node counts alike; each weight times the six basis functions alive
    at its node's offset (``_cell_shapes``) is added by ``np.add.at`` at
    index 4 (cell - 1) + s into the 4n + 2 quadrature values, and the
    block's nodes are added to the counts.  The values are compared with
    the basis integrals (``basis_integral``) in place; the worst index is
    the first with the largest residual.  The node counts use the
    half-open convention [x_{j-1}, x_j), a node within rounding below a
    knot counted to its right, the last cell closed.

    Cost O(1) per node.  Memory beyond the rule: the 4n + 2 sums, a byte
    of node count per cell and one block's temporaries (about 0.4 MiB), so
    within 2 MiB of the sums.  A rule of up to 2048 nodes is one block.  On
    a 2-vCPU x86-64 VM (numpy 2.4), at n = 10^6 on [0, 1] the report took
    0.15-0.21 s with a traced peak of 31.9 MiB; holding every node's six
    products and indices at once took 0.35-0.48 s and 244 MiB.  A count that reaches 256 wraps its
    byte; a rule with such a cell is counted again over all of its nodes
    at once, at 8 bytes per cell.

    Raises
    ------
    ValueError
        If a node lies outside [a, b], where the basis is not defined, or
        the cells are too narrow or too wide for the basis shapes
        (``grid_basis._shapes``).
    """
    grid = rule.grid
    nodes, weights = rule.nodes, rule.weights
    q = np.zeros(grid.dimension)
    counts = np.zeros(grid.n, np.uint8)
    for lo in range(0, len(nodes), _REPORT_BLOCK):
        cells, offsets = _locate(grid, nodes[lo : lo + _REPORT_BLOCK])
        np.add.at(counts, _counted_cells(grid, cells, offsets), _ONES[: len(cells)])
        products = _cell_shapes(grid, offsets)
        products *= weights[lo : lo + _REPORT_BLOCK]
        np.add.at(q, (4 * cells + _SIX).ravel(), products.ravel())
    # the residuals |q - basis integrals|, in place
    q[:2] -= _END_INTEGRALS
    q[2:-2] -= 1.0 / 6.0
    q[-2:] -= _END_INTEGRALS[::-1]
    np.abs(q, out=q)
    worst = int(q.argmax())
    residual = float(q[worst])
    del q  # before the counts' list and tuple, 16 bytes per cell
    node_counts = tuple(counts.tolist())
    if sum(node_counts) != len(nodes):  # a count of 256 or more wrapped around
        node_counts = _node_counts(grid, *_locate(grid, nodes))
    return ExactnessReport(
        n=grid.n,
        max_basis_residual=residual,
        worst_index=worst + 1,
        per_interval_node_counts=node_counts,
    )


def limit_rule_deviation(rule: QuadratureRule) -> np.ndarray:
    """Per-node distance from the two-third limit pattern.

    Returns an array of shape (2n+1, 2): column 0 is the distance from the
    node to the nearest knot or cell midpoint (whichever is closer),
    column 1 the distance from its weight to the matching limit weight
    (7h/15 at knots, 8h/15 at midpoints).
    """
    grid = rule.grid
    h = grid.h
    pos = (rule.nodes - grid.a) / h
    near_knot = np.abs(pos - np.round(pos)) * h
    near_mid = np.abs(pos - 0.5 - np.round(pos - 0.5)) * h
    is_knot = near_knot <= near_mid
    node_dev = np.where(is_knot, near_knot, near_mid)
    target = np.where(is_knot, 7.0 * h / 15.0, 8.0 * h / 15.0)
    weight_dev = np.abs(rule.weights - target)
    return np.column_stack([node_dev, weight_dev])


def middle_system_residual(
    A: float, B: float, alpha: float, w_out: float, w_mid: float
) -> tuple[float, float, float]:
    """Residuals of the three exactness equations of an odd middle cell.

    The candidate solution places outer nodes at offsets alpha and
    1 - alpha with weight w_out each and the midpoint node with w_mid;
    the equations demand that those nodes collect A, B and 1/6 of the
    three basis functions alive there: the two spanning it and the cell
    before it, and one of its own two bumps (the other is its mirror
    image).  They are evaluated with the basis shapes of the one-cell grid
    [0, 1], not with the closed forms the recursion solves; the recursion
    is free of h (``quadrature.TABLE``), so the unit cell stands for all.
    """
    shapes = _cell_shapes(make_grid(0.0, 1.0, 1), np.array([alpha, 0.5, 1.0 - alpha]))
    q = shapes @ np.array([w_out, w_mid, w_out])
    return float(q[0] - A), float(q[1] - B), float(q[2] - 1.0 / 6.0)


def cubic_rootfree_check(state: ResidueState) -> bool:
    """True iff the cubic factor has no root in the unit cell [0, 1].

    The cubic factor paired with each unit cell's node quadratic is
    c0 + c1 t + c2 t^2 + c3 t^3, with c0 = -1, c1 = 4, c2 = 24B - 24A - 5
    and c3 = 2 - 216A - 24B (on a cell of width h the factor is h^3 times
    this one at t/h).  It is split at the real critical points of its
    derivative (a quadratic, solved in closed form); on each resulting
    monotone piece a root exists iff the endpoint values change sign or hit
    zero, so the check is exact up to endpoint evaluation.  Valid states
    always yield True; the factor never contributes nodes.
    """
    A, B = state.A, state.B
    c0, c1, c2, c3 = -1.0, 4.0, 24.0 * B - 24.0 * A - 5.0, -216.0 * A - 24.0 * B + 2.0

    def p(t: float) -> float:
        return ((c3 * t + c2) * t + c1) * t + c0

    cuts = [0.0, 1.0]
    qa, qb, qc = 3.0 * c3, 2.0 * c2, c1
    disc = qb * qb - 4.0 * qa * qc
    if qa != 0.0 and disc >= 0.0:
        t = -0.5 * (qb + math.copysign(math.sqrt(disc), qb))
        for r in (t / qa, qc / t if t != 0.0 else None):
            if r is not None and 0.0 < r < 1.0:
                cuts.append(r)
    cuts.sort()
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        f_lo, f_hi = p(lo), p(hi)
        if f_lo == 0.0 or f_hi == 0.0 or (f_lo < 0.0) != (f_hi < 0.0):
            return False
    return True
