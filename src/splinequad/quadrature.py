"""Construction of the optimal quadrature rule for C1 quintic splines.

The rule has 2n + 1 nodes for n cells: generically two nodes strictly
inside every cell plus one node at the domain midpoint. Nodes and weights
come from a left-to-right recursion over the cells: a residue pair (A, B)
records how much of the integral of the two cell-spanning basis functions
is still uncollected, each cell contributes the two roots of a quadratic
whose coefficients are polynomial in (A, B), and the right half of the
rule is the mirror image of the left half.

The recursion converges quadratically toward the fixed residues
(29/240, 13/80), where the rule degenerates into the two-third pattern:
nodes at the knots with weight 7h/15 and at the cell midpoints with
weight 8h/15. The residues reach their double-precision plateau on
entering cell 5; from there on the true node offsets (below 1e-17 h) are
not representable relative to the knot coordinates, and exact two-third
cells are both the most accurate double-precision answer and O(1) work.

The recursion does not change under translation or scaling: the residues
do not depend on a or h, and a cell's node offsets and weights are h
times those of a unit cell. So the module runs it once, at import, on
cells of unit width, into one frozen record, ``TABLE``: the states
entering cells 1-5, the offsets and weights of the four prefix cells, and
the even and odd middle-cell closures for each state. The states, the
roots and the weights are checked there, once; the residual of the
middle-cell exactness system is audited independently, by
``oracle.middle_system_residual`` in ``splinequad check``. A build is then
``a + h * table``: prefix nodes (a + (k-1) h) + h * offset with weights
h * w, the two-third fill, the middle closure scaled by h, and the mirror
(a + b) - tau, or b - (tau - a) where a + b overflows. No power of h is
ever formed, so every span whose cells and nodes are representable
builds; on h = 1 grids the result is bit-identical to running the
recursion cell by cell. Each build still checks what rounding after the
scaling can break: nodes strictly increasing, weights positive, weights
summing to b - a, and the extreme nodes strictly inside (a, b).

That arithmetic is written once, row by row: row q of the left half lies
at (k h + a) + h off, k = q >> 1, with the weight h w (``_rows``), the
middle closure's rows are written by ``_middle``, and ``_mirror`` makes
the right half.  The unit rows (k, off, w) before the middle are the same
for every rule: the prefix cells, then the two-third fill.  So their first
``_TABLE_ROWS`` (4097) are a second read-only array, ``_ROWS``, made from
``TABLE`` at import, and a rule of n <= 4097 cells reads every such row
from it; only rows 4097 and beyond, on larger grids, make k from q and
(off, w) by parity.  build_rule writes a rule of one ``_BLOCK``
(n <= 32767) in one pass, and ``_flags`` and ``_verdict`` make its four
checks.  Two generators make the other rules' rows ``_BLOCK`` rows at a
time, cut at the same rows: ``_fill`` writes rows 0..n and their mirror
images into the two rows of build_rule's one block, and ``_spans`` makes
each span with ``_span`` (any run of rows, the same doubles), so that
``splinequad rule`` never holds the rule whole, whatever its n.  Both feed
one check, ``_check``, which takes each span while it is in cache and
carries across spans what ``_verdict`` decides from, so that every rule is
decided the same however it is split.

Rules are immutable once built; ``apply_rule`` is pure.  ``TABLE`` and
``_ROWS`` are computed once and never written afterwards, so builds share
no mutable state.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from ._fsum import _BLOCK, fsum_blocks
from .grid_basis import UniformKnotGrid

__all__ = [
    "ConstructionError",
    "ResidueState",
    "QuadratureRule",
    "UnitTable",
    "TABLE",
    "ARRAY_MIN_NODES",
    "CONVERGENCE_TOL",
    "LIMIT_KNOT_WEIGHT",
    "LIMIT_MIDPOINT_WEIGHT",
    "build_rule",
    "apply_rule",
]

# Cancellation floor for 1 - 24B + 24A (``ResidueState.converged``, which
# the cell solve and the odd middle closure both read).  The true quantity
# decays quadratically along the recursion: ~4e-8 at cell 4, ~6e-17 at
# cell 5, so anything below this threshold is rounding noise and the
# residues have reached their double precision plateau.
CONVERGENCE_TOL = 1e-13

# Per-unit-h weights of the two-third limit rule.
LIMIT_KNOT_WEIGHT = 7.0 / 15.0
LIMIT_MIDPOINT_WEIGHT = 8.0 / 15.0

# Rules with at least this many nodes first offer f their nodes as arrays
# (see apply_rule).  The array call pays a fixed cost (numpy dispatch per
# operation in f, and the errstate switch); the per-node loop pays per
# node.  On a 2-vCPU x86-64 VM (Python 3.11, numpy 2.4) they break even
# below 31 nodes for a rational 1/(1 + x^2) and, for a Horner quintic, at
# 33-35 when the VM runs fast (per node against array: 11.9 against 11.4
# us at 35 nodes, 12.3 against 11.2 at 37) and beyond 39 when it runs
# slow (17.7 against 19.3 us at 37).  The cut stays at 37.  A spline's
# ``value`` takes at most half its per-node time from 27 nodes on.
ARRAY_MIN_NODES = 37

# Slack for the residue inequality 2(4A - B) + 1/12 >= 1/6, which holds
# with equality at the first cell.
_RESIDUE_SLACK = 1e-14

_FLOAT64 = np.dtype(float)  # the one dtype object of native float64 arrays


class ConstructionError(ArithmeticError):
    """The node/weight recursion produced an invalid intermediate result.

    Carries the 1-based cell index at which construction failed, when known.
    """

    def __init__(self, message: str, interval: Optional[int] = None):
        if interval is not None:
            message = f"interval {interval}: {message}"
        super().__init__(message)
        self.interval = interval


@dataclass(frozen=True)
class ResidueState:
    """Residue pair (A, B) entering cell k.

    A and B are the portions of the integrals of the two basis functions
    spanning cells k-1 and k that the nodes of cell k-1 did not collect.
    """

    k: int
    A: float
    B: float

    def validate(self) -> None:
        """Check the inequalities every reachable state satisfies."""
        A, B = self.A, self.B
        if not 0.0 < A < B < 1.0 / 6.0:
            raise ConstructionError(
                f"residues out of range: A={A!r} B={B!r}", self.k
            )
        if not 16.0 * A > 5.0 * B:
            raise ConstructionError(
                f"residue inequality 16A > 5B violated: A={A!r} B={B!r}", self.k
            )
        if not 2.0 * (4.0 * A - B) + 1.0 / 12.0 >= 1.0 / 6.0 - _RESIDUE_SLACK:
            raise ConstructionError(
                f"residue lower bound violated: A={A!r} B={B!r}", self.k
            )

    @property
    def converged(self) -> bool:
        """True once 1 - 24B + 24A is below the double-precision floor."""
        return abs(1.0 - 24.0 * self.B + 24.0 * self.A) <= CONVERGENCE_TOL


@dataclass(frozen=True)
class QuadratureRule:
    """An immutable (2n+1)-node rule over a grid.

    Nodes are strictly increasing; weights are positive and sum to b - a;
    node i and node 2n+2-i mirror each other around the domain midpoint.
    Nodes and weights are read-only float64 copies of the arrays given
    (build_rule's rule holds its own read-only rows, not copied).
    """

    grid: UniformKnotGrid
    nodes: np.ndarray
    weights: np.ndarray

    def __post_init__(self) -> None:
        nodes, weights = _frozen(self.nodes), _frozen(self.weights)
        m = 2 * self.grid.n + 1
        if nodes.shape != (m,) or weights.shape != (m,):
            raise ValueError(f"rule over n={self.grid.n} cells needs {m} entries")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "weights", weights)

    def __len__(self) -> int:
        return self.nodes.shape[0]


def _frozen(x) -> np.ndarray:
    """A read-only float64 copy of x."""
    x = np.array(x, dtype=float)
    x.setflags(write=False)
    return x


def _solve_cell(state: ResidueState) -> tuple[float, float, float, float]:
    """Offsets and weights ``(r1, r2, w_lo, w_hi)`` of the unit cell entered
    in ``state``.

    The offsets are the roots of the node quadratic q0 + q1 x + q2 x^2,

        q0 = 1 - 24B + 24A,  q1 = 2 (12B + 108A - 1),
        q2 = 1 - 480A + 576A^2 + 576B^2 - 1152AB;

    the larger-magnitude root comes from the sign-safe formula and the
    other from the product of the roots, so neither suffers cancellation
    however q2 moves along the recursion.  The lower weight is recovered
    from the exactness equation for the left-spanning basis function,

        w_lo (1 - r1)^5 + w_hi (1 - r2)^5 = 4A,

    rather than from its closed form.  The two are algebraically identical,
    but the closed form divides the difference of two converging quantities
    by r1^2 and loses all precision once the offsets shrink below ~1e-8;
    the exactness form stays accurate to the last bit for every cell.  A
    state at the plateau gives the exact two-third cell.

    Raises ``ConstructionError`` if the discriminant is negative, a root
    leaves (0, 1), or a weight is not positive: all signs of corrupted
    residues.
    """
    if state.converged:
        return 0.0, 0.5, LIMIT_KNOT_WEIGHT, LIMIT_MIDPOINT_WEIGHT
    A, B = state.A, state.B
    q0 = 1.0 - 24.0 * B + 24.0 * A
    q1 = 2.0 * (12.0 * B + 108.0 * A - 1.0)
    q2 = 1.0 - 480.0 * A + 576.0 * A * A + 576.0 * B * B - 1152.0 * A * B
    disc = q1 * q1 - 4.0 * q2 * q0
    if disc < 0.0:
        raise ConstructionError(f"negative discriminant {disc!r} in the node quadratic", state.k)
    t = -0.5 * (q1 + math.copysign(math.sqrt(disc), q1))
    r_a, r_b = t / q2, q0 / t if t != 0.0 else 0.0
    r1, r2 = (r_a, r_b) if r_a <= r_b else (r_b, r_a)
    if not 0.0 < r1 < r2 < 1.0:
        raise ConstructionError(f"roots ({r1!r}, {r2!r}) outside the open cell (0, 1)", state.k)
    beta = 1.0 - r2
    w_hi = (1.0 - 2.0 * r1) / (60.0 * beta * beta * (1.0 - beta) ** 2 * (r2 - r1))
    w_lo = (4.0 * A - w_hi * beta**5) / (1.0 - r1) ** 5
    if not (w_lo > 0.0 and w_hi > 0.0):
        raise ConstructionError(f"nonpositive weight ({w_lo!r}, {w_hi!r})", state.k)
    return r1, r2, w_lo, w_hi


def _update_cell(
    state: ResidueState, r1: float, r2: float, w_lo: float, w_hi: float
) -> ResidueState:
    """Residues entering the next cell, from one cell's offsets and weights.

    Subtracts from 1/6 what the cell's nodes collect of the two basis
    functions spanning it and the next cell; the new state is validated
    and a violation raises ``ConstructionError``.
    """
    d5_lo = r1**4 * (10.0 - 9.0 * r1) / 4.0
    d5_hi = r2**4 * (10.0 - 9.0 * r2) / 4.0
    d6_lo = r1**5 / 4.0
    d6_hi = r2**5 / 4.0
    new = ResidueState(
        k=state.k + 1,
        A=1.0 / 6.0 - w_lo * d5_lo - w_hi * d5_hi,
        B=1.0 / 6.0 - w_lo * d6_lo - w_hi * d6_hi,
    )
    new.validate()
    return new


def _middle_even(state: ResidueState) -> float:
    """Weight of the node at the middle knot of an even grid, per unit h.

    The basis function centered on the middle knot spans the cells on both
    sides.  The left cell leaves A uncollected; the mirrored right cell
    collects 1/6 - B of it (reflection swaps the two spanning shapes), so
    the knot node, where the function's value is 1/4, must supply
    A - (1/6 - B).  Hence w = 4(A + B - 1/6).
    """
    w = 4.0 * (state.A + state.B - 1.0 / 6.0)
    if not w > 0.0:
        raise ConstructionError(f"nonpositive middle weight {w!r}", state.k)
    return w


def _middle_odd(state: ResidueState) -> tuple[float, float, float]:
    """Outer offset and the weights ``(r1, w_out, w_mid)`` of the three-node
    middle unit cell of an odd grid, entered in ``state``.

    The outer nodes sit at r1 and 1 - r1 with weight w_out each, the
    midpoint node has w_mid.  r1 is the lower root of c + 2p x - 2p x^2,
    obtained by eliminating the outer weight from the two closed forms the
    3x3 middle system reduces to: 1/2 - sqrt(p^2 + 2pc) / (2|p|).  The
    weights come from the closed forms

        w_out = p^2 / (30 d),    p = 108A + 12B - 1,  d = 156A - 36B + 1,
        w_mid = 4 (1152AB + 264A - 576A^2 - 576B^2 - 24B + 1) / (15 d),

    which stay well-conditioned for every reachable state.  Once the state
    has converged (c = 1 - 24B + 24A below the plateau floor), r1 is 0: the
    true offset is not representable next to the knot coordinates, and the
    outer nodes coincide with the cell's knots (matching the two-third
    limit).
    """
    A, B = state.A, state.B
    p = 108.0 * A + 12.0 * B - 1.0
    if state.converged:
        r1 = 0.0
    else:
        c = 24.0 * A - 24.0 * B + 1.0
        disc = p * p + 2.0 * p * c
        if disc < 0.0:
            raise ConstructionError(
                f"negative discriminant {disc!r} in the middle quadratic", state.k
            )
        r1 = 0.5 - math.sqrt(disc) / (2.0 * abs(p))
        if not 0.0 < r1 < 0.5:
            raise ConstructionError(f"middle offset {r1!r} outside (0, 1/2)", state.k)
    d = 156.0 * A - 36.0 * B + 1.0
    w_out = p * p / (30.0 * d)
    w_mid = (
        4.0
        * (1152.0 * A * B + 264.0 * A - 576.0 * A * A - 576.0 * B * B - 24.0 * B + 1.0)
        / (15.0 * d)
    )
    if not (w_out > 0.0 and w_mid > 0.0):
        raise ConstructionError(f"nonpositive weight ({w_out!r}, {w_mid!r})", state.k)
    return r1, w_out, w_mid


@dataclass(frozen=True)
class UnitTable:
    """The recursion run on cells of unit width.

    ``states`` are the states entering cells 1..P, P the first cell
    entered at the plateau; ``offsets`` and ``weights`` (read-only arrays)
    hold prefix cells 1..P-1, as (r1, r2) and (w_lo, w_hi) per cell.  For
    the state entering cell k + 1, ``middle_even[k]`` is the middle-knot
    weight of an even grid whose middle knot that cell starts at (NaN at
    k = 0, where no even grid has its middle), and ``middle_odd[k]`` the
    closure ``(r1, w_out, w_mid)`` of an odd grid whose middle is that cell.
    """

    states: tuple[ResidueState, ...]
    offsets: np.ndarray
    weights: np.ndarray
    middle_even: tuple[float, ...]
    middle_odd: tuple[tuple[float, float, float], ...]


def _unit_table() -> UnitTable:
    """Run the recursion once, from the first cell to the plateau."""
    # the first cell collects the full boundary integrals, 1/24 and 1/8
    state = ResidueState(k=1, A=1.0 / 24.0, B=1.0 / 8.0)
    state.validate()
    states = [state]
    offsets, weights = [], []
    while not state.converged:
        r1, r2, w_lo, w_hi = _solve_cell(state)
        offsets += (r1, r2)
        weights += (w_lo, w_hi)
        state = _update_cell(state, r1, r2, w_lo, w_hi)
        states.append(state)
    offsets, weights = np.array(offsets), np.array(weights)
    offsets.setflags(write=False)
    weights.setflags(write=False)
    return UnitTable(
        states=tuple(states),
        offsets=offsets,
        weights=weights,
        middle_even=(math.nan,) + tuple(map(_middle_even, states[1:])),
        middle_odd=tuple(map(_middle_odd, states)),
    )


TABLE = _unit_table()


def _layout(n: int) -> tuple[int, int, float | tuple[float, float, float]]:
    """``(half, p, middle)`` of the rule over n cells: left-half cells 1..p,
    p = min(n//2, 4), take the table's prefix cells, cells p+1..half = n//2
    are two-third cells, and ``middle`` is the closure ``TABLE.middle_even``
    or ``TABLE.middle_odd`` (by the parity of n) for the state entering p + 1.
    """
    half = n // 2
    p = min(half, len(TABLE.states) - 1)
    return half, p, (TABLE.middle_odd if n % 2 else TABLE.middle_even)[p]


# Rows in the unit-row table (_ROWS): the rows before the middle of every
# rule with n <= 4097 cells.  Small builds are mostly fixed cost: on a
# 2-vCPU x86-64 VM (Python 3.11, numpy 2.4), deriving the rows from their
# index took 8-10 us of a 20-35 us build at n = 4-200, reading them takes
# 4-6 us.  Reading is faster per row too (a table of 2^16 + 1 rows built
# n = 4098..16385 in 0.8 of the time, n = 65537 in the same time), but
# every process that imports the module holds the table, 24 bytes a row:
# 4097 rows keep it at 96 KiB and cover every rule the audits build.
_TABLE_ROWS = 4097


def _unit_rows() -> np.ndarray:
    """Read-only (k, off, w) of left-half rows 0 .. _TABLE_ROWS - 1 on the
    unit grid [0, n], n large: k = q >> 1, then ``TABLE``'s prefix offsets
    and weights, then the two-third rows' (0, 7/15) and (1/2, 8/15)."""
    rows = np.empty((3, _TABLE_ROWS))
    k, off, w = rows
    k[:] = np.arange(_TABLE_ROWS) >> 1
    p = len(TABLE.offsets)  # even: two rows per prefix cell
    off[:p], w[:p] = TABLE.offsets, TABLE.weights
    off[p::2], w[p::2] = 0.0, LIMIT_KNOT_WEIGHT
    off[p + 1 :: 2], w[p + 1 :: 2] = 0.5, LIMIT_MIDPOINT_WEIGHT
    rows.setflags(write=False)
    return rows


_ROWS = _unit_rows()
_K, _OFF, _W = _ROWS  # read-only views, each sliced in one operation


def build_rule(grid: UniformKnotGrid) -> QuadratureRule:
    """Construct the full 2n+1-node rule for a grid from ``TABLE``.

    The rule is the two rows of one read-only (2, 2n+1) block.  A rule of
    at most ``_BLOCK`` (65536) rows, n <= 32767, is written and checked in
    one pass: ``_rows`` and ``_middle`` write rows 0..n, ``_mirror`` the
    rest, and ``_flags`` and ``_verdict`` make the checks.  A larger one is
    written by ``_fill`` and checked by ``_check`` ``_BLOCK`` rows at a
    time, the rows of ``_spans``' spans: the build holds no full-length
    temporary, and the one allocation spares the page faults of two.

    Raises
    ------
    ConstructionError
        If rounding in the scaled coordinates breaks the rule: nodes not
        strictly increasing (h too small against ulp(|a|)), a weight not
        positive, weights not summing to b - a, or an extreme node not
        strictly inside (a, b).
    """
    n = grid.n
    block = np.empty((2, 2 * n + 1))
    nodes, weights = block[0], block[1]  # 0.4 us faster than unpacking
    if 2 * n < _BLOCK:
        half, _, middle = _layout(n)
        _rows(grid, 0, 2 * half, nodes, weights)
        _middle(grid, half, middle, 0, nodes, weights)
        _mirror(grid, nodes[n - 1 :: -1], nodes[n + 1 :])
        weights[n + 1 :] = weights[n - 1 :: -1]
        ordered, signed = _flags(nodes, weights)
        _verdict(grid, ordered, signed, (np.add.reduce(weights),), nodes[0], nodes[-1])
    else:
        _check(grid, _fill(grid, nodes, weights))
    block.setflags(write=False)
    # the rows are read-only float64 views of a read-only block already, so
    # the rule takes them without the constructor's copy-and-freeze pass
    rule = object.__new__(QuadratureRule)
    rule.__dict__.update(grid=grid, nodes=block[0], weights=block[1])
    return rule


def _fill(grid: UniformKnotGrid, nodes: np.ndarray, weights: np.ndarray) -> Iterator:
    """Write the rule over grid into nodes and weights, and yield the rows of
    each block of ``_BLOCK`` once written: ``_left``'s rows up to n, then
    the mirror images of rows n-1..0 (``_mirror``), written already."""
    n, m = grid.n, len(nodes)
    for lo in range(0, m, _BLOCK):
        hi = lo + _BLOCK if lo + _BLOCK < m else m
        # rows lo .. r - 1 are left-half rows
        r = n + 1 if lo <= n < hi else (lo if lo > n else hi)
        _left(grid, lo, nodes[lo:r], weights[lo:r])
        # row q >= n + 1 mirrors row 2n - q: rows 2n - r down to 2n + 1 - hi,
        # indexed from the end, where the last block's stop, -m - 1, is
        # before row 0
        _mirror(grid, nodes[-r - 1 : -hi - 1 : -1], nodes[r:hi])
        weights[r:hi] = weights[-r - 1 : -hi - 1 : -1]
        yield nodes[lo:hi], weights[lo:hi]


def _mirror(grid: UniformKnotGrid, tau: np.ndarray, out: np.ndarray) -> None:
    """Write the mirror images (a + b) - tau of the nodes tau into out (which
    may be tau), or b - (tau - a) where a + b overflows, as on [1e308, 1.7e308]."""
    a, b = grid.a, grid.b
    if math.isfinite(a + b):
        np.subtract(a + b, tau, out=out)
    else:
        np.subtract(b, tau - a, out=out)


def _span(grid: UniformKnotGrid, i: int, nodes: np.ndarray, weights: np.ndarray) -> None:
    """Write nodes and weights i .. i + len(nodes) - 1 of the rule over grid
    (at most 2n + 1 in all) into nodes and weights, the doubles of
    ``build_rule``: ``_left``'s rows up to n, and beyond them the mirror
    images of ``_left``'s rows, made last first and mirrored in place.
    """
    n = grid.n
    k = min(max(n + 1 - i, 0), len(nodes))  # the span's rows up to n
    _left(grid, i, nodes[:k], weights[:k])
    t = nodes[k:]
    _left(grid, 2 * n + 1 - i - len(nodes), t[::-1], weights[k:][::-1])
    _mirror(grid, t, t)


def _left(grid: UniformKnotGrid, lo: int, nodes: np.ndarray, weights: np.ndarray) -> None:
    """Write rows lo .. lo + len(nodes) - 1 of the left half and the middle
    (rows 0..n) into nodes and weights: ``_rows`` up to 2 (n//2), then
    ``_middle``'s rows."""
    half, _, middle = _layout(grid.n)
    _rows(grid, lo, min(lo + len(nodes), 2 * half), nodes, weights)
    _middle(grid, half, middle, lo, nodes, weights)


def _rows(grid: UniformKnotGrid, lo: int, hi: int, nodes: np.ndarray, weights: np.ndarray) -> None:
    """Write the prefix and two-third rows lo .. hi - 1 (hi <= 2 (n//2), none
    where hi <= lo) into the first hi - lo entries of nodes and weights.

    Row q lies at (k h + a) + h off, k = q >> 1, with the weight h w, from
    ``_layout``'s unit cells: ``TABLE``'s (off, w) on the prefix rows
    0..2p-1, then (0, 7/15) and (1/2, 8/15) on the even and odd two-third
    rows.  Rows below ``_TABLE_ROWS`` read (k, off, w) from ``_ROWS`` in
    four array operations; two-third rows beyond it, on grids of more than
    4097 cells, make k from q and (off, w) by parity.
    """
    a, h = grid.a, grid.h
    f = min(hi, _TABLE_ROWS)  # rows lo .. f - 1 from the table
    if lo < f:
        # h as a 0-d array, which a ufunc takes about 0.3 us faster than a
        # Python float (numpy 2.4): the same doubles
        hv = np.array(h)
        x = np.multiply(_K[lo:f], hv, out=nodes[: f - lo])
        x += a
        x += hv * _OFF[lo:f]
        np.multiply(_W[lo:f], hv, out=weights[: f - lo])
    s = max(lo, _TABLE_ROWS)  # two-third rows s .. hi - 1 beyond it
    if s < hi:
        # k = q >> 1 as the floor of exact halves: with no int-to-float
        # cast, 1.2-1.7x as fast as an int arange at n = 10^5..10^6
        x = np.floor(np.arange(0.5 * s, 0.5 * hi, 0.5), out=nodes[s - lo : hi - lo])
        x *= h
        x += a
        x[1 - s % 2 :: 2] += 0.5 * h
        y = weights[s - lo : hi - lo]
        y[s % 2 :: 2] = LIMIT_KNOT_WEIGHT * h
        y[1 - s % 2 :: 2] = LIMIT_MIDPOINT_WEIGHT * h


def _middle(
    grid: UniformKnotGrid, half: int, middle, lo: int, nodes: np.ndarray, weights: np.ndarray
) -> None:
    """Write those of the middle rows 2 (n//2) .. n that lie in lo ..
    lo + len(nodes) - 1 into nodes and weights, from ``_layout``'s half and
    closure: the knot x_{n//2} (even n), or the outer node of cell
    n//2 + 1 and the midpoint (odd n), their weights h w."""
    a, b, n, h = grid.a, grid.b, grid.n, grid.h
    knot = half * h + a
    if n % 2:
        r1, w_out, w_mid = middle
        mid = 0.5 * (a + b) if math.isfinite(a + b) else a + 0.5 * (b - a)
        rows = ((n - 1, knot + h * r1, w_out), (n, mid, w_mid))
    else:
        rows = ((n, knot, middle),)
    hi = lo + len(nodes)
    for q, t, w in rows:
        if lo <= q < hi:
            nodes[q - lo], weights[q - lo] = t, h * w


def _spans(grid: UniformKnotGrid, stop: Optional[int] = None) -> Iterator[
    tuple[np.ndarray, np.ndarray]
]:
    """Nodes and weights 0 .. stop - 1 of the rule over grid (all 2n + 1 by
    default), ``_BLOCK`` at a time, the rows of ``_fill``'s blocks: the
    rule, one span in memory at once.

    The nodes and weights of a span are the two rows of one block.  At
    n = 10^6 ``rule`` took 7200-7600, 7900-8600 and 10200-14900 minor page
    faults (table, csv, json) with these spans, against 22000-63000 with
    spans of 2^14, 3 * 2^14 or 2^15 rows: freeing a block of 1 MiB lifts
    glibc's mmap threshold to 1 MiB and its trim threshold to 2 MiB, above
    the padded text of a formatted chunk (under 1 MB) and its temporaries,
    which were otherwise mapped and unmapped, or trimmed from the heap,
    chunk after chunk.
    """
    stop = 2 * grid.n + 1 if stop is None else stop
    for i in range(0, stop, _BLOCK):
        nodes, weights = np.empty((2, min(_BLOCK, stop - i)))
        _span(grid, i, nodes, weights)
        yield nodes, weights


def _check(grid: UniformKnotGrid, spans: Iterable[tuple[np.ndarray, np.ndarray]]) -> None:
    """``ConstructionError`` for the first check that the rule over grid,
    the spans (``_fill``'s or ``_spans``') in order, fails: its nodes strictly
    increasing, its weights positive, their sum b - a, and its first and
    last node strictly inside (a, b).  Carried from span to span: the order
    across the span edges, the first node, and the sum of each span's
    weights, rounded once by ``math.fsum``.  Both generators cut the rule
    into the same spans of ``_BLOCK`` rows, so every decision is the same
    however the rule is made.
    """
    increasing = positive = True
    first = last = None
    sums = []
    for nodes, weights in spans:
        if first is None:
            first = nodes[0]
        else:
            increasing = increasing and last < nodes[0]
        sums.append(np.add.reduce(weights))
        ordered, signed = _flags(nodes, weights)
        increasing, positive = increasing and ordered, positive and signed
        last = nodes[-1]
    _verdict(grid, increasing, positive, sums, first, last)


def _flags(nodes: np.ndarray, weights: np.ndarray) -> tuple[bool, bool]:
    """Whether a span's nodes strictly increase, and its weights are all
    positive."""
    # count_nonzero skips the ufunc reduce machinery: about 1 us faster on a
    # short array, 4 us slower on a span of 2^17 nodes; minimum's reduce is
    # the ufunc's, not the ndarray method that calls it through Python
    return (
        np.count_nonzero(nodes[1:] > nodes[:-1]) == len(nodes) - 1,
        np.minimum.reduce(weights) > 0.0,
    )


def _verdict(grid: UniformKnotGrid, increasing, positive, sums, first, last) -> None:
    """``ConstructionError`` for the first of the four checks that failed:
    the nodes strictly increasing, the weights positive, the sums of their
    blocks summing to b - a (rounded once by ``math.fsum``), and the first
    and last node strictly inside (a, b)."""
    if not increasing:
        raise ConstructionError("nodes are not strictly increasing")
    if not positive:
        raise ConstructionError("weights are not all positive")
    span = grid.b - grid.a
    try:
        total = math.fsum(sums)
    except OverflowError:  # the exact sum is beyond the double range
        total = math.inf
    if abs(total - span) > 1e-12 * span:
        raise ConstructionError(
            f"weights sum to {total!r}, expected {span!r}"
        )
    if first <= grid.a or last >= grid.b:
        raise ConstructionError("extreme nodes must lie strictly inside (a, b)")


def apply_rule(
    rule: QuadratureRule, f: Callable[[np.ndarray | float], np.ndarray | float]
) -> float:
    """Apply the rule to a function: the sum of w_i * f(tau_i).

    Exact (to rounding) for any C1 quintic spline on the rule's grid, and
    for any quintic polynomial.  The result is the correctly rounded sum of
    the double products w_i * f(tau_i), equal to ``math.fsum`` of them bit
    for bit (its exceptions included), so the summation adds at most half
    an ulp of the result and exactness checks are not polluted by
    accumulation error.

    Calling convention: on a rule with at least ``ARRAY_MIN_NODES`` nodes,
    f is called with the nodes a block at a time: each block a read-only
    view of at most ``_BLOCK`` (65536) consecutive nodes.  A block's result
    is used when it is an ndarray of the block's shape whose dtype float64
    takes in (bool, integer, or float of at most 64 bits); its products are
    formed and reduced while in cache.
    In every other case, on any call of f (f raises,
    a floating-point error included: division by zero, overflow or an
    invalid operation such as the root of a negative number; or f returns
    a scalar, a list, another shape, or a complex or long double array),
    and always on smaller rules, f is called per node with Python floats
    (read from the arrays one at a time) over the whole rule and the
    products are formed as ``w * f(t)``;
    a complex product, numpy's complex scalars included, raises
    ``TypeError`` before f sees the next node.  A scalar-only f therefore
    works unchanged; an array-capable f should compute elementwise what it
    computes per node, whatever block a node comes in.

    On the array path f is called once per block on rules of at most 65536
    nodes.  On larger rules it is called once more per block where the
    first call cannot decide the sum: in practice a total near its
    rounding floor or exactly zero, or a product that is inf, nan or near
    overflow.  A refusal on that call sends f per node as on a first call,
    unless ``math.fsum`` has already raised ``OverflowError`` on the
    products before the refused block.  ``_fsum.fsum_blocks`` states how
    the sum is made and when it takes a second call.
    """
    nodes, weights = rule.nodes, rule.weights
    if len(nodes) >= ARRAY_MIN_NODES:
        try:
            return fsum_blocks(partial(_products, f, nodes, weights), len(nodes))
        except _Refused:
            pass
    products = map(operator.mul, _items(weights), map(f, _items(nodes)))
    return math.fsum(map(_real, products))


def _real(product):
    """A per-node product, refused with ``TypeError`` when it is complex.

    ``math.fsum`` raises ``TypeError`` for a Python complex, but takes a
    numpy complex scalar by its ``__float__``, which drops the imaginary
    part with only a warning.
    """
    if product.__class__ is not float and isinstance(product, np.complexfloating):
        raise TypeError(f"integrand value is complex: {product!r}")
    return product


class _Refused(Exception):
    """f gave no usable array (see ``_array_values``)."""


def _products(f: Callable, nodes: np.ndarray, weights: np.ndarray, lo: int) -> np.ndarray:
    """The products w * f(tau) of the block of ``_BLOCK`` nodes from lo,
    f's values taken by ``_array_values``."""
    return weights[lo : lo + _BLOCK] * _array_values(f, nodes[lo : lo + _BLOCK])


def _array_values(f: Callable, nodes: np.ndarray) -> np.ndarray:
    """f(nodes) when it is an ndarray shaped like nodes whose dtype float64
    takes in (``np.result_type`` of it and float64 is float64).  Else
    ``_Refused``, on any call of f, a second call on a block included:
    apply_rule then calls f per node over the whole rule, unless
    ``math.fsum`` has already raised ``OverflowError`` on the products of
    the blocks before (see ``_fsum.fsum_blocks``)."""
    try:
        # numpy would turn 1/0, overflow and sqrt(-1) into inf/nan with a
        # warning where Python floats raise; raising here sends such an f to
        # the per-node path, which then behaves as a per-node f always did
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            values = f(nodes.view())  # a view cannot be made writable again
    except Exception:  # scalar-only f; the per-node calls report real errors
        values = None
    if (
        isinstance(values, np.ndarray)
        and values.shape == nodes.shape
        and (values.dtype is _FLOAT64 or np.can_cast(values.dtype, np.float64))
    ):
        return values
    raise _Refused


def _items(values: np.ndarray) -> Iterable:
    """The elements of a 1-d array as ``values.tolist()`` gives them, made
    one at a time by iterating a memoryview: no list of Python objects is
    ever held, and a short array costs no more than its ``tolist``."""
    return memoryview(values)
