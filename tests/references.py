"""Reference computations that only the tests use.

Each is an independent way to get a value the library computes another
way: composite Gauss-Legendre integrals with hard-coded nodes, the global
Peano kernel as one dense sum over the nodes, the two-nodes-per-cell
certificate of the basis, the cubic factor that the root-free check
examines, a rule document read back from its json, and the exact sum of
an array of doubles as an integer.
"""

import json
import math
import operator

import numpy as np

from splinequad.cli import RuleDocument
from splinequad.error_analysis import _CHUNK
from splinequad.grid_basis import UniformKnotGrid, _shapes
from splinequad.quadrature import QuadratureRule

# Gauss-Legendre abscissae/weights on [-1, 1].  Fixed constants rather
# than anything computed at run time, so the reference integrator shares
# no code path with the library under test.
_GL_POINTS = {
    3: (
        (-0.77459666924148338, 0.0, 0.77459666924148338),
        (0.55555555555555556, 0.88888888888888889, 0.55555555555555556),
    ),
    4: (
        (-0.86113631159405258, -0.33998104358485626,
         0.33998104358485626, 0.86113631159405258),
        (0.34785484513745386, 0.65214515486254614,
         0.65214515486254614, 0.34785484513745386),
    ),
    5: (
        (-0.90617984593866399, -0.53846931010568309, 0.0,
         0.53846931010568309, 0.90617984593866399),
        (0.23692688505618909, 0.47862867049936647, 0.56888888888888889,
         0.47862867049936647, 0.23692688505618909),
    ),
}

# The blend 2 D_{4k+1} - 2 D_{4k+2} + D_{4k-1}/2 - D_{4k} in the six shapes
# alive on cell k, D_{4k-3} .. D_{4k+2}.
_BLEND = (0.0, 0.0, 0.5, -1.0, 2.0, -2.0)


def gauss_legendre_between(f, breakpoints, points: int = 4) -> float:
    """Composite Gauss-Legendre over consecutive pairs of breakpoints.

    Exact (to rounding) for piecewise polynomials of degree 2*points - 1
    whose pieces break only at the given points.
    """
    if points not in _GL_POINTS:
        raise ValueError(f"supported point counts: {sorted(_GL_POINTS)}")
    xs, ws = _GL_POINTS[points]
    terms = []
    for lo, hi in zip(breakpoints[:-1], breakpoints[1:]):
        mid = 0.5 * (lo + hi)
        rad = 0.5 * (hi - lo)
        for x, w in zip(xs, ws):
            terms.append(rad * w * f(mid + rad * x))
    return math.fsum(terms)


def reference_integral(f, grid: UniformKnotGrid, points_per_cell: int = 4) -> float:
    """Integral of f over [a, b] by composite Gauss-Legendre on the cells.

    With the default 4 points per cell the result is exact through degree
    7 on each cell, strictly dominating the quintic pieces of any spline
    in the space.
    """
    if points_per_cell < 3:
        raise ValueError("need at least three points per cell")
    return gauss_legendre_between(f, grid.knots().tolist(), points_per_cell)


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
    u = min(max(t - x_lo, 0.0), grid.h)
    return math.fsum(map(operator.mul, _BLEND, _shapes(grid.h, u)))


def kernel_values(rule: QuadratureRule, ts: np.ndarray) -> np.ndarray:
    """The global form of ``peano_kernel`` at the points ts.

    Points go in blocks of at most ``_CHUNK`` (points x nodes) elements, so
    the temporaries stay bounded; each block takes only the nodes left of
    its largest point.  The cost is O(len(ts) * nodes) time.
    """
    s = rule.nodes - rule.grid.a
    rows = max(1, _CHUNK // len(s))
    out = np.empty(len(ts))
    for i in range(0, len(ts), rows):
        u = ts[i : i + rows] - rule.grid.a
        left = s < u.max()
        d = u[:, None] - s[left]
        np.clip(d, 0.0, None, out=d)
        out[i : i + rows] = u**6 / 720.0 - (d**5) @ rule.weights[left] / 120.0
    return out


def cubic_coefficients(state) -> tuple[float, float, float, float]:
    """Monomial coefficients (c0, c1, c2, c3) of the cubic factor paired
    with each unit cell's node quadratic, entered in the residue state
    (A, B): the cubic that ``oracle.cubic_rootfree_check`` tests for roots
    in the unit cell."""
    A, B = state.A, state.B
    return (-1.0, 4.0, 24.0 * B - 24.0 * A - 5.0, -216.0 * A - 24.0 * B + 2.0)


def rule_document_from_json(text: str) -> RuleDocument:
    """The ``RuleDocument`` whose ``to_json`` text is text."""
    return RuleDocument(**json.loads(text))


def exact_sum(values: np.ndarray) -> int:
    """The exact sum of the finite doubles values, as an integer count of
    2^-1074 (every double is one).

    Each value is m 2^(e - 53) with an integer m below 2^53 in magnitude
    (``np.frexp``); m's high and low parts, below 2^27, are summed per
    exponent by ``np.bincount`` in doubles, exactly while fewer than 2^26
    values share one, and the sums of the at most 2098 exponents are added
    as Python integers, counting 2^-1126.
    """
    assert len(values) < 1 << 26 and np.isfinite(values).all()
    m, e = np.frexp(values)
    m *= 2.0**53
    hi = np.floor(m * 2.0**-26)
    m -= hi * 2.0**26  # the low part, in [0, 2^26)
    e += 1073  # the exponent of 2^-1126, 0 for the smallest subnormal
    total = 0
    sums = zip(np.bincount(e, weights=hi).tolist(), np.bincount(e, weights=m).tolist())
    for k, (h, l) in enumerate(sums):
        if h or l:
            total += ((int(h) << 26) + int(l)) << k
    return total >> 52
