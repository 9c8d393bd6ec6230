"""Peano kernel and error constant of the quintic-spline rule.

For integrands with six derivatives the quadrature remainder is

    I[f] - Q[f] = integral of K6(t) f''''''(t) dt,

where K6 is the rule's sixth-order Peano kernel.  For these rules K6 is
nonnegative on (a, b) and vanishes at every knot, so the remainder equals
c * f'''''' (xi) with a positive constant c: the integral of the kernel.

The kernel has two forms.  The global form, ``peano_kernel``, is the
definition: (t-a)^6/720 minus the weighted truncated powers of every node
left of t.  It holds for any rule, but its terms are of size (b-a)^6
while K6 is of size h^6.  The local form, used for the samples of
``kernel_profile``, subtracts from the truncated power at t the C1 spline
that equals it outside t's cell; a rule exact on the spline space
integrates that spline exactly, so only the nodes of t's cell remain.
It costs O(1) per sample and its terms are of size h^6, like K6, but it
is the kernel only if the rule is exact.  So the knot check of
``kernel_profile`` keeps the global form, which needs no such assumption.

The constant has the same two forms.  By definition c = ((b-a)^7/7 -
Q[(t-a)^6]) / 720, a difference of two terms of size (b-a)^7 while c is
of size h^6 (b-a): in double precision it cancels to noise (0.0 on
[0, 1] from n ~ 1000).  ``error_constant`` uses the local form instead,
the monospline view of Micchelli & Pinkus (SIAM J. Math. Anal. 8, 1977):
with u the offset of t in its cell in units of h and g(u) = u^3 (u-1)^3,
(t-a)^6 - h^6 g(u) is a C2 piecewise quintic, which the rule integrates
exactly, so c = h^7 (-n/140 - sum (w/h) g(u)) / 720.  Every term is of
size h, no power of b - a is formed, and like the kernel samples it is
the constant of a rule exact on the spline space (``exactness_report``
checks that).

Pure functions over immutable rules; safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid_basis import _cell_table
from .quadrature import _CHUNK, ConstructionError, QuadratureRule

__all__ = [
    "PeanoProfile",
    "peano_kernel",
    "kernel_profile",
    "error_constant",
    "remainder_bound",
]


@dataclass(frozen=True)
class PeanoProfile:
    """Sampled kernel: ``samples[j] = (t_j, K6(t_j))`` in increasing t."""

    rule: QuadratureRule
    samples: np.ndarray

    def __post_init__(self) -> None:
        samples = np.ascontiguousarray(self.samples, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise ValueError("samples must be an (m, 2) array of (t, K6) pairs")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)


def peano_kernel(rule: QuadratureRule, t: float) -> float:
    """Kernel value K6(t) = (t-a)^6/720 - sum_k w_k (t - tau_k)_+^5 / 120.

    The truncated power (u)_+^5 is max(u, 0)^5 and evaluates to 0 at u = 0
    (the kernel is C4, so the choice at the kink is immaterial).  All
    powers are taken of differences from a, which keeps magnitudes bounded
    by (b-a)^6 regardless of where the interval sits on the axis.

    Raises
    ------
    ValueError
        If t lies outside [a, b].
    """
    grid = rule.grid
    if not grid.a <= t <= grid.b:
        raise ValueError(f"point {t} outside [{grid.a}, {grid.b}]")
    u = t - grid.a
    terms = [
        w * (u - s) ** 5
        for s, w in zip((rule.nodes - grid.a).tolist(), rule.weights.tolist())
        if u > s
    ]
    return u**6 / 720.0 - math.fsum(terms) / 120.0


def _kernel_values(rule: QuadratureRule, ts: np.ndarray) -> np.ndarray:
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


def _cell_kernel_values(
    h: float, v: np.ndarray, s: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """The local form of K6 at offsets v into a cell of width h.

    Row i of s and w holds the node offsets and weights of the cell that
    v[i] lies in.  With g(s) = (v - s)_+^5 - H(s), where H is the cubic
    Hermite piece with value v^5 and slope -5v^4 at s = 0 and value and
    slope 0 at s = h, K6 = (integral of g over the cell - sum of w g(s))
    / 120, and the integral is v^6/6 - v^5 h/2 + 5 v^4 h^2/12.
    """
    v2 = v[:, None]
    r = s / h
    hermite = (1.0 - r) ** 2 * v2**4 * (v2 * (1.0 + 2.0 * r) - 5.0 * s)
    g = np.clip(v2 - s, 0.0, None) ** 5 - hermite
    integral = v**4 * (v * v / 6.0 - v * h / 2.0 + 5.0 * h * h / 12.0)
    return (integral - np.einsum("ij,ij->i", w, g)) / 120.0


def kernel_profile(rule: QuadratureRule, samples_per_cell: int = 1000) -> PeanoProfile:
    """Sample the kernel on a uniform grid of samples_per_cell points per cell.

    Samples use the local form.  For t in cell j the truncated power
    (t - x)_+^5 equals, outside cell j, a C1 spline that is the cubic
    Hermite piece on cell j (see ``_cell_kernel_values``).  The rule
    integrates that spline exactly, so only cell j's nodes enter K6(t):
    each sample costs O(1) time and memory, and no term larger than h^6
    cancels.  The local form equals the kernel only for a rule that is
    exact on the spline space.

    The profile is validated before it is returned: the kernel must be
    nonnegative up to rounding and must vanish at every knot.  The knot
    check evaluates the global form (``peano_kernel``, in blocks of knots,
    O(n^2) time in bounded memory), which assumes nothing about the rule,
    so a rule that fails to integrate the truncated powers at the knots is
    rejected.  The thresholds scale with (b-a)^6, plus a term for
    node-coordinate rounding (nodes stored far from the origin carry
    offsets only to ulp(|a|), which perturbs the kernel by up to
    ~(b-a)^5 * ulp(|a|) / 24).  On unit intervals near the origin they
    reduce to the bare 1e-15 / 1e-14 floors.

    Raises
    ------
    ValueError
        If samples_per_cell < 2 or a node lies outside [a, b].
    OverflowError
        If (b-a)^6 leaves the double range (b - a above about 1e51), before
        any sample is computed.
    ConstructionError
        If a sample is more negative, or a knot value larger, than the
        double-precision evaluation of a valid kernel allows.
    """
    if samples_per_cell < 2:
        raise ValueError("need at least two samples per cell")
    grid = rule.grid
    span = grid.b - grid.a
    # span**6 raises OverflowError where the kernel's terms would overflow
    scale = max(1.0, span**6)
    placement = span**5 * max(abs(grid.a), abs(grid.b), 1.0) * 2e-17
    ts = np.linspace(grid.a, grid.b, samples_per_cell * grid.n + 1)
    cells = np.minimum(np.arange(len(ts)) // samples_per_cell, grid.n - 1)
    offsets, weights = _cell_table(grid, rule.nodes, rule.weights)
    v = ts - (grid.a + cells * grid.h)
    vals = _cell_kernel_values(grid.h, v, offsets[cells], weights[cells])
    if vals.min() < -(1e-15 * scale + placement):
        raise ConstructionError(f"kernel dips to {vals.min()!r}")
    knot_vals = _kernel_values(rule, grid.knots())
    if np.max(np.abs(knot_vals)) > 1e-14 * scale + placement:
        raise ConstructionError(
            f"kernel fails to vanish at a knot: {np.max(np.abs(knot_vals))!r}"
        )
    return PeanoProfile(rule=rule, samples=np.column_stack([ts, vals]))


def error_constant(rule: QuadratureRule) -> float:
    """The remainder constant c, with I[f] - Q[f] = c f''''''(xi) for f in C6.

    By definition c = ((b-a)^7/7 - Q[(t-a)^6]) / 720: the rule
    underestimates the integral of (t - a)^6 by 720 c.  That difference
    cancels in double precision, so c is taken in the local form (see the
    module docstring): with x = (tau - a)/h, u = x - floor(x) and
    p = u (u - 1) at every node,

        c = h^7 (-n/140 - sum (w/h) p^3) / 720.

    A two-third cell (7h/15 at its knot, 8h/15 at its midpoint, where
    p^3 = -1/64) gives h^7/604800, so c is about (b-a) h^6 / 604800.
    Every w p^3 is <= 0 and g vanishes with two derivatives at u = 0 and
    u = 1, so a node on a knot counts the same from either cell and the
    sum cancels nothing beyond the factor 7 between n/120 and n/140.  The
    local form assumes the rule is exact on the spline space, as every
    built rule is; ``exactness_report`` checks that assumption.

    The nodes go in blocks of ``_CHUNK``, so the extra memory does not
    grow with n.  The power of two of h^7 is applied last, by ``ldexp``:
    c raises ``OverflowError`` only where it exceeds the double range, and
    is 0.0 only where it lies below the smallest subnormal double (on
    [0, 1e-45] with n = 3, say).
    """
    grid = rule.grid
    s = 0.0
    for start in range(0, len(rule), _CHUNK):
        x = (rule.nodes[start : start + _CHUNK] - grid.a) / grid.h
        u = x - np.floor(x)
        p = u * (u - 1.0)
        s += float(np.dot(rule.weights[start : start + _CHUNK], p * p * p))
    total = -grid.n / 140.0 - s / grid.h
    m, e = math.frexp(grid.h)  # h = m 2^e with 1/2 <= m < 1
    return math.ldexp(m**7 * total / 720.0, 7 * e)


def remainder_bound(rule: QuadratureRule, m6: float) -> float:
    """Bound |I[f] - Q[f]| <= c * M6 for any f in C6 with |f''''''| <= M6.

    c is positive wherever it is at least the smallest normal double, so
    the bound is positive for every M6 > 0 there; it is 0.0 only where c
    underflows (see ``error_constant``) or M6 is 0.
    """
    if m6 < 0.0:
        raise ValueError(f"derivative bound must be nonnegative, got {m6}")
    return error_constant(rule) * m6
