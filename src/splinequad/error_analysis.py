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
integrates that spline exactly, so only the nodes of t's cell remain,
and they enter through two numbers per cell and their own truncated
powers (``_cell_kernel``).  It costs O(1) per sample and its
terms are of size h^6, like K6, but it is the kernel only if the rule is
exact.  So the knot check of
``kernel_profile`` keeps the global form, which needs no such assumption.
It runs in O(n log n) time all the same: every knot lies a whole number
of cells from a, so the nodes enter through six moments per cell about
the cell's right knot, and one doubling scan of ceil(log2 n) steps
carries them to every later knot by a binomial shift whose terms are
all positive.
A profile takes at most ``MAX_KERNEL_SAMPLES`` samples and refuses a
larger request before it allocates anything.

The constant has the same two forms.  By definition c = ((b-a)^7/7 -
Q[(t-a)^6]) / 720, a difference of two terms of size (b-a)^7 while c is
of size h^6 (b-a): in double precision it cancels to noise (0.0 on
[0, 1] from n ~ 1000).  ``error_constant`` uses the local form instead,
the monospline view of Micchelli & Pinkus (SIAM J. Math. Anal. 8, 1977):
with u the offset of t in its cell in units of h and g(u) = u^3 (u-1)^3,
(t-a)^6 - h^6 g(u) is a C2 piecewise quintic, which the rule integrates
exactly, so c = h^7 (-n/140 - sum (w/h) g(u)) / 720.  The unit cells of
``quadrature.TABLE`` give the sum in O(1), with no stored node read, and
like the kernel samples it is the constant of a rule exact on the spline
space, as every built rule is (``exactness_report`` checks that).

Pure functions over immutable rules; safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid_basis import UniformKnotGrid, _by_row, _locate
from .quadrature import TABLE, ConstructionError, QuadratureRule, _layout

__all__ = [
    "PeanoProfile",
    "peano_kernel",
    "kernel_profile",
    "error_constant",
    "remainder_bound",
    "MAX_KERNEL_SAMPLES",
]

# The most samples (samples_per_cell * n + 1) one kernel profile takes; see
# kernel_profile for the memory it bounds.
MAX_KERNEL_SAMPLES = 1 << 22

# Element budget of the kernel samples' blocked array temporaries.
_CHUNK = 1 << 16

# C(k, i) at [k, i] and the power k - i that goes with it, for i <= k;
# zero above the diagonal
_BINOMIAL = np.array([[math.comb(k, i) for i in range(6)] for k in range(6)], dtype=float)
_BINOMIAL_ORDER = np.maximum(np.subtract.outer(np.arange(6), np.arange(6)), 0)


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


def _knot_values(rule: QuadratureRule, cells: np.ndarray) -> np.ndarray:
    """The global form of ``peano_kernel`` at the n + 1 knots, in
    O(n log n) time.

    Knot j lies at u_j = j h from a.  Row j of an (n + 1, 6) table starts
    as the moments M_k = sum w d^k, k = 0..5, of the nodes of cell j - 1
    (``grid_basis._locate``) about u_j, with d = u_j - (tau - a) (at
    least 0); row 0 is empty.  Moments move from one knot to a knot L
    further right by the binomial shift
    M_k(o + L) = sum_i C(k, i) L^(k-i) M_i(o), whose terms are all
    positive for positive weights, so the carry cancels nothing.
    A doubling scan (Hillis & Steele) runs ceil(log2 n) steps: at step s
    = 1, 2, 4, ... every row j > s adds row j - s shifted by s h, so that
    row j then holds the moments of the nodes of cells j - 2s .. j - 1.
    At the end it holds those of every node left of u_j, and

        K6(u_j) = u_j^6 / 720 - M_5(u_j) / 120.

    This is the global form regrouped, with no assumption that the rule
    is exact, and it equals ``peano_kernel`` at each knot up to rounding.
    Besides the result it holds two (n + 1, 6) tables at once.
    """
    grid = rule.grid
    n, h = grid.n, grid.h
    d = np.maximum((cells + 1) * h - (rule.nodes - grid.a), 0.0)
    moments = np.zeros((n + 1, 6))
    wd = rule.weights
    for k in range(6):
        moments[1:, k] = np.bincount(cells, wd, minlength=n)
        wd = wd * d
    del d, wd  # the scan, where this check peaks, needs the moments only
    step = 1
    while step < n:
        moments[1 + step :] += moments[1:-step] @ _shift(step * h).T
        step *= 2
    u = np.arange(n + 1) * h
    return u**6 / 720.0 - moments[:, 5] / 120.0


def _shift(length: float) -> np.ndarray:
    """The matrix S that moves the moments M_0..M_5 about o to moments
    about o + length: (S M)_k = sum_i C(k, i) length^(k-i) M_i, every entry
    nonnegative for a nonnegative length."""
    return (length ** np.arange(6))[_BINOMIAL_ORDER] * _BINOMIAL


def _cell_kernel(
    h: float, v: np.ndarray, s: np.ndarray, w: np.ndarray
) -> np.ndarray:
    """The local form of K6 at the offsets v (c, k) of c cells of width h.

    Row j of s and w (c, m) holds the node offsets and weights of the cell
    that row j of v lies in.  Outside the cell, (v - s)_+^5 as a function
    of s is a C1 spline whose piece on the cell is the cubic Hermite piece
    with value v^5 and slope -5v^4 at s = 0, value and slope 0 at s = h.
    The rule integrates that spline exactly, and the piece is linear in
    the nodes, so with r = s/h

        120 K6 = v^4 (v^2/6 + alpha v + beta) - sum w (v - s)_+^5,
        alpha = sum w (1 - r)^2 (1 + 2r) - h/2,
        beta = 5h^2/12 - 5 sum w (1 - r)^2 s,

    with alpha and beta once per cell (``_alpha_beta``).
    """
    alpha, beta = _alpha_beta(h, s, w)
    out = (v / 6.0 + alpha) * v + beta
    out *= (v * v) ** 2
    for sm, wm in zip(s.T, w.T):
        d = np.maximum(v - sm[:, None], 0.0)
        out -= (d * d) ** 2 * d * wm[:, None]
    out /= 120.0
    return out


def _alpha_beta(h: float, s: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """alpha and beta of ``_cell_kernel`` for the cells whose node
    offsets and weights are the rows of s and w, as (c, 1) columns; 7h/30
    and h^2/12 on a two-third cell (7h/15 at 0, 8h/15 at h/2)."""
    r = s / h
    q = w * (1.0 - r) ** 2
    alpha = np.sum(q * (1.0 + 2.0 * r), axis=1, keepdims=True) - h / 2.0
    beta = 5.0 * h * h / 12.0 - 5.0 * np.sum(q * s, axis=1, keepdims=True)
    return alpha, beta


def _local_samples(
    rule: QuadratureRule, samples_per_cell: int, cells: np.ndarray, offsets: np.ndarray
) -> np.ndarray:
    """(t, K6) at samples_per_cell uniform points per cell and at b, in the
    local form, as one (samples_per_cell * n + 1, 2) array; cells and
    offsets place the rule's nodes (see ``grid_basis._locate``)."""
    grid = rule.grid
    samples = np.empty((samples_per_cell * grid.n + 1, 2))
    samples[:, 0] = np.linspace(grid.a, grid.b, len(samples))
    s, w = _by_row(grid.n, cells, offsets, rule.weights)
    t = samples[:-1, 0].reshape(grid.n, samples_per_cell)
    vals = samples[:-1, 1].reshape(grid.n, samples_per_cell)
    left = grid.a + np.arange(grid.n) * grid.h
    rows = max(1, _CHUNK // (samples_per_cell * s.shape[1]))
    for j in range(0, grid.n, rows):
        v = t[j : j + rows] - left[j : j + rows, None]
        vals[j : j + rows] = _cell_kernel(grid.h, v, s[j : j + rows], w[j : j + rows])
    v = samples[-1:, :1] - left[-1]
    samples[-1, 1] = _cell_kernel(grid.h, v, s[-1:], w[-1:])[0, 0]
    return samples


def _validate_samples(n: int, samples_per_cell: int) -> None:
    """``ValueError`` where ``kernel_profile`` refuses samples_per_cell on a
    rule over n cells; the ``kernel`` command asks before it builds one."""
    if samples_per_cell < 2:
        raise ValueError("need at least two samples per cell")
    count = samples_per_cell * n + 1
    if count > MAX_KERNEL_SAMPLES:
        raise ValueError(
            f"kernel profile of {count} samples requested, over the cap of "
            f"{MAX_KERNEL_SAMPLES} (samples_per_cell * n + 1)"
        )


def kernel_profile(rule: QuadratureRule, samples_per_cell: int = 1000) -> PeanoProfile:
    """Sample the kernel on a uniform grid of samples_per_cell points per cell.

    Samples use the local form.  For t in cell j the truncated power
    (t - x)_+^5 equals, outside cell j, a C1 spline that is the cubic
    Hermite piece on cell j.  The rule integrates that spline exactly, so
    only cell j's nodes enter K6(t), through alpha_j and beta_j and their
    own truncated powers (see ``_cell_kernel``): each sample costs
    O(1) time, and no term larger than h^6 cancels.  The local form equals
    the kernel only for a rule that is exact on the spline space.  The
    nodes are placed in cells once (``grid_basis._locate``), for the
    samples and the knot check alike.

    At most ``MAX_KERNEL_SAMPLES`` = 2^22 samples (samples_per_cell * n + 1)
    are taken; a larger request is refused with ``ValueError`` before
    anything is allocated.  The rule holds 32 bytes per cell and the
    profile 16 per sample (24 while the sample points are laid out).
    Beyond those the profile peaks at 144 bytes per cell while it groups
    the nodes by cell, and the knot check takes at most 96 (tracemalloc
    at n = 2^20).  So at the cap the ``kernel`` command peaks near 450 MB
    with 2 samples per cell (n = 2^21 - 1) and near 130 MB with 64
    (n = 65535).

    The profile is validated before it is returned: the kernel must be
    nonnegative up to rounding and must vanish at every knot.  The knot
    check evaluates the global form (the definition, as ``peano_kernel``),
    which assumes nothing about the rule, so a rule that fails to
    integrate the truncated powers at the knots is rejected.  It runs in
    O(n log n) time: each cell's nodes enter through their moments about
    the cell's right knot, and one doubling scan carries them to every
    later knot by a binomial shift with positive terms (see
    ``_knot_values``).  The
    thresholds scale with (b-a)^6, plus a term for node-coordinate
    rounding (nodes stored far from the origin carry offsets only to
    ulp(|a|), which perturbs the kernel by up to ~(b-a)^5 * ulp(|a|) / 24).
    On unit intervals near the origin they reduce to the bare 1e-15 / 1e-14
    floors.

    Raises
    ------
    ValueError
        If samples_per_cell < 2, if more than ``MAX_KERNEL_SAMPLES``
        samples are asked for, or if a node lies outside [a, b].
    OverflowError
        If (b-a)^6 leaves the double range (b - a above about 1e51), before
        any sample is computed.
    ConstructionError
        If a sample is more negative, or a knot value larger, than the
        double-precision evaluation of a valid kernel allows, or if either
        is NaN (a weight or node that is not finite).
    """
    grid = rule.grid
    _validate_samples(grid.n, samples_per_cell)
    span = grid.b - grid.a
    # span**6 raises OverflowError where the kernel's terms would overflow
    scale = max(1.0, span**6)
    placement = span**5 * max(abs(grid.a), abs(grid.b), 1.0) * 2e-17
    cells, offsets = _locate(grid, rule.nodes)
    samples = _local_samples(rule, samples_per_cell, cells, offsets)
    # NaN (which min and max propagate) fails both gates
    lowest = samples[:, 1].min()
    if not lowest >= -(1e-15 * scale + placement):
        raise ConstructionError(f"kernel dips to {float(lowest)!r}")
    knot_max = np.max(np.abs(_knot_values(rule, cells)))
    if not knot_max <= 1e-14 * scale + placement:
        raise ConstructionError(f"kernel fails to vanish at a knot: {float(knot_max)!r}")
    return PeanoProfile(rule=rule, samples=samples)


def error_constant(rule: QuadratureRule) -> float:
    """The remainder constant c, with I[f] - Q[f] = c f''''''(xi) for f in C6,
    of the Gaussian rule that ``build_rule`` makes for ``rule.grid``; the
    stored nodes and weights are not read.

    c is the local form of the module docstring, summed over the unit-cell
    table in O(1) (``_error_constant``).  A two-third cell adds h^7/604800,
    so c is about (b-a) h^6 / 604800.  The sum cancels nothing beyond the
    factor 7 between n/120 and n/140, and ``math.fsum`` rounds it once.
    The power of two of h^7 is applied last, by ``ldexp``: c raises
    ``OverflowError`` only where it exceeds the double range, and is 0.0
    only where it lies below the smallest subnormal double (on [0, 1e-45]
    with n = 3, say).
    """
    return _error_constant(rule.grid)


def _error_constant(grid: UniformKnotGrid) -> float:
    """``error_constant`` of the rule over grid, c = h^7 (-n/140 - S) / 720:
    with ``_layout``'s half, p and middle closure, g(u) = (u (u - 1))^3 =
    g(1 - u) and the mirror doubling every left-half term,
    S = 2 sum_prefix w g(u) - (half - p)/60 [+ 2 w_out g(r1) - w_mid/64
    for odd n], as a knot adds nothing."""
    n = grid.n
    half, p, middle = _layout(n)
    terms = [-n / 140.0, (half - p) / 60.0]
    nodes = list(zip(TABLE.offsets[: 2 * p].tolist(), TABLE.weights[: 2 * p].tolist()))
    if n % 2:
        r1, w_out, w_mid = middle
        nodes.append((r1, w_out))
        terms.append(w_mid / 64.0)
    for u, w in nodes:
        q = u * (u - 1.0)
        terms.append(-2.0 * w * (q * (q * q)))
    m, e = math.frexp(grid.h)  # h = m 2^e with 1/2 <= m < 1
    return math.ldexp(m**7 * math.fsum(terms) / 720.0, 7 * e)


def remainder_bound(rule: QuadratureRule, m6: float) -> float:
    """Bound |I[f] - Q[f]| <= c * M6 for any f in C6 with |f''''''| <= M6,
    in O(1) (``error_constant``).

    c is positive wherever it is at least the smallest normal double, so
    the bound is positive for every M6 > 0 there; it is 0.0 only where c
    underflows (see ``error_constant``) or M6 is 0.  A negative or NaN M6
    raises ``ValueError``.
    """
    if not m6 >= 0.0:
        raise ValueError(f"derivative bound must be nonnegative, got {m6}")
    return error_constant(rule) * m6
