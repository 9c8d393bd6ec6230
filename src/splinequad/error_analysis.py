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
powers (``_local_form``).  It costs O(1) per sample and its terms are of
size h^6, like K6, but it is the kernel only if the rule is exact.  So
the knot check of ``kernel_profile`` keeps the global form, which needs
no such assumption.  It runs in O(n log B) time all the same, for blocks
of B <= 4095 cells: every knot lies a whole number of cells from a, so
the nodes enter through six moments per cell about the cell's right
knot, and in each block a doubling scan of ceil(log2 (B + 1)) steps
carries them, and the moments of every node left of the block, to every
knot of the block by a binomial shift whose terms are all positive.
The samples and the knot moments are made in one pass over the blocks
(``_blocks``).  A profile takes at most ``MAX_KERNEL_SAMPLES`` samples
and refuses a larger request before it allocates anything.

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

from .grid_basis import UniformKnotGrid, _frozen, _locate, _record
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
# Most cells in one block of kernel_profile: 4096 columns of its knot scan.
_BLOCK = 4095

# (s, S) for s = 1, 2, 4, ..., 2048: S moves the moments M_0..M_5 about o to
# moments about o + s, (S M)_k = sum_i C(k, i) s^(k-i) M_i, each entry a
# nonnegative integer held exactly (3 KiB in all; made without a ufunc, whose
# first call would load code pages at import)
_SHIFTS = [
    (s, np.array([[math.comb(k, i) * s ** max(k - i, 0) for i in range(6)] for k in range(6)],
                 dtype=float))
    for s in (1 << p for p in range(12))
]


@dataclass(frozen=True)
class PeanoProfile:
    """Sampled kernel: ``samples[j] = (t_j, K6(t_j))`` in increasing t.

    ``lowest`` and ``knot_max`` are the values ``kernel_profile``'s two
    gates decided on: the least sample, equal to ``samples[:, 1].min()``
    (an exact zero may differ in sign), and the largest |K6| at a knot in
    the global form (the knot check).  ``samples`` is a read-only float64
    copy of the array given (``kernel_profile``'s profile holds its own
    read-only array, not copied).
    """

    rule: QuadratureRule
    samples: np.ndarray
    lowest: float
    knot_max: float

    def __post_init__(self) -> None:
        samples = _frozen(self.samples)
        if samples.ndim != 2 or samples.shape[1] != 2:
            raise ValueError("samples must be an (m, 2) array of (t, K6) pairs")
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


def _blocks(rule: QuadratureRule, samples: np.ndarray):
    """Write the samples of ``kernel_profile`` into samples, a block of at
    most ``_BLOCK`` cells and ``_CHUNK`` samples at a time (one cell where
    a cell takes more), and yield each block's lowest sample and its knot
    values in the global form.

    The samples of cells j0..j1-1 lie at the points of ``np.linspace(a, b,
    len(samples))``, with b in the last block, and are taken in the local
    form (``_local_form``).  The block's knot values are those at knots
    j0 + 1..j1 (knot 0 is 0).  The nodes are placed in cells once
    (``grid_basis._locate``) and taken in cell order, as a built rule
    holds them.

    Knot values come from the moments M_k = sum w d^k, k = 0..5, of the
    nodes left of a knot about that knot, d in units of h.  Column 0 of a
    block's (6, c + 1) table is the carry: the moments of every node left
    of the block's first knot.  Column r > 0 starts as those of the nodes
    of cell j0 + r - 1 about its right knot.  Moments move from one knot to
    a knot s cells further right by the binomial shift
    M_k(o + s) = sum_i C(k, i) s^(k-i) M_i(o), whose terms are all
    positive for positive weights, so the carry cancels nothing.  A
    doubling scan (Hillis & Steele) of ceil(log2 (c + 1)) steps adds to
    column r >= s column r - s shifted by s, at s = 1, 2, 4, ..., after
    which column r holds the moments of every node left of its knot,
    column c is the next block's carry, and

        K6(u) = u^6 / 720 - h^5 M_5(u) / 120,  u = j h.

    This is the global form regrouped, with no assumption that the rule
    is exact, and it equals ``peano_kernel`` at each knot up to rounding.

    Every block's temporaries that grow with its samples are rows of one
    scratch array, made once per profile with the largest block's sample
    count plus one as its width: row 0 holds t, then its offsets v in
    their cells; row 1 120 K6; rows 2 and 3 the slot buffers of
    ``_local_form``.  t's indices are made in row 0 itself: the first 1024
    (or one cell's) by np.arange, an 8 KiB temporary, and the rest by
    doubling.  What else a block allocates is sized by its cells and
    nodes, but for the rows of the cells that a later slot takes (a sixth
    of audit's cells).  As arrays of their own, freed at the top of the
    heap after each block, those temporaries came to more than glibc's
    dynamic trim threshold, twice the largest mmapped chunk freed
    (mallopt(3)): over audit's rules (n in 1..200, 64 samples per cell)
    the heap was trimmed after every profile and faulted in again on the
    next, 35 minor faults per profile, against under one now.
    """
    grid = rule.grid
    n, h, a = grid.n, grid.h, grid.a
    per_cell = (len(samples) - 1) // n
    cells, offsets = _locate(grid, rule.nodes)
    weights = rule.weights
    if not (cells[1:] >= cells[:-1]).all():
        order = np.argsort(cells, kind="stable")
        cells, offsets, weights = cells[order], offsets[order], weights[order]
    step = (grid.b - a) / (len(samples) - 1)  # np.linspace's
    block = max(1, min(_BLOCK, _CHUNK // per_cell))
    width = min(block, n) * per_cell
    scratch = np.empty((4, width + 1))  # t or v, 120 K6 and _local_form's p and d
    samples[-1, 0] = grid.b
    for j0 in range(0, n, block):
        j1 = min(j0 + block, n)
        c, last = j1 - j0, j1 == n
        starts = np.searchsorted(cells, np.arange(j0, j1 + 1))  # cell j0 + k: starts[k]..
        i0, i1 = starts[0], starts[-1]
        key, s, w = cells[i0:i1] - j0, offsets[i0:i1], weights[i0:i1]
        alpha, beta, scan = _cell_sums(h, key, s, w, c)

        u = np.arange(j0, j1 + 1) * h  # the block's knots, from a
        i, size = j0 * per_cell, c * per_cell
        rows = samples[i : i + size + last]
        # t: the sample indices i..i + size - 1 (see the docstring)
        t = scratch[0, :size]
        done = min(size, max(per_cell, 1024))
        t[:done] = np.arange(i, i + done)
        while done < size:
            m = min(done, size - done)
            np.add(t[:m], done, out=t[done : done + m])
            done += m
        if step:
            t *= step
        else:  # np.linspace's order where the step underflows
            t /= len(samples) - 1
            t *= grid.b - a
        t += a
        rows[:size, 0] = t
        v = t.reshape(c, per_cell)
        v -= (u[:-1] + a)[:, None]
        slots = _slots(key, s, w, starts, v) if i1 > i0 else []
        kernel = scratch[1, : len(rows)]  # 120 K6
        p, d = scratch[2:, :size].reshape(2, c, per_cell)
        _local_form(v, alpha[:, None], beta[:, None], slots, kernel[:size], p, d)
        if last:  # b, in cell n - 1, by _local_form's operations on floats
            v = grid.b - (a + (n - 1) * h)
            k6 = (v / 6.0 + float(alpha[-1])) * v + float(beta[-1])
            k6 *= (v * v) * (v * v)
            for sk, wk in zip(offsets[starts[-2] :].tolist(), weights[starts[-2] :].tolist()):
                d = max(v - sk, 0.0)
                k6 -= (d * d) * (d * d) * d * wk
            kernel[-1] = k6
        np.divide(kernel, 120.0, out=rows[:, 1])
        # dividing by 120 keeps the order, so the least sample is the least
        # value divided (NaN, which min keeps, fails the gate)
        lowest = np.minimum.reduce(kernel) / 120.0

        if j0:
            scan[:, 0] = carry
        for shift, matrix in _SHIFTS:
            if shift > c:
                break
            # (6, 6) @ (6, 4096 at most): OpenBLAS runs it on one thread, so
            # its bits do not depend on the thread count.  Without BLAS the
            # profile was slower on a 2-vCPU VM: with np.einsum 1.4x at
            # n = 10^6; with the shift as row adds (a Pascal matrix between
            # scalings by powers of s) 1.6x there and 1.35x at audit's sizes
            scan[:, shift:] += matrix @ scan[:, :-shift]
        knots = u[1:] ** 6 / 720.0 - scan[5, 1:] * h**5 / 120.0
        carry = scan[:, c]
        yield lowest, knots


def _slots(key: np.ndarray, s: np.ndarray, w: np.ndarray, starts: np.ndarray, v: np.ndarray):
    """The slots of ``_local_form`` for a block whose cell j holds nodes
    starts[j]..starts[j + 1] - 1 (cells key, offsets s and weights w, from
    node starts[0] on) and is sampled at the offsets v[j]: slot k holds the
    k-th node of each cell, in node order.  Slots 0 and 1 take every cell,
    a cell with fewer nodes a node of weight 0; later slots take only the
    cells whose k-th node lies left of their last sample, since with a
    finite positive weight a node right of it adds +0.  Such a node is a
    knot rounded into the cell on its left: a sixth of the cells over
    audit's inputs, and skipping them saves 4-6 % of a profile there."""
    first = starts[:-1]
    held = starts[1:] - first
    m = np.maximum.reduce(held)
    table = np.zeros((2, m, len(held), 1))
    rank = np.arange(starts[0], starts[-1]) - first[key]
    table[0, rank, key, 0] = s
    table[1, rank, key, 0] = w
    slots = [(slice(None), table[0, k], table[1, k]) for k in range(min(m, 2))]
    tame = m > 2 and 0.0 < np.minimum.reduce(w) and np.maximum.reduce(w) < np.inf
    for k in range(2, m):
        live = held[:, None] > k
        if tame:
            live &= table[0, k] < v[:, -1:]
        at = np.flatnonzero(live)
        if at.size:
            slots.append((at, table[0, k][at], table[1, k][at]))
    return slots


def _cell_sums(h: float, key: np.ndarray, s: np.ndarray, w: np.ndarray, cells: int):
    """alpha and beta of ``_local_form`` for cells 0..cells-1, given the
    cells (key), offsets s and weights w of their nodes and summed in node
    order, and a (6, cells + 1) table whose column j + 1 holds the moments
    sum w e^k of cell j's nodes about its right knot, e = 1 - s/h, and
    whose column 0 is 0.  A two-third cell (7h/15 at 0, 8h/15 at h/2) has
    alpha = 7h/30 and beta = h^2/12."""
    terms = np.empty((8, len(key)))  # per node: the terms of each sum
    r = s / h
    e = 1.0 - r
    q = e * e
    q *= w
    np.multiply(r, 2.0, out=terms[0])
    terms[0] += 1.0
    terms[0] *= q
    np.multiply(q, s, out=terms[1])
    np.maximum(e, 0.0, out=e)
    terms[2] = w
    for k in range(3, 8):
        np.multiply(terms[k - 1], e, out=terms[k])
    at = key + np.arange(1, 8 * cells + 9, cells + 1)[:, None]  # row k, column j + 1
    sums = np.bincount(at.ravel(), terms.ravel(), minlength=8 * cells + 8)
    sums = sums.reshape(8, cells + 1)
    return sums[0, 1:] - h / 2.0, 5.0 * h * h / 12.0 - 5.0 * sums[1, 1:], sums[2:]


def _local_form(v: np.ndarray, alpha, beta, slots, out: np.ndarray, p: np.ndarray,
                d: np.ndarray) -> None:
    """120 K6 in the local form at the offsets v (c, k) of c cells of width
    h, written to out (c * k).

    p and d are buffers shaped like v (rows of ``_blocks``' scratch
    array), overwritten here; out may not share memory with v, p or d.

    Outside a cell, (v - s)_+^5 as a function of s is a C1 spline whose
    piece on the cell is the cubic Hermite piece with value v^5 and slope
    -5v^4 at s = 0, value and slope 0 at s = h.  The rule integrates that
    spline exactly, and the piece is linear in the nodes, so with r = s/h

        120 K6 = v^4 (v^2/6 + alpha v + beta) - sum w (v - s)_+^5,
        alpha = sum w (1 - r)^2 (1 + 2r) - h/2,
        beta = 5h^2/12 - 5 sum w (1 - r)^2 s,

    summed over the nodes s of the cell with weights w (``_cell_sums``);
    alpha and beta come as (c, 1) columns.  Slot (rows, s, w) gives one
    node of each of those rows of v (``_slots``); the slots are subtracted
    in order.
    """
    out = out.reshape(v.shape)
    np.divide(v, 6.0, out=out)
    out += alpha
    out *= v
    out += beta
    np.multiply(v, v, out=p)
    p *= p
    out *= p
    for rows, s, w in slots:
        # (v - s)_+ in d and its fifth power in p, on the slot's rows
        dd, pp = d[: len(s)], p[: len(s)]
        if type(rows) is slice:
            np.subtract(v, s, out=dd)
        else:
            np.take(v, rows, axis=0, out=dd)
            dd -= s
        np.maximum(dd, 0.0, out=dd)
        np.multiply(dd, dd, out=pp)
        pp *= pp
        pp *= dd
        pp *= w
        out[rows] -= pp


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
    own truncated powers (see ``_local_form``): each sample costs
    O(1) time, and no term larger than h^6 cancels.  The local form equals
    the kernel only for a rule that is exact on the spline space.  The
    nodes are placed in cells once (``grid_basis._locate``), for the
    samples and the knot check alike, and both run in one pass over
    blocks of at most 4095 cells (``_blocks``).

    At most ``MAX_KERNEL_SAMPLES`` = 2^22 samples (samples_per_cell * n + 1)
    are taken; a larger request is refused with ``ValueError`` before
    anything is allocated.  The rule holds 32 bytes per cell and the
    profile 16 per sample.  Beyond those the profile holds 34 bytes per
    cell, the cells and offsets of the nodes (tracemalloc at n = 2^20 with
    2 samples per cell), and a block's temporaries, 4 to 5 doubles per
    sample: about 2 MiB where a cell takes at most 2^16 samples.  Four of
    them are the rows of one scratch array, made once per profile and as
    wide as the largest block, so that the heap is not trimmed and
    faulted in again between profiles (see ``_blocks``); the fifth, at
    most, holds the rows of the cells with a third node left of their
    last sample, or one cell's np.arange.  A cell of more is a block of
    its own, whose temporaries grow with it (160 MiB for one cell of
    2^22 - 1 samples).  So at the cap the ``kernel`` command peaks near
    225 MB with 2 samples per cell (n = 2^21 - 1), near 255 MB with one
    cell and near 105 MB with 64 per cell (n = 65535).

    The profile is validated before it is returned: the kernel must be
    nonnegative up to rounding and must vanish at every knot.  The knot
    check evaluates the global form (the definition, as ``peano_kernel``),
    which assumes nothing about the rule, so a rule that fails to
    integrate the truncated powers at the knots is rejected.  It runs in
    O(n log B) time for blocks of B cells: each cell's nodes enter through
    their moments about the cell's right knot, and a doubling scan in each
    block carries them, with those of every node left of the block, to
    every knot of the block by a binomial shift with positive terms (see
    ``_blocks``).  The
    thresholds scale with (b-a)^6, plus a term for node-coordinate
    rounding (nodes stored far from the origin carry offsets only to
    ulp(|a|), which perturbs the kernel by up to ~(b-a)^5 * ulp(|a|) / 24).
    On unit intervals near the origin they reduce to the bare 1e-15 / 1e-14
    floors.  The profile keeps the two values the gates decided on, the
    least sample as ``lowest`` and the largest |knot value| as
    ``knot_max``.

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
    try:  # span**6 raises OverflowError where the kernel's terms would overflow
        scale = max(1.0, span**6)
    except OverflowError:
        raise OverflowError(
            f"(b - a)^6, the scale of the kernel gates, is beyond the double range "
            f"on [{grid.a!r}, {grid.b!r}]"
        ) from None
    placement = span**5 * max(abs(grid.a), abs(grid.b), 1.0) * 2e-17
    samples = np.empty((samples_per_cell * grid.n + 1, 2))
    lowest, knot_max = math.inf, 0.0
    for low, knots in _blocks(rule, samples):
        # NaN sticks once it comes, and fails both gates
        if lowest == lowest:
            lowest = min(low, lowest)
        if knot_max == knot_max:
            knot_max = max(np.maximum.reduce(np.abs(knots)), knot_max)
    samples[0, 1] = 0.0  # K6(a) is 0: no node lies left of a
    lowest, knot_max = float(lowest), float(knot_max)
    if not lowest >= -(1e-15 * scale + placement):
        raise ConstructionError(f"kernel dips to {lowest!r}")
    if not knot_max <= 1e-14 * scale + placement:
        raise ConstructionError(f"kernel fails to vanish at a knot: {knot_max!r}")
    samples.setflags(write=False)
    return _record(PeanoProfile, rule=rule, samples=samples, lowest=lowest, knot_max=knot_max)


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
    try:
        return math.ldexp(m**7 * math.fsum(terms) / 720.0, 7 * e)
    except OverflowError:
        raise OverflowError(
            f"the error constant is beyond the double range on [{grid.a!r}, {grid.b!r}]"
        ) from None


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
