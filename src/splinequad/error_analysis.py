"""Peano kernel and error constant of the quintic-spline rule.

For integrands with six derivatives the quadrature remainder is

    I[f] - Q[f] = integral of K6(t) f''''''(t) dt,

where K6 is the rule's sixth-order Peano kernel.  For these rules K6 is
nonnegative on (a, b) and vanishes at every knot, so the remainder equals
c * f'''''' (xi) with a positive constant c: the integral of the kernel.

Pure functions over immutable rules; safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .quadrature import ConstructionError, QuadratureRule, _items

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
    u = ts - rule.grid.a
    d = u[:, None] - (rule.nodes - rule.grid.a)[None, :]
    np.clip(d, 0.0, None, out=d)
    return u**6 / 720.0 - (d**5) @ rule.weights / 120.0


def kernel_profile(rule: QuadratureRule, samples_per_cell: int = 1000) -> PeanoProfile:
    """Sample the kernel on a uniform grid of samples_per_cell points per cell.

    The profile is validated before it is returned: the kernel must be
    nonnegative up to rounding and must vanish at every knot.  The
    thresholds scale with (b-a)^6, the kernel's natural magnitude, plus a
    term for node-coordinate rounding (nodes stored far from the origin
    carry offsets only to ulp(|a|), which perturbs the kernel by up to
    ~(b-a)^5 * ulp(|a|) / 24).  On unit intervals near the origin they
    reduce to the bare 1e-15 / 1e-14 floors.

    Raises
    ------
    ConstructionError
        If a sample is more negative, or a knot value larger, than the
        double-precision evaluation of a valid kernel allows.
    """
    if samples_per_cell < 2:
        raise ValueError("need at least two samples per cell")
    grid = rule.grid
    ts = np.linspace(grid.a, grid.b, samples_per_cell * grid.n + 1)
    vals = _kernel_values(rule, ts)
    span = grid.b - grid.a
    placement = span**5 * max(abs(grid.a), abs(grid.b), 1.0) * 2e-17
    if vals.min() < -(1e-15 * max(1.0, span**6) + placement):
        raise ConstructionError(f"kernel dips to {vals.min()!r}")
    knot_vals = _kernel_values(rule, grid.knots())
    if np.max(np.abs(knot_vals)) > 1e-14 * max(1.0, span**6) + placement:
        raise ConstructionError(
            f"kernel fails to vanish at a knot: {np.max(np.abs(knot_vals))!r}"
        )
    return PeanoProfile(rule=rule, samples=np.column_stack([ts, vals]))


def error_constant(rule: QuadratureRule) -> float:
    """The remainder constant c = (b-a)^7/5040 - sum_k w_k (tau_k - a)^6 / 720.

    In exact arithmetic c is positive for every valid rule: the rule
    underestimates the integral of (t - a)^6 by exactly 720 c.  In double
    precision the two terms are O((b-a)^7) while c is O(h^6 (b-a)), so the
    difference cancels: any result below the rounding floor of the first
    term, about eps * (b-a)^7 / 5040, is noise (0.0 or negative on [0, 1]
    from n ~ 1000).  A cancellation-free form is an open ROADMAP item
    ("Error analysis without cancellation").

    The sixth powers go through ``np.float_power``, which calls libm ``pow``
    element by element like Python's ``**`` (``np.power`` takes a SIMD path
    whose results differ in the last bit), so the terms and their
    compensated sum are bit-identical to the per-element Python loop.
    """
    grid = rule.grid
    span = grid.b - grid.a
    head = span**7 / 5040.0  # raises OverflowError before numpy would make inf
    terms = rule.weights * np.float_power(rule.nodes - grid.a, 6.0)
    return head - math.fsum(_items(terms)) / 720.0


def remainder_bound(rule: QuadratureRule, m6: float) -> float:
    """Bound |I[f] - Q[f]| <= c * M6 for any f in C6 with |f''''''| <= M6."""
    if m6 < 0.0:
        raise ValueError(f"derivative bound must be nonnegative, got {m6}")
    return error_constant(rule) * m6
