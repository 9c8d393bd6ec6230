"""Integrands with closed-form integrals, written in plain arithmetic.

Each integrand's ``f`` is a closure (cheaper to call than a method) that
accepts a float or an ndarray, so an array path for ``apply_rule`` can be
measured without editing the benchmark.  Given a one-element ``calls``
list, ``f`` also counts its calls there (an array counts once).
"""

from __future__ import annotations

import math
import sys

EPS = sys.float_info.epsilon

# max |d/dx 1/(1+x^2)| = 3*sqrt(3)/8, and max |d^6/dx^6 1/(1+x^2)| = 720
_RATIONAL_SLOPE = 3.0 * math.sqrt(3.0) / 8.0
_RATIONAL_D6 = 720.0


class Quintic:
    """q((t - a) / (b - a)) with q(s) = c0 + c1 s + ... + c5 s^5 (Horner form)."""

    __slots__ = ("a", "b", "inv_span", "c", "f")

    def __init__(self, a: float, b: float, c: tuple[float, ...],
                 calls: list[int] | None = None):
        self.a, self.b = a, b
        self.inv_span = inv = 1.0 / (b - a)
        self.c = c0, c1, c2, c3, c4, c5 = tuple(c)

        def f(t):
            s = (t - a) * inv
            return ((((c5 * s + c4) * s + c3) * s + c2) * s + c1) * s + c0

        self.f = counted(f, calls)

    def integral(self) -> float:
        """Integral over [a, b] from the antiderivative of q."""
        if self.inv_span == 0.0:  # b - a overflowed
            return math.inf
        s_end = (self.b - self.a) * self.inv_span
        terms = (ck * s_end ** (k + 1) / (k + 1) for k, ck in enumerate(self.c))
        return math.fsum(terms) / self.inv_span

    def tolerance(self, n: int) -> float:
        """Rounding bound for a rule that is exact on quintics.

        Two terms: rounding of the weighted sum, and node placement.  Nodes
        are stored only to ulp(max(|a|, |b|)) (plus eps * span from the
        knot arithmetic), and moving a node by d changes the sum by about
        d * (b - a) * max|f'|.
        """
        span = self.b - self.a
        size = math.fsum(abs(ck) for ck in self.c)
        slope = math.fsum(k * abs(ck) for k, ck in enumerate(self.c))
        return 32.0 * EPS * span * size + 4.0 * slope * placement(self.a, self.b)


class Rational:
    """1 / (1 + ((t - center) / scale)^2) over [a, b]."""

    __slots__ = ("a", "b", "center", "inv_scale", "f")

    def __init__(self, a: float, b: float, center: float, scale: float,
                 calls: list[int] | None = None):
        self.a, self.b = a, b
        self.center = center
        self.inv_scale = inv = 1.0 / scale

        def f(t):
            x = (t - center) * inv
            return 1.0 / (1.0 + x * x)

        self.f = counted(f, calls)

    def integral(self) -> float:
        """Integral over [a, b] from the antiderivative atan(x) / inv_scale."""
        hi = math.atan((self.b - self.center) * self.inv_scale)
        lo = math.atan((self.a - self.center) * self.inv_scale)
        return (hi - lo) / self.inv_scale

    def tolerance(self, n: int) -> float:
        """Rounding and placement as for :class:`Quintic`, plus the rule's
        remainder c * max|f''''''| with c = (b - a) h^6 / 604800."""
        span = self.b - self.a
        h = span / n
        remainder = span * (h * self.inv_scale) ** 6 * _RATIONAL_D6 / 604800.0
        moved = span * _RATIONAL_SLOPE * self.inv_scale * placement(self.a, self.b)
        return 32.0 * EPS * span + 4.0 * moved + 2.0 * remainder


def counted(f, calls: list[int] | None):
    """f itself, or f counting its calls in ``calls[0]``."""
    if calls is None:
        return f

    def g(t):
        calls[0] += 1
        return f(t)

    return g


def placement(a: float, b: float) -> float:
    """Absolute error of a stored node: ulp of the largest endpoint plus
    eps * span from a + k*h."""
    return math.ulp(max(abs(a), abs(b))) + EPS * (b - a)
