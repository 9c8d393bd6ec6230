"""The correctly rounded sum of many doubles, taken a block at a time.

``fsum_blocks`` gives ``math.fsum`` of n doubles bit for bit, exceptions
included, without a Python float per double on long sums.  It is the sum
behind ``apply_rule`` and ``SplineCoefficients.exact_integral``, which are
exact on the spline space only because their products are summed so.

The module imports nothing from splinequad, so that every other module
can import it at module level.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Callable, Optional

import numpy as np

__all__ = ["fsum_blocks"]

# Sums of at least this many doubles are made by error-free extraction (see
# fsum_blocks), shorter ones by math.fsum alone.  On a 2-vCPU x86-64 VM
# (Python 3.11, numpy 2.4), with random coefficients, the two break even
# near 520-580 products for SplineCoefficients.exact_integral and a
# rational 1/(1 + x^2) and near 640 for a Horner quintic in apply_rule; at
# the cut extraction is 15 % (quintic) to 40 % (exact_integral) faster, a
# margin that keeps every sum from running slower.  So apply_rule extracts
# from n = 512 cells on and exact_integral from n = 256 (4n + 2
# coefficients); smaller rules and splines, all of the many-small and
# audit sizes, keep math.fsum.
_EXTRACT_MIN = 1 << 10

# Doubles summed per block, and in quadrature the rows a build writes and
# checks at a time, rows per span of a streamed rule (see _spans) and the
# nodes per array call of f in apply_rule.  On a 2-vCPU x86-64 VM (Python
# 3.11, numpy 2.4), against blocks of 2^14 rows: a rule of 10^6 cells is 31
# blocks, not 123, its apply_rule took 0.83 (Horner quintic) to 0.99 (a
# rational) of the time and its build 0.91, a build at n = 2 * 10^4, now
# one pass, 0.80, and the bulk benchmark ran 1.10x as fast.
_BLOCK = 1 << 16

# sigma = 2^(e + _SUM_SHIFT) for a block whose largest |r| is below 2^e:
# 2^_SUM_SHIFT exceeds the block length + 2, so the q of one pass sum to a
# double exactly, and each remainder r - q is at most ulp(sigma)/2 (Rump,
# Ogita & Oishi, SIAM J. Sci. Comput. 31, 2008, parts I and II).
_SUM_SHIFT = (_BLOCK + 2).bit_length()

# A block shorter than this (only the last can be) is summed as it is, and
# in the exact extraction a block's remainders are, once fewer than this
# many are nonzero: a pass costs what math.fsum takes for about 300.
_SUM_REST = 128

# gamma_(m-1) * m for m = _BLOCK, rounded up, gamma_k = k u / (1 - k u)
# with u = 2^-53: m remainders of at most 2^p each, added in any order,
# err by at most this times 2^p (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., SIAM 2002, section 4.2).  About 2^-21, so
# a sum of doubles of one size whose total is below about 2^-19 of their
# absolute sum is seldom certified (see fsum_blocks).
_SUM_SLACK = math.nextafter(
    (_BLOCK - 1) * _BLOCK * 2.0**-53 / (1.0 - (_BLOCK - 1) * 2.0**-53), math.inf
)


def fsum_blocks(block: Callable[[int], np.ndarray], n: int) -> float:
    """``math.fsum`` of n doubles, bit for bit and exceptions included,
    where ``block(lo)`` returns a fresh float64 array holding doubles lo ..
    lo + ``_BLOCK`` - 1 (fewer in the last block), which the sum may
    overwrite.  block is called at most twice per lo, and an exception it
    raises passes through, unless ``math.fsum`` has already raised
    ``OverflowError`` on the blocks before.

    Fewer than ``_EXTRACT_MIN`` doubles are one call of block(0), summed by
    ``math.fsum``.  From there on each block r is, while in cache, split
    once by error-free extraction (Rump, Ogita & Oishi, SIAM J. Sci.
    Comput. 31, 2008, parts I and II): with 2^k the least power of two
    above every |r| and e = k + ``_SUM_SHIFT``, one ``_pass`` gives the
    heads q = (2^e + r) - 2^e, whose sum is exact, and leaves r holding the
    remainders r - q, each at most 2^(e - 53).  Summed in floating point
    they err by at most ``_SUM_SLACK`` * 2^(e - 53) (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., SIAM 2002, section 4.2).
    A block adds no such slack where no r is nonzero, or where every |r|
    is below 2^-1039, so that e <= -1022 and 2^-1022 takes every r whole.
    A block shorter than ``_SUM_REST`` (only the last can be) is appended
    as it is.  Three exits follow, from the total, ``math.fsum`` of the
    heads and remainder sums:

    - Certified: the total, and the total moved up and down by S, the
      summed bounds rounded up twice, round to the same double; since
      rounding is monotone, so does the exact sum.  S is at most 2^-56 of
      the sum of the blocks' largest |r|, so this fails only where the
      total is small against sum |r|: for 2*10^6 random doubles of one
      size, in every sum at 2^-20 of it, in half at 2^-18 and in about one
      sum in 125 at 2^-12; in practice at the rounding floor (the products
      of sin over [0, 2 pi] at n = 10^6 sum to about 7e-20), and at an
      exact-zero total (an odd f over an interval symmetric about 0).  inf
      or nan from a block appended as it is is fsum's own and is returned.
    - Exact: otherwise, where some block added slack, ``_extract`` decides
      the sum: over the head and the remainders of the one block, which r
      still holds, or over every block taken again (a block of those that
      cannot be extracted, only where block gives other doubles on its
      second call, is appended as it is).  A total at 2^1023 or above,
      only from a block appended as it is, comes here too, as total + S
      might not be finite.  ``math.fsum`` of the parts gives nonzero
      doubles that cancel +0.0, as it does.
    - fsum: ``math.fsum`` of the doubles decides where the two sums could
      differ: a double that is inf or nan or at ``_top`` or above (the
      guard refuses before r is written), and a zero total of doubles that
      added no slack (fsum's sign of zero).  It reads one block from r,
      unwritten or holding zeros of the same sum, and several from block
      called again.
    """
    if n < _EXTRACT_MIN:
        return math.fsum(memoryview(block(0)))
    parts, slack = [], []
    for lo in range(0, n, _BLOCK):
        r = block(lo)
        if parts is None:  # block still sees every lo, as it may raise on one
            continue
        if len(r) < _SUM_REST:
            parts += r.tolist()
            continue
        big = _largest(r, n)
        if big is None:
            parts = None
        elif big:
            e = math.frexp(big)[1] + _SUM_SHIFT
            head = _pass(r, e)
            parts += head, r.sum()
            if e > -1022:
                slack.append(math.ldexp(1.0, e - 53))
    if parts is not None:
        total = math.fsum(parts)
        if slack and math.isfinite(total):
            # rounded up twice, S stays above gamma_(m-1) m 2^p summed; as
            # S > 0, a zero total is never certified
            bound = math.nextafter(
                _SUM_SLACK * math.nextafter(math.fsum(slack), math.inf), math.inf
            )
            if abs(total) < 2.0**1023 and (
                math.fsum(parts + [bound]) == total == math.fsum(parts + [-bound])
            ):
                return total
            if n <= _BLOCK:
                parts = [head]
                _extract(r, parts, n)
            else:
                parts = []
                for lo in range(0, n, _BLOCK):
                    _extract(block(lo), parts, n)
            return math.fsum(parts)
        if total:
            return total
    blocks = [r] if n <= _BLOCK else map(block, range(0, n, _BLOCK))
    return math.fsum(chain.from_iterable(map(memoryview, blocks)))


def _top(count: int) -> float:
    """2^emax for a sum of count doubles: every |r| below it keeps sigma
    finite and the absolute sum below 2^1023, where neither summation can
    overflow."""
    return math.ldexp(1.0, 1023 - max(_SUM_SHIFT, (count + 2).bit_length()))


def _extract(r: np.ndarray, partials: list, count: int) -> None:
    """Append to partials doubles whose exact sum is that of r, one of the
    blocks of a sum of count doubles; r is overwritten.

    ``_pass`` repeated, as ``fsum_blocks`` makes it once.  Passes go in
    pairs: the first takes e from the largest |r|, the second from the
    first's bound on its remainders, 2^(52 - _SUM_SHIFT) = 2^35 times
    smaller, as AccSum does, and zeros are dropped after each pair.  Once
    fewer than ``_SUM_REST`` remainders are left, they are appended as they
    are.  So ``math.fsum(partials)`` is the correctly rounded sum of every
    block given, however the doubles are split into blocks of at most
    ``_BLOCK``.  Where r holds inf or nan or a value at ``_top(count)`` or
    above, r itself is appended, and fsum's own rules decide.
    """
    while len(r) >= _SUM_REST:
        big = _largest(r, count)
        if big is None:  # only on the first pass
            break
        e = math.frexp(big)[1] + _SUM_SHIFT
        partials += _pass(r, e), _pass(r, e + _SUM_SHIFT - 52)
        r = r[r != 0.0]
    partials += r.tolist()


def _largest(r: np.ndarray, count: int) -> Optional[float]:
    """The largest |r|, or None where r holds inf or nan or a value at
    ``_top(count)`` or above."""
    big = max(r.max(), -r.min())
    return big if big < _top(count) else None


def _pass(r: np.ndarray, e: int) -> float:
    """One pass of ExtractVector (Rump, Ogita & Oishi) over r, a block of
    at most ``_BLOCK`` doubles each below 2^(e - _SUM_SHIFT) in
    magnitude: with sigma = 2^e, or 2^-1022 where e is smaller,
    q = (sigma + r) - sigma holds r's leading bits and its sum is exact,
    and r is left holding the remainders r - q, each exact and at most
    ulp(sigma)/2 = 2^(e - 53).  Returns the head ``q.sum()``."""
    sigma = math.ldexp(1.0, max(e, -1022))
    q = r + sigma
    q -= sigma
    r -= q
    return q.sum()
