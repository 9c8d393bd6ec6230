"""Decimal text of float64 arrays, made by exact arithmetic in numpy.

Each mode is byte-identical to a Python expression applied to every value:

- ``"%.17g"``: ``"%.17g" % v``, 17 significant digits rounded half to
  even (csv rows and kernel samples);
- ``"fixed"``: ``format(Context(prec=16, rounding=ROUND_DOWN)
  .create_decimal_from_float(v), "f")``, the exact value truncated to 16
  significant digits, in fixed point (table rows);
- ``"repr"``: ``repr(v)``, the shortest text that reads back to v, the
  nearest to v of those (json arrays; JSON's ``NaN`` and ``Infinity``
  where v is not finite).

Every value with 1e-280 <= |v| < 1e281 is scaled to s = |v| 10^(16 - X),
X = floor(log10 |v|), so that 10^16 <= s < 10^17. The power of ten is a
pair hi + lo of doubles from exact rational arithmetic (lo = 0 for
0 <= 16 - X <= 22), and the product is a Dekker two-product with a
Veltkamp split (numpy has no fma). Its relative error is below 2^-103,
under 2^-46 in units of s, and 0 where lo = 0. Above 2^53 the product's
high part is an integer, so s = S + f with f in [0, 1) and S held exactly
as H 10^8 + L, two integer-valued doubles on which every later operation
is exact. The digits:

- ``"%.17g"``: S, or S + 1 by f against 1/2;
- ``"fixed"``: the first 16 digits of S, stripped of trailing zeros where
  they are the whole value (f = 0 and S ends in 0);
- ``"repr"``: the integers d with |d - s| < g read back to v, g half an
  ulp of v in units of s; of those in (A, B] the one with the most
  trailing zeros, or the nearest to s of those with the most (a tie to
  the even last digit).

A decision closer than ``_ERR`` = 2^-40 to its boundary is not taken,
except where the product is exact: there every test is exact, so values
with short exact decimals (the nodes of an h = 1 rule) stay on this path.
Zeros are written directly, with their sign: ``0`` and ``-0``, or ``0.0``
and ``-0.0`` in "repr". A value falls back to its Python expression when
a decision was not taken; when it is subnormal, not finite or outside the
window; and in "repr" when it is a power of two (the gap below it is half
the gap above).

Digits come four at a time from a table of ASCII quads. Each value becomes
one row of a uint8 matrix padded with NUL bytes, laid out with column
slices per decimal exponent; ``lines`` lays such matrices side by side in
one zeroed ``bytearray``, through a numpy view of it, and drops the NUL
bytes with one ``bytearray.translate``. A column that repeats with period
two, as a rule's weights do, is laid out once per distinct value.
"""

from __future__ import annotations

import functools
import json
import math
from decimal import ROUND_DOWN, Context
from typing import Callable, Union

import numpy as np

__all__ = ["lines", "row_numbers"]

_XMIN, _XMAX = -280, 280  # the Veltkamp split of 10^296 still fits a double
_NO_ROWS = np.empty(0, dtype=np.intp)
_ERR = 2.0**-40
_SPLIT = 134217729.0  # 2^27 + 1
_SIG16 = Context(prec=16, rounding=ROUND_DOWN)
_DOT, _ZERO, _MINUS = b".0-"

# "e+XX" / "e-XXX" of X - _XMIN, NUL-padded to 5 bytes.
_EXPONENTS = np.frombuffer(
    b"".join((b"e%+03d" % e).ljust(5, b"\0") for e in range(_XMIN, _XMAX + 1)), dtype="V5"
)

_FALLBACK: dict[str, Callable[[float], str]] = {
    "%.17g": "%.17g".__mod__,
    "fixed": lambda v: format(_SIG16.create_decimal_from_float(v), "f"),
    "repr": lambda v: repr(v) if math.isfinite(v) else json.dumps(v),
}
# Decimal exponents written in fixed point ("fixed": all of them).
_FIXED_RANGE = {"%.17g": (-4, 16), "repr": (-4, 15), "fixed": (_XMIN, _XMAX)}


@functools.cache
def _quads() -> np.ndarray:
    """Four ASCII digits of k < 10^4 per uint32; at 10^4 + k, the same with
    the trailing zeros as NUL."""
    k = np.arange(10000)[:, None]
    digits = (k // np.array([1000, 100, 10, 1]) % 10 + ord("0")).astype(np.uint8)
    bare = digits.copy()
    bare[np.logical_and.accumulate(bare[:, ::-1] == _ZERO, axis=1)[:, ::-1]] = 0
    return np.concatenate([digits, bare]).view(np.uint32).ravel()


@functools.cache
def _powers() -> tuple[np.ndarray, ...]:
    """hi, lo, and hi's Veltkamp halves, of 10^p = num / den for p = 16 - X
    over the window, X = _XMAX first; hi and lo, the rest num / den - hi,
    are quotients of exact integers, which Python's int / int rounds
    correctly."""
    exact = [(10**p, 1) if p >= 0 else (1, 10**-p) for p in range(16 - _XMAX, 16 - _XMIN + 1)]
    hi = np.array([num / den for num, den in exact])
    rest = zip(exact, map(float.as_integer_ratio, hi.tolist()))
    lo = np.array([(num * q - p * den) / (den * q) for (num, den), (p, q) in rest])
    c = hi * _SPLIT
    hi_hi = c - (c - hi)
    return hi, lo, hi_hi, hi - hi_hi


def _scaled(x: np.ndarray, X: np.ndarray):
    """x 10^(16 - X) as hi + lo, and 10^(16 - X) as its table pair."""
    k = _XMAX - X
    if k.size and k.min() == k.max():  # one exponent: scalars
        k = k[0]
    p_hi, p_lo, p_hh, p_hl = (table.take(k) for table in _powers())
    hi = x * p_hi
    c = x * _SPLIT
    x_hi = c - (c - x)
    x_lo = x - x_hi
    lo = ((x_hi * p_hh - hi) + x_hi * p_hl + x_lo * p_hh) + x_lo * p_hl
    lo += x * p_lo
    return hi, lo, p_hi, p_lo


def _split(hi: np.ndarray, n: np.ndarray):
    """hi + n as (H, L), H 10^8 + L with L in [0, 10^8); hi an integer-valued
    double below 2^62, n a small one."""
    H = np.floor(hi / 1e8)
    return _carry(H, (hi - H * 1e8) + n)


def _carry(H: np.ndarray, L: np.ndarray):
    """H 10^8 + L with L moved into [0, 10^8)."""
    c = np.floor(L / 1e8)
    return H + c, L - c * 1e8


def _floor_mod(v: np.ndarray, m) -> np.ndarray:
    """v mod m for integer-valued doubles below 2^53 (np.mod is slower)."""
    return v - m * np.floor(v / m)


def _text(H: np.ndarray, L: np.ndarray, strip, quads: int = 5) -> np.ndarray:
    """The ASCII digits of H 10^8 + L (H < 10^9, L < 10^8): all 17, or the
    last ``quads`` groups of four; the trailing zeros as NUL in the rows
    where strip is set."""
    a = np.floor(L / 1e4)
    order = [L - 1e4 * a, a]  # from the right
    if quads > 2:
        e = np.floor(H / 1e8)
        c = np.floor((H - 1e8 * e) / 1e4)
        order += [H - 1e8 * e - 1e4 * c, c, e]
    out = np.empty((len(L), quads), dtype=np.uint32)
    table = _quads()
    zeros = strip  # every quad to the right is zero: take the stripped one
    for col, q in zip(range(quads - 1, -1, -1), order):
        if zeros is False:
            out[:, col] = table.take(q.astype(np.intp))
        else:
            out[:, col] = table.take((q + 1e4 * zeros).astype(np.intp))
            zeros = zeros & (q == 0.0)
    text = out.view(np.uint8)
    return text[:, 3:] if quads == 5 else text


def _analyse(x: np.ndarray, mode: str):
    """(text, X, unsure) of positive in-window values: the ASCII digits of
    the decimal significand, stripped where the mode strips trailing zeros
    (17 of them, 16 in "fixed"); the decimal exponent; and where a decision
    was too close to call."""
    X = np.clip(np.floor(np.log10(x)), _XMIN, _XMAX).astype(np.int64)
    hi, lo, p_hi, p_lo = _scaled(x, X)
    step = (hi >= 1e17).astype(np.int64) - (hi < 1e16)
    if step.any():  # log10 missed by one
        redo = np.flatnonzero(step)
        X[redo] = np.clip(X[redo] + step[redo], _XMIN, _XMAX)
        p_hi, p_lo = (np.broadcast_to(p, x.shape).copy() for p in (p_hi, p_lo))
        hi[redo], lo[redo], p_hi[redo], p_lo[redo] = _scaled(x[redo], X[redo])
    whole = np.floor(lo)
    f = lo - whole
    H, L = _split(hi, whole)
    del hi, lo, whole  # here and below: each temporary goes after its last use
    exact = (X >= -6) & (X <= 16)  # 10^(16 - X) is a double
    unsure = (H < 1e8) | (H >= 1e9)

    if mode == "fixed":
        unsure |= ~exact & ((f <= _ERR) | (f >= 1.0 - _ERR))
        return _text(H, L, (f == 0.0) & (_floor_mod(L, 10.0) == 0.0))[:, :16], X, unsure

    if mode == "%.17g":
        unsure |= ~exact & (np.abs(f - 0.5) <= _ERR)
        L = L + (f > 0.5)
        tie = np.flatnonzero(f == 0.5)  # to even
        L[tie] += _floor_mod(L[tie], 2.0)
    else:
        bits = x.view(np.int64)
        ulp = ((bits & 0x7FF0000000000000) - (52 << 52)).view(np.float64)
        g = 0.5 * ulp * p_hi + 0.5 * ulp * p_lo
        below, above = f - g, f + g
        del ulp, g, p_hi, p_lo
        A, B = np.floor(below), np.floor(above)  # offsets from S
        unsure |= (
            (np.abs(below - A - 0.5) >= 0.5 - _ERR)
            | (np.abs(above - B - 0.5) >= 0.5 - _ERR)
            | ((bits & ((1 << 52) - 1)) == 0)
        )
        del below, above
        # B - A < 23: a multiple of 100 (of 10 if B - A < 10) in (A, B] is
        # the only one; where there is none, the nearest multiple of 10 (1)
        step = 10.0 + 90.0 * (B - A >= 10.0)
        top = B - _floor_mod(L + B, step)
        none = top <= A
        del A, B
        # nearest: the one below (S - r) against the one above by 2f
        # against step - 2r, both sides exact; a tie goes to the even
        # last digit, as in repr
        step /= 10.0
        r = _floor_mod(L, step)
        twice, gap = 2.0 * f, step - 2.0 * r
        unsure |= none & ~exact & (np.abs(twice - gap) <= _ERR)
        near = step * (twice > gap) - r
        tie = np.flatnonzero(twice == gap)
        near[tie] += step[tie] * _floor_mod((L[tie] - r[tie]) / step[tie], 2.0)
        L = L + (top + none * (near - top))
        del step, top, none, r, twice, gap, near
    H, L = _carry(H, L)
    carry = H == 1e9  # 10^17: one digit
    H[carry] = 1e8
    X += carry
    return _text(H, L, True), X, unsure


def _layout(values: np.ndarray, mode: str):
    """The text of each value in ``mode``, one per row: the width of the
    rows, and a function that writes them into a zeroed (rows, width)
    uint8 view, NUL bytes padding them (anywhere, not only at the end)."""
    values = np.asarray(values, dtype=np.float64)
    x = np.abs(values)
    if np.count_nonzero(values[2:] == values[:-2]) * 2 > len(values) and (x > 0.0).all():
        # repeats with period two, as the weights of two-third cells do:
        # each distinct value is laid out once (np.unique would merge 0
        # with -0 and one NaN with another: those columns are not merged)
        distinct = np.unique(values)
        width, write = _layout(distinct, mode)
        texts = np.zeros((len(distinct), width), dtype=np.uint8)
        write(texts)
        texts = texts.view(np.dtype((np.void, width))).ravel()
        index = np.searchsorted(distinct, values)

        def write_each(out: np.ndarray) -> None:
            out[...] = texts.take(index).view(np.uint8).reshape(-1, width)

        return width, write_each
    inside = (x >= 10.0**_XMIN) & (x < 10.0 ** (_XMAX + 1))
    at = slice(None) if inside.all() else np.flatnonzero(inside)
    zero = _NO_ROWS if isinstance(at, slice) else np.flatnonzero(x == 0.0)
    text, X, unsure = _analyse(x[at], mode)
    if unsure.any():
        keep = np.flatnonzero(~unsure)
        at, text, X = np.arange(len(values))[at][keep], text[keep], X[keep]
    slow = np.ones(len(values), dtype=bool)
    slow[at] = False
    slow[zero] = False
    slow = np.flatnonzero(slow)
    slow_text = [_FALLBACK[mode](v).encode() for v in values[slow].tolist()]

    # rows by layout: fixed point with exponent g, or the exponent form
    low, high = _FIXED_RANGE[mode]
    key = np.where((X >= low) & (X <= high), X, high + 1)  # last: exponent form
    if len(key) and key.min() == key.max():
        g = int(key[0])
        groups = [(g if g <= high else None, slice(None))]
    else:
        order = np.argsort(key, kind="stable")
        ends = np.flatnonzero(np.diff(key[order])) + 1
        groups = [(int(key[rows[0]]), rows) for rows in np.split(order, ends) if rows.size]
        groups = [(None if g > high else g, rows) for g, rows in groups]
    ndig = text.shape[1]
    zero_text = b"0.0" if mode == "repr" else b"0"
    width = max([_width(g, ndig) for g, _ in groups] + [len(t) for t in slow_text]
                + [1 + len(zero_text) if zero.size else 1])

    def write(out: np.ndarray) -> None:
        out[at, 0] = (values[at] < 0.0) * np.uint8(_MINUS)
        for g, sel in groups:
            rows = sel if isinstance(at, slice) else at[sel]
            _place(out, rows, text[sel], X[sel], g, mode == "repr")
        if zero.size:
            out[zero, 0] = (values[zero].view(np.int64) < 0) * np.uint8(_MINUS)  # -0.0
            out[zero, 1 : 1 + len(zero_text)] = np.frombuffer(zero_text, dtype=np.uint8)
        if slow_text:
            padded = b"".join(t.ljust(width, b"\0") for t in slow_text)
            out[slow] = np.frombuffer(padded, dtype=np.uint8).reshape(-1, width)

    return width, write


def row_numbers(start: int, stop: int) -> np.ndarray:
    """``"%d"`` of start, ..., stop - 1 (0 <= start < stop <= 10^16), one
    per row of a uint8 matrix, NUL bytes padding them on the left."""
    values = np.arange(start, stop, dtype=np.float64)
    width = len(str(stop - 1))
    high = np.floor(values / 1e8)
    text = _text(high, values - 1e8 * high, False, quads=(width + 3) // 4)
    text = text[:, text.shape[1] - width :]
    for k in range(1, width):  # rows below 10^k: width - k leading zeros
        text[: max(0, 10**k - start), : width - k] = 0
    return text


def lines(parts: list[Union[bytes, np.ndarray, tuple]]) -> bytearray:
    """Rows of the parts side by side, NUL bytes dropped. A part is bytes
    that repeat on every row, a matrix such as ``row_numbers`` makes, or
    (values, mode): the text of each float64 value in that mode.

    The padded rows are written once, into the bytearray they are
    compacted from, and the parts' layouts are dropped before the text is
    made: one padded copy of the rows at a time, and the text."""
    rows = next(len(p[0] if isinstance(p, tuple) else p) for p in parts
                if not isinstance(p, bytes))
    laid = [(len(p), np.frombuffer(p, dtype=np.uint8)) if isinstance(p, bytes)
            else _layout(*p) if isinstance(p, tuple) else (p.shape[1], p) for p in parts]
    total = sum(width for width, _ in laid)
    padded = bytearray(rows * total)
    out = np.frombuffer(padded, dtype=np.uint8).reshape(rows, total)
    col = 0
    for width, part in laid:
        if callable(part):
            part(out[:, col : col + width])
        else:
            out[:, col : col + width] = part
        col += width
    del laid, part  # the layouts' arrays, before the compacted copy
    return padded.translate(None, b"\0")


def _width(X, ndig: int) -> int:
    if X is None:
        return ndig + 7  # -d.ddde-123
    if X < 0:
        return 2 - X + ndig  # -0.000ddd
    return 2 + max(X + 1, ndig)  # -ddd.ddd or -ddd000


def _place(out, rows, text, X, group, dot_zero: bool) -> None:
    """Lay out one group of rows: fixed point with exponent ``group``, or
    the exponent form where ``group`` is None. Column 0 holds the sign.
    NUL digits are stripped zeros: in the integer part they come back
    (``| _ZERO`` leaves a digit as it is), and with dot_zero so does the
    first fraction digit (repr's 100.0)."""
    ndig = text.shape[1]
    if group is None:
        out[rows, 1] = text[:, 0]
        out[rows, 2] = (text[:, 1] != 0) * np.uint8(_DOT)
        out[rows, 3 : ndig + 2] = text[:, 1:]
        out[rows, ndig + 2 : ndig + 7] = _EXPONENTS.take(X - _XMIN).view(np.uint8).reshape(-1, 5)
    elif group < 0:
        out[rows, 1] = _ZERO
        out[rows, 2] = _DOT
        out[rows, 3 : 2 - group] = _ZERO
        out[rows, 2 - group : 2 - group + ndig] = text
    elif group + 1 >= ndig:
        out[rows, 1 : ndig + 1] = text | _ZERO
        out[rows, ndig + 1 : group + 2] = _ZERO
    else:
        whole = group + 1
        out[rows, 1 : whole + 1] = text[:, :whole] | _ZERO
        first = text[:, whole] | _ZERO if dot_zero else text[:, whole]
        out[rows, whole + 1] = (first != 0) * np.uint8(_DOT)
        out[rows, whole + 2] = first
        out[rows, whole + 3 : ndig + 2] = text[:, whole + 1 :]
