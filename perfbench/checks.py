"""Output checks that share no code with the library they audit.

Every check returns ``None`` or a :class:`Failure`.  A failure whose cause
matches a defect recorded in ``KNOWN_DEFECTS`` carries that defect's id:
the defect probe reports it without making the run incorrect.  Any other
failure, and any failure of a timed operation, makes the run incorrect.
"""

from __future__ import annotations

import json
import math
from decimal import Decimal
from typing import NamedTuple, Optional

import numpy as np

from .integrands import EPS, placement

KNOWN_DEFECTS = {
    "extreme-scale": "builds in absolute units fail or go wrong for intervals far "
    "outside 1e-3..1e3 (raw OverflowError, nonpositive weights, NaN roots)",
    "error-constant-cancellation": "error_constant computes (b-a)^7/5040 - "
    "sum w tau^6/720, which cancels to noise once c is below rounding of (b-a)^7/5040",
}


class Failure(NamedTuple):
    layer: str
    kind: str  # "raised" or "wrong"
    detail: str
    defect: Optional[str]


def layer_of(exc: BaseException) -> str:
    """``module.function`` of the first library frame the exception passed through."""
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("splinequad."):
            return f"{module.partition('.')[2]}.{tb.tb_frame.f_code.co_name}"
        tb = tb.tb_next
    return "bench"


def raised(exc: Exception, defect: Optional[str] = None) -> Failure:
    return Failure(layer_of(exc), "raised", f"{type(exc).__name__}: {exc}"[:200], defect)


def check_integral(value: float, integrand, n: int,
                   defect: Optional[str] = None) -> Optional[Failure]:
    """Quadrature result against the integrand's closed-form integral."""
    exact = integrand.integral()
    if (math.isfinite(value) and math.isfinite(exact)
            and abs(value - exact) <= integrand.tolerance(n)):
        return None
    return Failure(
        "quadrature.apply_rule", "wrong", f"{value!r} vs exact {exact!r}", defect
    )


def error_constant_reference(a: float, b: float, n: int) -> float:
    """(b-a)^7 / (604800 n^6): the plateau cell's h^7/604800 summed over n cells."""
    return (b - a) ** 7 / (604800.0 * float(n) ** 6)


def check_error_constant(c: float, a: float, b: float, n: int) -> Optional[Failure]:
    """c must be positive and within a relative 2/n of the plateau value.

    A miss no larger than the rounding floor of (b-a)^7/5040 (and of the
    node placement inside the tau^6 sum) is the known cancellation defect.
    """
    ref = error_constant_reference(a, b, n)
    band = 2.0 / n * ref
    if c > 0.0 and abs(c - ref) <= band:
        return None
    span = b - a
    floor = 16.0 * EPS * span**7 / 5040.0 + placement(a, b) * span**6 / 60.0
    defect = "error-constant-cancellation" if abs(c - ref) <= band + floor else None
    return Failure(
        "error_analysis.error_constant", "wrong", f"c={c!r}, plateau value {ref!r}", defect
    )


def basis_gate(a: float, b: float, n: int) -> float:
    """Budget, relative to the basis scale, for sums of w_i * D(tau_i).

    D has slope ~ 1/h^2 and the weights ~ h, so a node placement error d
    moves such a sum by ~ d/h.
    """
    return 64.0 * EPS + 8.0 * placement(a, b) * n / (b - a)


def rule_structure(rule) -> dict[str, int]:
    """Prefix and fill cells of the left half, and which middle closure was used.

    A left-half cell is a fill cell when its nodes are the knot and the
    midpoint and its weights are 7h/15 and 8h/15, bit for bit.
    """
    grid = rule.grid
    n, h, a = grid.n, grid.h, grid.a
    half = n // 2
    base = a + (np.arange(1, half + 1, dtype=float) - 1.0) * h
    nodes, weights = rule.nodes, rule.weights
    fill = (
        (nodes[0 : 2 * half : 2] == base)
        & (nodes[1 : 2 * half : 2] == base + 0.5 * h)
        & (weights[0 : 2 * half : 2] == 7.0 / 15.0 * h)
        & (weights[1 : 2 * half : 2] == 8.0 / 15.0 * h)
    )
    fill_cells = int(np.count_nonzero(fill))
    return {
        "prefix_cells": half - fill_cells,
        "fill_cells": fill_cells,
        "odd_middles": n % 2,
        "even_middles": 1 - n % 2,
    }


# ---------------------------------------------------------------- CLI output


def trunc16(v: float) -> str:
    """v truncated toward zero to 16 significant digits, in fixed-point notation.

    An 18-digit correctly rounded expansion gives the first 16 digits of
    the exact value unless digits 17 and 18 read as zeros (rounding may then
    have carried into digit 16, or the value has at most 16 digits); that
    case uses exact Decimal digits.
    """
    mantissa, exp = ("%.17e" % v).split("e")
    digits = mantissa.lstrip("-").replace(".", "")
    if digits[16:].strip("0"):
        return ("-" if v < 0 else "") + _fixed(digits[:16], int(exp))
    sign, exact, exponent = Decimal(v).as_tuple()
    digits = "".join(map(str, exact))
    return ("-" if sign else "") + _fixed(digits[:16], len(digits) - 1 + exponent)


def _fixed(digits: str, e: int) -> str:
    """Digits d0 d1 ... of d0.d1... * 10^e written without an exponent."""
    if e < 0:
        return "0." + "0" * (-e - 1) + digits
    if e < len(digits) - 1:
        return digits[: e + 1] + "." + digits[e + 1 :]
    return digits + "0" * (e - len(digits) + 1)


def table_rows(rule) -> list[str]:
    """Rows ``i tau omega`` of the left half and middle, truncated to 16 digits."""
    n = rule.grid.n
    nodes = rule.nodes[: n + 1].tolist()
    weights = rule.weights[: n + 1].tolist()
    seen: dict[float, str] = {}  # fill cells repeat two weights n/2 times

    def weight(w: float) -> str:
        text = seen.get(w)
        if text is None:
            text = seen[w] = trunc16(w)
        return text

    return [f"{i} {trunc16(t)} {weight(w)}"
            for i, (t, w) in enumerate(zip(nodes, weights), 1)]


def check_table(text: str, rows: list[str]) -> Optional[Failure]:
    lines = text.split("\n")
    m = len(rows)
    if (
        lines[0] == "i tau omega"
        and lines[1 : m + 1] == rows
        and len(lines) == m + 3
        and lines[m + 1].startswith("#")
        and lines[m + 2] == ""
    ):
        return None
    bad = next((i for i, (x, y) in enumerate(zip(lines[1:], rows), 1) if x != y), None)
    return Failure("cli.rule.table", "wrong", f"table differs at line {bad}", None)


def _same_bits(values, expected: np.ndarray) -> bool:
    got = np.asarray(values, dtype=np.float64)
    return got.shape == expected.shape and np.array_equal(
        got.view(np.int64), expected.view(np.int64)
    )


def check_csv(text: str, rule) -> Optional[Failure]:
    """Every row must read back to the in-bench build's doubles, bit for bit."""
    parts = text.replace("\n", ",").split(",")
    m = len(rule)
    ok = (
        parts[:3] == ["i", "tau", "omega"]
        and len(parts) == 3 * (m + 1) + 1
        and parts[-1] == ""
        and parts[3:-1:3] == [str(i) for i in range(1, m + 1)]
    )
    if ok:
        ok = (_same_bits(parts[4:-1:3], rule.nodes)
              and _same_bits(parts[5:-1:3], rule.weights))
    if ok:
        return None
    return Failure("cli.rule.csv", "wrong", "csv does not read back to the build", None)


def check_json(text: str, rule, c: float) -> Optional[Failure]:
    """The document must read back to the in-bench build and its error
    constant ``c`` bit for bit.  Whether ``c`` itself is right is the
    error_constant layer's check, not the CLI's."""
    doc = json.loads(text)
    grid = rule.grid
    keys = {"schema_version", "n", "a", "b", "h", "nodes", "weights", "error_constant"}
    ok = (
        set(doc) == keys
        and (doc["n"], doc["a"], doc["b"], doc["h"]) == (grid.n, grid.a, grid.b, grid.h)
        and _same_bits(doc["nodes"], rule.nodes)
        and _same_bits(doc["weights"], rule.weights)
        and _same_bits([doc["error_constant"]], np.array([c]))
    )
    if ok:
        return None
    return Failure("cli.rule.json", "wrong", "json does not read back to the build", None)
