"""Tests for the array formatter behind the CLI emitters.

Each mode must give, byte for byte, the text of its Python expression:
``"%.17g" % v``, the 16-digit ROUND_DOWN fixed point of the exact value,
and ``repr(v)``.
"""

import hashlib
import json
import tracemalloc
from decimal import ROUND_DOWN, Context
from pathlib import Path

import numpy as np
import pytest

from splinequad import _digits, build_rule, make_grid

_SIG16 = Context(prec=16, rounding=ROUND_DOWN)

REFERENCES = {
    "%.17g": "%.17g".__mod__,
    "fixed": lambda v: format(_SIG16.create_decimal_from_float(v), "f"),
    "repr": repr,
}


def random_bits(count: int, seed: int) -> np.ndarray:
    """Doubles from uniform random bit patterns: every finite value, both
    signs, subnormals and zeros included."""
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 0x7FF0000000000000, size=count, dtype=np.int64)
    signs = rng.integers(0, 2, size=count, dtype=np.int64) << 63
    return (bits | signs).view(np.float64)


def special_values() -> np.ndarray:
    rng = np.random.default_rng(2)
    tiny = np.finfo(float).smallest_subnormal
    powers_of_ten = np.array([float(f"1e{k}") for k in range(-323, 309)])
    powers_of_two = np.ldexp(1.0, np.arange(-1074, 1024))
    big = float(2**53)
    values = np.concatenate([
        [0.0, tiny, 2 * tiny, np.finfo(float).smallest_normal, np.finfo(float).max],
        tiny * rng.integers(1, 2**52, 1000),  # subnormals
        powers_of_ten,
        np.nextafter(powers_of_ten, 0.0),
        np.nextafter(powers_of_ten, np.inf),
        powers_of_two,
        np.nextafter(powers_of_two, 0.0),
        np.nextafter(powers_of_two, np.inf),
        big + np.arange(-2000.0, 2000.0),  # integers around 2^53
        rng.integers(10**16, 10**18, 20000).astype(float),
        10.0 ** rng.integers(16, 19, 2000) + rng.integers(-5000, 5000, 2000),
        np.arange(-1000, 1000) + 0.5,  # halves, exact short decimals
        rng.integers(0, 2**51, 2000) + 0.5,
        rng.integers(1, 10**6, 2000) / 8.0,
    ])
    return np.concatenate([values, -values])


def h1_rule_values() -> np.ndarray:
    # exact short decimals and exact ties: knots, midpoints, 7/15, 8/15
    rule = build_rule(make_grid(0.0, 65536.0, 65536))
    return np.concatenate([rule.nodes, rule.weights])


def expected_text(values: np.ndarray, mode: str) -> bytes:
    return "".join(map("%s\n".__mod__, map(REFERENCES[mode], values.tolist()))).encode()


def assert_matches(values: np.ndarray, mode: str) -> None:
    for start in range(0, len(values), 1 << 16):
        chunk = values[start : start + (1 << 16)]
        got = _digits.lines([(chunk, mode), b"\n"])
        want = expected_text(chunk, mode)
        if got != want:
            pairs = zip(got.split(b"\n"), want.split(b"\n"), chunk.tolist())
            bad = next((g, w, v) for g, w, v in pairs if g != w)
            raise AssertionError(f"{mode} of {bad[2]!r}: {bad[0]!r}, expected {bad[1]!r}")


# sha256 of each mode's reference text of random_bits(10**6, seed=6), one
# line per mode; ``python tests/test_digits.py`` writes the file again from
# the reference expressions
RANDOM_DIGESTS = Path(__file__).parent / "golden" / "digits_random.sha256"


@pytest.fixture(scope="module")
def random_values() -> np.ndarray:
    return random_bits(10**6, seed=6)


def pinned_digests() -> dict:
    lines = RANDOM_DIGESTS.read_text().splitlines()
    return {mode: digest for digest, mode in (line.split("  ", 1) for line in lines)}


@pytest.mark.parametrize("mode", sorted(REFERENCES))
def test_random_bit_patterns_match_references(random_values, mode):
    # the formatter's text of all 10^6 values against the digest of the
    # reference text; the reference text itself is made only on a mismatch,
    # to name the first value that differs
    digest = hashlib.sha256()
    for start in range(0, len(random_values), 1 << 16):
        digest.update(_digits.lines([(random_values[start : start + (1 << 16)], mode), b"\n"]))
    if digest.hexdigest() != pinned_digests()[mode]:
        assert_matches(random_values, mode)
        raise AssertionError(f"{mode}: the text matches the references, not {RANDOM_DIGESTS.name}")


def reference_digests() -> str:
    """The text of ``RANDOM_DIGESTS``, from the reference expressions."""
    values = random_bits(10**6, seed=6)
    return "".join(
        f"{hashlib.sha256(expected_text(values, mode)).hexdigest()}  {mode}\n"
        for mode in sorted(REFERENCES)
    )


@pytest.mark.parametrize("mode", sorted(REFERENCES))
def test_special_values_match_references(mode):
    assert_matches(special_values(), mode)


@pytest.mark.parametrize("mode", sorted(REFERENCES))
def test_h1_rule_values_match_references(mode):
    assert_matches(h1_rule_values(), mode)


@pytest.mark.parametrize("mode", sorted(REFERENCES))
def test_decimal_values_match_references(mode):
    # short decimals at every scale, and their neighbours
    rng = np.random.default_rng(3)
    digits = rng.integers(1, 10**6, 40000)
    values = digits * 10.0 ** rng.integers(-30, 30, 40000)
    values = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, np.inf)])
    assert_matches(np.concatenate([values, -values]), mode)


@pytest.mark.parametrize("mode", sorted(REFERENCES))
def test_repeating_columns_match_references(mode):
    # columns that repeat with period two are laid out once per distinct
    # value: 0 and -0, and NaNs of either sign, must keep their own texts
    nan = float("nan")
    ones = [1.0] * 6
    columns = [
        build_rule(make_grid(-2.0, 3.0, 100)).weights,
        np.tile([0.0, 1.0, -0.0, 1.0], 50),
        np.tile(ones + [nan] + ones + [-nan], 20),
        np.tile([np.inf, 2.5, -np.inf, 2.5], 20),
    ]
    # json.dumps: repr, with JSON's names for the values that are not finite
    reference = json.dumps if mode == "repr" else REFERENCES[mode]
    for column in columns:
        want = "".join(reference(v) + "\n" for v in column.tolist())
        assert _digits.lines([(column, mode), b"\n"]) == want.encode()


def fallbacks(monkeypatch, values: np.ndarray, mode: str) -> int:
    calls = []
    fallback = _digits._FALLBACK[mode]
    monkeypatch.setitem(_digits._FALLBACK, mode, lambda v: calls.append(v) or fallback(v))
    _digits.lines([(values, mode)])
    return len(calls)


@pytest.mark.parametrize("mode", sorted(REFERENCES))
def test_rule_values_stay_on_the_array_path(monkeypatch, mode):
    # exact decimals and exact ties are decided exactly: only repr's powers
    # of two leave the array path
    for grid in (make_grid(0.0, 65536.0, 65536), make_grid(0.0, 1.0, 65536)):
        rule = build_rule(grid)
        values = np.concatenate([rule.nodes, rule.weights])
        powers_of_two = np.count_nonzero(np.frexp(values)[0] == 0.5)
        assert fallbacks(monkeypatch, values, mode) == (powers_of_two if mode == "repr" else 0)


@pytest.mark.parametrize("mode", sorted(REFERENCES))
def test_values_outside_the_window_fall_back(monkeypatch, mode):
    # every value but the two zeros, which are written on the array path
    values = np.array([0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7e308, np.inf, -np.inf, np.nan])
    assert fallbacks(monkeypatch, values, mode) == len(values) - 2
    reference = json.dumps if mode == "repr" else REFERENCES[mode]
    texts = "".join(reference(v) + "\n" for v in values.tolist())
    assert _digits.lines([(values, mode), b"\n"]) == texts.encode()


@pytest.mark.parametrize("mode", sorted(REFERENCES))
def test_signed_zeros_stay_on_the_array_path(monkeypatch, mode):
    # each cell's first kernel sample is an exact zero, so a kernel column
    # at 2 samples per cell is half zeros, of either sign: mixed with
    # values of every layout (fixed point, exponent form, the fallback's
    # subnormals), they are written without the fallback
    rng = np.random.default_rng(23)
    values = rng.standard_normal(6000) * 10.0 ** rng.integers(-30, 30, 6000)
    values[::2] = 0.0
    values[1::6] = -0.0
    values[3::10] = 3e-310
    for column in (values, values[::2], values[1::6], np.array([-0.0]), np.zeros(3)):
        assert_matches(column, mode)
    calls = []
    fallback = _digits._FALLBACK[mode]
    monkeypatch.setitem(_digits._FALLBACK, mode, lambda v: calls.append(v) or fallback(v))
    _digits.lines([(values, mode)])
    assert 3e-310 in calls and 0.0 not in calls


@pytest.mark.parametrize("mode", sorted(REFERENCES))
def test_strided_and_empty_columns(mode):
    samples = np.stack([np.linspace(-1.0, 1.0, 101), np.geomspace(1e-9, 1e9, 101)], axis=1)
    for column in samples.T:
        assert _digits.lines([(column, mode), b"\n"]) == expected_text(column, mode)
    assert _digits.lines([(np.empty(0), mode), b"\n"]) == b""


def test_row_numbers_and_lines():
    for start, stop in ((0, 12), (1, 20001), (95, 105), (99_999_990, 100_000_010)):
        halves = np.arange(start, stop) * 0.5
        rows = _digits.lines([_digits.row_numbers(start, stop), b",", (halves, "repr"), b"\n"])
        assert rows == "".join(f"{i},{i * 0.5!r}\n" for i in range(start, stop)).encode()


def test_lines_holds_one_padded_copy_of_a_chunk():
    # the first 16384-row csv chunk of the n = 10^6 rule, as ``rule``
    # formats it: the traced peak is the padded rows, their compacted text
    # and the layouts' temporaries.  Those came to 25-41 bytes per row over
    # four chunks of this rule (41 on this one), so 48 are allowed; a
    # second padded copy adds 53-56 bytes per row
    rows = 1 << 14
    rule = build_rule(make_grid(0.0, 1.0, 10**6))
    parts = [_digits.row_numbers(1, rows + 1), b",", (rule.nodes[:rows], "%.17g"), b",",
             (rule.weights[:rows], "%.17g"), b"\n"]
    _digits.lines(parts)  # the digit tables, made once
    widths = [len(p) if isinstance(p, bytes) else
              _digits._layout(*p)[0] if isinstance(p, tuple) else p.shape[1] for p in parts]
    tracemalloc.start()
    try:
        text = _digits.lines(parts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    padded = rows * sum(widths)
    assert peak <= padded + len(text) + 48 * rows, (peak, padded, len(text))


if __name__ == "__main__":
    print(reference_digests(), end="")
