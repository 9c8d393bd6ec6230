"""Tests for the node/weight recursion and rule construction."""

import builtins
import hashlib
import importlib.util
import math
import operator
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from references import exact_sum

from splinequad import _fsum, quadrature
from splinequad._fsum import _EXTRACT_MIN, _SUM_SHIFT, fsum_blocks
from splinequad.grid_basis import SplineCoefficients, basis_eval, basis_integral, make_grid
from splinequad.quadrature import (
    ARRAY_MIN_NODES,
    CONVERGENCE_TOL,
    TABLE,
    ConstructionError,
    QuadratureRule,
    ResidueState,
    apply_rule,
    build_rule,
    _BLOCK,
    _ROWS,
    _TABLE_ROWS,
    _check,
    _middle_even,
    _middle_odd,
    _solve_cell,
    _span,
    _spans,
    _update_cell,
)

# Residues after cells 1..3 are exactly rational (the update is a symmetric
# function of the two quadratic roots); values verified independently with
# exact arithmetic.
A2, B2 = Fraction(97, 864), Fraction(139, 864)
A3, B3 = Fraction(2458793, 20357784), Fraction(3307955, 20357784)
# Later states, and per-cell outputs, frozen from a 400-digit run of the
# recursion (offsets are from the cell's left knot, h = 1).
A4, B4 = 0.12083333122698544325, 0.16249999964893633691
A5, B5 = 0.12083333333333333016, 0.16249999999999999947
CELLS = {
    1: (0.12251482265544137787, 0.5441518440112252888,
        0.30201742881457235729, 0.48501960822246467975),
    2: (0.0064654716056596397658, 0.50027307286873389123,
        0.44671772013629118653, 0.53303872093804185483),
    3: (0.000038797295630442769947, 0.50000001053211377352,
        0.46653987137191212812, 0.53333332209820756649),
    4: (1.5045293668523796593e-9, 0.5,
        0.46666666175184358462, 0.53333333333333333333),
}
LIMIT_A, LIMIT_B = 29.0 / 240.0, 13.0 / 80.0

# Reference rules on [0, n] with unit spacing: the first n+1 node/weight
# pairs (the rest mirror).  n = 3 and 4 frozen from the 60-digit build;
# n = 5..10 are the published regression values (two known transcription
# slips corrected: n=7 row 7's node and n=5 row 4's weight leading digit).
REFERENCE_ROWS = {
    3: [(0.12251482265544138, 0.30201742881457236),
        (0.54415184401122529, 0.48501960822246468),
        (1.0064242497077113, 0.44658741711143458),
        (1.5, 0.53275109170305677)],
    4: [(0.12251482265544138, 0.30201742881457236),
        (0.54415184401122529, 0.48501960822246468),
        (1.0064654716056596, 0.44671772013629119),
        (1.5002730728687339, 0.53303872093804185),
        (2.0, 0.46641304377725984)],
    5: [(0.1225148226554413, 0.3020174288145723),
        (0.5441518440112252, 0.4850196082224646),
        (1.0064654716056596, 0.4467177201362911),
        (1.5002730728687338, 0.5330387209380418),
        (2.0000387957905171, 0.4665398664562177),
        (2.5, 0.5333333108648244)],
    6: [(0.1225148226554413, 0.3020174288145723),
        (0.5441518440112252, 0.4850196082224646),
        (1.0064654716056596, 0.4467177201362911),
        (1.5002730728687338, 0.5330387209380418),
        (2.0000387972956304, 0.4665398713719121),
        (2.5000000105321137, 0.5333333220982075),
        (3.0, 0.4666666568370204)],
    7: [(0.1225148226554413, 0.3020174288145723),
        (0.5441518440112252, 0.4850196082224646),
        (1.0064654716056596, 0.4467177201362911),
        (1.5002730728687338, 0.5330387209380418),
        (2.0000387972956304, 0.4665398713719121),
        (2.5000000105321137, 0.5333333220982075),
        (3.0000000015045293, 0.4666666617518435),
        (3.5, 0.5333333333333333)],
    8: [(0.1225148226554413, 0.3020174288145723),
        (0.5441518440112252, 0.4850196082224646),
        (1.0064654716056596, 0.4467177201362911),
        (1.5002730728687338, 0.5330387209380418),
        (2.0000387972956304, 0.4665398713719121),
        (2.5000000105321137, 0.5333333220982075),
        (3.0000000015045293, 0.4666666617518435),
        (3.5, 0.5333333333333333),
        (4.0, 0.4666666666666665)],
    9: [(0.1225148226554413, 0.3020174288145723),
        (0.5441518440112252, 0.4850196082224646),
        (1.0064654716056596, 0.4467177201362911),
        (1.5002730728687338, 0.5330387209380418),
        (2.0000387972956304, 0.4665398713719121),
        (2.5000000105321137, 0.5333333220982075),
        (3.0000000015045293, 0.4666666617518435),
        (3.5, 0.5333333333333333),
        (4.0, 0.4666666666666666),
        (4.5, 0.5333333333333333)],
    10: [(0.1225148226554413, 0.3020174288145723),
         (0.5441518440112252, 0.4850196082224646),
         (1.0064654716056596, 0.4467177201362911),
         (1.5002730728687338, 0.5330387209380418),
         (2.0000387972956304, 0.4665398713719121),
         (2.5000000105321137, 0.5333333220982075),
         (3.0000000015045293, 0.4666666617518435),
         (3.5, 0.5333333333333333),
         (4.0, 0.4666666666666666),
         (4.5, 0.5333333333333333),
         (5.0, 0.4666666666666666)],
}


def _chain(k_max):
    """Run the recursion cell by cell for k = 1..k_max on unit cells:
    (state entering cell k, (r1, r2, w_lo, w_hi)) per cell, and the state
    entering cell k_max + 1."""
    state = TABLE.states[0]
    out = []
    for k in range(1, k_max + 1):
        cell = _solve_cell(state)
        out.append((state, cell))
        state = _update_cell(state, *cell)
    return out, state


# ------------------------------------------------------------ residue state

def test_initial_residues():
    state = TABLE.states[0]
    assert state.k == 1
    assert state.A == 1.0 / 24.0
    assert state.B == 0.125
    assert state.B > state.A
    assert 16.0 * state.A > 5.0 * state.B   # 2/3 > 5/8
    state.validate()


def test_residue_validation_failures():
    with pytest.raises(ConstructionError, match="out of range"):
        ResidueState(k=1, A=0.2, B=0.1).validate()
    with pytest.raises(ConstructionError, match="out of range"):
        ResidueState(k=1, A=0.15, B=0.17).validate()
    with pytest.raises(ConstructionError, match="16A > 5B"):
        ResidueState(k=1, A=0.05, B=0.165).validate()


def test_limit_state_is_fixed_point_of_update():
    # feeding the two-third cell back through the update reproduces the
    # limit residues
    state = ResidueState(k=7, A=LIMIT_A, B=LIMIT_B)
    new = _update_cell(state, 0.0, 0.5, 7.0 / 15.0, 8.0 / 15.0)
    assert new.A == pytest.approx(LIMIT_A, abs=1e-16)
    assert new.B == pytest.approx(LIMIT_B, abs=1e-16)


# ------------------------------------------------------- quadratic factors

def test_interior_quadratic_initial_coefficients():
    # at the initial state the node quadratic is -1 + 10x - 15x^2
    r1, r2, _, _ = _solve_cell(TABLE.states[0])
    assert r1 == pytest.approx((5.0 - math.sqrt(10.0)) / 15.0, abs=2e-16)
    assert r2 == pytest.approx((5.0 + math.sqrt(10.0)) / 15.0, abs=2e-16)


def test_interior_quadratic_at_limit_residues():
    r1, r2, _, _ = _solve_cell(ResidueState(k=9, A=LIMIT_A, B=LIMIT_B))
    assert r1 == pytest.approx(0.0, abs=1e-14)
    assert r2 == pytest.approx(0.5, abs=1e-14)


def test_interior_quadratic_discriminant_nonnegative_along_chain():
    # a negative discriminant raises; every prefix state solves
    for state in TABLE.states[:-1]:
        r1, r2, _, _ = _solve_cell(state)
        assert 0.0 < r1 < r2 < 1.0


def test_middle_quadratic_roots_symmetric():
    # the outer nodes sit at r1 and 1 - r1, symmetric by construction; for
    # n = 1 they are the Gauss-Legendre ones
    r1, _, _ = _middle_odd(TABLE.states[0])
    assert r1 == pytest.approx(0.5 - 0.5 * math.sqrt(0.6), abs=1e-16)


def test_roots_negative_discriminant_raises():
    # at A = 0, B = 0.02 the node quadratic is 0.52 - 1.52x + 1.2304x^2
    with pytest.raises(ConstructionError, match="interval 3: negative discriminant"):
        _solve_cell(ResidueState(k=3, A=0.0, B=0.02))


# ----------------------------------------------------------- cell solving

def test_first_cell_matches_reference():
    tau_lo, tau_hi, w_lo, w_hi = _solve_cell(TABLE.states[0])
    r1, r2, wl, wh = CELLS[1]
    assert tau_lo == pytest.approx(r1, abs=1e-13)
    assert tau_hi == pytest.approx(r2, abs=1e-13)
    assert w_lo == pytest.approx(wl, abs=1e-13)
    assert w_hi == pytest.approx(wh, abs=1e-13)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_chain_cells_match_reference(k):
    cells, _ = _chain(k)
    state, (r1, r2, w_lo, w_hi) = cells[-1]
    ref1, ref2, wl, wh = CELLS[k]
    assert r1 == pytest.approx(ref1, abs=5e-16)
    assert r2 == pytest.approx(ref2, abs=5e-16)
    assert w_lo == pytest.approx(wl, abs=5e-16)
    assert w_hi == pytest.approx(wh, abs=5e-16)


def test_residue_chain_hits_exact_rationals():
    cells, _ = _chain(3)
    assert cells[1][0].A == pytest.approx(float(A2), abs=2e-16)
    assert cells[1][0].B == pytest.approx(float(B2), abs=2e-16)
    assert cells[2][0].A == pytest.approx(float(A3), abs=2e-16)
    assert cells[2][0].B == pytest.approx(float(B3), abs=2e-16)


def test_residue_chain_later_states():
    cells, state5 = _chain(4)
    assert cells[3][0].A == pytest.approx(A4, abs=2e-16)
    assert cells[3][0].B == pytest.approx(B4, abs=2e-16)
    assert state5.A == pytest.approx(A5, abs=2e-16)
    assert state5.B == pytest.approx(B5, abs=2e-16)
    assert state5.converged


def test_update_keeps_order():
    cells, _ = _chain(4)
    for state, _ in cells:
        assert state.B > state.A


def test_solve_cell_flags_corrupt_state():
    # orderable but unreachable residues push a root outside the cell
    bad = ResidueState(k=1, A=0.001, B=0.002)
    with pytest.raises(ConstructionError):
        _solve_cell(bad)


def test_converged_state_yields_two_third_cell():
    state = ResidueState(k=9, A=A5, B=B5)
    assert state.converged
    tau_lo, tau_hi, w_lo, w_hi = _solve_cell(state)
    assert tau_lo == 0.0
    assert tau_hi == 0.5
    assert w_lo == 7.0 / 15.0
    assert w_hi == 8.0 / 15.0


# ------------------------------------------------------------ middle cells

def test_middle_even_weight_from_second_cell():
    # n = 2: the middle-knot weight is exactly rational, 4(A2 + B2 - 1/6)
    _, state2 = _chain(1)
    w = _middle_even(state2)
    assert w == pytest.approx(float(4 * (A2 + B2 - Fraction(1, 6))), abs=1e-15)
    assert w == pytest.approx(23.0 / 54.0, abs=1e-15)


def test_middle_even_weight_near_plateau():
    _, state4 = _chain(3)
    assert _middle_even(state4) == pytest.approx(0.4666666568370204, abs=1e-13)


def test_middle_even_weight_at_limit():
    state = ResidueState(k=9, A=LIMIT_A, B=LIMIT_B)
    assert _middle_even(state) == pytest.approx(7.0 / 15.0, abs=1e-15)


def test_middle_even_rejects_nonpositive_weight():
    with pytest.raises(ConstructionError, match="middle weight"):
        _middle_even(ResidueState(k=2, A=0.01, B=0.02))


def test_middle_odd_single_cell_is_gauss_legendre():
    r1, w_out, w_mid = _middle_odd(TABLE.states[0])
    assert r1 == pytest.approx(0.5 - 0.5 * math.sqrt(0.6), abs=1e-16)
    assert w_out == pytest.approx(5.0 / 18.0, abs=1e-16)
    assert w_mid == pytest.approx(4.0 / 9.0, abs=1e-16)


def test_middle_odd_limit_residues():
    r1, w_out, w_mid = _middle_odd(ResidueState(k=5, A=LIMIT_A, B=LIMIT_B))
    assert r1 == 0.0              # offset degenerates to the knot
    assert w_out == pytest.approx(7.0 / 15.0, abs=1e-15)
    assert w_mid == pytest.approx(8.0 / 15.0, abs=1e-15)


# -------------------------------------------------------------- build_rule

@pytest.mark.parametrize("n", sorted(REFERENCE_ROWS))
def test_reference_rules(n):
    rule = build_rule(make_grid(0.0, float(n), n))
    for i, (tau, w) in enumerate(REFERENCE_ROWS[n]):
        assert rule.nodes[i] == pytest.approx(tau, abs=1e-13), (n, i)
        assert rule.weights[i] == pytest.approx(w, abs=1e-13), (n, i)


def test_single_cell_rule_is_gauss_legendre():
    rule = build_rule(make_grid(0.0, 1.0, 1))
    gl_nodes = [0.5 - 0.5 * math.sqrt(0.6), 0.5, 0.5 + 0.5 * math.sqrt(0.6)]
    gl_weights = [5.0 / 18.0, 4.0 / 9.0, 5.0 / 18.0]
    np.testing.assert_allclose(rule.nodes, gl_nodes, atol=1e-14, rtol=0)
    np.testing.assert_allclose(rule.weights, gl_weights, atol=1e-14, rtol=0)


def test_rule_structure_small_and_medium():
    for a, b, n in [(0.0, 1.0, 1), (0.0, 2.0, 2), (-2.5, 7.25, 17), (0.0, 1.0, 33)]:
        rule = build_rule(make_grid(a, b, n))
        assert len(rule) == 2 * n + 1
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert math.fsum(rule.weights.tolist()) == pytest.approx(
            b - a, abs=1e-13 * (b - a)
        )
        np.testing.assert_allclose(
            rule.nodes + rule.nodes[::-1], a + b, atol=1e-13 * max(1.0, abs(a + b))
        )
        np.testing.assert_array_equal(rule.weights, rule.weights[::-1])


def test_rule_symmetry_is_exact_by_construction():
    # the right half is literally (a+b) - left half, with equal weights
    rule = build_rule(make_grid(-1.25, 3.75, 11))
    n = 11
    np.testing.assert_array_equal(
        rule.nodes[n + 1 :], (-1.25 + 3.75) - rule.nodes[:n][::-1]
    )
    np.testing.assert_array_equal(rule.weights[n + 1 :], rule.weights[:n][::-1])


def test_build_rule_deterministic():
    g = make_grid(0.0, 7.0, 7)
    r1, r2 = build_rule(g), build_rule(g)
    np.testing.assert_array_equal(r1.nodes, r2.nodes)
    np.testing.assert_array_equal(r1.weights, r2.weights)


def test_table_reports_plateau():
    # the recursion solves four cells and enters cell 5 at the plateau;
    # builds with n // 2 > 4 fill from cell 5 on
    assert [state.k for state in TABLE.states] == [1, 2, 3, 4, 5]
    assert [state.converged for state in TABLE.states] == [False] * 4 + [True]
    assert len(TABLE.offsets) == len(TABLE.weights) == 8


def test_large_odd_grid_structure():
    # a huge odd grid exercises the degenerate middle trio at scale
    n = 10**6 + 1
    rule = build_rule(make_grid(0.0, 1.0, n))
    assert len(rule) == 2 * n + 1
    assert np.all(np.diff(rule.nodes) > 0)
    assert rule.nodes[n] == 0.5
    assert rule.weights[n] == pytest.approx(8.0 / 15.0 / n, rel=1e-12)


def test_plateau_fill_matches_per_cell_solve():
    # the vectorized two-third fill and the per-cell solve agree bitwise;
    # every build enters its fill cells in the table's last state
    grid = make_grid(0.0, 24.0, 24)
    rule = build_rule(grid)
    state = TABLE.states[-1]
    for k in range(state.k, 12 + 1):
        r1, r2, w_lo, w_hi = _solve_cell(state)
        x = grid.a + (k - 1) * grid.h
        assert rule.nodes[2 * k - 2] == x + r1
        assert rule.nodes[2 * k - 1] == x + r2
        assert rule.weights[2 * k - 2] == w_lo
        assert rule.weights[2 * k - 1] == w_hi


def test_convergence_threshold_separates_cleanly():
    # the cancellation floor sits nine orders below the last honest cell
    cells, state5 = _chain(4)
    assert abs(1.0 - 24.0 * cells[3][0].B + 24.0 * cells[3][0].A) > 1e-8
    assert abs(1.0 - 24.0 * state5.B + 24.0 * state5.A) <= CONVERGENCE_TOL


# ------------------------------------------------------- unit-cell table

def _rule_cell_by_cell(grid):
    """The rule from the recursion run cell by cell on a grid with h = 1,
    as the builder did before the unit-cell table: the reference for it."""
    a, b, n, h = grid.a, grid.b, grid.n, grid.h
    assert h == 1.0
    half = n // 2
    nodes, weights = [], []
    state = TABLE.states[0]
    for k in range(1, half + 1):
        r1, r2, w_lo, w_hi = _solve_cell(state)
        x = a + (k - 1) * h
        nodes += [x + r1, x + r2]
        weights += [w_lo, w_hi]
        if not state.converged:
            state = _update_cell(state, r1, r2, w_lo, w_hi)
    if n % 2 == 0:
        nodes.append(a + half * h)
        weights.append(_middle_even(state))
    else:
        r1, w_out, w_mid = _middle_odd(state)
        nodes += [a + half * h + r1, 0.5 * (a + b)]
        weights += [w_out, w_mid]
    nodes += [(a + b) - t for t in reversed(nodes[:n])]
    weights += weights[:n][::-1]
    return nodes, weights


def test_table_is_the_unit_cell_recursion():
    cells, state5 = _chain(4)
    assert TABLE.states == tuple(state for state, _ in cells) + (state5,)
    assert state5.converged and not cells[-1][0].converged
    assert TABLE.offsets.tolist() == [r for _, c in cells for r in c[:2]]
    assert TABLE.weights.tolist() == [w for _, c in cells for w in c[2:]]
    for k, state in enumerate(TABLE.states):
        assert TABLE.middle_odd[k] == _middle_odd(state)
        if k:
            assert TABLE.middle_even[k] == _middle_even(state)


# The table's 45 doubles as float.hex, frozen from the recursion as it ran
# when the table was introduced: a change of one bit anywhere fails here,
# in the odd middle closures too, which no golden grid of even n reaches.
TABLE_HEX = (
    # states (A, B) entering cells 1..5
    "0x1.5555555555555p-5", "0x1.0000000000000p-3",
    "0x1.cbda12f684bd9p-4", "0x1.497b425ed097bp-3",
    "0x1.eeb5f8a8f5a04p-4", "0x1.4cc809c3c181fp-3",
    "0x1.eeeeee5e2fab4p-4", "0x1.4cccccc0bccfbp-3",
    "0x1.eeeeeeeeeeeeep-4", "0x1.4ccccccccccccp-3",
    # offsets (r1, r2) of prefix cells 1..4
    "0x1.f5d21a4949282p-4", "0x1.169b120c2c305p-1",
    "0x1.a7b89d197a741p-8", "0x1.0023cace14ce7p-1",
    "0x1.45748ed6031adp-15", "0x1.0000005a785d0p-1",
    "0x1.9d8fd7ac478e1p-30", "0x1.0000000000000p-1",
    # weights (w_lo, w_hi) of prefix cells 1..4
    "0x1.35440e8e5287bp-2", "0x1.f0a8faecefd70p-2",
    "0x1.c9705eba1dbfcp-2", "0x1.10ea7383dc725p-1",
    "0x1.ddbca0c74a25ap-2", "0x1.111110b08ec38p-1",
    "0x1.dddddd896e3f0p-2", "0x1.1111111111111p-1",
    # middle_even[1:]
    "0x1.b425ed097b426p-2", "0x1.dd9b6185cdf96p-2",
    "0x1.dddddd34fe9fep-2", "0x1.ddddddddddddep-2",
    # middle_odd: (r1, w_out, w_mid) per state
    "0x1.cda042f0236e0p-4", "0x1.1c71c71c71c72p-2", "0x1.c71c71c71c71cp-2",
    "0x1.a50506655d740p-8", "0x1.c94e363d31e44p-2", "0x1.10c4c0478bbcfp-1",
    "0x1.4571536426000p-15", "0x1.ddbca072d6b1cp-2", "0x1.11111050104b2p-1",
    "0x1.9d8fd80000000p-30", "0x1.dddddd896e3eep-2", "0x1.1111111111111p-1",
    "0x0.0p+0", "0x1.dddddddddddddp-2", "0x1.1111111111111p-1",
)


def test_table_bits_are_pinned():
    values = [v for state in TABLE.states for v in (state.A, state.B)]
    values += TABLE.offsets.tolist() + TABLE.weights.tolist()
    values += list(TABLE.middle_even[1:])
    values += [v for closure in TABLE.middle_odd for v in closure]
    assert [v.hex() for v in values] == list(TABLE_HEX)
    assert math.isnan(TABLE.middle_even[0])


# Intervals of the pinned small-rule digest, beside [0, n]: moderate ones,
# a far from 0, b - a near the double range, a + b beyond it, cells at or
# below the resolution of a (refused for most n), and subnormal ones.
PINNED_INTERVALS = (
    (0.0, 1.0), (-3.0, 17.0), (1e6, 1e6 + 1.0), (1e12, 1e12 + 1.0),
    (-1e300, 1e300), (1e308, 1.7e308), (-1e6, -1e6 + 3.7),
    (1e15, 1e15 + 1.0), (1e16, 1e16 + 8.0), (5e-324, 1e-322), (0.0, 5e-310),
)
# n = 4096..4098 straddle the edge of the unit-row table (_TABLE_ROWS)
PINNED_NS = (*range(1, 301), 4096, 4097, 4098)
# 2n + 1 on both sides of 2^14, 2^15 and 3 * 2^14 rows, inside build_rule's
# one pass, and a rule of 200003 nodes, four blocks of _BLOCK rows whose
# middle and last blocks are partial
EDGE_NS = (8191, 8192, 8193, 16383, 16384, 16385, 24576, 100001)


def _small_rules_digest(ns):
    """sha256 of build_rule's nodes and weights, or its refusal message, for
    every n in ns on each of PINNED_INTERVALS and on [0, n]."""
    digest = hashlib.sha256()
    for n in ns:
        for a, b in (*PINNED_INTERVALS, (0.0, float(n))):
            digest.update(f"{a!r} {b!r} {n}\n".encode())
            try:
                rule = build_rule(make_grid(a, b, n))
            except ConstructionError as exc:
                digest.update(f"refused: {exc}\n".encode())
            else:
                digest.update(rule.nodes.tobytes() + rule.weights.tobytes())
    return digest.hexdigest()


def test_small_rules_match_their_pinned_digest():
    # captured from the build before the unit-row table, which derived every
    # row from its index: an independent check of the rows read from it
    pinned = (Path(__file__).parent / "golden" / "build_rule_small.sha256").read_text()
    assert _small_rules_digest(PINNED_NS) == pinned.split()[0]


def test_rules_at_the_block_edges_match_their_pinned_digest():
    # captured from the build that wrote two separate arrays whole and
    # checked them at once: the blocked build keeps every bit and refusal
    pinned = (Path(__file__).parent / "golden" / "build_rule_edges.sha256").read_text()
    assert _small_rules_digest(EDGE_NS) == pinned.split()[0]


def test_large_builds_hold_only_block_sized_temporaries():
    # written and checked _BLOCK rows at a time: no full-length index,
    # mask or second copy beside the rule (7.6 MiB of them at n = 10^6
    # when the rule was written and checked whole)
    grid = make_grid(0.0, 1.0, 1_000_000)
    tracemalloc.start()
    try:
        rule = build_rule(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rule.nodes.nbytes + rule.weights.nbytes + (1 << 20)


def test_rule_of_the_wrong_length_is_refused():
    # 2n + 1 nodes and weights over n cells: 2n nodes, or 2n + 2 weights, is no rule
    grid = make_grid(0.0, 1.0, 3)
    with pytest.raises(ValueError, match="n=3 cells needs 7 entries"):
        QuadratureRule(grid=grid, nodes=np.linspace(0.1, 0.9, 6), weights=np.full(8, 0.125))


def test_unit_rows_are_read_only_and_small():
    # built once at import and shared by every build: no build can write it
    assert not _ROWS.flags.writeable and _ROWS.nbytes <= 128 * 1024
    for row in _ROWS:
        with pytest.raises(ValueError, match="read-only"):
            row[0] = 1.0


@pytest.mark.parametrize("a", [0.0, -3.0, 17.0])
def test_unit_spaced_rules_equal_the_cell_by_cell_recursion(a):
    for n in list(range(1, 41)) + [101, 1000]:
        grid = make_grid(a, a + n, n)
        nodes, weights = _rule_cell_by_cell(grid)
        rule = build_rule(grid)
        assert rule.nodes.tolist() == nodes, n
        assert rule.weights.tolist() == weights, n


def test_build_refuses_cells_narrower_than_the_coordinates_resolve():
    # ulp(1e16) = 2 > h = 1: scaled nodes collide after rounding, in one
    # block of _BLOCK rows at n = 64 and over 17 at n = 8 _BLOCK
    assert -(-(2 * 8 * _BLOCK + 1) // _BLOCK) == 17
    for n in (64, 8 * _BLOCK):
        with pytest.raises(ConstructionError, match="nodes are not strictly increasing"):
            build_rule(make_grid(1e16, 1e16 + n, n))


def test_hand_built_rule_leaves_the_callers_arrays_alone():
    grid = make_grid(0.0, 1.0, 3)
    rule = build_rule(grid)
    nodes, weights = rule.nodes.copy(), rule.weights.copy()
    q = QuadratureRule(grid, nodes, weights)
    assert nodes.flags.writeable and weights.flags.writeable
    nodes[0] = 5.0
    assert q.nodes[0] == rule.nodes[0]
    assert not (q.nodes.flags.writeable or q.weights.flags.writeable)


def test_built_rule_holds_the_rows_of_its_one_block():
    # build_rule hands its read-only block's rows to the rule as they are
    for n in (1, 64, 10_000):
        rule = build_rule(make_grid(-3.0, 17.0, n))
        block = rule.nodes.base
        assert rule.weights.base is block and block.shape == (2, 2 * n + 1)
        assert not (block.flags.writeable or rule.nodes.flags.writeable
                    or rule.weights.flags.writeable)
        assert np.shares_memory(rule.nodes, block) and np.shares_memory(rule.weights, block)


def test_hand_built_rule_from_writable_lists_or_arrays_is_a_frozen_copy():
    grid = make_grid(0.0, 1.0, 3)
    rule = build_rule(grid)
    lists = rule.nodes.tolist(), rule.weights.tolist()
    arrays = rule.nodes.copy(), rule.weights.copy()
    for nodes, weights in (lists, arrays):
        q = QuadratureRule(grid, nodes, weights)
        for given, kept in ((nodes, q.nodes), (weights, q.weights)):
            assert type(kept) is np.ndarray and kept.dtype == np.float64
            assert not kept.flags.writeable
            assert kept.tobytes() == np.asarray(given).tobytes()
            assert not (isinstance(given, np.ndarray) and np.shares_memory(given, kept))


def test_hand_built_rule_does_not_change_with_a_writable_base():
    # read-only views of a writable array: the base can still be written
    grid = make_grid(0.0, 1.0, 3)
    rule = build_rule(grid)
    base = np.vstack([rule.nodes, rule.weights])
    nodes, weights = base
    nodes.setflags(write=False)
    for q in (QuadratureRule(grid, base[0], base[1]), QuadratureRule(grid, nodes, weights)):
        base[0, 0] = 5.0
        assert q.nodes.tobytes() == rule.nodes.tobytes()
        base[0, 0] = rule.nodes[0]
    # build_rule's rows re-wrapped: read-only copies of the same bytes
    q = QuadratureRule(grid, rule.nodes, rule.weights)
    for given, kept in ((rule.nodes, q.nodes), (rule.weights, q.weights)):
        assert not (kept.flags.writeable or np.shares_memory(given, kept))
        assert kept.tobytes() == given.tobytes()


def test_validate_rule_checks_what_scaling_can_break():
    grid = make_grid(0.0, 1.0, 3)
    rule = build_rule(grid)
    nodes, weights = rule.nodes.copy(), rule.weights.copy()
    _check(grid, [(nodes, weights)])
    swapped = nodes.copy()
    swapped[[2, 3]] = swapped[[3, 2]]
    bad = {
        "strictly increasing": (swapped, weights),
        "positive": (nodes, np.where(np.arange(7) == 3, -weights, weights)),
        "sum to": (nodes, weights * (1.0 + 1e-9)),
        "inside": (np.concatenate([[0.0], nodes[1:]]), weights),
    }
    for match, (t, w) in bad.items():
        with pytest.raises(ConstructionError, match=match):
            _check(grid, [(t, w)])


def test_check_names_a_weight_sum_beyond_the_double_range():
    # two spans of one node each, weights 1.5e308: math.fsum of their sums
    # raises OverflowError, and the check reports the sum as inf
    grid = make_grid(0.0, 1e308, 1)
    spans = [(np.array([0.25e308]), np.array([1.5e308])),
             (np.array([0.5e308]), np.array([1.5e308]))]
    with pytest.raises(ConstructionError) as refused:
        _check(grid, spans)
    assert str(refused.value) == "weights sum to inf, expected 1e+308"


def test_extreme_spans_build_or_fail_cleanly():
    # spans log-uniform over 1e-300..1e300, left ends from near 0 to 1e16
    # spans away; every build integrates a quintic to within rounding and
    # node placement, every other grid is refused with a library error
    rng = np.random.default_rng(5)
    built = refused = 0
    for _ in range(300):
        n = int(rng.integers(1, 65))
        span = 10.0 ** rng.uniform(-300.0, 300.0)
        a = float(rng.choice((-1.0, 1.0)) * 10.0 ** min(
            math.log10(span) + rng.uniform(-2.0, 16.0), 307.0))
        c = rng.uniform(-1.0, 1.0, 6).tolist()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                rule = build_rule(make_grid(a, a + span, n))
            except (ValueError, ConstructionError):
                refused += 1
                continue
            assert_integrates_quintic(rule, c)
        built += 1
    assert built >= 150 and refused >= 20


def assert_integrates_quintic(rule, c):
    """The rule integrates the quintic with coefficients c in (t - a)/(b - a)
    to within rounding and node placement."""
    eps = np.finfo(float).eps
    grid = rule.grid
    q = apply_rule(rule, horner_quintic(grid.a, grid.b, c))
    width = grid.b - grid.a
    assert np.isfinite(rule.nodes).all() and np.isfinite(rule.weights).all()
    exact = width * math.fsum(ck / (k + 1) for k, ck in enumerate(c))
    placement = math.ulp(max(abs(grid.a), abs(grid.b))) + eps * width
    size = math.fsum(abs(ck) for ck in c)
    slope = math.fsum(k * abs(ck) for k, ck in enumerate(c))
    assert abs(q - exact) <= 32.0 * eps * width * size + 4.0 * slope * placement, (
        grid, q, exact)


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (-3.0, 17.0), (1e308, 1.7e308),
                                 (123456.7, 123460.1), (-1e6, -1e6 + 3.7)])
def test_spans_are_slices_of_the_whole_rule(a, b):
    # any span, across the prefix, the fill, the middle and the mirror, and
    # the spans of a streamed rule, hold the whole rule's doubles, though
    # build_rule mirrors its left half and a span makes its right-half rows
    # itself; for small n every suffix span too
    rng = np.random.default_rng(15)
    # n = _TABLE_ROWS - 1 .. + 1: rules on both sides of the unit-row
    # table's edge, the last read whole from it and the first past it
    edge = [_TABLE_ROWS - 1, _TABLE_ROWS, _TABLE_ROWS + 1]
    # n = _BLOCK // 2 - 1, the largest rule built in one pass, and on:
    # rules built _BLOCK rows at a time, the first with a last block of one
    # row, then of three, and with the middle row first in the second block
    # and one row after it
    blocked = [_BLOCK // 2 - 1, _BLOCK // 2, _BLOCK // 2 + 1, _BLOCK, _BLOCK + 1]
    for n in [*range(1, 24), 101, 1000, 1001, *edge, *blocked]:
        grid = make_grid(a, b, n)
        rule = build_rule(grid)
        m = 2 * n + 1
        spans = [(i, m) for i in range(m)] if n <= 23 else []
        for _ in range(20):
            i = int(rng.integers(0, m))
            spans.append((i, int(rng.integers(i + 1, m + 1))))
        for i, j in spans:
            nodes, weights = np.empty(j - i), np.empty(j - i)
            _span(grid, i, nodes, weights)
            assert nodes.tobytes() == rule.nodes[i:j].tobytes(), (n, i, j)
            assert weights.tobytes() == rule.weights[i:j].tobytes(), (n, i, j)
        spans = list(_spans(grid))
        _check(grid, spans)
        assert len(spans) == -(-m // _BLOCK)
        assert np.concatenate([t for t, _ in spans]).tobytes() == rule.nodes.tobytes()
        assert np.concatenate([w for _, w in spans]).tobytes() == rule.weights.tobytes()
        table = np.concatenate([t for t, _ in _spans(grid, n + 1)])
        assert table.tobytes() == rule.nodes[: n + 1].tobytes()


def test_build_and_streamed_spans_agree_on_every_pinned_grid():
    # build_rule writes and checks a rule of one block in its own pass;
    # splinequad rule checks the spans of _spans with _check.  On every
    # grid of the pinned small-rule digest they give the same bytes, or
    # refuse with the same message
    refused = 0
    for n in PINNED_NS:
        for a, b in (*PINNED_INTERVALS, (0.0, float(n))):
            grid = make_grid(a, b, n)
            try:
                rule = build_rule(grid)
            except ConstructionError as exc:
                built = f"refused: {exc}"
                refused += 1
            else:
                built = rule.nodes.tobytes() + rule.weights.tobytes()
            spans = list(_spans(grid))
            try:
                _check(grid, spans)
            except ConstructionError as exc:
                streamed = f"refused: {exc}"
            else:
                nodes, weights = zip(*spans)
                streamed = np.concatenate(nodes).tobytes() + np.concatenate(weights).tobytes()
            assert built == streamed, (a, b, n)
    # 936 of the 3636 grids are refused, for disorder, the weight sum or an
    # extreme node, as the pinned digest records
    assert refused == 936


@pytest.mark.parametrize("n", [_BLOCK // 2 - 1, _BLOCK // 2, _BLOCK - 1, _BLOCK, _BLOCK + 1])
def test_build_and_streamed_spans_agree_at_the_one_pass_limit_and_the_block_edges(n):
    # n = _BLOCK // 2 - 1 is the largest rule build_rule writes in one pass
    # and checks as one span, n = _BLOCK // 2 the smallest it writes in two
    # blocks; 2n + 1 = 2 _BLOCK - 1, 2 _BLOCK + 1 and 2 _BLOCK + 3 rows end
    # one row short of two blocks and one and three rows into a third.  On
    # moderate grids, where a + b overflows and where the nodes collide,
    # both give the same bytes or the same refusal
    for a, b in ((0.0, 1.0), (0.0, float(n)), (-3.0, 17.0), (1e308, 1.7e308), (1e16, 1e16 + n)):
        grid = make_grid(a, b, n)
        try:
            rule = build_rule(grid)
        except ConstructionError as exc:
            built = f"refused: {exc}"
        else:
            built = rule.nodes.tobytes() + rule.weights.tobytes()
        spans = list(_spans(grid))
        assert [len(t) for t, _ in spans] == [
            min(_BLOCK, 2 * n + 1 - i) for i in range(0, 2 * n + 1, _BLOCK)]
        try:
            _check(grid, spans)
        except ConstructionError as exc:
            streamed = f"refused: {exc}"
        else:
            nodes, weights = zip(*spans)
            streamed = np.concatenate(nodes).tobytes() + np.concatenate(weights).tobytes()
        assert built == streamed, (a, b)
        assert (built == "refused: nodes are not strictly increasing") == (a == 1e16), (a, b)


def test_checks_over_spans_refuse_as_the_whole_rule():
    # carried across a span boundary: the order of the nodes, the sign of
    # the weights and their sum.  Over two spans, each broken rule is
    # refused with the message of the same rule checked as one span
    n = _BLOCK
    grid = make_grid(0.0, 1.0, n)
    rule = build_rule(grid)
    nodes, weights = rule.nodes.copy(), rule.weights.copy()
    swapped = nodes.copy()
    swapped[[n - 1, n]] = swapped[[n, n - 1]]
    bad = {
        "strictly increasing": (swapped, weights),
        "positive": (nodes, np.where(np.arange(len(weights)) == n, -weights, weights)),
        "sum to": (nodes, weights * (1.0 + 1e-9)),
        "inside": (np.append(nodes[:-1], 1.0), weights),
    }
    for match, (t, w) in bad.items():
        with pytest.raises(ConstructionError, match=match) as by_spans:
            _check(grid, [(t[:n], w[:n]), (t[n:], w[n:])])
        with pytest.raises(ConstructionError, match=match) as whole:
            _check(grid, [(t, w)])
        assert str(whole.value) == str(by_spans.value), match


def test_build_refuses_a_disorder_only_across_a_block_edge(monkeypatch):
    # n = _BLOCK: row n, the middle knot, starts the second block and is
    # mirrored nowhere.  Written just below row n - 1, it leaves each block
    # in order and the weights as they were: only the order across the
    # block edge is broken
    n = _BLOCK
    left = quadrature._left

    def middle_below_its_neighbour(grid, lo, nodes, weights):
        left(grid, lo, nodes, weights)
        if lo == n:
            before = np.empty((2, 1))
            left(grid, n - 1, *before)
            nodes[0] = np.nextafter(before[0, 0], -np.inf)

    monkeypatch.setattr(quadrature, "_left", middle_below_its_neighbour)
    for a, b in ((0.0, 1.0), (0.0, float(n))):
        with pytest.raises(ConstructionError, match="strictly increasing"):
            build_rule(make_grid(a, b, n))


def test_grids_where_a_plus_b_overflows_build():
    # b - a and every node are doubles, a + b is not: the right half is
    # mirrored as b - (tau - a) and the odd middle node is a + (b - a) / 2
    rng = np.random.default_rng(8)
    for n in range(1, 9):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rule = build_rule(make_grid(1e308, 1.7e308, n))
            assert_integrates_quintic(rule, rng.uniform(-0.5, 0.5, 6).tolist())
        assert (rule.nodes[1:] > rule.nodes[:-1]).all()
        if n % 2:
            assert rule.nodes[n] == 1e308 + 0.5 * (1.7e308 - 1e308)


# -------------------------------------------------------------- apply_rule

def test_apply_constant():
    rule = build_rule(make_grid(-3.0, 2.0, 4))
    assert apply_rule(rule, lambda t: 1.0) == pytest.approx(5.0, abs=1e-13 * 5.0)


def test_apply_basis_function():
    grid = make_grid(0.0, 5.0, 5)
    rule = build_rule(grid)
    q = apply_rule(rule, lambda t: basis_eval(grid, 3, t))
    assert q == pytest.approx(1.0 / 6.0, abs=1e-14)


def test_apply_quintic_monomial():
    rule = build_rule(make_grid(0.0, 1.0, 2))
    assert apply_rule(rule, lambda t: t**5) == pytest.approx(1.0 / 6.0, abs=1e-14)


def per_node(rule, f):
    """apply_rule as a plain loop: the compensated sum of w * f(t)."""
    return math.fsum(map(operator.mul, rule.weights.tolist(), map(f, rule.nodes.tolist())))


def horner_quintic(a, b, c):
    inv = 1.0 / (b - a)
    c0, c1, c2, c3, c4, c5 = c

    def f(t):
        s = (t - a) * inv
        return ((((c5 * s + c4) * s + c3) * s + c2) * s + c1) * s + c0
    return f


def rational(center, scale):
    inv = 1.0 / scale

    def f(t):
        x = (t - center) * inv
        return 1.0 / (1.0 + x * x)
    return f


def counting_array_calls(f, calls):
    def g(t):
        calls[0] += isinstance(t, np.ndarray)
        return f(t)
    return g


# n just below, at and just above the array cut, 2n + 1 on both sides of
# 2^14 and above 2^15 inside one block, just below and just above one block
# of nodes and just above two, and far above them
CUT_N = ARRAY_MIN_NODES // 2
ARRAY_SIZES = (CUT_N - 1, CUT_N, CUT_N + 1, _BLOCK // 8 - 1, _BLOCK // 8, _BLOCK // 4,
               _BLOCK // 2 - 1, _BLOCK // 2, _BLOCK, 10**5)


@pytest.mark.parametrize("n", ARRAY_SIZES)
def test_apply_array_path_bit_identical_to_per_node(n):
    rng = np.random.default_rng([n, 7])
    for _ in range(3):
        a = float(rng.uniform(-10.0, 10.0))
        b = a + float(10.0 ** rng.uniform(-2.0, 2.0))
        rule = build_rule(make_grid(a, b, n))
        for f in (horner_quintic(a, b, rng.uniform(-1.0, 1.0, 6).tolist()),
                  rational(a + float(rng.uniform(0.0, 1.0)) * (b - a),
                           float(rng.uniform(0.1, 1.0)) * (b - a))):
            calls = [0]
            q = apply_rule(rule, counting_array_calls(f, calls))
            assert q.hex() == per_node(rule, f).hex(), (a, b)
            # one array call per block of _BLOCK nodes from the cut on
            blocks = -(-len(rule) // _BLOCK)
            assert calls[0] == (blocks if len(rule) >= ARRAY_MIN_NODES else 0)


def test_apply_accepts_bool_and_integer_arrays():
    rule = build_rule(make_grid(0.0, 3.0, 2 * CUT_N))
    for f in (lambda t: t > 1.0, lambda t: np.floor(t).astype(np.int64),
              lambda t: np.floor(t).astype(np.uint8)):
        scalar = lambda t, f=f: f(np.array([t]))[0]  # noqa: E731
        assert apply_rule(rule, f).hex() == per_node(rule, scalar).hex()


@pytest.mark.parametrize("n", (2, CUT_N + 1, 29))
def test_apply_scalar_only_callables_unchanged(n):
    grid = make_grid(0.0, math.pi, n)
    rule = build_rule(grid)
    spline = SplineCoefficients(grid, np.linspace(-1.0, 2.0, grid.dimension))
    for f in (math.sin, spline.value, lambda t: basis_eval(grid, 3, t), lambda t: 1.0):
        assert apply_rule(rule, f).hex() == per_node(rule, f).hex()


def test_apply_per_node_holds_no_list_of_the_nodes():
    # full-length lists of 200001 nodes and weights would take about 13 MB
    rule = build_rule(make_grid(0.0, 1.0, 100_000))
    tracemalloc.start()
    try:
        apply_rule(rule, math.sin)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize(
    "n", (CUT_N + 3, _EXTRACT_MIN // 2 - 1, _EXTRACT_MIN // 2, _BLOCK // 8, _BLOCK // 2))
def test_apply_falls_back_per_node_on_unusable_array_results(n):
    # 43 nodes; 1023 and 1025, either side of the cut where math.fsum
    # hands over to the extraction; 16385, one block; _BLOCK + 1, two
    rule = build_rule(make_grid(-1.0, 2.0, n))
    q = horner_quintic(-1.0, 2.0, (0.5, -1.0, 0.25, 2.0, -0.75, 1.0))
    unusable = {
        "list": lambda t: q(t).tolist(),
        "wrong shape": lambda t: np.stack([q(t), q(t)]),
        "0-d": lambda t: np.asarray(q(t)[0]),
    }
    expected = per_node(rule, q).hex()
    for name, on_array in unusable.items():
        def f(t, on_array=on_array):
            return on_array(t) if isinstance(t, np.ndarray) else q(t)
        calls = [0]
        assert apply_rule(rule, counting_array_calls(f, calls)).hex() == expected, name
        assert calls[0] == 1, name
    # a complex array is not cut to its real part: the per-node products
    # are complex and the sum refuses them
    calls = [0]
    with pytest.raises(TypeError):
        apply_rule(rule, counting_array_calls(lambda t: q(t) + 1j, calls))
    assert calls[0] == 1
    if len(rule) > _BLOCK:  # a list from block 2 on only
        start = float(rule.nodes[_BLOCK])

        def listed_from_block_2(t):
            v = q(t)
            return v.tolist() if isinstance(t, np.ndarray) and t[0] >= start else v

        calls = [0]
        got = apply_rule(rule, counting_array_calls(listed_from_block_2, calls))
        assert got.hex() == expected and calls[0] == 2


@pytest.mark.parametrize("n", (100, 1500))
def test_apply_takes_a_long_double_integrand_per_node(n):
    # float64 does not take in a long double array, so f runs per node as on
    # a small rule; at n = 1500 the rule has more than _EXTRACT_MIN nodes
    rule = build_rule(make_grid(0.0, 1.0, n))
    assert (len(rule) >= _EXTRACT_MIN) == (n == 1500)

    def f(t):
        return np.longdouble(2.0) * t

    assert apply_rule(rule, f).hex() == per_node(rule, f).hex()


@pytest.mark.parametrize("n", (3, CUT_N, 28, 40))
def test_apply_refuses_numpy_complex_values(n):
    # math.fsum would take a numpy complex scalar by its real part; from
    # ARRAY_MIN_NODES nodes on the complex array result sends f to the
    # per-node path
    rule = build_rule(make_grid(-1.0, 1.0, n))
    with pytest.raises(TypeError, match="complex"):
        apply_rule(rule, lambda t: np.exp(1j * t))
    with pytest.raises(TypeError, match="complex"):  # complex left of 0 only
        apply_rule(rule, np.emath.sqrt)


@pytest.mark.parametrize("n, k", [(100, 150), (10**4, 16391), (5 * _BLOCK // 8, _BLOCK + 7)])
def test_apply_refuses_a_complex_product_before_f_sees_the_next_node(n, k):
    # a scalar-only f (it raises on an array, as math.cos does) is called
    # per node; the complex value at node k is refused before f is called
    # at node k + 1, in the rule's one block at n = 100 and n = 10^4 and in
    # the second block at n = 5 _BLOCK / 8
    rule = build_rule(make_grid(0.0, 1.0, n))
    assert (len(rule) > _BLOCK) == (k > _BLOCK) and k < len(rule) - 1
    seen = []

    def f(t):
        if isinstance(t, np.ndarray):
            raise TypeError("scalars only")
        seen.append(t)
        return np.complex128(complex(t, 1.0)) if len(seen) == k + 1 else math.cos(t)

    with pytest.raises(TypeError, match="complex"):
        apply_rule(rule, f)
    assert seen == rule.nodes[: k + 1].tolist()


@pytest.mark.parametrize("n", (2, CUT_N + 1, 29))
def test_apply_does_not_swallow_errors(n):
    def broken(t):
        raise KeyError("broken integrand")
    rule = build_rule(make_grid(-1.0, 1.0, n))
    with pytest.raises(KeyError, match="broken integrand"):
        apply_rule(rule, broken)
    # every rule has a node at the midpoint, here 0.0; numpy would give
    # inf/nan with a warning where Python floats raise
    with pytest.raises(ZeroDivisionError):
        apply_rule(rule, lambda t: 1.0 / t)
    with pytest.raises(TypeError):  # complex roots of the negative nodes
        apply_rule(rule, lambda t: t**0.5)


def test_apply_integrand_cannot_write_the_nodes():
    # n = _BLOCK // 2: the nodes are a row of one block, itself read-only
    for n in (CUT_N + 1, _BLOCK // 2):
        rule = build_rule(make_grid(0.0, 1.0, n))
        before = rule.nodes.copy()
        refused = []

        def vandal(t):
            if isinstance(t, np.ndarray):
                for write in (lambda: t.__setitem__(..., 0.0), lambda: t.setflags(write=True)):
                    try:
                        write()
                    except ValueError:
                        refused.append(write)
            return t * t

        assert apply_rule(rule, vandal) == per_node(rule, lambda t: t * t)
        assert len(refused) == 2 * -(-len(rule) // _BLOCK), n
        assert np.array_equal(rule.nodes, before) and not rule.nodes.flags.writeable


@settings(max_examples=25, deadline=None, derandomize=True)
@given(
    coefs=st.lists(st.floats(-10, 10), min_size=6, max_size=6),
    n=st.integers(1, 9),
)
def test_apply_exact_on_random_quintics(coefs, n):
    rule = build_rule(make_grid(0.0, 1.0, n))
    q = apply_rule(rule, lambda t: sum(c * t**p for p, c in enumerate(coefs)))
    exact = sum(c / (p + 1.0) for p, c in enumerate(coefs))
    assert q == pytest.approx(exact, abs=1e-13 * (1.0 + sum(abs(c) for c in coefs)))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    a=st.floats(-20, 20),
    width=st.floats(0.05, 50),
    n=st.integers(1, 40),
)
def test_rule_invariants_property(a, width, n):
    b = a + width
    rule = build_rule(make_grid(a, b, n))
    assert len(rule) == 2 * n + 1
    assert np.all(np.diff(rule.nodes) > 0)
    assert np.all(rule.weights > 0)
    assert rule.nodes[0] > a and rule.nodes[-1] < b
    assert math.fsum(rule.weights.tolist()) == pytest.approx(width, rel=1e-12)


# ------------------------------------------ the sum of the products w * f

def fsum_of(products):
    """math.fsum(products.tolist()), or the exception it raises.  Where the
    products are finite and their absolute sum is below 2^1022, no partial
    sum of fsum can overflow, and its result is the exact sum correctly
    rounded: on 2^12 products or more it is then taken from the exact
    integer sum, rounded by Python's correctly rounded int / int, 1.5-6
    times as fast on 2^17 products."""
    if len(products) >= 1 << 12 and np.isfinite(products).all():
        with np.errstate(over="ignore"):
            small = np.add.reduce(np.abs(products)) < 2.0**1022
        if small:
            return exact_sum(products) / (1 << 1074)
    return math.fsum(products.tolist())


def _fsum_products(weights, values):
    """math.fsum((weights * values).tolist()) by fsum_blocks."""
    return fsum_blocks(lambda lo: weights[lo : lo + _BLOCK] * values[lo : lo + _BLOCK], len(weights))


def assert_sums_as_fsum(weights, values):
    """_fsum_products gives math.fsum of the products bit for bit, or raises
    the exception fsum raises."""
    weights, values = np.asarray(weights, dtype=float), np.asarray(values)
    assert weights.shape == values.shape
    with np.errstate(over="ignore"):  # products beyond the double range are inf
        try:
            expected = fsum_of(weights * values)
        except (OverflowError, ValueError) as exc:
            with pytest.raises(type(exc)):
                _fsum_products(weights, values)
        else:
            assert _fsum_products(weights, values).hex() == expected.hex()


def spread_values(rng, size, lo, hi):
    """Random signs and mantissas with binary exponents uniform in [lo, hi]."""
    mantissas = rng.uniform(0.5, 1.0, size) * rng.choice((-1.0, 1.0), size)
    return np.ldexp(mantissas, rng.integers(lo, hi, size, endpoint=True))


# at the cut, at twice the cut and at the block ends, +-1, and a second
# block of 127 and 128 products; inside one block, 2^14 and 2^15 products
# +-1, and 2^14 + 127 and + 128
SUM_LENGTHS = (
    _EXTRACT_MIN - 1, _EXTRACT_MIN, _EXTRACT_MIN + 1,
    2 * _EXTRACT_MIN - 1, 2 * _EXTRACT_MIN, 2 * _EXTRACT_MIN + 1,
    _BLOCK // 4 - 1, _BLOCK // 4, _BLOCK // 4 + 1,
    _BLOCK // 4 + 127, _BLOCK // 4 + 128,
    _BLOCK // 2 - 1, _BLOCK // 2, _BLOCK // 2 + 1,
    _BLOCK - 1, _BLOCK, _BLOCK + 1,
    _BLOCK + 127, _BLOCK + 128,
    2 * _BLOCK - 1, 2 * _BLOCK, 2 * _BLOCK + 1,
)


# at the cut and twice it, inside one block, and one and two blocks and a
# product
SPLIT_LENGTHS = (_EXTRACT_MIN, 2 * _EXTRACT_MIN, _BLOCK // 4 + 1, _BLOCK // 2 + 1,
                 _BLOCK + 1, 2 * _BLOCK + 1)


@pytest.mark.parametrize("n", SUM_LENGTHS)
def test_sum_equals_fsum_on_seeded_arrays(n):
    rng = np.random.default_rng([n, 11])
    weights = rng.uniform(0.1, 1.0, n)
    families = {
        "narrow": lambda: spread_values(rng, n, -3, 3),
        "wide": lambda: spread_values(rng, n, -300, 300),
        # the products' absolute sum stays below 2^1023
        "whole range": lambda: spread_values(rng, n, -1074, 1000),
        "subnormal": lambda: np.ldexp(rng.integers(-2**20, 2**20, n).astype(float), -1074),
        "normal and subnormal": lambda: np.where(
            rng.uniform(size=n) < 0.5, spread_values(rng, n, -1074, -1020),
            spread_values(rng, n, -10, 10)),
        "one huge among tiny": lambda: np.concatenate(
            [spread_values(rng, n - 1, -1000, -900), [1e300]])[rng.permutation(n)],
        "exp over +-700": lambda: np.exp(rng.uniform(-700.0, 700.0, n)),
        "mostly zeros": lambda: np.where(rng.uniform(size=n) < 0.99, 0.0,
                                         spread_values(rng, n, -60, 60)),
    }
    for make in families.values():
        for _ in range(3):
            values = make()
            assert_sums_as_fsum(weights, values)
            assert_sums_as_fsum(np.ones(n), values)


@pytest.mark.parametrize("n", SPLIT_LENGTHS)
def test_sum_of_exact_cancellation_is_fsums_zero(n):
    rng = np.random.default_rng([n, 12])
    half = spread_values(rng, n // 2, -200, 200)
    half[:2] = 1.0, 2.0**-80
    pairs = np.concatenate([half, -half, np.zeros(n % 2)])
    for values in (pairs, pairs[rng.permutation(n)], np.full(n, -0.0),
                   np.where(pairs > 0.0, 0.0, -0.0)):
        assert_sums_as_fsum(np.ones(n), values)
    assert _fsum_products(np.ones(n), pairs).hex() == "0x0.0p+0"


def test_sum_gives_a_zero_total_the_sign_fsum_gives(monkeypatch):
    # CPython's fsum returns +0.0 for every exact-zero total, as the sum of
    # the extracted partials does; an fsum that keeps the IEEE sign of zero
    # (-0.0 when every input is -0.0) must decide a zero total from the
    # products themselves
    fsum = math.fsum

    def signed_fsum(items):
        items = list(items)
        return fsum(items) or math.copysign(0.0, sum(items, -0.0))

    monkeypatch.setattr(math, "fsum", signed_fsum)
    n = _BLOCK + 1
    for values in (np.full(n, -0.0), np.zeros(n), np.r_[-1.0, np.full(n - 2, -0.0), 1.0]):
        assert _fsum_products(np.ones(n), values).hex() == signed_fsum(values.tolist()).hex()
    assert _fsum_products(np.ones(n), np.full(n, -0.0)).hex() == "-0x0.0p+0"


@pytest.mark.parametrize("n", SPLIT_LENGTHS)
def test_sum_of_nonfinite_products_is_fsums(n):
    rng = np.random.default_rng([n, 13])
    base = spread_values(rng, n, -20, 20)
    at = rng.choice(n, 2, replace=False)
    for specials in ((math.inf,), (-math.inf,), (math.nan,), (math.inf, -math.inf),
                     (math.nan, math.inf), (math.inf, math.inf)):
        values = base.copy()
        values[at[: len(specials)]] = specials
        assert_sums_as_fsum(np.ones(n), values)
    values = base.copy()
    values[n - 1] = math.inf
    values[0] = math.inf
    values[n // 2] = -math.inf
    with pytest.raises(ValueError, match="inf"):
        _fsum_products(np.ones(n), values)
    values[n // 2] = math.nan
    assert math.isnan(_fsum_products(np.ones(n), values))


@pytest.mark.parametrize("n", SPLIT_LENGTHS)
def test_sum_overflows_as_fsum_does(n):
    rng = np.random.default_rng([n, 14])
    shift = max(_SUM_SHIFT, (n + 2).bit_length())
    top = 1023 - shift  # products below 2^top take the extraction
    big = np.ldexp(rng.uniform(0.5, 1.0, n), top)
    signs = rng.choice((-1.0, 1.0), n)
    cases = {
        "all positive, overflows": np.full(n, 1e308),
        "intermediate overflow only": np.r_[1e308, 1e308, -1e308, np.zeros(n - 3)],
        "huge, cancelling": np.r_[big[: n // 2], -big[: n // 2], np.zeros(n % 2)],
        "just below the guard": big * signs,
        "just above the guard": 2.0 * big * signs,
        "at the top of the range": np.ldexp(rng.uniform(0.5, 1.0, n), 1023) * signs,
    }
    raised = 0
    for values in cases.values():
        try:
            math.fsum(values.tolist())
        except OverflowError:
            raised += 1
        assert_sums_as_fsum(np.ones(n), values)
    assert raised >= 2
    with pytest.raises(OverflowError):
        _fsum_products(np.ones(n), np.full(n, 1e308))


def test_sum_second_pass_takes_remainders_at_their_bound():
    # +-0.75 make sigma = 2^_SUM_SHIFT for the first block; every other
    # product lies just below ulp(sigma)/2, so it is a remainder as large as
    # the bound the rounding of the sum is certified with, all of one sign.
    # The last product takes away the block's rounded sum: the total is
    # that rounding error, in which an inexact sum would show
    for seed in range(8):
        rng = np.random.default_rng([seed, 19])
        values = np.ldexp(rng.uniform(1.0 - 2.0**-20, 1.0, _BLOCK + 1), _SUM_SHIFT - 53)
        values[:2] = 0.75, -0.75
        values[-1] = -math.fsum(values[:-1].tolist())
        assert_sums_as_fsum(np.ones(_BLOCK + 1), values)


def test_the_sum_is_a_leaf_module(monkeypatch):
    # loaded by path, outside the package, the module imports no splinequad
    # module, so grid_basis and quadrature can both import it at module level
    imported = []
    real_import = builtins.__import__

    def recording(name, globals=None, locals=None, fromlist=(), level=0):
        imported.append((name, level))
        return real_import(name, globals, locals, fromlist, level)

    spec = importlib.util.spec_from_file_location("fsum_alone", _fsum.__file__)
    alone = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(builtins, "__import__", recording)
    spec.loader.exec_module(alone)
    monkeypatch.undo()
    assert imported and all(
        level == 0 and name.partition(".")[0] != "splinequad" for name, level in imported
    ), imported
    # three blocks, the last short; the sines cancel to their rounding floor
    rng = np.random.default_rng(36)
    n = 2 * _BLOCK + 1000
    for values in (spread_values(rng, n, -60, 60), np.sin(np.linspace(0.0, 2.0 * math.pi, n))):
        got = alone.fsum_blocks(lambda lo: values[lo : lo + alone._BLOCK].copy(), n)
        assert got.hex() == math.fsum(values.tolist()).hex()


def units(x: float) -> int:
    """x exactly, in units of 2^-1100."""
    num, den = x.as_integer_ratio()
    return num * (2**1100 // den)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    specials=st.lists(st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
                      max_size=40),
    n=st.integers(1, 400),
    lo=st.integers(-1074, 1000),
    width=st.integers(0, 2100),
    seed=st.integers(0, 2**32 - 1),
)
def test_the_exact_reference_is_fsum(specials, n, lo, width, seed):
    # exact_sum, which places on_a_tie's ties, against units, and rounded
    # as fsum_of rounds it, against math.fsum where no partial sum of fsum
    # can overflow
    rng = np.random.default_rng(seed)
    values = spread_values(rng, n, lo, min(lo + width, 1000))
    values[rng.integers(0, n, len(specials))] = specials
    total = exact_sum(values)
    assert total << 26 == sum(map(units, values.tolist()))
    with np.errstate(over="ignore"):
        small = np.add.reduce(np.abs(values)) < 2.0**1022
    if small:
        assert (total / (1 << 1074)).hex() == math.fsum(values.tolist()).hex()


def on_a_tie(values, offset, pieces=24):
    """values with the last pieces entries replaced by doubles that make the
    exact total the midpoint of two adjacent doubles near the total of the
    others, plus offset 2^-30ths of their distance; None where the others
    are not finite or their total is beyond the double range."""
    if not np.isfinite(values).all():
        return None
    rest = exact_sum(values[:-pieces]) << 26
    try:
        low = float(Fraction(rest, 2**1100))
        high = math.nextafter(low, math.inf)
        gap = units(high) - units(low)
        remainder = (units(low) + units(high)) // 2 + offset * (gap >> 30) - rest
        tail = []
        while remainder and len(tail) < pieces:
            tail.append(float(Fraction(remainder, 2**1100)))
            remainder -= units(tail[-1])
    except OverflowError:  # a total or a piece beyond the doubles
        return None
    if remainder:
        return None
    return np.concatenate([values[:-pieces], tail, np.zeros(pieces - len(tail))])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    specials=st.lists(st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
                      max_size=40),
    n=st.sampled_from(SUM_LENGTHS),
    lo=st.integers(-1074, 1000),
    width=st.integers(0, 2100),
    seed=st.integers(0, 2**32 - 1),
    tie=st.sampled_from((None, -1, 0, 1)),
)
# two specials whose sum leaves the double range, with a tie: on_a_tie's
# total overflows and fsum raises.  Hypothesis takes some of its draws from
# the literals of the local modules already imported, so a full run draws
# other examples than this file alone; pinned, it runs in every order
@example(specials=[8.99e307, 8.99e307], n=_EXTRACT_MIN - 1, lo=0, width=10, seed=0, tie=0)
def test_sum_equals_fsum_property(specials, n, lo, width, seed, tie):
    # arbitrary floats (hypothesis favours the edges: +-0, subnormals, the
    # largest finite, inf, nan) scattered over random products; with tie,
    # the same products are also checked with their exact total moved onto,
    # or just beside, the midpoint of two doubles, where its rounding is
    # decided by the last bit (where on_a_tie can place it)
    rng = np.random.default_rng(seed)
    values = spread_values(rng, n, lo, min(lo + width, 1000))
    values[rng.integers(0, n, len(specials))] = specials
    weights = rng.uniform(0.5, 2.0, n)
    tied = None if tie is None else on_a_tie(values, tie)
    for v in (values,) if tied is None else (values, tied):
        assert_sums_as_fsum(np.ones(n), v)
        assert_sums_as_fsum(weights, v)


# one block (8193 and 24577 nodes) and two (3 _BLOCK / 2 + 1)
@pytest.mark.parametrize("n", (4096, 3 * 4096, 3 * _BLOCK // 4))
def test_apply_sums_landing_on_or_beside_a_rounding_tie_are_fsums(n):
    # on [0, 15 n] most weights are 7 or 8, and integers k below 2^44 (on
    # long rules, below 2^61 / (8 (2n + 1)), so that the total stays below
    # 2^62) times 2^-40 at those nodes (0 elsewhere) make products w k 2^-40
    # that are exact, so their total is known exactly.  One k moved by d
    # changes it by 7 d: enough to put it on the midpoint of two doubles.  Beside the
    # midpoint, the first node (weight 4.53) holds 2^-60 or -2^-60, far
    # closer to the midpoint than the bound a rounded sum is certified
    # with, and it decides the rounding.  Such a sum
    # takes one call of f per block when it is certified (a total that is
    # a double), two when it is not, and one for a rule of one block,
    # whose remainders are still at hand
    rule = build_rule(make_grid(0.0, 15.0 * n, n))
    blocks = -(-len(rule) // _BLOCK)
    sevens = np.flatnonzero(rule.weights == 7.0)
    eights = np.flatnonzero(rule.weights == 8.0)
    rng = np.random.default_rng([n, 23])
    top = min(2**44, 2**61 // (8 * len(rule)))
    k = np.zeros(len(rule), dtype=np.int64)
    k[sevens] = rng.integers(0, top, len(sevens))
    k[eights] = rng.integers(0, top, len(eights))
    total = int(np.dot(rule.weights.astype(np.int64), k))
    assert 2**54 < total < 2**62
    gap = 1 << (total.bit_length() - 53)  # the doubles' spacing there
    j = int(sevens[len(sevens) // 2])
    d = ((gap // 2 - total) * pow(7, -1, gap)) % gap  # 7 d = gap / 2 - total (mod gap)
    k_tie = k.copy()
    k_tie[j] += d
    assert (total + 7 * d) % gap == gap // 2 and (total + 7 * d).bit_length() == total.bit_length()
    cases = {"a double": (k, 0.0, blocks), "the midpoint": (k_tie, 0.0, 2 * blocks)}
    for side in (1.0, -1.0):
        cases[f"beside the midpoint, {side:+}"] = (k_tie, side * 2.0**-60, 2 * blocks)
    sums = {}
    for name, (ks, nudge, expected_calls) in cases.items():
        values = np.ldexp(ks.astype(float), -40)
        values[0] = nudge
        at = rule.nodes

        def f(t, values=values):
            return values[np.searchsorted(at, t)]

        calls = [0]
        got = apply_rule(rule, counting_array_calls(f, calls))
        expected = math.fsum((rule.weights * values).tolist())
        assert got.hex() == expected.hex(), name
        assert calls[0] == (1 if blocks == 1 else expected_calls), name
        sums[name] = got
    assert blocks == (1 if 2 * n < _BLOCK else 2)
    up, down = sums["beside the midpoint, +1.0"], sums["beside the midpoint, -1.0"]
    assert up == math.nextafter(down, math.inf) and sums["the midpoint"] in (up, down)


def test_apply_array_path_holds_one_array_of_values():
    # f is called a block of _BLOCK nodes at a time and each block's
    # products are reduced before the next, so neither f's values, nor its
    # temporaries, nor the products are ever full-length (30.5 MiB when f
    # took all 2 * 10^6 + 1 nodes at once)
    rule = build_rule(make_grid(-1.0, 2.0, 10**6))
    f = horner_quintic(-1.0, 2.0, (0.5, -1.0, 0.25, 2.0, -0.75, 1.0))
    tracemalloc.start()
    try:
        apply_rule(rule, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 << 20


def on_nodes(rule, at, special, f):
    """f, but special[k] at the node at[k] (an array-capable integrand)."""
    by_node = dict(zip(rule.nodes[list(at)].tolist(), special))

    def g(t):
        if not isinstance(t, np.ndarray):  # a Python float, on the per-node path
            return by_node[t] if t in by_node else f(t)
        v = f(t)
        for i, s in zip(at, special):
            v = np.where(t == rule.nodes[i], s, v)
        return v
    return g


def fsum_outcome(rule, f):
    """math.fsum of the products of one whole-array call of f: the value's
    hex, or the type of the exception fsum raises."""
    with np.errstate(over="ignore"):
        products = rule.weights * f(rule.nodes)
    try:
        return math.fsum(products.tolist()).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def apply_outcome(rule, f):
    try:
        return apply_rule(rule, f).hex()
    except (OverflowError, ValueError) as exc:
        return type(exc)


def test_apply_refusal_in_a_later_block_takes_the_per_node_path():
    rule = build_rule(make_grid(-1.0, 2.0, _BLOCK + 8))  # 3 blocks, the last of 17 nodes
    q = horner_quintic(-1.0, 2.0, (0.5, -1.0, 0.25, 2.0, -0.75, 1.0))
    at = float(rule.nodes[2 * _BLOCK + 5])  # in block 3
    calls = [0]
    with pytest.raises(ZeroDivisionError):
        apply_rule(rule, counting_array_calls(lambda t: 1.0 / (t - at), calls))
    assert calls[0] == 3  # blocks 1-3, then per node from the first node
    with pytest.raises(ZeroDivisionError):
        per_node(rule, lambda t: 1.0 / (t - at))

    # a list instead of an array from block 3 on: the per-node sum
    start = float(rule.nodes[2 * _BLOCK])

    def listed_from_block_3(t):
        v = q(t)
        return v.tolist() if isinstance(t, np.ndarray) and t[0] >= start else v

    assert apply_rule(rule, listed_from_block_3).hex() == per_node(rule, q).hex()


# a near-overflow value: with weights near 1, three of them sum beyond the
# double range, and they cancel when one is negated
BIG = 1.5 * 2.0**1022
LATE_SPECIALS = ((math.inf,), (-math.inf,), (math.nan,), (BIG,), (math.inf, -math.inf),
                 (BIG, BIG, BIG), (BIG, -BIG, BIG))


@pytest.mark.parametrize("n", (_BLOCK // 4, _BLOCK // 4 + 100, _BLOCK, _BLOCK + 100))
def test_apply_special_products_in_the_last_block_are_fsums(n):
    # the last block holds one node (n = _BLOCK) or 201, and at
    # n = _BLOCK // 4 and _BLOCK // 4 + 100 it is the rule's one block.  The
    # special products sit at three of its nodes, or at its one node; the
    # grid is [0, 2n], so their weights are about 1
    rule = build_rule(make_grid(0.0, 2.0 * n, n))
    q = horner_quintic(0.0, 2.0 * n, (0.5, -1.0, 0.25, 2.0, -0.75, 1.0))
    blocks = -(-len(rule) // _BLOCK)
    last = (blocks - 1) * _BLOCK  # the last block's first node
    single = last == len(rule) - 1  # a last block of one node
    at = (last,) if single else (last + 3, last + 50, last + 101)
    outcomes = set()
    for special in LATE_SPECIALS[: 4 if single else None]:
        f = on_nodes(rule, at, special, q)
        calls = [0]
        got = apply_outcome(rule, counting_array_calls(f, calls))
        assert got == fsum_outcome(rule, f), special
        # math.fsum of the products decides: over the products the one
        # block still holds, after one call, and after a second call per
        # block on a larger rule; a last block of one product is summed as
        # it is, which decides with no second call
        assert calls[0] == (blocks if single or blocks == 1 else 2 * blocks)
        outcomes.add(got)
    assert {"inf", "-inf", "nan"} <= outcomes
    if not single:
        assert {ValueError, OverflowError} <= outcomes


def test_apply_total_at_2_1023_from_a_short_last_block_is_decided_exactly():
    # 65601 nodes: the last block of 65 is appended as it is.  f is 1e-300
    # but at the six largest nodes, whose products sum to 1.2e308, at least
    # 2^1023, where the total moved by the certificate's bound might not be
    # finite.  So the sum is decided exactly, with a second call of f per block
    rule = build_rule(make_grid(0.0, 1e300, 32800))
    assert len(rule) == _BLOCK + 65
    values = np.full(len(rule), 1e-300)
    values[-6:] = 1.2e308 / 6.0 / rule.weights[-6:]
    expected = math.fsum((rule.weights * values).tolist())
    assert 2.0**1023 <= expected < math.inf
    calls = [0]
    got = apply_rule(rule, counting_array_calls(
        lambda t: values[np.searchsorted(rule.nodes, t)], calls))
    assert got.hex() == expected.hex() and calls[0] == 2 * 2


def test_apply_zero_total_is_fsums():
    # an exact-zero total is math.fsum's too: of the products the one block
    # still holds, and on a rule of three blocks after a second call per block
    for n, calls_of_f in ((_BLOCK // 4, 1), (_BLOCK, 2 * 3)):
        rule = build_rule(make_grid(-1.0, 2.0, n))
        calls = [0]
        got = apply_rule(rule, counting_array_calls(np.zeros_like, calls))
        assert got.hex() == "0x0.0p+0" and calls[0] == calls_of_f, n


@pytest.mark.parametrize("n", (4096, _BLOCK // 4, _BLOCK))
def test_apply_odd_f_over_a_symmetric_interval_is_fsums_zero(n):
    # the nodes on [-3, 3] are mirrored exactly, so the products of an odd
    # f cancel in pairs and their exact total is zero; the one-pass sum
    # cannot certify it, and the exact pass decides it as +0.0, fsum's
    # zero: one call of f for a rule of one block, two per block otherwise
    rule = build_rule(make_grid(-3.0, 3.0, n))
    assert (rule.nodes == -rule.nodes[::-1]).all() and (rule.weights == rule.weights[::-1]).all()
    blocks = -(-len(rule) // _BLOCK)
    for f in (np.sin, np.arctan, lambda t: t * (t * t - 2.0)):
        calls = [0]
        got = apply_rule(rule, counting_array_calls(f, calls))
        assert got.hex() == math.fsum((rule.weights * f(rule.nodes)).tolist()).hex() == "0x0.0p+0"
        assert calls[0] == (1 if blocks == 1 else 2 * blocks)


def test_apply_takes_the_per_node_path_when_a_second_call_is_refused():
    # an f that is array-capable only once per block: where math.fsum
    # decides, its second calls are refused, and the whole rule is summed
    # per node as when a first call is refused
    rule = build_rule(make_grid(-1.0, 2.0, _BLOCK + 100))
    q = horner_quintic(-1.0, 2.0, (0.5, -1.0, 0.25, 2.0, -0.75, 1.0))
    f = on_nodes(rule, (5,), (math.inf,), q)
    seen = set()

    def once(t):
        if isinstance(t, np.ndarray):
            if t[0] in seen:
                raise TypeError("one array call per block")
            seen.add(t[0])
        return f(t)

    assert apply_rule(rule, once) == math.inf
    assert len(seen) == 3


def test_apply_sums_per_node_when_a_second_call_is_refused_after_opposite_infinities():
    # three blocks; the array values hold +inf at node 5 and -inf at node 9,
    # so math.fsum decides and f is called again per block, and block 2
    # refuses its second call: the whole rule is summed per node, where
    # math.cos has no infinities, rather than math.fsum's ValueError on
    # the products taken before the refusal
    rule = build_rule(make_grid(-1.0, 2.0, _BLOCK))
    assert -(-len(rule) // _BLOCK) == 3
    on_array = on_nodes(rule, (5, 9), (math.inf, -math.inf), np.cos)
    start = float(rule.nodes[_BLOCK])
    block_2, scalars = [], []

    def f(t):
        if not isinstance(t, np.ndarray):
            scalars.append(t)
            return math.cos(t)
        if t[0] == start:
            block_2.append(t)
            if len(block_2) == 2:
                raise TypeError("one array call for block 2")
        return on_array(t)

    assert apply_rule(rule, f).hex() == per_node(rule, math.cos).hex()
    assert scalars == rule.nodes.tolist()


def test_apply_inf_only_in_the_exact_pass_is_fsum_of_the_last_call():
    # sin over [0, 2 pi] sums to near its rounding floor, so the one-pass
    # sum of the two blocks is not certified and f is called again per
    # block; the second call of block 2 puts +inf at its node 5, so that
    # block cannot be extracted and its products are summed as they are:
    # math.fsum of the second call's products, with no third call
    rule = build_rule(make_grid(0.0, 2.0 * math.pi, 5 * _BLOCK // 8))
    assert -(-len(rule) // _BLOCK) == 2
    calls, second = [0], []

    def f(t):
        v = np.sin(t)
        calls[0] += 1
        if calls[0] == 4:
            v[5] = math.inf
        if calls[0] > 2:
            second.append(v)
        return v

    got = apply_rule(rule, f)
    assert calls[0] == 4
    want = math.fsum((rule.weights * np.concatenate(second)).tolist())
    assert got.hex() == want.hex() == "inf"


def test_apply_block_that_needs_a_third_pass_is_fsums():
    # values 2^-40 .. 2^40 times a quintic: the products of every block span
    # more than 2^60, far more than the 53 bits of one double, so no block
    # is summed exactly from its largest products' leading bits alone; the
    # last block holds 2049 nodes, over which the exponent takes every value
    rule = build_rule(make_grid(-1.0, 2.0, _BLOCK + _BLOCK // 64))
    q = horner_quintic(-1.0, 2.0, (0.5, -1.0, 0.25, 2.0, -0.75, 1.0))

    def f(t):
        return np.ldexp(q(t), (np.floor(t * 7919.0) % 81.0 - 40.0).astype(np.int64))

    products = rule.weights * f(rule.nodes)
    for i in range(0, len(rule), _BLOCK):
        block = np.abs(products[i : i + _BLOCK])
        assert block.max() > 2.0**60 * block.min() > 0.0
    assert apply_rule(rule, f).hex() == math.fsum(products.tolist()).hex()
    assert_sums_as_fsum(np.ones(len(rule)), products)
    assert_sums_as_fsum(rule.weights, f(rule.nodes))


# ------------------------------------------------- exactness on the basis

@pytest.mark.parametrize("n", [1, 2, 3, 4, 6, 9, 12])
def test_exact_on_every_basis_function(n):
    grid = make_grid(0.0, 1.0, n)
    rule = build_rule(grid)
    for i in range(1, grid.dimension + 1):
        q = apply_rule(rule, lambda t: basis_eval(grid, i, t))
        assert q == pytest.approx(basis_integral(grid, i), abs=1e-13), i
