"""Acceptance suite: every release gate in one module, one test per gate.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from splinequad.error_analysis import error_constant, kernel_profile, peano_kernel
from splinequad.grid_basis import make_grid
from splinequad.oracle import (
    cubic_rootfree_check,
    exactness_report,
    random_spline,
    residue_invariants_check,
)
from splinequad.quadrature import TABLE, apply_rule, build_rule

from test_quadrature import REFERENCE_ROWS


def _announce(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


def test_criterion_1_reference_table_regression():
    """Rules on [0, n] for n = 5..10 match the published nodes/weights to
    1e-13, in under a second."""
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(5, 11):
        rule = build_rule(make_grid(0.0, float(n), n))
        for i, (tau, w) in enumerate(REFERENCE_ROWS[n]):
            worst = max(worst, abs(rule.nodes[i] - tau), abs(rule.weights[i] - w))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-13
    assert elapsed < 1.0
    _announce(1, f"reference rows n=5..10 worst |diff| = {worst:.3e} "
                 f"in {elapsed:.3f}s")


def test_criterion_2_exactness():
    """Every basis function of every grid n = 1..50 integrates to 1e-13;
    100 seeded random splines per grid to 1e-12 relative; under 30 s."""
    t0 = time.perf_counter()
    worst_basis = 0.0
    for n in range(1, 51):
        rep = exactness_report(build_rule(make_grid(0.0, 1.0, n)))
        worst_basis = max(worst_basis, rep.max_basis_residual)
    assert worst_basis <= 1e-13

    worst_rand = 0.0
    for n in range(1, 51):
        grid = make_grid(0.0, 1.0, n)
        rule = build_rule(grid)
        for seed in range(100):
            spline = random_spline(grid, seed)
            q = apply_rule(rule, spline.value)
            scale = float(np.sum(np.abs(spline.c)))
            worst_rand = max(worst_rand, abs(q - spline.exact_integral()) / scale)
    elapsed = time.perf_counter() - t0
    assert worst_rand <= 1e-12
    assert elapsed < 30.0
    _announce(2, f"basis residual {worst_basis:.3e}, random-spline relative "
                 f"{worst_rand:.3e}, in {elapsed:.1f}s")


def test_criterion_3_single_cell_is_gauss_legendre():
    """The n = 1 rule reduces to three-point Gauss-Legendre to 1e-14."""
    worst = 0.0
    for a, b in [(0.0, 1.0), (-2.0, 5.0)]:
        rule = build_rule(make_grid(a, b, 1))
        mid = 0.5 * (a + b)
        rad = 0.5 * (b - a)
        gl_nodes = [mid - rad * math.sqrt(0.6), mid, mid + rad * math.sqrt(0.6)]
        gl_weights = [(b - a) * 5.0 / 18.0, (b - a) * 4.0 / 9.0, (b - a) * 5.0 / 18.0]
        for got, want in zip(rule.nodes, gl_nodes):
            worst = max(worst, abs(got - want))
        for got, want in zip(rule.weights, gl_weights):
            worst = max(worst, abs(got - want))
    assert worst <= 1e-14
    _announce(3, f"n=1 equals 3-point Gauss-Legendre, worst |diff| = {worst:.3e}")


def test_criterion_4_layout_and_structure():
    """2n+1 strictly increasing nodes, positive weights summing to b-a,
    mirror symmetry, and two nodes per cell with a single three-node cell.

    Node counts use the half-open convention (a knot node belongs to the
    cell on its right).  For n <= 8 all nodes resolve strictly inside
    their cells and the 3-count sits exactly at the middle; for larger n
    the plateau cells place nodes on the knots themselves, which shifts
    the 3-count bookkeeping to the seam right of the middle.
    """
    for n in range(1, 51):
        a, b = 0.0, 1.0
        rule = build_rule(make_grid(a, b, n))
        assert len(rule.nodes) == 2 * n + 1
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(rule.weights > 0)
        assert abs(math.fsum(rule.weights.tolist()) - (b - a)) <= 1e-13 * (b - a)
        assert np.max(np.abs(rule.nodes + rule.nodes[::-1] - (a + b))) <= 1e-13
        assert np.max(np.abs(rule.weights - rule.weights[::-1])) <= 1e-13
        counts = exactness_report(rule).per_interval_node_counts
        assert sum(counts) == 2 * n + 1
        assert counts.count(3) == 1 and counts.count(2) == n - 1
        if n <= 8:
            assert counts.index(3) == n // 2
        else:
            assert n // 2 <= counts.index(3) <= n - 1
    _announce(4, "2n+1 nodes, monotone, positive, symmetric, 2-per-cell "
                 "layout for n=1..50")


def test_criterion_5_two_third_convergence():
    """For n = 40 on [0, 40], every node and weight at least nine cells
    from either boundary sits on the knot/midpoint pattern with weights
    7h/15 and 8h/15, to 1e-15."""
    n = 40
    rule = build_rule(make_grid(0.0, float(n), n))
    worst_node = worst_weight = 0.0
    for k in range(9, n - 9 + 2):           # cells 9..32, both node slots
        tau_lo, tau_hi = rule.nodes[2 * k - 2], rule.nodes[2 * k - 1]
        w_lo, w_hi = rule.weights[2 * k - 2], rule.weights[2 * k - 1]
        worst_node = max(worst_node, abs(tau_lo - (k - 1.0)), abs(tau_hi - (k - 0.5)))
        worst_weight = max(
            worst_weight, abs(w_lo - 7.0 / 15.0), abs(w_hi - 8.0 / 15.0)
        )
    assert worst_node <= 1e-15
    assert worst_weight <= 1e-15
    _announce(5, f"n=40 cells 9..32: node dev {worst_node:.2e}, weight dev "
                 f"{worst_weight:.2e}")


def test_criterion_6_peano_kernel():
    """Kernel nonnegative (>= -1e-15) at 1000 samples per cell and zero at
    knots (<= 1e-14) for n = 1..20; constant positive; the sixth-power
    identity holds; the single-cell constant equals 1/2016000 to 1e-18."""
    worst_neg = worst_knot = 0.0
    for n in range(1, 21):
        grid = make_grid(0.0, 1.0, n)
        rule = build_rule(grid)
        profile = kernel_profile(rule, samples_per_cell=1000)
        worst_neg = max(worst_neg, max(0.0, -float(profile.samples[:, 1].min())))
        worst_knot = max(
            worst_knot,
            max(abs(peano_kernel(rule, float(t))) for t in grid.knots()),
        )
        c = error_constant(rule)
        assert c > 0.0
        measured = 1.0 / 7.0 - apply_rule(rule, lambda t: t**6)
        assert measured == pytest.approx(720.0 * c, abs=max(1e-12 * 720.0 * c, 2e-16))
    assert worst_neg <= 1e-15
    assert worst_knot <= 1e-14
    c1 = error_constant(build_rule(make_grid(0.0, 1.0, 1)))
    assert abs(c1 - 1.0 / 2016000.0) <= 1e-18
    _announce(6, f"kernel >= -{worst_neg:.1e}, knots <= {worst_knot:.1e}, "
                 f"c(1) - 1/2016000 = {c1 - 1/2016000:.1e}")


def test_criterion_7_residue_invariants():
    """Residue inequalities hold at every state of the unit-cell table, the
    recursion reaches its plateau by cell 9, and the cubic factor stays
    root-free on the unit cell at every state (on a cell of width h it is
    h^3 times the unit cell's, so on every cell): every build, a million
    cells and more, visits a prefix of these states and reuses the last
    one past the plateau."""
    for st in TABLE.states:
        assert residue_invariants_check(st.A, st.B)
        assert 0.0 < st.A < st.B < 1.0 / 6.0
        assert 16.0 * st.A > 5.0 * st.B
    assert TABLE.states[-1].converged and TABLE.states[-1].k <= 9
    assert all(cubic_rootfree_check(st.A, st.B) for st in TABLE.states)
    _announce(7, "residue inequalities and root-free cubic hold at every "
                 "state a build visits (n up to 1e6 and beyond)")


def test_criterion_8_million_cell_performance():
    """Building the rule for a million cells takes at most one second."""
    grid = make_grid(0.0, 1.0, 10**6)
    build_rule(grid)                          # warm the code paths
    t0 = time.perf_counter()
    rule = build_rule(grid)
    elapsed = time.perf_counter() - t0
    assert len(rule.nodes) == 2 * 10**6 + 1
    assert elapsed <= 1.0
    _announce(8, f"n=1e6 build in {elapsed:.3f}s")


def test_golden_tables_match_reference_values():
    """The committed table outputs agree with the published values to the
    regression tolerance."""
    golden_dir = Path(__file__).parent / "golden"
    for n in range(5, 11):
        lines = (golden_dir / f"rule_n{n}.txt").read_text().splitlines()
        for row, (tau, w) in zip(lines[1:], REFERENCE_ROWS[n]):
            _, ts, ws = row.split()
            assert float(ts) == pytest.approx(tau, abs=1e-13)
            assert float(ws) == pytest.approx(w, abs=1e-13)
