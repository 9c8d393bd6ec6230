"""Tests for the independent verification machinery."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from splinequad.error_analysis import error_constant
from splinequad.grid_basis import (
    _SIX,
    _basis_integrals,
    _cell_shapes,
    _locate,
    basis_eval,
    basis_integral,
    make_grid,
)
from splinequad.oracle import (
    _REPORT_BLOCK,
    _node_counts,
    cubic_rootfree_check,
    exactness_report,
    limit_rule_deviation,
    middle_system_residual,
    random_spline,
)
from splinequad.quadrature import (
    TABLE,
    ConstructionError,
    QuadratureRule,
    ResidueState,
    apply_rule,
    build_rule,
)

from references import cubic_coefficients, gauss_legendre_between, reference_integral


# -------------------------------------------------------- reference integral

def test_reference_integral_basis_function():
    grid = make_grid(0.0, 5.0, 5)
    val = reference_integral(lambda t: basis_eval(grid, 3, t), grid, 3)
    assert val == pytest.approx(1.0 / 6.0, abs=1e-15)


def test_reference_integral_constant():
    grid = make_grid(-2.0, 3.0, 4)
    assert reference_integral(lambda t: 1.0, grid) == pytest.approx(5.0, rel=1e-15)


def test_reference_integral_degree_seven_exact():
    grid = make_grid(0.0, 1.0, 1)
    assert reference_integral(lambda t: t**6, grid, 4) == pytest.approx(
        1.0 / 7.0, abs=1e-16
    )
    assert reference_integral(lambda t: t**7, grid, 4) == pytest.approx(
        1.0 / 8.0, abs=1e-16
    )


def test_reference_integral_rejects_too_few_points():
    grid = make_grid(0.0, 1.0, 1)
    with pytest.raises(ValueError):
        reference_integral(lambda t: 1.0, grid, 2)


def test_gauss_legendre_between_respects_breakpoints():
    # piecewise polynomial with a kink at 0.5 integrates exactly once the
    # kink is a breakpoint
    f = lambda t: abs(t - 0.5) * t * t
    exact = 3.0 / 32.0   # int_0^1 |t-1/2| t^2 dt
    val = gauss_legendre_between(f, [0.0, 0.5, 1.0], points=4)
    assert val == pytest.approx(exact, abs=1e-16)
    assert gauss_legendre_between(f, [0.0, 1.0], points=4) != pytest.approx(
        exact, abs=1e-10
    )


def test_gauss_legendre_between_point_counts():
    with pytest.raises(ValueError):
        gauss_legendre_between(lambda t: 1.0, [0.0, 1.0], points=6)
    for pts in (3, 4, 5):
        assert gauss_legendre_between(lambda t: t**4, [0.0, 1.0], pts) == pytest.approx(
            0.2, rel=1e-15
        )


# ------------------------------------------------------------- random spline

def test_random_spline_deterministic():
    grid = make_grid(0.0, 3.0, 3)
    s1 = random_spline(grid, 42)
    s2 = random_spline(grid, 42)
    np.testing.assert_array_equal(s1.c, s2.c)
    assert not np.array_equal(s1.c, random_spline(grid, 43).c)


def test_random_spline_frozen_stream():
    # first outputs of the documented generator for seed 42
    grid = make_grid(0.0, 5.0, 5)
    s = random_spline(grid, 42)
    assert len(s.c) == 22
    np.testing.assert_allclose(
        s.c[:5],
        [0.4831297575436466, -0.6801792142461598, -0.4427977394897227,
         -0.31161856695272494, -0.9239396629195076],
        rtol=0, atol=0,
    )
    assert np.all(np.abs(s.c) <= 1.0)


def _splitmix64(seed: int, index: int) -> int:
    """index-th output of the SplitMix64 stream seeded with seed, in Python
    integers: the scalar reference for the vectorized generator."""
    mask = (1 << 64) - 1
    x = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & mask
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & mask
    return x ^ (x >> 31)


@pytest.mark.parametrize("seed", [0, 42, 2**62 - 1])
@pytest.mark.parametrize("n", [1, 50, 200])
def test_random_spline_equals_scalar_splitmix64(seed, n):
    grid = make_grid(0.0, 1.0, n)
    expected = [
        2.0 * ((_splitmix64(seed, i) >> 11) * 2.0**-53) - 1.0
        for i in range(grid.dimension)
    ]
    assert random_spline(grid, seed).c.tolist() == expected


@pytest.mark.parametrize("seed", [np.int64(5), np.uint64(5), np.int64(-1)],
                         ids=["int64", "uint64", "int64-negative"])
def test_random_spline_takes_numpy_integer_seeds(seed):
    # a seed drawn by rng.integers is a numpy integer; it gives the stream
    # of the Python integer with its value
    grid = make_grid(0.0, 1.0, 7)
    assert random_spline(grid, seed).c.tolist() == random_spline(grid, int(seed)).c.tolist()


def test_random_spline_integral_matches_reference():
    grid = make_grid(0.0, 2.0, 4)
    spline = random_spline(grid, 7)
    ref = reference_integral(spline.value, grid, 4)
    assert spline.exact_integral() == pytest.approx(ref, abs=1e-13)


# --------------------------------------------------------- exactness report

def test_exactness_report_odd_grid():
    rep = exactness_report(build_rule(make_grid(0.0, 5.0, 5)))
    assert rep.n == 5
    assert rep.max_basis_residual <= 1e-13
    assert rep.per_interval_node_counts == (2, 2, 3, 2, 2)
    assert 1 <= rep.worst_index <= 22


def test_exactness_report_even_grid():
    # the middle-knot node is attributed to the cell on its right
    rep = exactness_report(build_rule(make_grid(0.0, 6.0, 6)))
    assert rep.per_interval_node_counts == (2, 2, 2, 3, 2, 2)


def test_exactness_report_single_cell():
    rep = exactness_report(build_rule(make_grid(0.0, 1.0, 1)))
    assert rep.max_basis_residual <= 1e-15
    assert rep.per_interval_node_counts == (3,)


def _exactness_loop(rule):
    """Reference: one compensated sum per basis function over the nodes in
    its support window, evaluated with basis_eval."""
    grid = rule.grid
    nodes = rule.nodes
    weights = rule.weights
    worst = -1.0
    worst_i = 1
    for i in range(1, grid.dimension + 1):
        k = (i + 3) // 4
        r = i - 4 * (k - 1)
        lo_knot = max(k - 2 if r <= 2 else k - 1, 0)
        hi_knot = min(k, grid.n)
        lo = np.searchsorted(nodes, grid.a + lo_knot * grid.h - grid.h * 1e-9)
        hi = np.searchsorted(nodes, grid.a + hi_knot * grid.h + grid.h * 1e-9)
        q = math.fsum(
            weights[j] * basis_eval(grid, i, float(nodes[j])) for j in range(lo, hi)
        )
        resid = abs(q - basis_integral(grid, i))
        if resid > worst:
            worst, worst_i = resid, i
    return worst, worst_i


def _seeded_rules():
    rng = np.random.default_rng(515)
    for n in [1, 2, 3, 8, 13, 40, 41, 200]:
        for near in (True, False):
            a = float(rng.uniform(-10.0, 10.0) if near else rng.uniform(-1e6, 1e6))
            span = float(10.0 ** rng.uniform(-2.0, 2.0))
            yield build_rule(make_grid(a, a + span, n))


def test_exactness_report_matches_per_basis_loop():
    for rule in _seeded_rules():
        rep = exactness_report(rule)
        worst, _ = _exactness_loop(rule)
        assert abs(rep.max_basis_residual - worst) <= 1e-16
        assert rep.per_interval_node_counts == _node_counts(
            rule.grid, *_locate(rule.grid, rule.nodes)
        )


def test_exactness_report_finds_perturbed_weight_like_loop():
    for rule in _seeded_rules():
        weights = rule.weights.copy()
        weights[len(weights) // 3] += 1e-6 * rule.grid.h
        bad = QuadratureRule(grid=rule.grid, nodes=rule.nodes, weights=weights)
        rep = exactness_report(bad)
        worst, worst_i = _exactness_loop(bad)
        assert rep.worst_index == worst_i
        assert rep.max_basis_residual == pytest.approx(worst, rel=1e-9)


def test_exactness_report_hand_built_rule_with_four_nodes_in_one_cell():
    grid = make_grid(-1.0, 3.0, 2)
    rule = QuadratureRule(
        grid=grid,
        nodes=[-0.9, -0.4, 0.2, 0.7, 2.0],
        weights=[0.5, 0.8, 0.9, 0.6, 1.2],
    )
    rep = exactness_report(rule)
    worst, worst_i = _exactness_loop(rule)
    assert rep.per_interval_node_counts == (4, 1)
    assert rep.worst_index == worst_i
    assert abs(rep.max_basis_residual - worst) <= 1e-15


def test_exactness_report_ignores_node_order():
    # the rule type does not require sorted nodes
    rule = build_rule(make_grid(0.0, 1.0, 8))
    order = np.random.default_rng(0).permutation(len(rule))
    shuffled = QuadratureRule(grid=rule.grid, nodes=rule.nodes[order],
                              weights=rule.weights[order])
    rep, ref = exactness_report(shuffled), exactness_report(rule)
    assert rep.per_interval_node_counts == ref.per_interval_node_counts
    assert abs(rep.max_basis_residual - ref.max_basis_residual) <= 1e-16


def _one_block_report(rule):
    """The report's residual and node counts with every node in one block:
    one ``np.bincount`` of all the (6, 2n + 1) products, then the residuals
    against the array of the basis integrals."""
    grid = rule.grid
    cells, offsets = _locate(grid, rule.nodes)
    products = _cell_shapes(grid, offsets) * rule.weights
    q = np.bincount((4 * cells + _SIX).ravel(), products.ravel(), minlength=grid.dimension)
    return float(np.max(np.abs(q - _basis_integrals(grid)))), _node_counts(grid, cells, offsets)


# Each quadrature value of a built rule sums at most six nonnegative
# products (the nodes of two cells), so two summation orders give values
# within 10 u of their sum (u = 2^-53), and the sums are at most 1/6 plus
# the residual.
def _within_rounding(residual, reference):
    return abs(residual - reference) <= 10 * 2.0**-53 * (1.0 / 6.0 + reference)


# 2n + 1 nodes just below and just above one and two blocks; a rule has an
# odd number of nodes, so none has exactly _REPORT_BLOCK
@pytest.mark.parametrize("nodes", [_REPORT_BLOCK - 1, _REPORT_BLOCK + 1,
                                   2 * _REPORT_BLOCK - 1, 2 * _REPORT_BLOCK + 1])
def test_blocked_report_matches_one_block_reference(nodes):
    n = (nodes - 1) // 2
    for a, b in ((0.0, 1.0), (-3.0, 17.0), (1e6, 1e6 + 3.7)):
        rule = build_rule(make_grid(a, b, n))
        assert len(rule) == nodes
        rep = exactness_report(rule)
        residual, counts = _one_block_report(rule)
        assert rep.per_interval_node_counts == counts
        assert _within_rounding(rep.max_basis_residual, residual), (a, b)


def test_shuffled_rule_over_several_blocks_reports_as_sorted():
    rule = build_rule(make_grid(-3.0, 17.0, 3 * _REPORT_BLOCK // 2))
    assert len(rule) > 3 * _REPORT_BLOCK
    order = np.random.default_rng(11).permutation(len(rule))
    shuffled = QuadratureRule(grid=rule.grid, nodes=rule.nodes[order],
                              weights=rule.weights[order])
    rep, ref = exactness_report(shuffled), exactness_report(rule)
    assert rep.per_interval_node_counts == ref.per_interval_node_counts
    assert _within_rounding(rep.max_basis_residual, ref.max_basis_residual)
    assert _within_rounding(rep.max_basis_residual, _one_block_report(shuffled)[0])


@pytest.mark.parametrize("crowd", [255, 256, 300, 513])
def test_exactness_report_counts_crowded_cells(crowd):
    # a count is held in one byte; a cell of 256 nodes or more is counted
    # again, over the whole rule
    grid = make_grid(0.0, 2.0, crowd)
    h = grid.h
    nodes = np.concatenate([np.linspace(0.1 * h, 0.9 * h, crowd),
                            np.linspace(1.5 * h, 2.0 - 0.5 * h, crowd + 1)])
    rule = QuadratureRule(grid=grid, nodes=nodes, weights=np.full(2 * crowd + 1, h))
    counts = exactness_report(rule).per_interval_node_counts
    assert counts == _node_counts(grid, *_locate(grid, rule.nodes))
    assert counts[0] == crowd and sum(counts) == 2 * crowd + 1


def test_exactness_report_holds_its_sums_and_a_byte_per_cell():
    # beyond the rule: the 4n + 2 sums, one byte per cell and a block's
    # temporaries, within 2 MiB of the sums
    n = 1 << 17
    rule = build_rule(make_grid(0.0, 1.0, n))
    tracemalloc.start()
    try:
        exactness_report(rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (4 * n + 2) * 8 + (2 << 20), peak


def test_exactness_report_rejects_nodes_outside_the_interval():
    grid = make_grid(0.0, 1.0, 1)
    for outside in (-0.5, 1.5, math.nan):
        rule = QuadratureRule(grid=grid, nodes=[0.1, 0.5, outside],
                              weights=[0.3, 0.4, 0.3])
        with pytest.raises(ValueError, match="outside"):
            exactness_report(rule)


def test_node_counts_on_plateau_grids():
    # once cells degenerate to the two-third pattern, knot-coincident
    # nodes shift the single 3-count to the seam right of the middle
    for n in (9, 12, 23, 40):
        rule = build_rule(make_grid(0.0, float(n), n))
        counts = exactness_report(rule).per_interval_node_counts
        assert sum(counts) == 2 * n + 1
        assert counts.count(3) == 1 and counts.count(2) == n - 1
        assert n // 2 <= counts.index(3) <= n - 1


def _snapped_counts(rule):
    """Nodes per cell by a searchsorted against the knots, a node within
    4e-16 (|a| + |b| + b - a) below an interior knot snapped to its right:
    an earlier placement, kept as the reference for the node counts of
    ``exactness_report``."""
    grid = rule.grid
    n = grid.n
    knots = grid.knots()
    idx = np.searchsorted(knots, rule.nodes, side="right") - 1
    scale = abs(grid.a) + abs(grid.b) + (grid.b - grid.a)
    nxt = np.minimum(idx + 1, n)
    snap = (idx + 1 <= n - 1) & (knots[nxt] - rule.nodes <= 4e-16 * scale)
    idx = np.where(snap, idx + 1, idx)
    idx = np.clip(idx, 0, n - 1)
    return tuple(np.bincount(idx, minlength=n).tolist())


def _layout_ok(counts, n):
    return sum(counts) == 2 * n + 1 and counts.count(3) == 1 and counts.count(2) == n - 1


def test_node_counts_equal_the_snapped_placement_near_the_origin():
    # the counts of the report without its residual, which would take
    # most of this test's time over 6000 rules
    for n in range(1, 2001):
        for a, b in ((0.0, float(n)), (0.0, 1.0), (-3.0, 17.0)):
            rule = build_rule(make_grid(a, b, n))
            counts = _node_counts(rule.grid, *_locate(rule.grid, rule.nodes))
            assert counts == _snapped_counts(rule), (a, b, n)


def test_node_counts_decide_the_layout_as_the_snapped_placement_far_out():
    # far from the origin a node within rounding of a knot can fall on
    # either side under the two placements, so the cell that holds the 3
    # may move by one; the layout decision may not
    rng = np.random.default_rng(7)
    for _ in range(400):
        a = float(rng.uniform(-1e6, 1e6))
        n = int(rng.integers(1, 301))
        rule = build_rule(make_grid(a, a + float(10.0 ** rng.uniform(-3.0, 3.0)), n))
        counts = exactness_report(rule).per_interval_node_counts
        assert _layout_ok(counts, n) == _layout_ok(_snapped_counts(rule), n), (a, n)
        assert counts == _node_counts(rule.grid, *_locate(rule.grid, rule.nodes))


def test_node_counts_reject_nodes_outside_the_interval():
    rule = QuadratureRule(grid=make_grid(0.0, 1.0, 1), nodes=[0.1, 0.5, 1.5],
                          weights=[0.3, 0.4, 0.3])
    with pytest.raises(ValueError, match="outside"):
        exactness_report(rule)


# ------------------------------------------------------- limit-rule distance

def test_limit_deviation_plateau_rows():
    rule = build_rule(make_grid(0.0, 10.0, 10))
    dev = limit_rule_deviation(rule)
    assert dev.shape == (21, 2)
    # node 8 (1-based) sits on a midpoint with the limit weight
    assert dev[7, 0] == 0.0
    assert dev[7, 1] <= 1e-16
    # node 9 sits on a knot with the limit weight
    assert dev[8, 0] == 0.0
    assert dev[8, 1] <= 2e-16


def test_limit_deviation_odd_middle():
    rule = build_rule(make_grid(0.0, 5.0, 5))
    dev = limit_rule_deviation(rule)
    assert dev[5, 0] == 0.0                     # tau_6 = 2.5 is a midpoint
    assert 2.2e-8 < dev[5, 1] < 2.3e-8          # its weight is still converging


def test_limit_deviation_far_from_limit_at_n1():
    rule = build_rule(make_grid(0.0, 1.0, 1))
    dev = limit_rule_deviation(rule)
    assert dev[0, 0] == pytest.approx(0.5 - 0.5 * math.sqrt(0.6), abs=1e-15)


# ------------------------------------------------------ middle-system check

def test_middle_system_gauss_legendre_solution():
    alpha = 0.5 - 0.5 * math.sqrt(0.6)
    res = middle_system_residual(1.0 / 24.0, 0.125, alpha, 5.0 / 18.0, 4.0 / 9.0)
    assert max(abs(r) for r in res) <= 1e-15


def test_middle_system_limit_solution():
    for alpha in (1e-4, 1e-6, 1e-8):
        res = middle_system_residual(
            29.0 / 240.0, 39.0 / 240.0, alpha, 7.0 / 15.0, 8.0 / 15.0
        )
        assert max(abs(r) for r in res) <= 10.0 * alpha


def test_middle_system_detects_perturbation():
    alpha = 0.5 - 0.5 * math.sqrt(0.6)
    res = middle_system_residual(
        1.0 / 24.0, 0.125, alpha, 5.0 / 18.0, 4.0 / 9.0 + 1e-3
    )
    assert 1e-5 <= max(abs(r) for r in res) <= 1e-2


def test_middle_system_holds_for_every_odd_closure_of_the_table():
    # the closed forms the table is built from solve the system evaluated
    # from the basis shapes, for the state entering each cell
    for state, closure in zip(TABLE.states, TABLE.middle_odd):
        res = middle_system_residual(state.A, state.B, *closure)
        assert max(abs(r) for r in res) <= 1e-10, state


@pytest.mark.parametrize("b", [1e-52, 1e-60, 3.8e51])
def test_exactness_report_refuses_cells_outside_the_range_of_h6(b):
    # the built rule is fine; its basis shapes are not defined in doubles
    # (NaN residuals after ten RuntimeWarnings on [0, 1e-60] before)
    rule = build_rule(make_grid(0.0, b, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="outside the range of the basis shapes"):
            exactness_report(rule)


@pytest.mark.parametrize("b", [1.1e-51, 3.7e51])
def test_exactness_report_holds_on_the_narrowest_and_widest_cells(b):
    report = exactness_report(build_rule(make_grid(0.0, b, 2)))
    assert report.max_basis_residual <= 1e-15
    assert report.per_interval_node_counts == (2, 3)


# ------------------------------------------------------------- cubic factor

def test_cubic_coefficients_initial_state():
    assert cubic_coefficients(TABLE.states[0]) == pytest.approx(
        (-1.0, 4.0, -3.0, -10.0), abs=1e-14
    )


def test_cubic_coefficients_limit_state():
    state = ResidueState(k=9, A=29.0 / 240.0, B=39.0 / 240.0)
    assert cubic_coefficients(state) == pytest.approx(
        (-1.0, 4.0, -4.0, -28.0), abs=1e-13
    )


def test_cubic_rootfree_for_key_states():
    assert cubic_rootfree_check(TABLE.states[0])
    assert cubic_rootfree_check(ResidueState(k=9, A=29.0 / 240.0, B=39.0 / 240.0))


def test_cubic_detects_roots():
    # unreachable residues push a root into [0, 1]: near A = B = 0 the
    # cubic is ~ (t-1)^2 (2t-1), which crosses zero inside the cell
    assert not cubic_rootfree_check(ResidueState(k=1, A=1e-4, B=2e-4))


def test_cubic_rootfree_check_agrees_with_the_roots_of_the_reference_cubic():
    # the check writes its own coefficients; numpy's roots of the reference
    # cubic decide the same on the table's states and on seeded residues
    # 0 < A < B < 1/6, reachable or not, away from roots at 0 or 1
    rng = np.random.default_rng(25)
    states = list(TABLE.states)
    for A, B in np.sort(rng.uniform(0.0, 1.0 / 6.0, (400, 2)), axis=1).tolist():
        states.append(ResidueState(k=1, A=A, B=B))
    decided = set()
    for state in states:
        roots = np.roots(cubic_coefficients(state)[::-1])
        real = roots[abs(roots.imag) <= 1e-9].real
        if any(min(abs(r), abs(r - 1.0)) <= 1e-9 for r in real):
            continue
        rootfree = not any(0.0 < r < 1.0 for r in real)
        assert cubic_rootfree_check(state) == rootfree, state
        decided.add(rootfree)
    assert decided == {True, False}


# ------------------------------------------- unit-cell table vs 50 digits

def _mp_unit_recursion(mp, cells=4):
    """The recursion on unit cells in 50-digit arithmetic.

    Returns the states (A, B) entering cells 1..cells+1, the solved cells
    as (r1, r2, w_lo, w_hi), and for each state the middle closures of a
    grid whose middle cell it enters: (outer offset, outer weight, midpoint
    weight) for odd n, the middle-knot weight for even n.  At 50 digits
    the residues reach their plateau only on entering cell 7, so up to
    cell 6 every cell is solved.
    """
    with mp.workdps(50):
        sixth = mp.mpf(1) / 6
        A, B = mp.mpf(1) / 24, mp.mpf(1) / 8
        states, solved, odd, even = [], [], [], []
        for k in range(1, cells + 2):
            states.append((A, B))
            p = 108 * A + 12 * B - 1
            d = 156 * A - 36 * B + 1
            c = 24 * A - 24 * B + 1  # middle quadratic c + 2p x - 2p x^2
            odd.append((
                (1 - mp.sqrt(1 + 2 * c / p)) / 2,
                p * p / (30 * d),
                4 * (1152 * A * B + 264 * A - 576 * A**2 - 576 * B**2 - 24 * B + 1)
                / (15 * d),
            ))
            even.append(4 * (A + B - sixth))
            if k == cells + 1:
                break
            q0 = 1 - 24 * B + 24 * A
            q1 = 2 * (12 * B + 108 * A - 1)
            q2 = 1 - 480 * A + 576 * A**2 + 576 * B**2 - 1152 * A * B
            root = mp.sqrt(q1 * q1 - 4 * q2 * q0)
            r1, r2 = sorted(((-q1 + root) / (2 * q2), (-q1 - root) / (2 * q2)))
            beta = 1 - r2
            w_hi = (1 - 2 * r1) / (60 * beta**2 * (1 - beta) ** 2 * (r2 - r1))
            w_lo = (4 * A - w_hi * beta**5) / (1 - r1) ** 5
            solved.append((r1, r2, w_lo, w_hi))
            A = sixth - (w_lo * r1**4 * (10 - 9 * r1) + w_hi * r2**4 * (10 - 9 * r2)) / 4
            B = sixth - (w_lo * r1**5 + w_hi * r2**5) / 4
        return states, solved, odd, even


def _mp_unit_rule(mp, n):
    """The 50-digit rule for n cells of unit width: the offsets from a of
    its first n + 1 nodes and their weights (the rest mirror).

    Cells 1..min(n//2, 6) come from the recursion; from cell 7 on the
    50-digit residues stay at their plateau, so those cells are two-third
    cells and the middle closure takes the state entering cell 7.
    """
    half = n // 2
    p = min(half, 6)
    _, solved, odd, even = _mp_unit_recursion(mp, p)
    with mp.workdps(50):
        plateau = (0, mp.mpf(1) / 2, mp.mpf(7) / 15, mp.mpf(8) / 15)
        x, w = [], []
        for k in range(half):
            r1, r2, w_lo, w_hi = solved[k] if k < p else plateau
            x += [k + r1, k + r2]
            w += [w_lo, w_hi]
        if n % 2:
            r1, w_out, w_mid = odd[p]
            return x + [half + r1, mp.mpf(n) / 2], w + [w_out, w_mid]
        return x + [mp.mpf(half)], w + [even[p]]


def _mp_error_constant(mp, a, b, n):
    """c = (b-a)^7/5040 - sum w (tau-a)^6/720, the definition, evaluated
    in 50 digits on the 50-digit rule for [a, b] with n cells."""
    x, w = _mp_unit_rule(mp, n)
    with mp.workdps(50):
        x = x + [n - t for t in reversed(x[:n])]
        w = w + w[:n][::-1]
        a, b = mp.mpf(a), mp.mpf(b)
        h = (b - a) / n
        taus = [a + h * t for t in x]
        s = mp.fsum(h * wi * (tau - a) ** 6 for tau, wi in zip(taus, w))
        return (b - a) ** 7 / 5040 - s / 720


def test_unit_cell_table_matches_50_digit_recursion():
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    states, cells, odd, even = _mp_unit_recursion(mp)

    def rel(x, ref):
        return float(abs(x - ref) / ref)

    # offsets are in units of h, so absolute; weights relative
    assert len(TABLE.states) == len(states)
    for state, (A, B) in zip(TABLE.states, states):
        assert abs(state.A - A) <= eps and abs(state.B - B) <= eps
    for k, (r1, r2, w_lo, w_hi) in enumerate(cells):
        assert abs(TABLE.offsets[2 * k] - r1) <= eps
        assert abs(TABLE.offsets[2 * k + 1] - r2) <= eps
        assert rel(TABLE.weights[2 * k], w_lo) <= 3 * eps
        assert rel(TABLE.weights[2 * k + 1], w_hi) <= 3 * eps
    for (r1, w_out, w_mid), ref in zip(TABLE.middle_odd, odd):
        assert abs(r1 - ref[0]) <= eps
        assert rel(w_out, ref[1]) <= 3 * eps and rel(w_mid, ref[2]) <= 3 * eps
    for w, ref in zip(TABLE.middle_even[1:], even[1:]):
        assert rel(w, ref) <= 3 * eps


def test_scaled_rule_weights_match_50_digit_recursion():
    # every node and weight, the two-third fill included: a node lies
    # within 2 ulp(max(|a|, |b|)) of a + h (k - 1 + r) in 50 digits, with h
    # the grid's double, or of its mirror a + b - tau; a weight h * w(table)
    # carries the table's error plus one rounding
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    rng = np.random.default_rng(17)
    for _ in range(100):
        n = int(rng.integers(1, 65))
        a = float(rng.uniform(-1e3, 1e3))
        rule = build_rule(make_grid(a, a + float(10.0 ** rng.uniform(-3.0, 3.0)), n))
        grid = rule.grid
        x, w = _mp_unit_rule(mp, n)
        with mp.workdps(50):
            lo, hi, h = mp.mpf(grid.a), mp.mpf(grid.b), mp.mpf(grid.h)
            taus = [lo + h * t for t in x]
            taus += [lo + hi - t for t in reversed(taus[:n])]
            ws = [h * wi for wi in w + w[:n][::-1]]
            node_err = max(abs(mp.mpf(float(t)) - r) for t, r in zip(rule.nodes, taus))
            weight_err = max(abs(mp.mpf(float(v)) - r) / r for v, r in zip(rule.weights, ws))
        ulp = math.ulp(max(abs(grid.a), abs(grid.b)))
        assert node_err <= 2 * ulp, (grid, float(node_err) / ulp)
        assert weight_err <= 4 * eps, (grid, float(weight_err) / eps)


@pytest.mark.parametrize("a,b", [
    (0.0, 1.0), (-3.0, 17.0), (1e6, 1e6 + 1.0), (1e12, 1e12 + 1.0), (-1e6, -1e6 + 3.7),
])
def test_error_constant_matches_50_digit_definition(a, b):
    # the constant of the Gaussian rule for the grid, wherever the grid
    # lies: far from the origin the stored nodes are placed only to
    # ulp(|a|) (1.2e-4 at 1e12), which the constant does not inherit
    mp = pytest.importorskip("mpmath")
    for n in (1, 2, 3, 4, 5, 8, 9, 10, 11, 100, 1001, 10**4):
        try:
            rule = build_rule(make_grid(a, b, n))
        except ConstructionError:
            # h = 1e-4 is below ulp(1e12): the nodes cannot increase
            assert (a, n) == (1e12, 10**4)
            continue
        c = error_constant(rule)
        ref = _mp_error_constant(mp, a, b, n)
        assert float(abs(c - ref) / ref) <= 4e-15, (n, c, float(ref))


def test_error_constant_per_parity_from_ten_cells():
    # from n = 10 the prefix cells and the middle closure no longer change,
    # and every further cell is a two-third cell adding h^7/604800, so
    # c/h^7 - n/604800 is one constant per parity of n; at 50 digits the
    # even and the odd constant, -1.5556891501669e-6, are the same
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        const = {n % 2: _mp_error_constant(mp, 0, n, n) - mp.mpf(n) / 604800
                 for n in (10, 11)}
        assert abs(const[0] - const[1]) <= mp.mpf(10) ** -40
        for n in (12, 13):
            moved = _mp_error_constant(mp, 0, n, n) - mp.mpf(n) / 604800 - const[n % 2]
            assert abs(moved) <= mp.mpf(10) ** -40
    for n in list(range(10, 41)) + [99, 100, 1001, 10**4, 10**6]:
        c = error_constant(build_rule(make_grid(0.0, float(n), n)))  # h = 1
        assert abs(c - n / 604800 - float(const[n % 2])) <= 1e-12 * n / 604800, n


# --------------------------------------------- cross-checks rule <-> oracle

def test_rule_matches_reference_integrator_on_random_splines():
    for n in range(1, 51):
        grid = make_grid(0.0, 1.0, n)
        rule = build_rule(grid)
        for seed in range(10):
            spline = random_spline(grid, seed)
            q = apply_rule(rule, spline.value)
            exact = spline.exact_integral()
            ref = reference_integral(spline.value, grid, 4)
            scale = float(np.sum(np.abs(spline.c)))
            assert abs(q - exact) <= 1e-12 * scale
            assert abs(q - ref) <= 1e-12 * scale


def test_rule_exact_on_random_splines_on_assorted_grids():
    # exactness is not a property of the unit interval: random splines on
    # shifted and stretched grids integrate just as exactly (relative to
    # the spline's scale, which h stretches by a factor of b - a)
    for a, b, n in [(-7.0, -2.0, 8), (3.0, 3.5, 5), (-1.0, 12.0, 21)]:
        grid = make_grid(a, b, n)
        rule = build_rule(grid)
        for seed in (0, 1, 2):
            spline = random_spline(grid, seed)
            q = apply_rule(rule, spline.value)
            scale = float(np.sum(np.abs(spline.c))) * max(1.0, b - a)
            assert abs(q - spline.exact_integral()) <= 1e-12 * scale


def test_blend_integral_reproduced_by_rule():
    # the rule integrates the nonnegative midpoint-rooted blend to -1/12
    # over the two cells it lives on
    grid = make_grid(0.0, 6.0, 6)
    rule = build_rule(grid)
    for k in range(1, grid.n):
        def blend(t, k=k):
            return (
                2.0 * basis_eval(grid, 4 * k + 1, t)
                - 2.0 * basis_eval(grid, 4 * k + 2, t)
                + 0.5 * basis_eval(grid, 4 * k - 1, t)
                - basis_eval(grid, 4 * k, t)
            )
        assert apply_rule(rule, blend) == pytest.approx(-1.0 / 12.0, abs=1e-13)
        exact = (
            2.0 * basis_integral(grid, 4 * k + 1)
            - 2.0 * basis_integral(grid, 4 * k + 2)
            + 0.5 * basis_integral(grid, 4 * k - 1)
            - basis_integral(grid, 4 * k)
        )
        assert exact == -1.0 / 12.0
