"""Tests for the Peano kernel and the remainder constant."""

import hashlib
import math
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from splinequad import error_analysis
from splinequad.error_analysis import (
    MAX_KERNEL_SAMPLES,
    PeanoProfile,
    _blocks,
    _cell_sums,
    error_constant,
    kernel_profile,
    peano_kernel,
    remainder_bound,
)
from splinequad.grid_basis import _locate, make_grid
from splinequad.quadrature import (
    ConstructionError,
    QuadratureRule,
    apply_rule,
    build_rule,
)

from references import gauss_legendre_between, kernel_values

# Frozen from a 60-digit evaluation of the constant's defining formula.
C_UNIT = {1: 4.9603174603174603175e-07,
          2: 1.3778659611992945326e-08,
          5: 8.5907284698453504263e-11}


def test_kernel_vanishes_at_endpoints():
    rule = build_rule(make_grid(0.0, 1.0, 3))
    assert peano_kernel(rule, 0.0) == 0.0
    assert abs(peano_kernel(rule, 1.0)) <= 1e-14


def test_kernel_vanishes_at_interior_knots():
    for n in (2, 5, 9):
        rule = build_rule(make_grid(0.0, 1.0, n))
        for j in range(1, n):
            assert abs(peano_kernel(rule, j / n)) <= 1e-14


def test_kernel_nonnegative_dense_sampling():
    for n in range(1, 9):
        rule = build_rule(make_grid(0.0, 1.0, n))
        ts = np.linspace(0.0, 1.0, 500 * n + 1)
        assert min(peano_kernel(rule, float(t)) for t in ts) >= -1e-15


def test_kernel_domain_check():
    rule = build_rule(make_grid(0.0, 1.0, 2))
    with pytest.raises(ValueError, match="outside"):
        peano_kernel(rule, -0.5)


def test_kernel_far_from_origin():
    # nodes stored at |a| ~ 1e6 keep their offsets only to ulp(|a|); the
    # kernel of the stored rule still validates, and matches the
    # unit-interval kernel to that placement error
    near = build_rule(make_grid(0.0, 1.0, 4))
    far = build_rule(make_grid(1.0e6, 1.0e6 + 1.0, 4))
    kernel_profile(far, samples_per_cell=200)
    for s in (0.1, 0.33, 0.71, 0.95):
        assert peano_kernel(far, 1.0e6 + s) == pytest.approx(
            peano_kernel(near, s), abs=1e-11
        )


def test_profile_samples_and_validation():
    rule = build_rule(make_grid(0.0, 1.0, 4))
    profile = kernel_profile(rule, samples_per_cell=100)
    assert profile.samples.shape == (401, 2)
    ts = profile.samples[:, 0]
    assert ts[0] == 0.0 and ts[-1] == 1.0
    assert np.all(np.diff(ts) > 0)
    assert profile.samples[:, 1].min() >= -1e-15


def test_profile_samples_where_the_step_underflows_are_linspaces():
    # on [0, 1e-318] a step of h / 2^19 rounds to 0.0: the sample t are
    # then formed in np.linspace's order, i / (m - 1) times (b - a) plus a
    grid = make_grid(0.0, 1e-318, 1)
    rule = QuadratureRule(grid=grid, nodes=np.array([0.25, 0.5, 0.75]) * grid.h,
                          weights=np.full(3, grid.h / 3.0))
    per_cell = 2**19
    assert grid.h / per_cell == 0.0
    ts = kernel_profile(rule, samples_per_cell=per_cell).samples[:, 0]
    assert ts.tobytes() == np.linspace(grid.a, grid.b, per_cell + 1).tobytes()


def test_profile_rejects_broken_rule():
    grid = make_grid(0.0, 1.0, 2)
    good = build_rule(grid)
    bad = QuadratureRule(grid=grid, nodes=good.nodes,
                         weights=np.full(5, 0.2))
    with pytest.raises(ConstructionError):
        kernel_profile(bad, samples_per_cell=50)


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
def test_profile_rejects_a_weight_that_is_not_finite(bad):
    # either weight makes some samples and knot values NaN, which compares
    # False with any bound: the gates must fail on it, not pass it
    grid = make_grid(0.0, 1.0, 10)
    good = build_rule(grid)
    weights = good.weights.copy()
    weights[7] = bad
    broken = QuadratureRule(grid=grid, nodes=good.nodes, weights=weights)
    with np.errstate(invalid="ignore"), pytest.raises(ConstructionError):
        kernel_profile(broken, samples_per_cell=8)


def _gate_floor(grid):
    # kernel_profile's own negativity floor: 1e-15 (b-a)^6 plus placement
    span = grid.b - grid.a
    placement = span**5 * max(abs(grid.a), abs(grid.b), 1.0) * 2e-17
    return 1e-15 * max(1.0, span**6) + placement


def test_profile_local_form_matches_global_kernel_far_from_origin():
    # the profile's cell-local samples against the global truncated-power
    # sum at the same t; the local form must stay well inside the gate the
    # profile applies to itself
    rng = np.random.default_rng(404)
    for _ in range(100):
        a = float(rng.uniform(-1e6, 1e6))
        span = float(10.0 ** rng.uniform(-3.0, 3.0))
        rule = build_rule(make_grid(a, a + span, int(rng.integers(1, 301))))
        ts, local = kernel_profile(rule, samples_per_cell=8).samples.T
        diff = np.max(np.abs(local - kernel_values(rule, ts)))
        assert diff <= 0.1 * _gate_floor(rule.grid)


def test_profile_local_form_matches_global_kernel_on_unit_interval():
    for n in range(1, 9):
        rule = build_rule(make_grid(0.0, 1.0, n))
        ts, local = kernel_profile(rule, samples_per_cell=200).samples.T
        ref = kernel_values(rule, ts)
        assert np.max(np.abs(local - ref)) <= 1e-6 * np.max(np.abs(ref))


@pytest.mark.parametrize("h", [1.0, 0.1, 0.3, 3.7, 2.0**-20, 1e-3, 1e3])
def test_alpha_beta_of_a_two_third_cell(h):
    # 7h/15 at the left knot and 8h/15 at the midpoint: alpha = 7h/30 to a
    # few ulps, and beta = h^2/12 to a few ulps of the 5h^2/12 it is
    # taken from
    alpha, beta, _ = _cell_sums(h, np.array([0, 0]), np.array([0.0, h / 2]),
                                 np.array([7 * h / 15, 8 * h / 15]), 1)
    assert abs(alpha[0] - 7 * h / 30) <= 4 * np.spacing(7 * h / 30)
    assert abs(beta[0] - h * h / 12) <= 4 * np.spacing(5 * h * h / 12)


def test_alpha_beta_on_the_plateau_cells_of_a_built_rule():
    # on [0, 40] every node of a plateau cell is a double of the table,
    # two per cell from cell 10 to cell 30
    rule = build_rule(make_grid(0.0, 40.0, 40))
    alpha, beta, _ = _cell_sums(1.0, *_locate(rule.grid, rule.nodes), rule.weights, 40)
    alpha, beta = alpha[9:30], beta[9:30]
    assert np.max(np.abs(alpha - 7 / 30)) <= 4 * np.spacing(7 / 30)
    assert np.max(np.abs(beta - 1 / 12)) <= 4 * np.spacing(5 / 12)


# Grids of the pinned profile digest: every n up to 64, n = 199 and 200
# (cells of one and three nodes where a node rounds across a knot) and
# n = 4097 (past one block of cells), on a unit interval, a wide one and
# one far from the origin, at the fewest samples per cell, an odd count
# and the audits' 64
PROFILE_INTERVALS = ((0.0, 1.0), (-3.0, 17.0), (1e6, 1e6 + 1.0))
PROFILE_NS = (*range(1, 65), 199, 200, 4097)
PROFILE_SAMPLES = (2, 3, 64)


def _layout_rule(a, b, counts, order=None):
    """A rule over len(counts) cells of [a, b] whose cell j holds counts[j]
    nodes, spread over the cell, the first at its left knot where the cell
    holds four, with weights h / counts[j]; order permutes the nodes."""
    n = len(counts)
    grid = make_grid(a, b, n)
    nodes, weights = [], []
    for j, m in enumerate(counts):
        start = 0 if m == 4 else 1
        for k in range(m):
            nodes.append(a + (j + (k + start) / (m + start)) * grid.h)
            weights.append(grid.h / m)
    nodes, weights = np.array(nodes), np.array(weights)
    if order is not None:
        nodes, weights = nodes[order], weights[order]
    return QuadratureRule(grid=grid, nodes=nodes, weights=weights)


def _reordered(rule, order):
    return QuadratureRule(grid=rule.grid, nodes=rule.nodes[order], weights=rule.weights[order])


def _hand_built_rules():
    """Rules that ``build_rule`` never makes: cells of 0, 1, 3 and 4 nodes,
    and nodes out of order, on an interval where the gates refuse them and
    on ones where the kernel is far below the gates' floors."""
    gl3 = QuadratureRule(  # three-point Gauss-Legendre on one cell: exact
        grid=make_grid(0.0, 1.0, 1),
        nodes=np.array([0.5 - math.sqrt(0.15), 0.5, 0.5 + math.sqrt(0.15)]),
        weights=np.array([5.0, 8.0, 5.0]) / 18.0,
    )
    rules = [("gl3", gl3), ("gl3 reversed", _reordered(gl3, [2, 1, 0]))]
    layouts = [(0, 1, 4, 4), (3, 3, 1, 0, 4), (4, 0, 3, 0, 4), (1, 3, 1, 3, 1, 4)]
    for a, b in ((0.0, 1.0), (0.0, 1e-3), (1e6, 1e6 + 1e-3)):
        for counts in layouts:
            rules.append((f"{counts} on [{a!r}, {b!r}]", _layout_rule(a, b, counts)))
            m = 2 * len(counts) + 1
            shuffled = _layout_rule(a, b, counts, np.random.default_rng(m).permutation(m))
            rules.append((f"{counts} shuffled on [{a!r}, {b!r}]", shuffled))
    for a, b, n in ((0.0, 1.0, 7), (-3.0, 17.0, 200), (1e6, 1e6 + 1.0, 199)):
        built = build_rule(make_grid(a, b, n))
        rules.append((f"built n={n} reversed", _reordered(built, np.arange(2 * n, -1, -1))))
        shuffled = _reordered(built, np.random.default_rng(n).permutation(2 * n + 1))
        rules.append((f"built n={n} shuffled", shuffled))
    # a weight of cell 33 of 40 off by 1e-4: the samples pass, the knots fail
    built = build_rule(make_grid(0.0, 1.0, 40))
    weights = built.weights.copy()
    weights[65] *= 1.0 + 1e-4
    off = QuadratureRule(grid=built.grid, nodes=built.nodes, weights=weights)
    rules.append(("built n=40 weight off", off))
    rules.append(("built n=40 weight off reversed", _reordered(off, np.arange(80, -1, -1))))
    return rules


def _profiles_digest(rules, per_cells=PROFILE_SAMPLES):
    """sha256 of each profile's samples at each count of samples per cell,
    or of its refusal: the whole message where the samples fail (it names
    the lowest sample), the gate's words where the knots do."""
    digest = hashlib.sha256()
    for label, rule in rules:
        for per_cell in per_cells:
            digest.update(f"{label} {per_cell}\n".encode())
            try:
                samples = kernel_profile(rule, per_cell).samples
            except ConstructionError as exc:
                text = str(exc)
                if "vanish" in text:
                    text = text.split(":")[0]
                digest.update(f"refused: {text}\n".encode())
            else:
                digest.update(samples.tobytes())
    return digest.hexdigest()


def _pinned_profile_digests():
    text = (Path(__file__).parent / "golden" / "kernel_profile_small.sha256").read_text()
    return [line.split()[0] for line in text.splitlines()]


def test_profiles_of_built_rules_match_their_pinned_digest():
    # captured from the profile that grouped the nodes by cell into a
    # padded table and sampled every cell in one chunk: bit for bit
    rules = ((f"{a!r} {b!r} {n}", build_rule(make_grid(a, b, n)))
             for n in PROFILE_NS for a, b in PROFILE_INTERVALS)
    assert _profiles_digest(rules) == _pinned_profile_digests()[0]


def test_profiles_of_hand_built_layouts_match_their_pinned_digest():
    # the same profile's samples and gate decisions on layouts no build
    # makes: empty cells, cells of four nodes, and nodes out of order
    assert _profiles_digest(_hand_built_rules()) == _pinned_profile_digests()[1]


def test_hand_built_layouts_reach_both_gates_and_pass_them():
    # the pinned layouts are worth pinning: some are refused by each gate,
    # and every one is accepted where its kernel lies below the floors
    outcomes = {}
    for label, rule in _hand_built_rules():
        try:
            kernel_profile(rule, 3)
            outcomes[label] = "accepted"
        except ConstructionError as exc:
            outcomes[label] = "knots" if "vanish" in str(exc) else "dips"
    for label, outcome in outcomes.items():
        if "weight off" in label:
            assert outcome == "knots", label
        elif "on [0.0, 1.0]" in label:
            assert outcome == "dips", label
        else:
            assert outcome == "accepted", label


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-3.0, 17.0)])
def test_profile_matches_50_digit_definition(a, b):
    # every sample against (t-a)^6/720 - sum w (t - tau)_+^5/120 in 50
    # digits, over the rule's own double nodes and weights, to 1e-9 h^6
    mp = pytest.importorskip("mpmath")
    for n in list(range(1, 11)) + [40]:
        rule = build_rule(make_grid(a, b, n))
        samples = kernel_profile(rule, samples_per_cell=6).samples
        h6 = rule.grid.h**6
        with mp.workdps(50):
            lo = mp.mpf(a)
            nodes = [mp.mpf(t) for t in rule.nodes.tolist()]
            weights = [mp.mpf(w) for w in rule.weights.tolist()]
            for t, k6 in samples.tolist():
                t = mp.mpf(t)
                s = mp.fsum(w * (t - tau) ** 5 for tau, w in zip(nodes, weights) if tau < t)
                ref = (t - lo) ** 6 / 720 - s / 120
                assert abs(k6 - ref) <= 1e-9 * h6, (n, float(t), k6, float(ref))


def test_global_kernel_blocks_cover_every_point():
    # n = 200 has 401 nodes, so the reference takes the 201 knots in two
    # blocks of points; a perturbed weight makes every knot value past it
    # nonzero
    grid = make_grid(0.0, 1.0, 200)
    good = build_rule(grid)
    weights = good.weights.copy()
    weights[300] *= 1.0 + 1e-6
    bad = QuadratureRule(grid=grid, nodes=good.nodes, weights=weights)
    knots = grid.knots()
    ref = [peano_kernel(bad, float(t)) for t in knots]
    assert np.max(np.abs(ref)) > 1e-15
    np.testing.assert_allclose(kernel_values(bad, knots), ref, rtol=0, atol=1e-17)
    with pytest.raises(ConstructionError):
        kernel_profile(bad, samples_per_cell=4)


# every n with no weight off (valid rules, knot values about 0), and one
# rule with weights[300] off by 1e-6, whose knot values past node 300 are
# beyond the comparison's bound: knot values of 0 would fail it
_KNOT_CASES = [pytest.param(n, 0.0, id=str(n)) for n in (1, 200, 255, 256, 257, 2000, 20000)]


@pytest.mark.parametrize("a, b", [(0.0, 1.0), (-3.0, 17.0), (-1.0e6, -1.0e6 + 3.7)])
@pytest.mark.parametrize("n, off", _KNOT_CASES + [pytest.param(257, 1e-6, id="257-weight-off")])
def test_knot_check_matches_global_kernel(a, b, n, off):
    # the moment-scan knot values against the global form, to 1 % of the
    # gate the profile applies to them; at n = 20000 on the first knots,
    # around the middle knot and at the end
    rule = build_rule(make_grid(a, b, n))
    if off:
        weights = rule.weights.copy()
        weights[300] *= 1.0 + off
        rule = QuadratureRule(grid=rule.grid, nodes=rule.nodes, weights=weights)
    knots = rule.grid.knots()
    at = np.arange(n + 1)
    if n > 2000:
        at = np.unique(np.r_[0:40, 9990:10030, n - 300 : n + 1])
    ref = kernel_values(rule, knots[at])
    blocks = _blocks(rule, np.empty((2 * n + 1, 2)))
    values = np.concatenate([[0.0], *(knots for _, knots in blocks)])
    diff = np.abs(values[at] - ref)
    span = b - a
    placement = span**5 * max(abs(a), abs(b), 1.0) * 2e-17
    gate = 1e-14 * max(1.0, span**6) + placement
    assert np.max(diff) <= 1e-2 * gate
    if off:
        assert np.max(np.abs(ref)) > 1e-2 * gate
    # the profile keeps the values its gates decided on
    knot_max = float(np.max(np.abs(values)))
    if knot_max > gate:
        with pytest.raises(ConstructionError, match="vanish at a knot"):
            kernel_profile(rule, samples_per_cell=2)
        return
    profile = kernel_profile(rule, samples_per_cell=2)
    assert profile.knot_max == knot_max
    # the same double, but numpy's minimum picks between 0.0 and -0.0 by
    # the data's layout, so an exact zero may differ in sign
    lowest = float(profile.samples[:, 1].min())
    assert profile.lowest == lowest and (profile.lowest.hex() == lowest.hex() or not lowest)


def test_knot_values_do_not_depend_on_the_block_size():
    # 2, 64 and 1000 samples per cell take blocks of 4095, 1024 and 65
    # cells, so the moments reach a knot through different carries: the
    # values agree to rounding, well inside the gate, and the samples
    # agree bit for bit where the points are the same
    a, b, n = -3.0, 17.0, 5000
    rule = build_rule(make_grid(a, b, n))
    values = {}
    for per_cell in (2, 64, 1000):
        samples = np.empty((per_cell * n + 1, 2))
        values[per_cell] = np.concatenate([knots for _, knots in _blocks(rule, samples)])
        if per_cell == 2:
            two = samples
        elif per_cell == 64:
            assert samples[::32].tobytes() == two.tobytes()
    gate = 1e-14 * (b - a) ** 6
    assert np.max(np.abs(values[64] - values[2])) <= 1e-3 * gate
    assert np.max(np.abs(values[1000] - values[2])) <= 1e-3 * gate


def test_knot_values_do_not_depend_on_blas_threads():
    # the knot scan multiplies 6 x 6 shifts into blocks of at most 4096
    # moments, which OpenBLAS runs on one thread: one thread or the
    # default gives the same bytes; n = 20000 takes five blocks
    code = ("import hashlib, numpy as np\n"
            "from splinequad import build_rule, make_grid\n"
            "from splinequad.error_analysis import _blocks\n"
            "rule = build_rule(make_grid(-3.0, 17.0, 20000))\n"
            "samples = np.empty((40001, 2))\n"
            "knots = np.concatenate([k for _, k in _blocks(rule, samples)])\n"
            "print(hashlib.sha256(knots.tobytes() + samples.tobytes()).hexdigest())\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    one = dict(env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    texts = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=e, check=True).stdout for e in (env, one)]
    assert texts[0] == texts[1] != ""


@pytest.mark.parametrize("n, cell, eps", [(40, 33, 1e-4), (2000, 1000, -1e-5)])
def test_knot_check_rejects_a_weight_off_in_the_last_or_a_middle_block(n, cell, eps):
    # n = 40: a node in the middle of cell 33 of 40 reaches only the last
    # eight knots, through its cell's moments and at most three doubling
    # steps (7 = 1 + 2 + 4); n = 2000: a node of a middle cell reaches the
    # 1001 knots right of it through shifts of up to 512 cells
    grid = make_grid(0.0, 1.0, n)
    good = build_rule(grid)
    weights = good.weights.copy()
    weights[np.searchsorted(good.nodes, (cell - 0.5) / n)] *= 1.0 + eps
    bad = QuadratureRule(grid=grid, nodes=good.nodes, weights=weights)
    with pytest.raises(ConstructionError, match="vanish at a knot"):
        kernel_profile(bad, samples_per_cell=4)


def test_profile_refuses_more_samples_than_the_cap_before_allocating():
    # 64 samples per cell at n = 2^16 is one sample over the 2^22 cap
    requests = [(build_rule(make_grid(0.0, 1.0, 1 << 16)), 64),
                (build_rule(make_grid(0.0, 1.0, 1)), 1 << 22)]
    tracemalloc.start()
    try:
        for r, per_cell in requests:
            tracemalloc.reset_peak()
            with pytest.raises(ValueError, match=f"{per_cell * r.grid.n + 1} samples") as info:
                kernel_profile(r, samples_per_cell=per_cell)
            assert str(MAX_KERNEL_SAMPLES) in str(info.value)
            assert tracemalloc.get_traced_memory()[1] < 64 << 10
    finally:
        tracemalloc.stop()


def test_profile_takes_exactly_the_cap(monkeypatch):
    monkeypatch.setattr(error_analysis, "MAX_KERNEL_SAMPLES", 401)
    rule = build_rule(make_grid(0.0, 1.0, 4))
    assert kernel_profile(rule, samples_per_cell=100).samples.shape == (401, 2)
    with pytest.raises(ValueError, match="cap of 401"):
        kernel_profile(rule, samples_per_cell=101)


def test_profile_memory_is_linear_in_samples():
    # a (samples x nodes) matrix at n = 2000 with 4 samples per cell would
    # be 8001 x 4001 doubles, 244 MiB; the profile itself holds 0.12 MiB
    rule = build_rule(make_grid(0.0, 1.0, 2000))
    tracemalloc.start()
    try:
        kernel_profile(rule, samples_per_cell=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


def test_profile_of_one_large_cell_holds_at_most_five_doubles_per_sample():
    # 2^20 samples in the one cell of three nodes are one block: its
    # temporaries are the 4 to 5 doubles per sample the docstring states,
    # a later slot's rows reusing the dense slots' buffers
    rule = build_rule(make_grid(0.0, 1.0, 1))
    tracemalloc.start()
    try:
        samples = kernel_profile(rule, samples_per_cell=1 << 20).samples
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - samples.nbytes <= 5 * 8 * len(samples) + (1 << 20)


@pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                    reason="counts minor page faults under glibc's heap trim")
def test_audit_sized_profiles_do_not_fault_the_heap_in_again():
    # a profile's block temporaries are the rows of one scratch array; as
    # arrays of their own, freed at the top of the heap, they set off
    # glibc's trim after a profile, and the next one faulted the heap in
    # again.  Over these rules (n over 1..200 on moderate intervals, 64
    # samples per cell, as audits take them) 64 to 202 of 400 profiles
    # took 8 or more minor faults that way, and at most 4 take them with
    # the scratch array.  The mean per profile is no gate: the
    # interpreter's own allocator adds a fault now and then, and how often
    # shifts with the heap's layout (0 to 1.25 per profile on the same
    # code as PYTHONPATH's length varied).  A fresh child, so that no
    # other test has shaped its heap, and none of glibc's tunables from
    # the environment
    code = ("import resource\n"
            "import numpy as np\n"
            "from splinequad import build_rule, kernel_profile, make_grid\n"
            "rng = np.random.default_rng(27)\n"
            "rules = []\n"
            "for k in range(400):\n"
            "    a = rng.uniform(-1e3, 1e3)\n"
            "    b = a + 10.0 ** rng.uniform(-3.0, 3.0)\n"
            "    rules.append(build_rule(make_grid(a, b, k % 200 + 1)))\n"
            "for rule in rules[:200]:\n"
            "    kernel_profile(rule, 64)\n"
            "faults = []\n"
            "for rule in rules:\n"
            "    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "    kernel_profile(rule, 64)\n"
            "    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
            "print(sum(f >= 8 for f in faults), sum(faults) / len(faults))\n")
    env = {k: v for k, v in os.environ.items() if not k.startswith(("MALLOC_", "GLIBC_TUNABLES"))}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    refaulted, mean = out.split()
    assert int(refaulted) < 20, f"{refaulted} of 400 profiles took 8 or more faults ({mean} per profile)"


def test_profile_shape_check():
    rule = build_rule(make_grid(0.0, 1.0, 2))
    with pytest.raises(ValueError):
        PeanoProfile(rule=rule, samples=np.zeros((4, 3)), lowest=0.0, knot_max=0.0)
    with pytest.raises(ValueError):
        kernel_profile(rule, samples_per_cell=1)


# ------------------------------------------------------------ error constant

def test_error_constant_single_cell():
    rule = build_rule(make_grid(0.0, 1.0, 1))
    assert abs(error_constant(rule) - 1.0 / 2016000.0) <= 1e-18


@pytest.mark.parametrize("n", sorted(C_UNIT))
def test_error_constant_frozen_values(n):
    rule = build_rule(make_grid(0.0, 1.0, n))
    assert abs(error_constant(rule) - C_UNIT[n]) <= 1e-18


def test_error_constant_positive():
    for a, b, n in [(0.0, 1.0, 7), (-4.0, 4.0, 12), (2.0, 2.5, 3)]:
        assert error_constant(build_rule(make_grid(a, b, n))) > 0.0


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (-2.0, 3.0)])
def test_sixth_power_identity(a, b):
    # the rule underestimates the integral of (t-a)^6 by exactly 720 c;
    # the two sides roll up the same products with different groupings,
    # so they agree to 1e-12 relative or the roundoff floor of the
    # (b-a)^7-scale operands, whichever is larger
    for n in range(1, 21):
        rule = build_rule(make_grid(a, b, n))
        exact = (b - a) ** 7 / 7.0
        q = apply_rule(rule, lambda t: (t - a) ** 6)
        c = error_constant(rule)
        assert exact - q == pytest.approx(
            720.0 * c, abs=max(1e-12 * 720.0 * c, 2e-16 * (b - a) ** 7)
        )


def test_error_constant_matches_global_formula_at_small_n():
    # the definition (b-a)^7/5040 - sum w (t-a)^6/720 in double precision,
    # as a reference where its cancellation is mild: it agrees to its own
    # rounding floor, the head's rounding plus the node placement ulp(|a|)
    # moving the sum by up to 6 (b-a)^6 ulp / 720
    eps = np.finfo(float).eps
    rng = np.random.default_rng(303)
    for _ in range(120):
        a = float(rng.uniform(-50.0, 50.0))
        b = a + float(rng.uniform(0.01, 20.0))
        rule = build_rule(make_grid(a, b, int(rng.integers(1, 31))))
        s = math.fsum(
            w * (t - a) ** 6
            for t, w in zip(rule.nodes.tolist(), rule.weights.tolist())
        )
        reference = (b - a) ** 7 / 5040.0 - s / 720.0
        floor = eps * (b - a) ** 7 / 5040.0 + eps * max(abs(a), abs(b)) * (b - a) ** 6 / 120.0
        assert abs(error_constant(rule) - reference) <= floor


def test_error_constant_memory_does_not_grow_with_n():
    # the constant is a dozen table terms: no array of the nodes' length
    # (one would be 16 MB at n = 10^6, one block of 16384 doubles 128 KiB)
    rule = build_rule(make_grid(0.0, 1.0, 10**6))
    error_constant(rule)
    tracemalloc.start()
    try:
        error_constant(rule)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 10


def test_error_constant_bits_do_not_depend_on_blas_threads():
    # no BLAS call: one thread or the default gives the same double (a
    # dot product of 65536 nodes at a time moved the last bits with them)
    code = ("from splinequad import build_rule, error_constant, make_grid; "
            "print(error_constant(build_rule(make_grid(0.0, 1.0, 200000))).hex())")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    one = dict(env, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    texts = [subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=e, check=True).stdout for e in (env, one)]
    assert texts[0] == texts[1] != ""


@pytest.mark.parametrize("a,b", [(0.0, 1.0), (0.0, 5000.0), (-3.0, 17.0)])
def test_error_constant_agrees_with_50_digits(a, b):
    # the local form of the built rule in 50 digits: the double value is a
    # correctly rounded sum of products that each round a few times
    mp = pytest.importorskip("mpmath")
    rule = build_rule(make_grid(a, b, 5000))
    with mp.workdps(50):
        a_, h = mp.mpf(rule.grid.a), mp.mpf(rule.grid.h)
        s = mp.mpf(0)
        for t, w in zip(rule.nodes.tolist(), rule.weights.tolist()):
            x = (mp.mpf(t) - a_) / h
            u = x - mp.floor(x)
            s += w * (u * (u - 1)) ** 3
        exact = h**7 * (-rule.grid.n / mp.mpf(140) - s / h) / 720
        assert abs(error_constant(rule) - exact) <= 1e-14 * exact


def test_error_constant_where_c_leaves_the_double_range():
    # c ~ (b-a) h^6 / 604800: a double on [0, 1e45] although (b-a)^7 is
    # not, beyond the range on [0, 1e60], subnormal on [0, 1e-44], and
    # below the smallest subnormal on [0, 1e-45] (about 1.6e-324)
    unit = error_constant(build_rule(make_grid(0.0, 1.0, 3)))
    c = error_constant(build_rule(make_grid(0.0, 1e45, 3)))
    assert c / 1e45**6 / 1e45 == pytest.approx(unit, rel=1e-12)
    wide = build_rule(make_grid(0.0, 1e60, 3))
    named = r"^the error constant is beyond the double range on \[0\.0, 1e\+60\]$"
    for beyond in (lambda: error_constant(wide), lambda: remainder_bound(wide, 1.0)):
        with pytest.raises(OverflowError, match=named):
            beyond()
    with pytest.raises(OverflowError, match=r"^\(b - a\)\^6, the scale of the kernel gates, "):
        kernel_profile(wide, 2)
    tiny = error_constant(build_rule(make_grid(0.0, 1e-44, 3)))
    assert 0.0 < tiny < np.finfo(float).tiny
    assert tiny == pytest.approx(unit * 1e-308, rel=1e-6)
    assert error_constant(build_rule(make_grid(0.0, 1e-45, 3))) == 0.0


def test_error_constant_equals_kernel_integral():
    # consistency of the closed form with the kernel it integrates; the
    # absolute floor covers double-precision noise in the kernel values,
    # which the shrinking constant eventually meets
    for n in (1, 2, 5, 8, 13):
        grid = make_grid(0.0, 1.0, n)
        rule = build_rule(grid)
        breaks = sorted(set(grid.knots().tolist()) | set(rule.nodes.tolist()))
        integral = gauss_legendre_between(
            lambda t: peano_kernel(rule, t), breaks, points=4
        )
        c = error_constant(rule)
        span = grid.b - grid.a
        assert abs(c - integral) <= 1e-12 * c + 5e-19 * span**7


# ---------------------------------------------------------- remainder bound

def test_remainder_bound_zero_derivative():
    rule = build_rule(make_grid(0.0, 1.0, 3))
    assert remainder_bound(rule, 0.0) == 0.0


def test_remainder_bound_rejects_negative():
    rule = build_rule(make_grid(0.0, 1.0, 3))
    with pytest.raises(ValueError, match="nonnegative"):
        remainder_bound(rule, -1.0)


def test_remainder_bound_rejects_nan():
    # NaN compares false with 0.0 both ways: a NaN M6 is no bound
    rule = build_rule(make_grid(0.0, 1.0, 3))
    with pytest.raises(ValueError, match="nonnegative, got nan"):
        remainder_bound(rule, math.nan)


def test_remainder_bound_covers_sine():
    # |d^6/dt^6 sin t| <= 1, and the true integral over [0, pi] is 2
    for n in range(1, 21):
        rule = build_rule(make_grid(0.0, math.pi, n))
        err = abs(apply_rule(rule, math.sin) - 2.0)
        assert err <= remainder_bound(rule, 1.0)


def test_remainder_bound_is_positive():
    # wherever c is at least the smallest normal double: spans 1e-3..1e3
    # up to |a| = 1e6, and n up to 10^6 on [0, 1]
    rng = np.random.default_rng(2010)
    grids = [(0.0, 1.0, 10**k) for k in range(7)]
    while len(grids) < 200:
        a = float(rng.uniform(-1e6, 1e6))
        span = float(10.0 ** rng.uniform(-3.0, 3.0))
        grids.append((a, a + span, int(10.0 ** rng.uniform(0.0, 3.0))))
    for a, b, n in grids:
        rule = build_rule(make_grid(a, b, n))
        if error_constant(rule) >= np.finfo(float).tiny:
            assert remainder_bound(rule, 1.0) > 0.0, (a, b, n)


def test_remainder_bound_sixth_order_decay():
    bounds = {n: remainder_bound(build_rule(make_grid(0.0, 1.0, n)), 1.0)
              for n in (4, 8, 16, 32, 64)}
    for n in (4, 8, 16, 32):
        ratio = bounds[2 * n] / bounds[n]
        assert ratio == pytest.approx(2.0**-6, rel=0.25)
