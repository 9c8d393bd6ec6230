"""Tests of the benchmark itself: inputs, checks, spans, size guard, contract.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import json
import random
import shutil
import subprocess
import sys
from decimal import ROUND_DOWN, Context, Decimal
from pathlib import Path

import numpy as np
import pytest

from splinequad import apply_rule, cli, error_constant, make_grid
from splinequad.quadrature import QuadratureRule, build_rule

from perfbench import bench, checks, workloads
from perfbench.integrands import Quintic, Rational
from perfbench.tracing import Probe, Span, TracingProbe, self_times

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ------------------------------------------------------------- inputs


@pytest.mark.parametrize("cls", [workloads.ManySmall, workloads.Bulk, workloads.Audit])
def test_same_seed_gives_same_inputs(cls):
    first, again, other = cls(7, None), cls(7, None), cls(8, None)
    assert vars(first) == vars(again)
    assert vars(first) != vars(other)


def test_many_small_inputs_cover_the_stated_ranges():
    wl = workloads.ManySmall(3, None)
    ns = np.array(wl.n)
    assert ns.min() == 1 and ns.max() == 64
    assert {n % 2 for n in wl.n} == {0, 1}
    spans = np.array(wl.b) - np.array(wl.a)
    assert spans.min() >= 1e-3 * (1 - 1e-9) and spans.max() <= 1e3 * (1 + 1e-9)
    # every cycle draws one n from each 64th of the log range
    k = np.arange(wl.cycle)
    lo = np.floor(65.0 ** (k / wl.cycle))
    hi = np.minimum(np.floor(65.0 ** ((k + 1) / wl.cycle)), 64)
    for block in ns.reshape(-1, wl.cycle)[:50]:
        assert np.all((lo <= np.sort(block)) & (np.sort(block) <= hi))
    extremes = np.abs(np.array([wl.extreme_a, wl.extreme_b]))
    assert extremes.max() > 1e250 and extremes[extremes > 0].min() < 1e-250


def test_audit_cycles_cover_every_tenth_of_the_n_range():
    wl = workloads.Audit(5, None)
    for block in np.array(wl.n).reshape(-1, wl.cycle)[:10]:
        assert sorted((block - 1) // 10) == list(range(20))


# ------------------------------------------------------------- checks


def _perturbed(rule, k, factor):
    weights = rule.weights.copy()
    weights[k] *= factor
    return QuadratureRule(grid=rule.grid, nodes=rule.nodes, weights=weights)


def test_exact_rule_passes_the_integral_checks():
    grid = make_grid(-3.0, 4.5, 9)
    rule = build_rule(grid)
    quintic = Quintic(grid.a, grid.b, (0.3, -1.0, 0.7, 0.2, -0.9, 0.5))
    rational = Rational(grid.a, grid.b, 0.5, 2.0)
    assert checks.check_integral(apply_rule(rule, quintic.f), quintic, 9) is None
    fine = build_rule(make_grid(grid.a, grid.b, 2000))
    assert checks.check_integral(apply_rule(fine, rational.f), rational, 2000) is None


def test_one_perturbed_weight_fails_without_crashing_the_run(monkeypatch):
    wl = workloads.ManySmall(1, None)
    i = next(j for j in range(wl.POOL) if wl.n[j] >= 4 and wl.b[j] - wl.a[j] > 1)
    monkeypatch.setattr(workloads, "build_rule",
                        lambda grid: _perturbed(build_rule(grid), 1, 1 + 1e-6))
    latency, failures = wl.run_op(i, Probe())
    assert latency > 0.0
    assert failures
    assert all((f.layer, f.kind) == ("quadrature.apply_rule", "wrong") for f in failures)
    assert all(f.defect is None for f in failures)  # not a known defect: run incorrect
    summary = bench.failure_summary([(latency, failures)])
    assert summary["failed_ops"] == 1 and summary["unexpected"] == len(failures)


def test_any_exception_is_a_failure_of_the_layer_that_raised(monkeypatch):
    wl = workloads.ManySmall(1, None)
    i = 0

    def overflowing(grid, f):
        raise OverflowError("(34, 'Numerical result out of range')")

    monkeypatch.setattr(workloads, "apply_rule", overflowing)
    _, failures = wl.run_op(i, Probe())
    assert [(f.kind, f.detail.split(":")[0]) for f in failures] == [
        ("raised", "OverflowError")]


def test_timed_operations_pass_and_the_defect_probe_shows_the_known_defects():
    wl = workloads.ManySmall(1, None)
    assert not any(fs for _, fs in (wl.run_op(i, Probe()) for i in range(wl.cycle * 40)))
    probed = wl.defect_probe(Probe())
    assert len(probed) == wl.EXTREMES and any(fs for _, fs in probed)
    assert {f.defect for _, fs in probed for f in fs} == {"extreme-scale"}
    audit = workloads.Audit(1, None)
    assert not any(fs for _, fs in (audit.run_op(i, Probe()) for i in range(audit.cycle)))
    probed = audit.defect_probe(Probe())
    assert {f.defect for _, fs in probed for f in fs} == {"error-constant-cancellation"}
    summary = bench.failure_summary([(1.0, [])], probed)
    assert summary["failed_ops"] == 0 and summary["unexpected"] == 0
    assert summary["defect_probe"]["failed"] > 0


def test_reference_keeps_a_tenth_of_the_operations_time():
    reference = bench.Reference()
    reference.keep_up(0.0)
    assert reference.units == 0
    reference.keep_up(0.02)
    assert reference.units >= 1 and 0.002 <= reference.seconds
    assert reference.seconds - bench.REF_SHARE * 0.02 < reference.seconds / reference.units


def test_error_constant_check():
    a, b = 0.0, 1.0
    for n in (1, 2, 5, 40):
        c = error_constant(build_rule(make_grid(a, b, n)))
        assert checks.check_error_constant(c, a, b, n) is None
    bad = checks.check_error_constant(-2.7e-20, 0.0, 1.0, 10**6)
    assert bad.defect == "error-constant-cancellation"
    far_off = checks.check_error_constant(1.0, 0.0, 1.0, 10**6)
    assert far_off is not None and far_off.defect is None


def test_table_truncation_agrees_with_exact_decimal_truncation():
    ctx = Context(prec=16, rounding=ROUND_DOWN)
    rng = random.Random(4)
    values = [0.5, 0.25, 1e20 + 12345.0, 4.666666666666667e-07, 0.1, 123456.5, 0.0, -0.3]
    values += [rng.uniform(0.0, 1.0) * 10.0 ** rng.randint(-12, 20) for _ in range(3000)]
    for v in values:
        assert checks.trunc16(v) == format(ctx.create_decimal(Decimal(v)), "f"), v


def test_cli_outputs_read_back_and_a_changed_digit_is_caught():
    rule = build_rule(make_grid(0.0, 1.0, 12))
    table = cli._format_table(rule)
    csv = cli._format_csv(rule)
    doc = cli.RuleDocument.from_rule(rule)
    assert checks.check_table(table, checks.table_rows(rule)) is None
    assert checks.check_csv(csv, rule) is None
    assert checks.check_json(doc.to_json(), rule, doc.error_constant) is None
    changed = doc.to_json().replace(repr(doc.error_constant), repr(doc.error_constant * 2))
    assert checks.check_json(changed, rule, doc.error_constant).layer == "cli.rule.json"
    line = csv.splitlines()[5]
    changed = csv.replace(line, line[:-1] + ("1" if line[-1] != "1" else "2"))
    assert checks.check_csv(changed, rule).layer == "cli.rule.csv"
    changed = table.replace(" 0.", " 1.", 1)
    assert checks.check_table(changed, checks.table_rows(rule)) is not None


def test_rule_structure_counts_prefix_fill_and_middles():
    cases = ((1, (0, 0, 1, 0)), (9, (4, 0, 1, 0)), (20, (4, 6, 0, 1)), (64, (4, 28, 0, 1)))
    for n, expected in cases:
        s = checks.rule_structure(build_rule(make_grid(-2.0, 5.0, n)))
        keys = ("prefix_cells", "fill_cells", "odd_middles", "even_middles")
        assert tuple(s[k] for k in keys) == expected


# ------------------------------------------------------------- spans


def test_self_time_subtracts_the_union_of_direct_children():
    spans = [
        Span("op", 0.0, 10.0, None, 0),
        Span("a", 1.0, 3.0, 0, 0),
        Span("b", 2.0, 5.0, 0, 0),      # overlaps a: union 1..5
        Span("c", 8.0, 12.0, 0, 0),     # clipped to 8..10
        Span("inner", 2.5, 4.0, 2, 0),  # grandchild: counts against b only
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.5, 4.0, 1.5])


def test_tracing_probe_nests_calls_inside_the_operation():
    probe = TracingProbe()
    out = probe.op(lambda: probe.call("outer", lambda: probe.call("inner", lambda: 3)))
    assert out.value == 3 and out.error is None
    names = [(s.name, s.parent, s.op) for s in probe.spans]
    assert names == [("op", None, 0), ("outer", 0, 0), ("inner", 1, 0)]
    assert all(t >= 0.0 for t in self_times(probe.spans))


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    t = bench.tail([float(i) for i in range(100)])
    assert (t["value"], t["beyond"], t["samples"]) == (89.0, 10, 100)
    assert bench.tail([3.0, 1.0, 2.0])["value"] == 3.0


# ------------------------------------------------------------- size guard


def test_audit_size_guard_keeps_the_range_under_the_recorded_cap():
    cap = workloads.DENSE_CAP_MIB << 20
    top = workloads.Audit.N_MAX
    assert workloads.guard_kernel_size(top) == (64 * top + 1) * (2 * top + 1) * 8 <= cap
    over = next(n for n in range(top, 10 * top) if workloads.kernel_dense_bytes(n) > cap)
    with pytest.raises(MemoryError):
        workloads.guard_kernel_size(over)
    why = next(w["why"] for w in SPEC["workloads"] if w["name"] == "audit")
    assert f"{workloads.DENSE_CAP_MIB} MiB" in why and f"1..{top}" in why
    # the growth is shown, not hidden: bytes grow with n^2 up to the top of the range
    assert workloads.kernel_dense_bytes(top) > 3.9 * workloads.kernel_dense_bytes(top // 2)


# ------------------------------------------------------------- contract


def test_benchmark_json_matches_the_metrics_the_benchmark_prints():
    assert {w["name"] for w in SPEC["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_to_run_without_the_tree_under_test(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "many-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0 and done.stdout == ""
