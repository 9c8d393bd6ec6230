"""Tests for the command-line interface."""

import errno
import json
import math
import os
import subprocess
import sys
import threading
from decimal import ROUND_DOWN, Context, Decimal
from pathlib import Path

import numpy as np
import pytest

from splinequad import build_rule, cli, error_constant, kernel_profile, make_grid
from splinequad.quadrature import _BLOCK, ConstructionError, QuadratureRule

from references import rule_document_from_json

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args: str) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "-m", "splinequad", *args]
    return subprocess.run(cmd, capture_output=True, text=True)


def test_help():
    cp = run_cli("--help")
    assert cp.returncode == 0
    assert "quadrature" in cp.stdout


# ------------------------------------------------------------------- rule

def test_rule_table_first_row_values():
    cp = run_cli("rule", "--n", "5", "--a", "0", "--b", "5", "--format", "table")
    assert cp.returncode == 0, cp.stderr
    lines = cp.stdout.splitlines()
    assert lines[0] == "i tau omega"
    idx, tau, omega = lines[1].split()
    assert idx == "1"
    assert float(tau) == pytest.approx(0.1225148226554413, abs=1e-13)
    assert float(omega) == pytest.approx(0.3020174288145723, abs=1e-13)


def test_rule_table_row_count_and_symmetry_note():
    cp = run_cli("rule", "--n", "6", "--a", "0", "--b", "6")
    lines = cp.stdout.splitlines()
    assert len(lines) == 1 + 7 + 1          # header, n+1 rows, symmetry note
    assert lines[-1].startswith("#") and "symmetry" in lines[-1]


@pytest.mark.parametrize("n", [5, 6, 7, 8, 9, 10])
def test_rule_table_matches_golden(n):
    cp = run_cli("rule", "--n", str(n), "--a", "0", "--b", str(n), "--format", "table")
    assert cp.returncode == 0, cp.stderr
    assert cp.stdout == (GOLDEN / f"rule_n{n}.txt").read_text()


def test_rule_json_single_cell():
    cp = run_cli("rule", "--n", "1", "--a", "0", "--b", "1", "--format", "json")
    doc = json.loads(cp.stdout)
    assert doc["schema_version"] == 1
    assert doc["n"] == 1 and doc["a"] == 0.0 and doc["b"] == 1.0 and doc["h"] == 1.0
    expected_nodes = [0.11270166537925831, 0.5, 0.8872983346207417]
    expected_weights = [0.2777777777777778, 0.4444444444444444, 0.2777777777777778]
    for got, want in zip(doc["nodes"], expected_nodes):
        assert got == pytest.approx(want, abs=1e-14)
    for got, want in zip(doc["weights"], expected_weights):
        assert got == pytest.approx(want, abs=1e-14)
    assert doc["error_constant"] == pytest.approx(1.0 / 2016000.0, abs=1e-18)


def test_rule_json_round_trip_bit_identical(tmp_path):
    out = tmp_path / "rule.json"
    cp = run_cli("rule", "--n", "9", "--a", "-2.5", "--b", "4.75",
                 "--format", "json", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    doc = json.loads(out.read_text())
    reparsed = json.loads(json.dumps(doc))
    assert reparsed["nodes"] == doc["nodes"]
    assert reparsed["weights"] == doc["weights"]

    from splinequad import build_rule, make_grid
    rule = build_rule(make_grid(-2.5, 4.75, 9))
    assert doc["nodes"] == rule.nodes.tolist()
    assert doc["weights"] == rule.weights.tolist()


def test_rule_csv_format(tmp_path):
    out = tmp_path / "rule.csv"
    cp = run_cli("rule", "--n", "3", "--format", "csv", "--out", str(out))
    assert cp.returncode == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "i,tau,omega"
    assert len(lines) == 1 + 7                  # all 2n+1 nodes
    first = lines[1].split(",")
    assert first[0] == "1"
    float(first[1]), float(first[2])
    # 17 significant digits parse back to the same doubles
    from splinequad import build_rule, make_grid
    rule = build_rule(make_grid(0.0, 1.0, 3))
    for line, t, w in zip(lines[1:], rule.nodes, rule.weights):
        _, ts, ws = line.split(",")
        assert float(ts) == t and float(ws) == w


def test_rule_rejects_zero_cells():
    cp = run_cli("rule", "--n", "0", "--a", "0", "--b", "1")
    assert cp.returncode == 2
    assert cp.stderr


def test_rule_rejects_empty_interval():
    cp = run_cli("rule", "--n", "3", "--a", "1", "--b", "1")
    assert cp.returncode == 2
    assert "invalid interval" in cp.stderr


# ------------------------------------------------------ emitter references
# The emitters stream their output in chunks and format each distinct weight
# once; these references format every value on its own, the plain way.

_SIG16 = Context(prec=16, rounding=ROUND_DOWN)


def reference_table(rule) -> str:
    n = rule.grid.n
    lines = ["i tau omega"]
    for i in range(n + 1):
        t, w = (format(_SIG16.create_decimal(Decimal(v)), "f")
                for v in (float(rule.nodes[i]), float(rule.weights[i])))
        lines.append(f"{i + 1} {t} {w}")
    lines.append(f"# rows {n + 2}..{2 * n + 1} by symmetry: tau(i) = a+b-tau(2n+2-i), "
                 f"omega(i) = omega(2n+2-i)")
    return "\n".join(lines) + "\n"


def reference_csv(rule) -> str:
    rows = zip(rule.nodes.tolist(), rule.weights.tolist())
    return "".join(["i,tau,omega\n"] + [f"{i},{t:.17g},{w:.17g}\n"
                                        for i, (t, w) in enumerate(rows, 1)])


def reference_json(rule) -> str:
    grid = rule.grid
    return json.dumps({
        "schema_version": 1, "n": grid.n, "a": grid.a, "b": grid.b, "h": grid.h,
        "nodes": rule.nodes.tolist(), "weights": rule.weights.tolist(),
        "error_constant": error_constant(rule),
    }) + "\n"


def emitter_cases():
    """Seeded intervals for n = 1..64: straddling the origin, far from it on
    either side, or just right of it; then one n whose table, csv rows and
    json arrays all cross a chunk boundary."""
    rng = np.random.default_rng(64)
    for n in range(1, 65):
        kind = n % 3
        if kind == 0:
            a, b = -float(rng.uniform(0.1, 10.0)), float(rng.uniform(0.1, 10.0))
        elif kind == 1:
            a = float(rng.choice([-1.0, 1.0]) * rng.uniform(1e5, 1e9))
            b = a + float(rng.uniform(0.5, 100.0))
        else:
            a = float(rng.uniform(0.0, 1.0))
            b = a + float(rng.uniform(0.1, 5.0))
        yield a, b, n
    yield -0.75, 2.5, cli._CHUNK


@pytest.mark.parametrize("fmt,reference", [
    ("table", reference_table), ("csv", reference_csv), ("json", reference_json),
])
def test_rule_emitters_match_reference_bytes(tmp_path, fmt, reference):
    out = tmp_path / f"rule.{fmt}"
    for a, b, n in emitter_cases():
        argv = ["rule", "--n", str(n), "--a", repr(a), "--b", repr(b),
                "--format", fmt, "--out", str(out)]
        assert cli.main(argv) == 0
        expected = reference(build_rule(make_grid(a, b, n)))
        assert out.read_bytes() == expected.encode(), (a, b, n)


@pytest.mark.parametrize("fmt", ["table", "csv"])
@pytest.mark.parametrize("n", [2 * _BLOCK, 2 * _BLOCK + 1])
def test_streamed_rule_equals_the_whole_rule_across_spans(tmp_path, fmt, n):
    # the table's n + 1 rows and the csv's 2n + 1 cross span boundaries and
    # end one or two rows into a span; the csv's later spans hold mirrored
    # nodes made beside the span
    out = tmp_path / f"rule.{fmt}"
    argv = ["rule", "--n", str(n), "--a", "-0.75", "--b", "2.5", "--format", fmt,
            "--out", str(out)]
    assert cli.main(argv) == 0
    rule = build_rule(make_grid(-0.75, 2.5, n))
    whole = cli._format_table(rule) if fmt == "table" else cli._format_csv(rule)
    assert out.read_bytes() == whole.encode()


def test_format_helpers_and_to_json_match_references():
    rule = build_rule(make_grid(-3.0, 1.0e3, 77))
    assert cli._format_table(rule) == reference_table(rule)
    assert cli._format_csv(rule) == reference_csv(rule)
    assert cli.RuleDocument.from_rule(rule).to_json() + "\n" == reference_json(rule)


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_rule_stdout_and_out_file_are_the_same_bytes(tmp_path, fmt):
    # 2n+1 csv rows and json array items cross a chunk boundary
    out = tmp_path / f"rule.{fmt}"
    n = cli._CHUNK // 2 + 1
    args = ["-m", "splinequad", "rule", "--n", str(n), "--a", "-1",
            "--b", "2", "--format", fmt]
    to_stdout = subprocess.run([sys.executable, *args], capture_output=True)
    to_file = subprocess.run([sys.executable, *args, "--out", str(out)],
                             capture_output=True)
    assert to_stdout.returncode == 0 and to_file.returncode == 0
    assert to_file.stdout == b""
    assert to_stdout.stdout == out.read_bytes()


@pytest.mark.parametrize("command,out,reason", [
    ("rule", ".", "Is a directory"),
    ("rule", "missing/dir/x.csv", "No such file or directory"),
    ("kernel", ".", "Is a directory"),
])
def test_unwritable_out_is_one_line_and_exit_2(tmp_path, capsys, command, out, reason):
    # an --out that cannot be opened is a usage error, not a traceback
    path = tmp_path / out
    assert cli.main([command, "--n", "3", "--out", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {path}: {reason}\n"
    assert not (tmp_path / "missing").exists()


# ----------------------------------------------------------------- kernel

def test_kernel_csv_zeros_and_sign(tmp_path):
    out = tmp_path / "kernel.csv"
    cp = run_cli("kernel", "--n", "4", "--a", "0", "--b", "1",
                 "--samples-per-cell", "8", "--out", str(out))
    assert cp.returncode == 0, cp.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "t,K6"
    rows = [tuple(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 4 * 8 + 1
    by_t = dict(rows)
    for knot in (0.0, 0.25, 0.5, 0.75, 1.0):
        assert abs(by_t[knot]) <= 1e-14
    assert min(v for _, v in rows) >= -1e-15


def test_kernel_csv_matches_reference_bytes(tmp_path):
    # 20 cells x 3300 samples: the rows cross a chunk boundary
    out = tmp_path / "kernel.csv"
    argv = ["kernel", "--n", "20", "--a", "-1.25", "--b", "2",
            "--samples-per-cell", "3300", "--out", str(out)]
    assert cli.main(argv) == 0
    profile = kernel_profile(build_rule(make_grid(-1.25, 2.0, 20)), 3300)
    expected = "t,K6\n" + "".join(f"{t:.17g},{v:.17g}\n" for t, v in profile.samples)
    assert out.read_bytes() == expected.encode()


def test_kernel_rejects_bad_flags():
    assert run_cli("kernel", "--n", "0").returncode == 2
    assert run_cli("kernel", "--n", "2", "--a", "3", "--b", "1").returncode == 2


def test_kernel_refuses_more_samples_than_the_cap():
    # n = 2^16 at the default 64 samples per cell: 2^22 + 1 samples
    cp = run_cli("kernel", "--n", str(1 << 16))
    assert cp.returncode == 2
    assert cp.stdout == ""
    assert cp.stderr.startswith("error: ")
    assert "4194305 samples" in cp.stderr and "cap of 4194304" in cp.stderr


# ------------------------------------------------------------------ check

def test_check_small_run_passes():
    cp = run_cli("check", "--n-max", "4", "--seeds", "3")
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert "OVERALL: PASS" in cp.stdout
    assert "max residual" in cp.stdout


def test_check_single_cell_reports_gauss_legendre():
    cp = run_cli("check", "--n-max", "1", "--seeds", "2")
    assert cp.returncode == 0
    assert "n=1 equals 3-point Gauss-Legendre: PASS" in cp.stdout


def test_check_unreachable_tolerance_fails():
    # the tolerance replaces every valued gate, and no value reaches it; the
    # pass/fail suites keep their own gate
    cp = run_cli("check", "--n-max", "3", "--seeds", "2", "--tolerance", "1e-30")
    assert cp.returncode == 1
    lines = cp.stdout.splitlines()
    valued = [line for line in lines if " value=" in line]
    assert len(valued) == 4, lines
    assert all(line.endswith(" gate=1.0e-30 status=FAIL") for line in valued), lines
    assert "layout.counts status=PASS" in lines
    assert "residues.invariants_and_cubic status=PASS" in lines
    assert lines[-1] == "OVERALL: FAIL"


CHECK_LINES = [
    "exactness.max_basis_residual", "layout.counts", "exactness.random_spline_relative",
    "residues.invariants_and_cubic", "peano.negativity", "peano.knot_values",
    "limit.deviation_beyond_cell_9", "n=1", "max", "OVERALL:",
]


@pytest.mark.parametrize("argv, names", [
    ([], CHECK_LINES),
    (["--n-max", "19", "--seeds", "2"], [n for n in CHECK_LINES if not n.startswith("limit.")]),
])
def test_check_prints_its_lines_in_order(capsys, argv, names):
    # the limit suite needs n = 20
    assert cli.main(["check", *argv]) == 0
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()] == names


@pytest.mark.parametrize("tolerance", [None, "1e-17", "1e-30"])
def test_check_prints_the_worst_of_each_gates_values(capsys, tolerance):
    # one line per name the suites yield, in the order the names first come,
    # with the worst of its values against its gate or the tolerance; the
    # exit code is 1 exactly where a line fails
    values = {}
    for name, value, gate in cli._gate_values(21, 2):
        values.setdefault(name, []).append((value, gate))
    argv = ["check", "--n-max", "21", "--seeds", "2"]
    code = cli.main(argv + ([] if tolerance is None else ["--tolerance", tolerance]))
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(values) + 2, lines
    pass_fail = ("layout.counts", "residues.invariants_and_cubic")
    for line, (name, pairs) in zip(lines, values.items()):
        assert len({gate for _, gate in pairs}) == 1, name
        worst = cli._worst(*(value for value, _ in pairs))
        gate = pairs[0][1] if tolerance is None or name in pass_fail else float(tolerance)
        status = "PASS" if worst <= gate else "FAIL"
        if name in pass_fail:
            assert gate == 0.0 and {value for value, _ in pairs} <= {0.0, 1.0}, name
            assert line == f"{name} status={status}"
        elif name == "n=1 equals 3-point Gauss-Legendre":
            assert line == f"{name}: {status} (deviation {worst:.3e})"
        else:
            assert line == f"{name} value={worst:.3e} gate={gate:.1e} status={status}"
    exact = [value for name in ("exactness.max_basis_residual", "exactness.random_spline_relative")
             for value, _ in values[name]]
    assert lines[-2] == f"max residual <= {cli._worst(*exact):.3e}"
    failed = any("FAIL" in line for line in lines[:-2])
    assert lines[-1] == f"OVERALL: {'FAIL' if failed else 'PASS'}"
    assert code == (1 if failed else 0)
    assert failed == (tolerance is not None)


def test_check_zero_tolerance_keeps_each_lines_shape(capsys):
    # a gate of 0 from --tolerance still prints value= and gate= on the
    # valued lines; the pass/fail suites keep their gate and shape
    assert cli.main(["check", "--n-max", "20", "--seeds", "2", "--tolerance", "0"]) == 1
    lines = capsys.readouterr().out.splitlines()
    for i in (0, 2, 4, 5, 6):
        name, value, gate, status = lines[i].split()
        assert name == CHECK_LINES[i] and value.startswith("value=") and gate == "gate=0.0e+00"
        assert status == ("status=PASS" if value == "value=0.000e+00" else "status=FAIL")
    assert lines[1] == "layout.counts status=PASS"
    assert lines[3] == "residues.invariants_and_cubic status=PASS"
    assert lines[7] == "n=1 equals 3-point Gauss-Legendre: PASS (deviation 0.000e+00)"
    assert lines[-1] == "OVERALL: FAIL"


def test_check_negative_zero_tolerance_is_zero(capsys):
    # -0 passes the >= 0 test, and prints as the gate 0 does, not gate=-0.0e+00
    runs = []
    for argv in (["--tolerance=-0"], ["--tolerance", "0"]):
        code = cli.main(["check", "--n-max", "1", "--seeds", "1", *argv])
        runs.append((code, capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert "gate=0.0e+00" in runs[0][1] and "-0.0" not in runs[0][1]


@pytest.mark.parametrize("tolerance", ["nan", "-1", "inf", "-inf", "1e400", "one"])
def test_check_refuses_a_tolerance_that_is_not_a_finite_number_at_least_0(capsys, tolerance):
    with pytest.raises(SystemExit) as exc:
        cli.main(["check", "--n-max", "1", "--seeds", "1", f"--tolerance={tolerance}"])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1 and errors[0].startswith("splinequad check: error: argument --tolerance: ")
    if tolerance != "one":
        assert errors[0].endswith(f"expected a finite number >= 0, got {tolerance}")


def test_check_fails_a_nan_residual(monkeypatch, capsys):
    # a NaN weight makes the exactness and random-spline values NaN; each
    # suite's worst value keeps it, and NaN passes no gate
    build = cli.quadrature.build_rule

    def with_a_nan_weight(grid):
        rule = build(grid)
        if grid.n != 25:
            return rule
        weights = rule.weights.copy()
        weights[7] = np.nan
        return QuadratureRule(grid=grid, nodes=rule.nodes, weights=weights)

    monkeypatch.setattr(cli.quadrature, "build_rule", with_a_nan_weight)
    assert cli.main(["check", "--n-max", "30", "--seeds", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "exactness.max_basis_residual value=nan gate=1.0e-13 status=FAIL" in lines
    assert "exactness.random_spline_relative value=nan gate=1.0e-12 status=FAIL" in lines
    assert lines[-1] == "OVERALL: FAIL"


def test_check_reports_a_rule_the_kernel_profile_refuses(monkeypatch, capsys):
    # weight 5 of the n = 7 rule on [0, 1] off by 1e-6: kernel_profile's own
    # negativity gate refuses it.  check counts that as a Peano failure,
    # runs the remaining suites and exits 1
    build = cli.quadrature.build_rule

    def with_a_weight_off(grid):
        rule = build(grid)
        if grid.n != 7 or grid.b != 1.0:
            return rule
        weights = rule.weights.copy()
        weights[5] *= 1.0 + 1e-6
        return QuadratureRule(grid=grid, nodes=rule.nodes, weights=weights)

    monkeypatch.setattr(cli.quadrature, "build_rule", with_a_weight_off)
    assert cli.main(["check", "--n-max", "20", "--seeds", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    refused = [line for line in lines if line.startswith("peano.kernel_profile")]
    assert len(refused) == 1, lines
    assert refused[0].startswith("peano.kernel_profile n=7 status=FAIL (kernel dips to -5.8")
    assert "np.float64" not in refused[0]
    assert any(line.startswith("peano.knot_values") for line in lines)
    assert any(line.startswith("limit.deviation_beyond_cell_9") for line in lines)
    assert lines[-1] == "OVERALL: FAIL"


def test_check_prints_both_peano_lines_where_every_profile_is_refused(monkeypatch, capsys):
    # a refused profile enters neither Peano value, so both stay at 0, and
    # the refusals follow them
    def refuse(rule, samples_per_cell):
        raise ConstructionError(f"refused at n = {rule.grid.n}")

    monkeypatch.setattr(cli.error_analysis, "kernel_profile", refuse)
    assert cli.main(["check", "--n-max", "5", "--seeds", "2"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[4:11] == [
        "peano.negativity value=0.000e+00 gate=1.0e-15 status=PASS",
        "peano.knot_values value=0.000e+00 gate=1.0e-14 status=PASS",
        *(f"peano.kernel_profile n={n} status=FAIL (refused at n = {n})" for n in range(1, 6)),
    ]
    assert lines[11].startswith("n=1 equals 3-point Gauss-Legendre: PASS")
    assert lines[-1] == "OVERALL: FAIL"
    # a refusal fails against its own gate, which --tolerance does not replace
    assert cli.main(["check", "--n-max", "5", "--seeds", "2", "--tolerance", "1"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[6:11] == [
        f"peano.kernel_profile n={n} status=FAIL (refused at n = {n})" for n in range(1, 6)
    ]


def test_check_reads_the_peano_values_from_the_profile(monkeypatch, capsys):
    # both Peano lines come from the values kernel_profile's gates decided
    # on; the scalar global form is not evaluated again
    def refused(rule, t):
        raise AssertionError("peano_kernel called")

    monkeypatch.setattr(cli.error_analysis, "peano_kernel", refused)
    assert cli.main(["check", "--n-max", "20", "--seeds", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for name in ("peano.negativity", "peano.knot_values"):
        assert any(line.startswith(f"{name} value=") and line.endswith("status=PASS")
                   for line in lines), (name, lines)


def test_check_full_range():
    cp = run_cli("check", "--n-max", "50", "--seeds", "5")
    assert cp.returncode == 0, cp.stdout + cp.stderr
    assert "OVERALL: PASS" in cp.stdout
    assert "limit.deviation_beyond_cell_9" in cp.stdout


def test_rule_document_from_json():
    from splinequad.cli import RuleDocument
    from splinequad import build_rule, make_grid

    doc = RuleDocument.from_rule(build_rule(make_grid(0.0, 2.0, 2)))
    again = rule_document_from_json(doc.to_json())
    assert again == doc


def test_construction_failure_exit_code(monkeypatch):
    # the exit-3 path of a construction failure, whatever raises it: the
    # span generator every rule is made from is stubbed (grids the checks
    # refuse are run in test_rule_refuses_the_grids_build_rule_refuses)
    import splinequad.cli as cli
    from splinequad.quadrature import ConstructionError

    def boom(grid, i, nodes, weights):
        raise ConstructionError("stubbed failure", interval=3)

    monkeypatch.setattr(cli.quadrature, "_span", boom)
    code = cli.main(["rule", "--n", "4"])
    assert code == 3


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_rule_refuses_the_grids_build_rule_refuses(tmp_path, capsys, fmt):
    # the checks run over every span before the first byte: a refused grid
    # exits 3 with build_rule's message and writes nothing, not even a file
    out = tmp_path / f"rule.{fmt}"
    rng = np.random.default_rng(5)
    refused = 0
    for _ in range(150):
        n = int(rng.integers(1, 65))
        span = 10.0 ** rng.uniform(-300.0, 300.0)
        a = float(rng.choice((-1.0, 1.0)) * 10.0 ** min(
            math.log10(span) + rng.uniform(-2.0, 16.0), 307.0))
        try:
            grid = make_grid(a, a + span, n)
        except ValueError:
            continue
        try:
            build_rule(grid)
            message = None
        except ConstructionError as exc:
            message = str(exc)
        if message is None:
            continue
        refused += 1
        argv = ["rule", "--n", str(n), f"--a={grid.a!r}", f"--b={grid.b!r}",
                "--format", fmt, "--out", str(out)]
        assert cli.main(argv) == 3
        assert not out.exists()
        assert capsys.readouterr().err == f"construction failed: {message}\n"
    assert refused >= 10


def test_rule_refuses_colliding_nodes_over_many_spans(tmp_path, capsys):
    # h = 1 < ulp(1e16) = 2 at n = _BLOCK: 2n + 1 rows in 3 spans, checked
    # before the first byte, as build_rule checks its blocks
    n = _BLOCK
    assert -(-(2 * n + 1) // _BLOCK) == 3
    out = tmp_path / "rule.csv"
    argv = ["rule", "--n", str(n), "--a", "1e16", "--b", repr(1e16 + n),
            "--format", "csv", "--out", str(out)]
    assert cli.main(argv) == 3
    assert not out.exists()
    assert capsys.readouterr().err == "construction failed: nodes are not strictly increasing\n"


def test_rule_at_extreme_scale_builds():
    # the rule is a + h * (unit-cell table): no power of h is formed
    cp = run_cli("rule", "--n", "3", "--a", "0", "--b", "1e60", "--format", "csv")
    assert cp.returncode == 0, cp.stderr
    assert cp.stderr == ""
    rows = [line.split(",") for line in cp.stdout.splitlines()[1:]]
    assert len(rows) == 7
    nodes = [float(tau) for _, tau, _ in rows]
    assert 0.0 < nodes[0] and nodes[-1] < 1e60
    assert all(x < y for x, y in zip(nodes, nodes[1:]))
    assert all(float(w) > 0.0 for _, _, w in rows)


@pytest.mark.parametrize("fmt,reference", [("table", reference_table), ("csv", reference_csv)])
def test_rule_where_a_plus_b_overflows(tmp_path, fmt, reference):
    # every node and weight is beyond the range the formatter takes in
    # numpy: each is written by its Python expression
    out = tmp_path / f"rule.{fmt}"
    argv = ["rule", "--n", "5", "--a", "1e308", "--b", "1.7e308", "--format", fmt,
            "--out", str(out)]
    assert cli.main(argv) == 0
    assert out.read_bytes() == reference(build_rule(make_grid(1e308, 1.7e308, 5))).encode()


def test_rule_json_where_a_plus_b_overflows():
    # the arrays are written as json.dumps writes them; the error constant,
    # about 5 h^7 / 604800 with h = 1.4e307, is beyond the double range, so
    # the command ends in a construction failure
    rule = build_rule(make_grid(1e308, 1.7e308, 5))
    text = b"".join(
        cli._json_chunks(cli._head(rule.grid), [rule.nodes], [rule.weights], 0.5)
    ).decode()
    grid = rule.grid
    assert text == json.dumps({
        "schema_version": 1, "n": grid.n, "a": grid.a, "b": grid.b, "h": grid.h,
        "nodes": rule.nodes.tolist(), "weights": rule.weights.tolist(), "error_constant": 0.5,
    })
    cp = run_cli("rule", "--n", "5", "--a", "1e308", "--b", "1.7e308", "--format", "json")
    assert cp.returncode == 3 and cp.stderr.startswith("construction failed: ")
    assert cp.stdout == ""


# the kernel gates take powers of b - a; the JSON error constant, about
# 1e411 on [0, 1e60] with n = 3, is beyond the double range
@pytest.mark.parametrize("args", [
    ("rule", "--n", "3", "--a", "0", "--b", "1e60", "--format", "json"),
    ("kernel", "--n", "3", "--a", "0", "--b", "1e60"),
])
def test_overflow_at_extreme_scale_is_a_construction_failure(args):
    cp = run_cli(*args)
    assert cp.returncode == 3
    assert "Traceback" not in cp.stderr
    # the line names what overflowed: the JSON error constant, or the
    # power of b - a that scales the kernel gates
    quantity = {"rule": "the error constant", "kernel": "(b - a)^6"}[args[0]]
    assert cp.stderr.startswith(f"construction failed: {quantity}")
    assert cp.stderr.endswith(" is beyond the double range on [0.0, 1e+60]\n")
    assert cp.stderr.count("\n") == 1
    assert cp.stdout == ""


def _address_space_limit(mib=512):
    """A child's preexec_fn that caps its address space at mib MiB."""
    resource = pytest.importorskip("resource")
    if not hasattr(resource, "RLIMIT_AS"):
        pytest.skip("no address-space limit on this platform")

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (mib << 20, mib << 20))

    return limit


def _address_space_after_import_mib():
    """The address space a child holds once it has imported the CLI (its
    VmPeak, with numpy's and OpenBLAS's threads and libraries), in MiB."""
    if not Path("/proc/self/status").exists():
        pytest.skip("no /proc/self/status to read a child's address space from")
    code = ("import splinequad.cli\n"
            "for line in open('/proc/self/status'):\n"
            "    if line.startswith('VmPeak:'):\n"
            "        print(int(line.split()[1]) >> 10)\n")
    cp = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    return int(cp.stdout)


def test_out_of_memory_is_exit_3_without_a_traceback():
    # at n = 2^21 - 1 with 2 samples per cell (just under the sample cap)
    # the kernel command builds a rule of 64 MiB, then asks for 64 MiB of
    # samples.  A child allowed 96 MiB beyond its imports holds the rule
    # but not the samples, so it runs out in numpy, before the knot
    # scan's first BLAS call, whatever the interpreter and OpenBLAS's
    # threads take; a small rule runs under the same limit
    limit = _address_space_limit(_address_space_after_import_mib() + 96)
    small = subprocess.run([sys.executable, "-m", "splinequad", "rule", "--n", "1"],
                           capture_output=True, text=True, preexec_fn=limit)
    assert small.returncode == 0, small.stderr
    cmd = [sys.executable, "-m", "splinequad", "kernel", "--n", "2097151",
           "--samples-per-cell", "2", "--out", os.devnull]
    cp = subprocess.run(cmd, capture_output=True, text=True, preexec_fn=limit)
    assert cp.returncode == 3, cp.stderr
    assert "Traceback" not in cp.stderr
    assert cp.stderr.startswith("out of memory: ")
    assert cp.stderr.count("\n") == 1 and cp.stderr.endswith("\n")


def test_kernel_refuses_the_cap_before_building_the_rule():
    # n = 10^8 would take a rule of 3 GiB; the request is over the sample
    # cap, so under 512 MiB of address space it is refused as such
    limit = _address_space_limit()
    cmd = [sys.executable, "-m", "splinequad", "kernel", "--n", "100000000",
           "--samples-per-cell", "2", "--out", os.devnull]
    cp = subprocess.run(cmd, capture_output=True, text=True, preexec_fn=limit)
    assert cp.returncode == 2, cp.stderr
    assert cp.stderr == (
        "error: kernel profile of 200000001 samples requested, over the cap of "
        "4194304 (samples_per_cell * n + 1)\n"
    )


def test_rule_streams_at_a_size_it_could_not_hold():
    # n = 10^8 would take two arrays of 1.5 GiB; the rule is written from
    # spans, so under 512 MiB of address space its csv starts after the
    # checks, and a reader that stops after 64 KiB ends it as SIGPIPE would
    limit = _address_space_limit()
    cmd = [sys.executable, "-m", "splinequad", "rule", "--n", "100000000",
           "--format", "csv"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          preexec_fn=limit) as child:
        head = child.stdout.read(1 << 16)
        child.stdout.close()
        stderr = child.stderr.read()
        assert child.wait(timeout=120) == 141
    assert head.startswith(b"i,tau,omega\n1,")
    assert len(head) == 1 << 16
    assert stderr == b""


@pytest.mark.parametrize("a,b,n", [
    (0.0, 1.0, 65536), (0.0, 1.0, 100001), (-3.0, 17.0, 131072),
    (0.0, 150001.0, 150001), (-1.0e6, -1.0e6 + 3.7, 70001),
])
def test_streamed_json_error_constant_is_the_library_value(tmp_path, a, b, n):
    # the document's constant is the library's, bit for bit, whatever
    # spans the streamed rule is written in
    out = tmp_path / "rule.json"
    argv = ["rule", "--n", str(n), "--a", repr(a), "--b", repr(b),
            "--format", "json", "--out", str(out)]
    assert cli.main(argv) == 0
    c = json.loads(out.read_text())["error_constant"]
    assert c.hex() == error_constant(build_rule(make_grid(a, b, n))).hex()


def test_closed_stdout_is_exit_141_without_a_traceback():
    # the reader stops after a few bytes, as `| head -c 10` does: the
    # child exits as one killed by SIGPIPE would, and says nothing
    cmd = [sys.executable, "-m", "splinequad", "rule", "--n", "100000",
           "--format", "csv"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as child:
        head = child.stdout.read(10)
        child.stdout.close()
        stderr = child.stderr.read()
        assert child.wait(timeout=60) == 141
    assert head == b"i,tau,omeg"
    assert stderr == b""


def test_rule_json_where_the_error_constant_is_a_double():
    # (b - a)^7 = 1e315 is beyond the double range, c (about 1.6e306) is
    # not: no power of b - a is formed, so the document is written
    cp = run_cli("rule", "--n", "3", "--a", "0", "--b", "1e45", "--format", "json")
    assert cp.returncode == 0, cp.stderr
    assert cp.stderr == ""
    c = json.loads(cp.stdout)["error_constant"]
    h = 1e45 / 3
    plateau = h**6 / 604800.0 * 1e45  # (b-a)^7 / (604800 n^6)
    assert 0.5 * plateau < c < plateau


# ------------------------------------------------- two formatting processes

def _forks(monkeypatch, child=None):
    """Count the calls of os.fork, on a machine taken to have two CPUs;
    child, if given, runs in each forked worker before it formats."""
    assert threading.active_count() == 1, "a second thread turns the worker off"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    calls = []
    fork = os.fork

    def counting_fork():
        calls.append(1)
        pid = fork()
        if pid == 0 and child is not None:
            child()
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def _cli_bytes(tmp_path, argv):
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    return out.read_bytes()


def _in_process_bytes(tmp_path, argv, chunks=None):
    """The output with no os.fork, made in chunks calls of _digits.lines
    if chunks is given."""
    lines = cli._digits.lines
    calls = []

    def counting_lines(parts):
        calls.append(1)
        return lines(parts)

    with pytest.MonkeyPatch.context() as mp:
        mp.delattr(os, "fork")
        mp.setattr(cli._digits, "lines", counting_lines)
        out = _cli_bytes(tmp_path, argv)
    assert chunks is None or len(calls) == chunks
    return out


@pytest.mark.parametrize("argv,chunks", [
    # n = 70000 and 70001: the table's n + 1 rows make 5 chunks over two
    # spans, the csv's 2n + 1 rows 9, and each json array 9
    (["rule", "--n", "70000", "--a", "-0.75", "--b", "2.5", "--format", "table"], 5),
    (["rule", "--n", "70001", "--a", "-0.75", "--b", "2.5", "--format", "table"], 5),
    (["rule", "--n", "70000", "--a", "-0.75", "--b", "2.5", "--format", "csv"], 9),
    (["rule", "--n", "70001", "--a", "-0.75", "--b", "2.5", "--format", "csv"], 9),
    (["rule", "--n", "70000", "--a", "-0.75", "--b", "2.5", "--format", "json"], 18),
    (["rule", "--n", "70001", "--a", "-0.75", "--b", "2.5", "--format", "json"], 18),
    (["kernel", "--n", "20000", "--samples-per-cell", "2"], 3),
])
def test_forked_and_in_process_formatting_write_the_same_bytes(tmp_path, monkeypatch,
                                                               argv, chunks):
    expected = _in_process_bytes(tmp_path, argv, chunks)
    forks = _forks(monkeypatch)
    assert _cli_bytes(tmp_path, argv) == expected
    assert len(forks) == (2 if argv[-1] == "json" else 1)
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("argv", [
    ["rule", "--n", "100", "--format", "table"],
    ["rule", "--n", "100", "--format", "csv"],
    ["rule", "--n", "100", "--format", "json"],
    ["rule", "--n", str(cli._CHUNK - 1), "--format", "table"],
    ["kernel", "--n", "100", "--samples-per-cell", "2"],
])
def test_one_chunk_output_never_forks(tmp_path, monkeypatch, argv):
    # a worker would only cost its fork
    forks = _forks(monkeypatch)
    _cli_bytes(tmp_path, argv)
    assert forks == []


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_a_fork_that_fails_formats_in_process(tmp_path, monkeypatch, fmt):
    argv = ["rule", "--n", "40001", "--a", "-1", "--b", "3", "--format", fmt]
    expected = _in_process_bytes(tmp_path, argv)
    _forks(monkeypatch)

    def failing_fork():
        raise OSError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", failing_fork)
    assert _cli_bytes(tmp_path, argv) == expected


@pytest.mark.parametrize("sent", [0, 1])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_a_worker_that_dies_leaves_its_chunks_to_the_main_process(tmp_path, monkeypatch,
                                                                  fmt, sent):
    # the worker exits after sending `sent` chunks: the main process
    # formats the rest, and reaps it
    argv = ["rule", "--n", "40001", "--a", "-1", "--b", "3", "--format", fmt]
    expected = _in_process_bytes(tmp_path, argv)
    lines = cli._digits.lines

    def dying_worker():
        calls = []

        def lines_then_exit(parts):
            if len(calls) == sent:
                os._exit(0)
            calls.append(1)
            return lines(parts)

        cli._digits.lines = lines_then_exit  # in the worker's memory only

    forks = _forks(monkeypatch, child=dying_worker)
    assert _cli_bytes(tmp_path, argv) == expected
    assert forks and cli._digits.lines is lines
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_consumer_that_raises_leaves_no_worker(tmp_path, monkeypatch, capsys):
    # the writer fails after two chunks, as a full disk would: the worker
    # is killed and reaped before main returns
    _forks(monkeypatch)
    taken = []

    def failing_emit(chunks, out):
        for chunk in chunks:
            taken.append(chunk)
            if len(taken) == 3:  # the csv header and two chunks
                raise ValueError(f"cannot write {out}: No space left on device")

    monkeypatch.setattr(cli, "_emit", failing_emit)
    argv = ["rule", "--n", "100000", "--format", "csv", "--out", str(tmp_path / "x")]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err.endswith("No space left on device\n")
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_reader_that_stops_early_leaves_no_process_in_the_session():
    # exit 141 and nothing on stderr, as with one process; the session the
    # command leads holds no process once it has exited
    cmd = [sys.executable, "-m", "splinequad", "rule", "--n", "1000000", "--format", "csv"]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          start_new_session=True) as child:
        head = child.stdout.read(1000)
        child.stdout.close()
        stderr = child.stderr.read()
        assert child.wait(timeout=120) == 141
    assert head.startswith(b"i,tau,omega\n1,") and len(head) == 1000
    assert stderr == b""
    with pytest.raises(ProcessLookupError):
        os.killpg(child.pid, 0)
