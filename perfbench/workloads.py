"""The four workloads: seeded inputs, the timed operation, and its checks.

Inputs are generated from the seed before any timing; an operation only
receives them.  Each workload runs in whole cycles (``cycle`` operations,
at least ``min_cycles`` of them), every cycle doing the same mix of work,
and a traced run repeats a fixed ``trace_ops`` operations, so its counts
repeat exactly for a seed.

The timed operations use inputs on which the library is correct, so any
failure among them is a regression.  Each workload's ``defect_probe`` runs
the inputs on which a known defect shows (see ``checks.KNOWN_DEFECTS``)
once per run, untimed, and the report counts what it finds.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from splinequad import cli, error_analysis, oracle
from splinequad.grid_basis import make_grid
from splinequad.quadrature import apply_rule, build_rule

from . import checks
from .checks import Failure
from .integrands import Quintic, Rational, counted

CHILD_TIMEOUT_S = 170.0

# ``python -m splinequad`` as runpy runs it for -m, reporting the child's
# own peak resident memory on stderr.  VmHWM covers only the address space
# after exec; a child's ru_maxrss also counts the parent's peak at spawn.
CLI_CHILD = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('splinequad', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    with open('/proc/self/status') as fh:\n"
    "        hwm = [line.split()[1] for line in fh if line.startswith('VmHWM:')]\n"
    "    sys.stderr.write('\\nvmhwm_kb ' + hwm[0] + '\\n')\n"
)


def child_env(src: Path) -> dict[str, str]:
    """Environment in which ``python -m splinequad`` imports the tree under test."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def moderate_intervals(rng: np.random.Generator, size: int):
    """Spans 10^-3..10^3 (log-uniform), left ends uniform in [-10^3, 10^3]."""
    a = rng.uniform(-1e3, 1e3, size)
    return a, a + 10.0 ** rng.uniform(-3.0, 3.0, size)


def extreme_intervals(rng: np.random.Generator, size: int):
    """Endpoints with magnitudes log-uniform over 10^-307..10^308 and random
    signs: the whole finite range ``make_grid`` accepts."""
    x = 10.0 ** rng.uniform(-307.0, 308.0, (size, 2)) * rng.choice((-1.0, 1.0), (size, 2))
    a, b = x.min(axis=1), x.max(axis=1)
    b = np.where(a == b, np.nextafter(a, np.inf), b)
    return a, b


def _checked(checks_fn, defect=None) -> list[Failure]:
    """Run a workload's checks; a check that raises is itself a failure."""
    try:
        return [f for f in checks_fn() if f is not None]
    except Exception as exc:
        detail = f"{type(exc).__name__}: {exc}"[:200]
        return [Failure("bench.check", "raised", detail, defect)]


def _count_build(probe, rule) -> None:
    probe.counts["quadrature.build_rule.cells"] += rule.grid.n
    probe.counts.update(
        {f"quadrature.build_rule.{k}": v for k, v in checks.rule_structure(rule).items()}
    )


class ManySmall:
    """make_grid + build_rule + 4 x apply_rule on affine-mapped random quintics.

    n is log-uniform in 1..64, stratified so that each cycle of 64
    operations draws one n from each 64th of the log range; intervals are
    moderate.  Intervals drawn from the whole finite range hit the
    extreme-scale defect, so they are run by ``defect_probe`` and not in the
    timed stream.
    """

    name = "many-small"
    cycle = 64
    min_cycles = 1
    trace_ops = 24_000
    POOL = 1 << 17
    QUINTICS = 4096
    EXTREMES = 64

    def __init__(self, seed: int, site) -> None:
        rng = np.random.default_rng([seed, 1])
        strata = np.arange(self.cycle) + rng.uniform(0.0, 1.0, (self.POOL // self.cycle,
                                                                 self.cycle))
        self.n = self._sizes(rng.permuted(strata, axis=1).reshape(-1) / self.cycle)
        a, b = moderate_intervals(rng, self.POOL)
        self.a, self.b = a.tolist(), b.tolist()
        coeffs = rng.uniform(-1.0, 1.0, (self.QUINTICS, 6)).tolist()
        self.coeffs = [tuple(c) for c in coeffs]
        self.picks = rng.integers(0, self.QUINTICS, (self.POOL, 4)).tolist()
        self.extreme_n = self._sizes(rng.uniform(0.0, 1.0, self.EXTREMES))
        ea, eb = extreme_intervals(rng, self.EXTREMES)
        self.extreme_a, self.extreme_b = ea.tolist(), eb.tolist()

    @staticmethod
    def _sizes(u: np.ndarray) -> list[int]:
        """n = floor(65^u) capped at 64, for u in [0, 1): log-uniform in 1..64."""
        return np.minimum(np.floor(np.exp(u * math.log(65.0))), 64).astype(int).tolist()

    def run_op(self, i: int, probe) -> tuple[float, list[Failure]]:
        j = i % self.POOL
        return self._run(self.n[j], self.a[j], self.b[j], self.picks[j], probe, None)

    def defect_probe(self, probe) -> list[tuple[float, list[Failure]]]:
        """The same operation on intervals from the whole finite range."""
        return [self._run(n, a, b, self.picks[k], probe, "extreme-scale")
                for k, (n, a, b) in enumerate(zip(self.extreme_n, self.extreme_a,
                                                   self.extreme_b))]

    def _run(self, n, a, b, picks, probe, defect) -> tuple[float, list[Failure]]:
        fs = [Quintic(a, b, self.coeffs[k], probe.integrand_calls) for k in picks]

        def body():
            grid = probe.call("grid_basis.make_grid", make_grid, a, b, n)
            rule = probe.call("quadrature.build_rule", build_rule, grid)
            return rule, [probe.call("quadrature.apply_rule", apply_rule, rule, q.f)
                          for q in fs]

        out = probe.op(body)
        if out.error is not None:
            return out.latency, [checks.raised(out.error, defect)]
        rule, values = out.value
        if probe.traced:
            _count_build(probe, rule)
            probe.counts["quadrature.apply_rule.nodes"] += 4 * len(rule)
        return out.latency, _checked(
            lambda: (checks.check_integral(v, q, n, defect) for v, q in zip(values, fs)),
            defect,
        )


def probe_error_constants(probe, cases, with_bound: bool) -> list[tuple[float, list[Failure]]]:
    """error_constant (and remainder_bound) of the rules on ``(a, b, n)``
    cases, against the plateau value.

    Misses within the rounding floor of the constant's formula carry the
    error-constant-cancellation defect id.  The rules are built untraced.
    """
    results = []
    for a, b, n in cases:

        def body():
            rule = build_rule(make_grid(a, b, n))
            c = probe.call("error_analysis.error_constant",
                           error_analysis.error_constant, rule)
            bound = (probe.call("error_analysis.remainder_bound",
                                error_analysis.remainder_bound, rule, 1.0)
                     if with_bound else None)
            return c, bound

        out = probe.op(body)
        if out.error is not None:
            results.append((out.latency, [checks.raised(out.error)]))
            continue
        if probe.traced:
            probe.counts["error_analysis.error_constant.nodes"] += 2 * n + 1

        def found():
            c, bound = out.value
            bad_c = checks.check_error_constant(c, a, b, n)
            yield bad_c
            if with_bound and not bound > 0.0:
                yield Failure("error_analysis.remainder_bound", "wrong", f"bound {bound!r}",
                              bad_c.defect if bad_c else None)

        results.append((out.latency, _checked(found)))
    return results


class Bulk:
    """One rule at each of n = 10^5 and 10^6 on seeded moderate intervals:
    build_rule + apply_rule on a rational and a quintic.

    Both sizes sit in one operation, so every operation does the same work
    and the latency percentiles never switch between two sizes.
    error_constant is wrong at these sizes (cancellation), so it runs in
    ``defect_probe`` on the first operation's rules, not in the timed stream.
    """

    name = "bulk"
    cycle = 1
    min_cycles = 1
    trace_ops = 4
    SIZES = (10**5, 10**6)
    POOL = 64

    def __init__(self, seed: int, site) -> None:
        rng = np.random.default_rng([seed, 2])
        shape = (self.POOL, len(self.SIZES))
        a, b = moderate_intervals(rng, self.POOL * len(self.SIZES))
        self.a, self.b = a.reshape(shape).tolist(), b.reshape(shape).tolist()
        self.center = rng.uniform(0.0, 1.0, shape).tolist()
        self.scale = (10.0 ** rng.uniform(-1.0, 0.0, shape)).tolist()
        self.coeffs = rng.uniform(-1.0, 1.0, shape + (6,)).tolist()

    def run_op(self, i: int, probe) -> tuple[float, list[Failure]]:
        j = i % self.POOL
        cases = []
        for k, n in enumerate(self.SIZES):
            a, b = self.a[j][k], self.b[j][k]
            span = b - a
            calls = probe.integrand_calls
            rational = Rational(a, b, a + self.center[j][k] * span, self.scale[j][k] * span,
                                calls)
            cases.append((n, a, b, rational, Quintic(a, b, self.coeffs[j][k], calls)))

        def body():
            results = []
            for n, a, b, rational, quintic in cases:
                grid = probe.call("grid_basis.make_grid", make_grid, a, b, n)
                rule = probe.call("quadrature.build_rule", build_rule, grid)
                q_rat = probe.call("quadrature.apply_rule", apply_rule, rule, rational.f)
                q_quin = probe.call("quadrature.apply_rule", apply_rule, rule, quintic.f)
                results.append((rule, q_rat, q_quin))
            return results

        out = probe.op(body)
        if out.error is not None:
            return out.latency, [checks.raised(out.error)]
        if probe.traced:
            for rule, *_ in out.value:
                _count_build(probe, rule)
                probe.counts["quadrature.apply_rule.nodes"] += 2 * len(rule)

        def found():
            for (n, a, b, rational, quintic), (_, q_rat, q_quin) in zip(cases, out.value):
                yield checks.check_integral(q_rat, rational, n)
                yield checks.check_integral(q_quin, quintic, n)

        return out.latency, _checked(found)

    def defect_probe(self, probe) -> list[tuple[float, list[Failure]]]:
        """error_constant of the first operation's two rules."""
        cases = [(self.a[0][k], self.b[0][k], n) for k, n in enumerate(self.SIZES)]
        return probe_error_constants(probe, cases, with_bound=False)


SAMPLES_PER_CELL = 64
DENSE_CAP_MIB = 48


def kernel_dense_bytes(n: int) -> int:
    """Bytes of the (samples x nodes) float64 matrix kernel_profile builds.

    Computed from the sizes, not measured; the call holds about two such
    matrices at once.
    """
    return (SAMPLES_PER_CELL * n + 1) * (2 * n + 1) * 8


def guard_kernel_size(n: int) -> int:
    """Dense bytes of kernel_profile at n, refused above DENSE_CAP_MIB."""
    size = kernel_dense_bytes(n)
    if size > DENSE_CAP_MIB << 20:
        raise MemoryError(f"kernel_profile at n={n} would build {size} dense bytes, "
                          f"over the {DENSE_CAP_MIB} MiB cap")
    return size


class Audit:
    """exactness_report + kernel_profile(rule, 64) + agreement on one
    random_spline, for n over 1..200.

    Each cycle of 20 operations draws one n from each tenth of the range,
    in seeded order, so every run sees the same spread of sizes.
    error_constant and remainder_bound are wrong on most of these grids
    (cancellation), so they run in ``defect_probe`` on the first cycle's
    grids, not in the timed stream.
    """

    name = "audit"
    cycle = 20
    min_cycles = 1
    trace_ops = 100
    N_MAX = 200
    POOL = 2000

    def __init__(self, seed: int, site) -> None:
        guard_kernel_size(self.N_MAX)
        rng = np.random.default_rng([seed, 3])
        width = self.N_MAX // self.cycle
        blocks = self.POOL // self.cycle
        offsets = rng.integers(1, width + 1, (blocks, self.cycle))
        strata = np.arange(self.cycle) * width + offsets
        self.n = rng.permuted(strata, axis=1).reshape(-1).tolist()
        a, b = moderate_intervals(rng, self.POOL)
        self.a, self.b = a.tolist(), b.tolist()
        self.spline_seed = rng.integers(0, 2**62, self.POOL).tolist()

    def run_op(self, i: int, probe) -> tuple[float, list[Failure]]:
        j = i % self.POOL
        n, a, b, seed = self.n[j], self.a[j], self.b[j], self.spline_seed[j]
        dense = guard_kernel_size(n)

        def body():
            grid = probe.call("grid_basis.make_grid", make_grid, a, b, n)
            rule = probe.call("quadrature.build_rule", build_rule, grid)
            report = probe.call("oracle.exactness_report", oracle.exactness_report, rule)
            profile = probe.call("error_analysis.kernel_profile",
                                 error_analysis.kernel_profile, rule, SAMPLES_PER_CELL)
            spline = probe.call("oracle.random_spline", oracle.random_spline, grid, seed)
            value = counted(spline.value, probe.integrand_calls)
            q = probe.call("quadrature.apply_rule", apply_rule, rule, value)
            return rule, report, profile, spline, q

        out = probe.op(body)
        if out.error is not None:
            return out.latency, [checks.raised(out.error)]
        rule, report, profile, spline, q = out.value
        if probe.traced:
            _count_build(probe, rule)
            counts = probe.counts
            counts["quadrature.apply_rule.nodes"] += len(rule)
            counts["error_analysis.kernel_profile.samples"] += profile.samples.shape[0]
            counts["error_analysis.kernel_profile.dense_bytes_computed"] += dense
            counts["oracle.exactness_report.basis_functions"] += rule.grid.dimension
            key = "oracle.exactness_report.max_residual"
            counts[key] = max(counts[key], report.max_basis_residual)

        def found():
            gate = checks.basis_gate(a, b, n)
            residual = report.max_basis_residual
            if not residual <= gate:
                yield Failure("oracle.exactness_report", "wrong",
                              f"max residual {residual!r} > {gate!r}", None)
            samples = profile.samples
            shape = (SAMPLES_PER_CELL * n + 1, 2)
            if samples.shape != shape or not np.all(np.isfinite(samples)):
                yield Failure("error_analysis.kernel_profile", "wrong",
                              "malformed profile", None)
            scale = float(np.sum(np.abs(spline.c)))
            exact = spline.exact_integral()
            if not abs(q - exact) <= gate * scale:
                yield Failure("quadrature.apply_rule", "wrong",
                              f"random spline {q!r} vs {exact!r}", None)

        return out.latency, _checked(found)

    def defect_probe(self, probe) -> list[tuple[float, list[Failure]]]:
        """error_constant and remainder_bound on the first cycle's grids."""
        cases = list(zip(self.a, self.b, self.n))[: self.cycle]
        return probe_error_constants(probe, cases, with_bound=True)


class CliEmit:
    """``python -m splinequad rule --n 1000000`` as a child process, cycling
    through table, csv and json in a seeded order; output goes to a file
    under the checkout and is read back after the timed span.

    A cycle is one pass over the formats; a run makes at least two.
    """

    name = "cli-emit"
    cycle = 3
    min_cycles = 2
    trace_ops = 3
    N = 10**6
    FORMATS = ("table", "csv", "json")

    def __init__(self, seed: int, site) -> None:
        rng = np.random.default_rng([seed, 4])
        passes = rng.permuted(np.tile(np.arange(len(self.FORMATS)), (64, 1)), axis=1)
        self.order = [self.FORMATS[k] for k in passes.reshape(-1)]
        self.site = site
        self.rule = build_rule(make_grid(0.0, 1.0, self.N))
        self.c = error_analysis.error_constant(self.rule)
        self._rows = None
        self._verdicts: dict[str, tuple[bytes, list[Failure]]] = {}
        self.bytes_out: dict[str, int] = {}
        self.wall: dict[str, list[float]] = {f: [] for f in self.FORMATS}
        self.child_peak_kb = 0

    def _run_child(self, fmt: str, path: Path) -> None:
        argv = [sys.executable, "-c", CLI_CHILD, "rule", "--n", str(self.N),
                "--format", fmt, "--out", str(path)]
        done = subprocess.run(argv, env=child_env(self.site.src), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=CHILD_TIMEOUT_S)
        if done.returncode != 0:
            raise RuntimeError(f"exit {done.returncode}: {done.stderr[-200:]}")
        self.child_peak_kb = max(self.child_peak_kb, int(done.stderr.split()[-1]))

    def peak_rss_mb(self) -> float:
        """Largest peak resident memory of a CLI child."""
        return self.child_peak_kb / 1024.0

    def run_op(self, i: int, probe) -> tuple[float, list[Failure]]:
        fmt = self.order[i % len(self.order)]
        path = self.site.out / f"rule.{fmt}"
        out = probe.op(lambda: probe.call(f"cli.rule.{fmt}", self._run_child, fmt, path))
        if out.error is not None:
            failure = Failure(f"cli.rule.{fmt}", "raised", str(out.error)[:200], None)
            return out.latency, [failure]
        if probe.traced:
            self.wall[fmt].append(out.latency)
        data = path.read_bytes()
        self.bytes_out[fmt] = len(data)
        digest = hashlib.blake2b(data).digest()
        seen = self._verdicts.get(fmt)
        if seen is None or seen[0] != digest:  # identical bytes read back identically
            seen = self._verdicts[fmt] = (digest, self._check(fmt, data.decode()))
        return out.latency, list(seen[1])

    def _check(self, fmt: str, text: str) -> list[Failure]:
        if fmt == "table":
            if self._rows is None:
                self._rows = checks.table_rows(self.rule)
            return _checked(lambda: [checks.check_table(text, self._rows)])
        if fmt == "csv":
            return _checked(lambda: [checks.check_csv(text, self.rule)])
        return _checked(lambda: [checks.check_json(text, self.rule, self.c)])

    def defect_probe(self, probe) -> list[tuple[float, list[Failure]]]:
        """The error constant every json document carries, against the
        plateau value (the documents are checked bit-identical to it)."""
        bad = checks.check_error_constant(self.c, 0.0, 1.0, self.N)
        return [(0.0, [bad] if bad else [])]

    def trace_in_process(self, probe) -> dict[str, float]:
        """``format_s`` per format: in-process ``cli.main`` time minus its
        make_grid + build_rule (and, for json, error_constant) timed on the
        same grid.  Correctness of the output is checked by the child runs."""
        out = {}
        for fmt in self.FORMATS:
            path = self.site.out / f"inproc.{fmt}"
            argv = ["rule", "--n", str(self.N), "--format", fmt, "--out", str(path)]
            _, main_s = _timed(probe, f"cli.main.{fmt}", cli.main, argv)
            grid, grid_s = _timed(probe, "grid_basis.make_grid",
                                  make_grid, 0.0, 1.0, self.N)
            rule, build_s = _timed(probe, "quadrature.build_rule", build_rule, grid)
            ec_s = 0.0
            if fmt == "json":
                _, ec_s = _timed(probe, "error_analysis.error_constant",
                                 error_analysis.error_constant, rule)
                probe.counts["error_analysis.error_constant.nodes"] += len(rule)
            out[fmt] = main_s - grid_s - build_s - ec_s
            path.unlink(missing_ok=True)
        return out

    def close(self) -> None:
        for fmt in self.FORMATS:
            (self.site.out / f"rule.{fmt}").unlink(missing_ok=True)


def _timed(probe, name: str, fn, *args):
    """Result of a traced call and the duration of its span."""
    before = len(probe.spans)
    value = probe.call(name, fn, *args)
    span = probe.spans[before]
    return value, span.end - span.start


WORKLOADS = {w.name: w for w in (ManySmall, Bulk, CliEmit, Audit)}
