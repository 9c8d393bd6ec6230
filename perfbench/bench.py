"""Run one workload against the checkout's own ``src`` and print its metrics.

Untraced (``--trace 0``) runs whole cycles of operations for ``--seconds``
and reports the end-to-end metrics; traced (``--trace 1``) runs a fixed
number of operations twice, plain and then with spans, and reports the
per-layer metrics.  Either way the workload's defect probe then runs once,
untimed: fixed, seeded inputs on which a known defect shows.  The last line
of standard output is the result object; the line before it is the full
report (environment, every metric with its unit, failures per layer and
per known defect).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from .checks import KNOWN_DEFECTS
from .envinfo import record
from .tracing import Probe, TracingProbe, self_times, write_spans
from .workloads import CHILD_TIMEOUT_S, WORKLOADS, child_env

SETUP_REPEATS = 5
START_REPEATS = 5

# Fresh interpreter: import, build and apply the n = 1 rule, report where
# splinequad came from.
SETUP_PROBE = (
    "import sys, splinequad as sq\n"
    "r = sq.build_rule(sq.make_grid(0.0, 1.0, 1))\n"
    "v = sq.apply_rule(r, lambda t: t * t)\n"
    "sys.stdout.write(sq.__file__ + '\\n' + repr(v))\n"
)

# The host is shared: on a 2-vCPU VM an unchanged loop's rate moves by about
# a fifth of its median between 15 s windows.  So the timed metrics are
# taken relative to a fixed pure-Python reference loop run in the same
# process, interleaved with the work it scales:
#   ops_per_ref  operations per second / reference units per second
#                (many-small quartile spread over ten runs: 0.17 raw, 0.015);
#   setup_s      the median set-up wall time in reference units, times 1 ms:
#                seconds on a host where one unit takes 1 ms (one-minute
#                medians over seven minutes: within 12 % raw, 4 % scaled).
# The raw rate and set-up time, the median and tail latency and fail_ratio
# are printed in the report line only (fail_ratio is 0 where nothing fails).
END_TO_END = {
    "setup_s": "s",
    "ops_per_ref": "1/ref",
    "peak_rss_mb": "MB",
}

FORMATS = ("table", "csv", "json")

PER_LAYER = {
    **{f"quadrature.build_rule.{k}": u for k, u in (
        ("calls", "count"), ("self_s", "s"), ("p50_us", "us"), ("cells", "count"),
        ("ns_per_cell", "ns"), ("failed", "count"), ("prefix_cells", "count"),
        ("fill_cells", "count"), ("odd_middles", "count"), ("even_middles", "count"))},
    **{f"quadrature.apply_rule.{k}": u for k, u in (
        ("calls", "count"), ("self_s", "s"), ("nodes", "count"), ("ns_per_node", "ns"),
        ("integrand_calls", "count"), ("wrong", "count"))},
    **{f"error_analysis.error_constant.{k}": u for k, u in (
        ("calls", "count"), ("self_s", "s"), ("ns_per_node", "ns"), ("wrong", "count"))},
    **{f"error_analysis.kernel_profile.{k}": u for k, u in (
        ("calls", "count"), ("self_s", "s"), ("samples", "count"),
        ("dense_bytes_computed", "B"), ("failed", "count"))},
    **{f"oracle.exactness_report.{k}": u for k, u in (
        ("calls", "count"), ("self_s", "s"), ("basis_functions", "count"),
        ("ns_per_basis", "ns"), ("max_residual", "1"))},
    "oracle.random_spline.self_s": "s",
    "grid_basis.make_grid.calls": "count",
    "grid_basis.make_grid.self_s": "s",
    "cli.start_s": "s",
    **{f"cli.rule.{fmt}.{k}": u for fmt in FORMATS
       for k, u in (("wall_s", "s"), ("format_s", "s"), ("bytes_out", "B"))},
    "trace.overhead_ratio": "ratio",
}


class Site:
    """The checkout being measured: its ``src``, and a scratch directory in it."""

    def __init__(self, root: Path):
        self.root = root
        self.src = root / "src"
        self.package = self.src / "splinequad"
        self.out = root / ".perfbench_out"


def _child(site: Site, argv: list[str]) -> tuple[float, str]:
    """Run ``python <argv>`` against the tree under test; wall time and stdout."""
    start = perf_counter()
    done = subprocess.run([sys.executable, *argv], env=child_env(site.src),
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    wall = perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{argv[:3]} exited {done.returncode}: {done.stderr[-300:]}")
    return wall, done.stdout


REF_SHARE = 0.1  # of the operations' busy time
SETUP_REF_SHARE = 0.25  # of the set-up children's wall time: they are short
NOMINAL_REF_PER_S = 1000.0  # a host on which one reference unit takes 1 ms
_REF_XS = [k / 4096.0 for k in range(4096)]


def reference_unit() -> float:
    """A fixed unit of pure-Python work: a Horner quintic summed over 4096 points."""
    c0, c1, c2, c3, c4, c5 = 0.3, -1.0, 0.7, 0.2, -0.9, 0.5
    acc = 0.0
    for s in _REF_XS:
        acc += ((((c5 * s + c4) * s + c3) * s + c2) * s + c1) * s + c0
    return acc


class Reference:
    """Reference units interleaved with the measured work, a fixed share of
    its time, so that they sample the host's speed while it runs."""

    def __init__(self, share: float = REF_SHARE) -> None:
        self.share = share
        self.units = 0
        self.seconds = 0.0

    def keep_up(self, work_seconds: float) -> None:
        while self.seconds < self.share * work_seconds:
            start = perf_counter()
            reference_unit()
            self.seconds += perf_counter() - start
            self.units += 1

    def per_s(self) -> float:
        return self.units / self.seconds


def measure_setup(site: Site) -> tuple[float, Reference]:
    """Median wall time of a fresh interpreter importing splinequad and
    building and applying the n = 1 rule (after one unmeasured warm-up),
    and the reference units run after each measured child."""
    walls = []
    reference = Reference(SETUP_REF_SHARE)
    for i in range(SETUP_REPEATS + 1):
        wall, out = _child(site, ["-c", SETUP_PROBE])
        path, _, value = out.partition("\n")
        if Path(path).resolve() != (site.package / "__init__.py").resolve():
            raise RuntimeError(f"child imported splinequad from {path}, not {site.package}")
        if abs(float(value) - 1.0 / 3.0) > 1e-15:
            raise RuntimeError(f"n = 1 rule integrates t^2 to {value}")
        if i:
            walls.append(wall)
            reference.keep_up(sum(walls))
    return statistics.median(walls), reference


def measure_cli_start(site: Site) -> float:
    """Median wall time of ``python -m splinequad rule --n 1``."""
    path = site.out / "start.txt"
    walls = [_child(site, ["-m", "splinequad", "rule", "--n", "1", "--out", str(path)])[0]
             for _ in range(START_REPEATS + 1)][1:]
    path.unlink()
    return statistics.median(walls)


def run_ops(workload, probe, seconds: float | None = None, ops: int | None = None,
            reference: Reference | None = None):
    """Exactly ``ops`` operations, or whole cycles until ``seconds`` have
    passed and at least ``min_cycles`` are done, keeping ``reference`` up
    with the operations' busy time."""
    if ops is not None:
        return [workload.run_op(i, probe) for i in range(ops)]
    results = []
    busy = 0.0
    least = workload.cycle * workload.min_cycles
    start = perf_counter()
    while len(results) < least or perf_counter() - start < seconds:
        for _ in range(workload.cycle):
            results.append(workload.run_op(len(results), probe))
            busy += results[-1][0]
            if reference is not None:
                reference.keep_up(busy)
    return results


def tail(latencies: list[float]) -> dict[str, float]:
    """Latency at the highest percentile with at least ten samples beyond
    it; with fewer than eleven samples, the maximum."""
    ordered = sorted(latencies)
    count = len(ordered)
    k = count - 11 if count >= 11 else count - 1
    return {"value": ordered[k], "percentile": 100.0 * (k + 1) / count,
            "beyond": count - 1 - k, "samples": count}


def failure_summary(results, probed=()) -> dict[str, object]:
    """Failed operations, failures per layer (of the operations and the
    defect probe), per known defect, and the first few that match no known
    defect."""
    failures = [f for _, fs in (*results, *probed) for f in fs]
    by_layer = Counter(f"{f.layer}:{f.kind}" for f in failures)
    by_defect = Counter(f.defect for f in failures if f.defect)
    unexpected = [f._asdict() for f in failures if not f.defect]
    return {
        "failed_ops": sum(1 for _, fs in results if fs),
        "defect_probe": {"cases": len(probed), "failed": sum(1 for _, fs in probed if fs)},
        "by_layer": dict(sorted(by_layer.items())),
        "known_defects": {d: {"failures": k, "cause": KNOWN_DEFECTS[d]}
                          for d, k in sorted(by_defect.items())},
        "unexpected": len(unexpected),
        "unexpected_examples": unexpected[:5],
    }


def end_to_end(workload, results, setup: tuple[float, Reference],
               reference: Reference) -> tuple[dict, dict]:
    latencies = [lat for lat, _ in results]
    failed = sum(1 for _, fs in results if fs)
    t = tail(latencies)
    ops_per_s = len(latencies) / sum(latencies)
    setup_wall, setup_reference = setup
    metrics = {
        "setup_s": setup_wall * setup_reference.per_s() / NOMINAL_REF_PER_S,
        "ops_per_ref": ops_per_s / reference.per_s(),
        "peak_rss_mb": workload.peak_rss_mb() if hasattr(workload, "peak_rss_mb")
        else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {"ops_per_s": {"value": ops_per_s, "unit": "1/s"},
             "op_p50_ms": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
             "op_tail_ms": {"value": t["value"] * 1e3, "unit": "ms",
                            **{k: v for k, v in t.items() if k != "value"}},
             "fail_ratio": {"value": failed / len(latencies), "unit": "1"},
             "setup_wall_s": {"value": setup_wall, "unit": "s"},
             "reference_units_per_s": {"value": reference.per_s(), "unit": "1/s"},
             "setup_reference_units_per_s": {"value": setup_reference.per_s(),
                                             "unit": "1/s"}}
    return metrics, extra


def per_layer(workload, probe: TracingProbe, traced, plain, probed, cli_start_s: float,
              format_s: dict[str, float]) -> dict[str, float]:
    spans = probe.spans
    selfs = self_times(spans)
    durations: dict[str, list[float]] = {}
    self_total: Counter = Counter()
    for span, own in zip(spans, selfs):
        durations.setdefault(span.name, []).append(span.end - span.start)
        self_total[span.name] += own
    counts = probe.counts
    failures = Counter((f.layer, f.kind) for _, fs in (*traced, *probed) for f in fs)

    def calls(name):
        return len(durations.get(name, ()))

    def per(name, key, scale=1e9):
        return self_total[name] / counts[key] * scale if counts[key] else 0.0

    build, apply_ = "quadrature.build_rule", "quadrature.apply_rule"
    ec, kp = "error_analysis.error_constant", "error_analysis.kernel_profile"
    ex = "oracle.exactness_report"
    build_p50 = statistics.median(durations[build]) if calls(build) else 0.0
    m = {
        f"{build}.calls": calls(build),
        f"{build}.self_s": self_total[build],
        f"{build}.p50_us": build_p50 * 1e6,
        f"{build}.cells": counts[f"{build}.cells"],
        f"{build}.ns_per_cell": per(build, f"{build}.cells"),
        f"{build}.failed": failures[(build, "raised")],
        **{f"{build}.{k}": counts[f"{build}.{k}"]
           for k in ("prefix_cells", "fill_cells", "odd_middles", "even_middles")},
        f"{apply_}.calls": calls(apply_),
        f"{apply_}.self_s": self_total[apply_],
        f"{apply_}.nodes": counts[f"{apply_}.nodes"],
        f"{apply_}.ns_per_node": per(apply_, f"{apply_}.nodes"),
        f"{apply_}.integrand_calls": probe.integrand_calls[0],
        f"{apply_}.wrong": failures[(apply_, "wrong")],
        f"{ec}.calls": calls(ec),
        f"{ec}.self_s": self_total[ec],
        f"{ec}.ns_per_node": per(ec, f"{ec}.nodes"),
        f"{ec}.wrong": failures[(ec, "wrong")],
        f"{kp}.calls": calls(kp),
        f"{kp}.self_s": self_total[kp],
        f"{kp}.samples": counts[f"{kp}.samples"],
        f"{kp}.dense_bytes_computed": counts[f"{kp}.dense_bytes_computed"],
        f"{kp}.failed": failures[(kp, "raised")] + failures[(kp, "wrong")],
        f"{ex}.calls": calls(ex),
        f"{ex}.self_s": self_total[ex],
        f"{ex}.basis_functions": counts[f"{ex}.basis_functions"],
        f"{ex}.ns_per_basis": per(ex, f"{ex}.basis_functions"),
        f"{ex}.max_residual": counts[f"{ex}.max_residual"],
        "oracle.random_spline.self_s": self_total["oracle.random_spline"],
        "grid_basis.make_grid.calls": calls("grid_basis.make_grid"),
        "grid_basis.make_grid.self_s": self_total["grid_basis.make_grid"],
        "cli.start_s": cli_start_s,
        "trace.overhead_ratio": _busy(plain) / _busy(traced),
    }
    walls = getattr(workload, "wall", {})
    sizes = getattr(workload, "bytes_out", {})
    for fmt in FORMATS:
        m[f"cli.rule.{fmt}.wall_s"] = statistics.median(walls.get(fmt) or [0.0])
        m[f"cli.rule.{fmt}.format_s"] = format_s.get(fmt, 0.0)
        m[f"cli.rule.{fmt}.bytes_out"] = sizes.get(fmt, 0)
    return m


def _busy(results) -> float:
    return sum(latency for latency, _ in results)


def parse_args(argv):
    p = argparse.ArgumentParser(prog="perfbench/run.py",
                                description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(site: Site, argv=None) -> int:
    args = parse_args(argv)
    site.out.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, site)
    # the inputs live for the whole run: keep collections from scanning them
    gc.collect()
    gc.freeze()
    try:
        if args.trace:
            plain = run_ops(workload, Probe(), ops=workload.trace_ops)
            probe = TracingProbe()
            results = run_ops(workload, probe, ops=workload.trace_ops)
            probed = workload.defect_probe(probe)
            format_s = (workload.trace_in_process(probe)
                        if hasattr(workload, "trace_in_process") else {})
            cli_start_s = measure_cli_start(site)
            values = per_layer(workload, probe, results, plain, probed, cli_start_s,
                               format_s)
            units, extra = PER_LAYER, {}
            name = f"spans-{args.workload}-seed{args.seed}.csv"
            write_spans(site.out / name, probe.spans)
            results = plain + results
        else:
            setup = measure_setup(site)
            reference = Reference()
            results = run_ops(workload, Probe(), seconds=args.seconds, reference=reference)
            values, extra = end_to_end(workload, results, setup, reference)
            units = END_TO_END
            probed = workload.defect_probe(Probe())
    finally:
        if hasattr(workload, "close"):
            workload.close()

    metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    failures = failure_summary(results, probed)
    correct = failures["unexpected"] == 0 and failures["failed_ops"] == 0
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": record(site.root, site.package, args.seed),
        "metrics": {**metrics, **extra}, "failures": failures,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": correct, "attempted": len(results),
                      "failed": failures["failed_ops"], "metrics": metrics}))
    return 0
