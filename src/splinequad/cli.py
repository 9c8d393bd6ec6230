"""Command-line front-end: emit rules, run verification suites, sample kernels.

Exit codes: 0 success, 1 verification failure, 2 usage error or an --out
that cannot be written, 3 internal construction failure, or valid
arguments whose result does not fit in memory (one ``out of memory`` line
on stderr, no traceback), 141 (128 + SIGPIPE, no traceback) when the
reader closes stdout early, as ``head`` does.

``rule`` and ``kernel`` write bytes, _CHUNK rows at a time, each chunk
held once as padded rows and once as text. ``rule`` never holds the
rule: it makes it in spans of ``quadrature._BLOCK`` rows, once to check it
and again to write it, so its memory does not grow with n (on a 2-vCPU
x86-64 VM, 35-37 MB of RSS at n = 10^6 and 10^7 in every format, 32 MB
at n = 10^3) and a grid that build_rule refuses writes nothing; the json
error constant is taken from the unit-cell table. The numbers come from
``_digits``, which makes them from the float64 arrays in numpy and gives
the same text as Python formatting each value: ``"%.17g"`` for csv and
``kernel``, the exact value truncated to 16 significant digits for table,
and ``repr`` (what ``json.dumps`` writes) for the json arrays. A
value the array path cannot decide exactly, or that lies outside its
range (0, subnormals, |v| beyond 1e-280..1e281, not finite), is formatted
by that Python expression. The json head fields and error constant are
written by ``json.dumps``.

``rule`` and ``kernel`` format in two processes where the output has two
chunks or more, ``os.fork`` exists, the process may run on two CPUs or
more and no other Python thread runs (from Python 3.12, no other thread
at all, where ``os.fork`` warns): a worker forked from this process
formats every other chunk and sends its bytes back through a pipe, and
this process formats the rest and writes every chunk in order. The check
pass, the output, every byte written and every exit code are those of one
process; the worker writes nothing else, and is killed and reaped before
``main`` returns. On that VM a fresh ``rule --n 1000000`` took 0.25 /
0.33 / 0.34 s (table / csv / json; medians of twelve children, process
start included), against 0.29 / 0.42 / 0.47 s in one process; the gain
needs the second CPU to be idle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import sys
import threading
from dataclasses import dataclass
from itertools import chain, islice
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import _digits, error_analysis, quadrature
from .grid_basis import UniformKnotGrid, make_grid
from .quadrature import ConstructionError, QuadratureRule

__all__ = ["RuleDocument", "main"]

SCHEMA_VERSION = 1

# Rows formatted at a time: the working arrays of 16384 rows stay in cache
# (65536 rows took 1.5-2x as long per row).
_CHUNK = 1 << 14


@dataclass(frozen=True)
class RuleDocument:
    """Serializable description of one rule."""

    schema_version: int
    n: int
    a: float
    b: float
    h: float
    nodes: list[float]
    weights: list[float]
    error_constant: float

    @classmethod
    def from_rule(cls, rule: QuadratureRule) -> "RuleDocument":
        return cls(
            **_head(rule.grid),
            nodes=rule.nodes.tolist(),
            weights=rule.weights.tolist(),
            error_constant=error_analysis.error_constant(rule),
        )

    def to_json(self) -> str:
        """The document as ``json.dumps`` of its fields in order writes it,
        with nodes and weights taken as float64, as a rule holds them (an
        integer item is written as ``0.0``, a non-numeric one raises)."""
        head = {name: getattr(self, name) for name in _HEAD_FIELDS}
        nodes = np.asarray(self.nodes, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        return b"".join(_json_chunks(head, [nodes], [weights], self.error_constant)).decode()


# The document's scalar fields, in output order.
_HEAD_FIELDS = ("schema_version", "n", "a", "b", "h")


def _head(grid: UniformKnotGrid) -> dict:
    return dict(zip(_HEAD_FIELDS, (SCHEMA_VERSION, grid.n, grid.a, grid.b, grid.h)))


def _rows(spans: Iterable[Sequence[np.ndarray]], mode: str, sep: bytes,
          end: bytes = b"\n", index: bool = True) -> Iterator[bytes]:
    """Text rows of the columns of each span in turn, in ``mode``, joined
    by sep and closed by end, after a 1-based row number (counted across
    the spans) if index is set; _CHUNK rows at a time, so a million-node
    rule never exists as one string.

    Where there are two chunks or more, this process formats the first,
    third, ... chunk and a worker forked by ``_fork_formatter`` the
    second, fourth, ...; every chunk is yielded here, in order. A chunk
    the worker does not deliver is formatted here."""

    def text(row: int, columns: list[np.ndarray]) -> bytearray:
        parts = [_digits.row_numbers(row, row + len(columns[0])), sep] if index else []
        for column in columns:
            parts += [(column, mode), sep]
        parts[-1] = end
        return _digits.lines(parts)

    def chunks() -> Iterator[tuple[int, list[np.ndarray]]]:
        row = 1
        for columns in spans:
            for start in range(0, len(columns[0]), _CHUNK):
                chunk = [column[start : start + _CHUNK] for column in columns]
                yield row, chunk
                row += len(chunk[0])

    todo = chunks()
    ahead = list(islice(todo, 2))
    pid, pipe = _fork_formatter(text, chain(ahead[1:], todo)) if len(ahead) == 2 else (0, None)
    # an exhausted list iterator drops its list, and with it the first span
    todo = chain(iter(ahead), todo)
    del ahead
    try:
        for i, chunk in enumerate(todo):
            done = _receive(pipe) if pipe is not None and i % 2 else None
            yield text(*chunk) if done is None else done
    finally:
        if pipe is not None:  # kill the worker, wherever it is, and reap it
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


_FORK_WARNS = sys.version_info >= (3, 12)  # os.fork warns beside any thread


def _fork_formatter(text: Callable[..., bytearray],
                    chunks: Iterator[tuple]) -> tuple[int, Optional[BinaryIO]]:
    """A worker that formats the first, third, ... of chunks by text and
    writes each one's bytes to a pipe after their length (8 bytes, little
    endian): its pid and the read end of the pipe, or (0, None) where it
    cannot help or might hang: no ``os.fork``, one CPU, another Python
    thread running (a lock it holds would stay held in the worker), from
    Python 3.12 any other thread in ``/proc/self/task``, such as the one
    OpenBLAS starts at numpy's import (``os.fork`` would warn of deadlocks),
    or a fork that failed. OpenBLAS stops its own threads at a fork, and
    the worker calls no BLAS. The worker writes nothing else, and leaves by
    ``os._exit``, so no buffer of stdout or of an output file is flushed
    twice."""
    if (not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity")
            or len(os.sched_getaffinity(0)) < 2 or threading.active_count() != 1
            or _FORK_WARNS and _os_threads() > 1):
        return 0, None
    import fcntl  # every platform with os.fork has it

    read, write = os.pipe()
    try:  # room for a whole chunk, where Linux allows it (1 MiB by default)
        fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 1 << 20)
    except (AttributeError, OSError):
        pass
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        return 0, None
    if pid == 0:
        try:
            os.close(read)
            with open(write, "wb") as pipe:
                for chunk in islice(chunks, 0, None, 2):
                    done = text(*chunk)
                    pipe.write(len(done).to_bytes(8, "little"))
                    pipe.write(done)
                    pipe.flush()
        finally:
            os._exit(0)
    os.close(write)
    return pid, open(read, "rb")


def _os_threads() -> int:
    """The threads of this process that Linux lists in /proc/self/task, or
    1 where it cannot be read."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return 1


def _receive(pipe: BinaryIO) -> Optional[bytes]:
    """The next chunk the worker wrote to pipe, or None if it died first
    (then every later call also reads the end of the pipe)."""
    size = int.from_bytes(pipe.read(8), "little")
    done = pipe.read(size)
    return done if done and len(done) == size else None


def _table_chunks(n: int, spans: Iterable[Sequence[np.ndarray]]) -> Iterator[bytes]:
    """The table of nodes and weights 0..n of a rule over n cells, given as
    spans of (nodes, weights)."""
    yield b"i tau omega\n"
    yield from _rows(spans, "fixed", b" ")
    yield (
        f"# rows {n + 2}..{2 * n + 1} by symmetry: tau(i) = a+b-tau(2n+2-i), "
        f"omega(i) = omega(2n+2-i)\n"
    ).encode()


def _csv_chunks(spans: Iterable[Sequence[np.ndarray]]) -> Iterator[bytes]:
    # 17 significant digits parse back to the same doubles
    yield b"i,tau,omega\n"
    yield from _rows(spans, "%.17g", b",")


def _json_array(spans: Iterable[np.ndarray]) -> Iterator[bytes]:
    """The items of a JSON array of floats, as ``json.dumps`` writes them."""
    chunks = _rows(([values] for values in spans), "repr", b"", end=b", ", index=False)
    last = b""
    for chunk in chunks:
        yield last
        last = chunk
    yield last[:-2]


def _json_chunks(
    head: dict, nodes: Iterable[np.ndarray], weights: Iterable[np.ndarray],
    error_constant: float,
) -> Iterator[bytes]:
    """``json.dumps`` of a rule document, with the arrays streamed from
    their spans.

    json writes floats as repr: the shortest strings that parse back to the
    same doubles.
    """
    yield (json.dumps(head)[:-1] + ', "nodes": [').encode()
    yield from _json_array(nodes)
    yield b'], "weights": ['
    yield from _json_array(weights)
    yield ('], "error_constant": ' + json.dumps(error_constant) + "}").encode()


def _format_table(rule: QuadratureRule) -> str:
    n = rule.grid.n
    return b"".join(_table_chunks(n, [(rule.nodes[: n + 1], rule.weights[: n + 1])])).decode()


def _format_csv(rule: QuadratureRule) -> str:
    return b"".join(_csv_chunks([(rule.nodes, rule.weights)])).decode()


def _emit(chunks: Iterable[bytes], out: Optional[str]) -> None:
    if out is None:
        sys.stdout.flush()
        sys.stdout.buffer.writelines(chunks)
    else:
        try:
            with open(out, "wb") as fh:
                fh.writelines(chunks)
        except OSError as exc:  # a directory, a missing directory, a full disk
            raise ValueError(f"cannot write {out}: {exc.strerror}") from exc


def _cmd_rule(args: argparse.Namespace) -> int:
    """Write the rule from its spans, never holding it whole.  A first pass
    checks every span as build_rule checks the rule, so a grid build_rule
    refuses writes nothing; then the spans are made again and written."""
    grid = make_grid(args.a, args.b, args.n)
    quadrature._check(grid, quadrature._spans(grid))
    if args.format == "json":
        c = error_analysis._error_constant(grid)
        nodes = (t for t, _ in quadrature._spans(grid))
        weights = (w for _, w in quadrature._spans(grid))
        chunks = chain(_json_chunks(_head(grid), nodes, weights, c), (b"\n",))
    elif args.format == "csv":
        chunks = _csv_chunks(quadrature._spans(grid))
    else:
        chunks = _table_chunks(grid.n, quadrature._spans(grid, grid.n + 1))
    _emit(chunks, args.out)
    return 0


def _cmd_kernel(args: argparse.Namespace) -> int:
    grid = make_grid(args.a, args.b, args.n)
    error_analysis._validate_samples(grid.n, args.samples_per_cell)
    rule = quadrature.build_rule(grid)
    profile = error_analysis.kernel_profile(rule, args.samples_per_cell)
    rows = _rows([profile.samples.T], "%.17g", b",", index=False)
    _emit(chain((b"t,K6\n",), rows), args.out)
    return 0


# The pass/fail suites: 1.0 fails their fixed gate of 0; their lines give the status only
_PASS_FAIL = ("layout.counts", "residues.invariants_and_cubic", "peano.kernel_profile")
_GAUSS_LEGENDRE = "n=1 equals 3-point Gauss-Legendre"


def _gate_values(n_max: int, seeds: int) -> Iterator[tuple[str, float, float]]:
    """(name, value, built-in gate) of each gate at each grid or table state
    the suites cover; the names first come in the order of check's lines.
    A refused Peano profile's name ends with the refusal in parentheses."""
    from . import oracle  # the audits' module: only check imports it

    # basis exactness, layout and seeded random splines (quadrature vs
    # exact integral by linearity), on [0, n] so every cell has unit width
    for n in range(1, n_max + 1):
        rule = quadrature.build_rule(make_grid(0.0, float(n), n))
        rep = oracle.exactness_report(rule)
        yield "exactness.max_basis_residual", rep.max_basis_residual, 1e-13
        counts = rep.per_interval_node_counts
        ok = (
            sum(counts) == 2 * n + 1
            and counts.count(3) == 1
            and counts.count(2) == n - 1
        )
        yield "layout.counts", 0.0 if ok else 1.0, 0.0
        for seed in range(seeds):
            spline = oracle.random_spline(rule.grid, seed)
            q = quadrature.apply_rule(rule, spline.value)
            scale = float(np.sum(np.abs(spline.c)))
            yield ("exactness.random_spline_relative",
                   abs(q - spline.exact_integral()) / scale, 1e-12)

    # the unit-cell table, of which every build reads a prefix: at every
    # state the residue invariants, the root-free cubic, the odd middle
    # system and its offset in [0, 1/2); prefix offsets 0 < r1 < r2 < 1;
    # every weight positive (the even closure's from the second state on)
    table = quadrature.TABLE
    r1, r2 = table.offsets.reshape(-1, 2).T
    weights = np.concatenate((table.weights, table.middle_even[1:]))
    ok = np.all((0.0 < r1) & (r1 < r2) & (r2 < 1.0)) and np.all(weights > 0.0)
    yield "residues.invariants_and_cubic", 0.0 if ok else 1.0, 0.0
    for st, (alpha, w_out, w_mid) in zip(table.states, table.middle_odd):
        residual = oracle.middle_system_residual(st.A, st.B, alpha, w_out, w_mid)
        ok = (oracle.residue_invariants_check(st.A, st.B)
              and oracle.cubic_rootfree_check(st.A, st.B)
              and _worst(*map(abs, residual)) <= 1e-10
              and 0.0 <= alpha < 0.5 and w_out > 0.0 and w_mid > 0.0)
        yield "residues.invariants_and_cubic", 0.0 if ok else 1.0, 0.0

    # Peano kernel on unit-interval grids; a rule that kernel_profile's own
    # gates refuse adds 0 to both values and fails, and the others still run
    for n in range(1, min(n_max, 20) + 1):
        rule = quadrature.build_rule(make_grid(0.0, 1.0, n))
        try:
            prof = error_analysis.kernel_profile(rule, 1000)
            lowest, knot_max, refusal = prof.lowest, prof.knot_max, None
        except ConstructionError as exc:
            lowest, knot_max, refusal = 0.0, 0.0, exc
        yield "peano.negativity", _worst(0.0, -lowest), 1e-15
        yield "peano.knot_values", knot_max, 1e-14
        if refusal is not None:
            yield f"peano.kernel_profile n={n} ({refusal})", 1.0, 0.0

    # two-third limit: nodes/weights far from the boundary match the pattern
    if n_max >= 20:
        for n in (20, min(n_max, 40)):
            rule = quadrature.build_rule(make_grid(0.0, float(n), n))
            dev = oracle.limit_rule_deviation(rule)
            yield "limit.deviation_beyond_cell_9", float(dev[16 : 2 * n - 16].max()), 1e-15

    # the single-cell rule must be three-point Gauss-Legendre
    rule = quadrature.build_rule(make_grid(0.0, 1.0, 1))
    gl_nodes = (0.5 - 0.5 * 0.6**0.5, 0.5, 0.5 + 0.5 * 0.6**0.5)
    gl_weights = (5.0 / 18.0, 4.0 / 9.0, 5.0 / 18.0)
    for got, want in zip(chain(rule.nodes, rule.weights), gl_nodes + gl_weights):
        yield _GAUSS_LEGENDRE, abs(got - want), 1e-14


def _cmd_check(args: argparse.Namespace) -> int:
    """Verification suites over n = 1 .. n-max: one line per gate with the
    worst of its values, the worst exactness value and ``OVERALL:``; exit 1
    if any value exceeds its gate (NaN does).

    An explicit --tolerance replaces the gates of the five valued lines and
    of the Gauss-Legendre line (tighter or looser), not those of the
    pass/fail suites: layout.counts, residues.invariants_and_cubic (with
    its fixed 1e-10 bound on the middle system) and refused Peano profiles.
    """
    worst: dict[str, tuple[float, float]] = {}  # name: (worst value, gate)
    for name, value, gate in _gate_values(args.n_max, args.seeds):
        worst[name] = (_worst(worst[name][0], value) if name in worst else value, gate)
    failures = 0
    for name, (value, gate) in worst.items():
        pass_fail = name.startswith(_PASS_FAIL)
        if args.tolerance is not None and not pass_fail:
            gate = args.tolerance
        ok = value <= gate
        failures += 0 if ok else 1
        status = "PASS" if ok else "FAIL"
        if pass_fail:
            head, paren, note = name.partition(" (")
            print(f"{head} status={status}{paren}{note}")
        elif name == _GAUSS_LEGENDRE:
            print(f"{name}: {status} (deviation {value:.3e})")
        else:
            print(f"{name} value={value:.3e} gate={gate:.1e} status={status}")
    exact = (value for name, (value, _) in worst.items() if name.startswith("exactness."))
    print(f"max residual <= {_worst(*exact):.3e}")
    print(f"OVERALL: {'PASS' if failures == 0 else 'FAIL'}")
    return 0 if failures == 0 else 1


def _worst(*values: float) -> float:
    """``max`` of the values, or NaN if any is NaN (which ``max`` may drop),
    so that a NaN fails every gate."""
    return math.nan if any(v != v for v in values) else max(values)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return value


def _tolerance(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"expected a finite number >= 0, got {text}")
    return abs(value)  # -0 as +0, so that a gate of 0 prints gate=0.0e+00


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splinequad",
        description="Optimal quadrature rules for C1 quintic splines on "
        "uniform knot grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rule = sub.add_parser("rule", help="emit one rule as table, CSV or JSON")
    p_rule.add_argument("--n", type=_positive_int, required=True,
                        help="number of subintervals (>= 1)")
    p_rule.add_argument("--a", type=float, default=0.0, help="left endpoint")
    p_rule.add_argument("--b", type=float, default=1.0, help="right endpoint")
    p_rule.add_argument("--format", choices=("table", "csv", "json"),
                        default="table")
    p_rule.add_argument("--out", default=None, help="write to file instead of stdout")
    p_rule.set_defaults(func=_cmd_rule)

    p_check = sub.add_parser("check", help="run the verification suites")
    p_check.add_argument("--n-max", type=_positive_int, default=50)
    p_check.add_argument("--seeds", type=_positive_int, default=20,
                         help="random splines per grid size")
    p_check.add_argument("--tolerance", type=_tolerance, default=None,
                         help="replace the gates of the five valued lines and of "
                         "the Gauss-Legendre line with this value (>= 0); the "
                         "pass/fail suites keep theirs")
    p_check.set_defaults(func=_cmd_check)

    p_kernel = sub.add_parser("kernel", help="emit sampled Peano kernel as CSV")
    p_kernel.add_argument("--n", type=_positive_int, required=True)
    p_kernel.add_argument("--a", type=float, default=0.0)
    p_kernel.add_argument("--b", type=float, default=1.0)
    p_kernel.add_argument("--samples-per-cell", type=_positive_int, default=64)
    p_kernel.add_argument("--out", default=None)
    p_kernel.set_defaults(func=_cmd_kernel)
    return parser


def _endpoint_values(argv: Sequence[str]) -> list[str]:
    """argv with each ``--a x`` and ``--b x`` whose x starts with one "-"
    written ``--a=x``: argparse takes an x such as -1e-3 or -inf, unlike
    -1 or -2.5, for an option, and the joined form for a value."""
    words: list[str] = []
    for word in argv:
        if (words and words[-1] in ("--a", "--b")
                and word.startswith("-") and not word.startswith("--")):
            words[-1] += "=" + word
        else:
            words.append(word)
    return words


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(_endpoint_values(sys.argv[1:] if argv is None else argv))
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        # exit as SIGPIPE would; stdout goes to devnull, where the flush
        # at exit finds no reader to lose
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 141  # 128 + SIGPIPE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ConstructionError, OverflowError) as exc:
        # on extreme intervals the kernel gates' powers of b - a, or the
        # json error constant itself, leave the double range: the arguments
        # were valid, the result is not a double
        print(f"construction failed: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        # valid arguments, a result this machine cannot hold
        print(f"out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
