"""Benchmark of splinequad: one workload, one seed, one run.

    python3 perfbench/run.py --workload many-small --seed 1 --seconds 15 --trace 0

Workloads: many-small, bulk, cli-emit, audit (see BENCHMARK.json for why
each exists).  The benchmark measures the ``src`` tree of the checkout it
sits in, in process and in child processes, and refuses to run (exit 2,
no result) when that tree is missing or ``splinequad`` would be imported
from anywhere else.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_tree_under_test() -> bool:
    package = ROOT / "src" / "splinequad"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: no splinequad sources under {ROOT / 'src'}", file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    import splinequad

    if Path(splinequad.__file__).resolve() != (package / "__init__.py").resolve():
        print(f"perfbench: splinequad resolves to {splinequad.__file__}, "
              f"not to {package}", file=sys.stderr)
        return False
    return True


if __name__ == "__main__":
    if not _load_tree_under_test():
        sys.exit(2)
    sys.path.insert(0, str(ROOT))
    from perfbench.bench import Site, main

    sys.exit(main(Site(ROOT)))
