"""Environment record printed with every run: interpreter, numpy, CPU, tree."""

from __future__ import annotations

import hashlib
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _caches() -> dict[str, str]:
    """Sizes of the unified/data caches of cpu0, keyed L1d/L2/L3."""
    out = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(base.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            out[f"L{level}" + ("d" if kind == "Data" else "")] = size
    return out


def _git(root: Path) -> dict[str, object]:
    """Commit and dirty flag, only when the root itself is a git work tree."""
    if not (root / ".git").exists():
        return {"commit": None, "dirty": None}
    try:
        commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", str(root), "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    if commit.returncode != 0:
        return {"commit": None, "dirty": None}
    return {"commit": commit.stdout.strip(), "dirty": bool(status.stdout.strip())}


def src_digest(package: Path) -> str:
    """sha256 over the package's source files: identifies the tree even
    without git."""
    h = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def record(root: Path, package: Path, seed: int) -> dict[str, object]:
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                  else os.cpu_count()),
        "cpu": _cpu_model(),
        "caches": _caches(),
        **_git(root),
        "src_sha256": src_digest(package),
        "executable": Path(sys.executable).name,
        "seed": seed,
    }
