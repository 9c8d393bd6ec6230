"""Optimal (Gaussian) quadrature for C1 quintic splines on uniform knot grids.

The rule for n cells uses 2n + 1 nodes, is exact on the whole 4n + 2
dimensional spline space, and is produced by a closed-form recursion (no
numerical solver).  The package exports the library surface: grids, the
rule and its application, and the error analysis.  The verification kit
lives in :mod:`splinequad.oracle`, the basis in
:mod:`splinequad.grid_basis`; the command line is ``python -m splinequad``.
"""

from .error_analysis import (
    PeanoProfile,
    error_constant,
    kernel_profile,
    peano_kernel,
    remainder_bound,
)
from .grid_basis import UniformKnotGrid, make_grid
from .quadrature import ConstructionError, QuadratureRule, apply_rule, build_rule

__all__ = [
    "ConstructionError",
    "PeanoProfile",
    "QuadratureRule",
    "UniformKnotGrid",
    "apply_rule",
    "build_rule",
    "error_constant",
    "kernel_profile",
    "make_grid",
    "peano_kernel",
    "remainder_bound",
]

__version__ = "0.1.0"
