"""Exact-arithmetic matrix-valued Laguerre-type orthogonal polynomials.

The package computes monic matrix orthogonal polynomial families for the
bidiagonal-exponential Laguerre weight by moment-based orthogonalization,
then verifies every closed form it knows against that oracle: the ladder
and second-order operator identities, the scalar-Laguerre entry structure
of the conjugated polynomials, the nonlinear norm recursions, dual Hahn
closed forms for the constrained families, and the Lie-algebra structure
of the operator span.  All arithmetic is rational; every check is an exact
equality.
"""

from .engine import OPSeq, compute_monic_ops
from .matrices import MatPoly, MatQ
from .scalar import RPoly, rat
from .weights import MomentTable, WeightSpec, inner_product

__all__ = [
    "MatPoly",
    "MatQ",
    "MomentTable",
    "OPSeq",
    "RPoly",
    "WeightSpec",
    "compute_monic_ops",
    "inner_product",
    "rat",
]

__version__ = "0.1.0"
