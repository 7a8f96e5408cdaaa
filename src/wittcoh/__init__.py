"""Combinatorial bases and brute-force verification for the graded GF(2)
cohomology of the Lie algebras of polynomial vector fields on the line."""

from .caching import clear_all as clear_caches
from .cochains import (
    Cochain,
    boundary,
    coboundary,
    generator,
    generator_action,
    graded_slice,
    max_length,
    wedge,
)
from .cohomology import (
    CohomologyClass,
    NotACocycleError,
    central_extension_basis,
    class_of,
    cohomology_basis,
    cohomology_dim,
    cup,
    poincare_computed,
    poincare_predicted,
    representative,
)
from .gf2 import BitMatrix, Gf2Span
from .monomials import (
    corrected_wedge,
    decompose,
    e_cocycle,
    marked_wedge,
    predicted_coboundary,
    x_cocycle,
    y_cocycle,
    z_cocycle,
)
from .partitions import (
    MarkedPartition,
    Order,
    Partition,
    canonical_decomposition,
    compare,
    leading_parts,
)

__all__ = [
    "BitMatrix",
    "Cochain",
    "CohomologyClass",
    "Gf2Span",
    "MarkedPartition",
    "NotACocycleError",
    "Order",
    "Partition",
    "boundary",
    "canonical_decomposition",
    "central_extension_basis",
    "class_of",
    "clear_caches",
    "coboundary",
    "cohomology_basis",
    "cohomology_dim",
    "compare",
    "corrected_wedge",
    "cup",
    "decompose",
    "e_cocycle",
    "generator",
    "generator_action",
    "graded_slice",
    "leading_parts",
    "marked_wedge",
    "max_length",
    "poincare_computed",
    "poincare_predicted",
    "predicted_coboundary",
    "representative",
    "wedge",
    "x_cocycle",
    "y_cocycle",
    "z_cocycle",
]

__version__ = "0.1.0"
