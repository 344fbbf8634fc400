"""Exact Gelfand-Tsetlin bases for alternating groups.

The package builds, entirely in exact arithmetic, the canonical basis of
each irreducible representation of the alternating group adapted to the
chain A_2 < A_3 < ... < A_n, expressed coordinate by coordinate in Young's
orthogonal bases of the symmetric-group representations above it.
"""

from .associator import apply_phi
from .geodesics import AltPath
from .gt import gt_basis, gt_vector
from .labels import AltLabel
from .partitions import Partition
from .tableaux import StandardTableau
from .verify import verify_gt

__version__ = "0.1.0"

__all__ = [
    "AltLabel",
    "AltPath",
    "Partition",
    "StandardTableau",
    "apply_phi",
    "gt_basis",
    "gt_vector",
    "verify_gt",
    "__version__",
]
