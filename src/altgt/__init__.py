"""Exact Gelfand-Tsetlin bases for alternating groups.

The package builds, entirely in exact arithmetic, the canonical basis of
each irreducible representation of the alternating group adapted to the
chain A_2 < A_3 < ... < A_n, expressed coordinate by coordinate in Young's
orthogonal bases of the symmetric-group representations above it.
"""

from .geodesics import (
    AltPath,
    branch_count_r,
    class_members,
    enumerate_paths,
    geodesic_representatives,
    path_equivalent,
)
from .gt import embed, gt_basis, gt_vector, restrict
from .labels import (
    AltLabel,
    bratteli,
    dagger_down_set,
    dim_alt,
    equivalent,
    labels,
    young_graph,
)
from .associator import apply_phi, assoc_coeff
from .partitions import Partition, partitions_of, self_conjugate_partitions
from .scalars import GaussianRational, Scalar, i_power, sqrt_rational
from .tableaux import (
    StandardTableau,
    append_box,
    enumerate_syt,
    reference_tableau,
    row_superstandard,
    permutation_sign,
    syt_count,
)
from .verify import (
    Report,
    verify_associator,
    verify_gt,
    verify_gt_range,
    verify_yor,
)
from .yor import GTVector, act_simple, act_word, rep_matrix

__version__ = "0.1.0"

__all__ = [
    "AltLabel",
    "AltPath",
    "GTVector",
    "GaussianRational",
    "Partition",
    "Report",
    "Scalar",
    "StandardTableau",
    "act_simple",
    "act_word",
    "append_box",
    "apply_phi",
    "assoc_coeff",
    "branch_count_r",
    "bratteli",
    "class_members",
    "dagger_down_set",
    "dim_alt",
    "embed",
    "enumerate_paths",
    "enumerate_syt",
    "equivalent",
    "geodesic_representatives",
    "gt_basis",
    "gt_vector",
    "i_power",
    "labels",
    "partitions_of",
    "path_equivalent",
    "permutation_sign",
    "reference_tableau",
    "rep_matrix",
    "restrict",
    "row_superstandard",
    "self_conjugate_partitions",
    "sqrt_rational",
    "syt_count",
    "verify_associator",
    "verify_gt",
    "verify_gt_range",
    "verify_yor",
    "young_graph",
    "__version__",
]
