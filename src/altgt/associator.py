"""The canonical intertwiner between a self-conjugate representation and its
twist by the sign character.

For a self-conjugate shape it sends each tableau basis vector to a fourth
root of unity times the basis vector of the transposed tableau:

    v_T  ->  i^((n - d)/2) * sign(w_T) * v_{T transposed}

where d is the diagonal length of the shape and w_T is the permutation
carrying the anchor (reference) tableau to T cellwise.  Squaring gives the
identity, and the map anticommutes with every adjacent transposition.
apply_phi reads each root and transpose rank from a table that assoc_coeff
fills once per shape, so no term recounts the inversions of its tableau.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

from .partitions import Partition
from .scalars import Scalar, i_power
from .tableaux import StandardTableau, enumerate_syt, permutation_sign, syt_ranks
from .yor import GTVector


def assoc_coeff(tableau: StandardTableau) -> Scalar:
    """The fourth root of unity attached to one tableau."""
    shape = tableau.shape
    if not shape.is_self_conjugate():
        raise ValueError(f"{shape} is not self-conjugate")
    n, d = shape.n, shape.diagonal_length()
    if (n - d) % 2:
        raise RuntimeError(f"n - d is odd for the self-conjugate shape {shape}")
    root = i_power((n - d) // 2)
    sign = permutation_sign(tableau)
    return root if sign == 1 else -root


@lru_cache(maxsize=None)
def _phi_table(shape: Partition) -> tuple[array, tuple[Scalar, ...]]:
    """By rank: the rank of each tableau's transpose, and its assoc_coeff."""
    basis, rank = enumerate_syt(shape), syt_ranks(shape)
    roots = tuple(assoc_coeff(t) for t in basis)  # raises unless self-conjugate
    return array("i", (rank[t.conjugate()] for t in basis)), roots


def apply_phi(vec: GTVector) -> GTVector:
    """Linear extension of v_T -> assoc_coeff(T) * v_{T transposed}."""
    partners, roots = _phi_table(vec.shape)
    out = {partners[r]: c.times_fourth_root(roots[r]) for r, c in vec._terms.items()}
    return GTVector._trusted(vec.shape, out)
