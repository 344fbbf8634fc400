"""The canonical intertwiner between a self-conjugate representation and its
twist by the sign character.

For a self-conjugate shape it sends each tableau basis vector to a fourth
root of unity times the basis vector of the transposed tableau:

    v_T  ->  i^((n - d)/2) * sign(w_T) * v_{T transposed}

where d is the diagonal length of the shape and w_T is the permutation
carrying the anchor (reference) tableau to T cellwise.  Squaring gives the
identity, and the map anticommutes with every adjacent transposition.
assoc_coeff returns the root as one of the shared units ``I_POWERS``, and a
table filled from it once per shape holds each tableau's transpose rank and
root exponent k, so no term recounts the inversions of its tableau.
apply_phi multiplies each coefficient by ``I_POWERS[k]``, and phi_exponents
adds k to each exponent of a vector written as rank -> k, the form of the
gt walk.
"""

from __future__ import annotations

from array import array
from functools import lru_cache

from .partitions import Partition
from .scalars import I_POWERS, Scalar
from .tableaux import StandardTableau, enumerate_syt, permutation_sign, syt_ranks
from .yor import GTVector


def assoc_coeff(tableau: StandardTableau) -> Scalar:
    """The fourth root of unity attached to one tableau."""
    shape = tableau.shape
    # the sign is 1 = i^0 or -1 = i^2
    return I_POWERS[(_half_offdiagonal(shape) + 1 - permutation_sign(tableau, shape)) % 4]


@lru_cache(maxsize=None)
def _half_offdiagonal(shape: Partition) -> int:
    """(n - d)/2 for a self-conjugate shape of n boxes, d of them diagonal."""
    if not shape.is_self_conjugate():
        raise ValueError(f"{shape} is not self-conjugate")
    n, d = shape.n, shape.diagonal_length()
    if (n - d) % 2:
        raise RuntimeError(f"n - d is odd for the self-conjugate shape {shape}")
    return (n - d) // 2


@lru_cache(maxsize=None)
def _phi_table(shape: Partition) -> tuple[array, bytes]:
    """By rank: the rank of each tableau's transpose, and the exponent k of
    its assoc_coeff i^k."""
    basis, rank = enumerate_syt(shape), syt_ranks(shape)
    # raises unless self-conjugate
    exponents = bytes(I_POWERS.index(assoc_coeff(t)) for t in basis)
    return array("i", (rank[t.conjugate()] for t in basis)), exponents


def apply_phi(vec: GTVector) -> GTVector:
    """Linear extension of v_T -> assoc_coeff(T) * v_{T transposed}."""
    partners, exponents = _phi_table(vec.shape)
    out = {partners[r]: c * I_POWERS[exponents[r]] for r, c in vec._terms.items()}
    return GTVector._trusted(vec.shape, out)


def phi_exponents(shape: Partition, terms: dict[int, int]) -> dict[int, int]:
    """apply_phi on a vector of the shape written as rank -> k, for the sum
    of i^k v_rank: each rank moves to its transpose's and adds its root's k."""
    partners, exponents = _phi_table(shape)
    return {partners[r]: (k + exponents[r]) & 3 for r, k in terms.items()}
