"""The canonical intertwiner between a self-conjugate representation and its
twist by the sign character.

For a self-conjugate shape it sends each tableau basis vector to a fourth
root of unity times the basis vector of the transposed tableau:

    v_T  ->  i^((n - d)/2) * sign(w_T) * v_{T transposed}

where d is the diagonal length of the shape and w_T is the permutation
carrying the anchor (reference) tableau to T cellwise.  Squaring gives the
identity, and the map anticommutes with every adjacent transposition.
This module alone holds that rule: the root is i^k, with k the shape's
anchor exponent plus twice the tableau's inversion count, mod 4.
assoc_coeff returns i^k as one of the shared units ``I_POWERS``, and a
table filled once per shape holds each tableau's transpose rank and k.
apply_phi multiplies each coefficient by ``I_POWERS[k]``, and phi_exponents
adds k to each exponent of a vector written as rank -> k, the gt walk's.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import combinations

from .partitions import Partition
from .scalars import I_POWERS, Scalar
from .tableaux import StandardTableau, enumerate_syt, row_superstandard, syt_ranks
from .yor import GTVector


def reference_tableau(shape: Partition) -> StandardTableau:
    """The anchor tableau of a self-conjugate shape.

    A shape with a self-conjugate partition one diagonal cell below extends
    that partition's anchor by the final box on the main diagonal; any
    other shape uses its row superstandard filling.
    """
    below = shape.self_conjugate_below()
    if below is None:
        return row_superstandard(shape)
    return StandardTableau._trusted(reference_tableau(below) + bytes((shape.cover_row(below),)))


def _inversions(word: bytes) -> int:
    """Pairs of entries j < k with j in a later row than k."""
    return sum(a > b for a, b in combinations(word, 2))


@lru_cache(maxsize=None)
def _anchor_exponent(shape: Partition) -> int:
    """((n - d)/2 + 2 inv(anchor)) mod 4 for a self-conjugate shape of n
    boxes, d of them diagonal.

    The root of T is i^((n - d)/2) times the sign of the cellwise map from
    the anchor to T.  Both row words list the same cells in the same order,
    so that map is one row word composed with the inverse of the other, and
    its sign is the product of their signs.  A row word, read as a
    permutation, has the parity of inv(T), so the sign is
    (-1)^(inv(T) + inv(anchor)) = i^(2 inv(T) + 2 inv(anchor)).
    """
    if not shape.is_self_conjugate():
        raise ValueError(f"{shape} is not self-conjugate")
    n, d = shape.n, shape.diagonal_length()
    if (n - d) % 2:
        raise RuntimeError(f"n - d is odd for the self-conjugate shape {shape}")
    return ((n - d) // 2 + 2 * _inversions(reference_tableau(shape))) % 4


def _exponent(tableau: StandardTableau, shape: Partition) -> int:
    """The exponent k of the root i^k of a tableau of the given shape."""
    return (_anchor_exponent(shape) + 2 * _inversions(tableau)) % 4


def assoc_coeff(tableau: StandardTableau) -> Scalar:
    """The fourth root of unity attached to one tableau."""
    return I_POWERS[_exponent(tableau, tableau.shape)]


@lru_cache(maxsize=None)
def _phi_table(shape: Partition) -> tuple[array, bytes]:
    """By rank: the rank of each tableau's transpose, and the exponent k of
    its assoc_coeff i^k."""
    basis, rank = enumerate_syt(shape), syt_ranks(shape)
    # raises unless self-conjugate
    exponents = bytes(_exponent(t, shape) for t in basis)
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
