"""Gelfand-Tsetlin basis vectors for alternating groups, written exactly in
the tableau bases of the symmetric-group representations containing them.

Each branching path determines one vector by walking the path upward:

* level 2 starts from the single tableau of (2) or (1,1);
* when the next label is unsigned, or signed above a signed label, the
  vector is carried along the inclusion of representations unchanged;
* when the next label is signed with sign e above an unsigned label, the
  carried vector w is completed to the projection w + e * phi(w) onto the
  +-or- eigenspace of the intertwiner phi.

The inclusion only moves ranks, phi moves ranks and multiplies by fourth
roots of unity, and the two halves of a completion have disjoint supports.
So every coefficient of an unnormalized vector is i^k, and the walk holds a
vector as a map rank -> k with k in 0..3: the inclusion moves the ranks
(`carry`), phi adds the exponent its table stores for each rank, and the
minus completion adds 2 more.

`gt_vectors` is a generator over many paths.  It yields each exponent map
as its path arrives and keeps only the prefixes of the last path, so paths
that come sorted build each shared prefix once.  `gt_vector` and `gt_basis`
turn the exponents into the shared unit scalars `I_POWERS`.  A GT vector is
fixed only up to a scalar, so normalization is left to `gt_basis`, where it
only divides by the square root of the number of terms m: the four units
i^k / sqrt(m) are computed once per m and shared by every vector of m terms.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from functools import lru_cache

from .associator import phi_exponents
from .geodesics import AltPath, geodesic_representatives
from .labels import AltLabel, dim_alt
from .partitions import Partition
from .scalars import I_POWERS, sqrt_rational
from .tableaux import enumerate_syt
from .yor import GTVector


@lru_cache(maxsize=None)
def _cover_map(shape: Partition) -> dict[Partition, array]:
    """For each partition one box below the shape, the increasing ranks in
    enumerate_syt(shape) of the tableaux holding box n in the row of its
    corner, which are its tableaux with box n added; empty for the single
    box.  Box n goes to the same place in the row word of each, so item k
    is the rank of the k-th tableau of the smaller shape, extended.
    """
    if shape.n < 2:
        return {}
    in_row = {shape.cover_row(below): below for below in shape.down_set()}
    ranks = {below: array("i") for below in in_row.values()}
    for rank, tableau in enumerate(enumerate_syt(shape)):
        ranks[in_row[tableau[-1]]].append(rank)
    return ranks


def carry(terms: dict, below: Partition, shape: Partition) -> dict:
    """Terms keyed by the ranks of `below`, moved to the ranks of their
    tableaux with the final box added in the covering shape."""
    ranks = _cover_map(shape).get(below)
    if ranks is None:
        raise ValueError(f"shape {shape} does not cover {below}")
    return {ranks[r]: c for r, c in terms.items()}


def embed(vec: GTVector, shape: Partition) -> GTVector:
    """Include a vector into a covering shape by adding the final box."""
    return GTVector._trusted(shape, carry(vec._terms, vec.shape, shape))


def _as_vector(shape: Partition, terms: dict[int, int], units=I_POWERS) -> GTVector:
    """The vector of an exponent map: units[k] at each rank r -> k."""
    return GTVector._trusted(shape, {r: units[k] for r, k in terms.items()})


def gt_vector(path: AltPath) -> GTVector:
    """The basis vector attached to one branching path."""
    return _as_vector(path.endpoint.partition, next(gt_vectors((path,))))


def gt_vectors(paths) -> Iterator[dict[int, int]]:
    """Yield the unnormalized vector of each path, in order, as it arrives,
    as a map rank -> k for the sum of i^k v_rank.

    A stack holds (label, exponent map) for each prefix of the previous
    path, so sorted paths build every shared prefix once, and memory stays
    proportional to the path length.  A yielded map is the one on the stack,
    so the caller reads it and does not modify it.
    """
    stack: list[tuple[AltLabel, dict[int, int]]] = []
    for path in paths:
        keep, common = 0, min(len(stack), len(path))
        while keep < common and stack[keep][0] is path[keep]:
            keep += 1
        del stack[keep:]
        for head in path[keep:]:
            if not stack:
                terms = {0: 0}
            else:
                prev, below = stack[-1]
                shape = head.partition
                terms = carry(below, prev.partition, shape)
                if head.is_signed() and not prev.is_signed():
                    mirrored = phi_exponents(shape, terms)
                    # the halves live over conjugate prefixes, so they cannot overlap
                    if terms.keys() & mirrored.keys():
                        raise RuntimeError(f"the two halves of the vector for {path} overlap")
                    if head.sign == 1:
                        terms.update(mirrored)
                    else:
                        terms.update({r: (k + 2) & 3 for r, k in mirrored.items()})
            stack.append((head, terms))
        yield stack[-1][1]


def gt_basis(label: AltLabel, normalize: bool = False) -> Iterator[tuple[AltPath, GTVector]]:
    """One (path, vector) pair per equivalence class ending at this label,
    built lazily once the class count is checked; tuple() keeps them."""
    paths = geodesic_representatives(label)
    if len(paths) != dim_alt(label):
        raise RuntimeError(f"{len(paths)} classes at {label}, expected {dim_alt(label)}")
    shape = label.partition

    def vectors():
        units, by_count = I_POWERS, {}
        for terms in gt_vectors(paths):
            if normalize:
                # the four values i^k / sqrt(m) for a vector of m terms, once per m
                units = by_count.get(len(terms))
                if units is None:
                    root = sqrt_rational(len(terms)).inverse()
                    units = by_count[len(terms)] = tuple(root * unit for unit in I_POWERS)
            yield _as_vector(shape, terms, units)

    return zip(paths, vectors())
