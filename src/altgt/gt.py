"""Gelfand-Tsetlin basis vectors for alternating groups, written exactly in
the tableau bases of the symmetric-group representations containing them.

Each branching path determines one vector by walking the path upward:

* level 2 starts from the single tableau of (2) or (1,1);
* when the next label is unsigned, or signed above a signed label, the
  vector is carried along the inclusion of representations unchanged;
* when the next label is signed with sign e above an unsigned label, the
  carried vector w is completed to the projection w + e * phi(w) onto the
  +-or- eigenspace of the intertwiner phi.

`gt_vectors` is a generator over many paths.  It yields each vector as its
path arrives and keeps only the prefixes of the last path, so paths that
come sorted build each shared prefix once.

Every coefficient of every resulting vector is a fourth root of unity.  A
GT vector is fixed only up to a scalar, so normalization is left to
`gt_basis`, where it only divides by the square root of the number of terms.
"""

from __future__ import annotations

from array import array
from collections.abc import Iterator
from functools import lru_cache

from .associator import apply_phi
from .geodesics import AltPath, geodesic_representatives
from .labels import AltLabel, dim_alt
from .partitions import Partition
from .scalars import ONE, sqrt_rational
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
        ranks[in_row[tableau.word[-1]]].append(rank)
    return ranks


def embed(vec: GTVector, shape: Partition) -> GTVector:
    """Include a vector into a covering shape by adding the final box."""
    ranks = _cover_map(shape).get(vec.shape)
    if ranks is None:
        raise ValueError(f"shape {shape} does not cover {vec.shape}")
    return GTVector._trusted(shape, {ranks[r]: c for r, c in vec._terms.items()})


def gt_vector(path: AltPath) -> GTVector:
    """The basis vector attached to one branching path."""
    return next(gt_vectors((path,)))


def gt_vectors(paths) -> Iterator[GTVector]:
    """Yield the unnormalized vector of each path, in order, as it arrives.

    A stack holds (label, vector) for each prefix of the previous path, so
    sorted paths build every shared prefix once, and memory stays
    proportional to the path length.
    """
    stack: list[tuple[AltLabel, GTVector]] = []
    for path in paths:
        labels = path.labels
        keep = 0
        while keep < min(len(stack), len(labels)) and stack[keep][0] is labels[keep]:
            keep += 1
        del stack[keep:]
        for head in labels[keep:]:
            if not stack:
                vec = GTVector._trusted(head.partition, {0: ONE})
            else:
                vec = embed(stack[-1][1], head.partition)
                if head.is_signed() and not stack[-1][0].is_signed():
                    mirrored = apply_phi(vec)
                    # the halves live over conjugate prefixes, so they cannot overlap
                    if vec._terms.keys() & mirrored._terms.keys():
                        raise RuntimeError(f"the two halves of the vector for {path} overlap")
                    vec = vec + mirrored if head.sign == 1 else vec - mirrored
            stack.append((head, vec))
        yield stack[-1][1]


def gt_basis(label: AltLabel, normalize: bool = False) -> Iterator[tuple[AltPath, GTVector]]:
    """One (path, vector) pair per equivalence class ending at this label,
    built lazily once the class count is checked; tuple() keeps them."""
    paths = geodesic_representatives(label)
    if len(paths) != dim_alt(label):
        raise RuntimeError(f"{len(paths)} classes at {label}, expected {dim_alt(label)}")
    vectors = gt_vectors(paths)
    if normalize:
        vectors = (v.scale(sqrt_rational(len(v._terms)).inverse()) for v in vectors)
    return zip(paths, vectors)
