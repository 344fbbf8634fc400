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

Every coefficient of every resulting vector is a fourth root of unity, so
the optional normalization only divides by the square root of the number of
terms.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from collections.abc import Iterator
from functools import lru_cache

from .associator import apply_phi
from .geodesics import AltPath, geodesic_representatives
from .labels import AltLabel, dim_alt
from .partitions import Partition
from .scalars import ONE, sqrt_rational
from .tableaux import append_box, enumerate_syt, syt_ranks
from .yor import GTVector


@lru_cache(maxsize=None)
def _cover_map(shape: Partition) -> dict[Partition, array]:
    """For each partition one box below the shape, the rank in
    enumerate_syt(shape) of each of its tableaux, by rank, with box n added.

    Box n goes to the same place in the row word of every tableau of the
    smaller shape, so adding it keeps row-word order and each array
    increases.
    """
    rank = syt_ranks(shape)
    return {
        below: array("l", (rank[append_box(t, shape)] for t in enumerate_syt(below)))
        for below in shape.down_set()
    }


def embed(vec: GTVector, shape: Partition) -> GTVector:
    """Include a vector into a covering shape by adding the final box."""
    if not shape.covers(vec.shape):
        raise ValueError(f"shape {shape} does not cover {vec.shape}")
    ranks = _cover_map(shape)[vec.shape]
    return GTVector._trusted(shape, {ranks[r]: c for r, c in vec._terms.items()})


def restrict(vec: GTVector, shape: Partition) -> GTVector:
    """Keep the terms whose tableaux shrink to the given shape; drop the last box.

    This is the left inverse of embed: terms whose prefix is a different
    member of the down set are discarded.  The cover map increases, so a
    bisection finds each term's rank below.
    """
    if not vec.shape.covers(shape):
        raise ValueError(f"{shape} is not below {vec.shape}")
    ranks = _cover_map(vec.shape)[shape]
    out = {}
    for rank, coeff in vec._terms.items():
        below = bisect_left(ranks, rank)
        if below < len(ranks) and ranks[below] == rank:
            out[below] = coeff
    return GTVector._trusted(shape, out)


def gt_vector(path: AltPath, normalize: bool = False) -> GTVector:
    """The basis vector attached to one branching path."""
    return next(gt_vectors((path,), normalize=normalize))


def gt_vectors(paths, normalize: bool = False) -> Iterator[GTVector]:
    """Yield the vector of each path, in order, as each path arrives.

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
        vec = stack[-1][1]
        if normalize:
            vec = vec.scale(sqrt_rational(vec.norm_squared().as_rational()).inverse())
        yield vec


def gt_basis(
    label: AltLabel, normalize: bool = False
) -> tuple[tuple[AltPath, GTVector], ...]:
    """One (path, vector) pair per equivalence class ending at this label."""
    paths = geodesic_representatives(label)
    if len(paths) != dim_alt(label):
        raise RuntimeError(f"{len(paths)} classes at {label}, expected {dim_alt(label)}")
    return tuple(zip(paths, gt_vectors(paths, normalize=normalize)))
