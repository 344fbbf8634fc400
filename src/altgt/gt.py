"""Gelfand-Tsetlin basis vectors for alternating groups, written exactly in
the tableau bases of the symmetric-group representations containing them.

Each branching path determines one vector by walking the path upward:

* level 2 starts from the single tableau of (2) or (1,1);
* when the next label is unsigned, or signed above a signed label, the
  vector is carried along the inclusion of representations unchanged;
* when the next label is signed with sign e above an unsigned label, the
  carried vector w is completed to the projection w + e * phi(w) onto the
  +-or- eigenspace of the intertwiner phi.

Every coefficient of every resulting vector is a fourth root of unity, so
the optional normalization only divides by the square root of the number of
terms.
"""

from __future__ import annotations

from .associator import apply_phi
from .geodesics import AltPath, geodesic_representatives
from .labels import AltLabel, dim_alt
from .partitions import Partition
from .scalars import sqrt_rational
from .tableaux import StandardTableau, append_box, cover_row, remove_box
from .yor import GTVector


def embed(vec: GTVector, shape: Partition) -> GTVector:
    """Include a vector into a covering shape by adding the final box."""
    if not shape.covers(vec.shape):
        raise ValueError(f"shape {shape} does not cover {vec.shape}")
    out = {append_box(t, shape): c for t, c in vec._terms.items()}
    return GTVector._trusted(shape, out)


def restrict(vec: GTVector, shape: Partition) -> GTVector:
    """Keep the terms whose tableaux shrink to the given shape; drop the last box.

    This is the left inverse of embed: terms whose prefix is a different
    member of the down set are discarded.
    """
    n = vec.shape.n
    if not vec.shape.covers(shape):
        raise ValueError(f"{shape} is not below {vec.shape}")
    row = cover_row(vec.shape, shape)
    out = {
        remove_box(tableau, shape): coeff
        for tableau, coeff in vec._terms.items()
        if tableau.position(n)[0] == row
    }
    return GTVector._trusted(shape, out)


_BASE_VECTORS = {
    (2,): StandardTableau([[1, 2]]),
    (1, 1): StandardTableau([[1], [2]]),
}


def gt_vector(path: AltPath, normalize: bool = False) -> GTVector:
    """The basis vector attached to one branching path."""
    return gt_vectors((path,), normalize=normalize)[0]


def gt_vectors(paths, normalize: bool = False) -> list[GTVector]:
    """The vector of each path, in order.

    A stack holds (label, vector) for each prefix of the previous path, so
    sorted paths build every shared prefix once.
    """
    out = []
    stack: list[tuple[AltLabel, GTVector]] = []
    for path in paths:
        labels = path.labels
        keep = 0
        while keep < min(len(stack), len(labels)) and stack[keep][0] == labels[keep]:
            keep += 1
        del stack[keep:]
        for head in labels[keep:]:
            if not stack:
                vec = GTVector.basis(_BASE_VECTORS[head.partition.parts])
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
        out.append(vec)
    return out


def gt_basis(
    label: AltLabel, normalize: bool = False
) -> tuple[tuple[AltPath, GTVector], ...]:
    """One (path, vector) pair per equivalence class ending at this label."""
    paths = geodesic_representatives(label)
    if len(paths) != dim_alt(label):
        raise RuntimeError(f"{len(paths)} classes at {label}, expected {dim_alt(label)}")
    return tuple(zip(paths, gt_vectors(paths, normalize=normalize)))
