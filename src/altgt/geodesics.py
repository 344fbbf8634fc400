"""Downward paths in the alternating branching graph and their equivalence.

A path records the labels at levels 2..n that an irreducible representation
passes through under successive restriction.  Two paths are equivalent when
they are equal or conjugate at every level.  A path splits into runs,
maximal blocks of unsigned labels: one starts at level 2, and a new one at
each step from a signed label up to an unsigned one.  A class member
conjugates each run as a whole or not at all and keeps every signed label,
so the class of a path with r + 1 runs has 2^(r+1) members, endpoints free;
`class_size` counts them.  `class_members` lists the members that end at
the path's own endpoint: the run holding an unsigned endpoint stays.

Each class contributes one basis vector.  Its representative is the member
ending at the label whose labels sort first, rev-lex with + before -.  Two
members first differ at the first label of some run, so it is the member
whose every closed run (one followed by a signed label) starts at its
canonical label.  Path text joins labels with ";": "2;2,1^+;3,1".
"""

from __future__ import annotations

from itertools import product
from operator import is_

from .labels import AltLabel, canonical_label, conjugate_label, dagger_down_set, in_dagger
from .partitions import cached_upward


class AltPath:
    """A branching path: one label per level from 2 up to its endpoint.

    The constructor and `parse` check every level and every link.  The paths
    this module builds, from checked links in `enumerate_paths` and
    `geodesic_representatives` and by conjugating whole runs in
    `class_members`, come from `_trusted`, which checks nothing.
    """

    __slots__ = ("_labels",)

    def __init__(self, path_labels):
        path_labels = tuple(path_labels)
        if not path_labels:
            raise ValueError("a path needs at least the level-2 label")
        for k, label in enumerate(path_labels):
            if label.n != k + 2:
                raise ValueError(
                    f"label {label} at position {k} should have size {k + 2}"
                )
        for below, above in zip(path_labels, path_labels[1:]):
            if not in_dagger(below, above):
                raise ValueError(f"{below} does not branch from {above}")
        self._labels = path_labels

    @classmethod
    def _trusted(cls, path_labels: tuple[AltLabel, ...]) -> "AltPath":
        """A path from a tuple of labels whose every link is known to branch."""
        path = object.__new__(cls)
        path._labels = path_labels
        return path

    @classmethod
    def parse(cls, text: str) -> "AltPath":
        chunks = text.split(";")
        return cls(tuple(AltLabel.parse(c.strip()) for c in chunks))

    @property
    def labels(self) -> tuple[AltLabel, ...]:
        return self._labels

    @property
    def endpoint(self) -> AltLabel:
        return self._labels[-1]

    @property
    def n(self) -> int:
        return self._labels[-1].n

    def sort_key(self):
        return tuple([label._sort_key for label in self._labels])

    def __len__(self) -> int:
        return len(self._labels)

    def __iter__(self):
        return iter(self._labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AltPath):
            return NotImplemented
        return self._labels == other._labels

    def __hash__(self) -> int:
        return hash(self._labels)

    def __str__(self) -> str:
        return ";".join([label._text for label in self._labels])

    def __repr__(self) -> str:
        return f"AltPath.parse({str(self)!r})"

    def to_json(self) -> list[dict]:
        return [label.to_json() for label in self._labels]


@cached_upward(dagger_down_set, 2)
def enumerate_paths(label: AltLabel) -> tuple[AltPath, ...]:
    """All paths ending at exactly this label, sorted by label sequence."""
    if label.n == 2:
        return (AltPath((label,)),)
    found = [
        AltPath._trusted(shorter.labels + (label,))
        for below in dagger_down_set(label)
        for shorter in enumerate_paths(below)
    ]
    found.sort(key=AltPath.sort_key)
    return tuple(found)


def path_equivalent(a: AltPath, b: AltPath) -> bool:
    """Componentwise equivalence of two paths of the same length: at each
    level the two canonical labels are one object, since labels are interned."""
    if len(a) != len(b):
        raise ValueError(f"paths of different lengths {len(a)} and {len(b)}")
    return all(map(is_, map(canonical_label, a._labels), map(canonical_label, b._labels)))


def _run_starts(path: AltPath) -> list[int]:
    """The level index of each run's first label: 0, and each unsigned
    label one level above a signed one."""
    labels = path.labels
    return [0] + [k for k in range(1, len(labels))
                  if labels[k - 1].is_signed() and not labels[k].is_signed()]


def class_members(path: AltPath) -> tuple[AltPath, ...]:
    """The members of the path's class that end at its endpoint, sorted:
    each block from one run start to the next is kept or, if a signed label
    closes its run, conjugated whole, which keeps every link."""
    labels = path.labels
    bounds = _run_starts(path) + [len(labels)]
    blocks = [labels[start:end] for start, end in zip(bounds, bounds[1:])]
    choices = [(block, tuple(map(conjugate_label, block))) if block[-1].is_signed() else (block,)
               for block in blocks]
    members = (AltPath._trusted(sum(combo, ())) for combo in product(*choices))
    return tuple(sorted(members, key=AltPath.sort_key))


def class_size(path: AltPath) -> int:
    """The size of the path's class, endpoints free: 2^(r+1) for r + 1 runs."""
    return 2 ** len(_run_starts(path))


@cached_upward(dagger_down_set, 2)
def geodesic_representatives(label: AltLabel) -> tuple[AltPath, ...]:
    """One path per equivalence class ending at this exact label, sorted.

    A representative truncates to a representative one level down, so each
    extends one of the down set's.  An extension is kept unless it closes a
    run, a signed label over an unsigned one, that starts at a non-canonical
    label.
    """
    if label.n == 2:
        return (AltPath((label,)),)
    found = []
    for below in dagger_down_set(label):
        closes_run = label.is_signed() and not below.is_signed()
        for shorter in geodesic_representatives(below):
            if closes_run:
                start = shorter.labels[_run_starts(shorter)[-1]]
                if canonical_label(start) != start:
                    continue
            found.append(AltPath._trusted(shorter.labels + (label,)))
    found.sort(key=AltPath.sort_key)
    return tuple(found)
