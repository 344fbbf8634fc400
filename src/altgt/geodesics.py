"""Downward paths in the alternating branching graph and their equivalence.

A path records the labels at levels 2..n that an irreducible representation
passes through under successive restriction.  Two paths are equivalent when
they are componentwise equivalent (equal or conjugate at every level).  A
path splits into runs, maximal blocks of unsigned labels: one starts at
level 2, and a new one at each step from a signed label up to an unsigned
one.  A class member conjugates each run as a whole or not at all and keeps
every signed label, so a class of a path with r + 1 runs has 2^(r+1)
members.  `class_members` lists them; `class_size` counts the runs.

Each class contributes one basis vector, so picking one representative per
class ending at a given label enumerates a basis.  The representative is the
class member, still ending at that exact label, whose label sequence is
smallest position by position: partitions compared in rev-lex order, + before
- on signs.  Two members first differ at the first label of some run, so the
representative is the member whose every closed run (one followed by a signed
label) starts at its canonical, rev-lex earlier label; the run holding an
unsigned endpoint is fixed by the endpoint.  Path text joins labels with ";":
"2;2,1^+;3,1;3,1,1^+;4,1,1".
"""

from __future__ import annotations

from .labels import AltLabel, canonical_label, dagger_down_set, equivalent, in_dagger
from .partitions import cached_upward


class AltPath:
    """A branching path: one label per level from 2 up to its endpoint.

    The constructor and `parse` check every level and every link.  The paths
    this module grows from checked links, in `enumerate_paths`,
    `class_members` and `geodesic_representatives`, are built by `_trusted`,
    which checks nothing.
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
        return tuple(label.sort_key() for label in self._labels)

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
        return ";".join(str(label) for label in self._labels)

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
    """Componentwise equivalence of two paths of the same length."""
    if len(a) != len(b):
        raise ValueError(f"paths of different lengths {len(a)} and {len(b)}")
    return all(equivalent(x, y) for x, y in zip(a, b))


def class_members(path: AltPath) -> tuple[AltPath, ...]:
    """The full equivalence class of a path, endpoints allowed to vary.

    Prefixes grow one level at a time, by the label or its unsigned
    conjugate, and keep only the links that branch.
    """
    prefixes = [()]
    for label in path:
        choices = [label]
        if not label.is_signed():
            choices.append(AltLabel(label.partition.conjugate()))
        prefixes = [q + (c,) for q in prefixes for c in choices if not q or in_dagger(q[-1], c)]
    return tuple(sorted(map(AltPath._trusted, prefixes), key=AltPath.sort_key))


def _run_starts(path: AltPath) -> list[AltLabel]:
    """The first label of each run: the level-2 label, and each unsigned
    label one level above a signed one."""
    labels = path.labels
    return [labels[0]] + [
        above for below, above in zip(labels, labels[1:])
        if below.is_signed() and not above.is_signed()
    ]


def class_size(path: AltPath) -> int:
    """The number of members of the path's class, 2^(r+1), without listing
    them: a member conjugates each of the r + 1 runs independently."""
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
                start = _run_starts(shorter)[-1]
                if canonical_label(start) != start:
                    continue
            found.append(AltPath._trusted(shorter.labels + (label,)))
    found.sort(key=AltPath.sort_key)
    return tuple(found)
