"""Integer partitions and the covering relation of Young's graph.

A partition is the tuple of its parts, one stored object per partition, so
callers index, iterate, compare and sort it as that tuple.  A partition holds at most MAX_BOXES boxes, so the recursions up Young's
graph, a few stack frames per box, stay inside Python's recursion limit.
"""

from __future__ import annotations

from functools import lru_cache

MAX_BOXES = 200

_INTERNED: dict[tuple[int, ...], "Partition"] = {}


def _integer(value) -> int:
    if not isinstance(value, int):
        raise TypeError(f"expected an integer, got {value!r}")
    return int(value)


class Partition(tuple):
    """A weakly decreasing tuple of positive integers, and that tuple: a
    partition equals, hashes and sorts like the tuple of its parts.

    One object per partition: the constructor returns the stored object for
    each tuple of parts and validates only on first sight, so two equal
    partitions are one object; a rejected value, such as one over MAX_BOXES
    boxes, stores nothing.  Copy and pickle rebuild a partition through the
    constructor, so they give back the stored object.  `conjugate` and the
    corner map, which sends each partition one box below to the row of the
    removed corner, are cached per partition; `down_set` lists its keys and
    `cover_row` looks a row up.
    """

    __slots__ = ()

    def __new__(cls, parts) -> "Partition":
        parts = tuple(map(_integer, parts))
        partition = _INTERNED.get(parts)
        if partition is not None:
            return partition
        if not parts:
            raise ValueError("a partition needs at least one part")
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing, got {parts}")
        if parts[-1] < 1:
            raise ValueError(f"parts must be positive, got {parts}")
        if sum(parts) > MAX_BOXES:
            text = ",".join(map(str, parts))
            raise ValueError(f"partition {text} has more than {MAX_BOXES} boxes")
        partition = _INTERNED[parts] = super().__new__(cls, parts)
        return partition

    def __reduce__(self):
        # the constructor hands back the stored object; pickle protocols 0
        # and 1 would otherwise build a second one through tuple.__new__
        return Partition, (tuple(self),)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        tokens = [t.strip() for t in text.split(",")]
        parts = []
        for tok in tokens:
            if not (tok.isascii() and tok.isdigit()):
                raise ValueError(f"invalid partition part {tok!r}")
            try:
                parts.append(int(tok))
            except ValueError:  # more digits than int() will convert
                raise ValueError(f"invalid partition part {tok[:20] + '…'!r}") from None
        return cls(parts)

    @property
    def n(self) -> int:
        return sum(self)

    def __str__(self) -> str:
        return ",".join(map(str, self))

    def __repr__(self) -> str:
        return f"Partition({tuple(self)!r})"

    def to_json(self) -> list[int]:
        return list(self)

    @lru_cache(maxsize=None)
    def conjugate(self) -> "Partition":
        cols = [sum(1 for p in self if p > j) for j in range(self[0])]
        return Partition(cols)

    def is_self_conjugate(self) -> bool:
        return self is self.conjugate()

    def diagonal_length(self) -> int:
        """Number of diagonal cells: max i with lambda_i >= i (1-based)."""
        return sum(1 for i, p in enumerate(self, start=1) if p >= i)

    @lru_cache(maxsize=None)
    def _corners(self) -> dict["Partition", int]:
        """Each partition one box below, mapped to the 0-based row of the
        removed corner, top row first; empty for the single box."""
        corners = {}
        if self.n < 2:
            return corners
        for i, p in enumerate(self):
            last_in_run = i + 1 == len(self) or self[i + 1] < p
            if not last_in_run:
                continue
            if p == 1:
                corners[Partition(self[:i])] = i
            else:
                corners[Partition(self[:i] + (p - 1,) + self[i + 1:])] = i
        return corners

    def down_set(self) -> tuple["Partition", ...]:
        """All partitions obtained by removing one removable corner cell."""
        if self.n < 2:
            raise ValueError(f"no partitions below {self}")
        return tuple(self._corners())

    def cover_row(self, smaller: "Partition") -> int:
        """The 0-based row of the box that this partition has and a
        partition it covers lacks."""
        return self._corners()[smaller]

    def self_conjugate_below(self) -> "Partition | None":
        """The self-conjugate partition one diagonal cell below this one, or
        None.  Defined for self-conjugate partitions, where removing the
        diagonal corner is the only removal that keeps the partition
        self-conjugate."""
        if not self.is_self_conjugate():
            raise ValueError(f"{self} is not self-conjugate")
        return next((below for below in self._corners() if below.is_self_conjugate()), None)


def revlex_key(partition: Partition) -> tuple[int, ...]:
    """Sort key for reverse lexicographic order (larger first part precedes)."""
    return tuple(-p for p in partition)


@lru_cache(maxsize=None)
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, in reverse lexicographic order."""
    if n < 1:
        raise ValueError(f"no partitions of {n}")

    def gen(total, maxpart):
        if total == 0:
            yield ()
            return
        for first in range(min(total, maxpart), 0, -1):
            for rest in gen(total - first, first):
                yield (first,) + rest

    return tuple(Partition(p) for p in gen(n, n))


@lru_cache(maxsize=None)
def self_conjugate_partitions(n: int) -> tuple[Partition, ...]:
    return tuple(p for p in partitions_of(n) if p.is_self_conjugate())
