"""Integer partitions and the covering relation of Young's graph.

A partition holds at most MAX_BOXES boxes, so the recursions up Young's
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


class Partition:
    """A weakly decreasing tuple of positive integers.

    One object per partition: the constructor returns the stored object for
    each tuple of parts and validates only on first sight, so `==` is
    identity; a rejected value, such as one over MAX_BOXES boxes, stores
    nothing.  Size and hash are computed once, from content.  `conjugate` and
    the corner map, which sends each partition one box below to the row of
    the removed corner, are cached per partition; `down_set` lists its keys
    and `cover_row` looks a row up.
    """

    __slots__ = ("_parts", "_n", "_hash")

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
        n = sum(parts)
        if n > MAX_BOXES:
            text = ",".join(map(str, parts))
            raise ValueError(f"partition {text} has more than {MAX_BOXES} boxes")
        partition = _INTERNED[parts] = super().__new__(cls)
        partition._parts = parts
        partition._n = n
        partition._hash = hash(parts)
        return partition

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
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def n(self) -> int:
        return self._n

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, idx):
        return self._parts[idx]

    def __iter__(self):
        return iter(self._parts)

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return ",".join(str(p) for p in self._parts)

    def __repr__(self) -> str:
        return f"Partition({self._parts!r})"

    def to_json(self) -> list[int]:
        return list(self._parts)

    @lru_cache(maxsize=None)
    def conjugate(self) -> "Partition":
        cols = [sum(1 for p in self._parts if p > j) for j in range(self._parts[0])]
        return Partition(cols)

    def is_self_conjugate(self) -> bool:
        return self is self.conjugate()

    def diagonal_length(self) -> int:
        """Number of diagonal cells: max i with lambda_i >= i (1-based)."""
        return sum(1 for i, p in enumerate(self._parts, start=1) if p >= i)

    @lru_cache(maxsize=None)
    def _corners(self) -> dict["Partition", int]:
        """Each partition one box below, mapped to the 0-based row of the
        removed corner, top row first; empty for the single box."""
        corners = {}
        if self._n < 2:
            return corners
        parts = self._parts
        for i, p in enumerate(parts):
            last_in_run = i + 1 == len(parts) or parts[i + 1] < p
            if not last_in_run:
                continue
            if p == 1:
                corners[Partition(parts[:i])] = i
            else:
                corners[Partition(parts[:i] + (p - 1,) + parts[i + 1:])] = i
        return corners

    def down_set(self) -> tuple["Partition", ...]:
        """All partitions obtained by removing one removable corner cell."""
        if self._n < 2:
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
    return tuple(-p for p in partition.parts)


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
