"""Standard Young tableaux and the cell bookkeeping the representations need.

A standard tableau on n boxes is stored as its rows; entries are the numbers
1..n, increasing along rows and down columns.  The text form joins rows with
"/" and, when n > 9, separates entries inside a row with spaces: "124/3/5",
"1 2 10/3 11/...".
"""

from __future__ import annotations

from functools import lru_cache

from .partitions import Partition, cached_upward


class StandardTableau:
    """A standard tableau, stored as its rows, its shape and the position of
    each entry.

    The constructor and `parse` check that the rows form a standard tableau.
    `append_box`, `conjugate` and `swap_adjacent` derive a tableau from one
    that is already valid, so they build it through `_trusted`, which skips
    the checks.
    """

    __slots__ = ("_rows", "_pos", "_shape")

    def __init__(self, rows):
        rows = tuple(tuple(int(e) for e in row) for row in rows)
        if not rows or any(not row for row in rows):
            raise ValueError("empty tableau rows are not allowed")
        shape = Partition(tuple(len(row) for row in rows))  # validates the shape
        n = shape.n
        pos: dict[int, tuple[int, int]] = {}
        for r, row in enumerate(rows):
            for c, entry in enumerate(row):
                if entry in pos:
                    raise ValueError(f"duplicate entry {entry}")
                pos[entry] = (r, c)
        if set(pos) != set(range(1, n + 1)):
            raise ValueError(f"entries must be exactly 1..{n}")
        for r, row in enumerate(rows):
            for c in range(len(row)):
                if c + 1 < len(row) and row[c] > row[c + 1]:
                    raise ValueError(f"row {r + 1} is not increasing")
                if r + 1 < len(rows) and c < len(rows[r + 1]) and row[c] > rows[r + 1][c]:
                    raise ValueError(f"column {c + 1} is not increasing")
        self._rows = rows
        self._pos = pos
        self._shape = shape

    @classmethod
    def _trusted(cls, rows, pos, shape: Partition) -> "StandardTableau":
        """A tableau from rows (a tuple of int tuples) known to be standard,
        with their entry positions and shape; nothing is checked."""
        tableau = object.__new__(cls)
        tableau._rows = rows
        tableau._pos = pos
        tableau._shape = shape
        return tableau

    @classmethod
    def parse(cls, text: str) -> "StandardTableau":
        # spaces anywhere mean every row is space-separated (needed past 9)
        spaced = any(ch.isspace() for ch in text)
        rows = []
        for chunk in text.split("/"):
            chunk = chunk.strip()
            if not chunk:
                raise ValueError(f"empty row in tableau text {text!r}")
            tokens = chunk.split() if spaced else list(chunk)
            for tok in tokens:
                if not tok.isdigit():
                    raise ValueError(f"invalid tableau entry {tok!r}")
            rows.append([int(t) for t in tokens])
        return cls(rows)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        return self._rows

    @property
    def n(self) -> int:
        return len(self._pos)

    @property
    def shape(self) -> Partition:
        return self._shape

    def position(self, entry: int) -> tuple[int, int]:
        """0-based (row, column) of an entry."""
        try:
            return self._pos[entry]
        except KeyError:
            raise ValueError(f"no entry {entry} in this tableau") from None

    def row_word(self) -> tuple[int, ...]:
        """Rows concatenated top to bottom; the enumeration sort key."""
        return tuple(e for row in self._rows for e in row)

    def conjugate(self) -> "StandardTableau":
        cols = tuple(
            tuple(row[c] for row in self._rows if c < len(row))
            for c in range(len(self._rows[0]))
        )
        pos = {e: (c, r) for e, (r, c) in self._pos.items()}
        return StandardTableau._trusted(cols, pos, self._shape.conjugate())

    def axial_distance(self, i: int) -> int:
        """(col - row) of entry i+1 minus (col - row) of entry i."""
        self._check_index(i)
        r1, c1 = self._pos[i]
        r2, c2 = self._pos[i + 1]
        return (c2 - r2) - (c1 - r1)

    def swap_adjacent(self, i: int) -> "StandardTableau":
        """Exchange entries i and i+1; they must share no row or column."""
        self._check_index(i)
        (r1, c1), (r2, c2) = self._pos[i], self._pos[i + 1]
        if r1 == r2 or c1 == c2:
            raise ValueError(f"entries {i} and {i + 1} share a row or column")
        rows = [list(row) for row in self._rows]
        rows[r1][c1], rows[r2][c2] = i + 1, i
        pos = dict(self._pos)
        pos[i], pos[i + 1] = (r2, c2), (r1, c1)
        return StandardTableau._trusted(tuple(map(tuple, rows)), pos, self._shape)

    def prefix_shape(self, k: int) -> Partition:
        """Shape of the boxes holding entries 1..k."""
        if not 1 <= k <= self.n:
            raise ValueError(f"prefix size {k} out of range 1..{self.n}")
        lengths = [sum(1 for e in row if e <= k) for row in self._rows]
        return Partition([ln for ln in lengths if ln > 0])

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= self.n - 1:
            raise ValueError(f"index {i} out of range 1..{self.n - 1}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, StandardTableau):
            return NotImplemented
        return self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __str__(self) -> str:
        if self.n > 9:
            return "/".join(" ".join(str(e) for e in row) for row in self._rows)
        return "/".join("".join(str(e) for e in row) for row in self._rows)

    def __repr__(self) -> str:
        return f"StandardTableau.parse({str(self)!r})"

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self._rows]

    def latex(self) -> str:
        """Subscript form used in basis-vector notation: rows joined by commas."""
        if self.n > 9:
            return ",".join("\\,".join(str(e) for e in row) for row in self._rows)
        return ",".join("".join(str(e) for e in row) for row in self._rows)


def append_box(tableau: StandardTableau, shape: Partition) -> StandardTableau:
    """Extend a tableau on n-1 boxes to the given shape by placing box n."""
    small = tableau.shape
    if not shape.covers(small):
        raise ValueError(f"shape {shape} does not cover {small}")
    rows = list(tableau.rows)
    n = shape.n
    r = next(r for r, length in enumerate(shape.parts) if r == len(rows) or len(rows[r]) < length)
    if r == len(rows):
        rows.append((n,))
    else:
        rows[r] += (n,)
    pos = dict(tableau._pos)
    pos[n] = (r, len(rows[r]) - 1)
    return StandardTableau._trusted(tuple(rows), pos, shape)


@cached_upward(Partition.down_set, 1)
def enumerate_syt(shape: Partition) -> tuple[StandardTableau, ...]:
    """All standard tableaux of a shape, ordered by row word."""
    if shape.n == 1:
        return (StandardTableau([[1]]),)
    found = [
        append_box(small, shape)
        for below in shape.down_set()
        for small in enumerate_syt(below)
    ]
    found.sort(key=StandardTableau.row_word)
    return tuple(found)


@cached_upward(Partition.down_set, 1)
def syt_count(shape: Partition) -> int:
    """Number of standard tableaux, by the covering recursion."""
    if shape.n == 1:
        return 1
    return sum(syt_count(below) for below in shape.down_set())


def row_superstandard(shape: Partition) -> StandardTableau:
    """Entries 1..n filled row by row, left to right."""
    rows, nxt = [], 1
    for length in shape.parts:
        rows.append(range(nxt, nxt + length))
        nxt += length
    return StandardTableau(rows)


@lru_cache(maxsize=None)
def reference_tableau(shape: Partition) -> StandardTableau:
    """The anchor tableau of a self-conjugate shape.

    The smaller member of a self-conjugate cover pair uses its row
    superstandard filling; the larger member extends the smaller one's
    anchor by the final box on the main diagonal.
    """
    partner, role = shape.self_conjugate_cover_partner()
    if role == "smaller":
        return row_superstandard(shape)
    return append_box(reference_tableau(partner), shape)


def permutation_sign(tableau: StandardTableau) -> int:
    """Sign of the permutation sending the anchor filling of the tableau's
    shape to this one, cellwise."""
    ref = reference_tableau(tableau.shape)
    mapping = {}
    for r, row in enumerate(ref.rows):
        for c, entry in enumerate(row):
            mapping[entry] = tableau.rows[r][c]
    sign, seen = 1, set()
    for start in mapping:
        if start in seen:
            continue
        length, cur = 0, start
        while cur not in seen:
            seen.add(cur)
            cur = mapping[cur]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign
