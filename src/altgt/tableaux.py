"""Standard Young tableaux and the cell bookkeeping the representations need.

A standard tableau on n boxes is a path up Young's graph, and it is stored
as one: the row that each entry 1..n joins (its Yamanouchi word).  Rows,
row word and positions are read off that word, and so is the sign of a
tableau against the anchor of its shape.  Adding box n reads its
row from the shape's corner map (`Partition.cover_row`).  The text
form joins rows with "/" and, when n > 9, separates entries inside a row
with spaces: "124/3/5", "1 2 10/3 11/...".
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import factorial

from .partitions import Partition, _integer, cached_upward


class StandardTableau:
    """A standard tableau, stored as its shape and the row of each entry:
    item k - 1 of the word is the 0-based row holding entry k.

    The constructor and `parse` check that the rows form a standard tableau.
    `append_box`, `conjugate` and `swap_adjacent` derive a tableau from one
    that is already valid, so they build it through `_trusted`, which skips
    the checks.
    """

    __slots__ = ("_word", "_shape")

    def __init__(self, rows):
        rows = tuple(tuple(map(_integer, row)) for row in rows)
        if not rows or any(not row for row in rows):
            raise ValueError("empty tableau rows are not allowed")
        shape = Partition(tuple(len(row) for row in rows))  # validates the shape
        n = shape.n
        row_of: dict[int, int] = {}
        for r, row in enumerate(rows):
            for entry in row:
                if entry in row_of:
                    raise ValueError(f"duplicate entry {entry}")
                row_of[entry] = r
        if set(row_of) != set(range(1, n + 1)):
            raise ValueError(f"entries must be exactly 1..{n}")
        for r, row in enumerate(rows):
            for c in range(len(row)):
                if c + 1 < len(row) and row[c] > row[c + 1]:
                    raise ValueError(f"row {r + 1} is not increasing")
                if r + 1 < len(rows) and c < len(rows[r + 1]) and row[c] > rows[r + 1][c]:
                    raise ValueError(f"column {c + 1} is not increasing")
        self._word = tuple(row_of[e] for e in range(1, n + 1))
        self._shape = shape

    @classmethod
    def _trusted(cls, word: tuple[int, ...], shape: Partition) -> "StandardTableau":
        """A tableau from the row of each entry, known to describe a standard
        tableau of this shape; nothing is checked."""
        tableau = object.__new__(cls)
        tableau._word = word
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
                if not (tok.isascii() and tok.isdigit()):
                    raise ValueError(f"invalid tableau entry {tok!r}")
            rows.append([int(t) for t in tokens])
        return cls(rows)

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        rows: list[list[int]] = [[] for _ in self._shape.parts]
        for entry, r in enumerate(self._word, 1):
            rows[r].append(entry)
        return tuple(map(tuple, rows))

    @property
    def word(self) -> tuple[int, ...]:
        """The 0-based row of each entry: item k - 1 is the row of entry k."""
        return self._word

    @property
    def n(self) -> int:
        return len(self._word)

    @property
    def shape(self) -> Partition:
        return self._shape

    def position(self, entry: int) -> tuple[int, int]:
        """0-based (row, column) of an entry."""
        if not 1 <= entry <= len(self._word):
            raise ValueError(f"no entry {entry} in this tableau")
        r = self._word[entry - 1]
        return r, self._word[: entry - 1].count(r)

    def row_word(self) -> tuple[int, ...]:
        """Rows concatenated top to bottom; the enumeration sort key.  A stable
        sort of the entries by row keeps each row increasing."""
        word = self._word
        return tuple(sorted(range(1, len(word) + 1), key=lambda k: word[k - 1]))

    def conjugate(self) -> "StandardTableau":
        """The transpose: each entry moves to the row numbered by its column."""
        filled = [0] * len(self._shape.parts)
        cols = []
        for r in self._word:
            cols.append(filled[r])
            filled[r] += 1
        return StandardTableau._trusted(tuple(cols), self._shape.conjugate())

    def axial_distance(self, i: int) -> int:
        """(col - row) of entry i+1 minus (col - row) of entry i."""
        (r1, c1), (r2, c2) = self.position(i), self.position(i + 1)
        return (c2 - r2) - (c1 - r1)

    def swap_adjacent(self, i: int) -> "StandardTableau":
        """Exchange entries i and i+1, for 1 <= i < n, which the caller has
        checked share no row or column."""
        word = self._word
        return StandardTableau._trusted(
            word[: i - 1] + (word[i], word[i - 1]) + word[i + 1:], self._shape
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, StandardTableau):
            return NotImplemented
        return self._word == other._word

    def __hash__(self) -> int:
        return hash(self._word)

    def joined(self, row_sep: str, entry_sep: str) -> str:
        """Each row's entries joined by entry_sep, and the rows by row_sep."""
        rows: list[list[str]] = [[] for _ in self._shape.parts]
        for entry, r in enumerate(self._word, 1):
            rows[r].append(str(entry))
        return row_sep.join([entry_sep.join(row) for row in rows])

    def __str__(self) -> str:
        return self.joined("/", " " if self.n > 9 else "")

    def __repr__(self) -> str:
        return f"StandardTableau.parse({str(self)!r})"

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def latex(self) -> str:
        """Subscript form used in basis-vector notation: rows joined by commas."""
        return self.joined(",", "\\," if self.n > 9 else "")


def append_box(tableau: StandardTableau, shape: Partition) -> StandardTableau:
    """Extend a tableau on n-1 boxes to a shape covering its own by placing
    box n; the caller has checked the cover."""
    row = shape.cover_row(tableau.shape)
    return StandardTableau._trusted(tableau._word + (row,), shape)


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


@lru_cache(maxsize=None)
def syt_ranks(shape: Partition) -> dict[StandardTableau, int]:
    """Each tableau of a shape mapped to its rank, its index in
    enumerate_syt(shape)."""
    return {t: k for k, t in enumerate(enumerate_syt(shape))}


def syt_count(shape: Partition) -> int:
    """Number of standard tableaux, n! over the product of the hook lengths
    (Frame, Robinson and Thrall).  The hook of a cell is the cell and the
    cells right of it in its row and below it in its column."""
    columns = shape.conjugate().parts
    hooks = 1
    for i, row in enumerate(shape.parts):
        for j in range(row):
            hooks *= row - j + columns[j] - i - 1
    return factorial(shape.n) // hooks


def row_superstandard(shape: Partition) -> StandardTableau:
    """Entries 1..n filled row by row, left to right."""
    word = tuple(r for r, length in enumerate(shape.parts) for _ in range(length))
    return StandardTableau._trusted(word, shape)


@lru_cache(maxsize=None)
def reference_tableau(shape: Partition) -> StandardTableau:
    """The anchor tableau of a self-conjugate shape.

    A shape with a self-conjugate partition one diagonal cell below extends
    that partition's anchor by the final box on the main diagonal; any
    other shape uses its row superstandard filling.
    """
    below = shape.self_conjugate_below()
    if below is None:
        return row_superstandard(shape)
    return append_box(reference_tableau(below), shape)


def permutation_sign(tableau: StandardTableau) -> int:
    """Sign of the permutation sending the anchor filling of the tableau's
    shape to this one, cellwise.

    Both row words list the same cells in the same order, so the cellwise
    permutation is one row word composed with the inverse of the other, and
    its sign is the product of their signs.  A row word, read as a
    permutation, has the parity of inv(T), the number of pairs of entries
    j < k with j in a later row than k.  So the sign is
    (-1)^(inv(T) + inv(anchor)).
    """
    inversions = _inversions(tableau._word) + _anchor_inversions(tableau.shape)
    return -1 if inversions % 2 else 1


def _inversions(word: tuple[int, ...]) -> int:
    return sum(a > b for a, b in combinations(word, 2))


@lru_cache(maxsize=None)
def _anchor_inversions(shape: Partition) -> int:
    return _inversions(reference_tableau(shape)._word)
