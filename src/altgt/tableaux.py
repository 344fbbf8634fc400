"""Standard Young tableaux and the cell bookkeeping the representations need.

A standard tableau on n boxes is a path up Young's graph, and it is that
path: the bytes of the row that each entry 1..n joins (its Yamanouchi
word).  Shape, rows, row word and positions are read off that word; the
sign of a tableau against the anchor of its shape belongs to the
intertwiner, in `associator`.  Adding box n reads its row from the shape's
corner map (`Partition.cover_row`).  The text form joins rows with "/"
and, when n > 9, separates entries inside a row with spaces: "124/3/5",
"1 2 10/3 11/...".
"""

from __future__ import annotations

from functools import lru_cache
from math import factorial

from .partitions import _INTERNED, Partition, _integer


class StandardTableau(bytes):
    """A standard tableau, stored as the row of each entry: byte k - 1 is the
    0-based row holding entry k.  Rows stay below 256, as a partition has at
    most MAX_BOXES boxes.  A tableau is the bytes of its word, so it equals
    and hashes like them, its length is n, and its shape is read off the row
    counts when asked.

    The constructor and `parse` check that the rows form a standard tableau.
    `enumerate_syt`, `conjugate` and `swap_adjacent` derive a tableau from
    one that is already valid, so they build it through `_trusted`, which
    skips the checks.
    """

    __slots__ = ()

    def __new__(cls, rows):
        rows = tuple(tuple(map(_integer, row)) for row in rows)
        if not rows or any(not row for row in rows):
            raise ValueError("empty tableau rows are not allowed")
        n = Partition(tuple(len(row) for row in rows)).n  # validates the shape
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
        return super().__new__(cls, [row_of[e] for e in range(1, n + 1)])

    def __getnewargs__(self):
        # copy and pickle rebuild a tableau through the checked constructor
        return (self.rows,)

    @classmethod
    def _trusted(cls, word) -> "StandardTableau":
        """A tableau from the row of each entry, known to describe a standard
        tableau; nothing is checked."""
        return bytes.__new__(cls, word)

    @classmethod
    def parse(cls, text: str) -> "StandardTableau":
        # spaces inside the text mean every row is space-separated (needed past 9)
        text = text.strip()
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
        rows: list[list[int]] = [[] for _ in range(max(self) + 1)]
        for entry, r in enumerate(self, 1):
            rows[r].append(entry)
        return tuple(map(tuple, rows))

    @property
    def n(self) -> int:
        return len(self)

    @property
    def shape(self) -> Partition:
        # a word's row counts are a partition, so an interned one is returned unchecked
        counts = tuple(map(self.count, range(max(self) + 1)))
        return _INTERNED.get(counts) or Partition(counts)

    def position(self, entry: int) -> tuple[int, int]:
        """0-based (row, column) of an entry."""
        if not 1 <= entry <= len(self):
            raise ValueError(f"no entry {entry} in this tableau")
        r = self[entry - 1]
        return r, self.count(r, 0, entry - 1)

    def row_word(self) -> tuple[int, ...]:
        """Rows concatenated top to bottom; the enumeration sort key.  A stable
        sort of the entries by row keeps each row increasing."""
        # byte k of the word behind a pad byte is the row of entry k
        return tuple(sorted(range(1, len(self) + 1), key=(b"\0" + self).__getitem__))

    def conjugate(self) -> "StandardTableau":
        """The transpose: each entry moves to the row numbered by its column."""
        filled, cols = [0] * (max(self) + 1), []
        for r in self:
            cols.append(filled[r])
            filled[r] += 1
        return StandardTableau._trusted(cols)

    def axial_distance(self, i: int) -> int:
        """(col - row) of entry i+1 minus (col - row) of entry i."""
        (r1, c1), (r2, c2) = self.position(i), self.position(i + 1)
        return (c2 - r2) - (c1 - r1)

    def swap_adjacent(self, i: int) -> "StandardTableau":
        """Exchange entries i and i+1, for 1 <= i < n, which the caller has
        checked share no row or column."""
        word = bytearray(self)
        word[i - 1], word[i] = word[i], word[i - 1]
        return StandardTableau._trusted(word)

    def joined(self, row_sep: str, entry_sep: str) -> str:
        """Each row's entries joined by entry_sep, and the rows by row_sep."""
        rows: list[list[str]] = [[] for _ in range(max(self) + 1)]
        for entry, r in enumerate(self, 1):
            rows[r].append(str(entry))
        return row_sep.join([entry_sep.join(row) for row in rows])

    def __str__(self) -> str:
        return self.joined("/", " " if self.n > 9 else "")

    def __repr__(self) -> str:
        return f"StandardTableau.parse({str(self)!r})"

    def to_json(self) -> list[list[int]]:
        return [list(row) for row in self.rows]

    def json_text(self, indent: int = 0) -> str:
        """json.dumps(self.to_json(), indent=2) with `indent` more spaces after
        each newline, written directly: no row of a tableau is empty."""
        row_pad, entry_pad = "\n" + " " * (indent + 2), "\n" + " " * (indent + 4)
        sep = "," + entry_pad
        rows = [f"{row_pad}[{entry_pad}{sep.join(map(str, row))}{row_pad}]" for row in self.rows]
        return "[" + ",".join(rows) + "\n" + " " * indent + "]"

    def latex(self) -> str:
        """Subscript form used in basis-vector notation: rows joined by commas."""
        return self.joined(",", "\\," if self.n > 9 else "")


@lru_cache(maxsize=None)
def enumerate_syt(shape: Partition) -> tuple[StandardTableau, ...]:
    """All standard tableaux of a shape, ordered by row word."""
    shape = Partition(shape)  # on a cache miss, a plain tuple of parts becomes its partition
    if shape.n == 1:
        return (StandardTableau([[1]]),)
    found = []
    for below in shape.down_set():
        # box n joins the row of the corner that `below` lacks, in each of its tableaux
        box = bytes((shape.cover_row(below),))
        found += [StandardTableau._trusted(small + box) for small in enumerate_syt(below)]
    # the row word as bytes sorts alike, since a partition has at most 200 boxes,
    # and takes a third of the tuple's memory, most of what the sort holds
    found.sort(key=lambda t: bytes(t.row_word()))
    return tuple(found)


@lru_cache(maxsize=8)
def syt_ranks(shape: Partition) -> dict[StandardTableau, int]:
    """Each tableau of a shape mapped to its rank, its index in
    enumerate_syt(shape), for the last 8 shapes asked."""
    return {t: k for k, t in enumerate(enumerate_syt(shape))}


def syt_count(shape: Partition) -> int:
    """Number of standard tableaux, n! over the product of the hook lengths
    (Frame, Robinson and Thrall).  The hook of a cell is the cell and the
    cells right of it in its row and below it in its column."""
    columns = shape.conjugate()
    hooks = 1
    for i, row in enumerate(shape):
        for j in range(row):
            hooks *= row - j + columns[j] - i - 1
    return factorial(shape.n) // hooks


def row_superstandard(shape: Partition) -> StandardTableau:
    """Entries 1..n filled row by row, left to right."""
    return StandardTableau._trusted(r for r, length in enumerate(shape) for _ in range(length))
