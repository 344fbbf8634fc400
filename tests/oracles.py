"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the library's own recursions: tableaux
come from filtering raw permutations, signs from inversion counting, and
conjugates from transposing cell sets.
"""

from itertools import permutations, product

from altgt import AltLabel, AltPath, Partition, StandardTableau


def brute_force_syt(shape: Partition) -> set[StandardTableau]:
    """All standard tableaux of a shape by filling permutations row by row."""
    n = shape.n
    found = set()
    for perm in permutations(range(1, n + 1)):
        rows, start = [], 0
        for length in shape.parts:
            rows.append(perm[start:start + length])
            start += length
        ok = True
        for r, row in enumerate(rows):
            for c, entry in enumerate(row):
                if c + 1 < len(row) and row[c + 1] < entry:
                    ok = False
                    break
                if r + 1 < len(rows) and c < len(rows[r + 1]) and rows[r + 1][c] < entry:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            found.add(StandardTableau(rows))
    return found


def inversion_sign(mapping: dict[int, int]) -> int:
    """Sign of a permutation given as a dict, by counting inversions."""
    keys = sorted(mapping)
    images = [mapping[k] for k in keys]
    inversions = sum(
        1
        for a in range(len(images))
        for b in range(a + 1, len(images))
        if images[a] > images[b]
    )
    return -1 if inversions % 2 else 1


def transpose_cells(shape: Partition) -> Partition:
    """Conjugate partition via the raw cell set."""
    cells = {(r, c) for r, p in enumerate(shape.parts) for c in range(p)}
    flipped = {(c, r) for r, c in cells}
    rows = {}
    for r, _ in flipped:
        rows[r] = rows.get(r, 0) + 1
    return Partition([rows[r] for r in sorted(rows)])


def brute_force_down_set(shape: Partition) -> set[Partition]:
    """Partitions one box below, by deleting each cell of the raw cell set
    that has no cell to its right or below it."""
    cells = {(r, c) for r, p in enumerate(shape.parts) for c in range(p)}
    found = set()
    for r, c in cells:
        if (r + 1, c) in cells or (r, c + 1) in cells:
            continue
        rest = cells - {(r, c)}
        if rest:
            lengths = [sum(1 for rr, _ in rest if rr == row) for row in range(len(shape.parts))]
            found.add(Partition([ln for ln in lengths if ln]))
    return found


def brute_force_class_members(path: AltPath) -> list[AltPath]:
    """Every path equivalent to this one, endpoints allowed to vary, by
    trying each choice of a label or its conjugate at every level."""
    choice_sets = [
        (label,) if label.is_signed() else (label, AltLabel(transpose_cells(label.partition)))
        for label in path
    ]
    members = []
    for combo in product(*choice_sets):
        try:
            members.append(AltPath(combo))
        except ValueError:
            pass  # some link does not branch
    return sorted(members, key=AltPath.sort_key)


def branch_count_r(path: AltPath) -> int:
    """Number of signed-to-unsigned descents along the path."""
    count = 0
    for below, above in zip(path.labels, path.labels[1:]):
        if below.is_signed() and not above.is_signed():
            count += 1
    return count


def tableau_facts_from_rows(rows) -> tuple[tuple[int, ...], list, list]:
    """A tableau's row word, the (row, column) of each entry 1..n and the
    shape of the entries 1..k for each k = 1..n, read off its rows."""
    row_word = tuple(e for row in rows for e in row)
    cells = {e: (r, c) for r, row in enumerate(rows) for c, e in enumerate(row)}
    positions = [cells[e] for e in range(1, len(row_word) + 1)]
    prefix_shapes = []
    for k in range(1, len(row_word) + 1):
        lengths = [sum(1 for e in row if e <= k) for row in rows]
        prefix_shapes.append(Partition([ln for ln in lengths if ln]))
    return row_word, positions, prefix_shapes
