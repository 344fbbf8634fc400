"""Independent brute-force oracles used to freeze expected values.

Everything here deliberately avoids the library's own recursions: tableaux
come from filtering raw permutations, signs from inversion counting,
conjugates from transposing cell sets, and scalar values from Fraction
pairs on unreduced radicands, which also build the test values.  The
per-shape tables of the library are checked against rules that read cells
off `StandardTableau.rows`.
"""

import json
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import isqrt, lcm

from altgt import AltLabel, AltPath, Partition, StandardTableau
from altgt.associator import apply_phi
from altgt.gt import embed
from altgt.labels import dagger_down_set, labels
from altgt.scalars import I_POWERS, ZERO, Scalar
from altgt.tableaux import enumerate_syt, syt_ranks
from altgt.yor import GTVector, act_simple


def brute_force_syt(shape: Partition) -> set[StandardTableau]:
    """All standard tableaux of a shape by filling permutations row by row."""
    n = shape.n
    found = set()
    for perm in permutations(range(1, n + 1)):
        rows, start = [], 0
        for length in shape:
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
    cells = {(r, c) for r, p in enumerate(shape) for c in range(p)}
    flipped = {(c, r) for r, c in cells}
    rows = {}
    for r, _ in flipped:
        rows[r] = rows.get(r, 0) + 1
    return Partition([rows[r] for r in sorted(rows)])


def equivalent(a: AltLabel, b: AltLabel) -> bool:
    """Same representation, read off content rather than object identity:
    the same partition and sign, or unsigned with transposed cell sets."""
    if a.n != b.n:
        raise ValueError(f"labels of different sizes {a.n} and {b.n}")
    if (a.partition, a.sign) == (b.partition, b.sign):
        return True
    return not a.is_signed() and not b.is_signed() and transpose_cells(a.partition) == b.partition


def brute_force_cover_rows(shape: Partition) -> dict[Partition, int]:
    """Each partition one box below, mapped to the row of the deleted cell,
    by deleting each cell of the raw cell set that has no cell to its right
    or below it."""
    cells = {(r, c) for r, p in enumerate(shape) for c in range(p)}
    found = {}
    for r, c in cells:
        if (r + 1, c) in cells or (r, c + 1) in cells:
            continue
        rest = cells - {(r, c)}
        if rest:
            lengths = [sum(1 for rr, _ in rest if rr == row) for row in range(len(shape))]
            found[Partition([ln for ln in lengths if ln])] = r
    return found


def brute_force_down_set(shape: Partition) -> set[Partition]:
    """Partitions one box below, by corner-cell deletion."""
    return set(brute_force_cover_rows(shape))


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


def class_signature(path: AltPath) -> tuple:
    """One key per level, equal for equal or conjugate labels: a signed
    label's partition and sign, an unsigned partition's set with its raw
    transpose.  Equal iff the paths are equivalent."""
    return tuple(map(_label_class, path))


@lru_cache(maxsize=None)
def _label_class(label: AltLabel):
    if label.is_signed():
        return label.partition, label.sign
    return frozenset({label.partition, transpose_cells(label.partition)})


def scanned_bratteli_edges(max_n: int) -> tuple:
    """Edges of the alternating branching graph on levels 2..max_n, by
    scanning every label of each level, not one per class: each pair it
    branches to, both ends mapped to the class member that sorts first (the
    label or its raw transpose), deduplicated and sorted by (n, upper name,
    lower name)."""
    def canonical(label):
        if label.is_signed():
            return label
        return min(label, AltLabel(transpose_cells(label.partition)), key=AltLabel.sort_key)

    edges = {
        ((n, str(canonical(label))), (n - 1, str(canonical(below))))
        for n in range(3, max_n + 1) for label in labels(n) for below in dagger_down_set(label)
    }
    return tuple(sorted(edges, key=lambda e: (e[0][0], e[0][1], e[1][1])))


def branch_count_r(path: AltPath) -> int:
    """Number of signed-to-unsigned descents along the path."""
    count = 0
    for below, above in zip(path, path[1:]):
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


def _cells(t: StandardTableau) -> dict[int, tuple[int, int]]:
    return {e: (r, c) for r, row in enumerate(t.rows) for c, e in enumerate(row)}


def young_rule_image(t: StandardTableau, i: int) -> dict:
    """The image of v_t under (i, i+1) by Young's rule, each coefficient a
    raw value (see below): v_t when i and i+1 share a row, -v_t when they
    share a column, else (1/a) v_t + sqrt(1 - 1/a^2) v_t' with a the axial
    distance from i to i+1 and t' the tableau with i and i+1 exchanged."""
    (r1, c1), (r2, c2) = _cells(t)[i], _cells(t)[i + 1]
    if r1 == r2:
        return {t: [(1, (Fraction(1), Fraction(0)))]}
    if c1 == c2:
        return {t: [(1, (Fraction(-1), Fraction(0)))]}
    a = (c2 - r2) - (c1 - r1)
    swap = {i: i + 1, i + 1: i}
    swapped = StandardTableau([[swap.get(e, e) for e in row] for row in t.rows])
    return {
        t: [(1, (Fraction(1, a), Fraction(0)))],
        swapped: [(a * a - 1, (Fraction(1, abs(a)), Fraction(0)))],
    }


def transpose(t: StandardTableau) -> StandardTableau:
    """The tableau whose rows are the columns of t."""
    rows = t.rows
    return StandardTableau([[row[c] for row in rows if c < len(row)] for c in range(len(rows[0]))])


def add_box(t: StandardTableau, row: int) -> StandardTableau:
    """t with the entry n + 1 put at the end of a 0-based row, which may be
    the new row just below the last."""
    rows = [list(r) for r in t.rows] + [[]]
    rows[row].append(t.n + 1)
    return StandardTableau([r for r in rows if r])


def remove_largest(t: StandardTableau) -> StandardTableau:
    """t without its entry n."""
    rows = [[e for e in row if e != t.n] for row in t.rows]
    return StandardTableau([r for r in rows if r])


def restricted(vec, shape: Partition):
    """The terms of vec whose tableaux, without entry n, have the given shape,
    written on those smaller tableaux: the restriction that undoes an
    inclusion, read off each tableau's rows."""
    smaller = ((remove_largest(t), c) for t, c in vec.items())
    return GTVector(shape, {t: c for t, c in smaller if t.shape == shape})


def append_box_cover_map(shape: Partition) -> dict[Partition, list[int]]:
    """The cover map built tableau by tableau: each tableau of each partition
    one box below, extended by box n with `add_box` in the row of the cell
    that partition lacks and looked up in `syt_ranks(shape)`.  Unlike the
    rest of this module it reads the library's enumeration, ranks and down
    set order; it is the second construction of the map."""
    rank, rows = syt_ranks(shape), brute_force_cover_rows(shape)
    return {
        below: [rank[add_box(t, rows[below])] for t in enumerate_syt(below)]
        for below in shape.down_set()
    }


@lru_cache(maxsize=None)
def anchor_tableau(shape: Partition) -> StandardTableau:
    """The anchor of a self-conjugate shape with d diagonal cells: when its
    last diagonal cell (d - 1, d - 1) ends row d - 1, the anchor of the shape
    without that cell with n added there; otherwise the rows filled in
    order."""
    d = sum(1 for r, part in enumerate(shape) if part > r)
    if shape.n > 1 and shape[d - 1] == d:
        below = Partition([part - (r == d - 1) for r, part in enumerate(shape) if part - (r == d - 1)])
        return add_box(anchor_tableau(below), d - 1)
    entries = iter(range(1, shape.n + 1))
    return StandardTableau([[next(entries) for _ in range(part)] for part in shape])


def phi_exponent(t: StandardTableau) -> int:
    """The exponent k of the intertwiner's root i^k on t: (n - d)/2 for d
    diagonal cells, plus 2 when the cellwise map from the anchor to t is odd
    by inversion counting, mod 4."""
    shape = t.shape
    d = sum(1 for r, part in enumerate(shape) if part > r)
    mapping = {}
    for r, row in enumerate(anchor_tableau(shape).rows):
        for c, entry in enumerate(row):
            mapping[entry] = t.rows[r][c]
    return ((shape.n - d) // 2 + (0 if inversion_sign(mapping) == 1 else 2)) % 4


def scalar_walk(path: AltPath) -> GTVector:
    """The unnormalized GT vector of a path in the library's Scalar
    arithmetic: the base tableau, `embed` at every step, and w + phi(w) or
    w - phi(w), by `associator.apply_phi` and GTVector `+`/`-`, at a signed
    step over an unsigned label.  Unlike the rest of this module it uses the
    library's maps; it is the walk before coefficients became exponents."""
    first = path[0].partition
    vec = GTVector.basis(enumerate_syt(first)[0])
    for prev, head in zip(path, path[1:]):
        vec = embed(vec, head.partition)
        if head.is_signed() and not prev.is_signed():
            mirrored = apply_phi(vec)
            vec = vec + mirrored if head.sign == 1 else vec - mirrored
    return vec


# The dense matrix path the yor and assoc commands took before they printed
# sparse rows a row at a time, kept as the reference for their output.  Like
# scalar_walk it uses the library's maps; only the writers are under test.


def dense_rep_matrix(shape: Partition, i: int) -> list[list[Scalar]]:
    """The matrix of (i, i+1) as dim lists of dim entries, zeros included;
    column j is act_simple of the basis vector of tableau j."""
    basis, rank = enumerate_syt(shape), syt_ranks(shape)
    mat = [[ZERO] * len(basis) for _ in basis]
    for col, t in enumerate(basis):
        for u, c in act_simple(i, GTVector.basis(t)).items():
            mat[rank[u]][col] = c
    return mat


def matrix_text(mat) -> str:
    """Every cell's text, left-justified to its column's widest, two spaces
    apart, trailing spaces stripped."""
    cells = [[str(x) for x in row] for row in mat]
    widths = [max(len(cells[r][c]) for r in range(len(cells))) for c in range(len(cells[0]))]
    lines = []
    for row in cells:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return "\n".join(lines)


def matrix_latex(mat) -> str:
    body = " \\\\\n".join(" & ".join(x.latex() for x in row) for row in mat)
    return f"\\begin{{pmatrix}}\n{body}\n\\end{{pmatrix}}"


def dense_yor_output(shape: Partition, i: int, fmt: str) -> str:
    """The stdout of `yor shape --gen i --format fmt`, built whole."""
    mat = dense_rep_matrix(shape, i)
    if fmt == "json":
        payload = {
            "shape": shape.to_json(),
            "generator": i,
            "basis": [t.to_json() for t in enumerate_syt(shape)],
            "rows": [[x.to_json() for x in row] for row in mat],
        }
        return json.dumps(payload, indent=2) + "\n"
    return (matrix_latex(mat) if fmt == "latex" else matrix_text(mat)) + "\n"


def dense_assoc_output(shape: Partition, fmt: str) -> str:
    """The stdout of `assoc shape --format fmt`, built whole."""
    rows = [(t, I_POWERS[phi_exponent(t)], transpose(t)) for t in enumerate_syt(shape)]
    if fmt == "json":
        payload = [{"tableau": t.to_json(), "coeff": c.to_json(), "conjugate": tc.to_json()}
                   for t, c, tc in rows]
        return json.dumps(payload, indent=2) + "\n"
    return matrix_text(rows) + "\n"


# The scalar ring, without altgt.scalars arithmetic.  A raw value is a list
# of (q, (re, im)) pairs with Fraction parts, meaning the sum of
# (re + im*i)*sqrt(q) over the pairs; q may repeat and need not be squarefree.


def raw_terms(x) -> list:
    """The raw value of a Scalar, read off the triples of its terms()."""
    return [(q, (Fraction(a, d), Fraction(b, d))) for q, (a, b, d) in x.terms()]


def raw_sum(*values) -> list:
    return [term for value in values for term in value]


def negated(value) -> list:
    return [(q, (-re, -im)) for q, (re, im) in value]


def conjugated(value) -> list:
    return [(q, (re, -im)) for q, (re, im) in value]


def raw_product(u, v) -> list:
    # radicands multiply unreduced
    return [(q1 * q2, (r1 * r2 - i1 * i2, r1 * i2 + i1 * r2))
            for q1, (r1, i1) in u for q2, (r2, i2) in v]


def raw_inverse(value) -> list:
    """1/(c*sqrt(q)) = conj(c)/(|c|^2 * q) * sqrt(q) for one nonzero term."""
    ((q, (re, im)),) = value
    scale = (re * re + im * im) * q
    return [(q, (re / scale, -im / scale))]


def canonical_terms(value) -> tuple:
    """The terms() a Scalar equal to the raw value must have: squarefree
    radicands in increasing order, each with the triple (a, b, d) of
    (a + b*i)/d where d is the lcm of the reduced denominators."""
    collected: dict[int, tuple[Fraction, Fraction]] = {}
    for q, (re, im) in value:
        g = max(k for k in range(1, isqrt(q) + 1) if q % (k * k) == 0)
        s = q // (g * g)
        old_re, old_im = collected.get(s, (Fraction(0), Fraction(0)))
        collected[s] = (old_re + g * Fraction(re), old_im + g * Fraction(im))
    out = []
    for s in sorted(collected):
        re, im = collected[s]
        if re or im:
            d = lcm(re.denominator, im.denominator)
            out.append((s, ((re * d).numerator, (im * d).numerator, d)))
    return tuple(out)


def scalar_from_json(data) -> Scalar:
    """The Scalar whose to_json() is `data`.  Its terms are canonical_terms
    of the raw value, handed to the trusted Scalar._of, so no altgt.scalars
    arithmetic or canonicalization runs."""
    raw = [(entry["radicand"], (Fraction(entry["re"]), Fraction(entry["im"])))
           for entry in data]
    return Scalar._of(dict(canonical_terms(raw)))


# The text and LaTeX renderings of a Scalar, read off its terms(): one
# coefficient formatter and one loop over the terms per rendering.


def _reference_text_coefficient(c: tuple[int, int, int]) -> str:
    """A nonzero triple as text: 1/2, -i, 3/2*i, 1+i."""
    a, b, d = c
    re, im = Fraction(a, d), Fraction(b, d)
    if not b:
        return str(re)
    im_part = "i" if im == 1 else "-i" if im == -1 else f"{im}*i"
    if not a:
        return im_part
    joiner = "" if im_part.startswith("-") else "+"
    return f"{re}{joiner}{im_part}"


def _reference_latex_coefficient(c: tuple[int, int, int]) -> str:
    """A nonzero triple as LaTeX: \\frac{1}{2}, -i, 1+2i."""
    a, b, d = c

    def frac(n: int, unit: str = "") -> str:
        f = Fraction(abs(n), d)
        if f.denominator != 1:
            body = f"\\frac{{{f.numerator}}}{{{f.denominator}}}{unit}"
        else:
            body = unit if f == 1 and unit else f"{f.numerator}{unit}"
        return ("-" if n < 0 else "") + body

    if not b:
        return frac(a)
    im_part = frac(b, "i")
    if not a:
        return im_part
    joiner = "" if im_part.startswith("-") else "+"
    return f"{frac(a)}{joiner}{im_part}"


def reference_text(x) -> str:
    terms = x.terms()
    if not terms:
        return "0"
    parts = []
    for q, c in terms:
        cs = _reference_text_coefficient(c)
        mixed = "+" in cs[1:] or "-" in cs[1:]
        wrapped = f"({cs})" if mixed else cs
        if q == 1:
            parts.append(wrapped if len(terms) > 1 else cs)
        elif c == (1, 0, 1):
            parts.append(f"sqrt({q})")
        elif c == (-1, 0, 1):
            parts.append(f"-sqrt({q})")
        else:
            parts.append(f"{wrapped}*sqrt({q})")
    return " + ".join(parts)


def reference_latex(x) -> str:
    terms = x.terms()
    if not terms:
        return "0"
    parts = []
    for q, c in terms:
        cl = _reference_latex_coefficient(c)
        mixed = "+" in cl[1:] or "-" in cl[1:]
        if q == 1:
            parts.append(f"\\left({cl}\\right)" if mixed and len(terms) > 1 else cl)
        else:
            rad = f"\\sqrt{{{q}}}"
            if c == (1, 0, 1):
                parts.append(rad)
            elif c == (-1, 0, 1):
                parts.append("-" + rad)
            elif mixed:
                parts.append(f"\\left({cl}\\right){rad}")
            else:
                parts.append(f"{cl}{rad}")
    return " + ".join(parts)
