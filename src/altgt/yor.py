"""Young's orthogonal representation of the symmetric group.

Vectors live in the free span of the standard tableaux of one shape, with
coefficients in the exact scalar ring.  The adjacent transposition (i, i+1)
sends v_T to (1/r) v_T + sqrt(1 - 1/r^2) v_{T'}, Young's rule, where T' swaps
i and i+1 and r is the axial distance from i to i+1 in T; r is 1 or -1 when
they share a row or a column of T, and then the mixing term is zero.

Maps are applied to vectors; rep_matrix is the one place a map becomes a
matrix, a list of rows, each a dict from column to nonzero entry, in the
enumeration order of the tableaux: at most two entries per column.

Inside the library a vector maps the rank of each tableau, its index in
``enumerate_syt(shape)`` (row-word order), to its coefficient.  Tableaux
are the parse and print type: the ``GTVector`` constructor, ``basis`` and
``coefficient`` turn a tableau into its rank through ``syt_ranks``, and
``items()`` and ``support()`` turn ranks back into tableaux, in rank order.

Only the public entry points check their input: the ``GTVector``
constructor, which checks every tableau's shape and drops zero
coefficients, and ``GTVector.basis``.  Every other vector is built from
trusted terms through ``GTVector._trusted``: no stored coefficient is zero
and every rank is below the shape's dimension.  Only ``act_simple`` and
``+``/``-`` can send two terms to the same rank; they add through
``_accumulate``, which drops a term whose sum cancels.  Negation,
``scale``, ``apply_phi`` and ``embed`` are injective on ranks, and a
product of nonzero exact scalars is nonzero, so they cannot create a zero.

The work that is the same for every vector of a shape is done once per
shape, in lazily built cached tables that map ranks to ranks.
``act_simple`` reads r and the rank of T' from ``_generator_table``;
``associator.apply_phi`` reads each tableau's transpose and the exponent k
of its fourth root from ``_phi_table`` and multiplies by ``I_POWERS[k]``,
and ``associator.phi_exponents`` reads the same table for the gt walk's
vectors, maps rank -> k;
``gt.embed`` reads the ranks that adding box n gives from the cover map,
through ``gt.carry``, which moves the walk's exponent maps too.
``act_simple`` reads c/r and c*sqrt(1 - 1/r^2) for each coefficient c from
``_scaled_entries``, a memo on (c.terms(), r) whose values are shared, as no
Scalar is mutated.  An audit meets few pairs, about 1,300 to n = 11, but the
memo is bounded, at 4096, because ``GTVector`` takes any coefficients.
Printing reads each tableau's text, LaTeX or JSON from ``_tableau_memo``, a
list over the ranks of one shape filled as vectors ask for it, so a basis
renders each tableau once and one vector only its own; the last 8 (shape,
style) pairs are kept.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import lru_cache

from .partitions import Partition
from .scalars import I, ONE, ZERO, Scalar, sqrt_rational
from .tableaux import StandardTableau, enumerate_syt, syt_ranks


# how GTVector.latex writes the four roots of unity as coefficients, by terms()
_UNIT_LATEX = {c.terms(): s for c, s in ((ONE, ""), (-ONE, "-"), (I, "i "), (-I, "-i "))}


class GTVector:
    """A finite linear combination of tableau basis vectors of one shape."""

    __slots__ = ("_shape", "_terms")

    def __init__(self, shape: Partition, terms=None):
        clean: dict[int, Scalar] = {}
        if terms:
            ranks = syt_ranks(shape)
            for tableau, coeff in terms.items():
                if tableau.shape != shape:
                    raise ValueError(
                        f"tableau {tableau} has shape {tableau.shape}, expected {shape}"
                    )
                if not isinstance(coeff, Scalar):
                    coeff = Scalar.rational(coeff)
                if coeff.is_zero():
                    continue
                clean[ranks[tableau]] = coeff
        self._shape = shape
        self._terms = clean

    @classmethod
    def _trusted(cls, shape: Partition, terms: dict) -> "GTVector":
        """A vector from terms (rank -> Scalar) known to have nonzero
        coefficients and ranks of this shape; nothing is checked."""
        vec = object.__new__(cls)
        vec._shape = shape
        vec._terms = terms
        return vec

    @classmethod
    def basis(cls, tableau: StandardTableau) -> "GTVector":
        return cls(tableau.shape, {tableau: ONE})

    @classmethod
    def zero(cls, shape: Partition) -> "GTVector":
        return cls._trusted(shape, {})

    @property
    def shape(self) -> Partition:
        return self._shape

    def items(self) -> tuple[tuple[StandardTableau, Scalar], ...]:
        """The terms in rank order, the order of enumerate_syt."""
        basis, terms = enumerate_syt(self._shape), self._terms
        return tuple((basis[r], terms[r]) for r in sorted(terms))

    def coefficient(self, tableau: StandardTableau) -> Scalar:
        if tableau.shape != self._shape:
            return ZERO
        return self._terms.get(syt_ranks(self._shape)[tableau], ZERO)

    def support(self) -> tuple[StandardTableau, ...]:
        return tuple(t for t, _ in self.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def _require_same_space(self, other: "GTVector") -> None:
        if self._shape != other._shape:
            raise ValueError(f"mixed shapes {self._shape} and {other._shape}")

    def __add__(self, other: "GTVector") -> "GTVector":
        return self._merged(other, negate=False)

    def __sub__(self, other: "GTVector") -> "GTVector":
        return self._merged(other, negate=True)

    def _merged(self, other: "GTVector", negate: bool) -> "GTVector":
        """self + other, or self - other when negate is set."""
        self._require_same_space(other)
        merged = dict(self._terms)
        for t, c in other._terms.items():
            _accumulate(merged, t, -c if negate else c)
        return GTVector._trusted(self._shape, merged)

    def __neg__(self) -> "GTVector":
        return GTVector._trusted(self._shape, {t: -c for t, c in self._terms.items()})

    def scale(self, scalar) -> "GTVector":
        if not isinstance(scalar, Scalar):
            scalar = Scalar.rational(scalar)
        if scalar.is_zero():
            return GTVector.zero(self._shape)
        return GTVector._trusted(self._shape, {t: scalar * c for t, c in self._terms.items()})

    def inner(self, other: "GTVector") -> Scalar:
        """Hermitian inner product, conjugate-linear in this vector."""
        self._require_same_space(other)
        total = ZERO
        for t, c in self._terms.items():
            oc = other._terms.get(t)
            if oc is not None:
                total = total + c.conjugate() * oc
        return total

    def __eq__(self, other) -> bool:
        if not isinstance(other, GTVector):
            return NotImplemented
        return self._shape == other._shape and self._terms == other._terms

    def rendered_terms(self, style: str) -> list[tuple[str, Scalar]]:
        """The terms in rank order as (tableau text, coefficient), the tableau
        written in one of the ``_TABLEAU_STYLES``.  Each tableau is rendered
        the first time any vector of its shape asks for it in that style."""
        memo, terms = _tableau_memo(self._shape, style), self._terms
        basis, render = enumerate_syt(self._shape), _TABLEAU_STYLES[style]
        out = []
        for r in sorted(terms):
            text = memo[r]
            if text is None:
                text = memo[r] = render(basis[r])
            out.append((text, terms[r]))
        return out

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        return " + ".join([f"({c})*v[{t}]" for t, c in self.rendered_terms("text")])

    def latex(self) -> str:
        """The vector as c v_{T} + ..., with a fourth root of unity written as
        a sign or i and any other coefficient bracketed when it is a sum."""
        if not self._terms:
            return "0"
        terms = []
        for t, c in self.rendered_terms("latex"):
            coeff = _UNIT_LATEX.get(c.terms())
            if coeff is None:
                coeff = c.latex()
                if "+" in coeff[1:] or "-" in coeff[1:]:
                    coeff = f"\\left({coeff}\\right)"
            terms.append(f"{coeff}v_{{{t}}}")
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"GTVector({self._shape!r}, {dict(self.items())!r})"


# how rendered_terms writes a tableau: as text, as a LaTeX subscript, and as
# JSON 8 spaces deep, where `gt --format json` puts the tableau of a term
_TABLEAU_STYLES = {"text": str, "latex": lambda t: t.latex(), "json": lambda t: t.json_text(8)}


@lru_cache(maxsize=8)
def _tableau_memo(shape: Partition, style: str) -> list:
    """The text of each tableau of a shape in one style, by rank, None until
    rendered_terms first reads it; a few (shape, style) pairs are kept."""
    return [None] * len(enumerate_syt(shape))


def _accumulate(terms: dict, rank: int, coeff: Scalar) -> None:
    """Add a nonzero coefficient at a rank, dropping the term if it cancels."""
    cur = terms.get(rank)
    if cur is None:
        terms[rank] = coeff
        return
    total = cur + coeff
    if total.is_zero():
        del terms[rank]
    else:
        terms[rank] = total


@lru_cache(maxsize=None)
def _entries(r: int) -> tuple[Scalar, Scalar]:
    """The coefficients 1/r and sqrt(1 - 1/r^2) at axial distance r."""
    return Scalar.rational(Fraction(1, r)), sqrt_rational(Fraction(r * r - 1, r * r))


@lru_cache(maxsize=4096)
def _scaled_entries(terms: tuple, r: int) -> tuple[Scalar, Scalar]:
    """c/r and c*sqrt(1 - 1/r^2) for the coefficient c whose terms() is terms."""
    coeff = Scalar._of(dict(terms))
    return tuple(coeff * entry for entry in _entries(r))


@lru_cache(maxsize=None)
def _generator_table(shape: Partition) -> tuple[tuple[array, array], ...]:
    """Young's rule on the ranks of one shape: for each generator (i, i+1),
    item i - 1, two arrays over ranks, the axial distance r from i to i+1
    in T and the rank of T'.  r is 1 when i and i+1 share a row and -1 when
    they share a column, and then the partner is T itself.  The arrays are
    shared through the cache, and nothing modifies them."""
    basis, rank = enumerate_syt(shape), syt_ranks(shape)
    table = []
    for i in range(1, shape.n):
        distances, partners = array("b"), array("i")
        for k, tableau in enumerate(basis):
            word = tableau.word
            r1, r2 = word[i - 1], word[i]
            # read off the word, not off |axial_distance| == 1: under a faulty (doubled)
            # axial_distance that check would swap two entries of one row or column, and the
            # rank lookup would raise KeyError instead of the yor audit failing
            if r1 == r2:
                distances.append(1)
                partners.append(k)
            elif word[: i - 1].count(r1) == word[: i - 1].count(r2):
                # same column: entry i+1 sits directly below entry i
                distances.append(-1)
                partners.append(k)
            else:
                distances.append(tableau.axial_distance(i))
                partners.append(rank[tableau.swap_adjacent(i)])
        table.append((distances, partners))
    return tuple(table)


def act_simple(i: int, vec: GTVector) -> GTVector:
    """Apply the adjacent transposition (i, i+1) to a vector."""
    n = vec.shape.n
    if not 1 <= i <= n - 1:
        raise ValueError(f"generator index {i} out of range 1..{n - 1}")
    distances, partners = _generator_table(vec.shape)[i - 1]
    out: dict[int, Scalar] = {}
    for rank, coeff in vec._terms.items():
        diagonal, mixing = _scaled_entries(coeff.terms(), distances[rank])
        _accumulate(out, rank, diagonal)
        if mixing:
            _accumulate(out, partners[rank], mixing)
    return GTVector._trusted(vec.shape, out)


def act_word(word, vec: GTVector) -> GTVector:
    """Apply a product of adjacent transpositions; the last index acts first."""
    for i in reversed(tuple(word)):
        vec = act_simple(i, vec)
    return vec


def rep_matrix(shape: Partition, i: int) -> list[dict[int, Scalar]]:
    """Matrix of (i, i+1) as sparse rows, column -> nonzero entry; column j is s_i e_j."""
    rows: list[dict[int, Scalar]] = [{} for _ in enumerate_syt(shape)]
    for col in range(len(rows)):
        for row, c in act_simple(i, GTVector._trusted(shape, {col: ONE}))._terms.items():
            rows[row][col] = c
    return rows
