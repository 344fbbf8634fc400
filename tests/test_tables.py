"""The per-shape tables that vectors are read through, against rules that
read cells off each tableau's rows."""

from array import array
from fractions import Fraction

from altgt import associator, gt, yor
from altgt.partitions import Partition, partitions_of, self_conjugate_partitions
from altgt.scalars import I, I_POWERS, Scalar, sqrt_rational
from altgt.tableaux import enumerate_syt, syt_count, syt_ranks
from oracles import (
    add_box,
    brute_force_cover_rows,
    canonical_terms,
    phi_exponent,
    raw_product,
    raw_terms,
    remove_largest,
    transpose,
    young_rule_image,
)

SHAPES = [shape for n in range(1, 8) for shape in partitions_of(n)]


def test_syt_ranks_index_enumerate_syt():
    for shape in (shape for n in range(1, 9) for shape in partitions_of(n)):
        basis = enumerate_syt(shape)
        assert syt_ranks(shape) == {t: basis.index(t) for t in basis}
        assert syt_ranks(shape) is syt_ranks(shape)  # built once per shape


def decoded(r: int, partner: int, k: int, basis) -> dict:
    """The image of the k-th basis vector that act_simple reads off one
    generator-table entry, as tableau -> Scalar.terms()."""
    if r in (1, -1):
        assert partner == k
        return {basis[k]: ((1, (r, 0, 1)),)}
    diagonal, mixing = yor._entries(r)
    return {basis[k]: diagonal.terms(), basis[partner]: mixing.terms()}


def test_generator_table_is_youngs_rule():
    for shape in SHAPES:
        basis = enumerate_syt(shape)
        table = yor._generator_table(shape)
        assert len(table) == shape.n - 1
        for i, (distances, partners) in enumerate(table, 1):
            assert len(distances) == len(partners) == len(basis)
            for k, t in enumerate(basis):
                expected = {u: canonical_terms(raw) for u, raw in young_rule_image(t, i).items()}
                assert decoded(distances[k], partners[k], k, basis) == expected


def gaussian_radical_sum(k: int) -> Scalar:
    """(k+1 - k*i)*sqrt(k+2) + 1/(k+1) + i*sqrt(15): three radicands for most k."""
    return (Scalar.gaussian(k + 1, -k) * sqrt_rational(k + 2)
            + Scalar.rational(Fraction(1, k + 1)) + I * sqrt_rational(15))


def test_scaled_entries_are_the_products_with_youngs_entries():
    coefficients = [*I_POWERS, Scalar.rational(Fraction(-3, 7)),
                    sqrt_rational(Fraction(5, 12)), gaussian_radical_sum(4)]
    for r in (*range(-9, 0), *range(1, 10)):
        diagonal = [(1, (Fraction(1, r), Fraction(0)))]
        # sqrt(1 - 1/r^2) = sqrt(r^2 - 1)/|r|, and no term at all when r = +-1
        mixing = [(r * r - 1, (Fraction(1, abs(r)), Fraction(0)))] if r * r > 1 else []
        for c in coefficients:
            got = yor._scaled_entries(c.terms(), r)
            assert [x.terms() for x in got] == [
                canonical_terms(raw_product(raw_terms(c), entry)) for entry in (diagonal, mixing)
            ], (r, c)


def test_act_simple_is_youngs_rule_on_multi_term_vectors():
    for shape in (Partition((3, 2)), Partition((3, 2, 1))):
        basis = enumerate_syt(shape)
        vec = yor.GTVector(shape, {t: gaussian_radical_sum(k) for k, t in enumerate(basis)})
        for i in range(1, shape.n):
            raw = {}
            for t, c in vec.items():
                for u, entry in young_rule_image(t, i).items():
                    raw.setdefault(u, []).extend(raw_product(raw_terms(c), entry))
            expected = {u: canonical_terms(value) for u, value in raw.items()}
            got = {t: c.terms() for t, c in yor.act_simple(i, vec).items()}
            assert got == {u: terms for u, terms in expected.items() if terms}, (shape, i)


def test_scaled_entries_memo_is_bounded():
    # GTVector takes any coefficients, so an unbounded memo keyed on them
    # would grow without limit
    assert yor._scaled_entries.cache_info().maxsize is not None


def test_phi_table_is_the_transpose_and_its_root():
    shapes = [shape for n in range(1, 10) for shape in self_conjugate_partitions(n)]
    assert len(shapes) == 10
    for shape in shapes:
        basis = enumerate_syt(shape)
        partners, exponents = associator._phi_table(shape)
        assert [basis[r] for r in partners] == [transpose(t) for t in basis]
        assert isinstance(exponents, bytes) and len(exponents) == len(basis)
        # i^((n - d)/2) times the sign of the cellwise map from the anchor,
        # stored as its exponent k of i
        assert list(exponents) == [phi_exponent(t) for t in basis]


def test_cover_map_adds_and_removes_box_n():
    for shape in SHAPES[1:]:  # the shape 1 covers nothing
        basis = enumerate_syt(shape)
        cover = gt._cover_map(shape)
        rows = brute_force_cover_rows(shape)
        assert set(cover) == set(rows)
        for below, ranks in cover.items():
            small = list(enumerate_syt(below))
            assert [basis[r] for r in ranks] == [add_box(t, rows[below]) for t in small]
            assert [remove_largest(basis[r]) for r in ranks] == small
            assert list(ranks) == sorted(ranks)
        # every tableau of the shape comes from exactly one cover
        assert sorted(r for ranks in cover.values() for r in ranks) == list(range(len(basis)))


def test_rank_arrays_hold_every_rank_to_n_20():
    # every rank array uses one 4-byte typecode, wide enough for the largest
    # tableau count at n = 20
    largest = max(syt_count(shape) for shape in partitions_of(20))
    assert largest == 249_420_600
    shape = Partition((3, 2, 1))
    arrays = [
        *gt._cover_map(shape).values(),
        associator._phi_table(shape)[0],
        *(partners for _, partners in yor._generator_table(shape)),
    ]
    for typecode in {a.typecode for a in arrays}:
        assert array(typecode).itemsize == 4
        assert array(typecode, [largest])[0] == largest  # OverflowError if too narrow
