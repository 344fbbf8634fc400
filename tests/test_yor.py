from collections import Counter
from fractions import Fraction

import pytest

from altgt.associator import apply_phi
from altgt.partitions import Partition, partitions_of
from altgt.scalars import I, ONE, ZERO, Scalar, sqrt_rational
from altgt.tableaux import StandardTableau, enumerate_syt
from altgt.yor import GTVector, act_simple, act_word, rep_matrix
from altgt import yor
from altgt.geodesics import geodesic_representatives
from altgt.gt import embed, gt_vector
from altgt.labels import AltLabel
from oracles import dense_rep_matrix


def vec(text):
    return GTVector.basis(StandardTableau.parse(text))


def test_vector_canonicalization():
    t1, t2 = enumerate_syt(Partition((2, 1)))
    v = GTVector(Partition((2, 1)), {t1: ONE, t2: Scalar()})
    assert v.support() == (t1,)
    assert v.coefficient(t2).is_zero()
    assert v.coefficient(StandardTableau.parse("123")).is_zero()  # another shape
    assert (v - v).is_zero()


def test_vector_shape_guard():
    t = StandardTableau.parse("12/3")
    with pytest.raises(ValueError):
        GTVector(Partition((3,)), {t: ONE})
    with pytest.raises(ValueError):
        GTVector.basis(t) + GTVector.basis(StandardTableau.parse("123"))


def assert_trusted_form(w):
    # what every library-built vector promises without a check: terms listed
    # in enumerate_syt order, no zero coefficient, one shape throughout
    listed = [t for t, _ in w.items()]
    assert listed == [t for t in enumerate_syt(w.shape) if not w.coefficient(t).is_zero()]
    assert all(not c.is_zero() for _, c in w.items())
    assert all(t.shape == w.shape for t in listed)
    assert w.support() == tuple(listed)


def test_library_results_keep_the_trusted_form():
    for n in range(2, 7):
        for shape in partitions_of(n):
            for t in enumerate_syt(shape):
                v = GTVector.basis(t)
                results = [-v, v.scale(0), v.scale(sqrt_rational(2))]
                for i in range(1, n):
                    image = act_simple(i, v)
                    results += [image, image + v, image - v, act_simple(i, image + v)]
                if shape.is_self_conjugate():
                    mirrored = apply_phi(v)
                    results += [mirrored, v + mirrored, mirrored - v, apply_phi(v - mirrored)]
                mixed = v + act_simple(n - 1, v)
                ups = [up for up in partitions_of(n + 1) if shape in up.down_set()]
                results += [embed(w, up) for w in (v, mixed) for up in ups]
                for w in results:
                    assert_trusted_form(w)
                assert (v - v).is_zero() and (v - v).items() == ()
                assert v.scale(0).is_zero()


def test_inner_product_is_hermitian():
    t1, t2 = enumerate_syt(Partition((2, 1)))
    v = GTVector(Partition((2, 1)), {t1: ONE, t2: I})
    w = GTVector(Partition((2, 1)), {t1: I})
    assert v.inner(w) == I
    assert w.inner(v) == -I  # conjugate of the above
    assert v.inner(v) == Scalar.rational(2)


def test_vector_latex():
    shape = Partition((3, 1))
    t1, t2, t3 = enumerate_syt(shape)
    # the four roots are written bare, and i keeps a space before v
    units = GTVector(shape, {t1: ONE, t2: -I, t3: I})
    assert units.latex() == "v_{123,4} + -i v_{124,3} + i v_{134,2}"
    assert (-units).latex() == "-v_{123,4} + i v_{124,3} + -i v_{134,2}"
    mixed = GTVector(shape, {t1: Scalar.gaussian(1, 1), t2: -ONE, t3: Scalar.gaussian(1, -1)})
    assert mixed.latex() == "\\left(1+i\\right)v_{123,4} + -v_{124,3} + \\left(1-i\\right)v_{134,2}"
    half_sqrt2 = sqrt_rational(2).inverse()
    normalized = GTVector(shape, {t1: half_sqrt2, t2: -I * half_sqrt2, t3: ONE + sqrt_rational(2)})
    assert normalized.latex() == (
        "\\frac{1}{2}\\sqrt{2}v_{123,4} + -\\frac{1}{2}i\\sqrt{2}v_{124,3}"
        " + \\left(1 + \\sqrt{2}\\right)v_{134,2}"
    )
    # a complex coefficient times a radical is a product: only its coefficient is bracketed
    product = Scalar.gaussian(Fraction(1, 2), Fraction(-1, 2)) * sqrt_rational(3)
    assert GTVector(shape, {t1: product}).latex() == (
        "\\left(\\frac{1}{2}-\\frac{1}{2}i\\right)\\sqrt{3}v_{123,4}"
    )
    assert GTVector.zero(shape).latex() == "0"


def test_one_vector_renders_only_its_terms(monkeypatch):
    # the tableau memo is filled lazily: printing one vector of an n = 12
    # shape renders its own tableaux and none of the others
    v = gt_vector(geodesic_representatives(AltLabel.parse("5,4,2,1"))[2000])
    rendered = []

    def counted(t):
        rendered.append(t)
        return StandardTableau.joined(t, "/", " ")

    yor._tableau_memo.cache_clear()
    monkeypatch.setattr(StandardTableau, "__str__", counted)
    text = str(v)
    assert len(v.support()) > 1 and Counter(rendered) == Counter(v.support())
    assert text == " + ".join(f"({c})*v[{t.joined('/', ' ')}]" for t, c in v.items())
    assert str(v) == text and len(rendered) == len(v.support())


def test_tableau_memo_is_bounded():
    assert yor._tableau_memo.cache_info().maxsize is not None


def test_same_row_fixes():
    v = vec("123")
    assert act_simple(1, v) == v
    assert act_simple(2, v) == v


def test_same_column_negates():
    v = GTVector.basis(StandardTableau.parse("1/2/3"))
    assert act_simple(1, v) == -v


def test_mixing_case():
    shape = Partition((2, 1))
    t1 = StandardTableau.parse("12/3")
    t2 = StandardTableau.parse("13/2")
    got = act_simple(2, GTVector.basis(t1))
    expected = GTVector(
        shape,
        {
            t1: Scalar.rational(Fraction(-1, 2)),
            t2: sqrt_rational(Fraction(3, 4)),
        },
    )
    assert got == expected


def test_rep_matrix_values():
    # sparse rows: row r maps each column with a nonzero entry to it
    assert rep_matrix(Partition((3,)), 2) == [{0: ONE}]
    assert rep_matrix(Partition((1, 1, 1)), 1) == [{0: -ONE}]
    m = rep_matrix(Partition((2, 1)), 2)
    s = sqrt_rational(Fraction(3, 4))
    assert m == [
        {0: Scalar.rational(Fraction(-1, 2)), 1: s},
        {0: s, 1: Scalar.rational(Fraction(1, 2))},
    ]
    # densified, the rows are the dense oracle's, and no zero is stored
    for n in range(2, 7):
        for shape in partitions_of(n):
            for i in range(1, n):
                rows = rep_matrix(shape, i)
                assert all(not x.is_zero() for row in rows for x in row.values())
                dense = [[row.get(c, ZERO) for c in range(len(rows))] for row in rows]
                assert dense == dense_rep_matrix(shape, i)


def test_act_word_order_and_identity():
    v = GTVector.basis(StandardTableau.parse("12/3"))
    assert act_word((), v) == v
    assert act_word((1, 1), v) == v
    # rightmost acts first: word (2, 1) applies generator 1, then 2
    step = act_simple(1, v)
    assert act_word((2, 1), v) == act_simple(2, step)


def test_braid_relation_on_vectors():
    shape = Partition((2, 1))
    for t in enumerate_syt(shape):
        v = GTVector.basis(t)
        assert act_word((1, 2, 1), v) == act_word((2, 1, 2), v)


def test_index_range_errors():
    v = GTVector.basis(StandardTableau.parse("12/3"))
    with pytest.raises(ValueError):
        act_simple(0, v)
    with pytest.raises(ValueError):
        act_simple(3, v)


def test_defining_identities_all_shapes():
    # involution, braid, distant commutation, symmetry with real entries,
    # each applied to every tableau basis vector
    for n in range(2, 6):
        for shape in partitions_of(n):
            for t in enumerate_syt(shape):
                v = GTVector.basis(t)
                for i in range(1, n):
                    assert act_word((i, i), v) == v
                    for u, c in act_simple(i, v).items():
                        assert c.conjugate() == c
                        assert act_simple(i, GTVector.basis(u)).coefficient(t) == c
                for i in range(1, n - 1):
                    assert act_word((i, i + 1, i), v) == act_word((i + 1, i, i + 1), v)
                for i in range(1, n):
                    for j in range(i + 2, n):
                        assert act_word((i, j), v) == act_word((j, i), v)


def test_identities_against_sympy():
    # an independent oracle: sympy's exact algebraic numbers, fed through the
    # JSON form of the matrix entries
    sympy = pytest.importorskip("sympy")

    def entry(scalar):
        return sum(
            (sympy.Rational(term["re"]) + sympy.I * sympy.Rational(term["im"]))
            * sympy.sqrt(term["radicand"])
            for term in scalar.to_json()
        )

    def same(a, b):
        return all(sympy.expand(x) == 0 for x in a - b)

    for n in range(2, 7):
        for shape in partitions_of(n):
            mats = {
                i: sympy.Matrix([[entry(x) for x in row] for row in dense_rep_matrix(shape, i)])
                for i in range(1, n)
            }
            ident = sympy.eye(len(enumerate_syt(shape)))
            for m in mats.values():
                assert m == m.T and m == m.conjugate()
                assert same(m * m, ident)
            for i in range(1, n - 1):
                a, b = mats[i], mats[i + 1]
                assert same(a * b * a, b * a * b)
            for i in range(1, n):
                for j in range(i + 2, n):
                    assert same(mats[i] * mats[j], mats[j] * mats[i])


def test_restriction_commutes_with_action():
    # generators not touching the last box commute with the inclusion
    for n in range(3, 6):
        for shape in partitions_of(n):
            for below in shape.down_set():
                for t in enumerate_syt(below):
                    v = GTVector.basis(t)
                    for i in range(1, n - 1):
                        lifted = act_simple(i, embed(v, shape))
                        pushed = embed(act_simple(i, v), shape)
                        assert lifted == pushed

