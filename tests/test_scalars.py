import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from altgt import scalars as scalar_module
from altgt.scalars import (
    I,
    ONE,
    ZERO,
    Scalar,
    split_square,
    sqrt_rational,
)
from oracles import (
    canonical_terms,
    conjugated,
    negated,
    raw_inverse,
    raw_product,
    raw_sum,
    raw_terms,
    reference_latex,
    reference_text,
    scalar_from_json,
)

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# squarefree radicands and some with square factors, which the public
# constructors reduce
radicands = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 10, 12, 15, 18, 30, 50])
raw_values = st.dictionaries(radicands, st.tuples(fractions, fractions), max_size=3)


def from_raw(raw: dict) -> Scalar:
    """The Scalar of a raw {q: (re, im)} value, read by the oracle."""
    return scalar_from_json([{"radicand": q, "re": str(re), "im": str(im)}
                             for q, (re, im) in raw.items()])


@st.composite
def scalars(draw):
    return from_raw(draw(raw_values))


def test_split_square():
    assert split_square(1) == (1, 1)
    assert split_square(12) == (2, 3)
    assert split_square(60) == (2, 15)
    assert split_square(49) == (7, 1)
    with pytest.raises(ValueError):
        split_square(0)


def test_addition_collects_like_radicands():
    a = I + sqrt_rational(2)
    b = ONE - sqrt_rational(2)
    assert a + b == Scalar.gaussian(1, 1)


def test_product_reduces_radicands():
    got = sqrt_rational(6) * sqrt_rational(10)
    expected = Scalar({15: 2})
    assert got == expected


def test_sqrt_of_fraction():
    got = sqrt_rational(Fraction(3, 4))
    assert got == Scalar({3: Fraction(1, 2)})
    assert got * got == Scalar.rational(Fraction(3, 4))


def test_sqrt_rejects_negative():
    with pytest.raises(ValueError):
        sqrt_rational(-2)


def test_sqrt_zero_and_one():
    assert sqrt_rational(0) == ZERO
    assert sqrt_rational(1) == ONE
    assert sqrt_rational(4) == Scalar.rational(2)


def test_conjugation_flips_i():
    assert I.conjugate() == -I
    mixed = Scalar.gaussian(1, 2) + sqrt_rational(3)
    assert mixed.conjugate() == Scalar.gaussian(1, -2) + sqrt_rational(3)


def test_monomial_inverse():
    half_sqrt3 = Scalar({3: Fraction(1, 2)})
    assert half_sqrt3 * half_sqrt3.inverse() == ONE
    assert I.inverse() == -I
    with pytest.raises(ValueError):
        (ONE + sqrt_rational(2)).inverse()
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_division():
    assert (sqrt_rational(2) / sqrt_rational(2)) == ONE
    assert (Scalar.rational(3) / 3) == ONE


def test_text_rendering():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(-I) == "-i"
    assert str(sqrt_rational(Fraction(3, 4))) == "1/2*sqrt(3)"
    assert str(Scalar.rational(Fraction(-1, 2)) + sqrt_rational(Fraction(3, 4))) == \
        "-1/2 + 1/2*sqrt(3)"
    assert str(Scalar.gaussian(1, 1) * sqrt_rational(2)) == "(1+i)*sqrt(2)"
    assert str(Scalar.gaussian(Fraction(1, 4), Fraction(1, 2))) == "1/4+1/2*i"
    assert str(Scalar.gaussian(1, -2)) == "1-2*i"
    assert str(Scalar.gaussian(0, Fraction(-3, 2))) == "-3/2*i"
    assert str(Scalar.gaussian(Fraction(1, 2), -1) * sqrt_rational(3)) == "(1/2-i)*sqrt(3)"
    assert str(-sqrt_rational(2)) == "-sqrt(2)"
    assert str(Scalar.gaussian(1, 1) + sqrt_rational(2)) == "(1+i) + sqrt(2)"
    assert str(sqrt_rational(Fraction(2, 9)) - sqrt_rational(3)) == "1/3*sqrt(2) + -sqrt(3)"


def test_latex_rendering():
    assert ONE.latex() == "1"
    assert sqrt_rational(Fraction(3, 4)).latex() == "\\frac{1}{2}\\sqrt{3}"
    assert I.latex() == "i"
    assert (-I).latex() == "-i"
    assert Scalar.gaussian(Fraction(1, 4), Fraction(1, 2)).latex() == \
        "\\frac{1}{4}+\\frac{1}{2}i"
    assert Scalar.gaussian(1, -2).latex() == "1-2i"
    assert Scalar.gaussian(0, Fraction(-3, 2)).latex() == "-\\frac{3}{2}i"
    assert (Scalar.gaussian(Fraction(1, 2), -1) * sqrt_rational(3)).latex() == \
        "\\left(\\frac{1}{2}-i\\right)\\sqrt{3}"
    assert (-sqrt_rational(2)).latex() == "-\\sqrt{2}"
    assert (Scalar.gaussian(1, 1) + sqrt_rational(2)).latex() == "\\left(1+i\\right) + \\sqrt{2}"
    mixed = Scalar.gaussian(0, 2) + Scalar.gaussian(Fraction(-1, 3), 1) * sqrt_rational(5)
    assert mixed.latex() == "2i + \\left(-\\frac{1}{3}+i\\right)\\sqrt{5}"


@given(scalars())
def test_rendering_matches_reference(x):
    assert str(x) == reference_text(x)
    assert x.latex() == reference_latex(x)


def test_json_round_trip():
    value = Scalar.gaussian(Fraction(1, 2), -2) + sqrt_rational(12)
    data = value.to_json()
    assert data == [
        {"radicand": 1, "re": "1/2", "im": "-2"},
        {"radicand": 3, "re": "2", "im": "0"},
    ]
    assert scalar_from_json(data) == value


@given(fractions, fractions)
def test_gaussian_rational_round_trip(re, im):
    c = Scalar.gaussian(re, im)
    assert_canonical(c, [(1, (re, im))])
    for q, (a, b, d) in c.terms():
        assert (q, Fraction(a, d), Fraction(b, d)) == (1, re, im)
    assert c == Scalar.gaussian(str(re), str(im))
    assert hash(Scalar.rational(re)) == hash(re)


@pytest.mark.parametrize("build", [
    lambda: Scalar({1: 1, 3: 0.75}),
    lambda: Scalar.gaussian(0.25, 1),
    lambda: Scalar.rational(0.1),
    lambda: Scalar.gaussian(0, 0.5),
    lambda: Scalar({2: 0.5}),
    lambda: sqrt_rational(0.5),
])
def test_constructors_refuse_floats(build):
    with pytest.raises(TypeError, match=r"float 0\.\d+"):
        build()


def test_constructor_reduces_radicands():
    assert Scalar({12: 1}) == Scalar({3: 2})
    assert Scalar({4: 1}) == Scalar.rational(2)


@given(raw_values)
def test_public_constructors_match_reference(raw):
    # the values every other test builds through the oracle reader are canonical
    assert_canonical(from_raw(raw), list(raw.items()))
    real = {q: re for q, (re, _) in raw.items()}
    assert_canonical(Scalar(real), [(q, (re, 0)) for q, re in real.items()])


@given(st.fractions(min_value=0, max_value=50, max_denominator=12))
def test_sqrt_rational_matches_reference(value):
    # sqrt(a/b) = sqrt(a*b)/b
    a, b = value.numerator, value.denominator
    assert_canonical(sqrt_rational(value), [(a * b, (Fraction(1, b), 0))] if a else [])


@given(scalars(), scalars(), scalars())
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(scalars(), scalars())
def test_conjugation_is_a_ring_map(a, b):
    assert a.conjugate().conjugate() == a
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()


@given(scalars())
def test_json_round_trip_random(a):
    assert scalar_from_json(a.to_json()) == a


@st.composite
def monomials(draw):
    """A nonzero one-term value c*sqrt(q)."""
    coeff = draw(st.tuples(fractions, fractions).filter(any))
    return from_raw({draw(radicands): coeff})


def assert_canonical(x, reference):
    """x has canonical terms, equal to those of `reference`, a raw value."""
    terms = x.terms()
    radicands = [q for q, _ in terms]
    assert radicands == sorted(set(radicands))
    for q, (a, b, d) in terms:
        assert all(type(v) is int for v in (q, a, b, d))
        assert q >= 1 and all(q % (k * k) for k in range(2, math.isqrt(q) + 1))
        assert a or b
        assert d > 0 and math.gcd(a, b, d) == 1, f"unreduced triple {(a, b, d)}"
    assert terms == canonical_terms(reference)


@given(scalars(), scalars(), monomials())
def test_arithmetic_results_are_canonical(a, b, m):
    ra, rb = raw_terms(a), raw_terms(b)
    assert_canonical(a + b, raw_sum(ra, rb))
    assert_canonical(a - b, raw_sum(ra, negated(rb)))
    assert_canonical(a * b, raw_product(ra, rb))
    assert_canonical(-a, negated(ra))
    assert_canonical(a.conjugate(), conjugated(ra))
    assert_canonical(m.inverse(), raw_inverse(raw_terms(m)))
    assert_canonical(a / m, raw_product(ra, raw_inverse(raw_terms(m))))


def test_fault_injection_unreduced_triple(monkeypatch):
    # a _norm that skips the gcd leaves 2/2 unreduced in a product
    half, two = Scalar.rational(Fraction(1, 2)), Scalar.rational(2)
    reference = raw_product(raw_terms(half), raw_terms(two))
    assert_canonical(half * two, reference)
    monkeypatch.setattr(scalar_module, "_norm", lambda a, b, d: (a, b, d))
    with pytest.raises(AssertionError, match="unreduced triple"):
        assert_canonical(half * 2, reference)


def test_cancelling_product():
    got = (sqrt_rational(2) + sqrt_rational(3)) * (sqrt_rational(2) - sqrt_rational(3))
    assert got == -1
    assert got.terms() == ((1, (-1, 0, 1)),)
    assert (sqrt_rational(2) - sqrt_rational(2)).terms() == ()


@given(st.integers(min_value=0, max_value=400))
def test_sqrt_squares_back(q):
    assert sqrt_rational(q) * sqrt_rational(q) == Scalar.rational(q)


def test_hash_agrees_with_equality():
    assert Scalar.rational(1) == 1
    assert len({Scalar.rational(1), 1}) == 1
    assert hash(ZERO) == hash(0)
    half = Fraction(1, 2)
    assert hash(Scalar.rational(half)) == hash(half)
    assert len({Scalar.rational(half), half, sqrt_rational(half)}) == 2
    # equal values built different ways hash alike
    assert len({Scalar.rational(1), Scalar.gaussian(1, 0), Fraction(1), 1}) == 1
    assert len({Scalar.gaussian(half, -1), Scalar.rational(half) - I}) == 1
    radical = Scalar.gaussian(1, 1) * sqrt_rational(2)
    assert len({radical, sqrt_rational(8) * Scalar.gaussian(half, half)}) == 1
    assert len({ZERO, Scalar.rational(0), Scalar.gaussian(0, 0), Fraction(0), 0}) == 1
