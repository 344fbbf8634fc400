import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from altgt.scalars import (
    I,
    ONE,
    ZERO,
    GaussianRational,
    Scalar,
    i_power,
    split_square,
    sqrt_rational,
)

fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)
radicands = st.sampled_from([1, 2, 3, 5, 6, 7, 10, 15, 30])


@st.composite
def scalars(draw):
    n_terms = draw(st.integers(min_value=0, max_value=3))
    terms = {}
    for _ in range(n_terms):
        q = draw(radicands)
        terms[q] = GaussianRational(draw(fractions), draw(fractions))
    return Scalar(terms)


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
    expected = Scalar({15: GaussianRational(2)})
    assert got == expected


def test_sqrt_of_fraction():
    got = sqrt_rational(Fraction(3, 4))
    assert got == Scalar({3: GaussianRational(Fraction(1, 2))})
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


def test_fourth_root_detection():
    assert ONE.as_fourth_root() == 1
    assert (-ONE).as_fourth_root() == -1
    assert I.as_fourth_root() == 1j
    assert (-I).as_fourth_root() == -1j
    assert Scalar.rational(2).as_fourth_root() is None
    assert sqrt_rational(2).as_fourth_root() is None
    assert ZERO.as_fourth_root() is None
    assert (I * I).as_fourth_root() == -1
    half = Fraction(1, 2)
    assert Scalar.rational(half).as_fourth_root() is None
    assert Scalar.gaussian(0, half).as_fourth_root() is None
    assert Scalar.gaussian(1, 1).as_fourth_root() is None
    assert Scalar.gaussian(-1, -1).as_fourth_root() is None
    assert (ONE + sqrt_rational(2)).as_fourth_root() is None


def test_i_power_cycle():
    assert [i_power(k) for k in range(4)] == [ONE, I, -ONE, -I]
    assert i_power(6) == -ONE
    assert i_power(-1) == -I


def test_monomial_inverse():
    half_sqrt3 = Scalar({3: GaussianRational(Fraction(1, 2))})
    assert half_sqrt3 * half_sqrt3.inverse() == ONE
    assert I.inverse() == -I
    with pytest.raises(ValueError):
        (ONE + sqrt_rational(2)).inverse()
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_division():
    assert (sqrt_rational(2) / sqrt_rational(2)) == ONE
    assert (Scalar.rational(3) / 3) == ONE


def test_rational_accessors():
    assert Scalar.rational(Fraction(5, 3)).as_rational() == Fraction(5, 3)
    assert ZERO.as_rational() == 0
    with pytest.raises(ValueError):
        sqrt_rational(2).as_rational()
    with pytest.raises(ValueError):
        I.as_rational()


def test_text_rendering():
    assert str(ZERO) == "0"
    assert str(ONE) == "1"
    assert str(-I) == "-i"
    assert str(sqrt_rational(Fraction(3, 4))) == "1/2*sqrt(3)"
    assert str(Scalar.rational(Fraction(-1, 2)) + sqrt_rational(Fraction(3, 4))) == \
        "-1/2 + 1/2*sqrt(3)"
    assert str(Scalar.gaussian(1, 1) * sqrt_rational(2)) == "(1+i)*sqrt(2)"


def test_latex_rendering():
    assert ONE.latex() == "1"
    assert sqrt_rational(Fraction(3, 4)).latex() == "\\frac{1}{2}\\sqrt{3}"
    assert I.latex() == "i"
    assert (-I).latex() == "-i"


def test_json_round_trip():
    value = Scalar.gaussian(Fraction(1, 2), -2) + sqrt_rational(12)
    data = value.to_json()
    assert data == [
        {"radicand": 1, "re": "1/2", "im": "-2"},
        {"radicand": 3, "re": "2", "im": "0"},
    ]
    assert Scalar.from_json(data) == value


def test_json_rejects_bad_radicand():
    with pytest.raises(ValueError):
        Scalar.from_json([{"radicand": 0, "re": "1", "im": "0"}])
    with pytest.raises(ValueError):
        Scalar.from_json([{"radicand": 2, "re": "1", "im": "0"},
                          {"radicand": 2, "re": "1", "im": "0"}])


@given(fractions, fractions)
def test_gaussian_rational_round_trip(re, im):
    c = GaussianRational(re, im)
    assert c.re == re and c.im == im
    assert c == GaussianRational(str(re), str(im))
    assert c._d > 0 and math.gcd(c._a, c._b, c._d) == 1
    assert hash(GaussianRational(re)) == hash(re)


@pytest.mark.parametrize("build", [
    lambda: GaussianRational(0.5),
    lambda: GaussianRational(1, 0.25),
    lambda: Scalar.rational(0.1),
    lambda: Scalar.gaussian(0, 0.5),
    lambda: Scalar({2: 0.5}),
    lambda: sqrt_rational(0.5),
])
def test_constructors_refuse_floats(build):
    with pytest.raises(TypeError, match=r"float 0\.\d+"):
        build()


@pytest.mark.parametrize("entry, bad", [
    ({"radicand": 1, "re": 0.1}, "0.1"),
    ({"radicand": 2, "re": "1", "im": -0.5}, "-0.5"),
    ({"radicand": True, "re": "1", "im": "0"}, "True"),
])
def test_json_refuses_floats_and_bool_radicands(entry, bad):
    with pytest.raises(ValueError, match=bad):
        Scalar.from_json([entry])


def test_constructor_reduces_radicands():
    assert Scalar({12: GaussianRational(1)}) == Scalar({3: GaussianRational(2)})
    assert Scalar({4: GaussianRational(1)}) == Scalar.rational(2)


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
    assert Scalar.from_json(a.to_json()) == a


@st.composite
def monomials(draw):
    """A nonzero one-term value c*sqrt(q)."""
    coeff = draw(st.tuples(fractions, fractions).filter(any))
    return Scalar({draw(radicands): GaussianRational(*coeff)})


def assert_canonical(x, reference):
    """x has canonical terms equal to those of `reference`, a raw terms dict."""
    terms = x.terms()
    assert Scalar(dict(terms)).terms() == terms
    radicands = [q for q, _ in terms]
    assert radicands == sorted(set(radicands))
    for q, c in terms:
        assert split_square(q) == (1, q)
        assert not c.is_zero()
        assert type(c.re) is Fraction and type(c.im) is Fraction
        # the stored triple (a, b, d) is reduced: d > 0 and gcd(a, b, d) = 1
        assert all(type(x) is int for x in (c._a, c._b, c._d))
        assert c._d > 0 and math.gcd(c._a, c._b, c._d) == 1
    assert terms == Scalar(reference).terms()


def raw_sum(*term_lists):
    """Collect terms by radicand without reducing or dropping anything."""
    out = {}
    for terms in term_lists:
        for q, c in terms:
            out[q] = out.get(q, GaussianRational()) + c
    return out


def raw_product(a, b):
    # radicands multiply unreduced; the public constructor reduces them
    return raw_sum([(q1 * q2, c1 * c2) for q1, c1 in a.terms() for q2, c2 in b.terms()])


def negated(a):
    return [(q, GaussianRational(-c.re, -c.im)) for q, c in a.terms()]


@given(scalars(), scalars(), monomials())
def test_arithmetic_results_are_canonical(a, b, m):
    assert_canonical(a + b, raw_sum(a.terms(), b.terms()))
    assert_canonical(a - b, raw_sum(a.terms(), negated(b)))
    assert_canonical(a * b, raw_product(a, b))
    assert_canonical(-a, raw_sum(negated(a)))
    assert_canonical(a.conjugate(), raw_sum([(q, GaussianRational(c.re, -c.im))
                                             for q, c in a.terms()]))
    ((q, c),) = m.terms()
    norm = c.re * c.re + c.im * c.im
    # 1/(c*sqrt(q)) = conj(c)/(|c|^2 * q) * sqrt(q)
    inverse = Scalar({q: GaussianRational(c.re / (norm * q), -c.im / (norm * q))})
    assert_canonical(a / m, raw_product(a, inverse))


@given(scalars(), st.sampled_from([ONE, I, -ONE, -I]))
def test_times_fourth_root_matches_product(a, root):
    got = a.times_fourth_root(root)
    assert got == a * root
    assert_canonical(got, raw_product(a, root))


def test_times_fourth_root_refuses_other_values():
    for value in (ZERO, Scalar.rational(2), Scalar.gaussian(1, 1), sqrt_rational(2),
                  Scalar.rational(Fraction(1, 2)), ONE + sqrt_rational(2)):
        with pytest.raises(ValueError, match="fourth root"):
            ONE.times_fourth_root(value)


def test_cancelling_product():
    got = (sqrt_rational(2) + sqrt_rational(3)) * (sqrt_rational(2) - sqrt_rational(3))
    assert got == -1
    assert got.terms() == ((1, GaussianRational(-1)),)
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
    # a GaussianRational equals the Scalar with it as rational part
    assert Scalar.rational(1) == GaussianRational(1)
    assert len({Scalar.rational(1), GaussianRational(1), 1}) == 1
    assert hash(GaussianRational(half)) == hash(half)
    assert len({Scalar.gaussian(half, -1), GaussianRational(half, -1)}) == 1
    assert len({ZERO, GaussianRational(0), 0}) == 1
