"""Exact arithmetic for every coefficient this package produces.

A value is a finite sum  sum_q  c_q * sqrt(q)  where q runs over squarefree
positive integers (q = 1 is the rational part) and each c_q is a Gaussian
rational (a + b*i)/d with integers a, b, d.  This set is closed under
addition, multiplication and complex conjugation, and it contains everything
needed here: orthogonal-representation matrix entries are of the form 1/r
and sqrt(1 - 1/r^2) for integer r, and basis-change coefficients are fourth
roots of unity.  Equality is structural on canonical forms, so identities
are checked exactly, never with tolerances.

There is one coefficient type, ``Scalar``: a map from radicand q to the
integer triple (a, b, d) of c_q; ``terms()`` returns these (q, (a, b, d))
pairs.  Canonical form: no zero coefficients are stored, every radicand is
squarefree, the terms are kept in increasing radicand order, and each
triple is reduced: d > 0 and gcd(a, b, d) = 1.  Products of radicals reduce
via gcd: sqrt(q1)*sqrt(q2) = g*sqrt(q1*q2/g^2) with g = gcd(q1, q2).

Only the public entry points canonicalize: the ``Scalar`` constructor
(int or Fraction coefficients), ``Scalar.rational``, ``Scalar.gaussian``
and ``sqrt_rational``; they refuse floats.  A complex coefficient on a
radical is written ``Scalar.gaussian(re, im) * sqrt_rational(q)``.
Arithmetic needs no second pass, because canonical inputs give canonical
outputs: q1*q2/g^2 is squarefree when q1 and q2 are, a product of nonzero
terms is nonzero, and only a sum can cancel.  So ``+``, ``-``, ``*``,
``/`` and ``conjugate`` build their results through the trusted
``Scalar._of``; a triple that may need reducing goes through ``_norm``,
one gcd.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


@lru_cache(maxsize=None)
def split_square(m: int) -> tuple[int, int]:
    """Write m >= 1 as g*g*q with q squarefree; return (g, q)."""
    if m < 1:
        raise ValueError(f"expected a positive integer, got {m}")
    g, q, d = 1, 1, 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            g *= d ** (e // 2)
            if e % 2:
                q *= d
        d += 1
    return g, q * m


def _exact(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError(f"expected an exact rational, got the float {value!r}")
    return Fraction(value)


def _norm(a: int, b: int, d: int) -> tuple[int, int, int]:
    """The reduced triple of (a + b*i)/d for d > 0: divides out gcd(a, b, d)."""
    g = math.gcd(a, b, d)
    return (a, b, d) if g == 1 else (a // g, b // g, d // g)


def _gaussian(re, im=0) -> tuple[int, int, int]:
    """The reduced triple of re + im*i for exact rationals re and im."""
    re, im = _exact(re), _exact(im)
    return _norm(re.numerator * im.denominator, im.numerator * re.denominator,
                 re.denominator * im.denominator)


def _latex_rational(n: int, d: int) -> str:
    if d == 1:
        return str(n)
    return f"{'-' if n < 0 else ''}\\frac{{{abs(n)}}}{{{d}}}"


# how text and LaTeX write a reduced rational n/d, a product, a bracketed
# coefficient and sqrt(q)
_STYLES = {
    "text": (lambda n, d: f"{n}/{d}" if d > 1 else str(n), "*", "(", ")", "sqrt({})".format),
    "latex": (_latex_rational, "", "\\left(", "\\right)", "\\sqrt{{{}}}".format),
}
# how a coefficient of 1 or -1 on a radical is written
_SIGNS = {(1, 0, 1): "", (-1, 0, 1): "-"}


def _render(terms: dict[int, tuple[int, int, int]], style: str) -> str:
    """Canonical terms in one of the ``_STYLES``: a coefficient is written
    a, b*i or a+b*i, bracketed when both parts are nonzero and it is not the
    whole value, and a coefficient of 1 or -1 on a radical is a sign."""
    if not terms:
        return "0"
    rational, times, left, right, radical = _STYLES[style]
    parts = []
    for q, c in terms.items():
        sign = _SIGNS.get(c) if q > 1 else None
        if sign is not None:
            parts.append(sign + radical(q))
            continue
        a, b, d = c
        if not b:
            body = rational(a, d)  # gcd(a, d) = 1 in a reduced triple
        else:
            g = math.gcd(b, d)
            body = "i" if b == d else "-i" if b == -d else rational(b // g, d // g) + times + "i"
            if a:
                g = math.gcd(a, d)
                body = rational(a // g, d // g) + ("" if b < 0 else "+") + body
                if q > 1 or len(terms) > 1:
                    body = left + body + right
        parts.append(body if q == 1 else body + times + radical(q))
    return " + ".join(parts)


class Scalar:
    """Element of the coefficient ring: a map radicand -> reduced (a, b, d).

    Construct through the classmethods (``rational``, ``gaussian``), the
    helper ``sqrt_rational`` or the units ``I_POWERS``; the constructor
    accepts a mapping of radicands to int or Fraction coefficients and
    canonicalizes it.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        self._terms = _canonical((q, _gaussian(c)) for q, c in terms.items()) if terms else {}

    @classmethod
    def _of(cls, terms: dict[int, tuple[int, int, int]]) -> "Scalar":
        """Trusted constructor: ``terms`` is already canonical."""
        self = object.__new__(cls)
        self._terms = terms
        return self

    def __reduce__(self):
        # pickle protocols 0 and 1 cannot save __slots__ without __getstate__
        return Scalar._of, (self._terms,)

    @classmethod
    def rational(cls, value) -> "Scalar":
        return cls({1: value})

    @classmethod
    def gaussian(cls, re, im) -> "Scalar":
        return cls._of(_canonical([(1, _gaussian(re, im))]))

    def terms(self) -> tuple[tuple[int, tuple[int, int, int]], ...]:
        return tuple(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_rational(self) -> bool:
        return all(q == 1 and not c[1] for q, c in self._terms.items())

    def __add__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        merged = dict(self._terms)
        for q, c in other._terms.items():
            _accumulate(merged, q, c)
        return Scalar._of(_sorted(merged))

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Scalar":
        return -self + other

    def __neg__(self) -> "Scalar":
        return Scalar._of({q: (-a, -b, d) for q, (a, b, d) in self._terms.items()})

    def __mul__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, tuple[int, int, int]] = {}
        for q1, (a, b, d) in self._terms.items():
            for q2, (x, y, e) in other._terms.items():
                if q1 == 1 or q2 == 1:
                    q, g = q1 * q2, 1
                else:
                    # q1*q2/g^2 is squarefree because q1 and q2 are
                    g = math.gcd(q1, q2)
                    q = (q1 // g) * (q2 // g)
                _accumulate(out, q, _norm(g * (a * x - b * y), g * (a * y + b * x), d * e))
        return Scalar._of(_sorted(out))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        """Invert a single-term value g*sqrt(q); general sums are not supported."""
        if not self._terms:
            raise ZeroDivisionError("inverse of zero")
        if len(self._terms) != 1:
            raise ValueError(f"only one-term values are invertible, got {self}")
        ((q, (a, b, d)),) = self._terms.items()
        # 1/(c*sqrt(q)) = sqrt(q)/(c*q) and d/(a + b*i) = d*(a - b*i)/(a^2 + b^2)
        return Scalar._of({q: _norm(d * a, -d * b, (a * a + b * b) * q)})

    def __truediv__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def conjugate(self) -> "Scalar":
        return Scalar._of({q: (a, -b, d) for q, (a, b, d) in self._terms.items()})

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # __eq__ coerces ints and Fractions, so a rational value hashes like them
        if self.is_rational():
            a, _, d = self._terms.get(1, (0, 0, 1))
            return hash(a if d == 1 else Fraction(a, d))
        return hash(tuple(self._terms.items()))

    def __str__(self) -> str:
        return _render(self._terms, "text")

    def __repr__(self) -> str:
        return f"Scalar({self._terms!r})"

    def latex(self) -> str:
        return _render(self._terms, "latex")

    def to_json(self) -> list[dict]:
        return [{"radicand": q, "re": str(Fraction(a, d)), "im": str(Fraction(b, d))}
                for q, (a, b, d) in self._terms.items()]


def _canonical(pairs) -> dict[int, tuple[int, int, int]]:
    """Canonical terms of the sum of c*sqrt(q) over (q, c) pairs with any
    radicand q >= 1 and reduced triples c."""
    out: dict[int, tuple[int, int, int]] = {}
    for q, (a, b, d) in pairs:
        if a or b:
            g, q = split_square(q)
            _accumulate(out, q, _norm(g * a, g * b, d))
    return _sorted(out)


def _accumulate(terms: dict[int, tuple[int, int, int]], q: int, c: tuple[int, int, int]) -> None:
    """Add the nonzero term c*sqrt(q) into terms, dropping q if the sum cancels."""
    cur = terms.get(q)
    if cur is None:
        terms[q] = c
        return
    (a, b, d), (x, y, e) = cur, c
    if d == e:
        a, b = a + x, b + y
    else:
        a, b, d = a * e + x * d, b * e + y * d, d * e
    if a or b:
        terms[q] = _norm(a, b, d)
    else:
        del terms[q]


def _sorted(terms: dict[int, tuple[int, int, int]]) -> dict[int, tuple[int, int, int]]:
    if len(terms) < 2:
        return terms
    return {q: terms[q] for q in sorted(terms)}


def _coerce(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar.rational(value)
    return NotImplemented


ZERO = Scalar()
ONE = Scalar.rational(1)
I = Scalar.gaussian(0, 1)


def sqrt_rational(value) -> Scalar:
    """Exact square root of a nonnegative rational, e.g. 3/4 -> (1/2)*sqrt(3)."""
    value = _exact(value)
    if value < 0:
        raise ValueError(f"square root of negative rational {value}")
    if value == 0:
        return ZERO
    a, b = value.numerator, value.denominator
    # sqrt(a/b) = sqrt(a*b)/b
    g, q = split_square(a * b)
    return Scalar({q: Fraction(g, b)})


# i**k at index k, for k in 0..3: the coefficients of an unnormalized GT vector
I_POWERS = (ONE, I, -ONE, -I)
