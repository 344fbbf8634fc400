"""Exact arithmetic for every coefficient this package produces.

A value is a finite sum  sum_q  c_q * sqrt(q)  where q runs over squarefree
positive integers (q = 1 is the rational part) and each c_q is a Gaussian
rational (a + b*i)/d with integers a, b, d.  This set is closed under
addition, multiplication and complex conjugation, and it contains everything
needed here: orthogonal-representation matrix entries are of the form 1/r
and sqrt(1 - 1/r^2) for integer r, and basis-change coefficients are fourth
roots of unity.  Equality is structural on canonical forms, so identities
are checked exactly, never with tolerances.

Canonical form: no zero coefficients are stored, every radicand is
squarefree, the terms are kept in increasing radicand order, and each
coefficient is a reduced triple: d > 0 and gcd(a, b, d) = 1.  Products
of radicals reduce via gcd: sqrt(q1)*sqrt(q2) = g*sqrt(q1*q2/g^2) with
g = gcd(q1, q2).

Only the public entry points canonicalize: the ``Scalar`` and
``GaussianRational`` constructors, ``Scalar.rational``, ``Scalar.gaussian``,
``Scalar.from_json`` and ``sqrt_rational``; they refuse floats.  Arithmetic
needs no second pass, because canonical inputs give canonical outputs:
q1*q2/g^2 is squarefree when q1 and q2 are, a product of nonzero terms is
nonzero, and only a sum can cancel.  So ``+``, ``-``, ``*``, ``/`` and
``conjugate`` build their results through the trusted ``_of`` constructors;
a coefficient that may need reducing goes through ``_norm``, one gcd.
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


def _fraction_str(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


class GaussianRational:
    """A complex number (a + b*i)/d, stored as the ints a, b, d with d > 0
    and gcd(a, b, d) = 1; ``re`` and ``im`` give its parts as Fractions.

    Instances are immutable by convention; arithmetic returns new objects.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re=0, im=0):
        re, im = _exact(re), _exact(im)
        return _norm(re.numerator * im.denominator, im.numerator * re.denominator,
                     re.denominator * im.denominator)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        d, e = self._d, other._d
        if d == e:
            return _norm(self._a + other._a, self._b + other._b, d)
        return _norm(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return self + -other

    def __neg__(self) -> "GaussianRational":
        return _of(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if isinstance(other, GaussianRational):
            a, b, c, e = self._a, self._b, other._a, other._b
            return _norm(a * c - b * e, a * e + b * c, self._d * other._d)
        if isinstance(other, (int, Fraction)):
            n, m = other.numerator, other.denominator
            return _norm(self._a * n, self._b * n, self._d * m)
        return NotImplemented

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return _of(self._a, -self._b, self._d)

    def inverse(self) -> "GaussianRational":
        # d/(a + b*i) = d*(a - b*i)/(a^2 + b^2)
        a, b, d = self._a, self._b, self._d
        if not (a or b):
            raise ZeroDivisionError("inverse of zero")
        return _norm(d * a, -d * b, a * a + b * b)

    def is_zero(self) -> bool:
        return not (self._a or self._b)

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        # a real value equals its Fraction (through Scalar), so hash like it
        return hash(self.re) if not self._b else hash((self._a, self._b, self._d))

    def __str__(self) -> str:
        re, im = self.re, self.im
        if im == 0:
            return _fraction_str(re)
        if im == 1:
            im_part = "i"
        elif im == -1:
            im_part = "-i"
        else:
            im_part = f"{_fraction_str(im)}*i"
        if re == 0:
            return im_part
        joiner = "+" if not im_part.startswith("-") else ""
        return f"{_fraction_str(re)}{joiner}{im_part}"

    def __repr__(self) -> str:
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def latex(self) -> str:
        def frac(f: Fraction, unit: str = "") -> str:
            sign = "-" if f < 0 else ""
            f = abs(f)
            if f.denominator == 1:
                body = unit if f == 1 and unit else f"{f.numerator}{unit}"
            else:
                body = f"\\frac{{{f.numerator}}}{{{f.denominator}}}{unit}"
            return sign + body

        re, im = self.re, self.im
        if im == 0:
            return frac(re)
        im_part = frac(im, "i")
        if re == 0:
            return im_part
        joiner = "" if im_part.startswith("-") else "+"
        return f"{frac(re)}{joiner}{im_part}"


def _exact(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError(f"expected an exact rational, got the float {value!r}")
    return Fraction(value)


def _of(a: int, b: int, d: int) -> GaussianRational:
    """Trusted constructor: (a, b, d) is already reduced with d > 0."""
    self = object.__new__(GaussianRational)
    self._a, self._b, self._d = a, b, d
    return self


def _norm(a: int, b: int, d: int) -> GaussianRational:
    """Trusted constructor of (a + b*i)/d for d > 0: divides out gcd(a, b, d)."""
    g = math.gcd(a, b, d)
    return _of(a, b, d) if g == 1 else _of(a // g, b // g, d // g)


_GAUSS_ZERO = GaussianRational(0, 0)
_GAUSS_ONE = GaussianRational(1, 0)
# the fourth roots of unity, keyed by (a, b) of their triples (a, b, 1)
_FOURTH_ROOTS = {(1, 0): complex(1), (-1, 0): complex(-1), (0, 1): 1j, (0, -1): -1j}


class Scalar:
    """Element of the coefficient ring: a map radicand -> Gaussian rational.

    Construct through the classmethods (``rational``, ``gaussian``) or the
    module helpers (``sqrt_rational``, ``i_power``); the constructor accepts
    a terms mapping and canonicalizes it.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms=None):
        clean: dict[int, GaussianRational] = {}
        if terms:
            for q, coeff in terms.items():
                if not isinstance(coeff, GaussianRational):
                    coeff = GaussianRational(coeff)
                if coeff.is_zero():
                    continue
                g, reduced = split_square(q)
                if g != 1:
                    coeff = coeff * g
                _accumulate(clean, reduced, coeff)
        self._terms = _sorted(clean)

    @classmethod
    def _of(cls, terms: dict[int, GaussianRational]) -> "Scalar":
        """Trusted constructor: ``terms`` is already canonical."""
        self = object.__new__(cls)
        self._terms = terms
        return self

    @classmethod
    def rational(cls, value) -> "Scalar":
        return cls({1: GaussianRational(value)})

    @classmethod
    def gaussian(cls, re, im) -> "Scalar":
        return cls({1: GaussianRational(re, im)})

    def terms(self) -> tuple[tuple[int, GaussianRational], ...]:
        return tuple(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def is_rational(self) -> bool:
        return all(q == 1 and not c._b for q, c in self._terms.items())

    def as_rational(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_rational():
            raise ValueError(f"not a rational value: {self}")
        return self._terms[1].re

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
        return Scalar._of({q: -c for q, c in self._terms.items()})

    def __mul__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        out: dict[int, GaussianRational] = {}
        for q1, c1 in self._terms.items():
            for q2, c2 in other._terms.items():
                c = c1 * c2
                if q1 == 1 or q2 == 1:
                    q = q1 * q2
                else:
                    # q1*q2/g^2 is squarefree because q1 and q2 are
                    g = math.gcd(q1, q2)
                    q = (q1 // g) * (q2 // g)
                    if g != 1:
                        c = c * g
                _accumulate(out, q, c)
        return Scalar._of(_sorted(out))

    __rmul__ = __mul__

    def times_fourth_root(self, root: "Scalar") -> "Scalar":
        """self * root for a fourth root of unity x + y*i.  Multiplying
        (a + b*i)/d by it rotates (a, b), which keeps gcd(a, b, d), so no
        coefficient needs reducing."""
        unit = root._terms.get(1)
        if (unit is None or len(root._terms) != 1 or unit._d != 1
                or unit._a * unit._a + unit._b * unit._b != 1):
            raise ValueError(f"{root} is not a fourth root of unity")
        x, y = unit._a, unit._b
        out = {}
        for q, c in self._terms.items():
            a, b = c._a, c._b
            out[q] = _of(a * x - b * y, a * y + b * x, c._d)
        return Scalar._of(out)

    def inverse(self) -> "Scalar":
        """Invert a single-term value g*sqrt(q); general sums are not supported."""
        if not self._terms:
            raise ZeroDivisionError("inverse of zero")
        if len(self._terms) != 1:
            raise ValueError(f"only one-term values are invertible, got {self}")
        ((q, c),) = self._terms.items()
        # 1/(c*sqrt(q)) = (1/(c*q)) * sqrt(q)
        return Scalar._of({q: c.inverse() * Fraction(1, q)})

    def __truediv__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def conjugate(self) -> "Scalar":
        return Scalar._of({q: c.conjugate() for q, c in self._terms.items()})

    def as_fourth_root(self):
        """Return 1, -1, 1j or -1j when the value is that root of unity, else None."""
        if len(self._terms) != 1 or 1 not in self._terms:
            return None
        c = self._terms[1]
        return _FOURTH_ROOTS.get((c._a, c._b)) if c._d == 1 else None

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        # __eq__ coerces ints, Fractions and GaussianRationals, so a value
        # without radicals hashes like its coefficient
        if set(self._terms) <= {1}:
            return hash(self._terms.get(1, _GAUSS_ZERO))
        return hash(tuple(self._terms.items()))

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for q, c in self._terms.items():
            cs = str(c)
            mixed = "+" in cs[1:] or "-" in cs[1:]
            wrapped = f"({cs})" if mixed else cs
            if q == 1:
                parts.append(wrapped if len(self._terms) > 1 else cs)
            elif c == _GAUSS_ONE:
                parts.append(f"sqrt({q})")
            elif c == -_GAUSS_ONE:
                parts.append(f"-sqrt({q})")
            else:
                parts.append(f"{wrapped}*sqrt({q})")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"Scalar({self._terms!r})"

    def latex(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for q, c in self._terms.items():
            cl = c.latex()
            mixed = "+" in cl[1:] or "-" in cl[1:]
            if q == 1:
                parts.append(f"\\left({cl}\\right)" if mixed and len(self._terms) > 1 else cl)
            else:
                rad = f"\\sqrt{{{q}}}"
                if c == _GAUSS_ONE:
                    parts.append(rad)
                elif c == -_GAUSS_ONE:
                    parts.append("-" + rad)
                elif mixed:
                    parts.append(f"\\left({cl}\\right){rad}")
                else:
                    parts.append(f"{cl}{rad}")
        return " + ".join(parts)

    def to_json(self) -> list[dict]:
        out = []
        for q, c in self._terms.items():
            entry = {"radicand": q, "re": _fraction_str(c.re), "im": _fraction_str(c.im)}
            out.append(entry)
        return out

    @classmethod
    def from_json(cls, data) -> "Scalar":
        terms: dict[int, GaussianRational] = {}
        for entry in data:
            q = entry["radicand"]
            if type(q) is not int or q < 1:
                raise ValueError(f"invalid radicand {q!r}")
            parts = entry.get("re", 0), entry.get("im", 0)
            for part in parts:
                if isinstance(part, float):
                    raise ValueError(f"inexact coefficient {part!r}: floats are refused")
            coeff = GaussianRational(*parts)
            if q in terms:
                raise ValueError(f"duplicate radicand {q}")
            terms[q] = coeff
        return cls(terms)


def _accumulate(terms: dict[int, GaussianRational], q: int, c: GaussianRational) -> None:
    """Add the nonzero term c*sqrt(q) into terms, dropping q if the sum cancels."""
    if q not in terms:
        terms[q] = c
        return
    total = terms[q] + c
    if total._a or total._b:
        terms[q] = total
    else:
        del terms[q]


def _sorted(terms: dict[int, GaussianRational]) -> dict[int, GaussianRational]:
    if len(terms) < 2:
        return terms
    return {q: terms[q] for q in sorted(terms)}


def _coerce(value):
    if isinstance(value, Scalar):
        return value
    if isinstance(value, (int, Fraction)):
        return Scalar.rational(value)
    if isinstance(value, GaussianRational):
        return Scalar({1: value})
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
    return Scalar({q: _norm(g, 0, b)})


_I_POWERS = (ONE, I, -ONE, -I)


def i_power(k: int) -> Scalar:
    """i**k for any integer k."""
    return _I_POWERS[k % 4]
