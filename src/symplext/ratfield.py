"""Exact arithmetic in Q(z) and polar-part bookkeeping on the projective line.

Everything in this package reduces to computations with rational functions
over Q, points of P^1(Q), and truncated Laurent expansions.  This module is
the single place where those conventions are fixed:

* A point of P^1 is either ``Finite(a)`` with ``a`` rational, or
  ``Infinity``.  The local uniformizer is ``u = z - a`` at a finite point
  and ``u = 1/z`` at infinity.

* A rational section of the degree-``d`` line bundle is represented by one
  rational function ``f``, its expression in the chart-0 trivialization.
  The section is regular at a finite point iff ``f`` has no pole there, and
  regular at infinity iff ``u^d * f(1/u)`` is regular at ``u = 0``.  The
  helper :meth:`RatFunc.flip` computes exactly that local form.

* The polar part of ``f`` at a point is the strictly-negative-exponent part
  of its Laurent expansion in the local uniformizer, stored low order
  first: ``coeffs[k-1]`` multiplies ``u^(-k)``.

Poles are only supported at rational points; a denominator with an
irreducible factor of degree two or more raises
:class:`~symplext.errors.UnsupportedPoleField`.

No floating point enters anywhere.  A polynomial is stored as one
``fractions.Fraction`` content times a primitive polynomial with Python
int coefficients, so its arithmetic runs on integers; every coefficient
the module hands out is a ``Fraction``, and printing/parsing of rational
functions round-trips bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from operator import le
from typing import Iterable, Iterator, Sequence

from .errors import ParseError, UnsupportedPoleField, ZeroDenominator, ZeroFunction

__all__ = [
    "Rational",
    "as_fraction",
    "PointP1",
    "INFINITY",
    "Poly",
    "RatFunc",
    "PolarPart",
    "zpow",
    "valuation",
    "polar_part",
    "full_principal_part",
    "frac_text",
    "parse_frac",
    "point_text",
    "parse_point",
    "poly_text",
    "ratfunc_text",
    "parse_ratfunc",
    "parse_partial_fractions",
    "ParseBudget",
    "PARSE_WORK",
    "PARSE_WORK_PER_CHAR",
]

# scalars are stdlib Fractions: always reduced, positive denominator
Rational = Fraction


def as_fraction(x) -> Fraction:
    """Coerce an int, Fraction, or exact-string input to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_frac(x)
    raise TypeError(f"not an exact rational: {x!r}")


# ============================================================
# Points of the projective line
# ============================================================


@dataclass(frozen=True)
class PointP1:
    """A rational point of P^1: ``Finite(a)`` or ``Infinity`` (value None)."""

    value: Fraction | None

    def __post_init__(self):
        # points key the dicts of every principal part system: hash the
        # value once, not through Fraction.__hash__ on every lookup
        object.__setattr__(self, "_hash", hash(self.value))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def finite(a) -> "PointP1":
        return PointP1(as_fraction(a))

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def sort_key(self):
        # finite points by value, infinity last; gives deterministic output
        if self.value is None:
            return (1, Fraction(0))
        return (0, self.value)

    def __str__(self) -> str:
        return point_text(self)

    def __repr__(self) -> str:
        return f"PointP1({point_text(self)})"


INFINITY = PointP1(None)


# ============================================================
# Dense polynomials over Q
# ============================================================


class Poly:
    """Polynomial over Q: a rational content times a primitive integer
    polynomial, dense ascending coefficients, no trailing zeros.

    The integer part has coefficients with gcd 1 and a positive leading
    coefficient; the content is a nonzero Fraction carrying the sign (the
    zero polynomial is ``()`` with content 0).  That pair is canonical, so
    equality and hashing read it directly.  Arithmetic runs on Python ints
    plus one Fraction operation on the contents: a product needs no gcd
    (Gauss's lemma: a product of primitive polynomials is primitive), a
    sum takes one integer gcd, and division and gcds use integer
    pseudo-division on primitive parts (Knuth TAOCP 2, 4.6.1).
    ``coeffs``, the Fraction coefficients, is built on first use.

    >>> p = Poly([1, 0, -2])      # -2z^2 + 1
    >>> p.degree
    2
    >>> poly_text(p)
    '-2*z^2 + 1'
    >>> Poly([1, 2]).scale(Fraction(1, 2)).coeffs
    (Fraction(1, 2), Fraction(1, 1))
    """

    __slots__ = ("_ints", "_content", "_coeffs")

    def __init__(self, coeffs: Iterable = ()):
        cs = [c if isinstance(c, (int, Fraction)) else as_fraction(c) for c in coeffs]
        den = lcm(*[c.denominator for c in cs])
        self._ints, self._content = _primitive_parts(
            [c.numerator * (den // c.denominator) for c in cs], Fraction(1, den)
        )
        self._coeffs = None

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return _ZERO_POLY

    @staticmethod
    def one() -> "Poly":
        return _ONE_POLY

    @staticmethod
    def x() -> "Poly":
        return _make((0, 1), Fraction(1))

    @staticmethod
    def constant(c) -> "Poly":
        c = as_fraction(c)
        return _make((1,), c) if c else _ZERO_POLY

    @staticmethod
    def monomial(k: int, c=1) -> "Poly":
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        c = as_fraction(c)
        if not c:
            return _ZERO_POLY
        return _make((0,) * k + (1,), c)

    # -- basic structure ---------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        cs = self._coeffs
        if cs is None:
            c = self._content
            cs = self._coeffs = tuple(c * x for x in self._ints)
        return cs

    @property
    def is_zero(self) -> bool:
        return not self._ints

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self._ints) - 1

    @property
    def lead(self) -> Fraction:
        if not self._ints:
            raise ZeroFunction("zero polynomial has no leading coefficient")
        return self._content * self._ints[-1]

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self._ints):
            return self._content * self._ints[k]
        return Fraction(0)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self._ints == other._ints
            and self._content == other._content
        )

    def __hash__(self) -> int:
        return hash((self._ints, self._content))

    def __bool__(self) -> bool:
        return bool(self._ints)

    def __repr__(self) -> str:
        return f"Poly({poly_text(self)})"

    # -- ring operations ---------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        return _combine(self, other, 1)

    def __neg__(self) -> "Poly":
        return _make(self._ints, -self._content)

    def __sub__(self, other: "Poly") -> "Poly":
        return _combine(self, other, -1)

    def __mul__(self, other: "Poly") -> "Poly":
        a, b = self._ints, other._ints
        if not a or not b:
            return _ZERO_POLY
        ca, cb = self._content, other._content
        content = cb if ca == 1 else ca if cb == 1 else ca * cb
        # a primitive constant is 1
        if len(a) == 1:
            return _make(b, content)
        if len(b) == 1:
            return _make(a, content)
        return _make(tuple(_int_mul(a, b)), content)

    def scale(self, c) -> "Poly":
        if not isinstance(c, (int, Fraction)):
            c = as_fraction(c)
        if not c or not self._ints:
            return _ZERO_POLY
        return _make(self._ints, self._content * c)

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        ints = self._ints
        if ints and not any(ints[:-1]):
            # c*z^m, whose primitive part is z^m: (c*z^m)^k = c^k * z^(m k)
            return _make((0,) * ((len(ints) - 1) * k) + (1,), self._content**k)
        # square-and-multiply, with no squaring after the last bit of k
        out, base = _ONE_POLY, self
        while True:
            if k & 1:
                out = out * base
            k >>= 1
            if not k:
                return out
            base = base * base

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if not other._ints:
            raise ZeroDenominator("polynomial division by zero")
        q, r, s = _pseudo_divmod(self._ints, other._ints)
        # s * self = (q * other + r) * (content of self)
        c = self._content / s if s != 1 else self._content
        return _primitive(q, c / other._content), _primitive(r, c)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if not self._ints:
            return self
        return _make(self._ints, Fraction(1, self._ints[-1]))

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor, by the primitive remainder
        sequence of the integer parts."""
        a, b = self._ints, other._ints
        if not a or not b:
            return (other if not a else self).monic()
        if len(a) < len(b):
            a, b = b, a
        while len(b) > 1:
            r = _pseudo_divmod(a, b)[1]
            while r and not r[-1]:
                r.pop()
            if not r:
                return _make(b, Fraction(1, b[-1]))
            a, b = b, _primitive_parts(r, _F1)[0]
        return _ONE_POLY

    # -- evaluation and reexpansion ----------------------------------

    def __call__(self, a) -> Fraction:
        if not isinstance(a, (int, Fraction)):
            a = as_fraction(a)
        ints = self._ints
        if not ints:
            return Fraction(0)
        # homogeneous Horner: acc = sum c_i u^i v^(deg - i) for a = u/v
        u, v = a.numerator, a.denominator
        acc, vk = 0, 1
        for c in reversed(ints):
            acc = acc * u + c * vk
            vk *= v
        c = self._content
        return Fraction(c.numerator * acc, c.denominator * (vk // v))

    def shift(self, a) -> "Poly":
        """Taylor reexpansion: the polynomial p(z + a)."""
        if not isinstance(a, (int, Fraction)):
            a = as_fraction(a)
        ints = self._ints
        n = len(ints) - 1
        if n <= 0 or not a:
            return self
        # p(z + u/v) = v^-n * p*(v z + u) for the integer polynomial
        # p*(w) = v^n p(w / v); p*(w + u) by repeated synthetic division
        u, v = a.numerator, a.denominator
        c = [x * v ** (n - i) for i, x in enumerate(ints)] if v != 1 else list(ints)
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                c[j] += u * c[j + 1]
        if v == 1:
            # z -> z + u is an automorphism of Z[z]: still primitive, same lead
            return _make(tuple(c), self._content)
        return _primitive([x * v**j for j, x in enumerate(c)], self._content / v**n)

    def reverse(self, n: int | None = None) -> "Poly":
        """Coefficient reversal z^n * p(1/z); n defaults to deg p."""
        ints = self._ints
        if not ints:
            return self
        d = len(ints) - 1
        if n is None:
            n = d
        if n < d:
            raise ValueError("reversal length below degree")
        out = (0,) * (n - d) + ints[::-1]
        k = len(out)
        while not out[k - 1]:
            k -= 1
        out = out[:k]
        if out[-1] < 0:
            return _make(tuple(-x for x in out), -self._content)
        return _make(out, self._content)

    def valuation0(self) -> int:
        """Order of vanishing at z = 0."""
        for i, c in enumerate(self._ints):
            if c:
                return i
        raise ZeroFunction("valuation of the zero polynomial")


_F1 = Fraction(1)


def _make(ints: tuple[int, ...], content: Fraction) -> Poly:
    # a Poly from parts already in canonical form
    p = object.__new__(Poly)
    p._ints = ints
    p._content = content
    p._coeffs = None
    return p


def _primitive_parts(ints: list[int], content: Fraction) -> tuple[tuple[int, ...], Fraction]:
    """The canonical (integer part, content) of content * ints."""
    while ints and not ints[-1]:
        ints.pop()
    if not ints:
        return (), Fraction(0)
    g = gcd(*ints)
    if ints[-1] < 0:
        g = -g
    if g != 1:
        return tuple(x // g for x in ints), content * g
    return tuple(ints), content


def _primitive(ints: list[int], content: Fraction) -> Poly:
    return _make(*_primitive_parts(ints, content))


def _int_mul(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The product of two nonzero integer polynomials, dense ascending."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


_ZERO_POLY = _make((), Fraction(0))
_ONE_POLY = _make((1,), Fraction(1))


def _combine(p: Poly, q: Poly, sign: int) -> Poly:
    # p + sign * q over the common denominator of the contents
    a, b = p._ints, q._ints
    if not b:
        return p
    if not a:
        return q if sign > 0 else -q
    cp, cq = p._content, q._content
    pn, pd = cp.numerator, cp.denominator
    qn, qd = sign * cq.numerator, cq.denominator
    g, h = gcd(pd, qd), gcd(pn, qn)
    sp, sq = pn // h * (qd // g), qn // h * (pd // g)
    if len(a) < len(b):
        a, b, sp, sq = b, a, sq, sp
    out = [sp * x for x in a]
    for i, y in enumerate(b):
        out[i] += sq * y
    return _primitive(out, Fraction(h, pd // g * qd))


def _pseudo_divmod(a: Sequence[int], b: Sequence[int]) -> tuple[list[int], list[int], int]:
    """(q, r, s) with s * a = q * b + r, deg r < deg b, s a positive
    integer, for integer polynomials with lead(b) > 0.  Pseudo-division
    that scales the remainder only when lead(b) does not divide its next
    leading term, so s = 1 whenever lead(b) = 1."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    nq = len(a) - db
    if nq <= 0:
        return [], r, 1
    q = [0] * nq
    s = 1
    for k in range(nq - 1, -1, -1):
        t = r[k + db]
        if not t:
            continue
        if t % lb:
            m = lb // gcd(t, lb)
            s *= m
            r = [x * m for x in r[: k + db + 1]]
            q = [x * m for x in q]
            t *= m
        t //= lb
        q[k] = t
        for i, y in enumerate(b):
            r[k + i] -= t * y
    return q, r[:db], s


def _series_quot(num: Poly, den: Poly, terms: int) -> list[Fraction]:
    # power-series quotient num/den, den(0) != 0.  With N, D the integer
    # parts and w_k = D_0^(k+1) * (N/D)_k, the recursion
    # w_k = N_k D_0^k - sum_j D_j D_0^(j-1) w_(k-j) stays in the integers
    n, d = num._ints, den._ints
    d0 = d[0]
    w: list[int] = []
    powers = [1]  # powers of d0
    for k in range(terms):
        acc = n[k] * powers[k] if k < len(n) else 0
        for j in range(1, min(k, len(d) - 1) + 1):
            if d[j]:
                acc -= d[j] * powers[j - 1] * w[k - j]
        w.append(acc)
        powers.append(powers[-1] * d0)
    c = num._content / den._content
    cn, cd = c.numerator, c.denominator
    return [Fraction(cn * x, cd * powers[k + 1]) for k, x in enumerate(w)]


# ============================================================
# Rational functions
# ============================================================


class RatFunc:
    """Reduced fraction of polynomials; denominator monic and coprime to
    the numerator, the zero function stored as 0/1.

    That canonical form is unique, so equality, hashing and printing read
    num and den directly.  The public constructor accepts any pair and
    normalises it, skipping the gcd only when num or den is constant.  The
    arithmetic keeps the reducedness of its operands instead of computing
    a gcd of the full result (Henrici's rule, Knuth TAOCP 2, 4.5.1): a sum
    takes g = gcd(den_a, den_b) and then only gcd(t, g) for its numerator
    t, a product cancels gcd(num_a, den_b) and gcd(num_b, den_a), and no
    gcd with a constant operand is taken.  Negation, powers, translate and
    flip need none: they map coprime pairs to coprime pairs.

    >>> f = RatFunc(Poly([-1, 0, 1]), Poly([-1, 1]))   # (z^2-1)/(z-1)
    >>> ratfunc_text(f)
    'z + 1'
    >>> ratfunc_text(RatFunc(Poly([0, 2]), Poly([4])))
    '1/2*z'
    """

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly = None):
        if den is None:
            den = Poly.one()
        if den.is_zero:
            raise ZeroDenominator("rational function with zero denominator")
        self._store(*_cancel(num, den))

    @staticmethod
    def _coprime(num: Poly, den: Poly) -> "RatFunc":
        """num/den for a pair already known to be coprime."""
        f = object.__new__(RatFunc)
        f._store(num, den)
        return f

    def _store(self, num: Poly, den: Poly):
        # coprime num and den: only the denominator is made monic
        if num.is_zero:
            num, den = _ZERO_POLY, _ONE_POLY
        else:
            c, lead = den._content, den._ints[-1]
            if c.numerator != 1 or c.denominator != lead:  # den not monic
                num, den = _make(num._ints, num._content / (c * lead)), den.monic()
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "RatFunc":
        return RatFunc(Poly.zero())

    @staticmethod
    def one() -> "RatFunc":
        return RatFunc(Poly.one())

    @staticmethod
    def constant(c) -> "RatFunc":
        return RatFunc(Poly.constant(c))

    @staticmethod
    def z() -> "RatFunc":
        return RatFunc(Poly.x())

    # -- structure ---------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    @property
    def is_polynomial(self) -> bool:
        return self.den.degree == 0

    def __bool__(self) -> bool:
        return not self.is_zero

    def __eq__(self, other) -> bool:
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    def __repr__(self) -> str:
        return f"RatFunc({ratfunc_text(self)})"

    # -- field operations --------------------------------------------

    def __add__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        (na, da), (nb, db) = (self.num, self.den), (other.num, other.den)
        if da.degree == 0:  # da = 1
            return RatFunc._coprime(na * db + nb, db)
        if db.degree == 0:
            return RatFunc._coprime(na + nb * da, da)
        g = da.gcd(db)
        if g.degree == 0:
            return RatFunc._coprime(na * db + nb * da, da * db)
        da, db = da // g, db // g
        # t is coprime to da * db; only a factor of g can cancel
        t, g = _cancel(na * db + nb * da, g)
        return RatFunc._coprime(t, da * db * g)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc._coprime(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RatFunc":
        return (-self) + other

    def __mul__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return _product(self.num, self.den, other.num, other.den)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RatFunc":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.is_zero:
            raise ZeroDenominator("division by the zero function")
        return _product(self.num, self.den, other.den, other.num)

    def __rtruediv__(self, other) -> "RatFunc":
        return _coerce(other) / self

    def __pow__(self, k: int) -> "RatFunc":
        if k < 0:
            return RatFunc.one() / self ** (-k)
        return RatFunc._coprime(self.num ** k, self.den ** k)

    # -- evaluation, local forms, expansions -------------------------

    def __call__(self, a) -> Fraction:
        a = as_fraction(a)
        d = self.den(a)
        if d == 0:
            raise ZeroDenominator(f"evaluation at a pole: z = {a}")
        return self.num(a) / d

    def translate(self, a) -> "RatFunc":
        """The function f(z + a), moving the point a to 0."""
        a = as_fraction(a)
        if a == 0:
            return self
        return RatFunc._coprime(self.num.shift(a), self.den.shift(a))

    def flip(self, twist: int = 0) -> "RatFunc":
        """Local form at infinity: u^twist * f(1/u), as a function of u.

        For a rational section of the degree-``twist`` line bundle given by
        ``f`` in the chart-0 trivialization, this is its expression in the
        chart-infinity trivialization; infinity itself becomes u = 0.
        """
        if self.is_zero:
            return self
        dn, dd = self.num.degree, self.den.degree
        e = twist + dd - dn
        num_r, den_r = self.num.reverse(), self.den.reverse()
        # reversed polynomials have a nonzero constant term, so they stay
        # coprime to each other and to the power of z
        if e >= 0:
            return RatFunc._coprime(num_r * Poly.monomial(e), den_r)
        return RatFunc._coprime(num_r, den_r * Poly.monomial(-e))

    def local_form(self, point: PointP1, twist: int = 0) -> "RatFunc":
        """Expression in the local chart at ``point`` (uniformizer at 0)."""
        if point.is_infinity:
            return self.flip(twist)
        return self.translate(point.value)

    def valuation0(self) -> int:
        if self.is_zero:
            raise ZeroFunction("valuation of the zero function")
        return self.num.valuation0() - self.den.valuation0()

    def laurent0(self, hi: int) -> tuple[int, list[Fraction]]:
        """Laurent coefficients at 0: (val, [c_val, ..., c_hi])."""
        if self.is_zero:
            raise ZeroFunction("Laurent expansion of the zero function")
        vn, vd = self.num.valuation0(), self.den.valuation0()
        val = vn - vd
        if hi < val:
            return val, []
        num = _make(self.num._ints[vn:], self.num._content)
        den = _make(self.den._ints[vd:], self.den._content)
        return val, _series_quot(num, den, hi - val + 1)

    def polar0(self) -> tuple[Fraction, ...]:
        """Polar coefficients at 0: (c_1, ..., c_m) with c_k on z^(-k)."""
        if self.is_zero:
            return ()
        val = self.valuation0()
        if val >= 0:
            return ()
        _, series = self.laurent0(-1)
        # series[i] is the coefficient of z^(val + i); c_k = coeff of z^(-k),
        # and the last, c_(-val) = series[0], is not 0
        return tuple(series[-k - val] for k in range(1, -val + 1))

    def finite_poles(self) -> dict[Fraction, int]:
        """Rational poles with multiplicities.

        Raises UnsupportedPoleField if the denominator keeps an irreducible
        factor of degree >= 2 after all rational roots are removed.
        """
        roots, residual = _rational_roots(self.den)
        if residual > 0:
            raise UnsupportedPoleField(
                "denominator has a non-rational pole (irreducible factor of "
                f"degree {residual})"
            )
        return roots

    def is_global(self, twist: int) -> bool:
        """True iff f is a regular section of the degree-``twist`` bundle
        everywhere, i.e. a polynomial of degree <= twist (zero included)."""
        if self.is_zero:
            return True
        return self.is_polynomial and self.num.degree <= twist


def _cancel(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """a and b divided by their gcd; a constant has no common factor with
    anything, so no gcd is taken then."""
    if a.degree <= 0 or b.degree <= 0:
        return a, b
    g = a.gcd(b)
    if g.degree == 0:
        return a, b
    return a // g, b // g


def _product(na: Poly, da: Poly, nb: Poly, db: Poly) -> RatFunc:
    # (na/da) * (nb/db) for coprime pairs: only a factor of na and db, or
    # of nb and da, can cancel
    if na.is_zero or nb.is_zero:
        return RatFunc.zero()
    na, db = _cancel(na, db)
    nb, da = _cancel(nb, da)
    return RatFunc._coprime(na * nb, da * db)


def _coerce(x) -> "RatFunc":
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, (int, Fraction)):
        return RatFunc.constant(x)
    if isinstance(x, Poly):
        return RatFunc(x)
    return NotImplemented


def _as_ratfunc(x) -> "RatFunc":
    """x as a RatFunc: a RatFunc as it is, a Poly wrapped, and anything
    else read by as_fraction as a constant."""
    if isinstance(x, RatFunc):
        return x
    if isinstance(x, Poly):
        return RatFunc(x)
    return RatFunc.constant(x)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    small = [d for d in range(1, isqrt(n) + 1) if n % d == 0]
    return sorted({*small, *(n // d for d in small)})


def _rational_roots(p: Poly) -> tuple[dict[Fraction, int], int]:
    """All rational roots with multiplicity, plus the residual degree left
    after dividing them out (0 means p splits over Q)."""
    if p.is_zero:
        raise ZeroFunction("roots of the zero polynomial")
    roots: dict[Fraction, int] = {}
    v = p.valuation0()
    if v:
        roots[Fraction(0)] = v
        p = _make(p._ints[v:], p._content)
    if p.degree == 0:
        return roots, 0
    # a root u/v in lowest terms has u | ints[0] and v | ints[-1]
    ints = p._ints
    candidates = set()
    for pn in _divisors(ints[0]):
        for qd in _divisors(ints[-1]):
            candidates.add(Fraction(pn, qd))
            candidates.add(Fraction(-pn, qd))
    for a in sorted(candidates):
        while p.degree > 0 and p(a) == 0:
            roots[a] = roots.get(a, 0) + 1
            p = p // Poly((-a, 1))
    return roots, p.degree if p.degree > 0 else 0


# ============================================================
# Polar parts
# ============================================================


@dataclass(frozen=True)
class PolarPart:
    """Polar part at one point: coeffs[k-1] multiplies u^(-k) in the local
    uniformizer (u = z - a at Finite(a); u = 1/z, twisted per the bundle
    degree, at Infinity).  Trailing zero coefficients are trimmed."""

    point: PointP1
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        cs = [as_fraction(c) for c in self.coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "PolarPart") -> "PolarPart":
        if self.point != other.point:
            raise ValueError("polar parts at different points")
        m = max(len(self.coeffs), len(other.coeffs))
        return PolarPart(
            self.point,
            tuple(
                (self.coeffs[k] if k < len(self.coeffs) else 0)
                + (other.coeffs[k] if k < len(other.coeffs) else 0)
                for k in range(m)
            ),
        )

    def as_ratfunc(self) -> RatFunc:
        """The rational function sum c_k / (z - a)^k; finite points only."""
        if self.point.is_infinity:
            raise ValueError("infinity polar part has no untwisted function form")
        return RatFunc._coprime(*tails_num_den([(self.point.value, self.coeffs)]))


def tails_num_den(tails: Iterable[tuple[Fraction, Sequence[Fraction]]]) -> tuple[Poly, Poly]:
    """The sum of polar tails (a, (c_1, ..., c_m)), c_k multiplying
    (z - a)^-k, as num / den in lowest terms, with no gcd taken; den is
    not monic.

    With a = u/v, P = v z - u and c_k = n_k / d over one denominator, the
    tail at a is A / (d P^m), where A = sum_k n_k v^k P^(m - k) is built by
    Horner's rule in P on integer lists.  den = L prod_a P_a^m_a, L the lcm
    of the d, and num = sum_a A_a (L / d) prod_{b != a} P_b^m_b, made
    primitive once.  For trimmed tails at distinct points, at each root a
    of den num(a) is a nonzero multiple of c_m: the pair is coprime, and
    so is num + den * G for any polynomial G.
    """
    num: list[int] = []
    den, L = [1], 1
    for a, tail in tails:
        v, P = a.denominator, (-a.numerator, a.denominator)
        d = lcm(*[c.denominator for c in tail])
        A: list[int] = []
        pm, vk = [1], 1  # P^k and v^k
        for c in tail:
            vk *= v
            A = _int_mul(A, P) if A else [0]
            A[0] += c.numerator * (d // c.denominator) * vk
            pm = _int_mul(pm, P)
        scale = lcm(L, d)
        t = [x * (scale // d) for x in _int_mul(A, den)]
        if num:
            r = scale // L
            for i, x in enumerate(_int_mul(num, pm)):
                t[i] += r * x
        num, den, L = t, _int_mul(den, pm), scale
    # P is primitive with v > 0, and so are products of such (Gauss)
    return _primitive(num, _F1), _make(tuple(den), Fraction(L))


def polar_coeffs_as_ratfunc(a: Fraction, coeffs: Sequence[Fraction]) -> RatFunc:
    """sum over k of coeffs[k-1] / (z - a)^k, exact."""
    return PolarPart(PointP1.finite(a), tuple(coeffs)).as_ratfunc()


def zpow(k: int) -> RatFunc:
    """z^k for any integer k (1/z^|k| when k < 0)."""
    if k >= 0:
        return RatFunc(Poly.monomial(k))
    return RatFunc(Poly.one(), Poly.monomial(-k))


# ============================================================
# Spec-surface functions
# ============================================================


def valuation(f: RatFunc, point: PointP1) -> int:
    """Order of vanishing of f at the point (O(0) convention at infinity:
    deg den - deg num).  Raises ZeroFunction on the zero function."""
    if f.is_zero:
        raise ZeroFunction("valuation of the zero function")
    return f.local_form(point).valuation0()


def polar_part(f: RatFunc, point: PointP1) -> PolarPart:
    """Polar part of f at the point; at Infinity this is the d = 0
    convention (polar part of f(1/u) at u = 0)."""
    return PolarPart(point, f.local_form(point).polar0())


def full_principal_part(f: RatFunc, twist: int) -> list[PolarPart]:
    """All nonzero polar parts of f as a rational section of the
    degree-``twist`` bundle: one PolarPart per finite pole, plus the polar
    part at u = 0 of u^twist * f(1/u) under the Infinity point.  Sorted by
    point, finite first."""
    if f.is_zero:
        return []
    out = []
    for a in sorted(f.finite_poles()):
        pp = PolarPart(PointP1.finite(a), f.translate(a).polar0())
        if not pp.is_zero:
            out.append(pp)
    inf = PolarPart(INFINITY, f.flip(twist).polar0())
    if not inf.is_zero:
        out.append(inf)
    return out


# ============================================================
# Printing and parsing
# ============================================================


def frac_text(c: Fraction) -> str:
    c = as_fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def parse_frac(text: str) -> Fraction:
    s = text.strip()
    n, slash, d = s.partition("/")
    digits = n[1:] if n[:1] in ("+", "-") else n
    try:
        # a plain ASCII [+-]n or [+-]n/d needs no regex; anything else, and
        # every error, is Fraction's own
        if s.isascii() and digits.isdigit():
            if not slash:
                return Fraction(int(n))
            if d.isdigit():
                return Fraction(int(n), int(d))
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"bad rational number: {text!r}") from exc


def point_text(x: PointP1) -> str:
    return "inf" if x.is_infinity else frac_text(x.value)


def parse_point(text: str) -> PointP1:
    t = text.strip()
    if t in ("inf", "Inf", "infinity", "Infinity", "oo"):
        return INFINITY
    return PointP1.finite(parse_frac(t))


def _term_text(c: Fraction, k: int, var: str) -> str:
    if k == 0:
        return frac_text(c)
    v = var if k == 1 else f"{var}^{k}"
    if c == 1:
        return v
    if c == -1:
        return f"-{v}"
    return f"{frac_text(c)}*{v}"


def poly_text(p: Poly, var: str = "z") -> str:
    """Sparse text form, highest degree first: ``z^3 - 2*z + 1/2``."""
    if p.is_zero:
        return "0"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p[k]
        if c == 0:
            continue
        t = _term_text(c, k, var)
        if not parts:
            parts.append(t)
        elif t.startswith("-"):
            parts.append("- " + t[1:])
        else:
            parts.append("+ " + t)
    return " ".join(parts)


def ratfunc_text(f: RatFunc, var: str = "z") -> str:
    """Exact text form; non-polynomials print as ``(num)/(den)``."""
    if f.is_polynomial:
        return poly_text(f.num, var)
    return f"({poly_text(f.num, var)})/({poly_text(f.den, var)})"


# Largest exponent the expression grammar accepts, far above the cubes
# that problem files use.  It also bounds the exponent times the size of
# the base (see _gate_power), so nested powers such as ((z^99)^99)^99
# cannot ask for a huge polynomial or a huge coefficient either.
MAX_EXPONENT = 100

# Largest size (degree, or 64-bit words of a coefficient; see _gate) that
# a sum, difference, product or quotient may reach.  Degrees and
# coefficient lengths add under these operations, so without a bound a
# short text asks for huge gcds: six terms (z+k)^99/(z+k+1)^99 took 28 s
# and a product of 39 factors (z+k)^99 35 s.  With it, one operation on
# the largest allowed operands takes a fraction of a second.
MAX_SIZE = 100

# Deepest nesting of parentheses, and longest run of signs before one
# operand, that the expression grammar accepts.  The parser and the
# evaluator recurse once per pair of parentheses (chains of operators and
# runs of signs are loops), so this keeps both far inside the
# interpreter's recursion limit.
MAX_DEPTH = 100

# Work that the expressions of one document, or of one expression parsed
# on its own, may do in products and gcds (see ParseBudget): PARSE_WORK
# plus PARSE_WORK_PER_CHAR for every character of the text, so parse time
# stays linear in the length of the text.  MAX_SIZE bounds one operation,
# not their number: 16 entries, each a sum of two degree-50 quotients with
# 63-bit bases and every operation inside MAX_SIZE, took 0.7-0.9 s to
# parse.  Such an entry does 39,208 units of work, so that file is refused
# within its second entry.  On a 2-vCPU x86 machine a unit took 5 us at
# most (that entry's final sum: 52 ms for 10,000 units), and about 2 us in
# the gcd of two dense polynomials with small coefficients.  An entry
# (num)/(den) of degree d, as --machine output writes it, charges d^2.
PARSE_WORK = 30_000
PARSE_WORK_PER_CHAR = 5


class ParseBudget:
    """What is left of the work that the expressions of a text of the
    given length may do.  Every operation is charged from bounds read off
    the parse tree before any arithmetic runs (see _gate): one that
    multiplies or takes the gcd of two non-constant polynomials charges
    the square of the bound on its size; sums of polynomials, operations
    with a constant operand and powers of a single term are linear and
    charge nothing.  parse_document hands one budget to all of its
    entries, and parsing raises ParseError once the charges pass the
    budget."""

    __slots__ = ("left",)

    def __init__(self, length: int):
        self.left = PARSE_WORK + PARSE_WORK_PER_CHAR * length


def _tokenize(text: str, var: str) -> list:
    toks: list = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            try:
                toks.append(int(text[i:j]))
            except ValueError:  # past the interpreter's digit limit
                raise ParseError(f"number too long: {j - i} digits") from None
            i = j
            continue
        if ch in "+-*/^()":
            toks.append(ch)
            i += 1
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            name = text[i:j]
            if name != var:
                raise ParseError(f"unknown symbol {name!r} (variable is {var!r})")
            toks.append("VAR")
            i = j
            continue
        raise ParseError(f"bad character {ch!r} in expression")
    return toks


# Bounds on the value of an expression: (dn, dd, n1, d1, term, c) says
# that the value is N/D for some N, D in Z[z] with no common factor of
# positive degree, deg N <= dn (dn = -1 and n1 = 0: N = 0), deg D <= dd,
# ||N||_1 <= n1 and ||D||_1 <= d1 (the sums of the absolute values of the
# coefficients), and if term, that N and D have one term each.  dd = 0
# makes D an integer and dn = 0 makes N one, and then the value times d1,
# or n1 over a nonzero value, is in Z[z] with 1-norm at most n1, or d1:
# d1 is a multiple of D and n1 one of N.  For that, a constant (dn <= 0
# and dd = 0) or a zero carries the integer c = d1 times its value, and
# n1 = |c|; else c is None.
Bounds = tuple[int, int, int, int, bool, int | None]


def _bits(b: Bounds) -> int:
    """A bound on the coefficient bits of the value: for its numerator and
    denominator, each a content c times a primitive integer polynomial P,
    the bits of c's numerator plus those of the largest |P_i|, and those
    of c's denominator.  The numerator is N / lc(D), within n1 and a
    denominator dividing lc(D); the denominator is 1 if dd = 0 (2 bits),
    else D / lc(D), within d1 and one bit for the content 1 / lc."""
    dn, dd, n1, d1, _, _ = b
    return max(n1.bit_length() + 1, d1.bit_length() + (dd > 0), 2)


def _charge(budget: ParseBudget, work: int) -> None:
    budget.left -= work
    if budget.left < 0:
        raise ParseError(
            "expressions too large: their products and gcds pass the "
            f"parse budget ({PARSE_WORK} plus "
            f"{PARSE_WORK_PER_CHAR} per character)"
        )


def _gate(a: Bounds, op: str, b: Bounds, budget: ParseBudget) -> Bounds:
    """The bounds of a op b, read off those of a and b before it runs.
    Its size is max(degree, (bits a + bits b) // 64): past MAX_SIZE it is
    refused, and else it charges size^2, unless an operand is constant or
    it adds two polynomials.

    With N/D the pairs of the bounds, a * b is Na Nb / Da Db, a / b is
    Na Db / Da Nb, and a + b is (Na Db + Nb Da) / Da Db, or over the lcm
    of Da and Db when both are integers: an integer bound is a multiple of
    the integer it bounds (see Bounds).  The 1-norm is submultiplicative.
    The operands have no common factor, so one of positive degree can cancel
    only between a numerator and the other's denominator in a product,
    between the numerators or the denominators in a quotient, and in a sum
    only when both denominators have positive degree.  Where it can, the
    pair is divided by its gcd, and by Mignotte's bound (Math. Comp. 28
    (1974)) a factor h of f in Z[z] has ||h||_1 <= 2^deg h ||f||_2: the
    norms take 2^dn and 2^dd."""
    adn, add, an1, ad1, aterm, ac = a
    bdn, bdd, bn1, bd1, bterm, bc = b
    term, c = aterm and bterm, None
    if op == "*":
        dn = adn + bdn if adn >= 0 and bdn >= 0 else -1
        dd, n1, d1 = add + bdd, an1 * bn1, ad1 * bd1
        cancels = (adn > 0 and bdd > 0) or (bdn > 0 and add > 0)
        if dn == dd == 0:  # of two constants
            c = ac * bc
    elif op == "/":
        if bdn < 0:
            raise ParseError("division by zero in expression")
        dn = adn + bdd if adn >= 0 else -1
        dd, n1, d1 = add + bdn, an1 * bd1, ad1 * bn1
        cancels = (adn > 0 and bdn > 0) or (add > 0 and bdd > 0)
        if dn == dd == 0:
            c = ac * bd1 if bc > 0 else -ac * bd1
    else:
        dn, dd, term = max(adn + bdd, bdn + add), add + bdd, False
        if dd:
            n1, d1 = an1 * bd1 + bn1 * ad1, ad1 * bd1
        else:
            d1 = lcm(ad1, bd1)
            ka, kb = d1 // ad1, d1 // bd1
            n1 = an1 * ka + bn1 * kb
            if dn == 0:  # of two constants, as dd = 0
                c = ac * ka + bc * kb if op == "+" else ac * ka - bc * kb
                n1 = abs(c)
        cancels = add > 0 and bdd > 0
    size = max(dn, dd, (_bits(a) + _bits(b)) // 64)
    if size > MAX_SIZE:
        raise ParseError(
            f"expression too large: '{op}' could give a result of size {size} "
            f"(at most {MAX_SIZE})"
        )
    if (adn > 0 or add) and (bdn > 0 or bdd) and (dd or op in "*/"):
        _charge(budget, size * size)
    if not n1:  # the value is 0, as a divisor must not be
        dn, cancels, c = -1, False, 0
    if cancels:
        n1, d1 = n1 << dn, d1 << dd
    return dn, dd, n1, d1, term, c


def _signed(b: Bounds, sign: int) -> Bounds:
    """The bounds of sign times a value within b."""
    return b if sign > 0 or b[5] is None else b[:5] + (-b[5],)


def _gate_power(b: Bounds, e: int, budget: ParseBudget) -> Bounds:
    """The bounds of f^e for f within b.  The size of the base is at
    least 1: its degree, or the 64-bit words of its coefficients if that
    is larger.  e times that size may be at most MAX_EXPONENT, and unless
    the base is a single term the power charges (e * size)^2."""
    dn, dd, n1, d1, term, c = b
    size = max(1, dn, dd, _bits(b) // 64)
    if e * size > MAX_EXPONENT:
        raise ParseError(
            f"power too large: exponent {e} on a base of size {size} "
            f"(the product may be at most {MAX_EXPONENT})"
        )
    if e > 1 and not term:
        _charge(budget, (e * size) ** 2)
    c = c**e if c is not None else None if e else 1
    return -1 if dn < 0 < e else dn * e, dd * e, n1**e, d1**e, term, c


# A parse tree node is a tuple whose second field is its Bounds:
# ("n", b, c) the integer c, ("z", b) the variable, ("^", b, base, e),
# ("*", b, first, [(op, factor), ...]) with op "*" or "/", and
# ("+", b, [(sign, summand), ...]) with sign 1 or -1.
_Z_NODE = ("z", (1, 0, 1, 1, True, None))


class _Parser:
    """Recursive descent that recurses only into parentheses: expr is a
    chain of products joined by + and -, product a chain of operands
    joined by * and /, and operand a run of signs, then a number, the
    variable or a parenthesized expr, then an optional ^e.  The signs of
    a product's operands are moved onto the product.  Each node is built
    with its bounds, so every operation is refused or charged (see _gate)
    while the tree is read, before any arithmetic runs."""

    def __init__(self, toks: list, budget: ParseBudget):
        self.toks = toks + [None]  # None marks the end
        self.pos = self.depth = 0
        self.budget = budget

    def expr(self) -> tuple:
        sign, node = self.product()
        items = [(sign, node)]
        b = _signed(node[1], sign)
        while (op := self.toks[self.pos]) in ("+", "-"):
            self.pos += 1
            s, t = self.product()
            b = _gate(b, op, _signed(t[1], s), self.budget)
            items.append((-s if op == "-" else s, t))
        if len(items) == 1 and sign > 0:
            return node
        return ("+", b, items)

    def product(self) -> tuple[int, tuple]:
        sign, node = self.operand()
        items = []
        b = node[1]
        while (op := self.toks[self.pos]) in ("*", "/"):
            self.pos += 1
            s, t = self.operand()
            b = _gate(b, op, t[1], self.budget)
            items.append((op, t))
            sign *= s
        return sign, ("*", b, node, items) if items else node

    def operand(self) -> tuple[int, tuple]:
        toks, start, sign = self.toks, self.pos, 1
        pos = start
        while (t := toks[pos]) in ("+", "-"):
            sign = -sign if t == "-" else sign
            pos += 1
        self.pos = pos + 1
        if pos - start > MAX_DEPTH or (t == "(" and self.depth == MAX_DEPTH):
            raise ParseError(
                f"expression nested too deeply: more than {MAX_DEPTH} levels "
                "of parentheses or signs"
            )
        if t.__class__ is int:
            node = ("n", (0 if t else -1, 0, t, 1, True, t), t)
        elif t == "VAR":
            node = _Z_NODE
        elif t == "(":
            self.depth += 1
            node = self.expr()
            self.depth -= 1
            if toks[self.pos] != ")":
                raise ParseError("unbalanced parentheses")
            self.pos += 1
        else:
            raise ParseError(f"unexpected token {t!r}")
        if toks[self.pos] == "^":
            e = toks[self.pos + 1]
            if e.__class__ is not int:
                raise ParseError("exponent must be a nonnegative integer")
            self.pos += 2
            node = ("^", _gate_power(node[1], e, self.budget), node, e)
        return sign, node


def _parse(toks: list, text: str, budget: ParseBudget) -> tuple:
    """The parse tree of the tokens of an expression, every operation in
    it cleared and charged by the gate."""
    if not toks:
        raise ParseError("empty expression")
    p = _Parser(toks, budget)
    node = p.expr()
    if p.pos != len(toks):
        raise ParseError(f"trailing tokens in expression: {text!r}")
    return node


def _value(node: tuple) -> RatFunc:
    """The value of a parse tree, with no checks: the gate has bounded
    every step.  The polynomial summands of a sum are added in one pass,
    as integers over a common denominator made primitive once."""
    kind = node[0]
    if kind == "n":
        return RatFunc.constant(node[2])
    if kind == "z":
        return RatFunc.z()
    if kind == "^":
        return _value(node[2]) ** node[3]
    if kind == "*":
        acc = _value(node[2])
        for op, t in node[3]:
            acc = acc * _value(t) if op == "*" else acc / _value(t)
        return acc
    acc, ints, den = None, [], 1
    for sign, t in node[2]:
        f = _value(t)
        if not f.is_polynomial:
            if sign < 0:
                f = -f
            acc = f if acc is None else acc + f
            continue
        p = f.num
        c = p._content
        d = lcm(den, c.denominator)
        if d != den:
            ints = [d // den * x for x in ints]
            den = d
        k = sign * c.numerator * (den // c.denominator)
        if len(ints) < len(p._ints):
            ints.extend([0] * (len(p._ints) - len(ints)))
        for i, x in enumerate(p._ints):
            if x:
                ints[i] += k * x
    if not ints:
        return RatFunc.zero() if acc is None else acc
    poly = RatFunc._coprime(_primitive(ints, Fraction(1, den)), _ONE_POLY)
    return poly if acc is None else acc + poly


def _bounds_hold(b: Bounds, f: RatFunc) -> bool:
    """True when f is within the bounds b.  For num = c P and den = c' Q,
    P and Q primitive, and r = c / c', f is N / D with N = r.numerator P
    and D = r.denominator Q, which divides every other integer pair of f:
    that pair is compared."""
    P, Q = f.num._ints, f.den._ints
    r = f.num._content / f.den._content
    n1, d1 = abs(r.numerator) * sum(map(abs, P)), r.denominator * sum(map(abs, Q))
    terms = max(sum(map(bool, P)), sum(map(bool, Q)))
    c = b[5]
    exact = c is None or (f == RatFunc.constant(Fraction(c, b[3])) and abs(c) == b[2])
    return all(map(le, (len(P) - 1, len(Q) - 1, n1, d1), b)) and (terms <= 1 or not b[4]) and exact


def _bounds_cover_values(text: str) -> bool:
    """True when, at every node of the parse tree of text, the value is
    within the node's bounds, as the unchecked evaluator needs."""
    nodes = [_parse(_tokenize(text, "z"), text, ParseBudget(len(text)))]
    for node in nodes:  # the list grows to every node of the tree
        if node[0] in "^*":  # a base, or a first factor
            nodes.append(node[2])
        if node[0] in "*+":  # the (op, factor) or (sign, summand) pairs
            nodes += [t for _, t in node[-1]]
    return all(_bounds_hold(node[1], _value(node)) for node in nodes)


def _evaluate(node: tuple) -> RatFunc:
    try:
        return _value(node)
    except ZeroDenominator:
        raise ParseError("division by zero in expression") from None


def parse_ratfunc(
    text: str, var: str = "z", budget: ParseBudget | None = None
) -> RatFunc:
    """Parse the expression grammar the printers emit (and reasonable
    hand-written variants).  Round-trips ratfunc_text output bit-exactly.
    Every operation is bounded by MAX_SIZE, and the operations charge the
    given budget, or a budget for this text alone (see ParseBudget)."""
    if budget is None:
        budget = ParseBudget(len(text))
    return _evaluate(_parse(_tokenize(text, var), text, budget))


# An expression in partial fractions: its finite tails {a: (c_1, ..., c_K)}
# (c_k multiplies (z - a)^-k), trimmed and nonzero, and its polynomial part
# {m: c_m} with no zero coefficient.
PartialFractions = tuple[dict[Fraction, tuple[Fraction, ...]], dict[int, Fraction]]

_ZERO, _ONE = Fraction(0), Fraction(1)


def parse_partial_fractions(
    text: str, budget: ParseBudget | None = None
) -> tuple[RatFunc, PartialFractions | None]:
    """parse_ratfunc in the variable z, plus the partial fractions the
    text is written in, or None (see _partial_fractions).  Both are cleared and
    charged by the same gate; the value of a text in partial fractions is
    then built from them in closed form, and any other text is evaluated
    from its parse tree."""
    if budget is None:
        budget = ParseBudget(len(text))
    toks = _tokenize(text, "z")
    node = _parse(toks, text, budget)
    form = _partial_fractions(toks)
    if form is None:
        return _evaluate(node), None
    tails, poly = form
    num, den = tails_num_den(tails.items())
    if poly:
        num = num + den * Poly([poly.get(m, _ZERO) for m in range(max(poly) + 1)])
    # coprime, see tails_num_den
    return RatFunc._coprime(num, den), form


def _partial_fractions(toks: list) -> PartialFractions | None:
    """The partial fractions of tokens written as a sum of c/(z - a)^k,
    c/(z + a)^k, c/z^k (k >= 1), c*z^m, z^m and c, with c and a each n or
    n/d and one sign before each summand, repeated terms added up; None
    for any other tokens.  The grouping is the parser's: 3/4/z is (3/4)/z
    and -3/z^2 is (-3)/z^2.  The tokens have been parsed, so no d is 0."""
    n = len(toks)

    def number(i: int):
        # n or n/d at i: (value, the index after it)
        if i >= n or not isinstance(toks[i], int):
            return None
        if i + 2 < n and toks[i + 1] == "/" and isinstance(toks[i + 2], int):
            return Fraction(toks[i], toks[i + 2]), i + 3
        return Fraction(toks[i]), i + 1

    def power(i: int) -> tuple[int | None, int]:
        # the exponent at i, if any, of a base that ends before i
        if toks[i : i + 1] != ["^"]:
            return 1, i
        if i + 1 < n and isinstance(toks[i + 1], int):
            return toks[i + 1], i + 2
        return None, i

    def summand(i: int):
        # (summand, the index after it)
        c = _ONE
        if toks[i : i + 1] != ["VAR"]:
            got = number(i)
            if got is None:
                return None
            c, i = got
            if i == n or toks[i] in ("+", "-"):
                return (None, 0, c), i
            if toks[i] == "/":
                if toks[i + 1 : i + 2] == ["VAR"]:
                    a, i = _ZERO, i + 2
                elif toks[i + 1 : i + 4] in (["(", "VAR", "-"], ["(", "VAR", "+"]):
                    got = number(i + 4)
                    if got is None or toks[got[1] : got[1] + 1] != [")"]:
                        return None
                    a, j = got
                    if toks[i + 3] == "+":
                        a = -a
                    i = j + 1
                else:
                    return None
                k, i = power(i)
                return ((a, k, c), i) if k is not None and k >= 1 else None
            if toks[i] != "*":
                return None
            i += 1
        if toks[i : i + 1] != ["VAR"]:
            return None
        m, i = power(i + 1)
        return ((None, m, c), i) if m is not None else None

    tails: dict[Fraction, list[Fraction]] = {}
    poly: list[Fraction] = []  # coefficients of z^0, z^1, ...
    i = 0
    while i < n:
        sign = 1
        if toks[i] in ("+", "-"):
            sign, i = (-1 if toks[i] == "-" else 1), i + 1
        elif i:
            return None  # summands are joined by + and -
        got = summand(i)
        if got is None:
            return None
        (a, k, c), i = got
        if a is None:
            coeffs = poly
        else:
            coeffs, k = tails.setdefault(a, []), k - 1
        if len(coeffs) <= k:
            coeffs.extend([_ZERO] * (k + 1 - len(coeffs)))
        coeffs[k] += -c if sign < 0 else c
        while coeffs and not coeffs[-1]:
            coeffs.pop()
    return {a: tuple(t) for a, t in tails.items() if t}, {m: c for m, c in enumerate(poly) if c}
