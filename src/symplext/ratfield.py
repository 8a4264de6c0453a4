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
from math import gcd, lcm
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
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    out[i + j] += x * y
        return _make(tuple(out), content)

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
        # series[i] is the coefficient of z^(val + i); c_k = coeff of z^(-k)
        return _trim_polar(tuple(series[-k - val] for k in range(1, -val + 1)))

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


def _trim_polar(coeffs: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.add(d)
            out.add(n // d)
        d += 1
    return sorted(out)


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
        object.__setattr__(
            self, "coeffs", _trim_polar(tuple(as_fraction(c) for c in self.coeffs))
        )

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
        a = self.point.value
        m = len(self.coeffs)
        num = Poly.zero()
        lin = Poly((-a, 1))
        for k in range(1, m + 1):
            if self.coeffs[k - 1]:
                num = num + (lin ** (m - k)).scale(self.coeffs[k - 1])
        return RatFunc(num, lin ** m)


def tails_num_den(tails: Iterable[tuple[Fraction, Sequence[Fraction]]]) -> tuple[Poly, Poly]:
    """The sum of polar tails (a, (c_1, ..., c_m)), c_k multiplying
    (z - a)^-k, as num / den in lowest terms, with no gcd taken.

    den = prod (z - a)^m_a and num = sum_a T_a prod_{b != a} (z - b)^m_b,
    where T_a = sum_k c_k (z - a)^(m_a - k) is the tail at a over its own
    pole.  For trimmed tails at distinct points, at each root a of den
    num(a) = c_{m_a} prod_{b != a} (a - b)^m_b != 0: the pair is coprime,
    and so is num + den * P for any polynomial P.
    """
    num, den = _ZERO_POLY, _ONE_POLY
    for a, tail in tails:
        pole = Poly((-a, 1)) ** len(tail)
        num = num * pole + Poly(tail[::-1]).shift(-a) * den
        den = den * pole
    return num, den


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
# the base (see _power_size), so nested powers such as ((z^99)^99)^99
# cannot ask for a huge polynomial or a huge coefficient either.
MAX_EXPONENT = 100

# Largest size (degree, or 64-bit words of a coefficient; see _power_size)
# that a sum, difference, product or quotient may reach.  Degrees and
# coefficient lengths add under these operations, so without a bound a
# short text asks for huge gcds: six terms (z+k)^99/(z+k+1)^99 took 28 s
# and a product of 39 factors (z+k)^99 35 s.  With it, one operation on
# the largest allowed operands takes a fraction of a second.
MAX_SIZE = 100

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
    given length may do.  An operation that multiplies or takes the gcd of
    two non-constant polynomials charges the square of the bound on its
    size (see _work); sums of polynomials, operations with a constant
    operand and powers of a single term are linear and charge nothing.
    A text in partial fractions whose value is built in closed form
    charges those steps up front, with every coefficient counted as one
    word (see _merged).  parse_document hands one budget to all of its
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


def _size_parts(f: RatFunc) -> tuple[int, int, int]:
    """(deg num, deg den, coefficient bits) of f.  The bits bound both the
    numerators and the denominators of the coefficients; they are read off
    the contents and the integer parts, so no coefficient is built."""

    def bits(p: Poly) -> int:
        if not p._ints:
            return 0
        c = p._content
        top = max(max(p._ints), -min(p._ints)).bit_length()
        return max(c.numerator.bit_length() + top, c.denominator.bit_length())

    return f.num.degree, f.den.degree, max(bits(f.num), bits(f.den))


def _power_size(f: RatFunc) -> int:
    """Size of f as the base of a power, at least 1: its degree, or the
    64-bit words of its longest coefficient if that is larger.  f^e has
    about e times this size."""
    dn, dd, bits = _size_parts(f)
    return max(1, dn, dd, bits // 64)


def _check_budget(a: RatFunc, op: str, b: RatFunc) -> int:
    """A bound on the size of a op b (in the measure of _power_size),
    computed before the operation: the degrees of numerator and
    denominator add as the operation dictates, and so do the coefficient
    bits.  ParseError when the bound exceeds MAX_SIZE."""
    (an, ad, ab), (bn, bd, bb) = _size_parts(a), _size_parts(b)
    if op == "*":
        deg = max(an + bn, ad + bd)
    elif op == "/":
        deg = max(an + bd, ad + bn)
    else:  # a sum or difference over the common denominator
        deg = max(an + bd, ad + bn, ad + bd)
    size = max(deg, (ab + bb) // 64)
    if size > MAX_SIZE:
        raise ParseError(
            f"expression too large: '{op}' could give a result of size {size} "
            f"(at most {MAX_SIZE})"
        )
    return size


def _is_constant(f: RatFunc) -> bool:
    return f.num.degree <= 0 and f.is_polynomial


def _is_term(p: Poly) -> bool:
    # at most one nonzero coefficient: its powers cost linear time
    return sum(1 for x in p._ints if x) <= 1


def _work(a: RatFunc, op: str, b: RatFunc, size: int) -> int:
    """The charge of a op b, whose result has at most the given size:
    size^2 if the operation multiplies or takes the gcd of two
    non-constant polynomials, else 0."""
    if _is_constant(a) or _is_constant(b):
        return 0
    if op in "+-" and a.is_polynomial and b.is_polynomial:
        return 0
    return size * size


class _PolySum:
    """A run of polynomial summands added in one pass: integer
    coefficients over one common denominator, made primitive once, by
    ratfunc.  It keeps upper bounds on the degree and the coefficient
    bits of the sum so far, so that the parser can tell, without building
    that sum, when _check_budget cannot refuse the next summand."""

    __slots__ = ("ints", "den", "top")

    def __init__(self, p: Poly):
        self.ints: list[int] = []
        self.den = 1
        self.top = 0  # at least the largest |ints[i]|
        self.add("+", p)

    def add(self, op: str, p: Poly) -> None:
        c = p._content
        den = lcm(self.den, c.denominator)
        if den != self.den:
            r = den // self.den
            self.ints = [r * x for x in self.ints]
            self.top *= r
            self.den = den
        k = c.numerator * (den // c.denominator)
        if op == "-":
            k = -k
        ints = self.ints
        if len(ints) < len(p._ints):
            ints.extend([0] * (len(p._ints) - len(ints)))
        for i, x in enumerate(p._ints):
            if x:
                ints[i] += k * x
        if p._ints:
            self.top += abs(k) * max(max(p._ints), -min(p._ints))

    def fits(self, t: RatFunc) -> bool:
        """True when _check_budget surely passes on this sum plus or minus
        the polynomial t.  The sum's degree is at most len(ints) - 1, and
        its coefficient bits (see _size_parts) at most those of top plus
        one, or of den."""
        tn, _, tb = _size_parts(t)
        bits = max(self.top.bit_length() + 1, self.den.bit_length(), 2)
        return max(len(self.ints) - 1, tn) <= MAX_SIZE and (bits + tb) // 64 <= MAX_SIZE

    def ratfunc(self) -> RatFunc:
        return RatFunc(_primitive(self.ints, Fraction(1, self.den)))


def _charge(budget: ParseBudget, work: int) -> None:
    if not work:
        return
    budget.left -= work
    if budget.left < 0:
        raise ParseError(
            "expressions too large: their products and gcds pass the "
            f"parse budget ({PARSE_WORK} plus "
            f"{PARSE_WORK_PER_CHAR} per character)"
        )


class _ExprParser:
    def __init__(self, toks: list, budget: ParseBudget):
        self.toks = toks
        self.pos = 0
        self.budget = budget

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def expr(self) -> RatFunc:
        acc = self.term()
        run = None  # the sum so far, while it and its summands are polynomials
        while self.peek() in ("+", "-"):
            op = self.take()
            t = self.term()
            if t.is_polynomial and (run is not None or acc.is_polynomial):
                # a sum of polynomials charges nothing, and _check_budget
                # runs on the built sum only when the bounds cannot clear it
                if run is None:
                    run = _PolySum(acc.num)
                if not run.fits(t):
                    _check_budget(run.ratfunc(), op, t)
                run.add(op, t.num)
                continue
            if run is not None:
                acc, run = run.ratfunc(), None
            _charge(self.budget, _work(acc, op, t, _check_budget(acc, op, t)))
            acc = acc + t if op == "+" else acc - t
        return acc if run is None else run.ratfunc()

    def term(self) -> RatFunc:
        acc = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            t = self.unary()
            _charge(self.budget, _work(acc, op, t, _check_budget(acc, op, t)))
            acc = acc * t if op == "*" else acc / t
        return acc

    def unary(self) -> RatFunc:
        if self.peek() == "-":
            self.take()
            return -self.unary()
        if self.peek() == "+":
            self.take()
            return self.unary()
        return self.power()

    def power(self) -> RatFunc:
        base = self.atom()
        if self.peek() == "^":
            self.take()
            e = self.take()
            if not isinstance(e, int):
                raise ParseError("exponent must be a nonnegative integer")
            size = _power_size(base)
            if e * size > MAX_EXPONENT:
                raise ParseError(
                    f"power too large: exponent {e} on a base of size {size} "
                    f"(the product may be at most {MAX_EXPONENT})"
                )
            if e > 1 and not (_is_term(base.num) and _is_term(base.den)):
                _charge(self.budget, (e * size) ** 2)
            return base ** e
        return base

    def atom(self) -> RatFunc:
        t = self.take()
        if isinstance(t, int):
            return RatFunc.constant(t)
        if t == "VAR":
            return RatFunc.z()
        if t == "(":
            inner = self.expr()
            if self.take() != ")":
                raise ParseError("unbalanced parentheses")
            return inner
        raise ParseError(f"unexpected token {t!r}")


def _evaluate(toks: list, text: str, budget: ParseBudget) -> RatFunc:
    """The value of the tokens of an expression, by the general parser."""
    if not toks:
        raise ParseError("empty expression")
    p = _ExprParser(toks, budget)
    try:
        out = p.expr()
    except ZeroDenominator:
        raise ParseError("division by zero in expression") from None
    if p.pos != len(toks):
        raise ParseError(f"trailing tokens in expression: {text!r}")
    return out


def parse_ratfunc(
    text: str, var: str = "z", budget: ParseBudget | None = None
) -> RatFunc:
    """Parse the expression grammar the printers emit (and reasonable
    hand-written variants).  Round-trips ratfunc_text output bit-exactly.
    Every operation is bounded by MAX_SIZE, and the operations charge the
    given budget, or a budget for this text alone (see ParseBudget)."""
    if budget is None:
        budget = ParseBudget(len(text))
    return _evaluate(_tokenize(text, var), text, budget)


# An expression in partial fractions: its finite tails {a: (c_1, ..., c_K)}
# (c_k multiplies (z - a)^-k), trimmed and nonzero, and its polynomial part
# {m: c_m} with no zero coefficient.
PartialFractions = tuple[dict[Fraction, tuple[Fraction, ...]], dict[int, Fraction]]

# One summand as written (see _summands): (a, k, c, cbits, abits) for
# c/(z - a)^k, and (None, m, c, cbits, 0) for c*z^m.
Summand = tuple[Fraction | None, int, Fraction, int, int]

_ZERO, _ONE = Fraction(0), Fraction(1)


def parse_partial_fractions(
    text: str, budget: ParseBudget | None = None
) -> tuple[RatFunc, PartialFractions | None]:
    """parse_ratfunc in the variable z, plus the partial fractions the
    text is written in, or None (see _summands).

    When _fits shows that the general parser would refuse none of its
    steps on such a text, the value is built from the partial fractions
    in closed form, after the budget is charged the work of _merged.  Any
    other text goes through the general parser, with its charges and its
    errors."""
    if budget is None:
        budget = ParseBudget(len(text))
    toks = _tokenize(text, "z")
    summands = _summands(toks)
    if summands is None:
        return _evaluate(toks, text, budget), None
    if not _fits(summands):
        f = _evaluate(toks, text, budget)
        return f, _merged(summands)[0]
    form, work = _merged(summands)
    _charge(budget, work)
    tails, poly = form
    num, den = tails_num_den(tails.items())
    if poly:
        num = num + den * Poly([poly.get(m, _ZERO) for m in range(max(poly) + 1)])
    # coprime, see tails_num_den
    return RatFunc._coprime(num, den), form


def _summands(toks: list) -> list[Summand] | None:
    """The summands of tokens written as a sum of c/(z - a)^k,
    c/(z + a)^k, c/z^k (k >= 1), c*z^m, z^m and c, with c and a each n or
    n/d (d != 0) and one sign before each summand; None for any other
    tokens.  The grouping is the parser's: 3/4/z is (3/4)/z and -3/z^2 is
    (-3)/z^2.  A summand carries the signed value of c, cbits =
    max(bits n, 1) + bits d of c as written, and for a pole abits =
    max(bits n, bits d) + 1 of a as written (bits: int.bit_length)."""
    n = len(toks)

    def number(i: int):
        # n or n/d at i: (value, bits n, bits d, the index after it)
        if i >= n or not isinstance(toks[i], int):
            return None
        if i + 2 < n and toks[i + 1] == "/" and isinstance(toks[i + 2], int):
            if not toks[i + 2]:
                return None  # the parser reports the division by zero
            d = toks[i + 2]
            return Fraction(toks[i], d), toks[i].bit_length(), d.bit_length(), i + 3
        return Fraction(toks[i]), toks[i].bit_length(), 1, i + 1

    def power(i: int) -> tuple[int | None, int]:
        # the exponent at i, if any, of a base that ends before i
        if toks[i : i + 1] != ["^"]:
            return 1, i
        if i + 1 < n and isinstance(toks[i + 1], int):
            return toks[i + 1], i + 2
        return None, i

    def summand(i: int):
        # (summand, the index after it)
        c, cbits = _ONE, 2
        if toks[i : i + 1] != ["VAR"]:
            got = number(i)
            if got is None:
                return None
            c, bn, bd, i = got
            cbits = max(bn, 1) + bd
            if i == n or toks[i] in ("+", "-"):
                return (None, 0, c, cbits, 0), i
            if toks[i] == "/":
                if toks[i + 1 : i + 2] == ["VAR"]:
                    a, abits, i = _ZERO, 2, i + 2
                elif toks[i + 1 : i + 4] in (["(", "VAR", "-"], ["(", "VAR", "+"]):
                    got = number(i + 4)
                    if got is None or toks[got[3] : got[3] + 1] != [")"]:
                        return None
                    a, bn, bd, j = got
                    if toks[i + 3] == "+":
                        a = -a
                    abits, i = max(bn, bd) + 1, j + 1
                else:
                    return None
                k, i = power(i)
                return ((a, k, c, cbits, abits), i) if k is not None and k >= 1 else None
            if toks[i] != "*":
                return None
            i += 1
        if toks[i : i + 1] != ["VAR"]:
            return None
        m, i = power(i + 1)
        return ((None, m, c, cbits, 0), i) if m is not None else None

    out: list[Summand] = []
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
        (a, k, c, cbits, abits), i = got
        out.append((a, k, -c if sign < 0 else c, cbits, abits))
    return out or None


def _fits(summands: list[Summand]) -> bool:
    """True when bounds read off the written summands show that the
    general parser refuses none of its steps on them.

    - Exponents: the power check reads the size of z - a, whose bits are
      at most abits, so k * max(1, abits // 64) <= MAX_EXPONENT clears it.
    - Degrees: every sum, product and quotient the parser forms has
      numerator and denominator degrees at most S + P, S the sum of the
      written orders k (each repeated term counted) and P the largest
      written exponent m.
    - Coefficient bits (_size_parts): every value the parser forms is a
      number of the text, z - a, or a sum f of some of the summands in
      lowest terms.  With den_int = prod (d_a z - n_a)^M_a the primitive
      denominator of f and Q the product of the denominators of the c,
      Q f den_int is an integer polynomial of height at most
      sum_j |c_j| Q * prod_a (|n_a| + |d_a|)^M_a.  So the bits of f are at
      most B = bits(count) + 1 + sum_j (cbits_j + k_j abits_j), and two
      operands of at most B bits each clear the check when
      2 B < 64 (MAX_SIZE + 1).
    """
    orders = sum(k for a, k, *_ in summands if a is not None)
    top = max((k for a, k, *_ in summands if a is None), default=0)
    bits = len(summands).bit_length() + 1 + sum(cb + k * ab for _, k, _, cb, ab in summands)
    return (
        orders + top <= MAX_SIZE
        and 2 * bits < 64 * (MAX_SIZE + 1)
        and all(k * max(1, ab // 64) <= MAX_EXPONENT for _, k, _, _, ab in summands)
    )


def _merged(summands: list[Summand]) -> tuple[PartialFractions, int]:
    """The partial fractions of the summands, repeated terms added up, and
    the work the general parser charges for them when the coefficients
    take one word each: k^2 for each power (z - a)^k with a != 0 and
    k > 1, and d^2 for each sum of two operands that are not constant nor
    both polynomials, d the degree bound of _check_budget.  Its operands
    are the summand and the sum of the summands before it, whose degrees
    are read off the trimmed tails and polynomial part summed so far."""
    tails: dict[Fraction, list[Fraction]] = {}
    poly: list[Fraction] = []  # coefficients of z^0, z^1, ...
    dd = 0  # degree of the denominator of the sum so far
    work = 0
    for idx, (a, k, c, _, _) in enumerate(summands):
        if a and k > 1:
            work += k * k
        pd = len(poly) - 1
        if idx and c and (a is not None or k) and (dd or pd > 0) and (dd or a is not None):
            # numerator degree of the sum so far: dd + pd, or below dd
            tn, td = (k, 0) if a is None else (0, k)
            d = max(dd + pd + td, dd + tn, dd + td)
            work += d * d
        if a is None:
            coeffs, i = poly, k
        else:
            coeffs, i = tails.setdefault(a, []), k - 1
            dd -= len(coeffs)
        if len(coeffs) <= i:
            coeffs.extend([_ZERO] * (i + 1 - len(coeffs)))
        coeffs[i] += c
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        if a is not None:
            dd += len(coeffs)
    return (
        ({a: tuple(tail) for a, tail in tails.items() if tail}, {m: c for m, c in enumerate(poly) if c}),
        work,
    )
