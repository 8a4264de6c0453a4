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

No floating point enters anywhere: coefficients are ``fractions.Fraction``
throughout, and printing/parsing of rational functions round-trips
bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
    """Polynomial over Q, dense ascending coefficients, no trailing zeros.

    >>> p = Poly([1, 0, -2])      # -2z^2 + 1
    >>> p.degree
    2
    >>> poly_text(p)
    '-2*z^2 + 1'
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero() -> "Poly":
        return Poly(())

    @staticmethod
    def one() -> "Poly":
        return Poly((1,))

    @staticmethod
    def x() -> "Poly":
        return Poly((0, 1))

    @staticmethod
    def constant(c) -> "Poly":
        return Poly((as_fraction(c),))

    @staticmethod
    def monomial(k: int, c=1) -> "Poly":
        if k < 0:
            raise ValueError("monomial exponent must be >= 0")
        return Poly((0,) * k + (as_fraction(c),))

    # -- basic structure ---------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial assigned -1."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> Fraction:
        if self.is_zero:
            raise ZeroFunction("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __getitem__(self, k: int) -> Fraction:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Fraction(0)

    def __iter__(self) -> Iterator[Fraction]:
        return iter(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Poly", self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"Poly({poly_text(self)})"

    # -- ring operations ---------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        if self.is_zero or other.is_zero:
            return Poly.zero()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    def scale(self, c) -> "Poly":
        c = as_fraction(c)
        return Poly(tuple(c * a for a in self.coeffs))

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative polynomial power")
        out, base = Poly.one(), self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise ZeroDenominator("polynomial division by zero")
        q = [Fraction(0)] * max(0, self.degree - other.degree + 1)
        r = list(self.coeffs)
        d, lc = other.degree, other.lead
        while len(r) - 1 >= d and any(r):
            while r and r[-1] == 0:
                r.pop()
            if len(r) - 1 < d:
                break
            k = len(r) - 1 - d
            c = r[-1] / lc
            q[k] = c
            for i, b in enumerate(other.coeffs):
                r[k + i] -= c * b
        return Poly(q), Poly(r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def monic(self) -> "Poly":
        if self.is_zero:
            return self
        return self.scale(1 / self.lead)

    def gcd(self, other: "Poly") -> "Poly":
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    # -- evaluation and reexpansion ----------------------------------

    def __call__(self, a) -> Fraction:
        a = as_fraction(a)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * a + c
        return acc

    def shift(self, a) -> "Poly":
        """Taylor reexpansion: the polynomial p(z + a)."""
        a = as_fraction(a)
        acc = Poly.zero()
        za = Poly((a, 1))
        for c in reversed(self.coeffs):
            acc = acc * za + Poly.constant(c)
        return acc

    def reverse(self, n: int | None = None) -> "Poly":
        """Coefficient reversal z^n * p(1/z); n defaults to deg p."""
        if self.is_zero:
            return self
        if n is None:
            n = self.degree
        if n < self.degree:
            raise ValueError("reversal length below degree")
        padded = list(self.coeffs) + [Fraction(0)] * (n - self.degree)
        return Poly(tuple(reversed(padded)))

    def valuation0(self) -> int:
        """Order of vanishing at z = 0."""
        if self.is_zero:
            raise ZeroFunction("valuation of the zero polynomial")
        for i, c in enumerate(self.coeffs):
            if c:
                return i
        raise AssertionError("unreachable")


def _series_quot(num: Sequence[Fraction], den: Sequence[Fraction], terms: int) -> list[Fraction]:
    # power-series division, den[0] != 0
    inv0 = 1 / den[0]
    out: list[Fraction] = []
    for k in range(terms):
        acc = num[k] if k < len(num) else Fraction(0)
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * out[k - j]
        out.append(acc * inv0)
    return out


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
            num, den = Poly.zero(), Poly.one()
        else:
            lc = den.lead
            if lc != 1:
                num, den = num.scale(1 / lc), den.scale(1 / lc)
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
        return hash(("RatFunc", self.num.coeffs, self.den.coeffs))

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
        n = list(self.num.coeffs[vn:])
        d = list(self.den.coeffs[vd:])
        return val, _series_quot(n, d, hi - val + 1)

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
        p = Poly(p.coeffs[v:])
    if p.degree == 0:
        return roots, 0
    # integer model: clear denominators and content
    from math import gcd, lcm

    den_lcm = lcm(*[c.denominator for c in p.coeffs])
    ints = [int(c * den_lcm) for c in p.coeffs]
    content = 0
    for c in ints:
        content = gcd(content, c)
    ints = [c // content for c in ints]
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
    try:
        return Fraction(text.strip())
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


def _power_size(f: RatFunc) -> int:
    """Size of f as the base of a power, at least 1: its degree, or the
    64-bit words of its longest coefficient if that is larger.  f^e has
    about e times this size."""
    bits = max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for c in f.num.coeffs + f.den.coeffs
    )
    return max(1, f.num.degree, f.den.degree, bits // 64)


class _ExprParser:
    def __init__(self, toks: list):
        self.toks = toks
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def take(self):
        t = self.peek()
        self.pos += 1
        return t

    def expr(self) -> RatFunc:
        acc = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            t = self.term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def term(self) -> RatFunc:
        acc = self.unary()
        while self.peek() in ("*", "/"):
            op = self.take()
            t = self.unary()
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


def parse_ratfunc(text: str, var: str = "z") -> RatFunc:
    """Parse the expression grammar the printers emit (and reasonable
    hand-written variants).  Round-trips ratfunc_text output bit-exactly."""
    toks = _tokenize(text, var)
    if not toks:
        raise ParseError("empty expression")
    p = _ExprParser(toks)
    try:
        out = p.expr()
    except ZeroDenominator:
        raise ParseError("division by zero in expression") from None
    if p.pos != len(toks):
        raise ParseError(f"trailing tokens in expression: {text!r}")
    return out
