"""Principal part systems for maps of split bundles, and the degree-one
cohomology calculus built on them.

A principal part system assigns polar tails at finitely many points of the
projective line to each entry of a matrix indexed by a source and a target
frame.  At a finite point a the tuple (c_1, ..., c_m) of entry (i, j)
stands for c_1/(z-a) + ... + c_m/(z-a)^m; at infinity it stands for
c_1 u^{-1} + ... + c_m u^{-m} in the coordinate u = 1/z, read against the
entry twist dst[i] - src[j] exactly as in :mod:`symplext.ratfield`.

Systems modulo the tails of honest rational maps form H^1 of the hom
bundle.  :func:`reduce_class` computes the canonical representative
supported at infinity, :func:`lift_rational` inverts it on coboundaries,
and :func:`cech_class` translates one-cocycles on the standard two-chart
cover into the same normal form, so transition-matrix and polar-tail
descriptions of an extension can be compared coefficient by coefficient.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from . import _linalg as la
from .bundles import RatHom, _selfdual_check, as_frame
from .errors import FrameMismatch, NotACochain, NotACoboundary
from .ratfield import (
    INFINITY,
    PointP1,
    PartialFractions,
    Poly,
    RatFunc,
    _as_ratfunc,
    as_fraction,
    full_principal_part,
    tails_num_den,
)

__all__ = [
    "PrinHom",
    "CohClass",
    "prin_of",
    "prin_of_partial_fractions",
    "assembled_finite",
    "reduce_class",
    "is_coboundary",
    "lift_rational",
    "has_prin",
    "transpose_prin",
    "prin_length",
    "local_condition_matrix",
    "apply_prin",
    "cocycle_of",
    "cech_class",
    "class_dim",
]

Coeffs = tuple[Fraction, ...]
IntTail = tuple[tuple[int, ...], int]


def _trim(coeffs: Iterable) -> Coeffs:
    out = [as_fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def _int_tail(coeffs: Coeffs) -> IntTail:
    """(n_1, ..., n_m), d with c_k = n_k / d over the least common
    denominator d > 0 of the c_k."""
    d = math.lcm(*(c.denominator for c in coeffs))
    return tuple(c.numerator * (d // c.denominator) for c in coeffs), d


def _powers(x: int, n: int) -> list[int]:
    """[1, x, x^2, ..., x^n]."""
    out = [1]
    for _ in range(n):
        out.append(out[-1] * x)
    return out


class PrinHom:
    """Principal part system of a rational map between framed split
    bundles.

    ``parts`` maps points to matrices of polar coefficient tuples; zero
    tails and empty points are normalized away, so equality of systems is
    dict equality.  :meth:`int_parts` is the same system in integers, built
    on first use: each tail as integer numerators over one positive
    denominator, which the closed-form tail transports sum in.
    """

    __slots__ = ("src", "dst", "parts", "_int_parts")

    def __init__(self, src, dst, parts: Mapping[PointP1, Sequence[Sequence[Iterable]]]):
        src, dst = as_frame(src), as_frame(dst)
        norm: dict[PointP1, tuple[tuple[Coeffs, ...], ...]] = {}
        for pt, mat in parts.items():
            if not isinstance(pt, PointP1):
                raise FrameMismatch(f"not a point: {pt!r}")
            rows = tuple(tuple(_trim(c) for c in row) for row in mat)
            if len(rows) != len(dst) or any(len(r) != len(src) for r in rows):
                raise FrameMismatch(
                    f"part matrix at {pt} is not {len(dst)}x{len(src)}"
                )
            if any(c for row in rows for c in row):
                norm[pt] = rows
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "parts", norm)
        object.__setattr__(self, "_int_parts", None)

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero(src, dst) -> "PrinHom":
        return PrinHom(src, dst, {})

    # -- structure ----------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.dst)

    @property
    def ncols(self) -> int:
        return len(self.src)

    def twist(self, i: int, j: int) -> int:
        return self.dst[i] - self.src[j]

    @property
    def support(self) -> tuple[PointP1, ...]:
        return tuple(sorted(self.parts, key=PointP1.sort_key))

    @property
    def is_zero(self) -> bool:
        return not self.parts

    def entry(self, point: PointP1, i: int, j: int) -> Coeffs:
        mat = self.parts.get(point)
        return mat[i][j] if mat is not None else ()

    def int_parts(self) -> dict[PointP1, tuple[tuple[IntTail, ...], ...]]:
        """``parts`` with each tail (c_1, ..., c_m) as ((n_1, ..., n_m), d):
        c_k = n_k / d, d > 0 the least common denominator.  Cached."""
        got = self._int_parts
        if got is None:
            got = {
                pt: tuple(tuple(_int_tail(c) for c in row) for row in mat)
                for pt, mat in self.parts.items()
            }
            self._int_parts = got
        return got

    def order_at(self, point: PointP1) -> int:
        mat = self.parts.get(point)
        if mat is None:
            return 0
        return max((len(c) for row in mat for c in row), default=0)

    def _key(self):
        items = tuple(
            (pt, self.parts[pt]) for pt in self.support
        )
        return (self.src, self.dst, items)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrinHom) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        bits = []
        for pt in self.support:
            mat = self.parts[pt]
            bits.append(f"{pt}: {[[list(map(str, c)) for c in row] for row in mat]}")
        return f"PrinHom[{self.src}->{self.dst}; " + "; ".join(bits) + "]"

    # -- linear operations ---------------------------------------------

    def _check_same_frame(self, other: "PrinHom"):
        if self.src != other.src or self.dst != other.dst:
            raise FrameMismatch("frames differ")

    def _combine(self, other: "PrinHom", sign: int) -> "PrinHom":
        # self + sign * other, tail by tail
        self._check_same_frame(other)
        parts = {}
        for pt in set(self.parts) | set(other.parts):
            rows = tuple(
                tuple(
                    _tail_sum(self.entry(pt, i, j), other.entry(pt, i, j), sign)
                    for j in range(self.ncols)
                )
                for i in range(self.nrows)
            )
            if any(c for row in rows for c in row):
                parts[pt] = rows
        return _prinhom(self.src, self.dst, parts)

    def __add__(self, other: "PrinHom") -> "PrinHom":
        return self._combine(other, 1)

    def __sub__(self, other: "PrinHom") -> "PrinHom":
        return self._combine(other, -1)

    def __neg__(self) -> "PrinHom":
        return self.scale(-1)

    def scale(self, c) -> "PrinHom":
        c = as_fraction(c)
        if not c:
            return _prinhom(self.src, self.dst, {})
        parts = {
            pt: tuple(tuple(tuple(c * x for x in cf) for cf in row) for row in mat)
            for pt, mat in self.parts.items()
        }
        return _prinhom(self.src, self.dst, parts)


def _prinhom(src, dst, parts) -> PrinHom:
    # a system from frames and parts already in normal form
    p = object.__new__(PrinHom)
    p.src, p.dst, p.parts, p._int_parts = src, dst, parts, None
    return p


def _tail_sum(a: Coeffs, b: Coeffs, sign: int) -> Coeffs:
    """The trimmed tail a + sign * b."""
    if not b:
        return a
    if not a:
        return b if sign > 0 else tuple(-x for x in b)
    if len(a) < len(b):
        a = a + (0,) * (len(b) - len(a))
    out = list(a)
    for k, y in enumerate(b):
        out[k] += sign * y
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def prin_of(phi: RatHom) -> PrinHom:
    """All polar tails of a rational map, entry by entry in its twists."""
    parts: dict[PointP1, list[list[Coeffs]]] = {}

    def slot(pt: PointP1) -> list[list[Coeffs]]:
        if pt not in parts:
            parts[pt] = [[() for _ in range(phi.ncols)] for _ in range(phi.nrows)]
        return parts[pt]

    for i in range(phi.nrows):
        for j in range(phi.ncols):
            for pp in full_principal_part(phi[i, j], phi.twist(i, j)):
                slot(pp.point)[i][j] = pp.coeffs
    return PrinHom(phi.src, phi.dst, parts)


def prin_of_partial_fractions(src, dst, forms: Sequence[Sequence[PartialFractions]]) -> PrinHom:
    """prin_of of the map whose entry (i, j) is written in the partial
    fractions forms[i][j] (see ratfield._summands), read off the
    form with no gcd and no root search.

    The finite tails are those of the form.  At infinity, in the twist t
    of the entry, c z^m adds c at order m - t when m > t, and the finite
    tails add orders 1 .. -t-1 (_excess_ints).
    """
    src, dst = as_frame(src), as_frame(dst)
    parts: dict[PointP1, list[list[Coeffs]]] = {}
    for i, row in enumerate(forms):
        for j, (tails, _) in enumerate(row):
            for a, tail in tails.items():
                pt = PointP1.finite(a)
                if pt not in parts:
                    parts[pt] = [[() for _ in src] for _ in dst]
                parts[pt][i][j] = tail
    finite = {pt: tuple(map(tuple, mat)) for pt, mat in parts.items()}
    p = _prinhom(src, dst, finite)
    at_inf = []
    for i, row in enumerate(forms):
        out = []
        for j, (_, poly) in enumerate(row):
            t = dst[i] - src[j]
            exc, den = _excess_ints(p, i, j)
            tail = [Fraction(x, den) for x in exc]
            for m, c in poly.items():
                if m > t:
                    tail.extend([Fraction(0)] * (m - t - len(tail)))
                    tail[m - t - 1] += c
            out.append(_trim(tail))
        at_inf.append(tuple(out))
    if not any(c for row in at_inf for c in row):
        return p
    return _prinhom(src, dst, {**finite, INFINITY: tuple(at_inf)})


def _finite_tails(
    p: PrinHom, i: int, j: int, skip: PointP1 | None = None
) -> tuple[Poly, Poly]:
    """The finite tails of entry (i, j), optionally leaving out one point,
    summed as num / den in lowest terms by ratfield.tails_num_den."""
    return tails_num_den(
        (pt.value, mat[i][j])
        for pt, mat in p.parts.items()
        if mat[i][j] and not pt.is_infinity and pt != skip
    )


def assembled_finite(p: PrinHom, i: int, j: int) -> RatFunc:
    """Sum of the finite polar tails of entry (i, j) as a rational
    function, assembled in lowest terms by _finite_tails."""
    return RatFunc._coprime(*_finite_tails(p, i, j))


def transpose_prin(p: PrinHom) -> PrinHom:
    """Pointwise matrix transpose; frames must be self-dual so every
    entry keeps its twist."""
    _selfdual_check(p.src, p.dst)
    parts = {pt: tuple(zip(*mat)) for pt, mat in p.parts.items()}
    return _prinhom(p.src, p.dst, parts)


# ============================================================
# Classes in H^1 of the hom bundle
# ============================================================


def class_dim(src, dst) -> int:
    """dim H^1 of the hom bundle between the two frames."""
    src, dst = as_frame(src), as_frame(dst)
    return sum(max(0, -(d - e) - 1) for d in dst for e in src)


class CohClass:
    """Canonical representative of a degree-one class: per entry the
    infinity tail coefficients c_1 .. c_{-t-1} that no rational map can
    absorb.  Entries that vanish identically are dropped, so dict
    equality decides equality of classes."""

    __slots__ = ("src", "dst", "data")

    def __init__(self, src, dst, data: Mapping[tuple[int, int], Iterable]):
        src, dst = as_frame(src), as_frame(dst)
        norm: dict[tuple[int, int], Coeffs] = {}
        for (i, j), coeffs in data.items():
            length = max(0, -(dst[i] - src[j]) - 1)
            vals = [as_fraction(c) for c in coeffs]
            if len(vals) > length:
                raise FrameMismatch(
                    f"class entry ({i}, {j}) longer than h^1 of its twist"
                )
            vals += [Fraction(0)] * (length - len(vals))
            if any(vals):
                norm[(i, j)] = tuple(vals)
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "data", norm)

    @staticmethod
    def zero(src, dst) -> "CohClass":
        return CohClass(src, dst, {})

    @property
    def is_zero(self) -> bool:
        return not self.data

    def twist(self, i: int, j: int) -> int:
        return self.dst[i] - self.src[j]

    def entry(self, i: int, j: int) -> Coeffs:
        length = max(0, -self.twist(i, j) - 1)
        got = self.data.get((i, j))
        return got if got is not None else (Fraction(0),) * length

    def vector(self) -> list[Fraction]:
        """Flatten to the fixed slot order (i, j, k); length class_dim."""
        out: list[Fraction] = []
        for i in range(len(self.dst)):
            for j in range(len(self.src)):
                out.extend(self.entry(i, j))
        return out

    def _key(self):
        return (self.src, self.dst, tuple(sorted(self.data.items())))

    def __eq__(self, other) -> bool:
        return isinstance(other, CohClass) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self) -> str:
        if self.is_zero:
            return f"CohClass[{self.src}->{self.dst}; 0]"
        bits = ", ".join(
            f"({i},{j}): {tuple(map(str, c))}" for (i, j), c in sorted(self.data.items())
        )
        return f"CohClass[{self.src}->{self.dst}; {bits}]"

    def __add__(self, other: "CohClass") -> "CohClass":
        if self.src != other.src or self.dst != other.dst:
            raise FrameMismatch("frames differ")
        data = {}
        for k in set(self.data) | set(other.data):
            vals = tuple(a + b for a, b in zip(self.entry(*k), other.entry(*k)))
            if any(vals):
                data[k] = vals
        return _cohclass(self.src, self.dst, data)

    def __sub__(self, other: "CohClass") -> "CohClass":
        return self + other.scale(-1)

    def __neg__(self) -> "CohClass":
        return _cohclass(
            self.src, self.dst, {k: tuple(-x for x in v) for k, v in self.data.items()}
        )

    def scale(self, c) -> "CohClass":
        c = as_fraction(c)
        if not c:
            return _cohclass(self.src, self.dst, {})
        return _cohclass(
            self.src,
            self.dst,
            {k: tuple(c * x for x in v) for k, v in self.data.items()},
        )

    def transpose(self) -> "CohClass":
        """Swap the entry indices; needs a self-dual frame so the twists
        (and so the slot lengths) match up."""
        _selfdual_check(self.src, self.dst)
        return _cohclass(
            self.src, self.dst, {(j, i): v for (i, j), v in self.data.items()}
        )


def _cohclass(src, dst, data) -> CohClass:
    # a class from frames and entries already in canonical form
    c = object.__new__(CohClass)
    c.src, c.dst, c.data = src, dst, data
    return c


def _excess_ints(
    p: PrinHom, i: int, j: int, skip: PointP1 | None = None
) -> tuple[list[int], int]:
    """Tail at infinity, orders 1 .. -t-1, that the finite tails of entry
    (i, j) carry in its twist t (optionally skipping one point), as integer
    numerators over one positive denominator.

    In u = 1/z the tail c/(z-a)^k reads c u^(t+k) (1 - a u)^(-k), so it
    adds c * C(k+m-1, m) * a^m at order L + 1 - k - m for m >= 0, with
    L = -t-1.  No order goes past L, and a = 0 reaches order L + 1 - k
    only.  With the tail as n_k / d (PrinHom.int_parts) and a = P/Q, a
    point adds to each order one integer sum of
    n_k C(k+m-1, m) P^m Q^(L-1-m) over d Q^(L-1).
    """
    L = -p.twist(i, j) - 1
    out, den = [0] * max(0, L), 1
    for pt, mat in p.int_parts().items():
        if pt.is_infinity or pt == skip:
            continue
        nums, d = mat[i][j]
        if not nums or L <= 0:
            continue
        P, Q = pt.value.numerator, pt.value.denominator
        pp, qq = _powers(P, L - 1), _powers(Q, L - 1)
        # bring the sums so far and this point's to one denominator
        pden = d * qq[-1]
        g = math.gcd(den, pden)
        if pden != g:
            out = [x * (pden // g) for x in out]
        mine = den // g
        den *= pden // g
        # k + m = r runs over 1 .. L
        for r in range(1, L + 1):
            acc = 0
            for k in range(1, min(r, len(nums)) + 1):
                n = nums[k - 1]
                if n:
                    m = r - k
                    acc += n * math.comb(r - 1, m) * pp[m] * qq[L - 1 - m]
            out[L - r] += acc * mine
    return out, den


def reduce_class(p: PrinHom) -> CohClass:
    """Canonical representative of the class of a principal part system.

    Per entry subtract from the tail at infinity the tail that the finite
    tails carry there, keeping only the orders no polynomial can reach.
    What is left are the coefficients c_k, 1 <= k <= -t - 1.  The finite
    tails are read from p.int_parts(), so each order is one integer sum
    over one denominator, and a Fraction is made only for the orders of
    a nonzero entry (see _excess_ints).  The map is linear:
    the class of t(p) + sign * p is c.transpose() + c.scale(sign) for
    c = reduce_class(p).

    >>> from .ratfield import PointP1
    >>> p = PrinHom((0,), (-2,), {PointP1.finite(1): [[(1,)]]})
    >>> reduce_class(p).entry(0, 0)
    (Fraction(-1, 1),)
    >>> q = PrinHom((0,), (-3,), {INFINITY: [[(5, 7, 9)]]})
    >>> reduce_class(q).entry(0, 0)
    (Fraction(5, 1), Fraction(7, 1))
    """
    data: dict[tuple[int, int], Coeffs] = {}
    at_inf = p.int_parts().get(INFINITY)
    for i in range(p.nrows):
        for j in range(p.ncols):
            length = -p.twist(i, j) - 1
            if length <= 0:
                continue
            exc, den = _excess_ints(p, i, j)
            pinf, d = at_inf[i][j] if at_inf is not None else ((), 1)
            # pinf / d - exc / den over the denominator lcm(d, den)
            g = math.gcd(d, den)
            a, b = den // g, d // g
            vals = [
                (pinf[k] * a if k < len(pinf) else 0) - exc[k] * b
                for k in range(length)
            ]
            if any(vals):
                data[(i, j)] = tuple(Fraction(v, b * den) for v in vals)
    return _cohclass(p.src, p.dst, data)


def is_coboundary(p: PrinHom) -> bool:
    """True iff some rational map has exactly these polar tails."""
    return reduce_class(p).is_zero


def lift_rational(p: PrinHom) -> RatHom:
    """The canonical rational map whose polar tails are exactly p.

    Raises NotACoboundary when the class of p is nonzero, naming the
    first nonzero order of the first obstructed entry.  Entry (i, j) in
    twist t is num/den, its finite tails (_finite_tails), plus the
    monomials pinf_k z^(k+t) for its tail pinf at infinity and k >= -t.
    The orders k + t < 0 are those of the class, so on a coboundary the
    finite tails already carry them.  The lift is normalized: its
    polynomial part has no monomials below the first order needed at
    infinity.  num + den * P has num's values at the roots of den, so it
    stays coprime to den.
    """
    c = reduce_class(p)
    if not c.is_zero:
        i, j = min(c.data)
        k = next(k for k, x in enumerate(c.data[(i, j)], 1) if x)
        raise NotACoboundary(
            f"obstructed at infinity order {k} in twist {p.twist(i, j)}"
            f" of entry ({i}, {j})"
        )
    return _lift(p)


def _lift(p: PrinHom) -> RatHom:
    # lift_rational of a p whose class the caller has already found zero
    entries = []
    for i in range(p.nrows):
        row = []
        for j in range(p.ncols):
            num, den = _finite_tails(p, i, j)
            t = p.twist(i, j)
            pinf = p.entry(INFINITY, i, j)
            lo = max(1, -t)  # z^(k+t) is a polynomial for k >= lo
            if len(pinf) >= lo:
                num = num + den * Poly((0,) * (lo + t) + pinf[lo - 1 :])
            row.append(RatFunc._coprime(num, den))
        entries.append(row)
    return RatHom(p.src, p.dst, entries)


def has_prin(phi: RatHom, p: PrinHom) -> bool:
    """True iff prin_of(phi) == p, decided on the support of p with no
    search for the poles of phi.

    Entry (i, j) has exactly the tails of p when its reduced denominator
    is prod (z - a)^m_a over the finite points a of p, m_a the length of
    the tail of p_ij at a (its top coefficient is nonzero, so that is the
    order of the pole there), which leaves no other pole; and when its
    tail at each such a and at infinity is that of p_ij.
    """
    if phi.src != p.src or phi.dst != p.dst:
        return False
    finite = [pt for pt in p.support if not pt.is_infinity]
    for i in range(p.nrows):
        for j in range(p.ncols):
            f = phi[i, j]
            den = Poly.one()
            for pt in finite:
                m = len(p.entry(pt, i, j))
                if m:
                    den = den * Poly((-pt.value, 1)) ** m
            if f.den != den:
                return False
            for pt in finite:
                tail = p.entry(pt, i, j)
                if tail and f.translate(pt.value).polar0() != tail:
                    return False
            if f.flip(p.twist(i, j)).polar0() != p.entry(INFINITY, i, j):
                return False
    return True


# ============================================================
# Local condition matrices and length
# ============================================================


def local_condition_matrix(p: PrinHom, point: PointP1) -> list[list[Fraction]]:
    """Matrix of the linear conditions the tails of p at a point impose
    on jets of source vectors.

    Rows are ordered by (target row i, polar order r = 1..K); columns by
    (source column j, jet order s = 0..K-1); the entry is the tail
    coefficient c^{ij}_{r+s}.  The rank is the local length at the point;
    the row space cuts out the jets whose image has no tail there.
    """
    K = p.order_at(point)
    n, m = p.nrows, p.ncols
    rows: list[list[Fraction]] = []
    for i in range(n):
        for r in range(1, K + 1):
            row: list[Fraction] = []
            for j in range(m):
                c = p.entry(point, i, j)
                for s in range(K):
                    row.append(c[r + s - 1] if r + s <= len(c) else Fraction(0))
            rows.append(row)
    return rows


def prin_length(p: PrinHom) -> int:
    """Total length of the torsion the system generates: the sum over
    support points of the rank of the local condition matrix."""
    return sum(la.rank(local_condition_matrix(p, pt)) for pt in p.support)


# ============================================================
# Applying a system to sections
# ============================================================


def apply_prin(p: PrinHom, sections: Sequence[RatFunc]) -> PrinHom:
    """Polar tails of p applied to a tuple of global sections of the
    source frame: a column system in the target frame.

    sections[j] must be a global section of O(src[j]); the result row i
    collects, point by point, the tails of (tail of p_{ij} there) times
    sections[j].  Each section is a polynomial in the point's uniformizer
    w, s(z + a) at a finite point and its flip u^src[j] s(1/u) at
    infinity, so the product's tail is a convolution (_tail_times).
    """
    secs = [_as_ratfunc(s) for s in sections]
    if len(secs) != p.ncols:
        raise FrameMismatch("section vector length differs from source rank")
    for j, s in enumerate(secs):
        if not s.is_global(p.src[j]):
            raise FrameMismatch(f"sections[{j}] is not global for twist {p.src[j]}")
    parts = {}
    for pt in p.support:
        if pt.is_infinity:
            jets = [s.flip(p.src[j]).num for j, s in enumerate(secs)]
        else:
            jets = [s.num.shift(pt.value) for s in secs]
        col = tuple((_tail_times(row, jets),) for row in p.parts[pt])
        if any(c for (c,) in col):
            parts[pt] = col
    return _prinhom((0,), p.dst, parts)


def _tail_times(tails: Sequence[Coeffs], jets: Sequence[Poly]) -> Coeffs:
    """The trimmed polar part of sum_j tails[j] * jets[j], each tail
    sum_k c_k w^(-k) times a polynomial in w: order m collects c_k times
    the coefficient of w^(k - m)."""
    out = [Fraction(0)] * max(map(len, tails))
    for tail, g in zip(tails, jets):
        for k, c in enumerate(tail, 1):
            if c:
                for m in range(1, k + 1):
                    out[m - 1] += c * g[k - m]
    while out and not out[-1]:
        out.pop()
    return tuple(out)


# ============================================================
# Cech dictionary on the two-chart cover
# ============================================================


def _s_infinity_entry(p: PrinHom, i: int, j: int) -> RatFunc:
    """Entry (i, j) of the u-chart splitting s_inf of p: its tails away
    from 0 plus the Laurent residual sum_k r_k z^(k+t) in its twist t,
    r = pinf minus the tail at infinity of those finite tails
    (_excess_ints), so that the tail at infinity is pinf.

    With num/den the tails away from 0 (_finite_tails, den(0) != 0) and
    z^-v the lowest power of the residual R, the sum is
    (num z^v + den R z^v) / (den z^v): the numerator is num(a) a^v != 0
    at a root a of den and den(0) r_lowest != 0 at 0, so no gcd is taken.
    """
    origin = PointP1.finite(0)
    num, den = _finite_tails(p, i, j, skip=origin)
    exc, d = _excess_ints(p, i, j, skip=origin)
    res = _tail_sum(p.entry(INFINITY, i, j), _trim(Fraction(x, d) for x in exc), -1)
    if not res:
        return RatFunc._coprime(num, den)
    low = next(k for k, x in enumerate(res) if x)
    # res[k] is the coefficient of z^(k + 1 + t); z^v clears the lowest
    e = 1 + p.twist(i, j)
    v = max(0, -(low + e))
    zv = Poly.monomial(v)
    R = Poly((0,) * max(e + v, 0) + res[max(-(e + v), 0) :])
    return RatFunc._coprime(num * zv + den * R, den * zv)


def cocycle_of(p: PrinHom) -> list[list[RatFunc]]:
    """Chart-0 matrix of the one-cocycle s_0 - s_inf attached to p.

    s_0 realizes the finite tails (assembled_finite), s_inf the tails on
    the chart at infinity: all a != 0, and infinity itself, where the
    monomial z^(k+t) absorbs the residual order k (_s_infinity_entry).
    The difference is regular on the overlap: a Laurent matrix.
    """
    return [
        [assembled_finite(p, i, j) - _s_infinity_entry(p, i, j) for j in range(p.ncols)]
        for i in range(p.nrows)
    ]


def cech_class(T: Sequence[Sequence[RatFunc]], src, dst) -> CohClass:
    """Class of a one-cocycle on the two-chart cover, given by its
    chart-0 matrix (entries Laurent in z, twist dst[i] - src[j]).

    The nonnegative powers are a chart-0 coboundary; the tail at 0 is a
    principal part system whose canonical representative is the class.
    """
    src, dst = as_frame(src), as_frame(dst)
    mats = [[x for x in row] for row in T]
    if len(mats) != len(dst) or any(len(r) != len(src) for r in mats):
        raise FrameMismatch("cocycle matrix does not fit the frames")
    parts: dict[PointP1, list[list[Coeffs]]] = {}
    origin = PointP1.finite(0)
    mat0: list[list[Coeffs]] = []
    for row in mats:
        out_row: list[Coeffs] = []
        for f in map(_as_ratfunc, row):
            if not f.is_zero and any(c != 0 for c in f.den.coeffs[:-1]):
                raise NotACochain(
                    "cocycle entries must be regular on the overlap "
                    "(Laurent in z)"
                )
            out_row.append(f.polar0() if not f.is_zero else ())
        mat0.append(out_row)
    if any(c for row in mat0 for c in row):
        parts[origin] = mat0
    return reduce_class(PrinHom(src, dst, parts))
