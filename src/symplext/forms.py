"""Symplectic and orthogonal structures on extensions of the twisted dual.

Fix a split bundle E and a twisting line O(ell), and write F for the
twisted dual Hom(E, O(ell)).  An extension 0 -> E -> W -> F -> 0 is
recorded by a principal part system p : F -> E (:class:`ExtensionData`).
W carries an O(ell)-valued symplectic form restricting to zero on E
exactly when the class of p is symmetric, and an orthogonal one exactly
when it is antisymmetric.  :func:`check_symplectic` and
:func:`check_orthogonal` decide this from the class of p alone and, on
success, produce the rational correction alpha that turns the naive
pairing into the form.

Members of W over the rational function field are pairs (e, phi); the
form is evaluated by :func:`SymplecticExtension.theta`.  The same form
can be packaged as a pair of chart matrices (:class:`FormCochain`), and
:func:`class_from_form` runs the reverse direction: validate such a pair
and recover the extension class it determines together with the glueing
endomorphism B.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from . import _linalg as la
from .bundles import (
    LineTwist,
    RatHom,
    SplitBundle,
    TransitionData,
    dual_frame,
)
from .errors import (
    DegenerateB,
    FrameMismatch,
    InternalLiftFailure,
    IsotropyViolation,
    NotAFormCochain,
)
from .prinparts import (
    CohClass,
    PrinHom,
    _s_infinity_entry,
    apply_prin,
    assembled_finite,
    cech_class,
    class_dim,
    has_prin,
    lift_rational,
    reduce_class,
    transpose_prin,
)
from .ratfield import INFINITY, Poly, RatFunc, _as_ratfunc, valuation, zpow

__all__ = [
    "ExtensionData",
    "SymplecticExtension",
    "OrthogonalExtension",
    "check_symplectic",
    "check_orthogonal",
    "RatSectionW",
    "is_global_member",
    "wp_phi_basis",
    "wp_admissible_phi",
    "wp_member",
    "gram_matrix",
    "gram_nondegenerate",
    "FormCochain",
    "form_cochain_from_extension",
    "class_from_form",
]

Matrix = list[list[RatFunc]]


@dataclass(frozen=True)
class ExtensionData:
    """Extension of the twisted dual F = Hom(E, O(ell)) by E, recorded by
    a principal part system p : F -> E.

    The frames are forced: p.src must be the dual frame (ell - d_j) in
    E's index order and p.dst the degrees of E, so entry (i, j) lives in
    twist d_i + d_j - ell.
    """

    bundle: SplitBundle
    twist: LineTwist
    p: PrinHom

    def __post_init__(self):
        E = self.bundle if isinstance(self.bundle, SplitBundle) else SplitBundle(self.bundle)
        L = self.twist if isinstance(self.twist, LineTwist) else LineTwist(int(self.twist))
        object.__setattr__(self, "bundle", E)
        object.__setattr__(self, "twist", L)
        if self.p.dst != E.degrees or self.p.src != dual_frame(E.degrees, L.ell):
            raise FrameMismatch(
                "principal part frames must be (dual frame of E) -> E"
            )

    @property
    def e_frame(self) -> tuple[int, ...]:
        return self.bundle.degrees

    @property
    def f_frame(self) -> tuple[int, ...]:
        return dual_frame(self.bundle.degrees, self.twist)

    @property
    def rank(self) -> int:
        return self.bundle.rank

    @property
    def ell(self) -> int:
        return self.twist.ell

    def extension_class(self) -> CohClass:
        """The class [p], reduced once per extension and cached: the
        structure checks and the search read it."""
        return self._class

    @cached_property
    def _class(self) -> CohClass:
        return reduce_class(self.p)

    def s_zero(self) -> RatHom:
        """Rational realization of the finite tails of p (the chart-0
        splitting)."""
        return self._s_zero

    @cached_property
    def _s_zero(self) -> RatHom:
        # s_infinity and every graph built in this extension reuse it
        return RatHom(
            self.f_frame,
            self.e_frame,
            [
                [assembled_finite(self.p, i, j) for j in range(self.rank)]
                for i in range(self.rank)
            ],
        )

    def cocycle(self) -> Matrix:
        """Chart-0 matrix of s_0 - s_inf."""
        return la.mat_sub(self.s_zero().entries, self.s_infinity().entries)

    def s_infinity(self) -> RatHom:
        """Rational splitting on the u-chart: the tails of p away from 0
        plus the Laurent residual that matches its tails at infinity."""
        return self._s_infinity

    @cached_property
    def _s_infinity(self) -> RatHom:
        # every graph built in this extension and its regularity check reuse it
        return RatHom(
            self.f_frame,
            self.e_frame,
            [
                [_s_infinity_entry(self.p, i, j) for j in range(self.rank)]
                for i in range(self.rank)
            ],
        )

    def transition(self) -> TransitionData:
        """Two-chart transition of W: delta is the cocycle matrix times
        the F-transition diag(z^(ell - d_j))."""
        T = self.cocycle()
        ff = self.f_frame
        delta = tuple(
            tuple(T[i][j] * zpow(ff[j]) for j in range(self.rank))
            for i in range(self.rank)
        )
        return TransitionData(self.e_frame, self.ell, delta)


# ============================================================
# Existence of the structure
# ============================================================


def _structure_alpha(ext: ExtensionData, sign: int):
    """Common core: the canonical lift of s = t(p) + sign * p, or None
    when its class obstructs.

    The class map is linear, so the class of s is c.transpose() +
    c.scale(sign) for the cached c = [p]: it vanishes iff c.transpose()
    is -sign * c, and an obstructed extension builds no s.  The lift
    needs no symmetrizing: each entry of lift_rational(s) is linear in
    the tails of s_ij and its twist, both symmetric in (i, j) up to the
    sign, so the lift already satisfies t(alpha) = sign * alpha.  That it
    has exactly the tails of s is checked on the support of s, without a
    search for its poles.
    """
    c = ext.extension_class()
    if c.transpose() != (c if sign < 0 else -c):
        return None
    tp = transpose_prin(ext.p)
    s = tp + ext.p if sign > 0 else tp - ext.p
    alpha = lift_rational(s)
    if not has_prin(alpha, s):
        raise InternalLiftFailure("lift lost principal parts; this is a bug")
    return alpha


def check_symplectic(ext: ExtensionData) -> "SymplecticExtension | None":
    """Symplectic structure on the extension, or None.

    One exists iff the class of t(p) - p vanishes, which is read off the
    class of p as c.transpose() - c; the witness alpha is the canonical
    lift of t(p) - p, antisymmetric as it stands, and its tails are
    checked against t(p) - p on the support alone.
    """
    alpha = _structure_alpha(ext, -1)
    if alpha is None:
        return None
    return SymplecticExtension(ext, alpha)


def check_orthogonal(ext: ExtensionData) -> "OrthogonalExtension | None":
    """Orthogonal structure on the extension, or None.

    One exists iff the class of t(p) + p vanishes, which is read off the
    class of p as c.transpose() + c; the witness alpha is the canonical
    lift of t(p) + p, symmetric as it stands, and its tails are checked
    against t(p) + p on the support alone.

    In rank 2 with E = O(-1)^2 and ell = 0 every entry has twist -2, so
    the class is one number per entry.  The tails 1/z above the diagonal
    and -1/(z - 1) below it have the antisymmetric class (-1, 1), and
    t(p) + p lifts to a symmetric alpha with poles at 0 and 1 off the
    diagonal:

    >>> from .ratfield import PointP1, ratfunc_text
    >>> p = PrinHom((1, 1), (-1, -1), {
    ...     PointP1.finite(0): [[(), (1,)], [(), ()]],
    ...     PointP1.finite(1): [[(), ()], [(-1,), ()]],
    ... })
    >>> oe = check_orthogonal(ExtensionData((-1, -1), 0, p))
    >>> [[ratfunc_text(oe.alpha[i, j]) for j in range(2)] for i in range(2)]
    [['0', '(-1)/(z^2 - z)'], ['(-1)/(z^2 - z)', '0']]
    >>> check_symplectic(ExtensionData((-1, -1), 0, p)) is None
    True
    """
    alpha = _structure_alpha(ext, +1)
    if alpha is None:
        return None
    return OrthogonalExtension(ext, alpha)


@dataclass(frozen=True)
class RatSectionW:
    """Rational member of W: the E-part and the F-part in chart-0
    coordinates."""

    e: tuple[RatFunc, ...]
    phi: tuple[RatFunc, ...]


class _StructuredExtension:
    """Shared plumbing of the two structured kinds."""

    kind: str = ""
    _sign: int = 0

    def __init__(self, ext: ExtensionData, alpha: RatHom):
        self.ext = ext
        self.alpha = alpha

    def theta(self, m1: RatSectionW, m2: RatSectionW) -> RatFunc:
        """Value of the form on two rational members: a rational section
        of O(ell).  For global members of W the value is global."""
        e1, p1 = list(m1.e), list(m1.phi)
        e2, p2 = list(m2.e), list(m2.phi)
        n = self.ext.rank
        if not (len(e1) == len(p1) == len(e2) == len(p2) == n):
            raise FrameMismatch("member length differs from rank")
        pair12 = _dot(p1, e2)
        pair21 = _dot(p2, e1)
        twisted = _dot(p2, self.alpha.apply(p1))
        return pair12 + pair21 * self._sign - twisted

    def member(self, phi: Sequence[RatFunc]) -> RatSectionW:
        return wp_member(self.ext, phi)


class SymplecticExtension(_StructuredExtension):
    """Extension with a chosen symplectic structure: alpha is
    antisymmetric and realizes the tails of t(p) - p, and
    theta((e1, phi1), (e2, phi2)) = phi1(e2) - phi2(e1) - phi2(alpha(phi1)).
    """

    kind = "symplectic"
    _sign = -1


class OrthogonalExtension(_StructuredExtension):
    """Extension with a chosen orthogonal structure: alpha is symmetric
    and realizes the tails of t(p) + p, and
    theta((e1, phi1), (e2, phi2)) = phi1(e2) + phi2(e1) - phi2(alpha(phi1)).
    """

    kind = "orthogonal"
    _sign = +1


def _dot(xs: Sequence[RatFunc], ys: Sequence[RatFunc]) -> RatFunc:
    total = RatFunc.zero()
    for x, y in zip(xs, ys):
        total = total + x * y
    return total


def gram_matrix(se: _StructuredExtension) -> Matrix:
    """Matrix of the form on W over the rational function field in the
    coordinates (e_1..e_n, phi_1..phi_n)."""
    n = se.ext.rank
    zero, one = RatFunc.zero(), RatFunc.one()
    sgn = RatFunc.constant(se._sign)
    out = [[zero for _ in range(2 * n)] for _ in range(2 * n)]
    for i in range(n):
        out[i][n + i] = sgn          # phi_2 against e_1
        out[n + i][i] = one          # phi_1 against e_2
    a = se.alpha.entries
    for i in range(n):
        for j in range(n):
            # -phi_2(alpha(phi_1)): row phi_1 index j, column phi_2 index i
            out[n + j][n + i] = out[n + j][n + i] - a[i][j]
    return out


def gram_nondegenerate(se: _StructuredExtension) -> bool:
    return la.rank(gram_matrix(se)) == 2 * se.ext.rank


# ============================================================
# Global members of W
# ============================================================


def is_global_member(ext: ExtensionData, member: RatSectionW) -> bool:
    """Whether a rational member extends to a global section of W.

    The F-part must be global; on each chart the trivialized E-direction
    x = s phi - e must be regular there (polynomial in the chart
    coordinate)."""
    n = ext.rank
    ff, ee = ext.f_frame, ext.e_frame
    phi = list(member.phi)
    e = list(member.e)
    if len(phi) != n or len(e) != n:
        raise FrameMismatch("member length differs from rank")
    if not all(phi[j].is_global(ff[j]) for j in range(n)):
        return False
    x0 = [v - w for v, w in zip(ext.s_zero().apply(phi), e)]
    if not all(v.is_polynomial for v in x0):
        return False
    xi = [v - w for v, w in zip(ext.s_infinity().apply(phi), e)]
    return all(
        v.is_zero or v.flip(ee[i]).is_polynomial for i, v in enumerate(xi)
    )


def wp_phi_basis(ext: ExtensionData) -> list[list[RatFunc]]:
    """Monomial basis of H^0(F), as coordinate vectors: slot j runs
    through z^0 .. z^(ell - d_j)."""
    out = []
    for j, fj in enumerate(ext.f_frame):
        for m in range(fj + 1):
            vec = [RatFunc.zero()] * ext.rank
            vec[j] = RatFunc(Poly.monomial(m))
            out.append(vec)
    return out


def wp_admissible_phi(ext: ExtensionData) -> list[list[RatFunc]]:
    """Basis of the global F-sections that lift to global members of W:
    the kernel of phi |-> class of p applied to phi."""
    basis = wp_phi_basis(ext)
    if not basis:
        return []
    obstruction = [
        reduce_class(apply_prin(ext.p, phi)).vector() for phi in basis
    ]
    ncols = len(basis)
    rows = [
        [obstruction[b][s] for b in range(ncols)]
        for s in range(class_dim((0,), ext.e_frame))
    ]
    kernel = la.nullspace(rows, ncols)
    out = []
    for coeffs in kernel:
        vec = [RatFunc.zero()] * ext.rank
        for c, phi in zip(coeffs, basis):
            if c:
                vec = [v + f * c for v, f in zip(vec, phi)]
        out.append(vec)
    return out


def wp_member(ext: ExtensionData, phi: Sequence[RatFunc]) -> RatSectionW:
    """Global member of W over a given admissible global F-section.

    The E-part is the canonical rational realization of the tails of p
    applied to phi; NotACoboundary signals an inadmissible phi.
    """
    phi = [_as_ratfunc(f) for f in phi]
    tails = apply_prin(ext.p, phi)
    col = lift_rational(tails)
    return RatSectionW(
        e=tuple(col[i, 0] for i in range(ext.rank)), phi=tuple(phi)
    )


# ============================================================
# Form cochains on the two-chart cover
# ============================================================


@dataclass(frozen=True)
class FormCochain:
    """An O(ell)-valued form on W presented chartwise: 2n x 2n matrices
    over each chart in the trivialization (x, phi), plus the transition
    data of W."""

    kind: str
    theta0: tuple[tuple[RatFunc, ...], ...]
    thetainf: tuple[tuple[RatFunc, ...], ...]
    trans: TransitionData

    def __post_init__(self):
        if self.kind not in ("symplectic", "orthogonal"):
            raise NotAFormCochain(f"unknown kind {self.kind!r}")
        object.__setattr__(
            self, "theta0", tuple(tuple(r) for r in self.theta0)
        )
        object.__setattr__(
            self, "thetainf", tuple(tuple(r) for r in self.thetainf)
        )


def form_cochain_from_extension(se: _StructuredExtension, scale=1) -> FormCochain:
    """Chartwise matrices of the structure's form, optionally scaled by a
    nonzero constant.

    Chart 0 carries [[0, I], [-I, s_0 - t(s_0) + alpha]] in the
    symplectic case and [[0, -I], [-I, s_0 + t(s_0) - alpha]] in the
    orthogonal one; the chart at infinity is the unique matrix satisfying
    the overlap relation.
    """
    c = RatFunc.constant(scale)
    if c.is_zero:
        raise NotAFormCochain("scale must be nonzero")
    ext = se.ext
    n = ext.rank
    zero, one = RatFunc.zero(), RatFunc.one()
    s0 = ext.s_zero().entries
    ts0 = la.mat_transpose(s0)
    a = se.alpha.entries
    if se.kind == "symplectic":
        corner = la.mat_add(la.mat_sub(s0, ts0), a)
        top = la.mat_identity(n, one, zero)
    else:
        corner = la.mat_sub(la.mat_add(s0, ts0), a)
        top = la.mat_scale(la.mat_identity(n, one, zero), -one)
    minus_i = la.mat_scale(la.mat_identity(n, one, zero), -one)
    theta0 = [
        [zero] * n + list(top[i]) for i in range(n)
    ] + [
        list(minus_i[i]) + list(corner[i]) for i in range(n)
    ]
    theta0 = la.mat_scale(theta0, c)
    trans = ext.transition()
    thetainf = _conjugate_to_infinity(theta0, trans)
    return FormCochain(
        kind=se.kind,
        theta0=tuple(tuple(r) for r in theta0),
        thetainf=tuple(tuple(r) for r in thetainf),
        trans=trans,
    )


def _w_matrix(trans: TransitionData) -> Matrix:
    """Block transition [[e, delta], [0, f]] of W."""
    n = trans.rank
    zero = RatFunc.zero()
    e = trans.e_transition()
    f = trans.f_transition()
    delta = trans.delta
    if delta is None:
        delta = tuple(tuple(zero for _ in range(n)) for _ in range(n))
    out = []
    for i in range(n):
        out.append(list(e[i]) + list(delta[i]))
    for i in range(n):
        out.append([zero] * n + list(f[i]))
    return out


def _conjugate_to_infinity(chart0: Matrix, trans: TransitionData) -> Matrix:
    w = _w_matrix(trans)
    linv = zpow(-trans.ell)
    prod = la.mat_mul(la.mat_transpose(w), la.mat_mul(chart0, w))
    return la.mat_scale(prod, linv)


def _check_chart_regular_inf(f: RatFunc) -> bool:
    if f.is_zero:
        return True
    if any(c != 0 for c in f.den.coeffs[:-1]):
        return False
    return valuation(f, INFINITY) >= 0


def class_from_form(fc: FormCochain) -> tuple[CohClass, tuple[tuple[RatFunc, ...], ...]]:
    """Validate a chartwise form and recover the extension class it cuts
    out, together with the constant-free glueing block B.

    Checks, in order: shapes and the symmetry of the kind; chart
    regularity of both matrices; the exact overlap relation; vanishing of
    the E x E block (IsotropyViolation); the intertwining and
    nondegeneracy of B (DegenerateB); and the symmetry of the recovered
    class.  Returns (class, B_0).
    """
    trans = fc.trans
    n = trans.rank
    zero = RatFunc.zero()
    t0 = [list(r) for r in fc.theta0]
    ti = [list(r) for r in fc.thetainf]
    if len(t0) != 2 * n or any(len(r) != 2 * n for r in t0):
        raise NotAFormCochain("chart-0 matrix is not 2n x 2n")
    if len(ti) != 2 * n or any(len(r) != 2 * n for r in ti):
        raise NotAFormCochain("chart-infinity matrix is not 2n x 2n")
    sgn = -1 if fc.kind == "symplectic" else 1
    for name, m in (("chart 0", t0), ("chart infinity", ti)):
        for i in range(2 * n):
            for j in range(2 * n):
                if m[i][j] != m[j][i] * sgn:
                    raise NotAFormCochain(
                        f"{name} matrix violates {fc.kind} symmetry"
                    )
    for r in t0:
        for x in r:
            if not x.is_polynomial:
                raise NotAFormCochain("chart-0 entries must be polynomial")
    for r in ti:
        for x in r:
            if not _check_chart_regular_inf(x):
                raise NotAFormCochain(
                    "chart-infinity entries must be regular there"
                )
    if not la.mat_eq(ti, _conjugate_to_infinity(t0, trans)):
        raise NotAFormCochain("charts disagree on the overlap")
    for m in (t0, ti):
        for i in range(n):
            for j in range(n):
                if not m[i][j].is_zero:
                    raise IsotropyViolation(
                        "the E x E block of the form does not vanish"
                    )
    b0 = [[t0[i][n + j] for j in range(n)] for i in range(n)]
    binf = [[ti[i][n + j] for j in range(n)] for i in range(n)]
    ds = trans.e_degrees
    for i in range(n):
        for j in range(n):
            if binf[i][j] != zpow(ds[i] - ds[j]) * b0[i][j]:
                raise NotAFormCochain("glueing block fails to intertwine")
    if la.rank(b0) < n:
        raise DegenerateB("glueing block is singular")
    ff = dual_frame(ds, trans.ell)
    if trans.delta is None:
        T: Matrix = [[zero for _ in range(n)] for _ in range(n)]
    else:
        T = [
            [trans.delta[i][j] * zpow(-ff[j]) for j in range(n)]
            for i in range(n)
        ]
    cls = cech_class(la.mat_mul(la.mat_transpose(b0), T), ff, ds)
    mirror = cls.transpose()
    if fc.kind == "symplectic":
        if mirror != cls:
            raise NotAFormCochain("recovered class is not symmetric")
    else:
        if mirror != -cls:
            raise NotAFormCochain("recovered class is not antisymmetric")
    return cls, tuple(tuple(r) for r in b0)
