"""Rank-n subbundles of the extension from graphs of rational maps.

A rational map beta : F -> E has a graph inside the rational sections of
W; its closure G is the rank-n subbundle whose sheaf of sections is the
kernel of the defect system q = p - prin_of(beta) acting on F.  This
module builds G concretely: jet conditions at the support of q, the
chart-0 module basis of its F-parts, splitting type and degree, and, when
first read, module bases of sections over both charts.  The splitting
type is read off a shifted weak Popov form of the chart-0 basis,
with the condition at infinity folded in as one small matrix; the h^0
profile scan of splitting_type stays as an independent check.  The module
also inverts the construction (beta_from_subbundle), runs the regularity
and isotropy criteria, and enumerates isotropic graphs within finite
bounds.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from . import _linalg as la
from .bundles import RatHom, _selfdual_check, h0_hom
from .errors import (
    ClassMismatch,
    FrameMismatch,
    HypothesisUnmet,
    HypothesisUnmetWarning,
    InternalLiftFailure,
    VerticalIntersection,
)
from .forms import ExtensionData, RatSectionW, _StructuredExtension
from .prinparts import (
    PrinHom,
    _lift,
    local_condition_matrix,
    prin_of,
    reduce_class,
    transpose_prin,
)
from .ratfield import PointP1, Poly, RatFunc, _as_ratfunc, as_fraction

__all__ = [
    "JetCondition",
    "GraphSubbundle",
    "graph_subbundle",
    "graph_of_defect",
    "splitting_type",
    "h0_twisted",
    "beta_from_subbundle",
    "regularity_check",
    "isotropy_prin",
    "isotropy_linear",
    "isotropy_direct",
    "VerticalKernel",
    "vertical_kernel",
    "cor6_forward",
    "cor6_backward",
    "SearchBounds",
    "search_lagrangian",
]


@dataclass(frozen=True)
class JetCondition:
    """Linear conditions on jets of F-sections at one point: full
    row-rank matrix over Q acting on the jet coordinates (j, s) with
    s = 0 .. order-1."""

    point: PointP1
    order: int
    rows: tuple[tuple[Fraction, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.rows)


_Lattice = tuple[tuple[Poly, ...], ...]


class _OnFirstRead:
    """Default of a dataclass field that is built on first read and kept.

    A value handed to the constructor (dataclasses.replace hands one in)
    is kept as it is; otherwise build(instance) runs on the first read.
    Give the field compare=False and repr=False, so that equality and
    repr do not depend on whether it has been read."""

    def __init__(self, build):
        self._build = build

    def __set_name__(self, owner, name):
        self._name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self  # the constructor's default: nothing handed in
        try:
            return obj.__dict__[self._name]
        except KeyError:
            value = obj.__dict__[self._name] = self._build(obj)
            return value

    def __set__(self, obj, value):
        # reached from the dataclass __init__ only: the frozen dataclass
        # refuses any later assignment before it gets here
        if value is not self:
            obj.__dict__[self._name] = value


@dataclass(frozen=True)
class GraphSubbundle:
    """Graph closure of beta inside W, the extension ext.

    q = ext.p - prin_of(beta) is computed once, by graph_subbundle
    (graph_of_defect and the search hand in the q they hold), and
    everything downstream reads ext and q from here.  conditions carry
    the jet systems of q at its support (the point at infinity included,
    acting on u-jets).

    graph_subbundle builds eagerly what the printed invariants need: q,
    conditions, f_basis_0 (the chart-0 lattice of F-sections that satisfy
    the finite conditions, checked to have rank n, in shift -f weak Popov
    form with shifted column degrees f_degrees), the degree and the
    splitting type read off that reduced basis (checked against the
    degree).

    The two chart lattices are built on first read, with their checks:
    basis_0 spans the sections over the z-chart, basis_inf those over the
    u-chart (u = 1/z).  Columns are 2n polynomial entries in the chart
    trivialization of W: the top n rows hold x = s(f) - e where s is the
    chart's rational splitting (s_zero on the z-chart, s_infinity on the
    other), the bottom n rows hold the F-part f; on the graph,
    x = (s - beta)(f).  Row i of the chart matrix of s - beta is kept as
    (D, N), entry j being N_j / D, and x_i = (sum_j N_j f_j) // D must
    divide exactly.  On the z-chart the F-parts are f_basis_0.  On the
    u-chart they are column i of f_basis_0 reversed, u^(f_j + d_i)
    b_ij(1/u), a basis of the finite conditions there by the
    predictable-degree property, refined at u = 0 by the condition at
    infinity; that lattice must have rank n.  A failed check raises
    InternalLiftFailure at that first read.  The member coordinates are
    recovered as e = s(f) - x.  Equality and repr leave out f_basis_0,
    f_degrees and the lattices, which ext and beta determine."""

    ext: ExtensionData
    beta: RatHom
    q: PrinHom
    conditions: tuple[JetCondition, ...]
    splitting: tuple[int, ...]
    degree: int
    f_basis_0: _Lattice = field(compare=False, repr=False)
    f_degrees: tuple[int, ...] = field(compare=False, repr=False)
    basis_0: _Lattice = field(
        default=_OnFirstRead(lambda G: _chart_0_lattice(G)), compare=False, repr=False
    )
    basis_inf: _Lattice = field(
        default=_OnFirstRead(lambda G: _chart_inf_lattice(G)), compare=False, repr=False
    )

    @property
    def rank(self) -> int:
        return len(self.beta.dst)

    @property
    def f_frame(self) -> tuple[int, ...]:
        return self.beta.src

    @property
    def e_frame(self) -> tuple[int, ...]:
        return self.beta.dst

    @cached_property
    def _x_rows_0(self) -> list[tuple[Poly, list[Poly]]]:
        # the rows (D, N) of s_0 - beta, which takes the F-part of a
        # chart-0 column to its x-part; the chart-0 lattice and
        # regularity_check share them
        return [la.cleared_row(row) for row in (self.ext.s_zero() - self.beta).entries]

    @cached_property
    def _x_rows_inf(self) -> list[tuple[Poly, list[Poly]]]:
        # the rows of the u-chart matrix of s_inf - beta, likewise
        return [
            la.cleared_row(row)
            for row in _beta_inf_chart(self.ext.s_infinity() - self.beta)
        ]


def _poly_jets(f: Poly, a: Fraction, K: int) -> list[Fraction]:
    # jet_s = f^(s)(a)/s!, the coefficient of z^s in f(z + a)
    g = f.shift(a)
    return [g[s] for s in range(K)]


def _taylor_table(a: Fraction, K: int, top: int) -> list[list[int]]:
    """t[c][s] = C(c, s) * u^(c-s) * v^s for a = u/v, c <= top and
    s < K: jet s of z^c at a is t[c][s] / v^c."""
    u, v = a.numerator, a.denominator
    return [
        [math.comb(c, s) * u ** (c - s) * v**s for s in range(min(c, K - 1) + 1)]
        for c in range(top + 1)
    ]


def _slot_offsets(degs: Sequence[int]) -> tuple[list[int], int]:
    """Where each slot starts in the coefficient vector of polynomial
    vectors with deg f_j <= degs[j] (entries < 0 mean the slot is empty),
    and the length of that vector."""
    offsets = []
    pos = 0
    for d in degs:
        offsets.append(pos)
        pos += max(d + 1, 0)
    return offsets, pos


def _divisor(conds: Sequence[JetCondition]) -> Poly:
    """The product of (z - a)^order over finite-point jet conditions."""
    D = Poly.one()
    for c in conds:
        D = D * Poly((-c.point.value, Fraction(1))) ** c.order
    return D


def _jet_rows_on_coeffs(cond: JetCondition, n: int, degs: list[int]) -> list[list[Fraction]]:
    """Rewrite a finite-point jet condition as rows over the coefficient
    space of polynomial vectors with deg f_j <= degs[j] (entries < 0 mean
    the slot is empty)."""
    a = cond.point.value
    K = cond.order
    offsets, width = _slot_offsets(degs)
    top = max(degs)
    table = _taylor_table(a, K, top)
    vpow = [a.denominator**c for c in range(top + 1)]
    out = []
    for row in cond.rows:
        # the row as integers wn over its common denominator L
        L = math.lcm(*[w.denominator for w in row])
        wn = [w.numerator * (L // w.denominator) for w in row]
        new = [Fraction(0)] * width
        for j in range(n):
            ws = wn[j * K : (j + 1) * K]
            if degs[j] < 0 or not any(ws):
                continue
            for c in range(degs[j] + 1):
                acc = sum(w * t for w, t in zip(ws, table[c]))
                if acc:
                    new[offsets[j] + c] = Fraction(acc, L * vpow[c])
        out.append(new)
    return out


def _conditions_of(q: PrinHom) -> tuple[JetCondition, ...]:
    conds = []
    for pt in q.support:
        rows = local_condition_matrix(q, pt)
        rr, piv = la.rref(rows)
        nz = tuple(tuple(r) for r in rr if any(r))
        if nz:
            conds.append(JetCondition(pt, q.order_at(pt), nz))
    return tuple(conds)


def _module_basis(n: int, conds: Sequence[JetCondition]) -> list[list[Poly]]:
    """k[z]-module basis of polynomial n-vectors satisfying all the given
    finite-point jet conditions."""
    if not conds:
        return [
            [Poly.one() if i == j else Poly.zero() for i in range(n)]
            for j in range(n)
        ]
    D = _divisor(conds)
    degD = D.degree
    degs = [degD - 1] * n
    rows = []
    for c in conds:
        rows.extend(_jet_rows_on_coeffs(c, n, degs))
    width = n * degD
    kernel = la.nullspace(rows, width)
    cols = []
    for vec in kernel:
        col = []
        for j in range(n):
            col.append(Poly(tuple(vec[j * degD : (j + 1) * degD])))
        cols.append(col)
    for j in range(n):
        cols.append([D if i == j else Poly.zero() for i in range(n)])
    return la.poly_hnf(cols, n)


def _as_poly(frac: tuple[Poly, Poly], what: str) -> Poly:
    # t / D for frac = (t, D), D monic: a remainder is a pole
    t, D = frac
    if D.degree == 0:
        return t
    x, r = divmod(t, D)
    if not r.is_zero:
        raise InternalLiftFailure(f"{what} kept a pole; this is a bug")
    return x


def _beta_inf_chart(beta: RatHom) -> list[list[RatFunc]]:
    # u-chart matrix of beta: entry (i, j) becomes u^twist * beta_ij(1/u)
    return [
        [beta[i, j].flip(beta.twist(i, j)) for j in range(beta.ncols)]
        for i in range(beta.nrows)
    ]


def graph_subbundle(ext: ExtensionData, beta: RatHom) -> GraphSubbundle:
    """Graph closure of a rational map beta : F -> E inside W.

    Solves the jet systems of q = p - prin_of(beta) at each support
    point (prin_of(beta) is beta.tails when the parser read them off the
    text), builds the chart-0 module basis of the F-sections satisfying
    the finite conditions (it must have rank n), and reads the degree off
    the ranks of the conditions, whose sum is the length of q.  The
    splitting type comes from that basis reduced to shifted weak Popov
    form, whose column degrees give the h^0 profile of its lattice, and
    from the condition at infinity acting on the jets of the coefficients
    (see _reduced_splitting): no h^0 scan.  The type must have n entries
    summing to the degree.

    The chart lattices basis_0 and basis_inf, the module bases lifted to
    W by f |-> (beta f, f) in the chart trivializations, are built when
    first read, and their checks run then (see GraphSubbundle).
    """
    if beta.src != ext.f_frame or beta.dst != ext.e_frame:
        raise FrameMismatch("beta must map the dual frame to E")
    tails = beta.tails if beta.tails is not None else prin_of(beta)
    return _graph_subbundle(ext, beta, ext.p - tails)


def graph_of_defect(ext: ExtensionData, q: PrinHom) -> GraphSubbundle:
    """Graph subbundle cut out by a defect system q with the class of p.

    Its beta is lift_rational(p - q), whose tails are p - q by
    construction, so q is handed to the graph as it is: no root search
    recovers it.  When h^0(Hom(F, E)) = 0 that beta is the only map with
    these tails (cor6_forward); otherwise it is the canonical one."""
    if q.src != ext.f_frame or q.dst != ext.e_frame:
        raise FrameMismatch("q must share the frames of p")
    if reduce_class(q) != ext.extension_class():
        raise ClassMismatch("q does not represent the class of the extension")
    # [p - q] = 0 was just checked: the lift needs no second class check
    return _graph_subbundle(ext, _lift(ext.p - q), q)


def _graph_subbundle(ext: ExtensionData, beta: RatHom, q: PrinHom) -> GraphSubbundle:
    # the graph of beta for a caller that already holds q = p - prin_of(beta)
    n = ext.rank
    conditions = _conditions_of(q)
    fin = [c for c in conditions if not c.point.is_infinity]
    fbasis = _module_basis(n, fin)
    if len(fbasis) != n:
        raise InternalLiftFailure("chart-0 kernel lattice is not rank n")
    # the rank of each condition is the local length of q there
    degree = sum(ext.f_frame) - sum(c.rank for c in conditions)
    inf = next((c for c in conditions if c.point.is_infinity), None)
    # the reduction runs once: the splitting and the u-chart lattice read it
    cols, d = la.weak_popov(fbasis, [-f for f in ext.f_frame])
    splitting = _reduced_splitting(ext.f_frame, cols, d, inf, degree)
    if len(splitting) != n or sum(splitting) != degree:
        raise InternalLiftFailure("splitting type disagrees with degree")
    return GraphSubbundle(
        ext=ext,
        beta=beta,
        q=q,
        conditions=conditions,
        splitting=splitting,
        degree=degree,
        f_basis_0=tuple(tuple(col) for col in cols),
        f_degrees=tuple(d),
    )


def _lifted(x_rows, fcol: tuple[Poly, ...], what: str) -> tuple[Poly, ...]:
    # the column (x, f) with x_i = (sum_j N_ij f_j) / D_i, which must be
    # a polynomial
    return tuple(_as_poly((la.sum_prod(N, fcol), D), what) for D, N in x_rows) + fcol


def _chart_0_lattice(G: GraphSubbundle) -> _Lattice:
    # x = (s_0 - beta) f has no finite tails on the kernel lattice
    return tuple(_lifted(G._x_rows_0, col, "graph chart-0 lift") for col in G.f_basis_0)


def _chart_inf_lattice(G: GraphSubbundle) -> _Lattice:
    # column i of f_basis_0 reversed is u^d_i times b_i on the u-chart: a
    # basis of the finite conditions there; the condition at infinity
    # then acts at u = 0
    try:
        ubasis = [
            [b.reverse(f + d) for b, f in zip(col, G.f_frame)]
            for col, d in zip(G.f_basis_0, G.f_degrees)
        ]
    except ValueError:  # a degree past the reversal length
        raise InternalLiftFailure("chart-0 basis is not reduced; this is a bug") from None
    at_0 = [
        JetCondition(PointP1.finite(0), c.order, c.rows)
        for c in G.conditions
        if c.point.is_infinity
    ]
    if at_0:
        ubasis = _refine_by_conditions(ubasis, at_0, G.rank)
    if len(ubasis) != G.rank:
        raise InternalLiftFailure("chart-infinity kernel lattice is not rank n")
    return tuple(
        _lifted(G._x_rows_inf, tuple(col), "graph chart-infinity lift") for col in ubasis
    )


# ============================================================
# h^0 profile and splitting type
# ============================================================


def _reduced_splitting(
    f_frame: Sequence[int],
    cols: Sequence[Sequence[Poly]],
    d: Sequence[int],
    inf: JetCondition | None,
    degree: int,
) -> tuple[int, ...]:
    """Splitting type of the graph from its chart-0 lattice basis (the
    finite conditions) and its condition at infinity, if any.

    cols, the basis b_1 .. b_n in shift -f weak Popov form, has shifted
    column degrees d_i, and by the predictable-degree property the
    sections of G'(m), G' the bundle of the finite conditions alone, are
    the sum c_i b_i with deg c_i <= m - d_i: G' splits as the O(-d_i).  The
    condition at infinity (rows R on the jets (j, t), t < K, where jet
    (j, t) of a section of G(m) is its coefficient of z^(f_j + m - t)) acts
    on the u-jets (i, s), s < K, of the c_i, jet (i, s) being the
    coefficient of z^(m - d_i - s), through the fixed matrix
    C[r][(i, s)] = sum_{j, t >= s} R[r][(j, t)] * b_ij[f_j + d_i - (t - s)].
    Jet (i, s) exists once m >= d_i + s, so with the columns of C sorted
    by d_i + s, h^0(G(m)) = sum_i max(0, m - d_i + 1) minus the pivot
    columns of C up to key m.  The type is read off that profile over the
    range _invert_profile scans, without any further elimination.
    """
    n = len(f_frame)
    keys: list[int] = []
    if inf is not None:
        K = inf.order
        jets = sorted((d[i] + s, i, s) for i in range(n) for s in range(K))
        C = [
            [
                sum(
                    row[j * K + t] * cols[i][j][f_frame[j] + d[i] - t + s]
                    for j in range(n)
                    for t in range(s, K)
                    if row[j * K + t]
                )
                for _, i, s in jets
            ]
            for row in inf.rows
        ]
        # a pivot column is independent of the columns before it
        keys = [jets[c][0] for c in la.rref(C)[1]]

    def h0(m: int) -> int:
        return sum(max(0, m - di + 1) for di in d) - sum(k <= m for k in keys)

    fmax = max(f_frame)
    lo, hi = -fmax - 1, -(degree - (n - 1) * fmax)
    h_prev = h0(lo - 1)
    found: list[int] = []
    for m in range(lo, hi + 1):
        h = h0(m)
        found += [-m] * (h - h_prev - len(found))  # the a_i >= -m
        h_prev = h
        if len(found) == n:
            break
    return tuple(found)




def h0_twisted(G: GraphSubbundle, m: int) -> int:
    """dim H^0(G(m)) by exact linear algebra on bounded-degree
    polynomial vectors against all stored jet conditions."""
    return _h0_from_data(G.f_frame, G.conditions, m)


def _h0_from_data(
    f_frame: Sequence[int], conditions: Sequence[JetCondition], m: int
) -> int:
    n = len(f_frame)
    degs = [f_frame[j] + m for j in range(n)]
    offsets, width = _slot_offsets(degs)
    if width == 0:
        return 0
    rows = []
    for cond in conditions:
        if cond.point.is_infinity:
            K = cond.order
            for row in cond.rows:
                new = [Fraction(0)] * width
                for j in range(n):
                    if degs[j] < 0:
                        continue
                    for t in range(K):
                        w = row[j * K + t]
                        if not w:
                            continue
                        c = degs[j] - t
                        if 0 <= c <= degs[j]:
                            new[offsets[j] + c] += w
                rows.append(new)
        else:
            rows.extend(_jet_rows_on_coeffs(cond, n, degs))
    if not rows:
        return width
    return width - la.rank(rows)


def _invert_profile(
    f_frame: Sequence[int], conditions: Sequence[JetCondition], degree: int
) -> tuple[int, ...]:
    """Recover the splitting (a_1 >= ... >= a_n) from the h^0 profile:
    h(m) - h(m-1) counts the a_i >= -m.  The scan over m needs no guess:
    every a_i <= max f because G sits in F = sum O(f_j), and every
    a_i >= degree - (n-1) max f because the a_i sum to the degree."""
    n = len(f_frame)
    fmax = max(f_frame)
    lo = -fmax - 1
    hi = -(degree - (n - 1) * fmax)
    h_prev = _h0_from_data(f_frame, conditions, lo - 1)
    found: list[int] = []
    for m in range(lo, hi + 1):
        h = _h0_from_data(f_frame, conditions, m)
        count = h - h_prev  # the a_i >= -m
        found += [-m] * (count - len(found))
        h_prev = h
        if len(found) == n:
            break
    return tuple(found)


def splitting_type(G: GraphSubbundle) -> tuple[int, ...]:
    """Splitting type of G recomputed from its h^0 profile, one rank per
    twist over the provable range.

    This is the independent oracle for G.splitting, which graph_subbundle
    computes from a reduced lattice basis instead; the graph path never
    calls it."""
    return _invert_profile(G.f_frame, G.conditions, G.degree)


# ============================================================
# Recovering beta; regularity
# ============================================================


def beta_from_subbundle(basis_0, basis_inf, ext: ExtensionData) -> RatHom:
    """The unique rational map whose graph spans the given lattice.

    basis_0 columns are 2n polynomial entries in the chart-0
    trivialization (x over f, x = s_0(f) - beta(f) on the graph); the
    F-projection must be invertible over the function field, else
    VerticalIntersection.  The u-chart lattice, when given, is checked
    to span the same graph.
    """
    n = ext.rank
    cols0 = [list(c) for c in basis_0]
    if len(cols0) != n or any(len(c) != 2 * n for c in cols0):
        raise FrameMismatch("chart-0 lattice must have n columns of height 2n")
    # M Q = P with M = s_0 - beta, so tQ tM = tP; row k of [tQ | tP] is
    # column k of the lattice, F-part first.  One elimination shows
    # whether Q is singular and, if not, leaves tM in the right half.
    aug, pivots = la.rref([[_as_ratfunc(x) for x in c[n:] + c[:n]] for c in cols0])
    if pivots != list(range(n)):
        raise VerticalIntersection("the lattice projects degenerately to F")
    entries = [[aug[k][n + i] for k in range(n)] for i in range(n)]
    beta = ext.s_zero() - RatHom(ext.f_frame, ext.e_frame, entries)
    if basis_inf is not None:
        ahat = _beta_inf_chart(ext.s_infinity() - beta)
        for col in basis_inf:
            x_part = [_as_ratfunc(x) for x in col[:n]]
            f_part = [_as_ratfunc(x) for x in col[n:]]
            if [la.sum_prod(row, f_part) for row in ahat] != x_part:
                raise FrameMismatch(
                    "the two chart lattices do not span the same graph"
                )
    return beta


def regularity_check(G: GraphSubbundle) -> bool:
    """Everywhere-regularity of beta on the stored lattice.

    Verifies first that the lattice really lies on the graph inside W
    (stored x-parts equal (s - beta) applied to the F-parts on each
    chart), then that beta applied to every column is pole-free on that
    column's chart.  Both are polynomial identities on the rows (D, N) of
    the chart matrices, entry j being N_j / D, with no rational-function
    arithmetic: D x_i == sum_j N_j f_j for s - beta, and D dividing
    sum_j N_j f_j for beta.  The u-chart lattice is not built when the
    chart-0 one fails.  Returns False on any violation; a False on a
    faithfully built lattice means the tails of p and beta cancel at a
    shared point, where regularity genuinely fails.
    """
    return _on_graph(G.basis_0, G._x_rows_0, G.beta.entries, G.rank) and _on_graph(
        G.basis_inf, G._x_rows_inf, _beta_inf_chart(G.beta), G.rank
    )


def _on_graph(lattice: _Lattice, x_rows, beta_chart, n: int) -> bool:
    # the columns (x, f) of one chart lie on the graph and beta f is
    # a polynomial vector
    beta_rows = [la.cleared_row(row) for row in beta_chart]
    for col in lattice:
        x, f = col[:n], col[n:]
        for xi, (D, N) in zip(x, x_rows):
            if D * xi != la.sum_prod(N, f):
                return False
        for B, M in beta_rows:
            if B.degree > 0 and not (la.sum_prod(M, f) % B).is_zero:
                return False
    return True


# ============================================================
# Isotropy criteria
# ============================================================


def _check_kind(kind: str) -> int:
    if kind == "symplectic":
        return -1
    if kind == "orthogonal":
        return 1
    raise FrameMismatch(f"unknown kind {kind!r}")


def isotropy_prin(q: PrinHom, kind: str = "symplectic") -> bool:
    """Polar-coefficient isotropy test: q symmetric (symplectic) or
    antisymmetric (orthogonal), exactly.

    Equivalent to isotropy of the subbundle cut out by q when
    h^0(Hom(F, E)) = 0; otherwise a HypothesisUnmetWarning is issued and
    the test is still computed.  Note this is stronger than symmetry of
    the class of q.
    """
    sign = _check_kind(kind)
    if h0_hom(q.src, q.dst) != 0:
        warnings.warn(
            "h^0(Hom(F, E)) != 0: principal-part symmetry no longer "
            "characterizes isotropy",
            HypothesisUnmetWarning,
        )
    return transpose_prin(q) == q.scale(-sign)


def isotropy_linear(beta: RatHom, alpha: RatHom, kind: str = "symplectic") -> bool:
    """Exact matrix identity t(beta) - beta = alpha (symplectic) or
    t(beta) + beta = alpha (orthogonal), entry by entry:
    beta_jk + sign beta_kj = alpha_kj.

    On the graph lifts m_j = (beta(phi_j), phi_j) of the unit basis phi_j
    of F the form reads theta(m_j, m_k) = beta_jk + sign beta_kj -
    alpha_kj, so this is also the pairing test isotropy_direct evaluates
    on those members.  beta needs a self-dual frame, as for transpose_hom;
    an alpha in other frames is not equal.
    """
    sign = _check_kind(kind)
    _selfdual_check(beta.src, beta.dst)
    if alpha.src != beta.src or alpha.dst != beta.dst:
        return False
    b, a = beta.entries, alpha.entries
    n = len(b)
    for j in range(n):
        for k in range(n):
            pair = b[j][k] + b[k][j] if sign == 1 else b[j][k] - b[k][j]
            if pair != a[k][j]:
                return False
    return True


def isotropy_direct(se: _StructuredExtension, G: GraphSubbundle) -> bool:
    """Evaluate the form on the graph lift of a function-field basis of
    F; true iff every pairing vanishes."""
    n = G.rank
    beta = G.beta
    members = []
    for j in range(n):
        phi = [RatFunc.one() if k == j else RatFunc.zero() for k in range(n)]
        members.append(RatSectionW(e=tuple(beta.apply(phi)), phi=tuple(phi)))
    for m1 in members:
        for m2 in members:
            if not se.theta(m1, m2).is_zero:
                return False
    return True


# ============================================================
# Kernel of beta on G
# ============================================================


@dataclass(frozen=True)
class VerticalKernel:
    """Kernel sheaf of beta restricted to G: generic rank, a cleared
    function-field basis, a chart-0 module basis refined by the jet
    conditions, and the witness that each generator lands in
    {0} + F inside W."""

    rank: int
    rational_basis: tuple[tuple[Poly, ...], ...]
    basis_0: tuple[tuple[Poly, ...], ...]
    verified: bool


def vertical_kernel(G: GraphSubbundle) -> VerticalKernel:
    """Sections of G killed by beta, with the graph-intersection
    description verified on the generators."""
    n = G.rank
    beta = G.beta
    kern = la.poly_kernel(beta.entries, n)
    if not kern:
        return VerticalKernel(0, (), (), True)
    k = len(kern)
    fin = [c for c in G.conditions if not c.point.is_infinity]
    refined = _refine_by_conditions(kern, fin, n)
    verified = True
    p_rows = [local_condition_matrix(G.ext.p, cond.point) for cond in fin]
    for col in refined:
        fcol = [RatFunc(p) for p in col]
        image = beta.apply(fcol)
        if any(not v.is_zero for v in image):
            verified = False
        for cond, M in zip(fin, p_rows):
            K = cond.order
            a = cond.point.value
            jets: list[Fraction] = []
            for j in range(n):
                jets.extend(_poly_jets(col[j], a, K))
            for row in M:
                if sum(w * jv for w, jv in zip(row, jets)) != 0:
                    verified = False
    return VerticalKernel(
        rank=k,
        rational_basis=tuple(tuple(c) for c in kern),
        basis_0=tuple(tuple(c) for c in refined),
        verified=verified,
    )


def _refine_by_conditions(
    kern: list[list[Poly]], conds: Sequence[JetCondition], n: int
) -> list[list[Poly]]:
    """Module basis of {combinations of kern columns satisfying the jet
    conditions}, mapped back to F-coordinates.

    The jets of a product convolve, so a row R on the jets (j, s) of
    f = sum_t c_t kern[t] pulls back to the row on the jets (t, s2) of
    the combination c with entry sum_j sum_{s >= s2} R[(j, s)]
    jet_{s-s2}(kern[t][j]); the combinations are the _module_basis of
    the pulled conditions."""
    k = len(kern)
    pulled = []
    for cond in conds:
        K = cond.order
        a = cond.point.value
        kjets = [[_poly_jets(kern[t][j], a, K) for j in range(n)] for t in range(k)]
        rows = []
        for row in cond.rows:
            new = [Fraction(0)] * (k * K)
            for j in range(n):
                for s in range(K):
                    w = row[j * K + s]
                    if w:
                        for t in range(k):
                            for s2 in range(s + 1):
                                new[t * K + s2] += w * kjets[t][j][s - s2]
            rows.append(tuple(new))
        pulled.append(JetCondition(cond.point, K, tuple(rows)))
    out = []
    for comb in _module_basis(k, pulled):
        col = [Poly.zero()] * n
        for t in range(k):
            if not comb[t].is_zero:
                col = [col[j] + comb[t] * kern[t][j] for j in range(n)]
        out.append(col)
    return out


# ============================================================
# The principal-parts <-> subbundle bijection
# ============================================================


def _require_h0_zero(ext: ExtensionData):
    if h0_hom(ext.f_frame, ext.e_frame) != 0:
        raise HypothesisUnmet(
            "Hom(F, E) has global sections; the bijection needs h^0 = 0"
        )


def cor6_forward(ext: ExtensionData, q: PrinHom) -> GraphSubbundle:
    """Graph subbundle attached to a defect system q with the same class
    as p; the witness beta is the unique rational map with
    prin_of(beta) = p - q."""
    _require_h0_zero(ext)
    return graph_of_defect(ext, q)


def cor6_backward(ext: ExtensionData, G: GraphSubbundle) -> PrinHom:
    """Defect system of a graph subbundle: q = p - prin_of(beta) with
    beta recovered from the lattice."""
    _require_h0_zero(ext)
    beta = beta_from_subbundle(G.basis_0, G.basis_inf, ext)
    return ext.p - prin_of(beta)


# ============================================================
# Finite search for isotropic graphs
# ============================================================


# Largest search search_lagrangian runs: its meet-in-the-middle table
# entries plus walked choices (see _enumeration_work), each counted by the
# 64-bit words of its packed class sum, plus the work the order adds (see
# _order_work).  The uncapped README case needs 9^4 + 9^5 = 65,610
# one-word sums and 1,764 for its order 2.  The largest table it allows
# holds 50,000 one-word entries; the highest peak RSS measured for an
# allowed search was 46 MiB (rank 1, two points, 50,000 values).
MAX_SEARCH_WORK = 100_000


@dataclass(frozen=True)
class SearchBounds:
    """Finite enumeration space: support points, maximal polar order,
    the coefficient value set, and a cap on returned subbundles.  Points
    and values must be distinct: a repeated one would count a slot twice
    in the class sum but hold one tail in q."""

    points: tuple[PointP1, ...]
    max_order: int = 1
    values: tuple[Fraction, ...] = (Fraction(0), Fraction(1))
    cap: int = 25

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(self.points))
        object.__setattr__(
            self, "values", tuple(as_fraction(v) for v in self.values)
        )
        if self.max_order < 1:
            raise FrameMismatch("max_order must be at least 1")
        if self.cap < 1:
            raise FrameMismatch("cap must be at least 1")
        if len(set(self.points)) != len(self.points):
            raise FrameMismatch("points must be distinct")
        if len(set(self.values)) != len(self.values):
            raise FrameMismatch("values must be distinct")


def _defect_system(ext: ExtensionData, sign: int, chosen) -> PrinHom:
    """Defect system holding each ((point, i, j), tail) pair of chosen in
    entry (i, j) and its partner in (j, i): the same tail for sign -1,
    its negative for sign 1."""
    n = ext.rank
    parts: dict[PointP1, list[list[tuple[Fraction, ...]]]] = {}
    for (pt, i, j), tail in chosen:
        if not any(tail):
            continue
        if pt not in parts:
            parts[pt] = [[() for _ in range(n)] for _ in range(n)]
        parts[pt][i][j] = tail
        if i != j:
            parts[pt][j][i] = tail if sign == -1 else tuple(-x for x in tail)
    return PrinHom(ext.f_frame, ext.e_frame, parts)


def _enumeration_work(n_values: int, order: int, n_slots: int) -> int:
    """T^floor(s/2) table entries plus T^ceil(s/2) walked choices for s
    slots of T = n_values^order tails; past MAX_SEARCH_WORK the value is
    only a lower bound (the powers are not formed)."""
    half = n_slots // 2
    if n_values > 1 and order * (n_slots - half) > MAX_SEARCH_WORK.bit_length():
        return MAX_SEARCH_WORK + 1  # T^ceil(s/2) >= 2^(order * ceil(s/2))
    T = n_values**order
    return T**half + T ** (n_slots - half)


def _order_work(n_slots: int, order: int, jets: int) -> int:
    """The work the order adds to the class sums: the n_slots * order
    unit tails, each reduced over up to order coefficients, and the jet
    system of one hit, jets = rank * |points| * order jet coordinates,
    eliminated in about jets^3 steps.  One value makes T = 1 at any
    order, so the class sums alone do not bound it."""
    return n_slots * order * order + jets**3


def _bounded_lcm(dens, bits: int) -> int | None:
    """The lcm of dens, or None once it passes bits bits."""
    m = 1
    for d in dens:
        m = math.lcm(m, d)
        if m.bit_length() > bits:
            return None
    return m


def _packed_classes(
    units: Sequence[Sequence[Sequence[Fraction]]],
    target: Sequence[Fraction],
    values: Sequence[Fraction],
    max_bits: int,
) -> tuple[list[list[int]], int] | None:
    """The class of every tail of every slot, in product order, and the
    target class, each packed into one integer; None when a packed class
    would pass max_bits bits.

    A tail (c_1 .. c_K) of a slot has the class sum_k c_k u_k, u_k the
    classes of the slot's unit tails.  Scaled by D V, D the common
    denominator of the u_k and the target and V that of the values, the
    classes are integer vectors x, packed as sum_i x_i 2^(b i).  Packing
    is linear, and it is one to one on vectors whose coordinates stay
    below 2^(b-1) in absolute value.  b is chosen so that every sum of one
    class per slot minus the target does, so packed sums compare exactly
    as the classes do, at the cost of one integer addition each.
    """
    vectors = [target, *itertools.chain(*units)]
    D = _bounded_lcm((x.denominator for v in vectors for x in v), max_bits)
    V = _bounded_lcm((c.denominator for c in values), max_bits)
    if D is None or V is None:
        return None
    cs = [int(c * V) for c in values]
    ints = [[[int(x * D) for x in u] for u in slot] for slot in units]
    top = [int(x * D) * V for x in target]
    bound = max(map(abs, top), default=0) + max(map(abs, cs), default=0) * sum(
        max(map(abs, u), default=0) for slot in ints for u in slot
    )
    b = bound.bit_length() + 1  # 2^(b-1) > bound
    if b * len(target) > max_bits:
        return None

    def pack(x: Sequence[int]) -> int:
        return sum(xi << (b * i) for i, xi in enumerate(x))

    vecs = []
    for slot in ints:
        packed = [pack(u) for u in slot]
        vecs.append(
            [
                sum(c * u for c, u in zip(tail, packed))
                for tail in itertools.product(cs, repeat=len(packed))
            ]
        )
    return vecs, pack(top)


def _class_sums(slot_vecs: Sequence[Sequence[int]], acc: int, choice: tuple = ()):
    """(choice, acc + the chosen packed classes) for every choice of one
    per slot, lazily and in product order."""
    if len(choice) == len(slot_vecs):
        yield choice, acc
        return
    for t, v in enumerate(slot_vecs[len(choice)]):
        yield from _class_sums(slot_vecs, acc + v, choice + (t,))


def search_lagrangian(
    se: _StructuredExtension, bounds: SearchBounds
) -> list[GraphSubbundle]:
    """Enumerate defect systems q of the structure's symmetry type
    ([q] = [p], symmetric for symplectic, antisymmetric for orthogonal)
    over the finite bounds, and return the isotropic graph subbundles
    they cut out, in enumeration order, up to the cap.

    A candidate fills each of its s slots (point, i, j) with one of the
    T = |values|^order tails; the enumeration order is the product order
    of these choices.  The class map is linear, so [q] is the sum of its
    slot classes, and each tail's class is the combination of the classes
    of the order unit tails of its slot: s * order reductions in all.
    Each class becomes one integer (_packed_classes), so a class sum is
    an integer sum.  Finding the sums equal to [p] is a subset-sum
    problem, solved by meeting in the middle (Horowitz-Sahni 1974): the
    class sums of the last floor(s/2) slots go into a table, keyed by
    what they leave of [p], and the choices of the first ceil(s/2) slots
    are walked in product order and looked up there.  Each hit meets its
    table entries in product order, so the hits, their order and the cut
    at the cap are those of the full product, at a cost of
    T^floor(s/2) + T^ceil(s/2) class sums instead of T^s.  Bounds whose
    work, these sums times the 64-bit words of one plus the work of the
    order (_order_work: the unit-tail reductions and one hit's jet
    system), passes MAX_SEARCH_WORK raise FrameMismatch: a count past it
    before any class is reduced, wide sums once the classes are packed.

    q, beta and the graph are built only for the hits, and every hit is
    isotropic, so no form is evaluated.  q is (anti)symmetric by
    construction (_defect_system): t(q) + sign q = 0 exactly.  Each entry
    of a lift depends linearly on that entry's tails alone, and the
    self-dual frame gives (i, j) and (j, i) the same twist, so lifting
    commutes with t(.) + sign(.); for beta = lift(p - q) this gives
    t(beta) + sign beta = lift(t(p) + sign p) = alpha, the identity
    isotropy_linear checks and the form on the graph lifts of the unit
    basis of F that isotropy_direct evaluates.  A returned graph has built
    neither chart lattice."""
    ext = se.ext
    sign = -1 if se.kind == "symplectic" else 1
    slots = [
        (pt, i, j)
        for pt in bounds.points
        for i in range(ext.rank)
        for j in range(i, ext.rank)
        if not (i == j and se.kind == "orthogonal")
    ]
    K = bounds.max_order
    # the work is the number of class sums times their size in 64-bit
    # words, counted at one word each before any class is reduced and at
    # its true size once the classes are packed, plus the order's work;
    # with no slots (rank-1 orthogonal) q = 0 is the only candidate and
    # has no jet system
    sums = _enumeration_work(len(bounds.values), K, len(slots))
    jets = ext.rank * len(bounds.points) * K if slots else 0
    extra = _order_work(len(slots), K, jets)
    packed = None
    if sums + extra <= MAX_SEARCH_WORK:
        units = [
            [
                reduce_class(
                    _defect_system(ext, sign, [(slot, (0,) * k + (1,))])
                ).vector()
                for k in range(K)
            ]
            for slot in slots
        ]
        packed = _packed_classes(
            units,
            ext.extension_class().vector(),
            bounds.values,
            64 * ((MAX_SEARCH_WORK - extra) // max(sums, 1)),  # no values: no sums
        )
    if packed is None:
        raise FrameMismatch(
            f"search bounds too large: {len(slots)} slots of"
            f" {len(bounds.values)}^{K} tails and jet systems of {jets}"
            f" jets need more than {MAX_SEARCH_WORK} words of work"
            " (MAX_SEARCH_WORK)"
        )
    slot_vecs, target = packed
    # with no slots (rank-1 orthogonal) q = 0 is the only candidate, and
    # the budget does not bound the number of tails
    tails = list(itertools.product(bounds.values, repeat=K)) if slots else []
    lead = len(slots) - len(slots) // 2
    # the table side starts at [p] and subtracts: its keys are the sums the
    # leading slots must reach
    table: dict[int, list[tuple[int, ...]]] = {}
    trailing = [[-v for v in vecs] for vecs in slot_vecs[lead:]]
    for choice, rest in _class_sums(trailing, target):
        table.setdefault(rest, []).append(choice)
    out: list[GraphSubbundle] = []
    for head, total in _class_sums(slot_vecs[:lead], 0):
        for tail_choice in table.get(total, ()):
            q = _defect_system(
                ext,
                sign,
                [(slot, tails[t]) for slot, t in zip(slots, head + tail_choice)],
            )
            # the packed sums matched [q] to [p]: p - q lifts unchecked
            out.append(_graph_subbundle(ext, _lift(ext.p - q), q))
            if len(out) >= bounds.cap:
                return out
    return out
