"""Graph subbundles, their invariants, isotropy, and the finite search."""

import dataclasses
import itertools
import random
import sys
from fractions import Fraction

import pytest

import symplext._linalg as la
import symplext.subbundles as sb
from symplext import sampling
from symplext.bundles import RatHom, dual_frame, h0_hom, transpose_hom
from symplext.cli import _candidates
from symplext.errors import (
    ClassMismatch,
    FrameMismatch,
    HypothesisUnmet,
    HypothesisUnmetWarning,
    InternalLiftFailure,
    VerticalIntersection,
)
from symplext.forms import ExtensionData, check_orthogonal, check_symplectic
from symplext.prinparts import (
    PrinHom,
    lift_rational,
    prin_of,
    prin_length,
    reduce_class,
    transpose_prin,
)
from symplext.ratfield import INFINITY, PointP1, Poly, RatFunc
from symplext.subbundles import (
    MAX_SEARCH_WORK,
    SearchBounds,
    _enumeration_work,
    _packed_classes,
    beta_from_subbundle,
    cor6_backward,
    cor6_forward,
    graph_subbundle,
    h0_twisted,
    isotropy_direct,
    isotropy_linear,
    isotropy_prin,
    regularity_check,
    search_lagrangian,
    splitting_type,
    vertical_kernel,
)
from u_chart_oracle import u_chart_f_lattice

P0 = PointP1.finite(0)
P1 = PointP1.finite(1)
P2 = PointP1.finite(2)
P3 = PointP1.finite(3)


def make_ext(degrees, ell=0, parts=None):
    src = dual_frame(degrees, ell)
    return ExtensionData(degrees, ell, PrinHom(src, degrees, parts or {}))


def rf(num, den=None):
    return RatFunc(Poly(num), Poly(den) if den is not None else Poly.one())


# ------------------------------------------------------------
# graph_subbundle on pinned cases
# ------------------------------------------------------------


def test_zero_graph_is_f_itself():
    ext = make_ext((-1, -1))
    G = graph_subbundle(ext, RatHom.zero((1, 1), (-1, -1)))
    assert G.conditions == ()
    assert G.degree == 2
    assert G.splitting == (1, 1)
    assert regularity_check(G)
    assert h0_twisted(G, 0) == 4
    assert h0_twisted(G, -2) == 0


def test_global_beta_graph_is_isomorphic_to_f():
    # E = (1), L of degree 0, so F = (-1) and Hom(F, E) = O(2) has sections
    ext = make_ext((1,))
    beta = RatHom((-1,), (1,), [[rf([1, 0, 1])]])
    G = graph_subbundle(ext, beta)
    assert prin_length(G.q) == 0
    assert G.degree == -1
    assert G.splitting == (-1,)
    assert regularity_check(G)


def test_rank_one_simple_pole_drops_degree_twice():
    # beta sits in O(-2): the finite tail forces a matching tail at infinity
    ext = make_ext((-1,))
    beta = RatHom((1,), (-1,), [[RatFunc(Poly([2]), Poly([-3, 1]))]])
    G = graph_subbundle(ext, beta)
    assert prin_length(G.q) == 2
    assert G.degree == -1
    assert G.splitting == (-1,)
    for m in range(4):
        assert h0_twisted(G, m) == max(0, m)
    assert regularity_check(G)


def test_two_independent_conditions_balanced_splitting():
    p = {
        P0: [[(1,), (1,)], [(), ()]],
        P1: [[(), ()], [(1,), (-1,)]],
    }
    ext = make_ext((-1, -1), parts=p)
    G = graph_subbundle(ext, RatHom.zero((1, 1), (-1, -1)))
    assert prin_length(G.q) == 2
    assert G.degree == 0
    assert G.splitting == (0, 0)


def test_infinity_tail_drops_one_summand():
    p = {INFINITY: [[(1,), ()], [(), ()]]}
    ext = make_ext((-1, -1), parts=p)
    G = graph_subbundle(ext, RatHom.zero((1, 1), (-1, -1)))
    assert prin_length(G.q) == 1
    assert G.degree == 1
    assert G.splitting == (1, 0)


def test_mixed_rank_two_case():
    p = {P2: [[(3,), ()], [(), (1, 2)]]}
    ext = make_ext((-1, -2), parts=p)
    beta = RatHom(
        (1, 2),
        (-1, -2),
        [
            [RatFunc(Poly.one(), Poly([-2, 1])), RatFunc(Poly([1, 1]), Poly([-1, 0, 1]))],
            [RatFunc.zero(), RatFunc(Poly([5]), Poly([4, -4, 1]))],
        ],
    )
    G = graph_subbundle(ext, beta)
    assert prin_length(G.q) == 7
    assert G.degree == -4
    assert G.splitting == (-1, -3)
    assert G.degree == sum(G.splitting)
    assert regularity_check(G)


def test_cancellation_at_shared_point():
    # p and prin_of(beta) share the tail at 0; the quotient tail moves to 1
    ext = make_ext((-1,), parts={P0: [[(1,)]]})
    beta = RatHom((1,), (-1,), [[RatFunc(Poly([-1]), Poly([0, -1, 1]))]])
    G = graph_subbundle(ext, beta)
    assert G.q == PrinHom((1,), (-1,), {P1: [[(1,)]]})
    assert prin_length(G.q) == 1
    assert G.degree == 0
    assert G.splitting == (0,)
    # beta itself still has the pole at 0, so pointwise regularity on the
    # lattice genuinely fails there
    assert not regularity_check(G)


# ------------------------------------------------------------
# Degree bookkeeping as a property
# ------------------------------------------------------------


def test_degree_formula_random():
    rng = random.Random(89)
    for _ in range(20):
        ext = sampling.extension(rng, (-1, -1), 0)
        beta = sampling.rathom(rng, (1, 1), (-1, -1), max_order=2)
        G = graph_subbundle(ext, beta)
        assert G.degree == 2 - prin_length(G.q)
        assert G.degree == sum(G.splitting)
        assert splitting_type(G) == G.splitting


# E frames with a spread, ranks 1 to 4
_SPLIT_FRAMES = [
    (0,), (2,), (0, -3), (-1, -1), (-1, -2), (1, -1, -3), (2, 0, -1),
    (0, -2, -2, -4), (0, -1, -2, -3),
]


def test_reduced_splitting_matches_h0_profile_random():
    # G.splitting comes from a weak Popov basis and the folded-in condition
    # at infinity; splitting_type scans the h^0 profile independently
    rng = random.Random(2027)
    unbalanced = with_inf = without_inf = 0
    for case in range(220):
        E = _SPLIT_FRAMES[case % len(_SPLIT_FRAMES)]
        ell = rng.randint(-1, 1)
        F = dual_frame(E, ell)
        pts = sampling.points(rng, rng.randint(1, 2), allow_infinity=True)
        ext = sampling.extension(rng, E, ell, max_order=2)
        beta = sampling.rathom(rng, F, E, pts=pts, max_order=2)
        if case % 2:  # polynomial parts
            beta = beta + RatHom(F, E, [
                [rf([rng.randint(-2, 2) for _ in range(rng.randint(0, 3))])
                 for _ in F]
                for _ in E
            ])
        G = graph_subbundle(ext, beta)
        assert G.splitting == splitting_type(G), (case, E, ell)
        unbalanced += max(G.splitting) - min(G.splitting) > 1
        if any(c.point.is_infinity for c in G.conditions):
            with_inf += 1
        else:
            without_inf += 1
    assert unbalanced >= 40
    assert with_inf >= 40 and without_inf >= 40


# ------------------------------------------------------------
# beta_from_subbundle
# ------------------------------------------------------------


def test_beta_round_trip_random():
    rng = random.Random(97)
    ext = make_ext((-1, -1))
    for _ in range(20):
        beta = sampling.rathom(rng, (1, 1), (-1, -1), max_order=2)
        G = graph_subbundle(ext, beta)
        assert beta_from_subbundle(G.basis_0, G.basis_inf, ext) == beta


def test_zero_lift_recovers_zero():
    ext = make_ext((-1, -1))
    G = graph_subbundle(ext, RatHom.zero((1, 1), (-1, -1)))
    assert beta_from_subbundle(G.basis_0, G.basis_inf, ext) == RatHom.zero(
        (1, 1), (-1, -1)
    )


_LAZY_FRAMES = [(-1,), (0,), (-1, -1), (-1, -2), (0, -3), (1, -1, -3), (-1, -1, -2)]


def test_lattices_built_on_first_read_random(monkeypatch):
    # graph_subbundle builds neither chart lattice; the first read builds
    # each once, with its checks, and equality, hashing and repr read none
    reads = []
    for name in ("_chart_0_lattice", "_chart_inf_lattice"):
        real = getattr(sb, name)
        monkeypatch.setattr(
            sb, name, lambda G, real=real, name=name: reads.append(name) or real(G)
        )
    rng = random.Random(2031)
    with_inf = 0
    for case in range(200):
        E = _LAZY_FRAMES[case % len(_LAZY_FRAMES)]
        ell = rng.randint(-1, 1)
        F = dual_frame(E, ell)
        # the poles of beta, at infinity on some, avoid the finite glue
        # points of p, so that beta is regular on its graph
        pts = sampling.points(rng, 4, allow_infinity=True)
        glue = [x for x in pts if not x.is_infinity][: rng.randint(1, 2)]
        poles = [x for x in pts if x not in glue][: rng.randint(1, 2)]
        ext = sampling.extension(rng, E, ell, pts=glue, max_order=2)
        beta = sampling.rathom(rng, F, E, pts=poles, max_order=2)
        G, H = graph_subbundle(ext, beta), graph_subbundle(ext, beta)
        with_inf += any(c.point.is_infinity for c in G.conditions)
        assert G == H and hash(G) == hash(H) and repr(G) == repr(H)
        assert reads == []
        assert regularity_check(G)
        assert reads == ["_chart_0_lattice", "_chart_inf_lattice"]
        assert beta_from_subbundle(G.basis_0, G.basis_inf, ext) == beta
        assert tuple(col[len(E):] for col in G.basis_0) == G.f_basis_0
        # G read, H not
        assert G == H and hash(G) == hash(H) and repr(G) == repr(H)
        assert G == dataclasses.replace(G) and dataclasses.replace(H) == H
        assert len(reads) == 4  # replace read H's lattices, and kept G's
        reads.clear()
    assert with_inf >= 100


_ORACLE_FRAMES = [
    (-1,),
    (0,),
    (-1, -1),
    (-1, -2),
    (0, -3),
    (1, -1, -3),
    (-1, -1, -2),
    (-1, -1, -1, -1),
    (0, -1, -2, -2),
]
_HUGE = PointP1.finite(10**16)


def test_u_chart_lattice_matches_transported_conditions():
    # the reversed reduced basis refined at u = 0 spans the lattice that
    # the tails of q, each moved to its point on the u-chart, cut out
    rng = random.Random(2411)
    seen = {"rank 4": 0, "infinity": 0, "huge": 0, "polynomial part": 0}
    for case in range(200):
        E = _ORACLE_FRAMES[case % len(_ORACLE_FRAMES)]
        n = len(E)
        ell = rng.randint(-1, 1)
        F = dual_frame(E, ell)
        pts = sampling.points(rng, 2 if n < 4 else 1, allow_infinity=True)
        if case % 8 == 0:
            pts.append(_HUGE)
        order = 2 if n < 4 else 1
        ext = sampling.extension(rng, E, ell, pts=pts, max_order=order)
        poly_deg = rng.randint(-1, 2)
        # a pole of beta at the huge point would send prin_of into a root
        # search; the tails of p put it into q
        poles = [pt for pt in pts if pt != _HUGE]
        beta = sampling.rathom(rng, F, E, pts=poles, max_order=order, poly_deg=poly_deg)
        G = graph_subbundle(ext, beta)
        ucols = [col[n:] for col in G.basis_inf]
        assert len(ucols) == n
        assert la.poly_hnf(ucols, n) == u_chart_f_lattice(G.q, n), case
        seen["rank 4"] += n == 4
        seen["infinity"] += INFINITY in G.q.support
        seen["huge"] += _HUGE in G.q.support
        seen["polynomial part"] += poly_deg >= 0
    assert min(seen.values()) >= 20, seen


def _unread_copy(G, **changes):
    # G with some fields changed and its u-chart lattice left unbuilt:
    # dataclasses.replace would read it to hand it on
    kept = {
        f.name: getattr(G, f.name)
        for f in dataclasses.fields(G)
        if f.name not in ("basis_inf", *changes)
    }
    return sb.GraphSubbundle(**kept, **changes)


def test_regularity_failing_on_chart_0_builds_no_u_chart_lattice(monkeypatch):
    built = []
    real = sb._chart_inf_lattice
    monkeypatch.setattr(sb, "_chart_inf_lattice", lambda G: built.append(G) or real(G))
    ext = make_ext((-1,))
    beta = RatHom((1,), (-1,), [[RatFunc(Poly([2]), Poly([-3, 1]))]])
    G = graph_subbundle(ext, beta)
    bad = _unread_copy(G, basis_0=((Poly.zero(), Poly.one()),))
    assert not regularity_check(bad)
    assert built == []
    assert regularity_check(G)
    assert built == [G]


def test_u_chart_reversal_below_a_degree_is_an_internal_failure():
    rng = random.Random(2417)
    ext = sampling.extension(rng, (-1, -2), 0, max_order=2)
    G = graph_subbundle(ext, sampling.rathom(rng, (1, 2), (-1, -2), max_order=2))
    lowered = tuple(d - 1 for d in G.f_degrees)
    with pytest.raises(InternalLiftFailure, match="not reduced"):
        _unread_copy(G, f_degrees=lowered).basis_inf


def test_vertical_lattice_rejected():
    ext = make_ext((-1,))
    col = (Poly.one(), Poly.zero())
    with pytest.raises(VerticalIntersection):
        beta_from_subbundle((col,), (col,), ext)


# ------------------------------------------------------------
# Regularity
# ------------------------------------------------------------


def test_corrupted_lattice_fails_regularity():
    ext = make_ext((-1,))
    beta = RatHom((1,), (-1,), [[RatFunc(Poly([2]), Poly([-3, 1]))]])
    G = graph_subbundle(ext, beta)
    assert regularity_check(G)
    # drop the jet condition: the constant section is not in the kernel
    bad = dataclasses.replace(G, basis_0=((Poly.zero(), Poly.one()),))
    assert not regularity_check(bad)


def test_graph_carries_its_extension():
    # regularity_check reads the extension from the graph; a corrupted
    # lattice must still fail with that extension untouched
    rng = random.Random(47)
    for _ in range(4):
        ext = sampling.extension(rng, (-1, -1), 0, max_order=2)
        beta = sampling.rathom(rng, ext.f_frame, ext.e_frame, max_order=2)
        G = graph_subbundle(ext, beta)
        assert G.ext == ext
        assert G.q == ext.p - prin_of(beta)
        assert regularity_check(G)
        for chart in ("basis_0", "basis_inf"):
            cols = list(getattr(G, chart))
            # shift one x-entry: the column leaves the graph
            cols[0] = (cols[0][0] + Poly.one(),) + cols[0][1:]
            bad = dataclasses.replace(G, **{chart: tuple(cols)})
            assert bad.ext is G.ext
            assert not regularity_check(bad)


def test_regularity_with_overlapping_poles():
    rng = random.Random(101)
    pts = (P0, P2)
    for _ in range(10):
        ext = sampling.extension(rng, (-1, -1), 0, pts=pts)
        beta = sampling.rathom(rng, (1, 1), (-1, -1), pts=pts, max_order=1)
        G = graph_subbundle(ext, beta)
        if any(not c.point.is_infinity for c in G.conditions):
            assert regularity_check(G)


# ------------------------------------------------------------
# Isotropy tests
# ------------------------------------------------------------


def test_isotropy_prin_rank_one_always_true():
    rng = random.Random(103)
    for _ in range(15):
        q = sampling.prinhom(rng, (1,), (-1,), max_order=2)
        assert isotropy_prin(q, "symplectic")


def test_isotropy_prin_symmetry():
    q = PrinHom((1, 1), (-1, -1), {P0: [[(), (1,)], [(-1,), ()]]})
    assert isotropy_prin(q, "orthogonal")
    assert not isotropy_prin(q, "symplectic")
    s = PrinHom((1, 1), (-1, -1), {P0: [[(2,), (1,)], [(1,), ()]]})
    assert isotropy_prin(s, "symplectic")
    assert not isotropy_prin(s, "orthogonal")


def test_isotropy_prin_warns_when_hypothesis_fails():
    q = PrinHom((0,), (0,), {P0: [[(1,)]]})
    with pytest.warns(HypothesisUnmetWarning):
        isotropy_prin(q, "symplectic")


def test_isotropy_linear_cases():
    zero = RatHom.zero((1, 1), (-1, -1))
    sym = RatHom(
        (1, 1), (-1, -1),
        [[RatFunc(Poly.one(), Poly([0, 1])), RatFunc(Poly([2]), Poly([0, 1]))],
         [RatFunc(Poly([2]), Poly([0, 1])), RatFunc.zero()]],
    )
    assert isotropy_linear(sym, zero, "symplectic")
    b = RatFunc(Poly.one(), Poly([0, 1]))
    skew = RatHom(
        (1, 1), (-1, -1),
        [[RatFunc.zero(), b], [-b, RatFunc.zero()]],
    )
    assert not isotropy_linear(skew, zero, "symplectic")
    # orthogonal convention: t(beta) + beta must match alpha
    assert isotropy_linear(skew, zero, "orthogonal")


def test_isotropy_triple_agreement_random():
    rng = random.Random(107)
    hits = {True: 0, False: 0}
    for _ in range(25):
        ext = sampling.symmetric_class_extension(rng, (-1, -1), 0)
        se = check_symplectic(ext)
        assert se is not None
        if rng.random() < 0.5:
            beta = sampling.rathom(rng, (1, 1), (-1, -1), max_order=2)
        else:
            # built to satisfy t(beta) - beta = alpha exactly
            g = sampling.rathom(rng, (1, 1), (-1, -1), max_order=2)
            beta = (g + transpose_hom(g)) - se.alpha.scale(Fraction(1, 2))
        G = graph_subbundle(ext, beta)
        a = isotropy_prin(G.q, "symplectic")
        b = isotropy_linear(beta, se.alpha, "symplectic")
        c = isotropy_direct(se, G)
        assert a == b == c
        hits[a] += 1
    assert hits[True] > 0 and hits[False] > 0


def test_search_pairings_match_isotropy_direct():
    # the search reads each pairing off beta and alpha entrywise, by
    # isotropy_linear; on isotropic and non-isotropic graphs of both kinds
    # it must agree with the form evaluated on RatSectionW members
    rng = random.Random(113)
    seen = set()
    for k in range(120):
        kind = ("symplectic", "orthogonal")[k % 2]
        sign = -1 if kind == "symplectic" else 1
        degrees = ((-1,), (-1, -2), (-1, -2), (-1, -1, -2))[k % 4]
        src = dual_frame(degrees, 0)
        sym = sampling.prinhom(
            rng, src, degrees, max_order=2, symmetry="sym" if sign == -1 else "antisym"
        )
        p = sym + sampling.coboundary_prinhom(rng, src, degrees, max_order=1)
        check = check_symplectic if sign == -1 else check_orthogonal
        se = check(ExtensionData(degrees, 0, p))
        g = sampling.rathom(rng, src, degrees, max_order=1)
        if k % 3:
            # t(beta) + sign beta = alpha: isotropic
            beta = g - transpose_hom(g).scale(sign) + se.alpha.scale(Fraction(sign, 2))
        else:
            beta = g
        G = graph_subbundle(se.ext, beta)
        verdict = isotropy_direct(se, G)
        assert isotropy_linear(G.beta, se.alpha, kind) == verdict
        seen.add((kind, verdict))
    assert len(seen) == 4


def test_symmetric_class_with_asymmetric_tails_not_isotropic():
    rng = random.Random(109)
    ext = make_ext(
        (-1, -1), parts={P0: [[(1,), (2,)], [(2,), (-1,)]]}
    )
    se = check_symplectic(ext)
    assert se is not None
    done = False
    for _ in range(40):
        gamma = sampling.rathom(rng, (1, 1), (-1, -1), max_order=1)
        q = ext.p - prin_of(gamma)
        if transpose_prin(q) == q:
            continue
        # the class is still symmetric, only the tails are skewed
        assert reduce_class(transpose_prin(q)) == reduce_class(q)
        beta = gamma
        G = graph_subbundle(ext, beta)
        assert not isotropy_prin(q, "symplectic")
        assert not isotropy_direct(se, G)
        done = True
        break
    assert done


# ------------------------------------------------------------
# Vertical kernel
# ------------------------------------------------------------


def test_vertical_kernel_invertible_beta():
    ext = make_ext((-1, -1))
    b = RatFunc(Poly.one(), Poly([0, 1]))
    beta = RatHom((1, 1), (-1, -1), [[b, RatFunc.zero()], [RatFunc.zero(), b]])
    G = graph_subbundle(ext, beta)
    vk = vertical_kernel(G)
    assert vk.rank == 0
    assert vk.verified


def test_vertical_kernel_zero_beta_is_all_of_f():
    ext = make_ext((-1, -1))
    G = graph_subbundle(ext, RatHom.zero((1, 1), (-1, -1)))
    vk = vertical_kernel(G)
    assert vk.rank == 2
    assert vk.verified


def test_vertical_kernel_rank_one_beta():
    ext = make_ext((-1, -1))
    b = RatFunc(Poly.one(), Poly([0, 1]))
    beta = RatHom((1, 1), (-1, -1), [[b, b], [RatFunc.zero(), RatFunc.zero()]])
    G = graph_subbundle(ext, beta)
    vk = vertical_kernel(G)
    assert vk.rank == 1
    assert vk.verified
    # the kernel direction is f1 = -f2
    g1, g2 = vk.rational_basis[0]
    assert (RatFunc(g1) + RatFunc(g2)).is_zero


# ------------------------------------------------------------
# The defect-system bijection
# ------------------------------------------------------------


def test_cor6_identity_on_p():
    ext = make_ext((-1, -1), parts={P0: [[(1,), ()], [(), (2,)]]})
    G = cor6_forward(ext, ext.p)
    assert all(f.is_zero for row in G.beta.entries for f in row)
    assert cor6_backward(ext, G) == ext.p


def test_cor6_round_trip_random():
    rng = random.Random(113)
    for _ in range(15):
        ext = sampling.extension(rng, (-1, -1), 0)
        gamma = sampling.rathom(rng, (1, 1), (-1, -1), max_order=2)
        q = ext.p - prin_of(gamma)
        G = cor6_forward(ext, q)
        assert cor6_backward(ext, G) == q
        G2 = cor6_forward(ext, cor6_backward(ext, G))
        assert G2.beta == G.beta and G2.q == G.q


def test_cor6_class_mismatch():
    ext = make_ext((-1, -1), parts={P0: [[(1,), ()], [(), ()]]})
    bad = ext.p + PrinHom((1, 1), (-1, -1), {P1: [[(1,), ()], [(), ()]]})
    with pytest.raises(ClassMismatch):
        cor6_forward(ext, bad)


def test_cor6_hypothesis_unmet():
    ext = make_ext((0,))
    with pytest.raises(HypothesisUnmet):
        cor6_forward(ext, ext.p)


# ------------------------------------------------------------
# Finite search
# ------------------------------------------------------------


def test_search_bounds_validation():
    with pytest.raises(FrameMismatch):
        SearchBounds(points=(P0,), max_order=0)
    with pytest.raises(FrameMismatch):
        SearchBounds(points=(P0,), cap=0)


@pytest.mark.parametrize(
    "points, values",
    [
        ((P0, P0), (0, -1, 2)),
        ((P1, PointP1.finite(Fraction(2, 2))), (0, 1)),
        ((P0, P1), (0, 1, 1)),
        ((P0, P1), (1, Fraction(2, 2))),
    ],
)
def test_search_bounds_reject_repeats(points, values):
    # a repeated point would count its slots twice in the class sum while
    # q holds one tail there; a repeated value lists every graph twice
    with pytest.raises(FrameMismatch, match="distinct"):
        SearchBounds(points=points, values=values)


def test_packed_class_sums_compare_as_the_classes():
    # packing each class into one integer must be one to one on every sum
    # the search compares: sum of one class per slot against the target
    rng = random.Random(127)
    for _ in range(20):
        n_slots, K, dim = rng.randint(1, 3), rng.randint(1, 2), rng.randint(1, 4)
        units = [
            [[sampling.fraction(rng, 40, 6) for _ in range(dim)] for _ in range(K)]
            for _ in range(n_slots)
        ]
        values = [sampling.fraction(rng, 9, 3) for _ in range(3)]
        target = [sampling.fraction(rng, 40, 6) for _ in range(dim)]
        vecs, packed_target = _packed_classes(units, target, values, 1 << 16)
        classes = [
            [
                tuple(sum(c * u[i] for c, u in zip(tail, slot)) for i in range(dim))
                for tail in itertools.product(values, repeat=K)
            ]
            for slot in units
        ]
        sums = {}
        for choice in itertools.product(*(range(len(v)) for v in vecs)):
            packed = sum(v[t] for v, t in zip(vecs, choice))
            exact = tuple(map(sum, zip(*(c[t] for c, t in zip(classes, choice)))))
            assert sums.setdefault(packed, exact) == exact
            assert (packed == packed_target) == (exact == tuple(target))
        assert len(set(sums.values())) == len(sums)


def test_search_budget():
    assert _enumeration_work(3, 2, 9) == 9**4 + 9**5 <= MAX_SEARCH_WORK
    assert _enumeration_work(2, 1, 0) == 2
    assert _enumeration_work(1, 10**9, 40) == 2
    assert _enumeration_work(3, 3, 18) > MAX_SEARCH_WORK
    assert _enumeration_work(2, 10**9, 3) > MAX_SEARCH_WORK
    # the README case: the budget does not depend on the cap, so cap 1
    # shows the uncapped search is allowed
    readme = make_ext((-1, -2), parts={P0: [[(), (1,)], [(1,), ()]]})
    bounds = SearchBounds((P0, P1, INFINITY), 2, (0, 1, -1), cap=1)
    assert len(search_lagrangian(check_symplectic(readme), bounds)) == 1
    se = check_symplectic(make_ext((-1, -1, -2)))
    with pytest.raises(FrameMismatch, match="search bounds too large"):
        search_lagrangian(se, SearchBounds((P0, P1, P2), 3, (0, 1, -1)))
    # 39,366 sums pass the count, but not at 200-bit width
    line = check_symplectic(make_ext((-1,)))
    narrow = SearchBounds((P0, P1), 9, (0, 1, Fraction(1, 2)), cap=1)
    assert len(search_lagrangian(line, narrow)) == 1
    wide = SearchBounds((P0, P1), 9, (0, 1, Fraction(1, 2**200)))
    with pytest.raises(FrameMismatch, match="search bounds too large"):
        search_lagrangian(line, wide)
    # an empty value pool has no candidates and costs nothing
    assert search_lagrangian(line, SearchBounds((P0, P1), 1, ())) == []


def test_search_rank_one_all_candidates_qualify():
    ext = make_ext((-1,), parts={P0: [[(1,)]]})
    se = check_symplectic(ext)
    bounds = SearchBounds(points=(P0, P1), max_order=1, values=(0, 1))
    out = search_lagrangian(se, bounds)
    # the class of a single simple pole does not depend on its position
    assert len(out) == 2
    for G in out:
        assert isotropy_direct(se, G)
    again = search_lagrangian(se, bounds)
    assert [g.q for g in again] == [g.q for g in out]
    assert [g.beta for g in again] == [g.beta for g in out]


def test_search_split_case_returns_f():
    ext = make_ext((-1, -1))
    se = check_symplectic(ext)
    bounds = SearchBounds(points=(P0,), max_order=1, values=(0,))
    out = search_lagrangian(se, bounds)
    assert len(out) == 1
    assert out[0].q.is_zero
    assert out[0].splitting == (1, 1)


def test_search_symmetric_class_nonempty():
    p = {P0: [[(1,), ()], [(), (-1,)]]}
    ext = make_ext((-1, -1), parts=p)
    se = check_symplectic(ext)
    assert se is not None
    bounds = SearchBounds(points=(P0, P1), max_order=1, values=(0, 1, -1))
    out = search_lagrangian(se, bounds)
    assert out
    for G in out:
        assert isotropy_direct(se, G)
        assert reduce_class(G.q) == ext.extension_class()


def _search_by_rejection(se, bounds):
    """Generate every candidate q, reduce its class, and keep the graphs
    of those with [q] = [p] that are isotropic, up to the cap."""
    ext, n = se.ext, se.ext.rank
    sign = -1 if se.kind == "symplectic" else 1
    slots = [
        (pt, i, j)
        for pt in bounds.points
        for i in range(n)
        for j in range(i, n)
        if not (i == j and se.kind == "orthogonal")
    ]
    tails = list(itertools.product(bounds.values, repeat=bounds.max_order))
    out = []
    for choice in itertools.product(tails, repeat=len(slots)):
        parts = {}
        for (pt, i, j), tail in zip(slots, choice):
            if not any(tail):
                continue
            mat = parts.setdefault(pt, [[() for _ in range(n)] for _ in range(n)])
            mat[i][j] = tail
            if i != j:
                mat[j][i] = tail if sign == -1 else tuple(-x for x in tail)
        q = PrinHom(ext.f_frame, ext.e_frame, parts)
        if reduce_class(q) != ext.extension_class():
            continue
        G = graph_subbundle(ext, lift_rational(ext.p - q))
        if isotropy_direct(se, G):
            out.append(G)
            if len(out) >= bounds.cap:
                break
    return out


PH = PointP1.finite(Fraction(1, 2))
PT = PointP1.finite(Fraction(1, 3))
ONES3 = [[(1,)] * 3 for _ in range(3)]
HALVES3 = [[(Fraction(1, 2),)] * 3 for _ in range(3)]
# fractional values: the slot classes and the sums have denominators
FRACS = (Fraction(1, 2), 0, Fraction(-2, 3))


# every case has more hits than its cap, and none of the value pools
# starts at 0
@pytest.mark.parametrize(
    "degrees, parts, check, bounds",
    [
        # the point 1/2 gives slot classes with denominators
        (
            (-1, -2),
            {P0: [[(), (1,)], [(1,), ()]]},
            check_symplectic,
            SearchBounds((PH, P0, P1), 1, (1, 0, -1), cap=4),
        ),
        (
            (-1, -2),
            {P0: [[(), (1,)], [(-1,), ()]]},
            check_orthogonal,
            SearchBounds((PH, INFINITY), 2, (1, 0, -1), cap=2),
        ),
        (
            (-1, -1, -1),
            {P2: ONES3},
            check_symplectic,
            SearchBounds((P0, INFINITY), 1, (1, 0, -1), cap=2),
        ),
        (
            (-1, -1, -2),
            {P1: [[(), (), (1,)], [(), (), ()], [(-1,), (), ()]]},
            check_orthogonal,
            SearchBounds((P1, INFINITY), 1, (1, 0, -1), cap=2),
        ),
        (
            (-1,),
            {P0: [[(Fraction(1, 2),)]]},
            check_symplectic,
            SearchBounds((PT, P0, INFINITY), 2, FRACS, cap=5),
        ),
        (
            (-1, -2),
            {PT: [[(), (Fraction(1, 2),)], [(Fraction(1, 2),), ()]]},
            check_symplectic,
            SearchBounds((PT,), 2, FRACS, cap=2),
        ),
        (
            (-1, -2),
            {P0: [[(), (Fraction(1, 2),)], [(Fraction(-1, 2),), ()]]},
            check_orthogonal,
            SearchBounds((PT, P0, INFINITY), 2, FRACS, cap=4),
        ),
        (
            (-1, -1, -1),
            {PT: HALVES3},
            check_symplectic,
            SearchBounds((PT,), 2, (Fraction(1, 2), 0), cap=3),
        ),
        (
            (-1, -1, -2),
            {PT: [[(), (), (Fraction(1, 2),)], [(), (), ()], [(Fraction(-1, 2),), (), ()]]},
            check_orthogonal,
            SearchBounds((PT, INFINITY), 1, FRACS, cap=2),
        ),
    ],
    ids=[
        "rank2-symplectic",
        "rank2-orthogonal",
        "rank3-symplectic",
        "rank3-orthogonal",
        "rank1-symplectic-fractional-order2",
        "rank2-symplectic-fractional-order2",
        "rank2-orthogonal-fractional-order2",
        "rank3-symplectic-fractional-order2",
        "rank3-orthogonal-fractional",
    ],
)
def test_search_matches_generate_and_reject(degrees, parts, check, bounds):
    se = check(make_ext(degrees, parts=parts))
    out = search_lagrangian(se, bounds)
    ref = _search_by_rejection(se, bounds)
    assert len(out) == bounds.cap
    assert [G.q for G in out] == [G.q for G in ref]
    assert [G.beta for G in out] == [G.beta for G in ref]
    assert [G.splitting for G in out] == [G.splitting for G in ref]


def test_every_class_matching_candidate_is_isotropic():
    # search_lagrangian evaluates no form on its hits: a q of the
    # structure's symmetry type with [q] = [p] cuts out a graph on which
    # the form vanishes, also where h^0(Hom(F, E)) != 0 and beta is only
    # the canonical lift of p - q
    rng = random.Random(20261019)
    frames = ((-1,), (-1, -2), (0, -1), (0, 0), (-1, -1, -2))
    seen = set()
    for k in range(20):
        kind = ("symplectic", "orthogonal")[k % 2]
        degrees = frames[k // 2 % len(frames)]
        if kind == "orthogonal" and len(degrees) == 1:
            degrees = (-1, -3)
        n_points = 1 if len(degrees) == 3 else rng.randint(1, 2)
        values = rng.sample([0, 1, -1, Fraction(1, 2)], 3 if n_points == 1 else 2)
        bounds = SearchBounds(sampling.points(rng, n_points), 1, values, cap=10**6)
        planted = rng.choice(list(_candidates(kind, degrees, bounds)))
        gamma = sampling.rathom(rng, dual_frame(degrees, 0), degrees, max_order=1)
        ext = ExtensionData(degrees, 0, planted + prin_of(gamma))
        se = (check_symplectic if kind == "symplectic" else check_orthogonal)(ext)
        target = ext.extension_class()
        matching = [q for q in _candidates(kind, degrees, bounds) if reduce_class(q) == target]
        assert planted in matching
        out = search_lagrangian(se, bounds)
        assert [G.q for G in out] == matching
        for G in out:
            assert isotropy_direct(se, G)
        seen.add((kind, h0_hom(ext.f_frame, ext.e_frame) != 0))
    assert len(seen) == 4


def test_search_runs_no_prin_of(monkeypatch):
    # the search builds each hit's q itself; the graph takes it instead of
    # computing p - prin_of(beta) again
    se = check_symplectic(make_ext((-1, -2), parts={P0: [[(), (1,)], [(1,), ()]]}))
    bounds = SearchBounds((PH, P0, P1), 1, (1, 0, -1), cap=4)
    real = sys.modules["symplext.prinparts"].prin_of
    calls = []

    def counting(phi):
        calls.append(phi)
        return real(phi)

    for name, module in list(sys.modules.items()):
        if name.startswith("symplext") and getattr(module, "prin_of", None) is real:
            monkeypatch.setattr(module, "prin_of", counting)
    out = search_lagrangian(se, bounds)
    monkeypatch.undo()
    assert len(out) == bounds.cap
    assert calls == []
    for G in out:
        assert G.q == se.ext.p - prin_of(G.beta)


def test_search_rank_one_orthogonal_has_no_slots():
    # no off-diagonal entries: the only candidate is q = 0
    se = check_orthogonal(make_ext((-2,)))
    out = search_lagrangian(se, SearchBounds(points=(P0, P1)))
    assert [G.q for G in out] == [PrinHom.zero((2,), (-2,))]


def test_search_respects_cap():
    ext = make_ext((-1,), parts={P0: [[(1,)]]})
    se = check_symplectic(ext)
    bounds = SearchBounds(points=(P0, P1), max_order=1, values=(0, 1), cap=1)
    assert len(search_lagrangian(se, bounds)) == 1
