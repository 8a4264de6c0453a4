"""Principal part systems, class reduction, and rational lifts."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symplext import sampling
from symplext.bundles import RatHom, dual_frame, transpose_hom
from symplext.errors import NotACoboundary
from symplext.forms import ExtensionData, check_orthogonal, check_symplectic
from symplext.prinparts import (
    _excess_ints,
    _finite_tails,
    CohClass,
    PrinHom,
    apply_prin,
    assembled_finite,
    cech_class,
    class_dim,
    cocycle_of,
    has_prin,
    is_coboundary,
    lift_rational,
    local_condition_matrix,
    prin_length,
    prin_of,
    reduce_class,
    transpose_prin,
)
from symplext.ratfield import (
    INFINITY,
    PointP1,
    Poly,
    RatFunc,
    polar_coeffs_as_ratfunc,
    zpow,
)
from u_chart_oracle import u_chart_tail

P0 = PointP1.finite(0)
P1 = PointP1.finite(1)


def rank1(parts, src=(1,), dst=(-1,)):
    return PrinHom(src, dst, parts)


# ------------------------------------------------------------
# prin_of and friends
# ------------------------------------------------------------


def test_prin_of_simple_pole_with_twist():
    # 1/(z-1) in twist -2 has tails at 1 and at infinity
    beta = RatHom((1,), (-1,), [[RatFunc(Poly.one(), Poly([-1, 1]))]])
    p = prin_of(beta)
    assert p.support == (P1, INFINITY)
    assert p.entry(P1, 0, 0) == (Fraction(1),)
    assert p.entry(INFINITY, 0, 0) == (Fraction(1),)
    assert is_coboundary(p)


def test_prin_of_zero():
    assert prin_of(RatHom.zero((1,), (-1,))).is_zero
    assert is_coboundary(rank1({}))


def test_prin_length_counts_conditions():
    assert prin_length(rank1({})) == 0
    assert prin_length(rank1({P0: [[(1,)]]})) == 1
    # pure double pole: f(0) = f'(0) = 0, two conditions
    assert prin_length(rank1({P0: [[(0, 1)]]})) == 2


def test_local_condition_matrix_orders():
    q1 = rank1({P0: [[(1,)]]})
    m1 = local_condition_matrix(q1, P0)
    assert len(m1) == 1
    q2 = rank1({P0: [[(0, 1)]]})
    m2 = local_condition_matrix(q2, P0)
    assert len(m2) == 2


# ------------------------------------------------------------
# Class reduction
# ------------------------------------------------------------


def test_reduce_class_twist_minus2_generator():
    p = rank1({P1: [[(1,)]]})
    cls = reduce_class(p)
    assert class_dim((1,), (-1,)) == 1
    assert cls.vector() == [Fraction(-1)]
    assert not is_coboundary(p)


def test_reduce_class_twist_minus3_infinity_tail():
    a, b, c = Fraction(2), Fraction(-3), Fraction(5, 2)
    p = PrinHom((2,), (-1,), {INFINITY: [[(a, b, c)]]})
    cls = reduce_class(p)
    # the u^-3 coefficient is cancellable by a polynomial section
    assert cls.entry(0, 0) == (a, b)


def test_reduce_class_kills_coboundaries():
    rng = random.Random(23)
    for _ in range(20):
        p = sampling.prinhom(rng, (1, 2), (-1, -2), max_order=2)
        gamma = sampling.rathom(rng, (1, 2), (-1, -2), max_order=2)
        assert reduce_class(p + prin_of(gamma)) == reduce_class(p)


def test_reduce_class_additive():
    rng = random.Random(29)
    for _ in range(20):
        p = sampling.prinhom(rng, (1, 2), (-1, -2), max_order=2)
        q = sampling.prinhom(rng, (1, 2), (-1, -2), max_order=2)
        lhs = reduce_class(p + q).vector()
        rhs = [
            x + y
            for x, y in zip(reduce_class(p).vector(), reduce_class(q).vector())
        ]
        assert lhs == rhs


def test_cech_identity():
    rng = random.Random(31)
    for _ in range(20):
        p = sampling.prinhom(rng, (1, 2), (-1, -2), max_order=3)
        T = cocycle_of(p)
        assert cech_class(T, p.src, p.dst) == reduce_class(p)


# ------------------------------------------------------------
# Rational lifts
# ------------------------------------------------------------


def test_lift_rational_zero():
    assert lift_rational(rank1({})).is_zero


def test_lift_rational_round_trip():
    rng = random.Random(37)
    for _ in range(20):
        beta0 = sampling.rathom(rng, (1, 2), (-1, -2), max_order=2)
        p = prin_of(beta0)
        beta = lift_rational(p)
        assert prin_of(beta) == p
        assert (beta - beta0).is_global_hom()


def test_lift_rational_simple_pole_twist0():
    p = PrinHom((0,), (0,), {P0: [[(1,)]]})
    beta = lift_rational(p)
    assert prin_of(beta) == p
    # 1/z plus a polynomial correction regular at infinity for twist 0
    diff = beta[0, 0] - RatFunc(Poly.one(), Poly([0, 1]))
    assert diff.is_global(0)


def test_lift_rational_obstructed():
    with pytest.raises(NotACoboundary):
        lift_rational(rank1({P1: [[(1,)]]}))


# ------------------------------------------------------------
# Transpose
# ------------------------------------------------------------


def test_transpose_rank_one_fixed():
    p = rank1({P0: [[(1, 2)]]})
    assert transpose_prin(p) == p


def test_transpose_diagonal_fixed():
    p = PrinHom((1, 2), (-1, -2), {P0: [[(1,), ()], [(), (2,)]]})
    assert transpose_prin(p) == p


def test_transpose_swaps_offdiagonal():
    p = PrinHom((1, 2), (-1, -2), {P0: [[(), (3,)], [(), ()]]})
    t = transpose_prin(p)
    assert t.entry(P0, 1, 0) == (Fraction(3),)
    assert t.entry(P0, 0, 1) == ()
    assert transpose_prin(t) == p


# ------------------------------------------------------------
# Assembly helpers
# ------------------------------------------------------------


def test_apply_prin_single_entry():
    # p applied to a section vector keeps the tails of the product
    p = PrinHom((1,), (-1,), {P0: [[(1,)]]})
    out = apply_prin(p, [RatFunc(Poly([0, 1]))])
    # (1/z) * z = 1 has no pole at 0
    assert P0 not in out.support
    out2 = apply_prin(p, [RatFunc(Poly.one())])
    assert out2.entry(P0, 0, 0) == (Fraction(1),)


def test_cohclass_canonical_lengths():
    cls = CohClass((2,), (-1,), {(0, 0): (1, 2)})
    assert cls.entry(0, 0) == (Fraction(1), Fraction(2))
    assert class_dim((2,), (-1,)) == 2
    with pytest.raises(Exception):
        CohClass((2,), (-1,), {(0, 0): (1, 2, 3)})


# ------------------------------------------------------------
# Closed-form class map against assembled rational functions
# ------------------------------------------------------------


def _at(coeffs, k):
    return coeffs[k - 1] if k <= len(coeffs) else Fraction(0)


def _reference_excess(p, i, j, skip=None):
    """Tail at infinity of the finite tails of entry (i, j): assemble them
    as one rational function, flip it into its twist, take the polar
    part at u = 0."""
    total = RatFunc.zero()
    for pt, mat in p.parts.items():
        if not pt.is_infinity and pt != skip and mat[i][j]:
            total = total + polar_coeffs_as_ratfunc(pt.value, mat[i][j])
    return total.flip(p.twist(i, j)).polar0() if not total.is_zero else ()


def _reference_class(p):
    data = {}
    for i in range(p.nrows):
        for j in range(p.ncols):
            exc = _reference_excess(p, i, j)
            pinf = p.entry(INFINITY, i, j)
            data[(i, j)] = [
                _at(pinf, k) - _at(exc, k) for k in range(1, -p.twist(i, j))
            ]
    return CohClass(p.src, p.dst, data)


def _reference_cocycle(p):
    out = []
    for i in range(p.nrows):
        row = []
        for j in range(p.ncols):
            c0 = p.entry(P0, i, j)
            T = polar_coeffs_as_ratfunc(Fraction(0), c0) if c0 else RatFunc.zero()
            exc = _reference_excess(p, i, j, skip=P0)
            pinf = p.entry(INFINITY, i, j)
            for k in range(1, max(len(pinf), len(exc)) + 1):
                T = T - zpow(k + p.twist(i, j)) * (_at(pinf, k) - _at(exc, k))
            row.append(T)
        out.append(row)
    return out


def _reference_finite(p, i, j):
    """The finite tails of entry (i, j) summed as rational functions."""
    total = RatFunc.zero()
    for pt in p.support:
        if not pt.is_infinity and p.entry(pt, i, j):
            total = total + polar_coeffs_as_ratfunc(pt.value, p.entry(pt, i, j))
    return total


def _reference_lift(p):
    """The canonical lift by rational-function sums: the finite tails plus
    z^(k+t) times each nonzero residual pinf_k - excess_k at infinity; a
    residual with k + t < 0 needs a pole at 0 and obstructs."""
    entries = []
    for i in range(p.nrows):
        row = []
        for j in range(p.ncols):
            t = p.twist(i, j)
            f = _reference_finite(p, i, j)
            exc = _reference_excess(p, i, j)
            pinf = p.entry(INFINITY, i, j)
            for k in range(1, max(len(pinf), len(exc)) + 1):
                r = _at(pinf, k) - _at(exc, k)
                if not r:
                    continue
                if k + t < 0:
                    raise NotACoboundary(
                        f"obstructed at infinity order {k} in twist {t} of entry ({i}, {j})"
                    )
                f = f + zpow(k + t) * r
            row.append(f)
        entries.append(row)
    return RatHom(p.src, p.dst, entries)


def _reference_apply(p, secs):
    """apply_prin by rational-function products: the tails at a of
    sum_j (tails of p_ij at a) * secs[j], read by translate and polar0,
    and at infinity against the flipped sections."""
    parts = {}
    for pt in p.support:
        col = []
        for i in range(p.nrows):
            total = RatFunc.zero()
            for j in range(p.ncols):
                c = p.entry(pt, i, j)
                if not c:
                    continue
                if pt.is_infinity:
                    total = total + polar_coeffs_as_ratfunc(Fraction(0), c) * secs[
                        j
                    ].flip(p.src[j])
                else:
                    total = total + polar_coeffs_as_ratfunc(pt.value, c) * secs[j]
            if not pt.is_infinity:
                total = total.translate(pt.value)
            col.append([total.polar0()])
        parts[pt] = col
    return PrinHom((0,), p.dst, parts)


def _random_frames(rng, rank):
    return (
        tuple(rng.randint(-1, 3) for _ in range(rank)),
        tuple(rng.randint(-3, 1) for _ in range(rank)),
    )


def _other_points(rng):
    """Up to two finite points other than 0."""
    pool = [pt for pt in sampling.POINT_POOL if pt != P0]
    return sampling.points(rng, rng.randint(0, 2), pool=pool)


def test_closed_form_class_matches_assembled_reference():
    rng = random.Random(41)
    for case in range(120):
        src, dst = _random_frames(rng, 1 + case % 4)
        pts = [P0, INFINITY] + _other_points(rng)
        p = sampling.prinhom(rng, src, dst, pts=pts, max_order=3)
        assert reduce_class(p) == _reference_class(p)
        assert cocycle_of(p) == _reference_cocycle(p)


def test_closed_form_lift_inverts_prin_of_on_coboundaries():
    rng = random.Random(43)
    for case in range(60):
        src, dst = _random_frames(rng, 1 + case % 4)
        pts = [P0] + _other_points(rng)
        p = sampling.coboundary_prinhom(rng, src, dst, pts=pts, max_order=3)
        assert reduce_class(p).is_zero
        assert prin_of(lift_rational(p)) == p


def test_closed_form_u_chart_tails_match_ratfunc_route():
    # the tail at z = a read at u = 1/a in twist t, against assembling it
    # as a rational function, flipping it into the twist and translating;
    # the closed form is the u-chart lattice oracle of test_subbundles
    rng = random.Random(47)
    for _ in range(600):
        a = sampling.nonzero_fraction(rng, span=7, den=4)
        coeffs = tuple(sampling.fraction(rng) for _ in range(rng.randint(1, 4)))
        t = rng.randint(-8, 5)
        expected = (
            polar_coeffs_as_ratfunc(a, coeffs).flip(t).translate(1 / a).polar0()
            if any(coeffs)
            else ()
        )
        assert u_chart_tail(a, coeffs, t) == expected, (a, coeffs, t)


# ------------------------------------------------------------
# Closed-form structure check against the assembled route
# ------------------------------------------------------------

# points of large height: trial division for the roots of (z - a) would
# take minutes at 7^20/3^15
BIG_POINTS = (PointP1.finite(Fraction(7**20, 3**15)), PointP1.finite(-(10**12)))


def _assembled_alpha(ext, sign):
    """The structure check as an oracle: lift the PrinHom sum
    s = t(p) + sign * p by rational-function sums and average the lift
    with its sign-transpose.  (None, s) when the class of s obstructs."""
    s = transpose_prin(ext.p) + ext.p.scale(sign)
    try:
        a0 = _reference_lift(s)
    except NotACoboundary:
        return None, s
    return (a0 + transpose_hom(a0).scale(sign)).scale(Fraction(1, 2)), s


def _tails_by_assembly(alpha, s):
    """prin_of(alpha) == s with no root search: alpha minus the assembled
    finite tails of s is a polynomial, and its tail at infinity is that
    of s."""
    for i in range(s.nrows):
        for j in range(s.ncols):
            rest = alpha[i, j]
            for pt in s.support:
                if not pt.is_infinity and s.entry(pt, i, j):
                    rest = rest - polar_coeffs_as_ratfunc(pt.value, s.entry(pt, i, j))
            if not rest.is_polynomial:
                return False
            if alpha[i, j].flip(s.twist(i, j)).polar0() != s.entry(INFINITY, i, j):
                return False
    return True


def _structured_system(rng, degrees, ell, pts):
    """A system on pts of one of three kinds: random, symmetric plus a
    coboundary, antisymmetric plus a coboundary (the coboundary's poles
    are small points)."""
    src = dual_frame(degrees, ell)
    kind = rng.choice((None, "sym", "antisym"))
    p = sampling.prinhom(rng, src, degrees, pts=pts, max_order=3, symmetry=kind)
    if kind is not None:
        p = p + sampling.coboundary_prinhom(rng, src, degrees, max_order=2)
    return p


def test_structure_check_matches_assembled_route():
    rng = random.Random(59)
    seen = {"obstructed": 0, "exists": 0, "exists at a large point": 0}
    for case in range(320):
        rank = 1 + case % 4
        degrees = tuple(sorted((rng.randint(-5, 1) for _ in range(rank)), reverse=True))
        ell = rng.randint(-2, 0)
        pool = list(sampling.POINT_POOL) + list(BIG_POINTS) + [INFINITY]
        pts = rng.sample(pool, rng.randint(1, 3))
        ext = ExtensionData(degrees, ell, _structured_system(rng, degrees, ell, pts))
        big = any(pt in BIG_POINTS for pt in ext.p.support)
        p = ext.p
        for i in range(rank):
            for j in range(rank):
                L = -p.twist(i, j) - 1
                for skip in (None, P0):
                    ref = _reference_excess(p, i, j, skip=skip)
                    want = [_at(ref, k) for k in range(1, L + 1)]
                    nums, den = _excess_ints(p, i, j, skip=skip)
                    assert [Fraction(x, den) for x in nums] == want
        for sign, check in ((-1, check_symplectic), (1, check_orthogonal)):
            want, s = _assembled_alpha(ext, sign)
            got = check(ext)
            assert (got is None) == (want is None), (case, sign)
            if want is None:
                seen["obstructed"] += 1
                continue
            seen["exists"] += 1
            seen["exists at a large point"] += big
            assert got.alpha == want, (case, sign)
            assert has_prin(got.alpha, s) and _tails_by_assembly(got.alpha, s)
            if not big:
                assert prin_of(want) == s
    # every branch is exercised, on points of small and large height
    assert min(seen.values()) >= 60, seen


def _cleared_at_infinity(p):
    """p with the reference class taken off its tails at infinity: a
    coboundary, built with no prin_of, so points of large height stay
    cheap."""
    cls = _reference_class(p)
    parts = {pt: [list(row) for row in mat] for pt, mat in p.parts.items()}
    inf = parts.setdefault(INFINITY, [[()] * p.ncols for _ in range(p.nrows)])
    for (i, j), vals in cls.data.items():
        tail = list(inf[i][j]) + [0] * max(0, len(vals) - len(inf[i][j]))
        inf[i][j] = [x - c for x, c in zip(tail, vals)] + tail[len(vals) :]
    return PrinHom(p.src, p.dst, parts)


def _global_sections(rng, frame):
    return [
        RatFunc(Poly([sampling.fraction(rng) for _ in range(d + 1)]))
        if d >= 0
        else RatFunc.zero()
        for d in frame
    ]


def test_closed_form_tails_match_ratfunc_route():
    # the lift, both chart splittings, the cocycle and apply_prin against
    # the rational-function sums, products and gcds they replace
    rng = random.Random(67)
    seen = {"obstructed": 0, "zero": 0, "large": 0, "infinity": 0, "twist -10": 0}
    pool = list(sampling.POINT_POOL) + list(BIG_POINTS) + [INFINITY]
    for case in range(320):
        rank = 1 + case % 4
        degrees = tuple(sorted((rng.randint(-5, 1) for _ in range(rank)), reverse=True))
        ell = rng.randint(-2, 0)
        pts = rng.sample(pool, rng.randint(1, 4))
        p = sampling.prinhom(rng, dual_frame(degrees, ell), degrees, pts=pts, max_order=3)
        seen["zero"] += P0 in p.support
        seen["large"] += any(pt in BIG_POINTS for pt in p.support)
        seen["infinity"] += INFINITY in p.support
        seen["twist -10"] += min(p.twist(i, j) for i in range(rank) for j in range(rank)) == -10
        try:
            want = _reference_lift(p)
        except NotACoboundary as exc:
            seen["obstructed"] += 1
            with pytest.raises(NotACoboundary) as got:
                lift_rational(p)
            assert str(got.value) == str(exc), case
        else:
            assert lift_rational(p) == want, case
        cb = _cleared_at_infinity(p)
        assert lift_rational(cb) == _reference_lift(cb), case
        ext = ExtensionData(degrees, ell, p)
        s0 = RatHom(p.src, p.dst, [[_reference_finite(p, i, j) for j in range(rank)] for i in range(rank)])
        assert ext.s_zero() == s0, case
        T = _reference_cocycle(p)
        assert cocycle_of(p) == T, case
        for i in range(rank):
            for j in range(rank):
                assert assembled_finite(p, i, j) == s0[i, j]
                assert ext.s_infinity()[i, j] == s0[i, j] - T[i][j], case
                for skip in (None, P0):
                    num, den = _finite_tails(p, i, j, skip=skip)
                    assert num.gcd(den) == Poly.one()
        secs = _global_sections(rng, p.src)
        assert apply_prin(p, secs) == _reference_apply(p, secs), case
    assert min(seen.values()) >= 20, seen


def test_u_chart_tails_at_points_of_large_height():
    rng = random.Random(61)
    for a in [pt.value for pt in BIG_POINTS] + [Fraction(-(3**15), 7**20)]:
        for _ in range(40):
            coeffs = sampling.tail(rng, max_order=4)
            t = rng.randint(-10, 5)
            expected = polar_coeffs_as_ratfunc(a, coeffs).flip(t).translate(1 / a).polar0()
            assert u_chart_tail(a, coeffs, t) == expected, (a, coeffs, t)


def test_has_prin_rejects_extra_poles_and_wrong_tails():
    P2 = PointP1.finite(2)
    p = rank1({P0: [[(1,)]], P1: [[(0, 3)]]}, src=(0,), dst=(0,))
    f = polar_coeffs_as_ratfunc(Fraction(0), (1,)) + polar_coeffs_as_ratfunc(
        Fraction(1), (0, 3)
    )
    assert has_prin(RatHom((0,), (0,), [[f]]), p)
    # a pole at 2 that p does not have, a wrong order at 1, a wrong
    # coefficient at 0, a tail at infinity, a different frame
    for g in (
        f + polar_coeffs_as_ratfunc(Fraction(2), (5,)),
        f + polar_coeffs_as_ratfunc(Fraction(1), (0, 0, 1)),
        f + polar_coeffs_as_ratfunc(Fraction(0), (1,)),
        f + RatFunc(Poly([0, 1])),
    ):
        assert not has_prin(RatHom((0,), (0,), [[g]]), p)
        assert prin_of(RatHom((0,), (0,), [[g]])) != p
    assert not has_prin(RatHom((1,), (0,), [[f]]), p)
