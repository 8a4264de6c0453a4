"""Field arithmetic, polar parts, and the expression grammar."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import symplext.ratfield as rfmod
from symplext._linalg import nullspace, rank, rref
from symplext.errors import ParseError, UnsupportedPoleField, ZeroDenominator
from symplext.ratfield import (
    INFINITY,
    MAX_EXPONENT,
    MAX_SIZE,
    ParseBudget,
    PointP1,
    PolarPart,
    Poly,
    RatFunc,
    full_principal_part,
    parse_frac,
    parse_point,
    parse_ratfunc,
    point_text,
    polar_coeffs_as_ratfunc,
    polar_part,
    ratfunc_text,
    valuation,
    zpow,
)

fracs = st.fractions(min_value=-30, max_value=30, max_denominator=6)


def polys(max_deg=3):
    return st.lists(fracs, min_size=0, max_size=max_deg + 1).map(Poly)


def nonzero_polys(max_deg=3):
    return polys(max_deg).filter(lambda p: not p.is_zero)


@st.composite
def ratfuncs(draw, max_deg=3):
    num = draw(polys(max_deg))
    den = draw(nonzero_polys(max_deg))
    return RatFunc(num, den)


# points with exact rational handling all the way through
@st.composite
def pole_structured(draw):
    """Rational function with poles only at small rational points."""
    f = RatFunc(draw(polys(2)))
    for a in draw(st.lists(st.sampled_from([0, 1, -1, 2, Fraction(1, 2)]),
                           max_size=2, unique=True)):
        coeffs = draw(st.lists(fracs, min_size=1, max_size=3))
        f = f + polar_coeffs_as_ratfunc(Fraction(a), coeffs)
    return f


# ------------------------------------------------------------
# Poly basics
# ------------------------------------------------------------


def test_poly_trims_and_degree():
    assert Poly([1, 0, 0]).degree == 0
    assert Poly([]).degree == -1
    assert Poly([0]).is_zero
    assert Poly([1, 0, -2]).degree == 2


def test_poly_divmod_exact():
    a = Poly([1, 0, -2, 1])
    b = Poly([-1, 1])
    q, r = divmod(a, b)
    assert q * b + r == a


@given(polys(), polys(), polys())
def test_poly_ring_laws(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)


# ------------------------------------------------------------
# Integer-backed Poly against plain Fraction coefficient lists
# ------------------------------------------------------------


def _trimmed(cs):
    cs = [Fraction(c) for c in cs]
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _r_add(a, b, sign=1):
    n = max(len(a), len(b))
    pad = lambda cs, i: cs[i] if i < len(cs) else 0
    return _trimmed([pad(a, i) + sign * pad(b, i) for i in range(n)])


def _r_mul(a, b):
    out = [Fraction(0)] * max(0, len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trimmed(out)


def _r_divmod(a, b):
    q, r = [Fraction(0)] * max(0, len(a) - len(b) + 1), list(a)
    while len(r) >= len(b):
        k, c = len(r) - len(b), r[-1] / b[-1]
        q[k] = c
        for i, y in enumerate(b):
            r[k + i] -= c * y
        r = _trimmed(r)
    return _trimmed(q), r


def _r_gcd(a, b):
    while b:
        a, b = b, _r_divmod(a, b)[1]
    return [c / a[-1] for c in a]


def _r_call(a, x):
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _r_shift(a, x):
    # coefficient s of p(z + x) is sum over c of C(c, s) a_c x^(c - s)
    return _trimmed(
        [sum(math.comb(c, s) * a[c] * x ** (c - s) for c in range(s, len(a))) for s in range(len(a))]
    )


def _r_reverse(a, n):
    return _trimmed(list(reversed(a + [Fraction(0)] * (n + 1 - len(a)))))


def _random_coeffs(rng):
    """Up to six coefficients with mixed and large denominators, zeros at
    either end now and then, and a leading coefficient of either sign."""
    dens = [1, 1, 2, 3, 4, 6, 9, 10**9, 7**20]
    cs = [
        Fraction(rng.randint(-9, 9), rng.choice(dens)) if rng.random() < 0.8 else Fraction(0)
        for _ in range(rng.randint(0, 6))
    ]
    if cs and rng.random() < 0.7:
        cs[-1] = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.choice(dens))
    return cs


def _same(p: Poly, ref):
    assert p.coeffs == tuple(ref)
    assert p == Poly(ref)
    assert hash(p) == hash(Poly(ref))


def test_poly_operations_match_fraction_reference():
    rng = random.Random(4411)
    for _ in range(400):
        a, b = _trimmed(_random_coeffs(rng)), _trimmed(_random_coeffs(rng))
        if rng.random() < 0.15:
            b = list(a)  # equal operands: zero differences, exact quotients
        pa, pb = Poly(a), Poly(b)
        _same(pa, a)
        _same(pa + pb, _r_add(a, b))
        _same(pa - pb, _r_add(a, b, -1))
        _same(pa - pa, [])
        _same(-pa, [-c for c in a])
        _same(pa * pb, _r_mul(a, b))
        c = rng.choice([0, 1, -3, Fraction(5, 7), Fraction(-1, 10**9)])
        _same(pa.scale(c), _trimmed([c * x for x in a]))
        if b:
            q, r = _r_divmod(a, b)
            _same(divmod(pa, pb)[0], q)
            _same(divmod(pa, pb)[1], r)
            _same(pa // pb, q)
            _same(pa % pb, r)
            # the product plus the remainder divides back exactly
            _same((pa * pb + Poly(r)) // pb, a)
        if a or b:
            _same(pa.gcd(pb), _r_gcd(a, b))
        else:
            assert pa.gcd(pb).is_zero
        _same(pa.monic(), [x / a[-1] for x in a] if a else [])
        x = Fraction(rng.randint(-5, 5), rng.choice([1, 2, 3, 10**6]))
        assert pa(x) == _r_call(a, x)
        assert type(pa(x)) is Fraction
        _same(pa.shift(x), _r_shift(a, x))
        for k in range(-1, len(a) + 2):
            assert pa[k] == (a[k] if 0 <= k < len(a) else 0)
        if a:
            n = len(a) - 1 + rng.randint(0, 2)
            _same(pa.reverse(n), _r_reverse(a, n))
            _same(pa.reverse(), _r_reverse(a, len(a) - 1))
            assert pa.valuation0() == next(i for i, c in enumerate(a) if c)
            assert pa.lead == a[-1]
            assert pa.degree == len(a) - 1


def test_poly_equal_by_any_route_hashes_alike():
    half = Fraction(1, 2)
    routes = [
        Poly([half, 1]),
        Poly(["1/2", 1]),
        Poly([1, 2]).scale(half),
        Poly([-1, -2]).scale(-half),
        Poly([0, half]) + Poly([half, half]),
        (Poly([1, 2]) * Poly([1, 1])) // Poly([2, 2]),
        Poly([1, 2]).monic(),
        Poly([Fraction(-1, 2), 1]).shift(1),
        Poly([1, half]).reverse(),
    ]
    for p in routes:
        assert p == routes[0]
        assert hash(p) == hash(routes[0])
    assert len(set(routes)) == 1
    assert Poly([1, 2]) != Poly([half, 1])
    assert Poly([1, 2]) != Poly([-1, -2])


def test_poly_coeffs_are_fractions():
    for p in (
        Poly([1, 2]),
        Poly([Fraction(1, 2), 3]),
        Poly([1, -2]) * Poly([3, 4]),
        Poly([6, 4]).monic(),
        Poly([1, 1]).shift(Fraction(2, 3)),
    ):
        assert isinstance(p.coeffs, tuple)
        assert all(type(c) is Fraction for c in p.coeffs)
        assert all(type(c) is Fraction for c in p)
        assert type(p.lead) is Fraction
    assert Poly([]).coeffs == ()


# ------------------------------------------------------------
# RatFunc normalization and field laws
# ------------------------------------------------------------


def test_normalization_monic_denominator():
    # 2z / 4 reduces to z/2 with monic denominator
    f = RatFunc(Poly([0, 2]), Poly([4]))
    assert f.den == Poly.one()
    assert f.num == Poly([0, Fraction(1, 2)])
    # re-expansion oracle
    assert f * RatFunc.constant(4) == RatFunc(Poly([0, 2]))


def test_zero_denominator_rejected():
    with pytest.raises(ZeroDenominator):
        RatFunc(Poly.one(), Poly.zero())


@given(ratfuncs(), ratfuncs(), ratfuncs())
def test_field_laws(f, g, h):
    assert f * (g + h) == f * g + f * h
    assert (f - g) + g == f


@given(ratfuncs())
def test_inverse(f):
    if f.is_zero:
        return
    assert f * (RatFunc.one() / f) == RatFunc.one()


@given(ratfuncs(), st.fractions(min_value=-8, max_value=8, max_denominator=4))
def test_translate_is_a_field_map(f, a):
    assert f.translate(a).translate(-a) == f


@given(ratfuncs())
def test_flip_involution(f):
    assert f.flip().flip() == f


def test_zpow():
    assert zpow(3) == RatFunc(Poly.monomial(3))
    assert zpow(-2) * zpow(2) == RatFunc.one()


# ------------------------------------------------------------
# Valuations and polar parts
# ------------------------------------------------------------


def test_valuation_triple_zero():
    f = RatFunc(Poly([-1, 1]) ** 3, Poly([2, 1]))
    assert valuation(f, PointP1.finite(1)) == 3
    assert valuation(f, PointP1.finite(-2)) == -1
    assert valuation(f, PointP1.finite(5)) == 0


def test_polar_part_partial_fractions():
    # 1/(z(z-1)) = -1/z + 1/(z-1)
    f = RatFunc(Poly.one(), Poly([0, 1]) * Poly([-1, 1]))
    assert polar_part(f, PointP1.finite(0)).coeffs == (Fraction(-1),)
    assert polar_part(f, PointP1.finite(1)).coeffs == (Fraction(1),)


def test_infinity_polar_cubic():
    # z^3/(z-1) = z^2 + z + 1 + 1/(z-1); in the u-chart at twist 0 the
    # polar part is u^-2 + u^-1 (division oracle, not u^-3)
    f = RatFunc(Poly.monomial(3), Poly([-1, 1]))
    parts = full_principal_part(f, 0)
    assert [p.point for p in parts] == [PointP1.finite(1), INFINITY]
    assert parts[0].coeffs == (Fraction(1),)
    assert parts[1].coeffs == (Fraction(1), Fraction(1))


def test_full_principal_part_of_z():
    parts = full_principal_part(RatFunc(Poly([0, 1])), 0)
    assert len(parts) == 1
    assert parts[0].point.is_infinity
    assert parts[0].coeffs == (Fraction(1),)


def test_full_principal_part_twisted():
    # 1/(z-1) as a section of O(-2): pole at 1 and, after the twist, at
    # infinity with c_1 = 1
    f = RatFunc(Poly.one(), Poly([-1, 1]))
    parts = full_principal_part(f, -2)
    assert [(p.point, p.coeffs) for p in parts] == [
        (PointP1.finite(1), (Fraction(1),)),
        (INFINITY, (Fraction(1),)),
    ]


def test_irrational_pole_rejected():
    f = RatFunc(Poly.one(), Poly([-2, 0, 1]))  # z^2 - 2
    with pytest.raises(UnsupportedPoleField):
        f.finite_poles()


@given(pole_structured())
def test_partial_fraction_completeness(f):
    # f minus all its finite polar parts is a polynomial
    rest = f
    for a in f.finite_poles():
        rest = rest - polar_coeffs_as_ratfunc(a, f.translate(a).polar0())
    assert rest.is_polynomial


@given(pole_structured(), pole_structured())
def test_polar_additivity(f, g):
    pt = PointP1.finite(0)
    s = polar_part(f, pt) + polar_part(g, pt)
    assert s == polar_part(f + g, pt)


@given(st.integers(min_value=-4, max_value=4))
def test_global_sections_of_twist(d):
    # z^k is a global section of O(d) exactly for 0 <= k <= d
    for k in range(0, 5):
        f = RatFunc(Poly.monomial(k))
        assert f.is_global(d) == (k <= d)


def test_polar_part_as_ratfunc_round_trip():
    pp = PolarPart(PointP1.finite(2), (Fraction(3), Fraction(0), Fraction(1, 2)))
    f = pp.as_ratfunc()
    assert polar_part(f, PointP1.finite(2)) == pp
    assert (f - polar_coeffs_as_ratfunc(Fraction(2), pp.coeffs)).is_zero


# ------------------------------------------------------------
# Text round trips
# ------------------------------------------------------------


@given(ratfuncs())
@settings(max_examples=200)
def test_expression_round_trip(f):
    assert parse_ratfunc(ratfunc_text(f)) == f


def test_parse_handwritten_variants():
    assert parse_ratfunc("(z^2+1)/(z-1)") == RatFunc(Poly([1, 0, 1]), Poly([-1, 1]))
    assert parse_ratfunc("1/2 * z") == RatFunc(Poly([0, Fraction(1, 2)]))
    assert parse_ratfunc("-z + 3") == RatFunc(Poly([3, -1]))


def test_parse_rejects_garbage():
    for bad in ("", "z +", "1/(z", "z//2", "q + 1", "1/0"):
        with pytest.raises(ParseError):
            parse_ratfunc(bad)


@given(st.fractions(min_value=-100, max_value=100, max_denominator=40))
def test_point_text_round_trip(a):
    assert parse_point(point_text(PointP1.finite(a))) == PointP1.finite(a)
    assert parse_frac(str(a)) == a


def test_point_infinity_spellings():
    for s in ("inf", "Inf", "infinity", "oo"):
        assert parse_point(s).is_infinity


def test_point_hash_is_kept_and_agrees_with_equality():
    # the hash is taken once, at construction; equal points hash equal
    # however their value was written
    for a in (0, 3, -7, 10**16):
        pts = (PointP1(a), PointP1(Fraction(a)), PointP1.finite(a), PointP1.finite(str(a)))
        assert len(set(pts)) == 1 and len({hash(p) for p in pts}) == 1
        assert {pts[0]: a}[pts[2]] == a
    half = PointP1.finite(Fraction(1, 2))
    assert hash(half) == hash(PointP1.finite("1/2")) == hash(Fraction(1, 2))
    assert hash(PointP1(None)) == hash(INFINITY)
    assert hash(INFINITY) not in {hash(PointP1.finite(a)) for a in range(-5, 6)}
    assert INFINITY != PointP1.finite(0) and PointP1.finite(1) != PointP1.finite(2)
    assert sorted([INFINITY, half, PointP1.finite(-1)], key=PointP1.sort_key) == [
        PointP1.finite(-1),
        half,
        INFINITY,
    ]
    assert repr(half) == "PointP1(1/2)"


def test_parse_exponent_limit():
    assert parse_ratfunc(f"z^{MAX_EXPONENT}") == RatFunc(Poly.monomial(MAX_EXPONENT))
    for bad in (
        f"z^{MAX_EXPONENT + 1}",
        "z^100000000",
        "2^100000000",
        "((z^10)^10)^10",  # nesting cannot get round the limit
        "((9^100)^100)^100",
        "1" * 5000,  # past the interpreter's digit limit for int()
    ):
        with pytest.raises(ParseError):
            parse_ratfunc(bad)


def test_parse_budget_for_sums_and_products():
    # without the budget the first three ran for 28 s to minutes; now the
    # operation that would pass MAX_SIZE is refused before it runs
    slow = [
        " + ".join(f"(z+{k})^99/(z+{k + 1})^99" for k in range(1, 7)),
        " + ".join(f"(z+{k})^99/(z+{k + 1})^99" for k in range(1, 11)),
        "*".join(f"(z+{k})^99" for k in range(1, 40)),
        "(z+1)^99/(z+2)^99 + 1/(z+3)^99",
        "(z+1)^60 * (z+2)^60",
        "1/(z+1)^60 - 1/(z+2)^60",
        "(2^90)^30 * (3^90)^30",  # coefficient words count as well
    ]
    start = time.perf_counter()
    for text in slow:
        with pytest.raises(ParseError, match="too large"):
            parse_ratfunc(text)
    assert time.perf_counter() - start < 10
    # at the budget, and sums of polynomials, which do not grow the degree
    half = MAX_SIZE // 2
    f = parse_ratfunc(f"(z+1)^{half}/(z+2)^{half} + (z+3)^{half}/(z+4)^{half}")
    assert f.den.degree == MAX_SIZE
    g = parse_ratfunc(" + ".join(f"{k}*z^{MAX_SIZE}" for k in range(1, 300)))
    assert g == RatFunc(Poly.monomial(MAX_SIZE, 299 * 300 // 2))


def _summand(rng) -> str:
    """A random summand: a polynomial term, a power of a binomial, a
    rational term, or a term with a coefficient of about 3,300 bits, so
    that two of those pass MAX_SIZE words in a sum."""
    c = rng.choice(["1", "3", "2/3", "5/7"])
    k = rng.randint(0, 6)
    kind = rng.random()
    if kind < 0.35:
        return f"{c}*z^{k}"
    if kind < 0.5:
        return f"(z - {rng.randint(-2, 2)})^{k}"
    if kind < 0.65:
        return f"{c}/(z - {rng.randint(-2, 2)})^{rng.randint(1, 2)}"
    if kind < 0.94:
        return str(rng.randint(-9, 9))
    return f"{rng.randint(1, 3) * 10**1000 + rng.randint(0, 9)}*z^{k}"


def _fold(summands, budget):
    """The sum of the (op, text) summands taken one at a time, with the
    size check and charge of every step: the reference for expr."""
    acc = parse_ratfunc(summands[0][1], budget=budget)
    if summands[0][0] == "-":
        acc = -acc
    for op, text in summands[1:]:
        t = parse_ratfunc(text, budget=budget)
        budget.left -= rfmod._work(acc, op, t, rfmod._check_budget(acc, op, t))
        acc = acc + t if op == "+" else acc - t
    return acc


def test_sum_parse_matches_term_by_term_fold():
    # a run of polynomial summands is added in one pass; the result, the
    # refusals with their messages, and the charges are those of the fold
    rng = random.Random(4242)
    refused = cancelled = 0
    for case in range(400):
        count = rng.randint(1, 12)
        summands = [(rng.choice("+-"), _summand(rng)) for _ in range(count)]
        if case % 5 == 0:  # cancellation to zero
            summands += [("-" if op == "+" else "+", t) for op, t in summands]
        text = " ".join(f"{op} {t}" for op, t in summands).removeprefix("+ ")
        ref_budget, budget = ParseBudget(len(text)), ParseBudget(len(text))
        try:
            ref = _fold(summands, ref_budget)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                parse_ratfunc(text, budget=budget)
            assert str(got.value) == str(exc)
            refused += 1
            continue
        f = parse_ratfunc(text, budget=budget)
        assert f == ref, text
        _assert_canonical(f)
        assert budget.left == ref_budget.left
        cancelled += f.is_zero
    assert refused >= 25 and cancelled >= 40


def test_long_sum_takes_one_primitive_part(monkeypatch):
    # 299 summands of degree MAX_SIZE: the sum is made primitive once
    calls = []
    real = rfmod._primitive

    def counting(ints, content):
        calls.append(len(ints))
        return real(ints, content)

    monkeypatch.setattr(rfmod, "_primitive", counting)
    counts = []
    for n in (2, 3, 299):
        calls.clear()
        f = parse_ratfunc(" + ".join(f"{k}*z^{MAX_SIZE}" for k in range(1, n + 1)))
        assert f == RatFunc(Poly.monomial(MAX_SIZE, n * (n + 1) // 2))
        counts.append(len(calls))
    assert counts[0] == counts[1] == counts[2]


def test_power_of_a_term_matches_products():
    # a power of c*z^m is formed directly, without products
    for c in (1, -3, Fraction(2, 5), Fraction(-7, 4)):
        for m in range(4):
            p = Poly.monomial(m, c)
            out = Poly.one()
            for k in range(7):
                assert p**k == out
                out = out * p
    assert Poly.zero() ** 0 == Poly.one() and Poly.zero() ** 3 == Poly.zero()


def test_power_matches_repeated_products(monkeypatch):
    # square-and-multiply stops after the last bit of k: bit_length(k) - 1
    # squarings and popcount(k) products into the result
    bases = [
        Poly([1, 1]),
        Poly([Fraction(1, 3), Fraction(-2, 5)]),
        Poly([Fraction(-7, 2), 0, Fraction(3, 4), Fraction(1, 6)]),
    ]
    real = Poly.__mul__
    products = []

    def counting(a, b):
        products.append(1)
        return real(a, b)

    for base in bases:
        out = Poly.one()
        for k in range(41):
            products.clear()
            with monkeypatch.context() as m:
                m.setattr(Poly, "__mul__", counting)
                got = base**k
            assert got == out, (base, k)
            assert len(products) == (k.bit_length() - 1 + bin(k).count("1") if k else 0)
            out = out * base


# ------------------------------------------------------------
# Arithmetic without full gcds against a normalizing reference
# ------------------------------------------------------------

_FACTORS = [Poly([0, 1]), Poly([-1, 1]), Poly([2, 1]), Poly([Fraction(-1, 2), 1])]


def _ref(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    # num/den reduced by the full gcd, then made monic: the canonical form
    if num.is_zero:
        return Poly.zero(), Poly.one()
    g = num.gcd(den)
    num, den = num // g, den // g
    return num.scale(1 / den.lead), den.scale(1 / den.lead)


def _ref_flip(f: RatFunc, twist: int) -> tuple[Poly, Poly]:
    # u^twist * f(1/u), both parts reversed to the same length
    m = max(f.num.degree, f.den.degree)
    num, den = f.num.reverse(m), f.den.reverse(m)
    if twist >= 0:
        return _ref(num * Poly.monomial(twist), den)
    return _ref(num, den * Poly.monomial(-twist))


def _random_poly(rng, nonzero: bool) -> Poly:
    kind = rng.random()
    if kind < 0.15 and not nonzero:
        return Poly.zero()
    if kind < 0.3:
        return Poly.constant(rng.choice([1, -2, Fraction(3, 4)]))
    p = Poly.constant(rng.choice([1, -1, 3, Fraction(-2, 5)]))
    for _ in range(rng.randint(1, 3)):
        p = p * rng.choice(_FACTORS)
    if kind > 0.85:
        # a summand that leaves no linear factor in common
        p = p + Poly([rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])
        if p.is_zero:
            p = Poly.one()
    return p


def _assert_canonical(f: RatFunc):
    assert f.den.lead == 1
    assert f.num.gcd(f.den) == Poly.one()
    if f.num.is_zero:
        assert f.den == Poly.one()


def _assert_same(f: RatFunc, ref: tuple[Poly, Poly]):
    _assert_canonical(f)
    assert (f.num, f.den) == ref


def test_arithmetic_matches_full_gcd_reference():
    rng = random.Random(20201)
    for _ in range(600):
        na, da = _random_poly(rng, False), _random_poly(rng, True)
        nb = _random_poly(rng, False)
        # equal denominators now and then, so that every factor is shared
        db = da if rng.random() < 0.2 else _random_poly(rng, True)
        a, b = RatFunc(na, da), RatFunc(nb, db)
        _assert_same(a, _ref(na, da))
        _assert_same(b, _ref(nb, db))
        _assert_same(a + b, _ref(a.num * b.den + b.num * a.den, a.den * b.den))
        _assert_same(a - b, _ref(a.num * b.den - b.num * a.den, a.den * b.den))
        _assert_same(a * b, _ref(a.num * b.num, a.den * b.den))
        if not b.is_zero:
            _assert_same(a / b, _ref(a.num * b.den, a.den * b.num))
        _assert_same(a - a, (Poly.zero(), Poly.one()))
        _assert_same(-a, _ref(-a.num, a.den))
        k = rng.randint(0, 3)
        _assert_same(a ** k, _ref(a.num ** k, a.den ** k))
        if not a.is_zero:
            _assert_same(a ** -k, _ref(a.den ** k, a.num ** k))
        c = rng.choice([0, 2, Fraction(-1, 3)])
        _assert_same(a + c, _ref(a.num + a.den.scale(c), a.den))
        _assert_same(c * a, _ref(a.num.scale(c), a.den))
        t = rng.randint(-3, 3)
        if not a.is_zero:
            _assert_same(a.flip(t), _ref_flip(a, t))
        s = rng.choice([1, -2, Fraction(1, 2)])
        _assert_same(a.translate(s), _ref(a.num.shift(s), a.den.shift(s)))


# ------------------------------------------------------------
# Elimination kernel against a plain Fraction elimination
# ------------------------------------------------------------


def _plain_rref(rows):
    rows = [[Fraction(x) for x in r] for r in rows]
    pivots, r = [], 0
    for c in range(len(rows[0])):
        pr = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _check_elimination(rows):
    ncols = len(rows[0])
    ref, ref_pivots = _plain_rref(rows)
    got, pivots = rref(rows)
    assert pivots == ref_pivots
    assert got == ref
    assert all(type(x) is Fraction for r in got for x in r)
    assert rank(rows) == len(ref_pivots)
    free = [c for c in range(ncols) if c not in ref_pivots]
    kernel = nullspace(rows, ncols)
    assert len(kernel) == len(free)
    for fc, v in zip(free, kernel):
        assert all(v[c] == (1 if c == fc else 0) for c in free)
        for r, pc in enumerate(ref_pivots):
            assert v[pc] == -ref[r][fc]
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0


def test_elimination_matches_plain_fraction_elimination():
    rng = random.Random(7)
    for _ in range(60):
        nrows, ncols = rng.randint(1, 6), rng.randint(1, 7)
        rows = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        if nrows > 2:  # a dependent row and a zero column
            rows[-1] = [x + 2 * y for x, y in zip(rows[0], rows[1])]
            z = rng.randrange(ncols)
            for r in rows:
                r[z] = Fraction(0)
        _check_elimination(rows)
    # large denominators; wide, tall, 1 x n and m x 1 shapes; int and 0
    # entries among the Fractions; dependent rows
    shapes = [(3, 12), (12, 3), (1, 9), (9, 1), (1, 1), (7, 7), (5, 10)]
    for _ in range(30):
        for nrows, ncols in shapes:
            def entry():
                kind = rng.random()
                if kind < 0.2:
                    return 0
                if kind < 0.4:
                    return rng.randint(-5, 5)
                if kind < 0.7:
                    return Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**12))
                return Fraction(rng.randint(-3, 3), rng.randint(1, 4))

            rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
            if nrows > 2:
                rows[1] = [Fraction(2, 3) * x - y for x, y in zip(rows[0], rows[2])]
            _check_elimination(rows)
    _check_elimination([[0] * 4 for _ in range(3)])


# ------------------------------------------------------------
# Matrices of rational functions: fraction-free over Q[z] against
# the Gauss-Jordan loop over the field
# ------------------------------------------------------------


def _gauss_jordan_rref(rows):
    """The Gauss-Jordan loop over the field of rational functions that
    eliminated RatFunc matrices before rows were cleared to Q[z]: pivot
    rows scaled to 1, every other row cleared from the pivot column on."""
    rows = [
        [x if isinstance(x, (Fraction, RatFunc)) else Fraction(x) for x in r]
        for r in rows
    ]
    pivots = []
    r = 0
    for c in range(len(rows[0])):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        prow = rows[r][c:] = [x / piv for x in rows[r][c:]]
        for i in range(len(rows)):
            f = rows[i][c]
            if f and i != r:
                rows[i][c:] = [a - f * b for a, b in zip(rows[i][c:], prow)]
        pivots.append(c)
        r += 1
    return rows, pivots


def _random_entry(rng):
    kind = rng.random()
    if kind < 0.2:
        return 0
    if kind < 0.35:
        return rng.randint(-3, 3)
    if kind < 0.5:
        return Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    return RatFunc(_random_poly(rng, False), _random_poly(rng, True))


def test_ratfunc_elimination_matches_gauss_jordan():
    rng = random.Random(20261019)
    shapes = [(m, n) for m in range(1, 7) for n in range(1, 7)] + [(4, 8)]
    checked = 0
    for _ in range(6):
        for nrows, ncols in shapes:
            rows = [[_random_entry(rng) for _ in range(ncols)] for _ in range(nrows)]
            # a RatFunc entry in the first row, so the rows are cleared to Q[z]
            rows[0][rng.randrange(ncols)] = RatFunc(
                _random_poly(rng, True), _random_poly(rng, True)
            )
            if nrows > 2 and rng.random() < 0.5:
                # a row dependent over the function field, not over Q
                a = RatFunc(_random_poly(rng, True), _random_poly(rng, True))
                rows[-1] = [a * x - y for x, y in zip(rows[0], rows[1])]
            if nrows > 1 and rng.random() < 0.3:
                rows[rng.randrange(1, nrows)] = [0] * ncols
            ref, ref_pivots = _gauss_jordan_rref(rows)
            got, pivots = rref(rows)
            assert pivots == ref_pivots
            assert all(type(x) is RatFunc for r in got for x in r)
            assert got == [[RatFunc.constant(x) if isinstance(x, Fraction) else x
                             for x in r] for r in ref]
            assert rank(rows) == len(ref_pivots)
            checked += 1
    assert checked >= 200


def _frac_or_error(text):
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        return ParseError


def _parse_frac_or_error(text):
    try:
        return parse_frac(text)
    except ParseError as exc:
        assert str(exc) == f"bad rational number: {text!r}"
        return ParseError


@pytest.mark.parametrize(
    "text",
    ["+3", "-0", "0/5", "3/0", "1_0", " 3 ", "1.5", "１２", "3/ 4", "--1", "/3", "3/",
     "-12/18", "+7/1", "3/-4", "5" * 5000, "1/" + "7" * 5000],
)
def test_parse_frac_agrees_with_fraction(text):
    # plain ASCII numbers skip Fraction's regex; the value and every error
    # stay Fraction's own
    got = _parse_frac_or_error(text)
    assert got == _frac_or_error(text)
    assert type(got) is type(_frac_or_error(text))


def test_parse_frac_agrees_with_fraction_on_seeded_tokens():
    rng = random.Random(20261019)
    alphabet = "0123456789+-/ ._e"

    def digits():
        return str(rng.randint(0, 10 ** rng.randint(1, 30)))

    valid = 0
    for k in range(500):
        if k % 2:
            text = "".join(rng.choice(alphabet) for _ in range(rng.randint(1, 7)))
        else:  # mostly [+-]n or [+-]n/d, with spaces around
            text = rng.choice(["", "+", "-"]) + digits()
            if rng.random() < 0.6:
                text += "/" + digits()
            text = " " * rng.randint(0, 1) + text + " " * rng.randint(0, 1)
        got = _parse_frac_or_error(text)
        assert got == _frac_or_error(text), text
        valid += got is not ParseError
    assert valid > 200
