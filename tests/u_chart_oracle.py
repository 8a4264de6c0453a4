"""The u-chart conditions of a defect system, transported tail by tail.

An independent route to the u-chart lattice of a graph: every tail of q
at a point a != 0 is moved to u = 1/a in closed form, the tails at
infinity act at u = 0, and the module basis of those conditions is the
u-chart F-lattice.  The package derives that lattice from its reduced
chart-0 basis instead; the tests compare the two.
"""

import math
from fractions import Fraction

from symplext.prinparts import PrinHom, _int_tail, _powers
from symplext.ratfield import PointP1
from symplext.subbundles import _conditions_of, _module_basis


def _binom(n: int, r: int) -> int:
    """C(n, r) = n (n-1) ... (n-r+1) / r! for any integer n."""
    if n >= 0:
        return math.comb(n, r)
    return (-1) ** r * math.comb(r - n - 1, r)


def u_chart_tail(a: Fraction, coeffs, t: int) -> tuple[Fraction, ...]:
    """The tail coeffs at z = a != 0 of an entry in twist t, read on the
    u-chart (u = 1/z) at u = b = 1/a.

    There c/(z-a)^k reads c u^(t+k) (1 - a u)^(-k), that is
    c (-b)^k u^(t+k) (u-b)^(-k); expanding u^(t+k) at b, it adds
    c (-1)^k C(t+k, r) b^e at order k - r for r = 0 .. k-1, with
    e = 2k + t - r (the generalized binomial when t + k < 0).  With
    c_k = n_k / d and b = Q/P, and e between lo = t + 2 and hi = 2m + t,
    each order is one integer sum of n_k (-1)^k C(t+k, r) Q^(e-lo)
    P^(hi-e), times Q^lo / (d P^hi).
    """
    if not coeffs:
        return ()
    nums, d = _int_tail(coeffs)
    P, Q = a.numerator, a.denominator  # b = 1/a = Q/P
    lo, hi = t + 2, 2 * len(nums) + t
    pp, qq = _powers(P, hi - lo), _powers(Q, hi - lo)
    acc = [0] * len(nums)
    for k, n in enumerate(nums, 1):
        if not n:
            continue
        if k % 2:
            n = -n
        for r in range(k):
            e = 2 * k + t - r
            acc[k - r - 1] += n * _binom(t + k, r) * qq[e - lo] * pp[hi - e]
    while acc and not acc[-1]:
        acc.pop()
    num = Q ** max(lo, 0) * P ** max(-hi, 0)
    den = d * P ** max(hi, 0) * Q ** max(-lo, 0)
    return tuple(Fraction(x * num, den) for x in acc)


def u_chart_conditions(q: PrinHom):
    """Jet conditions of q on the u-chart: the infinity tails act at
    u = 0, a finite tail at a != 0 moves to u = 1/a (a = 0 leaves the
    chart)."""
    parts = {}
    n, m = q.nrows, q.ncols
    for pt in q.support:
        if pt.is_infinity:
            parts[PointP1.finite(0)] = [
                [q.entry(pt, i, j) for j in range(m)] for i in range(n)
            ]
        elif pt.value != 0:
            parts[PointP1.finite(1 / pt.value)] = [
                [u_chart_tail(pt.value, q.entry(pt, i, j), q.twist(i, j)) for j in range(m)]
                for i in range(n)
            ]
    return _conditions_of(PrinHom(q.src, q.dst, parts))


def u_chart_f_lattice(q: PrinHom, n: int):
    """Hermite basis of the u-chart F-lattice cut out by q."""
    return _module_basis(n, u_chart_conditions(q))
