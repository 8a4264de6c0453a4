"""Small exact linear algebra kernels: one fraction-free elimination over
Z and Q[z] behind rref, rank and nullspace, one Euclidean column
reduction over Q[z] behind the Hermite form and the kernel of polynomial
matrices, and the shifted weak Popov reduction of a Q[z]-module basis.
Internal module.

The elimination clears each row of denominators (_int_rows), into ints
when every entry is rational and into Poly otherwise, and runs Bareiss's
fraction-free Gauss-Jordan steps on them (_bareiss); only rref's reduced
output is divided back, into Fractions or RatFuncs."""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .ratfield import Poly, RatFunc, _as_ratfunc

_ZERO = Fraction(0)
_RATIONAL = {int, Fraction}


# ---------------- fraction-free elimination ----------------


def _int_rows(rows):
    """The rows cleared of denominators, and the one of their ring: each
    row times the lcm of its denominators, as ints when every entry is
    rational, else as the Poly numerators of cleared_row.  Scaling rows
    keeps the pivots, the reduced form and the kernel."""
    out = []
    for row in rows:
        if not set(map(type, row)) <= _RATIONAL:
            break
        d = lcm(*[x.denominator for x in row])
        out.append([x.numerator * (d // x.denominator) for x in row])
    else:
        return out, 1
    return [cleared_row(row)[1] for row in rows], Poly.one()


def cleared_row(row) -> tuple[Poly, list[Poly]]:
    """(D, N) with entry j of row equal to N[j] / D, each entry read as a
    rational function: D is the monic lcm of their denominators."""
    row = [_as_ratfunc(x) for x in row]
    d = Poly.one()
    for x in row:
        if x.den.degree > 0:
            d = d * (x.den // d.gcd(x.den))
    return d, [x.num * (d // x.den) for x in row]


def _bareiss(rows, one, reduced: bool = True) -> tuple[list[int], int | Poly]:
    """Fraction-free Gauss-Jordan on rows over an integral domain (int
    or Poly, with the given one), in place; returns the pivot columns
    and the last pivot d.

    Each step replaces every other row by (d * row - f * pivot_row) / p,
    with d the new pivot, f the row's entry in the pivot column and p the
    previous pivot (Bareiss, Math. Comp. 1968).  The division is exact in
    any integral domain: the entries stay minors of the input.  Afterwards
    every pivot row holds d in its pivot column, so the reduced form is
    rows / d.  Rows at and below the pivot are zero left of its column and
    are updated from there; rows above it are scaled in full.  With
    reduced=False only the rows below a pivot are updated (echelon form)."""
    pivots = []
    p = one
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r]
        d = prow[c]
        for i in range(0 if reduced else r + 1, len(rows)):
            if i == r:
                continue
            row = rows[i]
            f = row[c]
            lo = 0 if i < r else c
            if f:
                row[lo:] = [(d * a - f * b) // p for a, b in zip(row[lo:], prow[lo:])]
            elif d != p:
                row[lo:] = [d * a // p for a in row[lo:]]
        pivots.append(c)
        p = d
        r += 1
    return pivots, p


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column list).  The
    entries are Fractions for a rational matrix and RatFuncs for a
    matrix with a RatFunc entry."""
    rows, one = _int_rows(rows)
    pivots, d = _bareiss(rows, one)
    if isinstance(one, int):
        return [[Fraction(x, d) if x else _ZERO for x in row] for row in rows], pivots
    return [[RatFunc(x, d) for x in row] for row in rows], pivots


def rank(rows) -> int:
    return len(_bareiss(*_int_rows(rows), reduced=False)[0])


def nullspace(rows, ncols: int):
    """Basis of the right kernel of the matrix (rows over Q), as vectors of
    length ncols.  Free variables are set to 1 one at a time."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -red[r][fc]
        basis.append(v)
    return basis


# ---------------- generic field matrices (Fraction or RatFunc) ----------------


def mat_mul(A, B):
    n, k, m = len(A), len(B), len(B[0]) if B else 0
    return [[sum_prod(A[i], [B[t][j] for t in range(k)]) for j in range(m)] for i in range(n)]


def sum_prod(xs, ys):
    it = iter(zip(xs, ys))
    x, y = next(it)
    acc = x * y
    for x, y in it:
        acc = acc + x * y
    return acc


def mat_add(A, B):
    return [[a + b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]

def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]

def mat_neg(A):
    return [[-a for a in r] for r in A]

def mat_scale(A, c):
    return [[c * a for a in r] for r in A]

def mat_transpose(A):
    return [list(r) for r in zip(*A)] if A else []

def mat_eq(A, B) -> bool:
    return len(A) == len(B) and all(
        len(ra) == len(rb) and all(a == b for a, b in zip(ra, rb)) for ra, rb in zip(A, B)
    )

def mat_identity(n, one, zero):
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


# ---------------- column reduction over Q[z] ----------------


def _sub_multiple(col, q, piv):
    # col -= q * piv, in place
    col[:] = [a - q * b for a, b in zip(col, piv)]


def _euclid_row(cols, row: int):
    """Unimodular column operations on cols (lists of Poly) until at most
    one of them is nonzero in the given row; returns that column (its
    entry there is the gcd of the row) or None."""
    active = [c for c in cols if not c[row].is_zero]
    while len(active) > 1:
        active.sort(key=lambda c: c[row].degree)
        small = active[0]
        for c in active[1:]:
            _sub_multiple(c, c[row] // small[row], small)
        active = [c for c in cols if not c[row].is_zero]
    return active[0] if active else None


def poly_hnf(columns, nrows: int):
    """Triangular column basis of the Q[z]-module generated by the given
    columns (each a list of Poly of length nrows).  Zero columns are
    dropped; pivot entries are monic and sit on strictly increasing rows;
    off-pivot entries in a pivot row are reduced below the pivot degree.
    """
    cols = [list(c) for c in columns if any(not p.is_zero for p in c)]
    basis = []
    for row in range(nrows):
        piv = _euclid_row(cols, row)
        if piv is None:
            continue
        lc = piv[row].lead
        if lc != 1:
            piv[:] = [p.scale(1 / lc) for p in piv]
        cols = [c for c in cols if c is not piv and any(not p.is_zero for p in c)]
        # reduce this row in earlier pivot columns for determinism
        for b in basis:
            if b[row].degree >= piv[row].degree:
                _sub_multiple(b, b[row] // piv[row], piv)
        basis.append(piv)
    return basis


def _shifted_pivot(col, shift) -> tuple[int, int]:
    """(shifted degree, pivot row) of a nonzero column: the largest
    deg col[j] + shift[j], and the last row j that reaches it."""
    best = None
    for j, p in enumerate(col):
        if not p.is_zero and (best is None or p.degree + shift[j] >= best[0]):
            best = (p.degree + shift[j], j)
    if best is None:
        raise ValueError("weak_popov needs linearly independent columns")
    return best


def weak_popov(columns, shift):
    """Shifted weak Popov form of a Q[z]-module basis (Mulders-Storjohann,
    "On lattice reduction for polynomial matrices", J. Symb. Comput. 2003).

    columns are linearly independent lists of Poly; the shifted degree of
    a column b is max_j (deg b_j + shift[j]) and its pivot is the last row
    reaching that maximum.  While two columns share a pivot, the leading
    term there of the one of higher shifted degree is cancelled by a
    monomial multiple of the other; each step lowers that column's degree
    or moves its pivot up, so the loop ends.  Returns the reduced columns
    (a basis of the same module) and their shifted degrees d_i.  With
    distinct pivots the degrees are predictable: the shifted degree of
    sum c_i b_i is max_i (deg c_i + d_i).

    >>> z, one = Poly.x(), Poly.one()
    >>> cols, degs = weak_popov([[z, one], [z * z, z + one]], (0, -1))
    >>> degs          # they add up to deg det + sum(shift) = 1 - 1
    [1, -1]
    >>> cols[1]
    [Poly(0), Poly(1)]
    """
    cols = [list(c) for c in columns]
    piv = [_shifted_pivot(c, shift) for c in cols]
    while True:
        owner: dict[int, int] = {}
        for i, (_, row) in enumerate(piv):
            if row in owner:
                break
            owner[row] = i
        else:
            return cols, [d for d, _ in piv]
        k = owner[row]
        hi, lo = (i, k) if piv[i][0] >= piv[k][0] else (k, i)
        a, b = cols[hi][row], cols[lo][row]
        _sub_multiple(cols[hi], Poly.monomial(a.degree - b.degree, a.lead / b.lead), cols[lo])
        piv[hi] = _shifted_pivot(cols[hi], shift)


def poly_kernel(B, ncols: int):
    """Basis of the Q[z]-module kernel of a matrix B of rational
    functions (list of rows of RatFunc, ncols columns).  Each row is
    cleared of denominators (_int_rows), which keeps the kernel; then
    unimodular column reduction runs with the operations tracked on an
    identity tail, and the tails of the columns that reduce to zero form
    a basis of {f : B f = 0}.
    """
    nrows = len(B)
    if ncols == 0 or nrows == 0:
        return []
    B, one = _int_rows(B)
    zero = Poly.zero()
    full = [
        [B[i][j] for i in range(nrows)]
        + [one if k == j else zero for k in range(ncols)]
        for j in range(ncols)
    ]
    for row in range(nrows):
        piv = _euclid_row(full, row)
        if piv is not None:
            full = [c for c in full if c is not piv]
    kernel = []
    for c in full:
        if all(c[i].is_zero for i in range(nrows)):
            vec = c[nrows:]
            if any(not p.is_zero for p in vec):
                kernel.append(vec)
    return kernel
