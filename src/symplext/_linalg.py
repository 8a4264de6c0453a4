"""Small exact linear algebra kernels: one Gauss-Jordan elimination over
a field (Fraction or RatFunc entries) behind rref, rank and nullspace,
and one Euclidean column reduction over Q[z] behind the Hermite form and
the kernel of polynomial matrices.  Internal module."""

from __future__ import annotations

from fractions import Fraction

from .ratfield import Poly, RatFunc


# ---------------- elimination over a field ----------------


def _field_rows(rows):
    # a copy in which ints become Fractions, so that division stays exact
    return [
        [x if isinstance(x, (Fraction, RatFunc)) else Fraction(x) for x in r]
        for r in rows
    ]


def _gauss_jordan(rows, reduced: bool = True) -> list[int]:
    """Eliminate in place and return the pivot columns.  Entries are
    field elements whose zero is falsy.  Pivot rows are scaled to 1 and
    moved to the top; with reduced=False only the rows below a pivot are
    cleared (echelon form, enough for the rank).  The pivot row is zero
    left of its pivot column, so rows are updated from that column on."""
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        if r == len(rows):
            break
        pr = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        prow = rows[r][c:] = [x / piv for x in rows[r][c:]]
        for i in range(0 if reduced else r + 1, len(rows)):
            f = rows[i][c]
            if f and i != r:
                rows[i][c:] = [a - f * b for a, b in zip(rows[i][c:], prow)]
        pivots.append(c)
        r += 1
    return pivots


def rref(rows):
    """Reduced row echelon form; returns (rows, pivot column list)."""
    rows = _field_rows(rows)
    return rows, _gauss_jordan(rows)


def rank(rows) -> int:
    return len(_gauss_jordan(_field_rows(rows), reduced=False))


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


def poly_kernel(B, ncols: int):
    """Basis of the Q[z]-module kernel of a polynomial matrix B (list of
    rows of Poly, ncols columns): unimodular column reduction of B with
    the operations tracked on an identity tail; the tails of the columns
    that reduce to zero form a basis of {f : B f = 0}.
    """
    nrows = len(B)
    if ncols == 0 or nrows == 0:
        return []
    one, zero = Poly.one(), Poly.zero()
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
