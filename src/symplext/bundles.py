"""Split vector bundles on the projective line and rational maps between
them.

A bundle is a direct sum of line bundles, recorded by its degree list.  As
a value (an isomorphism class) the list is kept sorted descending — that is
:class:`SplitBundle`.  Maps, however, need *frames*: ordered degree lists
for source and target, because entry (i, j) of a matrix of rational
functions is a rational section of the line bundle of degree
``dst[i] - src[j]`` and the ordering is part of the bookkeeping.  The frame
of the twisted dual Hom(E, L) is indexed in E's own order (component j has
degree ell - d_j), which is what makes the self-dual twist patterns
``d_i + d_j - ell`` and ``ell - d_i - d_j`` literally symmetric and the
transpose a plain matrix transpose.

Transitions are always over the standard two-chart cover: chart 0 with
coordinate z and chart infinity with u = 1/z, overlap z != 0.  The
transition matrix of a split frame is diag(z^(d_i)).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import _linalg as la
from .errors import FrameMismatch, NotACochain
from .ratfield import RatFunc, _as_ratfunc, ratfunc_text, zpow

__all__ = [
    "SplitBundle",
    "LineTwist",
    "Frame",
    "dual_frame",
    "RatHom",
    "TransitionData",
    "hom_bundle",
    "dual_twisted",
    "h0_line",
    "h1_line",
    "h0_hom",
    "is_global",
    "transpose_hom",
    "cocycle_transpose_check",
]

Frame = tuple[int, ...]


@dataclass(frozen=True)
class SplitBundle:
    """Isomorphism class of a split bundle: degrees sorted descending."""

    degrees: tuple[int, ...]

    def __init__(self, degrees: Iterable[int]):
        ds = tuple(sorted((int(d) for d in degrees), reverse=True))
        if not ds:
            raise FrameMismatch("a bundle needs rank >= 1")
        object.__setattr__(self, "degrees", ds)

    @property
    def rank(self) -> int:
        return len(self.degrees)

    @property
    def degree(self) -> int:
        return sum(self.degrees)

    def __str__(self) -> str:
        return "(" + ", ".join(str(d) for d in self.degrees) + ")"


@dataclass(frozen=True)
class LineTwist:
    """The twisting line bundle O(ell)."""

    ell: int


def _ell_of(L) -> int:
    if isinstance(L, LineTwist):
        return L.ell
    if isinstance(L, int):
        return L
    raise TypeError(f"not a line twist: {L!r}")


def as_frame(x) -> Frame:
    """Ordered degree list of a frame; SplitBundle contributes its
    canonical (descending) order."""
    if isinstance(x, SplitBundle):
        return x.degrees
    return tuple(int(d) for d in x)


def dual_frame(frame, L) -> Frame:
    """Frame of Hom(E, L) in E's index order: component j has degree
    ell - d_j."""
    ell = _ell_of(L)
    return tuple(ell - d for d in as_frame(frame))


# ============================================================
# Numerology
# ============================================================


def h0_line(d: int) -> int:
    """dim H^0(O(d)) = max(0, d + 1)."""
    return max(0, d + 1)


def h1_line(d: int) -> int:
    """dim H^1(O(d)) = max(0, -d - 1)."""
    return max(0, -d - 1)


def hom_bundle(F, E) -> SplitBundle:
    """Splitting type of Hom(F, E): all differences d_i - e_j."""
    ff, ee = as_frame(F), as_frame(E)
    return SplitBundle([d - e for d in ee for e in ff])


def dual_twisted(E, L) -> SplitBundle:
    """Splitting type of Hom(E, O(ell))."""
    return SplitBundle(dual_frame(E, L))


def h0_hom(F, E) -> int:
    """dim H^0(Hom(F, E)) for split bundles."""
    ff, ee = as_frame(F), as_frame(E)
    return sum(h0_line(d - e) for d in ee for e in ff)


def is_global(f: RatFunc, twist: int) -> bool:
    """True iff f is an everywhere-regular section of O(twist)."""
    return f.is_global(twist)


# ============================================================
# Framed rational homomorphisms
# ============================================================


class RatHom:
    """Matrix of rational functions with explicit source/target frames.

    Entry (i, j) is a rational section of O(dst[i] - src[j]); the matrix
    acts on coordinate vectors of the source frame.

    ``tails`` is the map's principal part system when the parser read it
    off a text written in partial fractions (textio), else None.  It takes
    no part in equality, hashing or repr, and every result of arithmetic
    has None.
    """

    __slots__ = ("src", "dst", "entries", "tails")

    def __init__(self, src, dst, entries: Sequence[Sequence[RatFunc]]):
        src, dst = as_frame(src), as_frame(dst)
        rows = tuple(tuple(_as_ratfunc(e) for e in row) for row in entries)
        if len(rows) != len(dst) or any(len(r) != len(src) for r in rows):
            raise FrameMismatch(
                f"entry matrix is not {len(dst)}x{len(src)} for the given frames"
            )
        object.__setattr__(self, "src", src)
        object.__setattr__(self, "dst", dst)
        object.__setattr__(self, "entries", rows)
        object.__setattr__(self, "tails", None)

    # -- constructors ------------------------------------------------

    @staticmethod
    def zero(src, dst) -> "RatHom":
        src, dst = as_frame(src), as_frame(dst)
        z = RatFunc.zero()
        return RatHom(src, dst, [[z] * len(src) for _ in dst])

    @staticmethod
    def _with_tails(src, dst, entries, tails) -> "RatHom":
        # a parsed map with its principal part system (a PrinHom in its
        # frames) read off the text
        phi = RatHom(src, dst, entries)
        object.__setattr__(phi, "tails", tails)
        return phi

    # -- structure ---------------------------------------------------

    @property
    def nrows(self) -> int:
        return len(self.dst)

    @property
    def ncols(self) -> int:
        return len(self.src)

    def twist(self, i: int, j: int) -> int:
        return self.dst[i] - self.src[j]

    def __getitem__(self, ij: tuple[int, int]) -> RatFunc:
        return self.entries[ij[0]][ij[1]]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RatHom)
            and self.src == other.src
            and self.dst == other.dst
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(("RatHom", self.src, self.dst, self.entries))

    @property
    def is_zero(self) -> bool:
        return all(e.is_zero for row in self.entries for e in row)

    def __repr__(self) -> str:
        body = "; ".join(
            ", ".join(ratfunc_text(e) for e in row) for row in self.entries
        )
        return f"RatHom[{self.src}->{self.dst}: {body}]"

    # -- arithmetic ---------------------------------------------------

    def _check_same_frame(self, other: "RatHom"):
        if self.src != other.src or self.dst != other.dst:
            raise FrameMismatch("frames differ")

    def __add__(self, other: "RatHom") -> "RatHom":
        self._check_same_frame(other)
        return RatHom(self.src, self.dst, la.mat_add(self.entries, other.entries))

    def __sub__(self, other: "RatHom") -> "RatHom":
        self._check_same_frame(other)
        return RatHom(self.src, self.dst, la.mat_sub(self.entries, other.entries))

    def __neg__(self) -> "RatHom":
        return RatHom(self.src, self.dst, la.mat_neg(self.entries))

    def scale(self, c) -> "RatHom":
        c = _as_ratfunc(c)
        return RatHom(self.src, self.dst, la.mat_scale(self.entries, c))

    def apply(self, vec: Sequence[RatFunc]) -> list[RatFunc]:
        """Matrix times coordinate vector of the source frame."""
        vec = [_as_ratfunc(v) for v in vec]
        if len(vec) != self.ncols:
            raise FrameMismatch("vector length differs from source rank")
        return [la.sum_prod(row, vec) for row in self.entries]

    def is_global_hom(self) -> bool:
        """True iff every entry is regular everywhere for its twist."""
        return all(
            self.entries[i][j].is_global(self.twist(i, j))
            for i in range(self.nrows)
            for j in range(self.ncols)
        )


def _selfdual_check(src: Frame, dst: Frame) -> None:
    if len(src) != len(dst):
        raise FrameMismatch("transpose needs a square self-dual frame")
    s = src[0] + dst[0]
    if any(a + b != s for a, b in zip(src, dst)):
        raise FrameMismatch(
            "frame is not self-dual: src[j] + dst[j] must be constant "
            f"(got {src} vs {dst})"
        )


def transpose_hom(phi: RatHom) -> RatHom:
    """Matrix transpose in the same frame; requires the self-dual twist
    pattern (maps E -> Hom(E,L) or Hom(E,L) -> E), so the (i, j) and
    (j, i) twists agree and symmetric/antisymmetric parts are well typed."""
    _selfdual_check(phi.src, phi.dst)
    return RatHom(phi.src, phi.dst, la.mat_transpose(phi.entries))


# ============================================================
# Two-chart transition data
# ============================================================


@dataclass(frozen=True)
class TransitionData:
    """Transition bookkeeping for the two-chart cover of P^1.

    ``e_degrees`` frames E (transition diag(z^d_i)); ``ell`` frames the
    twisting line O(ell); ``delta`` is the off-diagonal block of the
    extension transition matrix, a matrix over the overlap whose entries
    are Laurent polynomials (poles only at 0 and infinity).
    """

    e_degrees: Frame
    ell: int
    delta: tuple[tuple[RatFunc, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "e_degrees", as_frame(self.e_degrees))
        if self.delta is not None:
            rows = tuple(tuple(_as_ratfunc(x) for x in r) for r in self.delta)
            n = len(self.e_degrees)
            if len(rows) != n or any(len(r) != n for r in rows):
                raise FrameMismatch("delta block is not rank x rank")
            for r in rows:
                for x in r:
                    if not _is_laurent(x):
                        raise FrameMismatch(
                            "delta entries must be regular on the overlap "
                            "(Laurent polynomials)"
                        )
            object.__setattr__(self, "delta", rows)

    @property
    def rank(self) -> int:
        return len(self.e_degrees)

    @property
    def f_degrees(self) -> Frame:
        return dual_frame(self.e_degrees, self.ell)

    def e_transition(self) -> list[list[RatFunc]]:
        """diag(z^d_i): chart-infinity E-coordinates to chart-0 ones."""
        return _diag_powers(self.e_degrees)

    def f_transition(self) -> list[list[RatFunc]]:
        """diag(z^(ell-d_j)), the transition of Hom(E, L)."""
        return _diag_powers(self.f_degrees)


def _diag_powers(degrees: Frame) -> list[list[RatFunc]]:
    n = len(degrees)
    return [
        [zpow(degrees[i]) if i == j else RatFunc.zero() for j in range(n)]
        for i in range(n)
    ]


def _is_laurent(f: RatFunc) -> bool:
    # poles only at 0 and infinity: denominator is a power of z
    return f.is_zero or all(c == 0 for c in f.den.coeffs[:-1])


def _glues(a0, ainf, td: TransitionData) -> bool:
    # relation alpha_0 e = (t(e)^-1 l) alpha_inf entrywise:
    # a0[i][j] z^(d_j) == z^(ell - d_i) ainf[i][j]
    n = td.rank
    ds, ell = td.e_degrees, td.ell
    for i in range(n):
        for j in range(n):
            if a0[i][j] * zpow(ds[j]) != zpow(ell - ds[i]) * ainf[i][j]:
                return False
    return True


def cocycle_transpose_check(alpha_cochain, frames: TransitionData) -> bool:
    """Check that the transposed chart matrices of a cochain E -> Hom(E, L)
    satisfy the same gluing relation the original does.

    ``alpha_cochain`` is the pair (alpha_0, alpha_inf) of matrices over the
    two charts.  Raises NotACochain if the input pair itself fails the
    relation; returns the verdict for the transposed pair (the point being
    that it always glues).
    """
    a0, ainf = alpha_cochain
    a0 = [[_as_ratfunc(x) for x in r] for r in a0]
    ainf = [[_as_ratfunc(x) for x in r] for r in ainf]
    n = frames.rank
    if len(a0) != n or len(ainf) != n or any(len(r) != n for r in (*a0, *ainf)):
        raise FrameMismatch("cochain matrices must be rank x rank")
    if not _glues(a0, ainf, frames):
        raise NotACochain("input pair fails the overlap relation")
    return _glues(la.mat_transpose(a0), la.mat_transpose(ainf), frames)
