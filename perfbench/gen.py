"""Seeded problem files for the benchmark workloads.

Standard library only, and independent of the package under test: the
generator does its own exact arithmetic, so the inputs of a seed stay the
same when the package changes, and the facts it plants (expected defect
systems, expected search hits) are an oracle that does not retrace the
program's own path.

Conventions follow the `symplext/1` format.  E has degrees d_i, the form
pairs into O(L), F has degrees L - d_j, and entry (i, j) of a map F -> E
lives in twist t = d_i + d_j - L.  A rational function is a dict of
partial-fraction terms: key (a, k) is c/(z - a)^k, key (None, m) is c*z^m.
A system (of principal parts) is a dict point -> {(i, j): coefficients},
with the point a Fraction or INF.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

INF = "inf"
POINT_POOL = tuple(Fraction(v) for v in (0, 1, -1, 2, -2, Fraction(1, 2), 3))
WORKLOADS = ("classes", "graphs", "search")


@dataclass
class Op:
    """One CLI invocation: arguments after the file name, plus what the
    checks need to know about the file."""

    file: str
    command: str
    args: tuple[str, ...]
    kind: str
    machine: bool
    expect: dict = field(default_factory=dict)

    def argv(self, path: str) -> list[str]:
        return [self.command, path, *self.args]


# ---------------- exact helpers ----------------


def frac_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def point_text(pt) -> str:
    return "inf" if pt == INF else frac_text(pt)


def trim(coeffs) -> tuple:
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def fraction(rng: random.Random, span: int = 6, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, den))


def nonzero(rng: random.Random, span: int = 6, den: int = 4) -> Fraction:
    while True:
        c = fraction(rng, span, den)
        if c:
            return c


def twists(e_frame, ell):
    n = len(e_frame)
    return {(i, j): e_frame[i] + e_frame[j] - ell for i in range(n) for j in range(n)}


# ---------------- rational functions ----------------


def rat_combine(*pairs):
    """Linear combination sum c * f of rational functions."""
    out: dict = {}
    for c, f in pairs:
        for key, v in f.items():
            out[key] = out.get(key, Fraction(0)) + c * v
    return {k: v for k, v in out.items() if v}


def rat_text(f) -> str:
    if not f:
        return "0"
    parts = []
    for (a, k), c in sorted(f.items(), key=lambda kv: (kv[0][0] is None, kv[0][0] or 0, kv[0][1])):
        mag = frac_text(abs(c))
        if a is None:
            body = mag if k == 0 else f"{mag}*z^{k}"
        else:
            base = "z" if a == 0 else f"(z {'-' if a > 0 else '+'} {frac_text(abs(a))})"
            body = f"{mag}/{base}^{k}"
        parts.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(parts)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def rat_tails(f, t: int) -> dict:
    """Polar tails of f as a section of O(t): point -> coefficients.

    At infinity the tail is the polar part of u^t f(1/u); the term
    c/(z - a)^k contributes c*C(k+m-1, m)*a^m at order r = -t-k-m."""
    finite: dict = {}
    inf: dict = {}
    for (a, k), c in f.items():
        if a is None:
            if k - t > 0:
                inf[k - t] = inf.get(k - t, 0) + c
            continue
        finite.setdefault(a, {})[k] = c
        for r in range(1, -t - k + 1):
            m = -r - t - k
            inf[r] = inf.get(r, 0) + c * comb(k + m - 1, m) * a**m
    out = {}
    for a, ks in finite.items():
        coeffs = trim(ks.get(k, Fraction(0)) for k in range(1, max(ks) + 1))
        if coeffs:
            out[a] = coeffs
    if inf:
        coeffs = trim(Fraction(inf.get(r, 0)) for r in range(1, max(inf) + 1))
        if coeffs:
            out[INF] = coeffs
    return out


def random_rat(rng, finite_pts, max_order, density=0.7, poly_deg=-1, exact=False):
    """exact: every point gets a pole of order exactly max_order."""
    f: dict = {}
    for a in finite_pts:
        if exact or rng.random() < density:
            top = max_order if exact else rng.randint(1, max_order)
            for k in range(1, top + 1):
                c = nonzero(rng) if k == top else fraction(rng)
                if c:
                    f[(a, k)] = c
    if poly_deg >= 0 and rng.random() < density:
        f[(None, rng.randint(0, poly_deg))] = nonzero(rng)
    return f


def random_hom(rng, n, finite_pts, max_order, density=0.7, poly_deg=-1, exact=False):
    return {
        (i, j): random_rat(rng, finite_pts, max_order, density, poly_deg, exact)
        for i in range(n)
        for j in range(n)
    }


def symmetric_hom(rng, n, finite_pts, max_order, sign=1):
    """sign=1: symmetric matrix; sign=-1: antisymmetric, zero diagonal."""
    out = {}
    for i in range(n):
        for j in range(i, n):
            if i == j and sign == -1:
                out[(i, i)] = {}
                continue
            f = random_rat(rng, finite_pts, max_order, exact=True)
            out[(i, j)] = f
            out[(j, i)] = rat_combine((Fraction(sign), f))
    return out


def hom_transpose(h):
    return {(i, j): h[(j, i)] for (i, j) in h}


def hom_combine(*pairs):
    keys = pairs[0][1].keys()
    return {key: rat_combine(*((c, h[key]) for c, h in pairs)) for key in keys}


# ---------------- principal part systems ----------------


def sys_of_hom(h, tw) -> dict:
    out: dict = {}
    for key, f in h.items():
        for pt, coeffs in rat_tails(f, tw[key]).items():
            out.setdefault(pt, {})[key] = coeffs
    return out


def sys_combine(*pairs) -> dict:
    out: dict = {}
    for c, s in pairs:
        for pt, mat in s.items():
            row = out.setdefault(pt, {})
            for key, coeffs in mat.items():
                old = row.get(key, ())
                m = max(len(old), len(coeffs))
                row[key] = tuple(
                    (old[k] if k < len(old) else 0) + c * (coeffs[k] if k < len(coeffs) else 0)
                    for k in range(m)
                )
    clean = {}
    for pt, mat in out.items():
        mat = {key: trim(v) for key, v in mat.items()}
        mat = {key: v for key, v in mat.items() if v}
        if mat:
            clean[pt] = mat
    return clean


def random_sys(rng, n, pts, max_order, density=0.7, sign=0, exact=False) -> dict:
    """sign=0: no symmetry; 1: symmetric; -1: antisymmetric.  exact: every
    entry gets a tail of length exactly max_order."""
    out: dict = {}
    for pt in pts:
        mat = {}
        for i in range(n):
            for j in range(n) if sign == 0 else range(i, n):
                if sign == -1 and i == j:
                    continue
                if not exact and rng.random() >= density:
                    continue
                length = max_order if exact else rng.randint(1, max_order)
                tail = tuple(fraction(rng) for _ in range(length - 1)) + (nonzero(rng),)
                mat[(i, j)] = tail
                if sign and i != j:
                    mat[(j, i)] = tuple(sign * c for c in tail)
        if mat:
            out[pt] = mat
    return out


def sys_class(s, tw) -> dict:
    """Canonical class: per entry the infinity coefficients of orders
    1 .. -t-1 left after the finite tails are moved to infinity."""
    out = {}
    for key, t in tw.items():
        for r in range(1, -t):
            v = Fraction(0)
            inf = s.get(INF, {}).get(key, ())
            if r <= len(inf):
                v += inf[r - 1]
            for a, mat in s.items():
                if a == INF:
                    continue
                for k, c in enumerate(mat.get(key, ()), 1):
                    m = -r - t - k
                    if m >= 0:
                        v -= c * comb(k + m - 1, m) * a**m
            if v:
                out[(key, r)] = v
    return out


def sys_lines(name: str, s) -> list[str]:
    if not s:
        return [f"{name}: 0"]
    lines = []
    for pt in sorted(s, key=lambda p: (p == INF, 0 if p == INF else p)):
        for (i, j), coeffs in sorted(s[pt].items()):
            body = " ".join(frac_text(c) for c in coeffs)
            lines.append(f"{name}[{point_text(pt)}; {i + 1},{j + 1}]: {body}")
    return lines


def hom_lines(name: str, h) -> list[str]:
    lines = [f"{name}[{i + 1},{j + 1}]: {rat_text(f)}" for (i, j), f in sorted(h.items()) if f]
    return lines or [f"{name}: 0"]


def document(e_frame, ell, kind=None, p=None, beta=None, bounds=None) -> str:
    lines = ["format: symplext/1"]
    if kind:
        lines.append(f"kind: {kind}")
    lines.append("E: " + " ".join(str(d) for d in e_frame))
    lines.append(f"L: {ell}")
    lines += sys_lines("p", p)
    if beta is not None:
        lines += hom_lines("beta", beta)
    if bounds is not None:
        pts, order, values, cap = bounds
        lines.append("bounds.points: " + " ".join(point_text(x) for x in pts))
        lines.append(f"bounds.order: {order}")
        lines.append("bounds.values: " + " ".join(frac_text(v) for v in values))
        lines.append(f"bounds.cap: {cap}")
    return "\n".join(lines) + "\n"


# ---------------- workloads ----------------


def cell(k: int, *radices: int) -> tuple[int, ...]:
    """Mixed-radix digits of k: file k of a pool lands in one cell of the
    factorial design, and every run of prod(radices) files covers each
    cell once, so a pool's mix does not depend on the seed."""
    out = []
    for r in radices:
        out.append(k % r)
        k //= r
    return tuple(out)


def _support(rng, count):
    return rng.sample(list(POINT_POOL) + [INF], count)


def structure(workload: str, k: int) -> random.Random:
    """The random source for the shape of file k: frames, points and kind.
    It ignores the seed, which draws only the coefficients, so that the
    cost of a pool moves little from seed to seed."""
    return random.Random(f"symplext-bench:{workload}:{k}")


def _classes(rng, n_files):
    files, ops = {}, []
    for k in range(n_files):
        r, sym, npts, order = cell(k, 3, 3, 3, 2)
        n, symmetric, order = 2 + r, sym == 0, order + 1
        st = structure("classes", k)
        ell = st.choice((-1, 0))
        e_frame = tuple(sorted((st.randint(-3, -1) for _ in range(n)), reverse=True))
        tw = twists(e_frame, ell)
        pts = _support(st, npts + 1)
        if symmetric:
            finite = [a for a in pts if a != INF]
            gamma = random_hom(rng, n, finite, order, 0.5, 0 if INF in pts else -1)
            p = sys_combine((1, random_sys(rng, n, pts, order, 0.7, 1)), (1, sys_of_hom(gamma, tw)))
        else:
            p = random_sys(rng, n, pts, order)
        name = f"c{k:03d}.txt"
        files[name] = document(e_frame, ell, p=p)
        for c, (command, args) in enumerate(
            (
                ("reduce-class", ()),
                ("check-structure", ("--kind", "symplectic")),
                ("check-structure", ("--kind", "orthogonal")),
            )
        ):
            machine = (k + c) % 2 == 1
            ops.append(
                Op(name, command, args + (("--machine",) if machine else ()),
                   args[1] if args else "", machine, {"symmetric_class": symmetric})
            )
    return files, ops


GRAPH_MODES = ("subbundle", "isotropy-planted", "subbundle", "isotropy-random")


def _graphs(rng, n_files):
    files, ops = {}, []
    for k in range(n_files):
        r, m, npts, nbeta = cell(k, 3, 4, 2, 2)
        n, mode = (3 if r == 2 else 2), GRAPH_MODES[m]
        st = structure("graphs", k)
        # d_i + d_j - L <= -2 everywhere: h^0(Hom(F, E)) = 0
        ell = st.choice((0, 1))
        e_frame = tuple(sorted((st.randint(-2, -1) for _ in range(n)), reverse=True))
        tw = twists(e_frame, ell)
        pts = _support(st, npts + 1)
        finite = [a for a in pts if a != INF]
        # beta's poles avoid the support of p, so the support of q has a
        # fixed size and every entry a tail of a fixed order per cell
        beta_pts = st.sample([a for a in POINT_POOL if a not in pts], nbeta + 1)
        kind = ""
        expect: dict = {}
        if mode == "subbundle":
            p = random_sys(rng, n, pts, 2 - npts, exact=True)
            beta = random_hom(rng, n, beta_pts, 2 - nbeta, exact=True)
            command = "subbundle"
            expect["q"] = sys_lines("q", sys_combine((1, p), (-1, sys_of_hom(beta, tw))))
        else:
            kind = st.choice(("symplectic", "orthogonal"))
            sign = 1 if kind == "symplectic" else -1
            gamma = random_hom(rng, n, finite, 2 - npts, exact=True)
            p = sys_combine(
                (1, random_sys(rng, n, pts, 2 - npts, sign=sign, exact=True)), (1, sys_of_hom(gamma, tw))
            )
            if mode == "isotropy-planted":
                # alpha = t(gamma) -+ gamma; beta = -+alpha/2 + (anti)symmetric
                alpha = hom_combine((1, hom_transpose(gamma)), (-sign, gamma))
                beta = hom_combine(
                    (Fraction(-sign, 2), alpha), (1, symmetric_hom(rng, n, beta_pts, 2 - nbeta, sign))
                )
                expect["isotropic"] = True
            else:
                beta = random_hom(rng, n, beta_pts, 2 - nbeta, exact=True)
            command = "isotropy"
        name = f"g{k:03d}.txt"
        files[name] = document(e_frame, ell, kind=kind, p=p, beta=beta)
        machine = k % 2 == 1
        args = (("--kind", kind) if kind else ()) + (("--machine",) if machine else ())
        ops.append(Op(name, command, args, kind, machine, expect))
    return files, ops


# (rank, kind) -> two bounds: points, maximal order, value pool.  Points
# are integers or infinity and values integers, so every candidate has an
# integer class.
_F = Fraction
SEARCH_SHAPES = {
    (2, "symplectic"): (((_F(-1),), 1, (0, 1, -1, 2, -2, 3)), ((_F(1), INF), 1, (0, 1))),
    (2, "orthogonal"): (((_F(0), _F(1), INF), 1, (0, 1, -1, 2)), ((_F(1), INF), 2, (0, 1, -1))),
    (3, "symplectic"): (((_F(0),), 1, (0, 1)), ((INF,), 1, (0, 1, -1))),
    (3, "orthogonal"): (((_F(1), INF), 1, (0, 1)), ((_F(-1),), 2, (0, 1))),
}

# the search example of the README: 729 candidates, 3 hits
README_SEARCH = (
    (-1, -2), 0, "symplectic",
    {_F(0): {(0, 1): (_F(1),), (1, 0): (_F(1),)}},
    ((_F(0), _F(1)), 1, (0, 1, -1)),
)


def _slots(n, kind):
    return [(i, j) for i in range(n) for j in range(i, n) if not (i == j and kind == "orthogonal")]


def enumerate_space(n, kind, pts, order, values):
    """Every candidate defect system of the bounds, in no promised order."""
    sign = 1 if kind == "symplectic" else -1
    tails = list(itertools.product((_F(v) for v in values), repeat=order))
    slots = [(pt, i, j) for pt in pts for (i, j) in _slots(n, kind)]
    for choice in itertools.product(tails, repeat=len(slots)):
        s: dict = {}
        for (pt, i, j), tail in zip(slots, choice):
            tail = trim(tail)
            if not tail:
                continue
            mat = s.setdefault(pt, {})
            mat[(i, j)] = tail
            if i != j:
                mat[(j, i)] = tuple(sign * c for c in tail)
        yield s


def space_size(n, kind, bounds) -> int:
    pts, order, values = bounds
    return len(values) ** (order * len(pts) * len(_slots(n, kind)))


def search_hits(e_frame, ell, kind, p, bounds):
    """Candidates of the bounds whose class is the class of p.  With
    h^0(Hom(F, E)) = 0 each of them cuts out an isotropic graph."""
    tw = twists(e_frame, ell)
    target = sys_class(p, tw)
    return [s for s in enumerate_space(len(e_frame), kind, *bounds) if sys_class(s, tw) == target]


def _search_file(rng, st, n, kind, bounds, planted):
    e_frame, ell = ((-1, -2) if n == 2 else (-1, -1, -2)), 0
    tw = twists(e_frame, ell)
    sign = 1 if kind == "symplectic" else -1
    gamma = random_hom(rng, n, st.sample(POINT_POOL, 1), 1, exact=True)
    if planted:
        # a nonzero candidate whose class the fewest others share
        groups: dict = {}
        for s in enumerate_space(n, kind, *bounds):
            if s:
                groups.setdefault(frozenset(sys_class(s, tw).items()), []).append(s)
        fewest = min(len(g) for g in groups.values())
        base = rng.choice([g[0] for g in groups.values() if len(g) == fewest])
    else:
        # a half-integer class coordinate: no candidate has it, no hits
        i, j = next((i, j) for (i, j) in _slots(n, kind) if i != j)
        base = {INF: {(i, j): (_F(1, 2),), (j, i): (_F(sign, 2),)}}
    return e_frame, ell, kind, sys_combine((1, base), (1, sys_of_hom(gamma, tw))), bounds


def _search(rng, n_files):
    files, ops = {}, []
    for k in range(n_files):
        if k == 0:
            e_frame, ell, kind, p, bounds = README_SEARCH
        else:
            r, kd, shape, planted = cell(k - 1, 2, 2, 2, 2)
            n, kind = 2 + r, ("symplectic", "orthogonal")[kd]
            e_frame, ell, kind, p, bounds = _search_file(
                rng, structure("search", k), n, kind, SEARCH_SHAPES[(n, kind)][shape], planted == 0
            )
        hits = search_hits(e_frame, ell, kind, p, bounds)
        space = space_size(len(e_frame), kind, bounds)
        name = f"s{k:03d}.txt"
        pts, order, values = bounds
        files[name] = document(
            e_frame, ell, kind=kind, p=p, bounds=(pts, order, tuple(_F(v) for v in values), space + 1)
        )
        machine = k % 2 == 1
        ops.append(
            Op(name, "search", ("--kind", kind) + (("--machine",) if machine else ()), kind,
               machine, {"hits": [sys_lines("q", h) for h in hits], "space": space})
        )
    return files, ops


POOL_FILES = {"classes": 108, "graphs": 48, "search": 41}


def generate(workload: str, seed: int):
    """(files, ops) for a workload: file name -> text, and the op list in
    the order the benchmark runs it.  Same seed, same output."""
    rng = random.Random(f"symplext-bench:{workload}:{seed}")
    make = {"classes": _classes, "graphs": _graphs, "search": _search}[workload]
    return make(rng, POOL_FILES[workload])
