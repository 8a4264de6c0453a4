"""Command line front end.

Each command reads one problem file (`-` for stdin) in the structured
text format of textio, runs the corresponding library operation, and
prints an exact, deterministic report.  With --machine the report is
replaced by a structured-text document that parses back through
parse_document.

main builds the argparse parser on its first call and reuses it for
every later call in the same process; each call still parses into a new
namespace.  The parser records each command by the name of its cmd_*
function, looked up in this module when the command runs.

Exit codes: 0 affirmative, 1 negative verdict, 2 input error,
3 unsupported input (poles outside the rational points), 4 internal error
(an inconsistency the package detected in its own results).
"""

from __future__ import annotations

import argparse
import itertools
import random
import sys
from fractions import Fraction
from typing import Optional

from . import sampling
from .bundles import (
    TransitionData,
    cocycle_transpose_check,
    dual_frame,
    h0_hom,
    transpose_hom,
)
from .errors import (
    ClassMismatch,
    DegenerateB,
    FrameMismatch,
    HypothesisUnmet,
    NotACoboundary,
    NotACochain,
    NotAFormCochain,
    ParseError,
    SymplextError,
    UnsupportedPoleField,
    VerticalIntersection,
    ZeroDenominator,
)
from .forms import (
    ExtensionData,
    check_orthogonal,
    check_symplectic,
    is_global_member,
)
from .prinparts import (
    PrinHom,
    cech_class,
    cocycle_of,
    has_prin,
    lift_rational,
    prin_length,
    prin_of,
    reduce_class,
    transpose_prin,
)
from .ratfield import frac_text, parse_ratfunc, ratfunc_text, zpow
from .subbundles import (
    SearchBounds,
    beta_from_subbundle,
    cor6_backward,
    cor6_forward,
    graph_of_defect,
    graph_subbundle,
    isotropy_direct,
    isotropy_linear,
    isotropy_prin,
    regularity_check,
    search_lagrangian,
    splitting_type,
)
from .textio import (
    Document,
    ResultRecord,
    class_lines,
    mat_lines,
    parse_bounds,
    parse_document,
    prin_lines,
    serialize_document,
)


# ============================================================
# Input plumbing
# ============================================================


def _read_document(path: str) -> Document:
    """The document in a file, or on stdin for `-`.  A UTF-8 byte-order
    mark, as some editors write, is dropped."""
    try:
        if path == "-":
            text = sys.stdin.read().removeprefix("\ufeff")
        else:
            with open(path, "r", encoding="utf-8-sig") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return parse_document(text)


def _extension_of(doc: Document) -> ExtensionData:
    if doc.e_frame is None or doc.ell is None or doc.p is None:
        raise ParseError("problem file needs E, L and p records")
    return ExtensionData(doc.e_frame, doc.ell, doc.p)


def _kind_of(args, doc: Document) -> str:
    kind = getattr(args, "kind", None) or doc.kind or "symplectic"
    return kind


def _parse_bounds_flag(text: str) -> SearchBounds:
    """`points=0,1,inf;order=2;values=0,1,-1;cap=25` -> SearchBounds: the
    fields of the bounds.* records, with commas between list items."""
    fields = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ParseError(f"bad bounds field {part!r}")
        key, value = part.split("=", 1)
        fields[key.strip()] = value.replace(",", " ")
    return parse_bounds(fields)


def _bounds_of(args, doc: Document) -> SearchBounds:
    if getattr(args, "bounds", None):
        return _parse_bounds_flag(args.bounds)
    if doc.bounds is not None:
        return doc.bounds
    raise ParseError("search needs bounds (file records or --bounds)")


def _structure_of(ext: ExtensionData, kind: str):
    return check_symplectic(ext) if kind == "symplectic" else check_orthogonal(ext)


def _graph_of(doc: Document, ext: ExtensionData):
    """The graph of the subbundle datum: of beta when there is one, else
    the graph that q cuts out."""
    if doc.beta is not None:
        return graph_subbundle(ext, doc.beta)
    if doc.q is not None:
        return graph_of_defect(ext, doc.q)
    raise ParseError("needs a beta or q record")


def _emit(args, doc: Document, human: list[str]) -> None:
    if getattr(args, "machine", False):
        sys.stdout.write(serialize_document(doc))
    else:
        for line in human:
            print(line)


def _no_structure(args, ext: ExtensionData, kind: str) -> int:
    _emit(
        args,
        Document(kind=kind, e_frame=ext.e_frame, ell=ext.ell, structure=False),
        ["no structure for this representative"],
    )
    return 1


# ============================================================
# Commands
# ============================================================


def cmd_reduce_class(args) -> int:
    doc = _read_document(args.file)
    ext = _extension_of(doc)
    cls = ext.extension_class()
    out = Document(
        e_frame=ext.e_frame,
        ell=ext.ell,
        cohomology_class=cls,
        coboundary=cls.is_zero,
    )
    if cls.is_zero:
        human = ["class: 0, coboundary: yes"]
    else:
        human = class_lines(cls) + ["coboundary: no"]
    _emit(args, out, human)
    # a successful reduction is a report, not a verdict
    return 0


def cmd_check_structure(args) -> int:
    doc = _read_document(args.file)
    ext = _extension_of(doc)
    kind = _kind_of(args, doc)
    se = _structure_of(ext, kind)
    if se is None:
        return _no_structure(args, ext, kind)
    out = Document(
        kind=kind,
        e_frame=ext.e_frame,
        ell=ext.ell,
        alpha=se.alpha,
        structure=True,
    )
    human = ["structure: yes"] + mat_lines("alpha", se.alpha)
    _emit(args, out, human)
    return 0


def cmd_subbundle(args) -> int:
    doc = _read_document(args.file)
    ext = _extension_of(doc)
    G = _graph_of(doc, ext)
    regular = regularity_check(G)
    out = Document(
        e_frame=ext.e_frame,
        ell=ext.ell,
        beta=G.beta,
        q=G.q,
        degree=G.degree,
        splitting=G.splitting,
        regular=regular,
    )
    human = []
    if G.q.is_zero:
        human.append("G = F")
    human += prin_lines("q", G.q)
    human.append(f"degree: {G.degree}")
    human.append("splitting: " + " ".join(str(a) for a in G.splitting))
    human.append(f"regular: {'yes' if regular else 'no'}")
    _emit(args, out, human)
    return 0


def cmd_isotropy(args) -> int:
    doc = _read_document(args.file)
    ext = _extension_of(doc)
    kind = _kind_of(args, doc)
    se = _structure_of(ext, kind)
    if se is None:
        return _no_structure(args, ext, kind)
    G = _graph_of(doc, ext)
    tests = {
        "prin": isotropy_prin(G.q, kind),
        "linear": isotropy_linear(G.beta, se.alpha, kind),
        "direct": isotropy_direct(se, G),
    }
    verdict = tests["direct"]
    agree = len(set(tests.values())) == 1
    out = Document(
        kind=kind,
        e_frame=ext.e_frame,
        ell=ext.ell,
        beta=G.beta,
        q=G.q,
        tests=tests,
        isotropic=verdict,
    )
    human = [f"test.{name}: {'yes' if ok else 'no'}" for name, ok in tests.items()]
    word = "yes" if verdict else "no"
    if agree:
        human.append(f"isotropic: {word} (all three tests agree)")
    else:
        human.append(
            f"isotropic: {word} (tests disagree; direct evaluation decides)"
        )
    _emit(args, out, human)
    return 0 if verdict else 1


def cmd_search(args) -> int:
    doc = _read_document(args.file)
    ext = _extension_of(doc)
    kind = _kind_of(args, doc)
    se = _structure_of(ext, kind)
    if se is None:
        return _no_structure(args, ext, kind)
    bounds = _bounds_of(args, doc)
    # each hit's q printed once: its lines are the sort key and the output
    found = sorted(
        ((prin_lines("q", G.q), G) for G in search_lagrangian(se, bounds)),
        key=lambda hit: "\n".join(hit[0]),
    )
    records = []
    for _, G in found:
        # every graph search_lagrangian returns is isotropic by
        # construction, which the linear and direct certificates state
        certs = ("prin",) if isotropy_prin(G.q, kind) else ()
        certs += ("linear", "direct")
        records.append(
            ResultRecord(
                beta=G.beta,
                q=G.q,
                splitting=G.splitting,
                degree=G.degree,
                certificates=certs,
            )
        )
    out = Document(
        kind=kind,
        e_frame=ext.e_frame,
        ell=ext.ell,
        p=ext.p,
        bounds=bounds,
        results=records,
    )
    human = [f"results: {len(records)}"]
    for k, (rec, (qlines, _)) in enumerate(zip(records, found), 1):
        human.append(
            f"G[{k}]: degree={rec.degree}"
            f" splitting={','.join(str(a) for a in rec.splitting)}"
            f" certificates={','.join(rec.certificates)} {'; '.join(qlines)}"
        )
    if not records:
        human.append("no isotropic subbundles within the bounds")
    _emit(args, out, human)
    return 0 if records else 1


# ============================================================
# Self test
# ============================================================


class _CheckFailed(Exception):
    """An invariant of a self-test suite does not hold."""


def _check(ok: bool, what: str) -> None:
    # an explicit raise, so the suites still check under python -O
    if not ok:
        raise _CheckFailed(what)


def _suite_parser(rng) -> int:
    count = 0
    for _ in range(40):
        m = sampling.rathom(rng, (1, 2), (-1, -2), max_order=2, poly_deg=1)
        for row in m.entries:
            for f in row:
                _check(
                    parse_ratfunc(ratfunc_text(f)) == f,
                    "expression text does not parse back",
                )
                count += 1
    return count


def _suite_classes(rng) -> int:
    # the frames are self-dual, so t(p) is in the frame of p
    for _ in range(40):
        p = sampling.prinhom(rng, (1, 2), (-1, -2), max_order=2)
        c = reduce_class(p)
        _check(
            cech_class(cocycle_of(p), p.src, p.dst) == c,
            "class of the cocycle of p is not [p]",
        )
        _check(transpose_prin(transpose_prin(p)) == p, "transpose is no involution")
        # the chart splittings, against tails found by root finding
        ext = ExtensionData((-1, -2), 0, p)
        s0, sinf = prin_of(ext.s_zero()).parts, prin_of(ext.s_infinity()).parts
        _check(
            {pt: m for pt, m in s0.items() if not pt.is_infinity}
            == {pt: m for pt, m in p.parts.items() if not pt.is_infinity},
            "s_zero does not have the finite tails of p",
        )
        _check(
            {pt: m for pt, m in sinf.items() if pt.value != 0}
            == {pt: m for pt, m in p.parts.items() if pt.value != 0},
            "s_infinity does not have the tails of p away from 0",
        )
        cb = sampling.coboundary_prinhom(rng, (1, 2), (-1, -2))
        _check(reduce_class(cb).is_zero, "coboundary with a nonzero class")
        # the identities the structure check rests on
        for sign in (1, -1):
            _check(
                reduce_class(transpose_prin(p) + p.scale(sign))
                == c.transpose() + c.scale(sign),
                "class of t(p) + sign p is not read off [p]",
            )
            s = transpose_prin(cb) + cb.scale(sign)
            lift = lift_rational(s)
            _check(
                transpose_hom(lift) == lift.scale(sign),
                "lift of a sign-symmetric coboundary is not sign-symmetric",
            )
            _check(
                has_prin(lift, s) and prin_of(lift) == s,
                "lift of a coboundary lost its tails",
            )
    return 40


def _suite_cochains(rng) -> int:
    frames = TransitionData((-1, -2), 0)
    n, ds, ell = frames.rank, frames.e_degrees, frames.ell
    for _ in range(30):
        a0 = sampling.rathom(rng, ds, frames.f_degrees, max_order=2, poly_deg=1)
        rows0 = [list(r) for r in a0.entries]
        rowsinf = [
            [rows0[i][j] * zpow(ds[i] + ds[j] - ell) for j in range(n)]
            for i in range(n)
        ]
        _check(
            cocycle_transpose_check((rows0, rowsinf), frames),
            "transposed cochain does not glue",
        )
    return 30


def _suite_forms(rng) -> int:
    done = 0
    while done < 10:
        ext = sampling.symmetric_class_extension(rng, (-1, -2), 0)
        se = check_symplectic(ext)
        _check(se is not None, "symmetric class must carry a structure")
        _check(
            prin_of(se.alpha) == transpose_prin(ext.p) - ext.p,
            "alpha does not have the tails of t(p) - p",
        )
        _check(
            transpose_hom(se.alpha) == se.alpha.scale(-1),
            "alpha is not antisymmetric",
        )
        pair = sampling.member_pair(rng, ext)
        if pair is None:
            continue
        m1, m2 = pair
        _check(is_global_member(ext, m1), "sampled member is not global")
        v12, v21 = se.theta(m1, m2), se.theta(m2, m1)
        _check(
            v12.is_polynomial and (v12 + v21).is_zero,
            "theta is not a global antisymmetric pairing",
        )
        done += 1
    return done


def _partial_fraction_text(beta, tails, i: int, j: int) -> str:
    """Entry (i, j) of beta as a sum of c/(z - a)^k over its finite tails
    plus c*z^m over its polynomial part."""
    terms = []
    for pt in tails.support:
        if not pt.is_infinity:
            a = pt.value
            base = "z" if a == 0 else f"(z {'-' if a > 0 else '+'} {frac_text(abs(a))})"
            terms += [(c, f"/{base}^{k}") for k, c in enumerate(tails.entry(pt, i, j), 1)]
    f = beta[i, j]
    poly = f.num // f.den
    terms += [(poly[m], f"*z^{m}") for m in range(poly.degree + 1)]
    text = " ".join(
        f"{'-' if c < 0 else '+'} {frac_text(abs(c))}{rest}" for c, rest in terms if c
    )
    return text or "0"


def _suite_graphs(rng) -> int:
    for _ in range(10):
        ext = sampling.extension(rng, (-1, -1), 0, max_order=2)
        beta = sampling.rathom(rng, ext.f_frame, ext.e_frame, max_order=2, poly_deg=1)
        G = graph_subbundle(ext, beta)
        # beta written in partial fractions: the parser reads its tails
        # and builds its value from them
        tails = prin_of(beta)
        entries = {
            (i, j): _partial_fraction_text(beta, tails, i, j)
            for i in range(2)
            for j in range(2)
        }
        text = "format: symplext/1\nE: -1 -1\nL: 0\n" + "".join(
            f"beta[{i + 1},{j + 1}]: {entry}\n" for (i, j), entry in entries.items()
        )
        parsed = parse_document(text).beta
        _check(
            all(parsed[ij] == parse_ratfunc(entry) for ij, entry in entries.items()),
            "a closed-form value is not the general parser's",
        )
        _check(parsed == beta, "beta in partial fractions parses to another map")
        _check(parsed.tails == tails, "the tails read off the text are not prin_of(beta)")
        _check(graph_subbundle(ext, parsed) == G, "the parsed beta has another graph")
        _check(
            G.degree == sum(ext.f_frame) - prin_length(G.q),
            "degree is not deg F minus the length of q",
        )
        _check(sum(G.splitting) == G.degree, "splitting does not sum to the degree")
        # h^0(Hom(F, E)) = 0 in these frames, so beta is the lift of p - q
        _check(graph_of_defect(ext, G.q) == G, "q does not cut out the graph of beta")
        _check(splitting_type(G) == G.splitting, "splitting_type disagrees")
        # the u-chart lattice reverses f_basis_0 by its shifted degrees,
        # which needs distinct pivots: (degree, last row reaching it)
        pivots = [
            max((p.degree - f, j) for j, (p, f) in enumerate(zip(col, ext.f_frame)) if p)
            for col in G.f_basis_0
        ]
        _check(
            [d for d, _ in pivots] == list(G.f_degrees),
            "f_degrees are not the shifted column degrees of f_basis_0",
        )
        _check(len({j for _, j in pivots}) == len(pivots), "f_basis_0 is not reduced")
        # the first read of both chart lattices: their builds and checks
        # run, and the u-chart lattice is checked to lie on the graph of
        # beta, so beta_from_subbundle need not check it again
        _check(regularity_check(G), "the graph's lattices are not regular")
        _check(len(G.basis_inf) == len(ext.e_frame), "the u-chart lattice is not rank n")
        _check(
            beta_from_subbundle(G.basis_0, None, ext) == beta,
            "beta does not come back from its graph",
        )
    return 10


def _suite_roundtrip(rng) -> int:
    for _ in range(8):
        ext = sampling.extension(rng, (-1, -1), 0, max_order=2)
        _check(h0_hom(ext.f_frame, ext.e_frame) == 0, "Hom(F, E) has sections")
        q = sampling.coboundary_prinhom(rng, ext.f_frame, ext.e_frame) + ext.p
        G = cor6_forward(ext, q)
        _check(cor6_backward(ext, G) == q, "q does not come back from its graph")
    return 8


def _candidates(kind: str, degrees, bounds: SearchBounds):
    """Every defect system of the bounds in product order: one tail per
    entry (point, i, j) with i <= j, the diagonal for symplectic only,
    mirrored into (j, i), negated for orthogonal."""
    n, src = len(degrees), dual_frame(degrees, 0)
    mirror = 1 if kind == "symplectic" else -1
    slots = [
        (pt, i, j)
        for pt in bounds.points
        for i in range(n)
        for j in range(i, n)
        if i < j or kind == "symplectic"
    ]
    tails = list(itertools.product(bounds.values, repeat=bounds.max_order))
    for choice in itertools.product(tails, repeat=len(slots)):
        parts = {}
        for (pt, i, j), tail in zip(slots, choice):
            mat = parts.setdefault(pt, [[() for _ in range(n)] for _ in range(n)])
            mat[i][j] = tail
            mat[j][i] = tuple(mirror * c for c in tail)
        yield PrinHom(src, degrees, parts)


def _suite_search(rng) -> int:
    # generate and reject over the full product: class match, then
    # isotropy_direct on the graph, in order up to the cap.  Each p is a
    # candidate plus the tails of a rational map, so there is a hit.
    # (kind, E, points, order, values); in rank 1 the class of a finite
    # tail does not depend on its point, so table entries share sums
    shapes = (
        ("symplectic", (-1,), 4, 1, (0, 1, -1)),
        ("symplectic", (-1, -2), 2, 1, (0, -1)),
        ("orthogonal", (-1, -2), 2, 2, (0, Fraction(-1, 2))),
        ("orthogonal", (-1, -1, -2), 2, 1, (Fraction(2, 3), 0)),
    )
    for kind, degrees, n_points, order, values in shapes:
        bounds = SearchBounds(sampling.points(rng, n_points), order, values, cap=3)
        planted = rng.choice(list(_candidates(kind, degrees, bounds)))
        src = dual_frame(degrees, 0)
        gamma = sampling.rathom(rng, src, degrees, max_order=1)
        ext = ExtensionData(degrees, 0, planted + prin_of(gamma))
        se = _structure_of(ext, kind)
        _check(se is not None, "a planted candidate must carry the structure")
        target = ext.extension_class()
        hits = (
            q
            for q in _candidates(kind, degrees, bounds)
            if reduce_class(q) == target
            and isotropy_direct(se, graph_subbundle(ext, lift_rational(ext.p - q)))
        )
        ref = list(itertools.islice(hits, bounds.cap))
        _check(ref, "the planted candidate is no hit")
        found = [G.q for G in search_lagrangian(se, bounds)]
        _check(found == ref, "search differs from generate-and-reject")
    return len(shapes)


def cmd_selftest(args) -> int:
    suites = (
        ("expression parser round trip", _suite_parser),
        ("class reduction identities", _suite_classes),
        ("chart cochain transposes", _suite_cochains),
        ("symplectic structures and forms", _suite_forms),
        ("graph subbundles", _suite_graphs),
        ("condition/graph bijection", _suite_roundtrip),
        ("search against generate-and-reject", _suite_search),
    )
    failed = False
    for name, suite in suites:
        rng = random.Random(20260817)
        try:
            cases = suite(rng)
        except _CheckFailed as exc:
            failed = True
            print(f"FAIL {name}: {exc}")
        else:
            print(f"ok   {name} ({cases} cases)")
    if failed:
        return 1
    print("all invariant suites passed")
    return 0


# ============================================================
# Entry point
# ============================================================


def _add_file(sp):
    sp.add_argument("file", help="problem file in structured text, - for stdin")


def _add_kind(sp):
    sp.add_argument(
        "--kind",
        choices=("symplectic", "orthogonal"),
        help="structure kind (default: file record, else symplectic)",
    )


def _add_machine(sp):
    sp.add_argument(
        "--machine",
        action="store_true",
        help="print a structured-text document instead of the summary",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symplext",
        description=(
            "exact symplectic and orthogonal extensions of split bundles "
            "on the projective line"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser(
        "reduce-class", help="canonical cohomology class of the glue p"
    )
    _add_file(sp)
    _add_machine(sp)
    sp.set_defaults(func="cmd_reduce_class")

    sp = sub.add_parser(
        "check-structure",
        help="decide whether the extension carries the requested form",
    )
    _add_file(sp)
    _add_kind(sp)
    _add_machine(sp)
    sp.set_defaults(func="cmd_check_structure")

    sp = sub.add_parser(
        "subbundle", help="graph subbundle of a rational map (beta or q)"
    )
    _add_file(sp)
    _add_machine(sp)
    sp.set_defaults(func="cmd_subbundle")

    sp = sub.add_parser(
        "isotropy", help="three-way isotropy verdict for a graph subbundle"
    )
    _add_file(sp)
    _add_kind(sp)
    _add_machine(sp)
    sp.set_defaults(func="cmd_isotropy")

    sp = sub.add_parser(
        "search", help="enumerate isotropic graph subbundles within bounds"
    )
    _add_file(sp)
    _add_kind(sp)
    _add_machine(sp)
    sp.add_argument(
        "--bounds",
        help="points=0,1,inf;order=2;values=0,1;cap=25 (overrides the file)",
    )
    sp.set_defaults(func="cmd_search")

    sp = sub.add_parser("selftest", help="run the seeded invariant suites")
    sp.set_defaults(func="cmd_selftest")

    return parser


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    # the parser stores the command's name: resolved here, a replaced or
    # wrapped cmd_* function takes effect on the next call
    command = globals()[args.func]
    try:
        return command(args)
    except (ParseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except UnsupportedPoleField as exc:
        print(f"unsupported: {exc}", file=sys.stderr)
        return 3
    except (
        ClassMismatch,
        DegenerateB,
        FrameMismatch,
        HypothesisUnmet,
        NotACoboundary,
        NotACochain,
        NotAFormCochain,
        VerticalIntersection,
        ZeroDenominator,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SymplextError as exc:
        # InternalLiftFailure and the like: never exit 1, the negative verdict
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
