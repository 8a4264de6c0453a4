"""Answer checks for every benchmark op.

Each check re-derives the answer from invariants of the package's public
functions (or from facts the generator planted), so it does not retrace
the command's own code path.  A check returns None when the answer holds
and a one-line reason when it does not.
"""

from __future__ import annotations

from fractions import Fraction

from symplext.bundles import RatHom, dual_frame, transpose_hom
from symplext.prinparts import (
    CohClass,
    cech_class,
    cocycle_of,
    prin_length,
    prin_of,
    transpose_prin,
)
from symplext.ratfield import parse_ratfunc
from symplext.textio import parse_document

CERTIFICATES = ("prin", "linear", "direct")


class Problem:
    """A parsed problem file and the class of its p, as cech_class(cocycle_of(p))."""

    def __init__(self, text: str):
        self.doc = parse_document(text)
        self.p = self.doc.p
        self.e_frame = self.doc.e_frame
        self.f_frame = dual_frame(self.e_frame, self.doc.ell)
        self.p_class = cech_class(cocycle_of(self.p), self.p.src, self.p.dst)

    def header(self) -> str:
        return f"format: symplext/1\nE: {' '.join(map(str, self.e_frame))}\nL: {self.doc.ell}\n"

    def prin(self, lines) -> object:
        """A defect system q from `q[...]` lines in this file's frames."""
        return parse_document(self.header() + "\n".join(lines) + "\n").q


def _sign(kind: str) -> int:
    return -1 if kind == "symplectic" else 1


def _fields(stdout: str) -> dict[str, str]:
    out = {}
    for line in stdout.splitlines():
        if ": " in line and not line.startswith("#"):
            key, value = line.split(": ", 1)
            out[key] = value
    return out


def _indexed(stdout: str, name: str) -> dict[tuple[int, int], str]:
    out = {}
    for line in stdout.splitlines():
        if line.startswith(name + "["):
            key, value = line.split(": ", 1)
            i, j = key[len(name) + 1 : -1].split(",")
            out[(int(i) - 1, int(j) - 1)] = value
    return out


def check_reduce_class(prob: Problem, op, rc, stdout):
    if rc != 0:
        return f"exit code {rc}, want 0"
    want = prob.p_class
    if op.machine:
        doc = parse_document(stdout)
        got, coboundary = doc.cohomology_class, doc.coboundary
    elif stdout.strip() == "class: 0, coboundary: yes":
        got, coboundary = CohClass.zero(prob.p.src, prob.p.dst), True
    else:
        rows = _indexed(stdout, "class")
        data = {key: [Fraction(c) for c in v.split()] for key, v in rows.items()}
        got = CohClass(prob.p.src, prob.p.dst, data)
        coboundary = _fields(stdout).get("coboundary") == "yes"
    if got != want:
        return "class differs from cech_class(cocycle_of(p))"
    if coboundary != want.is_zero:
        return "coboundary verdict differs from the class"
    return None


def _structure_obstruction(prob: Problem, kind: str) -> CohClass:
    s = transpose_prin(prob.p) + prob.p.scale(_sign(kind))
    return cech_class(cocycle_of(s), s.src, s.dst)


def _alpha(prob: Problem, op, stdout):
    """(structure found, alpha or None) as printed."""
    if op.machine:
        doc = parse_document(stdout)
        return bool(doc.structure), doc.alpha
    if stdout.strip() == "no structure for this representative":
        return False, None
    if _fields(stdout).get("structure") != "yes":
        raise ValueError("no structure verdict in the output")
    n = len(prob.e_frame)
    rows = _indexed(stdout, "alpha")
    entries = [[parse_ratfunc(rows.get((i, j), "0")) for j in range(n)] for i in range(n)]
    return True, RatHom(prob.f_frame, prob.e_frame, entries)


def check_structure(prob: Problem, op, rc, stdout):
    found, alpha = _alpha(prob, op, stdout)
    if rc != (0 if found else 1):
        return f"exit code {rc} does not match the verdict"
    sign = _sign(op.kind)
    if not found:
        if op.kind == "symplectic" and op.expect.get("symmetric_class"):
            return "no symplectic structure on a symmetric class"
        if _structure_obstruction(prob, op.kind).is_zero:
            return "no structure although t(p) -+ p has zero class"
        return None
    if transpose_hom(alpha) != alpha.scale(sign):
        return "alpha lacks the kind's symmetry"
    if prin_of(alpha) != transpose_prin(prob.p) + prob.p.scale(sign):
        return "prin_of(alpha) differs from t(p) -+ p"
    return None


def check_subbundle(prob: Problem, op, rc, stdout):
    if rc != 0:
        return f"exit code {rc}, want 0"
    if op.machine:
        doc = parse_document(stdout)
        q, degree, splitting = doc.q, doc.degree, tuple(doc.splitting)
    else:
        fields = _fields(stdout)
        q = prob.prin([line for line in stdout.splitlines() if line.startswith("q")])
        degree = int(fields["degree"])
        splitting = tuple(int(a) for a in fields["splitting"].split())
    if q != prob.prin(op.expect["q"]):
        return "q differs from p - prin(beta)"
    if len(splitting) != len(prob.e_frame) or list(splitting) != sorted(splitting, reverse=True):
        return "splitting is not a descending rank-n type"
    if not sum(splitting) == degree == sum(prob.f_frame) - prin_length(q):
        return "sum(splitting), degree and sum(F) - prin_length(q) disagree"
    return None


def check_isotropy(prob: Problem, op, rc, stdout):
    if op.machine:
        doc = parse_document(stdout)
        tests, verdict = dict(doc.tests), doc.isotropic
    else:
        fields = _fields(stdout)
        tests = {name: fields.get(f"test.{name}") == "yes" for name in CERTIFICATES}
        verdict = fields.get("isotropic", "").startswith("yes")
    if set(tests) != set(CERTIFICATES) or len(set(tests.values())) != 1:
        return f"the three isotropy tests disagree: {tests}"
    if verdict != tests["direct"]:
        return "verdict differs from the tests"
    if rc != (0 if verdict else 1):
        return f"exit code {rc} does not match the verdict"
    if op.expect.get("isotropic") and not verdict:
        return "planted Lagrangian graph reported not isotropic"
    return None


def _search_results(prob: Problem, op, stdout):
    """[(q, certificates)] as printed."""
    if op.machine:
        doc = parse_document(stdout)
        return [(r.q, tuple(r.certificates)) for r in doc.results]
    out = []
    for line in stdout.splitlines():
        if not line.startswith("G["):
            continue
        head, qtext = line.split(" q", 1)
        certs = tuple(head.split("certificates=", 1)[1].split(","))
        first, *rest = ("q" + qtext).split("; q[")
        out.append((prob.prin([first] + ["q[" + r for r in rest]), certs))
    if int(_fields(stdout)["results"]) != len(out):
        raise ValueError("results count differs from the listed results")
    return out


def check_search(prob: Problem, op, rc, stdout):
    results = _search_results(prob, op, stdout)
    if rc != (0 if results else 1):
        return f"exit code {rc} does not match {len(results)} results"
    sign = _sign(op.kind)
    want_class = prob.p_class
    for q, certs in results:
        if transpose_prin(q) != q.scale(-sign):
            return "a result lacks the kind's symmetry"
        if cech_class(cocycle_of(q), q.src, q.dst) != want_class:
            return "a result has another class than p"
        if certs != CERTIFICATES:
            return f"a result carries certificates {certs}"
    want = {prob.prin(lines) for lines in op.expect["hits"]}
    if {q for q, _ in results} != want or len(results) != len(want):
        return f"{len(results)} results, want the {len(want)} planted-class candidates"
    return None


CHECKS = {
    "reduce-class": check_reduce_class,
    "check-structure": check_structure,
    "subbundle": check_subbundle,
    "isotropy": check_isotropy,
    "search": check_search,
}


def check(prob: Problem, op, rc, stdout):
    """None if the op's answer holds, else the reason it does not."""
    try:
        return CHECKS[op.command](prob, op, rc, stdout)
    except Exception as exc:  # a malformed answer is a failed op, not a crash
        return f"unreadable answer: {type(exc).__name__}: {exc}"
