"""Versioned structured-text format for problem files and machine output.

One format serves both directions: the files the commands read and the
records they print under --machine parse back through parse_document.
Every line is a `key: value` pair, `#` starts a comment, blank lines are
ignored, and the first record must be `format: symplext/1`.  All numbers
are exact rationals; no floats anywhere.

Matrix-valued keys carry 1-based indices in brackets, principal parts
also name the point: `p[0; 1,2]: 1/2 3` is the tail c_1/(z) + c_2/z^2 of
entry (1,2)... at the point 0 with coefficients listed from order 1 up.
A wholly zero object is written `p: 0` (absence means "not given", which
is different).  See README for the full key list.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .bundles import RatHom, dual_frame
from .errors import FrameMismatch, ParseError
from .prinparts import CohClass, PrinHom
from .ratfield import (
    ParseBudget,
    PointP1,
    RatFunc,
    frac_text,
    parse_frac,
    parse_point,
    parse_ratfunc,
    point_text,
    ratfunc_text,
)
from .subbundles import SearchBounds

__all__ = [
    "FORMAT_TAG",
    "Document",
    "ResultRecord",
    "parse_document",
    "parse_bounds",
    "serialize_document",
    "prin_lines",
    "mat_lines",
    "class_lines",
]

FORMAT_TAG = "symplext/1"

# written at the top of every serialized document so the conventions
# travel with the data
_HEADER = (
    "# structured text for symplectic/orthogonal extensions on the line",
    "# conventions: symplectic alpha is antisymmetric with the tails of",
    "#   t(p) - p, and a graph of beta is isotropic iff t(beta) - beta = alpha;",
    "#   orthogonal alpha is symmetric with the tails of t(p) + p, and the",
    "#   graph condition is t(beta) + beta = alpha",
)

_KINDS = ("symplectic", "orthogonal")
_CERTS = ("prin", "linear", "direct")

_RESULT_RE = re.compile(r"^result\[(\d+)\]\.(.+)$")
_KEY_RE = re.compile(r"^([a-z][a-z0-9_.]*)(?:\[([^\]]*)\])?$")


@dataclass
class ResultRecord:
    """One search hit: the graph datum plus what certified it."""

    beta: RatHom
    q: PrinHom
    splitting: tuple[int, ...]
    degree: int
    certificates: tuple[str, ...]


@dataclass
class Document:
    """Everything a problem file or a machine record section can hold.

    Fields are None (or empty) when the document does not mention them;
    commands pick what they need and reject what is missing.
    """

    kind: Optional[str] = None
    e_frame: Optional[tuple[int, ...]] = None
    ell: Optional[int] = None
    p: Optional[PrinHom] = None
    q: Optional[PrinHom] = None
    beta: Optional[RatHom] = None
    alpha: Optional[RatHom] = None
    cohomology_class: Optional[CohClass] = None
    coboundary: Optional[bool] = None
    bounds: Optional[SearchBounds] = None
    structure: Optional[bool] = None
    isotropic: Optional[bool] = None
    regular: Optional[bool] = None
    degree: Optional[int] = None
    splitting: Optional[tuple[int, ...]] = None
    tests: dict = field(default_factory=dict)
    results: list = field(default_factory=list)


# ============================================================
# Parsing
# ============================================================


def _fail(lineno: Optional[int], msg: str):
    # lineno is None for fields given outside a file (parse_bounds)
    raise ParseError(msg if lineno is None else f"line {lineno}: {msg}")


def _split_records(text: str) -> list[tuple[int, str, str]]:
    out = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            _fail(lineno, "expected 'key: value'")
        key, value = line.split(":", 1)
        out.append((lineno, key.strip(), value.strip()))
    return out


def _parse_indices(lineno: int, text: str) -> tuple[int, int]:
    parts = [t.strip() for t in text.split(",")]
    if len(parts) != 2:
        _fail(lineno, f"expected 'i,j' indices, got {text!r}")
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        _fail(lineno, f"indices must be integers, got {text!r}")
    if i < 1 or j < 1:
        _fail(lineno, "indices are 1-based")
    return i, j


def _parse_coeffs(lineno: int, value: str) -> tuple[Fraction, ...]:
    toks = value.split()
    if not toks:
        _fail(lineno, "empty coefficient list")
    try:
        return tuple(parse_frac(t) for t in toks)
    except (ParseError, ValueError, ZeroDivisionError):
        _fail(lineno, f"bad coefficient list {value!r}")


def _parse_ints(lineno: int, value: str, what: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in value.split())
    except ValueError:
        _fail(lineno, f"{what} must be a list of integers, got {value!r}")


def _parse_int(lineno: int, value: str, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        _fail(lineno, f"{what} must be an integer, got {value!r}")


def _parse_yesno(lineno: int, value: str) -> bool:
    if value == "yes":
        return True
    if value == "no":
        return False
    _fail(lineno, f"expected yes or no, got {value!r}")


def _parse_entry_value(lineno: int, value: str, budget: ParseBudget) -> RatFunc:
    try:
        return parse_ratfunc(value, budget=budget)
    except ParseError as exc:
        _fail(lineno, f"bad rational function: {exc}")


def _parse_point_token(lineno: int, tok: str) -> PointP1:
    try:
        return parse_point(tok)
    except (ParseError, ValueError, ZeroDivisionError):
        _fail(lineno, f"bad point {tok!r}")


class _Builder:
    """Accumulates raw records, then assembles typed objects once the
    frames are known.  The expressions of a document and of its result
    records charge one parse budget."""

    def __init__(self, budget: ParseBudget):
        self.budget = budget
        self.scalars = {}
        self.scalar_lines = {}
        self.prin = {"p": {}, "q": {}}
        self.prin_zero = set()
        self.mats = {"beta": {}, "alpha": {}}
        self.mat_zero = set()
        self.class_entries = {}
        self.class_zero = False
        self.class_seen = False
        self.tests = {}
        self.result_count = None
        self.results = {}

    # -- record intake ------------------------------------------------

    def scalar(self, lineno, name, value):
        if name in self.scalars:
            _fail(lineno, f"duplicate key {name!r}")
        self.scalars[name] = value
        self.scalar_lines[name] = lineno

    def add(self, lineno: int, key: str, value: str):
        # frame keys are written uppercase; everything else is lowercase
        if key == "E":
            key = "e"
        elif key == "L":
            key = "l"
        rm = _RESULT_RE.match(key)
        if rm is not None:
            idx = int(rm.group(1))
            sub = self.results.get(idx)
            if sub is None:
                sub = self.results[idx] = _Builder(self.budget)
            sub.add(lineno, rm.group(2), value)
            return
        m = _KEY_RE.match(key)
        if m is None:
            _fail(lineno, f"unrecognized key {key!r}")
        name, args = m.group(1), m.group(2)
        if name in ("p", "q"):
            self._prin_record(lineno, name, args, value)
        elif name in ("beta", "alpha"):
            self._mat_record(lineno, name, args, value)
        elif name == "class":
            self._class_record(lineno, args, value)
        elif name.startswith("test."):
            self._test_record(lineno, name, args, value)
        elif name.startswith("bounds."):
            self._plain(lineno, name, args, value)
        elif name in (
            "format",
            "kind",
            "e",
            "l",
            "coboundary",
            "structure",
            "isotropic",
            "regular",
            "degree",
            "splitting",
            "results",
            "certificates",
        ):
            self._plain(lineno, name, args, value)
        else:
            _fail(lineno, f"unrecognized key {name!r}")

    def _plain(self, lineno, name, args, value):
        if args is not None:
            _fail(lineno, f"key {name!r} takes no indices")
        self.scalar(lineno, name, value)

    def _test_record(self, lineno, name, args, value):
        if args is not None:
            _fail(lineno, f"key {name!r} takes no indices")
        test = name.split(".", 1)[1]
        if test not in _CERTS:
            _fail(lineno, f"unknown test {test!r}")
        if test in self.tests:
            _fail(lineno, f"duplicate key {name!r}")
        self.tests[test] = _parse_yesno(lineno, value)

    def _prin_record(self, lineno, name, args, value):
        if args is None:
            if value != "0":
                _fail(lineno, f"{name} without indices must be '{name}: 0'")
            self.prin_zero.add(name)
            return
        parts = args.split(";")
        if len(parts) != 2:
            _fail(lineno, f"expected {name}[point; i,j]")
        pt = _parse_point_token(lineno, parts[0].strip())
        i, j = _parse_indices(lineno, parts[1])
        slot = (pt, i, j)
        if slot in self.prin[name]:
            _fail(lineno, f"duplicate entry {name}[{args}]")
        self.prin[name][slot] = _parse_coeffs(lineno, value)

    def _mat_record(self, lineno, name, args, value):
        if args is None:
            if value != "0":
                _fail(lineno, f"{name} without indices must be '{name}: 0'")
            self.mat_zero.add(name)
            return
        i, j = _parse_indices(lineno, args)
        if (i, j) in self.mats[name]:
            _fail(lineno, f"duplicate entry {name}[{args}]")
        self.mats[name][(i, j)] = _parse_entry_value(lineno, value, self.budget)

    def _class_record(self, lineno, args, value):
        self.class_seen = True
        if args is None:
            if value != "0":
                _fail(lineno, "class without indices must be 'class: 0'")
            self.class_zero = True
            return
        i, j = _parse_indices(lineno, args)
        if (i, j) in self.class_entries:
            _fail(lineno, f"duplicate entry class[{args}]")
        self.class_entries[(i, j)] = _parse_coeffs(lineno, value)

    # -- assembly -----------------------------------------------------

    def _frames(self):
        e = self.scalars.get("e")
        ell = self.scalars.get("l")
        if e is None and ell is None:
            return None
        if e is None or ell is None:
            raise ParseError("E and L must be given together")
        lineno = self.scalar_lines["e"]
        degrees = _parse_ints(lineno, e, "E")
        if not degrees:
            _fail(lineno, "E must list at least one degree")
        return degrees, _parse_int(self.scalar_lines["l"], ell, "L")

    def _need_frames(self, what):
        frames = self._frames()
        if frames is None:
            raise ParseError(f"{what} needs E and L records")
        return frames

    def _build_prin(self, name):
        raw = self.prin[name]
        if not raw and name not in self.prin_zero:
            return None
        degrees, ell = self._need_frames(name)
        n = len(degrees)
        src = dual_frame(degrees, ell)
        parts = {}
        for (pt, i, j), coeffs in raw.items():
            if i > n or j > n:
                raise ParseError(f"{name} index ({i},{j}) exceeds rank {n}")
            rows = parts.setdefault(pt, [[() for _ in range(n)] for _ in range(n)])
            rows[i - 1][j - 1] = coeffs
        try:
            return PrinHom(src, degrees, parts)
        except Exception as exc:
            raise ParseError(f"invalid {name}: {exc}")

    def _build_mat(self, name):
        raw = self.mats[name]
        if not raw and name not in self.mat_zero:
            return None
        degrees, ell = self._need_frames(name)
        n = len(degrees)
        zero = RatFunc.zero()
        rows = [[zero for _ in range(n)] for _ in range(n)]
        for (i, j), f in raw.items():
            if i > n or j > n:
                raise ParseError(f"{name} index ({i},{j}) exceeds rank {n}")
            rows[i - 1][j - 1] = f
        return RatHom(dual_frame(degrees, ell), degrees, rows)

    def _build_class(self):
        if not self.class_seen:
            return None
        degrees, ell = self._need_frames("class")
        n = len(degrees)
        data = {}
        for (i, j), coeffs in self.class_entries.items():
            if i > n or j > n:
                raise ParseError(f"class index ({i},{j}) exceeds rank {n}")
            data[(i - 1, j - 1)] = coeffs
        try:
            return CohClass(dual_frame(degrees, ell), degrees, data)
        except Exception as exc:
            raise ParseError(f"invalid class: {exc}")

    def _build_bounds(self):
        keys = [k for k in self.scalars if k.startswith("bounds.")]
        if not keys:
            return None
        if "bounds.points" not in self.scalars:
            raise ParseError("bounds need at least bounds.points")
        lineno = self.scalar_lines["bounds.points"]
        toks = self.scalars["bounds.points"].split()
        if not toks:
            _fail(lineno, "bounds.points must list points")
        pts = tuple(_parse_point_token(lineno, t) for t in toks)
        order = 1
        values: tuple = (Fraction(0), Fraction(1))
        cap = 25
        if "bounds.order" in self.scalars:
            order = _parse_int(
                self.scalar_lines["bounds.order"],
                self.scalars["bounds.order"],
                "bounds.order",
            )
        if "bounds.values" in self.scalars:
            lineno = self.scalar_lines["bounds.values"]
            values = _parse_coeffs(lineno, self.scalars["bounds.values"])
        if "bounds.cap" in self.scalars:
            cap = _parse_int(
                self.scalar_lines["bounds.cap"],
                self.scalars["bounds.cap"],
                "bounds.cap",
            )
        known = {"bounds.points", "bounds.order", "bounds.values", "bounds.cap"}
        for k in keys:
            if k not in known:
                _fail(self.scalar_lines[k], f"unrecognized key {k!r}")
        try:
            return SearchBounds(pts, order, values, cap)
        except FrameMismatch as exc:
            raise ParseError(f"invalid bounds: {exc}")

    def _build_result(self, idx: int) -> ResultRecord:
        sub = self.results[idx]
        allowed = {"splitting", "degree", "certificates"}
        for name in sub.scalars:
            if name not in allowed:
                raise ParseError(
                    f"unrecognized result key {name!r} in result[{idx}]"
                )
        # frames come from the top level
        sub.scalars["e"] = self.scalars.get("e")
        sub.scalars["l"] = self.scalars.get("l")
        sub.scalar_lines["e"] = self.scalar_lines.get("e", 0)
        sub.scalar_lines["l"] = self.scalar_lines.get("l", 0)
        if sub.scalars["e"] is None or sub.scalars["l"] is None:
            raise ParseError("results need E and L records")
        q = sub._build_prin("q")
        beta = sub._build_mat("beta")
        if q is None or beta is None:
            raise ParseError(f"result[{idx}] needs both q and beta")
        if "degree" not in sub.scalars or "splitting" not in sub.scalars:
            raise ParseError(f"result[{idx}] needs degree and splitting")
        degree = _parse_int(
            sub.scalar_lines["degree"], sub.scalars["degree"], "degree"
        )
        splitting = _parse_ints(
            sub.scalar_lines["splitting"], sub.scalars["splitting"], "splitting"
        )
        certs = ()
        if "certificates" in sub.scalars:
            toks = tuple(sub.scalars["certificates"].split())
            for t in toks:
                if t not in _CERTS:
                    raise ParseError(f"unknown certificate {t!r}")
            certs = toks
        return ResultRecord(beta, q, splitting, degree, certs)

    def document(self) -> Document:
        doc = Document()
        if "kind" in self.scalars:
            kind = self.scalars["kind"]
            if kind not in _KINDS:
                _fail(self.scalar_lines["kind"], f"unknown kind {kind!r}")
            doc.kind = kind
        frames = self._frames()
        if frames is not None:
            doc.e_frame, doc.ell = frames
        doc.p = self._build_prin("p")
        doc.q = self._build_prin("q")
        doc.beta = self._build_mat("beta")
        doc.alpha = self._build_mat("alpha")
        doc.cohomology_class = self._build_class()
        doc.bounds = self._build_bounds()
        for name, attr in (
            ("coboundary", "coboundary"),
            ("structure", "structure"),
            ("isotropic", "isotropic"),
            ("regular", "regular"),
        ):
            if name in self.scalars:
                setattr(
                    doc, attr,
                    _parse_yesno(self.scalar_lines[name], self.scalars[name]),
                )
        if "degree" in self.scalars:
            doc.degree = _parse_int(
                self.scalar_lines["degree"], self.scalars["degree"], "degree"
            )
        if "splitting" in self.scalars:
            doc.splitting = _parse_ints(
                self.scalar_lines["splitting"],
                self.scalars["splitting"],
                "splitting",
            )
        doc.tests = dict(self.tests)
        if self.results:
            indices = sorted(self.results)
            if indices != list(range(1, len(indices) + 1)):
                raise ParseError("result indices must run 1..k without gaps")
            doc.results = [self._build_result(i) for i in indices]
        if "results" in self.scalars:
            count = _parse_int(
                self.scalar_lines["results"], self.scalars["results"], "results"
            )
            if count != len(doc.results):
                raise ParseError(
                    f"results: {count} does not match "
                    f"{len(doc.results)} result records"
                )
        return doc


def parse_document(text: str) -> Document:
    """Parse structured text into a Document; ParseError on any defect."""
    records = _split_records(text)
    if not records:
        raise ParseError("empty document")
    lineno, key, value = records[0]
    if key != "format":
        _fail(lineno, "first record must be 'format: %s'" % FORMAT_TAG)
    if value != FORMAT_TAG:
        _fail(lineno, f"unsupported format {value!r}")
    builder = _Builder(ParseBudget(len(text)))
    for lineno, key, value in records[1:]:
        if key == "format":
            _fail(lineno, "duplicate format record")
        builder.add(lineno, key, value)
    return builder.document()


def parse_bounds(fields: dict[str, str]) -> SearchBounds:
    """Search bounds from the fields of the bounds.* records given outside
    a file: keys points, order, values and cap, values written as in the
    records (lists separated by whitespace); ParseError on any defect."""
    builder = _Builder(ParseBudget(0))  # bounds hold no expressions
    for key, value in fields.items():
        builder.add(None, f"bounds.{key}", value)
    bounds = builder._build_bounds()
    if bounds is None:
        raise ParseError("bounds need at least bounds.points")
    return bounds


# ============================================================
# Serialization
# ============================================================


def _point_key(pt: PointP1):
    return (1, Fraction(0)) if pt.is_infinity else (0, pt.value)


def prin_lines(name: str, p: PrinHom) -> list[str]:
    """The `name[point; i,j]: c_1 c_2 ...` records of a system."""
    if p.is_zero:
        return [f"{name}: 0"]
    out = []
    rows, cols = len(p.dst), len(p.src)
    for pt in sorted(p.support, key=_point_key):
        for i in range(rows):
            for j in range(cols):
                coeffs = p.entry(pt, i, j)
                if not coeffs:
                    continue
                body = " ".join(frac_text(c) for c in coeffs)
                out.append(f"{name}[{point_text(pt)}; {i + 1},{j + 1}]: {body}")
    return out


def mat_lines(name: str, m: RatHom) -> list[str]:
    """The `name[i,j]: expression` records of a matrix's nonzero entries."""
    out = []
    for i, row in enumerate(m.entries):
        for j, f in enumerate(row):
            if not f.is_zero:
                out.append(f"{name}[{i + 1},{j + 1}]: {ratfunc_text(f)}")
    return out or [f"{name}: 0"]


def class_lines(cls: CohClass) -> list[str]:
    """The `class[i,j]: c ...` records of a class's nonzero entries."""
    if cls.is_zero:
        return ["class: 0"]
    out = []
    for i in range(len(cls.dst)):
        for j in range(len(cls.src)):
            coeffs = cls.entry(i, j)
            if any(coeffs):
                body = " ".join(frac_text(c) for c in coeffs)
                out.append(f"class[{i + 1},{j + 1}]: {body}")
    return out


def _yesno(flag: bool) -> str:
    return "yes" if flag else "no"


def serialize_document(doc: Document, header: bool = True) -> str:
    """Canonical text of a document; parses back to an equal Document."""
    lines = list(_HEADER) if header else []
    lines.append(f"format: {FORMAT_TAG}")
    if doc.kind is not None:
        lines.append(f"kind: {doc.kind}")
    if doc.e_frame is not None:
        lines.append("E: " + " ".join(str(d) for d in doc.e_frame))
    if doc.ell is not None:
        lines.append(f"L: {doc.ell}")
    if doc.p is not None:
        lines += prin_lines("p", doc.p)
    if doc.q is not None:
        lines += prin_lines("q", doc.q)
    if doc.beta is not None:
        lines += mat_lines("beta", doc.beta)
    if doc.alpha is not None:
        lines += mat_lines("alpha", doc.alpha)
    if doc.cohomology_class is not None:
        lines += class_lines(doc.cohomology_class)
    if doc.coboundary is not None:
        lines.append(f"coboundary: {_yesno(doc.coboundary)}")
    if doc.structure is not None:
        lines.append(f"structure: {_yesno(doc.structure)}")
    for test in _CERTS:
        if test in doc.tests:
            lines.append(f"test.{test}: {_yesno(doc.tests[test])}")
    if doc.isotropic is not None:
        lines.append(f"isotropic: {_yesno(doc.isotropic)}")
    if doc.regular is not None:
        lines.append(f"regular: {_yesno(doc.regular)}")
    if doc.degree is not None:
        lines.append(f"degree: {doc.degree}")
    if doc.splitting is not None:
        lines.append("splitting: " + " ".join(str(a) for a in doc.splitting))
    if doc.bounds is not None:
        b = doc.bounds
        lines.append(
            "bounds.points: " + " ".join(point_text(pt) for pt in b.points)
        )
        lines.append(f"bounds.order: {b.max_order}")
        lines.append(
            "bounds.values: " + " ".join(frac_text(v) for v in b.values)
        )
        lines.append(f"bounds.cap: {b.cap}")
    if doc.results:
        lines.append(f"results: {len(doc.results)}")
        for k, rec in enumerate(doc.results, 1):
            prefix = f"result[{k}]."
            lines += [prefix + s for s in prin_lines("q", rec.q)]
            lines += [prefix + s for s in mat_lines("beta", rec.beta)]
            lines.append(f"{prefix}degree: {rec.degree}")
            lines.append(
                prefix + "splitting: " + " ".join(str(a) for a in rec.splitting)
            )
            if rec.certificates:
                lines.append(
                    prefix + "certificates: " + " ".join(rec.certificates)
                )
    return "\n".join(lines) + "\n"
