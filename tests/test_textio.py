"""The structured-text format: parsing, serialization, and strictness."""

import importlib.util
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symplext.bundles import RatHom
from symplext.errors import ParseError
from symplext.prinparts import PrinHom, has_prin, prin_of
from symplext.ratfield import (
    INFINITY,
    MAX_SIZE,
    PARSE_WORK,
    PARSE_WORK_PER_CHAR,
    ParseBudget,
    PointP1,
    Poly,
    RatFunc,
    parse_partial_fractions,
    parse_ratfunc,
)
from symplext.subbundles import SearchBounds
from symplext.textio import (
    FORMAT_TAG,
    Document,
    ResultRecord,
    parse_bounds,
    parse_document,
    serialize_document,
)

GOLDEN = Path(__file__).parent / "golden"


def _load_gen():
    # the benchmark's own file generator, imported without running anything
    path = Path(__file__).parent.parent / "perfbench" / "gen.py"
    gen = sys.modules.get("bench_gen")
    if gen is None:
        spec = importlib.util.spec_from_file_location("bench_gen", path)
        gen = sys.modules["bench_gen"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
    return gen


P0 = PointP1.finite(0)
P1 = PointP1.finite(1)

SAMPLE = """\
format: symplext/1
kind: symplectic
E: -1 -2
L: 0
# a tail of order two at 1, plus one at infinity
p[1; 1,1]: 1 -3/2
p[inf; 2,2]: 5
beta[1,1]: 1/(z - 1)
beta[1,2]: 0
beta[2,1]: 0
beta[2,2]: (z + 2)/(z^2 - 1)
"""


def test_parse_sample():
    doc = parse_document(SAMPLE)
    assert doc.kind == "symplectic"
    assert doc.e_frame == (-1, -2)
    assert doc.ell == 0
    assert doc.p.src == (1, 2) and doc.p.dst == (-1, -2)
    assert doc.p.entry(P1, 0, 0) == (Fraction(1), Fraction(-3, 2))
    assert doc.p.entry(INFINITY, 1, 1) == (Fraction(5),)
    assert doc.beta[0, 0] == RatFunc(Poly.one(), Poly([-1, 1]))
    assert doc.beta[1, 1] == RatFunc(Poly([2, 1]), Poly([-1, 0, 1]))


def test_round_trip_is_exact():
    doc = parse_document(SAMPLE)
    text = serialize_document(doc)
    again = parse_document(text)
    assert again == doc
    assert serialize_document(again) == text


def test_header_carries_conventions():
    doc = Document(kind="symplectic")
    text = serialize_document(doc)
    assert text.splitlines()[0].startswith("#")
    assert "t(p) - p" in text
    assert "t(beta) + beta = alpha" in text
    assert f"format: {FORMAT_TAG}" in text


def test_zero_marker_differs_from_absence():
    base = "format: symplext/1\nE: -1\nL: 0\n"
    absent = parse_document(base)
    assert absent.p is None
    given = parse_document(base + "p: 0\n")
    assert given.p is not None and given.p.is_zero


def test_infinity_spellings():
    for name in ("inf", "Inf", "infinity", "oo"):
        doc = parse_document(
            f"format: symplext/1\nE: -1\nL: 0\np[{name}; 1,1]: 2\n"
        )
        assert doc.p.entry(INFINITY, 0, 0) == (Fraction(2),)


def test_results_block():
    text = (
        "format: symplext/1\nkind: symplectic\nE: -1\nL: 0\np[0; 1,1]: 1\n"
        "results: 2\n"
        "result[1].q[0; 1,1]: 1\n"
        "result[1].beta[1,1]: 0\n"
        "result[1].degree: 0\n"
        "result[1].splitting: 0\n"
        "result[1].certificates: prin linear direct\n"
        "result[2].q[1; 1,1]: 1\n"
        "result[2].beta[1,1]: 1/(z - 1) - 1/z\n"
        "result[2].degree: 0\n"
        "result[2].splitting: 0\n"
    )
    doc = parse_document(text)
    assert len(doc.results) == 2
    first, second = doc.results
    assert first.q.entry(P0, 0, 0) == (Fraction(1),)
    assert first.certificates == ("prin", "linear", "direct")
    assert second.q.entry(P1, 0, 0) == (Fraction(1),)
    assert second.certificates == ()
    rt = parse_document(serialize_document(doc))
    assert rt.results == doc.results


def test_bounds_and_flags():
    text = (
        "format: symplext/1\nE: -1\nL: 0\n"
        "bounds.points: 0 1 inf\n"
        "bounds.order: 2\n"
        "bounds.values: 0 1 -1/2\n"
        "bounds.cap: 7\n"
        "isotropic: yes\nregular: no\n"
        "test.prin: yes\ntest.linear: yes\ntest.direct: no\n"
    )
    doc = parse_document(text)
    assert doc.bounds == SearchBounds(
        points=(P0, P1, INFINITY),
        max_order=2,
        values=(Fraction(0), Fraction(1), Fraction(-1, 2)),
        cap=7,
    )
    assert doc.isotropic is True
    assert doc.regular is False
    assert doc.tests == {"prin": True, "linear": True, "direct": False}


def test_parse_bounds_fields_match_the_records():
    fields = {"points": "0 1 inf", "order": "2", "values": "0 1 -1/2", "cap": "7"}
    text = "format: symplext/1\nE: -1\nL: 0\n" + "".join(
        f"bounds.{key}: {value}\n" for key, value in fields.items()
    )
    assert parse_bounds(fields) == parse_document(text).bounds
    assert parse_bounds({"points": "0"}) == SearchBounds(points=(P0,))
    with pytest.raises(ParseError, match="^unrecognized key 'bounds.depth'$"):
        parse_bounds({"points": "0", "depth": "2"})
    with pytest.raises(ParseError, match="bounds.points"):
        parse_bounds({"order": "2"})


@pytest.mark.parametrize(
    "lines",
    [
        "bounds.points: 0 0\n",
        "bounds.points: 1 inf 2/2\n",
        "bounds.points: 0 1\nbounds.values: 0 1 1\n",
        "bounds.points: 0\nbounds.values: 1 2/2\n",
    ],
)
def test_bounds_repeats_are_a_parse_error(lines):
    # repeats are compared as parsed numbers: 1 and 2/2 collide
    text = f"format: symplext/1\nE: -1\nL: 0\n{lines}"
    with pytest.raises(ParseError, match="^invalid bounds: (points|values) must be distinct$"):
        parse_document(text)
    fields = dict(line[len("bounds."):].split(": ") for line in lines.splitlines())
    with pytest.raises(ParseError, match="must be distinct"):
        parse_bounds(fields)


@pytest.mark.parametrize("line", ["bounds.order: 0", "bounds.cap: 0"])
def test_bounds_out_of_range_is_a_parse_error(line):
    text = f"format: symplext/1\nE: -1\nL: 0\nbounds.points: 0\n{line}\n"
    with pytest.raises(ParseError, match="invalid bounds"):
        parse_document(text)


def test_class_lines():
    text = (
        "format: symplext/1\nE: -1\nL: 0\n"
        "class[1,1]: -1\ncoboundary: no\n"
    )
    doc = parse_document(text)
    assert doc.cohomology_class.entry(0, 0) == (Fraction(-1),)
    assert doc.coboundary is False
    zero = parse_document("format: symplext/1\nE: -1 -1\nL: 2\nclass: 0\n")
    assert zero.cohomology_class is not None
    assert zero.cohomology_class.is_zero


# ------------------------------------------------------------
# Strictness
# ------------------------------------------------------------


def test_missing_format_line():
    with pytest.raises(ParseError):
        parse_document("E: -1\nL: 0\n")


def test_wrong_format_tag():
    with pytest.raises(ParseError):
        parse_document("format: symplext/2\nE: -1\nL: 0\n")


def test_unknown_key_rejected():
    with pytest.raises(ParseError):
        parse_document("format: symplext/1\nE: -1\nL: 0\ncolour: red\n")


def test_duplicate_key_rejected():
    with pytest.raises(ParseError):
        parse_document("format: symplext/1\nE: -1\nL: 0\nL: 1\n")


def test_frame_requires_both_parts():
    with pytest.raises(ParseError) as err:
        parse_document("format: symplext/1\nE: -1\np[0; 1,1]: 1\n")
    assert "together" in str(err.value)


def test_index_overflow_rejected():
    with pytest.raises(ParseError):
        parse_document("format: symplext/1\nE: -1\nL: 0\np[0; 2,1]: 1\n")


def test_zero_based_index_rejected():
    with pytest.raises(ParseError):
        parse_document("format: symplext/1\nE: -1\nL: 0\np[0; 0,1]: 1\n")


def test_result_gap_rejected():
    text = (
        "format: symplext/1\nE: -1\nL: 0\n"
        "results: 2\n"
        "result[1].degree: 0\nresult[1].splitting: 0\n"
        "result[1].q: 0\nresult[1].beta[1,1]: 0\n"
        "result[3].degree: 0\nresult[3].splitting: 0\n"
        "result[3].q: 0\nresult[3].beta[1,1]: 0\n"
    )
    with pytest.raises(ParseError):
        parse_document(text)


def test_result_count_mismatch_rejected():
    text = (
        "format: symplext/1\nE: -1\nL: 0\n"
        "results: 2\n"
        "result[1].degree: 0\nresult[1].splitting: 0\n"
        "result[1].q: 0\nresult[1].beta[1,1]: 0\n"
    )
    with pytest.raises(ParseError):
        parse_document(text)


def _heavy_document(entries, rank=4):
    # every entry a sum of two degree-50 quotients with 63-bit bases: each
    # operation inside MAX_SIZE, 39,208 units of work per entry
    big = 2**63 - 1
    lines = ["format: symplext/1", "E: " + " ".join(["-1"] * rank), "L: 0", "p: 0"]
    for k in range(entries):
        i, j = divmod(k, rank)
        c = [big - 4 * k - t for t in range(4)]
        lines.append(
            f"beta[{i + 1},{j + 1}]: "
            f"(z+{c[0]})^50/(z+{c[1]})^50 + (z+{c[2]})^50/(z+{c[3]})^50"
        )
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rank", [4, 8])
def test_parse_budget_bounds_a_document(rank):
    # 16 such entries took 0.7-0.9 s to parse; 64 took four times that
    text = _heavy_document(rank * rank, rank)
    start = time.perf_counter()
    with pytest.raises(ParseError, match="parse budget"):
        parse_document(text)
    assert time.perf_counter() - start < 0.3


def _power_document(entries, results=0):
    # every entry (z+k)^100 charges (100 * 1)^2 = 10,000 units of work
    lines = ["format: symplext/1", "E: -1 -1", "L: 0", "p: 0"]
    for k in range(entries + results):
        i, j = divmod(k % 4, 2)
        key = f"beta[{i + 1},{j + 1}]" if k < entries else "result[1].beta[1,1]"
        lines.append(f"{key}: (z+{k + 1})^100")
    return "\n".join(lines) + "\n"


def test_parse_budget_is_shared_by_the_whole_document():
    fit = PARSE_WORK // 10_000
    assert parse_document(_power_document(fit)).beta is not None
    refused = f"line {5 + fit}: .*parse budget"
    with pytest.raises(ParseError, match=refused):
        parse_document(_power_document(fit + 1))
    # result records charge the budget of their document
    with pytest.raises(ParseError, match=refused):
        parse_document(_power_document(fit, results=1))


def _dense(rng, degree):
    return " + ".join(f"{rng.randint(1, 9)}*z^{k}" for k in range(degree, -1, -1))


def test_cheap_large_documents_parse():
    rng = random.Random(5)
    head = "format: symplext/1\nE: -1 -1 -1 -1\nL: 0\np: 0\n"
    # sums of polynomials and products with a constant charge nothing
    doc = parse_document(
        head
        + f"beta[1,1]: {_dense(rng, MAX_SIZE)}\n"
        + "beta[1,2]: "
        + " + ".join(f"{k}*z^{MAX_SIZE}" for k in range(1, 300))
        + "\nbeta[2,1]: "
        + " + ".join(f"z^{k}" for k in range(30, 0, -1))
        + " + 1\n"
    )
    assert doc.beta.entries[0][1] == RatFunc(Poly.monomial(MAX_SIZE, 299 * 300 // 2))
    # a beta of 16 dense degree-5 quotients charges about 16 * 25
    parse_document(
        head
        + "".join(
            f"beta[{i},{j}]: ({_dense(rng, 5)})/({_dense(rng, 5)})\n"
            for i in range(1, 5)
            for j in range(1, 5)
        )
    )
    # past PARSE_WORK in all, but not per character: still parsed
    rank = 9
    entries = {
        (i, j): f"({_dense(rng, 19)})/({_dense(rng, 20)})"
        for i in range(1, rank + 1)
        for j in range(1, rank + 1)
    }
    text = (
        f"format: symplext/1\nE: {' '.join(['-1'] * rank)}\nL: 0\n"
        + "".join(f"beta[{i},{j}]: {v}\n" for (i, j), v in entries.items())
    )
    budget = ParseBudget(len(text))
    for value in entries.values():
        parse_ratfunc(value, budget=budget)
    assert budget.left < PARSE_WORK_PER_CHAR * len(text)
    assert len(parse_document(text).beta.entries) == rank


def test_garbage_expression_rejected():
    with pytest.raises(ParseError):
        parse_document("format: symplext/1\nE: -1\nL: 0\nbeta[1,1]: 1//z\n")


@pytest.mark.parametrize("record", ["window: 1", "theta0: 0", "thetainf[1,1]: z"])
def test_dropped_records_rejected(record):
    # records that no command read are no longer part of the format
    with pytest.raises(ParseError, match="unrecognized key"):
        parse_document(f"format: symplext/1\nE: -1\nL: 0\n{record}\n")


def test_bad_kind_rejected():
    with pytest.raises(ParseError):
        parse_document("format: symplext/1\nkind: unitary\nE: -1\nL: 0\n")


def test_serialize_full_document_round_trip():
    beta = RatHom((1,), (-1,), [[RatFunc(Poly.one(), Poly([0, 1]))]])
    q = PrinHom((1,), (-1,), {P1: [[(Fraction(1),)]]})
    doc = Document(
        kind="symplectic",
        e_frame=(-1,),
        ell=0,
        p=PrinHom((1,), (-1,), {P0: [[(Fraction(1),)]]}),
        beta=beta,
        results=[
            ResultRecord(
                beta=beta,
                q=q,
                splitting=(0,),
                degree=0,
                certificates=("direct",),
            )
        ],
    )
    again = parse_document(serialize_document(doc))
    assert again == doc


# keys a problem or machine file can carry, with some near misses
_KEYS = (
    "kind", "E", "L", "p", "q", "p[0; 1,1]", "q[inf; 1,2]", "p[1/2; 2,1]",
    "beta[1,1]", "beta[2,1]", "alpha[1,2]", "class", "class[1,1]",
    "coboundary", "structure", "isotropic", "regular", "degree", "splitting",
    "results", "result[1].beta[1,1]", "result[1].q", "result[1].degree",
    "result[1].splitting", "result[1].certificates", "test.direct",
    "bounds.points", "bounds.order", "bounds.values", "bounds.cap",
)
# the expression grammar, numbers, points and record punctuation
_VALUE_CHARS = "0123456789 z+-*/^()infyesno,;.[]:#symplectic"
_ATOMS = st.sampled_from(["z", "0", "1", "-2", "3/4"])
# expressions that parse, huge exponents included
_EXPRESSIONS = st.recursive(
    _ATOMS,
    lambda inner: st.builds("({}{}{})".format, inner, st.sampled_from("+-*/"), inner)
    | st.builds("({})^{}".format, inner, st.sampled_from(["0", "2", "100000000"])),
    max_leaves=6,
)
_VALUES = (
    st.text(_VALUE_CHARS, max_size=24)
    | _EXPRESSIONS
    | st.lists(_ATOMS.filter(lambda a: a != "z"), min_size=1, max_size=3).map(" ".join)
    | st.sampled_from(["yes", "no", "0 1 inf", "symplectic", "orthogonal", "2", "-1 -1"])
)


@st.composite
def _documents(draw):
    lines = ["format: symplext/1"]
    if draw(st.booleans()):  # a valid frame, so that later records get built
        lines += ["E: -1 -1", "L: 0"]
    for _ in range(draw(st.integers(min_value=0, max_value=6))):
        lines.append(f"{draw(st.sampled_from(_KEYS))}: {draw(_VALUES)}")
    return "\n".join(lines) + "\n"


@given(_documents() | st.text(_VALUE_CHARS + "\n", max_size=80))
@settings(derandomize=True, max_examples=400, deadline=None)
def test_parse_document_raises_only_parse_error(text):
    try:
        parse_document(text)
    except ParseError:
        pass


# ------------------------------------------------------------
# principal parts read off partial fractions
# ------------------------------------------------------------

BIG = Fraction(10**16)
PF_POINTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2), BIG)


def _coeff_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _atom_text(rng, a, k, c) -> str:
    """c/(z - a)^k (a a point) or c*z^k (a None), one spelling drawn."""
    mag = abs(c)
    power = "" if k == 1 and rng.random() < 0.5 else f"^{k}"
    if a is None:
        if k == 0:
            return _coeff_text(mag)
        return ("" if mag == 1 else _coeff_text(mag) + "*") + "z" + power
    if a == 0:
        base = "z"
    else:
        base = f"(z {'-' if a > 0 else '+'} {_coeff_text(abs(a))})"
    return f"{_coeff_text(mag)}/{base}{power}"


def _pf_entry(rng, points=PF_POINTS) -> tuple[str, bool]:
    """A seeded sum in partial fractions and whether it has a pole at BIG.
    Terms repeat at one point and order, and a top coefficient may cancel."""
    atoms = []
    for _ in range(rng.randint(0, 4)):
        a = rng.choice(points)
        k = rng.randint(1, 3)
        c = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.choice([1, 1, 2, 3]))
        atoms.append((a, k, c))
        if rng.random() < 0.3:
            atoms.append((a, k, -c))  # cancels this term
        elif rng.random() < 0.3:
            atoms.append((a, k, Fraction(1)))  # adds to it
    for _ in range(rng.randint(0, 2)):
        atoms.append((None, rng.randint(0, 3), Fraction(rng.randint(-4, 4), rng.randint(1, 2))))
    rng.shuffle(atoms)
    atoms = [x for x in atoms if x[2]]
    if not atoms:
        return "0", False
    text = ""
    for n, (a, k, c) in enumerate(atoms):
        sign = "-" if c < 0 else ("+" if n or rng.random() < 0.2 else "")
        text += (f" {sign} " if n else sign) + _atom_text(rng, a, k, c)
    return text, any(a == BIG for a, _, _ in atoms)


def _pf_document(rng) -> tuple[str, bool]:
    # twists t = d_i + d_j - L from -7 to 4: tails at infinity from the
    # finite tails, and polynomial parts with and without a pole there
    n = rng.randint(1, 3)
    degrees = [rng.randint(-3, 2) for _ in range(n)]
    lines = ["format: symplext/1", "E: " + " ".join(map(str, degrees)), f"L: {rng.randint(-1, 1)}"]
    big = False
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if rng.random() < 0.2:
                continue  # a zero entry
            text, has_big = _pf_entry(rng)
            lines.append(f"beta[{i},{j}]: {text}")
            big = big or has_big
    if len(lines) == 3:
        lines.append("beta: 0")
    return "\n".join(lines) + "\n", big


def test_partial_fraction_tails_are_those_of_the_value():
    rng = random.Random(20261019)
    checked = big = 0
    while checked < 320:
        text, has_big = _pf_document(rng)
        beta = parse_document(text).beta
        assert beta.tails is not None, text
        if has_big:
            # prin_of would search 10^8 divisors for the pole at BIG;
            # has_prin holds iff prin_of(beta) == beta.tails
            assert has_prin(beta, beta.tails), text
            big += 1
        else:
            assert beta.tails == prin_of(beta), text
        checked += 1
    assert big >= 30


def test_partial_fraction_tails_of_benchmark_and_golden_files():
    gen = _load_gen()
    texts = [
        text
        for seed in (1, 5, 11)
        for text in gen.generate("graphs", seed)[0].values()
    ]
    texts += [f.read_text() for f in sorted(GOLDEN.glob("*.txt"))]
    seen = 0
    for text in texts:
        beta = parse_document(text).beta
        if beta is None:
            continue
        seen += 1
        if "(z + 1)/(z - 1)" in text:  # rank3.txt: one entry is a quotient
            assert beta.tails is None
        else:
            assert beta.tails is not None and beta.tails == prin_of(beta)
    assert seen > 100


@pytest.mark.parametrize(
    "text, value",
    [
        ("(z + 1)/(z - 1)", RatFunc(Poly((1, 1)), Poly((-1, 1)))),
        ("(2)/(z - 3)", RatFunc(Poly((2,)), Poly((-3, 1)))),
        ("z^2/3", RatFunc(Poly((0, 0, Fraction(1, 3))))),
        ("1/(z^2 - 1)", RatFunc(Poly((1,)), Poly((-1, 0, 1)))),
        ("(z - -2)", RatFunc(Poly((2, 1)))),
    ],
)
def test_text_outside_partial_fractions_carries_no_tails(text, value):
    doc = parse_document(f"format: symplext/1\nE: -1 0\nL: 0\nbeta[1,2]: 1/z\nbeta[2,1]: {text}\n")
    assert doc.beta.tails is None
    assert doc.beta[1, 0] == value == parse_ratfunc(text)


def test_tails_take_no_part_in_equality_and_arithmetic():
    text = "format: symplext/1\nE: -1\nL: 0\nbeta[1,1]: 2/(z - 3) + z\n"
    beta = parse_document(text).beta
    plain = RatHom((1,), (-1,), [[parse_ratfunc("2/(z - 3) + z")]])
    assert beta.tails is not None and plain.tails is None
    assert beta == plain and hash(beta) == hash(plain) and repr(beta) == repr(plain)
    assert (beta + plain).tails is None and (-beta).tails is None
    assert beta.scale(2).tails is None and (beta - plain).tails is None


@pytest.mark.parametrize(
    "text, tails, poly",
    [
        ("3/4/z^1", {Fraction(0): (Fraction(3, 4),)}, {}),
        ("-3/z^2", {Fraction(0): (0, Fraction(-3))}, {}),
        ("+1/(z + 1/2) - z + 2", {Fraction(-1, 2): (Fraction(1),)}, {1: -1, 0: 2}),
        ("1/(z - 1)^2 - 1/(z - 1)^2 + 3/(z - 1)", {Fraction(1): (Fraction(3),)}, {}),
        ("1/(z - 1)^2 - 1/(z - 1)^2", {}, {}),
        ("5/2*z^3 + z^3", {}, {3: Fraction(7, 2)}),
    ],
)
def test_partial_fractions_read_as_the_grammar_groups(text, tails, poly):
    f, form = parse_partial_fractions(text)
    assert f == parse_ratfunc(text)
    assert form == (tails, poly)


# ------------------------------------------------------------
# the value of a text in partial fractions, built in closed form
# ------------------------------------------------------------


def test_closed_form_values_are_the_general_parsers():
    # the general parser is the oracle; the closed form charges no more
    # than it, and the same when every coefficient takes one word
    points = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3), BIG)
    rng = random.Random(20261020)
    for _ in range(400):
        text, has_big = _pf_entry(rng, points)
        closed, general = ParseBudget(len(text)), ParseBudget(len(text))
        f, form = parse_partial_fractions(text, closed)
        assert form is not None and f == parse_ratfunc(text, budget=general), text
        if has_big:
            assert closed.left >= general.left, text
        else:
            assert closed.left == general.left, text


_HUGE = "7" * 4000


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "1/(z - 1)^60 - 1/(z - 2)^60",
            "expression too large: '-' could give a result of size 120 (at most 100)",
        ),
        (
            # the merged order is 60, the written orders sum to 110
            "1/(z - 1)^50 + 1/(z - 1)^60",
            "expression too large: '+' could give a result of size 110 (at most 100)",
        ),
        (
            "1/(z - 1)^101",
            "power too large: exponent 101 on a base of size 1 (the product may be at most 100)",
        ),
        (
            "z^101",
            "power too large: exponent 101 on a base of size 1 (the product may be at most 100)",
        ),
        (
            f"{_HUGE}/(z - 1)",
            "expression too large: '/' could give a result of size 207 (at most 100)",
        ),
        (
            f"1/(z - {_HUGE})",
            "expression too large: '-' could give a result of size 207 (at most 100)",
        ),
    ],
    ids=["two-poles", "repeated-pole", "pole-power", "power", "long-c", "long-a"],
)
def test_partial_fractions_keep_the_size_refusals(text, message):
    doc = f"format: symplext/1\nE: -1\nL: 0\nbeta[1,1]: {text}\n"
    with pytest.raises(ParseError) as exc:
        parse_document(doc)
    assert str(exc.value) == f"line 4: bad rational function: {message}"


def test_partial_fraction_powers_charge_as_the_general_parser():
    # 1/(z+k)^100 charges the 10,000 units of its power step
    fit = PARSE_WORK // 10_000
    doc = _power_document(fit).replace(": (z+", ": 1/(z+")
    assert parse_document(doc).beta.tails is not None
    doc = _power_document(fit + 1).replace(": (z+", ": 1/(z+")
    with pytest.raises(ParseError, match=f"line {5 + fit}: .*parse budget"):
        parse_document(doc)


def test_closed_form_charges_points_of_two_words_as_one():
    # (z - a)^24 with a of 130 bits: the general parser charges its power
    # (24 * 2)^2 units, the closed form 24^2, so 16 such entries pass the
    # budget of their document only in closed form
    a = 2**129 + 1
    lines = ["format: symplext/1", "E: -1 -1 -1 -1", "L: 0"]
    lines += [f"beta[{i},{j}]: 1/(z - {a + 4 * i + j})^24" for i in range(1, 5) for j in range(1, 5)]
    text = "\n".join(lines) + "\n"
    assert parse_document(text).beta.tails is not None
    budget = ParseBudget(len(text))
    with pytest.raises(ParseError, match="parse budget"):
        for line in lines[3:]:
            parse_ratfunc(line.split(": ")[1], budget=budget)
