"""Command-line behavior: verdicts, exit codes, machine output."""

import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import symplext.cli as cli
import symplext.subbundles as sb
from symplext.cli import main
from symplext.errors import InternalLiftFailure
from symplext.ratfield import INFINITY, PointP1
from symplext.textio import parse_document

P0 = PointP1.finite(0)
P1 = PointP1.finite(1)

RANK1_GENERATOR = """\
format: symplext/1
E: -1
L: 0
p[0; 1,1]: 1
"""

RANK1_COBOUNDARY = """\
format: symplext/1
E: -1
L: 0
p[0; 1,1]: 0 1
"""

RANK2_SYMMETRIC = """\
format: symplext/1
kind: symplectic
E: -1 -1
L: 0
p[0; 1,1]: 1
p[0; 2,2]: -1
"""

RANK1_SUBBUNDLE = """\
format: symplext/1
E: -1
L: 0
p: 0
beta[1,1]: 2/(z - 3)
"""

RANK1_ISOTROPY = """\
format: symplext/1
kind: symplectic
E: -1
L: 0
p[0; 1,1]: 1
beta[1,1]: 1/z
"""


def write(tmp_path, text, name="problem.txt"):
    f = tmp_path / name
    f.write_text(text)
    return str(f)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ------------------------------------------------------------
# reduce-class
# ------------------------------------------------------------


def test_reduce_class_nonzero(tmp_path, capsys):
    f = write(tmp_path, RANK1_GENERATOR)
    code, out, _ = run(capsys, ["reduce-class", f])
    assert code == 0
    assert "class[1,1]: -1" in out
    assert "coboundary: no" in out


def test_reduce_class_zero(tmp_path, capsys):
    f = write(tmp_path, RANK1_COBOUNDARY)
    code, out, _ = run(capsys, ["reduce-class", f])
    assert code == 0
    assert "class: 0, coboundary: yes" in out


def test_reduce_class_machine(tmp_path, capsys):
    f = write(tmp_path, RANK1_GENERATOR)
    code, out, _ = run(capsys, ["reduce-class", "--machine", f])
    assert code == 0
    doc = parse_document(out)
    assert doc.coboundary is False
    assert not doc.cohomology_class.is_zero


def test_reduce_class_from_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(RANK1_GENERATOR))
    code, out, _ = run(capsys, ["reduce-class", "-"])
    assert code == 0
    assert "class[1,1]: -1" in out


# ------------------------------------------------------------
# check-structure
# ------------------------------------------------------------


def test_check_structure_positive(tmp_path, capsys):
    f = write(tmp_path, RANK2_SYMMETRIC)
    code, out, _ = run(capsys, ["check-structure", f])
    assert code == 0
    assert "structure: yes" in out


def test_check_structure_negative(tmp_path, capsys):
    f = write(tmp_path, RANK1_GENERATOR)
    code, out, _ = run(
        capsys, ["check-structure", "--kind", "orthogonal", f]
    )
    assert code == 1
    assert "no structure for this representative" in out


def test_check_structure_machine(tmp_path, capsys):
    f = write(tmp_path, RANK2_SYMMETRIC)
    code, out, _ = run(capsys, ["check-structure", "--machine", f])
    assert code == 0
    doc = parse_document(out)
    assert doc.structure is True
    assert doc.alpha is not None


# ------------------------------------------------------------
# subbundle
# ------------------------------------------------------------


def test_subbundle_report(tmp_path, capsys):
    f = write(tmp_path, RANK1_SUBBUNDLE)
    code, out, _ = run(capsys, ["subbundle", f])
    assert code == 0
    assert "degree: -1" in out
    assert "splitting: -1" in out
    assert "regular: yes" in out


def test_subbundle_trivial_graph(tmp_path, capsys):
    f = write(
        tmp_path,
        "format: symplext/1\nE: -1\nL: 0\np: 0\nbeta[1,1]: 0\n",
    )
    code, out, _ = run(capsys, ["subbundle", f])
    assert code == 0
    assert "G = F" in out
    assert "degree: 1" in out


def test_subbundle_accepts_q(tmp_path, capsys):
    text = RANK1_GENERATOR + "q[1; 1,1]: 1\n"
    f = write(tmp_path, text)
    code, out, _ = run(capsys, ["subbundle", f])
    assert code == 0
    assert "degree: 0" in out
    # pointwise regularity genuinely fails on pole cancellation
    assert "regular: no" in out


def test_subbundle_class_mismatch(tmp_path, capsys):
    text = RANK1_GENERATOR + "q[1; 1,1]: 2\n"
    f = write(tmp_path, text)
    code, _, err = run(capsys, ["subbundle", f])
    assert code == 2
    assert "error" in err


def test_subbundle_machine_round_trip(tmp_path, capsys):
    f = write(tmp_path, RANK1_SUBBUNDLE)
    code, out, _ = run(capsys, ["subbundle", "--machine", f])
    assert code == 0
    doc = parse_document(out)
    assert doc.degree == -1
    assert doc.splitting == (-1,)
    assert doc.regular is True


# ------------------------------------------------------------
# isotropy
# ------------------------------------------------------------


def test_isotropy_rank_one(tmp_path, capsys):
    f = write(tmp_path, RANK1_ISOTROPY)
    code, out, _ = run(capsys, ["isotropy", f])
    assert code == 0
    assert "isotropic: yes (all three tests agree)" in out


def test_isotropy_negative(tmp_path, capsys):
    text = (
        "format: symplext/1\nkind: symplectic\nE: -1 -1\nL: 0\n"
        "p: 0\n"
        "beta[1,1]: 0\nbeta[1,2]: 1/z\nbeta[2,1]: 0\nbeta[2,2]: 0\n"
    )
    f = write(tmp_path, text)
    code, out, _ = run(capsys, ["isotropy", f])
    assert code == 1
    assert "isotropic: no" in out


def test_isotropy_machine(tmp_path, capsys):
    f = write(tmp_path, RANK1_ISOTROPY)
    code, out, _ = run(capsys, ["isotropy", "--machine", f])
    assert code == 0
    doc = parse_document(out)
    assert doc.isotropic is True
    assert doc.tests == {"prin": True, "linear": True, "direct": True}


def test_isotropy_without_structure(tmp_path, capsys):
    f = write(tmp_path, RANK1_GENERATOR)
    code, out, _ = run(capsys, ["isotropy", "--kind", "orthogonal", f])
    assert code == 1
    assert "no structure for this representative" in out


# ------------------------------------------------------------
# search
# ------------------------------------------------------------


def test_search_rank_one(tmp_path, capsys):
    text = RANK1_GENERATOR + (
        "bounds.points: 0 1\nbounds.order: 1\nbounds.values: 0 1\n"
        "bounds.cap: 25\n"
    )
    f = write(tmp_path, text)
    code, out, _ = run(capsys, ["search", f])
    assert code == 0
    first = out
    code, out, _ = run(capsys, ["search", f])
    assert out == first


def test_search_machine_certificates(tmp_path, capsys):
    text = RANK1_GENERATOR + (
        "bounds.points: 0 1\nbounds.order: 1\nbounds.values: 0 1\n"
        "bounds.cap: 25\n"
    )
    f = write(tmp_path, text)
    code, out, _ = run(capsys, ["search", "--machine", f])
    assert code == 0
    doc = parse_document(out)
    assert len(doc.results) == 2
    for rec in doc.results:
        assert "direct" in rec.certificates


def test_search_bounds_flag_overrides(tmp_path, capsys):
    f = write(tmp_path, RANK1_GENERATOR)
    code, out, _ = run(
        capsys,
        [
            "search",
            "--machine",
            "--bounds",
            "points=0,1;order=1;values=0,1;cap=25",
            f,
        ],
    )
    assert code == 0
    assert len(parse_document(out).results) == 2


def test_search_runs_isotropy_once_per_graph(tmp_path, capsys, monkeypatch):
    # every graph search_lagrangian builds is isotropic by construction,
    # so neither the search nor the certificates evaluate a form: no
    # entrywise pairings of isotropy_linear, no generic isotropy_direct
    calls = {"graphs": 0, "pairings": 0, "direct": 0}

    def counting(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)

        return wrapped

    direct = counting("direct", sb.isotropy_direct)
    monkeypatch.setattr(sb, "isotropy_direct", direct)
    monkeypatch.setattr(cli, "isotropy_direct", direct)
    linear = counting("pairings", sb.isotropy_linear)
    monkeypatch.setattr(sb, "isotropy_linear", linear)
    monkeypatch.setattr(cli, "isotropy_linear", linear)
    # the search builds its graphs through the private _graph_subbundle
    monkeypatch.setattr(sb, "_graph_subbundle", counting("graphs", sb._graph_subbundle))
    text = RANK2_SYMMETRIC + (
        "bounds.points: 0 1\nbounds.order: 1\nbounds.values: 0 1 -1\n"
    )
    f = write(tmp_path, text)
    code, out, _ = run(capsys, ["search", "--machine", f])
    assert code == 0
    assert len(parse_document(out).results) == calls["graphs"] > 0
    assert calls["pairings"] == 0
    assert calls["direct"] == 0


# the beta of RANK1_SUBBUNDLE, 2/(z - 3), not written in partial fractions
RANK1_SUBBUNDLE_QUOTIENT = RANK1_SUBBUNDLE.replace(
    "2/(z - 3)", "(2*z - 4)/(z^2 - 5*z + 6)"
)


@pytest.mark.parametrize(
    "command, text, expected",
    [
        # a beta written in partial fractions carries its tails
        ("subbundle", RANK1_SUBBUNDLE, 0),
        # a q record cuts out its graph with the q it holds
        ("subbundle", RANK1_GENERATOR + "q[1; 1,1]: 1\n", 0),
        # the structure check checks its alpha on the support of t(p) - p,
        # with no prin_of
        ("isotropy", RANK1_ISOTROPY, 0),
        # any other beta has its tails found once
        ("subbundle", RANK1_SUBBUNDLE_QUOTIENT, 1),
    ],
)
def test_graph_commands_run_prin_of_once_per_graph(
    tmp_path, capsys, monkeypatch, command, text, expected
):
    # q = p - prin_of(beta) is computed at most once, in graph_subbundle,
    # and not at all when the parser read the tails of beta off its text;
    # the command and regularity_check read q from the graph
    real = sys.modules["symplext.prinparts"].prin_of
    calls = []

    def counting(phi):
        calls.append(phi)
        return real(phi)

    for name, module in list(sys.modules.items()):
        if name.startswith("symplext") and getattr(module, "prin_of", None) is real:
            monkeypatch.setattr(module, "prin_of", counting)
    code, _, _ = run(capsys, [command, write(tmp_path, text)])
    assert code == 0
    assert len(calls) == expected


@pytest.mark.parametrize("command", ["subbundle", "isotropy"])
def test_graph_commands_agree_on_both_spellings_of_beta(tmp_path, capsys, command):
    # tails read off partial fractions, or found by prin_of: the same output
    got = [
        run(capsys, [command, "--machine", write(tmp_path, text, name)])
        for name, text in (
            ("fractions.txt", RANK1_SUBBUNDLE),
            ("quotient.txt", RANK1_SUBBUNDLE_QUOTIENT),
        )
    ]
    assert got[0] == got[1]
    assert got[0][1]


def test_search_hits_lift_without_a_class_check(capsys, monkeypatch):
    # the packed class sums already matched each hit's class to [p], so
    # more hits reduce no more classes
    real = sys.modules["symplext.prinparts"].reduce_class
    calls = []

    def counting(p):
        calls.append(p)
        return real(p)

    for name, module in list(sys.modules.items()):
        if name.startswith("symplext") and getattr(module, "reduce_class", None) is real:
            monkeypatch.setattr(module, "reduce_class", counting)
    readme = str(Path(__file__).parent / "golden" / "readme.txt")
    counts = []
    for cap in (1, 25):
        calls.clear()
        bounds = f"points=0,1,inf;order=2;values=0,1,-1;cap={cap}"
        code, out, _ = run(capsys, ["search", "--machine", "--bounds", bounds, readme])
        assert code == 0 and len(parse_document(out).results) == cap
        counts.append(len(calls))
    assert counts[0] == counts[1]


@pytest.mark.parametrize("bounds", ["points=0;order=0", "points=0;cap=0"])
def test_search_bounds_out_of_range(tmp_path, capsys, bounds):
    f = write(tmp_path, RANK1_GENERATOR)
    code, _, err = run(capsys, ["search", "--bounds", bounds, f])
    assert code == 2
    assert "invalid bounds" in err


@pytest.mark.parametrize(
    "bounds",
    [
        "points=0,0;order=1;values=0,-1,2",
        "points=1,2/2",
        "points=0,1;values=0,1,-1,1",
        "points=0;values=1,2/2",
    ],
)
def test_search_repeated_bounds_refused(tmp_path, capsys, bounds):
    # a repeated point would count its slots twice in the class sum but
    # hold one tail in q; a repeated value would list graphs twice
    f = write(tmp_path, RANK1_GENERATOR)
    code, out, err = run(capsys, ["search", "--bounds", bounds, f])
    assert code == 2
    assert out == ""
    assert "invalid bounds" in err and "distinct" in err


def test_search_repeated_file_bounds_refused(tmp_path, capsys):
    text = RANK1_GENERATOR + "bounds.points: 0 1\nbounds.values: 0 1 1\n"
    code, _, err = run(capsys, ["search", write(tmp_path, text)])
    assert code == 2
    assert "invalid bounds: values must be distinct" in err


def test_search_oversized_bounds_refused_quickly(tmp_path, capsys):
    text = "format: symplext/1\nE: -1 -1 -2\nL: 0\np[0; 1,2]: 1\np[0; 2,1]: 1\n"
    f = write(tmp_path, text)
    start = time.perf_counter()
    code, out, err = run(
        capsys, ["search", "--bounds", "points=0,1,2;order=3;values=0,1,-1", f]
    )
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert "search bounds too large" in err


def test_search_empty(tmp_path, capsys):
    text = (
        "format: symplext/1\nE: -1\nL: 0\np[2; 1,1]: 2\n"
        "bounds.points: 0\nbounds.order: 1\nbounds.values: 0 1\n"
        "bounds.cap: 25\n"
    )
    f = write(tmp_path, text)
    code, out, _ = run(capsys, ["search", f])
    assert code == 1
    assert "no isotropic subbundles within the bounds" in out


# ------------------------------------------------------------
# error handling and environment
# ------------------------------------------------------------


def test_missing_file(capsys):
    code, _, err = run(capsys, ["reduce-class", "/no/such/file.txt"])
    assert code == 2
    assert "error" in err


def test_parse_error(tmp_path, capsys):
    f = write(tmp_path, "E: -1\nL: 0\n")
    code, _, err = run(capsys, ["reduce-class", f])
    assert code == 2


FILE_COMMANDS = ["reduce-class", "check-structure", "subbundle", "isotropy", "search"]


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_non_utf8_file_is_a_parse_error(tmp_path, capsys, command):
    # a decoding failure is bad input (2), not the negative verdict (1)
    f = tmp_path / "problem.txt"
    f.write_bytes(RANK1_ISOTROPY.encode() + b"# \xff\n")
    code, out, err = run(capsys, [command, str(f)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "not UTF-8" in err


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_non_utf8_stdin_is_a_parse_error(capsys, monkeypatch, command):
    raw = io.TextIOWrapper(io.BytesIO(b"format: symplext/1\n\xff\n"), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", raw)
    code, out, err = run(capsys, [command, "-"])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "not UTF-8" in err


# a problem file on which every file command gives a full answer
EVERY_COMMAND = RANK1_ISOTROPY + """\
bounds.points: 0 1
bounds.order: 1
bounds.values: 0 1 -1
bounds.cap: 5
"""


@pytest.mark.parametrize("command", FILE_COMMANDS)
def test_byte_order_mark_is_ignored(tmp_path, capsys, monkeypatch, command):
    # editors on Windows start UTF-8 files with EF BB BF
    plain = write(tmp_path, EVERY_COMMAND)
    marked = tmp_path / "marked.txt"
    marked.write_bytes(b"\xef\xbb\xbf" + EVERY_COMMAND.encode())
    want = run(capsys, [command, plain])
    assert want[0] == 0 and want[1]
    assert run(capsys, [command, str(marked)]) == want
    stdin = io.TextIOWrapper(io.BytesIO(marked.read_bytes()), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    assert run(capsys, [command, "-"]) == want


def test_irrational_pole_reported(tmp_path, capsys):
    text = (
        "format: symplext/1\nE: -1\nL: 0\np: 0\n"
        "beta[1,1]: 1/(z^2 - 2)\n"
    )
    f = write(tmp_path, text)
    code, _, err = run(capsys, ["subbundle", f])
    assert code == 3
    assert "unsupported" in err


@pytest.mark.parametrize("command", ["subbundle", "isotropy"])
def test_internal_failure_exits_4(tmp_path, capsys, monkeypatch, command):
    # an internal inconsistency must not read as the negative verdict (1)
    def broken(ext, beta):
        raise InternalLiftFailure("splitting type disagrees with degree")

    monkeypatch.setattr(cli, "graph_subbundle", broken)
    f = write(tmp_path, RANK1_ISOTROPY)
    code, out, err = run(capsys, [command, f])
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: splitting type")


@pytest.mark.parametrize("kind", ["symplectic", "orthogonal"])
def test_structure_lift_with_wrong_tails_exits_4(tmp_path, capsys, monkeypatch, kind):
    # a lift that misses the tails of t(p) -+ p is caught by the support
    # check, not printed as alpha
    import symplext.forms as forms

    real = forms.lift_rational
    monkeypatch.setattr(forms, "lift_rational", lambda s: real(s.scale(3)))
    # one tail off the diagonal: t(p) - p and t(p) + p are both nonzero
    f = write(tmp_path, LARGE_POINT.replace("p[10000000000000000; 2,1]: 1\n", ""))
    code, out, err = run(capsys, ["check-structure", "--kind", kind, f])
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: lift lost principal parts")


def _lattice_runs():
    from test_golden import RUNS

    return {
        stem: argv
        for stem, argv in RUNS.items()
        if stem.endswith(".machine") and argv[0] in ("subbundle", "isotropy", "search")
    }


@pytest.mark.parametrize("stem", sorted(_lattice_runs()))
def test_commands_build_only_the_lattices_they_read(capsys, monkeypatch, stem):
    # a graph builds its chart-0 F-lattice; its chart lattices wait for a
    # read.  isotropy and search read neither; subbundle reads both through
    # regularity_check, the u-chart one costing one more module basis when
    # a condition at infinity refines it
    argv = _lattice_runs()[stem]
    calls = {
        "_graph_subbundle": 0,
        "_module_basis": 0,
        "_chart_inf_lattice": 0,
        "_refine_by_conditions": 0,
    }

    def counting(name):
        real = getattr(sb, name)

        def wrapped(*args):
            calls[name] += 1
            return real(*args)

        return wrapped

    for name in calls:
        monkeypatch.setattr(sb, name, counting(name))
    main(argv)
    out = capsys.readouterr().out
    graphs = calls["_graph_subbundle"]
    doc = parse_document(out)
    if doc.structure is False:  # no structure, so no graph
        assert graphs == 0
    elif argv[0] == "search":
        assert graphs == len(doc.results)
    else:
        assert graphs == 1
    uchart = calls["_chart_inf_lattice"]
    refined = calls["_refine_by_conditions"]
    assert calls["_module_basis"] == graphs + refined
    at_infinity = argv[0] == "subbundle" and INFINITY in doc.q.support
    assert refined == (uchart if at_infinity else 0)
    if argv[0] != "subbundle":
        assert uchart == 0
    elif doc.regular:
        assert uchart == 1
    else:  # regularity_check stops at the first chart that fails it
        assert uchart <= 1


def test_lattice_check_failing_on_first_read_exits_4(capsys, monkeypatch):
    # the lifts are checked when the lattices are first read, inside the
    # command: a failure there is still an internal error, exit 4, and
    # isotropy, which reads no lattice, runs as before
    from test_golden import EXPECTED, GOLDEN, RUNS

    def broken(f, what):
        raise InternalLiftFailure(f"{what} kept a pole; this is a bug")

    monkeypatch.setattr(sb, "_as_poly", broken)
    code, out, err = run(capsys, ["subbundle", str(GOLDEN / "graph.txt")])
    assert code == 4
    assert out == ""
    assert err == "internal error: graph chart-0 lift kept a pole; this is a bug\n"
    codes = json.loads((EXPECTED / "exit_codes.json").read_text())
    for stem in ("10-graph-isotropy", "17-qgraph-isotropy", "21-rank3-isotropy"):
        code, out, err = run(capsys, RUNS[stem])
        expected = (EXPECTED / f"{stem}.out").read_text()
        assert (code, out, err) == (codes[stem], expected, "")


@pytest.mark.parametrize("coefficient", [1, 2])
@pytest.mark.parametrize("order", [100, 10_000])
def test_search_budget_bounds_the_order(tmp_path, capsys, coefficient, order):
    # one value makes T = 1 tails per slot at any order; the unit-tail
    # reductions and the jet system of a hit (coefficient 2 has one) count
    # against MAX_SEARCH_WORK, so the bounds are refused before any work
    text = f"format: symplext/1\nE: -1\nL: 0\np[0; 1,1]: {coefficient}\n"
    f = write(tmp_path, text)
    start = time.perf_counter()
    code, out, err = run(
        capsys, ["search", "--bounds", f"points=0,1;order={order};values=1", f]
    )
    assert time.perf_counter() - start < 0.5
    assert code == 2
    assert out == ""
    assert "search bounds too large" in err


@pytest.mark.parametrize("command", ["subbundle", "isotropy"])
def test_window_option_is_gone(tmp_path, capsys, command):
    # the splitting scan covers its provable range, so there is no knob
    f = write(tmp_path, RANK1_ISOTROPY)
    with pytest.raises(SystemExit) as exc:
        main([command, f, "--window", "1"])
    assert exc.value.code == 2
    assert "--window" in capsys.readouterr().err


def test_selftest(capsys):
    code, out, _ = run(capsys, ["selftest"])
    assert code == 0
    assert "all invariant suites passed" in out


def test_selftest_fails_on_a_wrong_class_map_under_optimize():
    # python -O strips assert statements; the suites must not rely on them
    code = (
        "import sys, symplext.cli as c\n"
        "from symplext.prinparts import CohClass\n"
        "c.reduce_class = lambda p: CohClass.zero(p.src, p.dst)\n"
        "sys.exit(c.cmd_selftest(None))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAIL class reduction identities" in proc.stdout
    assert "all invariant suites passed" not in proc.stdout


def test_python_dash_m_runs_the_cli():
    golden = Path(__file__).parent / "golden"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "symplext", "reduce-class", str(golden / "ext.txt")],
        capture_output=True,
        env=env,
        timeout=300,
    )
    codes = json.loads((golden / "expected" / "exit_codes.json").read_text())
    assert proc.stdout == (golden / "expected" / "01-ext-reduce-class.out").read_bytes()
    assert proc.returncode == codes["01-ext-reduce-class"]


# a point of height 10^16: trial division for the root of its linear
# factor would take 10^8 steps
LARGE_POINT = """\
format: symplext/1
E: 0 0
L: 0
p[10000000000000000; 1,2]: 1
p[10000000000000000; 2,1]: 1
"""


@pytest.mark.parametrize(
    "argv, line",
    [
        (["check-structure", "--kind", "orthogonal"], "alpha[1,2]: (2)/(z - 10000000000000000)"),
        (["check-structure", "--kind", "symplectic"], "alpha: 0"),
        (["reduce-class"], "class: 0, coboundary: yes"),
    ],
)
def test_structure_check_at_a_point_of_large_height_ends(tmp_path, argv, line):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "symplext", *argv, write(tmp_path, LARGE_POINT)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()


# a q record beside p at that point: the graph takes q as it is, and no
# root search recovers it from beta
LARGE_POINT_Q = LARGE_POINT + "q[3; 1,2]: 2\nq[3; 2,1]: 2\n"


@pytest.mark.parametrize(
    "argv, line",
    [
        (["subbundle"], "splitting: -1 -1"),
        (["isotropy", "--kind", "symplectic"], "isotropic: yes (all three tests agree)"),
    ],
)
def test_graph_of_a_q_record_at_a_point_of_large_height_ends(tmp_path, argv, line):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "symplext", *argv, write(tmp_path, LARGE_POINT_Q)],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert time.perf_counter() - start < 10
    assert proc.returncode == 0, proc.stderr
    assert line in proc.stdout.splitlines()


# a beta in partial fractions with its pole at that point: the graph reads
# its tails off the text, and no root search looks for the pole
LARGE_POINT_BETA = LARGE_POINT + (
    "beta[1,2]: 1/(z - 10000000000000000)\n"
    "beta[2,1]: 1/(z - 10000000000000000)\n"
)


@pytest.mark.parametrize("argv", [["isotropy", "--kind", "orthogonal"], ["subbundle"]])
def test_graph_of_a_beta_at_a_point_of_large_height_ends(tmp_path, argv):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    outs = []
    for name, text in (
        ("large.txt", LARGE_POINT_BETA),
        ("three.txt", LARGE_POINT_BETA.replace("10000000000000000", "3")),
    ):
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "symplext", *argv, write(tmp_path, text, name)],
            capture_output=True,
            text=True,
            env=env,
            timeout=60,
        )
        assert time.perf_counter() - start < 10
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


# ------------------------------------------------------------
# one parser per process
# ------------------------------------------------------------


def test_shared_parser_carries_nothing_between_calls(capsys):
    # main reuses its parser: every golden case, in shuffled order and with
    # argparse errors and --help in between, must still give its own output
    from test_golden import EXPECTED, GOLDEN, RUNS

    codes = json.loads((EXPECTED / "exit_codes.json").read_text())
    rng = random.Random(20261018)
    file = str(GOLDEN / "search.txt")
    interludes = (
        (["search", file, "--machine", "--kind", "bogus"], 2),
        (["search", file, "--bounds"], 2),
        (["isotropy", "--kind", "orthogonal", "--machine", "--help"], 0),
        (["--help"], 0),
    )
    for _ in range(3):
        stems = sorted(RUNS)
        rng.shuffle(stems)
        for k, stem in enumerate(stems):
            code, out, _ = run(capsys, RUNS[stem])
            assert out.encode() == (EXPECTED / f"{stem}.out").read_bytes(), stem
            assert code == codes[stem], stem
            if k % 5 == 0:
                argv, status = rng.choice(interludes)
                with pytest.raises(SystemExit) as exc:
                    main(argv)
                assert exc.value.code == status
                capsys.readouterr()


def test_commands_are_looked_up_when_they_run(tmp_path, capsys, monkeypatch):
    f = write(tmp_path, RANK1_GENERATOR)
    assert run(capsys, ["reduce-class", f])[0] == 0
    seen = []

    def patched(args):
        seen.append(args.file)
        return 7

    monkeypatch.setattr(cli, "cmd_reduce_class", patched)
    assert run(capsys, ["reduce-class", f]) == (7, "", "")
    assert seen == [f]


def test_each_call_parses_into_a_new_namespace(tmp_path, capsys, monkeypatch):
    # argparse copies a subcommand's values over the namespace it is given,
    # so outputs alone would not show a namespace kept between calls; the
    # attributes of another command's options would
    f = write(tmp_path, RANK1_GENERATOR)
    seen = []

    def record(args):
        seen.append(args)
        return 0

    monkeypatch.setattr(cli, "cmd_search", record)
    monkeypatch.setattr(cli, "cmd_check_structure", record)
    run(capsys, ["search", f, "--bounds", "points=0", "--machine"])
    run(capsys, ["check-structure", f])
    first, second = seen
    assert first is not second
    assert vars(second) == {
        "command": "check-structure",
        "file": f,
        "kind": None,
        "machine": False,
        "func": "cmd_check_structure",
    }
