"""Golden corpus: CLI output on fixed problem files, byte for byte.

Each case runs one command on a file under tests/golden/, once with the
human summary and once with --machine, and compares stdout and the exit
code with what is stored in tests/golden/expected/.  After a deliberate
change of output, regenerate with

    PYTHONPATH=src python3 tests/test_golden.py --write

and say in CHANGES.md which outputs changed and why.
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from symplext.cli import main

GOLDEN = pathlib.Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected"

# (problem file, command, extra arguments)
CASES = (
    ("ext.txt", "reduce-class", ()),
    ("ext.txt", "check-structure", ()),
    ("ext.txt", "isotropy", ()),
    ("ext.txt", "search", ()),
    ("sym.txt", "reduce-class", ()),
    ("sym.txt", "check-structure", ()),
    ("graph.txt", "reduce-class", ()),
    ("graph.txt", "check-structure", ()),
    ("graph.txt", "subbundle", ()),
    ("graph.txt", "isotropy", ("--kind", "symplectic")),
    ("search.txt", "reduce-class", ()),
    ("search.txt", "check-structure", ()),
    ("search.txt", "search", ()),
    ("search.txt", "search", ("--bounds", "points=0,1,inf;order=2;values=0,1;cap=3")),
    ("qgraph.txt", "reduce-class", ()),
    ("qgraph.txt", "subbundle", ()),
    ("qgraph.txt", "isotropy", ()),
    ("rank3.txt", "reduce-class", ()),
    ("rank3.txt", "check-structure", ()),
    ("rank3.txt", "subbundle", ()),
    ("rank3.txt", "isotropy", ()),
    ("ortho.txt", "reduce-class", ()),
    ("ortho.txt", "check-structure", ()),
    ("ortho.txt", "check-structure", ("--kind", "symplectic")),
    ("ortho.txt", "search", ()),
    # the README search case: the cap cuts its hits off early in the walk
    ("readme.txt", "search", ("--bounds", "points=0,1,inf;order=2;values=0,1,-1;cap=25")),
)


def _runs():
    for k, (name, command, extra) in enumerate(CASES, 1):
        for machine in (False, True):
            argv = [command, str(GOLDEN / name), *extra]
            if machine:
                argv.append("--machine")
            stem = f"{k:02d}-{name[:-4]}-{command}" + (".machine" if machine else "")
            yield stem, argv


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue().encode("utf-8")


RUNS = dict(_runs())


@pytest.fixture(scope="module")
def exit_codes():
    return json.loads((EXPECTED / "exit_codes.json").read_text())


@pytest.mark.parametrize("stem", sorted(RUNS))
def test_golden_output(stem, exit_codes):
    code, out = _run(RUNS[stem])
    assert out == (EXPECTED / f"{stem}.out").read_bytes()
    assert code == exit_codes[stem]


def _write():
    EXPECTED.mkdir(exist_ok=True)
    codes = {}
    for stem, argv in RUNS.items():
        code, out = _run(argv)
        (EXPECTED / f"{stem}.out").write_bytes(out)
        codes[stem] = code
    (EXPECTED / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_golden.py --write")
    _write()
