"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_bench.py

They shrink the pools, so the whole file runs in well under a minute.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gen  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    monkeypatch.setattr(gen, "POOL_FILES", {"classes": 4, "graphs": 3, "search": 2})
    monkeypatch.setattr(run, "MIN_PASSES", 1)
    monkeypatch.setattr(run, "SETUP_STARTS", 1)


def last_json(capsys):
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", gen.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_smoke_prints_every_metric_with_its_unit(small, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "11", "--seconds", "0", "--trace", str(trace)])
    lines, result = last_json(capsys)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert {m["name"]: m["unit"] for m in want} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in want:
        assert f"{m['name']}: " in "\n".join(lines)
    if trace:
        assert "self times add up to each traced op's time: yes" in lines
        assert "wrapped attributes restored: yes" in lines


def corrupt_exit_code(argv):
    from symplext import cli

    rc = cli.main(argv)
    return 1 - rc if rc in (0, 1) else rc


def corrupt_stdout(argv):
    """Print the answer with its first nonzero digit changed."""
    import contextlib
    import io

    from symplext import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    text = buf.getvalue()
    for k, ch in enumerate(text):
        if ch in "123456789" and not text[:k].endswith("["):
            text = text[:k] + str(int(ch) % 9 + 1) + text[k + 1 :]
            break
    print(text, end="")
    return rc


@pytest.mark.parametrize("corrupt", (corrupt_exit_code, corrupt_stdout))
@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_wrong_answers_count_as_failed(small, workload, corrupt):
    honest = run.Runner(workload, 11)
    bad = run.Runner(workload, 11, main=corrupt)
    ops = range(len(bad.ops))
    assert all(honest.record(k, *honest.call(k)[:3]) for k in ops)
    outcomes = [bad.record(k, *bad.call(k)[:3]) for k in ops]
    if corrupt is corrupt_exit_code:
        assert not any(outcomes)
    else:
        # a "no" verdict with no digits in it cannot be corrupted this way
        changed = [k for k in ops if honest.call(k)[1] != bad.call(k)[1]]
        assert changed and not any(outcomes[k] for k in changed)


def test_pinned_digest_mismatch_counts_as_failed(small):
    runner = run.Runner("classes", run.DEFAULT_SEED)
    rc, stdout, stderr, _ = runner.call(0)
    assert runner.record(0, rc, stdout, stderr)
    assert not runner.record(0, rc, stdout + "\n", stderr)


def test_same_seed_same_files_and_digests(small):
    for workload in gen.WORKLOADS:
        files, ops = gen.generate(workload, 5)
        again, ops_again = gen.generate(workload, 5)
        other, _ = gen.generate(workload, 6)
        assert files == again and ops == ops_again
        assert files != other
        a, b = run.Runner(workload, 5), run.Runner(workload, 5)
        for k in range(len(ops)):
            ra, rb = a.call(k), b.call(k)
            assert run.digest(ra[0], ra[1]) == run.digest(rb[0], rb[1])


def test_inputs_avoid_the_window_machinery():
    for workload in gen.WORKLOADS:
        files, ops = gen.generate(workload, run.DEFAULT_SEED)
        for text in files.values():
            assert "window" not in text and "theta" not in text
        assert not any("--window" in op.args for op in ops)


def test_generator_tails_and_classes_match_the_package():
    from symplext.bundles import RatHom
    from symplext.prinparts import prin_of, reduce_class
    from symplext.ratfield import parse_ratfunc
    from symplext.textio import parse_document

    rng = random.Random(3)
    for _ in range(100):
        t = rng.randint(-5, 1)
        f = gen.random_rat(rng, rng.sample(gen.POINT_POOL, 2), 3, 0.8, 2)
        ph = prin_of(RatHom((0,), (t,), [[parse_ratfunc(gen.rat_text(f))]]))
        theirs = {(gen.INF if pt.is_infinity else pt.value): ph.entry(pt, 0, 0) for pt in ph.support}
        assert gen.rat_tails(f, t) == theirs
    files, _ = gen.generate("classes", 2)
    for text in files.values():
        doc = parse_document(text)
        cls = reduce_class(doc.p)
        theirs = {
            ((i, j), r + 1): v for (i, j), vals in cls.data.items() for r, v in enumerate(vals) if v
        }
        system = {
            (gen.INF if pt.is_infinity else pt.value): {
                (i, j): c for i, row in enumerate(mat) for j, c in enumerate(row) if c
            }
            for pt, mat in doc.p.parts.items()
        }
        assert gen.sys_class(system, gen.twists(doc.e_frame, doc.ell)) == theirs


def test_tracer_restores_everything_and_reports_missing(small, monkeypatch):
    from symplext import cli, prinparts, ratfield

    originals = (cli.reduce_class, prinparts.reduce_class, ratfield.RatFunc.__init__)
    monkeypatch.setattr(spans, "HOT", spans.HOT + ("_linalg.bareiss", "ratfield.Poly.gone"))
    runner = run.Runner("graphs", 11)
    tracer = spans.Tracer()
    tracer.install()
    assert cli.reduce_class is prinparts.reduce_class is not originals[1]
    try:
        results = [tracer.run_op(k, runner.call, k) for k in range(len(runner.ops))]
    finally:
        tracer.uninstall()
    assert (cli.reduce_class, prinparts.reduce_class, ratfield.RatFunc.__init__) == originals
    assert tracer.leftovers() == []
    assert tracer.missing == ["_linalg.bareiss", "ratfield.Poly.gone"]
    assert all(runner.record(k, *r[:3]) for k, r in enumerate(results))
    summary = tracer.summary()
    self_total = sum(row[1] for row in summary["layers"].values())
    assert self_total == pytest.approx(summary["op_time"], rel=1e-9)
    assert summary["unaccounted_s"] < 1e-9
    assert summary["functions"]["subbundles.graph_subbundle"][0] == len(runner.ops)
