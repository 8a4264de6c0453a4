"""Benchmark of the symplext command line.

    python3 perfbench/run.py --workload {classes,graphs,search} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout: the package is imported from
`src/`.  The workload's problem files are generated from the seed into
`.bench_work/`, and `symplext.cli.main` runs on them in process, in a
closed loop with one caller: whole passes over the op pool, three at
least, until the ops have taken S seconds.  Every answer is checked (see checks.py),
and for the default seed the digest of each op's exit code and stdout
must match `digests.json`.

The benchmark keeps to one core.  Times are scaled to a reference speed:
the fixed kernel of reference.py runs before every op, and each time is
multiplied by reference.NOMINAL_S over the kernel's median time in the
same pass (the unscaled figures are printed too); set-up times are
scaled the same way by reference.module_load.  An op's latency is
the median of its scaled runs; ops_per_s is the pool's op count over the
sum of those latencies.

--trace 0 prints the end-to-end metrics; --trace 1 runs the first ops of
the pool (one cycle of its design) once untraced and once traced (see
spans.py), writes the spans to `.bench_work/spans-<workload>.bin` and
prints the per-layer metrics.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The lines before it report every metric with its unit in plain text.

    python3 perfbench/run.py --pin-digests

re-pins `digests.json` from the current program (after checking every
answer), for a deliberate change of output.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DIGESTS = HERE / "digests.json"
DEFAULT_SEED = 1
SETUP_STARTS = 21

MIN_PASSES = 3
# the tail percentile per workload: the highest of 99/95/90/75 that leaves
# at least 10 of the pool's ops beyond it
TAIL_PERCENTILE = {"classes": 95, "graphs": 75, "search": 75}
# ops of the traced pass: one full cycle of each pool's design
TRACE_OPS = {"classes": 162, "graphs": 48, "search": 17}


def digest(rc, stdout: str) -> str:
    return hashlib.sha256(f"{rc}\n{stdout}".encode()).hexdigest()[:16]


def ref_time() -> float:
    t0 = time.perf_counter()
    reference.kernel()
    return time.perf_counter() - t0


def measure_setup(starts: int = SETUP_STARTS) -> tuple[list[float], list[float]]:
    """(scaled, raw) times that fresh interpreters, started one after
    another, take to import symplext.cli and build its parser.  Each
    interpreter times itself, then reference.module_load on the same
    core; one untimed start first compiles the bytecode cache."""
    code = (
        "import sys, time, statistics; t0 = time.perf_counter()\n"
        "sys.path.insert(0, 'src'); import symplext.cli as c; c.build_parser()\n"
        "t = time.perf_counter() - t0; sys.path.insert(0, 'perfbench'); import reference\n"
        "reference.module_load()\n"
        "print(t, statistics.median(reference.module_load() for _ in range(5)))\n"
    )
    argv = [sys.executable, "-E", "-s", "-c", code]
    scaled, raw = [], []
    for k in range(starts + 1):
        out = subprocess.run(argv, cwd=ROOT, check=True, stdin=subprocess.DEVNULL, capture_output=True, text=True)
        t, ref = map(float, out.stdout.split())
        if k:
            raw.append(t)
            scaled.append(t * reference.SETUP_NOMINAL_S / ref)
    return scaled, raw


class Runner:
    """Runs ops in process and checks their answers."""

    def __init__(self, workload: str, seed: int, main=None):
        import gen
        from symplext import cli

        self.workload, self.seed = workload, seed
        self.files, self.ops = gen.generate(workload, seed)
        self.dir = WORK / f"{workload}-{seed}"
        self.dir.mkdir(parents=True, exist_ok=True)
        for name, text in self.files.items():
            (self.dir / name).write_text(text, encoding="utf-8")
        self.main = main or cli.main
        self.pinned = None
        if seed == DEFAULT_SEED and DIGESTS.is_file():
            self.pinned = json.loads(DIGESTS.read_text())[workload]
        self.problems: dict = {}
        self.verdicts: dict = {}
        self.failures: list[str] = []

    def call(self, k: int):
        """(exit code or None, stdout, error text, seconds) of op k."""
        op = self.ops[k]
        out, err = io.StringIO(), io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.main(op.argv(str(self.dir / op.file)))
        except (Exception, SystemExit) as exc:
            rc = None
            err.write(f"raised {type(exc).__name__}: {exc}")
        return rc, out.getvalue(), err.getvalue(), time.perf_counter() - t0

    def verdict(self, k: int, rc, stdout: str, stderr: str):
        """None if op k answered right, else why not.  A check runs once
        per distinct answer of an op."""
        import checks

        if rc is None:
            return stderr.strip() or "raised"
        d = digest(rc, stdout)
        if self.pinned is not None and self.pinned[k] != d:
            return f"digest {d} differs from the pinned {self.pinned[k]}"
        key = (k, d)
        if key not in self.verdicts:
            op = self.ops[k]
            if op.file not in self.problems:
                self.problems[op.file] = checks.Problem(self.files[op.file])
            self.verdicts[key] = checks.check(self.problems[op.file], op, rc, stdout)
        return self.verdicts[key]

    def record(self, k: int, rc, stdout, stderr) -> bool:
        why = self.verdict(k, rc, stdout, stderr)
        if why is not None:
            self.failures.append(f"op {k} ({self.ops[k].command} {self.ops[k].file}): {why}")
        return why is None

    def timed_loop(self, seconds: float) -> tuple[list[list[float]], list[float], int]:
        """At least MIN_PASSES whole passes over the pool, and more until
        the ops took `seconds`.  The reference kernel runs before every
        op.  Returns (op times per pass, the kernel's median time per
        pass, failed ops)."""
        passes, refs, failed, total = [], [], 0, 0.0
        while len(passes) < MIN_PASSES or total < seconds:
            times, pass_refs = [], []
            for k in range(len(self.ops)):
                pass_refs.append(ref_time())
                rc, stdout, stderr, dt = self.call(k)
                times.append(dt)
                failed += not self.record(k, rc, stdout, stderr)
            passes.append(times)
            refs.append(statistics.median(pass_refs))
            total += sum(times)
        return passes, refs, failed


def percentile(sorted_xs: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    idx = max(0, math.ceil(pct / 100 * len(sorted_xs)) - 1)
    return sorted_xs[idx], len(sorted_xs) - 1 - idx


def latencies(passes, scales=None) -> list[float]:
    """Each op's median over the passes, sorted; times of pass p are
    multiplied by scales[p] first."""
    scales = scales or [1.0] * len(passes)
    runs = ([t * f for t in times] for times, f in zip(passes, scales))
    return sorted(statistics.median(op) for op in zip(*runs))


def end_to_end(args) -> tuple[dict, int, int, list[str]]:
    setup, setup_raw = measure_setup()
    runner = Runner(args.workload, args.seed)
    runner.call(0)  # warm-up: lazy imports in argparse and gettext
    passes, refs, failed = runner.timed_loop(args.seconds)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # an op's latency is the median of its runs, which repeats far better
    # than one run or the fastest run on a shared machine
    best = latencies(passes, [reference.NOMINAL_S / r for r in refs])
    raw = latencies(passes)
    attempted = sum(len(times) for times in passes)
    pct = TAIL_PERCENTILE[args.workload]
    tail, beyond = percentile(best, pct)
    metrics = {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(best) / sum(best),
        "latency_p50_ms": statistics.median(best) * 1000,
        "latency_tail_ms": tail * 1000,
        "peak_rss_mib": rss_mib,
    }
    notes = [
        f"setup_s: median of {len(setup)} fresh interpreters",
        f"latency: median of {len(passes)} runs of each of {len(best)} ops",
        f"latency_tail_ms: p{pct} of {len(best)} ops, {beyond} beyond it",
        f"fail_ratio: {failed / attempted:.6f} ratio ({failed} of {attempted} ops)",
        f"times scaled to a {reference.NOMINAL_S * 1000:g} ms reference kernel;"
        f" it took {statistics.median(refs) * 1000:.4f} ms here",
        f"unscaled: setup_s {statistics.median(setup_raw):.4f} s,"
        f" ops_per_s {len(raw) / sum(raw):.4f} 1/s,"
        f" latency_p50_ms {statistics.median(raw) * 1000:.4f} ms,"
        f" latency_tail_ms {percentile(raw, pct)[0] * 1000:.4f} ms",
    ]
    return metrics, attempted, failed, notes + runner.failures[:20]


def per_layer(args) -> tuple[dict, int, int, list[str], bool]:
    import spans

    runner = Runner(args.workload, args.seed)
    runner.call(0)
    ops = range(min(TRACE_OPS[args.workload], len(runner.ops)))
    plain = [runner.call(k) for k in ops]
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = [tracer.run_op(k, runner.call, k) for k in ops]
    finally:
        tracer.uninstall()
    restored = not tracer.leftovers()
    failed = 0
    for results in (plain, traced):
        for k, (rc, stdout, stderr, _) in zip(ops, results):
            failed += not runner.record(k, rc, stdout, stderr)
    summary = tracer.summary()
    plain_s = sum(r[3] for r in plain)
    traced_s = sum(r[3] for r in traced)
    # float rounding only: the self times of an op's spans tile its time
    accounted = summary["unaccounted_s"] <= 1e-9

    metrics: dict = {}
    funcs, layers, counters = summary["functions"], summary["layers"], tracer.counters
    for module, layer in spans.LAYERS.items():
        calls, self_s, errors = layers.get(layer, (0, 0.0, 0))
        metrics[f"{layer}.calls"] = calls
        metrics[f"{layer}.self_s"] = self_s
        metrics[f"{layer}.errors"] = errors
    for dotted in spans.HOT:
        name = spans.metric_name(dotted)
        calls, total, self_s, _ = funcs.get(name, (0, 0.0, 0.0, 0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.total_s"] = total
        metrics[f"{name}.self_s"] = self_s
    metrics["linalg.cells"] = counters["linalg.cells"]
    metrics["textio.bytes_in"] = counters["textio.bytes_in"]
    metrics["textio.bytes_out"] = counters["textio.bytes_out"]
    checked = counters["forms.structure_checks"]
    metrics["forms.structure_found_ratio"] = counters["forms.structure_found"] / checked if checked else 0.0
    searches = [k for k in ops if runner.ops[k].command == "search"]
    space = sum(runner.ops[k].expect["space"] for k in searches)
    hits = sum(len(runner.ops[k].expect["hits"]) for k in searches)
    nested = tracer.nested_calls("subbundles.search_lagrangian")
    metrics["search.space"] = space
    metrics["search.hits"] = hits
    metrics["search.hit_ratio"] = hits / space if space else 0.0
    metrics["search.reduce_class_per_candidate"] = (
        nested["prinparts.reduce_class"] / space if space else 0.0
    )
    metrics["search.graphs_per_hit"] = nested["subbundles.graph_subbundle"] / hits if hits else 0.0
    metrics["trace.overhead_ratio"] = traced_s / plain_s

    out = WORK / f"spans-{args.workload}.bin"  # the last traced run only
    tracer.dump(out)
    shares = sorted(summary["under_share"].items(), key=lambda kv: -kv[1])
    notes = [
        f"traced {len(ops)} ops: {summary['spans']} spans written to {out.relative_to(ROOT)}",
        "share of traced op time under each layer: "
        + ", ".join(f"{k} {v:.3f}" for k, v in shares),
        "share under listed functions: "
        + ", ".join(
            f"{spans.metric_name(d)} {funcs[spans.metric_name(d)][1] / summary['op_time']:.3f}"
            for d in ("prinparts.reduce_class", "cli.build_parser", "_linalg.rank", "subbundles.graph_subbundle")
            if spans.metric_name(d) in funcs
        ),
        f"self times add up to each traced op's time: {'yes' if accounted else 'NO'}",
        f"wrapped attributes restored: {'yes' if restored else 'NO'}",
        f"missing listed functions: {', '.join(tracer.missing) or 'none'}",
    ]
    return metrics, 2 * len(ops), failed, notes + runner.failures[:20], accounted and restored


def pin_digests() -> int:
    out = {}
    for workload in ("classes", "graphs", "search"):
        runner = Runner(workload, DEFAULT_SEED)
        runner.pinned = None
        row = []
        for k in range(len(runner.ops)):
            rc, stdout, stderr, _ = runner.call(k)
            if not runner.record(k, rc, stdout, stderr):
                print("\n".join(runner.failures), file=sys.stderr)
                return 1
            row.append(digest(rc, stdout))
        out[workload] = row
    DIGESTS.write_text(json.dumps(out, indent=0) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("classes", "graphs", "search"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin-digests", action="store_true")
    args = ap.parse_args(argv)
    # one core for the benchmark and the interpreters it starts, so the
    # reference kernel gauges the core the ops run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if not (SRC / "symplext" / "cli.py").is_file():
        print(f"error: no package source at {SRC / 'symplext'}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.pin_digests:
        return pin_digests()
    if args.workload is None:
        ap.error("--workload is required")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if args.trace:
        metrics, attempted, failed, notes, ok = per_layer(args)
    else:
        (metrics, attempted, failed, notes), ok = end_to_end(args), True
    for note in notes:
        print(note)
    for name, value in metrics.items():
        print(f"{name}: {value} {units[name]}")
    print(
        json.dumps(
            {
                "correct": ok and failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
