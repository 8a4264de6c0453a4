"""Layer tracer that wraps the package's functions from outside.

`Tracer.install` replaces every public function of each layer module, and
every public method of the classes a layer defines, by a wrapper that
records a span: name, start, end, parent span and op id.  Spans are kept
in flat arrays in memory and written out once by `Tracer.dump`.
`Tracer.uninstall` puts every original attribute back.  The package's
source is never edited.

A span's self time is its duration minus the durations of its child
spans, so the self times of one op's spans, the benchmark's own root span
included, add up to the op's traced time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array
from collections import Counter, defaultdict
from pathlib import Path

# module name -> the layer name used in metric names (names start with a
# letter, so `_linalg` reports as `linalg`)
LAYERS = {
    "cli": "cli",
    "textio": "textio",
    "forms": "forms",
    "subbundles": "subbundles",
    "prinparts": "prinparts",
    "bundles": "bundles",
    "_linalg": "linalg",
    "ratfield": "ratfield",
}

# functions with their own metrics; dunders are wrapped only when listed
HOT = (
    "cli.build_parser",
    "textio.parse_document",
    "textio.serialize_document",
    "forms.check_symplectic",
    "forms.check_orthogonal",
    "prinparts.reduce_class",
    "prinparts.lift_rational",
    "prinparts.cocycle_of",
    "prinparts.prin_of",
    "prinparts.prin_length",
    "subbundles.graph_subbundle",
    "subbundles.regularity_check",
    "subbundles.isotropy_direct",
    "subbundles.search_lagrangian",
    "bundles.RatHom.apply",
    "bundles.transpose_hom",
    "_linalg.rref",
    "_linalg.rank",
    "_linalg.nullspace",
    "_linalg.poly_hnf",
    "ratfield.Poly.gcd",
    "ratfield.Poly.__divmod__",
    "ratfield.RatFunc.__init__",
    "ratfield.RatFunc.finite_poles",
)

ROOT = "bench.op"


def metric_name(dotted: str) -> str:
    module, _, rest = dotted.partition(".")
    return f"{LAYERS[module]}.{rest}"


def _cells(args) -> int:
    """rows x columns of a matrix argument (a list of rows or columns)."""
    if args and isinstance(args[0], (list, tuple)) and args[0]:
        first = args[0][0]
        if isinstance(first, (list, tuple)):
            return len(args[0]) * len(first)
    return 0


class Tracer:
    def __init__(self, package: str = "symplext"):
        self.package = package
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self.stack = [-1]
        self.op_id = -1
        self.counters: Counter = Counter()
        self.patches: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self._ids: dict[str, int] = {}

    # ---------------- spans ----------------

    def _name_id(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
            self.layer_of.append(label.split(".", 1)[0])
        return self._ids[label]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.op.append(self.op_id)
        self.end.append(0.0)
        self.raised.append(0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        self.end[idx] = time.perf_counter()
        self.raised[idx] = raised
        self.stack.pop()

    def run_op(self, op_id: int, fn, *args):
        """Call fn(*args) as op `op_id` under a root span."""
        self.op_id = op_id
        idx = self._open(self._name_id(ROOT))
        try:
            return fn(*args)
        finally:
            self._close(idx, False)
            self.op_id = -1

    def _wrap(self, fn, label: str, hook=None):
        nid = self._name_id(label)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(idx, True)
                raise
            tracer._close(idx, False)
            if hook is not None:
                hook(tracer, idx, args, result)
            return result

        functools.update_wrapper(traced, fn)
        traced.bench_traced = True
        return traced

    # ---------------- counters at layer boundaries ----------------

    def _hook_for(self, module: str, attr: str):
        if module == "_linalg":
            return _count_cells
        if (module, attr) == ("textio", "parse_document"):
            return lambda t, i, args, res: t.counters.update({"textio.bytes_in": len(args[0].encode())})
        if (module, attr) == ("textio", "serialize_document"):
            return lambda t, i, args, res: t.counters.update({"textio.bytes_out": len(res.encode())})
        if module == "forms" and attr in ("check_symplectic", "check_orthogonal"):
            return _count_structure
        return None

    # ---------------- patching ----------------

    def _modules(self):
        return [m for n, m in list(sys.modules.items()) if n == self.package or n.startswith(self.package + ".")]

    def _set(self, owner, attr: str, value) -> None:
        self.patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function and method of the layer modules,
        plus the listed hot dunders; record listed names that are gone."""
        replaced: dict[int, tuple] = {}
        seen_classes: set = set()
        for module in LAYERS:
            mod = importlib.import_module(f"{self.package}.{module}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    label = f"{LAYERS[module]}.{attr}"
                    replaced[id(obj)] = (obj, self._wrap(obj, label, self._hook_for(module, attr)))
                elif inspect.isclass(obj):
                    for klass in obj.__mro__:
                        if klass.__module__ == mod.__name__ and klass not in seen_classes:
                            seen_classes.add(klass)
                            self._wrap_class(klass, module)
        for mod in self._modules():
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        for dotted in HOT:
            self._wrap_hot(dotted)

    def _wrap_class(self, klass, module: str, only: str | None = None) -> None:
        for attr, raw in list(vars(klass).items()):
            if only is None and attr.startswith("_"):
                continue
            if only is not None and attr != only:
                continue
            label = f"{LAYERS[module]}.{klass.__name__}.{attr}"
            if isinstance(raw, staticmethod):
                self._set(klass, attr, staticmethod(self._wrap(raw.__func__, label)))
            elif isinstance(raw, classmethod):
                self._set(klass, attr, classmethod(self._wrap(raw.__func__, label)))
            elif inspect.isfunction(raw):
                self._set(klass, attr, self._wrap(raw, label))

    def _wrap_hot(self, dotted: str) -> None:
        module, *path = dotted.split(".")
        label = metric_name(dotted)
        if label in self._ids:
            return
        obj = sys.modules.get(f"{self.package}.{module}")
        for part in path[:-1]:
            obj = getattr(obj, part, None)
        if inspect.isclass(obj) and path[-1] in vars(obj):
            self._wrap_class(obj, module, only=path[-1])
        if label not in self._ids:
            self.missing.append(dotted)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()

    def leftovers(self) -> list[str]:
        """Attributes of the package that still hold a wrapper."""
        out = []
        for mod in self._modules():
            owners = [mod] + [c for c in vars(mod).values() if inspect.isclass(c)]
            for owner in owners:
                for attr, obj in list(vars(owner).items()):
                    fn = getattr(obj, "__func__", obj)
                    if getattr(fn, "bench_traced", False):
                        out.append(f"{owner.__name__}.{attr}")
        return out

    # ---------------- results ----------------

    def summary(self) -> dict:
        """Per-name and per-layer calls, total, self and errors, the
        traced op time, the largest gap of any op between its time and
        the self times of its spans, and shares of the traced op time."""
        n = len(self.start)
        names, layer_of = self.names, self.layer_of
        name, parent, start, end = self.name, self.parent, self.start, self.end
        dur = array("d", (end[i] - start[i] for i in range(n)))
        child = array("d", bytes(8 * n))
        # ancestors' layers as a bit set, to find the outermost span of a layer
        layer_bit = {layer: 1 << k for k, layer in enumerate(sorted(set(layer_of)))}
        above = array("q", bytes(8 * n))
        by_name = defaultdict(lambda: [0, 0.0, 0.0, 0])  # calls, total, self, errors
        under = Counter()
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
                above[i] = above[p] | layer_bit[layer_of[name[p]]]
        op_time = 0.0
        gap = Counter()  # per op: its root duration minus its spans' self times
        for i in range(n):
            label = names[name[i]]
            row = by_name[label]
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - child[i]
            row[3] += self.raised[i]
            gap[self.op[i]] -= dur[i] - child[i]
            bit = layer_bit[layer_of[name[i]]]
            if not above[i] & bit:
                under[layer_of[name[i]]] += dur[i]
                if label == ROOT:
                    op_time += dur[i]
                    gap[self.op[i]] += dur[i]
        layers = defaultdict(lambda: [0, 0.0, 0])  # calls, self, errors
        for label, (calls, _, self_s, errors) in by_name.items():
            row = layers[label.split(".", 1)[0]]
            row[0] += calls
            row[1] += self_s
            row[2] += errors
        return {
            "functions": dict(by_name),
            "layers": dict(layers),
            "op_time": op_time,
            "unaccounted_s": max(map(abs, gap.values()), default=0.0),
            "under_share": {k: v / op_time for k, v in under.items()} if op_time else {},
            "spans": n,
        }

    def nested_calls(self, outer: str) -> Counter:
        """Calls per name made inside a span named `outer`."""
        n = len(self.start)
        oid = self._ids.get(outer)
        inside = array("b", bytes(n))
        out: Counter = Counter()
        if oid is None:
            return out
        for i in range(n):
            p = self.parent[i]
            if p >= 0 and (inside[p] or self.name[p] == oid):
                inside[i] = 1
                out[self.names[self.name[i]]] += 1
        return out

    def dump(self, path: Path) -> None:
        """Write the spans: a JSON header naming the arrays, then the raw
        arrays in that order (machine byte order)."""
        arrays = ("name", "parent", "op", "start", "end", "raised")
        header = {
            "names": self.names,
            "arrays": {a: getattr(self, a).typecode for a in arrays},
            "count": len(self.start),
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as handle:
            blob = json.dumps(header).encode()
            handle.write(len(blob).to_bytes(8, "little"))
            handle.write(blob)
            for a in arrays:
                getattr(self, a).tofile(handle)


def _count_cells(tracer: Tracer, idx: int, args, result) -> None:
    # only the outermost elimination call, so nested calls count once
    p = tracer.parent[idx]
    if p < 0 or tracer.layer_of[tracer.name[p]] != "linalg":
        tracer.counters["linalg.cells"] += _cells(args)


def _count_structure(tracer: Tracer, idx: int, args, result) -> None:
    tracer.counters["forms.structure_checks"] += 1
    tracer.counters["forms.structure_found"] += result is not None
