"""Outside-in layer tracing: spans recorded around the program's public
functions, by wrappers the benchmark installs in the program's modules.

A span's self time is its duration minus the time covered by its child
spans.  Work done only to measure (rendering delcon minors for the
distinct-minor count) is excluded from every enclosing span.  Spans stay in
memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter

# layer name -> (module, attribute path) of the wrapped function
SPANS = {
    "ribbon.trace_boundaries": ("ribbon", "trace_boundaries"),
    "ribbon.restrict": ("ribbon", "restrict"),
    "ribbon.partial_dual": ("ribbon", "partial_dual_with_map"),
    "ribbon.contract_edge": ("ribbon", "contract_edge"),
    "ribbon.dual_correspondences": ("ribbon", "dual_correspondences"),
    "ribbon.connected_components": ("ribbon", "connected_components"),
    "ribbon.enumerate_quasi_trees": ("ribbon", "enumerate_quasi_trees"),
    "ribbon.activities": ("ribbon", "activities"),
    "ribbon.certificate": ("ribbon", "certificate"),
    "packaged.quotient": ("packaged", "quotient"),
    "packaged.component_gamma_values": ("packaged", "component_gamma_values"),
    "packaged.packaged_delete": ("packaged", "packaged_delete"),
    "packaged.packaged_contract": ("packaged", "packaged_contract"),
    "packaged.build": ("packaged", "PackagedRibbonGraph.build"),
    "poly.mul": ("poly", "_PolyBase.__mul__"),
    "poly.add": ("poly", "_PolyBase.__add__"),
    "poly.substitute": ("poly", "MultiPoly.substitute"),
    "poly.canonical_text": ("poly", "_PolyBase.canonical_text"),
    "invariants.pst_state_sum": ("invariants", "pst_state_sum"),
    "invariants.pst_delcon": ("invariants", "pst_delcon"),
    "invariants.pst_quasitree": ("invariants", "pst_quasitree"),
    "invariants.cross_validate": ("invariants", "cross_validate"),
    "invariants.krushkal": ("invariants", "krushkal"),
    "invariants.surface_tutte": ("invariants", "surface_tutte"),
    "invariants.classical_tutte": ("invariants", "classical_tutte"),
    "fileformat.parse": ("fileformat", "parse"),
    "fileformat.render": ("fileformat", "render"),
    "cli.render_poly": ("cli", "render_poly"),
}
# generator functions: one span per resumption, so they have no call count
GENERATORS = {
    "invariants.corpus": ("invariants", "corpus"),
    "invariants.enumerate_connected": ("invariants", "enumerate_connected"),
}
# further methods that share a span name with one above
ALIASES = {
    "poly.mul": ("poly", "_PolyBase.__rmul__"),
    "poly.add": ("poly", "_PolyBase.__radd__"),
    "poly.substitute": ("poly", "HalfExpPoly.substitute"),
}


class Tracer:
    def __init__(self):
        self.on = False
        self.op = 0                  # id of the CLI call being traced
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        # one entry per span, in start order; parent is a span index or -1
        self.span_op, self.parent, self.name = (array("l"), array("l"),
                                                array("l"))
        self.start, self.end, self.self_time = (array("d"), array("d"),
                                                array("d"))
        self._stack: list[tuple[int, float]] = []  # (span, excluded at start)
        self._child: list[float] = []
        self._excluded = 0.0
        self.depth: Counter = Counter()
        self.calls: Counter = Counter()
        self.self_s: Counter = Counter()
        self.outer_s: Counter = Counter()  # outermost calls only (recursion)
        self.counts: Counter = Counter()   # work counts that are not spans

    def enter(self, name: str) -> None:
        if name not in self._name_id:
            self._name_id[name] = len(self.names)
            self.names.append(name)
        self.span_op.append(self.op)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.name.append(self._name_id[name])
        self.end.append(0.0)
        self.self_time.append(0.0)
        self._stack.append((len(self.start), self._excluded))
        self._child.append(0.0)
        self.depth[name] += 1
        self.start.append(perf_counter())

    def exit(self, name: str) -> None:
        end = perf_counter()
        idx, excluded = self._stack.pop()
        net = end - self.start[idx] - (self._excluded - excluded)
        own = net - self._child.pop()
        self.end[idx] = end
        self.self_time[idx] = own
        self.calls[name] += 1
        self.self_s[name] += own
        self.depth[name] -= 1
        if not self.depth[name]:
            self.outer_s[name] += net
        if self._child:
            self._child[-1] += net

    def exclude(self, seconds: float) -> None:
        self._excluded += seconds

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            self.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.exit(name)
        return wrapper

    def span_gen(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                traced = self.on
                if traced:
                    self.enter(name)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if traced:
                        self.exit(name)
                yield item
        return wrapper

    def snapshot(self) -> tuple[Counter, Counter, Counter, Counter]:
        return (Counter(self.calls), Counter(self.self_s),
                Counter(self.outer_s), Counter(self.counts))

    def write(self, path: Path) -> None:
        """All spans as gzipped TSV; times in seconds of perf_counter."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("span\top\tparent\tname\tstart_s\tend_s\tself_s\n")
            for i in range(len(self.start)):
                f.write(f"{i}\t{self.span_op[i]}\t{self.parent[i]}\t"
                        f"{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                        f"{self.end[i]:.9f}\t{self.self_time[i]:.9f}\n")


def _resolve(module: str, attr: str):
    obj = sys.modules[f"ribbonpoly.{module}"]
    *owners, name = attr.split(".")
    for o in owners:
        obj = getattr(obj, o)
    return obj, name


def install(tr: Tracer) -> None:
    """Wrap every traced function of the imported program.

    A function is replaced under every name that any program module bound
    it to, so ``restrict`` is traced whether it is called through
    ``ribbon``, ``packaged`` or ``invariants``.
    """
    modules = [m for k, m in sys.modules.items()
               if k.startswith("ribbonpoly.")]
    replaced: dict[int, tuple] = {}   # id(function) -> (function, wrapper)

    def replace(owner, name, wrapper):
        raw = owner.__dict__[name]
        if isinstance(raw, staticmethod):
            setattr(owner, name, staticmethod(wrapper(raw.__func__)))
        else:
            setattr(owner, name, wrapper(raw))
            replaced[id(raw)] = (raw, getattr(owner, name))

    for table, kind in ((SPANS, tr.span), (ALIASES, tr.span),
                        (GENERATORS, tr.span_gen)):
        for label, (module, attr) in table.items():
            owner, name = _resolve(module, attr)
            replace(owner, name, functools.partial(kind, label))

    inv = sys.modules["ribbonpoly.invariants"]
    render = sys.modules["ribbonpoly.fileformat"].__dict__["render"]
    render = getattr(render, "__wrapped__", render)

    def count_subsets(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.on:
                tr.counts["subsets"] += 1
            return fn(*args, **kwargs)
        return wrapper

    def count_graphs(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for g in fn(*args, **kwargs):
                if tr.on:
                    tr.counts["corpus_graphs"] += 1
                yield g
        return wrapper

    def count_quasitrees(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if tr.on:
                tr.counts["quasitrees"] += len(out)
                if tr.depth["invariants.pst_quasitree"]:
                    tr.counts["expansion_quasitrees"] += len(out)
            return out
        return wrapper

    minors: set = set()

    def distinct_minors(fn):
        @functools.wraps(fn)
        def wrapper(pg, *args, **kwargs):
            if not tr.on:
                return fn(pg, *args, **kwargs)
            top = not tr.depth["invariants.pst_delcon"]
            start = perf_counter()
            if top:
                minors.clear()
            minors.add(render(pg))
            tr.exclude(perf_counter() - start)
            out = fn(pg, *args, **kwargs)
            if top:
                tr.counts["delcon_distinct_minors"] += len(minors)
            return out
        return wrapper

    replace(inv, "_subset_term", count_subsets)
    replace(inv, "enumerate_connected", count_graphs)
    replace(sys.modules["ribbonpoly.ribbon"], "enumerate_quasi_trees",
            count_quasitrees)
    replace(inv, "pst_delcon", distinct_minors)

    def final(value):
        """Follow chains such as original -> span -> counter."""
        while replaced.get(id(value), (None,))[0] is value:
            value = replaced[id(value)][1]
        return value

    # rebind every other module-level name that still holds an original
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if final(value) is not value:
                setattr(mod, name, final(value))
