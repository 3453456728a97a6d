"""Output checks made apart from the program.

Each check reads the exponents from the `--format structured` term records
and compares them with networkx Tutte polynomials or with properties every
correct output has: agreement of the three methods, coefficient sums of
2^m, the x/y swap under duality and pairwise non-isomorphism of the corpus.
A check returns, per call, ``None`` or the reason the call's output is wrong.
"""

from __future__ import annotations

import json
from collections import Counter
from math import comb
from pathlib import Path

import networkx as nx
import sympy

import rg

X, Y = sympy.Symbol("x"), sympy.Symbol("y")


def tutte(nodes, edges) -> dict[tuple[int, int], int]:
    """networkx's Tutte polynomial of a multigraph, as {(i, j): coeff}."""
    g = nx.MultiGraph()
    g.add_nodes_from(nodes)
    g.add_edges_from(edges)
    poly = sympy.Poly(nx.tutte_polynomial(g), X, Y)
    return {k: int(c) for k, c in poly.as_dict().items()}


def tutte_at_2(t: dict) -> dict[int, int]:
    """T(2, s + 1) as {power of s: coeff}."""
    out: Counter = Counter()
    for (i, j), c in t.items():
        for k in range(j + 1):
            out[k] += c * 2 ** i * comb(j, k)
    return {k: c for k, c in out.items() if c}


def _collect(pairs) -> dict:
    out: Counter = Counter()
    for k, c in pairs:
        out[k] += c
    return {k: c for k, c in out.items() if c}


def quotient(g: rg.Graph) -> tuple[list, list]:
    """Quotient multigraph of the vertex blocks, loops included."""
    blocks = g.vblocks or tuple((frozenset([v]), 0) for v in g.rotation)
    of = {v: i for i, (members, _) in enumerate(blocks) for v in members}
    return (list(range(len(blocks))),
            [(of[u], of[w]) for u, w in g.endpoints().values()])


def _terms(doc: dict) -> dict:
    return {(t["x"], t["y"], tuple(sorted(t["x_gamma"].items())),
             tuple(sorted(t["y_gamma"].items()))): t["coeff"]
            for t in doc["terms"]}


def _doc(rc, out: str) -> tuple[dict | None, str | None]:
    """The structured output of a call, or why there is none."""
    if rc != 0:
        return None, f"exit code {rc}"
    try:
        return json.loads(out), None
    except json.JSONDecodeError:
        return None, "output is not JSON"


def compute_large(calls, inputs, invoke, work: Path) -> list:
    """Calls come three per input: statesum, delcon, quasitree."""
    reasons: list = [None] * len(calls)
    for k, inp in enumerate(inputs):
        group = range(3 * k, 3 * k + 3)
        g = rg.parse(inp.path.read_text())
        rc, dual_text = invoke(["dual", str(inp.path)])
        if rc != 0:
            for i in group:
                reasons[i] = f"{inp.name}: `dual` exited {rc}"
            continue
        dual_path = work / f"{inp.name}.dual.rg"
        dual_path.write_text(dual_text)
        want_y = tutte_at_2(tutte(*quotient(g)))
        want_x = tutte_at_2(tutte(*quotient(rg.parse(dual_text))))
        docs = {}
        for i in group:
            doc, why = _doc(calls[i].rc, calls[i].out)
            if doc is None:
                reasons[i] = why
                continue
            docs[i] = doc
            coeffs = [t["coeff"] for t in doc["terms"]]
            if min(coeffs, default=0) <= 0 or sum(coeffs) != 2 ** inp.edges:
                why = "coefficients not positive or not summing to 2^m"
            elif _collect((t["y"], t["coeff"]) for t in doc["terms"]) \
                    != want_y:
                why = "x = x_g = y_g = 1 differs from networkx T_Q(2, y+1)"
            elif _collect((t["x"], t["coeff"]) for t in doc["terms"]) \
                    != want_x:
                why = "y = x_g = y_g = 1 differs from networkx T_Q*(2, x+1)"
            reasons[i] = why
        texts = Counter(d["polynomial"] for d in docs.values())
        if texts:
            majority, votes = texts.most_common(1)[0]
            for i, d in docs.items():
                if reasons[i] is None and (d["polynomial"] != majority
                                           or votes < 2):
                    reasons[i] = "the three methods disagree"
        first = 3 * k
        if first in docs and reasons[first] is None:
            dual_doc, _ = _doc(*invoke(["compute", str(dual_path), "--method",
                                        "statesum", "--format",
                                        "structured"]))
            swapped = {(y, x, yg, xg): c for (x, y, xg, yg), c
                       in _terms(docs[first]).items()}
            if dual_doc is None or _terms(dual_doc) != swapped:
                reasons[first] = "state sum of the dual is not the x/y swap"
        for i in group:
            reasons[i] = reasons[i] and f"{inp.name}: {reasons[i]}"
    return reasons


def specialize(calls, inputs) -> list:
    """Calls come three per input: krushkal, surface-tutte, classical-tutte."""
    from ribbonpoly.invariants import krushkal_quasitree
    from ribbonpoly.ribbon import RibbonGraph

    reasons: list = [None] * len(calls)
    for k, inp in enumerate(inputs):
        g = rg.parse(inp.path.read_text())
        want = tutte(list(g.rotation), list(g.endpoints().values()))
        kr, st, ct = (3 * k + j for j in range(3))
        docs = {}
        for i in (kr, st, ct):
            docs[i], reasons[i] = _doc(calls[i].rc, calls[i].out)
        if docs[kr] is not None:
            terms = docs[kr]["terms"]
            program = RibbonGraph.build(list(g.rotation), g.rotation, g.sign)
            if sum(t["coeff"] for t in terms) != 2 ** inp.edges:
                reasons[kr] = "coefficients do not sum to 2^m"
            elif rg.euler_genus(g) == 0 and _plane_image(terms) != want:
                reasons[kr] = ("plane instance does not map to the networkx "
                               "Tutte polynomial")
            elif krushkal_quasitree(program, g.edges).canonical_text() \
                    != docs[kr]["polynomial"]:
                reasons[kr] = "krushkal_quasitree disagrees"
        if docs[st] is not None:
            terms = docs[st]["terms"]
            if sum(t["coeff"] for t in terms) != 2 ** inp.edges:
                reasons[st] = "coefficients do not sum to 2^m"
            elif _collect((t["y"], t["coeff"]) for t in terms) \
                    != tutte_at_2(want):
                reasons[st] = ("x = x_g = y_g = 1 differs from networkx "
                               "T(2, y+1)")
        if docs[ct] is not None and _collect(
                ((t["x"], t["y"]), t["coeff"]) for t in docs[ct]["terms"]) \
                != want:
            reasons[ct] = "differs from networkx tutte_polynomial"
        for i in (kr, st, ct):
            reasons[i] = reasons[i] and f"{inp.name}: {reasons[i]}"
    return reasons


def _plane_image(terms) -> dict:
    """alpha -> x - 1, beta -> y - 1, a = b = 1."""
    out: Counter = Counter()
    for t in terms:
        al, be = t["alpha"], t["beta"]
        for i in range(al + 1):
            for j in range(be + 1):
                out[(i, j)] += (t["coeff"] * comb(al, i) * comb(be, j)
                                * (-1) ** (al - i + be - j))
    return {k: c for k, c in out.items() if c}


def corpus_sweep(calls, files: list[Path], per_graph: int,
                 max_edges: int, max_vertices: int) -> list:
    """Call 0 is `corpus`; the rest validate its files in order."""
    from ribbonpoly.ribbon import RibbonGraph, isomorphisms

    reasons: list = [None] * len(calls)
    for i, call in enumerate(calls[1:], start=1):
        if call.rc != 0 or "equal: True  shape-checks: True" not in call.out:
            reasons[i] = f"{call.label}: validate failed (exit {call.rc})"
    if calls[0].rc != 0:
        reasons[0] = f"corpus exited {calls[0].rc}"
        return reasons
    texts = [f.read_text() for f in files]
    if not texts or len(texts) % per_graph:
        reasons[0] = f"{len(texts)} instances, not a multiple of {per_graph}"
        return reasons
    buckets: dict = {}
    for k in range(0, len(texts), per_graph):
        graph_lines = {"\n".join(line for line in t.splitlines()
                                 if not line.startswith(("vblock", "bblock")))
                       for t in texts[k:k + per_graph]}
        g = rg.parse(texts[k])
        ends = list(g.endpoints().values())
        if len(graph_lines) != 1:
            reasons[0] = f"instances {k}..{k + per_graph - 1} differ in graph"
        elif rg.components(g.rotation, ends) != 1:
            reasons[0] = f"instance {k} is not connected"
        elif len(g.sign) > max_edges or len(g.rotation) > max_vertices:
            reasons[0] = f"instance {k} exceeds the size bounds"
        key = (len(g.rotation), len(g.sign),
               rg.Flags(g).boundaries((1 << len(g.sign)) - 1),
               rg.euler_genus(g), tuple(sorted(map(len, g.rotation.values()))))
        buckets.setdefault(key, []).append(
            RibbonGraph.build(list(g.rotation), g.rotation, g.sign))
    for group in buckets.values():
        for a in range(len(group)):
            for b in range(a + 1, len(group)):
                if next(isomorphisms(group[a], group[b]), None) is not None:
                    reasons[0] = "two emitted graphs are isomorphic"
    return reasons
