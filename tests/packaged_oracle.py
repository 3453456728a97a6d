"""Reference code for the tests: isomorphism of packaged ribbon graphs, by
brute force over the ribbon isomorphisms; the activity minor as a chain of
string-keyed packaged minors; and the activity classes read off the named
partial dual G^Q."""

from __future__ import annotations

from collections import Counter
from typing import Iterable

from ribbonpoly.packaged import (PackagedRibbonGraph, packaged_contract,
                                 packaged_delete)
from ribbonpoly.ribbon import (ActivityReport, RibbonGraph, RibbonGraphError,
                               isomorphisms, partial_dual, subset_walks,
                               trace_boundaries)


def packaged_isomorphic(p1: PackagedRibbonGraph,
                        p2: PackagedRibbonGraph) -> bool:
    if p1.graph.edges and len(p1.graph.edges) != len(p2.graph.edges):
        return False
    b2 = trace_boundaries(p2.graph)
    for iso in isomorphisms(p1.graph, p2.graph):
        if p1.vparts.relabel(iso.vertex_map).shape() != p2.vparts.shape():
            continue
        dm = iso.dart_map(p1.graph)
        by_dart = {d: c.id for c in b2 for d in c.visits}
        by_vertex = {c.vertex: c.id for c in b2 if c.vertex is not None}
        bmap = {}
        ok = True
        for comp in trace_boundaries(p1.graph):
            if comp.vertex is not None:
                bmap[comp.id] = by_vertex[iso.vertex_map[comp.vertex]]
                continue
            targets = {by_dart[dm[d]] for d in comp.visits}
            if len(targets) != 1:
                ok = False
                break
            bmap[comp.id] = targets.pop()
        if not ok:
            continue
        if p1.bparts.relabel(bmap).shape() == p2.bparts.shape():
            return True
    return False


def _quasitree_minor(pg: PackagedRibbonGraph, deleted: Iterable[str],
                     contracted: Iterable[str]) -> PackagedRibbonGraph:
    """The activity minor as a chain of string-keyed packaged minors:
    delete, then contract, each in sorted order.  The reference for the
    one-step graph and the compiled minors of the quasi-tree expansion."""
    cur = pg
    for e in sorted(deleted):
        cur = packaged_delete(cur, e)
    for e in sorted(contracted):
        cur = packaged_contract(cur, e)
    return cur


def activities_oracle(g: RibbonGraph, q: Iterable[str],
                      order: Iterable[str]) -> ActivityReport:
    """:func:`ribbonpoly.ribbon.activities` on the named partial dual G^Q:
    f kills e iff f precedes e and exactly one end of f lies between the
    two ends of e in the rotation of G^Q's one vertex."""
    qset = frozenset(q)
    order = list(order)
    if set(order) != set(g.sign) or len(order) != len(g.sign):
        raise RibbonGraphError("order must be a total order on the edges")
    unknown = qset - set(g.sign)
    if unknown:
        raise RibbonGraphError(f"unknown edge {sorted(unknown)[0]}")
    mask = sum(1 << k for k, e in enumerate(g.edges) if e in qset)
    if len(subset_walks(g.kernel, mask)) != 1:
        raise RibbonGraphError("not a quasi-tree")
    h = partial_dual(g, qset)
    if len([v for v in h.vertices if h.rotation.get(v, ())]) > 1:
        raise RibbonGraphError("quasi-tree partial dual has more than one vertex")
    rot = [end[0] for r in h.rotation.values() for end in r]
    twisted = frozenset(e for e in g.sign if h.sign[e] == -1)
    rank = {e: i for i, e in enumerate(order)}
    sets: dict[str, set[str]] = {k: set() for k in "D D* O O* N N*".split()}
    for e in g.sign:
        lo, hi = sorted(i for i, f in enumerate(rot) if f == e)
        between = Counter(rot[lo + 1:hi])
        dead = any(n == 1 and rank[f] < rank[e] for f, n in between.items())
        internal = e in qset
        if dead:
            key = "D" if internal else "D*"
        elif e in twisted:
            key = "N" if internal else "N*"
        else:
            key = "O" if internal else "O*"
        sets[key].add(e)
    return ActivityReport(frozenset(sets["D"]), frozenset(sets["D*"]),
                          frozenset(sets["O"]), frozenset(sets["O*"]),
                          frozenset(sets["N"]), frozenset(sets["N*"]), twisted)
