"""Reference code for the tests: isomorphism of packaged ribbon graphs, by
brute force over the ribbon isomorphisms, and the activity minor as a chain
of string-keyed packaged minors."""

from __future__ import annotations

from typing import Iterable

from ribbonpoly.packaged import (PackagedRibbonGraph, packaged_contract,
                                 packaged_delete)
from ribbonpoly.ribbon import isomorphisms, trace_boundaries


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
