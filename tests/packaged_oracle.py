"""Isomorphism of packaged ribbon graphs, by brute force over the ribbon
isomorphisms: an independent oracle for the tests."""

from __future__ import annotations

from ribbonpoly.packaged import PackagedRibbonGraph
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
