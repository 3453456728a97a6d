"""The one-step activity minor graph against the chain of string minors,
the (B, A) memo of ``cross_validate`` (B is an activity minor's deleted
part, A its contracted part), and its one compile per call and one walk of
G^Q per quasi-tree."""

from __future__ import annotations

from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ribbonpoly import invariants, ribbon
from ribbonpoly.packaged import Minor
from ribbonpoly.invariants import cross_validate, pst_quasitree
from ribbonpoly.poly import MultiPoly
from ribbonpoly.ribbon import (RibbonGraph, activities, connected_components,
                               counts, enumerate_quasi_trees, orientable)
from packaged_oracle import (_minor_graph, _quasitree_minor, _quasitree_terms,
                             classify_edge, contracted_part, deleted_part)
from strategies import ribbon_graphs
from test_caches import random_packaging


def shape(g: RibbonGraph) -> tuple:
    """The edges, each edge's kind, (v, e, k, b) and orientability."""
    return (set(g.sign), {e: classify_edge(g, e) for e in g.sign},
            counts(g), orientable(g))


@settings(max_examples=150, deadline=None)
@given(ribbon_graphs(max_edges=6), st.integers(0, 2 ** 16), st.data())
def test_one_step_minor_graph_matches_chain(g, seed, data):
    """On any disjoint deleted and contracted sets, disconnected graphs and
    isolated vertices included; on a connected draw also on every
    quasi-tree's parts under a random order."""
    pg = random_packaging(g, seed)
    roles = data.draw(st.lists(st.sampled_from("dck"), min_size=len(g.sign),
                               max_size=len(g.sign)))
    parts = [({e for e, r in zip(g.edges, roles) if r == "d"},
              {e for e, r in zip(g.edges, roles) if r == "c"})]
    if len(connected_components(g)) == 1:
        order = data.draw(st.permutations(g.edges))
        for q in enumerate_quasi_trees(g):
            act = activities(g, q, order)
            parts.append((deleted_part(act), contracted_part(act)))
    for deleted, contracted in parts:
        assert (shape(_minor_graph(g, deleted, contracted))
                == shape(_quasitree_minor(pg, deleted, contracted).graph))


@settings(max_examples=60, deadline=None)
@given(ribbon_graphs(max_edges=5), st.integers(0, 2 ** 16), st.data())
def test_cross_validate_evaluates_each_minor_once(g, seed, data):
    """Three orders make one ``_minor_poly`` call per distinct (B, A), and
    each order's expansion is still the sum of its quasi-trees' terms."""
    assume(len(connected_components(g)) == 1)
    pg = random_packaging(g, seed)
    orders = [tuple(data.draw(st.permutations(g.edges))) for _ in range(3)]
    quasi_trees = enumerate_quasi_trees(g)
    keys = {(deleted_part(act), contracted_part(act))
            for order in orders for q in quasi_trees
            for act in [activities(g, q, order)]}
    real = invariants._minor_poly
    calls = []

    def counted(m):
        calls.append(m)
        return real(m)

    invariants._minor_poly = counted
    try:
        rep = cross_validate(pg, orders)
    finally:
        invariants._minor_poly = real
    assert len(calls) == len(keys)
    assert rep.equal and rep.shape_checks_passed
    for order in orders:
        terms = list(_quasitree_terms(pg, list(order), quasi_trees))
        assert all(pre == minor.xy for _, _, pre, minor in terms)
        assert rep.quasitree[order] == MultiPoly.sum(
            real(minor) for _, _, _, minor in terms)
        assert rep.quasitree[order] == pst_quasitree(pg, order)


@settings(max_examples=40, deadline=None)
@given(ribbon_graphs(max_edges=5), st.integers(0, 2 ** 16), st.data())
def test_cross_validate_compiles_once_and_walks_each_quasi_tree_once(
        g, seed, data):
    """Three orders make one ``Minor.compile`` call and one
    ``quasi_tree_vertex`` walk per quasi-tree, not one per (quasi-tree,
    order); a disconnected graph walks none."""
    pg = random_packaging(g, seed)
    orders = [tuple(data.draw(st.permutations(g.edges))) for _ in range(3)]
    connected = len(connected_components(g)) == 1
    compiles = mock.Mock(wraps=Minor.compile)
    walks = mock.Mock(wraps=ribbon.quasi_tree_vertex)
    with mock.patch.object(Minor, "compile", compiles), \
            mock.patch.object(invariants, "quasi_tree_vertex", walks):
        rep = cross_validate(pg, orders)
    assert compiles.call_count == 1
    assert walks.call_count == (len(enumerate_quasi_trees(g)) if connected
                                else 0)
    assert rep.equal and rep.shape_checks_passed
