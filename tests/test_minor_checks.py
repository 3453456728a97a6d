"""What the quasi-tree expansion reads off a compiled activity minor G/A∖B,
against the string-graph references in ``packaged_oracle``: the connected
components and the split verdicts of its shape check against
``classify_edge`` on the minor's ribbon graph, its x/y prefactor against
the packaging nullities, and the four-variable expansion against its
Butler form on restricted string graphs, in sum and quasi-tree by
quasi-tree: the paper's recovery of Krushkal's expansion from the packaged
one."""

from __future__ import annotations

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ribbonpoly.invariants import (_krushkal_image, _minor_poly,
                                   _quasitree_walk, krushkal_quasitree)
from ribbonpoly.packaged import Minor, PackagedRibbonGraph
from ribbonpoly.ribbon import connected_components
from packaged_oracle import (EdgeKind, _activity_terms, _minor_graph,
                             classify_edge, krushkal_quasitree_oracle,
                             krushkal_quasitree_terms, nullity,
                             restricted_packagings)
from strategies import ribbon_graphs
from test_caches import random_packaging


@st.composite
def minor_parts(draw):
    """A graph of up to 6 edges, disconnected graphs and isolated vertices
    included, with a random packaging, and disjoint deleted and contracted
    parts (B, A)."""
    g = draw(ribbon_graphs(max_edges=6, max_vertices=4))
    pg = random_packaging(g, draw(st.integers(0, 2 ** 16)))
    roles = draw(st.lists(st.sampled_from("dck"), min_size=len(g.sign),
                          max_size=len(g.sign)))
    return (pg,
            frozenset(e for e, r in zip(g.edges, roles) if r == "d"),
            frozenset(e for e, r in zip(g.edges, roles) if r == "c"))


@settings(max_examples=300, deadline=None)
@given(minor_parts())
def test_split_verdicts_match_classify_edge(parts):
    """Deleting a live edge splits the minor iff it is a bridge there, and
    contracting it iff it is an orientable plane loop, for every live edge
    and not only those the shape check requires."""
    pg, deleted, contracted = parts
    g = pg.graph
    _, minor = _activity_terms(pg)(deleted, contracted)
    mg = _minor_graph(g, deleted, contracted)
    base = minor.components()
    assert base == len(connected_components(mg))
    for k, e in enumerate(g.edges):
        if minor.live >> k & 1:
            kind = classify_edge(mg, e)
            split = [minor.step(k, c).components() > base for c in (0, 1)]
            assert split == [kind == EdgeKind.BRIDGE,
                             kind == EdgeKind.PLANE_LOOP], e


@settings(max_examples=300, deadline=None)
@given(minor_parts())
def test_prefactor_is_packaging_nullity(parts):
    """The x exponent that ``Minor.step`` gathers in ``xy`` is the nullity
    of B's packaging in the dual, the y exponent that of A's packaging, and
    both are the growth of the minor's block weights."""
    pg, deleted, contracted = parts
    index = {e: k for k, e in enumerate(pg.graph.edges)}
    pre = Minor.compile(pg).minor(*(sum(1 << index[e] for e in part)
                                    for part in (deleted, contracted))).xy
    assert pre == _activity_terms(pg)(deleted, contracted)[0]
    vertex, _ = restricted_packagings(pg, contracted)
    _, boundary = restricted_packagings(pg, set(pg.graph.sign) - deleted)
    assert pre == (nullity(boundary), nullity(vertex))


@settings(max_examples=80, deadline=None)
@given(ribbon_graphs(max_edges=6, max_vertices=4), st.data())
def test_krushkal_quasitree_matches_string_sides(g, data):
    assume(len(connected_components(g)) == 1)
    order = data.draw(st.permutations(g.edges))
    assert krushkal_quasitree(g, order) == krushkal_quasitree_oracle(g, order)


def _recovered_terms(g, order) -> dict:
    """Each quasi-tree of ``g`` under ``order``, as a set of edges, with
    the four-variable image of its term of the packaged expansion of the
    discrete packaging: the polynomial of its activity minor, prefactor
    included."""
    terms = {}
    for q, minor in _quasitree_walk(PackagedRibbonGraph.discrete(g), order):
        q = frozenset(e for k, e in enumerate(g.edges) if q >> k & 1)
        assert q not in terms
        terms[q] = _krushkal_image(_minor_poly(minor), 1)
    return terms


def test_recovery_per_quasi_tree_on_corpus4(graphs4):
    """On every connected graph of up to 4 edges, in a seeded shuffled
    order, each quasi-tree's mapped packaged term is its Butler-form
    term."""
    rng, failures = random.Random(7), []
    for g in graphs4:
        order = rng.sample(g.edges, len(g.edges))
        if _recovered_terms(g, order) != dict(
                krushkal_quasitree_terms(g, order)):
            failures.append((g, order))
    assert not failures, failures[:3]


@settings(max_examples=40, deadline=None)
@given(ribbon_graphs(max_edges=7, max_vertices=4, min_edges=5), st.data())
def test_recovery_per_quasi_tree(g, data):
    assume(len(connected_components(g)) == 1)
    order = data.draw(st.permutations(g.edges))
    assert _recovered_terms(g, order) == dict(
        krushkal_quasitree_terms(g, order))
