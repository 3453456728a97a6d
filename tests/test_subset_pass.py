"""The compiled subset pass against the string-keyed subset sums it
replaces: packagings and boundary traces of restricted subgraphs,
per-subset union-finds, one :func:`subset_walks` call per subset, and the
classical Tutte polynomial as a sum of products of powers; the kernel
layout the pass's walks rely on; and both passes at benchmark size."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ribbonpoly import invariants
from ribbonpoly.invariants import (Multigraph, _random_partition,
                                   _subset_keys, _subset_term, _tutte_keys,
                                   classical_tutte, krushkal, pst_state_sum,
                                   underlying_multigraph)
from ribbonpoly.packaged import (Minor, PackagedRibbonGraph,
                                 component_gamma_values)
from ribbonpoly.poly import HalfExpPoly, MultiPoly
from ribbonpoly.ribbon import (RibbonGraph, RibbonGraphError,
                               connected_components, dual_correspondences,
                               enumerate_quasi_trees, euler_genus, restrict,
                               trace_boundaries)
from packaged_oracle import (classical_tutte_oracle, nullity,
                             restricted_packagings, subset_walks,
                             subset_walks_term, tutte_keys)
from strategies import ribbon_graphs
from test_caches import random_packaging


def subsets(g: RibbonGraph):
    edges = g.edges
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            yield frozenset(combo)


@st.composite
def multigraphs(draw):
    """(n, ends): up to 7 edges on vertices 0 .. n-1, loops and parallel
    edges included; isolated vertices and components come with them."""
    n = draw(st.integers(0, 5))
    vertex = st.integers(0, max(n - 1, 0))
    return n, draw(st.lists(st.tuples(vertex, vertex),
                            max_size=7 if n else 0))


def rg(rotation: dict, sign: dict) -> RibbonGraph:
    return RibbonGraph.build(list(rotation), rotation, sign)


def mask_of(g: RibbonGraph, aset: frozenset) -> int:
    return sum(1 << k for k, e in enumerate(g.edges) if e in aset)


def reference_record(pg: PackagedRibbonGraph, aset: frozenset) -> tuple:
    """The exponents of the state-sum term of the edge subset ``aset``, as
    :func:`_subset_term` gives them: the nullities of the packagings of
    (g*|A^c, boundary partition) and (g|A, vertex partition), and the
    sorted gamma values of their components by re-tracing each one."""
    g = pg.graph
    gd = dual_correspondences(g)[0]
    pk1, pk2 = restricted_packagings(pg, aset)
    gammas2 = component_gamma_values(restrict(gd, set(g.sign) - aset), pk2)
    gammas1 = component_gamma_values(restrict(g, aset), pk1)
    return (nullity(pk2), nullity(pk1), tuple(sorted(gammas2)),
            tuple(sorted(gammas1)))


def reference_term(pg: PackagedRibbonGraph, aset: frozenset) -> MultiPoly:
    """The state-sum term of the edge subset ``aset``."""
    n2, n1, gammas2, gammas1 = reference_record(pg, aset)
    term = MultiPoly.x(n2) * MultiPoly.y(n1)
    for gamma in gammas2:
        term = term * MultiPoly.xg(gamma)
    for gamma in gammas1:
        term = term * MultiPoly.yg(gamma)
    return term


def reference_krushkal(g: RibbonGraph) -> HalfExpPoly:
    gd = dual_correspondences(g)[0]
    k = len(connected_components(g))
    kd = len(connected_components(gd))
    total = HalfExpPoly.zero()
    for aset in subsets(g):
        sub = restrict(g, aset)
        subd = restrict(gd, set(g.sign) - aset)
        total = total + (HalfExpPoly.alpha(len(connected_components(sub)) - k)
                         * HalfExpPoly.beta(len(connected_components(subd))
                                            - kd)
                         * HalfExpPoly.a_half(euler_genus(sub))
                         * HalfExpPoly.b_half(euler_genus(subd)))
    return total


@settings(max_examples=60, deadline=None)
@given(ribbon_graphs(max_edges=6), st.integers(0, 2 ** 16))
def test_state_sum_equals_string_keyed_sum(g, seed):
    pg = random_packaging(g, seed)
    want = sum((reference_term(pg, a) for a in subsets(g)), MultiPoly.zero())
    assert pst_state_sum(pg) == want


@settings(max_examples=60, deadline=None)
@given(ribbon_graphs(max_edges=6), st.integers(0, 2 ** 16))
def test_subset_terms_equal_string_keyed_records(g, seed):
    """Per subset, not only summed: the build-up pass makes one
    ``_subset_term`` call per subset, and both sides of each term, read off
    one walk of A, equal the packagings of g|A and of g*|A^c."""
    pg = random_packaging(g, seed)
    calls = []

    def recording(root, mask, sides, walk):
        term = _subset_term(root, mask, sides, walk)
        calls.append((mask, term))
        return term

    with mock.patch.object(invariants, "_subset_term", recording):
        _subset_keys(Minor.compile(pg))
    assert len(calls) == 2 ** len(g.edges)
    assert {mask for mask, _ in calls} == set(range(2 ** len(g.edges)))
    for mask, term in calls:
        aset = frozenset(e for k, e in enumerate(g.edges) if mask >> k & 1)
        assert term == reference_record(pg, aset), sorted(aset)


@settings(max_examples=150, deadline=None)
@given(ribbon_graphs(max_edges=6, max_vertices=4), st.integers(0, 2 ** 16))
@example(rg({"v1": [("e", 1), ("e", 2)], "v2": [], "v3": []}, {"e": 1}), 0)
@example(rg({"v1": [("e", 1), ("e", 2), ("f", 1)], "v2": [("f", 2)]},
            {"e": 1, "f": -1}), 1)
@example(rg({"v1": [("e", 1), ("f", 1), ("e", 2), ("f", 2)]},
            {"e": -1, "f": -1}), 2)
@example(rg({"v1": [("e", 1)], "v2": [("e", 2), ("f", 1), ("f", 2)],
             "v3": [("g", 1), ("g", 2)], "v4": []},
            {"e": 1, "f": 1, "g": -1}), 3)
def test_spliced_walks_equal_one_subset_walks_call_per_subset(g, seed):
    """Each leaf of the pass, walked on the corner map spliced in place,
    equals the leaf that builds the subset's corner map afresh with
    :func:`subset_walks`, given the same built-up sides; so do the keys.
    The examples hold isolated vertices, loops whose ends are adjacent,
    twisted edges, vertices that exclusions leave empty (every vertex with
    edge ends, at the empty subset) and a disconnected graph."""
    pg = random_packaging(g, seed)
    want: Counter = Counter()

    def both(root, mask, sides, walk):
        term = _subset_term(root, mask, sides, walk)
        assert term == subset_walks_term(root, mask, sides), mask
        want[term] += 1
        return term

    with mock.patch.object(invariants, "_subset_term", both):
        assert _subset_keys(Minor.compile(pg)) == want
    assert sum(want.values()) == 2 ** len(g.edges)


@settings(max_examples=100, deadline=None)
@given(ribbon_graphs(max_edges=6, max_vertices=4, min_edges=1))
@example(rg({"v1": [("e", 1), ("f", 1), ("e", 2), ("f", 2)]},
            {"e": -1, "f": 1}))
@example(rg({"v1": [("e", 1)], "v2": [("e", 2)]}, {"e": -1}))
def test_t0_pairs_split_each_edges_first_two_darts(g):
    """The subset pass makes live only darts 4k and 4k + 1 of an edge k in
    the subset and counts on every boundary walk to cross one of them: so
    ``t0`` must pair each edge's four darts among themselves, with 4k and
    4k + 1 in different pairs, whatever the edge's sign."""
    t0 = g.kernel.t0
    for k, e in enumerate(g.edges):
        darts = range(4 * k, 4 * k + 4)
        assert sorted(t0[d] for d in darts) == list(darts), e
        assert all(t0[t0[d]] == d != t0[d] for d in darts), e
        assert t0[4 * k] != 4 * k + 1, (e, g.sign[e])


def seeded_instance(seed: int, m: int, nv: int) -> PackagedRibbonGraph:
    """``m`` edges, every third one twisted, their ends shuffled across
    ``nv`` vertices, one isolated vertex more, and seeded weighted
    partitions of the vertices and of the boundary components."""
    rng = random.Random(seed)
    ends = [(f"e{i + 1}", j) for i in range(m) for j in (1, 2)]
    rng.shuffle(ends)
    at = [rng.randrange(nv) for _ in ends]
    rotation = {f"v{k + 1}": [x for x, a in zip(ends, at) if a == k]
                for k in range(nv)}
    rotation["iso"] = []
    g = rg(rotation, {f"e{i + 1}": -1 if i % 3 == 0 else 1
                      for i in range(m)})
    return PackagedRibbonGraph.build(
        g, _random_partition(rng, list(g.vertices)),
        _random_partition(rng, [c.id for c in g.boundaries]))


@pytest.mark.parametrize("seed, m, nv", [(1, 9, 2), (2, 10, 3), (3, 11, 2)])
def test_subset_passes_at_benchmark_size(seed, m, nv):
    """At the benchmark's 9-11 edges, past the Hypothesis graphs' 6: each
    ``_subset_term`` of the pass, once per subset, equals the leaf that
    builds the subset's corner map afresh, and the Tutte pass equals one
    union-find per subset."""
    pg = seeded_instance(seed, m, nv)
    g = pg.graph
    assert len(g.edges) == m and {-1, 1} <= set(g.sign.values())
    assert not g.rotation["iso"] and any(pg.vparts.weights + pg.bparts.weights)
    masks: Counter = Counter()

    def both(root, mask, sides, walk):
        term = _subset_term(root, mask, sides, walk)
        assert term == subset_walks_term(root, mask, sides), mask
        masks[mask] += 1
        return term

    with mock.patch.object(invariants, "_subset_term", both):
        _subset_keys(Minor.compile(pg))
    assert masks == Counter(range(2 ** m))
    h = underlying_multigraph(g)
    idx = {v: i for i, v in enumerate(h.vertices)}
    ends = [(idx[u], idx[w]) for _, u, w in h.edges]
    assert _tutte_keys(len(idx), ends) == tutte_keys(len(idx), ends)


@settings(max_examples=60, deadline=None)
@given(ribbon_graphs(max_edges=6, max_vertices=4))
def test_subset_walks_give_one_dart_per_boundary_walk(g):
    """A dart of each boundary walk of g|A, a dart at each vertex that
    keeps none of its edge ends, and nothing for a vertex without edge
    ends."""
    kern = g.kernel
    edgeless = {v for v in g.vertices if not g.rotation.get(v, ())}
    for aset in subsets(g):
        walks = subset_walks(kern, mask_of(g, aset))
        comps = trace_boundaries(restrict(g, aset))
        assert len(walks) + len(edgeless) == len(comps)
        of = {d: c.id for c in comps for d in c.visits}
        at = {c.vertex: c.id for c in comps if c.vertex is not None}
        hit = [of.get(kern.darts[d]) or at[g.end_vertex[kern.darts[d][:2]]]
               for d in walks]
        assert sorted(hit) == sorted(c.id for c in comps
                                     if c.vertex not in edgeless)


@settings(max_examples=60, deadline=None)
@given(ribbon_graphs(max_edges=6))
def test_krushkal_direct_equals_string_keyed_sum(g):
    assert krushkal(g) == reference_krushkal(g)


@settings(max_examples=60, deadline=None)
@given(ribbon_graphs(max_edges=6))
def test_quasi_trees_equal_traced_subsets_in_order(g):
    if len(connected_components(g)) != 1:
        with pytest.raises(RibbonGraphError):
            enumerate_quasi_trees(g)
        return
    want = [a for a in subsets(g)
            if len(trace_boundaries(restrict(g, a))) == 1]
    assert enumerate_quasi_trees(g) == want


@settings(max_examples=200, deadline=None)
@given(multigraphs())
@example((0, []))
@example((3, []))
@example((1, [(0, 0), (0, 0)]))
@example((2, [(0, 1), (1, 0), (0, 1)]))
@example((5, [(0, 1), (2, 3), (3, 3), (2, 3)]))
def test_tutte_keys_equal_per_subset_union_finds(h):
    """The build-up Tutte keys against one union-find per subset."""
    n, ends = h
    assert _tutte_keys(n, ends) == tutte_keys(n, ends)


@settings(max_examples=200, deadline=None)
@given(multigraphs())
@example((0, []))
@example((3, []))
@example((1, [(0, 0), (0, 0)]))
@example((5, [(0, 1), (2, 3), (3, 3), (2, 3)]))
def test_classical_tutte_equals_products_of_powers(h):
    """The binomial expansion of each key against the sum of
    c (x-1)^a (y-1)^b as products of polynomial powers, read off the
    per-subset union-find keys."""
    n, ends = h
    graph = Multigraph(tuple(f"v{i}" for i in range(n)),
                       tuple((f"e{j}", f"v{u}", f"v{w}")
                             for j, (u, w) in enumerate(ends)))
    assert classical_tutte(graph) == classical_tutte_oracle(graph)
