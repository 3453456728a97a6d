from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rg
from packaged_oracle import (EdgeKind, activities_oracle, classify_edge,
                             contracted_part, deleted_part, interlaced,
                             is_loop)
from ribbonpoly.ribbon import (RibbonGraph, RibbonGraphError,
                               activities, certificate,
                               connected_components, contract_edge, counts,
                               delete_edge, dual_correspondences,
                               enumerate_quasi_trees, euler_genus,
                               induced_subgraph, isomorphic, isomorphisms,
                               orientable,
                               partial_dual,
                               partial_dual_with_map, preceding,
                               quasi_tree_vertex, restrict,
                               trace_boundaries, validate)
from strategies import ribbon_graphs
from test_bollobas_riordan import walk_orbits


def theta_graph():
    return rg({"v1": [("e", 1), ("f", 1), ("e", 2), ("g", 1)],
               "v2": [("f", 2), ("g", 2)]},
              {"e": 1, "f": 1, "g": 1})


# ---------------------------------------------------------------------------
# validation

def test_validate_accepts_good_graph():
    assert validate(theta_graph()) == []


@pytest.mark.parametrize("vertices, rotation, sign, fault", [
    (("v1",), {"v1": (("e", 1), ("e", 1), ("e", 2))}, {"e": 1},
     "end e.1 placed twice"),
    (("v1",), {"v1": (("e", 1),)}, {"e": 1}, "edge e is missing end e.2"),
    (("v1",), {"v1": (("e", 1), ("e", 2))}, {"e": 2},
     "edge e has sign 2, expected +1 or -1"),
    (("v1", "v1"), {"v1": ()}, {}, "duplicate vertex identifier"),
    (("v1",), {"v1": (("e", 1), ("e", 2), ("f", 1))}, {"e": 1},
     "end f.1 references undeclared edge f"),
], ids=["end_placed_twice", "missing_end", "bad_sign", "duplicate_vertex",
        "undeclared_edge"])
def test_validate_reports_faults(vertices, rotation, sign, fault):
    assert fault in validate(RibbonGraph(vertices, rotation, sign))


def test_build_raises_on_fault():
    with pytest.raises(RibbonGraphError):
        rg({"v1": [("e", 1)]}, {"e": 1})


@pytest.mark.parametrize("rotation", [
    {"v1": [("e", 1), ("e", 2)], "v2": []},
    {"v1": [("e", 1)], "v2": [("e", 2)]},
])
def test_build_rejects_the_rotation_of_an_unlisted_vertex(rotation):
    """The rotation is validated, not dropped with its vertex."""
    with pytest.raises(RibbonGraphError,
                       match="rotation given for unknown vertex v2"):
        RibbonGraph.build(["v1"], rotation, {"e": 1})


# ---------------------------------------------------------------------------
# boundary tracing and calibration

CALIBRATION = [
    ("disc", {"v1": []}, {}, 1, 0),
    ("path", {"v1": [("e", 1)], "v2": [("e", 2)]}, {"e": 1}, 1, 0),
    ("annulus", {"v1": [("e", 1), ("e", 2)]}, {"e": 1}, 2, 0),
    ("mobius", {"v1": [("e", 1), ("e", 2)]}, {"e": -1}, 1, 1),
    ("handle", {"v1": [("e", 1), ("f", 1), ("e", 2), ("f", 2)]},
     {"e": 1, "f": 1}, 1, 2),
]


@pytest.mark.parametrize("name,rot,sign,b,gamma", CALIBRATION)
def test_calibration_table(name, rot, sign, b, gamma):
    g = rg(rot, sign)
    assert counts(g)[3] == b
    assert euler_genus(g) == gamma


def test_theta_has_one_boundary_and_genus_two():
    g = theta_graph()
    assert counts(g) == (2, 3, 1, 1)
    assert euler_genus(g) == 2


@settings(max_examples=150, deadline=None)
@given(ribbon_graphs())
def test_side_visits_partition_the_darts(g):
    comps = trace_boundaries(g)
    seen = [d for c in comps for d in c.visits]
    assert sorted(seen) == list(g.kernel.darts)
    assert len(set(seen)) == len(seen)
    isolated = [v for v in g.vertices if not g.rotation.get(v, ())]
    assert sorted(c.vertex for c in comps if c.vertex is not None) \
        == sorted(isolated)


@settings(max_examples=150, deadline=None)
@given(ribbon_graphs())
def test_kernel_walks_are_the_boundary_walks(g):
    kern = g.kernel
    assert sorted(d for w in kern.walks for d in w) == list(range(len(kern.t0)))
    unused = set(range(len(kern.t0)))
    for w in kern.walks:
        assert w[0] == min(unused)
        unused -= set(w)
        for i in range(0, len(w), 2):
            assert w[i + 1] == kern.t0[w[i]]
            assert w[(i + 2) % len(w)] == kern.t1[w[i + 1]]
    # the oracle walks each boundary once in each direction, one state
    # per band crossed, where a kernel walk has two darts per band
    crossings = Counter(walk_orbits(g, g.sign).values()).values()
    assert sorted(crossings) == sorted(2 * [len(w) // 2 for w in kern.walks])
    assert counts(g)[3] == len(trace_boundaries(g))


def test_boundary_ids_are_canonical(annulus):
    assert [c.id for c in trace_boundaries(annulus)] == ["b1", "b2"]


def test_genus_additivity():
    g = rg({"v1": [("e", 1), ("e", 2)], "v2": [("f", 1), ("f", 2)]},
           {"e": -1, "f": 1})
    assert euler_genus(g) == 1  # mobius + annulus


# ---------------------------------------------------------------------------
# orientability

def test_orientable_examples(mobius):
    assert not orientable(mobius)
    assert orientable(rg({"v1": [("e", 1)], "v2": [("e", 2)]}, {"e": -1}))
    assert orientable(theta_graph())


def _orientable_by_reflections(g: RibbonGraph) -> bool:
    """Some set of reflected vertices makes every edge sign +1: reflecting
    one end vertex of a non-loop flips its sign."""
    for flips in itertools.product((1, -1), repeat=len(g.vertices)):
        flip = dict(zip(g.vertices, flips))
        if all(g.sign[e] * flip[u] * flip[w] == 1
               for e in g.sign for u, w in [g.endpoints(e)]):
            return True
    return False


@settings(max_examples=150, deadline=None)
@given(ribbon_graphs(max_edges=6, max_vertices=4))
def test_orientable_matches_vertex_reflections(g):
    assert orientable(g) == _orientable_by_reflections(g)


@settings(max_examples=100, deadline=None)
@given(ribbon_graphs())
def test_orientable_agrees_with_genus_parity_heuristic(g):
    # an all-positive rotation system is always orientable
    pos = RibbonGraph(g.vertices, g.rotation, {e: 1 for e in g.sign})
    assert orientable(pos)


# ---------------------------------------------------------------------------
# duality and partial duality

def test_dual_of_annulus_is_path(annulus):
    gd, corr, _ = dual_correspondences(annulus)
    assert counts(gd) == (2, 1, 1, 1)
    assert gd.edges == annulus.edges
    assert set(corr) == {"b1", "b2"}


def test_dual_of_disc_is_disc(disc):
    gd, corr, _ = dual_correspondences(disc)
    assert counts(gd) == (1, 0, 1, 1)
    assert corr == {"b1": "v1"}


def test_dual_of_theta_is_single_vertex():
    gd, corr, _ = dual_correspondences(theta_graph())
    assert counts(gd) == (1, 3, 1, 2)
    assert len(corr) == 1


def test_dual_involution_and_correspondences():
    for g in [theta_graph(), rg({"v1": [("e", 1), ("e", 2)]}, {"e": -1})]:
        gd, _, _ = dual_correspondences(g)
        gdd, _, _ = dual_correspondences(gd)
        assert isomorphic(gdd, g)


def test_vertex_boundary_correspondence_round_trip():
    g = theta_graph()
    gd, b_to_v, v_to_b = dual_correspondences(g)
    assert set(b_to_v) == {c.id for c in trace_boundaries(g)}
    assert set(b_to_v.values()) <= set(gd.vertices)
    assert set(v_to_b) == set(g.vertices)
    assert set(v_to_b.values()) == {c.id for c in trace_boundaries(gd)}


def test_partial_dual_empty_set_is_identity():
    g = theta_graph()
    assert partial_dual(g, set()) == g


def test_partial_dual_single_edge_involution():
    g = theta_graph()
    for e in g.edges:
        assert isomorphic(partial_dual(partial_dual(g, {e}), {e}), g)


def test_partial_dual_all_edges_is_dual():
    g = theta_graph()
    assert isomorphic(partial_dual(g, set(g.edges)), dual_correspondences(g)[0])


def test_partial_dual_order_independence():
    g = theta_graph()
    for a in [{"e", "f"}, {"e", "g"}, {"e", "f", "g"}]:
        bulk = partial_dual(g, a)
        for perm in itertools.permutations(sorted(a)):
            step = g
            for e in perm:
                step = partial_dual(step, {e})
            assert isomorphic(step, bulk)


def test_partial_dual_at_quasitree_has_one_vertex():
    g = theta_graph()
    for q in enumerate_quasi_trees(g):
        h = partial_dual(g, q)
        assert len(h.vertices) == 1


def test_partial_dual_theta_interlacements():
    h = partial_dual(theta_graph(), {"f"})
    assert not interlaced(h, "e", "f")
    assert interlaced(h, "g", "f")
    assert interlaced(h, "g", "e")


def test_partial_dual_unknown_edge():
    with pytest.raises(RibbonGraphError):
        partial_dual(theta_graph(), {"zz"})


@pytest.mark.parametrize("subgraph, message", [
    (lambda g: restrict(g, {"f", "zz"}), "unknown edge zz"),
    (lambda g: induced_subgraph(g, ["v1"], ["e", "f"]),
     "induced subgraph drops an edge end"),
], ids=["restrict", "induced_subgraph"])
def test_subgraph_errors(subgraph, message):
    with pytest.raises(RibbonGraphError, match=message):
        subgraph(theta_graph())


@settings(max_examples=80, deadline=None)
@given(ribbon_graphs(max_edges=4), st.data())
def test_partial_dual_rebuilds_only_the_vertices_at_its_edges(g, data):
    a = data.draw(st.sets(st.sampled_from(g.edges))) if g.edges else set()
    h, dart_map = partial_dual_with_map(g, a)
    assert validate(h) == []
    at_a = {g.end_vertex[(e, i)] for e in a for i in (1, 2)}
    kept = [v for v in g.vertices if v not in at_a]
    assert all(h.rotation[v] == g.rotation[v] for v in kept)
    assert all(h.sign[e] == g.sign[e] for e in g.edges
               if not {g.end_vertex[(e, 1)], g.end_vertex[(e, 2)]}
               & at_a)
    assert all(v.startswith("w") for v in set(h.vertices) - set(kept))
    assert sorted(dart_map) == list(g.kernel.darts)
    assert sorted(dart_map.values()) == list(h.kernel.darts)
    # v(G^A) = f(G|A) and f(G^A) = f(G|A^c)
    assert len(h.vertices) == len(trace_boundaries(restrict(g, a)))
    assert len(trace_boundaries(h)) == \
        len(trace_boundaries(restrict(g, set(g.edges) - a)))
    assert isomorphic(partial_dual(h, a), g)


@settings(max_examples=60, deadline=None)
@given(ribbon_graphs())
def test_boundary_count_duality(g):
    gd, _, _ = dual_correspondences(g)
    edges = g.edges
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            b1 = len(trace_boundaries(restrict(g, combo)))
            b2 = len(trace_boundaries(restrict(gd, set(edges) - set(combo))))
            assert b1 == b2


# ---------------------------------------------------------------------------
# deletion and contraction

def test_delete_edge(path):
    res = delete_edge(path, "e")
    assert counts(res) == (2, 0, 2, 2)
    with pytest.raises(RibbonGraphError):
        delete_edge(path, "nope")


@pytest.mark.parametrize("vertices, edges", [(["v1", "v2"], []),
                                               (["v2", "v1"], ["f", "g"])])
def test_induced_subgraph_takes_any_iterable(vertices, edges):
    """A generator of vertices or edges gives the subgraph a list gives."""
    g = theta_graph()
    want = induced_subgraph(g, vertices, edges)
    assert want.vertices == tuple(v for v in g.vertices if v in vertices)
    assert induced_subgraph(g, iter(vertices), (e for e in edges)) == want


def test_contract_path_edge(path):
    res, corr = contract_edge(path, "e")
    assert counts(res) == (1, 0, 1, 1)
    assert corr == {"b1": "b1"}


def test_contract_annulus_pinch(annulus):
    res, corr = contract_edge(annulus, "e")
    assert counts(res) == (2, 0, 2, 2)
    assert sorted(corr) == ["b1", "b2"]
    assert sorted(corr.values()) == ["b1", "b2"]


def test_contract_mobius_pinch(mobius):
    res, corr = contract_edge(mobius, "e")
    assert counts(res) == (1, 0, 1, 1)
    assert corr == {"b1": "b1"}


@settings(max_examples=80, deadline=None)
@given(ribbon_graphs())
def test_contraction_matches_partial_dual_delete(g):
    for e in g.edges:
        res, corr = contract_edge(g, e)
        assert isomorphic(res, delete_edge(partial_dual(g, {e}), e))
        old_ids = {c.id for c in trace_boundaries(g)}
        new_ids = {c.id for c in trace_boundaries(res)}
        assert set(corr) == old_ids
        assert sorted(corr.values()) == sorted(new_ids)


# ---------------------------------------------------------------------------
# classification and interlacement

def test_classify_edges():
    g = theta_graph()
    assert classify_edge(g, "e") == EdgeKind.NONPLANE_LOOP
    assert classify_edge(g, "f") == EdgeKind.ORDINARY
    assert classify_edge(rg({"v1": [("e", 1)], "v2": [("e", 2)]}, {"e": 1}),
                         "e") == EdgeKind.BRIDGE
    assert classify_edge(rg({"v1": [("e", 1), ("e", 2)]}, {"e": 1}),
                         "e") == EdgeKind.PLANE_LOOP
    assert classify_edge(rg({"v1": [("e", 1), ("e", 2)]}, {"e": -1}),
                         "e") == EdgeKind.NONORIENTABLE_LOOP


def _kind_from_minors(g: RibbonGraph, e: str) -> EdgeKind:
    """The definition: a bridge disconnects when deleted, an orientable
    plane loop when contracted."""
    k = len(connected_components(g))
    if not is_loop(g, e):
        split = len(connected_components(delete_edge(g, e))) > k
        return EdgeKind.BRIDGE if split else EdgeKind.ORDINARY
    if g.sign[e] == -1:
        return EdgeKind.NONORIENTABLE_LOOP
    split = len(connected_components(contract_edge(g, e)[0])) > k
    return EdgeKind.PLANE_LOOP if split else EdgeKind.NONPLANE_LOOP


@settings(max_examples=150, deadline=None)
@given(ribbon_graphs(max_edges=6, max_vertices=4))
def test_classify_edge_matches_minor_definition(g):
    for e in g.edges:
        assert classify_edge(g, e) == _kind_from_minors(g, e), e


def test_interlaced_basic():
    g = rg({"v1": [("e", 1), ("f", 1), ("e", 2), ("f", 2)]},
           {"e": 1, "f": 1})
    assert interlaced(g, "e", "f")
    g2 = rg({"v1": [("e", 1), ("e", 2), ("f", 1), ("f", 2)]},
            {"e": 1, "f": 1})
    assert not interlaced(g2, "e", "f")
    assert not interlaced(g, "e", "e")


# ---------------------------------------------------------------------------
# quasi-trees and activities

def test_quasi_tree_census_theta():
    qts = enumerate_quasi_trees(theta_graph())
    assert sorted(sorted(q) for q in qts) == [["e", "f", "g"], ["f"], ["g"]]


def test_quasi_trees_trivial(disc, mobius):
    assert enumerate_quasi_trees(disc) == [frozenset()]
    assert sorted(len(q) for q in enumerate_quasi_trees(mobius)) == [0, 1]


def test_quasi_trees_require_connected():
    g = rg({"v1": [], "v2": []}, {})
    with pytest.raises(RibbonGraphError):
        enumerate_quasi_trees(g)


def test_activities_fixtures():
    g = theta_graph()
    order = ["e", "f", "g"]
    r = activities(g, {"f"}, order)
    assert r.external_live_orientable == {"e"}
    assert r.internal_live_orientable == {"f"}
    assert r.external_dead == {"g"}
    r = activities(g, {"g"}, order)
    assert r.external_live_orientable == {"e"}
    assert r.external_dead == {"f"}
    assert r.internal_dead == {"g"}
    r = activities(g, {"e", "f", "g"}, order)
    assert r.internal_live_orientable == {"e"}
    assert r.internal_dead == {"f", "g"}


def test_activities_rejects_non_quasitree():
    with pytest.raises(RibbonGraphError):
        activities(theta_graph(), {"e"}, ["e", "f", "g"])


@pytest.mark.parametrize("q, order, message", [
    ({"f"}, ["e", "f"], "order must be a total order on the edges"),
    ({"f"}, ["e", "f", "f"], "order must be a total order on the edges"),
    ({"f"}, ["e", "f", "g", "zz"], "order must be a total order on the edges"),
    ({"zz"}, ["e", "f", "f"], "order must be a total order on the edges"),
    ({"zz", "f"}, ["e", "f", "g"], "unknown edge zz"),
    ({"e"}, ["e", "f", "g"], "not a quasi-tree"),
], ids=["short", "repeat", "extra", "order-first", "unknown", "not-quasi-tree"])
def test_activities_error_paths(q, order, message):
    """Each of the three errors, the order checked before the edges, as
    the walk of G^Q and the classification by the order are split."""
    with pytest.raises(RibbonGraphError) as ex:
        activities(theta_graph(), q, order)
    assert str(ex.value) == message


@settings(max_examples=60, deadline=None)
@given(ribbon_graphs(max_edges=6, max_vertices=3), st.data())
def test_one_walk_per_quasi_tree_classifies_every_order(g, data):
    """The split route, one ``quasi_tree_vertex`` walk per quasi-tree and
    one classification per order, gives under three random orders the
    report of ``activities`` and of the named G^Q, and its dead and twisted
    edges are the report's contracted and deleted parts."""
    assume(len(connected_components(g)) == 1)
    orders = [data.draw(st.permutations(g.edges)) for _ in range(3)]
    for q in enumerate_quasi_trees(g):
        v = quasi_tree_vertex(g, q)
        for order in orders:
            before = preceding(g, order)
            rep = v.report(before)
            assert rep == activities(g, q, order) \
                == activities_oracle(g, q, order)
            fixed = v.dead(before) | v.twisted
            assert fixed == sum(1 << k for k, e in enumerate(g.edges)
                                if e in contracted_part(rep)
                                | deleted_part(rep))


def test_single_edge_is_always_live(mobius):
    r = activities(mobius, {"e"}, ["e"])
    assert r.internal_live_nonorientable == {"e"}


def _outcome(fn, *args):
    """The value of ``fn(*args)``, or the message of its RibbonGraphError."""
    try:
        return fn(*args)
    except RibbonGraphError as ex:
        return f"error: {ex}"


@settings(max_examples=150, deadline=None)
@given(ribbon_graphs(max_edges=5), st.data())
def test_activities_match_named_partial_dual(g, data):
    """On every edge subset, quasi-tree or not, and an unknown edge, under a
    random order, a partial one and one with an unknown edge, the kernel
    walk gives the report or the error the named G^Q does."""
    order = data.draw(st.permutations(g.edges))
    subsets = [frozenset(c) for r in range(len(g.edges) + 1)
               for c in itertools.combinations(g.edges, r)]
    for q in subsets + [frozenset({"zz"})]:
        assert _outcome(activities, g, q, order) == \
            _outcome(activities_oracle, g, q, order)
    for bad in (order[1:], order + ["zz"]):
        assert _outcome(activities, g, subsets[-1], bad) == \
            _outcome(activities_oracle, g, subsets[-1], bad)


@settings(max_examples=40, deadline=None)
@given(ribbon_graphs(max_edges=3, max_vertices=2))
def test_activity_duality(g):
    if len(connected_components(g)) != 1:
        return
    gd, _, _ = dual_correspondences(g)
    order = list(g.edges)
    live_keys = ["internal_dead", "external_dead", "internal_live_orientable",
                 "external_live_orientable", "internal_live_nonorientable",
                 "external_live_nonorientable"]
    swap = {"internal_dead": "external_dead",
            "external_dead": "internal_dead",
            "internal_live_orientable": "external_live_orientable",
            "external_live_orientable": "internal_live_orientable",
            "internal_live_nonorientable": "external_live_nonorientable",
            "external_live_nonorientable": "internal_live_nonorientable"}
    for q in enumerate_quasi_trees(g):
        r1 = activities(g, q, order)
        r2 = activities(gd, frozenset(g.edges) - q, order)
        for key in live_keys:
            assert getattr(r1, key) == getattr(r2, swap[key])


# ---------------------------------------------------------------------------
# isomorphism and certificates

def test_isomorphic_respects_relabelling():
    g1 = rg({"u": [("a", 1), ("b", 1), ("a", 2), ("b", 2)]},
            {"a": 1, "b": 1})
    g2 = rg({"z": [("p", 2), ("q", 1), ("p", 1), ("q", 2)]},
            {"p": 1, "q": 1})
    assert isomorphic(g1, g2)
    assert certificate(g1) == certificate(g2)


def test_isomorphic_detects_twist():
    g1 = rg({"u": [("a", 1), ("a", 2)]}, {"a": 1})
    g2 = rg({"u": [("a", 1), ("a", 2)]}, {"a": -1})
    assert not isomorphic(g1, g2)
    assert certificate(g1) != certificate(g2)


def test_reflection_with_sign_flip_is_isomorphism():
    # reversing a vertex and flipping signs of non-loop incident edges
    g1 = rg({"u": [("a", 1), ("b", 1)], "w": [("a", 2), ("b", 2)]},
            {"a": 1, "b": 1})
    g2 = rg({"u": [("b", 1), ("a", 1)], "w": [("a", 2), ("b", 2)]},
            {"a": -1, "b": -1})
    assert isomorphic(g1, g2)


def test_isomorphisms_need_equal_degree_sequences():
    """Two vertices and two edges each, degrees (3, 1) against (2, 2)."""
    g1 = rg({"u": [("a", 1), ("a", 2), ("b", 1)], "w": [("b", 2)]},
            {"a": 1, "b": 1})
    g2 = rg({"u": [("a", 1), ("b", 1)], "w": [("a", 2), ("b", 2)]},
            {"a": 1, "b": 1})
    assert list(isomorphisms(g1, g2)) == []


def _flag_isomorphisms(g: RibbonGraph, h: RibbonGraph) -> int:
    """The number of darts ``d`` of ``h`` such that sending dart 0 of the
    connected ``g`` to ``d`` extends, breadth-first over ``t0``, ``t1`` and
    ``t2 = d ^ 1``, to a bijection of darts that commutes with all three:
    the isomorphisms of the graph-encoded maps (Lins, "Graph-encoded maps",
    JCTB 1982), counted without rotations, reflections or signs."""
    a, b = g.kernel, h.kernel

    def extends(d: int) -> bool:
        image, queue = {0: d}, [0]
        for x in queue:   # grows while it is read
            y = image[x]
            for s, t in ((a.t0[x], b.t0[y]), (a.t1[x], b.t1[y]),
                         (x ^ 1, y ^ 1)):
                if s not in image:
                    image[s] = t
                    queue.append(s)
                elif image[s] != t:
                    return False
        return len(set(image.values())) == len(image) == len(b.t0)

    return sum(map(extends, range(len(b.t0))))


def _random_connected(rng: random.Random, m: int, nv: int) -> RibbonGraph:
    while True:
        ends = [(f"e{k}", i) for k in range(m) for i in (1, 2)]
        rng.shuffle(ends)
        cuts = sorted(rng.randint(0, 2 * m) for _ in range(nv - 1))
        rotation = {f"v{j}": ends[lo:hi] for j, (lo, hi)
                    in enumerate(zip([0, *cuts], [*cuts, 2 * m]))}
        g = rg(rotation, {f"e{k}": rng.choice((1, -1)) for k in range(m)})
        if len(connected_components(g)) == 1:
            return g


def test_isomorphisms_count_the_flag_isomorphisms(graphs4):
    """On every corpus graph with an edge, against itself and its double
    dual, and on seeded pairs of connected graphs of one size, the search
    yields one record per flag isomorphism."""
    pairs = [(g, h) for g in graphs4 if g.sign
             for h in (g, dual_correspondences(dual_correspondences(g)[0])[0])]
    rng = random.Random(1982)
    for _ in range(2000):
        m = rng.randint(1, 4)
        nv = rng.randint(1, min(m + 1, 4))
        pairs.append((_random_connected(rng, m, nv),
                      _random_connected(rng, m, nv)))
    assert len(pairs) == 3176
    for g, h in pairs:
        assert sum(1 for _ in isomorphisms(g, h)) == _flag_isomorphisms(g, h)


def _scrambled(g: RibbonGraph, data) -> RibbonGraph:
    """An isomorphic copy of ``g``: edges renamed and ends swapped, each
    rotation turned and maybe reversed, which flips the sign of every edge
    with one end at that vertex, and the vertices renamed and reordered."""
    names = data.draw(st.permutations(g.edges))
    rename = dict(zip(g.edges, (f"f{i}" for i, _ in enumerate(names))))
    swap = {e: data.draw(st.booleans()) for e in g.edges}
    sign = {rename[e]: s for e, s in g.sign.items()}
    rotation = {}
    for i, v in enumerate(data.draw(st.permutations(g.vertices))):
        rot = [(rename[e], 3 - j if swap[e] else j)
               for e, j in g.rotation.get(v, ())]
        if rot:
            turn = data.draw(st.integers(0, len(rot) - 1))
            rot = rot[turn:] + rot[:turn]
        if data.draw(st.booleans()):
            rot.reverse()
            for e, n in Counter(e for e, _ in rot).items():
                if n == 1:
                    sign[e] = -sign[e]
        rotation[f"u{i}"] = rot
    return RibbonGraph.build(list(rotation), rotation, sign)


@settings(max_examples=150, deadline=None)
@given(ribbon_graphs(max_edges=4), st.data())
def test_certificate_matches_isomorphism_oracle(g, data):
    """On connected pairs with at most four edges, the second graph drawn
    independently or as a scrambled copy of the first."""
    assume(len(connected_components(g)) == 1)
    if data.draw(st.booleans()):
        h = _scrambled(g, data)
        assert isomorphic(g, h)
    else:
        h = data.draw(ribbon_graphs(max_edges=4))
        assume(len(connected_components(h)) == 1)
    assert (certificate(g) == certificate(h)) == isomorphic(g, h)


@settings(max_examples=50, deadline=None)
@given(ribbon_graphs(max_edges=2))
def test_certificate_invariant_under_vertex_relabelling(g):
    renamed = {v: f"z{i}" for i, v in enumerate(g.vertices)}
    g2 = RibbonGraph.build([renamed[v] for v in g.vertices],
                           {renamed[v]: g.rotation.get(v, ())
                            for v in g.vertices}, dict(g.sign))
    assert certificate(g) == certificate(g2)
