from __future__ import annotations

import hashlib
import itertools
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rg
from ribbonpoly.fileformat import render
from ribbonpoly.invariants import (Multigraph, _quasitree_walk,
                                   classical_tutte, corpus, cross_validate,
                                   enumerate_connected, krushkal,
                                   krushkal_quasitree, pst_delcon,
                                   pst_quasitree, pst_state_sum, surface_tutte,
                                   underlying_multigraph)
from ribbonpoly.packaged import (PackagedRibbonGraph, WeightedPartition,
                                 packaged_contract, packaged_delete)
from ribbonpoly.poly import HalfExpPoly, Monomial, MultiPoly, parse_poly
from ribbonpoly.ribbon import (RibbonGraph, RibbonGraphError, activities,
                               certificate, connected_components,
                               enumerate_quasi_trees, euler_genus, restrict)
from packaged_oracle import (_activity_terms, _quasitree_minor,
                             _quasitree_terms, _terminal,
                             classical_tutte_oracle, delcon,
                             enumerate_connected_unpruned,
                             krushkal_quasitree_oracle, krushkal_substitution,
                             packaged_isomorphic, shape)
from strategies import ribbon_graphs
from test_caches import random_packaging
from test_subset_pass import reference_term

THETA_POLY = ("x^3*x_2*y_0^2 + 2*x^2*x_2*y_0 + x^2*y*x_0*y_0^2"
              " + 3*x*y*x_0*y_0 + y^2*x_0*y_2")


# ---------------------------------------------------------------------------
# state sum on small fixtures

def test_state_sum_edgeless(disc):
    pg = PackagedRibbonGraph.discrete(disc)
    assert pst_state_sum(pg) == parse_poly("x_0*y_0")


def test_state_sum_one_edge_path(path):
    pg = PackagedRibbonGraph.discrete(path)
    assert pst_state_sum(pg) == parse_poly("x*x_0*y_0^2 + x_0*y_0")


def test_state_sum_theta(theta):
    assert pst_state_sum(theta) == parse_poly(THETA_POLY)


def test_terminal_with_weighted_boundary_block():
    g = rg({"v1": [], "v2": []}, {})
    pg = PackagedRibbonGraph.build(
        g, WeightedPartition.discrete(["v1", "v2"]),
        WeightedPartition.build(["b1", "b2"], [({"b1", "b2"}, 1)]))
    assert _terminal(pg) == parse_poly("x_0*y_0^2")
    assert pst_state_sum(pg) == _terminal(pg)


# ---------------------------------------------------------------------------
# deletion-contraction

def test_delcon_matches_state_sum(theta):
    assert pst_delcon(theta) == pst_state_sum(theta)


def test_delcon_pivot_independent(theta):
    """The recursion on the first, the last and a seeded random edge at
    each node, against ``pst_delcon``'s first-edge pivot."""
    base = pst_delcon(theta)
    assert delcon(theta, lambda pg: pg.graph.edges[0]) == base
    assert delcon(theta, lambda pg: pg.graph.edges[-1]) == base
    rng = random.Random(7)
    assert delcon(theta, lambda pg: rng.choice(pg.graph.edges)) == base


def test_delcon_leaves_are_subset_terms(theta):
    """Hidden oracle: with a fixed pivot order, the recursion tree has one
    leaf per edge subset (the set of contracted edges along the branch), and
    each leaf's accumulated product equals that subset's state-sum term."""

    def leaves(pg, acc, contracted):
        g = pg.graph
        if not g.sign:
            yield frozenset(contracted), acc * _terminal(pg)
            return
        e = max(g.edges)
        s_a = g.boundary_of_dart[(e, 1, "L")]
        s_b = g.boundary_of_dart[(e, 1, "R")]
        alpha = 1 if pg.bparts.block_index(s_a) == \
            pg.bparts.block_index(s_b) else 0
        u, w = g.endpoints(e)
        beta = 1 if pg.vparts.block_index(u) == \
            pg.vparts.block_index(w) else 0
        yield from leaves(packaged_delete(pg, e)[0],
                          acc * MultiPoly.x(alpha), contracted)
        yield from leaves(packaged_contract(pg, e)[0],
                          acc * MultiPoly.y(beta), contracted | {e})

    got = dict(leaves(theta, MultiPoly.const(1), frozenset()))
    assert len(got) == 2 ** len(theta.graph.edges)
    for aset, value in got.items():
        assert value == reference_term(theta, aset), sorted(aset)


# ---------------------------------------------------------------------------
# quasi-tree expansion

def test_quasitree_matches_state_sum(theta):
    edges = list(theta.graph.edges)
    base = pst_state_sum(theta)
    for order in itertools.permutations(edges):
        assert pst_quasitree(theta, order) == base


def test_quasitree_breakdown(theta):
    """Three quasi-trees; each contributes prefactor times minor polynomial."""
    rows = {tuple(sorted(q)): (MultiPoly({Monomial(*pre): 1}), minor)
            for q, _, pre, minor in _quasitree_terms(
                theta, ["e", "f", "g"], enumerate_quasi_trees(theta.graph))}
    assert set(rows) == {("f",), ("g",), ("e", "f", "g")}
    pre_f, _ = rows[("f",)]
    pre_g, _ = rows[("g",)]
    pre_efg, _ = rows[("e", "f", "g")]
    assert pre_f == MultiPoly.x()
    assert pre_g == MultiPoly.x()
    assert pre_efg == MultiPoly.y()


def test_quasitree_minor_operation_order_irrelevant(theta):
    for q, act, _, _ in _quasitree_terms(theta, ["e", "f", "g"],
                                         enumerate_quasi_trees(theta.graph)):
        m1 = _quasitree_minor(theta, act.deleted_part(),
                              act.contracted_part())
        m2 = theta
        for e in sorted(act.contracted_part()):
            m2, _ = packaged_contract(m2, e)
        for e in sorted(act.deleted_part()):
            m2, _ = packaged_delete(m2, e)
        assert packaged_isomorphic(m1, m2)


def test_quasitree_requires_connected():
    g = rg({"v1": [], "v2": []}, {})
    with pytest.raises(RibbonGraphError):
        pst_quasitree(PackagedRibbonGraph.discrete(g), [])


@pytest.mark.parametrize("expand", [
    pst_quasitree, lambda pg, order: krushkal_quasitree(pg.graph, order)],
    ids=["pst_quasitree", "krushkal_quasitree"])
def test_quasitree_rejects_repeated_edge_in_order(theta, expand):
    with pytest.raises(RibbonGraphError,
                       match="order must be a total order on the edges"):
        expand(theta, ["e", "f", "g", "e"])


def assert_walk_matches_activities(pg: PackagedRibbonGraph,
                                   order: list[str]) -> None:
    """The reverse-order walk reaches each quasi-tree once, with a minor
    whose parts B = E - (Q | live) and A = Q - live are the deleted and
    contracted parts that ``activities`` gives under ``order``, and whose
    ``xy`` and live edges are the prefactor, read as weight growth, and the
    live edges of that activity minor built by stepping its edges."""
    g = pg.graph
    full = (1 << len(g.edges)) - 1

    def names(mask: int) -> frozenset[str]:
        return frozenset(e for k, e in enumerate(g.edges) if mask >> k & 1)

    term = _activity_terms(pg)
    reached = Counter()
    for q, minor in _quasitree_walk(pg, order):
        b, a = names(full & ~(q | minor.live)), names(q & ~minor.live)
        q = names(q)
        reached[q] += 1
        act = activities(g, q, order)
        assert (b, a) == (act.deleted_part(), act.contracted_part())
        want_pre, want_minor = term(b, a)
        assert (minor.xy, minor.live) == (want_pre, want_minor.live)
    assert reached == Counter(enumerate_quasi_trees(g))


def test_walk_leaves_match_activities_on_corpus4(corpus4):
    """Every instance of the acceptance corpus (each graph of
    ``enumerate_connected(4)``, discrete and with three random packagings),
    under two seeded orders each."""
    rng = random.Random(17)
    for g, pg in corpus4:
        for _ in range(2):
            order = list(g.edges)
            rng.shuffle(order)
            assert_walk_matches_activities(pg, order)


@settings(max_examples=60, deadline=None)
@given(ribbon_graphs(max_edges=8, min_edges=5), st.integers(0, 2 ** 16),
       st.data())
def test_walk_leaves_match_activities_on_larger_graphs(g, seed, data):
    assume(len(connected_components(g)) == 1)
    order = data.draw(st.permutations(g.edges))
    assert_walk_matches_activities(random_packaging(g, seed), list(order))


# ---------------------------------------------------------------------------
# specializations

def test_surface_tutte_annulus(annulus):
    assert surface_tutte(annulus) == parse_poly("y*x_0^2*y_0 + x_0*y_0")


def test_surface_tutte_rejects_nonorientable(mobius):
    with pytest.raises(RibbonGraphError):
        surface_tutte(mobius)


def test_krushkal_point(disc):
    assert krushkal(disc) == krushkal_substitution(disc) \
        == HalfExpPoly.const(1)


def test_krushkal_mobius(mobius):
    assert krushkal(mobius) == krushkal_substitution(mobius) \
        == parse_poly("a^1/2 + b^1/2")


def test_krushkal_theta(theta):
    assert krushkal(theta.graph) == krushkal_substitution(theta.graph) \
        == parse_poly("alpha*b + alpha + a + 2*b + 3")


def test_krushkal_quasitree_agrees(theta, handle, mobius):
    for g in (theta.graph, handle, mobius):
        direct = krushkal(g)
        for order in (sorted(g.edges), sorted(g.edges, reverse=True)):
            assert krushkal_quasitree(g, order) == direct


def test_classical_tutte_fixtures(path, annulus):
    assert classical_tutte(underlying_multigraph(path)) == parse_poly("x")
    assert classical_tutte(underlying_multigraph(annulus)) == parse_poly("y")
    triangle = Multigraph(("u", "v", "w"),
                          (("a", "u", "v"), ("b", "v", "w"), ("c", "w", "u")))
    assert classical_tutte(triangle) == parse_poly("x^2 + x + y")


def test_classical_tutte_against_networkx():
    """networkx's Tutte polynomial as an independent oracle, on seeded
    random multigraphs with loops, parallel edges and isolated vertices.
    The n(h) contrast differs from it exactly when h has a cycle: at x=2,
    y=1 the Tutte polynomial counts forests, and the contrast vanishes."""
    nx = pytest.importorskip("networkx")
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    for seed in range(40):
        rng = random.Random(seed)
        vs = [f"v{i}" for i in range(rng.randint(1, 4))]
        h = Multigraph(tuple(vs), tuple((f"e{j}", rng.choice(vs), rng.choice(vs))
                                        for j in range(rng.randint(0, 7))))
        nxg = nx.MultiGraph()
        nxg.add_nodes_from(vs)
        nxg.add_edges_from((u, w) for _, u, w in h.edges)
        want = {k: int(c) for k, c in sympy.Poly(nx.tutte_polynomial(nxg),
                                                 x, y).as_dict().items()}
        got = classical_tutte(h)
        assert {(m.ex, m.ey): c for m, c in got.terms.items()} == want, seed
        n_h = len(h.edges) - len(vs) + nx.number_connected_components(nxg)
        assert (classical_tutte_oracle(h, subset_nullity=False) != got) \
            == (n_h > 0)


def _krushkal_by_substitution(g: RibbonGraph, order: list[str],
                              tutte=classical_tutte) -> HalfExpPoly:
    """The quasi-tree expansion by expanding each Tutte factor, ``tutte``
    of the multigraph between the components, in x-1, y-1 and substituting
    x = alpha+1, y = a+1 (beta+1, b+1 on the dual side)."""
    gd = g.duality[0]
    total = HalfExpPoly.zero()
    for q in enumerate_quasi_trees(g):
        act = activities(g, q, order)
        term = HalfExpPoly.const(1)
        for h, kept, live, var, half in (
                (g, act.contracted_part(), act.internal_live_orientable,
                 HalfExpPoly.alpha(), HalfExpPoly.a_half),
                (gd, act.deleted_part(), act.external_live_orientable,
                 HalfExpPoly.beta(), HalfExpPoly.b_half)):
            sub = restrict(h, kept)
            name = {v: min(c) for c in connected_components(sub) for v in c}
            between = Multigraph(tuple(sorted(set(name.values()))),
                                 tuple((e, *(name[v] for v in h.endpoints(e)))
                                       for e in sorted(live)))
            t = tutte(between)
            term = (term * half(euler_genus(sub))
                    * t.substitute(x=var + 1, y=half(2) + 1, ring=HalfExpPoly))
        total = total + term
    return total


@settings(max_examples=80, deadline=None)
@given(ribbon_graphs(max_edges=6, max_vertices=4), st.randoms())
def test_krushkal_quasitree_matches_substitution_route(g, rng):
    order = list(g.edges)
    rng.shuffle(order)
    if len(connected_components(g)) != 1:
        with pytest.raises(RibbonGraphError):
            krushkal_quasitree(g, order)
        return
    assert krushkal_quasitree(g, order) == _krushkal_by_substitution(g, order)
    # the contrast, on the oracle's sides and on its Tutte polynomial
    assert krushkal_quasitree_oracle(g, order, subset_nullity=False) == \
        _krushkal_by_substitution(
            g, order, lambda h: classical_tutte_oracle(h, subset_nullity=False))


def test_subset_nullity_contrast_breaks_expansion(handle):
    """Regression pin: reading the nullity factor as a constant n(G) rather
    than n(G|A) breaks the four-variable quasi-tree identity on two
    interlaced orientable loops; the contrast is the oracle's."""
    direct = krushkal(handle)
    order = sorted(handle.edges)
    assert krushkal_quasitree(handle, order) == direct
    assert krushkal_quasitree_oracle(handle, order) == direct
    assert krushkal_quasitree_oracle(handle, order,
                                     subset_nullity=False) != direct


# ---------------------------------------------------------------------------
# corpus

def test_enumerate_connected_counts():
    by_edges = {}
    for g in enumerate_connected(4):
        by_edges.setdefault(len(g.edges), []).append(g)
    assert {m: len(gs) for m, gs in by_edges.items()} == \
        {0: 1, 1: 3, 2: 11, 3: 63, 4: 511}
    certs = [certificate(g) for gs in by_edges.values() for g in gs]
    assert len(certs) == len(set(certs)) == 589


def test_enumerate_connected_is_the_unpruned_loop():
    """The prunes skip only candidates with an earlier isomorphic copy, so
    the graphs and their order are those of the loop that certifies every
    candidate."""
    assert list(enumerate_connected(3)) == \
        list(enumerate_connected_unpruned(3))


def test_enumerate_connected_golden():
    """The rendered 4-edge enumeration, pinned by the sha256 of the
    unpruned loop's output."""
    text = "".join(render(PackagedRibbonGraph.discrete(g))
                   for g in enumerate_connected(4))
    assert hashlib.sha256(text.encode()).hexdigest() == \
        "3593dbf10c5c6f2c4080e2c7ec2f3f50d000edb800587e10a99f3f7696a3facb"


def test_corpus_deterministic():
    def snapshot():
        return [(certificate(g), shape(pg.vparts), shape(pg.bparts))
                for g, pg in corpus(2, seed=13, random_packagings=2)]

    assert snapshot() == snapshot()


def test_corpus_packagings_are_valid():
    for _, pg in corpus(2, seed=5, random_packagings=1):
        assert set().union(*pg.vparts.blocks or [set()]) == \
            set(pg.graph.vertices)


# ---------------------------------------------------------------------------
# cross-validation

def test_cross_validate_theta(theta):
    report = cross_validate(theta, [("e", "f", "g"), ("g", "f", "e")])
    assert report.equal
    assert report.shape_checks_passed
    assert report.state_sum == parse_poly(THETA_POLY)
    assert set(report.quasitree) == {("e", "f", "g"), ("g", "f", "e")}


def test_cross_validate_small_sample():
    orders = [("e1", "e2"), ("e2", "e1")]
    for g, pg in itertools.islice(corpus(2, seed=3), 20):
        use = [o for o in orders if set(o) >= set(g.edges)] or [tuple(g.edges)]
        report = cross_validate(pg, [tuple(e for e in o if e in g.edges)
                                     for o in use])
        assert report.equal, certificate(g)
        assert report.shape_checks_passed
