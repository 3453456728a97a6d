"""The per-graph kernel caches against fresh computations."""

from __future__ import annotations

import random

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ribbonpoly.invariants import _random_partition, cross_validate
from ribbonpoly.packaged import (PackagedRibbonGraph, packaged_contract,
                                 packaged_delete)
from ribbonpoly.ribbon import (RibbonGraph, connected_components,
                               dual_correspondences, enumerate_quasi_trees,
                               trace_boundaries)
from packaged_oracle import (_minor_shape_ok, _quasitree_minor,
                             _quasitree_terms, minor_shape_check)
from strategies import ribbon_graphs


def random_packaging(g: RibbonGraph, seed: int) -> PackagedRibbonGraph:
    rng = random.Random(seed)
    return PackagedRibbonGraph.build(
        g, _random_partition(rng, list(g.vertices)),
        _random_partition(rng, [c.id for c in trace_boundaries(g)]))


def assert_caches_fresh(g: RibbonGraph) -> None:
    """Every cached value of ``g`` equals the same computation on an equal
    graph that has cached nothing."""
    f = RibbonGraph(g.vertices, dict(g.rotation), dict(g.sign))
    assert f == g
    comps = trace_boundaries(f)
    assert g.boundaries == tuple(comps)
    assert g.boundary_of_dart == {d: c.id for c in comps for d in c.visits}
    assert g.end_vertex == {end: v for v in f.vertices
                            for end in f.rotation[v]}
    assert g.duality == dual_correspondences(f)
    assert g.kernel == f.kernel


@settings(max_examples=80, deadline=None)
@given(ribbon_graphs(), st.integers(0, 2 ** 16), st.data())
def test_caches_match_fresh_computation_along_minor_chains(g, seed, data):
    pg = random_packaging(g, seed)
    chain = [pg.graph]
    while pg.graph.sign:
        assert_caches_fresh(pg.graph)  # fills the caches before the step
        e = data.draw(st.sampled_from(pg.graph.edges))
        step = data.draw(st.sampled_from([packaged_delete, packaged_contract]))
        pg, _ = step(pg, e)
        chain.append(pg.graph)
    for h in chain:  # no later step changed an earlier graph's caches
        assert_caches_fresh(h)


@settings(max_examples=40, deadline=None)
@given(ribbon_graphs(), st.integers(0, 2 ** 16), st.data())
def test_cross_validate_shape_verdicts_match_minor_shape_check(g, seed, data):
    assume(len(connected_components(g)) == 1)
    pg = random_packaging(g, seed)
    orders = [tuple(data.draw(st.permutations(g.edges))) for _ in range(2)]
    verdicts = []
    quasi_trees = enumerate_quasi_trees(g)
    for order in orders:
        for q, act, _, _ in _quasitree_terms(pg, list(order), quasi_trees):
            ok = minor_shape_check(pg, q, order)
            minor = _quasitree_minor(pg, act.deleted_part(),
                                     act.contracted_part())
            assert _minor_shape_ok(act, minor.graph) == ok
            verdicts.append(ok)
    assert cross_validate(pg, orders).shape_checks_passed == all(verdicts)
