"""The compiled subset pass against the string-keyed subset sums it
replaces: packagings and boundary traces of restricted subgraphs."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonpoly.invariants import _krushkal_direct, _subset_keys, pst_state_sum
from ribbonpoly.packaged import PackagedRibbonGraph, component_gamma_values
from ribbonpoly.poly import HalfExpPoly, MultiPoly
from ribbonpoly.ribbon import (RibbonGraph, RibbonGraphError,
                               connected_components, enumerate_quasi_trees,
                               euler_genus, restrict, trace_boundaries)
from packaged_oracle import nullity, restricted_packagings
from test_caches import random_packaging
from test_ribbon import ribbon_graphs


def subsets(g: RibbonGraph):
    edges = g.edges
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            yield frozenset(combo)


def reference_term(pg: PackagedRibbonGraph, aset: frozenset) -> MultiPoly:
    """The state-sum term of the edge subset ``aset``: the packagings of
    (g|A, vertex partition) and (g*|A^c, boundary partition), and the gamma
    value of each of their components by re-tracing it."""
    g = pg.graph
    gd = g.duality[0]
    pk1, pk2 = restricted_packagings(pg, aset)
    term = MultiPoly.x(nullity(pk2)) * MultiPoly.y(nullity(pk1))
    for gamma in component_gamma_values(restrict(gd, set(g.sign) - aset), pk2):
        term = term * MultiPoly.xg(gamma)
    for gamma in component_gamma_values(restrict(g, aset), pk1):
        term = term * MultiPoly.yg(gamma)
    return term


def reference_krushkal(g: RibbonGraph) -> HalfExpPoly:
    gd = g.duality[0]
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
@given(ribbon_graphs(max_edges=6))
def test_krushkal_direct_equals_string_keyed_sum(g):
    keys = _subset_keys(PackagedRibbonGraph.discrete(g))
    assert _krushkal_direct(g, keys) == reference_krushkal(g)


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
