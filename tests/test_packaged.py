from __future__ import annotations

import itertools

import pytest

from conftest import rg
from ribbonpoly.invariants import pst_delcon, pst_state_sum
from ribbonpoly.packaged import (PackagedRibbonGraph, PackagingError,
                                 WeightedPartition, packaged_contract,
                                 packaged_delete, packaged_dual, quotient)
from ribbonpoly.ribbon import RibbonGraphError, trace_boundaries
from packaged_oracle import (component_gamma, nullity, packaged_isomorphic,
                             packaging, restricted_packagings)


def theta_pg():
    g = rg({"v1": [("e", 1), ("f", 1), ("e", 2), ("g", 1)],
            "v2": [("f", 2), ("g", 2)]},
           {"e": 1, "f": 1, "g": 1})
    return PackagedRibbonGraph.discrete(g)


def shape(wp):
    return sorted((sorted(b), w) for b, w in zip(wp.blocks, wp.weights))


# ---------------------------------------------------------------------------
# partitions and build validation

def test_build_discrete_is_valid():
    pg = theta_pg()
    assert all(len(b) == 1 for b in pg.vparts.blocks)
    assert all(w == 0 for w in pg.bparts.weights)


def test_build_rejects_unknown_boundary_id():
    g = rg({"v1": [("e", 1)], "v2": [("e", 2)]}, {"e": 1})
    with pytest.raises(PackagingError):
        PackagedRibbonGraph.build(
            g, WeightedPartition.discrete(g.vertices),
            WeightedPartition.build(["b2"], [({"b2"}, 0)]))


def test_partition_rejects_overlap_and_gaps():
    with pytest.raises(PackagingError):
        WeightedPartition.build(["a", "b"], [({"a", "b"}, 0), ({"b"}, 0)])
    with pytest.raises(PackagingError):
        WeightedPartition.build(["a", "b"], [({"a"}, 0)])
    with pytest.raises(PackagingError):
        WeightedPartition.build(["a"], [({"a"}, -1)])


# ---------------------------------------------------------------------------
# packaging graphs

def test_packaging_discrete_theta():
    pk = packaging(theta_pg())
    assert len(pk.blocks) == 2
    kinds = sorted((min(i, j), max(i, j)) for i, j, _ in pk.edges)
    assert kinds == [(0, 0), (0, 1), (0, 1)]  # one loop, two parallel edges
    assert nullity(pk) == 2


def test_packaging_single_block_is_all_loops():
    g = theta_pg().graph
    pg = PackagedRibbonGraph.build(
        g, WeightedPartition.build(g.vertices, [({"v1", "v2"}, 0)]),
        theta_pg().bparts)
    pk = packaging(pg)
    assert len(pk.blocks) == 1
    assert nullity(pk) == 3


def test_restricted_packagings_theta():
    pk1, pk2 = restricted_packagings(theta_pg(), {"f"})
    assert nullity(pk1) == 0  # path on the two vertex blocks
    assert len(pk1.edges) == 1
    pk1, pk2 = restricted_packagings(theta_pg(), set("efg"))
    assert len(pk2.edges) == 0


def test_nullity_examples():
    pk = quotient(rg({"v1": [("e", 1), ("e", 2)]}, {"e": 1}),
                  WeightedPartition.discrete(["v1"]), {"v1": "v1"})
    assert nullity(pk) == 1


# ---------------------------------------------------------------------------
# component gamma

def test_component_gamma_spec_examples():
    iso = rg({"v1": []}, {})
    assert component_gamma(PackagedRibbonGraph.discrete(iso), "vertex",
                           {"v1"}) == 0
    mob = rg({"v1": [("e", 1), ("e", 2)]}, {"e": -1})
    assert component_gamma(PackagedRibbonGraph.discrete(mob), "vertex",
                           {"v1"}) == 1
    two = rg({"v1": [], "v2": []}, {})
    pg = PackagedRibbonGraph.build(
        two, WeightedPartition.build(["v1", "v2"], [({"v1", "v2"}, 1)]),
        WeightedPartition.discrete(["b1", "b2"]))
    assert component_gamma(pg, "vertex", {"v1", "v2"}) == 0


def test_component_gamma_boundary_side():
    pg = theta_pg()
    bids = [c.id for c in trace_boundaries(pg.graph)]
    assert component_gamma(pg, "boundary", set(bids)) == 2


def test_component_gamma_rejects_non_component():
    pg = theta_pg()
    with pytest.raises(PackagingError):
        component_gamma(pg, "vertex", {"v1"})  # v1, v2 are one component


# ---------------------------------------------------------------------------
# packaged deletion

def test_delete_bridge_case_three():
    g = rg({"v1": [("e", 1)], "v2": [("e", 2)]}, {"e": 1})
    res, case = packaged_delete(PackagedRibbonGraph.discrete(g), "e")
    assert case == 3
    assert shape(res.bparts) == [(["b1", "b2"], 1)]
    assert shape(res.vparts) == [(["v1"], 0), (["v2"], 0)]


def test_delete_merges_distinct_blocks_weights_add():
    # two parallel edges between two vertices; the sides of f lie on
    # distinct boundary components
    g = rg({"v1": [("e", 1), ("f", 1)], "v2": [("f", 2), ("e", 2)]},
           {"e": 1, "f": 1})
    comps = trace_boundaries(g)
    assert len(comps) == 2
    pg = PackagedRibbonGraph.build(
        g, WeightedPartition.discrete(g.vertices),
        WeightedPartition.build(["b1", "b2"], [({"b1"}, 2), ({"b2"}, 3)]))
    res, case = packaged_delete(pg, "f")
    assert case == 1
    assert shape(res.bparts) == [(["b1"], 5)]


def test_delete_same_block_case_two():
    g = rg({"v1": [("e", 1), ("f", 1)], "v2": [("f", 2), ("e", 2)]},
           {"e": 1, "f": 1})
    pg = PackagedRibbonGraph.build(
        g, WeightedPartition.discrete(g.vertices),
        WeightedPartition.build(["b1", "b2"], [({"b1", "b2"}, 4)]))
    res, case = packaged_delete(pg, "f")
    assert case == 2
    assert shape(res.bparts) == [(["b1"], 5)]


def test_delete_plane_loop_case_four():
    mob = rg({"v1": [("e", 1), ("e", 2)]}, {"e": -1})
    res, case = packaged_delete(PackagedRibbonGraph.discrete(mob), "e")
    assert case == 4
    assert shape(res.bparts) == [(["b1"], 1)]


def test_delete_keeps_vertex_partition():
    pg = theta_pg()
    res, _ = packaged_delete(pg, "f")
    assert res.vparts == pg.vparts


# ---------------------------------------------------------------------------
# packaged contraction

def test_contract_nonloop_merges_blocks():
    g = rg({"v1": [("e", 1)], "v2": [("e", 2)]}, {"e": 1})
    pg = PackagedRibbonGraph.build(
        g, WeightedPartition.build(g.vertices, [({"v1"}, 2), ({"v2"}, 5)]),
        WeightedPartition.discrete(["b1"]))
    res, case = packaged_contract(pg, "e")
    assert case == 1
    assert list(res.vparts.weights) == [7]


def test_contract_nonloop_same_block():
    g = rg({"v1": [("e", 1)], "v2": [("e", 2)]}, {"e": 1})
    pg = PackagedRibbonGraph.build(
        g, WeightedPartition.build(g.vertices, [({"v1", "v2"}, 1)]),
        WeightedPartition.discrete(["b1"]))
    res, case = packaged_contract(pg, "e")
    assert case == 2
    assert list(res.vparts.weights) == [2]


def test_contract_orientable_loop_two_new_vertices():
    ann = rg({"v1": [("e", 1), ("e", 2)]}, {"e": 1})
    res, case = packaged_contract(PackagedRibbonGraph.discrete(ann), "e")
    assert case == 3
    assert len(res.graph.vertices) == 2
    assert shape(res.vparts) == [(sorted(res.graph.vertices), 1)]


def test_contract_nonorientable_loop_one_new_vertex():
    mob = rg({"v1": [("e", 1), ("e", 2)]}, {"e": -1})
    res, case = packaged_contract(PackagedRibbonGraph.discrete(mob), "e")
    assert case == 4
    assert len(res.graph.vertices) == 1
    assert list(res.vparts.weights) == [1]


def test_contract_transports_boundary_partition_unchanged():
    pg = theta_pg()
    res, _ = packaged_contract(pg, "f")
    assert sorted(len(b) for b in res.bparts.blocks) == \
        sorted(len(b) for b in pg.bparts.blocks)
    assert sorted(res.bparts.weights) == sorted(pg.bparts.weights)


def test_unknown_edge_errors():
    pg = theta_pg()
    with pytest.raises(RibbonGraphError):
        packaged_delete(pg, "zz")
    with pytest.raises(RibbonGraphError):
        packaged_contract(pg, "zz")


# ---------------------------------------------------------------------------
# packaged duality

def test_packaged_dual_discrete_stays_discrete():
    pd = packaged_dual(theta_pg())
    assert all(len(b) == 1 for b in pd.vparts.blocks)
    assert all(w == 0 for w in pd.vparts.weights)
    assert all(w == 0 for w in pd.bparts.weights)


def test_packaged_dual_transports_weights():
    g = theta_pg().graph
    pg = PackagedRibbonGraph.build(
        g, WeightedPartition.discrete(g.vertices),
        WeightedPartition.build(["b1"], [({"b1"}, 3)]))
    pd = packaged_dual(pg)
    assert list(pd.vparts.weights) == [3]
    assert len(pd.vparts.blocks) == 1


def test_packaged_dual_involution():
    pg = theta_pg()
    assert packaged_isomorphic(packaged_dual(packaged_dual(pg)), pg)


def test_packaged_dual_exchanges_packagings():
    pg = theta_pg()
    pd = packaged_dual(pg)
    pk_dual_vertexside = packaging(pd)
    _, pk_boundary = restricted_packagings(pg, set(pg.graph.edges))
    # same block weights and same multiset of edge assignments
    assert sorted(pk_dual_vertexside.weights) == sorted(pk_boundary.weights)
    assert len(pk_dual_vertexside.edges) == len(pg.graph.edges)


# ---------------------------------------------------------------------------
# commutation at polynomial level

def test_operations_commute_at_polynomial_level():
    pg = theta_pg()
    ops = {"d": packaged_delete, "c": packaged_contract}
    for o1, o2 in itertools.product("dc", repeat=2):
        p12 = pst_state_sum(ops[o2](ops[o1](pg, "e")[0], "f")[0])
        p21 = pst_state_sum(ops[o1](ops[o2](pg, "f")[0], "e")[0])
        assert p12 == p21, (o1, o2)


def test_block_sum_conservation_under_merge():
    # case-1 merge: terminal exponent of the merged block equals the sum
    # of the two old exponents
    g = rg({"v1": [("e", 1), ("f", 1)], "v2": [("f", 2), ("e", 2)]},
           {"e": 1, "f": 1})
    pg = PackagedRibbonGraph.build(
        g, WeightedPartition.discrete(g.vertices),
        WeightedPartition.build(["b1", "b2"], [({"b1"}, 2), ({"b2"}, 3)]))
    before = [1 - len(b) + w
              for b, w in zip(pg.bparts.blocks, pg.bparts.weights)]
    res, case = packaged_delete(pg, "f")
    assert case == 1
    after = [1 - len(b) + w
             for b, w in zip(res.bparts.blocks, res.bparts.weights)]
    assert sum(after) == sum(before)


def test_delcon_agrees_with_state_sum_on_packaged_theta():
    g = theta_pg().graph
    pg = PackagedRibbonGraph.build(
        g, WeightedPartition.build(g.vertices, [({"v1", "v2"}, 2)]),
        WeightedPartition.build(["b1"], [({"b1"}, 1)]))
    assert pst_delcon(pg) == pst_state_sum(pg)
