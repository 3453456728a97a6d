"""Three-way agreement past the exhaustive sweep: Hypothesis-drawn 5-8-edge
packaged graphs, disconnected ones and isolated vertices included; the
recursion also on the last edge and on a Hypothesis-drawn edge at each
node, by ``packaged_oracle.delcon``."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from ribbonpoly.invariants import cross_validate, pst_delcon, pst_state_sum
from ribbonpoly.packaged import packaged_dual
from ribbonpoly.ribbon import connected_components
from packaged_oracle import delcon
from strategies import ribbon_graphs
from test_caches import random_packaging


@st.composite
def packaged_graphs(draw, min_edges=5, max_edges=8, max_vertices=4):
    """``strategies.ribbon_graphs`` with at least ``min_edges`` edges, then
    a random packaging."""
    g = draw(ribbon_graphs(max_edges, max_vertices, min_edges))
    return random_packaging(g, draw(st.integers(0, 2 ** 16)))


@settings(max_examples=30, deadline=None)
@given(packaged_graphs(), st.data())
def test_three_pipelines_agree_on_larger_graphs(pg, data):
    g = pg.graph
    ss = pst_state_sum(pg)
    assert pst_delcon(pg) == ss
    assert delcon(pg, lambda p: p.graph.edges[-1]) == ss
    assert delcon(pg, lambda p: data.draw(st.sampled_from(p.graph.edges),
                                          label="pivot")) == ss
    if len(connected_components(g)) == 1:
        n = data.draw(st.integers(2, 3))
        orders = [tuple(data.draw(st.permutations(g.edges)))
                  for _ in range(n)]
        rep = cross_validate(pg, orders)
        assert rep.equal and rep.shape_checks_passed
        assert len(rep.quasitree) == len(set(orders))
    assert pst_state_sum(packaged_dual(pg)) == ss.swap_xy()
