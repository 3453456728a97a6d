"""A second oracle for the plane specialization (acceptance criterion 9):
on plane graphs the four-variable polynomial at alpha = x-1, beta = y-1,
a = b = 1 is networkx's Tutte polynomial of the underlying multigraph."""

from __future__ import annotations

import pytest

from ribbonpoly.invariants import enumerate_connected, krushkal
from ribbonpoly.poly import MultiPoly
from ribbonpoly.ribbon import euler_genus


def test_plane_krushkal_is_networkx_tutte():
    nx = pytest.importorskip("networkx")
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    plane = [g for g in enumerate_connected(3) if euler_genus(g) == 0]
    assert len(plane) > 10
    for g in plane:
        got = krushkal(g).substitute(alpha=MultiPoly.x() - 1,
                                     beta=MultiPoly.y() - 1, a=1, b=1,
                                     ring=MultiPoly)
        h = nx.MultiGraph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(g.endpoints(e) for e in g.edges)
        want = sympy.Poly(nx.tutte_polynomial(h), x, y).as_dict()
        assert ({(m.ex, m.ey): c for m, c in got.terms.items()}
                == {k: int(c) for k, c in want.items()}), g
