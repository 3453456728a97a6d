"""Kirchhoff's matrix-tree theorem on G and on its dual, against the
polynomial of the discrete packaging from each of the three pipelines.

With the discrete packaging, the term of an edge subset A carries y to the
nullity of G|A and one y_gamma factor per component of G|A, and x to the
nullity of G*|(E - A) and one x_gamma factor per component of that.  So
the spanning trees of G, the subsets with n(A) = 0 and k(A) = 1, are the
coefficients of the terms with y-exponent 0 and exactly one y_gamma
factor; the spanning trees of G* are the terms with x-exponent 0 and
exactly one x_gamma factor.  The coefficients also sum to 2^|E|.

Both counts are checked against a Laplacian determinant, by Bareiss's
fraction-free elimination on ints, of G and of G* as the test's own face
walks build it (:func:`test_las_vergnas.dual_graph`), which share no code
with the library's."""

from __future__ import annotations

from ribbonpoly.invariants import _minor_poly, pst_quasitree, pst_state_sum
from ribbonpoly.packaged import Minor, PackagedRibbonGraph
from ribbonpoly.poly import MultiPoly
from ribbonpoly.ribbon import RibbonGraph
from test_las_vergnas import dual_graph


def spanning_trees(n: int, ends) -> int:
    """The spanning trees of the multigraph on 0 .. n-1 with ``ends``: the
    determinant of its Laplacian less the last row and column.  A loop adds
    nothing to the Laplacian."""
    lap = [[0] * n for _ in range(n)]
    for u, w in ends:
        if u != w:
            lap[u][u] += 1
            lap[w][w] += 1
            lap[u][w] -= 1
            lap[w][u] -= 1
    a = [row[:-1] for row in lap[:-1]]
    sign, prev = 1, 1
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot], sign = a[pivot], a[k], -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def kirchhoff(g: RibbonGraph) -> tuple[int, int]:
    """The spanning trees of G and of G*."""
    index = {v: i for i, v in enumerate(g.rotation)}
    ends: dict = {}
    for v, hs in g.rotation.items():
        for e, _ in hs:
            ends.setdefault(e, []).append(index[v])
    f, dual_ends = dual_graph(g)
    return (spanning_trees(len(index), ends.values()),
            spanning_trees(f, dual_ends.values()))


def read_off(p: MultiPoly) -> tuple[int, int]:
    """The spanning trees of G and of G* from the discrete packaging's
    polynomial ``p``."""
    return (sum(c for m, c in p.terms.items()
                if m.ey == 0 and sum(e for _, e in m.eyg) == 1),
            sum(c for m, c in p.terms.items()
                if m.ex == 0 and sum(e for _, e in m.exg) == 1))


def test_matrix_tree_on_corpus4(graphs4):
    """Every graph of ``enumerate_connected(4)``, by the state sum, the
    compiled deletion-contraction and the quasi-tree expansion."""
    for g in graphs4:
        pg, want = PackagedRibbonGraph.discrete(g), kirchhoff(g)
        for p in (pst_state_sum(pg), _minor_poly(Minor.compile(pg)),
                  pst_quasitree(pg, sorted(g.edges))):
            assert read_off(p) == want, g
            assert sum(p.terms.values()) == 2 ** len(g.edges), g


def test_bareiss_counts_known_graphs():
    """K4 has 16 spanning trees, a 4-cycle 4, a triangle with a doubled
    edge 5, and two vertices with no edge between them none."""
    k4 = [(u, w) for u in range(4) for w in range(u + 1, 4)]
    assert spanning_trees(4, k4) == 16
    assert spanning_trees(4, [(0, 1), (1, 2), (2, 3), (3, 0)]) == 4
    assert spanning_trees(3, [(0, 1), (0, 1), (1, 2), (2, 0), (2, 2)]) == 5
    assert spanning_trees(2, []) == 0
    assert spanning_trees(1, [(0, 0)]) == 1
