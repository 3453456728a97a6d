"""Las Vergnas's polynomial from its definition, against the four-variable
polynomial and its quasi-tree expansion: an oracle of both sides, G and
its dual, on graphs of any genus, orientable or not.

Las Vergnas's Tutte polynomial of the perspective C(G*)^* -> C(G) (Las
Vergnas, "On the Tutte polynomial of a morphism of matroids", 1980) is

    L(G; x, y, z) = sum over A of (x-1)^(r'(E) - r'(A)) (y-1)^(|A| - r(A))
                                  z^((r(E) - r(A)) - (r'(E) - r'(A))),

with r'(A) = v - k(A) the rank of the cycle matroid of G and r(A) = |A| +
k* - k*(E - A) that of the dual of the cycle matroid of G*, where k*(B)
counts the components of the spanning subgraph of G* on B and k* = k.

The four-variable polynomial (Krushkal, "Graphs, links, and duality on
surfaces", CPC 2011) is

    P(G; alpha, beta, a, b) = sum over A of alpha^(k(A) - k)
        beta^(k*(E - A) - k*) a^(eg(A)/2) b^(eg*(E - A)/2),

with eg(A) = 2k(A) - v + |A| - f(A) and, on G*, which has f = f(E)
vertices, eg*(E - A) = 2k*(E - A) - f + |E - A| - f*(E - A).  Then:

* r'(E) - r'(A) = k(A) - k, the exponent of alpha;
* |A| - r(A) = k*(E - A) - k*, the exponent of beta;
* G|A and G*|(E - A) have the same boundary components, f*(E - A) =
  f(A), so with eg(G) = 2k - v + |E| - f,

      (eg(G) - eg(A) + eg*(E - A)) / 2 = k + |E| - f - k(A) - |A|
                                         + k*(E - A)
                                       = (r(E) - r(A)) - (r'(E) - r'(A)),

  as r(E) = |E| + k - f.

So L(G; x, y, z) = z^(eg(G)/2) P(G; alpha = x-1, beta = y-1, a = 1/z,
b = z).  Both sides are kept as counters of exponent triples of (x-1),
(y-1) and z, so no algebra system is needed: alpha^i beta^j a^(p/2)
b^(q/2) goes to (i, j, (q - p + eg(G))/2).

G* is read off the test's own boundary walks (:func:`walk_orbits`): its
vertices are the faces of G, and each edge joins the faces on its two
sides.  Nothing here shares code with the library's face tracing."""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ribbonpoly.invariants import krushkal, krushkal_quasitree
from ribbonpoly.poly import HalfExpPoly
from ribbonpoly.ribbon import RibbonGraph
from strategies import ribbon_graphs
from test_bollobas_riordan import (boundaries, components, euler_genus,
                                   walk_orbits)


def dual_graph(g: RibbonGraph) -> tuple[int, dict[str, tuple[int, int]]]:
    """G* as its vertex count and the two ends of each edge.

    A face is a pair of walk orbits of G, one per direction, or a vertex
    with no end.  The state (h, s) walks one side of h's edge from h; the
    state that walks the same side back is the other end with orientation
    -s times the edge's sign, and (h, -s) walks the edge's other side."""
    orbit = walk_orbits(g, g.sign)
    face: dict = {}
    for ((e, end), s), o in orbit.items():
        if o not in face:   # a new face: this orbit and its reverse
            back = orbit[(e, 3 - end), -s * g.sign[e]]
            assert back != o
            face[o] = face[back] = len(face) // 2
    n = len(face) // 2 + sum(not ends for ends in g.rotation.values())
    return n, {e: (face[orbit[(e, 1), 1]], face[orbit[(e, 1), -1]])
               for e in g.sign}


def count_components(n: int, ends) -> int:
    """Connected components of the multigraph on 0 .. n-1 with ``ends``."""
    root = list(range(n))

    def find(v: int) -> int:
        while root[v] != v:
            v = root[v]
        return v

    for u, w in ends:
        root[find(u)] = find(w)
    return sum(root[v] == v for v in range(n))


def las_vergnas(g: RibbonGraph) -> Counter:
    """(r'(E) - r'(A), |A| - r(A), (r(E) - r(A)) - (r'(E) - r'(A))) per
    edge subset A, counted."""
    edges, v = set(g.sign), len(g.vertices)
    f, dual_ends = dual_graph(g)
    k = components(g, edges)
    assert count_components(f, dual_ends.values()) == k
    assert f == boundaries(g, edges)

    def rank(a) -> int:   # of C(G*)^*
        rest = [dual_ends[e] for e in edges - set(a)]
        return len(a) + k - count_components(f, rest)

    def cycle_rank(a) -> int:   # of C(G)
        return v - components(g, a)

    out: Counter = Counter()
    for r in range(len(edges) + 1):
        for a in itertools.combinations(sorted(edges), r):
            null = cycle_rank(edges) - cycle_rank(a)
            out[null, len(a) - rank(a), rank(edges) - rank(a) - null] += 1
    return out


def las_vergnas_image(p: HalfExpPoly, eg: int) -> Counter:
    """The terms of z^(eg/2) p(x-1, y-1, 1/z, z) as exponent triples of
    (x-1), (y-1) and z; a z exponent that is not whole stays a fraction,
    and so mismatches."""
    out: Counter = Counter()
    for m, c in p.terms.items():
        out[m.ealpha, m.ebeta, Fraction(m.eb2 - m.ea2 + eg, 2)] += c
    return out


def assert_expansions_match(g: RibbonGraph, order: list[str]) -> None:
    want, eg = las_vergnas(g), euler_genus(g, g.sign)
    assert las_vergnas_image(krushkal(g), eg) == want, g
    assert las_vergnas_image(krushkal_quasitree(g, order), eg) == want, \
        (g, order)


def test_las_vergnas_on_corpus4(graphs4):
    """Every graph of ``enumerate_connected(4)``, the quasi-tree expansion
    under a seeded order."""
    rng = random.Random(26)
    for g in graphs4:
        order = list(g.edges)
        rng.shuffle(order)
        assert_expansions_match(g, order)


@settings(max_examples=40, deadline=None)
@given(ribbon_graphs(max_edges=7, min_edges=5), st.data())
def test_las_vergnas_on_larger_graphs(g, data):
    assume(components(g, g.sign) == 1)
    assert_expansions_match(g, list(data.draw(st.permutations(g.edges))))
