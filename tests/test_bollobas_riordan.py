"""The Bollobás–Riordan polynomial from its definition, against the
four-variable polynomial and its quasi-tree expansion: an oracle that
reaches graphs of positive genus, orientable or not.

With k(A), f(A), n(A) = |A| - v + k(A) and the Euler genus eg(A) =
2k(A) - v + |A| - f(A) of the spanning subgraph on A, and k = k(G),

    R(G; x, y, z) = sum over A of (x-1)^(k(A)-k) y^n(A) z^eg(A)
                  = y^(eg(G)/2) P(alpha = x-1, beta = y, a = y z^2, b = 1/y),

where P is the four-variable polynomial.  Both sides are kept as counters of
exponent triples (k(A) - k, n(A), eg(A)), so no algebra system is needed:
alpha^i beta^j a^(p/2) b^(q/2) goes to (i, j + (p - q + eg(G))/2, p).  The
boundary count is the test's own face tracing on the signed rotation
system, and shares no code with the library's."""

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


def walk_orbits(g: RibbonGraph, subset) -> dict:
    """The walk states of the spanning subgraph on ``subset``, each mapped
    to the first state of its orbit.  A walk state is an edge end about to
    be crossed and a local orientation s: cross the edge, reverse s if it is
    twisted, and turn to the next end of the rotation there (the previous
    one when s is reversed).  Each boundary is traced once in each
    direction, so it is two orbits of this map."""
    rot = [[h for h in ends if h[0] in subset] for ends in g.rotation.values()]
    at = {h: (ends, i) for ends in rot for i, h in enumerate(ends)}
    orbit: dict = {}
    for start in itertools.product(at, (1, -1)):
        h, s = start
        while (h, s) not in orbit:
            orbit[h, s] = start
            s *= g.sign[h[0]]
            ends, i = at[h[0], 3 - h[1]]
            h = ends[(i + s) % len(ends)]
    return orbit


def boundaries(g: RibbonGraph, subset) -> int:
    """Boundary components of the spanning subgraph on ``subset``: two walk
    orbits each, and one more per vertex with no end in the subset."""
    return (len(set(walk_orbits(g, subset).values())) // 2
            + sum(not any(e in subset for e, _ in ends)
                  for ends in g.rotation.values()))


def components(g: RibbonGraph, subset) -> int:
    """Connected components of the spanning subgraph on ``subset``."""
    vertex = {h: v for v, ends in g.rotation.items() for h in ends}
    root = {v: v for v in g.vertices}

    def find(v: str) -> str:
        while root[v] != v:
            v = root[v]
        return v

    for e in subset:
        root[find(vertex[e, 1])] = find(vertex[e, 2])
    return sum(root[v] == v for v in g.vertices)


def euler_genus(g: RibbonGraph, subset) -> int:
    k = components(g, subset)
    return 2 * k - len(g.vertices) + len(subset) - boundaries(g, subset)


def bollobas_riordan(g: RibbonGraph) -> Counter:
    """(k(A) - k, n(A), eg(A)) per edge subset A, counted."""
    k, v = components(g, g.sign), len(g.vertices)
    out: Counter = Counter()
    for r in range(len(g.sign) + 1):
        for a in itertools.combinations(g.sign, r):
            ka = components(g, a)
            out[ka - k, r - v + ka, euler_genus(g, a)] += 1
    return out


def substituted(p: HalfExpPoly, eg: int) -> Counter:
    """The terms of y^(eg/2) p(x-1, y, y z^2, 1/y) as exponent triples of
    (x-1), y and z; a y exponent that is not whole stays a fraction, and so
    mismatches."""
    out: Counter = Counter()
    for m, c in p.terms.items():
        out[m.ealpha, m.ebeta + Fraction(m.ea2 - m.eb2 + eg, 2), m.ea2] += c
    return out


def assert_expansions_match(g: RibbonGraph, order: list[str]) -> None:
    want, eg = bollobas_riordan(g), euler_genus(g, g.sign)
    assert substituted(krushkal(g), eg) == want, g
    assert substituted(krushkal_quasitree(g, order), eg) == want, (g, order)


def test_bollobas_riordan_on_corpus4(graphs4):
    """Every graph of ``enumerate_connected(4)``, the quasi-tree expansion
    under a seeded order."""
    rng = random.Random(6)
    for g in graphs4:
        order = list(g.edges)
        rng.shuffle(order)
        assert_expansions_match(g, order)


@settings(max_examples=40, deadline=None)
@given(ribbon_graphs(max_edges=7, min_edges=5), st.data())
def test_bollobas_riordan_on_larger_graphs(g, data):
    assume(components(g, g.sign) == 1)
    assert_expansions_match(g, list(data.draw(st.permutations(g.edges))))
