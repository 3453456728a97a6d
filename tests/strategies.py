"""Hypothesis strategies shared by the test modules.

They live here rather than in a test module so that any test module can
import any other at module level without an import cycle.
"""

from __future__ import annotations

from hypothesis import strategies as st

from ribbonpoly.ribbon import RibbonGraph


@st.composite
def ribbon_graphs(draw, max_edges=3, max_vertices=3, min_edges=0):
    m = draw(st.integers(min_edges, max_edges))
    names = [f"e{i + 1}" for i in range(m)]
    signs = {n: draw(st.sampled_from([1, -1])) for n in names}
    ends = [(n, i) for n in names for i in (1, 2)]
    perm = draw(st.permutations(ends))
    nv = draw(st.integers(1, max_vertices))
    assignment = [draw(st.integers(0, nv - 1)) for _ in perm]
    rotation = {f"v{j + 1}": tuple(e for e, a in zip(perm, assignment)
                                   if a == j)
                for j in range(nv)}
    return RibbonGraph.build(list(rotation), rotation, signs)
