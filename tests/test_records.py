"""The library's records are immutable value types.

Each is a ``NamedTuple``: a field cannot be assigned and no attribute can
be added, two records built from equal fields are equal, and where every
field is hashable they hash equal.  Each factory below builds its record
afresh from a fresh graph, so the two records compared share no objects.
"""

from __future__ import annotations

import pytest

from conftest import THETA_EXAMPLE_RG
from ribbonpoly.fileformat import parse
from ribbonpoly.invariants import (Multigraph, ValidationReport,
                                   cross_validate, underlying_multigraph)
from ribbonpoly.packaged import (PackagedRibbonGraph, PackagingGraph,
                                 WeightedPartition, quotient)
from ribbonpoly.poly import HalfMonomial, Monomial
from ribbonpoly.ribbon import (ActivityReport, BoundaryComponent, Isomorphism,
                               QuasiTreeVertex, activities,
                               enumerate_quasi_trees, isomorphisms,
                               quasi_tree_vertex, trace_boundaries)


def _theta() -> PackagedRibbonGraph:
    return parse(THETA_EXAMPLE_RG)


def _packaging() -> PackagingGraph:
    pg = _theta()
    return quotient(pg.graph, pg.vparts, {v: v for v in pg.graph.vertices})


def _activities() -> ActivityReport:
    g = _theta().graph
    return activities(g, min(map(sorted, enumerate_quasi_trees(g))),
                      ["g", "f", "e"])


RECORDS = [
    (Monomial, lambda: Monomial(1, 2, ((3, 1),), ((0, 2),))),
    (HalfMonomial, lambda: HalfMonomial(1, 0, 3, 2)),
    (WeightedPartition,
     lambda: WeightedPartition.build("uvw", [("wv", 1), ("u", 0)])),
    (PackagedRibbonGraph, _theta),
    (PackagingGraph, _packaging),
    (BoundaryComponent, lambda: trace_boundaries(_theta().graph)[0]),
    (ActivityReport, _activities),
    (QuasiTreeVertex, lambda: quasi_tree_vertex(_theta().graph, {"f"})),
    (Isomorphism, lambda: next(isomorphisms(_theta().graph, _theta().graph))),
    (Multigraph, lambda: underlying_multigraph(_theta().graph)),
    (ValidationReport,
     lambda: cross_validate(_theta(), [("e", "f", "g"), ("g", "f", "e")])),
]


@pytest.mark.parametrize("cls, make", RECORDS,
                         ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_is_an_immutable_value(cls, make):
    a, b = make(), make()
    assert type(a) is cls and type(b) is cls
    assert a == b and a == tuple(b)
    for name in cls._fields:
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(b, name))
    with pytest.raises(AttributeError):
        a.extra = None
    assert a == b
    try:
        hash(tuple(a))
    except TypeError:
        return   # a field is a dict or holds a RibbonGraph
    assert hash(a) == hash(b)
