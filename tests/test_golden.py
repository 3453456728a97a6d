"""Pinned outputs on the <=3-edge corpus, compared against
``tests/golden_corpus3.json``.

The file holds, for each instance of ``corpus(3, 2024, random_packagings=3)``,
the canonical state-sum text, the SHA-256 of the rendered packaged dual and,
per edge, one SHA-256 over its packaged deletion and contraction minors with
their cases and the ``contract_edge`` boundary correspondence; and for each
graph one SHA-256 over the rendered partial duals on all of its edge
subsets, the ``classify_edge`` kind of every edge, ``orientable`` and the
``krushkal_quasitree`` text in sorted edge order with both
``subset_nullity`` values.  The test only reads the file.  To regenerate it
after an intended output change, run from the repository root::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import itertools
import json
import sys
from pathlib import Path

from ribbonpoly.fileformat import render
from ribbonpoly.invariants import corpus, krushkal_quasitree, pst_state_sum
from ribbonpoly.packaged import (PackagedRibbonGraph, _packaged_contract_case,
                                 _packaged_delete_case, packaged_dual)
from ribbonpoly.ribbon import (RibbonGraph, classify_edge, contract_edge,
                               orientable, partial_dual)

GOLDEN = Path(__file__).with_name("golden_corpus3.json")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _partial_duals_sha(g: RibbonGraph) -> str:
    """One hash over the partial duals on every edge subset, by size and
    then in ``combinations`` order."""
    edges = g.edges
    text = "".join(render(PackagedRibbonGraph.discrete(partial_dual(g, a)))
                   for r in range(len(edges) + 1)
                   for a in itertools.combinations(edges, r))
    return _sha(text)


def _minors_sha(pg: PackagedRibbonGraph, e: str) -> str:
    """One hash over both packaged minors at ``e`` with their cases and the
    sorted boundary correspondence of contracting ``e``."""
    deleted, dcase = _packaged_delete_case(pg, e)
    contracted, ccase = _packaged_contract_case(pg, e)
    corr = sorted(contract_edge(pg.graph, e)[1].items())
    return _sha(f"{render(deleted)}case {dcase}\n"
                f"{render(contracted)}case {ccase}\n{corr!r}")


def _graph_invariants(g: RibbonGraph) -> dict:
    order = sorted(g.edges)
    return {
        "edge_kinds": {e: classify_edge(g, e).value for e in g.edges},
        "orientable": orientable(g),
        "krushkal_quasitree": krushkal_quasitree(g, order).canonical_text(),
        "krushkal_quasitree_contrast": krushkal_quasitree(
            g, order, subset_nullity=False).canonical_text(),
    }


def golden() -> dict:
    instances = []
    graphs = []
    invariants = []
    last = None
    for g, pg in corpus(3, 2024, random_packagings=3):
        instances.append({
            "instance": render(pg),
            "state_sum": pst_state_sum(pg).canonical_text(),
            "dual_sha256": _sha(render(packaged_dual(pg))),
            "minors_sha256": [_minors_sha(pg, e) for e in g.edges],
        })
        if g is not last:
            graphs.append(_partial_duals_sha(g))
            invariants.append(_graph_invariants(g))
            last = g
    return {"corpus": "corpus(3, 2024, random_packagings=3)",
            "instances": instances, "partial_duals_sha256": graphs,
            "graph_invariants": invariants}


def test_corpus_outputs_match_golden_file():
    want = json.loads(GOLDEN.read_text())
    got = golden()
    assert len(got["instances"]) == len(want["instances"]) == 312
    assert len(got["partial_duals_sha256"]) == 78
    assert len(got["graph_invariants"]) == 78
    for i, (a, b) in enumerate(zip(got["instances"], want["instances"])):
        assert a == b, f"instance {i}"
    assert got == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.write_text(json.dumps(golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
