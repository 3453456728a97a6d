"""Pinned outputs on the <=3-edge corpus, compared against
``tests/golden_corpus3.json``.

The file holds, for each instance of ``corpus(3, 2024, random_packagings=3)``,
the canonical state-sum text, the SHA-256 of the rendered packaged dual and,
per edge, one SHA-256 over its packaged deletion and contraction minors with
their cases and the ``contract_edge`` boundary correspondence; and for each
graph one SHA-256 over the rendered partial duals on all of its edge
subsets, the ``classify_edge`` kind of every edge, ``orientable`` and the
``krushkal_quasitree`` text in sorted edge order, and the text of its
non-Tutte contrast, which ``packaged_oracle.krushkal_quasitree_oracle``
computes with ``subset_nullity=False``; and for a few seeded connected
6-8-edge packaged
graphs, their ``pst_delcon`` text and their ``pst_quasitree`` text in sorted
edge order.  For every graph of both kinds it also holds one SHA-256 over
the ``activities`` report of each quasi-tree in sorted and one in reversed
edge order.  And it holds, for each instance, one SHA-256 over what
``validate --orders 3 --seed <i>`` prints for the i-th and its exit code,
and the same, at seed 0, for a disconnected and an edgeless input.  For
each graph and for the edgeless input it holds one SHA-256 over what
``specialize --format structured`` prints and its exit code for each
target (2 for ``surface-tutte`` on a non-orientable graph), and for each
larger graph one over ``compute --method statesum --format structured``'s.
The test only reads the file.  To regenerate it
after an intended output change, run from the repository root::

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from ribbonpoly import cli
from ribbonpoly.fileformat import render
from ribbonpoly.invariants import (_random_partition, corpus,
                                   krushkal_quasitree, pst_delcon,
                                   pst_quasitree, pst_state_sum)
from ribbonpoly.packaged import (PackagedRibbonGraph, packaged_contract,
                                 packaged_delete, packaged_dual)
from packaged_oracle import classify_edge, krushkal_quasitree_oracle
from ribbonpoly.ribbon import (ActivityReport, RibbonGraph, activities,
                               connected_components,
                               contract_edge, enumerate_quasi_trees,
                               orientable, partial_dual)

GOLDEN = Path(__file__).with_name("golden_corpus3.json")
# (seed, edges, vertices) of the larger packaged graphs
LARGE = ((1, 6, 2), (2, 7, 3), (3, 8, 2), (4, 8, 3))
# validate's inputs without a quasi-tree expansion
VALIDATE_FIXED = {
    "disconnected": "edges: e+ f- g+\nvertex v1: e.1 f.1 e.2 f.2\n"
                    "vertex v2: g.1\nvertex v3: g.2\nvertex v4:\n",
    "edgeless": "edges:\nvertex v1:\nvertex v2:\n",
}


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
    deleted, dcase = packaged_delete(pg, e)
    contracted, ccase = packaged_contract(pg, e)
    corr = sorted(contract_edge(pg.graph, e)[1].items())
    return _sha(f"{render(deleted)}case {dcase}\n"
                f"{render(contracted)}case {ccase}\n{corr!r}")


def _activities_sha(g: RibbonGraph) -> list[str]:
    """Per order, sorted then reversed, one hash over every quasi-tree's
    activity report, each field's edges sorted."""
    fields = ActivityReport._fields
    quasi_trees = enumerate_quasi_trees(g)
    out = []
    for order in (sorted(g.edges), sorted(g.edges, reverse=True)):
        reports = [(sorted(q), [(f, sorted(getattr(rep, f))) for f in fields])
                   for q in quasi_trees for rep in [activities(g, q, order)]]
        out.append(_sha(repr(reports)))
    return out


def _cli_sha(path: Path, text: str, *runs: list[str]) -> str:
    """One hash over what each of ``runs``, a command and its options,
    prints on the file ``text``, written to ``path``, and its exit code;
    standard error is dropped."""
    path.write_text(text)
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        for cmd, *opts in runs:
            print(f"exit {cli.main([cmd, str(path), *opts])}")
    return _sha(out.getvalue())


def _validate_sha(path: Path, text: str, seed: int) -> str:
    """One hash over what ``validate --orders 3 --seed <seed>`` prints for
    the file ``text`` and its exit code."""
    return _cli_sha(path, text, ["validate", "--orders", "3",
                                 "--seed", str(seed)])


def _specialize_sha(path: Path, text: str) -> str:
    """One hash over what ``specialize --format structured`` prints for the
    file ``text`` and its exit code, for each target in turn."""
    return _cli_sha(path, text, *(
        ["specialize", "--target", t, "--format", "structured"]
        for t in ("krushkal", "surface-tutte", "classical-tutte")))


def _graph_invariants(g: RibbonGraph) -> dict:
    order = sorted(g.edges)
    return {
        "edge_kinds": {e: classify_edge(g, e).value for e in g.edges},
        "orientable": orientable(g),
        "krushkal_quasitree": krushkal_quasitree(g, order).canonical_text(),
        "krushkal_quasitree_contrast": krushkal_quasitree_oracle(
            g, order, subset_nullity=False).canonical_text(),
        "activities_sha256": _activities_sha(g),
    }


def _large_instance(seed: int, m: int, nv: int) -> PackagedRibbonGraph:
    """A connected graph with ``m`` edges whose ends and signs are drawn
    from ``seed`` across ``nv`` vertices, with random weighted partitions."""
    rng = random.Random(seed)
    ends = [(f"e{i + 1}", j) for i in range(m) for j in (1, 2)]
    while True:
        rng.shuffle(ends)
        at = [rng.randrange(nv) for _ in ends]
        rotation = {f"v{k + 1}": [x for x, a in zip(ends, at) if a == k]
                    for k in range(nv)}
        sign = {f"e{i + 1}": rng.choice((1, -1)) for i in range(m)}
        g = RibbonGraph.build(list(rotation), rotation, sign)
        if len(connected_components(g)) == 1:
            break
    return PackagedRibbonGraph.build(
        g, _random_partition(rng, list(g.vertices)),
        _random_partition(rng, [c.id for c in g.boundaries]))


def _large() -> list[dict]:
    out = []
    for seed, m, nv in LARGE:
        pg = _large_instance(seed, m, nv)
        out.append({
            "instance": render(pg),
            "delcon": pst_delcon(pg).canonical_text(),
            "quasitree": pst_quasitree(
                pg, sorted(pg.graph.edges)).canonical_text(),
            "activities_sha256": _activities_sha(pg.graph),
        })
    return out


def golden() -> dict:
    instances = []
    graphs = []
    invariants = []
    discrete = []   # each graph's first instance, its discrete packaging
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
            discrete.append(instances[-1]["instance"])
            last = g
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "instance.rg"
        for i, inst in enumerate(instances):
            inst["validate_sha256"] = _validate_sha(path, inst["instance"], i)
        fixed = {name: _validate_sha(path, text, 0)
                 for name, text in VALIDATE_FIXED.items()}
        for inv, text in zip(invariants, discrete):
            inv["specialize_sha256"] = _specialize_sha(path, text)
        edgeless = _specialize_sha(path, VALIDATE_FIXED["edgeless"])
        large = _large()
        for inst in large:
            inst["statesum_sha256"] = _cli_sha(
                path, inst["instance"],
                ["compute", "--method", "statesum", "--format", "structured"])
    return {"corpus": "corpus(3, 2024, random_packagings=3)",
            "instances": instances, "partial_duals_sha256": graphs,
            "graph_invariants": invariants, "large": large,
            "validate_fixed_sha256": fixed,
            "specialize_edgeless_sha256": edgeless}


def test_corpus_outputs_match_golden_file():
    want = json.loads(GOLDEN.read_text())
    got = golden()
    assert len(got["instances"]) == len(want["instances"]) == 312
    assert len(got["partial_duals_sha256"]) == 78
    assert len(got["graph_invariants"]) == 78
    assert len(got["large"]) == len(LARGE)
    for i, (a, b) in enumerate(zip(got["instances"], want["instances"])):
        assert a == b, f"instance {i}"
    assert got == want


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_golden.py --write")
    GOLDEN.write_text(json.dumps(golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
