"""The compiled packaged minor of the quasi-tree expansion against the
string-level packaged minors, the one-step set minor against a chain of
single steps, the call contract of deletion-contraction that
``bench/spans.py`` counts, and the compiled deletion-contraction of
``cross_validate``."""

from __future__ import annotations

import io
import json
from collections import Counter
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import THETA_EXAMPLE_RG
from ribbonpoly import cli, invariants, packaged, ribbon
from ribbonpoly.fileformat import parse, render
from ribbonpoly.invariants import (_minor_poly, enumerate_connected, krushkal,
                                   krushkal_quasitree, pst_delcon,
                                   pst_quasitree)
from ribbonpoly.packaged import (Minor, PackagedRibbonGraph,
                                 packaged_contract, packaged_delete)
from ribbonpoly.ribbon import connected_components, union_find
from packaged_oracle import _quasitree_minor
from strategies import ribbon_graphs
from test_caches import random_packaging
from test_golden import _large_instance


def compiled_blocks(m: Minor) -> tuple[set[str], int, list, list]:
    """The live edges; the isolated vertices; and per side, sorted, one
    (ends of the block's darts, gamma, elements with darts) per block.  The
    elements with darts are the orbits of ``t1`` with ``d ^ 1`` (vertices)
    and with ``t0`` (boundary walks) on the live darts."""
    names, t0 = m.kernel.darts, m.kernel.t0
    live = [d for d, p in enumerate(m.t1) if p >= 0]
    sides = []
    for s, cross in ((0, lambda d: d ^ 1), (1, lambda d: t0[d])):
        roots = union_find(len(m.t1), [(d, m.t1[d]) for d in live]
                           + [(d, cross(d)) for d in live])
        labels = m.labels[s]
        ends: dict[int, list] = {}
        count = Counter()
        for r in {roots[d] for d in live}:
            count[labels[r]] += 1
        for d in live:
            ends.setdefault(labels[d], []).append(names[d][:2])
        sides.append(sorted((sorted(ends.get(b, [])), gamma, count[b])
                            for b, gamma in enumerate(m.gammas[s])
                            if gamma is not None))
    return ({names[d][0] for d in live}, m.isolated, *sides)


def string_blocks(pg: PackagedRibbonGraph) -> tuple[set[str], int, list,
                                                    list]:
    """:func:`compiled_blocks` of a string-level packaged graph, where a
    block's gamma is 1 + its weight - its elements without darts."""
    g = pg.graph

    def blocks(parts, ends: dict[str, list]) -> list:
        return sorted((sorted(d for x in b for d in ends[x]),
                       1 + w - sum(not ends[x] for x in b),
                       sum(bool(ends[x]) for x in b))
                      for b, w in zip(parts.blocks, parts.weights))

    vends = {v: [end for end in g.rotation[v] for _ in "LR"]
             for v in g.vertices}
    bends = {c.id: [d[:2] for d in c.visits] for c in g.boundaries}
    return (set(g.sign), sum(not ends for ends in vends.values()),
            blocks(pg.vparts, vends), blocks(pg.bparts, bends))


def step_both(pg: PackagedRibbonGraph, m: Minor, e: str, k: int,
              contract: bool) -> tuple[PackagedRibbonGraph, Minor]:
    """Delete (contract) edge ``e``, compiled as ``k``, from the string
    minor and from the compiled one, and require the same minor and number
    of connected components of both, and that the compiled step adds 1 to
    x (y) exactly when the string step merged no two blocks (case != 1),
    leaving the other exponent as it was."""
    step = packaged_contract if contract else packaged_delete
    pg, case = step(pg, e)
    x, y = m.xy
    m = m.step(k, contract)
    assert m.xy == ((x, y + (case != 1)) if contract
                    else (x + (case != 1), y))
    assert compiled_blocks(m) == string_blocks(pg)
    assert m.components() == len(connected_components(pg.graph))
    return pg, m


@settings(max_examples=150, deadline=None)
@given(ribbon_graphs(max_edges=6), st.integers(0, 2 ** 16), st.data())
def test_compiled_steps_match_string_minors(g, seed, data):
    """Disconnected graphs and isolated vertices included."""
    pg = random_packaging(g, seed)
    m = Minor.compile(pg)
    index = {e: k for k, e in enumerate(g.edges)}
    assert compiled_blocks(m) == string_blocks(pg)
    assert _minor_poly(m) == pst_delcon(pg)
    while pg.graph.sign:
        e = data.draw(st.sampled_from(pg.graph.edges))
        pg, m = step_both(pg, m, e, index[e], data.draw(st.booleans()))


def test_every_corpus_step_matches_string_minors():
    """Every single step of every graph of ``enumerate_connected(3)``, each
    edge deleted and contracted, under the discrete packaging and a seeded
    random one.  From the discrete roots, 66 steps leave one orbit of the
    edge's darts alone and 2 leave two (an end alone at its vertex, a
    twisted or untwisted loop alone), so these cases do not rest on
    Hypothesis draws."""
    lone: Counter = Counter()
    for i, g in enumerate(enumerate_connected(3)):
        discrete = PackagedRibbonGraph.discrete(g)
        for pg in (discrete, random_packaging(g, i)):
            root = Minor.compile(pg)
            for k, e in enumerate(g.edges):
                for contract in (False, True):
                    m = step_both(pg, root, e, k, contract)[1]
                    if pg is discrete:   # each lone orbit isolates a vertex
                        lone[m.isolated - root.isolated] += 1
    assert lone == {0: 360, 1: 66, 2: 2}


@settings(max_examples=150, deadline=None)
@given(ribbon_graphs(max_edges=6), st.integers(0, 2 ** 16), st.data())
def test_set_minor_matches_step_chain(g, seed, data):
    """``Minor.minor(B, A)`` equals stepping each edge of B and A in a
    random order, ``xy`` included, and the string minor chain, and doing it
    in two parts equals doing it at once.  Disconnected graphs and isolated
    vertices included."""
    pg = random_packaging(g, seed)
    root = Minor.compile(pg)
    roles = data.draw(st.lists(st.sampled_from("dck"), min_size=len(g.sign),
                               max_size=len(g.sign)))
    deleted = sum(1 << k for k, r in enumerate(roles) if r == "d")
    contracted = sum(1 << k for k, r in enumerate(roles) if r == "c")
    one, chain = root.minor(deleted, contracted), root
    for k in data.draw(st.permutations([k for k, r in enumerate(roles)
                                        if r != "k"])):
        chain = chain.step(k, contracted >> k & 1)
    assert (one.live, one.t1, one.xy) == (chain.live, chain.t1, chain.xy)
    assert compiled_blocks(one) == compiled_blocks(chain)
    assert _minor_poly(one) == _minor_poly(chain)
    names = [{e for e, r in zip(g.edges, roles) if r == role}
             for role in "dc"]
    assert compiled_blocks(one) == string_blocks(_quasitree_minor(pg, *names))
    first = data.draw(st.integers(0, root.kernel.full))
    two = root.minor(deleted & first, contracted & first).minor(
        deleted & ~first, contracted & ~first)
    assert (two.live, two.t1, two.xy) == (one.live, one.t1, one.xy)
    assert compiled_blocks(two) == compiled_blocks(one)


# ---------------------------------------------------------------------------
# the delcon call contract

FIXTURES = {"theta": lambda: parse(THETA_EXAMPLE_RG),
            "seeded6": lambda: _large_instance(1, 6, 2)}


def _counting(calls: list, fn):
    def wrapper(*args, **kwargs):
        calls.append(args[0] if args else None)
        return fn(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("name", FIXTURES)
def test_delcon_counts_one_call_per_node(name, tmp_path, monkeypatch):
    """Through a wrapper rebound at every module's ``pst_delcon``, as
    ``bench/spans.py`` installs it, ``compute --method delcon`` makes
    2^(m+1) - 1 calls, each on a packaged graph, and reports that count."""
    pg = FIXTURES[name]()
    path = tmp_path / f"{name}.rg"
    path.write_text(render(pg))
    calls: list = []
    wrapped = _counting(calls, pst_delcon)
    monkeypatch.setattr(invariants, "pst_delcon", wrapped)
    monkeypatch.setattr(cli, "pst_delcon", wrapped)
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli.main(["compute", str(path), "--method", "delcon",
                         "--format", "structured"]) == 0
    assert len(calls) == 2 ** (len(pg.graph.edges) + 1) - 1
    assert all(isinstance(a, PackagedRibbonGraph) for a in calls)
    assert json.loads(out.getvalue())["counters"] == {
        "delcon_nodes": len(calls)}


@pytest.mark.parametrize("name", FIXTURES)
def test_quasitree_builds_no_string_minor(name, monkeypatch):
    """Both quasi-tree expansions, the packaged one and the four-variable
    one, run on the reverse-order walk: no string minor, no scan, no
    ``activities`` call, no ``Minor.minor`` call and no string-level
    ``connected_components`` call."""
    pg = FIXTURES[name]()
    want, want_krushkal = pst_delcon(pg), krushkal(pg.graph)
    calls: dict[str, list] = {}
    for module in (ribbon, packaged, invariants):
        for fn in ("packaged_delete", "packaged_contract", "pst_delcon",
                   "activities", "enumerate_quasi_trees",
                   "connected_components"):
            if fn in vars(module):
                monkeypatch.setattr(module, fn, _counting(
                    calls.setdefault(fn, []), getattr(module, fn)))
    monkeypatch.setattr(PackagedRibbonGraph, "build", staticmethod(
        _counting(calls.setdefault("build", []), PackagedRibbonGraph.build)))
    monkeypatch.setattr(Minor, "minor", _counting(
        calls.setdefault("Minor.minor", []), Minor.minor))
    assert pst_quasitree(pg, sorted(pg.graph.edges)) == want
    assert (krushkal_quasitree(pg.graph, sorted(pg.graph.edges))
            == want_krushkal)
    assert {fn: len(c) for fn, c in calls.items()} == {
        "packaged_delete": 0, "packaged_contract": 0, "pst_delcon": 0,
        "activities": 0, "enumerate_quasi_trees": 0,
        "connected_components": 0, "build": 0, "Minor.minor": 0}


VALIDATE_FIXTURES = {
    **FIXTURES,
    "disconnected": lambda: parse(
        "edges: e+ f- g+\nvertex v1: e.1 f.1 e.2 f.2\nvertex v2: g.1\n"
        "vertex v3: g.2\nvertex v4:\n"),
    "edgeless": lambda: parse("edges:\nvertex v1:\nvertex v2:\n")}


@pytest.mark.parametrize("name", VALIDATE_FIXTURES)
def test_cross_validate_builds_no_string_minor(name, monkeypatch):
    """``cross_validate`` runs deletion-contraction on the compiled root,
    as the expansion does: no ``pst_delcon`` call, no string minor, no
    string-level delete, contract or partial dual; its polynomial is
    ``pst_delcon``'s."""
    pg = VALIDATE_FIXTURES[name]()
    edges = list(pg.graph.edges)
    want = pst_delcon(pg)
    calls: dict[str, list] = {}
    for module in (ribbon, packaged, invariants):
        for fn in ("pst_delcon", "packaged_delete", "packaged_contract",
                   "delete_edge", "contract_edge", "partial_dual_with_map"):
            if fn in vars(module):
                monkeypatch.setattr(module, fn, _counting(
                    calls.setdefault(fn, []), getattr(module, fn)))
    rep = invariants.cross_validate(pg, [tuple(edges), tuple(edges[::-1])])
    assert rep.equal and rep.shape_checks_passed
    assert rep.delcon == want
    assert {fn: len(c) for fn, c in calls.items()} == {
        "pst_delcon": 0, "packaged_delete": 0, "packaged_contract": 0,
        "delete_edge": 0, "contract_edge": 0, "partial_dual_with_map": 0}
