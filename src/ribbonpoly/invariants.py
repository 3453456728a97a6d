"""Evaluation pipelines for the packaged invariant polynomial.

Three routes compute the same polynomial: a state sum over edge subsets, a
deletion-contraction recursion, and a quasi-tree expansion.  The state sum
builds up both sides of each subset A's term, G|A and G*|A^c, as block
partitions in one depth-first pass, which splices the edges off A out of
one corner map in place and walks each A on it, without the dual graph;
it shares only :meth:`~ribbonpoly.packaged.Minor.compile` with the other two
(``tests/test_minor.py`` checks it) and stays the independent pipeline.  The
recursion steps compiled minors (:class:`~ribbonpoly.packaged.Minor`) and
adds one monomial per leaf to one counter; the expansion walks the same
steps in reverse edge order to each quasi-tree's activity minor, which
contracts a set A and deletes a set B, and runs the recursion on it from
the x/y exponents of the minor's nullity prefactor.  Only ``compute
--method delcon`` runs it on string-keyed packaged graphs (:func:`pst_delcon`),
whose calls the benchmark counts one per node.  On top of these sit the
specializations (surface version for orientable graphs, the four-variable
alpha/beta/a/b polynomial with its own quasi-tree expansion, read off the
same walk's leaf minors, and the classical Tutte polynomial), a small-instance
corpus generator and a cross-validation driver.  The driver runs the
recursion on the compiled root, and keeps the expansion's definition by
``activities``: it steps each activity minor and its prefactor
(:meth:`~ribbonpoly.packaged.Minor.minor`) once per distinct deleted and
contracted part (B, A), however many edge orders produce it, and
shape-checks that same compiled minor: a required bridge must split it when
deleted, a required plane loop when contracted.  The string-graph
references of these checks and of the prefactor live in the tests.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from .packaged import (Minor, PackagedRibbonGraph, WeightedPartition,
                       _packaged_contract_case, _packaged_delete_case)
from .poly import HalfExpPoly, HalfMonomial, Monomial, MultiPoly
from .ribbon import (RibbonGraph, RibbonGraphError, activities, certificate,
                     connected_components, enumerate_quasi_trees, orientable,
                     union_find)


# ---------------------------------------------------------------------------
# state sum

def _add_edge(side: tuple, i: int, j: int) -> tuple:
    """``side`` (each block's component, named by one of its blocks; each
    component's gamma; the nullity) with an edge between blocks ``i`` and
    ``j``: it adds 1 to the gamma, after joining two components of gammas a
    and b into one of a + b - 2, and 1 to the nullity if it joins none."""
    comp, gamma, null = side
    a, b = comp[i], comp[j]
    gamma = gamma.copy()
    if a == b:
        gamma[a] += 1
        return comp, gamma, null + 1
    gamma[a] += gamma.pop(b) - 1
    return tuple([a if c == b else c for c in comp]), gamma, null


def _subset_term(root: Minor, mask: int, sides: tuple, walk: tuple) -> tuple:
    """The exponents of the state-sum term of the edge subset ``mask``:
    (n2, n1, gammas2, gammas1), where 1 is the vertex side at the subset and
    2 the boundary side at its complement, from their built-up ``sides``;
    each emptied vertex and each boundary walk, traced on the pass's
    spliced ``walk``, takes 1 from its component's gamma on both sides."""
    (vcomp, vgamma, n1), (bcomp, bgamma, n2) = sides
    vgamma, bgamma = vgamma.copy(), bgamma.copy()
    vlab, blab = root.labels
    t0, (t1, live, empty, marks), stamp = root.kernel.t0, walk, mask + 1
    for d in empty:
        vgamma[vcomp[vlab[d]]] -= 1
        bgamma[bcomp[blab[d]]] -= 1
    for d in live:
        if marks[d] != stamp:   # a walk not yet traced at this subset
            vgamma[vcomp[vlab[d]]] -= 1
            bgamma[bcomp[blab[d]]] -= 1
            while marks[d] != stamp:
                marks[d] = marks[t0[d]] = stamp
                d = t1[t0[d]]
    return (n2, n1, tuple(sorted(bgamma.values())),
            tuple(sorted(vgamma.values())))


def _family(gammas: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """(gamma, multiplicity) pairs, sorted; a dict, since building a
    ``Counter`` costs more than counting the few values of one leaf."""
    count: dict[int, int] = {}
    for g in gammas:
        count[g] = count.get(g, 0) + 1
    return tuple(sorted(count.items()))


def _subset_keys(pg: PackagedRibbonGraph) -> Counter:
    """Edge subsets per :func:`_subset_term` key, by a depth-first pass: an
    edge in joins its ends on the vertex side and makes its darts live, one
    out joins its sides on the boundary side and splices its ends out of
    ``t1`` as dancing links do; each side starts at the root's gammas."""
    root = Minor.compile(pg)
    vends, bends = (root._pairs(s, root.kernel.full) for s in (0, 1))
    walk = t1, live, empty, marks = list(root.t1), [], [], [0] * len(root.t1)
    keys: Counter = Counter()

    def visit(k: int, mask: int, vside: tuple, bside: tuple) -> None:
        if k == len(vends):
            keys[_subset_term(root, mask, (vside, bside), walk)] += 1
            return
        live.extend(range(4 * k, 4 * k + 4))
        visit(k + 1, mask | 1 << k, _add_edge(vside, *vends[k]), bside)
        del live[-4:]
        n = len(empty)
        for d in (4 * k, 4 * k + 2):   # the L darts of k's two ends
            p, q = t1[d], t1[d + 1]
            t1[p], t1[q] = q, p
            if p == d + 1:   # the last end at its vertex
                empty.append(d)
        visit(k + 1, mask, vside, _add_edge(bside, *bends[k]))
        del empty[n:]
        for d in (4 * k + 2, 4 * k):
            t1[t1[d]], t1[t1[d + 1]] = d, d + 1

    visit(0, 0, *((tuple(range(len(gs))), dict(enumerate(gs)), 0)
                  for gs in root.gammas))
    return keys


def _state_sum(keys: Counter) -> MultiPoly:
    return MultiPoly({Monomial(n2, n1, _family(g2), _family(g1)): c
                      for (n2, n1, g2, g1), c in keys.items()})


def pst_state_sum(pg: PackagedRibbonGraph) -> MultiPoly:
    """Sum over all edge subsets A of x^{n(dual packaging of A^c)} times
    y^{n(packaging of A)} times the per-component genus variables."""
    return _state_sum(_subset_keys(pg))


# ---------------------------------------------------------------------------
# deletion-contraction

def _leaf(pg: PackagedRibbonGraph, ex: int = 0, ey: int = 0) -> Monomial:
    """The monomial of an edgeless ``pg`` times x^ex y^ey."""
    def gammas(parts: WeightedPartition) -> list[int]:
        return [1 - len(b) + w for b, w in zip(parts.blocks, parts.weights)]
    return Monomial(ex, ey, _family(gammas(pg.bparts)),
                    _family(gammas(pg.vparts)))


def pst_delcon(pg: PackagedRibbonGraph,
               pivot_rule=lambda pg: pg.graph.edges[0],
               _counter: list | None = None,
               _path: tuple[Counter, int, int] | None = None
               ) -> MultiPoly | None:
    """Deletion-contraction recursion on the edge ``pivot_rule`` picks (by
    default the first); the result is pivot-independent.

    Each node is one call.  ``_path`` is the leaf counter of the top call
    and the x/y exponents gathered on the way to this node; a call below
    the top adds its leaves there and returns ``None``."""
    if _counter is not None:
        _counter[0] += 1
    leaves, ex, ey = _path or (Counter(), 0, 0)
    g = pg.graph
    if not g.sign:
        leaves[_leaf(pg, ex, ey)] += 1
    else:
        e = pivot_rule(pg)
        # x (y) unless the minor merged two blocks at e's sides (ends)
        deleted, dcase = _packaged_delete_case(pg, e)
        contracted, ccase = _packaged_contract_case(pg, e)
        pst_delcon(deleted, pivot_rule, _counter,
                   (leaves, ex + (dcase != 1), ey))
        pst_delcon(contracted, pivot_rule, _counter,
                   (leaves, ex, ey + (ccase != 1)))
    return MultiPoly(leaves) if _path is None else None


# ---------------------------------------------------------------------------
# quasi-tree expansion

def _minor_leaves(leaves: Counter, m: Minor, ex: int, ey: int) -> Counter:
    """Deletion-contraction on the compiled minor ``m``, pivoting on its
    lowest live edge: add to ``leaves`` x^ex y^ey times each leaf's x^(its
    deletions) y^(its contractions) that merged no two blocks and its gamma
    families, the gammas of its blocks."""
    if not m.live:
        vg, bg = ([g for g in gs if g is not None] for gs in m.gammas)
        leaves[Monomial(ex, ey, _family(bg), _family(vg))] += 1
        return leaves
    k = (m.live & -m.live).bit_length() - 1
    deleted, merged = m.step(k, False)
    _minor_leaves(leaves, deleted, ex + (not merged), ey)
    contracted, merged = m.step(k, True)
    _minor_leaves(leaves, contracted, ex, ey + (not merged))
    return leaves


def _minor_poly(m: Minor, ex: int = 0, ey: int = 0) -> MultiPoly:
    """x^ex y^ey times the polynomial of the compiled minor ``m``."""
    return MultiPoly(_minor_leaves(Counter(), m, ex, ey))


def _quasitree_walk(pg: PackagedRibbonGraph, order: Iterable[str]):
    """Yield (Q, B, A, (ex, ey), minor) per quasi-tree Q, as edge masks: B
    and A are the deleted and contracted parts of Q's activity minor under
    ``order``, ``minor`` is that compiled minor and ex, ey its prefactor.

    Deletion-contraction in reverse edge order (Gordon and Traldi's
    resolution tree): a bridge of the current minor joins Q, a plane loop
    stays off Q, both live; any other edge is contracted into A and Q (y
    unless the step merged) or deleted into B (x unless it merged).  Only a
    non-loop's deletion or a loop's contraction can split, so one is tried.
    """
    g, order, root = pg.graph, list(order), Minor.compile(pg)
    if root.components() != 1:
        raise RibbonGraphError("quasi-tree expansion requires a connected graph")
    if sorted(order) != sorted(g.sign):
        raise RibbonGraphError("order must be a total order on the edges")
    index = {e: k for k, e in enumerate(g.edges)}
    ks = [index[e] for e in reversed(order)]
    stack = [(0, root, 0, 0, 0, 0, 0)]
    while stack:
        i, m, q, b, a, ex, ey = stack.pop()
        if i == len(ks):
            yield q, b, a, (ex, ey), m
            continue
        k = ks[i]
        bit, loop = 1 << k, m.is_loop(k)
        split = m.step(k, loop)
        if split[0].components() > 1:
            stack.append((i + 1, m, q if loop else q | bit, b, a, ex, ey))
            continue
        (c, cmerged), (d, dmerged) = ((split, m.step(k, False)) if loop
                                      else (m.step(k, True), split))
        stack.append((i + 1, d, q, b | bit, a, ex + (not dmerged), ey))
        stack.append((i + 1, c, q | bit, b, a | bit, ex, ey + (not cmerged)))


def pst_quasitree(pg: PackagedRibbonGraph, order: Iterable[str]) -> MultiPoly:
    """Quasi-tree expansion; each activity minor is evaluated as
    :func:`_quasitree_walk` reaches it, its prefactor's exponents starting
    its recursion, so every leaf of every minor adds to one counter."""
    leaves: Counter = Counter()
    for _, _, _, pre, minor in _quasitree_walk(pg, order):
        _minor_leaves(leaves, minor, *pre)
    return MultiPoly(leaves)


# ---------------------------------------------------------------------------
# specializations

def surface_tutte(g: RibbonGraph) -> MultiPoly:
    """The orientable-case specialization: discrete weight-0 packaging, then
    every genus index halved."""
    if not orientable(g):
        raise RibbonGraphError("surface specialization requires an orientable "
                               "ribbon graph")
    return pst_state_sum(PackagedRibbonGraph.discrete(g)).reindex_halved()


def _krushkal_direct(g: RibbonGraph, keys: Counter) -> HalfExpPoly:
    """Subset sum of alpha^{k(A)-k} beta^{k(A*)-k*} a^{eg(A)/2} b^{eg(A*)/2},
    where A* is the complement of A in the dual, from the
    :func:`_subset_keys` of the discrete packaging of ``g``.  A discrete
    packaging has one component per connected component, and the gamma
    values of its components sum to the Euler genus."""
    k = len(connected_components(g))  # the dual has as many components
    direct: Counter = Counter()
    for (_, _, gammas2, gammas1), c in keys.items():
        direct[len(gammas1) - k, len(gammas2) - k,
               sum(gammas1), sum(gammas2)] += c
    return HalfExpPoly({HalfMonomial(*key): c for key, c in direct.items()})


def _krushkal_substitution(g: RibbonGraph, t: MultiPoly) -> HalfExpPoly:
    """The four-variable polynomial from ``t``, the state sum of the
    discrete packaging of ``g``."""
    k = len(connected_components(g))
    one = HalfExpPoly.const(1)
    image = t.substitute(
        x=one, y=one,
        xg=lambda gamma: HalfExpPoly.beta() * HalfExpPoly.b_half(gamma),
        yg=lambda gamma: HalfExpPoly.alpha() * HalfExpPoly.a_half(gamma),
        ring=HalfExpPoly)
    return HalfExpPoly.alpha(-k) * HalfExpPoly.beta(-k) * image


def krushkal(g: RibbonGraph) -> tuple[HalfExpPoly, HalfExpPoly]:
    """The four-variable polynomial computed two ways from one pass over the
    subsets: direct subset sum and substitution into the packaged
    polynomial.  Both are returned; they must agree."""
    keys = _subset_keys(PackagedRibbonGraph.discrete(g))
    return (_krushkal_direct(g, keys),
            _krushkal_substitution(g, _state_sum(keys)))


# ---------------------------------------------------------------------------
# classical Tutte polynomial of an abstract multigraph

@dataclass(frozen=True)
class Multigraph:
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]  # (name, endpoint, endpoint)


def _tutte_keys(n: int, ends: list[tuple[int, int]],
                subset_nullity: bool = True) -> Counter:
    """How many edge subsets A of the multigraph on vertices 0 .. n-1 with
    edges ``ends`` give each (k(A) - k, n(A)), by one depth-first pass:
    n(A) is the nullity of the :func:`_add_edge` side (the whole graph's with
    ``subset_nullity=False``) and k(A) the number of its gammas."""
    k_h = len(set(union_find(n, ends)))
    n_h = len(ends) - n + k_h
    keys: Counter = Counter()

    def visit(k: int, side: tuple) -> None:
        if k == len(ends):
            _, comps, null = side
            keys[len(comps) - k_h, null if subset_nullity else n_h] += 1
            return
        visit(k + 1, _add_edge(side, *ends[k]))
        visit(k + 1, side)

    visit(0, (tuple(range(n)), dict.fromkeys(range(n), 0), 0))
    return keys


def classical_tutte(h: Multigraph, subset_nullity: bool = True) -> MultiPoly:
    """Subset sum of (x-1)^{k(h|A)-k(h)} (y-1)^{n(h|A)}, each power
    expanded by the binomial theorem.

    ``subset_nullity=False`` uses n(h) instead of n(h|A); that variant is not
    the Tutte polynomial and exists only as a pinned regression contrast.
    """
    idx = {v: i for i, v in enumerate(h.vertices)}
    keys = _tutte_keys(len(idx), [(idx[u], idx[w]) for _, u, w in h.edges],
                       subset_nullity)
    return MultiPoly((Monomial(i, j), (-1) ** (a + b - i - j) * c
                      * math.comb(a, i) * math.comb(b, j))
                     for (a, b), c in keys.items()
                     for i in range(a + 1) for j in range(b + 1))


def underlying_multigraph(g: RibbonGraph) -> Multigraph:
    return Multigraph(tuple(g.vertices),
                      tuple((e, *g.endpoints(e)) for e in g.edges))


def krushkal_quasitree(g: RibbonGraph, order: Iterable[str],
                       subset_nullity: bool = True) -> HalfExpPoly:
    """Quasi-tree expansion of the four-variable polynomial, on the leaf
    minors of :func:`_quasitree_walk` (see :func:`_krushkal_side`).

    Each quasi-tree contributes T(alpha+1, a+1) of the live orientable
    internal edges between the components of the contracted part, times
    T(beta+1, b+1) of the live orientable external edges between the
    components of the deleted part in the dual, times a and b to half the
    Euler genus of those parts.  T(alpha+1, a+1) is read off the
    :func:`_tutte_keys` as the sum of alpha^{k(A)-k} a^{n(A)}.

    ``subset_nullity=False`` propagates the non-Tutte contrast variant of
    :func:`classical_tutte`; it provably breaks the expansion and exists only
    for the pinning regression test.
    """
    total: Counter = Counter()
    for q, _, _, _, m in _quasitree_walk(
            PackagedRibbonGraph.discrete(g), order):
        xs, ga = _krushkal_side(m, 0, m.live & q, subset_nullity)
        ys, gb = _krushkal_side(m, 1, m.live & ~q, subset_nullity)
        for (i, j), c in xs.items():
            for (i2, j2), c2 in ys.items():
                total[HalfMonomial(i, i2, 2 * j + ga, 2 * j2 + gb)] += c * c2
    return HalfExpPoly(total)


def _krushkal_side(m: Minor, s: int, live: int,
                   subset_nullity: bool) -> tuple[Counter, int]:
    """The :func:`_tutte_keys` of the multigraph of the ``live`` edges
    between the blocks on side ``s`` of a leaf minor ``m`` of the discrete
    packaging (merged-away blocks are isolated vertices, which change no
    key), and the Euler genus of its contracted (deleted) part: its blocks'
    gammas less the orbits of m's live darts under ``t1`` and ``d ^ 1``
    (``t0``)."""
    t0, t1, seen = m.kernel.t0, m.t1, bytearray(len(m.t1))
    genus = sum(g for g in m.gammas[s] if g is not None)
    for d in range(len(t1)):
        if t1[d] >= 0 and not seen[d]:
            genus -= 1
            while not seen[d]:
                cross = t0[d] if s else d ^ 1
                seen[d] = seen[cross] = 1
                d = t1[cross]
    keys = _tutte_keys(len(m.gammas[s]), m._pairs(s, live), subset_nullity)
    return keys, genus


# ---------------------------------------------------------------------------
# corpus

MAX_VERTICES = 4

def _cyclic_partitions(slots: int):
    """Distribute slot indices 0..slots-1 into 1..MAX_VERTICES nonempty
    ordered groups (cyclic order as listed)."""
    if slots == 0:
        return
    for v in range(1, MAX_VERTICES + 1):
        for cuts in itertools.combinations(range(1, slots), v - 1):
            bounds = (0,) + cuts + (slots,)
            yield [list(range(bounds[i], bounds[i + 1])) for i in range(v)]


def _pairings(slots: list[int]):
    if not slots:
        yield []
        return
    first, rest = slots[0], slots[1:]
    for i, other in enumerate(rest):
        for sub in _pairings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + sub


def enumerate_connected(max_edges: int) -> Iterator[RibbonGraph]:
    """Exhaustively enumerate connected signed rotation systems with at most
    ``max_edges`` edges and MAX_VERTICES vertices, deduplicated up to
    isomorphism."""
    seen = set()
    g0 = RibbonGraph.build(["v1"], {"v1": []}, {})
    seen.add(certificate(g0))
    yield g0
    for m in range(1, max_edges + 1):
        names = [f"e{i + 1}" for i in range(m)]
        for groups in _cyclic_partitions(2 * m):
            vnames = [f"v{i + 1}" for i in range(len(groups))]
            for pairing in _pairings(list(range(2 * m))):
                slot_end = {}
                for name, (s1, s2) in zip(names, pairing):
                    slot_end[s1] = (name, 1)
                    slot_end[s2] = (name, 2)
                rotation = {v: tuple(slot_end[s] for s in grp)
                            for v, grp in zip(vnames, groups)}
                base = RibbonGraph(tuple(vnames), rotation,
                                   {n: 1 for n in names})
                if len(connected_components(base)) != 1:
                    continue
                for signs in itertools.product((1, -1), repeat=m):
                    g = RibbonGraph(base.vertices, base.rotation,
                                    dict(zip(names, signs)))
                    cert = certificate(g)
                    if cert in seen:
                        continue
                    seen.add(cert)
                    yield g


def _random_partition(rng: random.Random,
                      ground: list[str]) -> WeightedPartition:
    if not ground:
        return WeightedPartition((), ())
    nblocks = rng.randint(1, min(len(ground), 3))
    assignment = {}
    chosen = rng.sample(ground, nblocks)
    for i, x in enumerate(chosen):
        assignment[x] = i
    for x in ground:
        if x not in assignment:
            assignment[x] = rng.randrange(nblocks)
    blocks = []
    for i in range(nblocks):
        members = {x for x, j in assignment.items() if j == i}
        blocks.append((members, rng.randint(0, 2)))
    return WeightedPartition.build(ground, blocks)


def corpus(max_edges: int, seed: int, random_packagings: int = 1
           ) -> Iterator[tuple[RibbonGraph, PackagedRibbonGraph]]:
    """Connected instances up to the size bounds, each emitted with the
    discrete weight-0 packaging followed by seeded random packagings."""
    rng = random.Random(seed)
    for g in enumerate_connected(max_edges):
        yield g, PackagedRibbonGraph.discrete(g)
        bids = [c.id for c in g.boundaries]
        for _ in range(random_packagings):
            pg = PackagedRibbonGraph.build(
                g, _random_partition(rng, list(g.vertices)),
                _random_partition(rng, bids))
            yield g, pg


# ---------------------------------------------------------------------------
# cross-validation

@dataclass
class ValidationReport:
    """``delcon`` and ``delcon_nodes`` come from the compiled recursion."""
    state_sum: MultiPoly
    delcon: MultiPoly
    quasitree: dict[tuple[str, ...], MultiPoly]
    equal: bool
    shape_checks_passed: bool
    breakdown: dict[tuple[str, ...], list] = field(default_factory=dict)
    delcon_nodes: int = 0


def cross_validate(pg: PackagedRibbonGraph,
                   orders: Iterable[Iterable[str]]) -> ValidationReport:
    """Run all three pipelines, compare exactly, and shape-check every
    quasi-tree minor.  Deletion-contraction is :func:`_minor_leaves` on the
    compiled root, not the string-keyed :func:`pst_delcon`.

    A quasi-tree's term depends only on its activity minor's deleted and
    contracted parts (B, A), and its shape verdict only on (Q, B, A), not
    on the order that produced them, so each is computed once per call, by
    :meth:`~ribbonpoly.packaged.Minor.minor` on one compiled root."""
    g, root = pg.graph, Minor.compile(pg)
    # no memo and a branch on every live edge: 2 * (leaf count) - 1 nodes
    leaves = _minor_leaves(Counter(), root, 0, 0)
    ss, dc = pst_state_sum(pg), MultiPoly(leaves)
    qt: dict[tuple[str, ...], MultiPoly] = {}
    breakdown: dict[tuple[str, ...], list] = {}
    connected = root.components() == 1
    quasi_trees = enumerate_quasi_trees(g) if connected else []
    index = {e: k for k, e in enumerate(g.edges)}
    minors: dict[tuple[frozenset, frozenset], tuple[Minor, MultiPoly]] = {}
    shapes: dict[tuple[frozenset, frozenset, frozenset], bool] = {}
    for order in orders:
        order = tuple(order)
        if not connected:
            continue
        rows = []
        for q in quasi_trees:
            act = activities(g, q, order)
            key = (act.deleted_part(), act.contracted_part())
            if key not in minors:
                minor, pre = root.minor(*(sum(1 << index[e] for e in part)
                                          for part in key))
                minors[key] = minor, _minor_poly(minor, *pre)
            minor, contribution = minors[key]
            if (q, *key) not in shapes:   # bridges in Q, plane loops off Q
                base = minor.components() if minor.live else 0
                shapes[(q, *key)] = all(
                    minor.splits(k, e not in q, base)
                    for e, k in index.items() if minor.live >> k & 1)
            rows.append((tuple(sorted(q)), act, contribution))
        qt[order] = MultiPoly.sum(c for _, _, c in rows)
        breakdown[order] = rows
    equal = ss == dc and all(p == ss for p in qt.values())
    return ValidationReport(ss, dc, qt, equal, all(shapes.values()),
                            breakdown, 2 * sum(leaves.values()) - 1)
