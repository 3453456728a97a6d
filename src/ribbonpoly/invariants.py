"""Evaluation pipelines for the packaged invariant polynomial.

Three routes compute the same polynomial.  The state sum builds up both
sides of each edge subset A's term, G|A and G*|A^c, as block partitions in
one depth-first pass that splices the edges off A out of one corner map in
place and walks A on it from one dart of each ``t0`` pair, without the dual
graph; the last edge's node scores both of its subsets.  It shares only
:meth:`~ribbonpoly.packaged.Minor.compile` with the other two routes
(``tests/test_minor.py`` checks it).  The recursion steps compiled minors
(:class:`~ribbonpoly.packaged.Minor`), each carrying the x/y exponents its
steps gathered, and adds one monomial per leaf to one counter; only
``compute --method delcon`` runs it on string-keyed packaged graphs
(:func:`pst_delcon`), whose calls the benchmark counts one per node.  The
quasi-tree expansion walks the same steps in reverse edge order to each
quasi-tree's activity minor and runs the recursion on it from its nullity
prefactor, the minor's x/y.  On these sit the specializations (the surface
version for orientable graphs; the four-variable alpha/beta/a/b polynomial
and its quasi-tree expansion, term maps of the packaged ones; the classical
Tutte polynomial, by a subset pass of the same shape), a corpus generator
and :func:`cross_validate`.  The tests hold the string-graph references,
the recursion on other pivots and the non-Tutte contrast.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from typing import Iterable, Iterator, NamedTuple

from .packaged import (Minor, PackagedRibbonGraph, WeightedPartition,
                       packaged_contract, packaged_delete)
from .poly import HalfExpPoly, HalfMonomial, Monomial, MultiPoly
from .ribbon import (RibbonGraph, RibbonGraphError, certificate,
                     connected_components, enumerate_quasi_trees, orientable,
                     preceding, quasi_tree_vertex, union_find)


# ---------------------------------------------------------------------------
# state sum

def _add_edge(side: tuple, pair: tuple[int, int]) -> tuple:
    """``side`` (each block's component, named by one of its blocks; each
    component's gamma; the nullity) with an edge between the blocks of
    ``pair``: it adds 1 to the gamma, after joining two components of gammas
    a and b into one of a + b - 2, and 1 to the nullity if it joins none."""
    (comp, gamma, null), (i, j) = side, pair
    a, b = comp[i], comp[j]
    gamma = gamma.copy()
    if a == b:
        gamma[a] += 1
        return comp, gamma, null + 1
    gamma[a] += gamma.pop(b) - 1
    return tuple([a if c == b else c for c in comp]), gamma, null


def _subset_term(root: Minor, mask: int, sides: tuple, walk: tuple) -> tuple:
    """The exponents of the state-sum term of the edge subset ``mask``:
    (n2, n1, gammas2, gammas1), 1 the vertex side at the subset and 2 the
    boundary side at its complement, from their built-up ``sides``.  Each
    emptied vertex, and each boundary walk traced on the spliced ``walk``
    from ``live``'s one dart per ``t0`` pair, takes 1 from its component's
    gamma on both sides."""
    (vcomp, vgamma, n1), (bcomp, bgamma, n2) = sides
    vgamma, bgamma = vgamma.copy(), bgamma.copy()
    vlab, blab = root.labels
    t0, (t1, live, empty, marks) = root.kernel.t0, walk
    for d in empty:
        vgamma[vcomp[vlab[d]]] -= 1
        bgamma[bcomp[blab[d]]] -= 1
    for d in live:
        if marks[d] != mask:   # a walk not yet traced at this subset
            vgamma[vcomp[vlab[d]]] -= 1
            bgamma[bcomp[blab[d]]] -= 1
            while marks[d] != mask:   # both darts of each pair it crosses
                e = t0[d]
                marks[d] = marks[e] = mask
                d = t1[e]
    return (n2, n1, tuple(sorted(bgamma.values())),
            tuple(sorted(vgamma.values())))


def _family(gammas: Iterable[int]) -> tuple[tuple[int, int], ...]:
    """(gamma, multiplicity) pairs, sorted; a dict, since building a
    ``Counter`` costs more than counting the few values of one leaf."""
    count: dict[int, int] = {}
    for g in gammas:
        count[g] = count.get(g, 0) + 1
    return tuple(sorted(count.items()))


def _subset_keys(root: Minor) -> Counter:
    """Edge subsets per :func:`_subset_term` key, by a depth-first pass over
    the compiled ``root`` from the root's gammas: an edge k in joins its
    ends on the vertex side and makes live its darts 4k and 4k + 1, one per
    ``t0`` pair; one out joins its sides on the boundary side and splices
    its ends out of ``t1`` as dancing links do.  The last edge's node
    scores its two subsets itself."""
    # each edge's vertex blocks at its ends, boundary blocks at its sides
    (vlab, blab), darts = root.labels, range(0, len(root.t1), 4)
    vends = [(vlab[d], vlab[d + 2]) for d in darts]
    bends = [(blab[d], blab[d + 1]) for d in darts]
    walk = t1, live, empty, marks = list(root.t1), [], [], [-1] * len(root.t1)
    keys, last = Counter(), len(vends) - 1

    def visit(k: int, mask: int, vside: tuple, bside: tuple) -> None:
        x, inside, vin = 4 * k, mask | 1 << k, _add_edge(vside, vends[k])
        live.append(x)
        live.append(x + 1)
        if k < last:
            visit(k + 1, inside, vin, bside)
        else:
            keys[_subset_term(root, inside, (vin, bside), walk)] += 1
        live.pop()
        live.pop()
        n, bout = len(empty), _add_edge(bside, bends[k])
        p, q = t1[x], t1[x + 1]   # splice end 2k out, then end 2k + 1
        t1[p], t1[q] = q, p
        if p == x + 1:   # the last end at its vertex
            empty.append(x)
        p, q = t1[x + 2], t1[x + 3]
        t1[p], t1[q] = q, p
        if p == x + 3:
            empty.append(x + 2)
        if k < last:
            visit(k + 1, mask, vside, bout)
        else:
            keys[_subset_term(root, mask, (vside, bout), walk)] += 1
        del empty[n:]
        t1[t1[x + 2]], t1[t1[x + 3]] = x + 2, x + 3
        t1[t1[x]], t1[t1[x + 1]] = x, x + 1

    sides = tuple((tuple(range(len(gs))), dict(enumerate(gs)), 0)
                  for gs in root.gammas)
    if not vends:   # the one subset of an edgeless graph
        return Counter([_subset_term(root, 0, sides, walk)])
    visit(0, 0, *sides)
    return keys


def pst_state_sum(pg: PackagedRibbonGraph | Minor) -> MultiPoly:
    """Sum over all edge subsets A of x^{n(dual packaging of A^c)} times
    y^{n(packaging of A)} times the per-component genus variables; ``pg``
    is compiled unless it is a compiled root already."""
    keys = _subset_keys(pg if isinstance(pg, Minor) else Minor.compile(pg))
    return MultiPoly({Monomial(n2, n1, _family(g2), _family(g1)): c
                      for (n2, n1, g2, g1), c in keys.items()})


# ---------------------------------------------------------------------------
# deletion-contraction

def _leaf(pg: PackagedRibbonGraph, ex: int = 0, ey: int = 0) -> Monomial:
    """The monomial of an edgeless ``pg`` times x^ex y^ey."""
    def gammas(parts: WeightedPartition) -> list[int]:
        return [1 - len(b) + w for b, w in zip(parts.blocks, parts.weights)]
    return Monomial(ex, ey, _family(gammas(pg.bparts)),
                    _family(gammas(pg.vparts)))


def pst_delcon(pg: PackagedRibbonGraph, _counter: list | None = None,
               _path: tuple[Counter, int, int] | None = None
               ) -> MultiPoly | None:
    """Deletion-contraction recursion, one call per node, pivoting on each
    node's first edge (the tests try other pivots).  ``_path`` is the top
    call's leaf counter and the x/y exponents gathered on the way to this
    node; a call below the top adds its leaves there and returns ``None``."""
    if _counter is not None:
        _counter[0] += 1
    leaves, ex, ey = _path or (Counter(), 0, 0)
    g = pg.graph
    if not g.sign:
        leaves[_leaf(pg, ex, ey)] += 1
    else:
        e = g.edges[0]
        # x (y) unless the minor merged two blocks at e's sides (ends)
        deleted, dcase = packaged_delete(pg, e)
        contracted, ccase = packaged_contract(pg, e)
        pst_delcon(deleted, _counter, (leaves, ex + (dcase != 1), ey))
        pst_delcon(contracted, _counter, (leaves, ex, ey + (ccase != 1)))
    return MultiPoly(leaves) if _path is None else None


# ---------------------------------------------------------------------------
# quasi-tree expansion

def _minor_leaves(leaves: Counter, m: Minor) -> Counter:
    """Deletion-contraction on the compiled minor ``m``, pivoting on its
    lowest live edge: add to ``leaves`` each leaf's monomial, x and y to
    the exponents of its ``xy``, times the gamma families of its blocks."""
    if not m.live:
        vg, bg = ([g for g in gs if g is not None] for gs in m.gammas)
        leaves[Monomial(*m.xy, _family(bg), _family(vg))] += 1
        return leaves
    k = (m.live & -m.live).bit_length() - 1
    _minor_leaves(leaves, m.step(k, False))
    _minor_leaves(leaves, m.step(k, True))
    return leaves


def _minor_poly(m: Minor) -> MultiPoly:
    """The polynomial of the compiled minor ``m``, its ``xy`` included."""
    return MultiPoly(_minor_leaves(Counter(), m))


def _quasitree_walk(pg: PackagedRibbonGraph, order: Iterable[str]):
    """Yield (Q, minor) per quasi-tree Q, an edge mask, where ``minor`` is
    Q's compiled activity minor under ``order``, its prefactor in its
    ``xy``: A = Q - live contracted, B the edges neither in Q nor live
    deleted.  Deletion-contraction in reverse edge order (Gordon and
    Traldi's resolution tree): a bridge of the current minor joins Q, a
    plane loop stays off Q, both live; any other edge is contracted into A
    and Q or deleted into B.  Only a non-loop's deletion or a loop's
    contraction can split, so one is tried."""
    g, order, root = pg.graph, list(order), Minor.compile(pg)
    if root.components() != 1:
        raise RibbonGraphError("quasi-tree expansion requires a connected graph")
    if sorted(order) != sorted(g.sign):
        raise RibbonGraphError("order must be a total order on the edges")
    index = {e: k for k, e in enumerate(g.edges)}
    ks = [index[e] for e in reversed(order)]
    stack = [(0, root, 0)]
    while stack:
        i, m, q = stack.pop()
        if i == len(ks):
            yield q, m
            continue
        k = ks[i]
        bit, loop = 1 << k, m.is_loop(k)
        split = m.step(k, loop)
        if split.components() > 1:
            stack.append((i + 1, m, q if loop else q | bit))
            continue
        c, d = (split, m.step(k, False)) if loop else (m.step(k, True), split)
        stack.append((i + 1, d, q))
        stack.append((i + 1, c, q | bit))


def pst_quasitree(pg: PackagedRibbonGraph, order: Iterable[str]) -> MultiPoly:
    """Quasi-tree expansion; each activity minor is evaluated as
    :func:`_quasitree_walk` reaches it, from its prefactor on, so every
    leaf of every minor adds to one counter."""
    leaves: Counter = Counter()
    for _, minor in _quasitree_walk(pg, order):
        _minor_leaves(leaves, minor)
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


def krushkal(g: RibbonGraph) -> HalfExpPoly:
    """The four-variable polynomial: the subset sum of alpha^{k(A)-k}
    beta^{k(A*)-k*} a^{eg(A)/2} b^{eg(A*)/2}, where A* is the complement of
    A in the dual (which has as many components), as a term map."""
    return _krushkal_image(pst_state_sum(PackagedRibbonGraph.discrete(g)),
                           len(connected_components(g)))


def krushkal_quasitree(g: RibbonGraph, order: Iterable[str]) -> HalfExpPoly:
    """Quasi-tree expansion of the four-variable polynomial, as the term map
    of the packaged one; the tests check it per quasi-tree (Butler's form)."""
    return _krushkal_image(pst_quasitree(PackagedRibbonGraph.discrete(g),
                                         order), 1)


def _krushkal_image(p: MultiPoly, k: int) -> HalfExpPoly:
    """Map each monomial of ``p``, the polynomial of a discrete packaging
    with ``k`` components, to alpha^{n1-k} beta^{n2-k} a^{s1/2} b^{s2/2}:
    n1 and s1 count and sum its y_gamma indices (one per component of A, its
    Euler genus), n2 and s2 its x_gamma ones (of A*); x and y map to 1."""
    def count(fam): return sum(e for _, e in fam)
    def index_sum(fam): return sum(g * e for g, e in fam)
    return HalfExpPoly((HalfMonomial(count(m.eyg) - k, count(m.exg) - k,
                                     index_sum(m.eyg), index_sum(m.exg)), c)
                       for m, c in p.terms.items())


# ---------------------------------------------------------------------------
# classical Tutte polynomial of an abstract multigraph

class Multigraph(NamedTuple):
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]  # (name, endpoint, endpoint)


def _tutte_keys(n: int, ends: list[tuple[int, int]]) -> Counter:
    """How many edge subsets A of the multigraph on vertices 0 .. n-1 with
    edges ``ends`` give each (k(A) - k, n(A)), by one depth-first pass whose
    last edge's node scores its two subsets: n(A) is the nullity of the
    :func:`_add_edge` side and k(A) the number of its gammas."""
    if not ends:   # the empty subset alone
        return Counter({(0, 0): 1})
    k_h, keys, last = len(set(union_find(n, ends))), Counter(), len(ends) - 1

    def visit(k: int, side: tuple) -> None:
        joined = _add_edge(side, ends[k])
        if k < last:
            visit(k + 1, joined)
            visit(k + 1, side)
        else:
            keys[len(joined[1]) - k_h, joined[2]] += 1
            keys[len(side[1]) - k_h, side[2]] += 1

    visit(0, (tuple(range(n)), dict.fromkeys(range(n), 0), 0))
    return keys


def classical_tutte(h: Multigraph) -> MultiPoly:
    """Subset sum of (x-1)^{k(h|A)-k(h)} (y-1)^{n(h|A)}, each power
    expanded by the binomial theorem."""
    idx = {v: i for i, v in enumerate(h.vertices)}
    keys = _tutte_keys(len(idx), [(idx[u], idx[w]) for _, u, w in h.edges])
    return MultiPoly((Monomial(i, j), (-1) ** (a + b - i - j) * c
                      * math.comb(a, i) * math.comb(b, j))
                     for (a, b), c in keys.items()
                     for i in range(a + 1) for j in range(b + 1))


def underlying_multigraph(g: RibbonGraph) -> Multigraph:
    return Multigraph(tuple(g.vertices),
                      tuple((e, *g.endpoints(e)) for e in g.edges))


# ---------------------------------------------------------------------------
# corpus

MAX_VERTICES = 4

def _cyclic_partitions(slots: int):
    """Distribute slot indices 0..slots-1 into 1..MAX_VERTICES nonempty
    ordered groups (cyclic order as listed)."""
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
    isomorphism: of each class, the first candidate in the order composition
    of the slots into vertices, then pairing, then signs.

    Orderly generation (Read 1978; McKay 1998) skips a candidate, unbuilt,
    only when an isomorphic one comes strictly earlier, so the output and its
    order are the unpruned loop's; ``certificate`` deduplicates the rest.
    - A composition whose group sizes are not non-decreasing: relabelling the
      vertices sorts them, and the sorted cuts come first.
    - A pairing that a turn or reflection of each vertex's cyclic group maps
      to a smaller list of sorted pairs, ``_pairings``' order.  A reflection
      also flips the signs of the edges with one end at its vertex, which
      only permutes the 2^m sign vectors."""
    seen = set()  # certificates of graphs with edges
    yield RibbonGraph.build(["v1"], {"v1": []}, {})
    for m in range(1, max_edges + 1):
        names = [f"e{i + 1}" for i in range(m)]
        for groups in _cyclic_partitions(2 * m):
            if any(len(a) > len(b) for a, b in zip(groups, groups[1:])):
                continue
            turns = [[grp[i:] + grp[:i] for i in range(len(grp))]
                     for grp in groups]
            moves = {tuple(sum(images, [])) for images in itertools.product(
                *(t + [r[::-1] for r in t] for t in turns))}
            moves.discard(tuple(range(2 * m)))
            vnames = [f"v{i + 1}" for i in range(len(groups))]
            for pairing in _pairings(list(range(2 * m))):
                if any(sorted(tuple(sorted((p[a], p[b]))) for a, b in pairing)
                       < pairing for p in moves):
                    continue
                slot_end = {s: (name, i) for name, ends in zip(names, pairing)
                            for i, s in enumerate(ends, 1)}
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
                    if cert not in seen:
                        seen.add(cert)
                        yield g


def _random_partition(rng: random.Random,
                      ground: list[str]) -> WeightedPartition:
    nblocks = rng.randint(1, min(len(ground), 3))
    assignment = {x: i for i, x in enumerate(rng.sample(ground, nblocks))}
    for x in ground:
        if x not in assignment:
            assignment[x] = rng.randrange(nblocks)
    return WeightedPartition.build(ground, [
        ({x for x, j in assignment.items() if j == i}, rng.randint(0, 2))
        for i in range(nblocks)])


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

class ValidationReport(NamedTuple):
    """What ``validate`` prints; ``delcon`` comes from the compiled
    recursion, and ``quasitree`` is empty on a disconnected graph."""
    state_sum: MultiPoly
    delcon: MultiPoly
    quasitree: dict[tuple[str, ...], MultiPoly]
    equal: bool
    shape_checks_passed: bool


def cross_validate(pg: PackagedRibbonGraph,
                   orders: Iterable[Iterable[str]]) -> ValidationReport:
    """Run all three pipelines on one compiled root, compare exactly, and
    shape-check every quasi-tree minor: a required bridge must split it
    when deleted, a required plane loop when contracted.  The recursion is
    :func:`_minor_leaves`, not :func:`pst_delcon`.  G^Q's vertex is walked
    once per quasi-tree Q and classified once per order
    (:class:`~ribbonpoly.ribbon.QuasiTreeVertex`).  A quasi-tree's term and
    shape verdict depend only on Q and its activity minor's deleted and
    contracted parts (B, A), so each is computed once per call, by
    :meth:`~ribbonpoly.packaged.Minor.minor`, and an order's expansion sums
    them; once the shape checks pass, (B, A) fixes Q."""
    g, root = pg.graph, Minor.compile(pg)
    ss, dc = pst_state_sum(root), MultiPoly(_minor_leaves(Counter(), root))
    vertices = ([quasi_tree_vertex(g, q) for q in enumerate_quasi_trees(g)]
                if root.components() == 1 else [])
    # per order and quasi-tree, Q and the dead or twisted edges, which the
    # activity minor contracts in Q and deletes off it
    keys = {order: [(v.q, v.dead(before) | v.twisted) for v in vertices]
            for order in map(tuple, orders) if vertices
            for before in [preceding(g, order)]}
    terms: dict[tuple[int, int], tuple[MultiPoly, bool]] = {}
    for q, fixed in dict.fromkeys(itertools.chain(*keys.values())):
        minor = root.minor(fixed & ~q, fixed & q)
        base = minor.components() if minor.live else 0
        # each live edge must split it: bridges in Q, plane loops off Q
        terms[q, fixed] = _minor_poly(minor), all(
            minor.step(k, not q >> k & 1).components() > base
            for k in range(len(g.edges)) if minor.live >> k & 1)
    qt = {order: MultiPoly.sum(terms[key][0] for key in ks)
          for order, ks in keys.items()}
    equal = ss == dc and all(p == ss for p in qt.values())
    return ValidationReport(ss, dc, qt, equal,
                            all(ok for _, ok in terms.values()))
