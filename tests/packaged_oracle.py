"""Reference code for the tests: isomorphism of packaged ribbon graphs, by
brute force over the ribbon isomorphisms; the packaging multigraphs and
their nullities and per-component genus corrections on string-keyed graphs;
the activity minor as a chain of string-keyed packaged minors, its ribbon
graph built as a partial dual and its shape check by :func:`classify_edge`;
the activity classes read off the named partial dual G^Q; the four-variable
quasi-tree expansion in Butler's form, quasi-tree by quasi-tree on
restricted string graphs (the library computes it as the image of the
packaged expansion under one term map, and has no Butler form of its own,
so this is its oracle); the Tutte keys of a multigraph by one union-find
per edge subset, and its Tutte polynomial as a sum of products of powers of
x-1 and y-1; the deletion-contraction recursion on string-keyed minors with
any pivot at each node, :func:`delcon`, which the library's ``pst_delcon``
is checked against on other pivots than its first edge;
:func:`subset_walks`, which rebuilds a spanning subgraph's corner map to
give one dart per boundary walk, and the state-sum leaf that walks each
subset with its own call of it; and the quasi-tree expansion's activities
route, one :func:`activities` call and one compiled minor per quasi-tree,
with the prefactor read as the weight growth of the minor's two sides.

Queries on string graphs that only the tests ask, moved here from the
library with their bodies unchanged: :class:`EdgeKind` and
:func:`classify_edge` (the oracle of the shape check's split test),
:func:`is_loop`
(was ``RibbonGraph.is_loop``), :func:`shape` (was
``WeightedPartition.shape``) and :func:`dart_map` (was
``Isomorphism.dart_map``).  Moved the same way: the four-variable
polynomial's second route, :func:`krushkal_substitution` (was
``invariants._krushkal_substitution``, which ``specialize --target
krushkal`` compared with the direct subset sum), by substitution into
the state sum of the discrete packaging.  And the corpus generator before
its orderly-generation prunes, :func:`enumerate_connected_unpruned` (was
the loop of ``invariants.enumerate_connected``), which certifies every
candidate.

The non-Tutte contrast also lives only here: ``subset_nullity=False`` on
:func:`krushkal_quasitree_terms`, :func:`krushkal_quasitree_oracle`,
:func:`tutte_keys` and :func:`classical_tutte_oracle` reads the whole
multigraph's nullity n in place of the subset's n(A).  The tests use it
to show that the Tutte factors must read n(A): with n, the four-variable
quasi-tree expansion breaks on a small instance."""

from __future__ import annotations

import itertools
from collections import Counter
from enum import Enum
from typing import Callable, Iterable, Iterator

from ribbonpoly.invariants import (Multigraph, _cyclic_partitions, _leaf,
                                   _pairings, pst_state_sum)
from ribbonpoly.packaged import (Minor, PackagedRibbonGraph, PackagingError,
                                 PackagingGraph, WeightedPartition,
                                 component_gamma_values, packaged_contract,
                                 packaged_delete, quotient)
from ribbonpoly.poly import HalfExpPoly, HalfMonomial, MultiPoly
from ribbonpoly.ribbon import (ActivityReport, Dart, Isomorphism, Kernel,
                               RibbonGraph, RibbonGraphError, activities,
                               certificate, connected_components,
                               enumerate_quasi_trees,
                               isomorphisms, partial_dual, restrict,
                               trace_boundaries, union_find)


# ---------------------------------------------------------------------------
# queries on string graphs

class EdgeKind(Enum):
    BRIDGE = "bridge"
    ORDINARY = "ordinary non-loop"
    PLANE_LOOP = "orientable plane loop"
    NONPLANE_LOOP = "orientable non-plane loop"
    NONORIENTABLE_LOOP = "non-orientable loop"


def classify_edge(g: RibbonGraph, e: str) -> EdgeKind:
    """A non-loop is a bridge iff the other edges leave its end vertices
    apart.  An orientable loop is plane iff they leave apart the two arcs
    its ends cut its vertex into: the ends between the loop's ends move to
    one extra vertex, as contracting the loop does."""
    if e not in g.sign:
        raise RibbonGraphError(f"unknown edge {e}")
    kern = g.kernel
    k = g.edges.index(e)
    ev = list(kern.end_vertex)
    u, v = ev[2 * k], ev[2 * k + 1]
    loop = u == v
    if loop:
        if g.sign[e] == -1:
            return EdgeKind.NONORIENTABLE_LOOP
        rot = kern.rotations[u]
        lo, hi = sorted((rot.index(2 * k), rot.index(2 * k + 1)))
        v = len(g.vertices)
        for x in rot[lo + 1:hi]:
            ev[x] = v
    roots = union_find(len(g.vertices) + 1,
                       [(ev[2 * j], ev[2 * j + 1])
                        for j in range(len(g.sign)) if j != k])
    if roots[u] != roots[v]:
        return EdgeKind.PLANE_LOOP if loop else EdgeKind.BRIDGE
    return EdgeKind.NONPLANE_LOOP if loop else EdgeKind.ORDINARY


def is_loop(g: RibbonGraph, e: str) -> bool:
    u, v = g.endpoints(e)
    return u == v


def shape(parts: WeightedPartition) -> frozenset:
    """Partition structure with weights, for equality up to relabelling
    of block order."""
    return frozenset(zip(parts.blocks, parts.weights))


def dart_map(iso: Isomorphism, g1: RibbonGraph) -> dict[Dart, Dart]:
    out = {}
    for end, img in iso.end_map.items():
        flipped = iso.flip[g1.end_vertex[end]]
        for s in "LR":
            t = ("R" if s == "L" else "L") if flipped else s
            out[(end[0], end[1], s)] = (img[0], img[1], t)
    return out


def packaged_isomorphic(p1: PackagedRibbonGraph,
                        p2: PackagedRibbonGraph) -> bool:
    if p1.graph.edges and len(p1.graph.edges) != len(p2.graph.edges):
        return False
    b2 = trace_boundaries(p2.graph)
    for iso in isomorphisms(p1.graph, p2.graph):
        if shape(p1.vparts.relabel(iso.vertex_map)) != shape(p2.vparts):
            continue
        dm = dart_map(iso, p1.graph)
        by_dart = {d: c.id for c in b2 for d in c.visits}
        by_vertex = {c.vertex: c.id for c in b2 if c.vertex is not None}
        bmap = {}
        ok = True
        for comp in trace_boundaries(p1.graph):
            if comp.vertex is not None:
                bmap[comp.id] = by_vertex[iso.vertex_map[comp.vertex]]
                continue
            targets = {by_dart[dm[d]] for d in comp.visits}
            if len(targets) != 1:
                ok = False
                break
            bmap[comp.id] = targets.pop()
        if not ok:
            continue
        if shape(p1.bparts.relabel(bmap)) == shape(p2.bparts):
            return True
    return False


def _quasitree_minor(pg: PackagedRibbonGraph, deleted: Iterable[str],
                     contracted: Iterable[str]) -> PackagedRibbonGraph:
    """The activity minor as a chain of string-keyed packaged minors:
    delete, then contract, each in sorted order.  The reference for the
    one-step graph and the compiled minors of the quasi-tree expansion."""
    cur = pg
    for e in sorted(deleted):
        cur, _ = packaged_delete(cur, e)
    for e in sorted(contracted):
        cur, _ = packaged_contract(cur, e)
    return cur


def activities_oracle(g: RibbonGraph, q: Iterable[str],
                      order: Iterable[str]) -> ActivityReport:
    """:func:`ribbonpoly.ribbon.activities` on the named partial dual G^Q:
    f kills e iff f precedes e and exactly one end of f lies between the
    two ends of e in the rotation of G^Q's one vertex."""
    qset = frozenset(q)
    order = list(order)
    if set(order) != set(g.sign) or len(order) != len(g.sign):
        raise RibbonGraphError("order must be a total order on the edges")
    unknown = qset - set(g.sign)
    if unknown:
        raise RibbonGraphError(f"unknown edge {sorted(unknown)[0]}")
    if len(trace_boundaries(restrict(g, qset))) != 1:
        raise RibbonGraphError("not a quasi-tree")
    h = partial_dual(g, qset)
    if len([v for v in h.vertices if h.rotation.get(v, ())]) > 1:
        raise RibbonGraphError("quasi-tree partial dual has more than one vertex")
    rot = [end[0] for r in h.rotation.values() for end in r]
    twisted = frozenset(e for e in g.sign if h.sign[e] == -1)
    rank = {e: i for i, e in enumerate(order)}
    sets: dict[str, set[str]] = {k: set() for k in "D D* O O* N N*".split()}
    for e in g.sign:
        lo, hi = sorted(i for i, f in enumerate(rot) if f == e)
        between = Counter(rot[lo + 1:hi])
        dead = any(n == 1 and rank[f] < rank[e] for f, n in between.items())
        internal = e in qset
        if dead:
            key = "D" if internal else "D*"
        elif e in twisted:
            key = "N" if internal else "N*"
        else:
            key = "O" if internal else "O*"
        sets[key].add(e)
    return ActivityReport(frozenset(sets["D"]), frozenset(sets["D*"]),
                          frozenset(sets["O"]), frozenset(sets["O*"]),
                          frozenset(sets["N"]), frozenset(sets["N*"]), twisted)


# ---------------------------------------------------------------------------
# packagings of string-keyed graphs

def nullity(pk: PackagingGraph) -> int:
    """e - v + k of the packaging multigraph."""
    return len(pk.edges) - len(pk.blocks) + len(pk.components())


def packaging(pg: PackagedRibbonGraph) -> PackagingGraph:
    """Quotient of the underlying graph by the vertex partition."""
    return quotient(pg.graph, pg.vparts, {v: v for v in pg.graph.vertices})


def component_gamma(pg: PackagedRibbonGraph, side: str,
                    component: Iterable[str]) -> int:
    """Genus correction of one connected packaging component.

    ``side`` is "vertex" or "boundary"; ``component`` lists the partition
    elements (vertex ids or boundary ids) of the component's blocks.
    """
    if side == "vertex":
        g = pg.graph
        parts = pg.vparts
        elem = {v: v for v in g.vertices}
    elif side == "boundary":
        gd, b_to_v, _ = pg.graph.duality
        g = gd
        parts = pg.bparts
        elem = {v: b for b, v in b_to_v.items()}
    else:
        raise PackagingError(f"unknown side {side!r}")
    pk = quotient(g, parts, elem)
    want = frozenset(parts.block_index(x) for x in component)
    for comp, gamma in zip(pk.components(), component_gamma_values(g, pk)):
        if comp == want:
            return gamma
    raise PackagingError("not a connected component of the packaging")


def restricted_packagings(pg: PackagedRibbonGraph,
                          a: Iterable[str]) -> tuple[PackagingGraph,
                                                     PackagingGraph]:
    """Packagings of (g|A, vertex partition) and (g*|A^c, boundary partition)."""
    aset = set(a)
    g = pg.graph
    first = quotient(restrict(g, aset), pg.vparts, {v: v for v in g.vertices})
    gd, b_to_v, _ = g.duality
    elem = {v: b for b, v in b_to_v.items()}
    second = quotient(restrict(gd, set(g.sign) - aset), pg.bparts, elem)
    return first, second


def _terminal(pg: PackagedRibbonGraph) -> MultiPoly:
    """The polynomial of an edgeless packaged graph."""
    return MultiPoly({_leaf(pg): 1})


def delcon(pg: PackagedRibbonGraph,
           pivot: Callable[[PackagedRibbonGraph], str]) -> MultiPoly:
    """Deletion-contraction on string-keyed packaged minors, pivoting at
    each node on the edge ``pivot`` picks there: the reference for the
    pivot independence of :func:`~ribbonpoly.invariants.pst_delcon`, which
    always pivots on the first edge."""
    if not pg.graph.sign:
        return _terminal(pg)
    e = pivot(pg)
    deleted, dcase = packaged_delete(pg, e)
    contracted, ccase = packaged_contract(pg, e)
    return (MultiPoly.x(dcase != 1) * delcon(deleted, pivot)
            + MultiPoly.y(ccase != 1) * delcon(contracted, pivot))


def interlaced(g: RibbonGraph, e: str, f: str) -> bool:
    """True iff loops ``e`` and ``f`` share a vertex with ends in order efef."""
    if e == f or not (is_loop(g, e) and is_loop(g, f)):
        return False
    ve = g.end_vertex[(e, 1)]
    if ve != g.end_vertex[(f, 1)]:
        return False
    pattern = [end[0] for end in g.rotation[ve] if end[0] in (e, f)]
    return len(pattern) == 4 and pattern[0] != pattern[1] and pattern[1] != pattern[2] \
        and pattern[2] != pattern[3]


# ---------------------------------------------------------------------------
# activity minors on string graphs

def _minor_graph(g: RibbonGraph, deleted: Iterable[str],
                 contracted: Iterable[str]) -> RibbonGraph:
    """The ribbon graph of the minor that deletes B and contracts A, in one
    step: contracting the set A is the partial dual at A followed by
    deleting A."""
    contracted = set(contracted)
    return restrict(partial_dual(g, contracted),
                    set(g.sign) - contracted - set(deleted))


def minor_shape_check(pg: PackagedRibbonGraph, q: Iterable[str],
                      order: Iterable[str]) -> bool:
    """In the activity minor, internal live orientable edges must be bridges
    and external live orientable edges plane loops."""
    act = activities(pg.graph, frozenset(q), list(order))
    return _minor_shape_ok(act, _minor_graph(pg.graph, act.deleted_part(),
                                             act.contracted_part()))


def _minor_shape_ok(act: ActivityReport, mg: RibbonGraph) -> bool:
    for e in act.internal_live_orientable:
        if classify_edge(mg, e) != EdgeKind.BRIDGE:
            return False
    for e in act.external_live_orientable:
        if classify_edge(mg, e) != EdgeKind.PLANE_LOOP:
            return False
    return True


def krushkal_substitution(g: RibbonGraph) -> HalfExpPoly:
    """The four-variable polynomial by substitution into the state sum of
    the discrete packaging of ``g``."""
    t = pst_state_sum(PackagedRibbonGraph.discrete(g))
    k = len(connected_components(g))
    one = HalfExpPoly.const(1)
    image = t.substitute(
        x=one, y=one,
        xg=lambda gamma: HalfExpPoly.beta() * HalfExpPoly.b_half(gamma),
        yg=lambda gamma: HalfExpPoly.alpha() * HalfExpPoly.a_half(gamma),
        ring=HalfExpPoly)
    return HalfExpPoly.alpha(-k) * HalfExpPoly.beta(-k) * image


def krushkal_quasitree_terms(g: RibbonGraph, order: Iterable[str],
                             subset_nullity: bool = True
                             ) -> Iterator[tuple[frozenset, HalfExpPoly]]:
    """Each quasi-tree Q of ``g`` under ``order`` with its Butler-form term
    of the four-variable expansion, each side read off the restricted
    string graph (of ``g`` or of its dual): T(alpha+1, a+1) of the live
    orientable internal edges between the components of the contracted
    part, times T(beta+1, b+1) of the live orientable external edges
    between the components of the deleted part in the dual, times a and b
    to half the Euler genus of those parts.  With ``subset_nullity=False``
    each side's Tutte keys read the nullity of the whole multigraph in
    place of n(A): the non-Tutte contrast, which breaks the expansion."""
    order = list(order)
    if len(connected_components(g)) != 1:
        raise RibbonGraphError("quasi-tree expansion requires a connected graph")
    gd, _, _ = g.duality
    for q in enumerate_quasi_trees(g):
        act = activities(g, q, order)
        xs, ga = _krushkal_side(g, act.contracted_part(),
                                act.internal_live_orientable, subset_nullity)
        ys, gb = _krushkal_side(gd, act.deleted_part(),
                                act.external_live_orientable, subset_nullity)
        yield q, HalfExpPoly((HalfMonomial(i, i2, 2 * j + ga, 2 * j2 + gb),
                              c * c2) for (i, j), c in xs.items()
                             for (i2, j2), c2 in ys.items())


def krushkal_quasitree_oracle(g: RibbonGraph, order: Iterable[str],
                              subset_nullity: bool = True) -> HalfExpPoly:
    """The four-variable quasi-tree expansion as the sum of the
    :func:`krushkal_quasitree_terms`, the independent reference of
    :func:`ribbonpoly.invariants.krushkal_quasitree`."""
    return HalfExpPoly.sum(
        t for _, t in krushkal_quasitree_terms(g, order, subset_nullity))


def _krushkal_side(g: RibbonGraph, kept: Iterable[str], live: Iterable[str],
                   subset_nullity: bool) -> tuple[Counter, int]:
    """The :func:`tutte_keys` of the multigraph of ``live`` edges between the
    connected components of the spanning subgraph on ``kept``, and the
    Euler genus of that subgraph."""
    sub = restrict(g, kept)
    comps = connected_components(sub)
    comp = {v: i for i, c in enumerate(comps) for v in c}
    ends = [(comp[u], comp[w]) for u, w in map(g.endpoints, live)]
    genus = (2 * len(comps) - len(sub.vertices) + len(sub.sign)
             - len(trace_boundaries(sub)))
    return tutte_keys(len(comps), ends, subset_nullity), genus


def tutte_keys(n: int, ends: list[tuple[int, int]],
               subset_nullity: bool = True) -> Counter:
    """:func:`ribbonpoly.invariants._tutte_keys` with one union-find per
    edge subset: how many subsets A of the edges ``ends`` on vertices
    0 .. n-1 give each (k(A) - k, n(A)), or (k(A) - k, n) with
    ``subset_nullity=False``."""
    def counts(mask: int) -> tuple[int, int]:
        pairs = [p for j, p in enumerate(ends) if mask >> j & 1]
        k = len(set(union_find(n, pairs)))
        return k, len(pairs) - n + k

    full = (1 << len(ends)) - 1
    k_h, n_h = counts(full)
    return Counter((k_a - k_h, n_a if subset_nullity else n_h)
                   for k_a, n_a in map(counts, range(full + 1)))


def classical_tutte_oracle(h: Multigraph,
                           subset_nullity: bool = True) -> MultiPoly:
    """:func:`ribbonpoly.invariants.classical_tutte` as the sum of
    c (x-1)^a (y-1)^b, products of polynomial powers, over the
    :func:`tutte_keys`; with ``subset_nullity=False``, the contrast that
    reads n(h) in place of n(h|A), which is not the Tutte polynomial."""
    idx = {v: i for i, v in enumerate(h.vertices)}
    keys = tutte_keys(len(idx), [(idx[u], idx[w]) for _, u, w in h.edges],
                      subset_nullity)
    x1, y1 = MultiPoly.x() - 1, MultiPoly.y() - 1
    return MultiPoly.sum(c * x1 ** a * y1 ** b for (a, b), c in keys.items())


def subset_walks(kern: Kernel, mask: int) -> list[int]:
    """One dart per boundary walk of the spanning subgraph on the edges of
    ``mask``: the first dart of each walk, then a dart at each vertex that
    keeps none of its edge ends (an empty boundary); a vertex without edge
    ends gives none.  The walks are those of :func:`trace_boundaries` on
    :func:`restrict`, in another order, and also the boundary walks of the
    dual's spanning subgraph on the other edges."""
    t0 = kern.t0
    t1: dict[int, int] = {}
    out = []
    for rot in kern.rotations:
        kept = [x for x in rot if mask >> (x >> 1) & 1]
        if not kept:
            if rot:
                out.append(2 * rot[0])
            continue
        arrive = 2 * kept[-1] + 1
        for x in kept:
            t1[arrive] = 2 * x
            t1[2 * x] = arrive
            arrive = 2 * x + 1
    while t1:  # each corner crossed is dropped from t1
        d0 = next(iter(t1))
        out.append(d0)
        cur = d0
        while True:
            cur = t1.pop(t0[cur])
            del t1[cur]
            if cur == d0:
                break
    return out


def subset_walks_term(root: Minor, mask: int, sides: tuple) -> tuple:
    """:func:`ribbonpoly.invariants._subset_term` with the boundary walks
    of the subset ``mask`` from one :func:`subset_walks` call, which builds
    the subset's corner map afresh: each walk, and each vertex the subset
    leaves without edge ends, takes 1 from its component's gamma on both
    of the built-up ``sides``."""
    (vcomp, vgamma, n1), (bcomp, bgamma, n2) = sides
    vgamma, bgamma = vgamma.copy(), bgamma.copy()
    vlab, blab = root.labels
    for d in subset_walks(root.kernel, mask):
        vgamma[vcomp[vlab[d]]] -= 1
        bgamma[bcomp[blab[d]]] -= 1
    return (n2, n1, tuple(sorted(bgamma.values())),
            tuple(sorted(vgamma.values())))


def _weight(m: Minor, s: int) -> int:
    """The total block weight of side ``s`` of ``m``: each live block's
    gamma less 1, plus the isolated elements, one per isolated vertex."""
    return sum(g - 1 for g in m.gammas[s] if g is not None) + m.isolated


def _activity_terms(pg: PackagedRibbonGraph):
    """The function of an activity minor's deleted part B and contracted
    part A that gives its x/y prefactor exponents, read as the weight growth
    of its boundary and vertex side, and its compiled minor, built by
    stepping its edges: the reference for the ``xy`` that
    :meth:`~ribbonpoly.packaged.Minor.step` gathers.  The string-minor
    reference is :func:`_quasitree_minor`."""
    root = Minor.compile(pg)
    index = {e: k for k, e in enumerate(pg.graph.edges)}
    base = [_weight(root, s) for s in (0, 1)]

    def term(deleted: frozenset[str], contracted: frozenset[str]
             ) -> tuple[tuple[int, int], Minor]:
        m = root.minor(*(sum(1 << index[e] for e in part)
                         for part in (deleted, contracted)))
        ey, ex = (_weight(m, s) - w0 for s, w0 in enumerate(base))
        return (ex, ey), m

    return term


def _quasitree_terms(pg: PackagedRibbonGraph, order: list[str],
                     quasi_trees: list[frozenset[str]]):
    """Yield (Q, activity report, x/y prefactor exponents, compiled
    activity minor) per quasi-tree of ``quasi_trees``, the list
    :func:`enumerate_quasi_trees` gives: the reference for the reverse-order
    walk of :func:`~ribbonpoly.invariants.pst_quasitree`."""
    term = _activity_terms(pg)
    for q in quasi_trees:
        act = activities(pg.graph, q, order)
        yield (q, act, *term(act.deleted_part(), act.contracted_part()))


def enumerate_connected_unpruned(max_edges: int) -> Iterator[RibbonGraph]:
    """:func:`~ribbonpoly.invariants.enumerate_connected` without its
    prunes: every candidate is built and certified, and the first of each
    certificate is kept."""
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
