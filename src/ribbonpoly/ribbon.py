"""Ribbon graphs as signed rotation systems.

A ribbon graph is stored as a rotation system: every vertex carries a cyclic
sequence of edge ends, and every edge carries a sign (-1 marks a twisted
band).  Edge ends are pairs ``(edge, i)`` with ``i`` in ``{1, 2}``.  Boundary
components are traced as cyclic walks of *darts* ``(edge, i, side)`` with
``side`` in ``{"L", "R"}``; every dart is visited exactly once across all
boundary walks.

Topological operations (boundary tracing, partial duals, certificates) work
in the flag model, on one encoding: the integer :class:`Kernel` of each
graph.  Its darts ``0 .. 4m-1`` follow the sorted order of the named darts,
and three pairings

* ``t0`` -- crossing an edge band along one of its free sides,
* ``t1`` -- crossing a vertex corner between consecutive ends,
* ``t2`` -- crossing an end between its two sides, ``d ^ 1``,

encode the ribbon graph completely.  Vertices are the orbits of ``t1, t2``,
edges the orbits of ``t0, t2`` and boundary components the orbits of
``t0, t1``; the kernel lists these walks once, and :func:`trace_boundaries`
names them.  The partial dual with respect to an edge subset swaps ``t0`` and
``t2`` on the darts of those edges; applied to every edge this is the
geometric dual.  Named darts appear only where the API returns them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional

End = tuple[str, int]
Dart = tuple[str, int, str]


class RibbonGraphError(ValueError):
    pass


@dataclass(frozen=True)
class RibbonGraph:
    """A signed rotation system.

    Instances are never mutated after construction, so derived kernel data
    (end -> vertex, the integer kernel, boundary trace) is computed on
    first use and kept on the instance.  Cached dicts are shared: callers
    must not mutate them.  The cache needs an instance ``__dict__``, so
    this is a frozen dataclass where the library's other records are
    NamedTuples.
    """
    vertices: tuple[str, ...]
    rotation: dict[str, tuple[End, ...]]
    sign: dict[str, int]

    @staticmethod
    def build(vertices: Iterable[str],
              rotation: dict[str, Iterable[End]],
              sign: dict[str, int]) -> "RibbonGraph":
        vs = tuple(vertices)
        rot = {v: tuple((str(e), int(i)) for e, i in rotation.get(v, ()))
               for v in (*vs, *rotation)}
        g = RibbonGraph(vs, rot, dict(sign))
        faults = validate(g)
        if faults:
            raise RibbonGraphError("; ".join(faults))
        return g

    @property
    def edges(self) -> tuple[str, ...]:
        return tuple(sorted(self.sign))

    @cached_property
    def end_vertex(self) -> dict[End, str]:
        """End -> the vertex whose rotation holds it."""
        return {end: v for v, rot in self.rotation.items() for end in rot}

    @cached_property
    def kernel(self) -> Kernel:
        """The integer view of this graph; see :class:`Kernel`."""
        edges = self.edges
        eid = {e: k for k, e in enumerate(edges)}
        t0 = []
        for k, e in enumerate(edges):
            # across the band to the other end; an untwisted band swaps L, R
            d = 4 * k
            t0 += ((d + 3, d + 2, d + 1, d) if self.sign[e] == 1
                   else (d + 2, d + 3, d, d + 1))
        # Tuples are built from lists, at their final size.  A tuple grown
        # from an iterator is resized instead; freed, it still joins
        # CPython's free list for its final size, so over many short-lived
        # kernels those lists fill and raise peak memory.
        rotations = tuple([tuple([2 * eid[e] + i - 1
                                  for e, i in self.rotation.get(v, ())])
                           for v in self.vertices])
        t1 = [0] * len(t0)
        end_vertex = [0] * (2 * len(edges))
        for v, rot in enumerate(rotations):
            arrive = 2 * rot[-1] + 1 if rot else 0
            for x in rot:  # arriving on side R continues at the next end's L
                end_vertex[x] = v
                t1[arrive] = 2 * x
                t1[2 * x] = arrive
                arrive = 2 * x + 1
        used = bytearray(len(t0))
        walks = []
        for d0 in range(len(t0)):  # each boundary walk from its least dart
            if used[d0]:
                continue
            walk = []
            cur = d0
            while not used[cur]:
                arr = t0[cur]
                walk.append(cur)
                walk.append(arr)
                used[cur] = used[arr] = 1
                cur = t1[arr]
            walks.append(tuple(walk))
        return Kernel(tuple(t0), tuple(t1), rotations, tuple(end_vertex),
                      (1 << len(edges)) - 1,
                      tuple([*itertools.product(edges, (1, 2), "LR")]),
                      tuple(walks))

    @cached_property
    def boundaries(self) -> tuple[BoundaryComponent, ...]:
        """The boundary components, as :func:`trace_boundaries` lists them."""
        return tuple(trace_boundaries(self))

    @cached_property
    def boundary_of_dart(self) -> dict[Dart, str]:
        return {d: c.id for c in self.boundaries for d in c.visits}

    def endpoints(self, e: str) -> tuple[str, str]:
        """Vertices of the two ends of ``e`` (equal for a loop)."""
        return (self.end_vertex[(e, 1)], self.end_vertex[(e, 2)])


def validate(g: RibbonGraph) -> list[str]:
    """Return a list of structural faults; empty means the graph is valid."""
    faults = []
    if len(set(g.vertices)) != len(g.vertices):
        faults.append("duplicate vertex identifier")
    seen: dict[End, int] = {}
    for v in g.vertices:
        for end in g.rotation.get(v, ()):
            seen[end] = seen.get(end, 0) + 1
    for end, n in seen.items():
        e, i = end
        if e not in g.sign:
            faults.append(f"end {e}.{i} references undeclared edge {e}")
        if n > 1:
            faults.append(f"end {e}.{i} placed twice")
    for e, s in g.sign.items():
        if s not in (1, -1):
            faults.append(f"edge {e} has sign {s}, expected +1 or -1")
        for i in (1, 2):
            if (e, i) not in seen:
                faults.append(f"edge {e} is missing end {e}.{i}")
    for v in g.rotation:
        if v not in g.vertices:
            faults.append(f"rotation given for unknown vertex {v}")
    return faults


class Kernel(NamedTuple):
    """The flag encoding of a ribbon graph, in integers.

    Edge ``k`` is the k-th of :attr:`RibbonGraph.edges`; its ends ``.1`` and
    ``.2`` are ``2k`` and ``2k+1``; the darts of end ``x`` are ``2x`` (side
    L) and ``2x+1`` (side R), so dart order is the sorted order of the named
    darts and ``t2`` is ``d ^ 1``.  An edge subset is a bitmask, bit ``k``
    for edge ``k``; vertices are indices into :attr:`RibbonGraph.vertices`.
    :attr:`walks` lists the boundary walks: each starts at the least dart
    of no earlier walk and steps by ``t0`` then ``t1``, and
    :func:`trace_boundaries` names them b1, b2, ...
    """
    t0: tuple[int, ...]                     # dart -> dart across its band
    t1: tuple[int, ...]                     # dart -> dart across its corner
    rotations: tuple[tuple[int, ...], ...]  # vertex -> ends in cyclic order
    end_vertex: tuple[int, ...]             # end -> vertex
    full: int                               # the mask of every edge
    darts: tuple[Dart, ...]                 # dart -> its (edge, i, side)
    walks: tuple[tuple[int, ...], ...]      # the boundary walks, in order


def union_find(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """The root of each of ``0 .. n-1`` once every pair is joined; two
    elements are connected iff their roots are equal."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    return [find(x) for x in range(n)]


# ---------------------------------------------------------------------------
# boundary tracing

class BoundaryComponent(NamedTuple):
    id: str
    visits: tuple[Dart, ...]
    vertex: Optional[str] = None  # set for an isolated-vertex component


def trace_boundaries(g: RibbonGraph) -> list[BoundaryComponent]:
    """All boundary components, canonically ordered and labelled b1, b2, ...

    The kernel's walks, by name, come first, then one empty component per
    isolated vertex, in vertex order.
    """
    names = g.kernel.darts
    # a walk has at least two darts, so itemgetter returns a tuple
    out = [BoundaryComponent(f"b{i}", itemgetter(*walk)(names))
           for i, walk in enumerate(g.kernel.walks, 1)]
    for v in sorted(g.vertices):
        if not g.rotation.get(v, ()):
            out.append(BoundaryComponent(f"b{len(out) + 1}", (), vertex=v))
    return out


def counts(g: RibbonGraph) -> tuple[int, int, int, int]:
    """(v, e, k, b)."""
    return (len(g.vertices), len(g.sign), len(connected_components(g)),
            len(g.boundaries))


def connected_components(g: RibbonGraph) -> list[frozenset[str]]:
    """Vertex partition into connected components (isolated vertices count)."""
    idx = {v: i for i, v in enumerate(g.vertices)}
    ev = g.end_vertex
    roots = union_find(len(g.vertices),
                       ((idx[ev[(e, 1)]], idx[ev[(e, 2)]]) for e in g.sign))
    groups: dict[int, set[str]] = {}
    for v, r in zip(g.vertices, roots):
        groups.setdefault(r, set()).add(v)
    return sorted((frozenset(s) for s in groups.values()), key=min)


def euler_genus(g: RibbonGraph) -> int:
    v, e, k, b = counts(g)
    return 2 * k - v + e - b


def orientable(g: RibbonGraph) -> bool:
    """True iff per-vertex reflections can make every edge sign +1, that is,
    iff the flag graph of t0, t1, t2 is bipartite: joining each dart to the
    other colour's copy of its three neighbours never joins its own two
    copies."""
    kern = g.kernel
    n = len(kern.t0)
    pairs = [(d, t[d] + n) for t in (kern.t0, kern.t1) for d in range(n)]
    roots = union_find(2 * n, pairs + [(d, (d ^ 1) + n) for d in range(n)])
    return all(roots[d] != roots[d + n] for d in range(n))


# ---------------------------------------------------------------------------
# subgraphs, deletion

def restrict(g: RibbonGraph, edges: Iterable[str]) -> RibbonGraph:
    """Spanning ribbon subgraph on the given edge subset."""
    keep = set(edges)
    unknown = keep - set(g.sign)
    if unknown:
        raise RibbonGraphError(f"unknown edge {sorted(unknown)[0]}")
    rot = {v: tuple(end for end in g.rotation.get(v, ()) if end[0] in keep)
           for v in g.vertices}
    return RibbonGraph(g.vertices, rot, {e: s for e, s in g.sign.items() if e in keep})


def delete_edge(g: RibbonGraph, e: str) -> RibbonGraph:
    if e not in g.sign:
        raise RibbonGraphError(f"unknown edge {e}")
    return restrict(g, set(g.sign) - {e})


def induced_subgraph(g: RibbonGraph, vertices: Iterable[str],
                     edges: Iterable[str]) -> RibbonGraph:
    """Subgraph on the given vertices and edges (all edge ends must land on
    kept vertices)."""
    vertices, keep = set(vertices), set(edges)
    vs = [v for v in g.vertices if v in vertices]
    rot = {v: tuple(end for end in g.rotation.get(v, ()) if end[0] in keep)
           for v in vs}
    placed = sum(len(r) for r in rot.values())
    if placed != 2 * len(keep):
        raise RibbonGraphError("induced subgraph drops an edge end")
    return RibbonGraph(tuple(vs), rot, {e: g.sign[e] for e in keep})


# ---------------------------------------------------------------------------
# partial duality

def _fresh_names(taken: set[str]) -> Iterator[str]:
    return (f"w{i}" for i in itertools.count(1) if f"w{i}" not in taken)


def partial_dual_with_map(g: RibbonGraph, edges: Iterable[str]
                          ) -> tuple[RibbonGraph, dict[Dart, Dart]]:
    """Partial dual together with the dart relabelling it induces (old dart
    -> dart of the new graph), since end indices and sides on changed
    vertices may be renamed.

    The partial dual swaps t0 and t2 on the darts of ``edges``.  Only the
    vertices that carry an end of those edges change, so only their darts
    are re-walked, as orbits of t1 and the new t2; every other vertex keeps
    its name and rotation.  Changed orbits become fresh vertices named w1,
    w2, ... in order of their minimal dart; vertices are listed in that
    order, isolated vertices last.
    """
    a = set(edges)
    unknown = a - set(g.sign)
    if unknown:
        raise RibbonGraphError(f"unknown edge {sorted(unknown)[0]}")
    if not a:
        return g, {d: d for d in g.kernel.darts}
    kern = g.kernel
    t0, t1, names, ev = kern.t0, kern.t1, kern.darts, kern.end_vertex
    swap = {d: t0[d] for d in range(len(t0)) if names[d][0] in a}  # new t2
    touched = {ev[d >> 1] for d in swap}
    darts = sorted(d for v in touched for x in kern.rotations[v]
                   for d in (2 * x, 2 * x + 1))

    image = list(range(len(t0)))  # old dart -> new dart
    lflag: dict[int, int] = {}    # end on a changed vertex -> its new L dart
    placed = [(2 * min(rot), v, g.rotation[v])  # (minimal dart, name, ends)
              for v, rot in zip(g.vertices, kern.rotations)
              if rot and ev[rot[0]] not in touched]
    fresh = _fresh_names(set(g.vertices))
    seen = bytearray(len(t0))
    for f0 in darts:
        if seen[f0]:
            continue
        rot = []
        cur = f0
        while True:
            partner = swap.get(cur, cur ^ 1)
            if seen[cur] or seen[partner]:
                raise RibbonGraphError("inconsistent flag structure")
            seen[cur] = seen[partner] = 1
            first = cur & ~3  # the edge's dart (e, 1, L)
            # the pair becomes end .1 if it holds that dart, else end .2
            x = first >> 1 if first in (cur, partner) else (first >> 1) + 1
            rot.append(x)
            lflag[x] = cur
            image[cur], image[partner] = 2 * x, 2 * x + 1
            cur = t1[partner]
            if cur == f0:
                break
        placed.append((f0, next(fresh), tuple([names[2 * x][:2] for x in rot])))
    placed.sort()

    sign = dict(g.sign)
    for k in {x >> 1 for x in lflag}:
        l1 = lflag.get(2 * k, 4 * k)
        l2 = lflag.get(2 * k + 1, 4 * k + 2)
        across = l1 ^ 1 if l1 in swap else t0[l1]  # the new t0
        if across == swap.get(l2, l2 ^ 1):
            sign[names[4 * k][0]] = 1
        elif across == l2:
            sign[names[4 * k][0]] = -1
        else:
            raise RibbonGraphError("inconsistent flag structure")

    rotation = {v: rot for _, v, rot in placed}
    rotation.update((v, ()) for v in g.vertices if not g.rotation.get(v, ()))
    return (RibbonGraph(tuple(rotation), rotation, sign),
            {names[d]: names[image[d]] for d in range(len(t0))})


def partial_dual(g: RibbonGraph, edges: Iterable[str]) -> RibbonGraph:
    return partial_dual_with_map(g, edges)[0]


def dual_correspondences(g: RibbonGraph) -> tuple[RibbonGraph, dict[str, str],
                                                  dict[str, str]]:
    """Dual plus both correspondences: boundary id -> dual vertex and
    vertex -> dual boundary id, read off the dart map.  Each boundary walk
    must map onto exactly the darts of one dual vertex, and the darts of
    each vertex onto exactly one dual boundary walk."""
    gd, dart_map = partial_dual_with_map(g, g.sign)
    b_to_v = {}
    for comp in g.boundaries:
        if comp.vertex is not None:
            b_to_v[comp.id] = comp.vertex
            continue
        owners = {gd.end_vertex[dart_map[d][:2]] for d in comp.visits}
        v = owners.pop()
        if owners or len(comp.visits) != 2 * len(gd.rotation[v]):
            raise RibbonGraphError("dual vertex not found for boundary component")
        b_to_v[comp.id] = v

    of = gd.boundary_of_dart
    length = {c.id: len(c.visits) for c in gd.boundaries}
    vertex_of = {c.id: c.vertex for c in gd.boundaries if c.vertex is not None}
    for v in g.vertices:
        rot = g.rotation.get(v, ())
        if not rot:
            continue
        ids = {of[dart_map[(e, i, s)]] for e, i in rot for s in "LR"}
        b = ids.pop()
        if ids or length[b] != 2 * len(rot):
            raise RibbonGraphError("dual boundary not found for vertex")
        vertex_of[b] = v
    return gd, b_to_v, {vertex_of[c.id]: c.id for c in gd.boundaries}


# ---------------------------------------------------------------------------
# contraction

def _boundary_targets(g: RibbonGraph, e: str, res: RibbonGraph,
                      dart_map: dict[Dart, Dart] | None = None
                      ) -> dict[str, set[str]]:
    """Each boundary id of ``g`` -> the ids of the boundary components of
    ``res`` (a minor of ``g`` at ``e``) that hold its darts off ``e``, after
    ``dart_map`` (the identity when ``None``).  An isolated vertex's
    component goes to that vertex's component; a component of ``g`` with
    darts of ``e`` only goes nowhere."""
    of = res.boundary_of_dart
    if dart_map is not None:
        of = {d: of[t] for d, t in dart_map.items() if d[0] != e}
    by_vertex = {c.vertex: c.id for c in res.boundaries if c.vertex is not None}
    return {c.id: ({by_vertex[c.vertex]} if c.vertex is not None
                   else {of[d] for d in c.visits if d[0] != e})
            for c in g.boundaries}


def contract_edge(g: RibbonGraph, e: str) -> tuple[RibbonGraph, dict[str, str]]:
    """Contract ``e``; also return the boundary correspondence b(g) -> b(g/e).

    Implemented through the partial dual (g/e equals the partial dual at e
    with e deleted); the correspondence matches boundary components sharing a
    dart on a surviving edge or an isolated vertex, and pairs the leftover
    components in trace order.
    """
    if e not in g.sign:
        raise RibbonGraphError(f"unknown edge {e}")
    pd, dart_map = partial_dual_with_map(g, {e})
    res = delete_edge(pd, e)

    corr: dict[str, str] = {}
    leftover = []
    for b, targets in _boundary_targets(g, e, res, dart_map).items():
        if len(targets) > 1:
            raise RibbonGraphError("boundary correspondence is not a bijection")
        if targets:
            corr[b] = targets.pop()
        else:
            leftover.append(b)
    matched = set(corr.values())
    remaining = [c.id for c in res.boundaries if c.id not in matched]
    if len(matched) != len(corr) or len(leftover) != len(remaining):
        raise RibbonGraphError("boundary correspondence is not a bijection")
    corr.update(zip(leftover, remaining))
    return res, corr


# ---------------------------------------------------------------------------
# quasi-trees and activities

def enumerate_quasi_trees(g: RibbonGraph) -> list[frozenset[str]]:
    """All spanning edge subsets Q with one boundary component, by size,
    then in combination order: those whose G^Q has one vertex, as the walk
    of :func:`quasi_tree_vertex` finds, without its other bookkeeping."""
    if len(connected_components(g)) != 1:
        raise RibbonGraphError("quasi-tree enumeration requires a connected graph")
    edges = g.edges
    t0, t1 = g.kernel.t0, g.kernel.t1
    out = []
    for r in range(len(edges) + 1):
        for combo in itertools.combinations(range(len(edges)), r):
            mask = sum(1 << k for k in combo)
            walked = cur = 0
            while t0:
                cur = t1[t0[cur] if mask >> (cur >> 2) & 1 else cur ^ 1]
                walked += 2
                if cur == 0:
                    break
            if walked == len(t0):
                out.append(frozenset(edges[k] for k in combo))
    return out


class ActivityReport(NamedTuple):
    """The six activity classes of edges relative to a quasi-tree and order,
    and the edges twisted in the partial dual at the quasi-tree."""
    internal_dead: frozenset[str]
    external_dead: frozenset[str]
    internal_live_orientable: frozenset[str]
    external_live_orientable: frozenset[str]
    internal_live_nonorientable: frozenset[str]
    external_live_nonorientable: frozenset[str]
    twisted: frozenset[str]


class QuasiTreeVertex(NamedTuple):
    """G^Q's one vertex (:func:`quasi_tree_vertex`), which no edge order
    changes: masks over ``edges`` of Q, of the edges with exactly one end
    between each edge's two ends, and of the edges twisted in G^Q."""
    edges: tuple[str, ...]
    q: int
    between: tuple[int, ...]
    twisted: int

    def dead(self, before: list[int]) -> int:
        """The edges dead in the order whose :func:`preceding` is ``before``:
        f kills e iff f precedes e and is between e's ends."""
        return sum(1 << k for k, b in enumerate(self.between) if b & before[k])

    def report(self, before: list[int]) -> ActivityReport:
        """The activity classes in that order."""
        dead, tw, out = self.dead(before), self.twisted, ~self.q
        def named(m): return frozenset(e for k, e in enumerate(self.edges)
                                       if m >> k & 1)
        return ActivityReport(*(named(c & side)   # D D* O O* N N*
                                for c in (dead, ~dead & ~tw, ~dead & tw)
                                for side in (self.q, out)), named(tw))


def preceding(g: RibbonGraph, order: Iterable[str]) -> list[int]:
    """Per edge, the mask of the edges before it in the total ``order``."""
    order = list(order)
    if set(order) != set(g.sign) or len(order) != len(g.sign):
        raise RibbonGraphError("order must be a total order on the edges")
    index = {e: k for k, e in enumerate(g.edges)}
    before, earlier = [0] * len(order), 0
    for e in order:
        before[index[e]], earlier = earlier, earlier | 1 << index[e]
    return before


def quasi_tree_vertex(g: RibbonGraph, q: Iterable[str]) -> QuasiTreeVertex:
    """G^Q's one vertex for the quasi-tree ``q``, walked on the kernel.

    G^Q swaps ``t0`` and ``t2`` on the darts of Q, so its one vertex is the
    orbit of ``t1`` and the new ``t2`` through dart 0, and every edge is a
    loop there.  Q is a quasi-tree, with one boundary component, iff G^Q
    has that one vertex: the orbit covers every dart, and G has no vertex
    without edge ends unless it is one edgeless vertex.  An edge is twisted
    in G^Q iff the new ``t0`` of the dart where the walk enters one end is
    the dart where it enters the other.  With ``P[i]`` the XOR of the edge
    bits of the first ``i`` ends along the walk, the edges with one end
    between the ends ``lo`` < ``hi`` of an edge are ``P[hi] ^ P[lo + 1]``."""
    qset = frozenset(q)
    unknown = qset - set(g.sign)
    if unknown:
        raise RibbonGraphError(f"unknown edge {sorted(unknown)[0]}")
    edges, kern = g.edges, g.kernel
    mask = sum(1 << k for k, e in enumerate(edges) if e in qset)
    t0, t1 = kern.t0, kern.t1
    seen = bytearray(len(t0))
    first: dict[int, tuple[int, int]] = {}  # edge -> (parity, entering dart)
    between = [0] * len(edges)
    twisted = parity = cur = 0  # parity: XOR of the bits of the ends so far
    while t0:
        k = cur >> 2
        partner = t0[cur] if mask >> k & 1 else cur ^ 1  # the new t2
        if seen[cur] or seen[partner]:
            raise RibbonGraphError("inconsistent flag structure")
        seen[cur] = seen[partner] = 1
        if k in first:
            before, a = first[k]
            between[k] = parity ^ before
            across = a ^ 1 if mask >> k & 1 else t0[a]  # the new t0
            if across == cur:
                twisted |= 1 << k
            elif across != partner:
                raise RibbonGraphError("inconsistent flag structure")
        parity ^= 1 << k
        first.setdefault(k, (parity, cur))
        cur = t1[partner]
        if cur == 0:
            break
    if not all(seen) or bool(t0) + sum(not r for r in kern.rotations) != 1:
        raise RibbonGraphError("not a quasi-tree")
    return QuasiTreeVertex(edges, mask, tuple(between), twisted)


def activities(g: RibbonGraph, q: Iterable[str],
               order: Iterable[str]) -> ActivityReport:
    """The activity classes of every edge relative to the quasi-tree ``q``
    and the total ``order``: the walk of G^Q's vertex, then the order's
    classification; ``cross_validate`` walks once for all its orders."""
    before = preceding(g, order)
    return quasi_tree_vertex(g, q).report(before)


# ---------------------------------------------------------------------------
# isomorphism (test oracle; brute force, fine for small graphs)

class Isomorphism(NamedTuple):
    vertex_map: dict[str, str]
    end_map: dict[End, End]
    edge_map: dict[str, str]
    flip: dict[str, int]


def isomorphisms(g1: RibbonGraph, g2: RibbonGraph) -> Iterator[Isomorphism]:
    """Every isomorphism from ``g1`` to ``g2``: a vertex bijection that
    carries each rotation onto a turn of its image's, reversed where
    ``flip`` is 1, with the ends and edges it carries, such that an edge's
    sign changes iff one of its two ends is reflected.  Vertices of ``g1``
    are placed in falling degree, ties in vertex order, each onto the unused
    vertices of ``g2`` in order, turn by turn, unreflected first."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.sign) != len(g2.sign):
        return
    deg1 = sorted(len(g1.rotation.get(v, ())) for v in g1.vertices)
    deg2 = sorted(len(g2.rotation.get(v, ())) for v in g2.vertices)
    if deg1 != deg2:
        return
    verts1 = sorted(g1.vertices, key=lambda v: -len(g1.rotation.get(v, ())))

    def extend(idx, vmap, emap, endmap, flip):
        if idx == len(verts1):
            yield Isomorphism(vmap, endmap, emap, flip)
            return
        v1 = verts1[idx]
        rot1 = g1.rotation.get(v1, ())
        n = len(rot1)
        for v2 in g2.vertices:
            rot2 = g2.rotation.get(v2, ())
            if len(rot2) != n or v2 in vmap.values():
                continue
            for off, fl in itertools.product(range(n), (0, 1)) if n else [(0, 0)]:
                ends = [rot2[(off - p if fl else off + p) % n] for p in range(n)]
                # each edge at v1 -> its image; an edge met before keeps its own
                image: dict[str, str] = {}
                if any(image.setdefault(e1, emap.get(e1, e2)) != e2
                       for (e1, _), (e2, _) in zip(rot1, ends)):
                    continue
                edges = {**emap, **image}
                flips = {**flip, v1: fl}
                if len(set(edges.values())) == len(edges) and all(
                        g2.sign[e2] == g1.sign[e1] * (-1) ** (flips[u] ^ flips[w])
                        for e1, e2 in image.items()
                        for u, w in [g1.endpoints(e1)]
                        if u in flips and w in flips):
                    yield from extend(idx + 1, {**vmap, v1: v2}, edges,
                                      {**endmap, **dict(zip(rot1, ends))},
                                      flips)

    yield from extend(0, {}, {}, {}, {})


def isomorphic(g1: RibbonGraph, g2: RibbonGraph) -> bool:
    return next(isomorphisms(g1, g2), None) is not None


# ---------------------------------------------------------------------------
# canonical certificate (used by the corpus generator for deduplication)

def certificate(g: RibbonGraph) -> tuple:
    """A value equal on isomorphic graphs and distinct otherwise.

    Works on the flag structure: a deterministic traversal from a start
    dart relabels the darts; the minimum encoding over the starts is
    invariant under vertex/edge relabelling, reflections and end swaps.
    Only darts with the least (vertex degree, boundary-walk length) start,
    since every isomorphism keeps that pair, and an encoding stops at its
    first row above the best one so far.  Requires a connected graph.
    """
    if not g.sign:
        return ("vertices", len(g.vertices))
    kern = g.kernel
    t0, t1 = kern.t0, kern.t1
    walk_length = [0] * len(t0)
    for walk in kern.walks:
        for d in walk:
            walk_length[d] = len(walk)
    degree = [len(rot) for rot in kern.rotations]
    keys = [(degree[kern.end_vertex[d >> 1]], walk_length[d])
            for d in range(len(t0))]
    low = min(keys)
    best: list = []
    for start in range(len(t0)):
        if keys[start] != low:
            continue
        label = [-1] * len(t0)
        label[start] = 0
        queue = [start]
        enc = []
        below = not best   # already less than ``best`` on an earlier row
        for d in queue:  # grows while it is read: a breadth-first traversal
            row = []
            for nb in (t0[d], t1[d], d ^ 1):
                if label[nb] < 0:
                    label[nb] = len(queue)
                    queue.append(nb)
                row.append(label[nb])
            row = tuple(row)
            if not below:
                if len(enc) == len(best) or row > best[len(enc)]:
                    break
                below = row < best[len(enc)]
            enc.append(row)
        else:
            if below or len(enc) < len(best):
                best = enc
    return ("flags", len(g.vertices), tuple(best))
