"""Packaged ribbon graphs: weighted partitions of vertices and boundaries.

A packaged ribbon graph carries, on top of the rotation system, a weighted
partition of its vertices and a weighted partition of its boundary
components.  Deletion and contraction share one rule: deletion applies it
to the boundary partition at the two sides of the edge, contraction to the
vertex partition at its two ends.  The quotient multigraph of either
partition (the *packaging*) supplies the nullities and per-component genus
corrections used by the invariant polynomials.

Minors come in two encodings: string-keyed packaged graphs
(:func:`packaged_delete`, :func:`packaged_contract`), and :class:`Minor`,
the same rule in integers over the root's kernel on one gamma per block,
applied one edge at a time by :meth:`Minor.step`, which also gathers the
minor's x/y exponents (``Minor.xy``); :meth:`Minor.minor` steps through a
deleted and a contracted set.  :meth:`Minor.is_loop` and
:meth:`Minor.components` give the quasi-tree expansion its split tests
and cross-validation its shape check.  The compiled root also starts the
state sum's build-up of both sides of a term, G|A by vertex blocks and
G*|A^c by boundary blocks, which share their boundary walks.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .ribbon import (Kernel, RibbonGraph, RibbonGraphError, _boundary_targets,
                     contract_edge, delete_edge, induced_subgraph,
                     trace_boundaries, union_find)


class PackagingError(ValueError):
    """``block`` (an index into the blocks given to
    :meth:`WeightedPartition.build`) and ``element`` locate the fault when
    one block holds it."""

    def __init__(self, message: str, block: int | None = None,
                 element: str | None = None):
        super().__init__(message)
        self.block = block
        self.element = element


class WeightedPartition(NamedTuple):
    """Disjoint blocks covering a ground set, each with an integer weight."""
    blocks: tuple[frozenset[str], ...]
    weights: tuple[int, ...]

    @staticmethod
    def build(ground: Iterable[str],
              blocks: Iterable[tuple[Iterable[str], int]]) -> "WeightedPartition":
        ground = set(ground)
        items = [(frozenset(b), int(w)) for b, w in blocks]
        seen: set[str] = set()
        for i, (b, w) in enumerate(items):
            if not b:
                raise PackagingError("empty block", i)
            if w < 0:
                raise PackagingError(f"negative weight {w}", i)
            unknown = b - ground
            if unknown:
                x = sorted(unknown)[0]
                raise PackagingError(f"unknown id {x}", i, x)
            if b & seen:
                x = sorted(b & seen)[0]
                raise PackagingError(f"element {x} in two blocks", i, x)
            seen |= b
        missing = ground - seen
        if missing:
            raise PackagingError(f"element {sorted(missing)[0]} not in any block")
        items.sort(key=lambda bw: min(bw[0]))
        return WeightedPartition(tuple(b for b, _ in items),
                                 tuple(w for _, w in items))

    @staticmethod
    def discrete(ground: Iterable[str]) -> "WeightedPartition":
        ground = list(ground)
        return WeightedPartition.build(ground, [({x}, 0) for x in ground])

    @property
    def ground(self) -> frozenset[str]:
        return frozenset(x for b in self.blocks for x in b)

    def block_index(self, x: str) -> int:
        for i, b in enumerate(self.blocks):
            if x in b:
                return i
        raise KeyError(x)

    def relabel(self, mapping: dict[str, str]) -> "WeightedPartition":
        return WeightedPartition.build(
            {mapping[x] for x in self.ground},
            [({mapping[x] for x in b}, w)
             for b, w in zip(self.blocks, self.weights)])


class PackagedRibbonGraph(NamedTuple):
    graph: RibbonGraph
    vparts: WeightedPartition
    bparts: WeightedPartition

    @staticmethod
    def build(graph: RibbonGraph, vparts: WeightedPartition,
              bparts: WeightedPartition) -> "PackagedRibbonGraph":
        if vparts.ground != frozenset(graph.vertices):
            raise PackagingError("vertex partition does not cover the vertices")
        bids = frozenset(c.id for c in graph.boundaries)
        if bparts.ground != bids:
            raise PackagingError(
                "boundary partition does not cover the boundary components")
        return PackagedRibbonGraph(graph, vparts, bparts)

    @staticmethod
    def discrete(graph: RibbonGraph) -> "PackagedRibbonGraph":
        return PackagedRibbonGraph(
            graph,
            WeightedPartition.discrete(graph.vertices),
            WeightedPartition.discrete(c.id for c in graph.boundaries))


class PackagingGraph(NamedTuple):
    """Quotient multigraph of a ribbon graph by a weighted partition.

    ``blocks`` hold partition elements (vertex or boundary ids); ``edges``
    are (block index, block index, ribbon edge) triples; ``vertex_block``
    maps each ribbon-graph vertex to its block index.
    """
    blocks: tuple[frozenset[str], ...]
    weights: tuple[int, ...]
    edges: tuple[tuple[int, int, str], ...]
    vertex_block: tuple[tuple[str, int], ...]

    def components(self) -> list[frozenset[int]]:
        roots = union_find(len(self.blocks), ((i, j) for i, j, _ in self.edges))
        groups: dict[int, set[int]] = {}
        for i, r in enumerate(roots):
            groups.setdefault(r, set()).add(i)
        return sorted((frozenset(s) for s in groups.values()), key=min)


def quotient(g: RibbonGraph, parts: WeightedPartition,
             elem_of_vertex: dict[str, str]) -> PackagingGraph:
    """Packaging of ``g`` by ``parts``; ``elem_of_vertex`` names the partition
    element each ribbon vertex stands for (identity on the vertex side, the
    boundary id of the dual vertex on the boundary side)."""
    idx = {x: i for i, b in enumerate(parts.blocks) for x in b}
    vb = {v: idx[elem_of_vertex[v]] for v in g.vertices}
    edges = tuple(sorted((min(vb[u], vb[w]), max(vb[u], vb[w]), e)
                         for e in g.sign
                         for u, w in [g.endpoints(e)]))
    return PackagingGraph(parts.blocks, parts.weights, edges,
                          tuple(sorted(vb.items())))


def component_gamma_values(sub: RibbonGraph, pk: PackagingGraph) -> list[int]:
    """Per connected component K of the packaging: 2 + e(K) - v(K) + w(K)
    minus the boundary count of the induced ribbon subgraph on K."""
    out = []
    vb = dict(pk.vertex_block)
    for comp in pk.components():
        e_k = [e for i, j, e in pk.edges if i in comp]
        verts = [v for v, i in vb.items() if i in comp]
        induced = induced_subgraph(sub, verts, e_k)
        b_k = len(trace_boundaries(induced))
        w_k = sum(pk.weights[i] for i in comp)
        out.append(2 + len(e_k) - len(comp) + w_k - b_k)
    return out


def packaged_dual(pg: PackagedRibbonGraph) -> PackagedRibbonGraph:
    """Dual graph with both partitions transported across the duality."""
    gd, b_to_v, v_to_b = pg.graph.duality
    return PackagedRibbonGraph.build(gd, pg.bparts.relabel(b_to_v),
                                     pg.vparts.relabel(v_to_b))


# ---------------------------------------------------------------------------
# packaged deletion and contraction

def _minor_parts(parts: WeightedPartition, x: str, y: str, fresh: list[str],
                 rename: dict[str, str]) -> tuple[WeightedPartition, int]:
    """The one partition rule of both minors at an edge e: ``x`` and ``y``
    are the boundary components at e's two sides when deleting, e's end
    vertices when contracting.  ``fresh`` replaces them and ``rename`` maps
    every other element.  Returns the new partition and the case: 1 when x
    and y lie in distinct blocks, which merge and add their weights;
    otherwise their block gains weight 1, and the case is 2 when x != y, 3
    when x = y with two fresh elements and 4 when x = y with one."""
    ix, iy = parts.block_index(x), parts.block_index(y)
    if x != y and len(fresh) == 1:
        case = 1 if ix != iy else 2
    elif x == y and len(fresh) in (1, 2):
        case = 5 - len(fresh)
    else:
        raise RibbonGraphError(
            f"case mismatch: {len(fresh)} fresh elements for {x}, {y}")
    blocks = [[{rename[z] for z in b if z not in (x, y)}, w]
              for b, w in zip(parts.blocks, parts.weights)]
    blocks[iy][0] |= set(fresh)
    if case == 1:
        blocks[iy] = [blocks[ix][0] | blocks[iy][0],
                      blocks[ix][1] + blocks[iy][1]]
        del blocks[ix]
    else:
        blocks[iy][1] += 1
    return (WeightedPartition.build([*rename.values(), *fresh], blocks),
            case)


def packaged_delete(pg: PackagedRibbonGraph,
                    e: str) -> tuple[PackagedRibbonGraph, int]:
    """Delete ``e``; returns the result and which of the four boundary cases
    of :func:`_minor_parts` (1: merge, 2: same block, 3: split, 4: persist)
    applied."""
    g = pg.graph
    res = delete_edge(g, e)
    of = g.boundary_of_dart
    sides = of[(e, 1, "L")], of[(e, 1, "R")]
    rename: dict[str, str] = {}
    for b, targets in _boundary_targets(g, e, res).items():
        if b in sides:
            continue
        if len(targets) != 1:
            raise RibbonGraphError("deletion boundary correspondence failed")
        rename[b] = targets.pop()
    matched = set(rename.values())
    fresh = [c.id for c in res.boundaries if c.id not in matched]
    bparts, case = _minor_parts(pg.bparts, *sides, fresh, rename)
    return PackagedRibbonGraph.build(res, pg.vparts, bparts), case


def packaged_contract(pg: PackagedRibbonGraph,
                      e: str) -> tuple[PackagedRibbonGraph, int]:
    """Contract ``e``; returns the result and which of the four vertex cases
    of :func:`_minor_parts` (1: merge, 2: same block, 3: orientable loop, 4:
    non-orientable loop) applied."""
    g = pg.graph
    res, bcorr = contract_edge(g, e)
    ends = g.endpoints(e)
    kept = set(g.vertices) & set(res.vertices)
    if set(g.vertices) - kept != set(ends):
        raise RibbonGraphError("contraction case mismatch")
    fresh = [v for v in res.vertices if v not in kept]
    vparts, case = _minor_parts(pg.vparts, *ends, fresh,
                                {v: v for v in kept})
    if case > 2 and (case == 3) != (g.sign[e] == 1):
        raise RibbonGraphError("contraction case mismatch")
    return (PackagedRibbonGraph.build(res, vparts, pg.bparts.relabel(bcorr)),
            case)


class Minor(NamedTuple):
    """A packaged minor of a root graph, in integers, for deletion and
    contraction without building graphs.

    ``kernel`` is the root's and ``live`` the mask of the remaining edges;
    ``t1`` is the minor's, over the root's darts, with -1 on removed darts.
    ``t0`` and ``t2`` stay the root's on the live darts.  ``labels`` and
    ``gammas`` hold one entry per side, vertex side first: the block of the
    vertex (boundary walk) through each dart, and each block's gamma, 1 +
    its weight - its elements without darts, ``None`` for a block merged
    away; at a leaf these are the gamma values of the polynomial's
    variables.  ``isolated`` counts the isolated vertices, each of which
    also has one empty boundary.  ``xy`` holds the x and y exponents the
    steps from the root gathered, (0, 0) at the root: the prefactor of the
    minor's polynomial, and at a leaf the x/y of its monomial.
    :meth:`step` removes one edge, and every other minor is a chain of
    steps (:meth:`minor`).  The root (:meth:`compile`) also starts the
    state sum's build-up pass."""
    kernel: Kernel
    live: int
    t1: tuple[int, ...]
    labels: tuple[tuple[int, ...], tuple[int, ...]]
    gammas: tuple[tuple[int | None, ...], tuple[int | None, ...]]
    isolated: int
    xy: tuple[int, int]

    @staticmethod
    def compile(pg: PackagedRibbonGraph) -> "Minor":
        g, kern = pg.graph, pg.graph.kernel
        vidx, bidx = ({x: i for i, b in enumerate(p.blocks) for x in b}
                      for p in (pg.vparts, pg.bparts))
        vgamma, bgamma = ([1 + w for w in p.weights]
                          for p in (pg.vparts, pg.bparts))
        isolated = [c for c in g.boundaries if c.vertex is not None]
        for c in isolated:   # an isolated vertex and its empty boundary
            vgamma[vidx[c.vertex]] -= 1
            bgamma[bidx[c.id]] -= 1
        vblock = [vidx[v] for v in g.vertices]
        return Minor(kern, kern.full, kern.t1,
                     (tuple([vblock[kern.end_vertex[d >> 1]]
                             for d in range(len(kern.t0))]),
                      tuple([bidx[g.boundary_of_dart[name]]
                             for name in kern.darts])),
                     (tuple(vgamma), tuple(bgamma)), len(isolated), (0, 0))

    def step(self, k: int, contract: bool) -> "Minor":
        """Delete (contract) live edge ``k`` by the one compiled minor
        rule, :func:`_minor_parts`' at e's sides (ends): blocks of gammas a
        and b merge into one of a + b - 1; otherwise their block's gamma
        grows by 1, and so does x (y) in ``xy``.

        Each end of e is spliced out of ``t1`` as dancing links do, unless
        its two darts are joined to each other: then the end is an orbit of
        e's darts alone, an isolated vertex with an empty boundary, which
        takes 1 from its block's gamma on both sides.  A contraction crosses
        e's ends by ``t0``, since the partial dual at e makes ``t0`` its
        ``t2``; an orbit on e's darts alone is then also a boundary walk of
        e's darts alone, so each such walk of the root keeps its block, as
        :func:`contract_edge`'s bijection requires."""
        t0, t1, lone, x = self.kernel.t0, list(self.t1), [], 4 * k
        for a, b in (((x, t0[x]), (x + 1, t0[x + 1])) if contract
                     else ((x, x + 1), (x + 2, x + 3))):
            p, q = t1[a], t1[b]
            if p == b:
                lone.append(a)
            else:
                t1[p], t1[q] = q, p
        t1[x:x + 4] = -1, -1, -1, -1
        s = 0 if contract else 1   # the side of the rule
        y = x + (2 if contract else 1)
        labels = list(self.labels)
        gammas = [list(g) for g in self.gammas]
        lx, ly = labels[s][x], labels[s][y]
        ex, ey = self.xy
        if lx != ly:
            gammas[s][ly] += gammas[s][lx] - 2
            gammas[s][lx] = None
            labels[s] = tuple([ly if b == lx else b for b in labels[s]])
        elif contract:
            ey += 1
        else:
            ex += 1
        gammas[s][ly] += 1 - len(lone)
        for a in lone:
            gammas[1 - s][labels[1 - s][a]] -= 1
        return Minor(self.kernel, self.live & ~(1 << k), tuple(t1),
                     (labels[0], labels[1]),
                     (tuple(gammas[0]), tuple(gammas[1])),
                     self.isolated + len(lone), (ex, ey))

    def minor(self, deleted: int, contracted: int) -> "Minor":
        """Delete the live edges of the mask ``deleted`` and contract those
        of ``contracted``, by :meth:`step` on each, lowest edge first."""
        m, gone = self, deleted | contracted
        for k in range(gone.bit_length()):
            if gone >> k & 1:
                m = m.step(k, contracted >> k & 1)
        return m

    def components(self) -> int:
        """The number of connected components of the minor: one per isolated
        vertex, and the classes of its live edges joined by ``t1``, each of
        its pairs taken once (``t0`` and ``d ^ 1`` stay on an edge)."""
        live = self.live
        roots = union_find(len(self.t1) >> 2, [(d >> 2, p >> 2) for d, p
                                               in enumerate(self.t1) if p > d])
        return self.isolated + len({r for k, r in enumerate(roots)
                                    if live >> k & 1})

    def is_loop(self, k: int) -> bool:
        """Whether live edge ``k`` is a loop: whether the walk round the
        vertex of its end 2k, by ``t1`` then ``d ^ 1``, which meets each
        end there once, meets its end 2k + 1."""
        t1, d = self.t1, 4 * k
        cur = t1[d] ^ 1
        while cur != d:
            if cur >> 1 == 2 * k + 1:
                return True
            cur = t1[cur] ^ 1
        return False
