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
the same rule in integers over the root's kernel, applied one edge at a
time by :meth:`Minor.step`; :meth:`Minor.minor` steps through a deleted
and a contracted set.  A minor's weight growth and :meth:`Minor.splits`
give the quasi-tree expansion's prefactor and shape check.  The compiled
root also starts the state sum's build-up of both sides of a term, G|A by
vertex blocks and G*|A^c by boundary blocks, which share their boundary
walks.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class WeightedPartition:
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

    def shape(self) -> frozenset:
        """Partition structure with weights, for equality up to relabelling
        of block order."""
        return frozenset(zip(self.blocks, self.weights))

    def relabel(self, mapping: dict[str, str]) -> "WeightedPartition":
        return WeightedPartition.build(
            {mapping[x] for x in self.ground},
            [({mapping[x] for x in b}, w)
             for b, w in zip(self.blocks, self.weights)])


@dataclass(frozen=True)
class PackagedRibbonGraph:
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


@dataclass(frozen=True)
class PackagingGraph:
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
                    e: str) -> PackagedRibbonGraph:
    return _packaged_delete_case(pg, e)[0]


def _packaged_delete_case(pg: PackagedRibbonGraph,
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
                      e: str) -> PackagedRibbonGraph:
    return _packaged_contract_case(pg, e)[0]


def _packaged_contract_case(pg: PackagedRibbonGraph,
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
    ``t0`` and ``t2`` stay the root's on the live darts.  The other fields
    hold one entry per side, vertex side first: the block of the vertex
    (boundary walk) through each dart; the block weights, ``None`` for a
    block merged away; and per block its number of isolated elements,
    vertices without edge ends (their empty boundaries).  :meth:`step`
    removes one edge, and every other minor is a chain of steps
    (:meth:`minor`).  The root (:meth:`compile`) also starts the state
    sum's build-up pass."""
    kernel: Kernel
    live: int
    t1: tuple[int, ...]
    labels: tuple[tuple[int, ...], tuple[int, ...]]
    weights: tuple[tuple[int | None, ...], tuple[int | None, ...]]
    isolated: tuple[tuple[int, ...], tuple[int, ...]]

    @staticmethod
    def compile(pg: PackagedRibbonGraph) -> "Minor":
        g, kern = pg.graph, pg.graph.kernel
        vidx, bidx = ({x: i for i, b in enumerate(p.blocks) for x in b}
                      for p in (pg.vparts, pg.bparts))
        viso, biso = ([0] * len(p.blocks) for p in (pg.vparts, pg.bparts))
        for c in g.boundaries:   # an isolated vertex and its empty boundary
            if c.vertex is not None:
                viso[vidx[c.vertex]] += 1
                biso[bidx[c.id]] += 1
        vblock = [vidx[v] for v in g.vertices]
        return Minor(kern, kern.full, kern.t1,
                     (tuple([vblock[kern.end_vertex[d >> 1]]
                             for d in range(len(kern.t0))]),
                      tuple([bidx[g.boundary_of_dart[name]]
                             for name in kern.darts])),
                     (pg.vparts.weights, pg.bparts.weights),
                     (tuple(viso), tuple(biso)))

    def step(self, k: int, contract: bool) -> tuple["Minor", bool]:
        """Delete (contract) live edge ``k`` by the one compiled minor
        rule; also return whether :func:`_minor_parts`' rule merged two
        blocks at e's sides (ends).  A block's weight grows by one for each
        step that merged nothing there.

        A contraction crosses e's ends by ``t0``, since the partial dual at
        e makes ``t0`` its ``t2`` (:meth:`_restitch`).  On contraction an
        orbit on e's darts alone is also a boundary walk of e's darts alone,
        so each such walk of the root keeps its block, as
        :func:`contract_edge`'s bijection requires."""
        t1, lone = self._restitch(k, contract)
        s = 0 if contract else 1   # the side of the rule
        x, y = 4 * k, 4 * k + (2 if contract else 1)
        labels = list(self.labels)
        weights = [list(w) for w in self.weights]
        isolated = [list(n) for n in self.isolated]
        lx, ly = labels[s][x], labels[s][y]
        if lx != ly:
            weights[s][ly] += weights[s][lx]
            isolated[s][ly] += isolated[s][lx]
            weights[s][lx], isolated[s][lx] = None, 0
            labels[s] = tuple([ly if b == lx else b for b in labels[s]])
        else:
            weights[s][ly] += 1
        isolated[s][ly] += len(lone)
        for a in lone:
            isolated[1 - s][labels[1 - s][a]] += 1
        return (Minor(self.kernel, self.live & ~(1 << k), t1,
                      (labels[0], labels[1]),
                      (tuple(weights[0]), tuple(weights[1])),
                      (tuple(isolated[0]), tuple(isolated[1]))),
                lx != ly)

    def minor(self, deleted: int, contracted: int) -> "Minor":
        """Delete the live edges of the mask ``deleted`` and contract those
        of ``contracted``, by :meth:`step` on each, lowest edge first."""
        m, gone = self, deleted | contracted
        for k in range(gone.bit_length()):
            if gone >> k & 1:
                m = m.step(k, contracted >> k & 1)[0]
        return m

    def _pairs(self, s: int, mask: int) -> list[tuple[int, int]]:
        """The block pairs on side ``s`` of the edges of ``mask``: their
        ends on the vertex side and their two sides on the boundary side."""
        lab, y = self.labels[s], 2 - s   # 4k + 2: e's other end; 4k + 1: side
        return [(lab[4 * k], lab[4 * k + y])
                for k in range(len(lab) // 4) if mask >> k & 1]

    def _restitch(self, k: int, contract: bool
                  ) -> tuple[tuple[int, ...], list[int]]:
        """``t1`` without edge ``k``'s four darts, and a dart of each orbit
        of those darts alone (an isolated vertex with an empty boundary).
        Each live corner into one of them is joined to the live dart where
        the walk through them leaves, crossing each end by ``t0`` on
        contraction and by ``d ^ 1`` on deletion."""
        t0, old = self.kernel.t0, self.t1
        t1 = list(old)
        darts = range(4 * k, 4 * k + 4)
        seen = bytearray(4)   # by d & 3

        def walk(cur: int) -> int:
            """Mark the darts from ``cur`` on; the first live dart."""
            while cur >> 2 == k and not seen[cur & 3]:
                cross = t0[cur] if contract else cur ^ 1
                seen[cur & 3] = seen[cross & 3] = 1
                cur = old[cross]
            return cur

        for a in darts:
            if old[a] >> 2 != k and not seen[a & 3]:
                b, c = old[a], walk(a)
                t1[b], t1[c] = c, b
        lone = []
        for a in darts:
            t1[a] = -1
            if not seen[a & 3]:
                lone.append(a)
                walk(a)
        return tuple(t1), lone

    def components(self) -> int:
        """The number of connected components of the minor: the classes of
        its live darts under ``t0``, ``t1`` and ``d ^ 1``, and one per
        isolated vertex."""
        t0, t1 = self.kernel.t0, self.t1
        live = [d for d, c in enumerate(t1) if c >= 0]
        roots = union_find(len(t1), [p for d in live
                                     for p in ((d, t0[d]), (d, t1[d]),
                                               (d, d ^ 1))])
        return len({roots[d] for d in live}) + sum(self.isolated[0])

    def splits(self, k: int, contract: bool, base: int) -> bool:
        """Whether deleting (contracting) live edge ``k`` adds a connected
        component to the ``base`` = :meth:`components` of this minor, that
        is, whether it is a bridge (a plane loop)."""
        return self.step(k, contract)[0].components() > base
