"""A small ribbon-graph toolkit of the benchmark's own, kept apart from the
program so that the checks and the input generator do not trust it.

Darts are ints: edge ``k`` end ``i`` (0 or 1) side ``s`` (0 = L, 1 = R) is
``4k + 2i + s``.  Boundary components are the orbits of the band-side and
corner pairings, as in the `.rg` format's documented flag model.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Graph:
    rotation: dict[str, tuple[tuple[str, int], ...]]   # vertex -> edge ends
    sign: dict[str, int]
    vblocks: tuple[tuple[frozenset, int], ...] = ()     # (members, weight)

    @property
    def edges(self) -> list[str]:
        return sorted(self.sign)

    def endpoints(self) -> dict[str, tuple[str, str]]:
        at = {}
        for v, ends in self.rotation.items():
            for e, i in ends:
                at[(e, i)] = v
        return {e: (at[(e, 1)], at[(e, 2)]) for e in self.sign}


def parse(text: str) -> Graph:
    rotation, sign, vblocks = {}, {}, []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        head, fields = head.split(), rest.split()
        if head[0] == "edges":
            sign.update((t[:-1], 1 if t[-1] == "+" else -1) for t in fields)
        elif head[0] == "vertex":
            rotation[head[1]] = tuple((t.split(".")[0], int(t.split(".")[1]))
                                      for t in fields)
        elif head[0] == "vblock":
            vblocks.append((frozenset(fields), int(head[1])))
    return Graph(rotation, sign, tuple(vblocks))


def components(vertices, edges) -> int:
    """Connected components of a multigraph given as (u, w) pairs."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, w in edges:
        parent[find(u)] = find(w)
    return len({find(v) for v in vertices})


class Flags:
    """Boundary counting of spanning subgraphs, by edge bitmask."""

    def __init__(self, g: Graph):
        self.edges = g.edges
        idx = {e: k for k, e in enumerate(self.edges)}
        self.twisted = [g.sign[e] == -1 for e in self.edges]
        self.rot = [[2 * (2 * idx[e] + i - 1) for e, i in ends]
                    for ends in g.rotation.values()]     # dart of side L

    def boundaries(self, mask: int) -> int:
        """Boundary components of the spanning subgraph on ``mask``."""
        t1 = {}
        isolated = 0
        for ends in self.rot:
            kept = [d for d in ends if mask >> (d // 4) & 1]
            if not kept:
                isolated += 1
            for p, d in enumerate(kept):
                nxt = kept[(p + 1) % len(kept)]
                t1[d + 1] = nxt
                t1[nxt] = d + 1
        unused = set(t1)
        walks = 0
        while unused:
            d0 = cur = min(unused)
            walks += 1
            while True:
                unused.discard(cur)
                end = cur & ~1                      # dart with side L
                other = end ^ 2                     # the edge's other end
                side = cur & 1
                arr = other + (side if self.twisted[cur // 4] else 1 - side)
                unused.discard(arr)
                cur = t1[arr]
                if cur == d0:
                    break
        return walks + isolated

    def quasi_trees(self) -> int:
        """Spanning subsets with exactly one boundary component."""
        return sum(self.boundaries(mask) == 1
                   for mask in range(1 << len(self.edges)))


def euler_genus(g: Graph) -> int:
    v, e = len(g.rotation), len(g.sign)
    k = components(g.rotation, g.endpoints().values())
    b = Flags(g).boundaries((1 << e) - 1)
    return 2 * k - v + e - b
