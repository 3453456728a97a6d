"""Seeded `.rg` inputs for the `compute-large` and `specialize` workloads.

The same ``(workload, seed)`` always gives the same files.  Graphs are
connected; edge ends are shuffled across 2-3 vertices.  Packagings are built
with the program's public ``WeightedPartition.build``; the program itself
only ever receives the written files.

    python3 bench/gen.py --workload compute-large --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import random
from dataclasses import dataclass
from pathlib import Path

import rg

# (name, edges, vertices, packaged, quasi-tree band) -- packaged graphs get
# random weighted vertex and boundary partitions, the others the discrete
# weight-0 one.  Each graph is redrawn until its quasi-tree count lies in the
# band (about the middle quarter of the family), so that every seed asks for
# about the same amount of quasi-tree work.
COMPUTE_LARGE = (("crit11", 10, 2, False, (200, 280)),
                 ("wpack2", 11, 2, True, (420, 560)),
                 ("wpack3", 10, 3, True, (200, 280)))
# (name, edges, vertices, plane); every edge untwisted, so all orientable.
SPECIALIZE = (("plane2", 10, 2, True),
              ("plane3", 10, 3, True),
              ("torus2", 10, 2, False),
              ("torus3", 9, 3, False))


@dataclass(frozen=True)
class Input:
    name: str
    path: Path
    edges: int


def _connected(rotation: dict) -> bool:
    sign = {e: 1 for ends in rotation.values() for e, _ in ends}
    ends = rg.Graph(rotation, sign).endpoints().values()
    return rg.components(rotation, ends) == 1


def _random_rotation(rng: random.Random, m: int, nv: int) -> dict:
    """Edge ends shuffled across ``nv`` vertices of near-equal degree."""
    while True:
        slots = [(f"e{i}", j) for i in range(1, m + 1) for j in (1, 2)]
        rng.shuffle(slots)
        cuts = [len(slots) * k // nv for k in range(nv + 1)]
        rotation = {f"v{k + 1}": slots[cuts[k]:cuts[k + 1]]
                    for k in range(nv)}
        if _connected(rotation):
            return rotation


def _noncrossing(rng: random.Random, points: list[int]) -> list[tuple]:
    if not points:
        return []
    partner = rng.randrange(0, len(points) // 2) * 2 + 1
    return ([(points[0], points[partner])]
            + _noncrossing(rng, points[1:partner])
            + _noncrossing(rng, points[partner + 1:]))


def _plane_rotation(rng: random.Random, m: int, nv: int) -> dict:
    """A bouquet of non-interlaced untwisted loops (a plane graph), then
    ``nv - 1`` vertex splits.  Splitting a vertex along an arc of its
    rotation is the inverse of contracting a non-loop edge, so the genus
    stays 0."""
    loops = m - (nv - 1)
    slots = [None] * (2 * loops)
    for i, (a, b) in enumerate(_noncrossing(rng, list(range(2 * loops)))):
        slots[a], slots[b] = (f"e{i + 1}", 1), (f"e{i + 1}", 2)
    rotation = {"v1": slots}
    for k in range(1, nv):
        u = rng.choice(sorted(rotation))
        rot = rotation[u]
        off = rng.randrange(len(rot)) if rot else 0
        rot = rot[off:] + rot[:off]
        cut = rng.randint(0, len(rot))
        edge = f"e{loops + k}"
        rotation[u] = rot[:cut] + [(edge, 1)]
        rotation[f"v{k + 1}"] = [(edge, 2)] + rot[cut:]
    return rotation


def _random_blocks(rng: random.Random, ground: list[str]) -> list:
    nblocks = rng.randint(1, min(len(ground), 3))
    order = ground[:]
    rng.shuffle(order)
    owner = {x: i for i, x in enumerate(order[:nblocks])}
    for x in order[nblocks:]:
        owner[x] = rng.randrange(nblocks)
    return [({x for x in ground if owner[x] == i}, rng.randint(0, 2))
            for i in range(nblocks)]


def rg_text(rotation: dict, sign: dict, vparts=None, bparts=None) -> str:
    """The `.rg` text of a rotation system and optional partitions."""
    edges = sorted(sign, key=lambda e: int(e[1:]))
    lines = ["edges: " + " ".join(f"{e}{'+' if sign[e] == 1 else '-'}"
                                  for e in edges)]
    for v, ends in rotation.items():
        lines.append(f"vertex {v}: " + " ".join(f"{e}.{i}" for e, i in ends))
    for kind, parts in (("vblock", vparts), ("bblock", bparts)):
        if parts is not None:
            for blk, w in zip(parts.blocks, parts.weights):
                lines.append(f"{kind} {w}: " + " ".join(sorted(blk)))
    return "\n".join(lines) + "\n"


def _packagings(rng: random.Random, rotation: dict, sign: dict):
    from ribbonpoly.packaged import WeightedPartition
    from ribbonpoly.ribbon import RibbonGraph, trace_boundaries

    g = RibbonGraph.build(list(rotation), rotation, sign)
    bids = [c.id for c in trace_boundaries(g)]
    vertices = list(rotation)
    return (WeightedPartition.build(vertices, _random_blocks(rng, vertices)),
            WeightedPartition.build(bids, _random_blocks(rng, bids)))


def generate(workload: str, seed: int, out: Path) -> list[Input]:
    """Write the inputs of ``workload`` for ``seed`` into ``out``."""
    out.mkdir(parents=True, exist_ok=True)
    inputs = []
    if workload == "compute-large":
        for k, (name, m, nv, packaged, band) in enumerate(COMPUTE_LARGE):
            rng = random.Random(f"{workload}/{seed}/{k}")
            while True:
                rotation = _random_rotation(rng, m, nv)
                sign = {f"e{i}": rng.choice((1, -1)) for i in range(1, m + 1)}
                qt = rg.Flags(rg.Graph(rotation, sign)).quasi_trees()
                if band[0] <= qt <= band[1]:
                    break
            parts = _packagings(rng, rotation, sign) if packaged else ()
            path = out / f"{name}.rg"
            path.write_text(rg_text(rotation, sign, *parts))
            inputs.append(Input(name, path, m))
    elif workload == "specialize":
        for k, (name, m, nv, plane) in enumerate(SPECIALIZE):
            rng = random.Random(f"{workload}/{seed}/{k}")
            rotation = (_plane_rotation if plane else _random_rotation)(
                rng, m, nv)
            sign = {f"e{i}": 1 for i in range(1, m + 1)}
            path = out / f"{name}.rg"
            path.write_text(rg_text(rotation, sign))
            inputs.append(Input(name, path, m))
    return inputs


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["compute-large", "specialize"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    for inp in generate(args.workload, args.seed, Path(args.out)):
        print(inp.path)


if __name__ == "__main__":
    import sys
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    main()
