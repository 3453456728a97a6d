"""Command line interface.

Exit codes: 0 success, 1 validation inequality or output closed early,
2 usage, parse or write error.
"""

from __future__ import annotations

import argparse
import codecs
import functools
import json
import os
import random
import sys
from pathlib import Path

from .fileformat import ParseError, _lines, parse, render
from .invariants import (classical_tutte, corpus, cross_validate, krushkal,
                         pst_delcon, pst_quasitree, pst_state_sum,
                         surface_tutte, underlying_multigraph)
from .packaged import PackagedRibbonGraph, PackagingError, packaged_dual
from .poly import MultiPoly
from .ribbon import (RibbonGraphError, activities, enumerate_quasi_trees,
                     partial_dual)


def _load(path: str) -> PackagedRibbonGraph:
    try:
        data = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8)
    except OSError as ex:
        raise ParseError(f"cannot read {path}: {ex.strerror}", 1) from ex
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as ex:
        lines = _lines(data[:ex.start].decode("utf-8"))
        raise ParseError(f"syntax error: byte {data[ex.start]:#04x} is not "
                         "UTF-8 text", len(lines), len(lines[-1]) + 1) from ex
    return parse(text)


def _poly_terms(p) -> list[dict]:
    rows = []
    for m, c in p._sorted_terms():
        if isinstance(p, MultiPoly):
            rows.append({"coeff": c, "x": m.ex, "y": m.ey,
                         "x_gamma": {str(g): e for g, e in m.exg},
                         "y_gamma": {str(g): e for g, e in m.eyg}})
        else:
            rows.append({"coeff": c, "alpha": m.ealpha, "beta": m.ebeta,
                         "a_doubled": m.ea2, "b_doubled": m.eb2})
    return rows


def render_poly(p, fmt: str = "text", method: str | None = None,
                counters: dict | None = None) -> str:
    if fmt == "text":
        return p.canonical_text()
    doc = {"method": method, "polynomial": p.canonical_text(),
           "terms": _poly_terms(p), "counters": counters or {}}
    return json.dumps(doc, indent=2, sort_keys=True)


def _edge_list(arg: str) -> list[str]:
    """Comma-separated edge names; a lone ``-``, as the commands print the
    empty set, is the empty list."""
    return [] if arg == "-" else [t for t in arg.split(",") if t]


def _cmd_compute(pg, args) -> int:
    order = _edge_list(args.order) if args.order else pg.graph.edges
    if tuple(sorted(order)) != pg.graph.edges:
        print("error: --order must list every edge exactly once",
              file=sys.stderr)
        return 2
    counters: dict = {}
    if args.method == "statesum":
        p = pst_state_sum(pg)
    elif args.method == "delcon":
        counter = [0]
        p = pst_delcon(pg, _counter=counter)
        counters["delcon_nodes"] = counter[0]
    else:
        p = pst_quasitree(pg, order)
    print(render_poly(p, args.format, method=args.method, counters=counters))
    return 0


def _cmd_validate(pg, args) -> int:
    rng = random.Random(args.seed)
    orders = [list(pg.graph.edges) for _ in range(args.orders)]
    for o in orders:
        rng.shuffle(o)
    rep = cross_validate(pg, orders)
    ok = rep.equal and rep.shape_checks_passed
    print(f"state-sum:      {rep.state_sum.canonical_text()}")
    print(f"del-con:        {rep.delcon.canonical_text()}")
    for order, p in rep.quasitree.items():
        print(f"quasi-tree {','.join(order) or '-'}: {p.canonical_text()}")
    if not rep.quasitree:   # --orders is at least 1: a disconnected graph
        print("quasi-tree:     skipped (graph is not connected)")
    print(f"equal: {rep.equal}  shape-checks: {rep.shape_checks_passed}")
    return 0 if ok else 1


def _cmd_quasitrees(pg, args) -> int:
    for q in enumerate_quasi_trees(pg.graph):
        print(",".join(sorted(q)) if q else "-")
    return 0


def _cmd_activities(pg, args) -> int:
    q = frozenset(_edge_list(args.quasitree))
    order = _edge_list(args.order) if args.order else pg.graph.edges
    rep = activities(pg.graph, q, order)
    dead = rep.internal_dead | rep.external_dead
    for e in pg.graph.edges:
        print(f"{e}: {'internal' if e in q else 'external'} "
              f"{'dead' if e in dead else 'live'} "
              f"{'non-orientable' if e in rep.twisted else 'orientable'}")
    return 0


def _cmd_specialize(pg, args) -> int:
    fn = {"krushkal": krushkal, "surface-tutte": surface_tutte,
          "classical-tutte": lambda g: classical_tutte(
              underlying_multigraph(g))}[args.target]
    print(render_poly(fn(pg.graph), args.format, method=args.target))
    return 0


def _cmd_dual(pg, args) -> int:
    sys.stdout.write(render(packaged_dual(pg)))
    return 0


def _cmd_pdual(pg, args) -> int:
    edges = set(_edge_list(args.edges))
    g = partial_dual(pg.graph, edges)
    sys.stdout.write(render(PackagedRibbonGraph.discrete(g)))
    return 0


def _cmd_corpus(args) -> int:
    instances = corpus(args.max_edges, args.seed, args.random)
    if not args.out:
        for i, (_, pg) in enumerate(instances):
            print(f"# instance {i}\n{render(pg)}")
        return 0
    path = out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        for i, (_, pg) in enumerate(instances):
            path = out / f"instance-{i:05d}.rg"
            path.write_text(render(pg))
    except OSError as ex:
        print(f"error: cannot write {path}: {ex.strerror}", file=sys.stderr)
        return 2
    return 0


def _at_least(low: int):
    """An argparse type: an integer no smaller than ``low``."""
    def count(text: str) -> int:
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid int value: {text!r}") from None
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, "
                                             f"got {n}")
        return n
    return count


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared by every
    :func:`main` call (each parse makes a fresh namespace)."""
    ap = argparse.ArgumentParser(
        prog="ribbonpoly",
        description="Polynomial invariants of (packaged) ribbon graphs.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=["text", "structured"],
                       default="text")

    p = sub.add_parser("compute", help="evaluate the invariant polynomial")
    p.add_argument("file")
    p.add_argument("--method", choices=["statesum", "delcon", "quasitree"],
                   default="statesum")
    p.add_argument("--order", help="comma-separated total edge order")
    add_format(p)
    p.set_defaults(fn=_cmd_compute)

    p = sub.add_parser("validate",
                       help="cross-check the three evaluation methods")
    p.add_argument("file")
    p.add_argument("--orders", type=_at_least(1), default=1)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("quasitrees", help="list quasi-tree edge sets")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_quasitrees)

    p = sub.add_parser("activities",
                       help="edge activities for one quasi-tree")
    p.add_argument("file")
    p.add_argument("--quasitree", required=True,
                   help="comma-separated edges (- or an empty string for the "
                        "empty quasi-tree)")
    p.add_argument("--order")
    p.set_defaults(fn=_cmd_activities)

    p = sub.add_parser("specialize", help="evaluate a specialization")
    p.add_argument("file")
    p.add_argument("--target", required=True,
                   choices=["krushkal", "surface-tutte", "classical-tutte"])
    add_format(p)
    p.set_defaults(fn=_cmd_specialize)

    p = sub.add_parser("dual", help="geometric dual with transported blocks")
    p.add_argument("file")
    p.set_defaults(fn=_cmd_dual)

    p = sub.add_parser("pdual", help="partial dual on an edge subset")
    p.add_argument("file")
    p.add_argument("--edges", required=True,
                   help="comma-separated edge subset")
    p.set_defaults(fn=_cmd_pdual)

    p = sub.add_parser("corpus", help="emit small-instance files")
    p.add_argument("--max-edges", type=_at_least(0), required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--random", type=_at_least(0), default=1,
                   help="random packagings per graph")
    p.add_argument("--out", help="directory for instance files "
                                 "(default: stream to stdout)")
    p.set_defaults(fn=_cmd_corpus)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as ex:
        return 2 if ex.code not in (0, None) else 0
    try:
        code = (args.fn(_load(args.file), args) if "file" in args
                else args.fn(args))
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe; Python flushes stdout again on exit
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ParseError, PackagingError, RibbonGraphError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
