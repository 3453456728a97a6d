r"""The `.rg` text format for packaged ribbon graphs.

Line-oriented: a line ends at ``\n``, ``\r\n`` or ``\r``, and `#` starts a
comment::

    edges: e+ f+ g-          # sign per edge
    vertex v1: e.1 f.1 e.2 g.1   # cyclic order as written
    vertex v2: f.2 g.2
    vblock 0: v1 v2          # weight, then the block's vertices
    bblock 2: b1 b3          # boundary ids are the canonical b1, b2, ...

Omitted vblock/bblock sections default to the discrete weight-0 partition.
Other separators, such as form feed or U+2028, are whitespace inside a line.
"""

from __future__ import annotations

import re

from .packaged import (PackagedRibbonGraph, PackagingError, WeightedPartition)
from .ribbon import RibbonGraph


class ParseError(ValueError):
    def __init__(self, message: str, line: int, column: int = 1):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


_EDGE_DECL = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)([+-])$")
_END_REF = re.compile(r"([A-Za-z_][A-Za-z0-9_]*)\.([12])$")
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*$")
_FIELD = re.compile(r"\S+")


def _lines(text: str) -> list[str]:
    r"""``text`` split at each ``\n``, ``\r\n`` or ``\r``, and nowhere else."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _weight(word: str) -> int | None:
    """A block weight: ASCII digits that :func:`int` takes (not past the
    int-string digit limit), else None."""
    if not (word.isascii() and word.isdigit()):
        return None
    try:
        return int(word)
    except ValueError:
        return None


def _quote(text: str) -> str:
    """``text`` quoted for an error message, cut after 40 characters with
    an ellipsis, so an error never echoes a whole long line."""
    return repr(text) if len(text) <= 40 else repr(text[:40]) + "..."


def _header_column(code: str, valid) -> int:
    """The column of the header word of ``code`` at fault: the second, the
    third if ``valid`` takes the second, the keyword if there is no second."""
    words = list(_FIELD.finditer(code, 0, code.index(":")))
    bad = 2 if len(words) > 2 and valid(words[1].group()) is not None else 1
    return words[min(bad, len(words) - 1)].start() + 1


# a vblock/bblock directive: its line and keyword's column, the column of
# each id, its weight
Block = tuple[int, int, dict[str, int], int]


def _partition(kind: str, ground: list[str],
               directives: list[Block]) -> WeightedPartition:
    """The weighted partition of one side; a fault inside one block points
    at that block's directive and id, an element left out of every block at
    the keyword of the side's first directive."""
    try:
        return (WeightedPartition.build(
                    ground, [(set(ids), w) for _, _, ids, w in directives])
                if directives else WeightedPartition.discrete(ground))
    except PackagingError as ex:
        msg = str(ex)
        prefix = f"unknown {kind} id" if "unknown id" in msg else "partition error"
        if ex.block is None:
            line, column = directives[0][:2]
        else:
            line, _, columns, _ = directives[ex.block]
            column = columns.get(ex.element, 1)
        raise ParseError(f"{prefix}: {msg}", line, column) from ex


def parse(text: str) -> PackagedRibbonGraph:
    sign: dict[str, int] = {}
    declared: dict[str, tuple[int, int]] = {}   # edge -> (line, column)
    placed: dict[tuple[str, int], tuple[int, int]] = {}  # end -> (line, column)
    vertices: list[str] = []
    rotation: dict[str, tuple] = {}
    vblocks: list[Block] = []
    bblocks: list[Block] = []

    lines = _lines(text)
    for lineno, raw in enumerate(lines, start=1):
        code = raw.split("#", 1)[0]
        line = code.strip()
        if not line:
            continue
        start = len(code) - len(code.lstrip()) + 1   # the keyword's column
        head, sep, _ = line.partition(":")
        if not sep:
            raise ParseError(f"syntax error: expected ':' in {_quote(line)}",
                             lineno, start)
        head = head.strip()
        parts = head.split() or [""]   # a directive's keyword, then its words
        fields = [(m.group(), m.start() + 1)
                  for m in _FIELD.finditer(code, code.index(":") + 1)]
        if head == "edges":
            for tok, col in fields:
                m = _EDGE_DECL.match(tok)
                if not m:
                    raise ParseError(
                        f"syntax error: bad edge declaration {_quote(tok)}",
                        lineno, col)
                name = m.group(1)
                if name in sign:
                    raise ParseError(f"edge {name} declared twice", lineno,
                                     col)
                sign[name] = 1 if m.group(2) == "+" else -1
                declared[name] = (lineno, col)
        elif parts[0] == "vertex":
            if len(parts) != 2 or not _NAME.match(parts[1]):
                raise ParseError(
                    f"syntax error: bad vertex header {_quote(head)}", lineno,
                    _header_column(code, _NAME.match))
            vname = parts[1]
            if vname in rotation:
                raise ParseError(f"vertex {vname} declared twice", lineno,
                                 _header_column(code, _NAME.match))
            ends = []
            for tok, col in fields:
                m = _END_REF.match(tok)
                if not m:
                    raise ParseError(
                        f"syntax error: bad edge end {_quote(tok)}", lineno,
                        col)
                end = (m.group(1), int(m.group(2)))
                if end in placed:
                    raise ParseError(f"invalid ribbon graph: end {tok} placed "
                                     "twice", lineno, col)
                placed[end] = (lineno, col)
                ends.append(end)
            vertices.append(vname)
            rotation[vname] = tuple(ends)
        elif parts[0] in ("vblock", "bblock"):
            weight = _weight(parts[1]) if len(parts) == 2 else None
            if weight is None:
                raise ParseError(
                    f"syntax error: bad block header {_quote(head)} "
                    "(expected weight)", lineno, _header_column(code, _weight))
            columns: dict[str, int] = {}
            for tok, col in fields:
                if not _NAME.match(tok):
                    raise ParseError(f"syntax error: bad id {_quote(tok)}",
                                     lineno, col)
                if tok in columns:
                    raise ParseError(
                        f"partition error: element {tok} listed twice in "
                        "one block", lineno, col)
                columns[tok] = col
            if not columns:
                raise ParseError("partition error: empty block", lineno,
                                 start)
            (vblocks if parts[0] == "vblock" else bblocks).append(
                (lineno, start, columns, weight))
        else:
            raise ParseError(f"syntax error: unknown directive {_quote(head)}",
                             lineno, start)

    if not vertices:
        raise ParseError("no vertices", len(lines))
    for (e, i), where in placed.items():
        if e not in sign:
            raise ParseError(f"invalid ribbon graph: end {e}.{i} references "
                             f"undeclared edge {e}", *where)
    for e, where in declared.items():
        for i in (1, 2):
            if (e, i) not in placed:
                raise ParseError(f"invalid ribbon graph: edge {e} is missing "
                                 f"end {e}.{i}", *where)

    # no fault is left for validate or PackagedRibbonGraph.build to find
    graph = RibbonGraph(tuple(vertices), rotation, sign)
    bids = [c.id for c in graph.boundaries]
    vparts = _partition("vertex", vertices, vblocks)
    bparts = _partition("boundary", bids, bblocks)
    return PackagedRibbonGraph(graph, vparts, bparts)


def render(pg: PackagedRibbonGraph) -> str:
    g = pg.graph
    lines = []
    decls = " ".join(f"{e}{'+' if g.sign[e] == 1 else '-'}" for e in g.edges)
    if g.edges:
        lines.append(f"edges: {decls}")
    for v in g.vertices:
        ends = " ".join(f"{e}.{i}" for e, i in g.rotation.get(v, ()))
        lines.append(f"vertex {v}: {ends}".rstrip())
    for blk, w in zip(pg.vparts.blocks, pg.vparts.weights):
        lines.append(f"vblock {w}: " + " ".join(sorted(blk)))
    for blk, w in zip(pg.bparts.blocks, pg.bparts.weights):
        lines.append(f"bblock {w}: " + " ".join(sorted(blk)))
    return "\n".join(lines) + "\n"
