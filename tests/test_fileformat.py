from __future__ import annotations

import itertools

import pytest

from conftest import THETA_EXAMPLE_RG
from ribbonpoly import cli
from ribbonpoly.fileformat import ParseError, parse, render
from ribbonpoly.invariants import corpus
from ribbonpoly.ribbon import counts
from packaged_oracle import packaged_isomorphic


def test_parse_example():
    pg = parse(THETA_EXAMPLE_RG)
    v, e, k, b = counts(pg.graph)
    assert (v, e, k, b) == (2, 3, 1, 1)
    assert pg.graph.sign == {"e": 1, "f": 1, "g": 1}
    assert pg.graph.rotation["v1"] == (("e", 1), ("f", 1), ("e", 2), ("g", 1))


def test_parse_default_packaging_is_discrete():
    pg = parse(THETA_EXAMPLE_RG)
    assert all(len(b) == 1 for b in pg.vparts.blocks)
    assert all(w == 0 for w in pg.vparts.weights + pg.bparts.weights)


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\nedges: e-\nvertex v1: e.1 e.2  # twisted loop\n"
    pg = parse(text)
    assert pg.graph.sign == {"e": -1}


def test_parse_explicit_blocks():
    text = (THETA_EXAMPLE_RG
            + "vblock 2: v1 v2\n"
            + "bblock 1: b1\n")
    pg = parse(text)
    assert pg.vparts.shape() == frozenset({(frozenset({"v1", "v2"}), 2)})
    assert pg.bparts.weights == (1,)


def test_unknown_boundary_id():
    with pytest.raises(ParseError) as exc:
        parse(THETA_EXAMPLE_RG + "bblock 0: b2\n")
    assert "unknown boundary id" in str(exc.value)


def test_unknown_vertex_id():
    with pytest.raises(ParseError) as exc:
        parse(THETA_EXAMPLE_RG + "vblock 0: v3\n")
    assert "unknown vertex id" in str(exc.value)


def test_empty_file_rejected():
    with pytest.raises(ParseError) as exc:
        parse("# nothing here\n")
    assert "no vertices" in str(exc.value)


def test_syntax_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse("edges: e+\nvertex v1: e.3 e.2\n")
    assert exc.value.line == 2
    assert "syntax error" in str(exc.value)


@pytest.mark.parametrize("directive", ["vertexes v1: e.1 e.2",
                                       "vblockz 0: v1", "bblocks 0: b1"])
def test_directive_keywords_match_exactly(directive):
    text = THETA_EXAMPLE_RG + directive + "\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert "syntax error: unknown directive" in str(exc.value)
    assert exc.value.line == text.count("\n")


def test_each_end_used_exactly_once():
    with pytest.raises(ParseError):
        parse("edges: e+\nvertex v1: e.1 e.1\n")
    with pytest.raises(ParseError):
        parse("edges: e+ f+\nvertex v1: e.1 e.2\n")


def test_partition_error_on_repeated_element():
    with pytest.raises(ParseError) as exc:
        parse(THETA_EXAMPLE_RG + "vblock 0: v1\nvblock 0: v1 v2\n")
    assert "partition error" in str(exc.value)


def test_render_is_deterministic_and_round_trips():
    pg = parse(THETA_EXAMPLE_RG + "vblock 2: v1 v2\nbblock 1: b1\n")
    text = render(pg)
    assert render(parse(text)) == text
    assert packaged_isomorphic(parse(text), pg)


def test_round_trip_over_corpus_sample():
    for _, pg in itertools.islice(corpus(2, seed=11), 30):
        again = parse(render(pg))
        assert packaged_isomorphic(again, pg)
        assert render(again) == render(pg)


ANNULUS_RG = "edges: e+\nvertex v1: e.1 e.2\n"  # boundaries b1, b2


@pytest.mark.parametrize("text, where, words", [
    # an id repeated inside one directive, on line 5
    (ANNULUS_RG + "# blocks\nvblock 0: v1\nbblock 0: b1 b1\n", (5, 14),
     "b1 listed twice"),
    (THETA_EXAMPLE_RG + "vblock 0: v1 v3\n", (4, 14), "unknown vertex id"),
    (THETA_EXAMPLE_RG + "bblock 0: b1\nbblock 1: b2  # typo\n", (5, 11),
     "unknown boundary id"),
    (THETA_EXAMPLE_RG + "vblock 0: v1\nvblock 0: v2 v1\n", (5, 14),
     "v1 in two blocks"),
    # an element of no block: the side's first directive
    (ANNULUS_RG + "vblock 1: v1\nbblock 0: b2\n", (4, 1),
     "b1 not in any block"),
], ids=["repeated", "unknown-vertex", "unknown-boundary", "two-blocks",
        "in-no-block"])
def test_partition_errors_point_at_the_directive(text, where, words):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == where
    assert words in str(exc.value)


@pytest.mark.parametrize("text, where, words", [
    # e.1 is placed on line 2 and again on line 4
    ("edges: e+ f+\nvertex v1: e.1 f.1\nvertex v2: e.2\n"
     "vertex v3: e.1 f.2\n", (4, 12), "end e.1 placed twice"),
    ("edges: e+\nvertex v1: e.1 e.2\n# next\nvertex v2: g.1\n", (4, 12),
     "end g.1 references undeclared edge g"),
    # the end is missing from every vertex line: the edge's declaration
    ("edges: e+ f-\nvertex v1: e.1 e.2 f.1\n", (1, 11),
     "edge f is missing end f.2"),
], ids=["placed-twice", "undeclared-edge", "missing-end"])
def test_graph_errors_point_at_their_token(text, where, words):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.column) == where
    assert words in str(exc.value)


@pytest.mark.parametrize("weight", ["\u00b2", "\u0663", "7" * 5000],
                         ids=["superscript-two", "arabic-indic-three",
                              "past-int-digit-limit"])
def test_block_weight_must_be_ascii_digits(weight, tmp_path, capsys):
    """A weight that is not ASCII digits ``int`` takes is a syntax error
    at its header's line, and the CLI exits 2 without a traceback."""
    text = ANNULUS_RG + "# blocks\nvblock " + weight + ": v1\n"
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == 4
    assert "bad block header" in str(exc.value)
    path = tmp_path / "bad.rg"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["compute", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err
