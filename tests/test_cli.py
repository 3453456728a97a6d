from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ribbonpoly
from conftest import THETA_EXAMPLE_RG
from ribbonpoly.cli import main
from ribbonpoly.fileformat import parse
from ribbonpoly.packaged import packaged_dual
from packaged_oracle import packaged_isomorphic

THETA_TEXT = ("x^3*x_2*y_0^2 + x^2*y*x_0*y_0^2 + 2*x^2*x_2*y_0"
              " + 3*x*y*x_0*y_0 + y^2*x_0*y_2")


@pytest.fixture
def theta_file(tmp_path):
    f = tmp_path / "theta.rg"
    f.write_text(THETA_EXAMPLE_RG)
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_compute_statesum(theta_file, capsys):
    code, out, _ = run(capsys, "compute", theta_file)
    assert code == 0
    assert out.strip() == THETA_TEXT


def test_compute_all_methods_agree(theta_file, capsys):
    outputs = set()
    for extra in (["--method", "statesum"], ["--method", "delcon"],
                  ["--method", "quasitree", "--order", "g,f,e"]):
        code, out, _ = run(capsys, "compute", theta_file, *extra)
        assert code == 0
        outputs.add(out.strip())
    assert outputs == {THETA_TEXT}


def test_compute_structured(theta_file, capsys):
    code, out, _ = run(capsys, "compute", theta_file, "--method", "delcon",
                       "--format", "structured")
    assert code == 0
    doc = json.loads(out)
    assert doc["method"] == "delcon"
    assert doc["polynomial"] == THETA_TEXT
    assert doc["counters"]["delcon_nodes"] == 15
    assert sum(t["coeff"] for t in doc["terms"]) == 8


@pytest.mark.parametrize("method", ["statesum", "delcon", "quasitree"])
def test_compute_rejects_malformed_order(theta_file, capsys, method):
    """An edge left out, an edge named twice and an unknown edge, whatever
    the method."""
    for order in ("e,f", "e,f,g,e", "zz"):
        code, out, err = run(capsys, "compute", theta_file, "--method",
                             method, "--order", order)
        assert (code, out) == (2, "")
        assert "every edge" in err


def test_validate_ok(theta_file, capsys):
    """The whole text: state sum, deletion-contraction, one expansion per
    seeded order, and the verdicts."""
    code, out, err = run(capsys, "validate", theta_file, "--orders", "3",
                         "--seed", "1")
    assert (code, err) == (0, "")
    assert out.splitlines() == [
        f"state-sum:      {THETA_TEXT}",
        f"del-con:        {THETA_TEXT}",
        f"quasi-tree f,g,e: {THETA_TEXT}",
        f"quasi-tree g,e,f: {THETA_TEXT}",
        f"quasi-tree e,g,f: {THETA_TEXT}",
        "equal: True  shape-checks: True"]


def test_validate_says_it_skips_the_expansion(tmp_path, capsys):
    """A disconnected graph has no quasi-tree expansion: ``validate`` says
    so in place of the expansion's lines, and still exits 0."""
    f = tmp_path / "two.rg"
    f.write_text("edges: e+\nvertex v1: e.1 e.2\nvertex v2:\n")
    code, out, err = run(capsys, "validate", str(f), "--orders", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[2:] == [
        "quasi-tree:     skipped (graph is not connected)",
        "equal: True  shape-checks: True"]


def test_validate_names_the_empty_order(tmp_path, capsys):
    """An edgeless graph's one order is empty: ``validate`` prints ``-``
    for it, as ``quasitrees`` does for the empty quasi-tree."""
    f = tmp_path / "point.rg"
    f.write_text("edges:\nvertex v1:\n")
    code, out, err = run(capsys, "validate", str(f), "--orders", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[2:] == ["quasi-tree -: x_0*y_0",
                                    "equal: True  shape-checks: True"]
    # and ``-`` reads back as that empty order
    assert run(capsys, "compute", str(f), "--method", "quasitree",
               "--order", "-") == (0, "x_0*y_0\n", "")


def test_quasitrees_listing(theta_file, capsys):
    code, out, _ = run(capsys, "quasitrees", theta_file)
    assert code == 0
    assert sorted(out.split()) == ["e,f,g", "f", "g"]


def test_quasitrees_empty_set_marker(tmp_path, capsys):
    f = tmp_path / "loop.rg"
    f.write_text("edges: e+\nvertex v1: e.1 e.2\n")
    code, out, _ = run(capsys, "quasitrees", str(f))
    assert code == 0
    assert "-" in out.split()


def test_quasitrees_read_back_by_activities(theta_file, tmp_path, capsys):
    """Each quasi-tree ``quasitrees`` prints, the empty one as ``-`` too, is
    a valid ``activities --quasitree``."""
    loop = tmp_path / "loop.rg"
    loop.write_text("edges: e+\nvertex v1: e.1 e.2\n")
    printed = []
    for f in (theta_file, str(loop)):
        code, out, _ = run(capsys, "quasitrees", f)
        assert code == 0
        printed += out.split()
        for q in out.split():
            code, out, err = run(capsys, "activities", f, "--quasitree", q)
            assert (code, err) == (0, "")
            internal = {line.split(":")[0] for line in out.splitlines()
                        if " internal " in line}
            assert internal == (set() if q == "-" else set(q.split(",")))
    assert "-" in printed


def test_activities_fixture(theta_file, capsys):
    code, out, _ = run(capsys, "activities", theta_file,
                       "--quasitree", "f", "--order", "e,f,g")
    assert code == 0
    assert out.splitlines() == [
        "e: external live orientable",
        "f: internal live orientable",
        "g: external dead orientable",
    ]


def test_activities_builds_no_partial_dual(theta_file, capsys,
                                           monkeypatch):
    """``activities`` walks G^Q on the kernel instead of building it."""
    from ribbonpoly import ribbon
    calls = []
    real = ribbon.partial_dual_with_map

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ribbon, "partial_dual_with_map", counted)
    code, _, _ = run(capsys, "activities", theta_file,
                     "--quasitree", "e,f,g", "--order", "g,f,e")
    assert code == 0
    assert len(calls) == 0


def test_specialize_targets(theta_file, capsys):
    code, out, _ = run(capsys, "specialize", theta_file,
                       "--target", "krushkal")
    assert code == 0
    assert out.strip() == "alpha*b + alpha + a + 2*b + 3"
    code, out, _ = run(capsys, "specialize", theta_file,
                       "--target", "classical-tutte")
    assert code == 0
    assert out.strip() == "x*y + y^2"  # loop factor times two parallel edges
    code, out, _ = run(capsys, "specialize", theta_file,
                       "--target", "surface-tutte")
    assert code == 0
    assert "x_1" in out


def test_specialize_surface_rejects_nonorientable(tmp_path, capsys):
    f = tmp_path / "mob.rg"
    f.write_text("edges: e-\nvertex v1: e.1 e.2\n")
    code, _, err = run(capsys, "specialize", str(f),
                       "--target", "surface-tutte")
    assert code == 2
    assert "orientable" in err


def test_dual_round_trip(theta_file, capsys):
    code, out, _ = run(capsys, "dual", theta_file)
    assert code == 0
    assert packaged_isomorphic(parse(out),
                               packaged_dual(parse(THETA_EXAMPLE_RG)))


def test_pdual_full_subset_is_dual(theta_file, capsys):
    code, out, _ = run(capsys, "pdual", theta_file, "--edges", "e,f,g")
    assert code == 0
    dual_graph = packaged_dual(parse(THETA_EXAMPLE_RG)).graph
    from ribbonpoly.ribbon import isomorphic
    assert isomorphic(parse(out).graph, dual_graph)


def test_corpus_to_directory(tmp_path, capsys):
    out_dir = tmp_path / "corpus"
    code, _, _ = run(capsys, "corpus", "--max-edges", "1", "--seed", "4",
                     "--random", "1", "--out", str(out_dir))
    assert code == 0
    files = sorted(out_dir.glob("*.rg"))
    assert len(files) == 8  # 4 iso classes x 2 packagings
    for f in files:
        parse(f.read_text())


def test_corpus_to_unwritable_path(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, _, err = run(capsys, "corpus", "--max-edges", "1",
                       "--out", str(taken))
    assert code == 2
    assert f"error: cannot write {taken}" in err


def test_corpus_stream_deterministic(capsys):
    _, out1, _ = run(capsys, "corpus", "--max-edges", "1", "--seed", "9")
    _, out2, _ = run(capsys, "corpus", "--max-edges", "1", "--seed", "9")
    assert out1 == out2


def test_output_closed_early_exits_1_without_a_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ,
               PYTHONPATH=str(Path(ribbonpoly.__file__).parents[1]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ribbonpoly.cli", "corpus",
             "--max-edges", "2"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_parse_error_exit_code(tmp_path, capsys):
    f = tmp_path / "bad.rg"
    f.write_text("edges: e+\nvertex v1: e.1\n")
    code, _, err = run(capsys, "compute", str(f))
    assert code == 2
    assert err.startswith("error:")


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, "compute", "/nonexistent/x.rg")
    assert code == 2
    assert "cannot read" in err


def test_usage_error_exit_code(capsys):
    assert run(capsys, "compute")[0] == 2
    assert run(capsys, "specialize", "x.rg", "--target", "nope")[0] == 2


def test_parser_is_shared_and_options_do_not_leak(theta_file, capsys):
    from ribbonpoly.cli import build_parser
    assert build_parser() is build_parser()
    code, out, _ = run(capsys, "compute", theta_file, "--method", "delcon",
                       "--format", "structured")
    assert code == 0 and json.loads(out)["method"] == "delcon"
    code, out, _ = run(capsys, "compute", theta_file)
    assert code == 0
    assert out.strip() == THETA_TEXT


@pytest.mark.parametrize("argv, message", [
    (["validate", "{theta}", "--orders", "0"], "must be at least"),
    (["validate", "{theta}", "--orders", "-1"], "must be at least"),
    (["corpus", "--max-edges", "-1"], "must be at least"),
    (["corpus", "--max-edges", "1", "--random", "-1"], "must be at least"),
    (["validate", "{theta}", "--orders", "abc"], "invalid int value"),
], ids=[f"argv{i}" for i in range(5)])
def test_counts_below_their_minimum_are_usage_errors(theta_file, capsys,
                                                     argv, message):
    """``validate --orders 0`` would validate no quasi-tree expansion and
    still report equality; a negative corpus bound would be read as 0; a
    count that is not an integer is refused as well."""
    code, out, err = run(capsys, *[a.format(theta=theta_file) for a in argv])
    assert code == 2
    assert out == ""
    assert message in err


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys):
    f = tmp_path / "bytes.rg"
    f.write_bytes(b"edges: e+\nvertex v1: e.1 \xff e.2\n")
    code, _, err = run(capsys, "compute", str(f))
    assert code == 2
    assert err.startswith("error:")
    assert "(line 2, column 16)" in err


@pytest.mark.parametrize("end", ["\n", "\r\n", "\r"],
                         ids=["lf", "crlf", "cr"])
def test_bad_byte_is_placed_by_line_ends(tmp_path, capsys, end):
    """A line ends only at \\n, \\r\\n or \\r, as in the parser: not at the
    U+2028 inside the comment."""
    f = tmp_path / "bytes.rg"
    f.write_bytes(f"# note\u2028 more{end}edges: e+{end}vertex v1: e.1 "
                  .encode() + b"\xff e.2" + end.encode())
    code, _, err = run(capsys, "compute", str(f))
    assert code == 2
    assert "(line 3, column 16)" in err


def test_byte_order_mark_is_skipped(tmp_path, capsys):
    """A file saved with a UTF-8 byte-order mark reads as the same file
    without it, and a bad byte after it is reported at the same line and
    column."""
    good = b"edges: e+\nvertex v1: e.1 e.2\n"
    bad = b"edges: e+\nvertex v1: e.1 \xff e.2\n"
    results = []
    for text in (good, bad):
        for prefix in (b"", b"\xef\xbb\xbf"):
            f = tmp_path / "bom.rg"
            f.write_bytes(prefix + text)
            results.append(run(capsys, "compute", str(f)))
    assert results[0] == results[1]
    assert results[0][0] == 0
    assert results[2] == results[3]
    assert results[2][0] == 2
    assert "(line 2, column 16)" in results[2][2]
