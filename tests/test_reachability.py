"""Which functions of the library the command line never reaches.

Every CLI command runs under ``sys.setprofile`` on a sample of the corpus,
including the error paths, and the functions of ``src/ribbonpoly`` that no
run enters must be exactly the pinned names below: code the CLI cannot
reach is either kept by the benchmark, the acceptance gate or the exported
API, or dead.  A function that drops off the CLI's paths, or a new one it
never calls, changes the set and fails the test, and each pinned name
states what keeps it.
"""

from __future__ import annotations

import inspect
import io
import itertools
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import CodeType

import ribbonpoly
from ribbonpoly import cli
from ribbonpoly.fileformat import render
from ribbonpoly.invariants import corpus
from ribbonpoly.ribbon import enumerate_quasi_trees, orientable

# the functions no CLI command enters, as module.qualname, keyed by what
# keeps each one in the library: a file of the benchmark or of the
# acceptance gate that names it, the exported API, or the pinned function
# a helper serves
NEVER_ENTERED = {
    "bench/spans.py": {
        "packaged.component_gamma_values",
        "packaged.quotient",
        "poly.MultiPoly.substitute",
        "poly._PolyBase.__add__",
        "poly._PolyBase.__mul__",
    },
    "bench/checks.py": {
        "invariants.krushkal_quasitree",
        "ribbon.isomorphisms",
    },
    "tests/test_acceptance.py": {
        "poly.HalfExpPoly.substitute",
        "poly.MultiPoly.swap_xy",
        "poly.parse_poly",
        "ribbon.counts",
        "ribbon.euler_genus",
        "ribbon.isomorphic",
    },
    "ribbonpoly.__all__": {
        "poly.HalfExpPoly.a_half",
        "poly.HalfExpPoly.alpha",
        "poly.HalfExpPoly.b_half",
        "poly.HalfExpPoly.beta",
        "poly.MultiPoly.x",
        "poly.MultiPoly.xg",
        "poly.MultiPoly.y",
        "poly.MultiPoly.yg",
        "poly._PolyBase.__bool__",
        "poly._PolyBase.__hash__",
        "poly._PolyBase.__neg__",
        "poly._PolyBase.__pow__",
        "poly._PolyBase.__repr__",
        "poly._PolyBase.__sub__",
        "poly._PolyBase.const",
        "poly._PolyBase.zero",
    },
    "helpers": {
        "packaged.PackagingError.__init__": "packaged.WeightedPartition.build",
        "packaged.PackagingGraph.components":
            "packaged.component_gamma_values",
        "poly.HalfExpPoly._unit": "poly._PolyBase.const",
        "poly.HalfMonomial.mul": "poly._PolyBase.__mul__",
        "poly.Monomial.mul": "poly.HalfExpPoly.substitute",
        "poly.MultiPoly._unit": "poly.HalfExpPoly.substitute",
        "poly._merge": "poly.Monomial.mul",
        "poly._tokenize": "poly.parse_poly",
        "poly._factor": "poly.parse_poly",
        "ribbon.induced_subgraph": "packaged.component_gamma_values",
        "ribbon.isomorphisms.<locals>.extend": "ribbon.isomorphisms",
    },
}
PINNED = set().union(*NEVER_ENTERED.values())


def library_functions() -> dict[tuple[str, int, str], str]:
    """(file, first line, name) of each named function of the package ->
    its module.qualname, read off the compiled source."""
    out = {}

    def walk(code: CodeType, module: str, prefix: str) -> None:
        for c in code.co_consts:
            if not isinstance(c, CodeType) or c.co_name.startswith("<"):
                continue
            name = prefix + c.co_name
            if c.co_flags & inspect.CO_OPTIMIZED:   # a function, not a class
                out[c.co_filename, c.co_firstlineno, c.co_name] = (
                    f"{module}.{name}")
                walk(c, module, name + ".<locals>.")
            else:
                walk(c, module, name + ".")

    for path in sorted(Path(ribbonpoly.__file__).parent.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        walk(code, path.stem, "")
    return out


def cli_runs(tmp_path: Path) -> list[tuple[list[str], int]]:
    """(argv, expected exit code) of every command on about 40 instances,
    and of the error paths."""
    runs: list[tuple[list[str], int]] = []
    sample = itertools.islice(corpus(3, 5, 1), 0, None, 4)
    for i, (_, pg) in enumerate(sample):
        path = tmp_path / f"instance-{i}.rg"
        path.write_text(render(pg))
        f, edges = str(path), sorted(pg.graph.edges)
        q = ",".join(sorted(next(iter(enumerate_quasi_trees(pg.graph)))))
        for fmt in ("text", "structured"):
            runs += [(["compute", f, "--method", m, "--format", fmt], 0)
                     for m in ("statesum", "delcon", "quasitree")]
            runs += [(["specialize", f, "--target", t, "--format", fmt],
                      2 if t == "surface-tutte" and not orientable(pg.graph)
                      else 0)
                     for t in ("krushkal", "surface-tutte", "classical-tutte")]
        runs += [(["validate", f, "--orders", "2"], 0),
                 (["quasitrees", f], 0),
                 (["activities", f, "--quasitree", q], 0),
                 (["dual", f], 0),
                 (["pdual", f, "--edges", ",".join(edges[:1])], 0)]
    bad = tmp_path / "bad-vblock.rg"
    bad.write_text("edges: e+\nvertex v1: e.1 e.2\nvblock x: v1\n")
    runs += [(["corpus", "--max-edges", "2", "--random", "1"], 0),
             (["corpus", "--max-edges", "2", "--out", str(tmp_path / "c")], 0),
             (["compute", str(tmp_path / "missing.rg")], 2),
             (["compute", f, "--method", "quasitree", "--order", "nope"], 2),
             (["compute", str(bad)], 2)]
    return runs


def test_cli_reaches_all_but_the_pinned_functions(tmp_path):
    functions = library_functions()
    runs = cli_runs(tmp_path)
    cli.build_parser.cache_clear()   # its body runs once per process
    entered: set[str] = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            name = functions.get(
                (code.co_filename, code.co_firstlineno, code.co_name))
            if name:
                entered.add(name)

    codes = []
    sys.setprofile(profile)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            for argv, _ in runs:
                codes.append(cli.main(argv))
    finally:
        sys.setprofile(None)
    assert codes == [code for _, code in runs]
    never = set(functions.values()) - entered
    assert "packaged.Minor.minor" not in never
    assert never == PINNED


def exported(name: str) -> bool:
    """True iff the module.qualname ``name`` is an object of
    ``ribbonpoly.__all__`` or an attribute of one."""
    qualname = name.split(".", 1)[1]
    for obj in (getattr(ribbonpoly, n) for n in ribbonpoly.__all__):
        attr = getattr(obj, qualname.rsplit(".", 1)[-1], None)
        for f in (obj, attr, getattr(attr, "__func__", None)):
            if getattr(f, "__qualname__", None) == qualname:
                return True
    return False


def test_every_unreached_function_names_what_keeps_it():
    root = Path(__file__).parents[1]
    for pin in ("bench/spans.py", "bench/checks.py",
                "tests/test_acceptance.py"):
        text = (root / pin).read_text(encoding="utf-8")
        for name in NEVER_ENTERED[pin]:
            assert name.rsplit(".", 1)[-1] in text, (pin, name)
    for name in NEVER_ENTERED["ribbonpoly.__all__"]:
        assert exported(name), name
    for name, served in NEVER_ENTERED["helpers"].items():
        assert served in PINNED or exported(served), (name, served)
    assert sum(map(len, NEVER_ENTERED.values())) == len(PINNED)
