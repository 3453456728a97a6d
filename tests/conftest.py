from __future__ import annotations

import pytest

from ribbonpoly.fileformat import parse
from ribbonpoly.invariants import corpus
from ribbonpoly.packaged import PackagedRibbonGraph
from ribbonpoly.ribbon import RibbonGraph

# one line per acceptance criterion, echoed after the test summary
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


CORPUS_SEED = 2024


@pytest.fixture(scope="session")
def corpus4():
    """Connected instances up to 4 edges / 4 vertices, discrete plus three
    seeded random packagings each: the acceptance gate's inputs, enumerated
    once per session for every test that sweeps them."""
    return list(corpus(4, seed=CORPUS_SEED, random_packagings=3))


@pytest.fixture(scope="session")
def graphs4(corpus4):
    out, seen = [], set()
    for g, _ in corpus4:
        if id(g) not in seen:
            seen.add(id(g))
            out.append(g)
    return out


THETA_EXAMPLE_RG = """\
edges: e+ f+ g+
vertex v1: e.1 f.1 e.2 g.1
vertex v2: f.2 g.2
"""


def rg(rotation: dict, sign: dict) -> RibbonGraph:
    """Shorthand builder: vertex order is the dict order."""
    return RibbonGraph.build(list(rotation), rotation, sign)


@pytest.fixture
def theta() -> PackagedRibbonGraph:
    """The interlaced theta graph with the discrete weight-0 packaging."""
    return parse(THETA_EXAMPLE_RG)


@pytest.fixture
def disc() -> RibbonGraph:
    return rg({"v1": []}, {})


@pytest.fixture
def path() -> RibbonGraph:
    return rg({"v1": [("e", 1)], "v2": [("e", 2)]}, {"e": 1})


@pytest.fixture
def annulus() -> RibbonGraph:
    return rg({"v1": [("e", 1), ("e", 2)]}, {"e": 1})


@pytest.fixture
def mobius() -> RibbonGraph:
    return rg({"v1": [("e", 1), ("e", 2)]}, {"e": -1})


@pytest.fixture
def handle() -> RibbonGraph:
    """Two interlaced untwisted loops on one vertex (torus neighbourhood)."""
    return rg({"v1": [("e", 1), ("f", 1), ("e", 2), ("f", 2)]},
              {"e": 1, "f": 1})
