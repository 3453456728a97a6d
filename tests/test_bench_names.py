"""The program names that the benchmark under ``bench/`` looks up must exist.

``bench/spans.py`` wraps functions by module and attribute name, and
``bench/gen.py`` and ``bench/checks.py`` import a few names from the
program.  A refactor that renames or deletes one of them breaks
``bench/run.py --trace 1`` or the benchmark's checks, so this test reads
the names from ``bench/spans.py`` and resolves each one.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

import ribbonpoly.cli  # noqa: F401  (imports every traced module)

SPANS_PY = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SPANS = _spans()


@pytest.mark.parametrize(
    "label, module, attr",
    [(label, m, a) for table in (SPANS.SPANS, SPANS.ALIASES, SPANS.GENERATORS)
     for label, (m, a) in table.items()])
def test_traced_names_resolve(label, module, attr):
    owner, name = SPANS._resolve(module, attr)
    assert name in owner.__dict__, label


@pytest.mark.parametrize("module, name", [
    ("invariants", "_subset_term"),
    ("invariants", "enumerate_connected"),
    ("ribbon", "enumerate_quasi_trees"),
    ("invariants", "pst_delcon"),
])
def test_counted_names_exist(module, name):
    """The functions ``spans.install`` replaces by counting wrappers."""
    assert name in vars(importlib.import_module(f"ribbonpoly.{module}"))


@pytest.mark.parametrize("module, name", [
    ("ribbon", "trace_boundaries"),
    ("packaged", "WeightedPartition"),
    ("ribbon", "RibbonGraph"),
    ("ribbon", "isomorphisms"),
    ("invariants", "krushkal_quasitree"),
])
def test_names_imported_by_gen_and_checks_exist(module, name):
    assert hasattr(importlib.import_module(f"ribbonpoly.{module}"), name)
