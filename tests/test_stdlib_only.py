"""The library imports nothing at runtime beyond the standard library and
itself."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "ribbonpoly"


def _top_level_imports(path: Path) -> set[str]:
    """The first dotted component of every absolute import in ``path``."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_library_imports_only_stdlib():
    files = sorted(SRC.glob("*.py"))
    assert files
    foreign = {f"{p.name}: {name}" for p in files
               for name in _top_level_imports(p)
               if name != "ribbonpoly" and name not in sys.stdlib_module_names}
    assert not foreign, sorted(foreign)
