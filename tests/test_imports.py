"""Every name a module of the package imports is used in that module.

No linter ships with the project, so this reads each module with ``ast``:
a name bound by ``import`` or ``from ... import`` must appear as a name
somewhere else in the module (annotations included).  ``__init__.py``
imports in order to re-export, and ``from __future__`` imports are
compiler directives, so neither is checked.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "unitgraphs"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.partition(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_an_unused_import():
    source = "from dataclasses import dataclass, field\nimport os.path\nx = field\n"
    assert unused_imports(source) == ["dataclass", "os"]
