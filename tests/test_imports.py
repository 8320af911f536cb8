"""Every module-level import in a braidnil module is used there; the package __init__ re-exports, so it is exempt."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "braidnil"


def unused_imports(source: str) -> list[str]:
    """The names bound by the module-level imports of source that no expression in it reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds a; `from m import x as y` binds y
                bound[(alias.asname or alias.name).split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport math\nfrom os import path, sep as separator\nprint(path)\n"
    assert unused_imports(source) == ["math (line 2)", "separator (line 3)"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_module_has_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []
