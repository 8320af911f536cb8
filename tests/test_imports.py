"""Every module-level import in a braidnil module is used there (the package __init__ re-exports, so it is
exempt), and every module-level private name is read somewhere in the package."""

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


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names (def, class or assignment) that no module of sources reads.

    A name is read where it is loaded, taken as an attribute or imported from
    another module; its own definition is not a read.
    """
    defined, read = [], set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            defined += [(module, name, node.lineno) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return [f"{module}: {name} (line {line})" for module, name, line in defined if name not in read]


def test_the_check_finds_an_unread_private_name():
    sources = {
        "a.py": "_USED = 1\n_UNUSED: int = 2\ndef _helper():\n    return _USED\nclass _Dead:\n    pass\n"
                "def _imported():\n    pass\ndef _as_attribute():\n    pass\n",
        "b.py": "from . import a\nfrom .a import _imported\nprint(a._as_attribute, a._helper())\n",
    }
    assert unread_private_names(sources) == ["a.py: _UNUSED (line 2)", "a.py: _Dead (line 5)"]


def test_package_has_no_unread_private_names():
    assert unread_private_names({p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}) == []
