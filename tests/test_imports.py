"""Every module-level import in a braidnil module is used there, every module-level private name is read
somewhere in the package, and every public name is read there or named in README.  Outside core only expr and
presentations use the working state, and only listed functions build values unchecked.  The package exports its
names lazily, a cold CLI start loads only the modules that its subcommand runs, and no module computes with
floats."""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import braidnil
from braidnil.core import dumps_canonical, element_to_dict
from braidnil.expr import parse

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


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_has_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def read_names(sources: dict[str, str]) -> set[str]:
    """The names that the modules of sources read: each name loaded, taken as an attribute or imported from another
    module.  A definition is not a read."""
    read = set()
    for source in sources.values():
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    return read


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """The module-level private names (def, class or assignment) that no module of sources reads."""
    defined = []
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
    read = read_names(sources)
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


def unexplained_public_names(names: list[str], sources: dict[str, str], readme: str) -> list[str]:
    """The names that no module of sources reads and that readme does not name as a word."""
    read = read_names(sources)
    return [name for name in names if name not in read and not re.search(rf"\b{name}\b", readme)]


def test_the_check_finds_a_public_name_that_is_neither_read_nor_documented():
    sources = {"a.py": "def used():\n    pass\ndef documented():\n    pass\ndef dead():\n    used()\n"}
    readme = "`documented()` is named here; `dead_end` and `undead` are other words."
    assert unexplained_public_names(["used", "documented", "dead"], sources, readme) == ["dead"]


def test_each_public_name_is_read_in_the_package_or_named_in_the_readme():
    # a public function that the package never runs is kept only as documented API
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    readme = (PACKAGE.parent.parent / "README.md").read_text(encoding="utf-8")
    assert unexplained_public_names(braidnil.__all__, sources, readme) == []


def float_uses(source: str) -> list[str]:
    """The true divisions (`/` and `/=`), float or imaginary literals and `float(...)` calls in source, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            found.append((node.lineno, "division"))
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append((node.lineno, "float literal"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "float":
            found.append((node.lineno, "float call"))
    return [f"{what} (line {line})" for line, what in sorted(found)]


def test_the_check_finds_each_float_use():
    source = "q = a // b\nr = a / b\nr /= 2\nr //= 2\nx = 1.5 + 2j\ny = float(q)\nz = 1e3\nw = 10**3\n"
    assert float_uses(source) == ["division (line 2)", "division (line 3)", "float literal (line 5)",
                                  "float literal (line 5)", "float call (line 6)", "float literal (line 7)"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_module_computes_with_integers_only(module):
    # exactness is never traded away: every coordinate, exponent and order is an int
    assert float_uses((PACKAGE / module).read_text()) == []


# the group law's working state (image, nbr, comm) and its frame protocol, owned by core
WORKING_STATE = {"_fold", "_fold_framed", "_freeze", "_rows", "_thaw", "_times", "_times_inverse", "_origin",
                 "_merge_pure_block"}


def working_state_names(source: str) -> set[str]:
    """The working-state names that source imports from a module or reads as an attribute."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names & WORKING_STATE


def test_the_check_finds_a_working_state_name():
    source = "from .core import _thaw as thaw, mul\nfrom . import core\nstate = core._times(*thaw(x), y)\n"
    assert working_state_names(source) == {"_thaw", "_times"}


def test_outside_core_only_expr_and_presentations_use_the_working_state():
    # an expression runs its atoms on one state, and a verify suite folds each relation's rest from a shared prefix
    users = {p.name: sorted(names) for p in sorted(PACKAGE.glob("*.py"))
             if p.name != "core.py" and (names := working_state_names(p.read_text()))}
    assert users.keys() <= {"expr.py", "presentations.py"}, users


# the functions that may build a value with `_trusted`, skipping its check, by module: each builds values that are
# valid by construction (normal forms of the group law, sums of from_map, words of checked words, holonomy row
# permutations), or, in element_from_dict, JSON rows that passed the canonical column check
TRUSTED_CALLERS = {
    "core.py": {"BraidWord.__mul__", "BraidWord.__pow__", "BraidWord.inverse", "_Coordinates.from_map",
                "_normal_form", "element_from_dict"},
    "invariants.py": {"holonomy_matrix"},
}


def trusted_callers(source: str) -> set[str]:
    """The qualified names of the functions in source that read `_trusted`, by name or as an attribute.

    A read outside any function counts as "<module>"; an import is not a read.
    """
    found = set()

    def visit(node: ast.AST, scope: tuple[str, ...]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if (isinstance(child, ast.Name) and child.id == "_trusted" and isinstance(child.ctx, ast.Load)
                    or isinstance(child, ast.Attribute) and child.attr == "_trusted"):
                found.add(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), ())
    return found


def test_the_check_finds_each_function_that_builds_unchecked():
    source = ("from .core import _trusted\nfrom . import core\n"
              "class C:\n    def m(self):\n        return _trusted(C)\n"
              "def f():\n    build = core._trusted\n    return build(C)\n"
              "def g(x):\n    return C(x)\n"
              "DEFAULT = _trusted(C)\n")
    assert trusted_callers(source) == {"C.m", "f", "<module>"}


def test_only_the_listed_functions_build_values_unchecked():
    # a new unchecked path, from user input above all, fails here until it is listed and argued for
    found = {p.name: callers for p in sorted(PACKAGE.glob("*.py")) if (callers := trusted_callers(p.read_text()))}
    assert found == TRUSTED_CALLERS


# the package surface: each public name by the submodule that defines it, the submodules themselves included
SURFACE = {
    "core": ["BraidWord", "CommPart", "DomainError", "NilElement", "Permutation", "PurePart", "SUBGROUPS", "collect",
             "comm_gen", "comm_gen_word", "commutator_word", "conj", "core", "element_from_dict", "element_to_dict",
             "identity", "inv", "mul", "order", "pairs", "power", "pure_gen", "pure_gen_word", "sigma", "tits_lift",
             "triples", "word_from_dict", "word_to_dict"],
    "expr": ["Expression", "ExpressionError", "expr", "parse"],
    "invariants": ["HolonomyMatrix", "RankTable", "combined_matrix", "dimension_table", "hirsch_length",
                   "holonomy_matrix", "invariants", "lcs_rank", "orientability_check"],
    "orbits": ["OrbitBasis", "orbit_basis_of", "orbit_partition", "orbits"],
    "presentations": ["RelationReport", "braid_presentation", "full_twist", "presentations", "pure_presentation",
                      "subgroup_presentation"],
    "torsion": ["compatible_residues", "conjugacy_decide", "conjugacy_witness", "delta", "delta_power_coefficients",
                "delta_word", "element_with_cycle_type", "finite_order_element", "torsion", "torsion_spectrum"],
}


def test_the_package_surface():
    names = sorted(name for names in SURFACE.values() for name in names)
    assert len(names) == 61 and braidnil.__all__ == names
    star: dict = {}
    exec("from braidnil import *", star)
    assert star.keys() - {"__builtins__"} == set(names)
    for module, names_there in SURFACE.items():
        owner = importlib.import_module(f"braidnil.{module}")
        for name in names_there:
            assert getattr(braidnil, name) is (owner if name == module else getattr(owner, name)), name
    assert set(names) <= set(dir(braidnil))
    with pytest.raises(AttributeError, match="^module 'braidnil' has no attribute 'nonesuch'$"):
        braidnil.nonesuch


def module_level_definitions(source: str) -> set[str]:
    """The names that a def, a class or an assignment at module level binds in source; imports do not count."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def test_each_public_name_loads_the_module_that_defines_it():
    # a name re-exported by another module would load that module too: SUBGROUPS is core's, not presentations'
    for module, names in SURFACE.items():
        defined = module_level_definitions((PACKAGE / f"{module}.py").read_text())
        assert [name for name in names if name != module and name not in defined] == [], module


# the cold start that the benchmark times
COLD_ARGV = ["collect", "--n", "5", "(s4 s3 s2^-1 s1^-1)^5"]


def test_a_cold_collect_loads_only_what_it_runs():
    # modules that a bare interpreter already has (site hooks differ between hosts) do not count
    child = ("import sys\n"
             "bare = set(sys.modules)\n"
             "import runpy\n"
             "sys.argv[0] = 'braidnil'\n"
             "try:\n"
             "    runpy.run_module('braidnil.cli', run_name='__main__', alter_sys=True)\n"
             "except SystemExit as exc:\n"
             "    code = exc.code\n"
             "sys.stderr.write(' '.join([str(code)] + sorted(set(sys.modules) - bare)))\n")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    proc = subprocess.run([sys.executable, "-c", child, *COLD_ARGV], capture_output=True, text=True, env=env,
                          timeout=120)
    code, *loaded = proc.stderr.split()
    assert (code, proc.stdout) == ("0", dumps_canonical(element_to_dict(parse(COLD_ARGV[-1], 5).element())) + "\n")
    assert "braidnil.core" in loaded
    assert set(loaded) & {"braidnil.torsion", "braidnil.invariants", "braidnil.presentations", "braidnil.orbits",
                          "dataclasses"} == set()
