"""The package's public surface, read from the sources with ast (nothing is imported).

Every name a module's __all__ lists is defined in it, every name the
package __init__ imports from a module is in that module's __all__, and
no module keeps a module-level import it does not use.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "starloc"
MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


def _tree(stem: str) -> ast.Module:
    return ast.parse((PACKAGE / f"{stem}.py").read_text(encoding="utf-8"))


def _all(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def _imports(tree: ast.Module) -> dict:
    """{bound name: import statement} of the module-level imports, __future__ aside."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            names.update({alias.asname or alias.name.split(".")[0]: node for alias in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update({alias.asname or alias.name: node for alias in node.names})
    return names


def _defined(tree: ast.Module) -> set:
    names = set(_imports(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("stem", MODULES)
def test_all_names_are_defined(stem):
    tree = _tree(stem)
    exported = _all(tree) or []
    assert len(exported) == len(set(exported))
    assert sorted(set(exported) - _defined(tree)) == []


def test_package_imports_only_public_names():
    for node in _tree("__init__").body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            exported = _all(_tree(node.module)) or []
            assert [a.name for a in node.names if a.name not in exported] == [], node.module


@pytest.mark.parametrize("stem", MODULES)
def test_no_unused_module_level_import(stem):
    tree = _tree(stem)
    imports = _imports(tree)
    statements = set(map(id, imports.values()))
    used = set(_all(tree) or [])
    for node in tree.body:
        if id(node) not in statements:
            used |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
    assert sorted(set(imports) - used) == []
