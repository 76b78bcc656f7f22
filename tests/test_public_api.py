"""The package exports only what the package itself or the README uses,
and defines nothing that it neither exports nor uses; a helper that only
the tests use belongs in tests/oracles.py."""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fddlink"

# exported names that neither the package nor the README uses, and why they stay
ALLOWED = {
    "ul_channel": "ROADMAP item 9 estimates the paths from uplink pilots on it",
}


def exported_names() -> set:
    """The names that fddlink/__init__.py imports."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names}


def unused_exports() -> set:
    """Exported names that no other package module has as a name or an
    attribute, and that the README does not mention."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name != "__init__.py":
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    readme = (ROOT / "README.md").read_text()
    return {name for name in exported_names() - used
            if not re.search(rf"\b{re.escape(name)}\b", readme)}


def test_every_export_is_used_by_the_package_or_the_readme():
    assert unused_exports() <= set(ALLOWED)


def test_allowlist_names_only_unused_exports():
    assert set(ALLOWED) <= unused_exports()


def orphaned_definitions() -> set:
    """Functions, classes and methods of the package, dunders aside, that are
    neither exported nor named by a package module outside their own body."""
    trees = [ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")]

    def names(node) -> Counter:
        return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                       if isinstance(n, (ast.Name, ast.Attribute)))

    named = sum((names(tree) for tree in trees), Counter())
    return {node.name for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not re.fullmatch(r"__\w+__", node.name)
            and named[node.name] == names(node)[node.name]} - exported_names()


def test_every_definition_is_exported_or_used():
    assert orphaned_definitions() == set()
