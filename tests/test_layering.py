"""Import-graph guards: the format layer stays below the solvers and the
reductions, and the CLI uses only the package's public names."""

from __future__ import annotations

import ast
from pathlib import Path

import barterclear

PACKAGE = Path(barterclear.__file__).parent


def package_imports(module: str) -> list[tuple[str, str]]:
    """(imported module, imported name) for every import of the package
    made in ``module``; a plain ``import`` has an empty name."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("barterclear"):
                continue
            target = (node.module or "").removeprefix("barterclear").lstrip(".")
            found.extend((target, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name.removeprefix("barterclear").lstrip("."), "")
                for alias in node.names
                if alias.name.split(".")[0] == "barterclear"
            )
    return found


def test_package_imports_sees_relative_imports():
    assert ("graph", "build_graph") in package_imports("formats")
    assert ("formats", "GadgetMap") in package_imports("reductions")


def test_formats_does_not_import_solvers_reductions_or_cli():
    banned = {"reductions", "exact", "assignment", "approx", "cli"}
    imported = {module.split(".")[0] for module, _ in package_imports("formats")}
    assert imported.isdisjoint(banned), imported & banned


def test_cli_imports_no_private_name():
    private = [(m, n) for m, n in package_imports("cli") if n.startswith("_")]
    assert private == []
