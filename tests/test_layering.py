"""Source guards: the format layer stays below the solvers and the
reductions, the CLI uses only the package's public names, and the CLI
writes files through one writer."""

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


def _writes_a_file(call: ast.Call) -> bool:
    """``write_text``, ``write_bytes`` or ``os.open``, or an ``open`` whose
    literal mode writes, appends, creates or updates (``Path.open`` takes
    the mode first, the builtin second)."""
    callee = call.func
    if isinstance(callee, ast.Attribute):
        name, owner = callee.attr, getattr(callee.value, "id", None)
    else:
        name, owner = getattr(callee, "id", ""), None
    if name in {"write_text", "write_bytes"} or (name, owner) == ("open", "os"):
        return True
    at = 1 if isinstance(callee, ast.Name) or owner == "io" else 0
    modes = call.args[at:at + 1] + [kw.value for kw in call.keywords if kw.arg == "mode"]
    return name == "open" and any(
        isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax+") for mode in modes)


def file_writes(source: str) -> list[tuple[str, int]]:
    """(innermost enclosing function, line) of every call in ``source`` that
    writes a file; a call outside any function is in ``<module>``."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            scope = node.name
        elif isinstance(node, ast.Call) and _writes_a_file(node):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), "<module>")
    return found


def test_file_writes_sees_every_writing_call():
    source = (
        "def cmd(args):\n"
        "    Path(args.output).write_text(text)\n"
        "    def inner():\n"
        "        return open(args.map, mode='a'), Path(args.log).open('w')\n"
        "    return open(args.input), Path(args.input).open(), os.open(args.o, 1)\n"
        "io.open('report', 'x+b').close()\n"
    )
    assert file_writes(source) == [("cmd", 2), ("inner", 4), ("inner", 4), ("cmd", 5),
                                   ("<module>", 6)]


def test_cli_writes_files_only_through_its_writer():
    writes = file_writes((PACKAGE / "cli.py").read_text())
    assert writes, "the writer's own open is not seen"
    assert {scope for scope, _ in writes} == {"_write_output"}, writes


def test_the_search_imports_neither_numpy_nor_scipy():
    tree = ast.parse((PACKAGE / "exact.py").read_text())
    modules = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names}
    modules |= {node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert {module.split(".")[0] for module in modules}.isdisjoint({"numpy", "scipy"}), modules
