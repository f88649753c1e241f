"""`src/dsrep` exports and imports only what the library itself uses.

Every name in a module's `__all__` must be loaded somewhere in
`src/dsrep` outside its own definition, be exported by the package, or
be a function the benchmark patches.  A name only tests call is oracle
code and belongs in `tests/`.  Every name a module imports must be
loaded in that module, except the package's re-exports and the names the
benchmark patches there.
"""

import ast
from pathlib import Path

from conftest import benchmark_boundaries

SRC = Path(__file__).resolve().parent.parent / "src" / "dsrep"


def _exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


def _loaded(tree: ast.Module) -> set[str]:
    """Names loaded in the module, each top-level def or class not counting
    its own name."""
    names = set()
    for statement in tree.body:
        own = getattr(statement, "name", None)
        names |= {
            node.id
            for node in ast.walk(statement)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id != own
        }
    return names


def test_every_export_is_used_by_the_library():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    used = set().union(*map(_loaded, trees.values()))
    package = {
        alias.asname or alias.name
        for node in trees["__init__"].body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    patched = {tuple(name.split(".", 1)) for name, *_ in benchmark_boundaries()}
    unused = [
        f"{module}.{name}"
        for module, tree in sorted(trees.items())
        for name in _exports(tree)
        if name not in used | package and (module, name) not in patched
    ]
    assert not unused, f"exported but used only outside src/dsrep: {unused}"


def _imported(tree: ast.Module) -> set[str]:
    """Names the module's imports bind, `from __future__` ones aside."""
    return {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }


def test_every_import_is_used():
    patched = {
        (caller.removeprefix("dsrep."), name.split(".", 1)[1])
        for name, _, callers, _ in benchmark_boundaries()
        for caller in callers
    }
    unused = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "__init__":
            continue  # the package's exports
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {
            node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        unused += [
            f"{path.stem}.{name}"
            for name in sorted(_imported(tree) - loaded)
            if (path.stem, name) not in patched
        ]
    assert not unused, f"imported but never used: {unused}"
