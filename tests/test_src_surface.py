"""`src/dsrep` exports only what the library itself uses.

Every name in a module's `__all__` must be loaded somewhere in
`src/dsrep` outside its own definition, be exported by the package, or
be a function the benchmark patches.  A name only tests call is oracle
code and belongs in `tests/`.
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
