"""`src/dsrep` exports, imports and defines only what the library itself uses.

Every name in a module's `__all__` must be loaded somewhere in
`src/dsrep` outside its own definition, be exported by the package, or
be a function the benchmark patches.  A name only tests call is oracle
code and belongs in `tests/`.  Every name a module imports must be
loaded in that module, except the package's re-exports and the names the
benchmark patches there.  Every method of a class must be named by an
attribute access in `src/dsrep` or in the benchmark.  The README's
stable-API import block names exactly the package's `__all__`, every
`module.name` the README names in backticks resolves, and its generator
document example is what `generate` writes.
"""

import ast
import importlib
import json
import re
from pathlib import Path

from conftest import benchmark_boundaries, listed_doc

import dsrep
from dsrep.representation import CanonicalSpec, Family, assemble_canonical

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "dsrep"


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


def test_readme_imports_the_stable_api():
    """The README's `from dsrep import (...)` block names `dsrep.__all__`."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [block] = re.findall(r"^from dsrep import \((.*?)\)", readme, re.M | re.S)
    assert sorted(re.findall(r"\w+", block)) == sorted(dsrep.__all__)


def test_readme_names_resolve():
    """Every backticked `module.name` or `dsrep.module.name` in README.md whose
    module is in `src/dsrep` names an attribute of that module, and a
    trailing `.attr` names an attribute of that object."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    modules = {path.stem for path in SRC.glob("*.py")}
    named, stale = [], []
    for span in re.findall(r"`([^`\n]+)`", readme):
        match = re.fullmatch(r"(?:dsrep\.)?(\w+)\.(\w+)(?:\.(\w+))?(?:\(\))?", span)
        if not match or match[1] not in modules:
            continue
        named.append(span)
        module = importlib.import_module(f"dsrep.{match[1]}")
        found = hasattr(module, match[2])
        if found and match[3]:
            found = hasattr(getattr(module, match[2]), match[3])
        if not found:
            stale.append(span)
    assert named, "the pattern found no module names in README.md"
    assert not stale, f"README.md names what src/dsrep does not define: {stale}"


def test_readme_generator_document_is_generated():
    """The README's generator document example has exactly the top-level
    keys `generators_to_doc` writes, in its order, and each field or matrix
    it spells out is the one of type B N=2's document."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [example] = re.findall(r"^### Generator documents\n.*?^```json\n(.*?)^```", readme, re.M | re.S)
    doc = listed_doc(assemble_canonical(CanonicalSpec(Family.TYPE_B, 2)))
    assert re.findall(r'^  "(\w+)":', example, re.M) == list(doc)
    fields = re.findall(r'^  "(\w+)": (.+?),?$', example, re.M)
    spelled = {key: json.loads(value) for key, value in fields if value != "["}
    assert spelled and spelled == {key: doc[key] for key in spelled}
    matrices = [json.loads(line) for line in re.findall(r"^    (\{.+\}),?$", example, re.M)]
    by_name = {m["name"]: m for m in doc["generators"]}
    assert matrices and all(m == by_name[m["name"]] for m in matrices)


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


def _attribute_accesses(tree: ast.AST) -> list[ast.Attribute]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]


def test_every_method_is_used():
    """Each non-dunder function defined in a class body (method, property or
    classmethod) is named as `x.name` in `src/dsrep` outside its own
    definition, or in `perfbench/`.

    The check goes by name alone, so a method that shares its name with a
    used one passes unseen: a `BackboneGraph.reduced` would pass on the
    strength of `Sparse.reduced`.
    """
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    src_accesses = [node for tree in trees.values() for node in _attribute_accesses(tree)]
    benchmark = {
        node.attr
        for path in (ROOT / "perfbench").glob("*.py")
        for node in _attribute_accesses(ast.parse(path.read_text(encoding="utf-8")))
    }
    unused = []
    for module, tree in sorted(trees.items()):
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for method in cls.body:
                if not isinstance(method, ast.FunctionDef):
                    continue
                name = method.name
                if name.startswith("__") and name.endswith("__") or name in benchmark:
                    continue
                own = set(map(id, _attribute_accesses(method)))
                if not any(node.attr == name and id(node) not in own for node in src_accesses):
                    unused.append(f"{module}.{cls.name}.{name}")
    assert not unused, f"methods named only outside src/dsrep and perfbench: {unused}"
