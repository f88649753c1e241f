"""JSON document formats for backbones and generator sets.

Two schemas, both plain JSON:

Backbone document (input to `validate`, embedded in generator documents):

    {
      "blocks": [{"A": "1/2", "B": 0}, ...],     # half-integers as "p/2" strings or ints
      "edges": [[0, 1], ...],                     # block-index pairs
      "algebra": "ds" | "ads"                     # optional, default "ds"
    }

Generator document (output of `generate`, input to `verify`):

    {
      "algebra": "ds" | "ads",
      "backbone": {...backbone document...},
      "t": [{"edge": [i, j], "forward": float, "reverse": float}, ...],
      "generators": [
        {"name": "Jx", "rows": n, "cols": n,
         "entries": [[row, col, re, im], ...]},   # sparse, zeros omitted
        ...
      ]
    }

Floats are serialised by the json module, whose repr-based encoding
round-trips bit-exactly.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .blocks import BlockLabel
from .numeric import HalfInt
from .representation import Algebra, BackboneGraph, GeneratorSet

__all__ = [
    "DocumentError",
    "backbone_to_doc",
    "backbone_from_doc",
    "generators_to_doc",
    "generators_from_doc",
    "load_json",
    "save_json",
]

GENERATOR_NAMES = ("Jx", "Jy", "Jz", "Kx", "Ky", "Kz", "Vt", "Vx", "Vy", "Vz")


class DocumentError(ValueError):
    """Raised for malformed or inconsistent documents."""


def _parse_algebra(value: Any) -> Algebra:
    if value in (None, "ds"):
        return Algebra.DE_SITTER
    if value == "ads":
        return Algebra.ANTI_DE_SITTER
    raise DocumentError(f"algebra must be 'ds' or 'ads', got {value!r}")


def _parse_half(value: Any, context: str) -> HalfInt:
    if isinstance(value, bool):
        raise DocumentError(f"bad half-integer for {context}: {value!r}")
    try:
        return HalfInt.parse(value)
    except (TypeError, ValueError) as exc:
        raise DocumentError(f"bad half-integer for {context}: {value!r} ({exc})") from exc


def _index(value: Any, context: str) -> int:
    """A JSON integer used as an index or a size; floats and booleans are refused."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentError(f"{context} must be an integer, got {value!r}")
    return value


def _pair(value: Any, context: str) -> tuple[int, int]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise DocumentError(f"{context} must be a pair of block indices, got {value!r}")
    return _index(value[0], context), _index(value[1], context)


def _finite(value: Any, context: str) -> float:
    """A JSON number that is finite as a float; NaN and infinities are refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            number = math.inf
        if math.isfinite(number):
            return number
    raise DocumentError(f"{context} must be a finite number, got {value!r}")


def _list(value: Any, context: str) -> list:
    if not isinstance(value, list):
        raise DocumentError(f"{context} must be a list")
    return value


def backbone_to_doc(g: BackboneGraph, algebra: Algebra = Algebra.DE_SITTER) -> dict:
    return {
        "blocks": [{"A": str(b.a), "B": str(b.b)} for b in g.blocks],
        "edges": [list(e) for e in sorted(g.edges)],
        "algebra": algebra.value,
    }


def backbone_from_doc(doc: Any) -> tuple[BackboneGraph, Algebra]:
    if not isinstance(doc, dict):
        raise DocumentError("backbone document must be a JSON object")
    try:
        raw_blocks = doc["blocks"]
    except KeyError:
        raise DocumentError("backbone document missing 'blocks'") from None
    if not isinstance(raw_blocks, list) or not raw_blocks:
        raise DocumentError("'blocks' must be a non-empty list")
    blocks = []
    for pos, entry in enumerate(raw_blocks):
        if not isinstance(entry, dict) or "A" not in entry or "B" not in entry:
            raise DocumentError(f"block {pos} must be an object with 'A' and 'B'")
        a = _parse_half(entry["A"], f"block {pos} A")
        b = _parse_half(entry["B"], f"block {pos} B")
        try:
            blocks.append(BlockLabel(a, b))
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise DocumentError("'edges' must be a list of index pairs")
    edges = [_pair(pair, f"edge {pos}") for pos, pair in enumerate(raw_edges)]
    algebra = _parse_algebra(doc.get("algebra"))
    try:
        graph = BackboneGraph.make(blocks, edges)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc
    return graph, algebra


def _matrix_entries(m: np.ndarray) -> list[list]:
    rows, cols = np.nonzero(m)
    return [
        [int(r), int(c), float(m[r, c].real), float(m[r, c].imag)]
        for r, c in zip(rows, cols)
    ]


def generators_to_doc(g: GeneratorSet) -> dict:
    t_entries = []
    for i, j in sorted(g.backbone.edges):
        t_entries.append(
            {"edge": [i, j], "forward": g.t.get((i, j)), "reverse": g.t.get((j, i))}
        )
    gens = []
    for name, mat in g.generators().items():
        gens.append(
            {
                "name": name,
                "rows": int(mat.shape[0]),
                "cols": int(mat.shape[1]),
                "entries": _matrix_entries(mat),
            }
        )
    return {
        "algebra": g.algebra.value,
        "backbone": backbone_to_doc(g.backbone, g.algebra),
        "t": t_entries,
        "generators": gens,
    }


def generators_from_doc(doc: Any) -> GeneratorSet:
    if not isinstance(doc, dict):
        raise DocumentError("generator document must be a JSON object")
    algebra = _parse_algebra(doc.get("algebra"))
    if "backbone" not in doc:
        raise DocumentError("generator document missing 'backbone'")
    backbone, _ = backbone_from_doc(doc["backbone"])
    dim = backbone.dim

    t_map: dict[tuple[int, int], float] = {}
    for entry in _list(doc.get("t", []), "'t'"):
        if not isinstance(entry, dict) or "edge" not in entry:
            raise DocumentError("each t entry needs an 'edge'")
        i, j = _pair(entry["edge"], "t edge")
        if entry.get("forward") is not None:
            t_map[(i, j)] = _finite(entry["forward"], f"t forward on edge {[i, j]}")
        if entry.get("reverse") is not None:
            t_map[(j, i)] = _finite(entry["reverse"], f"t reverse on edge {[i, j]}")

    raw_gens = doc.get("generators")
    if not isinstance(raw_gens, list):
        raise DocumentError("generator document missing 'generators' list")
    matrices: dict[str, np.ndarray] = {}
    for pos, entry in enumerate(raw_gens):
        if not isinstance(entry, dict):
            raise DocumentError(f"generator {pos} must be a JSON object")
        name = entry.get("name")
        if name not in GENERATOR_NAMES:
            raise DocumentError(f"unknown generator name {name!r}")
        if "rows" not in entry or "cols" not in entry:
            raise DocumentError(f"{name} needs 'rows' and 'cols'")
        rows, cols = _index(entry["rows"], f"{name} rows"), _index(entry["cols"], f"{name} cols")
        if rows != dim or cols != dim:
            raise DocumentError(
                f"{name} is {rows}x{cols} but the backbone implies {dim}x{dim}"
            )
        m = np.zeros((rows, cols), dtype=complex)
        # type() tests keep booleans out and keep this loop, which runs
        # once per entry, cheap
        for item in _list(entry.get("entries", []), f"{name} entries"):
            if type(item) is not list or len(item) != 4:
                raise DocumentError(f"{name} entry {item!r} must be [row, col, re, im]")
            r, c, re, im = item
            if type(r) is not int or type(c) is not int:
                raise DocumentError(f"{name} entry position ({r!r}, {c!r}) must be integers")
            if not (0 <= r < rows and 0 <= c < cols):
                raise DocumentError(f"{name} entry ({r}, {c}) out of range")
            if type(re) not in (int, float) or type(im) not in (int, float):
                raise DocumentError(f"{name} entry ({r}, {c}) must hold two numbers")
            try:
                m[r, c] = complex(re, im)
            except OverflowError:
                m[r, c] = math.inf
        if not np.isfinite(m).all():
            r, c = np.argwhere(~np.isfinite(m))[0]
            raise DocumentError(f"{name} entry ({r}, {c}) must be a finite number")
        matrices[name] = m
    missing = [n for n in GENERATOR_NAMES if n not in matrices]
    if missing:
        raise DocumentError(f"generator document missing matrices: {missing}")

    return GeneratorSet(
        backbone=backbone,
        algebra=algebra,
        jx=matrices["Jx"], jy=matrices["Jy"], jz=matrices["Jz"],
        kx=matrices["Kx"], ky=matrices["Ky"], kz=matrices["Kz"],
        vt=matrices["Vt"], vx=matrices["Vx"], vy=matrices["Vy"], vz=matrices["Vz"],
        t=t_map,
    )


def load_json(path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc


def save_json(doc: Any, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle, indent=1)
        handle.write("\n")
