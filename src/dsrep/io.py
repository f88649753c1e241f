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

The schemas above are shown spread out; `save_json` and `generate`
write each document as one line of compact JSON.  Entries are listed in
row-major order, each (row, col) at most once.  Floats are serialised by
the json module, whose repr-based encoding round-trips bit-exactly.
"""

from __future__ import annotations

import json
import math
from typing import Any, Iterator, TextIO

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
    "write_json",
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


def _as_float(value: int | float) -> float:
    """float(value), or infinity for an integer beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _finite(value: Any, context: str) -> float:
    """A JSON number that is finite as a float; NaN and infinities are refused."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        number = _as_float(value)
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
    # row-major like np.nonzero, which is ~3x slower on complex input
    keys = np.flatnonzero(m != 0)
    rows, cols = np.divmod(keys, m.shape[1])
    values = m.take(keys)
    columns = (rows.tolist(), cols.tolist(), values.real.tolist(), values.imag.tolist())
    return list(map(list, zip(*columns)))


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


def _matrix_from_entries(entries: list, name: str, dim: int) -> np.ndarray:
    """The dim x dim matrix listed by [row, col, re, im] entries.

    The checks run once per column rather than once per entry: type()
    tests keep booleans out, positions are range-checked as Python ints
    before numpy sees them, and values must be finite as floats.
    """
    m = np.zeros((dim, dim), dtype=complex)
    if not entries:
        return m
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {4}:
        bad = next(e for e in entries if type(e) is not list or len(e) != 4)
        raise DocumentError(f"{name} entry {bad!r} must be [row, col, re, im]")
    rows, cols, re, im = zip(*entries)
    if set(map(type, rows)) | set(map(type, cols)) != {int}:
        bad = next(e for e in entries if type(e[0]) is not int or type(e[1]) is not int)
        raise DocumentError(f"{name} entry position ({bad[0]!r}, {bad[1]!r}) must be integers")
    if min(rows) < 0 or min(cols) < 0 or max(rows) >= dim or max(cols) >= dim:
        bad = next(e for e in entries if not (0 <= e[0] < dim and 0 <= e[1] < dim))
        raise DocumentError(f"{name} entry ({bad[0]}, {bad[1]}) out of range")
    for part in (re, im):
        if not set(map(type, part)) <= {int, float}:
            bad = next(e for e in entries if not {type(e[2]), type(e[3])} <= {int, float})
            raise DocumentError(f"{name} entry ({bad[0]}, {bad[1]}) must hold two numbers")
    values = np.empty(len(entries), dtype=complex)
    try:
        values.real = re
        values.imag = im
    except OverflowError:  # an integer beyond the float range
        values.real = [_as_float(x) for x in re]
        values.imag = [_as_float(x) for x in im]
    finite = np.isfinite(values)
    if not finite.all():
        r, c = entries[int(np.argmin(finite))][:2]
        raise DocumentError(f"{name} entry ({r}, {c}) must be a finite number")
    keys = np.array(rows, dtype=np.intp) * dim + np.array(cols, dtype=np.intp)
    # generators_to_doc lists entries in increasing order, so the sort is
    # only needed for documents written some other way
    if not (np.diff(keys) > 0).all():
        unique, counts = np.unique(keys, return_counts=True)
        if (counts > 1).any():
            r, c = divmod(int(unique[np.argmax(counts > 1)]), dim)
            raise DocumentError(f"{name} entry ({r}, {c}) is listed twice")
    m.reshape(-1)[keys] = values
    return m


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
        if name in matrices:
            raise DocumentError(f"generator {name} is listed twice")
        if "rows" not in entry or "cols" not in entry:
            raise DocumentError(f"{name} needs 'rows' and 'cols'")
        rows, cols = _index(entry["rows"], f"{name} rows"), _index(entry["cols"], f"{name} cols")
        if rows != dim or cols != dim:
            raise DocumentError(
                f"{name} is {rows}x{cols} but the backbone implies {dim}x{dim}"
            )
        matrices[name] = _matrix_from_entries(
            _list(entry.get("entries", []), f"{name} entries"), name, dim
        )
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
    except ValueError as exc:
        # malformed JSON, non-UTF-8 bytes, or an integer literal past
        # Python's digit limit for int(str)
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc


_encode = json.JSONEncoder(separators=(",", ":")).encode


def _json_pieces(value: Any, depth: int = 2) -> Iterator[str]:
    """The compact JSON text of value, in pieces that concatenate to the
    output of one json.dumps call.

    Arrays and string-keyed objects are split for `depth` levels, so each
    matrix of a generator document goes through its own call of the C
    encoder.  One call for the whole document holds every number's text
    at once (a few MB at dim 400), and streaming with json.dump, or any
    indent, falls back to the pure-Python encoder.
    """
    if isinstance(value, list) and depth:
        yield "["
        for index, item in enumerate(value):
            if index:
                yield ","
            yield from _json_pieces(item, depth - 1)
        yield "]"
    elif isinstance(value, dict) and depth and all(type(key) is str for key in value):
        yield "{"
        for index, (key, item) in enumerate(value.items()):
            yield ("," if index else "") + _encode(key) + ":"
            yield from _json_pieces(item, depth - 1)
        yield "}"
    else:
        yield _encode(value)


def write_json(doc: Any, handle: TextIO) -> None:
    """Write the document to a text stream as one line of compact JSON."""
    handle.writelines(_json_pieces(doc))
    handle.write("\n")


def save_json(doc: Any, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        write_json(doc, handle)
