"""JSON document formats for backbones and generator sets.

Two schemas, both plain JSON:

Backbone document (input to `validate`, embedded in generator documents):

    {
      "blocks": [{"A": "1/2", "B": 0}, ...],     # half-integers as "p/2" strings or ints
      "edges": [[0, 1], ...],                     # block-index pairs
      "algebra": "ds" | "ads"                     # optional, default "ds"
    }

Generator document (output of `generate`, input to `verify`), format 2:

    {
      "format": 2,
      "algebra": "ds" | "ads",
      "backbone": {...backbone document...},
      "t": [{"edge": [i, j], "forward": float, "reverse": float}, ...],
                                                  # each a backbone edge, at most once
      "generators": [
        {"name": "Jx", "rows": n, "cols": n,
         "row": [...], "col": [...],              # positions of the stored entries
         "re": [...], "im": [...]},               # their real and imaginary parts
        ...
      ]
    }

Each matrix lists its non-zero entries as four columns of equal length.
"re" or "im" is left out only when every part in it is +0.0 (a -0.0 part
is written), and a missing one reads as +0.0 parts.  `verify` also reads
format 1, the same document without "format" and with
`"entries": [[row, col, re, im], ...]` in place of the four columns; its
entries are transposed into the same columns, so one checker serves both.
Any other "format" value is refused.

The schemas above are shown spread out; `save_json` and `generate`
write each document as one line of compact JSON.  Entries are listed in
row-major order, each (row, col) at most once.

`generators_to_doc` holds each matrix's four columns as the stored numpy
arrays, so `write_json` and `save_json` write it; `json.dumps` does not
take it.  `write_json` turns each array straight into text from tables
kept for that one document, one column at a time: a position from the
texts of 0..n-1, indexed by the column, and a float from
`float.__repr__` of each distinct value, keyed by its bits (a document
repeats a few closed-form values many times).  Arrays holding NaN or
infinities, and everything else, go through the C encoder.  `load_json`
parses each distinct number text once.  The text is what `json.dumps`
writes for the document with each column made a list, and the round
trip stays bit-exact.
"""

from __future__ import annotations

import json
import math
import re
from typing import Any, Iterator, Optional, Sequence, TextIO

import numpy as np

from .blocks import BlockLabel
from .numeric import Sparse
from .representation import GENERATOR_NAMES, Algebra, BackboneGraph, GeneratorSet

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

class DocumentError(ValueError):
    """Raised for malformed or inconsistent documents."""


def _parse_algebra(value: Any) -> Algebra:
    if value in (None, "ds"):
        return Algebra.DE_SITTER
    if value == "ads":
        return Algebra.ANTI_DE_SITTER
    raise DocumentError(f"algebra must be 'ds' or 'ads', got {value!r}")


def _parse_twice(value: Any, context: str) -> int:
    """Twice a label written as an int or as a "p", "p/1" or "p/2" string."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return 2 * int(value)
    # ASCII digits only: int() would also read "1_0", "+1", " 2" and "١"
    match = re.fullmatch(r"(-?[0-9]+)(?:/([0-9]+))?", value.strip()) if isinstance(value, str) else None
    if match:
        try:
            numerator, denominator = int(match[1]), int(match[2] or 1)
        except ValueError:  # more digits than int() reads
            denominator = None
        if denominator in (1, 2):
            return 2 * numerator // denominator
    raise DocumentError(
        f"bad half-integer for {context}: {value!r} (an int, or a 'p', 'p/1' or 'p/2' string)"
    )


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
        twice_a = _parse_twice(entry["A"], f"block {pos} A")
        twice_b = _parse_twice(entry["B"], f"block {pos} B")
        try:
            blocks.append(BlockLabel(twice_a=twice_a, twice_b=twice_b))
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


def _matrix_columns(m: Sparse) -> dict[str, np.ndarray]:
    """The row, col, re and im columns of a matrix's stored entries, in
    row-major (key) order; "re" or "im" is left out when every part in it
    is +0.0."""
    m = m.reduced()
    rows, cols = np.divmod(m.keys, m.n)
    columns = {"row": rows, "col": cols}
    for key, part in (("re", m.vals.real), ("im", m.vals.imag)):
        # a -0.0 part must be written for the round trip to keep its bits
        if part.any() or np.signbit(part).any():
            columns[key] = part
    return columns


def generators_to_doc(g: GeneratorSet) -> dict:
    """The generator document of g, each matrix column a numpy array, as
    `write_json` writes it without making Python number lists."""
    t_entries = []
    for i, j in sorted(g.backbone.edges):
        t_entries.append(
            {"edge": [i, j], "forward": g.t.get((i, j)), "reverse": g.t.get((j, i))}
        )
    return {
        "format": 2,
        "algebra": g.algebra.value,
        "backbone": backbone_to_doc(g.backbone, g.algebra),
        "t": t_entries,
        "generators": [
            {"name": name, "rows": m.n, "cols": m.n, **_matrix_columns(m)}
            for name, m in g.matrices().items()
        ],
    }


Columns = tuple[Sequence, Sequence, Optional[Sequence], Optional[Sequence]]


def _entry_columns(entry: dict, name: str) -> Columns:
    """The row, col, re and im columns of a format-1 matrix, transposed from
    its [row, col, re, im] entries."""
    if "entries" not in entry:
        raise DocumentError(f"{name} needs 'entries'")
    entries = _list(entry["entries"], f"{name} entries")
    if not entries:
        return [], [], [], []
    if set(map(type, entries)) != {list} or set(map(len, entries)) != {4}:
        bad = next(e for e in entries if type(e) is not list or len(e) != 4)
        raise DocumentError(f"{name} entry {bad!r} must be [row, col, re, im]")
    return tuple(zip(*entries))


def _format2_columns(entry: dict, name: str) -> Columns:
    """The row, col, re and im columns of a format-2 matrix; a missing re or
    im column is None."""
    if "row" not in entry or "col" not in entry:
        raise DocumentError(f"{name} needs 'row' and 'col'")
    columns = [
        None if key not in entry else _list(entry[key], f"{name} {key!r}")
        for key in ("row", "col", "re", "im")
    ]
    if len({len(column) for column in columns if column is not None}) > 1:
        raise DocumentError(f"{name} columns 'row', 'col', 're' and 'im' differ in length")
    return tuple(columns)


def _matrix_from_columns(columns: Columns, name: str, dim: int) -> Sparse:
    """The dim x dim matrix whose entries the columns list, as a reduced
    `Sparse` (explicit zero entries dropped).  A re or im column of None
    holds +0.0 parts.

    The checks run once per column rather than once per entry: type()
    tests keep booleans out, positions are range-checked as index arrays
    (an integer beyond the index type is out of range), and values must
    be finite as floats.
    """
    rows, cols, re, im = columns
    if not rows:
        return Sparse.zero(dim)
    if set(map(type, rows)) | set(map(type, cols)) != {int}:
        bad = next(i for i, rc in enumerate(zip(rows, cols)) if set(map(type, rc)) != {int})
        raise DocumentError(
            f"{name} entry position ({rows[bad]!r}, {cols[bad]!r}) must be integers"
        )
    try:
        r, c = np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp)
        inside = ((r >= 0) & (r < dim) & (c >= 0) & (c < dim)).all()
    except OverflowError:  # an integer beyond the index type
        inside = False
    if not inside:
        bad = next(i for i, rc in enumerate(zip(rows, cols)) if not all(0 <= x < dim for x in rc))
        raise DocumentError(f"{name} entry ({rows[bad]}, {cols[bad]}) out of range")
    values = np.zeros(len(rows), dtype=complex)
    for part, column in ((values.real, re), (values.imag, im)):
        if column is None:
            continue
        if not set(map(type, column)) <= {int, float}:
            bad = next(i for i, x in enumerate(column) if type(x) not in (int, float))
            raise DocumentError(f"{name} entry ({rows[bad]}, {cols[bad]}) must hold two numbers")
        try:
            part[:] = column
        except OverflowError:  # an integer beyond the float range
            part[:] = [_as_float(x) for x in column]
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise DocumentError(f"{name} entry ({rows[bad]}, {cols[bad]}) must be a finite number")
    keys = r * dim + c
    # generators_to_doc lists entries in increasing order, so the sort and
    # the duplicate search are only needed for documents written some other way
    if (np.diff(keys) > 0).all():
        nonzero = values != 0
        return Sparse(dim, keys[nonzero], values[nonzero], reduced=True)
    unique, counts = np.unique(keys, return_counts=True)
    if (counts > 1).any():
        row, col = divmod(int(unique[np.argmax(counts > 1)]), dim)
        raise DocumentError(f"{name} entry ({row}, {col}) is listed twice")
    return Sparse(dim, keys, values).reduced()


def _format_reader(doc: dict):
    """The column reader for the document's format: 2 when "format" is 2,
    1 (entry lists) when there is no "format" key."""
    if "format" not in doc:
        return _entry_columns
    if type(doc["format"]) is int and doc["format"] == 2:
        return _format2_columns
    raise DocumentError(
        f"unknown generator document format {doc['format']!r}: "
        "'format' must be 2, or absent for entry lists"
    )


def generators_from_doc(doc: Any) -> GeneratorSet:
    if not isinstance(doc, dict):
        raise DocumentError("generator document must be a JSON object")
    read_columns = _format_reader(doc)
    algebra = _parse_algebra(doc.get("algebra"))
    if "backbone" not in doc:
        raise DocumentError("generator document missing 'backbone'")
    backbone, named = backbone_from_doc(doc["backbone"])
    if doc["backbone"].get("algebra") is not None and named is not algebra:
        raise DocumentError(
            f"the document's algebra is {algebra.value!r} but its backbone's is {named.value!r}"
        )
    dim = backbone.dim

    t_map: dict[tuple[int, int], float] = {}
    listed: set[tuple[int, int]] = set()
    for entry in _list(doc.get("t", []), "'t'"):
        if not isinstance(entry, dict) or "edge" not in entry:
            raise DocumentError("each t entry needs an 'edge'")
        i, j = _pair(entry["edge"], "t edge")
        edge = (min(i, j), max(i, j))
        if edge not in backbone.edges:
            raise DocumentError(f"t edge {[i, j]} is not a backbone edge")
        if edge in listed:
            raise DocumentError(f"t edge {[i, j]} is listed twice")
        listed.add(edge)
        if entry.get("forward") is not None:
            t_map[(i, j)] = _finite(entry["forward"], f"t forward on edge {[i, j]}")
        if entry.get("reverse") is not None:
            t_map[(j, i)] = _finite(entry["reverse"], f"t reverse on edge {[i, j]}")

    raw_gens = doc.get("generators")
    if not isinstance(raw_gens, list):
        raise DocumentError("generator document missing 'generators' list")
    matrices: dict[str, Sparse] = {}
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
        matrices[name] = _matrix_from_columns(read_columns(entry, name), name, dim)
    missing = [n for n in GENERATOR_NAMES if n not in matrices]
    if missing:
        raise DocumentError(f"generator document missing matrices: {missing}")

    return GeneratorSet(
        backbone, algebra, *(matrices[n] for n in GENERATOR_NAMES), t=t_map
    )


class _ParsedFloats(dict):
    """float(text) of each number text with a fraction or an exponent,
    parsed when first looked up."""

    def __missing__(self, text: str) -> float:
        value = self[text] = float(text)
        return value


def load_json(path) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle, parse_float=_ParsedFloats().__getitem__)
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:
        # malformed JSON, non-UTF-8 bytes, or an integer literal past
        # Python's digit limit for int(str)
        raise DocumentError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise DocumentError(f"{path} nests arrays or objects too deeply") from exc


_encode = json.JSONEncoder(separators=(",", ":")).encode


class _NumberTexts:
    """The texts of one document's numbers, each made once: a float's
    `float.__repr__` keyed by its bits (so -0.0 and 0.0 keep their own),
    and the ints 0..n-1 as an object array indexed by the int."""

    def __init__(self):
        self.floats: dict[int, str] = {}
        self.ints = np.empty(0, dtype=object)

    def column(self, array: np.ndarray) -> str:
        """The JSON text of an array: a 1-D column of finite floats, or of
        ints from 0 to at most its length, is joined from the tables; NaN,
        infinities and any other array go through the C encoder."""
        if array.ndim == 1 and array.size and array.dtype.kind in "iu":
            top = int(array.max()) + 1
            if len(self.ints) < top <= array.size:
                self.ints = np.array(list(map(str, range(top))), dtype=object)
            if top <= len(self.ints) and array.min() >= 0:
                return "[" + ",".join(self.ints[array].tolist()) + "]"
        elif array.ndim == 1 and array.size and array.dtype == np.float64:
            if np.isfinite(array).all():
                bits, index = np.unique(array.view(np.int64), return_inverse=True)
                texts = self.floats
                table = [
                    texts[key] if key in texts else texts.setdefault(key, float.__repr__(number))
                    for key, number in zip(bits.tolist(), bits.view(float).tolist())
                ]
                return "[" + ",".join(np.array(table, dtype=object)[index].tolist()) + "]"
        return _encode(array.tolist())


def _json_pieces(value: Any, texts: _NumberTexts, depth: int = 3) -> Iterator[str]:
    """The compact JSON text of value, in pieces that concatenate to the
    output of one json.dumps call on value with its arrays made lists.

    Arrays and string-keyed objects are split for `depth` levels, so each
    column of a generator document's matrices is reached.  A numpy array
    there is written from the document's number texts; anything else left
    goes through its own call of the C encoder.  One call for the whole
    document would hold every number's text at once (a few MB at dim
    400), and streaming with json.dump, or any indent, falls back to the
    pure-Python encoder.
    """
    if isinstance(value, np.ndarray):
        yield texts.column(value)
    elif isinstance(value, list) and depth:
        yield "["
        for index, item in enumerate(value):
            if index:
                yield ","
            yield from _json_pieces(item, texts, depth - 1)
        yield "]"
    elif isinstance(value, dict) and depth and all(type(key) is str for key in value):
        yield "{"
        for index, (key, item) in enumerate(value.items()):
            yield ("," if index else "") + _encode(key) + ":"
            yield from _json_pieces(item, texts, depth - 1)
        yield "}"
    else:
        yield _encode(value)


def write_json(doc: Any, handle: TextIO) -> None:
    """Write the document to a text stream as one line of compact JSON."""
    handle.writelines(_json_pieces(doc, _NumberTexts()))
    handle.write("\n")


def save_json(doc: Any, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        write_json(doc, handle)
