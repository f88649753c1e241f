"""JSON document formats for backbones and generator sets.

Two schemas, both plain JSON:

Backbone document (input to `validate`):

    {
      "blocks": [{"A": "1/2", "B": 0}, ...],     # half-integers as "p/2" strings or ints
      "edges": [[0, 1], ...],                     # block-index pairs
      "algebra": "ds" | "ads"                     # optional, default "ds"
    }

Generator document (output of `generate`, input to `verify`):

    {
      "format": 3,
      "algebra": "ds" | "ads",
      "blocks": [{"A": "1/2", "B": "0"}, ...],   # the labels of the diagonal blocks, in order
      "generators": [
        {"name": "Jx",
         "row": [...], "col": [...],              # positions of the stored entries
         "re": [...], "im": [...]},               # their real and imaginary parts
        ...
      ]
    }

Each matrix lists its non-zero entries as four columns of equal length.
"re" or "im" is left out only when every part in it is +0.0 (a -0.0 part
is written), and a missing one reads as +0.0 parts.  The four top-level
keys are required, "format" must be 3, and the dimension of every
matrix is that of the blocks.  A generator document holds no edges: the
V rectangles say which blocks are joined, so `verify` checks every field
it has.  In both schemas an object, whether the document, a block or a
matrix, holds only the keys shown; any other key is refused by name.

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
from typing import Any, Iterator, TextIO

import numpy as np

from .blocks import BlockLabel
from .numeric import Sparse
from .representation import (
    GENERATOR_NAMES,
    Algebra,
    BackboneGraph,
    GeneratorSet,
    bounded_blocks,
)

__all__ = [
    "DocumentError",
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
    if value not in ("ds", "ads"):
        raise DocumentError(f"algebra must be 'ds' or 'ads', got {value!r}")
    return Algebra(value)


# the keys each object of the two schemas may hold
_BACKBONE_KEYS = frozenset(("blocks", "edges", "algebra"))
_BLOCK_KEYS = frozenset(("A", "B"))
_GENERATOR_DOC_KEYS = frozenset(("format", "algebra", "blocks", "generators"))
_COLUMNS = ("row", "col", "re", "im")
_MATRIX_KEYS = frozenset(("name", *_COLUMNS))


def _known_keys(obj: dict, known: frozenset[str], context: str) -> None:
    """Refuse a key of obj that its schema does not name."""
    if not obj.keys() <= known:
        stray = next(key for key in obj if key not in known)
        raise DocumentError(f"{context} has unknown key {stray!r}; it may hold {sorted(known)}")


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


def _pair(value: Any, context: str) -> tuple[int, int]:
    """Two JSON integers; floats and booleans are refused."""
    if isinstance(value, list) and len(value) == 2 and type(value[0]) is type(value[1]) is int:
        return value[0], value[1]
    raise DocumentError(f"{context} must be a pair of block indices, got {value!r}")


def _as_float(value: int | float) -> float:
    """float(value), or infinity for an integer beyond the float range."""
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _list(value: Any, context: str) -> list:
    if not isinstance(value, list):
        raise DocumentError(f"{context} must be a list")
    return value


def _blocks(raw: Any) -> tuple[BlockLabel, ...]:
    """The block labels of a document's "blocks" list, at most MAX_DIM
    dimensions in all."""
    if not isinstance(raw, list) or not raw:
        raise DocumentError("'blocks' must be a non-empty list")
    labels = []
    for pos, entry in enumerate(raw):
        if not isinstance(entry, dict) or "A" not in entry or "B" not in entry:
            raise DocumentError(f"block {pos} must be an object with 'A' and 'B'")
        _known_keys(entry, _BLOCK_KEYS, f"block {pos}")
        twice_a = _parse_twice(entry["A"], f"block {pos} A")
        twice_b = _parse_twice(entry["B"], f"block {pos} B")
        try:
            labels.append(BlockLabel(twice_a=twice_a, twice_b=twice_b))
        except ValueError as exc:
            raise DocumentError(str(exc)) from exc
    try:
        return bounded_blocks(labels)
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


def backbone_from_doc(doc: Any) -> tuple[BackboneGraph, Algebra]:
    if not isinstance(doc, dict):
        raise DocumentError("backbone document must be a JSON object")
    _known_keys(doc, _BACKBONE_KEYS, "backbone document")
    if "blocks" not in doc:
        raise DocumentError("backbone document missing 'blocks'")
    blocks = _blocks(doc["blocks"])
    raw_edges = doc.get("edges", [])
    if not isinstance(raw_edges, list):
        raise DocumentError("'edges' must be a list of index pairs")
    edges = [_pair(pair, f"edge {pos}") for pos, pair in enumerate(raw_edges)]
    algebra = _parse_algebra(doc.get("algebra", "ds"))
    try:
        return BackboneGraph.make(blocks, edges), algebra
    except ValueError as exc:
        raise DocumentError(str(exc)) from exc


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
    return {
        "format": 3,
        "algebra": g.algebra.value,
        "blocks": [{"A": str(b.a), "B": str(b.b)} for b in g.blocks],
        "generators": [{"name": name, **_matrix_columns(m)} for name, m in g.matrices().items()],
    }


def _matrix_from_entry(entry: dict, name: str, dim: int) -> Sparse:
    """The dim x dim matrix whose entries the row, col, re and im columns of
    a generator entry list, as a reduced `Sparse` (explicit zero entries
    dropped).  A missing re or im column holds +0.0 parts.

    The checks run once per column rather than once per entry: type()
    tests keep booleans out, positions are range-checked as index arrays
    (an integer beyond the index type is out of range), and values must
    be finite as floats.
    """
    if "row" not in entry or "col" not in entry:
        raise DocumentError(f"{name} needs 'row' and 'col'")
    rows, cols, re, im = (
        None if key not in entry else _list(entry[key], f"{name} {key!r}")
        for key in _COLUMNS
    )
    if len({len(column) for column in (rows, cols, re, im) if column is not None}) > 1:
        raise DocumentError(f"{name} columns 'row', 'col', 're' and 'im' differ in length")
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


def generators_from_doc(doc: Any) -> GeneratorSet:
    if not isinstance(doc, dict):
        raise DocumentError("generator document must be a JSON object")
    if type(doc.get("format")) is not int or doc["format"] != 3:
        raise DocumentError(
            f"unknown generator document format {doc.get('format')!r}: 'format' must be 3"
        )
    _known_keys(doc, _GENERATOR_DOC_KEYS, "generator document")
    missing = sorted(_GENERATOR_DOC_KEYS - doc.keys())
    if missing:
        raise DocumentError(f"generator document missing {missing}")
    algebra = _parse_algebra(doc["algebra"])
    blocks = _blocks(doc["blocks"])
    dim = sum(b.dim for b in blocks)

    raw_gens = _list(doc["generators"], "'generators'")
    matrices: dict[str, Sparse] = {}
    for pos, entry in enumerate(raw_gens):
        if not isinstance(entry, dict):
            raise DocumentError(f"generator {pos} must be a JSON object")
        name = entry.get("name")
        if name not in GENERATOR_NAMES:
            raise DocumentError(f"unknown generator name {name!r}")
        if name in matrices:
            raise DocumentError(f"generator {name} is listed twice")
        _known_keys(entry, _MATRIX_KEYS, name)
        matrices[name] = _matrix_from_entry(entry, name, dim)
    missing = [n for n in GENERATOR_NAMES if n not in matrices]
    if missing:
        raise DocumentError(f"generator document missing matrices: {missing}")

    return GeneratorSet(blocks, algebra, *(matrices[n] for n in GENERATOR_NAMES))


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
