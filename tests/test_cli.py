"""Command-line interface, document round-trips, golden tables."""

import dataclasses
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import format1_doc, gelfand_tsetlin_generators, listed_doc
from hypothesis import given, settings
from hypothesis import strategies as st

from dsrep.cli import build_parser, main
from dsrep.io import (
    DocumentError,
    backbone_from_doc,
    backbone_to_doc,
    generators_from_doc,
    generators_to_doc,
    load_json,
    save_json,
    write_json,
)
from dsrep.numeric import Sparse
from dsrep.representation import (
    MAX_DIM,
    Algebra,
    CanonicalSpec,
    Family,
    assemble_canonical,
    canonical_backbone,
)
from dsrep.verify import build_report, casimir_invariants_closed_form

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


# JSON trees for the writer: float lists long enough to repeat values, with
# the numbers whose text is special (signed zero, the extremes, NaN and the
# infinities), and lists mixing floats with ints, booleans and ints past
# int64.
_FINITE_EDGE_FLOATS = st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.5, 0.1]
)
_EDGE_FLOATS = _FINITE_EDGE_FLOATS | st.sampled_from([math.nan, math.inf, -math.inf])
_FLOAT_LISTS = st.lists(
    _FINITE_EDGE_FLOATS | st.floats(allow_nan=False, allow_infinity=False), max_size=200
) | st.lists(_EDGE_FLOATS | st.floats(), max_size=60)
_MIXED_LISTS = st.lists(
    _EDGE_FLOATS | st.floats() | st.integers() | st.booleans()
    | st.sampled_from([2**63, -(2**63) - 1, 10**30]),
    max_size=12,
)
_JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | _EDGE_FLOATS | st.text(max_size=3)
    | _FLOAT_LISTS | _MIXED_LISTS | st.lists(st.integers(), max_size=12),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12,
)
# numpy arrays for the array writer: int columns that the per-document int
# table covers or not (negative, large, longer than their largest value),
# float columns with the special texts, and arrays of other kinds.
_ARRAYS = (
    st.lists(st.integers(0, 40) | st.integers(-(2**63), 2**63 - 1), max_size=60).map(
        lambda items: np.array(items, dtype=np.int64)
    )
    | _FLOAT_LISTS.map(lambda items: np.array(items, dtype=float))
    | st.lists(st.booleans(), max_size=8).map(np.array)
    | st.lists(st.sampled_from([-0.0, 0.0, 0.1, 0.5]), max_size=8).map(
        lambda items: np.array(items, dtype=np.float32)
    )
)


def _dumps_listed(doc) -> str:
    """The text `write_json` must write for doc: json.dumps of it with every
    array made a list."""
    return json.dumps(doc, separators=(",", ":"), default=np.ndarray.tolist) + "\n"


class TestDocumentRoundTrip:
    def test_backbone_roundtrip(self, tmp_path):
        g = canonical_backbone(CanonicalSpec(Family.TYPE_B, 3))
        path = tmp_path / "backbone.json"
        save_json(backbone_to_doc(g, Algebra.ANTI_DE_SITTER), path)
        loaded, algebra = backbone_from_doc(load_json(path))
        assert loaded == g
        assert algebra is Algebra.ANTI_DE_SITTER

    @pytest.mark.parametrize(
        "make",
        [
            lambda: assemble_canonical(CanonicalSpec(Family.TYPE_B, 2)),
            lambda: assemble_canonical(CanonicalSpec(Family.TYPE_A, 3)),
            lambda: gelfand_tsetlin_generators((3, 1), Algebra.DE_SITTER),
            lambda: gelfand_tsetlin_generators((5, 3), Algebra.ANTI_DE_SITTER),
            lambda: gelfand_tsetlin_generators((6, 2), Algebra.DE_SITTER),
        ],
        ids=["b2", "a3", "so5-3/2-1/2", "so5-5/2-3/2-ads", "so5-3-1"],
    )
    def test_generators_roundtrip_bit_exact(self, tmp_path, make):
        # so(5) backbones: cyclic, solved with allow_noncanonical=True
        gens = make()
        path = tmp_path / "rep.json"
        save_json(generators_to_doc(gens), path)
        loaded = generators_from_doc(load_json(path))
        assert loaded.t == gens.t
        for name, m in gens.generators().items():
            got = loaded.generators()[name]
            assert np.array_equal(m, got), name
            # the stored entries keep every bit, signed zeros included
            nonzero = m != 0
            assert m[nonzero].tobytes() == got[nonzero].tobytes(), name

    def test_roundtrip_residuals_identical(self, tmp_path):
        gens = assemble_canonical(CanonicalSpec(Family.TYPE_A, 3))
        before = build_report(gens)
        path = tmp_path / "rep.json"
        save_json(generators_to_doc(gens), path)
        after = build_report(generators_from_doc(load_json(path)))
        assert before.cr_residuals == after.cr_residuals
        assert before.hermiticity_residuals == after.hermiticity_residuals

    @pytest.mark.parametrize(
        "doc",
        [
            {"a": [1, {"b": [2.5, -0.0]}], "c": {}, "d": []},
            [{"x": {"y": {"z": [1]}}}, "s", None, True],
            {"keys": {1: "int", "s": {2: [3]}}},
            float("nan"),
        ],
        ids=["nested", "array-root", "non-string-keys", "scalar-root"],
    )
    def test_written_text_is_one_json_dumps_call(self, tmp_path, doc):
        path = tmp_path / "doc.json"
        save_json(doc, path)
        assert path.read_text() == json.dumps(doc, separators=(",", ":")) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(doc=_JSON_TREES)
    def test_written_text_matches_json_dumps(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "drawn.json"
        save_json(doc, path)
        assert path.read_text() == json.dumps(doc, separators=(",", ":")) + "\n"

    @settings(max_examples=200, deadline=None)
    @given(arrays=st.lists(_ARRAYS, min_size=3, max_size=3))
    def test_written_arrays_match_json_dumps_of_their_lists(self, arrays):
        # arrays down to the depth the writer splits, sharing one document's tables
        first, second, third = arrays
        doc = {"a": first, "b": [second, {"c": third, "d": first}]}
        handle = io.StringIO()
        write_json(doc, handle)
        assert handle.getvalue() == _dumps_listed(doc)

    def test_read_floats_keep_json_load_bits(self, tmp_path):
        texts = ["-0.0", "0.0", "1E5", "1e5", "5e-324", "1e400", "-1e400", "0.1", "2.5e-3"]
        text = '{"a": [' + ",".join(texts * 100) + '], "b": {"c": -0.0, "d": [1, -0]}}'
        path = tmp_path / "floats.json"
        path.write_text(text)
        got, want = load_json(path), json.loads(text)
        assert got == want
        for ours, theirs in ((got["a"], want["a"]), ([got["b"]["c"]], [want["b"]["c"]])):
            assert set(map(type, ours)) == {float}
            assert np.array(ours).tobytes() == np.array(theirs).tobytes()
        assert got["b"]["d"] == [1, 0] and set(map(type, got["b"]["d"])) == {int}

    def test_half_integers_serialise_as_strings(self):
        g = canonical_backbone(CanonicalSpec(Family.TYPE_B, 2))
        doc = backbone_to_doc(g)
        assert doc["blocks"][0] == {"A": "1/2", "B": "0"}

    @pytest.mark.parametrize(
        "spelling,twice",
        [(1, 2), ("1", 2), ("3/2", 3), ("4/2", 4), (" 1/2 ", 1), ("1/1", 2), ("0", 0)],
    )
    def test_label_spellings_accepted(self, spelling, twice):
        graph, _ = backbone_from_doc({"blocks": [{"A": spelling, "B": spelling}]})
        value = Fraction(twice, 2)
        assert str(graph.blocks[0]) == f"({value},{value})"

    @pytest.mark.parametrize("field", ["A", "B"])
    @pytest.mark.parametrize(
        "spelling",
        ["1/3", "1.5", 1.5, 1.0, True, "x", "", "1/0", "1/-2", "-1/2", -1, None, "+1"],
        ids=repr,
    )
    def test_label_spellings_refused(self, spelling, field):
        block = {"A": 0, "B": 0, field: spelling}
        with pytest.raises(DocumentError):
            backbone_from_doc({"blocks": [block]})

    def test_bad_documents_rejected(self):
        with pytest.raises(DocumentError):
            backbone_from_doc({"blocks": []})
        with pytest.raises(DocumentError):
            backbone_from_doc({"blocks": [{"A": "1/3", "B": 0}]})
        with pytest.raises(DocumentError):
            backbone_from_doc({"blocks": [{"A": 0, "B": 0}], "algebra": "euclidean"})
        with pytest.raises(DocumentError):
            generators_from_doc({"algebra": "ds"})


class TestGenerate:
    def test_generate_and_verify(self, tmp_path, capsys):
        out = tmp_path / "rep1.json"
        assert main(["generate", "b", "2", "--out", str(out)]) == 0
        assert main(["verify", str(out)]) == 0
        text = capsys.readouterr().out
        assert "-C1 = 2.5" in text
        assert "PASS" in text

    def test_generate_ads(self, tmp_path, capsys):
        out = tmp_path / "rep2_ads.json"
        assert main(["generate", "a", "2", "--algebra", "ads", "--out", str(out)]) == 0
        doc = load_json(out)
        assert doc["algebra"] == "ads"
        assert main(["verify", str(out)]) == 0

    def test_generate_one_block_fails(self, capsys):
        assert main(["generate", "a", "1"]) == 2
        assert "two blocks" in capsys.readouterr().err

    def test_generate_over_the_dimension_bound(self, capsys):
        # dim ~3.3e14: refused before anything is allocated
        assert main(["generate", "a", "100000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(MAX_DIM) in err and "Traceback" not in err

    @pytest.mark.parametrize("where", ["a-directory", "a-missing-parent"])
    def test_unwritable_out_path(self, tmp_path, capsys, where):
        out = tmp_path if where == "a-directory" else tmp_path / "missing" / "rep.json"
        assert main(["generate", "a", "2", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {out}: ")
        assert "Traceback" not in captured.err

    def test_generate_stdout(self, capsys):
        assert main(["generate", "b", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["backbone"]["blocks"][0]["A"] == "1/2"

    def test_stdout_and_out_write_the_same_document(self, tmp_path, capsys):
        path = tmp_path / "rep.json"
        assert main(["generate", "a", "3", "--algebra", "ads", "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["generate", "a", "3", "--algebra", "ads"]) == 0
        text = capsys.readouterr().out
        assert text == path.read_text(encoding="utf-8")
        # one line of compact JSON, as one json.dumps call writes it
        assert text == json.dumps(json.loads(text), separators=(",", ":")) + "\n"

    def test_parser_is_built_once(self, tmp_path, capsys):
        assert build_parser() is build_parser()
        # and keeps nothing from one call to the next
        path = tmp_path / "rep.json"
        assert main(["generate", "b", "2", "--out", str(path)]) == 0
        assert main(["verify", str(path), "--format", "json"]) == 0
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("verdict: PASS")


class TestWrittenBytes:
    """`generate` and `save_json` write a generator document's arrays as
    the bytes json.dumps writes for its list view, `listed_doc`."""

    @pytest.mark.parametrize("algebra", ["ds", "ads"])
    @pytest.mark.parametrize("family", ["a", "b"])
    def test_generate_writes_json_dumps_of_the_list_view(self, tmp_path, capsys, family, algebra):
        path = tmp_path / "rep.json"
        for n in range(2, 13):
            gens = assemble_canonical(CanonicalSpec(Family(family), n), Algebra(algebra))
            want = json.dumps(listed_doc(gens), separators=(",", ":")) + "\n"
            assert main(["generate", family, str(n), "--algebra", algebra, "--out", str(path)]) == 0
            capsys.readouterr()
            assert path.read_text(encoding="utf-8") == want, n
            assert main(["generate", family, str(n), "--algebra", algebra]) == 0
            assert capsys.readouterr().out == want, n

    @pytest.mark.parametrize(
        "weight,algebra",
        [((3, 1), Algebra.DE_SITTER), ((5, 3), Algebra.ANTI_DE_SITTER), ((6, 2), Algebra.DE_SITTER)],
        ids=["so5-3/2-1/2", "so5-5/2-3/2-ads", "so5-3-1"],
    )
    def test_solver_built_sets(self, tmp_path, weight, algebra):
        gens = gelfand_tsetlin_generators(weight, algebra)
        path = tmp_path / "rep.json"
        save_json(generators_to_doc(gens), path)
        want = json.dumps(listed_doc(gens), separators=(",", ":")) + "\n"
        assert path.read_text(encoding="utf-8") == want

    def test_negative_zero_parts(self):
        # a3's Ky holds -0.0 imaginary parts, each written as -0.0
        gens = assemble_canonical(CanonicalSpec(Family.TYPE_A, 3))
        ky = next(m for m in generators_to_doc(gens)["generators"] if m["name"] == "Ky")
        assert np.signbit(ky["im"][ky["im"] == 0]).any()
        handle = io.StringIO()
        write_json(ky, handle)
        assert handle.getvalue() == _dumps_listed(ky)
        assert re.search(r'"im":\[(.*,)?-0\.0[,\]]', handle.getvalue())

    @pytest.mark.parametrize(
        "value,spelling",
        [(math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity")],
        ids=["nan", "inf", "-inf"],
    )
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_non_finite_entries_keep_the_encoders_spelling(
        self, tmp_path, capsys, value, spelling, part
    ):
        gens = assemble_canonical(CanonicalSpec(Family.TYPE_B, 3))
        vals = gens.jx.vals.copy()
        getattr(vals, "real" if part == "re" else "imag")[1] = value
        broken = dataclasses.replace(gens, jx=Sparse(gens.dim, gens.jx.keys, vals))
        path = tmp_path / "rep.json"
        save_json(generators_to_doc(broken), path)
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(listed_doc(broken), separators=(",", ":")) + "\n"
        assert spelling in text
        # never float.__repr__'s spelling
        assert not re.search(r"[\[,]-?(nan|inf)[,\]]", text)
        for fmt in ("pretty", "json"):
            assert main(["verify", str(path), "--format", fmt]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: Jx entry ") and "must be a finite number" in err

    def test_writer_holds_one_column_at_a_time(self):
        # type A N=20, dim 2870: the whole document's text is over ten times
        # its largest column's, so a writer that joins it fails the bound
        gens = assemble_canonical(CanonicalSpec(Family.TYPE_A, 20))
        doc = generators_to_doc(gens)
        largest = max(
            len(json.dumps(value.tolist(), separators=(",", ":")))
            for matrix in doc["generators"]
            for value in matrix.values()
            if isinstance(value, np.ndarray)
        )
        with open(os.devnull, "w", encoding="utf-8") as handle:
            tracemalloc.start()
            try:
                write_json(doc, handle)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert gens.dim == 2870
        assert peak < 8 * largest


class TestVerify:
    def test_tampered_document_fails_and_names_relation(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        main(["generate", "b", "3", "--out", str(out)])
        capsys.readouterr()
        doc = load_json(out)
        gen = next(gen for gen in doc["generators"] if gen["name"] == "Vx")
        for part in ("re", "im"):
            if part in gen:
                gen[part] = [2 * x for x in gen[part]]
        save_json(doc, out)
        assert main(["verify", str(out)]) == 1
        text = capsys.readouterr().out
        assert "FAIL" in text
        assert "[Vx," in text or "[Vt,Vx]" in text

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400", "0", "-0", "-1", "x"])
    def test_tolerance_must_be_finite_and_above_zero(self, tmp_path, capsys, value):
        out = tmp_path / "rep.json"
        assert main(["generate", "b", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as stop:
            # the = form, so that argparse does not read "-inf" as an option
            main(["verify", str(out), f"--tolerance={value}"])
        assert stop.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: dsrep verify")
        assert f"argument --tolerance: must be a finite number above zero, got {value!r}" in (
            captured.err
        )

    def test_tolerance_is_the_relation_bound(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert main(["generate", "b", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out), "--tolerance", "1e-12", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["passed"]
        assert main(["verify", str(out), "--tolerance", "1e-12"]) == 0
        assert "(tolerance 1e-12)" in capsys.readouterr().out

    def test_json_names_both_tolerances(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert main(["generate", "b", "2", "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["verify", str(out), "--tolerance", "1e-6", "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["cr_tolerance"] == 1e-6
        assert report["hermiticity_tolerance"] == 1e-11

    def test_verify_reports_casimirs(self, tmp_path, capsys):
        out = tmp_path / "rep6.json"
        main(["generate", "a", "4", "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        text = capsys.readouterr().out
        assert "-C1 = 18" in text
        assert "p = 4, q = 0" in text

    def test_verify_ten_dimensional_rep(self, tmp_path, capsys):
        out = tmp_path / "rep3.json"
        main(["generate", "b", "3", "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        text = capsys.readouterr().out
        assert "-C1 = 6" in text
        assert "-C2 = 12" in text

    def test_verify_json_format(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        main(["generate", "b", "2", "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", str(out), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is True
        assert payload["p"] == "3/2"

    def test_json_format_spells_non_finite_numbers(self, tmp_path, capsys):
        # each V entry is finite, but [Vx, Vy] overflows to inf - inf = NaN
        doc = _generated_doc(tmp_path, capsys, n="2")
        for name in ("Vx", "Vy"):
            gen = _gen(doc, name)
            for part in ("re", "im"):
                if part in gen:
                    gen[part] = [1e200 * x for x in gen[part]]
        path = tmp_path / "huge.json"
        save_json(doc, path)
        assert main(["verify", str(path), "--format", "json"]) == 1

        def refuse(token):
            raise ValueError(f"bare {token} is not JSON")

        captured = capsys.readouterr()
        assert captured.err == ""  # no numpy warnings: the report says it all
        payload = json.loads(captured.out, parse_constant=refuse)
        assert payload["passed"] is False
        assert payload["cr_residuals"]["[Vx,Vy] = i Jz"] == "NaN"

    def test_missing_file(self, capsys):
        assert main(["verify", "/nonexistent/rep.json"]) == 2
        assert "error" in capsys.readouterr().err


FORMATS = (1, 2)
_FIELDS = ("row", "col", "re", "im")


def _generated_doc(tmp_path, capsys, family="a", n="3", fmt=2, algebra="ds"):
    """The document `generate` writes (format 2), or its format-1 twin."""
    path = tmp_path / "rep.json"
    assert main(["generate", family, n, "--algebra", algebra, "--out", str(path)]) == 0
    capsys.readouterr()
    doc = load_json(path)
    return doc if fmt == 2 else format1_doc(generators_from_doc(doc))


def _gen(doc, name):
    return next(g for g in doc["generators"] if g["name"] == name)


def _entries(gen) -> list[list]:
    """A matrix's [row, col, re, im] entries, in either format."""
    if "entries" in gen:
        return gen["entries"]
    size = len(gen["row"])
    return [list(e) for e in zip(*(gen.get(f, [0.0] * size) for f in _FIELDS))]


def _set_entries(gen, entries) -> None:
    """Write [row, col, re, im] entries into a matrix in its own format."""
    if "entries" in gen:
        gen["entries"] = entries
    else:
        for index, field in enumerate(_FIELDS):
            gen[field] = [e[index] for e in entries]


def _set_entry(doc, name, value, field="re", index=0):
    """Set one part of one entry; a format-2 re or im column left out as
    all +0.0 is written out first."""
    gen = _gen(doc, name)
    if "entries" in gen:
        gen["entries"][index][_FIELDS.index(field)] = value
    else:
        gen.setdefault(field, [0.0] * len(gen["row"]))[index] = value


def _repeat_first_entry(doc, name, at=None):
    gen = _gen(doc, name)
    columns = [gen["entries"]] if "entries" in gen else [gen[f] for f in _FIELDS if f in gen]
    for column in columns:
        first = column[0]
        copy = list(first) if isinstance(first, list) else first
        column.insert(len(column) if at is None else at, copy)


def _shorten_first_entry(doc, name):
    """Format 1: a three-item entry.  Format 2: a value column one short."""
    gen = _gen(doc, name)
    if "entries" in gen:
        gen["entries"][0] = gen["entries"][0][:3]
    else:
        gen["re"].pop()


def _emptied(gen) -> dict:
    """A copy of a matrix entry with no stored entries, in its own format."""
    if "entries" in gen:
        return dict(gen, entries=[])
    return {key: ([] if key in _FIELDS else value) for key, value in gen.items()}


def _drop_positions(doc, name):
    gen = _gen(doc, name)
    gen.pop("entries" if "entries" in gen else "row")


class TestMalformedDocuments:
    """Bad documents exit 2 with an error line; nothing raises, nothing is coerced."""

    B3_BLOCKS = [{"A": 1, "B": 0}, {"A": "1/2", "B": "1/2"}, {"A": 0, "B": 1}]

    @pytest.mark.parametrize(
        "doc",
        [
            {"blocks": B3_BLOCKS, "edges": [["a", 1], [1, 2]]},
            {"blocks": B3_BLOCKS, "edges": [[0, 1.7], [1, 2]]},
            {"blocks": [{"A": True, "B": 0}] + B3_BLOCKS[1:], "edges": [[0, 1], [1, 2]]},
            # labels int() reads, or has too many digits for: a label is ASCII digits
            *({"blocks": [{"A": spelling, "B": 0}, {"A": "1/2", "B": "1/2"}, {"A": 0, "B": 1}],
               "edges": [[0, 1], [1, 2]]}
              for spelling in ("1_0", "\u0661", "\u0661/2", "+1", "1/ 2", "1" * 5000)),
        ],
        ids=[
            "string-edge-index", "float-edge-index", "boolean-label", "underscore-label",
            "arabic-indic-label", "arabic-indic-numerator", "plus-label", "inner-space-label",
            "5000-digit-label",
        ],
    )
    def test_backbone(self, tmp_path, capsys, doc):
        path = tmp_path / "backbone.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "breakage,same_message",
        [
            (lambda doc: doc["generators"].__setitem__(0, 5), True),
            (lambda doc: doc["generators"][0].pop("rows"), True),
            (lambda doc: doc["t"][0].__setitem__("edge", [0]), True),
            (lambda doc: _set_entry(doc, "Vx", float("nan")), True),
            (lambda doc: _set_entry(doc, "Kz", float("inf")), True),
            (lambda doc: doc["t"][0].__setitem__("forward", float("nan")), True),
            (lambda doc: _set_entry(doc, "Jz", 10**30, field="row"), True),
            (lambda doc: _set_entry(doc, "Vy", 10**400, field="im"), True),
            (lambda doc: _set_entry(doc, "Jx", -1, field="col"), True),
            (lambda doc: _set_entry(doc, "Kx", True), True),
            (lambda doc: _set_entry(doc, "Vt", False, field="row"), True),
            (lambda doc: _shorten_first_entry(doc, "Vz"), False),
            (lambda doc: _set_entry(doc, "Ky", "0.5"), True),
            (lambda doc: _repeat_first_entry(doc, "Jy"), True),
            (lambda doc: _repeat_first_entry(doc, "Jy", at=1), True),
            (lambda doc: doc["generators"].insert(0, _emptied(doc["generators"][7])), True),
            (lambda doc: (_set_entry(doc, "Jx", "x", field="col"),
                          _set_entry(doc, "Jx", -1, field="row", index=1)), True),
            (lambda doc: _drop_positions(doc, "Kx"), False),
            (lambda doc: doc["t"].append(dict(doc["t"][0], edge=[0, 2])), True),
            (lambda doc: doc["t"].append(dict(doc["t"][0], edge=[0, 7])), True),
            (lambda doc: doc["t"].append(dict(doc["t"][0], edge=[1, 0])), True),
        ],
        ids=[
            "non-object-generator", "missing-rows", "short-t-edge",
            "nan-entry", "infinite-entry", "nan-coupling",
            "huge-position", "huge-value", "negative-position", "boolean-value",
            "boolean-position", "three-item-entry", "string-value",
            "duplicate-position", "adjacent-duplicate-position", "duplicate-generator",
            "string-column-before-negative-row", "missing-positions",
            "t-edge-off-the-backbone", "t-edge-out-of-range", "t-edge-listed-twice",
        ],
    )
    def test_generator_document(self, tmp_path, capsys, breakage, same_message):
        # each case in both formats; where the breakage is one both formats
        # can hold, the shared column checker gives the same message
        errors = []
        for fmt in FORMATS:
            doc = _generated_doc(tmp_path, capsys, fmt=fmt)
            breakage(doc)
            path = tmp_path / "broken.json"
            path.write_text(json.dumps(doc))  # writes NaN and Infinity tokens
            assert main(["verify", str(path)]) == 2, fmt
            captured = capsys.readouterr()
            assert captured.err.startswith("error:"), fmt
            assert "PASS" not in captured.out
            with pytest.raises(DocumentError):
                generators_from_doc(load_json(path))
            errors.append(captured.err)
        if same_message:
            assert errors[0] == errors[1]

    @pytest.mark.parametrize("top", ["ds", "ads"])
    def test_generator_document_naming_two_algebras(self, tmp_path, capsys, top):
        # generated in one algebra, with the other named at the top level
        # or in the backbone: neither reading of the document is the right one
        other = {"ds": "ads", "ads": "ds"}[top]
        for fmt in FORMATS:
            doc = _generated_doc(tmp_path, capsys, family="b", fmt=fmt, algebra=top)
            doc["backbone"]["algebra"] = other
            path = tmp_path / "two_algebras.json"
            path.write_text(json.dumps(doc))
            assert main(["verify", str(path)]) == 2, fmt
            captured = capsys.readouterr()
            assert captured.err == (
                f"error: the document's algebra is {top!r} but its backbone's is {other!r}\n"
            ), fmt
            assert captured.out == ""

    def test_backbone_without_algebra_takes_the_documents(self, tmp_path, capsys):
        for fmt in FORMATS:
            doc = _generated_doc(tmp_path, capsys, family="b", fmt=fmt, algebra="ads")
            del doc["backbone"]["algebra"]
            path = tmp_path / "one_algebra.json"
            path.write_text(json.dumps(doc))
            assert main(["verify", str(path), "--format", "json"]) == 0, fmt
            report = json.loads(capsys.readouterr().out)
            assert report["algebra"] == "ads" and report["passed"], fmt

    @pytest.mark.parametrize(
        "breakage",
        [
            lambda gen: gen["col"].pop(),
            lambda gen: gen["row"].append(0),
            lambda gen: gen.__setitem__("im", gen["re"][:-1]),
            lambda gen: gen.__setitem__("re", {"0": 1.0}),
            lambda gen: gen.__setitem__("row", 3),
            lambda gen: gen.__setitem__("col", None),
        ],
        ids=["short-col", "long-row", "short-im", "object-column", "integer-column", "null-column"],
    )
    def test_format2_columns(self, tmp_path, capsys, breakage):
        doc = _generated_doc(tmp_path, capsys)
        breakage(_gen(doc, "Vx"))
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: Vx ") and "PASS" not in captured.out

    @pytest.mark.parametrize("value", [1, 3, "2", 2.0, True, None, [2]])
    def test_unknown_format(self, tmp_path, capsys, value):
        doc = dict(_generated_doc(tmp_path, capsys), format=value)
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: unknown generator document format")

    def test_documents_over_the_dimension_bound(self, tmp_path, capsys):
        # one 61 x 61 block; neither document holds anything that would be
        # allocated at that size: a one-block backbone, no matrices
        backbone = {"blocks": [{"A": 30, "B": 30}], "edges": []}
        for command, doc in (("validate", backbone), ("verify", {"backbone": backbone})):
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(doc))
            assert main([command, str(path)]) == 2
            assert str(MAX_DIM) in capsys.readouterr().err

    def test_float_text_past_the_float_range(self, tmp_path, capsys):
        # 1e400 reads as an infinity, which no entry may hold
        for fmt in FORMATS:
            doc = _generated_doc(tmp_path, capsys, fmt=fmt)
            _set_entry(doc, "Vy", 1234.5625, field="im")
            text = json.dumps(doc)
            assert text.count("1234.5625") == 1
            path = tmp_path / "overflow.json"
            path.write_text(text.replace("1234.5625", "1e400"))
            assert main(["verify", str(path)]) == 2, fmt
            captured = capsys.readouterr()
            assert captured.err.startswith("error: Vy ") and "PASS" not in captured.out
            with pytest.raises(DocumentError):
                generators_from_doc(load_json(path))

    def test_non_utf8_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"blocks": "\xe9"}')
        assert main(["validate", str(path)]) == 2

    def test_integer_literal_past_the_digit_limit(self, tmp_path, capsys):
        # int(str) refuses more than 4300 digits with a ValueError
        path = tmp_path / "digits.json"
        path.write_text('{"blocks": [{"A": ' + "1" * 5000 + ', "B": 0}]}')
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["verify", "validate"])
    @pytest.mark.parametrize("where", ["alone", "blocks"])
    def test_nesting_past_the_recursion_limit(self, tmp_path, capsys, command, where):
        # the parser gives up with a RecursionError
        nested = "[" * 200_000 + "]" * 200_000
        path = tmp_path / "deep.json"
        path.write_text(nested if where == "alone" else '{"blocks": ' + nested + "}")
        assert main([command, str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestEntryListing:
    """Explicit zero entries and any entry order load as the written matrices,
    in both formats."""

    @staticmethod
    def _verify_json(doc, path, capsys):
        path.write_text(json.dumps(doc))
        code = main(["verify", str(path), "--format", "json"])
        return code, capsys.readouterr().out

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("family,n", [("a", "3"), ("b", "4")])
    def test_explicit_zero_entries(self, tmp_path, capsys, family, n, fmt):
        doc = _generated_doc(tmp_path, capsys, family, n, fmt)
        want = self._verify_json(doc, tmp_path / "plain.json", capsys)
        gens = generators_from_doc(doc)
        dim = gens.dim
        for index, gen in enumerate(doc["generators"]):
            entries = _entries(gen)
            listed = {(r, c) for r, c, _, _ in entries}
            zeros = [[r, c, 0, 0] for r in range(dim) for c in range(dim) if (r, c) not in listed]
            if index % 2:  # every position listed, in row-major order
                _set_entries(gen, sorted(entries + zeros))
            else:  # some zeros after the non-zero entries
                _set_entries(gen, entries + zeros[::7])
        assert self._verify_json(doc, tmp_path / "zeros.json", capsys) == want
        loaded = generators_from_doc(doc)
        for name, m in gens.matrices().items():
            got = loaded.matrices()[name]
            assert np.array_equal(got.keys, m.keys), name
            assert got.vals.tobytes() == m.vals.tobytes(), name

    @pytest.mark.parametrize("fmt", FORMATS)
    @pytest.mark.parametrize("family,n", [("a", "3"), ("b", "4")])
    def test_entries_out_of_row_major_order(self, tmp_path, capsys, family, n, fmt):
        doc = _generated_doc(tmp_path, capsys, family, n, fmt)
        want = self._verify_json(doc, tmp_path / "ordered.json", capsys)
        gens = generators_from_doc(doc)
        rng = random.Random(0)
        for gen in doc["generators"]:
            entries = _entries(gen)
            rng.shuffle(entries)
            _set_entries(gen, entries)
        assert self._verify_json(doc, tmp_path / "shuffled.json", capsys) == want
        loaded = generators_from_doc(doc)
        for name, m in gens.matrices().items():
            got = loaded.matrices()[name]
            assert np.array_equal(got.keys, m.keys), name
            assert got.vals.tobytes() == m.vals.tobytes(), name
        # and the writer lists them in row-major order again
        assert listed_doc(loaded) == listed_doc(gens)


class TestFormats:
    """The columnar format 2 that `generate` writes and the entry-list
    format 1 that `verify` still reads."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: assemble_canonical(CanonicalSpec(Family.TYPE_A, 4)),
            lambda: assemble_canonical(CanonicalSpec(Family.TYPE_B, 5), Algebra.ANTI_DE_SITTER),
            lambda: gelfand_tsetlin_generators((5, 3), Algebra.DE_SITTER),
        ],
        ids=["a4", "b5-ads", "so5-5/2-3/2"],
    )
    def test_format1_twin_verifies_identically(self, tmp_path, capsys, make):
        gens = make()
        outputs = []
        for doc in (format1_doc(gens), listed_doc(gens)):
            path = tmp_path / "rep.json"
            save_json(doc, path)
            assert main(["verify", str(path), "--format", "json"]) == 0
            outputs.append(capsys.readouterr().out)
            loaded = generators_from_doc(load_json(path))
            for name, m in gens.matrices().items():
                got = loaded.matrices()[name]
                assert np.array_equal(got.keys, m.keys), name
                assert got.vals.tobytes() == m.vals.tobytes(), name
        assert outputs[0] == outputs[1]

    def test_parts_left_out_only_when_all_positive_zero(self):
        gens = assemble_canonical(CanonicalSpec(Family.TYPE_A, 3))
        doc = generators_to_doc(gens)
        assert doc["format"] == 2
        for gen in doc["generators"]:
            m = gens.matrices()[gen["name"]]
            assert len(gen["row"]) == len(gen["col"]) == m.keys.size
            for key, part in (("re", m.vals.real), ("im", m.vals.imag)):
                all_positive_zero = not part.any() and not np.signbit(part).any()
                assert (key not in gen) == all_positive_zero, (gen["name"], key)
        # Ky keeps its -0.0 imaginary parts; Jz is real
        ky = next(g for g in doc["generators"] if g["name"] == "Ky")
        assert any(x == 0 and np.signbit(x) for x in ky["im"])
        jz = next(g for g in doc["generators"] if g["name"] == "Jz")
        assert "im" not in jz and "re" in jz

    def test_left_out_parts_read_as_positive_zero(self):
        backbone = backbone_to_doc(canonical_backbone(CanonicalSpec(Family.TYPE_B, 2)))
        generators = [
            {"name": name, "rows": 4, "cols": 4, "row": [0, 3], "col": [1, 2]}
            for name in ("Jx", "Jy", "Jz", "Kx", "Ky", "Kz", "Vt", "Vx", "Vy", "Vz")
        ]
        generators[0]["re"] = [1.5, -2.0]
        generators[1]["im"] = [-0.5, 3]
        doc = {"format": 2, "backbone": backbone, "t": [], "generators": generators}
        loaded = generators_from_doc(doc).matrices()
        assert loaded["Jx"].vals.tobytes() == np.array([1.5, -2.0], dtype=complex).tobytes()
        assert loaded["Jy"].vals.tobytes() == np.array([complex(0, -0.5), complex(0, 3)]).tobytes()
        assert not np.signbit(loaded["Jx"].vals.imag).any()
        assert not np.signbit(loaded["Jy"].vals.real).any()
        # a matrix with neither part stores nothing
        assert loaded["Jz"].keys.size == 0


class TestInvariants:
    """What the relations cannot see: Jz against the block labels, and the
    Casimirs against their closed forms."""

    @pytest.mark.parametrize("fmt", FORMATS)
    def test_zeroed_document_fails(self, tmp_path, capsys, fmt):
        # every relation is homogeneous, so the trivial representation
        # satisfies all 27; Jz and the closed-form Casimirs catch it
        doc = _generated_doc(tmp_path, capsys, "b", "3", fmt)
        for gen in doc["generators"]:
            _set_entries(gen, [])
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        assert main(["verify", str(path)]) == 1
        text = capsys.readouterr().out
        assert "max commutator residual:  0.000e+00" in text
        assert "p = 2, q = 2" in text
        assert "FAIL Jz" in text
        assert "FAIL C1: the closed form for this p, q is -C1 = 6" in text
        assert "FAIL C2: the closed form for this p, q is -C2 = 12" in text
        assert text.endswith("verdict: FAIL\n")
        assert main(["verify", str(path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["passed"] is False
        assert payload["failing_invariants"] == ["Jz", "C1", "C2"]
        assert payload["jz_residual"] == 1.0
        assert payload["casimir_closed_form"] == [-6.0, -12.0]

    def test_verify_json_names_no_failing_invariant(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        main(["generate", "a", "3", "--algebra", "ads", "--out", str(out)])
        capsys.readouterr()
        assert main(["verify", str(out), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["failing_invariants"] == []
        assert payload["jz_residual"] == 0.0
        assert payload["casimir_closed_form"] == [-10.0, 0.0]


class TestLargeTypeBChains:
    """Type-B chains whose block count, as a type-A chain, would pass MAX_DIM."""

    @pytest.mark.parametrize("n", [21, 24])
    def test_generate_verify_validate(self, tmp_path, capsys, n):
        spec = CanonicalSpec(Family.TYPE_B, n)
        path = tmp_path / "rep.json"
        assert main(["generate", "b", str(n), "--out", str(path)]) == 0
        capsys.readouterr()
        assert main(["verify", str(path), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        neg_c1, neg_c2, p, q = casimir_invariants_closed_form(spec)
        assert payload["passed"] and (payload["p"], payload["q"]) == (str(p), str(q))
        assert -payload["casimir1_scalar"][0] == pytest.approx(float(neg_c1), rel=1e-12)
        assert -payload["casimir2_scalar"][0] == pytest.approx(float(neg_c2), rel=1e-12)

        backbone = tmp_path / "backbone.json"
        save_json(backbone_to_doc(canonical_backbone(spec)), backbone)
        assert main(["validate", str(backbone), "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["verdict"] == "valid"
        assert [(c["family"], c["n"]) for c in payload["components"]] == [("b", n)]


class TestTables:
    def test_matches_golden(self, capsys):
        assert main(["tables"]) == 0
        got = capsys.readouterr().out
        assert got == (GOLDEN / "tables.txt").read_text()

    def test_rows_spot_check(self, capsys):
        main(["tables"])
        text = capsys.readouterr().out
        assert "  5  B        4    20  (3/2,0) + (1,1/2) + (1/2,1) + (0,3/2)" in text
        assert "t12 = sqrt(1/8),  t23 = sqrt(3/8),  t34 = 1,  t45 = sqrt(7/2)" in text
        assert "  7  B          3     3      16        72" in text


class TestValidate:
    def test_valid_fixture(self, capsys):
        code = main(["validate", str(FIXTURES / "valid_duplicate_crossing.json")])
        text = capsys.readouterr().out
        assert code == 0
        assert "valid" in text
        assert "type B N=5" in text and "type A N=3" in text

    def test_invalid_fixture(self, capsys):
        code = main(["validate", str(FIXTURES / "invalid_dangling_above_chain.json")])
        text = capsys.readouterr().out
        assert code == 1
        assert "boundary-violation" in text

    def test_canonical_chain_document(self, tmp_path, capsys):
        g = canonical_backbone(CanonicalSpec(Family.TYPE_B, 4))
        path = tmp_path / "b4.json"
        save_json(backbone_to_doc(g), path)
        assert main(["validate", str(path)]) == 0
        text = capsys.readouterr().out
        assert "t[0->1] = 0.5" in text

    def test_validate_json_format(self, capsys):
        code = main([
            "validate", str(FIXTURES / "valid_three_chain_crossing.json"),
            "--format", "json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["verdict"] == "valid"
        assert len(payload["components"]) == 3
        assert payload["duplicates"] == [
            {"A": "1/2", "B": "1/2", "count": 2}, {"A": "1", "B": "1", "count": 2},
        ]

    def test_validate_json_lists_duplicate_blocks(self, capsys):
        path = str(FIXTURES / "valid_duplicate_crossing.json")
        assert main(["validate", path]) == 0
        pretty = capsys.readouterr().out
        assert main(["validate", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["duplicates"] == [{"A": "1", "B": "1", "count": 2}]
        assert "duplicate blocks: (1,1) x2\n" in pretty
        main(["validate", str(FIXTURES / "reducible_b4_plus_b6.json"), "--format", "json"])
        assert json.loads(capsys.readouterr().out)["duplicates"] == []

    def test_malformed_document(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2

    def test_validate_honours_document_algebra(self, tmp_path, capsys):
        g = canonical_backbone(CanonicalSpec(Family.TYPE_A, 2))
        path = tmp_path / "a2_ads.json"
        save_json(backbone_to_doc(g, Algebra.ANTI_DE_SITTER), path)
        assert main(["validate", str(path)]) == 0
        assert "valid" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# Fuzzing: arbitrary JSON in arbitrary places never escapes as an exception
# ---------------------------------------------------------------------------

_KEYS = ("blocks", "edges", "algebra", "A", "B", "backbone", "t", "edge", "forward",
         "reverse", "generators", "name", "rows", "cols", "entries", "format", "row", "col",
         "re", "im")

# Small numbers and short strings keep every backbone far below MAX_DIM;
# the huge integers are refused before anything is allocated.
_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([10**30, -(10**30), 10**400]),
    st.floats(),
    st.sampled_from(["", "x", "0", "1/2", "3/2", "-1/2", "1/3", "ds", "ads", "Vx", "Jz"]),
)
_JSON_VALUES = st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=2), inner, max_size=4),
    max_leaves=8,
)


def _base_documents():
    docs = [
        ("verify", write(assemble_canonical(CanonicalSpec(family, n), algebra)))
        for family, n, algebra in (
            (Family.TYPE_A, 2, Algebra.DE_SITTER),
            (Family.TYPE_B, 3, Algebra.ANTI_DE_SITTER),
        )
        for write in (listed_doc, format1_doc)
    ]
    docs += [("validate", load_json(path)) for path in sorted(FIXTURES.glob("*.json"))]
    return docs


_BASE_DOCUMENTS = _base_documents()


def _paths(node, prefix=()):
    """Every position in a JSON tree, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _paths(value, prefix + (index,))


def _mutate(doc, path, action, value):
    """doc with the node at path replaced or deleted, or value inserted there."""
    if not path:
        return value
    parent = doc
    for step in path[:-1]:
        parent = parent[step]
    last = path[-1]
    if action == "delete":
        del parent[last]
    elif action == "insert" and isinstance(parent, list):
        parent.insert(last, value)
    else:
        parent[last] = value
    return doc


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_main_exits_0_1_or_2(self, tmp_path_factory, data):
        command, base = data.draw(st.sampled_from(_BASE_DOCUMENTS))
        doc = json.loads(json.dumps(base))
        for _ in range(data.draw(st.integers(1, 3))):
            path = data.draw(st.sampled_from(list(_paths(doc))))
            action = data.draw(st.sampled_from(["replace", "delete", "insert"]))
            doc = _mutate(doc, path, action, data.draw(_JSON_VALUES))
        if data.draw(st.booleans()):
            command = "validate" if command == "verify" else "verify"
        path = tmp_path_factory.getbasetemp() / "fuzzed.json"
        path.write_text(json.dumps(doc))  # NaN and Infinity tokens included
        assert main([command, str(path)]) in (0, 1, 2)


def _module_env() -> dict:
    """The environment for `python -m dsrep` with this checkout's package."""
    import dsrep

    src = str(Path(dsrep.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_python_dash_m_runs_the_cli():
    result = subprocess.run(
        [sys.executable, "-m", "dsrep", "tables"], capture_output=True, text=True,
        env=_module_env(), timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / "tables.txt").read_text()


def test_closed_stdout_exits_2_without_traceback():
    # The document (about 130 kB) outgrows the pipe buffer, so the writer
    # is still writing when the reader goes away.
    with subprocess.Popen(
        [sys.executable, "-m", "dsrep", "generate", "a", "8"], stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, env=_module_env(),
    ) as proc:
        assert proc.stdout.read(10).startswith(b"{")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait(timeout=120)
    assert code == 2, err
    assert "Traceback" not in err
