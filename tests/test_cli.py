"""Command-line interface, document round-trips, golden tables."""

import json
from pathlib import Path

import numpy as np
import pytest
from conftest import gelfand_tsetlin_generators
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
)
from dsrep.representation import (
    MAX_DIM,
    Algebra,
    CanonicalSpec,
    Family,
    assemble_canonical,
    canonical_backbone,
)
from dsrep.verify import build_report

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
GOLDEN = Path(__file__).resolve().parent / "golden"


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

    def test_half_integers_serialise_as_strings(self):
        g = canonical_backbone(CanonicalSpec(Family.TYPE_B, 2))
        doc = backbone_to_doc(g)
        assert doc["blocks"][0] == {"A": "1/2", "B": "0"}

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


class TestVerify:
    def test_tampered_document_fails_and_names_relation(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        main(["generate", "b", "3", "--out", str(out)])
        capsys.readouterr()
        doc = load_json(out)
        for gen in doc["generators"]:
            if gen["name"] == "Vx":
                gen["entries"] = [
                    [r, c, 2 * re, 2 * im] for r, c, re, im in gen["entries"]
                ]
        save_json(doc, out)
        assert main(["verify", str(out)]) == 1
        text = capsys.readouterr().out
        assert "FAIL" in text
        assert "[Vx," in text or "[Vt,Vx]" in text

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

    def test_missing_file(self, capsys):
        assert main(["verify", "/nonexistent/rep.json"]) == 2
        assert "error" in capsys.readouterr().err


def _generated_doc(tmp_path, capsys, family="a", n="3"):
    path = tmp_path / "rep.json"
    assert main(["generate", family, n, "--out", str(path)]) == 0
    capsys.readouterr()
    return load_json(path)


def _entries(doc, name):
    return next(g for g in doc["generators"] if g["name"] == name)["entries"]


def _set_first_entry(doc, name, value, field=2):
    _entries(doc, name)[0][field] = value


class TestMalformedDocuments:
    """Bad documents exit 2 with an error line; nothing raises, nothing is coerced."""

    B3_BLOCKS = [{"A": 1, "B": 0}, {"A": "1/2", "B": "1/2"}, {"A": 0, "B": 1}]

    @pytest.mark.parametrize(
        "doc",
        [
            {"blocks": B3_BLOCKS, "edges": [["a", 1], [1, 2]]},
            {"blocks": B3_BLOCKS, "edges": [[0, 1.7], [1, 2]]},
            {"blocks": [{"A": True, "B": 0}] + B3_BLOCKS[1:], "edges": [[0, 1], [1, 2]]},
        ],
        ids=["string-edge-index", "float-edge-index", "boolean-label"],
    )
    def test_backbone(self, tmp_path, capsys, doc):
        path = tmp_path / "backbone.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize(
        "breakage",
        [
            lambda doc: doc["generators"].__setitem__(0, 5),
            lambda doc: doc["generators"][0].pop("rows"),
            lambda doc: doc["t"][0].__setitem__("edge", [0]),
            lambda doc: _set_first_entry(doc, "Vx", float("nan")),
            lambda doc: _set_first_entry(doc, "Kz", float("inf")),
            lambda doc: doc["t"][0].__setitem__("forward", float("nan")),
            lambda doc: _set_first_entry(doc, "Jz", 10**30, field=0),
            lambda doc: _set_first_entry(doc, "Vy", 10**400, field=3),
            lambda doc: _set_first_entry(doc, "Jx", -1, field=1),
            lambda doc: _set_first_entry(doc, "Kx", True),
            lambda doc: _set_first_entry(doc, "Vt", False, field=0),
            lambda doc: _entries(doc, "Vz").__setitem__(0, _entries(doc, "Vz")[0][:3]),
            lambda doc: _set_first_entry(doc, "Ky", "0.5"),
            lambda doc: _entries(doc, "Jy").append(list(_entries(doc, "Jy")[0])),
            lambda doc: _entries(doc, "Jy").insert(1, list(_entries(doc, "Jy")[0])),
            lambda doc: doc["generators"].insert(0, dict(doc["generators"][7], entries=[])),
            lambda doc: (_set_first_entry(doc, "Jx", "x", field=1),
                         _entries(doc, "Jx")[1].__setitem__(0, -1)),
        ],
        ids=[
            "non-object-generator", "missing-rows", "short-t-edge",
            "nan-entry", "infinite-entry", "nan-coupling",
            "huge-position", "huge-value", "negative-position", "boolean-value",
            "boolean-position", "three-item-entry", "string-value",
            "duplicate-position", "adjacent-duplicate-position", "duplicate-generator",
            "string-column-before-negative-row",
        ],
    )
    def test_generator_document(self, tmp_path, capsys, breakage):
        doc = _generated_doc(tmp_path, capsys)
        breakage(doc)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc))  # writes NaN and Infinity tokens
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert "PASS" not in captured.out

    def test_documents_over_the_dimension_bound(self, tmp_path, capsys):
        # one 61 x 61 block; neither document holds anything that would be
        # allocated at that size: a one-block backbone, no matrices
        backbone = {"blocks": [{"A": 30, "B": 30}], "edges": []}
        for command, doc in (("validate", backbone), ("verify", {"backbone": backbone})):
            path = tmp_path / f"{command}.json"
            path.write_text(json.dumps(doc))
            assert main([command, str(path)]) == 2
            assert str(MAX_DIM) in capsys.readouterr().err

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
         "reverse", "generators", "name", "rows", "cols", "entries")

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
        ("verify", generators_to_doc(assemble_canonical(CanonicalSpec(family, n), algebra)))
        for family, n, algebra in (
            (Family.TYPE_A, 2, Algebra.DE_SITTER),
            (Family.TYPE_B, 3, Algebra.ANTI_DE_SITTER),
        )
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
