"""Acceptance suite: one test per shipped criterion, at its stated tolerance.

Each test prints a single PASS line on success (run with -s to see them
alongside the pytest dots).
"""

import itertools
import math
import time
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import (
    canonical_couplings,
    case_id,
    coupling_null_space_dim,
    dense_casimir1,
    dense_rectangles,
)

from dsrep.blocks import BlockLabel
from dsrep.coupling import (
    compatibility,
    t_sign_relation,
)
from dsrep.io import backbone_from_doc, load_json
from dsrep.numeric import max_abs
from dsrep.representation import (
    Algebra,
    BackboneGraph,
    CanonicalSpec,
    Family,
    assemble,
    assemble_canonical,
    canonical_backbone,
    canonical_dimension,
    first_ten_specs,
)
from dsrep.solver import Verdict, solve_and_verify
from dsrep.verify import (
    casimir1_matrix,
    casimir2_matrix,
    check_all_crs,
    check_hermiticity,
    scalar_check,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
TEN = first_ten_specs()


def L(twice_a, twice_b):
    return BlockLabel(twice_a=twice_a, twice_b=twice_b)


def note(line):
    print(f"\nACCEPTANCE {line}")


@pytest.fixture(scope="module")
def assembled():
    return {ref: assemble_canonical(spec) for ref, spec in TEN}


@pytest.fixture(scope="module")
def assembled_ads():
    return {ref: assemble_canonical(spec, Algebra.ANTI_DE_SITTER) for ref, spec in TEN}


def test_criterion_1_backbones_and_dimensions():
    expected_dims = [4, 5, 10, 14, 20, 30, 35, 55, 56, 91]
    expected_backbones = {
        1: "(1/2,0)+(0,1/2)",
        2: "(1/2,1/2)+(0,0)",
        3: "(1,0)+(1/2,1/2)+(0,1)",
        4: "(1,1)+(1/2,1/2)+(0,0)",
        5: "(3/2,0)+(1,1/2)+(1/2,1)+(0,3/2)",
        6: "(3/2,3/2)+(1,1)+(1/2,1/2)+(0,0)",
        7: "(2,0)+(3/2,1/2)+(1,1)+(1/2,3/2)+(0,2)",
        8: "(2,2)+(3/2,3/2)+(1,1)+(1/2,1/2)+(0,0)",
        9: "(5/2,0)+(2,1/2)+(3/2,1)+(1,3/2)+(1/2,2)+(0,5/2)",
        10: "(5/2,5/2)+(2,2)+(3/2,3/2)+(1,1)+(1/2,1/2)+(0,0)",
    }
    for (ref, spec), dim in zip(TEN, expected_dims):
        g = canonical_backbone(spec)
        assert canonical_dimension(spec) == dim
        assert sum(b.dim for b in g.blocks) == dim
        assert "+".join(str(b) for b in g.blocks) == expected_backbones[ref]
    note("1 PASS: ten backbones and dimensions reproduced exactly")


def test_criterion_2_coupling_coefficients():
    expected = {
        2: [1 / math.sqrt(2)],
        4: [0.5, math.sqrt(5) / 2],
        6: [1 / math.sqrt(6), math.sqrt(7.0 / 12.0), 1.5],
        8: [1 / math.sqrt(8), math.sqrt(3.0 / 8.0), 1.0, math.sqrt(7.0 / 2.0)],
        10: [
            1 / math.sqrt(10),
            math.sqrt(11.0 / 40.0),
            math.sqrt(5.0 / 8.0),
            math.sqrt(3.0 / 2.0),
            math.sqrt(5),
        ],
    }
    for ref, spec in TEN:
        t = canonical_couplings(spec)
        for n in range(1, spec.n):
            forward, backward = t[(n - 1, n)], t[(n, n - 1)]
            if spec.family is Family.TYPE_A:
                assert forward == pytest.approx(expected[ref][n - 1], abs=1e-12)
                assert backward == -forward
            else:
                assert (forward, backward) == (0.5, 0.5)
    note("2 PASS: coupling coefficients match the closed forms to 1e-12")


def test_criterion_3_commutation_relations(assembled, assembled_ads):
    worst = 0.0
    for collection in (assembled, assembled_ads):
        for ref, gens in collection.items():
            residuals = check_all_crs(gens)
            assert len(residuals) == 27
            worst = max(worst, max(residuals.values()))
    assert worst < 1e-10
    note(f"3 PASS: 27 relations on ten irreps, both algebras (worst {worst:.2e})")


def test_criterion_4_hermiticity(assembled, assembled_ads):
    worst = 0.0
    for collection in (assembled, assembled_ads):
        for gens in collection.values():
            worst = max(worst, max(check_hermiticity(gens).values()))
    assert worst < 1e-11
    note(f"4 PASS: Hermiticity pattern on ten irreps, both algebras (worst {worst:.2e})")


def test_criterion_5_quadratic_casimir(assembled):
    expected = {
        1: Fraction(5, 2), 2: Fraction(4), 3: Fraction(6), 4: Fraction(10),
        5: Fraction(21, 2), 6: Fraction(18), 7: Fraction(16), 8: Fraction(28),
        9: Fraction(45, 2), 10: Fraction(40),
    }
    for ref, gens in assembled.items():
        c1 = casimir1_matrix(gens)
        lam = scalar_check(c1, 1e-9)
        assert lam is not None, f"rep {ref}"
        assert abs(lam - (-float(expected[ref]))) < 1e-9
        assert max_abs(c1.to_dense() - dense_casimir1(gens)) < 1e-10
    note("5 PASS: quadratic Casimir scalar on all ten irreps at the table values")


def test_criterion_6_quartic_casimir(assembled):
    expected = {
        1: Fraction(45, 16), 2: Fraction(0), 3: Fraction(12), 4: Fraction(0),
        5: Fraction(525, 16), 6: Fraction(0), 7: Fraction(72), 8: Fraction(0),
        9: Fraction(2205, 16), 10: Fraction(0),
    }
    for ref, gens in assembled.items():
        c2 = casimir2_matrix(gens)
        lam = scalar_check(c2, 1e-8)
        assert lam is not None, f"rep {ref} quartic Casimir is not scalar"
        assert abs(lam - (-float(expected[ref]))) < 1e-8
    note("6 PASS: disambiguated quartic Casimir matches the table values")


def test_criterion_7_classification_property():
    start = time.time()
    labels = [L(a, b) for a in range(5) for b in range(5)]

    def compatible(p, q):
        return abs(p.twice_a - q.twice_a) == 1 and abs(p.twice_b - q.twice_b) == 1

    expected_valid = set()
    for family in Family:
        for n in (2, 3, 4):
            chain = canonical_backbone(CanonicalSpec(family, n))
            key = (
                frozenset(chain.blocks),
                frozenset(frozenset((chain.blocks[i], chain.blocks[j]))
                          for i, j in chain.edges),
            )
            expected_valid.add(key)

    got_valid = set()
    checked = 0
    for size in range(2, 5):
        for subset in itertools.combinations(labels, size):
            pairs = [
                (i, j)
                for i in range(size)
                for j in range(i + 1, size)
                if compatible(subset[i], subset[j])
            ]
            if len(pairs) < size - 1:
                continue
            for nedges in range(size - 1, len(pairs) + 1):
                for edge_sel in itertools.combinations(pairs, nedges):
                    adjacency = {i: [] for i in range(size)}
                    for i, j in edge_sel:
                        adjacency[i].append(j)
                        adjacency[j].append(i)
                    seen = {0}
                    stack = [0]
                    while stack:
                        node = stack.pop()
                        for neighbor in adjacency[node]:
                            if neighbor not in seen:
                                seen.add(neighbor)
                                stack.append(neighbor)
                    if len(seen) != size:
                        continue
                    checked += 1
                    outcome = solve_and_verify(BackboneGraph.make(subset, edge_sel))
                    if outcome.verdict is Verdict.VALID:
                        key = (
                            frozenset(subset),
                            frozenset(
                                frozenset((subset[i], subset[j])) for i, j in edge_sel
                            ),
                        )
                        got_valid.add(key)
                    else:
                        assert outcome.verdict is Verdict.INVALID, (subset, edge_sel)
    elapsed = time.time() - start
    assert got_valid == expected_valid
    assert elapsed < 60.0
    note(
        f"7 PASS: {checked} connected duplicate-free backbones; valid exactly "
        f"on the {len(expected_valid)} canonical chains ({elapsed:.1f} s)"
    )


def test_criterion_8_validator_fixtures():
    def outcome(name):
        graph, _ = backbone_from_doc(load_json(FIXTURES / f"{name}.json"))
        return solve_and_verify(graph)

    for name in (
        "invalid_dangling_above_chain",   # dangling block below a chain
        "invalid_shared_crossing",        # crossing without a duplicate
        "invalid_dangling_rightward",     # block with only rightward links
        "invalid_duplicate_dangling",     # duplicate left dangling
    ):
        out = outcome(name)
        assert out.verdict is Verdict.INVALID, name
        assert out.witness is not None, name

    out = outcome("valid_duplicate_crossing")
    assert out.verdict is Verdict.VALID
    assert sorted((c.family.value, c.n) for c in out.components) == [("a", 3), ("b", 5)]

    out = outcome("valid_three_chain_crossing")
    assert out.verdict is Verdict.VALID
    assert sorted((c.family.value, c.n) for c in out.components) == [
        ("a", 3), ("b", 3), ("b", 5),
    ]

    out = outcome("reducible_b5_plus_a2")
    assert out.verdict is Verdict.VALID
    assert len(out.components) == 2

    out = outcome("reducible_b4_plus_b6")
    assert out.verdict is Verdict.VALID
    assert len(out.components) == 2

    out = outcome("invalid_single_block")
    assert out.verdict is Verdict.INVALID
    assert out.witness.kind.value == "one-block"
    note("8 PASS: all nine validator fixtures give the documented outcomes")


def test_criterion_9_monotonic_path_property():
    cases = [(sa, sb) for sa in (1, -1) for sb in (1, -1)]
    exemptions = []
    checked = 0
    for case1, case2 in itertools.product(cases, repeat=2):
        for ka in range(0, 4):
            for kb in range(0, 4):
                middle = (ka, kb)
                first = (ka + case1[0], kb + case1[1])
                last = (ka - case2[0], kb - case2[1])
                if min(*first, *last) < 0:
                    continue
                blocks = [L(*first), L(*middle), L(*last)]
                t = {}
                for (i, j), case in (((0, 1), case1), ((1, 2), case2)):
                    t[(i, j)], t[(j, i)] = 1.0, t_sign_relation(case) * 1.0
                gens = assemble(BackboneGraph.make(blocks, [(0, 1), (1, 2)]), t)
                commutator_xy = (gens.vx @ gens.vy - gens.vy @ gens.vx).to_dense()
                n_first = blocks[0].dim
                n_middle = blocks[1].dim
                off_block = commutator_xy[: n_first, n_first + n_middle:]
                vanishes = max_abs(off_block) < 1e-11
                checked += 1
                if case1 == case2:  # a monotonic path
                    assert vanishes, (case1, case2, middle)
                elif vanishes:
                    exemptions.append((case_id(case1), case_id(case2), middle))
    # the only non-monotonic vanishing instance is the duplicate-origin
    # geometry, where the obstruction has no states to act on
    assert exemptions == [("--", "++", (1, 1))]
    note(
        f"9 PASS: off-diagonal commutator block vanishes exactly on monotonic "
        f"paths ({checked} paths; single one-state exemption at the origin)"
    )


def test_criterion_10_compatibility_rule():
    offsets = [-3, -2, -1, 0, 1, 2, 3]  # in twice-units: 0, ±1/2, ±1, ±3/2
    base = L(3, 3)
    for da in offsets:
        for db in offsets:
            other = L(3 + da, 3 + db)
            case = compatibility(other, base)
            if abs(da) == 1 and abs(db) == 1:
                assert case == (da, db)
            else:
                assert case is None
                with pytest.raises(ValueError):
                    dense_rectangles(other, base)
    # no non-zero displacement rectangle exists off the half-shift rule:
    # same label (the single-block argument), pure-A shifts, larger shifts
    assert coupling_null_space_dim(L(3, 3), L(3, 3)) == 0
    assert coupling_null_space_dim(L(2, 2), L(2, 2)) == 0
    assert coupling_null_space_dim(L(3, 3), L(2, 3)) == 0
    assert coupling_null_space_dim(L(3, 3), L(1, 3)) == 0
    assert coupling_null_space_dim(L(3, 3), L(2, 0)) == 0
    assert coupling_null_space_dim(L(3, 1), L(0, 0)) == 0
    # while compatible pairs admit exactly the one-parameter family
    assert coupling_null_space_dim(L(3, 3), L(2, 2)) == 1
    assert coupling_null_space_dim(L(2, 1), L(1, 2)) == 1
    note("10 PASS: compatibility exactly at half-shifts; probe finds no other couplings")
