"""Commutation-relation suite, Hermiticity pattern, and Casimir operators."""

import copy
import dataclasses
import functools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DEFAULT_C2_INTERPRETATION,
    block_offsets,
    casimir2_interpretations,
    dense_casimir1,
    dense_casimir1_cartesian,
    dense_casimir2,
    dense_crs,
    dense_generator_set,
    dense_hermiticity,
    dense_scalar_check,
    gelfand_tsetlin_generators,
    select_casimir2_interpretation,
    sparse_from_dense,
)
import dsrep.numeric
import dsrep.verify
from dsrep.blocks import hla_cartesian
from dsrep.numeric import Sparse, commutator, max_abs
from dsrep.representation import (
    GENERATOR_NAMES,
    Algebra,
    BackboneGraph,
    CanonicalSpec,
    Family,
    assemble,
    assemble_canonical,
    canonical_backbone,
    canonical_dimension,
    canonical_t,
    canonical_t_squared,
    first_ten_specs,
)
from dsrep.solver import Verdict, solve_and_verify
from dsrep.verify import (
    C1_SCALAR_TOLERANCE,
    C2_SCALAR_TOLERANCE,
    CR_TOLERANCE,
    HERMITICITY_TOLERANCE,
    JZ_TOLERANCE,
    build_report,
    casimir1_matrix,
    casimir2_matrix,
    casimir_invariants_closed_form,
    check_all_crs,
    check_hermiticity,
    check_jz,
    scalar_check,
    worst_residual,
)

TEN = first_ten_specs()


@pytest.fixture(scope="module")
def assembled():
    return {ref: assemble_canonical(spec) for ref, spec in TEN}


@pytest.fixture(scope="module")
def assembled_ads():
    return {
        ref: assemble_canonical(spec, Algebra.ANTI_DE_SITTER) for ref, spec in TEN
    }


class TestCommutators:
    def test_relation_count(self, assembled):
        assert len(check_all_crs(assembled[1])) == 27

    def test_all_ten_de_sitter(self, assembled):
        for ref, gens in assembled.items():
            assert max(check_all_crs(gens).values()) < 1e-10, f"rep {ref}"

    def test_all_ten_anti_de_sitter(self, assembled_ads):
        for ref, gens in assembled_ads.items():
            assert max(check_all_crs(gens).values()) < 1e-10, f"rep {ref}"

    def test_doubled_coupling_fails_by_factor_four(self):
        spec = CanonicalSpec(Family.TYPE_A, 2)
        forward, backward = canonical_t(spec, 1)
        gens = assemble(
            canonical_backbone(spec), {(0, 1): 2 * forward, (1, 0): 2 * backward}
        )
        residuals = check_all_crs(gens)
        # the displacement commutator lands at 4x its target, i.e. an
        # excess of 3 max|Jz|, while the vector-transformation sector
        # stays exact
        assert residuals["[Vx,Vy] = i Jz"] == pytest.approx(
            3 * max_abs(gens.jz), rel=1e-12
        )
        assert residuals["[Jx,Vy] = i Vz"] < 1e-13


class TestHermiticity:
    def test_all_ten_both_algebras(self, assembled, assembled_ads):
        for gens in list(assembled.values()) + list(assembled_ads.values()):
            assert max(check_hermiticity(gens).values()) < 1e-11

    def test_ads_pattern_flips_displacements(self, assembled_ads):
        gens = assembled_ads[1]
        residuals = check_hermiticity(gens)
        assert residuals["Vx"] < 1e-12 and residuals["Vt"] < 1e-12
        # the same matrices against the de Sitter pattern must fail on V
        ds_view = type(gens)(
            backbone=gens.backbone, algebra=Algebra.DE_SITTER,
            jx=gens.jx, jy=gens.jy, jz=gens.jz,
            kx=gens.kx, ky=gens.ky, kz=gens.kz,
            vt=gens.vt, vx=gens.vx, vy=gens.vy, vz=gens.vz, t=gens.t,
        )
        wrong = check_hermiticity(ds_view)
        assert wrong["Vx"] > 0.1 and wrong["Vt"] > 0.1

    def test_broken_sign_rule_breaks_hermiticity(self):
        # the (1, 0) rectangles of a ++ edge negated: t_10 = +t_01, where
        # the rule needs the minus
        gens = assemble_canonical(CanonicalSpec(Family.TYPE_A, 2))
        first = gens.backbone.blocks[0].dim

        def flipped(m):
            below = m.keys // m.n >= first
            return Sparse(m.n, m.keys, np.where(below, -m.vals, m.vals), reduced=True)

        broken = dataclasses.replace(
            gens, **{name: flipped(getattr(gens, name)) for name in ("vt", "vx", "vy", "vz")}
        )
        assert max(check_hermiticity(broken).values()) > 0.1


ALGEBRAS = pytest.mark.parametrize("algebra", list(Algebra), ids=lambda a: a.value)


class TestCasimir1:
    @ALGEBRAS
    @pytest.mark.parametrize("ref,spec", TEN)
    def test_scalar_matches_closed_form(self, ref, spec, algebra, assembled, assembled_ads):
        gens = (assembled if algebra is Algebra.DE_SITTER else assembled_ads)[ref]
        c1 = casimir1_matrix(gens)
        lam = scalar_check(c1, 1e-9)
        assert lam is not None, f"rep {ref} quadratic Casimir not scalar"
        neg_c1 = casimir_invariants_closed_form(spec)[0]
        assert lam.real == pytest.approx(-float(neg_c1), rel=1e-9)
        assert abs(lam.imag) < 1e-9

    @ALGEBRAS
    @pytest.mark.parametrize("ref,spec", TEN)
    def test_ladder_equals_cartesian(self, ref, spec, algebra, assembled, assembled_ads):
        gens = (assembled if algebra is Algebra.DE_SITTER else assembled_ads)[ref]
        assert max_abs(casimir1_matrix(gens).to_dense() - dense_casimir1(gens)) < 1e-10

    def test_ladder_equals_cartesian_for_arbitrary_couplings(self):
        # the two expressions are algebraically identical whatever the t's
        rng = random.Random(7)
        for spec in (CanonicalSpec(Family.TYPE_A, 3), CanonicalSpec(Family.TYPE_B, 4)):
            backbone = canonical_backbone(spec)
            t = {}
            for i in range(spec.n - 1):
                t[(i, i + 1)], t[(i + 1, i)] = rng.uniform(-2, 2), rng.uniform(-2, 2)
            gens = dense_generator_set(backbone, t)
            assert max_abs(casimir1_matrix(gens).to_dense() - dense_casimir1(gens)) < 1e-10

    @pytest.mark.parametrize("ref,spec", [(1, TEN[0][1]), (4, TEN[3][1]), (9, TEN[8][1])])
    def test_commutes_with_all_generators(self, ref, spec, assembled):
        gens = assembled[ref]
        c1 = casimir1_matrix(gens)
        for name, m in gens.matrices().items():
            assert max_abs(commutator(c1, m)) < 1e-9, name

    def test_first_block_closed_forms_exact(self):
        # the assembled scalar must equal both closed forms, which agree
        # as exact rationals once the coupling product is substituted
        for _, spec in TEN:
            a1 = Fraction(spec.n - 1, 2)
            t_sq = canonical_t_squared(spec, 1)
            if spec.family is Family.TYPE_A:
                from_blocks = 4 * a1 * (a1 + 1) + 8 * t_sq * a1 * a1
            else:
                from_blocks = 2 * a1 * (a1 + 1) + 8 * t_sq * a1
            assert from_blocks == casimir_invariants_closed_form(spec)[0]


class TestCasimir2:
    def test_disambiguation_selects_shipped_default(self, assembled):
        assert select_casimir2_interpretation() == DEFAULT_C2_INTERPRETATION
        selected = casimir2_interpretations()[DEFAULT_C2_INTERPRETATION]
        for ref, gens in assembled.items():
            want = selected(gens)
            got = casimir2_matrix(gens).to_dense()
            assert max_abs(got - want) <= 1e-12 * max(1.0, max_abs(want)), ref

    @ALGEBRAS
    @pytest.mark.parametrize("ref,spec", TEN)
    def test_scalar_matches_closed_form(self, ref, spec, algebra, assembled, assembled_ads):
        c2 = casimir2_matrix((assembled if algebra is Algebra.DE_SITTER else assembled_ads)[ref])
        lam = scalar_check(c2, 1e-8)
        assert lam is not None, f"rep {ref} quartic Casimir not scalar"
        neg_c2 = casimir_invariants_closed_form(spec)[1]
        assert lam.real == pytest.approx(-float(neg_c2), abs=1e-8)

    def test_commutes_with_all_generators(self, assembled):
        gens = assembled[3]
        c2 = casimir2_matrix(gens)
        for name, m in gens.matrices().items():
            assert max_abs(commutator(c2, m)) < 1e-8, name


class TestClosedForms:
    def test_smallest_mixed(self):
        neg_c1, neg_c2, p, q = casimir_invariants_closed_form(
            CanonicalSpec(Family.TYPE_B, 2)
        )
        assert (neg_c1, neg_c2) == (Fraction(5, 2), Fraction(45, 16))
        assert str(p) == "3/2" and str(q) == "3/2"

    def test_five_block_diagonal(self):
        neg_c1, neg_c2, p, q = casimir_invariants_closed_form(
            CanonicalSpec(Family.TYPE_A, 5)
        )
        assert (neg_c1, neg_c2) == (Fraction(28), Fraction(0))
        assert str(p) == "5" and str(q) == "0"

    def test_four_block_mixed(self):
        neg_c1, neg_c2, p, q = casimir_invariants_closed_form(
            CanonicalSpec(Family.TYPE_B, 4)
        )
        assert (neg_c1, neg_c2) == (Fraction(21, 2), Fraction(525, 16))
        assert str(p) == "5/2"


def test_canonical_backbones_are_duplicate_free():
    for _, spec in TEN:
        backbone = canonical_backbone(spec)
        assert not backbone.has_duplicates()


def commutant_dimension(gens, tol=1e-8):
    """Number of independent matrices commuting with all ten generators.

    Independent irreducibility oracle: [G, X] = 0 for every generator G is
    the linear system (G x I - I x G^T) vec(X) = 0; one solution (the
    identity) means the representation is irreducible.
    """
    dim = gens.dim
    eye = np.eye(dim)
    rows = [
        np.kron(m, eye) - np.kron(eye, m.T) for m in gens.generators().values()
    ]
    singular = np.linalg.svd(np.vstack(rows), compute_uv=False)
    rank = int(np.sum(singular > tol * singular[0]))
    return dim * dim - rank


class TestIrreducibility:
    @pytest.mark.parametrize("ref", [1, 2, 3, 4, 5])
    def test_canonical_chains_are_irreducible(self, ref, assembled):
        assert commutant_dimension(assembled[ref]) == 1

    def test_two_chain_sum_has_two_dimensional_commutant(self):
        from dsrep.representation import BackboneGraph
        from dsrep.blocks import BlockLabel

        blocks = list(canonical_backbone(CanonicalSpec(Family.TYPE_B, 2)).blocks)
        blocks += list(canonical_backbone(CanonicalSpec(Family.TYPE_A, 2)).blocks)
        g = BackboneGraph.make(blocks, [(0, 1), (2, 3)])
        t = {}
        t[(0, 1)], t[(1, 0)] = canonical_t(CanonicalSpec(Family.TYPE_B, 2), 1)
        t[(2, 3)], t[(3, 2)] = canonical_t(CanonicalSpec(Family.TYPE_A, 2), 1)
        gens = assemble(g, t)
        assert commutant_dimension(gens) == 2


class TestJz:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: assemble_canonical(CanonicalSpec(Family.TYPE_A, 6)),
            lambda: assemble_canonical(CanonicalSpec(Family.TYPE_B, 5), Algebra.ANTI_DE_SITTER),
            lambda: gelfand_tsetlin_generators((5, 3), Algebra.DE_SITTER),
        ],
        ids=["a6", "b5-ads", "so5-5/2-3/2"],
    )
    @pytest.mark.parametrize("tamper", ["none", "scaled", "nan"])
    def test_matches_the_residual_against_the_ladder_jz(self, make, tamper):
        # bit for bit the residual against the Jz that hla_cartesian builds with
        # the ladders
        gens = make()
        vals = gens.jz.vals.copy()
        if tamper == "scaled":
            vals *= 1.0 + 1e-9
        elif tamper == "nan":
            vals[0] = math.nan
        gens = dataclasses.replace(gens, jz=Sparse(gens.dim, gens.jz.keys, vals))
        want = max_abs(gens.jz - hla_cartesian(gens.backbone.blocks)[2])
        got = check_jz(gens)
        assert np.array([got]).tobytes() == np.array([want]).tobytes()
        assert (got == 0) == (tamper == "none")


class TestScalarCheck:
    def test_scalar_matrix(self):
        assert scalar_check(sparse_from_dense(3 * np.eye(7)), 1e-12) == pytest.approx(3.0)

    def test_non_scalar(self):
        assert scalar_check(sparse_from_dense(np.diag([1.0, 2.0])), 1e-9) is None

    def test_rep_four_value(self, assembled):
        lam = scalar_check(casimir1_matrix(assembled[4]), 1e-9)
        assert lam == pytest.approx(-10.0, rel=1e-10)

    def test_shape_validation(self):
        # a Sparse is square by construction; a non-square matrix never becomes one
        with pytest.raises(ValueError):
            scalar_check(sparse_from_dense(np.zeros((2, 3))), 1e-9)

    def test_absent_diagonal_entries_count_as_zero(self):
        # lam = (2 + 2 + 0) / 3, and the absent entry is 4/3 away from it
        m = sparse_from_dense(np.diag([2.0, 2.0, 0.0]))
        assert m.keys.size == 2
        assert scalar_check(m, 1.0) is None
        assert scalar_check(m, 1.5) == pytest.approx(4 / 3)
        assert scalar_check(Sparse.zero(4), 1e-12) == 0

    def test_off_diagonal_entry_counts(self):
        m = 2 * np.eye(5, dtype=complex)
        m[1, 3] = 0.25j
        assert scalar_check(sparse_from_dense(m), 0.25) is None
        assert scalar_check(sparse_from_dense(m), 0.3) == pytest.approx(2.0)

    @pytest.mark.parametrize("spot", [(0, 0), (2, 2), (0, 2)], ids=["first", "last", "off"])
    def test_nan_is_never_scalar(self, spot):
        m = np.eye(3, dtype=complex)
        m[spot] = np.nan
        assert scalar_check(sparse_from_dense(m), 1e300) is None

    @pytest.mark.parametrize(
        "m",
        [np.eye(4), np.diag([1.0, 1.0 + 1e-10, 1.0, 1.0]), np.diag([0.0, 1e-10, 0.0]),
         np.array([[1.0, 1e-10], [0.0, 1.0]]), np.diag([1.0, 2.0])],
    )
    def test_matches_the_dense_check(self, m):
        for tol in (1e-12, 1e-9, 1.0):
            got, want = scalar_check(sparse_from_dense(m), tol), dense_scalar_check(m, tol)
            assert (got is None) == (want is None)
            if got is not None:
                assert got == want


class TestReport:
    def test_canonical_report_passes(self, assembled):
        report = build_report(assembled[3])
        assert report.passed
        assert report.max_cr_residual < 1e-10
        assert str(report.p) == "2" and str(report.q) == "2"
        assert not report.duplicates_present
        assert report.casimir1_scalar == pytest.approx(-6.0)
        assert report.casimir2_scalar == pytest.approx(-12.0)

    @pytest.mark.parametrize("family,n", [(Family.TYPE_A, 3), (Family.TYPE_B, 3),
                                          (Family.TYPE_A, 5), (Family.TYPE_B, 6)])
    def test_anti_de_sitter_casimirs_equal_the_closed_forms(self, family, n):
        spec = CanonicalSpec(family, n)
        ds = build_report(assemble_canonical(spec))
        ads = build_report(assemble_canonical(spec, Algebra.ANTI_DE_SITTER))
        neg_c1, neg_c2, p, q = casimir_invariants_closed_form(spec)
        assert ads.passed and (ads.p, ads.q) == (p, q)
        assert ads.casimir1_scalar == pytest.approx(-float(neg_c1), rel=1e-12, abs=1e-12)
        assert ads.casimir2_scalar == pytest.approx(-float(neg_c2), rel=1e-12, abs=1e-12)
        assert ads.casimir1_scalar == pytest.approx(ds.casimir1_scalar, rel=1e-12, abs=1e-12)
        assert ads.casimir2_scalar == pytest.approx(ds.casimir2_scalar, rel=1e-12, abs=1e-12)

    def test_forty_block_so5_backbone(self):
        # (m1, m2) = (15/2, 7/2): 40 blocks, dim 1560.  A 40-block chain
        # would exceed MAX_DIM, so the canonical-chain test must not build one.
        gens = gelfand_tsetlin_generators((15, 7), Algebra.DE_SITTER)
        assert (gens.backbone.nblocks, gens.dim) == (40, 1560)
        report = build_report(gens)
        assert report.passed and report.p is None and report.q is None
        # the closed forms at (p, q) = (m1 + 1, m2 + 1) = (17/2, 9/2)
        assert report.casimir1_scalar == pytest.approx(-94.5, rel=1e-12)
        assert report.casimir2_scalar == pytest.approx(-1271.8125, rel=1e-12)

    def test_tampered_report_fails_and_names_relation(self):
        spec = CanonicalSpec(Family.TYPE_A, 2)
        forward, backward = canonical_t(spec, 1)
        gens = assemble(
            canonical_backbone(spec), {(0, 1): 2 * forward, (1, 0): 2 * backward}
        )
        report = build_report(gens)
        assert not report.passed
        assert any(name.startswith("[Vx,Vy]") for name in report.failing_crs)
        # vector-transformation relations still hold
        assert not any(name.startswith("[Jx,Vy]") for name in report.failing_crs)


class TestMemory:
    def test_report_peak_below_a_tenth_of_one_dense_array(self):
        # type A N=20, dim 2870: one dense complex dim x dim array is 132 MB
        spec = CanonicalSpec(Family.TYPE_A, 20)
        dense_bytes = 16 * canonical_dimension(spec) ** 2
        gens = assemble_canonical(spec)
        tracemalloc.start()
        try:
            report = build_report(gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.casimir1_scalar == pytest.approx(-418.0)
        assert peak < dense_bytes / 10

    def test_relation_check_peak(self):
        # type A N=20, dim 2870: the relations run on the generators' real
        # parts, 8 bytes a term where a complex term takes 16
        gens = assemble_canonical(CanonicalSpec(Family.TYPE_A, 20))
        tracemalloc.start()
        try:
            residuals = check_all_crs(gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert max(residuals.values()) < 1e-10
        assert peak < 10.5e6


def _direct_sum(*specs):
    """The backbone of the canonical chains side by side, unconnected."""
    blocks, edges = [], []
    for spec in specs:
        chain = canonical_backbone(spec)
        edges += [(i + len(blocks), j + len(blocks)) for i, j in chain.edges]
        blocks += chain.blocks
    return BackboneGraph.make(blocks, edges)


def _state(value):
    """A value's identity, and a copy of it if it is a container."""
    return id(value), copy.copy(value) if isinstance(value, (dict, list, set)) else None


def _module_state(module):
    """Each global of a module by `_state`, with the size of its cache if
    it has one, and the `_state` of each attribute and default of the
    functions and classes the module defines."""
    state = {}
    for name, value in vars(module).items():
        if name.startswith("__"):
            continue
        inner = None
        if getattr(value, "__module__", None) == module.__name__:
            attributes = {**vars(value), "defaults": getattr(value, "__defaults__", None)}
            inner = {key: _state(attribute) for key, attribute in attributes.items()}
        cache = value.cache_info().currsize if hasattr(value, "cache_info") else None
        state[name] = (_state(value), cache, inner)
    return state


def _peaks(f, gens) -> tuple[int, int]:
    """The traced peak of f(gens) on a first and a second call, each less
    what the first call keeps."""
    tracemalloc.start()
    try:
        f(gens)
        kept, first = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        f(gens)
        second = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return first - kept, second - kept


class TestSharedPlans:
    """Products and relations whose factors share key patterns share one
    expansion and one sort within a call, and nothing outlives the call."""

    @pytest.mark.parametrize("run_terms", [None, 256], ids=["default-runs", "small-runs"])
    @pytest.mark.parametrize(
        "specs",
        [((Family.TYPE_B, 6), (Family.TYPE_B, 6)),
         ((Family.TYPE_A, 6), (Family.TYPE_B, 3), (Family.TYPE_B, 4))],
        ids=["b6+b6", "a6+b3+b4"],
    )
    def test_sums_with_repeated_chains_are_valid(self, specs, run_terms, monkeypatch):
        if run_terms is not None:
            monkeypatch.setattr(dsrep.numeric, "PRODUCT_TERMS", run_terms)
        out = solve_and_verify(_direct_sum(*(CanonicalSpec(f, n) for f, n in specs)))
        assert out.verdict is Verdict.VALID
        crs, want = check_all_crs(out.generators), dense_crs(out.generators)
        assert all(_close(crs[name], want[name]) for name in want)

    @pytest.mark.parametrize("run_terms", [None, 64], ids=["default-runs", "small-runs"])
    def test_relations_with_one_matrix_in_two_places(self, run_terms, monkeypatch):
        # Ky is the Kx matrix itself: [Kx, Ky] has the key patterns of
        # [Jx, Jy] but one right factor where [Jx, Jy] has two
        if run_terms is not None:
            monkeypatch.setattr(dsrep.numeric, "PRODUCT_TERMS", run_terms)
        gens = chain_generators(Family.TYPE_A, 6, Algebra.DE_SITTER)
        broken = dataclasses.replace(gens, ky=gens.kx)
        crs, want = check_all_crs(broken), dense_crs(broken)
        assert all(_close(crs[name], want[name]) for name in want)
        assert _close(crs["[Kx,Ky] = -i Jz"], max_abs(gens.jz))

    def test_no_state_outlives_a_call(self):
        # a first call keeps only each generator's row spans, entry split
        # and quarter turn (its real part, which shares the first two);
        # beyond those, a second call needs as much memory again.
        # Type B, N = 13 is used nowhere else, so no earlier call has seen
        # its patterns.
        for f in (check_all_crs, build_report, check_hermiticity, casimir1_matrix):
            first_peak, second_peak = _peaks(f, assemble_canonical(CanonicalSpec(Family.TYPE_B, 13)))
            assert second_peak >= 0.95 * first_peak, f.__name__
        gens = assemble_canonical(CanonicalSpec(Family.TYPE_A, 10))
        modules = (dsrep.numeric, dsrep.verify)
        before = [_module_state(module) for module in modules]
        first = build_report(gens)
        assert build_report(gens) == first and first.passed
        assert [_module_state(module) for module in modules] == before


class TestNonFinite:
    """A NaN anywhere in the generators must never verify."""

    @pytest.mark.parametrize("everywhere", [False, True], ids=["one-entry", "all-of-vx"])
    def test_nan_generator_fails_report(self, everywhere):
        gens = assemble_canonical(CanonicalSpec(Family.TYPE_A, 3))
        vx = gens.generators()["Vx"]
        if everywhere:
            vx[:] = np.nan
        else:
            r, c = np.argwhere(vx != 0)[0]
            vx[r, c] = np.nan
        report = build_report(dataclasses.replace(gens, vx=sparse_from_dense(vx)))
        assert not report.passed
        assert math.isnan(report.max_cr_residual)
        assert math.isnan(report.max_hermiticity_residual)
        assert "Vx" in report.failing_hermiticity
        assert "[Jz,Vx] = i Vy" in report.failing_crs
        assert report.casimir1_scalar is None and report.casimir2_scalar is None
        broken = dataclasses.replace(gens, vx=sparse_from_dense(vx))
        assert math.isnan(max_abs(casimir1_matrix(broken)))

    def test_nan_reaches_every_relation_naming_the_generator(self):
        gens = assemble_canonical(CanonicalSpec(Family.TYPE_B, 3))
        vt = gens.generators()["Vt"]
        r, c = np.argwhere(vt != 0)[0]
        vt[r, c] = np.nan
        residuals = check_all_crs(dataclasses.replace(gens, vt=sparse_from_dense(vt)))
        for name, value in residuals.items():
            if "Vt" in name:
                assert math.isnan(value), name

    def test_nan_into_a_block_with_empty_rows(self):
        # Type A's 1-dim (0, 0) block has an empty Jx row, so a NaN in a Vt
        # entry into that block meets no stored entry of Jx in Vt @ Jx.
        gens = assemble_canonical(CanonicalSpec(Family.TYPE_A, 3))
        labels = [(b.twice_a, b.twice_b) for b in gens.backbone.blocks]
        col = block_offsets(gens)[labels.index((0, 0))]
        assert not (gens.jx.keys // gens.dim == col).any()
        vt = gens.generators()["Vt"]
        vt[np.flatnonzero(vt[:, col])[0], col] = np.nan
        broken = dataclasses.replace(gens, vt=sparse_from_dense(vt))
        assert math.isnan(max_abs(broken.vt @ broken.jx))
        assert math.isnan(max_abs(commutator(broken.jx, broken.vt)))
        residuals = check_all_crs(broken)
        assert math.isnan(residuals["[Jx,Vt] = 0"])
        for name, value in residuals.items():
            if "Vt" in name:
                assert math.isnan(value), name

    @pytest.mark.parametrize("values", [[math.nan, 1.0], [1.0, math.nan], [0.0, math.nan, 2.0]])
    def test_worst_residual_keeps_nan_in_any_order(self, values):
        assert math.isnan(worst_residual(values))

    def test_worst_residual_of_finite_values(self):
        assert worst_residual([1e-15, 3.0, 2.0]) == 3.0


# ---------------------------------------------------------------------------
# The non-zero kernel against the dense oracle in conftest
# ---------------------------------------------------------------------------


# twice (m1, m2): the diamond (3/2, 1/2) and its larger cyclic relatives
GT_WEIGHTS = [(3, 1), (4, 2), (5, 1), (5, 3), (6, 2)]


@functools.lru_cache(maxsize=None)
def chain_generators(family, n, algebra):
    return assemble_canonical(CanonicalSpec(family, n), algebra)


def _rescaled(gens, factors):
    t = {}
    for (i, j), f in zip(sorted(gens.backbone.edges), factors):
        t[(i, j)], t[(j, i)] = f * gens.t[(i, j)], f * gens.t[(j, i)]
    return assemble(gens.backbone, t, gens.algebra)


def _off_pattern(gens, name):
    """Off-diagonal positions outside the generator's block pattern: the
    diagonal blocks for J and K, the edge rectangles for V."""
    offsets = block_offsets(gens)
    owner = np.repeat(np.arange(gens.backbone.nblocks), np.diff(offsets))
    same = owner[:, None] == owner[None, :]
    if name[0] in "JK":
        allowed = same
    else:
        joined = np.zeros((gens.backbone.nblocks,) * 2, dtype=bool)
        for i, j in gens.backbone.edges:
            joined[i, j] = joined[j, i] = True
        allowed = joined[owner[:, None], owner[None, :]]
    return np.argwhere(~allowed & ~np.eye(gens.dim, dtype=bool))


@st.composite
def generator_sets(draw):
    """Canonical chains (both families, both algebras) and so(5) cyclic
    backbones, as built or with couplings rescaled or one stray entry.
    Returns the set and whether it must fail."""
    algebra = draw(st.sampled_from(list(Algebra)))
    if draw(st.booleans()):
        gens = chain_generators(
            draw(st.sampled_from(list(Family))), draw(st.integers(2, 6)), algebra
        )
    else:
        gens = gelfand_tsetlin_generators(draw(st.sampled_from(GT_WEIGHTS)), algebra)
    change = draw(st.sampled_from(["none", "rescale", "stray"]))
    if change == "rescale":
        factors = draw(st.lists(
            st.floats(0.5, 2.0), min_size=len(gens.backbone.edges),
            max_size=len(gens.backbone.edges),
        ))
        return _rescaled(gens, factors), False
    if change == "stray":
        name = draw(st.sampled_from(list(gens.generators())))
        spots = _off_pattern(gens, name)
        r, c = spots[draw(st.integers(0, len(spots) - 1))]
        matrix = gens.generators()[name]
        matrix[r, c] = draw(st.sampled_from([0.25, -1.0, 0.5j, 3.0]))
        return dataclasses.replace(gens, **{name.lower(): sparse_from_dense(matrix)}), True
    return gens, False


@st.composite
def tampered_chains(draw):
    """A canonical chain (a2-a6, b2-b6, either algebra) with eps in
    {1e-9, 1e-6, 1} x {+-1, +-i} added at one stored or one absent entry
    of one generator."""
    gens = chain_generators(
        draw(st.sampled_from(list(Family))), draw(st.integers(2, 6)),
        draw(st.sampled_from(list(Algebra))),
    )
    name = draw(st.sampled_from(GENERATOR_NAMES))
    m = gens.matrices()[name]
    if draw(st.booleans()):
        key = m.keys[draw(st.integers(0, m.keys.size - 1))]
    else:
        absent = np.setdiff1d(np.arange(m.n * m.n), m.keys)
        key = absent[draw(st.integers(0, absent.size - 1))]
    eps = draw(st.sampled_from([1e-9, 1e-6, 1.0])) * draw(st.sampled_from([1, -1, 1j, -1j]))
    tampered = Sparse(m.n, np.append(m.keys, key), np.append(m.vals, eps)).reduced()
    return dataclasses.replace(gens, **{name.lower(): tampered})


class TestTamper:
    @settings(max_examples=200, deadline=None)
    @given(tampered_chains())
    def test_one_changed_entry_fails_the_report(self, gens):
        assert not build_report(gens).passed


def _conjugated(gens, u):
    """The set with every generator X replaced by u X u^dagger.  A real u
    acts on the real and imaginary parts apart, so a real or imaginary X
    stays so."""

    def conjugated(x):
        if np.isrealobj(u):
            return u @ x.real @ u.T + 1j * (u @ x.imag @ u.T)
        return u @ x @ u.conj().T

    return dataclasses.replace(gens, **{
        name.lower(): sparse_from_dense(conjugated(m.to_dense())) for name, m in gens.matrices().items()
    })


def _random_unitary(rng, size):
    z = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_orthogonal(rng, size):
    q, r = np.linalg.qr(rng.normal(size=(size, size)))
    return q * np.sign(np.diag(r))


def _kernel_dtypes(monkeypatch) -> set:
    """The kinds ("f", "c") of the matrices `verify` hands to
    `residual_norms` from now on."""
    kinds = set()
    kernel = dsrep.verify.residual_norms

    def recorded(n, relations):
        relations = list(relations)
        for products, singles in relations:
            kinds.update(m.vals.dtype.kind for _, a, b in products for m in (a, b))
            kinds.update(m.vals.dtype.kind for _, m, _ in singles)
        return kernel(n, relations)

    monkeypatch.setattr(dsrep.verify, "residual_norms", recorded)
    return kinds


class TestBasisIndependence:
    """A change of basis that keeps Jz diagonal keeps every verdict.  A
    real orthogonal one keeps every generator real or imaginary, so the
    relations run on real parts, now dense within blocks; a unitary one
    makes them complex."""

    @settings(max_examples=24, deadline=None)
    @given(
        st.sampled_from(
            [(Family.TYPE_A, n) for n in (2, 3, 4)] + [(Family.TYPE_B, n) for n in (2, 3, 4, 5)]
            + [(3, 1), (4, 2)]  # twice (m1, m2): the solver's (3/2, 1/2) and (2, 1)
        ),
        st.sampled_from(list(Algebra)),
        st.booleans(),
        st.integers(0, 2**32 - 1),
    )
    def test_unitaries_that_commute_with_jz_keep_the_report(self, source, algebra, real, seed):
        if isinstance(source[0], Family):
            gens = chain_generators(*source, algebra)
        else:
            gens = gelfand_tsetlin_generators(source, algebra)
        rng = np.random.default_rng(seed)
        m = gens.jz.to_dense().diagonal().real
        u = np.zeros((gens.dim, gens.dim), dtype=float if real else complex)
        for value in np.unique(m):
            space = np.flatnonzero(m == value)
            u[np.ix_(space, space)] = (_random_orthogonal if real else _random_unitary)(rng, space.size)
        before = build_report(gens)
        with pytest.MonkeyPatch.context() as patch:
            kinds = _kernel_dtypes(patch)
            after = build_report(_conjugated(gens, u))
        assert kinds == ({"f"} if real else {"c"})
        assert before.passed and after.passed
        assert after.failing_crs == after.failing_hermiticity == after.failing_invariants == []
        for ours, theirs, tol in ((after.casimir1_scalar, before.casimir1_scalar, C1_SCALAR_TOLERANCE),
                                  (after.casimir2_scalar, before.casimir2_scalar, C2_SCALAR_TOLERANCE)):
            assert abs(ours - theirs) <= tol * max(1.0, abs(theirs))

        # a rotation between two Jz eigenspaces, then the same u: Jz is off
        # its labels' diagonal, and only check_jz can tell
        i, j = rng.choice(np.flatnonzero(m != m[0])), rng.choice(np.flatnonzero(m == m[0]))
        mix = np.eye(gens.dim, dtype=u.dtype)
        mix[np.ix_([i, j], [i, j])] = np.array([[1, -1], [1, 1]]) / math.sqrt(2)
        mixed = _conjugated(gens, u @ mix)
        assert check_jz(mixed) > JZ_TOLERANCE
        report = build_report(mixed)
        assert report.failing_invariants == ["Jz"]
        assert report.failing_crs == report.failing_hermiticity == []


# twice (m1, m2) of the so(5) weights the gauge-search benchmark solves,
# (3/2, 1/2) to (11/2, 7/2), dims 16-616
GAUGE_WEIGHTS = [(3, 1), (4, 2), (5, 1), (5, 3), (6, 2), (7, 1), (7, 3), (9, 3), (9, 5), (11, 5), (11, 7)]
STANDARD_SETS = [
    pytest.param((family, n, algebra), id=f"{family.value}{n}-{algebra.value}")
    for algebra in Algebra for family in Family for n in range(2, 13)
] + [pytest.param(weight, id=f"gt{weight[0]}-{weight[1]}") for weight in GAUGE_WEIGHTS]


def _standard_set(source):
    if len(source) == 3:
        return chain_generators(*source)
    return gelfand_tsetlin_generators(source, Algebra.DE_SITTER)


def _residuals(gens):
    return {**check_all_crs(gens), **check_hermiticity(gens)}


def _dense_residuals(gens):
    return {**dense_crs(gens), **dense_hermiticity(gens)}


class TestRealParts:
    """Where every generator is i^q times a real matrix with its algebra's
    standard q, the relations and Hermiticity run on the real parts; any
    other set runs on the complex matrices.  Either way the residuals are
    those of the dense formulas, and so are the verdicts.  Both sides are
    rounding noise summed in different orders (the dense side by BLAS), so
    they agree to 1e-14, not bit for bit; they differ by up to 3.8e-15 at
    a10 on the complex path too."""

    @pytest.mark.parametrize("source", STANDARD_SETS)
    def test_standard_sets_run_on_real_parts(self, source, monkeypatch):
        gens = _standard_set(source)
        turns = dsrep.verify.quarter_turns(gens.algebra)
        assert {name: m.quarter_turn()[0] for name, m in gens.matrices().items()} == turns
        kinds = _kernel_dtypes(monkeypatch)
        ours = _residuals(gens)
        assert kinds == {"f"}
        monkeypatch.setattr(dsrep.verify, "_real_parts", lambda g: None)
        assert ours.keys() == _residuals(gens).keys()
        assert ours == pytest.approx(_residuals(gens), rel=0, abs=1e-14)
        assert kinds == {"f", "c"}
        if gens.dim <= 400:  # the dense products take seconds beyond
            assert ours == pytest.approx(_dense_residuals(gens), rel=0, abs=1e-14)

    @staticmethod
    def _failing(residuals):
        return sorted(
            name for name, r in residuals.items()
            if not r < (HERMITICITY_TOLERANCE if name in GENERATOR_NAMES else CR_TOLERANCE)
        )

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_a_generator_with_the_other_turn_runs_complex(self, algebra, monkeypatch):
        # i Jx is imaginary where Jx is real: phase-pure, the wrong q
        gens = chain_generators(Family.TYPE_B, 4, algebra)
        turned = dataclasses.replace(gens, jx=1j * gens.jx)
        assert turned.jx.quarter_turn()[0] == 1
        kinds = _kernel_dtypes(monkeypatch)
        ours = _residuals(turned)
        assert kinds == {"c"}
        assert ours == pytest.approx(_dense_residuals(turned), rel=0, abs=1e-14)
        assert "Jx" in self._failing(ours) and "[Jx,Jy] = i Jz" in self._failing(ours)
        assert self._failing(ours) == self._failing(_dense_residuals(turned))
        report = build_report(turned)
        assert sorted(report.failing_crs + report.failing_hermiticity) == self._failing(ours)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    def test_non_finite_entries_run_complex(self, bad, monkeypatch):
        gens = chain_generators(Family.TYPE_A, 4, Algebra.DE_SITTER)
        vals = gens.vx.vals.copy()
        vals[3] = bad
        broken = dataclasses.replace(gens, vx=Sparse(gens.dim, gens.vx.keys, vals, reduced=True))
        assert broken.vx.quarter_turn() is None
        kinds = _kernel_dtypes(monkeypatch)
        with np.errstate(all="ignore"):
            ours = _residuals(broken)
        assert kinds == {"c"}
        naming = sorted(name for name in ours if "Vx" in name)
        assert self._failing(ours) == naming
        assert not any(math.isfinite(ours[name]) for name in naming)
        if math.isnan(bad):
            assert all(math.isnan(ours[name]) for name in naming)
        assert not build_report(broken).passed


def _close(got, want):
    return abs(got - want) <= 1e-12 * max(1.0, abs(want))


class TestDenseOracle:
    """Residuals, Casimir matrices and verdicts equal the dense formulas'."""

    @settings(max_examples=60, deadline=None)
    @given(generator_sets())
    def test_agrees_with_dense_products(self, case):
        gens, must_fail = case
        crs, want_crs = check_all_crs(gens), dense_crs(gens)
        herm, want_herm = check_hermiticity(gens), dense_hermiticity(gens)
        assert crs.keys() == want_crs.keys()
        for name, value in [*crs.items(), *herm.items()]:
            want = want_crs[name] if name in want_crs else want_herm[name]
            assert _close(value, want), (name, value, want)

        def verdict(cr_values, herm_values):
            return max(cr_values) < 1e-10 and max(herm_values) < 1e-11

        passed = verdict(crs.values(), herm.values())
        assert passed == verdict(want_crs.values(), want_herm.values())
        if must_fail:
            assert not passed

        for ours, dense, tol in (
            (casimir1_matrix(gens), dense_casimir1(gens), 1e-9),
            (casimir1_matrix(gens), dense_casimir1_cartesian(gens), 1e-9),
            (casimir2_matrix(gens), dense_casimir2(gens), 1e-8),
        ):
            assert max_abs(ours.to_dense() - dense) <= 1e-12 * max(1.0, max_abs(dense))
            lam, want = scalar_check(ours, tol), dense_scalar_check(dense, tol)
            assert (lam is None) == (want is None)
            if lam is not None:
                assert _close(lam, want)

    def test_cyclic_backbones_are_valid_with_weyl_dimension(self):
        for twice_m1, twice_m2 in GT_WEIGHTS:
            gens = gelfand_tsetlin_generators((twice_m1, twice_m2), Algebra.DE_SITTER)
            m1, m2 = Fraction(twice_m1, 2), Fraction(twice_m2, 2)
            weyl = (2 * m1 + 3) * (2 * m2 + 1) * (m1 + m2 + 2) * (m1 - m2 + 1) / 6
            assert gens.dim == weyl
