"""Backbone validation pipeline."""

import contextlib
import io
import itertools
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import (
    backbone_to_doc,
    dense_onbd_rows,
    dense_rows,
    fraction_solve,
    gelfand_tsetlin_backbone,
    permutation_paths,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from dsrep.blocks import BlockLabel
from dsrep.coupling import compatibility, z_linear
from dsrep.cli import main
from dsrep.io import backbone_from_doc, load_json, save_json
from dsrep.numeric import solve_rational_linear
from dsrep.representation import (
    BackboneGraph,
    CanonicalSpec,
    Family,
    assemble,
    canonical_backbone,
    canonical_t_squared,
    couplings_from_products,
    first_ten_specs,
)
from dsrep.solver import (
    Verdict,
    WitnessKind,
    build_onbd_system,
    decompose,
    solve_and_verify,
    structural_checks,
    unique_nonmonotonic_paths,
)
from dsrep.verify import (
    casimir1_matrix,
    casimir2_matrix,
    check_all_crs,
    check_hermiticity,
    scalar_check,
)

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def L(twice_a, twice_b):
    return BlockLabel(twice_a=twice_a, twice_b=twice_b)


FIXTURE_NAMES = sorted(path.stem for path in FIXTURES.glob("*.json"))


def load_fixture(name):
    graph, _ = backbone_from_doc(load_json(FIXTURES / f"{name}.json"))
    return graph


def compatibility_ok(blocks, i, j):
    return compatibility(blocks[i], blocks[j]) is not None


@st.composite
def backbones(draw):
    """Random backbones: small labels (so repeated), random compatible edges
    (so cycles), a few incompatible ones, and a hub of leaves around one
    block, some leaves joined on to other blocks."""
    twice = st.integers(0, 3)
    blocks = [L(*p) for p in draw(st.lists(st.tuples(twice, twice), min_size=2, max_size=10))]
    hub = draw(st.integers(0, len(blocks) - 1))
    edges = set()
    for _ in range(draw(st.integers(0, 12))):
        s_a, s_b = draw(st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]))
        twice_a, twice_b = blocks[hub].twice_a + s_a, blocks[hub].twice_b + s_b
        if min(twice_a, twice_b) >= 0:
            blocks.append(L(twice_a, twice_b))
            edges.add((hub, len(blocks) - 1))
    pairs = list(itertools.combinations(range(len(blocks)), 2))
    compatible = [p for p in pairs if compatibility_ok(blocks, *p)]
    if compatible:
        edges |= draw(st.sets(st.sampled_from(compatible), max_size=3 * len(blocks)))
    edges |= draw(st.sets(st.sampled_from(pairs), max_size=2))
    return BackboneGraph.make(blocks, edges)


class TestStructuralChecks:
    def test_single_block(self):
        w = structural_checks(BackboneGraph.make([L(2, 0)], []))
        assert w.kind is WitnessKind.ONE_BLOCK

    def test_isolated_block(self):
        g = BackboneGraph.make([L(1, 0), L(0, 1), L(4, 4)], [(0, 1)])
        w = structural_checks(g)
        assert w.kind is WitnessKind.DANGLING_END

    def test_incompatible_edge(self):
        g = BackboneGraph.make([L(2, 2), L(2, 0)], [(0, 1)])
        assert structural_checks(g).kind is WitnessKind.INCOMPATIBLE_EDGE

    def test_minimum_labels_must_reach_zero(self):
        g = BackboneGraph.make([L(2, 1), L(1, 2)], [(0, 1)])
        w = structural_checks(g)
        assert w.kind is WitnessKind.BOUNDARY_VIOLATION

    def test_only_upward_neighbours(self):
        # (1/2,1/2) hangs below a chain: all its neighbours have larger A
        g = load_fixture("invalid_dangling_above_chain")
        w = structural_checks(g)
        assert w.kind is WitnessKind.BOUNDARY_VIOLATION
        assert "larger A" in w.message

    def test_only_rightward_neighbours(self):
        g = load_fixture("invalid_dangling_rightward")
        w = structural_checks(g)
        assert w.kind is WitnessKind.BOUNDARY_VIOLATION
        assert "larger B" in w.message

    @pytest.mark.parametrize("ref,spec", first_ten_specs())
    def test_canonical_chains_pass(self, ref, spec):
        assert structural_checks(canonical_backbone(spec)) is None


class TestNonMonotonicPaths:
    def test_kinked_path_is_fatal(self):
        # straight-then-up: (1,0) - (1/2,1/2) - (1,1)
        g = BackboneGraph.make([L(2, 0), L(1, 1), L(2, 2)], [(0, 1), (1, 2)])
        paths = unique_nonmonotonic_paths(g).first
        assert (0, 1, 2) in paths and (2, 1, 0) in paths

    @pytest.mark.parametrize("ref,spec", first_ten_specs())
    def test_canonical_chains_have_none(self, ref, spec):
        assert unique_nonmonotonic_paths(canonical_backbone(spec)) == ((), 0)

    def test_duplicate_middle_makes_paths_non_unique(self):
        # both (1/2,1/2) copies sit between (1,0) and (0,1)
        g = BackboneGraph.make(
            [L(2, 0), L(1, 1), L(1, 1), L(0, 2)],
            [(0, 1), (0, 2), (1, 3), (2, 3)],
        )
        assert unique_nonmonotonic_paths(g) == ((), 0)

    def test_duplicate_origin_exemption(self):
        # two origin copies joined through (1/2,1/2): the obstruction
        # vanishes identically on the one-state blocks
        g = BackboneGraph.make([L(0, 0), L(1, 1), L(0, 0)], [(0, 1), (1, 2)])
        assert unique_nonmonotonic_paths(g) == ((), 0)

    def test_duplicate_nonorigin_not_exempt(self):
        g = BackboneGraph.make([L(1, 1), L(2, 2), L(1, 1)], [(0, 1), (1, 2)])
        assert unique_nonmonotonic_paths(g).total > 0

    def test_witness_keeps_the_first_paths_of_a_two_class_star(self):
        # a (1/2,1/2) hub with 50 (1,0) and 50 (0,0) leaves, dim 204: every
        # pair of leaves but two (0,0) ones is a fatal path, 7450 in all
        blocks = [L(1, 1)] + [L(2, 0)] * 50 + [L(0, 0)] * 50
        g = BackboneGraph.make(blocks, [(0, leaf) for leaf in range(1, 101)])
        paths = permutation_paths(g)
        assert len(paths) == 7450
        assert unique_nonmonotonic_paths(g) == (tuple(paths[:8]), 7450)
        witness = solve_and_verify(g).witness
        assert witness.kind is WitnessKind.NONMONOTONIC_PATH
        assert witness.data == tuple(paths[:8])
        assert witness.message.endswith("(7450 such paths, the first 8 kept)")
        i, k, j = paths[0]
        assert witness.message.startswith(f"blocks {i}-{k}-{j} ")

    def test_witness_lists_every_path_when_there_are_few(self):
        # four fatal paths: all kept, the message as before
        g = load_fixture("invalid_shared_crossing")
        witness = solve_and_verify(g).witness
        assert witness.data == tuple(permutation_paths(g))
        assert unique_nonmonotonic_paths(g) == (witness.data, 4)
        assert witness.message.endswith("change direction")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_label_classes_match_the_pair_enumeration(self, data):
        g = data.draw(backbones())
        paths = permutation_paths(g)
        assert unique_nonmonotonic_paths(g) == (tuple(paths[:8]), len(paths))

    @pytest.mark.parametrize("leaves", [1, 2, 5])
    def test_hub_of_branches_and_shared_hubs_match_the_pair_enumeration(self, leaves):
        # a (1/2,1/2) hub whose (1,0) and (0,1) neighbours each go on to a
        # (3/2,1/2) or (1/2,3/2), some shared; and two (1,1) hubs sharing
        # (1/2,1/2) blocks, one of which also hangs off a (3/2,3/2)
        blocks = [L(1, 1)] + [L(2, 0), L(0, 2)] * 6 + [L(3, 1), L(1, 3)] * leaves
        edges = [(0, n) for n in range(1, 13)]
        edges += [(n, 13 + (n + k) % (2 * leaves)) for n in range(1, 13) for k in range(2)
                  if compatibility_ok(blocks, n, 13 + (n + k) % (2 * leaves))]
        hubs = [L(2, 2), L(2, 2), L(3, 3)] + [L(1, 1)] * (3 * leaves)
        hub_edges = [(h, 3 + n) for h in (0, 1) for n in range(3 * leaves)] + [(2, 3)]
        for g in (BackboneGraph.make(blocks, edges), BackboneGraph.make(hubs, hub_edges)):
            paths = permutation_paths(g)
            assert unique_nonmonotonic_paths(g) == (tuple(paths[:8]), len(paths))

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures_match_the_pair_enumeration(self, name):
        g = load_fixture(name)
        paths = permutation_paths(g)
        assert unique_nonmonotonic_paths(g) == (tuple(paths[:8]), len(paths))


class TestOnBdSystem:
    def test_two_rows_per_block(self):
        g = canonical_backbone(CanonicalSpec(Family.TYPE_B, 4))
        system = build_onbd_system(g)
        assert len(system.rows) == 2 * g.nblocks
        assert len(system.edges) == 3

    def test_diagonal_two_block_product(self):
        g = canonical_backbone(CanonicalSpec(Family.TYPE_A, 2))
        system = build_onbd_system(g)
        out = solve_rational_linear(system.rows, system.rhs, len(system.edges))
        assert out.status == "unique"
        assert out.solution == [Fraction(-1, 2)]
        assert system.required_sign[(0, 1)] == -1

    def test_mixed_two_block_product(self):
        g = canonical_backbone(CanonicalSpec(Family.TYPE_B, 2))
        system = build_onbd_system(g)
        out = solve_rational_linear(system.rows, system.rhs, len(system.edges))
        assert out.solution == [Fraction(1, 4)]
        assert system.required_sign[(0, 1)] == 1

    def test_block_with_only_downward_mixed_neighbours_is_inconsistent(self):
        # (1/2,1/2) below (1,1): the top block's equations force one
        # product, the bottom block's force another
        g = BackboneGraph.make([L(1, 1), L(2, 2)], [(0, 1)])
        system = build_onbd_system(g)
        assert solve_rational_linear(system.rows, system.rhs, 1).status == "inconsistent"

    @pytest.mark.parametrize("name", ["valid_three_chain_crossing", "reducible_b4_plus_b6"])
    def test_system_and_coefficients_are_integers(self, name):
        g = load_fixture(name)
        system = build_onbd_system(g)
        assert 0 in system.rhs  # rows of an index that cannot vary, too
        assert all(type(v) is int for row in system.rows for v in row.values())
        assert all(type(v) is int for v in system.rhs)
        for s_a, s_b in itertools.product((1, -1), repeat=2):
            for label in g.blocks:
                coefs = z_linear((s_a, s_b), label)
                assert all(type(c) is int and c % 2 == 0 for c in coefs)

    @pytest.mark.parametrize("ref,spec", first_ten_specs())
    def test_canonical_products_exact(self, ref, spec):
        g = canonical_backbone(spec)
        system = build_onbd_system(g)
        out = solve_rational_linear(system.rows, system.rhs, len(system.edges))
        assert out.status == "unique"
        for edge, value in zip(system.edges, out.solution):
            n = edge[0] + 1  # chain edges are (i, i+1)
            expected = canonical_t_squared(spec, n)
            if spec.family is Family.TYPE_A:
                expected = -expected
            assert value == expected

    @pytest.mark.parametrize("weight", [(3, 1), (4, 2), (9, 5), (11, 7)])
    def test_sparse_rows_are_the_dense_system_in_label_order(self, weight):
        g = gelfand_tsetlin_backbone(*weight)
        system = build_onbd_system(g)
        top_down = sorted(
            range(g.nblocks), key=lambda b: (-g.blocks[b].twice_a - g.blocks[b].twice_b, -g.blocks[b].twice_a, b)
        )
        dense, rhs = dense_onbd_rows(g)
        ncols = len(system.edges)
        order = [2 * b + axis for b in top_down for axis in (0, 1)]
        assert dense_rows(system.rows, ncols) == [dense[r] for r in order]
        assert system.rhs == [rhs[r] for r in order]
        assert max(sum(col in row for row in system.rows) for col in range(ncols)) <= 4
        assert solve_rational_linear(system.rows, system.rhs, ncols) == fraction_solve(dense, rhs)


def star(leaves):
    """A (1/2,1/2) hub (block 0) joined to each of `leaves`, a list of labels."""
    return BackboneGraph.make([L(1, 1)] + leaves, [(0, n) for n in range(1, len(leaves) + 1)])


class TestBoundedEffort:
    """Stages 2 and 3 on a hub of thousands of leaves, near dim 3000."""

    def test_star_of_origins_is_underdetermined_fast(self):
        # no fatal path; one free product per leaf but one
        g = star([L(0, 0)] * 2996)
        assert g.dim == 3000
        tracemalloc.start()
        try:
            start = time.perf_counter()
            outcome = solve_and_verify(g)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense system alone took 5994 x 2996 list cells
        assert peak < 8 * 2**20
        assert elapsed < 2.0
        assert outcome.verdict is Verdict.UNDERDETERMINED
        assert outcome.dof == 2995

    def test_star_prints_short_lines(self, tmp_path):
        # the component's labels are cut at KEPT_PATHS, as the witness's paths are
        path = tmp_path / "star.json"
        save_json(backbone_to_doc(star([L(0, 0)] * 2996)), path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["validate", str(path)]) == 1
        lines = out.getvalue().splitlines()
        assert max(map(len, lines)) < 200
        assert "  non-canonical [(1/2,1/2) + (0,0) + (0,0) + (0,0) + (0,0) + (0,0) + (0,0) + " \
               "(0,0) + ... (2997 blocks)]" in lines

    def test_two_class_star_witness_is_fast_and_small(self):
        # a (1,0) leaves and b (0,0) leaves: every ordered pair of leaves
        # but two (0,0) ones is a fatal path, a(a - 1) + 2ab in all
        a, b = 500, 1496
        g = star([L(2, 0)] * a + [L(0, 0)] * b)
        assert g.dim == 3000
        tracemalloc.start()
        try:
            start = time.perf_counter()
            paths = unique_nonmonotonic_paths(g)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert paths.total == a * (a - 1) + 2 * a * b
        assert paths.first == tuple((1, 0, j) for j in range(2, 10))
        assert peak < 4 * 2**20
        assert elapsed < 1.0
        start = time.perf_counter()
        witness = solve_and_verify(g).witness
        assert time.perf_counter() - start < 2.0
        assert witness.kind is WitnessKind.NONMONOTONIC_PATH
        assert witness.data == paths.first

    def test_hubs_sharing_their_neighbours_count_shared_pairs_in_small_memory(self):
        # two (1,1) hubs and a (0,0) hub, each joined to the same n
        # (1/2,1/2) blocks: around every middle each fatal pair has a
        # second path, n(n - 1) pairs around each hub
        n = 745
        g = BackboneGraph.make([L(2, 2), L(2, 2), L(0, 0)] + [L(1, 1)] * n,
                               [(hub, 3 + m) for hub in range(3) for m in range(n)])
        assert g.dim == 2999 and structural_checks(g) is None
        start = time.perf_counter()
        assert unique_nonmonotonic_paths(g) == ((), 0)
        assert time.perf_counter() - start < 2.0
        tracemalloc.start()
        try:
            unique_nonmonotonic_paths(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # keeping the shared pairs took about 90 MB
        assert peak < 4 * 2**20


class TestSolveAndVerify:
    def test_canonical_chain_with_couplings(self):
        out = solve_and_verify(canonical_backbone(CanonicalSpec(Family.TYPE_A, 3)))
        assert out.verdict is Verdict.VALID
        assert out.t_values[(0, 1)] == pytest.approx(0.5, abs=1e-12)
        assert out.t_values[(1, 2)] == pytest.approx(5 ** 0.5 / 2, abs=1e-12)
        assert out.t_values[(1, 0)] == -out.t_values[(0, 1)]
        [component] = out.components
        assert component.family is Family.TYPE_A and component.n == 3

    def test_valid_outcome_is_verified(self):
        out = solve_and_verify(canonical_backbone(CanonicalSpec(Family.TYPE_B, 5)))
        assert out.verdict is Verdict.VALID
        assert max(check_all_crs(out.generators).values()) < 1e-10
        assert max(check_hermiticity(out.generators).values()) < 1e-10

    @pytest.mark.parametrize(
        "name", ["reducible_b4_plus_b6", "reducible_b5_plus_a2", "valid_duplicate_crossing",
                 "valid_three_chain_crossing"],
    )
    def test_couplings_name_both_directions_of_each_edge(self, name):
        g = load_fixture(name)
        out = solve_and_verify(g)
        assert out.verdict is Verdict.VALID
        directions = {(i, j) for e in g.edges for i, j in (e, e[::-1])}
        assert set(out.t_values) == directions

    def test_underdetermined_duplicate_origins(self):
        g = BackboneGraph.make([L(0, 0), L(1, 1), L(0, 0)], [(0, 1), (1, 2)])
        out = solve_and_verify(g)
        assert out.verdict is Verdict.UNDERDETERMINED
        assert out.dof == 1
        assert out.t_values is None

    def test_linear_inconsistency_with_duplicates(self):
        # doubled middle block: paths are non-unique but the endpoint
        # equations clash
        g = BackboneGraph.make(
            [L(0, 0), L(0, 2), L(1, 1), L(1, 1)],
            [(0, 2), (0, 3), (1, 2), (1, 3)],
        )
        out = solve_and_verify(g)
        assert out.verdict is Verdict.INVALID
        assert out.witness.kind is WitnessKind.LINEAR_INCONSISTENT

    def test_diagonal_chain_without_origin_rejected(self):
        g = BackboneGraph.make([L(2, 1), L(1, 0)], [(0, 1)])
        out = solve_and_verify(g)
        assert out.verdict is Verdict.INVALID
        assert out.witness.kind is WitnessKind.BOUNDARY_VIOLATION

    def test_two_incompatible_blocks_rejected(self):
        g = BackboneGraph.make([L(2, 2), L(2, 0)], [(0, 1)])
        out = solve_and_verify(g)
        assert out.verdict is Verdict.INVALID
        assert out.witness.kind is WitnessKind.INCOMPATIBLE_EDGE

    def test_block_listing_order_is_immaterial(self):
        # the type-A three-chain listed middle, bottom, top
        g = BackboneGraph.make([L(1, 1), L(0, 0), L(2, 2)], [(0, 1), (0, 2)])
        out = solve_and_verify(g)
        assert out.verdict is Verdict.VALID
        assert abs(out.t_values[(0, 1)]) == pytest.approx(5 ** 0.5 / 2, abs=1e-12)
        assert abs(out.t_values[(0, 2)]) == pytest.approx(0.5, abs=1e-12)
        [component] = out.components
        assert component.family is Family.TYPE_A and component.n == 3
        # the component walk recovers a chain ordering
        walked = [g.blocks[i] for i in component.indices]
        assert walked in (
            [L(0, 0), L(1, 1), L(2, 2)],
            [L(2, 2), L(1, 1), L(0, 0)],
        )

    def test_anti_de_sitter_validation(self):
        from dsrep.representation import Algebra

        g = canonical_backbone(CanonicalSpec(Family.TYPE_B, 3))
        out = solve_and_verify(g, algebra=Algebra.ANTI_DE_SITTER)
        assert out.verdict is Verdict.VALID
        assert out.generators.algebra is Algebra.ANTI_DE_SITTER
        assert max(check_hermiticity(out.generators).values()) < 1e-11


class TestNonFiniteResidual:
    def test_nan_residual_is_a_failure(self, monkeypatch):
        # a residual of NaN must not pass the tolerance test, wherever it
        # sits among the finite ones
        import dsrep.solver as solver

        real = solver.check_hermiticity
        monkeypatch.setattr(
            solver, "check_hermiticity",
            lambda gens: {**real(gens), "Vt": float("nan")},
        )
        out = solve_and_verify(canonical_backbone(CanonicalSpec(Family.TYPE_B, 3)))
        assert out.verdict is Verdict.INVALID
        assert out.witness.kind is WitnessKind.CR_FAILURE
        assert "best residual nan" in out.witness.message


class TestResidualBounds:
    """Each check's residuals are held to that check's bound, the one
    `verify` reports: 1e-11 for Hermiticity, 1e-10 for the relations."""

    @pytest.mark.parametrize(
        "check,verdict",
        [("check_hermiticity", Verdict.INVALID), ("check_all_crs", Verdict.VALID)],
    )
    def test_residual_between_the_two_bounds(self, monkeypatch, check, verdict):
        import dsrep.solver as solver

        real = getattr(solver, check)
        monkeypatch.setattr(solver, check, lambda gens: {**real(gens), "Vt": 5e-11})
        out = solve_and_verify(canonical_backbone(CanonicalSpec(Family.TYPE_A, 3)))
        assert out.verdict is verdict
        if verdict is Verdict.INVALID:
            assert out.witness.kind is WitnessKind.CR_FAILURE
            assert "best residual 5.000e-11" in out.witness.message


class TestCyclicStructures:
    """The smallest cycle carries a representation outside the chain family."""

    DIAMOND_BLOCKS = [L(1, 0), L(2, 1), L(1, 2), L(0, 1)]
    DIAMOND_EDGES = [(0, 1), (1, 2), (2, 3), (3, 0)]

    def test_default_pipeline_rejects(self):
        g = BackboneGraph.make(self.DIAMOND_BLOCKS, self.DIAMOND_EDGES)
        out = solve_and_verify(g)
        assert out.verdict is Verdict.INVALID
        assert out.witness.kind in (
            WitnessKind.CR_FAILURE,
            WitnessKind.NONCANONICAL_COMPONENT,
        )

    def test_verdict_independent_of_block_order(self):
        reordered = [self.DIAMOND_BLOCKS[i] for i in (3, 1, 0, 2)]
        remap = {0: 2, 1: 1, 2: 3, 3: 0}
        edges = [(remap[i], remap[j]) for i, j in self.DIAMOND_EDGES]
        out = solve_and_verify(BackboneGraph.make(reordered, edges))
        assert out.verdict is Verdict.INVALID

    def test_gauge_search_recovers_the_representation(self):
        g = BackboneGraph.make(self.DIAMOND_BLOCKS, self.DIAMOND_EDGES)
        out = solve_and_verify(g, allow_noncanonical=True)
        assert out.verdict is Verdict.VALID
        gens = out.generators
        assert gens.dim == 16
        assert max(check_all_crs(gens).values()) < 1e-12
        assert max(check_hermiticity(gens).values()) < 1e-12
        # an irreducible representation beyond the chain family:
        # both Casimirs are scalar at values no chain attains
        c1 = scalar_check(casimir1_matrix(gens), 1e-9)
        c2 = scalar_check(casimir2_matrix(gens), 1e-8)
        assert c1.real == pytest.approx(-7.5, abs=1e-9)
        assert c2.real == pytest.approx(-105 / 16, abs=1e-8)
        [component] = out.components
        assert component.family is None

    def test_flipped_chord_gives_the_solvers_set(self):
        # union-find over the sorted edges (0, 1), (0, 3), (1, 2), (2, 3)
        # makes (2, 3) the one chord
        g = BackboneGraph.make(self.DIAMOND_BLOCKS, self.DIAMOND_EDGES)
        out = solve_and_verify(g, allow_noncanonical=True)
        t = couplings_from_products(g, out.x_values, {(2, 3): -1})
        assert t == out.t_values
        flipped = assemble(g, t)
        for name, m in flipped.matrices().items():
            want = out.generators.matrices()[name]
            assert m.to_dense().tobytes() == want.to_dense().tobytes(), name
        all_plus = assemble(g, couplings_from_products(g, out.x_values))
        assert max(check_all_crs(all_plus).values()) > 1e-3

    def test_default_mode_assembles_only_the_fixed_gauge(self, monkeypatch):
        import dsrep.solver as solver

        couplings = []

        def recording(g, t, algebra):
            couplings.append(t)
            return assemble(g, t, algebra)

        assemble = solver.assemble
        monkeypatch.setattr(solver, "assemble", recording)
        g = BackboneGraph.make(self.DIAMOND_BLOCKS, self.DIAMOND_EDGES)
        solve_and_verify(g)
        [t] = couplings
        assert all(t[(i, j)] > 0 for i, j in g.edges)
        assert len(t) == 2 * len(g.edges)
        couplings.clear()
        # one chord: the all-plus pattern fails, the second one verifies
        solve_and_verify(g, allow_noncanonical=True)
        assert len(couplings) == 2

    def test_search_budget_gives_its_own_witness(self, monkeypatch):
        import dsrep.solver as solver

        # one chord, so two patterns; the second one verifies
        g = BackboneGraph.make(self.DIAMOND_BLOCKS, self.DIAMOND_EDGES)
        monkeypatch.setattr(solver, "MAX_GAUGE_PATTERNS", 1)
        out = solve_and_verify(g, allow_noncanonical=True)
        assert out.verdict is Verdict.INVALID
        assert out.witness.kind is WitnessKind.SEARCH_BUDGET
        tried, best = out.witness.data
        assert tried == 1 and best > 1e-3
        assert "stopped after 1 gauge patterns" in out.witness.message
        assert "does not show that no gauge works" in out.witness.message
        monkeypatch.setattr(solver, "MAX_GAUGE_PATTERNS", 2)
        assert solve_and_verify(g, allow_noncanonical=True).verdict is Verdict.VALID


class TestGaugePatterns:
    def test_lazy_in_product_order(self):
        import dsrep.solver as solver

        # two triangles sharing block 2: union-find over the sorted edges
        # keeps (0, 1), (0, 2), (2, 3), (2, 4) as the tree and makes
        # (1, 2) and (3, 4) the chords
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
        patterns = solver._gauge_patterns(BackboneGraph.make([L(0, 0)] * 5, edges))
        assert iter(patterns) is patterns
        assert list(patterns) == [
            {(1, 2): s12, (3, 4): s34}
            for s12, s34 in [(1, 1), (1, -1), (-1, 1), (-1, -1)]
        ]

    def test_forest_has_one_pattern(self):
        import dsrep.solver as solver

        g = canonical_backbone(CanonicalSpec(Family.TYPE_A, 4))
        assert list(solver._gauge_patterns(g)) == [{}]


class TestDecompose:
    def test_partition(self):
        g = load_fixture("valid_three_chain_crossing")
        components = decompose(g)
        seen = sorted(i for c in components for i in c.indices)
        assert seen == list(range(g.nblocks))

    def test_two_chain_fixture(self):
        g = load_fixture("reducible_b5_plus_a2")
        kinds = sorted(
            (c.family.value, c.n) for c in decompose(g)
        )
        assert kinds == [("a", 2), ("b", 5)]

    def test_single_chain(self):
        g = canonical_backbone(CanonicalSpec(Family.TYPE_B, 6))
        [component] = decompose(g)
        assert component.family is Family.TYPE_B and component.n == 6

    def test_interleaved_components_listed_by_first_block(self):
        # blocks 0-5 form one component and 1-4, 2-4, 3-4 (a star) the
        # other, whose union-find root, 4, comes first; components are
        # listed by their first block, and the star, which is no path,
        # keeps its indices sorted
        g = BackboneGraph.make(
            [L(0, 0), L(0, 0), L(0, 0), L(0, 0), L(1, 1), L(1, 1)],
            [(0, 5), (1, 4), (2, 4), (3, 4)],
        )
        assert [(c.indices, c.family, c.n) for c in decompose(g)] == [
            ((0, 5), Family.TYPE_A, 2),
            ((1, 2, 3, 4), None, 4),
        ]

    def test_non_chain_flagged(self):
        g = BackboneGraph.make(
            [L(2, 0), L(1, 1), L(0, 2), L(0, 0)], [(0, 1), (1, 2), (1, 3)]
        )
        [component] = decompose(g)
        assert component.family is None

    def test_offset_chain_not_canonical(self):
        # pure slope but not anchored at the boundary
        g = BackboneGraph.make([L(1, 1), L(2, 2)], [(0, 1)])
        [component] = decompose(g)
        assert component.family is None

    def test_canonical_labels_in_the_wrong_order_not_canonical(self):
        # the type-A labels of N=3, but the path's first step, (0,0)-(1,1),
        # is incompatible
        g = BackboneGraph.make([L(0, 0), L(2, 2), L(1, 1)], [(0, 1), (1, 2)])
        [component] = decompose(g)
        assert component.family is None


class TestFuzzing:
    """The pipeline classifies arbitrary graphs without raising."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_never_raises(self, data):
        size = data.draw(st.integers(1, 5))
        blocks = [
            L(data.draw(st.integers(0, 4)), data.draw(st.integers(0, 4)))
            for _ in range(size)
        ]
        possible = [(i, j) for i in range(size) for j in range(i + 1, size)]
        edges = [e for e in possible if data.draw(st.booleans())]
        out = solve_and_verify(BackboneGraph.make(blocks, edges))
        assert out.verdict in (
            Verdict.VALID, Verdict.INVALID, Verdict.UNDERDETERMINED
        )
        covered = sorted(i for c in out.components for i in c.indices)
        assert covered == list(range(size))
        if out.verdict is Verdict.VALID:
            assert max(check_all_crs(out.generators).values()) < 1e-10


class TestFixtures:
    VALID = {
        "reducible_b5_plus_a2": [(Family.TYPE_B, 5), (Family.TYPE_A, 2)],
        "reducible_b4_plus_b6": [(Family.TYPE_B, 4), (Family.TYPE_B, 6)],
        "valid_duplicate_crossing": [(Family.TYPE_B, 5), (Family.TYPE_A, 3)],
        "valid_three_chain_crossing": [
            (Family.TYPE_B, 3), (Family.TYPE_B, 5), (Family.TYPE_A, 3),
        ],
    }
    INVALID = [
        "invalid_dangling_above_chain",
        "invalid_shared_crossing",
        "invalid_dangling_rightward",
        "invalid_duplicate_dangling",
        "invalid_single_block",
    ]

    @pytest.mark.parametrize("name", sorted(VALID))
    def test_valid_fixture(self, name):
        out = solve_and_verify(load_fixture(name))
        assert out.verdict is Verdict.VALID
        got = sorted((c.family.value, c.n) for c in out.components if c.family)
        assert got == sorted((f.value, n) for f, n in self.VALID[name])

    @pytest.mark.parametrize("name", INVALID)
    def test_invalid_fixture(self, name):
        out = solve_and_verify(load_fixture(name))
        assert out.verdict is Verdict.INVALID
        assert out.witness is not None

    def test_duplicate_crossing_uses_duplicates(self):
        g = load_fixture("valid_duplicate_crossing")
        assert g.label_multiplicities()[L(2, 2)] == 2
