"""Canonical chains, coupling scalars, and full assembly."""

import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    block_offsets,
    case_id,
    dense_assemble,
    gelfand_tsetlin_generators,
    listed_doc,
    reversed_backbone,
    stored_bytes,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from dsrep.blocks import BlockLabel
from dsrep.coupling import t_sign_relation
from dsrep.io import generators_from_doc
from dsrep.numeric import max_abs
from dsrep.representation import (
    GENERATOR_NAMES,
    MAX_DIM,
    Algebra,
    BackboneGraph,
    CanonicalSpec,
    Family,
    assemble,
    assemble_canonical,
    canonical_backbone,
    canonical_dimension,
    canonical_t_squared,
    classify_canonical_chain,
    couplings_from_products,
    first_ten_specs,
)
from dsrep.verify import check_all_crs


def L(twice_a, twice_b):
    return BlockLabel(twice_a=twice_a, twice_b=twice_b)


def labels(g):
    return [str(b) for b in g.blocks]


class TestCanonicalBackbones:
    def test_smallest_mixed_chain(self):
        g = canonical_backbone(CanonicalSpec(Family.TYPE_B, 2))
        assert labels(g) == ["(1/2,0)", "(0,1/2)"]
        assert sorted(g.edges) == [(0, 1)]

    def test_four_block_diagonal_chain(self):
        g = canonical_backbone(CanonicalSpec(Family.TYPE_A, 4))
        assert labels(g) == ["(3/2,3/2)", "(1,1)", "(1/2,1/2)", "(0,0)"]

    def test_six_block_mixed_chain(self):
        g = canonical_backbone(CanonicalSpec(Family.TYPE_B, 6))
        assert labels(g) == [
            "(5/2,0)", "(2,1/2)", "(3/2,1)", "(1,3/2)", "(1/2,2)", "(0,5/2)",
        ]

    def test_single_block_rejected(self):
        with pytest.raises(ValueError, match="at least two blocks, got N=1"):
            CanonicalSpec(Family.TYPE_A, 1)

    @pytest.mark.parametrize("n", [np.int64(5), True, 2.0], ids=repr)
    def test_non_int_block_count_rejected(self, n):
        with pytest.raises(TypeError, match=re.escape(f"must be an int, got {n!r}")):
            CanonicalSpec(Family.TYPE_A, n)

    def test_first_ten_dimensions(self):
        dims = [canonical_dimension(spec) for _, spec in first_ten_specs()]
        assert dims == [4, 5, 10, 14, 20, 30, 35, 55, 56, 91]

    @pytest.mark.parametrize("family", list(Family))
    @pytest.mark.parametrize("n", range(2, 13))
    def test_dimension_formula_matches_blocks(self, family, n):
        spec = CanonicalSpec(family, n)
        g = canonical_backbone(spec)
        assert canonical_dimension(spec) == sum(b.dim for b in g.blocks)

    def test_classify_roundtrip(self):
        for _, spec in first_ten_specs():
            g = canonical_backbone(spec)
            assert classify_canonical_chain(g.blocks) == spec
            assert classify_canonical_chain(tuple(reversed(g.blocks))) == spec
        assert classify_canonical_chain([L(1, 1), L(2, 2)]) is None

    @pytest.mark.parametrize("n", [21, 40, 500])
    def test_classify_long_chains_without_building_them(self, n):
        # a type-A chain of these lengths is past MAX_DIM, so the labels
        # are written out here rather than taken from canonical_backbone
        type_a = [L(k, k) for k in range(n)]
        type_b = [L(k, n - 1 - k) for k in range(n)]
        assert classify_canonical_chain(type_a[::-1]) == CanonicalSpec(Family.TYPE_A, n)
        assert classify_canonical_chain(type_b[::2] + type_b[1::2]) == CanonicalSpec(Family.TYPE_B, n)
        assert classify_canonical_chain(type_b[:-1] + type_b[:1]) is None
        assert classify_canonical_chain(type_a[1:] + [L(n, n)]) is None

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), min_size=0, max_size=9),
           st.randoms())
    def test_classify_matches_the_backbone_comparison(self, twice_labels, rng):
        # the oracle: compare with the labels of the canonical backbone of
        # each family with the same block count
        blocks = [L(a, b) for a, b in twice_labels]
        want = None
        if len(blocks) >= 2:
            for family in Family:
                spec = CanonicalSpec(family, len(blocks))
                if sorted(blocks) == sorted(canonical_backbone(spec).blocks):
                    want = spec
        rng.shuffle(blocks)
        assert classify_canonical_chain(blocks) == want


def _canonical_t(spec, n):
    """(t forward, t backward) on edge n (1-based) of an assembled canonical chain."""
    t = assemble_canonical(spec).t
    return t[(n - 1, n)], t[(n, n - 1)]


class TestCanonicalCouplings:
    def test_mixed_chains_are_one_half(self):
        for n in range(2, 8):
            spec = CanonicalSpec(Family.TYPE_B, n)
            for edge in range(1, n):
                assert _canonical_t(spec, edge) == (0.5, 0.5)

    def test_two_block_diagonal_chain(self):
        t12, t21 = _canonical_t(CanonicalSpec(Family.TYPE_A, 2), 1)
        assert t12 == pytest.approx(1 / math.sqrt(2), abs=1e-15)
        assert t21 == -t12

    def test_three_block_diagonal_chain(self):
        spec = CanonicalSpec(Family.TYPE_A, 3)
        assert _canonical_t(spec, 1)[0] == pytest.approx(0.5, abs=1e-15)
        assert _canonical_t(spec, 2)[0] == pytest.approx(math.sqrt(5) / 2, abs=1e-15)

    def test_exact_products(self):
        # -t(n) t(n)_reverse as exact rationals for the diagonal family
        for n_blocks in range(2, 11):
            spec = CanonicalSpec(Family.TYPE_A, n_blocks)
            for n in range(1, n_blocks):
                expected = Fraction(
                    (2 * n_blocks - n + 1) * n,
                    4 * (n_blocks - n) * (n_blocks - n + 1),
                )
                assert canonical_t_squared(spec, n) == expected
                forward, backward = _canonical_t(spec, n)
                assert forward * backward == pytest.approx(
                    -float(expected), rel=1e-14
                )

    def test_couplings_from_products(self):
        # ++ edges take t_ji = -t_ij, +- edges t_ji = +t_ij; a sign flips t_ij
        g = canonical_backbone(CanonicalSpec(Family.TYPE_A, 3))
        t = couplings_from_products(g, {(0, 1): Fraction(-1, 4), (1, 2): Fraction(-5, 4)}, {(1, 2): -1})
        assert list(t.items()) == [
            ((0, 1), 0.5), ((1, 0), -0.5), ((1, 2), -math.sqrt(1.25)), ((2, 1), math.sqrt(1.25))
        ]
        g = canonical_backbone(CanonicalSpec(Family.TYPE_B, 2))
        assert couplings_from_products(g, {(0, 1): Fraction(1, 4)}, {(0, 1): -1}) == {
            (0, 1): -0.5, (1, 0): -0.5
        }

    def test_edge_index_out_of_range(self):
        with pytest.raises(ValueError):
            canonical_t_squared(CanonicalSpec(Family.TYPE_A, 3), 3)
        with pytest.raises(ValueError):
            canonical_t_squared(CanonicalSpec(Family.TYPE_B, 3), 0)


class TestBackboneGraph:
    def test_self_edge_rejected(self):
        with pytest.raises(ValueError):
            BackboneGraph.make([L(1, 0), L(0, 1)], [(0, 0)])

    def test_edge_out_of_range(self):
        with pytest.raises(ValueError):
            BackboneGraph.make([L(1, 0)], [(0, 1)])

    def test_negative_edge_end_out_of_range(self):
        with pytest.raises(ValueError, match=re.escape("edge (-1, 1) out of range")):
            BackboneGraph.make([L(1, 0), L(0, 1)], [(-1, 1)])

    @pytest.mark.parametrize(
        "edge", [(0.7, 1.2), (0, 1.0), (True, False), (0, np.float64(1.0)), (np.bool_(0), 1)],
        ids=repr,
    )
    def test_non_int_edge_end_rejected(self, edge):
        end = next(x for x in edge if type(x) is not int)
        with pytest.raises(TypeError, match=re.escape(f"got {end!r} in {edge!r}")):
            BackboneGraph.make([L(1, 0), L(0, 1)], [edge])

    def test_numpy_integer_edge_ends_accepted(self):
        g = BackboneGraph.make([L(1, 0), L(0, 1)], [(np.int64(1), np.int32(0))])
        assert g.edges == {(0, 1)}
        assert [type(end) for end in next(iter(g.edges))] == [int, int]

    def test_duplicates_tracked(self):
        g = BackboneGraph.make([L(2, 2), L(2, 2), L(1, 1)], [(0, 2), (1, 2)])
        assert g.has_duplicates()
        assert g.label_multiplicities()[L(2, 2)] == 2

    def test_neighbors(self):
        g = BackboneGraph.make([L(2, 0), L(1, 1), L(0, 2)], [(0, 1), (1, 2)])
        assert g.neighbors(1) == [0, 2]
        assert g.neighbors(0) == [1]

    def test_neighbors_are_a_copy(self):
        g = BackboneGraph.make([L(2, 0), L(1, 1), L(0, 2)], [(1, 2), (0, 1)])
        g.neighbors(1).append(7)
        assert g.neighbors(1) == [0, 2]

    def test_dimension_bound(self):
        # L(2, 0) is three-dimensional; MAX_DIM is a multiple of three
        assert BackboneGraph.make([L(2, 0)] * (MAX_DIM // 3), []).dim == MAX_DIM
        with pytest.raises(ValueError, match=str(MAX_DIM)):
            BackboneGraph.make([L(2, 0)] * (MAX_DIM // 3 + 1), [])

    @pytest.mark.parametrize("family", list(Family))
    def test_canonical_chain_over_the_bound_is_refused(self, family):
        n = next(n for n in range(2, 100) if canonical_dimension(CanonicalSpec(family, n)) > MAX_DIM)
        canonical_backbone(CanonicalSpec(family, n - 1))
        with pytest.raises(ValueError, match=str(MAX_DIM)):
            canonical_backbone(CanonicalSpec(family, n))


class TestAssembly:
    def test_smallest_rep_shape_and_jz(self):
        gens = assemble_canonical(CanonicalSpec(Family.TYPE_B, 2))
        assert gens.dim == 4
        assert np.allclose(np.diag(gens.jz.to_dense()), [0.5, -0.5, 0.5, -0.5])

    def test_five_dimensional_rep_satisfies_algebra(self):
        gens = assemble_canonical(CanonicalSpec(Family.TYPE_A, 2))
        assert gens.dim == 5
        assert max(check_all_crs(gens).values()) < 1e-12

    def test_zero_couplings_break_curvature_sector(self):
        spec = CanonicalSpec(Family.TYPE_A, 2)
        backbone = canonical_backbone(spec)
        gens = assemble(backbone, {(0, 1): 0.0, (1, 0): 0.0})
        assert max_abs(gens.vx) == 0.0
        residuals = check_all_crs(gens)
        assert residuals["[Vx,Vy] = i Jz"] == pytest.approx(max_abs(gens.jz))
        # the non-displacement sector is still fine
        assert residuals["[Jx,Jy] = i Jz"] < 1e-13

    def test_incompatible_edge_raises(self):
        g = BackboneGraph.make([L(2, 0), L(0, 0)], [(0, 1)])
        with pytest.raises(ValueError, match="incompatible"):
            assemble(g, {(0, 1): 0.5, (1, 0): 0.5})

    @pytest.mark.parametrize("form", ["edge pair", "ordered pairs"])
    @pytest.mark.parametrize("case", [(sa, sb) for sa in (1, -1) for sb in (1, -1)],
                             ids=case_id)
    def test_sign_rule_enforced(self, case, form):
        # P = Q + (S_A, S_B)/2 with Q = (1/2, 1/2); t_ji = s t_ij is required
        backbone = BackboneGraph.make([L(1 + case[0], 1 + case[1]), L(1, 1)], [(0, 1)])
        s = t_sign_relation(case)
        if form == "edge pair":
            # the (t_ij, t_ji) form is refused whether or not its signs obey the rule
            for t_ji in (s * 0.5, -s * 0.5):
                with pytest.raises(ValueError, match="missing coupling"):
                    assemble(backbone, {(0, 1): (0.5, t_ji)})
        t = {(0, 1): 0.5, (1, 0): s * 0.5}
        assert assemble(backbone, t).t == t
        with pytest.raises(ValueError, match="sign rule") as raised:
            assemble(backbone, {(0, 1): 0.5, (1, 0): -s * 0.5})
        # the message is the one place a case is spelled out
        assert f"for case {case_id(case)}:" in str(raised.value)

    def test_missing_coupling_raises(self):
        backbone = canonical_backbone(CanonicalSpec(Family.TYPE_A, 3))
        with pytest.raises(ValueError, match="missing"):
            assemble(backbone, {(0, 1): 0.5, (1, 0): -0.5})

    def test_pair_form_refused(self):
        backbone = canonical_backbone(CanonicalSpec(Family.TYPE_A, 2))
        with pytest.raises(ValueError, match=re.escape("the keys (0, 1) and (1, 0)")):
            assemble(backbone, {(0, 1): (0.5, -0.5)})

    @pytest.mark.parametrize("key", [(5, 7), (0.9, 1.9), (1, 1)], ids=repr)
    def test_key_naming_no_edge_refused(self, key):
        backbone = canonical_backbone(CanonicalSpec(Family.TYPE_A, 2))
        with pytest.raises(ValueError, match=re.escape(f"{key!r} is not a direction")):
            assemble(backbone, {(0, 1): 0.5, (1, 0): -0.5, key: 3.0})

    @pytest.mark.parametrize(
        "t_ij,t_ji", [(math.inf, math.inf), (-math.inf, -math.inf), (math.nan, math.nan),
                      (0.5, math.nan), (math.inf, 0.5)],
    )
    def test_non_finite_coupling_refused(self, t_ij, t_ji):
        # a +- edge: t_ji = +t_ij, so equal infinities meet the sign rule
        backbone = BackboneGraph.make([L(2, 0), L(1, 1)], [(0, 1)])
        with pytest.raises(ValueError, match=re.escape("edge (0, 1) are not finite")):
            assemble(backbone, {(0, 1): t_ij, (1, 0): t_ji})

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_canonical_couplings_name_both_directions_of_each_edge(self, algebra):
        for _, spec in first_ten_specs():
            gens = assemble_canonical(spec, algebra)
            assert set(gens.t) == {(i, j) for e in gens.backbone.edges for i, j in (e, e[::-1])}

    @pytest.mark.parametrize("ref,spec", first_ten_specs())
    def test_block_diagonal_structure(self, ref, spec):
        gens = assemble_canonical(spec)
        offsets = block_offsets(gens)
        # J and K have no support outside the diagonal blocks
        mask = np.ones((gens.dim, gens.dim), dtype=bool)
        for i in range(len(offsets) - 1):
            mask[offsets[i]:offsets[i + 1], offsets[i]:offsets[i + 1]] = False
        dense = gens.generators()
        for name in ("Jx", "Jy", "Jz", "Kx", "Ky", "Kz"):
            assert max_abs(dense[name][mask]) == 0.0
        # V has support only on chain-adjacent rectangles
        vmask = np.ones((gens.dim, gens.dim), dtype=bool)
        for i, j in gens.backbone.edges:
            vmask[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]] = False
            vmask[offsets[j]:offsets[j + 1], offsets[i]:offsets[i + 1]] = False
        for name in ("Vt", "Vx", "Vy", "Vz"):
            assert max_abs(dense[name][vmask]) == 0.0

    def test_duplicate_blocks_assemble(self):
        # two copies of (1/2,1/2) joined to distinct partners
        g = BackboneGraph.make(
            [L(0, 0), L(1, 1), L(1, 1), L(2, 2)], [(0, 1), (2, 3)]
        )
        gens = assemble(g, {(0, 1): 0.5, (1, 0): -0.5, (2, 3): 0.5, (3, 2): -0.5})
        assert gens.dim == 1 + 4 + 4 + 9


class TestDenseGenerators:
    def test_each_lookup_is_a_fresh_copy(self):
        gens = assemble_canonical(CanonicalSpec(Family.TYPE_B, 3))
        stored = {name: (m.keys.copy(), m.vals.copy()) for name, m in gens.matrices().items()}
        dense = gens.generators()
        for name in GENERATOR_NAMES:
            first = dense[name]
            np.testing.assert_array_equal(first, gens.matrices()[name].to_dense())
            first[...] = 7
            again = dense[name]
            assert again is not first
            np.testing.assert_array_equal(again, gens.matrices()[name].to_dense())
        for name, (keys, vals) in stored.items():
            np.testing.assert_array_equal(gens.matrices()[name].keys, keys)
            np.testing.assert_array_equal(gens.matrices()[name].vals, vals)

    def test_read_only_mapping_in_generator_order(self):
        gens = assemble_canonical(CanonicalSpec(Family.TYPE_A, 3))
        dense = gens.generators()
        assert list(dense) == list(GENERATOR_NAMES)
        assert len(dense) == 10
        copied = dict(dense)
        assert list(copied) == list(GENERATOR_NAMES)
        for name, m in gens.matrices().items():
            np.testing.assert_array_equal(copied[name], m.to_dense())
        with pytest.raises(TypeError):
            dense["Jx"] = copied["Jx"]


class TestReversalEquivalence:
    @pytest.mark.parametrize(
        "spec",
        [CanonicalSpec(Family.TYPE_A, 3), CanonicalSpec(Family.TYPE_B, 4)],
        ids=str,
    )
    def test_reversed_chain_is_permutation_similar(self, spec):
        gens = assemble_canonical(spec)
        backbone = gens.backbone
        reversed_chain = reversed_backbone(backbone)
        n = backbone.nblocks
        t_rev = {(n - 1 - i, n - 1 - j): value for (i, j), value in gens.t.items()}
        reversed_gens = assemble(reversed_chain, t_rev)

        offsets = block_offsets(gens)
        rev_offsets = block_offsets(reversed_gens)
        perm = np.zeros((gens.dim, gens.dim))
        for i in range(n):
            ri = n - 1 - i
            size = backbone.blocks[i].dim
            for k in range(size):
                perm[rev_offsets[ri] + k, offsets[i] + k] = 1.0
        for name, m in gens.generators().items():
            transported = perm @ m @ perm.T
            assert max_abs(transported - reversed_gens.generators()[name]) < 1e-12


class TestAntiDeSitter:
    @pytest.mark.parametrize("ref,spec", first_ten_specs()[:4])
    def test_map_flips_curvature_sign_only(self, ref, spec):
        ds = assemble_canonical(spec, Algebra.DE_SITTER)
        ads = assemble_canonical(spec, Algebra.ANTI_DE_SITTER)
        assert max_abs(ads.vx - 1j * ds.vx) == 0.0
        assert max_abs(ads.vt - 1j * ds.vt) == 0.0
        ds_res = check_all_crs(ds)
        ads_res = check_all_crs(ads)
        assert max(ads_res.values()) < 1e-11
        # the non-displacement relations carry identical residuals
        for name, value in ds_res.items():
            if "[V" not in name and "Vt," not in name:
                assert ads_res[name] == pytest.approx(value, abs=1e-15)
        # and the curvature sector now needs the opposite sign
        ads_as_ds = check_all_crs(
            type(ads)(
                backbone=ads.backbone, algebra=Algebra.DE_SITTER,
                jx=ads.jx, jy=ads.jy, jz=ads.jz,
                kx=ads.kx, ky=ads.ky, kz=ads.kz,
                vt=ads.vt, vx=ads.vx, vy=ads.vy, vz=ads.vz, t=ads.t,
            )
        )
        assert ads_as_ds["[Vx,Vy] = i Jz"] > 0.1


# ---------------------------------------------------------------------------
# Storage: the stored non-zeros against the dense assembly in conftest
# ---------------------------------------------------------------------------


# twice (m1, m2) of three cyclic so(5) backbones
GT_WEIGHTS = [(3, 1), (4, 2), (5, 3)]


def _canonical_pairs(spec, offset=0):
    """Couplings of a canonical chain per ordered block pair, indices shifted."""
    return {(i + offset, j + offset): t for (i, j), t in assemble_canonical(spec).t.items()}


# blocks that stand alone beside the chains of a sum: dim-1 and
# row-width-1 labels among them
LOOSE_BLOCKS = [L(0, 0), L(1, 0), L(4, 0), L(0, 3), L(2, 3)]


def _shuffled(backbone, t, order):
    """The same backbone with block k moved to position order[k]."""
    blocks = [None] * backbone.nblocks
    for k, block in enumerate(backbone.blocks):
        blocks[order[k]] = block
    edges = [(order[i], order[j]) for i, j in backbone.edges]
    return BackboneGraph.make(blocks, edges), {(order[i], order[j]): v for (i, j), v in t.items()}


@st.composite
def assembly_inputs(draw):
    """(backbone, couplings per ordered pair, algebra): a canonical chain, an
    so(5) cyclic backbone, one block alone, or a direct sum of chains (its
    labels repeat) with blocks beside them that no edge reaches; the
    couplings as built or both of each edge rescaled by one factor of either
    sign (so the Hermiticity sign rule still holds), and the blocks in their
    own order or shuffled, so that edges also run from a later block to an
    earlier one."""
    algebra = draw(st.sampled_from(list(Algebra)))
    kind = draw(st.sampled_from(["chain", "so5", "block", "sum"]))
    if kind == "chain":
        spec = CanonicalSpec(draw(st.sampled_from(list(Family))), draw(st.integers(2, 6)))
        backbone, t = canonical_backbone(spec), _canonical_pairs(spec)
    elif kind == "so5":
        gens = gelfand_tsetlin_generators(draw(st.sampled_from(GT_WEIGHTS)), algebra)
        backbone, t = gens.backbone, dict(gens.t)
    elif kind == "block":
        label = L(draw(st.integers(0, 6)), draw(st.integers(0, 6)))
        backbone, t = BackboneGraph.make([label], []), {}
    else:
        specs = draw(st.lists(
            st.builds(CanonicalSpec, st.sampled_from(list(Family)), st.integers(2, 4)),
            min_size=1, max_size=3,
        ))
        blocks, edges, t = [], [], {}
        for spec in specs:
            chain = canonical_backbone(spec)
            edges += [(i + len(blocks), j + len(blocks)) for i, j in chain.edges]
            t.update(_canonical_pairs(spec, len(blocks)))
            blocks += chain.blocks
        blocks += draw(st.lists(st.sampled_from(LOOSE_BLOCKS), max_size=3))
        backbone = BackboneGraph.make(blocks, edges)
    if draw(st.booleans()):
        factors = st.sampled_from([-2.0, -1.0, -0.3, 0.7, 1.5])
        for i, j in sorted(backbone.edges):
            factor = draw(factors)
            t[(i, j)], t[(j, i)] = factor * t[(i, j)], factor * t[(j, i)]
    if draw(st.booleans()):
        backbone, t = _shuffled(backbone, t, draw(st.permutations(range(backbone.nblocks))))
    return backbone, t, algebra


def _assert_dense_bytes(backbone, t, algebra):
    """Every non-zero entry, signed zeros of its parts included, is what the
    dense assembly wrote; exact zeros are not stored."""
    gens = assemble(backbone, t, algebra)
    assert gens.t == t
    want = dense_assemble(backbone, t, algebra)
    for name, m in gens.matrices().items():
        assert m.to_dense().tobytes() == stored_bytes(want[name]), name
        assert (np.diff(m.keys) > 0).all() and (m.vals != 0).all(), name
    return gens


class TestDenseAssemblyOracle:
    @settings(max_examples=60, deadline=None)
    @given(assembly_inputs())
    def test_stored_entries_carry_the_dense_bytes(self, case):
        _assert_dense_bytes(*case)

    @pytest.mark.parametrize("algebra", list(Algebra))
    @pytest.mark.parametrize("label", [L(0, 0), L(3, 0), L(0, 4), L(5, 2)], ids=str)
    def test_one_block(self, label, algebra):
        gens = _assert_dense_bytes(BackboneGraph.make([label], []), {}, algebra)
        for name in ("Vt", "Vx", "Vy", "Vz"):
            assert gens.matrices()[name].keys.size == 0, name

    @pytest.mark.parametrize("algebra", list(Algebra))
    def test_isolated_blocks_beside_a_shuffled_chain(self, algebra):
        # type B N=4 with (0,0), (3/2,0) and (1,3/2) beside it, its blocks
        # in reverse: each edge (i, j), i < j, goes up in A from i to j, so
        # the larger label of every pair sits at the higher offset
        spec = CanonicalSpec(Family.TYPE_B, 4)
        chain, t = canonical_backbone(spec), _canonical_pairs(spec)
        backbone = BackboneGraph.make([*chain.blocks, L(0, 0), L(3, 0), L(2, 3)], chain.edges)
        backbone, t = _shuffled(backbone, t, [6, 4, 2, 0, 1, 3, 5])
        assert all(
            backbone.blocks[i].twice_a < backbone.blocks[j].twice_a for i, j in backbone.edges
        )
        _assert_dense_bytes(backbone, t, algebra)


class TestMemory:
    def test_assembly_and_loader_peak_below_a_tenth_of_one_dense_array(self):
        # type A N=20, dim 2870: one dense complex dim x dim array is 132 MB
        spec = CanonicalSpec(Family.TYPE_A, 20)
        dense_bytes = 16 * canonical_dimension(spec) ** 2
        backbone, t = canonical_backbone(spec), _canonical_pairs(spec)
        tracemalloc.start()
        try:
            gens = assemble(backbone, t)
            assemble_peak = tracemalloc.get_traced_memory()[1]
            doc = listed_doc(gens)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            loaded = generators_from_doc(doc)
            load_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert loaded.dim == gens.dim == 2870
        assert assemble_peak < dense_bytes / 10
        assert load_peak < dense_bytes / 10

    def test_walking_the_dense_generators_holds_at_most_two(self):
        # type B N=13, dim 455: ten dense arrays at once would be 10x one
        gens = assemble_canonical(CanonicalSpec(Family.TYPE_B, 13))
        dense_bytes = 16 * gens.dim ** 2
        tracemalloc.start()
        try:
            for name, matrix in gens.generators().items():
                assert matrix.shape == (gens.dim, gens.dim), name
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert gens.dim == 455
        assert peak < 2.5 * dense_bytes
