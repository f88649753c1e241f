"""Pair cases, universal coupling rectangles, and the Z coefficients."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from conftest import coupling_null_space_dim, loop_directed_rectangles

from dsrep.blocks import BlockLabel, block_grid, flat_index
from dsrep.coupling import (
    PairCase,
    compatibility,
    path_is_monotonic,
    t_sign_relation,
    u_blocks,
    z_linear,
)
from dsrep.numeric import HalfInt, dagger, max_abs
from dsrep.representation import Algebra, BackboneGraph, assemble
from dsrep.verify import check_all_crs

H = HalfInt


def L(twice_a, twice_b):
    return BlockLabel(H(twice_a), H(twice_b))


ALL_CASES = [PairCase(sa, sb) for sa in (1, -1) for sb in (1, -1)]


def test_rectangles_match_the_entry_loop_bit_for_bit():
    # every label P with 2A, 2B <= 13 and every compatible Q: all eight
    # rectangles carry the same bytes as the exact per-entry construction
    pairs = 0
    for twice_a in range(14):
        for twice_b in range(14):
            p = L(twice_a, twice_b)
            for case in ALL_CASES:
                if twice_a - case.s_a < 0 or twice_b - case.s_b < 0:
                    continue
                q = L(twice_a - case.s_a, twice_b - case.s_b)
                want = loop_directed_rectangles(p, q) + loop_directed_rectangles(q, p)
                u = u_blocks(p, q)
                for field, ref in zip(dataclasses.fields(u), want):
                    assert getattr(u, field.name).tobytes() == ref.tobytes(), (p, q, field.name)
                pairs += 1
    assert pairs == 27 * 27


def blocks_for_case(case, twice_a_q, twice_b_q):
    """(P, Q) pair realising the case with the given Q label, or None."""
    ta = twice_a_q + case.s_a
    tb = twice_b_q + case.s_b
    if ta < 0 or tb < 0:
        return None
    return L(ta, tb), L(twice_a_q, twice_b_q)


class TestCompatibility:
    def test_half_shift_both(self):
        assert compatibility(L(1, 0), L(0, 1)) == PairCase(1, -1)

    def test_whole_shift_rejected(self):
        assert compatibility(L(2, 2), L(2, 0)) is None

    def test_diagonal_shift(self):
        assert compatibility(L(2, 2), L(1, 1)) == PairCase(1, 1)

    def test_equal_blocks(self):
        assert compatibility(L(1, 1), L(1, 1)) is None

    def test_exhaustive_offsets(self):
        # a case comes back exactly for |dA| = |dB| = 1/2
        base = L(3, 3)
        for da in range(-3, 4):
            for db in range(-3, 4):
                other = L(3 + da, 3 + db)
                got = compatibility(other, base)
                if abs(da) == 1 and abs(db) == 1:
                    assert got == PairCase(da, db)
                else:
                    assert got is None


class TestSignRule:
    def test_values(self):
        assert t_sign_relation(PairCase(1, 1)) == -1
        assert t_sign_relation(PairCase(-1, -1)) == -1
        assert t_sign_relation(PairCase(1, -1)) == 1
        assert t_sign_relation(PairCase(-1, 1)) == 1


class TestZLinear:
    def test_up_up(self):
        z = z_linear(PairCase(1, 1), H(2), H(2))
        assert (z.coef_a, z.coef_b) == (Fraction(4), Fraction(4))

    def test_up_down(self):
        z = z_linear(PairCase(1, -1), H(1), H(0))
        assert (z.coef_a, z.coef_b) == (Fraction(-4), Fraction(2))

    def test_down_down(self):
        z = z_linear(PairCase(-1, -1), H(0), H(0))
        assert (z.coef_a, z.coef_b) == (Fraction(-4), Fraction(-4))

    def test_down_up(self):
        z = z_linear(PairCase(-1, 1), H(2), H(4))
        assert (z.coef_a, z.coef_b) == (Fraction(8), Fraction(-8))


class TestMonotonic:
    def test_equal_cases_monotonic(self):
        for case in ALL_CASES:
            assert path_is_monotonic(case, case)

    def test_unequal_cases_not(self):
        assert not path_is_monotonic(PairCase(1, 1), PairCase(-1, -1))
        assert not path_is_monotonic(PairCase(1, -1), PairCase(-1, 1))


class TestUBlocks:
    def test_incompatible_raises(self):
        with pytest.raises(ValueError):
            u_blocks(L(1, 1), L(1, 1))
        with pytest.raises(ValueError):
            u_blocks(L(2, 0), L(0, 0))

    def test_smallest_pair_entry(self):
        # P = (1/2,1/2), Q = (0,0): the raising rectangle is 4x1 with a
        # single entry sqrt((1/2 + 1/2)(1/2 + 1/2)) = 1 at (a1,b1) = (1/2,1/2)
        p, q = L(1, 1), L(0, 0)
        u = u_blocks(p, q)
        assert u.uplus_pq.shape == (4, 1)
        expected = np.zeros((4, 1))
        expected[flat_index(p, H(1), H(1)), 0] = 1.0
        assert max_abs(u.uplus_pq - expected) == 0.0

    def test_orientation_swap(self):
        p, q = L(0, 0), L(1, 1)
        forward = u_blocks(p, q)
        backward = u_blocks(q, p)
        for name in ("uplus", "uminus", "wplus", "wminus"):
            assert np.array_equal(
                getattr(forward, f"{name}_pq"), getattr(backward, f"{name}_qp")
            )
            assert np.array_equal(
                getattr(forward, f"{name}_qp"), getattr(backward, f"{name}_pq")
            )

    def test_dagger_pairing_mixed_case(self):
        # +- and -+ cases: dagger(U+_PQ) = +U-_QP, same for the W pair
        p, q = L(2, 0), L(1, 1)
        assert compatibility(p, q) == PairCase(1, -1)
        u = u_blocks(p, q)
        assert max_abs(dagger(u.uplus_pq) - u.uminus_qp) < 1e-13
        assert max_abs(dagger(u.wplus_pq) - u.wminus_qp) < 1e-13

    @pytest.mark.parametrize("case", ALL_CASES, ids=str)
    def test_dagger_pairing_all_cases(self, case):
        made = blocks_for_case(case, 2, 2)
        p, q = made
        sign = -t_sign_relation(case)  # -1 exactly for the aligned cases
        u = u_blocks(p, q)
        assert max_abs(dagger(u.uplus_pq) + sign * u.uminus_qp) < 1e-13
        assert max_abs(dagger(u.uminus_pq) + sign * u.uplus_qp) < 1e-13
        assert max_abs(dagger(u.wplus_pq) + sign * u.wminus_qp) < 1e-13
        assert max_abs(dagger(u.wminus_pq) + sign * u.wplus_qp) < 1e-13

    @pytest.mark.parametrize("case", ALL_CASES, ids=str)
    def test_sparsity_pattern(self, case):
        made = blocks_for_case(case, 3, 2)
        if made is None:
            pytest.skip("labels leave the grid")
        p, q = made
        u = u_blocks(p, q)
        shifts = {"uplus": (1, 1), "uminus": (-1, -1), "wplus": (1, -1), "wminus": (-1, 1)}
        grid_p = block_grid(p)
        grid_q = block_grid(q)
        for name, (da, db) in shifts.items():
            m = getattr(u, f"{name}_pq")
            for r, (a1, b1) in enumerate(grid_p):
                for c, (a2, b2) in enumerate(grid_q):
                    on_shift = (a1.twice - a2.twice, b1.twice - b2.twice) == (da, db)
                    if on_shift:
                        assert m[r, c] != 0
                    else:
                        assert m[r, c] == 0
            assert max_abs(m.imag) == 0.0  # entries real


def two_block_assembly(p, q, t_pq, t_qp, algebra=Algebra.DE_SITTER):
    g = BackboneGraph.make([p, q], [(0, 1)])
    return assemble(g, {(0, 1): (t_pq, t_qp)}, algebra, validate_t=False)


class TestTwoBlockRelations:
    """The rotation/boost sector relations hold for arbitrary couplings."""

    @pytest.mark.parametrize("case", ALL_CASES, ids=str)
    @pytest.mark.parametrize("t_pair", [(1.0, 1.0), (0.37, -1.91), (2.0, 0.0)])
    def test_lorentz_sector_any_t(self, case, t_pair):
        p, q = blocks_for_case(case, 2, 1)
        gens = two_block_assembly(p, q, *t_pair)
        residuals = check_all_crs(gens)
        for name, value in residuals.items():
            if "V" in name:
                continue  # displacement-displacement sector needs tuned t
            assert value < 1e-11, name

    @pytest.mark.parametrize("case", ALL_CASES, ids=str)
    def test_vector_transformation_any_t(self, case):
        # [J, V] and [K, V] relations are t-independent
        p, q = blocks_for_case(case, 1, 2)
        gens = two_block_assembly(p, q, 0.83, -1.7)
        residuals = check_all_crs(gens)
        for name, value in residuals.items():
            lhs = name.split("]")[0]
            if lhs.startswith("[J") or lhs.startswith("[K"):
                assert value < 1e-11, name

    def test_vector_transformation_all_small_pairs(self):
        # sweep every compatible pair with labels up to 3/2
        for ta in range(0, 4):
            for tb in range(0, 4):
                for case in ALL_CASES:
                    made = blocks_for_case(case, ta, tb)
                    if made is None:
                        continue
                    if made[0].a.twice > 3 or made[0].b.twice > 3:
                        continue
                    gens = two_block_assembly(*made, 1.21, -0.34)
                    residuals = check_all_crs(gens)
                    for name, value in residuals.items():
                        lhs = name.split("]")[0]
                        if lhs.startswith("[J") or lhs.startswith("[K"):
                            assert value < 1e-11, (made, name)


def _small_labels(limit_twice):
    return [
        (a, b) for a in range(0, limit_twice + 1) for b in range(0, limit_twice + 1)
    ]


class TestZAgainstMatrices:
    @pytest.mark.parametrize("case", ALL_CASES, ids=str)
    def test_diagonal_commutator_matches_z(self, case):
        """i[Vx,Vy] on the first block equals coef_a a + coef_b b entrywise."""
        for ta, tb in _small_labels(3):
            made = blocks_for_case(case, ta, tb)
            if made is None:
                continue
            p, q = made
            gens = two_block_assembly(p, q, 1.0, 1.0)
            n = p.dim
            top = (1j * (gens.vx @ gens.vy - gens.vy @ gens.vx))[:n, :n]
            z = z_linear(case, p.a, p.b)
            expected = np.diag(
                [
                    float(z.coef_a) * float(a) + float(z.coef_b) * float(b)
                    for a, b in block_grid(p)
                ]
            )
            assert max_abs(top - expected) < 1e-11

    @pytest.mark.parametrize("case", ALL_CASES, ids=str)
    def test_time_z_commutator_flips_a_term(self, case):
        """[Vt,Vz] on the first block is the same with the a-coefficient negated."""
        for ta, tb in _small_labels(3):
            made = blocks_for_case(case, ta, tb)
            if made is None:
                continue
            p, q = made
            gens = two_block_assembly(p, q, 1.0, 1.0)
            n = p.dim
            top = (gens.vt @ gens.vz - gens.vz @ gens.vt)[:n, :n]
            z = z_linear(case, p.a, p.b)
            expected = np.diag(
                [
                    -float(z.coef_a) * float(a) + float(z.coef_b) * float(b)
                    for a, b in block_grid(p)
                ]
            )
            assert max_abs(top - expected) < 1e-11


class TestConstraintOracle:
    """Cross-check the rectangles against the independent null-space count."""

    def test_compatible_pair_has_one_dimensional_family(self):
        assert coupling_null_space_dim(L(1, 1), L(0, 0)) == 1
        assert coupling_null_space_dim(L(2, 1), L(1, 2)) == 1

    def test_same_label_pair_has_none(self):
        assert coupling_null_space_dim(L(1, 1), L(1, 1)) == 0
        assert coupling_null_space_dim(L(0, 0), L(0, 0)) == 0

    def test_incompatible_pairs_have_none(self):
        assert coupling_null_space_dim(L(2, 0), L(0, 0)) == 0
        assert coupling_null_space_dim(L(3, 1), L(0, 0)) == 0
        assert coupling_null_space_dim(L(2, 2), L(0, 2)) == 0
