"""Single Lorentz-block generator matrices."""

import numpy as np
import pytest
from conftest import loop_hla_generators

from dsrep.blocks import (
    BlockLabel,
    block_dim,
    block_grid,
    flat_index,
    hla_cartesian,
    hla_generators,
)
from dsrep.numeric import HalfInt, commutator, dagger, max_abs
from dsrep.representation import BackboneGraph, assemble
from dsrep.su2 import su2_generators
from dsrep.verify import check_all_crs, worst_residual

H = HalfInt


def L(twice_a, twice_b):
    return BlockLabel(H(twice_a), H(twice_b))


SMALL_BLOCKS = [L(a, b) for a in range(0, 5) for b in range(0, 5)]


def test_block_dim():
    assert block_dim(L(0, 0)) == 1
    assert block_dim(L(1, 1)) == 4
    assert block_dim(L(4, 0)) == 5


def test_negative_labels_rejected():
    with pytest.raises(ValueError):
        L(-1, 0)


def test_grid_order_and_flat_index():
    block = L(1, 2)
    grid = block_grid(block)
    assert len(grid) == block_dim(block)
    # a-major, both descending
    assert [(a.twice, b.twice) for a, b in grid[:3]] == [(1, 2), (1, 0), (1, -2)]
    for idx, (a, b) in enumerate(grid):
        assert flat_index(block, a, b) == idx


def test_generators_match_the_entry_loop_bit_for_bit():
    # every label with 2A, 2B <= 13: the same bytes, signed zeros included
    for twice_a in range(14):
        for twice_b in range(14):
            block = L(twice_a, twice_b)
            for got, want in zip(hla_generators(block), loop_hla_generators(block)):
                assert got.tobytes() == want.tobytes(), block


def test_trivial_block_all_zero():
    gens = hla_generators(L(0, 0))
    for m in gens:
        assert m.shape == (1, 1)
        assert max_abs(m) == 0.0


def test_jz_diagonal_values():
    # diagonal entries a + b under the fixed ordering of the four states
    gens = hla_generators(L(1, 1))
    assert np.allclose(np.diag(gens.jz), [1, 0, 0, -1])
    # i Kz is diagonal a - b
    assert np.allclose(np.diag(1j * gens.kz), [0, 1, -1, 0])


def test_vector_block_spectrum():
    gens = hla_generators(L(2, 0))
    assert np.allclose(np.diag(gens.jz), [1, 0, -1])
    assert max_abs(1j * gens.kz) == pytest.approx(1.0)


@pytest.mark.parametrize("block", SMALL_BLOCKS, ids=str)
def test_matches_direct_product_route(block):
    """Entrywise construction must equal A x 1 + 1 x B built from spin irreps."""
    gens = hla_generators(block)
    ap, am, az = su2_generators(block.a)
    bp, bm, bz = su2_generators(block.b)
    ia = np.eye(block.a.twice + 1)
    ib = np.eye(block.b.twice + 1)
    assert max_abs(gens.jplus - (np.kron(ap, ib) + np.kron(ia, bp))) < 1e-13
    assert max_abs(gens.jminus - (np.kron(am, ib) + np.kron(ia, bm))) < 1e-13
    assert max_abs(gens.jz - (np.kron(az, ib) + np.kron(ia, bz))) < 1e-13
    assert max_abs(gens.kplus + 1j * (np.kron(ap, ib) - np.kron(ia, bp))) < 1e-13
    assert max_abs(gens.kminus + 1j * (np.kron(am, ib) - np.kron(ia, bm))) < 1e-13
    assert max_abs(gens.kz + 1j * (np.kron(az, ib) - np.kron(ia, bz))) < 1e-13


def lorentz_residual(block):
    """Worst of the nine J/K relations `check_all_crs` reports on one block."""
    residuals = check_all_crs(assemble(BackboneGraph.make([block], []), {}))
    lorentz = [r for name, r in residuals.items() if "V" not in name]
    assert len(lorentz) == 9
    return worst_residual(lorentz)


class TestCommutationRelations:
    def test_trivial(self):
        assert lorentz_residual(L(0, 0)) == 0.0

    def test_pauli_block(self):
        assert lorentz_residual(L(1, 0)) < 1e-12

    def test_mixed_block(self):
        assert lorentz_residual(L(3, 2)) < 1e-12

    @pytest.mark.parametrize("block", SMALL_BLOCKS, ids=str)
    def test_all_small_blocks(self, block):
        assert lorentz_residual(block) < 1e-11

    def test_boost_rotation_cross_relation(self):
        # [Kx, Ky] = -i Jz checked against an independently built Jz
        jx, jy, jz, kx, ky, kz = hla_cartesian(L(2, 0))
        assert max_abs(commutator(kx, ky) + 1j * jz) < 1e-12


@pytest.mark.parametrize("block", SMALL_BLOCKS, ids=str)
def test_hermiticity_pattern(block):
    jx, jy, jz, kx, ky, kz = hla_cartesian(block)
    for m in (jx, jy, jz):
        assert max_abs(dagger(m) - m) < 1e-12
    for m in (kx, ky, kz):
        assert max_abs(dagger(m) + m) < 1e-12


@pytest.mark.parametrize("block", [L(1, 2), L(2, 1), L(3, 0), L(2, 2)], ids=str)
def test_label_swap_negates_boosts(block):
    """Swapping A and B is the index permutation that flips the sign of K."""
    swapped = block.swapped()
    perm = np.zeros((block.dim, block.dim))
    for idx, (a, b) in enumerate(block_grid(block)):
        perm[flat_index(swapped, b, a), idx] = 1.0
    direct = hla_cartesian(block)
    other = hla_cartesian(swapped)
    for name, (m_block, m_swapped) in enumerate(zip(direct, other)):
        sign = 1.0 if name < 3 else -1.0  # J components first, then K
        assert max_abs(perm @ m_block @ perm.T - sign * m_swapped) < 1e-13
