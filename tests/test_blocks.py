"""Single Lorentz-block generator matrices."""

from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    block_grid,
    dagger,
    flat_index,
    loop_hla_cartesian,
    stored_bytes,
    su2_generators,
    swapped,
)

from dsrep.blocks import BlockLabel, hla_cartesian
from dsrep.numeric import commutator, max_abs
from dsrep.representation import BackboneGraph, assemble
from dsrep.verify import check_all_crs, worst_residual


def L(twice_a, twice_b):
    return BlockLabel(twice_a=twice_a, twice_b=twice_b)


SMALL_BLOCKS = [L(a, b) for a in range(0, 5) for b in range(0, 5)]


def test_block_dim():
    assert L(0, 0).dim == 1
    assert L(1, 1).dim == 4
    assert L(4, 0).dim == 5


def test_negative_labels_rejected():
    with pytest.raises(ValueError):
        L(-1, 0)


@pytest.mark.parametrize("value", [1.0, True, "1", Fraction(1), np.int64(1), None], ids=repr)
def test_non_int_labels_rejected(value):
    with pytest.raises(TypeError):
        L(value, 0)
    with pytest.raises(TypeError):
        L(0, value)


def test_positional_label_rejected():
    with pytest.raises(TypeError):
        BlockLabel(1, 0)


def test_label_values_and_text():
    label = L(3, 4)
    assert (label.a, label.b) == (Fraction(3, 2), Fraction(2))
    assert str(label) == "(3/2,2)"


def test_labels_order_as_their_values():
    labels = [L(a, b) for a in range(9) for b in range(9)]
    for p in labels:
        for q in labels:
            assert (p < q) == ((p.a, p.b) < (q.a, q.b))


def test_grid_order_and_flat_index():
    block = L(1, 2)
    grid = block_grid(block)
    assert len(grid) == block.dim
    # a-major, both descending
    assert [(2 * a, 2 * b) for a, b in grid[:3]] == [(1, 2), (1, 0), (1, -2)]
    for idx, (a, b) in enumerate(grid):
        assert flat_index(block, a, b) == idx


def dense_generators(block):
    """(Jx, Jy, Jz, Kx, Ky, Kz) of one block, each matrix dense."""
    return [m.to_dense() for m in hla_cartesian((block,))]


def test_generators_match_the_entry_loop_bit_for_bit():
    # every label with 2A, 2B <= 13: the same bytes on every non-zero entry,
    # signed zeros of their real and imaginary parts included (a Sparse
    # stores no exact zeros, so those read back as +0)
    for twice_a in range(14):
        for twice_b in range(14):
            block = L(twice_a, twice_b)
            for got, want in zip(hla_cartesian((block,)), loop_hla_cartesian(block)):
                assert got.to_dense().tobytes() == stored_bytes(want), block


def test_trivial_block_all_zero():
    gens = hla_cartesian((L(0, 0),))
    assert len(gens) == 6
    for m in gens:
        assert m.shape == (1, 1)
        assert max_abs(m) == 0.0


def test_jz_diagonal_values():
    # diagonal entries a + b under the fixed ordering of the four states
    _, _, jz, _, _, kz = dense_generators(L(1, 1))
    assert np.allclose(np.diag(jz), [1, 0, 0, -1])
    # i Kz is diagonal a - b
    assert np.allclose(np.diag(1j * kz), [0, 1, -1, 0])


def test_vector_block_spectrum():
    _, _, jz, _, _, kz = dense_generators(L(2, 0))
    assert np.allclose(np.diag(jz), [1, 0, -1])
    assert max_abs(1j * kz) == pytest.approx(1.0)


@pytest.mark.parametrize("block", SMALL_BLOCKS, ids=str)
def test_matches_direct_product_route(block):
    """Entrywise construction must equal A x 1 + 1 x B built from spin irreps."""
    jx, jy, jz, kx, ky, kz = dense_generators(block)
    ap, am, az = su2_generators(block.a)
    bp, bm, bz = su2_generators(block.b)
    ia = np.eye(block.twice_a + 1)
    ib = np.eye(block.twice_b + 1)
    # the ladders J+- = Jx +- i Jy and K+- = Kx +- i Ky
    assert max_abs(jx + 1j * jy - (np.kron(ap, ib) + np.kron(ia, bp))) < 1e-13
    assert max_abs(jx - 1j * jy - (np.kron(am, ib) + np.kron(ia, bm))) < 1e-13
    assert max_abs(jz - (np.kron(az, ib) + np.kron(ia, bz))) < 1e-13
    assert max_abs(kx + 1j * ky + 1j * (np.kron(ap, ib) - np.kron(ia, bp))) < 1e-13
    assert max_abs(kx - 1j * ky + 1j * (np.kron(am, ib) - np.kron(ia, bm))) < 1e-13
    assert max_abs(kz + 1j * (np.kron(az, ib) - np.kron(ia, bz))) < 1e-13


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
        jx, jy, jz, kx, ky, kz = hla_cartesian((L(2, 0),))
        assert max_abs(commutator(kx, ky) + 1j * jz) < 1e-12


@pytest.mark.parametrize("block", SMALL_BLOCKS, ids=str)
def test_hermiticity_pattern(block):
    jx, jy, jz, kx, ky, kz = hla_cartesian((block,))
    for m in (jx, jy, jz):
        assert max_abs(dagger(m) - m) < 1e-12
    for m in (kx, ky, kz):
        assert max_abs(dagger(m) + m) < 1e-12


@pytest.mark.parametrize("block", [L(1, 2), L(2, 1), L(3, 0), L(2, 2)], ids=str)
def test_label_swap_negates_boosts(block):
    """Swapping A and B is the index permutation that flips the sign of K."""
    mirror = swapped(block)
    perm = np.zeros((block.dim, block.dim))
    for idx, (a, b) in enumerate(block_grid(block)):
        perm[flat_index(mirror, b, a), idx] = 1.0
    direct = [m.to_dense() for m in hla_cartesian((block,))]
    other = [m.to_dense() for m in hla_cartesian((mirror,))]
    for name, (m_block, m_swapped) in enumerate(zip(direct, other)):
        sign = 1.0 if name < 3 else -1.0  # J components first, then K
        assert max_abs(perm @ m_block @ perm.T - sign * m_swapped) < 1e-13
