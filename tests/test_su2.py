"""Spin-irrep ladder coefficients and generator matrices, the per-spin
references the block tests build on."""

import math
from fractions import Fraction

import numpy as np
import pytest
from conftest import half_int_range, ladder_r, ladder_s, spin_indices, su2_generators

from dsrep.numeric import max_abs

F = Fraction


def commutator(x, y):
    return x @ y - y @ x


def test_half_int_range():
    assert half_int_range(F(-3, 2), F(3, 2)) == [F(-3, 2), F(-1, 2), F(1, 2), F(3, 2)]
    assert half_int_range(F(1), F(0)) == []


def test_indices_descend():
    assert spin_indices(F(3, 2)) == [F(3, 2), F(1, 2), F(-1, 2), F(-3, 2)]


class TestLadderCoefficients:
    def test_raising_annihilates_top(self):
        assert ladder_r(F(1, 2), F(1, 2)) == 0.0

    def test_raising_values(self):
        # sqrt((A - a)(A + a + 1)) evaluated by hand
        assert ladder_r(F(1, 2), F(-1, 2)) == pytest.approx(1.0, abs=1e-15)
        assert ladder_r(F(1), F(0)) == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_lowering_annihilates_bottom(self):
        assert ladder_s(F(1, 2), F(-1, 2)) == 0.0

    def test_lowering_values(self):
        assert ladder_s(F(1), F(1)) == pytest.approx(math.sqrt(2), abs=1e-15)
        assert ladder_s(F(3, 2), F(1, 2)) == pytest.approx(2.0, abs=1e-15)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ladder_r(F(1, 2), F(3, 2))
        with pytest.raises(ValueError):
            ladder_s(F(1), F(1, 2))  # wrong parity

    def test_reflection_symmetry(self):
        for twice_a in range(0, 9):
            a_max = F(twice_a, 2)
            for a in spin_indices(a_max):
                assert ladder_r(a_max, a) == pytest.approx(ladder_s(a_max, -a), abs=1e-15)


class TestGenerators:
    def test_spin_zero(self):
        plus, minus, z = su2_generators(F(0))
        for m in (plus, minus, z):
            assert m.shape == (1, 1)
            assert max_abs(m) == 0.0

    def test_spin_half_matches_hand_matrices(self):
        plus, minus, z = su2_generators(F(1, 2))
        assert np.array_equal(plus, np.array([[0, 1], [0, 0]], dtype=complex))
        assert np.array_equal(minus, np.array([[0, 0], [1, 0]], dtype=complex))
        assert np.array_equal(z, np.diag([0.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("twice_a", range(0, 9))
    def test_su2_algebra(self, twice_a):
        plus, minus, z = su2_generators(F(twice_a, 2))
        assert max_abs(commutator(plus, minus) - 2 * z) < 1e-12
        assert max_abs(commutator(z, plus) - plus) < 1e-12
        assert max_abs(commutator(z, minus) + minus) < 1e-12

    @pytest.mark.parametrize("twice_a", range(0, 9))
    def test_hermiticity(self, twice_a):
        plus, minus, z = su2_generators(F(twice_a, 2))
        assert np.array_equal(plus.conj().T, minus)
        assert max_abs(z - z.real) == 0.0

    @pytest.mark.parametrize("twice_a", range(0, 9))
    def test_quadratic_casimir(self, twice_a):
        plus, minus, z = su2_generators(F(twice_a, 2))
        casimir = z @ z + (plus @ minus + minus @ plus) / 2
        a = twice_a / 2
        expected = a * (a + 1) * np.eye(twice_a + 1)
        assert max_abs(casimir - expected) < 1e-12
