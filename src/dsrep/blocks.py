"""Generator matrices for one Lorentz block (A, B).

A block carries the rotation generators J and the boost generators K of
the homogeneous Lorentz algebra, realised on the (2A+1)(2B+1)-dimensional
space of the implied direct product of a spin-A and a spin-B irrep.  The
double index (a, b) is flattened A-major: a varies slowest, both indices
descending, so flat = (A - a)(2B + 1) + (B - b).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numeric import HalfInt
from .su2 import ladder_r, ladder_s, spin_indices

__all__ = [
    "BlockLabel",
    "block_dim",
    "block_grid",
    "flat_index",
    "HlaGenerators",
    "hla_generators",
    "hla_cartesian",
]


@dataclass(frozen=True, order=True)
class BlockLabel:
    """The pair (A, B) labelling one Lorentz irrep block."""

    a: HalfInt
    b: HalfInt

    def __post_init__(self):
        object.__setattr__(self, "a", HalfInt.coerce(self.a))
        object.__setattr__(self, "b", HalfInt.coerce(self.b))
        if self.a.twice < 0 or self.b.twice < 0:
            raise ValueError(f"block labels must be non-negative, got ({self.a}, {self.b})")

    def __str__(self) -> str:
        return f"({self.a},{self.b})"

    @property
    def dim(self) -> int:
        return (self.a.twice + 1) * (self.b.twice + 1)

    def swapped(self) -> "BlockLabel":
        return BlockLabel(self.b, self.a)


def block_dim(block: BlockLabel) -> int:
    """(2A + 1)(2B + 1)."""
    return block.dim


def block_grid(block: BlockLabel) -> list[tuple[HalfInt, HalfInt]]:
    """All (a, b) pairs in flat order: a-major, both descending."""
    return [(a, b) for a in spin_indices(block.a) for b in spin_indices(block.b)]


def flat_index(block: BlockLabel, a: HalfInt, b: HalfInt) -> int:
    """Position of (a, b) in the flat ordering."""
    row_a = (block.a.twice - a.twice) // 2
    row_b = (block.b.twice - b.twice) // 2
    width = block.b.twice + 1
    return row_a * width + row_b


class HlaGenerators(NamedTuple):
    jplus: np.ndarray
    jminus: np.ndarray
    jz: np.ndarray
    kplus: np.ndarray
    kminus: np.ndarray
    kz: np.ndarray


def hla_generators(block: BlockLabel) -> HlaGenerators:
    """Ladder-form generators J+-, Jz, K+-, Kz on the flattened double index.

    Entrywise: J+ raises a or b by one with the spin-A / spin-B raising
    coefficients, i K+ is the same with the B term negated, Jz is diagonal
    a + b and i Kz diagonal a - b.  K matrices come out anti-Hermitian.
    """
    grid = block_grid(block)
    n = len(grid)
    pos = {(a.twice, b.twice): i for i, (a, b) in enumerate(grid)}

    jplus = np.zeros((n, n), dtype=complex)
    jminus = np.zeros((n, n), dtype=complex)
    jz = np.zeros((n, n), dtype=complex)
    kplus = np.zeros((n, n), dtype=complex)
    kminus = np.zeros((n, n), dtype=complex)
    kz = np.zeros((n, n), dtype=complex)

    for col, (a2, b2) in enumerate(grid):
        jz[col, col] = float(a2) + float(b2)
        kz[col, col] = -1j * (float(a2) - float(b2))

        up_a = (a2.twice + 2, b2.twice)
        if up_a in pos:
            coeff = ladder_r(block.a, a2)
            jplus[pos[up_a], col] += coeff
            kplus[pos[up_a], col] += -1j * coeff
        up_b = (a2.twice, b2.twice + 2)
        if up_b in pos:
            coeff = ladder_r(block.b, b2)
            jplus[pos[up_b], col] += coeff
            kplus[pos[up_b], col] += 1j * coeff

        down_a = (a2.twice - 2, b2.twice)
        if down_a in pos:
            coeff = ladder_s(block.a, a2)
            jminus[pos[down_a], col] += coeff
            kminus[pos[down_a], col] += -1j * coeff
        down_b = (a2.twice, b2.twice - 2)
        if down_b in pos:
            coeff = ladder_s(block.b, b2)
            jminus[pos[down_b], col] += coeff
            kminus[pos[down_b], col] += 1j * coeff

    return HlaGenerators(jplus, jminus, jz, kplus, kminus, kz)


def hla_cartesian(block: BlockLabel) -> tuple[np.ndarray, ...]:
    """Cartesian generators (Jx, Jy, Jz, Kx, Ky, Kz) for one block."""
    g = hla_generators(block)
    jx = (g.jplus + g.jminus) / 2
    jy = -0.5j * (g.jplus - g.jminus)
    kx = (g.kplus + g.kminus) / 2
    ky = -0.5j * (g.kplus - g.kminus)
    return jx, jy, g.jz, kx, ky, g.kz

