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

from .numeric import HalfInt, Sparse
from .su2 import spin_indices

__all__ = [
    "BlockLabel",
    "block_dim",
    "block_grid",
    "grid_twice",
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


def grid_twice(block: BlockLabel) -> tuple[np.ndarray, np.ndarray]:
    """Twice the indices (a, b) at every flat position, as integer arrays."""
    width = block.b.twice + 1
    flat = np.arange(block.dim)
    return block.a.twice - 2 * (flat // width), block.b.twice - 2 * (flat % width)


def flat_index(block: BlockLabel, a: HalfInt, b: HalfInt) -> int:
    """Position of (a, b) in the flat ordering."""
    row_a = (block.a.twice - a.twice) // 2
    row_b = (block.b.twice - b.twice) // 2
    width = block.b.twice + 1
    return row_a * width + row_b


class HlaGenerators(NamedTuple):
    jplus: Sparse
    jminus: Sparse
    jz: Sparse
    kplus: Sparse
    kminus: Sparse
    kz: Sparse


def hla_generators(block: BlockLabel) -> HlaGenerators:
    """Ladder-form generators J+-, Jz, K+-, Kz on the flattened double index.

    Entrywise: J+ raises a or b by one with the spin-A / spin-B raising
    coefficients, i K+ is the same with the B term negated, Jz is diagonal
    a + b and i Kz diagonal a - b.  K matrices come out anti-Hermitian.
    Each is a `Sparse` of its entries (zeros on the diagonals included).
    """
    n = block.dim
    a2, b2 = grid_twice(block)
    cols = np.arange(n)
    diagonal = cols * (n + 1)
    jz = Sparse(n, diagonal, (a2 / 2.0 + b2 / 2.0).astype(complex))
    kz = Sparse(n, diagonal, -1j * (a2 / 2.0 - b2 / 2.0))

    # A move of a shifts the flat index by the row width, a move of b by one.
    keys, j_vals, k_vals = ({1: [], -1: []} for _ in range(3))  # by step
    for spin2, index2, stride, k_unit in (
        (block.a.twice, a2, block.b.twice + 1, -1j),
        (block.b.twice, b2, 1, 1j),
    ):
        for step in (1, -1):
            # (J - m)(J + m + 1) raising, (J + m)(J - m + 1) lowering, in
            # twice-values an integer product divided by 4
            moves = step * index2 < spin2
            radicand = (spin2 - step * index2[moves]) * (spin2 + step * index2[moves] + 2)
            coeff = np.sqrt(radicand / 4.0)
            keys[step].append((cols[moves] - step * stride) * n + cols[moves])
            j_vals[step].append(coeff.astype(complex))
            k_vals[step].append(k_unit * coeff)

    def ladder(vals: dict, step: int) -> Sparse:
        return Sparse(n, np.concatenate(keys[step]), np.concatenate(vals[step]))

    return HlaGenerators(
        ladder(j_vals, 1), ladder(j_vals, -1), jz, ladder(k_vals, 1), ladder(k_vals, -1), kz
    )


def hla_cartesian(block: BlockLabel) -> tuple[Sparse, ...]:
    """Cartesian generators (Jx, Jy, Jz, Kx, Ky, Kz) for one block."""
    g = hla_generators(block)
    jx = (g.jplus + g.jminus) / 2
    jy = -0.5j * (g.jplus - g.jminus)
    kx = (g.kplus + g.kminus) / 2
    ky = -0.5j * (g.kplus - g.kminus)
    return jx, jy, g.jz, kx, ky, g.kz
