"""Block labels (A, B) and the generator matrices of Lorentz blocks and
their direct sums.

A `BlockLabel` holds the ints 2A and 2B, the twice-values every array
here and in `coupling` is built from; its `a` and `b` give A and B as
Fractions.

A block carries the rotation generators J and the boost generators K of
the homogeneous Lorentz algebra, realised on the (2A+1)(2B+1)-dimensional
space of the implied direct product of a spin-A and a spin-B irrep.  The
double index (a, b) is flattened A-major: a varies slowest, both indices
descending, so flat = (A - a)(2B + 1) + (B - b).  A direct sum of
blocks puts each block's grid after those of the blocks before it, and
its generators are built for all blocks at once: `hla_cartesian` builds
the ladders J+-, K+- and their Cartesian form in one pass, and
`jz_diagonal` is the one formula for Jz, which `verify.check_jz` reads too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .numeric import Sparse

__all__ = [
    "BlockLabel",
    "concatenated_grid",
    "twice_grid",
    "jz_diagonal",
    "hla_cartesian",
]


@dataclass(frozen=True, order=True, kw_only=True)
class BlockLabel:
    """The pair (A, B) labelling one Lorentz irrep block, held as the ints
    2A and 2B; labels order as the pairs (A, B) do."""

    twice_a: int
    twice_b: int

    def __post_init__(self):
        for twice in (self.twice_a, self.twice_b):
            if type(twice) is not int:
                raise TypeError(f"twice-values must be ints, got {twice!r}")
        if self.twice_a < 0 or self.twice_b < 0:
            raise ValueError(f"block labels must be non-negative, got ({self.a}, {self.b})")

    @property
    def a(self) -> Fraction:
        return Fraction(self.twice_a, 2)

    @property
    def b(self) -> Fraction:
        return Fraction(self.twice_b, 2)

    def __str__(self) -> str:
        return f"({self.a},{self.b})"

    @property
    def dim(self) -> int:
        return (self.twice_a + 1) * (self.twice_b + 1)


def concatenated_grid(
    twice_a: np.ndarray, twice_b: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(owner, local, a2, b2) at every position of the blocks' grids, one after another.

    The blocks are given as integer arrays of 2A and 2B.  Per position:
    the index of its block, its flat index in that block, and twice its
    (a, b).
    """
    dims = (twice_a + 1) * (twice_b + 1)
    owner = np.repeat(np.arange(dims.size), dims)
    local = np.arange(owner.size) - (np.cumsum(dims) - dims)[owner]
    width = twice_b[owner] + 1
    return owner, local, twice_a[owner] - 2 * (local // width), twice_b[owner] - 2 * (local % width)


def twice_grid(blocks: Sequence[BlockLabel]) -> tuple[np.ndarray, ...]:
    """(2A, 2B, 2a, 2b) at every position of the blocks' grids, one after another:
    the twice-labels of its block and its own twice-indices."""
    twice_a = np.array([block.twice_a for block in blocks], dtype=np.intp)
    twice_b = np.array([block.twice_b for block in blocks], dtype=np.intp)
    owner, _, a2, b2 = concatenated_grid(twice_a, twice_b)
    return twice_a[owner], twice_b[owner], a2, b2


def jz_diagonal(a2: np.ndarray, b2: np.ndarray) -> Sparse:
    """Jz = diag(a + b), from the twice-indices of every position (`twice_grid`)."""
    n = a2.size
    return Sparse(n, np.arange(n) * (n + 1), (a2 / 2.0 + b2 / 2.0).astype(complex))


def hla_cartesian(blocks: Sequence[BlockLabel]) -> tuple[Sparse, ...]:
    """Cartesian generators (Jx, Jy, Jz, Kx, Ky, Kz) of the direct sum of the blocks.

    Every block is built in one array pass over the concatenated grid.
    Entrywise, J+ raises a or b by one with the spin-A / spin-B raising
    coefficients, i K+ is the same with the B term negated, Jz is diagonal
    a + b and i Kz diagonal a - b; then Jx = (J+ + J-)/2, Jy = -i (J+ - J-)/2,
    and K likewise, anti-Hermitian.  Diagonal zeros are stored entries.
    """
    spin_a, spin_b, a2, b2 = twice_grid(blocks)
    n = a2.size
    cols = np.arange(n)
    jz = jz_diagonal(a2, b2)
    kz = Sparse(n, jz.keys, -1j * (a2 / 2.0 - b2 / 2.0))

    # A move of a shifts the flat index by the row width, a move of b by one.
    keys, j_vals, k_vals = ({1: [], -1: []} for _ in range(3))  # by step
    for spin2, index2, stride, k_unit in ((spin_a, a2, spin_b + 1, -1j), (spin_b, b2, 1, 1j)):
        for step in (1, -1):
            # (J - m)(J + m + 1) raising, (J + m)(J - m + 1) lowering, in
            # twice-values an integer product divided by 4
            moves = step * index2 < spin2
            radicand = ((spin2 - step * index2) * (spin2 + step * index2 + 2))[moves]
            coeff = np.sqrt(radicand / 4.0)
            keys[step].append(((cols - step * stride) * n + cols)[moves])
            j_vals[step].append(coeff.astype(complex))
            k_vals[step].append(k_unit * coeff)

    def cartesian(vals: dict) -> tuple[Sparse, Sparse]:
        plus, minus = (Sparse(n, np.concatenate(keys[s]), np.concatenate(vals[s])) for s in (1, -1))
        return (plus + minus) / 2, -0.5j * (plus - minus)

    (jx, jy), (kx, ky) = cartesian(j_vals), cartesian(k_vals)
    return jx, jy, jz, kx, ky, kz
