"""Coupling data between a compatible pair of Lorentz blocks.

Two blocks P and Q can carry a non-zero displacement-generator block
between them only when their labels differ by exactly one half in both A
and B.  The pair then falls into one of four cases written "++", "+-",
"-+", "--" according to the signs in A_P = A_Q + S_A/2, B_P = B_Q + S_B/2;
a case is held as its sign pair (S_A, S_B), two ints of +-1, both here
and in the arrays `u_blocks` reads.

For a compatible pair the off-diagonal blocks of the four displacement
generators are fixed up to two scalars t_PQ, t_QP: this module builds the
universal matrices they multiply.  The ladder combinations used are

    V+- = (Vx +- i Vy) / 2      shifts (a, b) by +-(1/2, 1/2)
    W+- = (Vz +- Vt) / 2        shifts (a, b) by +-(1/2, -1/2)

so the Cartesian components are recovered as Vx = V+ + V-,
Vy = -i (V+ - V-), Vz = W+ + W-, Vt = W+ - W-.

The entry values follow a single scheme: with A12/B12 the larger of the
two A/B labels and a12/b12 the magnetic index on the side carrying the
larger label,

    (V-side, direction d = +-1)  S_d  * sqrt((A12 + d S_A a12)(B12 + d S_B b12))
    (W-side, direction d = +-1) -S^d  * sqrt((A12 + d S_A a12)(B12 - d S_B b12))

on the P->Q rectangle, where S_+ = 1, S_- = -S_A S_B, S^+ = S_B and
S^- = S_A; the Q->P rectangle is obtained from the same scheme with both
case signs reversed (and the W-side overall sign dropped).

The Hermiticity requirement on the full generators then ties the scalars
together: t_PQ = -t_QP for the ++/-- cases, t_PQ = +t_QP for +-/-+.

Finally, the same machinery yields the coefficients of the block-diagonal
identity i[Vx,Vy]_II = sum over connected J of t_IJ t_JI Z_IJ with
Z_IJ = coef_a * a_I + coef_b * b_I, which is what the backbone solver
consumes.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from .blocks import BlockLabel, concatenated_grid
from .numeric import Sparse

__all__ = [
    "compatibility",
    "t_sign_relation",
    "breaks_sign_rule",
    "z_linear",
    "u_blocks",
    "cartesian_from_ladders",
]


def compatibility(p: BlockLabel, q: BlockLabel) -> Optional[tuple[int, int]]:
    """The pair case (S_A, S_B) when |A_P - A_Q| = |B_P - B_Q| = 1/2, else None."""
    s_a, s_b = p.twice_a - q.twice_a, p.twice_b - q.twice_b
    return (s_a, s_b) if abs(s_a) == abs(s_b) == 1 else None


def t_sign_relation(case: tuple[int, int]) -> int:
    """Sign s in t_PQ = s * t_QP demanded by Hermiticity: -1 for ++/--, +1 for +-/-+."""
    return -case[0] * case[1]


def breaks_sign_rule(case: tuple[int, int], t_ij: float, t_ji: float) -> Optional[float]:
    """The reverse coupling Hermiticity expects, when t_ji is not it, else None.

    The expected value is t_sign_relation(case) * t_ij, matched within a
    relative 1e-12 (absolute 1e-300, so that zeros agree)."""
    expected = t_sign_relation(case) * t_ij
    return None if math.isclose(t_ji, expected, rel_tol=1e-12, abs_tol=1e-300) else expected


def z_linear(case: tuple[int, int], label: BlockLabel) -> tuple[int, int]:
    """(coef_a, coef_b) of Z_IJ = coef_a * a_I + coef_b * b_I (factor 4
    included), for block I with `label` coupled via `case`.

    The four rows are:
        ++ ->  coef_a = 4 B_I,       coef_b = 4 A_I
        -- ->  coef_a = -4 (B_I+1),  coef_b = -4 (A_I+1)
        +- ->  coef_a = -4 (B_I+1),  coef_b = 4 A_I
        -+ ->  coef_a = 4 B_I,       coef_b = -4 (A_I+1)

    all even integers, written from the twice-values 2 A_I and 2 B_I.
    """
    s_a, s_b = case
    coef_a = 2 * label.twice_b if s_b > 0 else -2 * (label.twice_b + 2)
    coef_b = 2 * label.twice_a if s_a > 0 else -2 * (label.twice_a + 2)
    return coef_a, coef_b


def u_blocks(
    blocks: Sequence[BlockLabel],
    pairs: Sequence[tuple[int, int]],
    scales: Sequence[float],
) -> tuple[Sparse, Sparse, Sparse, Sparse]:
    """(V+, V-, W+, W-) on the direct sum of the blocks, from ordered block pairs.

    Ordered pair (i, j) with scale t puts t times its universal rectangles
    (block-i rows, block-j columns) at the blocks' offsets.  Every
    rectangle of every pair is built in one array pass over the
    concatenated grids of the column blocks.  Raises ValueError for an
    incompatible pair and ArithmeticError for a negative radicand.
    """
    twice_a = np.array([block.twice_a for block in blocks], dtype=np.intp)
    twice_b = np.array([block.twice_b for block in blocks], dtype=np.intp)
    dims = (twice_a + 1) * (twice_b + 1)
    offsets = np.cumsum(dims) - dims
    n = int(dims.sum())
    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    s_a, s_b = twice_a[i] - twice_a[j], twice_b[i] - twice_b[j]  # the case signs
    bad = np.flatnonzero((np.abs(s_a) != 1) | (np.abs(s_b) != 1))
    if bad.size:
        p, q = blocks[i[bad[0]]], blocks[j[bad[0]]]
        raise ValueError(f"blocks {p} and {q} are not compatible")

    # twice-values throughout, per entry: P's labels, the case signs, A12,
    # B12, the column indices (a2, b2) and, per rectangle, the row indices
    # (a1, b1); a12/b12 are read on the side with the larger label
    pair, local, a2, b2 = concatenated_grid(twice_a[j], twice_b[j])
    p_a, p_b = twice_a[i][pair], twice_b[i][pair]
    s_a, s_b = s_a[pair], s_b[pair]
    big_a, big_b = np.maximum(p_a, p_a - s_a), np.maximum(p_b, p_b - s_b)
    first_row, cols = offsets[i][pair], offsets[j][pair] + local
    scale = np.asarray(scales, dtype=float)[pair]

    def ladder(d_a: int, d_b: int, sign) -> Sparse:
        """sign * sqrt((A12 + d_a S_A a12)(B12 + d_b S_B b12)) from each column
        (a2, b2) to the row (a2 + d_a/2, b2 + d_b/2), where that row exists."""
        a1, b1 = a2 + d_a, b2 + d_b
        keep = (np.abs(a1) <= p_a) & (np.abs(b1) <= p_b)
        a_idx = np.where(s_a > 0, a1, a2)
        b_idx = np.where(s_b > 0, b1, b2)
        # an integer product of twice-values, so radicand / 4 is exact
        radicand = ((big_a + d_a * s_a * a_idx) * (big_b + d_b * s_b * b_idx))[keep]
        if (radicand < 0).any():
            raise ArithmeticError("negative radicand in coupling rectangle")
        rows = (first_row + (p_a - a1) // 2 * (p_b + 1) + (p_b - b1) // 2)[keep]
        vals = (sign[keep] * np.sqrt(radicand / 4.0)).astype(complex)
        return Sparse(n, rows * n + cols[keep], scale[keep] * vals)

    # V-side: both indices shift together; W-side: they shift oppositely.
    return (
        ladder(+1, +1, np.ones_like(s_a)),
        ladder(-1, -1, -s_a * s_b),
        ladder(+1, -1, -s_b),
        ladder(-1, +1, -s_a),
    )


def cartesian_from_ladders(
    vplus: Sparse, vminus: Sparse, wplus: Sparse, wminus: Sparse
) -> tuple[Sparse, Sparse, Sparse, Sparse]:
    """(Vt, Vx, Vy, Vz) from the ladder combinations this module produces."""
    vx = vplus + vminus
    vy = -1j * (vplus - vminus)
    vz = wplus + wminus
    vt = wplus - wminus
    return vt, vx, vy, vz
