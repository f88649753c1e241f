"""Coupling data between a compatible pair of Lorentz blocks.

Two blocks P and Q can carry a non-zero displacement-generator block
between them only when their labels differ by exactly one half in both A
and B.  The pair then falls into one of four cases written "++", "+-",
"-+", "--" according to the signs in A_P = A_Q + S_A/2, B_P = B_Q + S_B/2.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .blocks import BlockLabel, grid_twice
from .numeric import HalfInt

__all__ = [
    "PairCase",
    "compatibility",
    "t_sign_relation",
    "ZLinear",
    "z_linear",
    "path_is_monotonic",
    "UBlockSet",
    "u_blocks",
    "cartesian_from_ladders",
]


@dataclass(frozen=True, order=True)
class PairCase:
    """Signs (S_A, S_B) of the half-shifts from Q to P."""

    s_a: int
    s_b: int

    def __post_init__(self):
        if self.s_a not in (1, -1) or self.s_b not in (1, -1):
            raise ValueError(f"case signs must be +-1, got ({self.s_a}, {self.s_b})")

    @property
    def label(self) -> str:
        return ("+" if self.s_a > 0 else "-") + ("+" if self.s_b > 0 else "-")

    def reversed(self) -> "PairCase":
        return PairCase(-self.s_a, -self.s_b)

    def __str__(self) -> str:
        return self.label


def compatibility(p: BlockLabel, q: BlockLabel) -> Optional[PairCase]:
    """The pair case when |A_P - A_Q| = |B_P - B_Q| = 1/2, else None."""
    da = p.a.twice - q.a.twice
    db = p.b.twice - q.b.twice
    if abs(da) != 1 or abs(db) != 1:
        return None
    return PairCase(da, db)


def t_sign_relation(case: PairCase) -> int:
    """Sign s in t_PQ = s * t_QP demanded by Hermiticity: -1 for ++/--, +1 for +-/-+."""
    return -case.s_a * case.s_b


@dataclass(frozen=True)
class ZLinear:
    """Coefficients of Z_IJ = coef_a * a_I + coef_b * b_I (factor 4 included)."""

    coef_a: Fraction
    coef_b: Fraction


def z_linear(case: PairCase, a_i: HalfInt, b_i: HalfInt) -> ZLinear:
    """Block-diagonal commutator coefficients for block I coupled via `case`.

    The four rows are:
        ++ ->  coef_a = 4 B_I,       coef_b = 4 A_I
        -- ->  coef_a = -4 (B_I+1),  coef_b = -4 (A_I+1)
        +- ->  coef_a = -4 (B_I+1),  coef_b = 4 A_I
        -+ ->  coef_a = 4 B_I,       coef_b = -4 (A_I+1)
    """
    af = a_i.as_fraction
    bf = b_i.as_fraction
    coef_a = 4 * bf if case.s_b > 0 else -4 * (bf + 1)
    coef_b = 4 * af if case.s_a > 0 else -4 * (af + 1)
    return ZLinear(coef_a=coef_a, coef_b=coef_b)


def path_is_monotonic(case1: PairCase, case2: PairCase) -> bool:
    """True when a three-block path I-K-J varies monotonically in A and B.

    case1 is the case of the pair (I, K), case2 of (K, J); the path is
    monotonic exactly when the two cases agree, and those are exactly the
    paths whose off-diagonal commutator block vanishes identically.
    """
    return case1 == case2


@dataclass(frozen=True)
class UBlockSet:
    """The eight universal rectangles for one compatible ordered pair (P, Q).

    The *_pq members have block-P rows and block-Q columns; *_qp the
    reverse.  uplus/uminus multiply into V+/V-, wplus/wminus into W+/W-.
    """

    uplus_pq: np.ndarray
    uminus_pq: np.ndarray
    wplus_pq: np.ndarray
    wminus_pq: np.ndarray
    uplus_qp: np.ndarray
    uminus_qp: np.ndarray
    wplus_qp: np.ndarray
    wminus_qp: np.ndarray


def _directed_rectangles(p: BlockLabel, q: BlockLabel) -> tuple[np.ndarray, ...]:
    """(uplus, uminus, wplus, wminus) with P rows, Q columns."""
    case = compatibility(p, q)
    if case is None:
        raise ValueError(f"blocks {p} and {q} are not compatible")
    s_a, s_b = case.s_a, case.s_b

    # twice-values throughout: A12, B12, the column indices (a2, b2) and,
    # for each entry, the row indices (a1, b1)
    big_a = max(p.a.twice, q.a.twice)
    big_b = max(p.b.twice, q.b.twice)
    a_from_p = p.a.twice > q.a.twice
    b_from_p = p.b.twice > q.b.twice
    a2, b2 = grid_twice(q)
    cols = np.arange(q.dim)
    width = p.b.twice + 1

    def rectangle(d_a: int, d_b: int, sign: int) -> np.ndarray:
        """sign * sqrt((A12 + d_a S_A a12)(B12 + d_b S_B b12)) from each column
        (a2, b2) to the row (a2 + d_a/2, b2 + d_b/2), where that row exists."""
        a1, b1 = a2 + d_a, b2 + d_b
        keep = (np.abs(a1) <= p.a.twice) & (np.abs(b1) <= p.b.twice)
        a1, b1 = a1[keep], b1[keep]
        a_idx = a1 if a_from_p else a2[keep]
        b_idx = b1 if b_from_p else b2[keep]
        # an integer product of twice-values, so radicand / 4 is exact
        radicand = (big_a + d_a * s_a * a_idx) * (big_b + d_b * s_b * b_idx)
        if (radicand < 0).any():
            raise ArithmeticError("negative radicand in coupling rectangle")
        rows = (p.a.twice - a1) // 2 * width + (p.b.twice - b1) // 2
        m = np.zeros((p.dim, q.dim), dtype=complex)
        m[rows, cols[keep]] = sign * np.sqrt(radicand / 4.0)
        return m

    # V-side: both indices shift together; W-side: they shift oppositely.
    return (
        rectangle(+1, +1, 1),
        rectangle(-1, -1, -s_a * s_b),
        rectangle(+1, -1, -s_b),
        rectangle(-1, +1, -s_a),
    )


def u_blocks(p: BlockLabel, q: BlockLabel) -> UBlockSet:
    """All eight universal rectangles for the compatible pair (P, Q).

    Raises ValueError for an incompatible pair.
    """
    pq = _directed_rectangles(p, q)
    qp = _directed_rectangles(q, p)
    return UBlockSet(*pq, *qp)


def cartesian_from_ladders(
    vplus: np.ndarray, vminus: np.ndarray, wplus: np.ndarray, wminus: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(Vt, Vx, Vy, Vz) from the ladder combinations this module produces."""
    vx = vplus + vminus
    vy = -1j * (vplus - vminus)
    vz = wplus + wminus
    vt = wplus - wminus
    return vt, vx, vy, vz
