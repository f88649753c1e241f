"""Exact scalar arithmetic and a minimal complex-matrix kernel.

Half-integers (the spins and magnetic indices used everywhere else) are
stored exactly as twice their value.  Matrices are `Sparse`: each
generator is held as its non-zeros from assembly to verdict, and a dense
numpy ``complex128`` array is made only where a caller asks for one.  The
few operations needed elsewhere (commutator, conjugate transpose, residual
norm, exact rational elimination) live here so that every tolerance
decision in the package flows through one place.  The exact linear solve
eliminates over integers and forms a ``fractions.Fraction`` only for each
final unknown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

__all__ = [
    "HalfInt",
    "half_int_range",
    "Sparse",
    "commutator",
    "dagger",
    "max_abs",
    "RationalSolution",
    "solve_rational_linear",
]


@dataclass(frozen=True, order=True)
class HalfInt:
    """An exact integer or half-integer, stored as twice its value.

    ``HalfInt(3)`` is the number 3/2; ``HalfInt(4)`` is the number 2.
    Addition, subtraction and negation are closed; multiplication is
    defined only by an integer (a product of two half-integers is in
    general a quarter-integer and is not representable).
    """

    twice: int

    def __post_init__(self):
        if not isinstance(self.twice, int):
            raise TypeError(f"twice must be an int, got {type(self.twice).__name__}")

    # -- construction helpers ------------------------------------------------

    @classmethod
    def coerce(cls, value) -> "HalfInt":
        """Accept a HalfInt, an int, or a Fraction with denominator 1 or 2."""
        if isinstance(value, HalfInt):
            return value
        if isinstance(value, (int, np.integer)):
            return cls(2 * int(value))
        if isinstance(value, Fraction):
            doubled = 2 * value
            if doubled.denominator == 1:
                return cls(int(doubled))
            raise ValueError(f"{value} is not an integer or half-integer")
        raise TypeError(f"cannot interpret {value!r} as a half-integer")

    @classmethod
    def parse(cls, text) -> "HalfInt":
        """Parse "2", "-3" or "p/2" strings (also accepts plain ints)."""
        if isinstance(text, (int, np.integer)):
            return cls(2 * int(text))
        if not isinstance(text, str):
            raise TypeError(f"cannot parse {text!r} as a half-integer")
        s = text.strip()
        if "/" in s:
            num_text, den_text = s.split("/", 1)
            num = int(num_text)
            den = int(den_text)
            if den == 2:
                return cls(num)
            if den == 1:
                return cls(2 * num)
            raise ValueError(f"half-integer denominator must be 1 or 2: {text!r}")
        return cls(2 * int(s))

    # -- queries -------------------------------------------------------------

    def is_integer(self) -> bool:
        return self.twice % 2 == 0

    @property
    def as_fraction(self) -> Fraction:
        return Fraction(self.twice, 2)

    def __float__(self) -> float:
        return self.twice / 2.0

    def __str__(self) -> str:
        if self.twice % 2 == 0:
            return str(self.twice // 2)
        return f"{self.twice}/2"

    def __repr__(self) -> str:
        return f"HalfInt({self.twice})"

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other) -> "HalfInt":
        return HalfInt(self.twice + HalfInt.coerce(other).twice)

    __radd__ = __add__

    def __sub__(self, other) -> "HalfInt":
        return HalfInt(self.twice - HalfInt.coerce(other).twice)

    def __rsub__(self, other) -> "HalfInt":
        return HalfInt(HalfInt.coerce(other).twice - self.twice)

    def __neg__(self) -> "HalfInt":
        return HalfInt(-self.twice)

    def __mul__(self, other) -> "HalfInt":
        if isinstance(other, (int, np.integer)):
            return HalfInt(self.twice * int(other))
        return NotImplemented

    __rmul__ = __mul__


def half_int_range(low: HalfInt, high: HalfInt) -> list[HalfInt]:
    """Inclusive list low, low+1, ..., high (unit steps; empty if high < low)."""
    if (high.twice - low.twice) % 2 != 0:
        raise ValueError(f"{low} and {high} do not differ by an integer")
    return [HalfInt(t) for t in range(low.twice, high.twice + 1, 2)]


# ---------------------------------------------------------------------------
# Complex matrices: dense arrays and their non-zeros
# ---------------------------------------------------------------------------


class Sparse:
    """A square complex matrix held as its non-zero entries.

    Entries are kept as flat keys ``row * n + col`` with their values.  The
    class supports the arithmetic the relation and Casimir formulas use:
    ``+``, ``-``, ``@``, multiplication and division by a scalar, and
    `to_dense`; `dagger` and `max_abs` below accept it.  A sum only
    concatenates entries; entries with the same key add up when the matrix
    is next reduced (sorted by key, duplicates summed, exact zeros
    dropped), which happens before it is a factor of a product and in
    `max_abs`.  So a residual such as ``x @ y - y @ x - c`` is summed by
    one sort.  A product gathers, for each entry (i, k) of the left
    factor, row k of the right one, padded to the right factor's widest
    row: O(nnz x row width) work and memory, never dim x dim.  NaN entries
    are non-zero, so they survive every step and reach `max_abs`.

    Where the operands' non-zeros do not overlap, sums, differences and
    scalar multiples carry the bits of the dense result, signed zeros
    included: an absent entry counts as +0, so ``x + 0`` turns a -0.0
    part into +0.0 and ``0 - y`` does not negate a zero part.  Assembly
    relies on this: its entries carry the bits of the same formulas
    evaluated on dense arrays.
    """

    __slots__ = ("n", "keys", "vals", "_reduced", "_padded", "_split")
    ndim = 2
    # numpy operators defer to this class instead of broadcasting over it
    __array_ufunc__ = None

    def __init__(self, n: int, keys: np.ndarray, vals: np.ndarray, reduced: bool = False):
        self.n = n
        self.keys = keys
        self.vals = vals
        self._reduced = reduced
        self._padded = None  # (cols, vals) of each row, as a right factor
        self._split = None  # (row * n, col) of each entry, as a left factor

    @classmethod
    def zero(cls, n: int) -> "Sparse":
        """The n x n zero matrix: no entries."""
        return cls(n, np.zeros(0, dtype=np.intp), np.zeros(0, dtype=complex), reduced=True)

    @classmethod
    def from_dense(cls, m) -> "Sparse":
        """The non-zeros of a square matrix."""
        m = np.asarray(m, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"Sparse needs a square matrix, got shape {m.shape}")
        # comparing first is several times faster than np.nonzero on complex
        keys = np.flatnonzero(m != 0)
        return cls(m.shape[0], keys, m.ravel()[keys], reduced=True)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def _summed(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, values): the distinct keys in order, each with its summed value."""
        if self._reduced or not self.keys.size:
            return self.keys, self.vals
        order = np.argsort(self.keys)
        keys = self.keys[order]
        first = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        return keys[starts], np.add.reduceat(self.vals[order], starts)

    def reduced(self) -> "Sparse":
        """Entries sorted by key, one per key, exact zeros dropped."""
        if self._reduced:
            return self
        keys, sums = self._summed()
        keep = sums != 0
        return Sparse(self.n, keys[keep], sums[keep], reduced=True)

    def _padded_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """(cols, vals), both n x (widest row): each row's entries, zero-padded."""
        if self._padded is None:
            m = self.reduced()
            row = m.keys // self.n
            counts = np.bincount(row, minlength=self.n)
            slot = np.arange(row.size) - (np.cumsum(counts) - counts)[row]
            width = int(counts.max(initial=0))
            cols = np.zeros((self.n, width), dtype=m.keys.dtype)
            vals = np.zeros((self.n, width), dtype=complex)
            cols[row, slot] = m.keys % self.n
            vals[row, slot] = m.vals
            self._padded = (cols, vals)
        return self._padded

    def to_dense(self) -> np.ndarray:
        m = self.reduced()
        out = np.zeros(self.n * self.n, dtype=complex)
        out[m.keys] = m.vals
        return out.reshape(self.n, self.n)

    def _pairs_with(self, other) -> bool:
        if not isinstance(other, Sparse):
            return False
        if other.n != self.n:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return True

    def __add__(self, other):
        if not self._pairs_with(other):
            return NotImplemented
        vals = np.concatenate((self.vals, other.vals))
        vals += 0  # x + 0, as where the other operand is absent
        return Sparse(self.n, np.concatenate((self.keys, other.keys)), vals)

    def __sub__(self, other):
        if not self._pairs_with(other):
            return NotImplemented
        vals = np.concatenate((self.vals, other.vals))
        tail = vals[self.vals.size:]
        np.subtract(0, tail, out=tail)  # 0 - y, as where self is absent
        return Sparse(self.n, np.concatenate((self.keys, other.keys)), vals)

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, float, complex, np.number)):
            return NotImplemented
        return Sparse(self.n, self.keys, self.vals * scalar, self._reduced)

    def __rmul__(self, scalar):
        # scalar first, as in the dense ``scalar * matrix``
        if not isinstance(scalar, (int, float, complex, np.number)):
            return NotImplemented
        return Sparse(self.n, self.keys, scalar * self.vals, self._reduced)

    def __truediv__(self, scalar):
        if not isinstance(scalar, (int, float, complex, np.number)):
            return NotImplemented
        return Sparse(self.n, self.keys, self.vals / scalar, self._reduced)

    def __matmul__(self, other):
        if not self._pairs_with(other):
            return NotImplemented
        left = self.reduced()
        if left._split is None:
            col = left.keys % self.n
            left._split = ((left.keys - col)[:, None], col)
        row_start, inner = left._split
        cols, vals = other._padded_rows()
        # padding adds zero terms, which the next reduction drops (a NaN
        # factor makes them NaN, as it would in a dense product)
        return Sparse(
            self.n,
            (row_start + cols[inner]).ravel(),
            (left.vals[:, None] * vals[inner]).ravel(),
        )


def commutator(x, y):
    """[x, y] = x @ y - y @ x for square matrices of equal dimension.

    The operands are dense arrays or `Sparse` matrices (both the same).
    """
    if not isinstance(x, Sparse):
        x, y = np.asarray(x), np.asarray(y)
    if x.ndim != 2 or x.shape[0] != x.shape[1]:
        raise ValueError(f"commutator needs square matrices, got shape {x.shape}")
    if x.shape != y.shape:
        raise ValueError(f"commutator shape mismatch: {x.shape} vs {y.shape}")
    return x @ y - y @ x


def dagger(x):
    """Conjugate transpose."""
    if isinstance(x, Sparse):
        row, col = np.divmod(x.keys, x.n)
        return Sparse(x.n, col * x.n + row, x.vals.conj())
    return np.asarray(x).conj().T


def max_abs(x) -> float:
    """Largest entry magnitude; 0.0 for an empty matrix; NaN if any entry is NaN."""
    values = x._summed()[1] if isinstance(x, Sparse) else np.asarray(x)
    if values.size == 0:
        return 0.0
    return float(np.max(np.abs(values)))


# ---------------------------------------------------------------------------
# Exact rational linear solve
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RationalSolution:
    """Outcome of an exact linear solve over the rationals.

    status is one of "unique", "underdetermined", "inconsistent".  The
    solution vector is present only for "unique"; dof (number of free
    variables) is present whenever the system is consistent.
    """

    status: str
    solution: Optional[list[Fraction]]
    dof: Optional[int]

    @property
    def is_unique(self) -> bool:
        return self.status == "unique"


def _integer_row(row: Sequence, b) -> tuple[dict[int, int], int]:
    """One equation scaled to integers: ({column: coefficient}, right-hand side)."""
    coeffs = {c: Fraction(v) for c, v in enumerate(row) if v}
    b = Fraction(b)
    scale = math.lcm(b.denominator, *(v.denominator for v in coeffs.values()))
    return (
        {c: v.numerator * (scale // v.denominator) for c, v in coeffs.items()},
        b.numerator * (scale // b.denominator),
    )


def _eliminate(
    row: dict[int, int], b: int, pivot_row: dict[int, int], pivot_b: int, col: int
) -> tuple[dict[int, int], int]:
    """a * row - f * pivot_row, with a and f the two coefficients of col, which
    drops out; the result is divided by the gcd of its entries."""
    a, f = pivot_row[col], row[col]
    out = {c: a * v for c, v in row.items()}
    for c, v in pivot_row.items():
        out[c] = out[c] - f * v if c in out else -f * v
    out = {c: v for c, v in out.items() if v}
    b = a * b - f * pivot_b
    g = math.gcd(b, *out.values())
    if g > 1:
        out = {c: v // g for c, v in out.items()}
        b //= g
    return out, b


def solve_rational_linear(
    matrix: Sequence[Sequence], rhs: Sequence
) -> RationalSolution:
    """Exact elimination over the rationals; rank decisions are exact.

    Entries may be ints or Fractions.  Each equation is scaled to integers
    and kept as its non-zeros; elimination is fraction-free, each row
    divided by the gcd of its entries, and a Fraction is formed only for
    each final unknown.  Never raises on rank defects: the returned status
    distinguishes unique / underdetermined / inconsistent.
    """
    if len(matrix) != len(rhs):
        raise ValueError(f"{len(matrix)} rows but {len(rhs)} right-hand sides")
    ncols = len(matrix[0]) if matrix else 0
    if any(len(row) != ncols for row in matrix):
        raise ValueError("ragged coefficient matrix")

    # Echelon form, one equation at a time: each pivot row holds no column
    # of an earlier pivot, so reducing by the pivots in order clears them all.
    pivots: dict[int, tuple[dict[int, int], int]] = {}
    for row, b in zip(matrix, rhs):
        coeffs, b = _integer_row(row, b)
        for col, (pivot_row, pivot_b) in pivots.items():
            if col in coeffs:
                coeffs, b = _eliminate(coeffs, b, pivot_row, pivot_b, col)
        if coeffs:
            pivots[min(coeffs)] = (coeffs, b)
        elif b:
            return RationalSolution("inconsistent", None, None)

    if len(pivots) < ncols:
        return RationalSolution("underdetermined", None, ncols - len(pivots))

    # Back substitution, last pivot first: a later pivot's row is down to
    # its own column by the time an earlier row needs it.
    solved: dict[int, tuple[dict[int, int], int]] = {}
    for col, (coeffs, b) in reversed(pivots.items()):
        for other in [c for c in coeffs if c != col]:
            coeffs, b = _eliminate(coeffs, b, *solved[other], other)
        solved[col] = (coeffs, b)
    return RationalSolution(
        "unique", [Fraction(solved[c][1], solved[c][0][c]) for c in range(ncols)], 0
    )
