"""A sparse-matrix kernel and an exact linear solve.

Matrices are `Sparse`: each generator is held as its non-zeros from
assembly to verdict, and a dense numpy ``complex128`` array is made only
where a caller asks for one.  The few operations needed elsewhere (sums
of products, residual norms of relations, exact rational elimination)
live here so that every tolerance decision in the package flows through
one place.  Every product and every sum goes through one kernel: a
product expands each left entry over the stored entries of its right
row, and entries with the same key are summed after one stable sort of
packed (key, position) words: each key's terms go, in the order they
were formed, into numpy's ``add.reduceat``, which gives the same bits on
every run but need not add them left to right.

Each sum is split into a symbolic half, a `_Plan` (which entries each
term multiplies, the sort, and the output slot of each term), which
depends only on the key patterns of the factors, and a numeric half:
gather, multiply and sum per slot.  In a sum of more than PRODUCT_TERMS
terms, or a relation of more than half as many, the products whose left
factors share a key pattern, and whose right factors do, are one
expansion, and `residual_norms` reuses one plan for relations with the
same patterns in any product order.  The summation order is then: the
products of one pattern pair are added term by term, in the order they
are listed (a relation's pattern pairs in an order fixed by its own
patterns: fewer keys first, then by the keys), and the terms of each key
go in stable key order into one ``add.reduceat`` (in smaller sums, every
product is its own expansion).  No plan outlives the call that made it.
A relation whose products make more than RELATION_TERMS terms is summed
as a `product_sum`, a run of rows at a time, so that dense factors cannot
make its memory grow as dim^3.

The numeric half runs in the dtype of the values it is given.
`Sparse.quarter_turn` writes a matrix that is i^q times a real one as q
and that real part, which shares the matrix's key arrays; `verify` sums
the relations and Hermiticity of such generators in ``float64``, at half
the bytes and time a term.  Float and complex ``add.reduceat`` group a
key's terms differently from five terms on, so such a residual can
differ from the complex one in its last bits: the Casimirs, whose
scalars are printed, stay complex.

The exact linear solve eliminates over integers and forms a
``fractions.Fraction`` only for each final unknown.
"""

from __future__ import annotations

import functools
import heapq
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

__all__ = [
    "Sparse",
    "product_sum",
    "residual_norms",
    "commutator",
    "max_abs",
    "RationalSolution",
    "solve_rational_linear",
]


# ---------------------------------------------------------------------------
# Complex matrices held as their non-zeros
# ---------------------------------------------------------------------------


class Sparse:
    """A square complex matrix held as its non-zero entries.

    Entries are kept as flat keys ``row * n + col`` with their values.  The
    class supports the arithmetic the relation and Casimir formulas use:
    ``+``, ``-``, ``@``, multiplication and division by a scalar, and
    `to_dense`; `max_abs` below accepts it.  A sum only concatenates
    entries; entries with the same key add up when the matrix is next
    reduced (sorted stably by key, duplicates summed by numpy's
    ``add.reduceat``, exact zeros dropped), which happens before it is a
    factor of a product and in `max_abs`.  ``a @ b`` is `product_sum` of
    the one term (1, a, b): it expands each entry (i, k) of a over the
    stored entries of row k of b, O(nnz x mean row length) work and
    bounded memory, never dim x dim.  An empty right row contributes one
    zero term, so a NaN or infinite left entry still reaches the product,
    as it would in a dense one.  NaN entries are non-zero, so they survive
    every step and reach `max_abs`.

    Where the operands' non-zeros do not overlap, sums, differences and
    scalar multiples carry the bits of the dense result, signed zeros
    included: an absent entry counts as +0, so ``x + 0`` turns a -0.0
    part into +0.0 and ``0 - y`` does not negate a zero part.  Assembly
    relies on this: its entries carry the bits of the same formulas
    evaluated on dense arrays.
    """

    __slots__ = ("n", "keys", "vals", "_reduced", "_rows", "_split", "_turn")
    ndim = 2
    # numpy operators defer to this class instead of broadcasting over it
    __array_ufunc__ = None

    def __init__(self, n: int, keys: np.ndarray, vals: np.ndarray, reduced: bool = False):
        self.n = n
        self.keys = keys
        self.vals = vals
        self._reduced = reduced
        self._rows = None  # (start, count, cols, vals) of each row, as a right factor
        self._split = None  # (row * n, col) of each entry, as a left factor
        self._turn = None  # `quarter_turn`, False where there is none

    @classmethod
    def zero(cls, n: int) -> "Sparse":
        """The n x n zero matrix: no entries."""
        return cls(n, np.zeros(0, dtype=np.intp), np.zeros(0, dtype=complex), reduced=True)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.n)

    def _summed(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, values): the distinct keys in order, each with its summed value."""
        if self._reduced or not self.keys.size:
            return self.keys, self.vals
        keys, order, starts = _sort_plan(self.keys.astype(np.int64), self.n * self.n)
        return keys, _sum_sorted(self.vals, order, starts)

    def reduced(self) -> "Sparse":
        """Entries sorted by key, one per key, exact zeros dropped."""
        if self._reduced:
            return self
        keys, sums = self._summed()
        keep = sums != 0
        return Sparse(self.n, keys[keep], sums[keep], reduced=True)

    def _row_spans(self) -> tuple[np.ndarray, ...]:
        """(start, count, cols, vals) as a right factor: row r holds the
        entries start[r] to start[r] + count[r] - 1 of cols and of the
        reduced vals followed by one zero (`_stack` appends it).  An empty
        row spans that zero, so that a NaN or infinite left entry still
        reaches the product."""
        if self._rows is None:
            m = self.reduced()
            count = np.bincount(m.keys // self.n, minlength=self.n)
            start = np.cumsum(count) - count
            empty = count == 0
            start[empty] = m.keys.size
            count[empty] = 1
            self._rows = (start, count, np.append(m.keys % self.n, 0), m.vals)
        return self._rows

    def _entry_split(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(row * n, col, value) of each reduced entry, as a left factor."""
        m = self.reduced()
        if m._split is None:
            col = m.keys % self.n
            m._split = (m.keys - col, col)
        return (*m._split, m.vals)

    def quarter_turn(self) -> Optional[tuple[int, "Sparse"]]:
        """(q, r) with this matrix equal to i^q times the real matrix r, q
        0 or 1, or None.  There is one only where every entry is finite and
        either every imaginary part is +-0 (q = 0, r the real parts) or
        every real part is (q = 1, r the imaginary parts); a matrix of
        zeros fits either q, and is given q = 0.  r is reduced, and shares
        this matrix's keys, row spans and entry split: it holds only a view
        of the values.  Kept, like the row spans.
        """
        if self._turn is None:
            self._turn = False
            m = self.reduced()
            if np.isfinite(m.vals).all():
                for q, part, other in ((0, m.vals.real, m.vals.imag), (1, m.vals.imag, m.vals.real)):
                    if not other.any():
                        real = Sparse(self.n, m.keys, part, reduced=True)
                        real._rows = (*self._row_spans()[:3], part)
                        real._split = m._entry_split()[:2]
                        self._turn = (q, real)
                        break
        return self._turn or None

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
        if not isinstance(other, Sparse):
            return NotImplemented
        return product_sum([(1, self, other)])


def _sort_plan(keys: np.ndarray, limit: int) -> tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """(distinct, order, starts) of keys in [0, limit): the distinct keys in
    order, the permutation that sorts the keys stably, and where each
    distinct key starts among the sorted keys, or None where no key
    repeats (as in assembly).  `keys` is overwritten.

    One sort of the packed words ``key << b | position`` orders the keys
    and leaves the permutation in its low b bits; a stable argsort does
    the same where key and position do not fit in 63 bits.
    """
    shift = (keys.size - 1).bit_length()
    if (limit - 1).bit_length() + shift <= 63:
        keys <<= shift
        keys |= np.arange(keys.size)
        keys.sort()
        order = keys & ((1 << shift) - 1)
        keys >>= shift
    else:
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    if starts.size == keys.size:
        return keys, order, None
    return keys[starts], order, starts


def _sum_sorted(vals: np.ndarray, order: np.ndarray, starts: Optional[np.ndarray]) -> np.ndarray:
    """The values of each distinct key of a `_sort_plan`, summed by
    `np.add.reduceat` over the stably sorted values: the same bits on every
    run, though not necessarily those of a left-to-right sum."""
    vals = vals[order]
    return vals if starts is None else np.add.reduceat(vals, starts)


def _pattern_keys() -> Callable[["Sparse"], tuple[int, bytes]]:
    """A lookup for one call: each matrix's key pattern as (size, bytes of
    the reduced keys), kept per matrix.  Equal patterns have equal keys,
    and the keys order patterns by the patterns alone."""

    @functools.cache
    def pattern(m: "Sparse") -> tuple[int, bytes]:
        keys = m.reduced().keys
        return keys.size, keys.tobytes()

    return pattern


# Terms one reduction sorts, unless one relation, or one row of a
# `product_sum`, makes more: about 0.5 MB of working memory for each
# product that shares an expansion (C1's largest expansion has four).
# Smaller sums, and relations that make at most half as many, do not
# look for shared patterns: one sort of every term, or of several
# relations at once, costs less than finding them.
PRODUCT_TERMS = 1 << 13
# Terms past which one relation of `residual_norms` is summed by
# `product_sum`, whose row runs bound the memory, and not in one sort of
# its own: about 30 bytes a term.  Fixed at import, whatever
# PRODUCT_TERMS is set to later.
RELATION_TERMS = 16 * PRODUCT_TERMS


_ZERO = np.zeros(1)


def _stack(products) -> tuple[list[int], tuple[np.ndarray, ...]]:
    """(offsets, spans): the `Sparse._row_spans` of the right factor of each
    (t, c, a, b) product, stacked in product order, those of product p from
    offsets[p] on; no spans where there are no products."""
    rights = [b._row_spans() for *_, b in products]
    offsets = list(accumulate([right[2].size for right in rights], initial=0))
    if not rights:
        return offsets, ()
    start, count, cols, vals = zip(*rights)
    start, count, cols = (np.concatenate(parts) for parts in (start, count, cols))
    start += np.repeat(offsets[:-1], products[0][3].n)
    # each right factor's values, then the zero its empty rows span
    vals = np.concatenate([part for v in vals for part in (v, _ZERO)])
    return offsets, (start, count, cols, vals)


def _scaled(parts) -> np.ndarray:
    """The values of the (c, values) parts, concatenated, each scaled by its c."""
    if len(parts) == 1:
        return parts[0][1] * parts[0][0]
    vals = np.concatenate([v for _, v in parts])
    vals *= np.repeat(np.array([c for c, _ in parts]), [v.size for _, v in parts])
    return vals


class _Plan(NamedTuple):
    """The symbolic half of one reduction: all that depends only on the key
    patterns of its factors, not on any value.

    Products of one sum whose left factors share a key pattern, and whose
    right factors do, share one expansion: each left entry (i, k) over the
    stored entries of row k of the right factor, an empty row spanning one
    zero entry so that a NaN or infinite left entry still reaches the
    product.  Expansions shared by more products come first.  `layered`
    lists the products by their rank in their expansion: each
    expansion's first product, then the second product of each expansion
    that has two, and so on.  In that order, their left values, each
    repeated `per` times, times the stacked right values at `where`, make
    runs of layers[0], layers[1], ... terms, and each run after the first
    is added term by term to the start of the first.  `keys`, `order`
    and `starts` are the `_sort_plan` of the first run followed by the
    entries of the singles.
    """

    layered: list[int]
    per: np.ndarray
    where: np.ndarray
    layers: list[int]
    keys: np.ndarray
    order: np.ndarray
    starts: Optional[np.ndarray]


def _expansions(products, pairs) -> list[list[int]]:
    """The products of a reduction by their rank in their expansion:
    entry r lists the r-th product of each expansion that has more than r,
    expansions shared by more products first.

    pairs[p], where given, is (pattern of a, pattern of b) of the (t, c, a,
    b) product p, as `_pattern_keys` gives them, and the products of
    one sum with one pair share an expansion; without pairs each product
    is its own.
    """
    if not products:
        return []
    if pairs is None:
        return [list(range(len(products)))]
    shared: dict[tuple, list[int]] = {}
    for p, ((t, *_), pair) in enumerate(zip(products, pairs)):
        shared.setdefault((t, *pair), []).append(p)
    expansions = sorted(shared.values(), key=len, reverse=True)
    return [[e[r] for e in expansions if len(e) > r] for r in range(len(expansions[0]))]


def _plan(n: int, sums: int, products, members, singles, stack) -> _Plan:
    """The `_Plan` of `sums` sums of n x n matrices, entry (i, j) of sum t
    under the key t * n^2 + i * n + j.

    Sum t adds c * (a @ b) over its (t, c, a, b) products and c * m, or
    c * dagger(m) where adjoint is true, over its (t, c, m, adjoint)
    singles.  `members` is `_expansions` of the products, and `stack` is
    `_stack` of them.
    """
    keys = []
    per = where = np.zeros(0, dtype=np.intp)
    layers: list[int] = []
    if members:
        offsets, (start, count, cols, _) = stack
        firsts = members[0]
        lefts = [products[p][2]._entry_split() for p in firsts]
        sizes = [left[0].size for left in lefts]
        prefix, row = (np.concatenate([left[i] for left in lefts]) for i in (0, 1))
        if sums > 1:
            prefix += np.repeat(np.array([products[p][0] for p in firsts]) * (n * n), sizes)
        row += np.repeat(np.array(firsts) * n, sizes)
        per = count[row]
        ends = np.cumsum(per)
        where = np.repeat(start[row] + per - ends, per)
        where += np.arange(where.size)
        expanded = np.repeat(prefix, per)
        expanded += cols[where]
        keys.append(expanded)
        del prefix, row, expanded
        layers.append(where.size)
        if len(members) > 1:
            # rank r takes the first len(members[r]) expansions again, each
            # product's right values as far from those of its expansion's
            # first product as their right factors are apart in the stack
            left_ends = list(accumulate(sizes, initial=0))
            term_ends = np.concatenate(([0], ends))[left_ends].tolist()
            layers += [term_ends[len(layer)] for layer in members[1:]]
            shift = [offsets[p] - offsets[f] for layer in members for p, f in zip(layer, firsts)]
            spans = [term_ends[e + 1] - term_ends[e] for layer in members for e in range(len(layer))]
            per = np.concatenate([per[:left_ends[len(layer)]] for layer in members])
            where = np.concatenate([where[:size] for size in layers])
            where += np.repeat(np.array(shift), spans)
    if singles:
        ms = [m.reduced() for _, _, m, _ in singles]
        single_keys = np.concatenate([
            _transposed_keys(m) if adjoint else m.keys for m, (*_, adjoint) in zip(ms, singles)
        ])
        if sums > 1:
            single_keys += np.repeat(np.array([t for t, *_ in singles]) * (n * n), [m.keys.size for m in ms])
        keys.append(single_keys)
    keys = np.concatenate(keys) if len(keys) > 1 else keys[0] if keys else np.zeros(0, dtype=np.intp)
    layered = [p for layer in members for p in layer]
    return _Plan(layered, per, where, layers, *_sort_plan(keys.astype(np.int64, copy=False), sums * n * n))


def _apply(plan: _Plan, products, singles, stack) -> tuple[np.ndarray, np.ndarray]:
    """(keys, totals): the numeric half of a reduction, for products and
    singles in the order and with the key patterns the plan was made for,
    and `stack` the `_stack` of the products."""
    values = []
    if plan.layered:
        parts = [products[p] for p in plan.layered]
        terms = np.repeat(_scaled([(c, a._entry_split()[2]) for _, c, a, _ in parts]), plan.per)
        terms *= stack[1][3][plan.where]
        done = plan.layers[0]
        for size in plan.layers[1:]:
            terms[:size] += terms[done:done + size]
            done += size
        values.append(terms[:plan.layers[0]])
    if singles:
        values.append(_scaled([
            (c, m.reduced().vals.conj() if adjoint else m.reduced().vals) for _, c, m, adjoint in singles
        ]))
    vals = np.concatenate(values) if len(values) > 1 else values[0]
    return plan.keys, _sum_sorted(vals, plan.order, plan.starts)


def _transposed_keys(m: "Sparse") -> np.ndarray:
    """col * n + row of each entry of m."""
    row, col = np.divmod(m.keys, m.n)
    col *= m.n
    col += row
    return col


def _terms(n: int, products) -> int:
    """About how many terms the (..., a, b) products make."""
    return sum([a.keys.size * (b.keys.size // n + 1) for *_, a, b in products])


def _past_relation_terms(products, widest) -> bool:
    """Whether the (..., a, b) products, each expanded alone, make more than
    RELATION_TERMS terms.  Each entry of a makes as many as its column's
    row of b spans, at most widest(b), b's widest row: most products are
    decided by that bound before the exact count."""
    if sum([a.keys.size * widest(b) for *_, a, b in products]) <= RELATION_TERMS:
        return False
    exact = sum([int(b._row_spans()[1][a._entry_split()[1]].sum()) for *_, a, b in products])
    return exact > RELATION_TERMS


def product_sum(terms: Sequence[tuple[complex, "Sparse", "Sparse"]]) -> "Sparse":
    """The sum of c * (a @ b) over the (c, a, b) terms, reduced.

    Each c scales the entries of a.  Where the products make more than
    PRODUCT_TERMS terms, products whose left factors share a key pattern,
    and whose right factors do, are expanded once, and their terms are
    added term by term, in the order of the terms, before the one sort.
    That sort is stable, and `np.add.reduceat` then sums the terms of
    each key: deterministic bits, not necessarily a left-to-right sum.
    The products are formed for a run of rows at a time and reduced before
    the next run.  A run sorts about PRODUCT_TERMS terms, or the terms of
    one row if that row makes more, so the working memory stays bounded
    however large the operands are; each entry's terms all fall in one run.
    """
    factors = [m for _, a, b in terms for m in (a, b)]
    if not all(isinstance(m, Sparse) for m in factors):
        raise TypeError("product_sum multiplies Sparse matrices only")
    n = factors[0].n
    if any(m.n != n for m in factors):
        raise ValueError(f"shape mismatch: {sorted({m.shape for m in factors})}")
    products = [(0, c, a.reduced(), b) for c, a, b in terms]
    pairs = None
    firsts = range(len(products))
    made = _terms(n, products)
    if made > PRODUCT_TERMS:
        # below that, one sort of every term costs less than sharing
        pattern = _pattern_keys()
        pairs = [(pattern(a), pattern(b)) for *_, a, b in products]
        firsts = [pairs.index(pair) for pair in dict.fromkeys(pairs)]
        made = _terms(n, [products[p] for p in firsts])
    stack = _, (_, count, _, _) = _stack(products)
    bounds = [0, n]
    if made > PRODUCT_TERMS:
        lefts = [(products[p][2], p) for p in firsts]
        per_row = sum(
            np.bincount(a.keys // n, count[a._entry_split()[1] + p * n], minlength=n) for a, p in lefts
        ).astype(np.intp)
        run = (np.cumsum(per_row) - 1) // PRODUCT_TERMS
        bounds = [0, *(np.flatnonzero(np.diff(run)) + 1).tolist(), n]
    members = _expansions(products, pairs)
    pieces = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        rows = products
        if hi - lo < n:
            rows = [(0, c, _row_slice(a, lo, hi), b) for _, c, a, b in products]
        keys, sums = _apply(_plan(n, 1, rows, members, (), stack), rows, (), stack)
        keep = sums != 0
        pieces.append((keys[keep], sums[keep]))
    return Sparse(n, *map(np.concatenate, zip(*pieces)), reduced=True)


def _row_slice(m: "Sparse", lo: int, hi: int) -> "Sparse":
    """Rows lo to hi - 1 of a reduced matrix, the others empty."""
    i, j = np.searchsorted(m.keys, (lo * m.n, hi * m.n))
    return Sparse(m.n, m.keys[i:j], m.vals[i:j], reduced=True)


def residual_norms(n: int, relations) -> list[float]:
    """`max_abs` of each relation's sum, for n x n operands.  A relation is
    (products, singles): the sum of c * (a @ b) over its (c, a, b)
    products and of c * m, or c * dagger(m) where adjoint is true, over
    its (c, m, adjoint) singles.

    Each relation's terms are counted alone.  A relation whose products
    make more than RELATION_TERMS terms is summed as `product_sum` of its
    products plus its singles, a run of rows at a time, so that its memory
    stays bounded however dense its factors are.  Any other relation of
    more than PRODUCT_TERMS / 2 terms takes a sort of its own: its
    products, taken in the order of their (left, right) key patterns,
    share expansions by pattern, as in `product_sum`, and relations with
    the same pattern pairs and the same patterns of singles, in whatever
    order they list their products, are taken one after another, from
    where the first of them stands, on one `_Plan`.  Smaller relations are
    summed several to a sort, in order, while their terms come to about
    PRODUCT_TERMS, each product its own expansion.  Each sort forms only
    its own terms, from the matrices it names.  No other plan is kept.
    """
    relations = list(relations)
    pattern = _pattern_keys()
    widest = functools.cache(lambda b: int(b._row_spans()[1].max(initial=1)))
    large: dict[tuple, list[int]] = {}
    packed: list[list[int]] = []
    size = 0
    norms = [0.0] * len(relations)
    for r, (products, singles) in enumerate(relations):
        made = _terms(n, products)
        # `_terms` counts each left entry at least once, and none makes more than n
        if made * n > RELATION_TERMS and _past_relation_terms(products, widest):
            total = product_sum(products)
            for c, m, adjoint in singles:
                m = m.reduced()
                total = total + c * (Sparse(n, _transposed_keys(m), m.vals.conj()) if adjoint else m)
            norms[r] = max_abs(total)
            continue
        made += sum([m.keys.size for _, m, _ in singles])
        if made > PRODUCT_TERMS // 2:
            ordered = sorted([((pattern(a), pattern(b)), p) for p, (_, a, b) in enumerate(products)])
            relations[r] = ([products[p] for _, p in ordered], singles)
            pairs = tuple([pair for pair, _ in ordered])
            large.setdefault((pairs, tuple([(pattern(m), adj) for _, m, adj in singles])), []).append(r)
        else:
            # several to a sort costs less than finding their patterns
            if not packed or size + made > PRODUCT_TERMS:
                packed.append([])
                size = 0
            packed[-1].append(r)
            size += made
    plan = held = None
    sorts = [(s, [r]) for s, alone in large.items() for r in alone] + [(None, g) for g in packed]
    for signature, group in sorts:
        products = [(t, c, a, b) for t, r in enumerate(group) for c, a, b in relations[r][0]]
        singles = [(t, c, m, adj) for t, r in enumerate(group) for c, m, adj in relations[r][1]]
        stack = _stack(products)
        if signature is None or signature != held:
            plan = None  # one plan at a time
            members = _expansions(products, None if signature is None else signature[0])
            plan, held = _plan(n, len(group), products, members, singles, stack), signature
        keys, sums = _apply(plan, products, singles, stack)
        bounds = np.searchsorted(keys, np.arange(len(group) + 1) * (n * n))
        filled = np.flatnonzero(bounds[:-1] < bounds[1:])
        if filled.size:
            found = np.maximum.reduceat(np.abs(sums), bounds[filled])
            for f, norm in zip(filled.tolist(), found.tolist()):
                norms[group[f]] = norm
    return norms


def commutator(x: Sparse, y: Sparse) -> Sparse:
    """[x, y] = x @ y - y @ x, reduced: `product_sum` of the two terms."""
    return product_sum([(1, x, y), (-1, y, x)])


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


def _integer_row(row: Mapping[int, object], b, ncols: int) -> tuple[dict[int, int], int]:
    """One equation scaled to integers: ({column: coefficient}, right-hand side).

    Rows of ints go through as they are.  Ints, numpy integers and
    Fractions all carry a numerator and a denominator; int() widens a
    numpy one, which would wrap at 64 bits."""
    if row and not (0 <= min(row) and max(row) < ncols):
        raise ValueError(f"a column index outside 0..{ncols - 1}: {sorted(row)}")
    if type(b) is int and all(type(v) is int for v in row.values()):
        return {c: v for c, v in row.items() if v}, b
    coeffs = {c: (int(v.numerator), int(v.denominator)) for c, v in row.items() if v}
    b_num, b_den = int(b.numerator), int(b.denominator)
    scale = math.lcm(b_den, *(den for _, den in coeffs.values()))
    return {c: num * (scale // den) for c, (num, den) in coeffs.items()}, b_num * (scale // b_den)


def _eliminate(
    row: dict[int, int], b: int, pivot_row: dict[int, int], pivot_b: int, col: int
) -> tuple[dict[int, int], int]:
    """a * row - f * pivot_row, with a and f the two coefficients of col, which
    drops out; the result is divided by the gcd of its entries."""
    a, f = pivot_row[col], row[col]
    out = {c: a * v for c, v in row.items()}
    for c, v in pivot_row.items():
        w = out.get(c, 0) - f * v
        if w:
            out[c] = w
        else:  # col, and any other column that cancels
            del out[c]
    b = a * b - f * pivot_b
    g = math.gcd(b, *out.values())
    if g > 1:
        out = {c: v // g for c, v in out.items()}
        b //= g
    return out, b


def solve_rational_linear(
    rows: Sequence[Mapping[int, object]], rhs: Sequence, ncols: int
) -> RationalSolution:
    """Exact elimination over the rationals; rank decisions are exact.

    Each equation is a sparse row {column: coefficient} over the columns
    0..ncols-1, its entries ints, numpy integers or Fractions; the rows
    are eliminated in the order given.  Each equation is scaled to
    integers; elimination is fraction-free, each row divided by the gcd of
    its entries, and a Fraction is formed only for each final unknown.
    Never raises on rank defects: the returned status distinguishes
    unique / underdetermined / inconsistent.
    """
    if len(rows) != len(rhs):
        raise ValueError(f"{len(rows)} rows but {len(rhs)} right-hand sides")

    # Echelon form, one equation at a time: each pivot row holds no column
    # of an earlier pivot, so reducing by the pivots in the order they were
    # found clears them all; a heap of pivot ranks visits only the pivots
    # the equation holds.
    pivots: dict[int, tuple[dict[int, int], int]] = {}
    rank: dict[int, int] = {}
    for row, b in zip(rows, rhs):
        coeffs, b = _integer_row(row, b, ncols)
        due = [(rank[c], c) for c in coeffs if c in rank]
        heapq.heapify(due)
        while due:
            col = heapq.heappop(due)[1]
            if col not in coeffs:  # cancelled by an earlier pivot
                continue
            pivot_row, pivot_b = pivots[col]
            for c in pivot_row:
                if c in rank and c != col and c not in coeffs:
                    heapq.heappush(due, (rank[c], c))
            coeffs, b = _eliminate(coeffs, b, pivot_row, pivot_b, col)
        if coeffs:
            col = min(coeffs)
            rank[col] = len(pivots)
            pivots[col] = (coeffs, b)
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
