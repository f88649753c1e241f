"""Canonical backbones, coupling coefficients, and full generator assembly.

A backbone is a multiset of Lorentz blocks plus an undirected edge set
naming which pairs carry non-zero displacement couplings.  Only two
families of connected backbones support a representation on their own:

    type A:  (A, A) + (A-1/2, A-1/2) + ... + (0, 0)
    type B:  (A, 0) + (A-1/2, 1/2) + ... + (0, A)

with N >= 2 blocks and A = (N-1)/2, consecutive blocks joined.  This
module constructs those chains, their coupling scalars, and assembles the
ten generator matrices for an arbitrary backbone with given couplings.
"""

from __future__ import annotations

import enum
import functools
import math
from collections import Counter
from collections.abc import Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import numpy as np

from .blocks import BlockLabel, hla_cartesian
from .coupling import (
    breaks_sign_rule,
    cartesian_from_ladders,
    compatibility,
    t_sign_relation,
    u_blocks,
)
from .numeric import Sparse

__all__ = [
    "MAX_DIM",
    "bounded_blocks",
    "Family",
    "Algebra",
    "CanonicalSpec",
    "BackboneGraph",
    "canonical_backbone",
    "canonical_dimension",
    "canonical_t_squared",
    "first_ten_specs",
    "classify_canonical_chain",
    "GENERATOR_NAMES",
    "GeneratorSet",
    "couplings_from_products",
    "assemble",
    "assemble_canonical",
]


class Family(enum.Enum):
    TYPE_A = "a"
    TYPE_B = "b"


class Algebra(enum.Enum):
    DE_SITTER = "ds"
    ANTI_DE_SITTER = "ads"


@dataclass(frozen=True)
class CanonicalSpec:
    """One canonical chain: family plus block count N >= 2."""

    family: Family
    n: int

    def __post_init__(self):
        if type(self.n) is not int:
            raise TypeError(f"the block count N must be an int, got {self.n!r}")
        if self.n < 2:
            raise ValueError(f"a backbone needs at least two blocks, got N={self.n}")


Edge = tuple[int, int]

# Largest representation dimension a backbone may have.  Generators and
# the Casimirs `verify.build_report` checks are held as their non-zeros,
# so the one thing that still grows as dim^2 is what a caller asks for
# densely: `GeneratorSet.generators()`, one complex dim x dim array per
# lookup (16 dim^2 bytes, ~144 MB at 3000).
MAX_DIM = 3000


def bounded_blocks(blocks: Iterable[BlockLabel]) -> tuple[BlockLabel, ...]:
    """The blocks, refused as soon as their dimensions add up past MAX_DIM."""
    out, dim = [], 0
    for block in blocks:
        dim += block.dim
        if dim > MAX_DIM:
            raise ValueError(
                f"the blocks add up to more than {MAX_DIM} dimensions, "
                "the largest representation assembled here"
            )
        out.append(block)
    return tuple(out)


def _normalize_edge(edge: Sequence[int], nblocks: int) -> Edge:
    for end in (edge[0], edge[1]):
        if isinstance(end, bool) or not isinstance(end, (int, np.integer)):
            raise TypeError(f"edge ends must be int block indices, got {end!r} in {edge!r}")
    i, j = int(edge[0]), int(edge[1])
    if i == j:
        raise ValueError(f"self-edge on block {i}")
    if not (0 <= i < nblocks and 0 <= j < nblocks):
        raise ValueError(f"edge ({i}, {j}) out of range for {nblocks} blocks")
    return (i, j) if i < j else (j, i)


@dataclass(frozen=True)
class BackboneGraph:
    """Blocks (duplicates permitted) plus undirected index edges."""

    blocks: tuple[BlockLabel, ...]
    edges: frozenset[Edge] = field(default_factory=frozenset)

    @classmethod
    def make(cls, blocks: Iterable[BlockLabel], edges: Iterable[Sequence[int]]) -> "BackboneGraph":
        """The backbone of the blocks and edges; a ValueError refuses a bad
        edge, an edge listed twice in either direction, or blocks past MAX_DIM."""
        blocks, edges = bounded_blocks(blocks), list(edges)
        first: dict[Edge, int] = {}  # each edge: where it is first listed
        for pos, edge in enumerate(edges):
            earlier = first.setdefault(_normalize_edge(edge, len(blocks)), pos)
            if earlier != pos:
                listed = [list(map(int, e)) for e in (edge, edges[earlier])]
                raise ValueError(f"edge {pos} {listed[0]} repeats edge {earlier} {listed[1]}")
        return cls(blocks, frozenset(first))

    @property
    def nblocks(self) -> int:
        return len(self.blocks)

    @property
    def dim(self) -> int:
        return sum(b.dim for b in self.blocks)

    @functools.cached_property
    def _adjacency(self) -> tuple[list[int], ...]:
        """The sorted neighbours of every block, from one pass over the edges."""
        out = tuple([] for _ in self.blocks)
        for a, b in self.edges:
            out[a].append(b)
            out[b].append(a)
        for nbrs in out:
            nbrs.sort()
        return out

    def neighbors(self, i: int) -> list[int]:
        return list(self._adjacency[i])

    def label_multiplicities(self) -> dict[BlockLabel, int]:
        return Counter(self.blocks)


# ---------------------------------------------------------------------------
# Canonical chains
# ---------------------------------------------------------------------------


def canonical_backbone(spec: CanonicalSpec) -> BackboneGraph:
    """The canonical chain for the given family and block count."""
    n = spec.n
    if spec.family is Family.TYPE_A:
        labels = (BlockLabel(twice_a=k, twice_b=k) for k in range(n - 1, -1, -1))
    else:
        labels = (BlockLabel(twice_a=n - 1 - m, twice_b=m) for m in range(n))
    # generators, so that a chain past MAX_DIM stops after a few blocks
    edges = ((i, i + 1) for i in range(n - 1))
    return BackboneGraph.make(labels, edges)


def canonical_dimension(spec: CanonicalSpec) -> int:
    """Closed-form total dimension of the canonical chain."""
    n = spec.n
    if spec.family is Family.TYPE_A:
        return n * (n + 1) * (2 * n + 1) // 6
    return n * (n + 1) * (n + 2) // 6


def canonical_t_squared(spec: CanonicalSpec, edge_index: int) -> Fraction:
    """Exact |t_{n,n+1}|^2 for edge n (1-based) of the canonical chain."""
    n_blocks = spec.n
    if not 1 <= edge_index <= n_blocks - 1:
        raise ValueError(f"edge index {edge_index} outside 1..{n_blocks - 1}")
    if spec.family is Family.TYPE_B:
        return Fraction(1, 4)
    n = edge_index
    nn = n_blocks
    return Fraction((2 * nn - n + 1) * n, 4 * (nn - n) * (nn - n + 1))


def first_ten_specs() -> list[tuple[int, CanonicalSpec]]:
    """The ten lowest-dimensional canonical chains, numbered by ascending dimension."""
    specs = [CanonicalSpec(fam, n) for n in range(2, 7) for fam in (Family.TYPE_A, Family.TYPE_B)]
    specs.sort(key=canonical_dimension)
    return [(ref + 1, spec) for ref, spec in enumerate(specs)]


def classify_canonical_chain(labels: Sequence[BlockLabel]) -> Optional[CanonicalSpec]:
    """Identify an (unordered) label sequence as one canonical chain, if it is one.

    The test reads the family off the label multiset, in any order and
    without building a backbone: type A is {(k/2, k/2) : k < N} and type B
    is {(a, b) : a + b = (N-1)/2}, each label once.
    """
    n = len(labels)
    if n < 2:
        return None
    twice = sorted((label.twice_a, label.twice_b) for label in labels)
    if twice == [(k, k) for k in range(n)]:
        return CanonicalSpec(Family.TYPE_A, n)
    if twice == [(k, n - 1 - k) for k in range(n)]:
        return CanonicalSpec(Family.TYPE_B, n)
    return None


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------


GENERATOR_NAMES = ("Jx", "Jy", "Jz", "Kx", "Ky", "Kz", "Vt", "Vx", "Vy", "Vz")


@dataclass(frozen=True)
class GeneratorSet:
    """The ten generator matrices, held as their non-zeros, with the block
    labels of their diagonal blocks in order.

    Each generator is a reduced `Sparse`: its non-zero entries, sorted by
    key, which is row-major order.  J and K are block-diagonal over the
    blocks; the four displacement generators have non-zero rectangles
    only on the backbone edges.  Neither the edges nor the couplings that
    built the matrices are kept: the V rectangles say which blocks are
    joined, the matrices fix the couplings only up to gauge signs, and
    every check reads the matrices and the labels.
    """

    blocks: tuple[BlockLabel, ...]
    algebra: Algebra
    jx: Sparse
    jy: Sparse
    jz: Sparse
    kx: Sparse
    ky: Sparse
    kz: Sparse
    vt: Sparse
    vx: Sparse
    vy: Sparse
    vz: Sparse

    @property
    def dim(self) -> int:
        return self.jz.n

    def matrices(self) -> dict[str, Sparse]:
        """Generator name -> its stored `Sparse` matrix."""
        return {name: getattr(self, name.lower()) for name in GENERATOR_NAMES}

    def generators(self) -> Mapping[str, np.ndarray]:
        """Generator name -> a dense dim x dim array, made on each lookup, none kept."""
        return _DenseGenerators(self.matrices())


class _DenseGenerators(Mapping):
    """A read-only view of stored generators that densifies one per lookup."""

    def __init__(self, matrices: dict[str, Sparse]):
        self._matrices = matrices

    def __getitem__(self, name: str) -> np.ndarray:
        return self._matrices[name].to_dense()

    def __iter__(self) -> Iterator[str]:
        return iter(self._matrices)

    def __len__(self) -> int:
        return len(self._matrices)


def couplings_from_products(
    backbone: BackboneGraph,
    products: Mapping[Edge, Fraction],
    signs: Optional[Mapping[Edge, int]] = None,
) -> dict[Edge, float]:
    """The coupling map `assemble` takes, from the edge products x_e = t_ij t_ji.

    Edge e = (i, j) gets t_ij = s_e sqrt(|x_e|), with s_e = signs[e] (+1
    where absent), and t_ji = -t_ij on ++/-- edges, +t_ij on +-/-+ edges.
    """
    t = {}
    for (i, j), x in products.items():
        p, q = backbone.blocks[i], backbone.blocks[j]
        t[(i, j)] = (signs or {}).get((i, j), 1) * math.sqrt(abs(float(x)))
        t[(j, i)] = t_sign_relation(compatibility(p, q)) * t[(i, j)]
    return t


def assemble(
    backbone: BackboneGraph,
    t: Mapping[tuple[int, int], float],
    algebra: Algebra = Algebra.DE_SITTER,
) -> GeneratorSet:
    """Build the ten generator matrices for a backbone with given couplings.

    t maps both ordered pairs (i, j) and (j, i) of every backbone edge, and
    nothing else, to a finite number: {(0, 1): t01, (1, 0): t10}.  The two
    scalars of every edge must obey the Hermiticity sign rule (t_ij = -t_ji
    on ++/-- edges, t_ij = +t_ji on +-/-+ edges).  A ValueError names the
    first edge that has a direction missing, a non-finite coupling, joins
    incompatible blocks or breaks the sign rule, or else a key that is not
    a direction of a backbone edge.

    Only the edge checks loop in Python.  J and K of every block come from
    one array pass over the backbone (`blocks.hla_cartesian`), the
    ladder rectangles of every directed edge from another
    (`coupling.u_blocks`), and the Cartesian V from one
    `cartesian_from_ladders`.

    The anti-de Sitter algebra is produced from the de Sitter matrices by
    multiplying all four displacement generators by i.
    """
    pairs, scales = [], []  # both ordered pairs of every edge, with their couplings
    for i, j in sorted(backbone.edges):
        p, q = backbone.blocks[i], backbone.blocks[j]
        if (i, j) not in t or (j, i) not in t:
            raise ValueError(
                f"missing coupling for edge ({i}, {j}): t needs one number under "
                f"each of the keys ({i}, {j}) and ({j}, {i})"
            )
        t_ij, t_ji = float(t[(i, j)]), float(t[(j, i)])
        case = compatibility(p, q)
        if case is None:
            raise ValueError(f"edge ({i}, {j}) joins incompatible blocks {p}, {q}")
        if not (math.isfinite(t_ij) and math.isfinite(t_ji)):
            raise ValueError(
                f"couplings on edge ({i}, {j}) are not finite: t_ij={t_ij}, t_ji={t_ji}"
            )
        expected = breaks_sign_rule(case, t_ij, t_ji)
        if expected is not None:
            signs = "".join("+" if s > 0 else "-" for s in case)
            raise ValueError(
                f"couplings on edge ({i}, {j}) violate the Hermiticity sign "
                f"rule for case {signs}: t_ji={t_ji}, expected {expected}"
            )
        pairs += [(i, j), (j, i)]
        scales += [t_ij, t_ji]
    if len(t) > len(pairs):
        directions = set(pairs)
        stray = next(key for key in t if key not in directions)
        raise ValueError(f"coupling key {stray!r} is not a direction of a backbone edge")

    jx, jy, jz, kx, ky, kz = hla_cartesian(backbone.blocks)
    vt, vx, vy, vz = cartesian_from_ladders(*u_blocks(backbone.blocks, pairs, scales))
    if algebra is Algebra.ANTI_DE_SITTER:
        vx, vy, vz, vt = 1j * vx, 1j * vy, 1j * vz, 1j * vt

    return GeneratorSet(
        backbone.blocks, algebra, *(m.reduced() for m in (jx, jy, jz, kx, ky, kz, vt, vx, vy, vz))
    )


def assemble_canonical(
    spec: CanonicalSpec, algebra: Algebra = Algebra.DE_SITTER
) -> GeneratorSet:
    """Assemble one canonical chain with its canonical couplings, forward ones positive."""
    backbone = canonical_backbone(spec)
    products = {(n - 1, n): canonical_t_squared(spec, n) for n in range(1, spec.n)}
    return assemble(backbone, couplings_from_products(backbone, products), algebra)
