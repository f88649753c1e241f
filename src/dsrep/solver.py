"""Validation pipeline for proposed backbone structures.

Given an arbitrary backbone graph, decide whether a Hermitian /
anti-Hermitian representation exists on it, solve for the coupling
scalars when it does, and decompose valid structures into their
connected components (each of which is one canonical chain).

The pipeline runs in stages, each producing a structured witness on
failure:

1. structural checks -- block count, isolated blocks, incompatible
   edges, and the boundary rules (the minimum A and minimum B over the
   backbone must be zero; a block all of whose neighbours sit at larger
   A must itself have A = 0, and likewise for B).
2. unique non-monotonic three-block paths -- a path I-K-J whose two
   steps change direction forces the product t_IK t_KJ to vanish, which
   kills the proposal whenever no second path connects I to J.
3. the exact linear system for the products x_e = t_PQ t_QP on each
   edge, from the block-diagonal commutator identity, solved over the
   rationals; sign constraints follow from the Hermiticity rule
   (x_e <= 0 on ++/-- edges, x_e >= 0 on +-/-+ edges, never exactly 0
   on a claimed connection).
4. numeric verification of the assembled matrices under the package's
   fixed coupling gauge (forward scalars positive), which rules out
   multi-path cancellations the linear stage cannot see, followed by
   the classification requirement that every connected component be a
   canonical chain.

The final requirement is what makes the default verdict a chain
classification.  On a forest the relative coupling signs are pure
gauge (flippable by a diagonal unitary) and every component of a
surviving structure is a chain, so nothing is lost.  Cyclic backbones
are a different matter: the sign of each independent-cycle chord is
physical, and certain cycles (the smallest is the diamond
(1/2,0)-(1,1/2)-(1/2,1)-(0,1/2)) genuinely carry representations that
fall outside the chain family.  The default pipeline reports such
structures invalid -- with a non-canonical-component witness when the
fixed gauge happens to verify, a numeric-cr-failure one otherwise;
pass ``allow_noncanonical=True`` to instead search the chord signs and
accept any structure whose assembled matrices verify.
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, NamedTuple, Optional

from .coupling import compatibility, t_sign_relation, z_linear
from .numeric import solve_rational_linear
from .representation import (
    Algebra,
    BackboneGraph,
    Family,
    GeneratorSet,
    assemble,
    classify_canonical_chain,
    couplings_from_products,
)
from .verify import (
    CR_TOLERANCE,
    HERMITICITY_TOLERANCE,
    check_all_crs,
    check_hermiticity,
    worst_residual,
)

__all__ = [
    "MAX_GAUGE_PATTERNS",
    "WitnessKind",
    "Witness",
    "Verdict",
    "Component",
    "SolverOutcome",
    "OnBdSystem",
    "structural_checks",
    "unique_nonmonotonic_paths",
    "build_onbd_system",
    "solve_and_verify",
    "decompose",
]


class WitnessKind(enum.Enum):
    ONE_BLOCK = "one-block"
    DANGLING_END = "dangling-end"
    INCOMPATIBLE_EDGE = "incompatible-edge"
    BOUNDARY_VIOLATION = "boundary-violation"
    NONMONOTONIC_PATH = "unique-nonmonotonic-path"
    LINEAR_INCONSISTENT = "linear-system-inconsistent"
    SIGN_VIOLATION = "sign-constraint-violated"
    DEAD_EDGE = "dead-edge"
    CR_FAILURE = "numeric-cr-failure"
    NONCANONICAL_COMPONENT = "non-canonical-component"
    SEARCH_BUDGET = "search-budget-exhausted"


@dataclass(frozen=True)
class Witness:
    kind: WitnessKind
    message: str
    data: tuple = ()

    def __str__(self) -> str:
        return f"{self.kind.value}: {self.message}"


class Verdict(enum.Enum):
    VALID = "valid"
    INVALID = "invalid"
    UNDERDETERMINED = "underdetermined"


@dataclass(frozen=True)
class Component:
    """One connected component of a backbone, classified when possible."""

    indices: tuple[int, ...]
    family: Optional[Family]

    @property
    def n(self) -> int:
        return len(self.indices)

    def describe(self, g: BackboneGraph) -> str:
        """The component's family and its first `KEPT_PATHS` block labels."""
        labels = [str(g.blocks[i]) for i in self.indices[:KEPT_PATHS]]
        if len(self.indices) > KEPT_PATHS:
            labels.append(f"... ({len(self.indices)} blocks)")
        chain = " + ".join(labels)
        if self.family is None:
            return f"non-canonical [{chain}]"
        return f"type {self.family.value.upper()} N={self.n} [{chain}]"


@dataclass
class SolverOutcome:
    verdict: Verdict
    witness: Optional[Witness]
    components: list[Component]
    t_values: Optional[dict[tuple[int, int], float]] = None
    x_values: Optional[dict[tuple[int, int], Fraction]] = None
    dof: Optional[int] = None
    generators: Optional[GeneratorSet] = None


# ---------------------------------------------------------------------------
# Stage 1: structural checks
# ---------------------------------------------------------------------------


def structural_checks(g: BackboneGraph) -> Optional[Witness]:
    """First witness found among the purely structural rejection rules."""
    if g.nblocks < 2:
        return Witness(
            WitnessKind.ONE_BLOCK,
            f"a backbone needs at least two blocks, got {g.nblocks}",
        )

    for i, j in sorted(g.edges):
        if compatibility(g.blocks[i], g.blocks[j]) is None:
            return Witness(
                WitnessKind.INCOMPATIBLE_EDGE,
                f"edge ({i}, {j}) joins incompatible blocks "
                f"{g.blocks[i]} and {g.blocks[j]}",
                (i, j),
            )

    for i in range(g.nblocks):
        if not g.neighbors(i):
            return Witness(
                WitnessKind.DANGLING_END,
                f"block {i} {g.blocks[i]} is isolated",
                (i,),
            )

    twice = (("A", [b.twice_a for b in g.blocks]), ("B", [b.twice_b for b in g.blocks]))
    for name, values in twice:
        if min(values) != 0:
            return Witness(
                WitnessKind.BOUNDARY_VIOLATION,
                f"minimum {name} over the backbone is {Fraction(min(values), 2)}, must be 0",
            )

    for i, label in enumerate(g.blocks):
        nbrs = g.neighbors(i)
        for name, values in twice:
            if values[i] > 0 and all(values[m] > values[i] for m in nbrs):
                return Witness(
                    WitnessKind.BOUNDARY_VIOLATION,
                    f"block {i} {label} is connected only to blocks at larger {name}, "
                    f"so it would need {name} = 0",
                    (i,),
                )
    return None


# ---------------------------------------------------------------------------
# Stage 2: unique non-monotonic paths
# ---------------------------------------------------------------------------


# The fatal paths a witness lists, and the block labels a component's
# description lists; the rest are only counted.
KEPT_PATHS = 8


class FatalPaths(NamedTuple):
    """The first fatal paths in (I, J) order, at most `KEPT_PATHS`, and their total."""

    first: tuple[tuple[int, int, int], ...]
    total: int


def _second_paths(i: int, k: int, nbrs, nbr_sets) -> set[int]:
    """The neighbours J of K, other than I, that I also reaches through a
    middle other than K.

    Each middle M adds the blocks it shares with K; a set intersection
    walks the smaller of its two sets, so M costs min(deg M, deg K)."""
    second = set()
    for m in nbrs[i]:
        if m != k:
            second |= nbr_sets[m] & nbr_sets[k]
    second.discard(i)
    return second


def unique_nonmonotonic_paths(g: BackboneGraph) -> FatalPaths:
    """Fatal ordered paths I-K-J: non-monotonic and the only path I..J.

    A path varies monotonically in A and B exactly when both steps have
    the same case, that is when J's label is 2K - I's, and exactly those
    paths have an off-diagonal commutator block that vanishes
    identically.  Two copies of the origin block are exempt too: the
    obstruction coefficient vanishes identically on a one-state block, so
    such a path imposes no constraint (it is how a reducible structure
    grows a second chain out of the origin).

    Both rules read only labels.  So around each middle block K the
    compatible neighbours are grouped by label (at most four classes,
    A +- 1/2 times B +- 1/2), and the total is the sum of class-size
    products over K's fatal class pairs less, for each I, the fatal
    partners J it also reaches through another middle.  Those are found
    by walking I-M-J and counted, not kept, so memory stays linear in the
    edges; a leaf I (one neighbour) has no such walk.  Only the first
    `KEPT_PATHS` paths in (I, J) order are built, each I's walks redone.
    """
    labels = [(b.twice_a, b.twice_b) for b in g.blocks]
    nbrs = [g.neighbors(i) for i in range(g.nblocks)]
    nbr_sets = [set(n) for n in nbrs]
    # middle block -> {a neighbour's label: the neighbours fatal after it}
    fatal_around = {}
    total = 0
    for k, (ka, kb) in enumerate(labels):
        if len(nbrs[k]) < 2:
            continue
        classes: dict[tuple[int, int], list[int]] = {}
        for i in nbrs[k]:
            if abs(labels[i][0] - ka) == 1 == abs(labels[i][1] - kb):
                classes.setdefault(labels[i], []).append(i)
        partners: dict[tuple[int, int], set[int]] = {}
        count = 0
        for p, ps in classes.items():
            for q, qs in classes.items():
                # a monotone pair has q = 2k - p; two origins are exempt
                if (p[0] + q[0] != 2 * ka or p[1] + q[1] != 2 * kb) and (p != q or any(p)):
                    count += len(ps) * (len(qs) - (p == q))
                    partners.setdefault(p, set()).update(qs)
        if not count:
            continue
        for p, ends in partners.items():
            for i in classes[p]:
                count -= len(_second_paths(i, k, nbrs, nbr_sets) & ends)
        if count:
            total += count
            fatal_around[k] = partners

    first: list[tuple[int, int, int]] = []
    for i in range(g.nblocks) if total else ():
        found = []
        for k in nbrs[i]:
            fatal = k in fatal_around and fatal_around[k].get(labels[i])
            if fatal:
                second = _second_paths(i, k, nbrs, nbr_sets)
                found += [(j, k) for j in fatal if j != i and j not in second]
        # a J is fatal through at most one K, so no two (J, K) share a J
        first += [(i, k, j) for j, k in sorted(found)[: KEPT_PATHS - len(first)]]
        if len(first) == KEPT_PATHS:
            break
    return FatalPaths(tuple(first), total)


# ---------------------------------------------------------------------------
# Stage 3: the exact on-diagonal system
# ---------------------------------------------------------------------------


@dataclass
class OnBdSystem:
    """The integer linear system for the edge products x_e = t_PQ t_QP.

    Two equations per block (the coefficients of a_I and of b_I in the
    block-diagonal commutator identity), each a sparse row {column:
    coefficient} over the columns of `edges`; a row is empty when the
    corresponding index does not vary on that block, i.e. when A_I = 0
    or B_I = 0.  A block's two rows are adjacent, and the blocks go from
    the largest A + B down, then from the largest A, then by index, the
    order in which they are eliminated.  required_sign maps each edge to
    the sign x_e must carry, per the Hermiticity rule on its case.
    """

    edges: tuple[tuple[int, int], ...]
    rows: list[dict[int, int]]
    rhs: list[int]
    required_sign: dict[tuple[int, int], int] = field(default_factory=dict)


def build_onbd_system(g: BackboneGraph) -> OnBdSystem:
    """Assemble the exact linear system; assumes structural checks passed.

    Each edge writes its column, at most four non-zeros, into the rows of
    its two end blocks.
    """
    edges = tuple(sorted(g.edges))
    by_block: list[dict[int, int]] = [{} for _ in range(2 * g.nblocks)]
    signs: dict[tuple[int, int], int] = {}
    for col, (i, j) in enumerate(edges):
        s_a, s_b = compatibility(g.blocks[i], g.blocks[j])
        signs[(i, j)] = t_sign_relation((s_a, s_b))
        for block, seen in ((i, (s_a, s_b)), (j, (-s_a, -s_b))):
            label = g.blocks[block]
            coef_a, coef_b = z_linear(seen, label)
            # An index that cannot vary imposes no coefficient condition.
            if label.twice_a and coef_a:
                by_block[2 * block][col] = coef_a
            if label.twice_b and coef_b:
                by_block[2 * block + 1][col] = coef_b
    top_down = sorted((-b.twice_a - b.twice_b, -b.twice_a, index) for index, b in enumerate(g.blocks))
    order = [index for *_, index in top_down]
    rows = [by_block[2 * b + axis] for b in order for axis in (0, 1)]
    rhs = [-1 if twice else 0 for b in order for twice in (g.blocks[b].twice_a, g.blocks[b].twice_b)]
    return OnBdSystem(edges=edges, rows=rows, rhs=rhs, required_sign=signs)


# ---------------------------------------------------------------------------
# Stage 4: decomposition
# ---------------------------------------------------------------------------


def _forest(g: BackboneGraph) -> tuple[list[tuple[int, ...]], list[tuple[int, int]]]:
    """(components, chords) from one union-find pass over the sorted edges.

    Components are listed by their first block, each with sorted indices;
    an edge that joins two blocks already connected is a chord.
    """
    parent = list(range(g.nblocks))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    chords = []
    for e in sorted(g.edges):
        ra, rb = find(e[0]), find(e[1])
        if ra == rb:
            chords.append(e)
        else:
            parent[ra] = rb
    members: dict[int, list[int]] = {}
    for i in range(g.nblocks):
        members.setdefault(find(i), []).append(i)
    return [tuple(m) for m in members.values()], chords


def _classify_component(g: BackboneGraph, indices: tuple[int, ...]) -> Component:
    nbrs = {i: g.neighbors(i) for i in indices}
    ends = [i for i in indices if len(nbrs[i]) == 1]
    if len(ends) != 2 or any(len(nbrs[i]) > 2 for i in indices):
        return Component(indices, None)
    # A connected component with two ends and no degree above two is a
    # path: walk it from one end, each step leaving by the other neighbour.
    order = [ends[0], nbrs[ends[0]][0]]
    while len(order) < len(indices):
        order.append(next(m for m in nbrs[order[-1]] if m != order[-2]))
    # On canonical labels, a path through every block with only compatible
    # steps is monotone, so its family is that of its labels.
    if any(compatibility(g.blocks[p], g.blocks[q]) is None for p, q in zip(order, order[1:])):
        return Component(tuple(order), None)
    spec = classify_canonical_chain([g.blocks[i] for i in order])
    return Component(tuple(order), None if spec is None else spec.family)


def decompose(g: BackboneGraph) -> list[Component]:
    """Connected components, each classified as a canonical chain when it is one.

    A component whose shape is a single path of compatible steps through
    canonical labels gets the family of those labels and its block count;
    anything else is labelled non-canonical.  The components partition
    the block indices.
    """
    return [_classify_component(g, comp) for comp in _forest(g)[0]]


# ---------------------------------------------------------------------------
# The full pipeline
# ---------------------------------------------------------------------------


# Gauge patterns `solve_and_verify` assembles and checks before it gives
# up with a search-budget witness: every sign of ten chords.  The cyclic
# so(5) backbones with blocks in Gelfand-Tsetlin order tried so far
# verify on their first pattern; block order matters, and the diamond
# listed as (1/2,0)-(1,1/2)-(1/2,1)-(0,1/2) fails all-plus and verifies
# on the second.
MAX_GAUGE_PATTERNS = 1 << 10


def _gauge_patterns(g: BackboneGraph) -> Iterator[dict[tuple[int, int], int]]:
    """Chord-sign assignments covering all inequivalent coupling gauges.

    On a forest every sign assignment is gauge-equivalent, so one pattern,
    the empty one, suffices; each independent cycle contributes a chord
    whose sign is physical and must be searched.  Tree edges are left out:
    `couplings_from_products` gives them sign +1.  Patterns are yielded one
    at a time, all-plus first, in `itertools.product` order over the chords.
    """
    chords = _forest(g)[1]
    for signs in itertools.product((1, -1), repeat=len(chords)):
        yield dict(zip(chords, signs))


def solve_and_verify(
    g: BackboneGraph,
    algebra: Algebra = Algebra.DE_SITTER,
    allow_noncanonical: bool = False,
) -> SolverOutcome:
    """Run the full validation pipeline on a proposed backbone.

    The default mode assembles only the fixed gauge, the first of the
    gauge patterns.  With ``allow_noncanonical`` the chain-classification
    requirement is waived and the chord-sign gauges are searched, up to
    `MAX_GAUGE_PATTERNS` of them, so the verdict becomes "does any
    Hermitian/anti-Hermitian representation exist with couplings exactly
    on these edges", canonical or not; a search that runs out of budget
    ends with a search-budget-exhausted witness instead.
    """
    components = decompose(g)

    def invalid(kind: WitnessKind, message: str, data: tuple = (), **found) -> SolverOutcome:
        return SolverOutcome(Verdict.INVALID, Witness(kind, message, data), components, **found)

    witness = structural_checks(g)
    if witness is not None:
        return SolverOutcome(Verdict.INVALID, witness, components)

    paths = unique_nonmonotonic_paths(g)
    if paths.total:
        i, k, j = paths.first[0]
        kept = paths.first
        more = f" ({paths.total} such paths, the first {len(kept)} kept)" if paths.total > len(kept) else ""
        return invalid(
            WitnessKind.NONMONOTONIC_PATH,
            f"blocks {i}-{k}-{j} ({g.blocks[i]}-{g.blocks[k]}-{g.blocks[j]}) form "
            f"the only path between their endpoints and change direction{more}",
            kept,
        )

    system = build_onbd_system(g)
    solution = solve_rational_linear(system.rows, system.rhs, len(system.edges))
    if solution.status == "inconsistent":
        return invalid(
            WitnessKind.LINEAR_INCONSISTENT,
            "the block-diagonal commutator identities admit no solution "
            "for the edge coupling products",
        )
    if solution.status == "underdetermined":
        return SolverOutcome(
            Verdict.UNDERDETERMINED, None, components, dof=solution.dof
        )

    x_values = dict(zip(system.edges, solution.solution))
    for e, x in x_values.items():
        required = system.required_sign[e]
        if x == 0:
            return invalid(
                WitnessKind.DEAD_EDGE,
                f"edge {e} is forced to zero coupling: the claimed connection "
                "cannot be realised",
                (e,),
                x_values=x_values,
            )
        if (x > 0) != (required > 0):
            return invalid(
                WitnessKind.SIGN_VIOLATION,
                f"edge {e} needs sign {required:+d} for its product "
                f"t_PQ t_QP but the system forces {x}",
                (e,),
                x_values=x_values,
            )

    patterns = _gauge_patterns(g)
    best_residual = math.nan
    for pattern in itertools.islice(patterns, MAX_GAUGE_PATTERNS if allow_noncanonical else 1):
        t_values = couplings_from_products(g, x_values, pattern)
        gens = assemble(g, t_values, algebra)
        crs = worst_residual(check_all_crs(gens).values())
        hermiticity = worst_residual(check_hermiticity(gens).values())
        # written so that NaN fails
        if not (crs < CR_TOLERANCE and hermiticity < HERMITICITY_TOLERANCE):
            residual = worst_residual((crs, hermiticity))
            if math.isnan(best_residual) or residual < best_residual:
                best_residual = residual
            continue
        noncanonical = [c for c in components if c.family is None]
        if noncanonical and not allow_noncanonical:
            return invalid(
                WitnessKind.NONCANONICAL_COMPONENT,
                "the assembled matrices verify, but component "
                f"{noncanonical[0].describe(g)} is not a canonical chain; only direct "
                "sums of canonical chains are certified valid",
                tuple(c.indices for c in noncanonical),
                x_values=x_values,
            )
        return SolverOutcome(
            Verdict.VALID,
            None,
            components,
            t_values=t_values,
            x_values=x_values,
            generators=gens,
        )

    # A pattern left untried means chords: the search ran out of budget, or
    # the default mode met cycles, whose chord signs it does not search.
    untried = next(patterns, None) is not None
    if untried and allow_noncanonical:
        return invalid(
            WitnessKind.SEARCH_BUDGET,
            f"the chord-sign search stopped after {MAX_GAUGE_PATTERNS} gauge patterns "
            f"(best residual {best_residual:.3e}) with patterns left untried; "
            "this does not show that no gauge works",
            (MAX_GAUGE_PATTERNS, best_residual),
            x_values=x_values,
        )
    hint = "; the structure contains cycles and the chord-sign search is off" if untried else ""
    return invalid(
        WitnessKind.CR_FAILURE,
        "the solved couplings do not satisfy the commutation relations "
        f"(best residual {best_residual:.3e}); off-diagonal cancellation "
        f"fails{hint}",
        x_values=x_values,
    )
