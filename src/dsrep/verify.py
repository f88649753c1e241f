"""Verification of assembled generator sets.

Checks the 27 commutation relations of the de Sitter / anti-de Sitter
algebra (one per cyclic component of each vector identity), the
Hermitian/anti-Hermitian pattern of the generators, Jz against the
diagonal the block labels fix, and the two Casimir operators, whose
values on each irrep are reported as scalars and, on a canonical chain,
must equal their closed forms.

Every check evaluates its formulas on the non-zeros the generator set
stores (`numeric.Sparse`), so a check costs O(nnz x mean row length)
rather than O(dim^3) and never forms a dense matrix: the Casimir
matrices are returned as `Sparse`, and `scalar_check` reads their
diagonal and off-diagonal entries directly.  The relations and the
Hermiticity pattern are read from term tables and summed by
`numeric.residual_norms`: each large relation takes a sort of its own,
and the small ones share sorts.

In the standard angular-momentum basis every generator is i^q times a
real matrix, with q fixed per generator and algebra (`quarter_turns`).
Where a set's generators all have their q (`numeric.Sparse.quarter_turn`;
a finite matrix of zeros has either), the relations and Hermiticity run
on the real parts in ``float64``, from tables built once at import with
each relation's coefficients divided by the phase its terms share; any
other set (a rotated basis, a hand-written document, a non-finite entry)
runs on the complex matrices.  The norms are the same either way, to
rounding.  The Casimirs stay complex: their scalars are printed, and a
float sum would move their last bits.

The generators of a backbone have only four or five key patterns (Jx,
Jy, Kx, Ky share one; Vx and Vy one; Vt and Vz one; Jz and Kz are
diagonal), and the numeric kernel uses it: on a large representation,
C1's ten squares are four or five expansions, the relations [Jx, Jy],
[Kx, Ky], [Jx, Ky], [Vx, Vy] and [Vt, Vz] sort half as many terms, and
relations with the same patterns, such as [Vy, Vz] and [Vz, Vx], reuse
one plan.  `build_report` runs its numerics with numpy's floating-point
warnings off: an overflow or inf - inf shows as an infinite or NaN
residual in the report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .blocks import jz_diagonal, twice_grid
from .numeric import Sparse, max_abs, product_sum, residual_norms
# `perfbench/spans.py` still patches `commutator` here; delete the import
# with that entry at the next change to the benchmark.
from .numeric import commutator  # noqa: F401
from .representation import (
    Algebra,
    CanonicalSpec,
    Family,
    GeneratorSet,
    classify_canonical_chain,
)

__all__ = [
    "CR_TOLERANCE",
    "check_all_crs",
    "check_hermiticity",
    "check_jz",
    "casimir1_matrix",
    "casimir2_matrix",
    "casimir_invariants_closed_form",
    "scalar_check",
    "VerificationReport",
    "build_report",
]

_CYCLIC = (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y"))

# Residual bounds: commutation relations and Hermiticity (each also the
# solver's bound for that check), Jz against its block labels, and the
# distance from a multiple of the identity at which C1 and C2 count as
# scalar (also, relative to max(1, |closed form|), the distance from
# their closed forms).
CR_TOLERANCE = 1e-10
HERMITICITY_TOLERANCE = 1e-11
JZ_TOLERANCE = 1e-11
C1_SCALAR_TOLERANCE = 1e-9
C2_SCALAR_TOLERANCE = 1e-8


def _v_sign(algebra: Algebra) -> float:
    """+1 for de Sitter, -1 for anti-de Sitter: the sign a product of two
    displacement generators picks up, since the anti-de Sitter V are i
    times the de Sitter ones."""
    return 1.0 if algebra is Algebra.DE_SITTER else -1.0


def _cr_table(algebra: Algebra) -> tuple:
    """(equation text, products, singles) of the 27 relations, in report
    order, by generator name: each residual is the sum of c * A @ B over
    its (c, A, B) products and of c * X over its (c, X, False) singles."""
    s = _v_sign(algebra)
    sign = "" if s > 0 else "-"
    table = []

    def relation(text, a, b, *terms):
        table.append((text, ((1.0, a, b), (-1.0, b, a)), tuple((c, x, False) for c, x in terms)))

    for p, q, r in _CYCLIC:
        relation(f"[J{p},J{q}] = i J{r}", f"J{p}", f"J{q}", (-1j, f"J{r}"))
        relation(f"[K{p},K{q}] = -i J{r}", f"K{p}", f"K{q}", (1j, f"J{r}"))
        relation(f"[J{p},K{q}] = i K{r}", f"J{p}", f"K{q}", (-1j, f"K{r}"))
        relation(f"[J{p},V{q}] = i V{r}", f"J{p}", f"V{q}", (-1j, f"V{r}"))
        relation(f"[V{p},V{q}] = {sign}i J{r}", f"V{p}", f"V{q}", (-s * 1j, f"J{r}"))
    for p in ("x", "y", "z"):
        relation(f"[K{p},V{p}] = -i Vt", f"K{p}", f"V{p}", (1j, "Vt"))
        relation(f"[J{p},Vt] = 0", f"J{p}", "Vt")
        relation(f"[K{p},Vt] = -i V{p}", f"K{p}", "Vt", (1j, f"V{p}"))
        relation(f"[Vt,V{p}] = {sign}i K{p}", "Vt", f"V{p}", (-s * 1j, f"K{p}"))
    return tuple(table)


def hermitian_signs(algebra: Algebra) -> dict[str, int]:
    """+1 for generators required Hermitian, -1 for anti-Hermitian, in
    report order; the V carry `_v_sign`, Vt its opposite."""
    s = int(_v_sign(algebra))
    return {"Jx": 1, "Jy": 1, "Jz": 1, "Kx": -1, "Ky": -1, "Kz": -1,
            "Vt": -s, "Vx": s, "Vy": s, "Vz": s}


def _hermiticity_table(algebra: Algebra) -> tuple:
    """(generator name, products, singles) of dagger(X) -+ X, per the
    required H/AH pattern, in the `_cr_table` form."""
    return tuple(
        (x, (), ((1.0, x, True), (-sign, x, False))) for x, sign in hermitian_signs(algebra).items()
    )


def quarter_turns(algebra: Algebra) -> dict[str, int]:
    """The q with which each generator of the standard basis is i^q times
    a real matrix: Jy, Kx, Kz and Vy are imaginary in de Sitter, and the
    anti-de Sitter V, i times the de Sitter ones, swap kinds."""
    turns = {"Jx": 0, "Jy": 1, "Jz": 0, "Kx": 1, "Ky": 0, "Kz": 1, "Vt": 0, "Vx": 0, "Vy": 1, "Vz": 0}
    if algebra is Algebra.ANTI_DE_SITTER:
        turns.update({v: 1 - turns[v] for v in ("Vt", "Vx", "Vy", "Vz")})
    return turns


def _real_table(table: tuple, turns: dict[str, int]) -> tuple:
    """The table for the real parts of generators with these quarter
    turns: each coefficient times its term's phase (i^q of a single,
    conj(i^q) of an adjoint one, i^(qa + qb) of a product), divided by the
    phase the relation's terms share, which leaves it real.  Residual
    norms are unchanged, since the relation is that phase times the real one."""
    out = []
    for name, products, singles in table:
        phased = [c * 1j ** (turns[a] + turns[b]) for c, a, b in products] + [
            c * (1j ** turns[x]).conjugate() if adjoint else c * 1j ** turns[x] for c, x, adjoint in singles
        ]
        real = [c / phased[0] for c in phased]
        assert all(c.imag == 0 for c in real), f"{name} has no one phase"
        real = [c.real for c in real]
        out.append((
            name,
            tuple((c, a, b) for c, (_, a, b) in zip(real, products)),
            tuple((c, x, adjoint) for c, (_, x, adjoint) in zip(real[len(products):], singles)),
        ))
    return tuple(out)


# algebra -> q of each generator, and (complex table, real table) of the
# relations and of Hermiticity
_TURNS = {algebra: quarter_turns(algebra) for algebra in Algebra}
_CR_TABLES, _HERMITICITY_TABLES = (
    {algebra: (make(algebra), _real_table(make(algebra), _TURNS[algebra])) for algebra in Algebra}
    for make in (_cr_table, _hermiticity_table)
)


def _real_parts(g: GeneratorSet) -> Optional[dict[str, Sparse]]:
    """Generator name -> its `Sparse.quarter_turn` real part, where every
    generator has its `quarter_turns` q (a matrix of zeros has either);
    otherwise None."""
    turns = _TURNS[g.algebra]
    parts = {}
    for name, m in g.matrices().items():
        turn = m.quarter_turn()
        if turn is None or turn[0] != turns[name] and turn[1].vals.any():
            return None
        parts[name] = turn[1]
    return parts


def _residuals(g: GeneratorSet, tables: tuple) -> dict[str, float]:
    """The residual norm of each relation of a (complex, real) table pair,
    by name: the real table on the real parts where `_real_parts` finds
    them, else the complex one on the generators."""
    real = _real_parts(g)
    table, m = (tables[1], real) if real else (tables[0], g.matrices())
    residuals = residual_norms(g.dim, [
        ([(c, m[a], m[b]) for c, a, b in products], [(c, m[x], adjoint) for c, x, adjoint in singles])
        for _, products, singles in table
    ])
    return dict(zip((name for name, *_ in table), residuals))


def check_all_crs(g: GeneratorSet) -> dict[str, float]:
    """Residuals of the 27 commutation relations, keyed by equation text.

    The sign of the displacement-displacement relations follows the
    algebra: [Vi, Vj] = +i eps Jk and [Vt, Vi] = +i Ki for de Sitter,
    both right-hand sides negated for anti-de Sitter.
    """
    return _residuals(g, _CR_TABLES[g.algebra])


def check_hermiticity(g: GeneratorSet) -> dict[str, float]:
    """max |dagger(X) -+ X| per generator, per the required H/AH pattern."""
    return _residuals(g, _HERMITICITY_TABLES[g.algebra])


def check_jz(g: GeneratorSet) -> float:
    """max |Jz - diag(a + b)|, with a + b of each block label at its offset.

    Jz is the one generator the block labels fix entry by entry.  The
    relations are homogeneous, so they cannot tell a representation from
    a rescaled or zeroed one; this check can.
    """
    _, _, a2, b2 = twice_grid(g.blocks)
    return max_abs(g.jz - jz_diagonal(a2, b2))


# ---------------------------------------------------------------------------
# Casimir operators
# ---------------------------------------------------------------------------


def casimir1_matrix(g: GeneratorSet) -> Sparse:
    """Quadratic Casimir C1 = s Vt^2 + K.K - J.J - s V.V, with s = `_v_sign`."""
    s = _v_sign(g.algebra)
    signed = (
        (s, g.vt), (1.0, g.kx), (1.0, g.ky), (1.0, g.kz), (-1.0, g.jx), (-1.0, g.jy),
        (-1.0, g.jz), (-s, g.vx), (-s, g.vy), (-s, g.vz),
    )
    return product_sum([(c, m, m) for c, m in signed])


# `perfbench/spans.py` still patches this name; delete it with that entry
# at the next change to the benchmark.
casimir1_cartesian = casimir1_matrix


def casimir2_matrix(g: GeneratorSet) -> Sparse:
    """Quartic Casimir C2 = (K.J)^2 - s (V.J)^2 + s Q.Q, with
    Q_i = Vt Ji + (K x V)_i and s = `_v_sign`."""
    s = _v_sign(g.algebra)
    j = (g.jx, g.jy, g.jz)
    k = (g.kx, g.ky, g.kz)
    v = (g.vx, g.vy, g.vz)
    kj = product_sum([(1.0, k[i], j[i]) for i in range(3)])
    vj = product_sum([(1.0, v[i], j[i]) for i in range(3)])
    q = [
        product_sum([(1.0, g.vt, j[p]), (1.0, k[a], v[b]), (-1.0, k[b], v[a])])
        for p, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    ]
    return product_sum([(1.0, kj, kj), (-s, vj, vj), *((s, qp, qp) for qp in q)])


def casimir_invariants_closed_form(
    spec: CanonicalSpec,
) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """(-C1, -C2, p, q) for one canonical chain.

    -C1 = p(p+1) + (q+1)(q-2) and -C2 = p(p+1) q(q-1), with p = N, q = 0
    for type A and p = q = (N+1)/2 for type B.  (For type A, q = 1 gives
    the same two values.)
    """
    if spec.family is Family.TYPE_A:
        p, q = Fraction(spec.n), Fraction(0)
    else:
        p = q = Fraction(spec.n + 1, 2)
    neg_c1 = p * (p + 1) + (q + 1) * (q - 2)
    neg_c2 = p * (p + 1) * q * (q - 1)
    return neg_c1, neg_c2, p, q


def scalar_check(m: Sparse, tol: float) -> Optional[complex]:
    """lam = (diagonal sum) / dim when M is within tol of lam times the identity.

    An absent diagonal entry counts as 0.  The distance is the larger of the
    worst diagonal deviation from lam and the largest off-diagonal entry,
    and a NaN distance is never within tol.
    """
    m = m.reduced()
    diagonal = np.zeros(m.n, dtype=complex)
    on_diagonal = m.keys % (m.n + 1) == 0
    diagonal[m.keys[on_diagonal] // (m.n + 1)] = m.vals[on_diagonal]
    lam = complex(diagonal.sum() / m.n)
    worst = worst_residual((max_abs(diagonal - lam), max_abs(m.vals[~on_diagonal])))
    if not worst < tol:
        return None
    return lam


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


def worst_residual(residuals: Iterable[float]) -> float:
    """The largest residual, or NaN if any is NaN (Python's max may drop it)."""
    values = list(residuals)
    if any(math.isnan(r) for r in values):
        return math.nan
    return max(values)


@dataclass
class VerificationReport:
    algebra: Algebra
    cr_residuals: dict[str, float]
    hermiticity_residuals: dict[str, float]
    jz_residual: float
    casimir1_scalar: Optional[complex]
    casimir2_scalar: Optional[complex]
    p: Optional[Fraction]
    q: Optional[Fraction]
    # (C1, C2) in closed form, reported with (p, q)
    casimir_closed_form: Optional[tuple[Fraction, Fraction]]
    duplicates_present: bool
    cr_tolerance: float
    hermiticity_tolerance: float

    @property
    def max_cr_residual(self) -> float:
        return worst_residual(self.cr_residuals.values())

    @property
    def max_hermiticity_residual(self) -> float:
        return worst_residual(self.hermiticity_residuals.values())

    @property
    def failing_crs(self) -> list[str]:
        # "not r < tol" rather than "r >= tol", so that NaN fails
        return [n for n, r in self.cr_residuals.items() if not r < self.cr_tolerance]

    @property
    def failing_hermiticity(self) -> list[str]:
        return [
            n for n, r in self.hermiticity_residuals.items()
            if not r < self.hermiticity_tolerance
        ]

    @property
    def failing_invariants(self) -> list[str]:
        """"Jz" when Jz is off the block labels' diagonal; "C1", "C2" when
        (p, q) is reported and that Casimir is not its closed form."""
        out = [] if self.jz_residual < JZ_TOLERANCE else ["Jz"]
        if self.casimir_closed_form is None:
            return out
        for name, scalar, closed, tol in (
            ("C1", self.casimir1_scalar, float(self.casimir_closed_form[0]), C1_SCALAR_TOLERANCE),
            ("C2", self.casimir2_scalar, float(self.casimir_closed_form[1]), C2_SCALAR_TOLERANCE),
        ):
            if scalar is None or not abs(scalar - closed) <= tol * max(1.0, abs(closed)):
                out.append(name)
        return out

    @property
    def passed(self) -> bool:
        return not (self.failing_crs or self.failing_hermiticity or self.failing_invariants)


def build_report(g: GeneratorSet, cr_tolerance: float = CR_TOLERANCE) -> VerificationReport:
    """Full verification of a generator set.

    Entries that overflow, or meet inf - inf, make infinite or NaN
    residuals and scalars, which fail their checks; numpy's floating-point
    warnings are silenced, so the report alone says so.
    """
    with np.errstate(all="ignore"):
        casimir1_scalar = scalar_check(casimir1_matrix(g), C1_SCALAR_TOLERANCE)
        # A canonical chain lists each label once, so it has no duplicates.
        spec = classify_canonical_chain(g.blocks)
        p = q = closed_form = None
        if spec is not None:
            neg_c1, neg_c2, p, q = casimir_invariants_closed_form(spec)
            closed_form = (-neg_c1, -neg_c2)
        return VerificationReport(
            algebra=g.algebra,
            cr_residuals=check_all_crs(g),
            hermiticity_residuals=check_hermiticity(g),
            jz_residual=check_jz(g),
            casimir1_scalar=casimir1_scalar,
            casimir2_scalar=scalar_check(casimir2_matrix(g), C2_SCALAR_TOLERANCE),
            p=p,
            q=q,
            casimir_closed_form=closed_form,
            duplicates_present=len(set(g.blocks)) < len(g.blocks),
            cr_tolerance=cr_tolerance,
            hermiticity_tolerance=HERMITICITY_TOLERANCE,
        )
