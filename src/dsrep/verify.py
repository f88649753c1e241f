"""Verification of assembled generator sets.

Checks the 27 commutation relations of the de Sitter / anti-de Sitter
algebra (one per cyclic component of each vector identity), the
Hermitian/anti-Hermitian pattern of the generators, and the two Casimir
operators, whose values on each irrep are reported both as matrices and
as the closed-form scalars they must equal.

Every check evaluates its formulas on the non-zeros the generator set
stores (`numeric.Sparse`), so a check costs O(nnz x row width) rather
than O(dim^3) and never scans a dense matrix; only the Casimir matrices
are returned dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .numeric import HalfInt, Sparse, commutator, dagger, max_abs
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
    "casimir1_matrix",
    "casimir2_matrix",
    "casimir_invariants_closed_form",
    "scalar_check",
    "VerificationReport",
    "build_report",
]

_CYCLIC = (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y"))

# Residual bounds: commutation relations (also the solver's bound for
# both checks), Hermiticity, and the distance from a multiple of the
# identity at which C1 and C2 count as scalar.
CR_TOLERANCE = 1e-10
HERMITICITY_TOLERANCE = 1e-11
C1_SCALAR_TOLERANCE = 1e-9
C2_SCALAR_TOLERANCE = 1e-8


def _component_maps(g):
    j = {"x": g.jx, "y": g.jy, "z": g.jz}
    k = {"x": g.kx, "y": g.ky, "z": g.kz}
    v = {"x": g.vx, "y": g.vy, "z": g.vz}
    return j, k, v


def check_all_crs(g: GeneratorSet) -> dict[str, float]:
    """Residuals of the 27 commutation relations, keyed by equation text.

    The sign of the displacement-displacement relations follows the
    algebra: [Vi, Vj] = +i eps Jk and [Vt, Vi] = +i Ki for de Sitter,
    both right-hand sides negated for anti-de Sitter.
    """
    j, k, v = _component_maps(g)
    s = 1.0 if g.algebra is Algebra.DE_SITTER else -1.0
    sign = "" if s > 0 else "-"
    out: dict[str, float] = {}
    for p, q, r in _CYCLIC:
        out[f"[J{p},J{q}] = i J{r}"] = max_abs(commutator(j[p], j[q]) - 1j * j[r])
        out[f"[K{p},K{q}] = -i J{r}"] = max_abs(commutator(k[p], k[q]) + 1j * j[r])
        out[f"[J{p},K{q}] = i K{r}"] = max_abs(commutator(j[p], k[q]) - 1j * k[r])
        out[f"[J{p},V{q}] = i V{r}"] = max_abs(commutator(j[p], v[q]) - 1j * v[r])
        out[f"[V{p},V{q}] = {sign}i J{r}"] = max_abs(
            commutator(v[p], v[q]) - s * 1j * j[r]
        )
    for p in ("x", "y", "z"):
        out[f"[K{p},V{p}] = -i Vt"] = max_abs(commutator(k[p], v[p]) + 1j * g.vt)
        out[f"[J{p},Vt] = 0"] = max_abs(commutator(j[p], g.vt))
        out[f"[K{p},Vt] = -i V{p}"] = max_abs(commutator(k[p], g.vt) + 1j * v[p])
        out[f"[Vt,V{p}] = {sign}i K{p}"] = max_abs(
            commutator(g.vt, v[p]) - s * 1j * k[p]
        )
    return out


def hermitian_signs(algebra: Algebra) -> dict[str, int]:
    """+1 for generators required Hermitian, -1 for anti-Hermitian."""
    signs = {"Jx": 1, "Jy": 1, "Jz": 1, "Kx": -1, "Ky": -1, "Kz": -1}
    if algebra is Algebra.DE_SITTER:
        signs.update({"Vx": 1, "Vy": 1, "Vz": 1, "Vt": -1})
    else:
        signs.update({"Vx": -1, "Vy": -1, "Vz": -1, "Vt": 1})
    return signs


def check_hermiticity(g: GeneratorSet) -> dict[str, float]:
    """max |dagger(X) -+ X| per generator, per the required H/AH pattern."""
    signs = hermitian_signs(g.algebra)
    out = {}
    for name, m in g.matrices().items():
        out[name] = max_abs(dagger(m) - signs[name] * m)
    return out


# ---------------------------------------------------------------------------
# Casimir operators
# ---------------------------------------------------------------------------


def casimir1_matrix(g: GeneratorSet) -> np.ndarray:
    """Quadratic Casimir C1 = Vt^2 + K.K - J.J - V.V."""
    sq = lambda m: m @ m
    return (
        sq(g.vt)
        + sq(g.kx) + sq(g.ky) + sq(g.kz)
        - sq(g.jx) - sq(g.jy) - sq(g.jz)
        - sq(g.vx) - sq(g.vy) - sq(g.vz)
    ).to_dense()


# `perfbench/spans.py` still patches this name; delete it with that entry
# at the next change to the benchmark.
casimir1_cartesian = casimir1_matrix


def _dot(a, b) -> Sparse:
    return a[0] @ b[0] + a[1] @ b[1] + a[2] @ b[2]


def casimir2_matrix(g: GeneratorSet) -> np.ndarray:
    """Quartic Casimir C2 = (K.J)^2 - (V.J)^2 + Q.Q, with Q_i = Vt Ji + (K x V)_i."""
    j = (g.jx, g.jy, g.jz)
    k = (g.kx, g.ky, g.kz)
    v = (g.vx, g.vy, g.vz)
    kj, vj = _dot(k, j), _dot(v, j)
    q = [
        g.vt @ j[p] + (k[a] @ v[b] - k[b] @ v[a])
        for p, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    ]
    return (kj @ kj - vj @ vj + _dot(q, q)).to_dense()


def casimir_invariants_closed_form(
    spec: CanonicalSpec,
) -> tuple[Fraction, Fraction, HalfInt, HalfInt]:
    """(-C1, -C2, p, q) for one canonical chain.

    -C1 = p(p+1) + (q+1)(q-2) and -C2 = p(p+1) q(q-1), with p = N, q = 0
    for type A and p = q = (N+1)/2 for type B.  (For type A, q = 1 gives
    the same two values.)
    """
    if spec.family is Family.TYPE_A:
        p, q = HalfInt(2 * spec.n), HalfInt(0)
    else:
        p = q = HalfInt(spec.n + 1)
    pf, qf = p.as_fraction, q.as_fraction
    neg_c1 = pf * (pf + 1) + (qf + 1) * (qf - 2)
    neg_c2 = pf * (pf + 1) * qf * (qf - 1)
    return neg_c1, neg_c2, p, q


def scalar_check(m: np.ndarray, tol: float) -> Optional[complex]:
    """trace(M)/dim when M is within tol of that multiple of the identity."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"scalar_check needs a square matrix, got {m.shape}")
    lam = complex(np.trace(m) / m.shape[0])
    if max_abs(m - lam * np.eye(m.shape[0])) < tol:
        return lam
    return None


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
    casimir1: np.ndarray
    casimir1_scalar: Optional[complex]
    casimir2_scalar: Optional[complex]
    p: Optional[HalfInt]
    q: Optional[HalfInt]
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
    def passed(self) -> bool:
        return not self.failing_crs and not self.failing_hermiticity


def build_report(g: GeneratorSet, cr_tolerance: float = CR_TOLERANCE) -> VerificationReport:
    """Full verification of a generator set."""
    c1 = casimir1_matrix(g)
    spec = classify_canonical_chain(g.backbone.blocks)
    p = q = None
    if spec is not None and not g.backbone.has_duplicates():
        _, _, p, q = casimir_invariants_closed_form(spec)
    return VerificationReport(
        algebra=g.algebra,
        cr_residuals=check_all_crs(g),
        hermiticity_residuals=check_hermiticity(g),
        casimir1=c1,
        casimir1_scalar=scalar_check(c1, C1_SCALAR_TOLERANCE),
        casimir2_scalar=scalar_check(casimir2_matrix(g), C2_SCALAR_TOLERANCE),
        p=p,
        q=q,
        duplicates_present=g.backbone.has_duplicates(),
        cr_tolerance=cr_tolerance,
        hermiticity_tolerance=HERMITICITY_TOLERANCE,
    )
