"""Verification of assembled generator sets.

Checks the 27 commutation relations of the de Sitter / anti-de Sitter
algebra (one per cyclic component of each vector identity), the
Hermitian/anti-Hermitian pattern of the generators, and the two Casimir
operators, whose values on each irrep are reported both as matrices and
as the closed-form scalars they must equal.

Every check takes the generators' non-zeros once (`numeric.Sparse`) and
evaluates its formulas on them, so a check costs O(nnz x row width)
rather than O(dim^3); only the Casimir matrices are returned dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace
from typing import Callable, Iterable, Optional

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
    "check_all_crs",
    "check_hermiticity",
    "casimir1_matrix",
    "casimir1_cartesian",
    "casimir2_matrix",
    "casimir2_interpretations",
    "DEFAULT_C2_INTERPRETATION",
    "select_casimir2_interpretation",
    "casimir_invariants_closed_form",
    "scalar_check",
    "VerificationReport",
    "build_report",
]

_CYCLIC = (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y"))


def _nonzeros(g: GeneratorSet) -> SimpleNamespace:
    """The ten generators as `Sparse` matrices, under GeneratorSet's attribute names."""
    return SimpleNamespace(
        **{name.lower(): Sparse.from_dense(m) for name, m in g.generators().items()}
    )


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
    nz = _nonzeros(g)
    j, k, v = _component_maps(nz)
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
        out[f"[K{p},V{p}] = -i Vt"] = max_abs(commutator(k[p], v[p]) + 1j * nz.vt)
        out[f"[J{p},Vt] = 0"] = max_abs(commutator(j[p], nz.vt))
        out[f"[K{p},Vt] = -i V{p}"] = max_abs(commutator(k[p], nz.vt) + 1j * v[p])
        out[f"[Vt,V{p}] = {sign}i K{p}"] = max_abs(
            commutator(nz.vt, v[p]) - s * 1j * k[p]
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
    for name, mat in g.generators().items():
        m = Sparse.from_dense(mat)
        out[name] = max_abs(dagger(m) - signs[name] * m)
    return out


# ---------------------------------------------------------------------------
# Casimir operators
# ---------------------------------------------------------------------------


def _ladders(g):
    jp = g.jx + 1j * g.jy
    jm = g.jx - 1j * g.jy
    kp = g.kx + 1j * g.ky
    km = g.kx - 1j * g.ky
    vp = (g.vx + 1j * g.vy) / 2
    vm = (g.vx - 1j * g.vy) / 2
    wp = (g.vz + g.vt) / 2
    wm = (g.vz - g.vt) / 2
    return jp, jm, kp, km, vp, vm, wp, wm


def casimir1_matrix(g: GeneratorSet) -> np.ndarray:
    """Quadratic Casimir via the ladder combinations.

    C1 = Kz^2 - Jz^2 + ((K+K- + K-K+) - (J+J- + J-J+))/2
         - 2 (V+V- + V-V+ + W+W- + W-W+)
    """
    g = _nonzeros(g)
    jp, jm, kp, km, vp, vm, wp, wm = _ladders(g)
    return (
        g.kz @ g.kz
        - g.jz @ g.jz
        + 0.5 * ((kp @ km + km @ kp) - (jp @ jm + jm @ jp))
        - 2.0 * ((vp @ vm + vm @ vp) + (wp @ wm + wm @ wp))
    ).to_dense()


def casimir1_cartesian(g: GeneratorSet) -> np.ndarray:
    """Quadratic Casimir directly from Cartesian components:
    C1 = Vt^2 + K.K - J.J - V.V."""
    g = _nonzeros(g)
    sq = lambda m: m @ m
    return (
        sq(g.vt)
        + sq(g.kx) + sq(g.ky) + sq(g.kz)
        - sq(g.jx) - sq(g.jy) - sq(g.jz)
        - sq(g.vx) - sq(g.vy) - sq(g.vz)
    ).to_dense()


def _dot(ax, ay, az, bx, by, bz) -> Sparse:
    return ax @ bx + ay @ by + az @ bz


def _aux_vector(g, k_left: bool) -> tuple[Sparse, Sparse, Sparse]:
    """Q_i = Vt Ji + (K x V)_i, or with the cross product taken V-first."""
    j = (g.jx, g.jy, g.jz)
    k = (g.kx, g.ky, g.kz)
    v = (g.vx, g.vy, g.vz)
    out = []
    for (p, q, r) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
        if k_left:
            cross = k[q] @ v[r] - k[r] @ v[q]
        else:
            cross = v[q] @ k[r] - v[r] @ k[q]
        out.append(g.vt @ j[p] + cross)
    return tuple(out)


def _c2_candidate(g: GeneratorSet, last_term: str, k_left: bool) -> Sparse:
    g = _nonzeros(g)
    kj = _dot(g.kx, g.ky, g.kz, g.jx, g.jy, g.jz)
    vj = _dot(g.vx, g.vy, g.vz, g.jx, g.jy, g.jz)
    qx, qy, qz = _aux_vector(g, k_left)
    base = kj @ kj - vj @ vj
    if last_term == "qq":
        return base + _dot(qx, qy, qz, qx, qy, qz)
    if last_term == "-qq":
        return base - _dot(qx, qy, qz, qx, qy, qz)
    if last_term == "qj":
        return base + _dot(qx, qy, qz, g.jx, g.jy, g.jz)
    if last_term == "jq":
        return base + _dot(g.jx, g.jy, g.jz, qx, qy, qz)
    if last_term == "jj":
        return base + _dot(g.jx, g.jy, g.jz, g.jx, g.jy, g.jz)
    raise ValueError(f"unknown last term {last_term!r}")


def casimir2_interpretations() -> dict[str, Callable[[GeneratorSet], np.ndarray]]:
    """Candidate readings of the quartic Casimir.

    All share the leading (K.J)^2 - (V.J)^2; they differ in the final term
    built from the auxiliary vector Q = Vt J + K x V (or its V-first
    ordering) and in its sign.
    """
    out: dict[str, Callable[[GeneratorSet], np.ndarray]] = {}
    for k_left, tag in ((True, "k_first"), (False, "v_first")):
        for last in ("qq", "-qq", "qj", "jq"):
            name = f"{last}_{tag}"
            out[name] = (
                lambda g, last=last, k_left=k_left:
                _c2_candidate(g, last, k_left).to_dense()
            )
    out["jj_literal"] = lambda g: _c2_candidate(g, "jj", True).to_dense()
    return out


# Frozen result of `select_casimir2_interpretation` over the ten canonical
# chains: the auxiliary-vector square with the boost to the left of the
# displacement in the cross product.
DEFAULT_C2_INTERPRETATION = "qq_k_first"


def casimir2_matrix(g: GeneratorSet, interpretation: Optional[str] = None) -> np.ndarray:
    """Quartic Casimir under the given (default: shipped) interpretation."""
    name = interpretation or DEFAULT_C2_INTERPRETATION
    table = casimir2_interpretations()
    if name not in table:
        raise ValueError(f"unknown interpretation {name!r}; have {sorted(table)}")
    return table[name](g)


def casimir_invariants_closed_form(
    spec: CanonicalSpec,
) -> tuple[Fraction, Fraction, HalfInt, HalfInt]:
    """(-C1, -C2, p, q) for one canonical chain.

    Type A: p = N, q = 0, -C1 = p(p+1) - 2, -C2 = 0.
    Type B: p = q = (N+1)/2, -C1 = 2(p^2-1), -C2 = p^2 (p^2-1).
    (For type A the reported q = 0 could equally be taken as q = 1; both
    annihilate -C2 = p(p+1) q(q-1).)
    """
    n = spec.n
    if spec.family is Family.TYPE_A:
        p = HalfInt(2 * n)
        q = HalfInt(0)
        pf = p.as_fraction
        return pf * (pf + 1) - 2, Fraction(0), p, q
    p = HalfInt(n + 1)
    q = p
    pf = p.as_fraction
    neg_c1 = 2 * (pf * pf - 1)
    neg_c2 = pf * pf * (pf * pf - 1)
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


def select_casimir2_interpretation(tol: float = 1e-8) -> Optional[str]:
    """Run the disambiguation over the ten canonical chains.

    Returns the unique candidate that is scalar on all ten de Sitter
    irreps with the closed-form value, or None when no (or more than one)
    candidate survives.
    """
    from .representation import assemble_canonical, first_ten_specs

    survivors = []
    candidates = casimir2_interpretations()
    reps = [(spec, assemble_canonical(spec)) for _, spec in first_ten_specs()]
    for name, builder in candidates.items():
        ok = True
        for spec, g in reps:
            neg_c2 = casimir_invariants_closed_form(spec)[1]
            lam = scalar_check(builder(g), tol)
            if lam is None or abs(lam - complex(-float(neg_c2))) > tol:
                ok = False
                break
        if ok:
            survivors.append(name)
    if len(survivors) == 1:
        return survivors[0]
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
    casimir1_agreement: float
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


def build_report(
    g: GeneratorSet,
    cr_tolerance: float = 1e-10,
    hermiticity_tolerance: float = 1e-11,
    scalar_tolerance: float = 1e-9,
    c2_interpretation: Optional[str] = None,
) -> VerificationReport:
    """Full verification of a generator set."""
    c1 = casimir1_matrix(g)
    c1_direct = casimir1_cartesian(g)
    spec = classify_canonical_chain(g.backbone.blocks)
    p = q = None
    if spec is not None and not g.backbone.has_duplicates():
        _, _, p, q = casimir_invariants_closed_form(spec)
    c2 = casimir2_matrix(g, c2_interpretation)
    return VerificationReport(
        algebra=g.algebra,
        cr_residuals=check_all_crs(g),
        hermiticity_residuals=check_hermiticity(g),
        casimir1=c1,
        casimir1_scalar=scalar_check(c1, scalar_tolerance),
        casimir1_agreement=max_abs(c1 - c1_direct),
        casimir2_scalar=scalar_check(c2, max(scalar_tolerance, 1e-8)),
        p=p,
        q=q,
        duplicates_present=g.backbone.has_duplicates(),
        cr_tolerance=cr_tolerance,
        hermiticity_tolerance=hermiticity_tolerance,
    )
