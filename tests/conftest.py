"""Shared test helpers: independent oracles.

- `coupling_null_space_dim`: a linear-constraint oracle for couplings.
- `dense_*`: the commutation relations, Hermiticity pattern and Casimir
  formulas evaluated with dense dim x dim products, the reference for
  `dsrep.verify`, which evaluates the same formulas on the non-zeros.
  `dense_casimir1` is the ladder form of C1, a second derivation of the
  Cartesian form that `dsrep.verify` ships.  The Casimir oracles take
  anti-de Sitter generators back to de Sitter ones (V -> -i V) and
  evaluate the de Sitter polynomials, where `dsrep.verify` evaluates
  sign-adjusted polynomials on the anti-de Sitter matrices themselves.
  `dense_scalar_check` is the distance from a multiple of the identity
  on a dense matrix, the reference for `dsrep.verify.scalar_check`.
- `casimir2_interpretations` and `select_casimir2_interpretation`: the
  candidate readings of the quartic Casimir and the disambiguation over
  the ten canonical chains that picks the one `dsrep.verify` ships.
- `half_int_range`, `spin_indices`, `ladder_r`, `ladder_s`,
  `su2_generators`, `block_grid` and `flat_index`: one spin irrep's
  indices, ladder coefficients and matrices, and one block's grid, one
  index at a time; `dagger` and `sparse_from_dense`: the conjugate
  transpose and the non-zeros of a matrix.
- `loop_hla_generators` and `loop_directed_rectangles`: the block
  ladders and coupling rectangles built entry by entry in exact
  Fraction arithmetic, the reference for the array kernels in
  `dsrep.blocks` and `dsrep.coupling`; `loop_hla_cartesian` combines
  the ladders into the Cartesian J and K.
- `dense_assemble`: the ten generators assembled into zero-filled dense
  dim x dim arrays from those loop oracles, the byte-exact reference for
  the non-zeros `dsrep.representation.assemble` stores.
  `dense_generator_set` makes a `GeneratorSet` of them, for couplings that
  break the Hermiticity sign rule `assemble` enforces.
- `Rectangles` and `dense_rectangles`: the eight coupling rectangles of
  one compatible pair, dense, from `dsrep.coupling.u_blocks`.
- `canonical_couplings`: the couplings `assemble_canonical` builds a
  chain from, one per ordered block pair; a `GeneratorSet` keeps only
  the matrices.
- `swapped`, `reversed_backbone` and `block_offsets`: a label with A and
  B exchanged, a backbone with its blocks in reverse order, and the
  offsets of a generator set's blocks.
- `case_id`: a pair case `(S_A, S_B)` spelled "++", "+-", "-+" or "--",
  for test ids.
- `listed_doc`: `generators_to_doc` with each column made a list, the
  plain JSON values whose `json.dumps` text is what `write_json` must
  write, and the in-memory list input of the loader.  `backbone_to_doc`:
  the backbone document of a backbone, the input of `validate`.
- `fraction_solve`: Gauss-Jordan elimination over Fractions on dense
  rows, the reference for the integer solver `dsrep.numeric` ships;
  `sparse_rows` and `dense_rows` turn dense rows into the {column:
  coefficient} rows that solver takes, and back.
- `permutation_paths`: the fatal three-block paths found by visiting
  every ordered block pair, the reference for the label-class count of
  `dsrep.solver.unique_nonmonotonic_paths`; `dense_onbd_rows`: the
  solver's exact system written as dense rows, two per block in block
  order, the reference for the sparse rows of `build_onbd_system`.
- `argsort_reduced`: the entries of a `Sparse` reduced by one argsort and
  `np.add.reduceat` on every call, the reference for `Sparse.reduced()`,
  which skips the sums where no key repeats.
- `gelfand_tsetlin_backbone`, `gelfand_tsetlin_outcome` and
  `gelfand_tsetlin_generators`: cyclic so(5) backbones, and the valid
  outcome and the generators the solver finds for them.
- `benchmark_spans` and `benchmark_boundaries`: `perfbench/spans.py`,
  and the (name, home, callers, count) spans it patches into dsrep.
"""

import functools
import itertools
from fractions import Fraction
from pathlib import Path
from types import ModuleType, SimpleNamespace
from typing import NamedTuple

import numpy as np

from dsrep.blocks import BlockLabel, hla_cartesian
from dsrep.coupling import compatibility, u_blocks, z_linear
from dsrep.io import generators_to_doc
from dsrep.numeric import RationalSolution, Sparse
from dsrep.representation import (
    Algebra,
    BackboneGraph,
    CanonicalSpec,
    GeneratorSet,
    assemble_canonical,
    canonical_backbone,
    canonical_t_squared,
    couplings_from_products,
    first_ten_specs,
)
from dsrep.solver import Verdict, solve_and_verify
from dsrep.verify import casimir_invariants_closed_form


def coupling_null_space_dim(p: BlockLabel, q: BlockLabel, tol: float = 1e-8) -> int:
    """Dimension of the space of (Vt, Vx, Vy, Vz) rectangles between blocks
    P and Q allowed by the rotation/boost commutation relations alone.

    Independent of the production coupling tables: sets up the homogeneous
    linear system for the four off-diagonal rectangles directly from
    [Ji, Vj] = i eps Vk, [Ji, Vt] = 0, [Ki, Vj] = -i Vt delta_ij,
    [Ki, Vt] = -i Vi, and counts its null space by SVD.
    """
    jp = [m.to_dense() for m in hla_cartesian((p,))]
    jq = [m.to_dense() for m in hla_cartesian((q,))]
    m, n = p.dim, q.dim
    size = m * n
    eye_m = np.eye(m)
    eye_n = np.eye(n)

    def left_mult(x):
        return np.kron(x, eye_n)

    def right_mult(x):
        return np.kron(eye_m, x.T)

    # unknown order: vec(Vt), vec(Vx), vec(Vy), vec(Vz), row-major vecs
    names = ["t", "x", "y", "z"]
    pos = {name: i for i, name in enumerate(names)}
    eps = {}
    for i, a in enumerate("xyz"):
        for j, b in enumerate("xyz"):
            for k, c in enumerate("xyz"):
                sign = (i - j) * (j - k) * (k - i) / 2
                if sign:
                    eps[(a, b, c)] = sign

    j_of = {"x": 0, "y": 1, "z": 2}
    rows = []

    def adjoint(axis, generator_offset):
        """Matrix of V -> [X_axis, V] on one rectangle, X in {J, K}."""
        xp = jp[generator_offset + j_of[axis]]
        xq = jq[generator_offset + j_of[axis]]
        return left_mult(xp) - right_mult(xq)

    zero = np.zeros((size, size), dtype=complex)

    def relation(blocks):
        row = [zero, zero, zero, zero]
        for name, coeff_matrix in blocks.items():
            row[pos[name]] = row[pos[name]] + coeff_matrix
        rows.append(np.hstack(row))

    for i in "xyz":
        # [Ji, Vj] = i eps_ijk Vk
        for j in "xyz":
            blocks = {j: adjoint(i, 0)}
            for k in "xyz":
                if (i, j, k) in eps:
                    blocks[k] = blocks.get(k, zero) - 1j * eps[(i, j, k)] * np.eye(size)
            relation(blocks)
        # [Ji, Vt] = 0
        relation({"t": adjoint(i, 0)})
        # [Ki, Vj] = -i Vt delta_ij
        for j in "xyz":
            blocks = {j: adjoint(i, 3)}
            if i == j:
                blocks["t"] = blocks.get("t", zero) + 1j * np.eye(size)
            relation(blocks)
        # [Ki, Vt] = -i Vi
        relation({"t": adjoint(i, 3), i: 1j * np.eye(size)})

    system = np.vstack(rows)
    singular = np.linalg.svd(system, compute_uv=False)
    scale = singular[0] if singular.size and singular[0] > 0 else 1.0
    rank = int(np.sum(singular > tol * scale))
    return 4 * size - rank


# ---------------------------------------------------------------------------
# Dense verification oracle
# ---------------------------------------------------------------------------

_CYCLIC = (("x", "y", "z"), ("y", "z", "x"), ("z", "x", "y"))


def _dense_max_abs(m) -> float:
    return float(np.max(np.abs(m))) if m.size else 0.0


def _dense_commutator(x, y):
    return x @ y - y @ x


def dense_view(g) -> SimpleNamespace:
    """The generator set's algebra and its ten matrices as dense arrays,
    under GeneratorSet's attribute names."""
    return SimpleNamespace(
        algebra=g.algebra, **{name.lower(): m for name, m in g.generators().items()}
    )


def de_sitter_view(g) -> SimpleNamespace:
    """`dense_view`, with anti-de Sitter displacement generators mapped back
    to de Sitter ones by V -> -i V (the algebra is left as it was)."""
    view = dense_view(g)
    if g.algebra is Algebra.ANTI_DE_SITTER:
        for name in ("vt", "vx", "vy", "vz"):
            setattr(view, name, -1j * getattr(view, name))
    return view


def dense_crs(g) -> dict[str, float]:
    """The 27 relation residuals from dense products, keyed as check_all_crs keys them."""
    g = dense_view(g)
    j = {"x": g.jx, "y": g.jy, "z": g.jz}
    k = {"x": g.kx, "y": g.ky, "z": g.kz}
    v = {"x": g.vx, "y": g.vy, "z": g.vz}
    s = 1.0 if g.algebra is Algebra.DE_SITTER else -1.0
    sign = "" if s > 0 else "-"
    c, m = _dense_commutator, _dense_max_abs
    out = {}
    for p, q, r in _CYCLIC:
        out[f"[J{p},J{q}] = i J{r}"] = m(c(j[p], j[q]) - 1j * j[r])
        out[f"[K{p},K{q}] = -i J{r}"] = m(c(k[p], k[q]) + 1j * j[r])
        out[f"[J{p},K{q}] = i K{r}"] = m(c(j[p], k[q]) - 1j * k[r])
        out[f"[J{p},V{q}] = i V{r}"] = m(c(j[p], v[q]) - 1j * v[r])
        out[f"[V{p},V{q}] = {sign}i J{r}"] = m(c(v[p], v[q]) - s * 1j * j[r])
    for p in ("x", "y", "z"):
        out[f"[K{p},V{p}] = -i Vt"] = m(c(k[p], v[p]) + 1j * g.vt)
        out[f"[J{p},Vt] = 0"] = m(c(j[p], g.vt))
        out[f"[K{p},Vt] = -i V{p}"] = m(c(k[p], g.vt) + 1j * v[p])
        out[f"[Vt,V{p}] = {sign}i K{p}"] = m(c(g.vt, v[p]) - s * 1j * k[p])
    return out


def dense_hermiticity(g) -> dict[str, float]:
    """max |X^dagger -+ X| per generator, from dense matrices."""
    signs = {"Jx": 1, "Jy": 1, "Jz": 1, "Kx": -1, "Ky": -1, "Kz": -1}
    v_sign = 1 if g.algebra is Algebra.DE_SITTER else -1
    signs.update({"Vx": v_sign, "Vy": v_sign, "Vz": v_sign, "Vt": -v_sign})
    return {
        name: _dense_max_abs(mat.conj().T - signs[name] * mat)
        for name, mat in g.generators().items()
    }


def dense_casimir1(g) -> np.ndarray:
    """C1 = Kz^2 - Jz^2 + ((K+K- + K-K+) - (J+J- + J-J+))/2 - 2 (V+V- + V-V+ + W+W- + W-W+),
    on the de Sitter form of the generators."""
    g = de_sitter_view(g)
    jp, jm = g.jx + 1j * g.jy, g.jx - 1j * g.jy
    kp, km = g.kx + 1j * g.ky, g.kx - 1j * g.ky
    vp, vm = (g.vx + 1j * g.vy) / 2, (g.vx - 1j * g.vy) / 2
    wp, wm = (g.vz + g.vt) / 2, (g.vz - g.vt) / 2
    return (
        g.kz @ g.kz
        - g.jz @ g.jz
        + 0.5 * ((kp @ km + km @ kp) - (jp @ jm + jm @ jp))
        - 2.0 * ((vp @ vm + vm @ vp) + (wp @ wm + wm @ wp))
    )


def dense_casimir1_cartesian(g) -> np.ndarray:
    """C1 = Vt^2 + K.K - J.J - V.V, on the de Sitter form of the generators."""
    g = de_sitter_view(g)
    return (
        g.vt @ g.vt
        + g.kx @ g.kx + g.ky @ g.ky + g.kz @ g.kz
        - g.jx @ g.jx - g.jy @ g.jy - g.jz @ g.jz
        - g.vx @ g.vx - g.vy @ g.vy - g.vz @ g.vz
    )


def _dense_dot(a, b):
    return sum(x @ y for x, y in zip(a, b))


def _dense_c2_candidate(g, last_term: str, k_left: bool) -> np.ndarray:
    """(K.J)^2 - (V.J)^2 plus a last term built from J and the auxiliary
    vector Q_i = Vt Ji + (K x V)_i, or with the cross product taken V-first,
    on the de Sitter form of the generators."""
    g = de_sitter_view(g)
    j = (g.jx, g.jy, g.jz)
    k = (g.kx, g.ky, g.kz)
    v = (g.vx, g.vy, g.vz)
    kj, vj = _dense_dot(k, j), _dense_dot(v, j)
    q = [
        g.vt @ j[p] + (k[a] @ v[b] - k[b] @ v[a] if k_left else v[a] @ k[b] - v[b] @ k[a])
        for p, a, b in ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    ]
    last = {
        "qq": lambda: _dense_dot(q, q),
        "-qq": lambda: -_dense_dot(q, q),
        "qj": lambda: _dense_dot(q, j),
        "jq": lambda: _dense_dot(j, q),
        "jj": lambda: _dense_dot(j, j),
    }[last_term]
    return kj @ kj - vj @ vj + last()


def casimir2_interpretations():
    """The nine candidate readings of the quartic Casimir, by name.

    All share the leading (K.J)^2 - (V.J)^2; they differ in the final term
    built from Q (or its V-first ordering) and in its sign.
    """
    out = {}
    for k_left, tag in ((True, "k_first"), (False, "v_first")):
        for last in ("qq", "-qq", "qj", "jq"):
            out[f"{last}_{tag}"] = (
                lambda g, last=last, k_left=k_left: _dense_c2_candidate(g, last, k_left)
            )
    out["jj_literal"] = lambda g: _dense_c2_candidate(g, "jj", True)
    return out


# The reading `dsrep.verify.casimir2_matrix` evaluates: the auxiliary-vector
# square with the boost to the left of the displacement in the cross product.
DEFAULT_C2_INTERPRETATION = "qq_k_first"


def select_casimir2_interpretation(tol: float = 1e-8):
    """The unique candidate that is scalar with the closed-form value on all
    ten canonical de Sitter irreps, or None when none or several survive."""
    reps = [(spec, assemble_canonical(spec)) for _, spec in first_ten_specs()]
    survivors = []
    for name, candidate in casimir2_interpretations().items():
        for spec, g in reps:
            neg_c2 = casimir_invariants_closed_form(spec)[1]
            lam = dense_scalar_check(candidate(g), tol)
            if lam is None or abs(lam - complex(-float(neg_c2))) > tol:
                break
        else:
            survivors.append(name)
    return survivors[0] if len(survivors) == 1 else None


def dense_scalar_check(m: np.ndarray, tol: float):
    """trace(M)/dim when M is within tol of that multiple of the identity."""
    m = np.asarray(m)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"scalar_check needs a square matrix, got {m.shape}")
    lam = complex(np.trace(m) / m.shape[0])
    if _dense_max_abs(m - lam * np.eye(m.shape[0])) < tol:
        return lam
    return None


def dense_casimir2(g) -> np.ndarray:
    """The shipped quartic Casimir: (K.J)^2 - (V.J)^2 + Q.Q, Q_i = Vt Ji + (K x V)_i."""
    return _dense_c2_candidate(g, "qq", k_left=True)


# ---------------------------------------------------------------------------
# Spin irreps, block grids and matrix helpers
# ---------------------------------------------------------------------------


def half_int_range(low: Fraction, high: Fraction) -> list[Fraction]:
    """Inclusive list low, low+1, ..., high (unit steps; empty if high < low)."""
    if (high - low).denominator != 1:
        raise ValueError(f"{low} and {high} do not differ by an integer")
    return [low + k for k in range(int(high - low) + 1)]


def _check_index(a_max: Fraction, a: Fraction) -> None:
    if a_max < 0:
        raise ValueError(f"spin must be non-negative, got {a_max}")
    if (a - a_max).denominator != 1:
        raise ValueError(f"index {a} has wrong parity for spin {a_max}")
    if abs(a) > a_max:
        raise ValueError(f"index {a} outside [-{a_max}, {a_max}]")


def spin_indices(a_max: Fraction) -> list[Fraction]:
    """Magnetic indices of the spin-A irrep in the fixed descending order A, ..., -A."""
    if a_max < 0:
        raise ValueError(f"spin must be non-negative, got {a_max}")
    return half_int_range(-a_max, a_max)[::-1]


def ladder_r(a_max: Fraction, a: Fraction) -> float:
    """Raising coefficient sqrt((A - a)(A + a + 1)); zero at a = A."""
    _check_index(a_max, a)
    radicand = (a_max - a) * (a_max + a + 1)
    return float(np.sqrt(float(radicand)))


def ladder_s(a_max: Fraction, a: Fraction) -> float:
    """Lowering coefficient sqrt((A + a)(A - a + 1)); zero at a = -A."""
    _check_index(a_max, a)
    radicand = (a_max + a) * (a_max - a + 1)
    return float(np.sqrt(float(radicand)))


def su2_generators(a_max: Fraction) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense (A+, A-, Az) of the spin-A irrep under the descending order.

    A+ has entries r(a2) at rows a1 = a2 + 1, A- has s(a2) at a1 = a2 - 1,
    and Az is diagonal with the index itself.  For A = 0 all three are the
    1x1 zero matrix.
    """
    indices = spin_indices(a_max)
    n = len(indices)
    pos = {a: i for i, a in enumerate(indices)}
    plus, minus, z = (np.zeros((n, n), dtype=complex) for _ in range(3))
    for col, a2 in enumerate(indices):
        z[col, col] = float(a2)
        if a2 + 1 in pos:
            plus[pos[a2 + 1], col] = ladder_r(a_max, a2)
        if a2 - 1 in pos:
            minus[pos[a2 - 1], col] = ladder_s(a_max, a2)
    return plus, minus, z


def block_grid(block: BlockLabel) -> list[tuple[Fraction, Fraction]]:
    """All (a, b) pairs of a block in flat order: a-major, both descending."""
    return [(a, b) for a in spin_indices(block.a) for b in spin_indices(block.b)]


def flat_index(block: BlockLabel, a: Fraction, b: Fraction) -> int:
    """Position of (a, b) in the block's flat order."""
    return int((block.a - a) * (block.twice_b + 1) + block.b - b)


def dagger(x):
    """Conjugate transpose of a `Sparse` or of a dense array."""
    if isinstance(x, Sparse):
        row, col = np.divmod(x.keys, x.n)
        return Sparse(x.n, col * x.n + row, x.vals.conj())
    return np.asarray(x).conj().T


def sparse_from_dense(m) -> Sparse:
    """The non-zeros of a square matrix, reduced."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"Sparse needs a square matrix, got shape {m.shape}")
    keys = np.flatnonzero(m != 0)
    return Sparse(m.shape[0], keys, m.ravel()[keys], reduced=True)


# ---------------------------------------------------------------------------
# Entry-by-entry construction oracle
# ---------------------------------------------------------------------------


def stored_bytes(m: np.ndarray) -> bytes:
    """The bytes of a dense matrix with each exact zero (of either sign)
    written as +0: what a `Sparse` of its non-zeros gives back densely."""
    return np.where(m != 0, m, 0).astype(complex).tobytes()


def case_id(case: tuple[int, int]) -> str:
    """The pair case (S_A, S_B) spelled "++", "+-", "-+" or "--"."""
    return "".join("+" if s > 0 else "-" for s in case)


def loop_hla_generators(block: BlockLabel):
    """(J+, J-, Jz, K+, K-, Kz) of one block, one grid position at a time."""
    grid = block_grid(block)
    n = len(grid)
    pos = {ab: i for i, ab in enumerate(grid)}
    jplus, jminus, jz, kplus, kminus, kz = (np.zeros((n, n), dtype=complex) for _ in range(6))

    for col, (a2, b2) in enumerate(grid):
        jz[col, col] = float(a2) + float(b2)
        kz[col, col] = -1j * (float(a2) - float(b2))

        up_a = (a2 + 1, b2)
        if up_a in pos:
            coeff = ladder_r(block.a, a2)
            jplus[pos[up_a], col] += coeff
            kplus[pos[up_a], col] += -1j * coeff
        up_b = (a2, b2 + 1)
        if up_b in pos:
            coeff = ladder_r(block.b, b2)
            jplus[pos[up_b], col] += coeff
            kplus[pos[up_b], col] += 1j * coeff

        down_a = (a2 - 1, b2)
        if down_a in pos:
            coeff = ladder_s(block.a, a2)
            jminus[pos[down_a], col] += coeff
            kminus[pos[down_a], col] += -1j * coeff
        down_b = (a2, b2 - 1)
        if down_b in pos:
            coeff = ladder_s(block.b, b2)
            jminus[pos[down_b], col] += coeff
            kminus[pos[down_b], col] += 1j * coeff

    return jplus, jminus, jz, kplus, kminus, kz


def loop_hla_cartesian(block: BlockLabel):
    """(Jx, Jy, Jz, Kx, Ky, Kz) of one block: the loop ladders combined by the
    formulas of `blocks.hla_cartesian`, applied to whole dense arrays."""
    jplus, jminus, jz, kplus, kminus, kz = loop_hla_generators(block)
    return (
        (jplus + jminus) / 2, -0.5j * (jplus - jminus), jz,
        (kplus + kminus) / 2, -0.5j * (kplus - kminus), kz,
    )


def loop_directed_rectangles(p: BlockLabel, q: BlockLabel):
    """(uplus, uminus, wplus, wminus) with P rows and Q columns, one column at
    a time, each radicand an exact Fraction."""
    s_a, s_b = compatibility(p, q)
    s_minus = -s_a * s_b
    a12, b12 = max(p.a, q.a), max(p.b, q.b)
    a_from_p, b_from_p = p.a > q.a, p.b > q.b

    rows = block_grid(p)
    cols = block_grid(q)
    row_pos = {ab: i for i, ab in enumerate(rows)}
    shape = (len(rows), len(cols))
    uplus, uminus, wplus, wminus = (np.zeros(shape, dtype=complex) for _ in range(4))

    def value(sign_a, sign_b, a1, a2, b1, b2) -> float:
        a_idx = a1 if a_from_p else a2
        b_idx = b1 if b_from_p else b2
        radicand = (a12 + sign_a * s_a * a_idx) * (b12 + sign_b * s_b * b_idx)
        if radicand < 0:
            raise ArithmeticError("negative radicand in coupling rectangle")
        return float(np.sqrt(float(radicand)))

    half = Fraction(1, 2)
    for col, (a2, b2) in enumerate(cols):
        a1, b1 = target = (a2 + half, b2 + half)
        if target in row_pos:
            uplus[row_pos[target], col] = value(+1, +1, a1, a2, b1, b2)
        a1, b1 = target = (a2 - half, b2 - half)
        if target in row_pos:
            uminus[row_pos[target], col] = s_minus * value(-1, -1, a1, a2, b1, b2)
        a1, b1 = target = (a2 + half, b2 - half)
        if target in row_pos:
            wplus[row_pos[target], col] = -s_b * value(+1, -1, a1, a2, b1, b2)
        a1, b1 = target = (a2 - half, b2 + half)
        if target in row_pos:
            wminus[row_pos[target], col] = -s_a * value(-1, +1, a1, a2, b1, b2)

    return uplus, uminus, wplus, wminus


def dense_assemble(backbone: BackboneGraph, t, algebra: Algebra) -> dict[str, np.ndarray]:
    """Generator name -> dense matrix, for couplings t given per ordered pair.

    Each block's Cartesian J and K and each edge's t-scaled ladder
    rectangles are written into zero-filled dim x dim arrays, and the
    Cartesian V are formed from the dense ladders, with the formulas of
    `blocks.hla_cartesian` and `coupling.cartesian_from_ladders` applied
    to whole arrays, zero entries included.
    """
    offsets = np.concatenate(([0], np.cumsum([b.dim for b in backbone.blocks])))
    dim = int(offsets[-1])
    names = ("Jx", "Jy", "Jz", "Kx", "Ky", "Kz")
    out = {name: np.zeros((dim, dim), dtype=complex) for name in names}
    for i, label in enumerate(backbone.blocks):
        sl = slice(offsets[i], offsets[i + 1])
        for name, block in zip(names, loop_hla_cartesian(label)):
            out[name][sl, sl] = block

    vplus, vminus, wplus, wminus = (np.zeros((dim, dim), dtype=complex) for _ in range(4))
    for i, j in sorted(backbone.edges):
        p, q = backbone.blocks[i], backbone.blocks[j]
        sp, sq = slice(offsets[i], offsets[i + 1]), slice(offsets[j], offsets[j + 1])
        for rows, cols, scale, rects in (
            (sp, sq, t[(i, j)], loop_directed_rectangles(p, q)),
            (sq, sp, t[(j, i)], loop_directed_rectangles(q, p)),
        ):
            for ladder, rect in zip((vplus, vminus, wplus, wminus), rects):
                ladder[rows, cols] = scale * rect

    v = {"Vt": wplus - wminus, "Vx": vplus + vminus, "Vy": -1j * (vplus - vminus),
         "Vz": wplus + wminus}
    if algebra is Algebra.ANTI_DE_SITTER:
        v = {name: 1j * m for name, m in v.items()}
    return {**out, **v}


def dense_generator_set(
    backbone: BackboneGraph, t, algebra: Algebra = Algebra.DE_SITTER
) -> GeneratorSet:
    """`dense_assemble` as a `GeneratorSet`, for couplings t per ordered pair
    that need not obey the Hermiticity sign rule."""
    dense = dense_assemble(backbone, t, algebra)
    return GeneratorSet(
        backbone.blocks, algebra,
        **{name.lower(): sparse_from_dense(m) for name, m in dense.items()},
    )


class Rectangles(NamedTuple):
    """The eight coupling rectangles of a compatible pair (P, Q).

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


def dense_rectangles(p: BlockLabel, q: BlockLabel) -> Rectangles:
    """The rectangles of `u_blocks` on the two blocks at scale 1, once in
    each direction, dense.

    Each stored entry is written as it is (`Sparse.to_dense` reduces, which
    would turn a -0.0 entry into +0.0).  Raises ValueError for an
    incompatible pair.
    """

    def directed(rows: BlockLabel, cols: BlockLabel) -> list[np.ndarray]:
        out = []
        for m in u_blocks((rows, cols), ((0, 1),), (1.0,)):
            row, col = np.divmod(m.keys, m.n)
            dense = np.zeros((rows.dim, cols.dim), dtype=complex)
            dense[row, col - rows.dim] = m.vals
            out.append(dense)
        return out

    return Rectangles(*directed(p, q), *directed(q, p))


def canonical_couplings(spec: CanonicalSpec) -> dict[tuple[int, int], float]:
    """The couplings `assemble_canonical(spec)` passes to `assemble`."""
    products = {(n - 1, n): canonical_t_squared(spec, n) for n in range(1, spec.n)}
    return couplings_from_products(canonical_backbone(spec), products)


def swapped(label: BlockLabel) -> BlockLabel:
    """The label with A and B exchanged."""
    return BlockLabel(twice_a=label.twice_b, twice_b=label.twice_a)


def reversed_backbone(backbone: BackboneGraph) -> BackboneGraph:
    """The backbone with its blocks in reverse order, edges renumbered."""
    n = backbone.nblocks
    edges = [(n - 1 - i, n - 1 - j) for i, j in backbone.edges]
    return BackboneGraph.make(reversed(backbone.blocks), edges)


def block_offsets(gens: GeneratorSet) -> list[int]:
    """The first row of each block of the generator set, then its dim."""
    offsets = [0]
    for block in gens.blocks:
        offsets.append(offsets[-1] + block.dim)
    return offsets


# ---------------------------------------------------------------------------
# Generator documents as plain JSON values
# ---------------------------------------------------------------------------


def backbone_to_doc(g: BackboneGraph, algebra: Algebra = Algebra.DE_SITTER) -> dict:
    """The backbone document `validate` reads for g, edges sorted."""
    return {
        "blocks": [{"A": str(b.a), "B": str(b.b)} for b in g.blocks],
        "edges": [list(e) for e in sorted(g.edges)],
        "algebra": algebra.value,
    }


def listed_doc(g) -> dict:
    """The generator document of g as plain JSON values: `generators_to_doc`
    with each matrix column made a list."""
    doc = generators_to_doc(g)
    for matrix in doc["generators"]:
        for key in matrix.keys() & {"row", "col", "re", "im"}:
            matrix[key] = matrix[key].tolist()
    return doc


# ---------------------------------------------------------------------------
# Sparse reduction oracle
# ---------------------------------------------------------------------------


def argsort_reduced(m: Sparse) -> tuple[np.ndarray, np.ndarray]:
    """(keys, values) of m's entries sorted by key, those with the same key
    fed in stored order to np.add.reduceat and summed there, exact zeros
    dropped."""
    if not m.keys.size:
        return m.keys, m.vals
    order = np.argsort(m.keys, kind="stable")
    keys = m.keys[order]
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    sums = np.add.reduceat(m.vals[order], starts)
    keep = sums != 0
    return keys[starts][keep], sums[keep]


# ---------------------------------------------------------------------------
# Exact linear solve oracle
# ---------------------------------------------------------------------------


def fraction_solve(matrix, rhs) -> RationalSolution:
    """Gauss-Jordan elimination over Fractions, pivoting column by column."""
    rows = [[Fraction(entry) for entry in row] for row in matrix]
    b = [Fraction(entry) for entry in rhs]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivot_cols: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        b[r], b[pivot_row] = b[pivot_row], b[r]
        pivot = rows[r][c]
        for i in range(nrows):
            if i == r or rows[i][c] == 0:
                continue
            factor = rows[i][c] / pivot
            for cc in range(c, ncols):
                rows[i][cc] -= factor * rows[r][cc]
            b[i] -= factor * b[r]
        pivot_cols.append(c)
        r += 1
        if r == nrows:
            break

    if any(b[i] != 0 for i in range(len(pivot_cols), nrows)):
        return RationalSolution("inconsistent", None, None)
    rank = len(pivot_cols)
    if rank < ncols:
        return RationalSolution("underdetermined", None, ncols - rank)
    solution = [Fraction(0)] * ncols
    for i, c in enumerate(pivot_cols):
        solution[c] = b[i] / rows[i][c]
    return RationalSolution("unique", solution, 0)


def sparse_rows(matrix) -> list[dict]:
    """Dense rows as {column: entry} rows of their non-zeros."""
    return [{c: v for c, v in enumerate(row) if v} for row in matrix]


def dense_rows(rows, ncols: int) -> list[list]:
    """{column: entry} rows written out densely, zeros as int 0."""
    return [[row.get(c, 0) for c in range(ncols)] for row in rows]


# ---------------------------------------------------------------------------
# Backbone solver stages by direct enumeration
# ---------------------------------------------------------------------------


def permutation_paths(g: BackboneGraph) -> list[tuple[int, int, int]]:
    """Every fatal ordered path I-K-J, visiting all ordered block pairs: K the
    only common neighbour, the two steps of different cases, and not two
    copies of the origin block."""
    neighbor_sets = {i: set(g.neighbors(i)) for i in range(g.nblocks)}
    fatal = []
    for i, j in itertools.permutations(range(g.nblocks), 2):
        middles = sorted(neighbor_sets[i] & neighbor_sets[j])
        if len(middles) != 1:
            continue
        k = middles[0]
        case1 = compatibility(g.blocks[i], g.blocks[k])
        case2 = compatibility(g.blocks[k], g.blocks[j])
        if case1 is None or case2 is None or case1 == case2:
            continue
        origin = g.blocks[i].twice_a == 0 and g.blocks[i].twice_b == 0
        if origin and g.blocks[i] == g.blocks[j]:
            continue
        fatal.append((i, k, j))
    return fatal


def dense_onbd_rows(g: BackboneGraph) -> tuple[list[list[int]], list[int]]:
    """(rows, rhs) of the exact system: a dense row per block and index,
    rows 2I and 2I + 1 for block I, one column per sorted edge."""
    edges = sorted(g.edges)
    rows = [[0] * len(edges) for _ in range(2 * g.nblocks)]
    for col, (i, j) in enumerate(edges):
        s_a, s_b = compatibility(g.blocks[i], g.blocks[j])
        for block, seen in ((i, (s_a, s_b)), (j, (-s_a, -s_b))):
            label = g.blocks[block]
            coef_a, coef_b = z_linear(seen, label)
            if label.twice_a:
                rows[2 * block][col] = coef_a
            if label.twice_b:
                rows[2 * block + 1][col] = coef_b
    rhs = [-1 if twice else 0 for b in g.blocks for twice in (b.twice_a, b.twice_b)]
    return rows, rhs


# ---------------------------------------------------------------------------
# so(5) Gelfand-Tsetlin backbones
# ---------------------------------------------------------------------------


def gelfand_tsetlin_backbone(twice_m1: int, twice_m2: int) -> BackboneGraph:
    """so(5) > so(4) branching of highest weight (m1, m2), every compatible pair joined.

    Blocks are (A, B) = ((k1+k2)/2, (k1-k2)/2) for m1 >= k1 >= m2 >= |k2|,
    with k1, k2 stepping by one; here in twice-values.
    """
    labels = [
        BlockLabel(twice_a=(k1 + k2) // 2, twice_b=(k1 - k2) // 2)
        for k1 in range(twice_m1, twice_m2 - 1, -2)
        for k2 in range(twice_m2, -twice_m2 - 1, -2)
    ]
    edges = [
        (i, j)
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
        if abs(labels[i].twice_a - labels[j].twice_a) == 1
        and abs(labels[i].twice_b - labels[j].twice_b) == 1
    ]
    return BackboneGraph.make(labels, edges)


@functools.lru_cache(maxsize=None)
def gelfand_tsetlin_outcome(weight, algebra):
    """The valid outcome of `solve_and_verify` for twice-weight (2 m1, 2 m2),
    with its couplings and generators."""
    outcome = solve_and_verify(
        gelfand_tsetlin_backbone(*weight), algebra, allow_noncanonical=True
    )
    assert outcome.verdict is Verdict.VALID, weight
    return outcome


def gelfand_tsetlin_generators(weight, algebra):
    """The generators `solve_and_verify` finds for twice-weight (2 m1, 2 m2)."""
    return gelfand_tsetlin_outcome(weight, algebra).generators


# ---------------------------------------------------------------------------
# The benchmark's span boundaries
# ---------------------------------------------------------------------------

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def benchmark_spans() -> ModuleType:
    """`perfbench/spans.py`, read and executed in memory, so nothing is
    written under `perfbench/`."""
    module = ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def benchmark_boundaries() -> tuple:
    """`BOUNDARIES` of `perfbench/spans.py`."""
    return benchmark_spans().BOUNDARIES
