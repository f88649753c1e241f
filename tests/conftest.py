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
- `loop_hla_generators` and `loop_directed_rectangles`: the block
  generators and coupling rectangles built entry by entry in exact
  HalfInt/Fraction arithmetic, the reference for the array kernels in
  `dsrep.blocks` and `dsrep.coupling`.
- `dense_assemble`: the ten generators assembled into zero-filled dense
  dim x dim arrays from those loop oracles, the byte-exact reference for
  the non-zeros `dsrep.representation.assemble` stores.
- `format1_doc`: the entry-list generator document (format 1) that
  `generate` wrote before the columnar format 2, still read by `verify`.
- `fraction_solve`: Gauss-Jordan elimination over Fractions on dense
  rows, the reference for the integer solver `dsrep.numeric` ships.
- `argsort_reduced`: the entries of a `Sparse` reduced by one argsort and
  `np.add.reduceat` on every call, the reference for `Sparse.reduced()`,
  which skips the sums where no key repeats.
- `gelfand_tsetlin_backbone` and `gelfand_tsetlin_generators`: cyclic
  so(5) backbones and the generators the solver finds for them.
"""

import functools
from fractions import Fraction
from types import SimpleNamespace

import numpy as np

from dsrep.blocks import BlockLabel, block_grid, hla_cartesian
from dsrep.coupling import compatibility
from dsrep.io import generators_to_doc
from dsrep.numeric import HalfInt, RationalSolution, Sparse
from dsrep.representation import (
    Algebra,
    BackboneGraph,
    assemble_canonical,
    first_ten_specs,
)
from dsrep.solver import Verdict, solve_and_verify
from dsrep.su2 import ladder_r, ladder_s
from dsrep.verify import casimir_invariants_closed_form


def coupling_null_space_dim(p: BlockLabel, q: BlockLabel, tol: float = 1e-8) -> int:
    """Dimension of the space of (Vt, Vx, Vy, Vz) rectangles between blocks
    P and Q allowed by the rotation/boost commutation relations alone.

    Independent of the production coupling tables: sets up the homogeneous
    linear system for the four off-diagonal rectangles directly from
    [Ji, Vj] = i eps Vk, [Ji, Vt] = 0, [Ki, Vj] = -i Vt delta_ij,
    [Ki, Vt] = -i Vi, and counts its null space by SVD.
    """
    jp = [m.to_dense() for m in hla_cartesian(p)]
    jq = [m.to_dense() for m in hla_cartesian(q)]
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
# Entry-by-entry construction oracle
# ---------------------------------------------------------------------------


def stored_bytes(m: np.ndarray) -> bytes:
    """The bytes of a dense matrix with each exact zero (of either sign)
    written as +0: what a `Sparse` of its non-zeros gives back densely."""
    return np.where(m != 0, m, 0).astype(complex).tobytes()


def loop_hla_generators(block: BlockLabel):
    """(J+, J-, Jz, K+, K-, Kz) of one block, one grid position at a time."""
    grid = block_grid(block)
    n = len(grid)
    pos = {(a.twice, b.twice): i for i, (a, b) in enumerate(grid)}
    jplus, jminus, jz, kplus, kminus, kz = (np.zeros((n, n), dtype=complex) for _ in range(6))

    for col, (a2, b2) in enumerate(grid):
        jz[col, col] = float(a2) + float(b2)
        kz[col, col] = -1j * (float(a2) - float(b2))

        up_a = (a2.twice + 2, b2.twice)
        if up_a in pos:
            coeff = ladder_r(block.a, a2)
            jplus[pos[up_a], col] += coeff
            kplus[pos[up_a], col] += -1j * coeff
        up_b = (a2.twice, b2.twice + 2)
        if up_b in pos:
            coeff = ladder_r(block.b, b2)
            jplus[pos[up_b], col] += coeff
            kplus[pos[up_b], col] += 1j * coeff

        down_a = (a2.twice - 2, b2.twice)
        if down_a in pos:
            coeff = ladder_s(block.a, a2)
            jminus[pos[down_a], col] += coeff
            kminus[pos[down_a], col] += -1j * coeff
        down_b = (a2.twice, b2.twice - 2)
        if down_b in pos:
            coeff = ladder_s(block.b, b2)
            jminus[pos[down_b], col] += coeff
            kminus[pos[down_b], col] += 1j * coeff

    return jplus, jminus, jz, kplus, kminus, kz


def loop_directed_rectangles(p: BlockLabel, q: BlockLabel):
    """(uplus, uminus, wplus, wminus) with P rows and Q columns, one column at
    a time, each radicand an exact Fraction."""
    case = compatibility(p, q)
    s_a, s_b = case.s_a, case.s_b
    s_minus = -s_a * s_b
    a12 = max(p.a.as_fraction, q.a.as_fraction)
    b12 = max(p.b.as_fraction, q.b.as_fraction)
    a_from_p = p.a.twice > q.a.twice
    b_from_p = p.b.twice > q.b.twice

    rows = block_grid(p)
    cols = block_grid(q)
    row_pos = {(a.twice, b.twice): i for i, (a, b) in enumerate(rows)}
    shape = (len(rows), len(cols))
    uplus, uminus, wplus, wminus = (np.zeros(shape, dtype=complex) for _ in range(4))

    def value(sign_a, sign_b, a1, a2, b1, b2) -> float:
        a_idx = a1 if a_from_p else a2
        b_idx = b1 if b_from_p else b2
        radicand = (a12 + sign_a * s_a * a_idx.as_fraction) * (
            b12 + sign_b * s_b * b_idx.as_fraction
        )
        if radicand < 0:
            raise ArithmeticError("negative radicand in coupling rectangle")
        return float(np.sqrt(float(radicand)))

    for col, (a2, b2) in enumerate(cols):
        target = (a2.twice + 1, b2.twice + 1)
        if target in row_pos:
            a1, b1 = HalfInt(target[0]), HalfInt(target[1])
            uplus[row_pos[target], col] = value(+1, +1, a1, a2, b1, b2)
        target = (a2.twice - 1, b2.twice - 1)
        if target in row_pos:
            a1, b1 = HalfInt(target[0]), HalfInt(target[1])
            uminus[row_pos[target], col] = s_minus * value(-1, -1, a1, a2, b1, b2)
        target = (a2.twice + 1, b2.twice - 1)
        if target in row_pos:
            a1, b1 = HalfInt(target[0]), HalfInt(target[1])
            wplus[row_pos[target], col] = -s_b * value(+1, -1, a1, a2, b1, b2)
        target = (a2.twice - 1, b2.twice + 1)
        if target in row_pos:
            a1, b1 = HalfInt(target[0]), HalfInt(target[1])
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
        jplus, jminus, jz, kplus, kminus, kz = loop_hla_generators(label)
        cartesian = (
            (jplus + jminus) / 2, -0.5j * (jplus - jminus), jz,
            (kplus + kminus) / 2, -0.5j * (kplus - kminus), kz,
        )
        sl = slice(offsets[i], offsets[i + 1])
        for name, block in zip(names, cartesian):
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


# ---------------------------------------------------------------------------
# The entry-list generator document
# ---------------------------------------------------------------------------


def _entry_list(m: Sparse) -> list[list]:
    """[row, col, re, im] of each stored entry, in row-major (key) order."""
    m = m.reduced()
    rows, cols = np.divmod(m.keys, m.n)
    columns = (rows.tolist(), cols.tolist(), m.vals.real.tolist(), m.vals.imag.tolist())
    return list(map(list, zip(*columns)))


def format1_doc(g) -> dict:
    """The format-1 generator document of a generator set: no "format" key,
    and each matrix's stored entries as a list of [row, col, re, im]."""
    doc = generators_to_doc(g)
    del doc["format"]
    doc["generators"] = [
        {"name": name, "rows": g.dim, "cols": g.dim, "entries": _entry_list(m)}
        for name, m in g.matrices().items()
    ]
    return doc


# ---------------------------------------------------------------------------
# Sparse reduction oracle
# ---------------------------------------------------------------------------


def argsort_reduced(m: Sparse) -> tuple[np.ndarray, np.ndarray]:
    """(keys, values) of m's entries sorted by key, those with the same key
    summed by np.add.reduceat, exact zeros dropped."""
    if not m.keys.size:
        return m.keys, m.vals
    order = np.argsort(m.keys)
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


# ---------------------------------------------------------------------------
# so(5) Gelfand-Tsetlin backbones
# ---------------------------------------------------------------------------


def gelfand_tsetlin_backbone(twice_m1: int, twice_m2: int) -> BackboneGraph:
    """so(5) > so(4) branching of highest weight (m1, m2), every compatible pair joined.

    Blocks are (A, B) = ((k1+k2)/2, (k1-k2)/2) for m1 >= k1 >= m2 >= |k2|,
    with k1, k2 stepping by one; here in twice-values.
    """
    labels = [
        BlockLabel(HalfInt((k1 + k2) // 2), HalfInt((k1 - k2) // 2))
        for k1 in range(twice_m1, twice_m2 - 1, -2)
        for k2 in range(twice_m2, -twice_m2 - 1, -2)
    ]
    edges = [
        (i, j)
        for i in range(len(labels))
        for j in range(i + 1, len(labels))
        if abs(labels[i].a.twice - labels[j].a.twice) == 1
        and abs(labels[i].b.twice - labels[j].b.twice) == 1
    ]
    return BackboneGraph.make(labels, edges)


@functools.lru_cache(maxsize=None)
def gelfand_tsetlin_generators(weight, algebra):
    """The generators `solve_and_verify` finds for twice-weight (2 m1, 2 m2)."""
    outcome = solve_and_verify(
        gelfand_tsetlin_backbone(*weight), algebra, allow_noncanonical=True
    )
    assert outcome.verdict is Verdict.VALID, weight
    return outcome.generators
