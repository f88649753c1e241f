"""Shared test helpers: independent oracles.

- `coupling_null_space_dim`: a linear-constraint oracle for couplings.
- `dense_*`: the commutation relations, Hermiticity pattern and Casimir
  formulas evaluated with dense dim x dim products, the reference for
  `dsrep.verify`, which evaluates the same formulas on the non-zeros.
  `dense_casimir1` is the ladder form of C1, a second derivation of the
  Cartesian form that `dsrep.verify` ships.
- `casimir2_interpretations` and `select_casimir2_interpretation`: the
  candidate readings of the quartic Casimir and the disambiguation over
  the ten canonical chains that picks the one `dsrep.verify` ships.
"""

import numpy as np

from dsrep.blocks import BlockLabel, hla_cartesian
from dsrep.representation import Algebra, assemble_canonical, first_ten_specs
from dsrep.verify import casimir_invariants_closed_form, scalar_check


def coupling_null_space_dim(p: BlockLabel, q: BlockLabel, tol: float = 1e-8) -> int:
    """Dimension of the space of (Vt, Vx, Vy, Vz) rectangles between blocks
    P and Q allowed by the rotation/boost commutation relations alone.

    Independent of the production coupling tables: sets up the homogeneous
    linear system for the four off-diagonal rectangles directly from
    [Ji, Vj] = i eps Vk, [Ji, Vt] = 0, [Ki, Vj] = -i Vt delta_ij,
    [Ki, Vt] = -i Vi, and counts its null space by SVD.
    """
    jp = hla_cartesian(p)
    jq = hla_cartesian(q)
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


def dense_crs(g) -> dict[str, float]:
    """The 27 relation residuals from dense products, keyed as check_all_crs keys them."""
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
    """C1 = Kz^2 - Jz^2 + ((K+K- + K-K+) - (J+J- + J-J+))/2 - 2 (V+V- + V-V+ + W+W- + W-W+)."""
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
    """C1 = Vt^2 + K.K - J.J - V.V."""
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
    vector Q_i = Vt Ji + (K x V)_i, or with the cross product taken V-first."""
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
            lam = scalar_check(candidate(g), tol)
            if lam is None or abs(lam - complex(-float(neg_c2))) > tol:
                break
        else:
            survivors.append(name)
    return survivors[0] if len(survivors) == 1 else None


def dense_casimir2(g) -> np.ndarray:
    """The shipped quartic Casimir: (K.J)^2 - (V.J)^2 + Q.Q, Q_i = Vt Ji + (K x V)_i."""
    return _dense_c2_candidate(g, "qq", k_left=True)
