"""Exact arithmetic and matrix-kernel tests."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import argsort_reduced, dagger, fraction_solve, sparse_from_dense
from hypothesis import given, settings
from hypothesis import strategies as st

import dsrep.numeric
from dsrep.numeric import (
    Sparse,
    commutator,
    max_abs,
    product_sum,
    residual_norms,
    solve_rational_linear,
)


complex_entries = st.complex_numbers(
    min_magnitude=0, max_magnitude=1e6, allow_nan=False, allow_infinity=False
)


def square_matrices(n):
    return st.lists(
        st.lists(complex_entries, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(lambda rows: np.array(rows, dtype=complex))


class TestMatrixKernel:
    def test_commutator_identity(self):
        m = sparse_from_dense(np.array([[1, 2j], [3, 4]]))
        assert max_abs(commutator(sparse_from_dense(np.eye(2)), m)) == 0.0

    def test_commutator_self(self):
        m = sparse_from_dense(np.array([[1, 2j], [3, 4]]))
        assert max_abs(commutator(m, m)) == 0.0

    def test_commutator_pauli(self):
        # independent oracle: spin-1/2 matrices written out by hand
        jx, jy, jz = map(sparse_from_dense, (
            [[0, 0.5], [0.5, 0]], [[0, -0.5j], [0.5j, 0]], [[0.5, 0], [0, -0.5]]
        ))
        assert max_abs(commutator(jx, jy) - 1j * jz) < 1e-14

    def test_commutator_shape_errors(self):
        # Sparse operands only, of one dimension
        with pytest.raises(TypeError):
            commutator(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):
            commutator(sparse_from_dense(np.eye(2)), sparse_from_dense(np.eye(3)))

    @settings(max_examples=25)
    @given(square_matrices(8), square_matrices(8))
    def test_commutator_antisymmetry(self, x, y):
        scale = max(max_abs(x), max_abs(y), 1.0)
        sx, sy = sparse_from_dense(x), sparse_from_dense(y)
        assert max_abs(commutator(sx, sy) + commutator(sy, sx)) / scale**2 < 1e-14

    def test_max_abs(self):
        assert max_abs(np.zeros((3, 3))) == 0.0
        assert max_abs(np.eye(2)) == 1.0
        assert max_abs(np.zeros((0, 0))) == 0.0


def sparse_matrices(n):
    """Square complex matrices with most entries zero, entries of modulus <= 10."""
    small = st.complex_numbers(max_magnitude=10, allow_nan=False, allow_infinity=False)
    entry = st.one_of(st.just(0j), st.just(0j), st.just(0j), small)
    return st.lists(entry, min_size=n * n, max_size=n * n).map(
        lambda flat: np.array(flat, dtype=complex).reshape(n, n)
    )


class TestSparse:
    """The non-zero kernel against the same expressions on dense arrays."""

    @given(sparse_matrices(5))
    def test_dense_round_trip_bitwise(self, m):
        assert np.array_equal(sparse_from_dense(m).to_dense(), m)

    @settings(max_examples=50)
    @given(sparse_matrices(5), sparse_matrices(5), sparse_matrices(5))
    def test_expressions_match_dense(self, x, y, z):
        sx, sy, sz = (sparse_from_dense(m) for m in (x, y, z))
        # rounding bound for a product of `degree` factors of 5 x 5 matrices
        top = 5 * max(max_abs(x), max_abs(y), max_abs(z), 1.0)
        for ours, dense, degree in (
            (sx @ sy, x @ y, 2),
            (commutator(sx, sy) - 1j * sz, x @ y - y @ x - 1j * z, 2),
            ((sx + 2 * sy) @ (sz - sx / 4), (x + 2 * y) @ (z - x / 4), 2),
            (dagger(sx) - sx, dagger(x) - x, 1),
            (sx @ sx @ sy, x @ x @ y, 3),
        ):
            tolerance = 1e-13 * top**degree
            assert max_abs(ours.to_dense() - dense) <= tolerance
            assert abs(max_abs(ours) - max_abs(dense)) <= tolerance

    @settings(max_examples=50)
    @given(sparse_matrices(6), sparse_matrices(6), sparse_matrices(6), st.sampled_from([1, 7, 1 << 15]))
    def test_product_sum_matches_dense(self, x, y, z, run_terms):
        # run_terms=1 makes every row its own run; 7 splits rows of up to
        # 36 terms into runs of whole rows; 1 << 15 is one run
        sx, sy, sz = (sparse_from_dense(m) for m in (x, y, z))
        terms = [(1.0, sx, sy), (-1.0, sy, sx), (0.5j, sz, sx + sz), (2.0, sz, Sparse.zero(6))]
        dense = x @ y - y @ x + 0.5j * (z @ (x + z))
        saved = dsrep.numeric.PRODUCT_TERMS
        dsrep.numeric.PRODUCT_TERMS = run_terms
        try:
            ours = product_sum(terms)
        finally:
            dsrep.numeric.PRODUCT_TERMS = saved
        assert ours._reduced and (np.diff(ours.keys) > 0).all() and (ours.vals != 0).all()
        top = 6 * max(max_abs(x), max_abs(y), max_abs(z), 1.0)
        assert max_abs(ours.to_dense() - dense) <= 1e-13 * top**2

    @pytest.mark.parametrize(
        "n,keys,vals",
        [
            (3, [0, 3, 4, 8], [1, 2j, -0.5, 3 + 1j]),
            (3, [0, 3, 3, 4, 8, 8, 8], [1, 2j, -2j, -0.5, 1, 1, -0.0]),
            (3, [8, 0, 4, 3], [1, 2j, -0.5, 3 + 1j]),
            (3, [8, 3, 0, 3, 8, 4], [1, 2, 3, -2, 0.25, 1e-300]),
            (3, [1, 2, 5, 6], [0, 1j, 0, complex(-0.0, 0.0)]),
            (3, [2, 7, 1, 7], [0, math.nan, 1, 2]),
            (3, [2, 1, 5, 1], [complex(-0.0, 1), complex(1, -0.0), complex(-0.0, -0.0), 1]),
            (3, [5, 1, 4], [complex(-0.0, 1), complex(1, -0.0), complex(3, math.nan)]),
            (3, [], []),
            (3, [4], [complex(-0.0, 2)]),
            # 30 repeats of key 4, whose sum depends on the order of its terms
            (3, [4] * 10 + [1] + [4] * 10 + [7] + [4] * 10,
             [1e16, 1.0, -1e16, 1.0, 3.0] * 6 + [2j, 0.5]),
            # n * n needs 64 bits, so key and position do not fit in one
            # word and the keys are sorted by a stable argsort instead
            (2**32, [5, 3, 5, 9, 3], [1, 2j, -1, 0.5, 3]),
        ],
        ids=["increasing", "sorted-repeats", "unsorted", "unsorted-repeats", "exact-zeros",
             "nan", "negative-zero-parts-repeats", "negative-zero-parts", "empty", "one",
             "many-repeats", "wide-keys"],
    )
    def test_reduced_matches_argsort_reduceat(self, n, keys, vals):
        m = Sparse(n, np.array(keys, dtype=np.intp), np.array(vals, dtype=complex))
        want_keys, want_vals = argsort_reduced(m)
        got = m.reduced()
        assert got.keys.tobytes() == want_keys.tobytes()
        assert got.vals.tobytes() == want_vals.tobytes()
        assert got.reduced() is got

    @settings(max_examples=100)
    @given(
        # the second draw repeats a key more than 16 times
        st.lists(st.integers(0, 15), max_size=30)
        | st.lists(st.integers(0, 2), min_size=17, max_size=60),
        st.booleans(),
        st.data(),
    )
    def test_reduced_matches_argsort_reduceat_on_drawn_entries(self, keys, ordered, data):
        parts = st.sampled_from(
            [0.0, -0.0, 1.0, -1.0, 0.5, 3.0, 1e16, -1e16, math.nan, math.inf, -math.inf]
        )
        size = len(keys)
        vals = data.draw(st.lists(st.builds(complex, parts, parts), min_size=size, max_size=size))
        keys = sorted(keys) if ordered else keys
        m = Sparse(4, np.array(keys, dtype=np.intp), np.array(vals, dtype=complex))
        with np.errstate(invalid="ignore"):  # inf + -inf in a sum
            want_keys, want_vals = argsort_reduced(m)
            got = m.reduced()
        assert got.keys.tobytes() == want_keys.tobytes()
        assert got.vals.tobytes() == want_vals.tobytes()

    def test_cancellation_leaves_no_entries(self):
        m = sparse_from_dense(np.array([[0, 1j], [2, 0]]))
        difference = (m @ m - m @ m).reduced()
        assert difference.keys.size == 0
        assert max_abs(difference) == 0.0

    def test_empty_matrix(self):
        zero = sparse_from_dense(np.zeros((3, 3)))
        assert max_abs(zero) == 0.0
        assert max_abs(zero @ zero - zero) == 0.0
        assert max_abs(sparse_from_dense(np.zeros((0, 0)))) == 0.0

    @pytest.mark.parametrize("bad,warned", [
        (math.nan, set()),
        # a complex product of inf + 0j makes inf * 0 in one part; every
        # product scales its left entries first, so the NaN is made there
        # and no sum meets inf with its negative
        (math.inf, {"invalid value encountered in multiply"}),
    ], ids=["nan", "inf"])
    def test_non_finite_entries_reach_max_abs(self, bad, warned):
        x = np.diag([1.0, 2.0, 3.0]).astype(complex)
        x[0, 2] = bad
        sx, eye = sparse_from_dense(x), sparse_from_dense(np.eye(3))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert not math.isfinite(max_abs(sx @ eye))
            assert not math.isfinite(max_abs((sx @ eye + sx) @ eye))
            assert not np.isfinite((sx @ eye).to_dense()).all()
            assert not math.isfinite(max_abs(commutator(eye, sx) - sx))
            assert not math.isfinite(max_abs(dagger(sx) - sx))
            assert not math.isfinite(max_abs(product_sum([(1.0, sx, eye), (-1.0, eye, sx)])))
        assert {str(w.message) for w in caught if w.category is RuntimeWarning} == warned

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    def test_non_finite_entry_meets_an_empty_right_row(self, bad):
        # a's (0, 2) entry meets row 2 of b, which stores nothing; b @ a
        # never reaches that entry, so only a @ b can carry it
        a = sparse_from_dense(np.array([[1, 0, bad], [0, 2, 0], [0, 0, 0]], dtype=complex))
        b = sparse_from_dense(np.diag([0.0, 1.0, 0.0]).astype(complex))
        with np.errstate(invalid="ignore"):
            dense = a.to_dense() @ b.to_dense()
            assert not np.isfinite(dense).all()
            assert not math.isfinite(max_abs(a @ b))
            assert np.isnan((a @ b).to_dense()[~np.isfinite(dense)]).any()
            assert math.isfinite(max_abs(b @ a))
            assert not math.isfinite(max_abs(commutator(a, b)))
            assert not math.isfinite(max_abs(product_sum([(1.0, a, b)])))

    @settings(max_examples=25)
    @given(sparse_matrices(6), sparse_matrices(6))
    def test_product_is_the_one_term_product_sum(self, x, y):
        sx, sy = sparse_from_dense(x), sparse_from_dense(y)
        product, summed = sx @ sy, product_sum([(1, sx, sy)])
        assert product._reduced
        assert product.keys.tobytes() == summed.keys.tobytes()
        assert product.vals.tobytes() == summed.vals.tobytes()

    def test_shape_errors(self):
        with pytest.raises(ValueError):
            sparse_from_dense(np.eye(2)) @ sparse_from_dense(np.eye(3))
        with pytest.raises(ValueError):
            commutator(sparse_from_dense(np.eye(2)), sparse_from_dense(np.eye(3)))

    def test_dense_operands_are_refused(self):
        with pytest.raises(TypeError):
            sparse_from_dense(np.eye(2)) - np.eye(2)
        with pytest.raises(TypeError):
            np.eye(2) @ sparse_from_dense(np.eye(2))


def _with_pattern(mask, values):
    """The Sparse matrix holding `values` (non-zero) at the True places of mask."""
    dense = np.zeros(mask.shape, dtype=complex)
    dense[mask] = values
    return sparse_from_dense(dense)


class TestSharedPatterns:
    """Products whose factors share key patterns share one expansion; no sum may notice."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_product_sum_matches_dense(self, data):
        n = data.draw(st.integers(2, 6), label="n")
        nonzero = st.complex_numbers(min_magnitude=0.5, max_magnitude=4, allow_nan=False)
        masks = [
            np.array(data.draw(st.lists(st.booleans(), min_size=n * n, max_size=n * n))).reshape(n, n)
            for _ in range(2)
        ]
        masks[1][data.draw(st.integers(0, n - 1), label="empty row")] = False
        # two matrices on each pattern: equal patterns, distinct objects
        pool = [
            _with_pattern(mask, data.draw(st.lists(nonzero, min_size=int(mask.sum()), max_size=int(mask.sum()))))
            for mask in masks for _ in range(2)
        ]
        picks = st.lists(
            st.tuples(st.sampled_from([1.0, -1.0, 0.5j, 2.0]), st.integers(0, 3), st.integers(0, 3)),
            min_size=1, max_size=6,
        )
        terms = [(c, pool[i], pool[j]) for c, i, j in data.draw(picks, label="terms")]
        terms.append((1.0, pool[0], pool[0]))  # one object as both factors
        poison = data.draw(st.sampled_from([None, math.nan, math.inf]), label="poison")
        if poison is not None and terms[0][1].keys.size:
            # a non-finite entry in one left factor of one product only
            left = terms[0][1]
            vals = left.vals.copy()
            vals[data.draw(st.integers(0, vals.size - 1))] = poison
            terms[0] = (terms[0][0], Sparse(n, left.keys, vals, reduced=True), terms[0][2])
        run_terms = data.draw(st.sampled_from([1, 7, 1 << 15]), label="PRODUCT_TERMS")
        saved = dsrep.numeric.PRODUCT_TERMS
        dsrep.numeric.PRODUCT_TERMS = run_terms
        try:
            with np.errstate(all="ignore"):
                ours = product_sum(terms).to_dense()
                # every product, zeros included: a non-finite left entry poisons its row
                dense = sum(c * np.einsum("ik,kj->ij", a.to_dense(), b.to_dense()) for c, a, b in terms)
        finally:
            dsrep.numeric.PRODUCT_TERMS = saved
        finite = np.isfinite(dense).all(axis=1)
        assert np.allclose(ours[finite], dense[finite], rtol=1e-13, atol=1e-12)
        assert not np.isfinite(ours[~finite]).all(axis=1).any()

    def test_plans_follow_which_right_factors_are_one_matrix(self, monkeypatch):
        # two relations with equal key patterns: one multiplies two matrices,
        # the other one matrix by itself; each must be summed as if it were
        # alone, and, x and y sharing one mask, the two share one plan
        rng = np.random.default_rng(7)
        mask = rng.random((9, 9)) < 0.4
        x, y = (_with_pattern(mask, rng.normal(size=mask.sum()) + 1j) for _ in range(2))
        relations = [
            ([(1.0, x, y), (-1.0, y, x)], [(1.0, x, True)]),
            ([(1.0, x, x), (-1.0, x, x)], [(1.0, x, True)]),
            ([(1.0, y, x), (2.0, x, y)], [(1.0, y, False)]),
            ([(1.0, y, y), (2.0, y, y)], [(1.0, y, False)]),
        ]
        dense = [
            max_abs(sum(c * a.to_dense() @ b.to_dense() for c, a, b in products)
                    + sum(c * (m.to_dense().conj().T if adj else m.to_dense()) for c, m, adj in singles))
            for products, singles in relations
        ]
        made = []
        planned = dsrep.numeric._plan

        def counted(*args):
            made.append(args)
            return planned(*args)

        for run_terms, plans in ((1, 2), (40, 2), (1 << 15, 1)):
            monkeypatch.setattr(dsrep.numeric, "PRODUCT_TERMS", run_terms)
            monkeypatch.setattr(dsrep.numeric, "_plan", counted)
            made.clear()
            together = residual_norms(9, relations)
            assert len(made) == plans, run_terms
            monkeypatch.setattr(dsrep.numeric, "_plan", planned)
            alone = [residual_norms(9, [relation])[0] for relation in relations]
            assert together == alone
            assert together == pytest.approx(dense, rel=1e-13, abs=1e-13)


class TestRationalSolve:
    def test_unique_1x1(self):
        out = solve_rational_linear([[1]], [2])
        assert out.status == "unique"
        assert out.solution == [Fraction(2)]

    def test_underdetermined(self):
        out = solve_rational_linear([[1, 1]], [1])
        assert out.status == "underdetermined"
        assert out.dof == 1

    def test_inconsistent(self):
        out = solve_rational_linear([[1], [1]], [1, 2])
        assert out.status == "inconsistent"

    def test_rank_decision_is_exact(self):
        # floats would misjudge the rank of this matrix
        third = Fraction(1, 3)
        rows = [[third, third], [third + third, third + third]]
        out = solve_rational_linear(rows, [1, 2])
        assert out.status == "underdetermined"

    @settings(max_examples=50)
    @given(
        st.lists(
            st.lists(st.fractions(-5, 5, max_denominator=6), min_size=3, max_size=3),
            min_size=1,
            max_size=5,
        ),
        st.lists(st.fractions(-5, 5, max_denominator=6), min_size=3, max_size=3),
    )
    def test_unique_solution_substitutes_back(self, rows, x_true):
        rhs = [sum(c * x for c, x in zip(row, x_true)) for row in rows]
        out = solve_rational_linear(rows, rhs)
        # constructed to be consistent; verify exactly whenever unique
        assert out.status in ("unique", "underdetermined")
        if out.status == "unique":
            for row, b in zip(rows, rhs):
                assert sum(c * x for c, x in zip(row, out.solution)) == b


_NONZERO = st.one_of(
    st.integers(-4, 4).filter(bool),
    st.fractions(-3, 3, max_denominator=4).filter(bool),
)
_ANY = st.one_of(st.just(0), _NONZERO)


@st.composite
def linear_systems(draw):
    """(rows, rhs, kind) with kind the status the system is built to have.

    Rank r independent rows in echelon form are mixed by adding multiples
    of one another (which keeps the rank), then joined by zero rows and
    combinations of the others, and shuffled; the right-hand side is
    consistent with a drawn solution, except that an inconsistent system
    gets one dependent row whose right-hand side is off.  Entries are ints
    where integral, or Fractions throughout.
    """
    kind = draw(st.sampled_from(["unique", "underdetermined", "inconsistent"]))
    ncols = draw(st.integers(1, 6))
    if kind == "unique":
        rank = ncols
    elif kind == "underdetermined":
        rank = draw(st.integers(0, ncols - 1))
    else:
        rank = draw(st.integers(0, ncols))
    pivots = sorted(draw(st.permutations(range(ncols)))[:rank])
    rows = []
    for pivot in pivots:
        row = [Fraction(0)] * ncols
        row[pivot] = draw(_NONZERO)
        for c in range(pivot + 1, ncols):
            row[c] = Fraction(draw(_ANY))
        rows.append(row)
    for _ in range(draw(st.integers(0, 2 * rank))):
        if rank < 2:
            break
        i, j = draw(st.permutations(range(rank)))[:2]
        factor = draw(_NONZERO)
        rows[i] = [a + factor * b for a, b in zip(rows[i], rows[j])]
    x = [Fraction(draw(_ANY)) for _ in range(ncols)]
    rhs = [sum(a * xc for a, xc in zip(row, x)) for row in rows]

    def combination():
        weights = [draw(_ANY) for _ in rows]
        row = [sum((w * r[c] for w, r in zip(weights, rows)), Fraction(0)) for c in range(ncols)]
        return row, sum((w * b for w, b in zip(weights, rhs)), Fraction(0))

    extra = [combination() for _ in range(draw(st.integers(0, 2)))]
    # at least one row, so that the column count is known
    extra += [([Fraction(0)] * ncols, Fraction(0))] * draw(st.integers(int(not rows), 2))
    if kind == "inconsistent":
        row, b = combination()
        extra.append((row, b + draw(_NONZERO)))
    for row, b in extra:
        rows.append(row)
        rhs.append(b)
    order = draw(st.permutations(range(len(rows))))
    rows, rhs = [rows[i] for i in order], [rhs[i] for i in order]
    if draw(st.booleans()):  # ints where integral
        rows = [[int(v) if v.denominator == 1 else v for v in row] for row in rows]
        rhs = [int(v) if v.denominator == 1 else v for v in rhs]
    return rows, rhs, kind


class TestIntegerSolveAgainstFractionOracle:
    @settings(max_examples=150, deadline=None)
    @given(linear_systems())
    def test_same_status_solution_and_dof(self, system):
        rows, rhs, kind = system
        want = fraction_solve(rows, rhs)
        assert want.status == kind
        assert solve_rational_linear(rows, rhs) == want

    def test_numpy_integers_match_the_oracle(self):
        # Products of these entries pass 2**63, where numpy integers wrap.
        rows = [[3000000007, 2999999999], [2999999989, 3000000001]]
        rhs = [1, 2]
        want = fraction_solve(rows, rhs)
        assert want.solution[0] == Fraction(-2999999997, 59999999996)
        wide = [[np.int64(v) for v in row] for row in rows], [np.int64(b) for b in rhs]
        assert solve_rational_linear(*wide) == want

    def test_empty_and_zero_column_systems(self):
        assert solve_rational_linear([], []) == fraction_solve([], [])
        assert solve_rational_linear([[]], [0]) == fraction_solve([[]], [0])
        assert solve_rational_linear([[]], [1]).status == "inconsistent"

    def test_ragged_or_mismatched_input_raises(self):
        with pytest.raises(ValueError):
            solve_rational_linear([[1, 2], [3]], [0, 0])
        with pytest.raises(ValueError):
            solve_rational_linear([[1]], [0, 0])
