"""Exact arithmetic and matrix-kernel tests."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from conftest import (
    argsort_reduced,
    dagger,
    dense_rows,
    fraction_solve,
    sparse_from_dense,
    sparse_rows,
)
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
        dense = self._dense_norms(relations)
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

    @staticmethod
    def _dense_norms(relations):
        return [
            max_abs(sum(c * a.to_dense() @ b.to_dense() for c, a, b in products)
                    + sum(c * (m.to_dense().conj().T if adj else m.to_dense()) for c, m, adj in singles))
            for products, singles in relations
        ]

    @staticmethod
    def _watch(monkeypatch):
        """(plans, numbered): the sums of each `_plan` call, and every matrix
        given a pattern key, as `residual_norms` runs."""
        plans, numbered = [], []
        planned, patterns = dsrep.numeric._plan, dsrep.numeric._pattern_keys

        def plan(n, sums, *rest):
            plans.append(sums)
            return planned(n, sums, *rest)

        def pattern_keys():
            pattern = patterns()

            def recorded(m):
                numbered.append(m)
                return pattern(m)

            return recorded

        monkeypatch.setattr(dsrep.numeric, "_plan", plan)
        monkeypatch.setattr(dsrep.numeric, "_pattern_keys", pattern_keys)
        return plans, numbered

    def test_small_relations_share_one_plan_and_no_patterns(self, monkeypatch):
        # one relation of about 1500 terms, above half the budget, and four
        # of about 60 that fit in one sort together
        rng = np.random.default_rng(11)
        dense_mask, sparse_mask = rng.random((12, 12)) < 0.6, np.eye(12, dtype=bool)
        x, y = (_with_pattern(dense_mask, rng.normal(size=dense_mask.sum()) + 1j) for _ in range(2))
        small = [_with_pattern(sparse_mask, rng.normal(size=12) - 1j) for _ in range(4)]
        relations = [([(1.0, x, y), (-1.0, y, x)], [(0.5, x, True)])] + [
            ([(1.0, a, b), (-1.0, b, a)], [(2.0, a, False)]) for a, b in zip(small, small[1:] + small[:1])
        ]
        monkeypatch.setattr(dsrep.numeric, "PRODUCT_TERMS", 1024)
        plans, numbered = self._watch(monkeypatch)
        together = residual_norms(12, relations)
        assert sorted(plans) == [1, 4]
        assert not any(m is s for m in numbered for s in small)
        assert numbered
        alone = [residual_norms(12, [relation])[0] for relation in relations]
        assert together == alone
        assert together == pytest.approx(self._dense_norms(relations), rel=1e-13, abs=1e-13)

    def test_large_relations_share_a_plan_in_either_product_order(self, monkeypatch):
        # [y, v] lists its pattern pairs in the opposite order to [x, u], as
        # [Vz, Vx] does to [Vy, Vz]; integer values, so every order of
        # summation gives the same bits
        rng = np.random.default_rng(5)
        p, q = rng.random((10, 10)) < 0.4, rng.random((10, 10)) < 0.4

        def on(mask):
            size = mask.sum()
            return _with_pattern(mask, rng.integers(1, 4, size=size) + 1j * rng.integers(-3, 4, size=size))

        x, y, u, v = on(p), on(p), on(q), on(q)
        relations = [
            ([(1.0, x, u), (-1.0, u, x)], [(-1j, y, False)]),
            ([(1.0, v, y), (-1.0, y, v)], [(-1j, x, False)]),
        ]
        monkeypatch.setattr(dsrep.numeric, "PRODUCT_TERMS", 1)
        plans, _ = self._watch(monkeypatch)
        together = residual_norms(10, relations)
        assert plans == [1]
        alone = [residual_norms(10, [relation])[0] for relation in relations]
        assert together == alone
        assert together == pytest.approx(self._dense_norms(relations), rel=1e-13, abs=1e-13)

    @pytest.mark.parametrize("seed", range(4))
    def test_large_relations_sum_alike_alone_or_together(self, seed, monkeypatch):
        # as above, with values whose sums round: [v, y] must order its
        # pattern pairs by the patterns alone, and so keep its bits, whether
        # or not [x, u] comes first and meets pattern p before q
        rng = np.random.default_rng(seed)
        p, q = rng.random((10, 10)) < 0.4, rng.random((10, 10)) < 0.4

        def on(mask):
            return _with_pattern(mask, rng.normal(size=mask.sum()) + 1j * rng.normal(size=mask.sum()))

        x, y, u, v = on(p), on(p), on(q), on(q)
        relations = [
            ([(1.0, x, u), (-1.0, u, x)], [(-1j, y, False)]),
            ([(1.0, v, y), (-1.0, y, v)], [(-1j, x, False)]),
        ]
        monkeypatch.setattr(dsrep.numeric, "PRODUCT_TERMS", 1)
        plans, _ = self._watch(monkeypatch)
        together = residual_norms(10, relations)
        assert plans == [1]
        for relation in (relations, relations[::-1]):
            assert [residual_norms(10, [r])[0] for r in relation] == residual_norms(10, relation)
        assert together == pytest.approx(self._dense_norms(relations), rel=1e-13, abs=1e-13)


class TestRelationBound:
    """A relation whose products make more than RELATION_TERMS terms is a
    `product_sum` of them plus its singles."""

    @staticmethod
    def _routed(monkeypatch, limit, n, relations):
        """(norms, routed): `residual_norms` with RELATION_TERMS at limit, and
        the products of each `product_sum` call it made."""
        routed, summed = [], dsrep.numeric.product_sum

        def recorded(products):
            routed.append(products)
            return summed(products)

        monkeypatch.setattr(dsrep.numeric, "RELATION_TERMS", limit)
        monkeypatch.setattr(dsrep.numeric, "product_sum", recorded)
        return residual_norms(n, relations), routed

    def test_terms_are_counted_exactly(self, monkeypatch):
        # ten left entries in column 0 meet the one dense row of the right
        # factor, ten in column 1 meet one entry: 10 * 20 + 10 terms, where
        # `_terms` guesses 40 and the widest row allows 400
        n = 20
        left, right = np.zeros((n, n)), np.eye(n)
        left[:10, 0] = left[10:, 1] = right[0] = 1
        a, b = sparse_from_dense(left), sparse_from_dense(right)
        relations = [([(1.0, a, b)], [])]
        assert dsrep.numeric._terms(n, relations[0][0]) == 2 * n
        for limit, routed in ((210, []), (209, [[(1.0, a, b)]])):
            norms, seen = self._routed(monkeypatch, limit, n, relations)
            assert seen == routed
            assert norms == [1.0]

    def test_routed_relations_match_dense(self, monkeypatch):
        rng = np.random.default_rng(3)
        a, b = (sparse_from_dense(rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12)))
                for _ in range(2))
        relations = [
            ([(1.0, a, b), (-1.0, b, a)], [(-1j, a, False), (2.0, b, True)]),
            ([(0.5, b, b)], []),
            ([], [(1.0, a, True), (-1.0, a, False)]),
        ]
        norms, routed = self._routed(monkeypatch, 1, 12, relations)
        assert len(routed) == 2
        assert norms == pytest.approx(TestSharedPatterns._dense_norms(relations), rel=1e-13)


class TestQuarterTurn:
    """`Sparse.quarter_turn`: a matrix as i^q times a real one."""

    @staticmethod
    def _matrix(vals):
        return Sparse(3, np.arange(len(vals), dtype=np.intp) * 2, np.array(vals, dtype=complex), reduced=True)

    @pytest.mark.parametrize("vals,q,real", [
        ([1.5, -2.0, complex(3.0, -0.0)], 0, [1.5, -2.0, 3.0]),
        ([2j, complex(-0.0, -1.0), 0.5j], 1, [2.0, -1.0, 0.5]),
        ([complex(0.0, -0.0), -0.0], 0, [0.0, -0.0]),
        ([], 0, []),
    ], ids=["real", "imaginary", "zeros", "empty"])
    def test_phase_pure_matrices(self, vals, q, real):
        m = self._matrix(vals)
        turn = m.quarter_turn()
        assert turn[0] == q and turn[1].vals.dtype == np.float64
        assert turn[1].vals.tobytes() == np.array(real, dtype=float).tobytes()
        assert np.array_equal(1j ** q * turn[1].to_dense(), m.to_dense())
        assert m.quarter_turn() is turn  # kept

    @pytest.mark.parametrize("vals", [
        [1.0, 1j], [complex(1, 1)], [1.0, math.nan], [1j, complex(0, math.inf)], [complex(math.nan, 0)],
    ], ids=["mixed", "both-parts", "nan", "inf", "nan-real-part"])
    def test_mixed_or_non_finite_matrices_have_none(self, vals):
        m = self._matrix(vals)
        assert m.quarter_turn() is None
        assert m.quarter_turn() is None

    def test_real_part_shares_the_key_arrays(self):
        m = sparse_from_dense(np.array([[0, 2j, 0], [-1j, 0, 0.5j], [0, 0, 3j]]))
        _, real = m.quarter_turn()
        assert real.keys is m.keys and real.reduced() is real
        for ours, theirs in zip(real._row_spans()[:3], m._row_spans()[:3]):
            assert ours is theirs
        for ours, theirs in zip(real._entry_split()[:2], m._entry_split()[:2]):
            assert ours is theirs
        assert np.shares_memory(real.vals, m.vals)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 1), st.integers(0, 1), st.sampled_from([1, 7, 1 << 13]), st.integers(0, 2**32 - 1))
    def test_real_parts_give_the_residual(self, qa, qb, run_terms, seed):
        # [a, b] - c = i^(qa + qb) ([ra, rb] - rc) for c of the same turn,
        # whatever the kernel's runs
        rng = np.random.default_rng(seed)

        def drawn(q):
            return (1j ** q) * np.where(rng.random((5, 5)) < 0.5, rng.normal(size=(5, 5)), 0)

        a, b, c = drawn(qa), drawn(qb), drawn(qa + qb)
        (ta, ra), (tb, rb), (tc, rc) = (sparse_from_dense(m).quarter_turn() for m in (a, b, c))
        assert (ta, tb, tc) == (qa, qb, (qa + qb) % 2) or not (ra.keys.size and rb.keys.size and rc.keys.size)
        sign = (1j ** (qa + qb)).real or (1j ** (qa + qb)).imag  # c = sign i^(qa + qb) rc
        saved = dsrep.numeric.PRODUCT_TERMS
        dsrep.numeric.PRODUCT_TERMS = run_terms
        try:
            ours = residual_norms(5, [([(1.0, ra, rb), (-1.0, rb, ra)], [(-sign, rc, False)])])[0]
        finally:
            dsrep.numeric.PRODUCT_TERMS = saved
        assert ours == pytest.approx(max_abs(a @ b - b @ a - c), rel=1e-14, abs=1e-14)


class TestRationalSolve:
    def test_unique_1x1(self):
        out = solve_rational_linear([{0: 1}], [2], 1)
        assert out.status == "unique"
        assert out.solution == [Fraction(2)]

    def test_underdetermined(self):
        out = solve_rational_linear([{0: 1, 1: 1}], [1], 2)
        assert out.status == "underdetermined"
        assert out.dof == 1

    def test_inconsistent(self):
        out = solve_rational_linear([{0: 1}, {0: 1}], [1, 2], 1)
        assert out.status == "inconsistent"

    def test_rank_decision_is_exact(self):
        # floats would misjudge the rank of this matrix
        third = Fraction(1, 3)
        rows = [{0: third, 1: third}, {0: third + third, 1: third + third}]
        out = solve_rational_linear(rows, [1, 2], 2)
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
        out = solve_rational_linear(sparse_rows(rows), rhs, 3)
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


def _entry(draw, value):
    """value as an int, a numpy integer or a Fraction, drawn; a
    non-integral value stays a Fraction."""
    value = Fraction(value)
    if value.denominator != 1:
        return value
    return draw(st.sampled_from([int, np.int64, Fraction]))(int(value))


@st.composite
def sparse_systems(draw):
    """(rows, rhs, ncols): {column: entry} rows of a few non-zeros each.

    Half are drawn at random, and are mostly unique or inconsistent when
    tall and underdetermined when wide; half are `linear_systems` of a
    drawn status with their zeros dropped.  Each entry is an int, a numpy
    integer or a Fraction, drawn one by one.
    """
    if draw(st.booleans()):
        dense, rhs, _ = draw(linear_systems())
        ncols, rows = len(dense[0]), sparse_rows(dense)
    else:
        # at least one row, as the oracle reads the column count off it
        ncols = draw(st.integers(0, 7))
        rows = [
            {c: draw(_NONZERO) for c in draw(st.sets(st.integers(0, ncols - 1), max_size=3))}
            if ncols
            else {}
            for _ in range(draw(st.integers(1, 9)))
        ]
        rhs = [draw(_ANY) for _ in rows]
    rows = [{c: _entry(draw, v) for c, v in row.items()} for row in rows]
    return rows, [_entry(draw, b) for b in rhs], ncols


class TestIntegerSolveAgainstFractionOracle:
    @settings(max_examples=150, deadline=None)
    @given(linear_systems())
    def test_same_status_solution_and_dof(self, system):
        rows, rhs, kind = system
        want = fraction_solve(rows, rhs)
        assert want.status == kind
        assert solve_rational_linear(sparse_rows(rows), rhs, len(rows[0])) == want

    def test_numpy_integers_match_the_oracle(self):
        # Products of these entries pass 2**63, where numpy integers wrap.
        rows = [[3000000007, 2999999999], [2999999989, 3000000001]]
        rhs = [1, 2]
        want = fraction_solve(rows, rhs)
        assert want.solution[0] == Fraction(-2999999997, 59999999996)
        wide = [{c: np.int64(v) for c, v in enumerate(row)} for row in rows], [np.int64(b) for b in rhs]
        assert solve_rational_linear(*wide, 2) == want

    def test_empty_and_zero_column_systems(self):
        assert solve_rational_linear([], [], 0) == fraction_solve([], [])
        assert solve_rational_linear([{}], [0], 0) == fraction_solve([[]], [0])
        assert solve_rational_linear([{}], [1], 0).status == "inconsistent"

    def test_ragged_or_mismatched_input_raises(self):
        # a column index outside 0..ncols-1, either side
        with pytest.raises(ValueError):
            solve_rational_linear([{0: 1, 1: 2}, {2: 3}], [0, 0], 2)
        with pytest.raises(ValueError):
            solve_rational_linear([{-1: 3}], [0], 2)
        with pytest.raises(ValueError):
            solve_rational_linear([{0: 1}], [0, 0], 1)

    @settings(max_examples=200, deadline=None)
    @given(sparse_systems())
    def test_random_sparse_rows_match_the_oracle(self, system):
        rows, rhs, ncols = system
        assert solve_rational_linear(rows, rhs, ncols) == fraction_solve(dense_rows(rows, ncols), rhs)
