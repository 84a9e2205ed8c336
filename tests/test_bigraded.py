import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdhnf import (DecomposeOptions, DegreePlan, RankOutOfRange, hilbert_dim,
                    monomial_basis, rank_bound, select_degree)
from cpdhnf.bigraded import Bidegree, _plan, _shift_table, check_rank, monomial_index, shift_table

from oracles import exponent_rows, resolve_degree, select_degree_flagged, shift_table_rows


def loop_shift_table(m, n, degree):
    """Reference: each shift monomial times each x_k y_l, looked up one
    tuple at a time in a dict over the enumerated (d, e) basis."""
    d, e = degree
    index = {ab: i for i, ab in enumerate(monomial_basis(m, n, degree).exponents)}
    rows = []
    for a1, b1 in monomial_basis(m, n, (d - 1, e - 1)).exponents:
        row = []
        for k in range(m + 1):
            ak = tuple(x + (i == k) for i, x in enumerate(a1))
            for l in range(n + 1):
                row.append(index[(ak, tuple(y + (j == l) for j, y in enumerate(b1)))])
        rows.append(row)
    return np.array(rows, dtype=np.int64)


class TestHilbertDim:
    @pytest.mark.parametrize("args,expected", [
        ((3, 2, 1, 1), 12),
        ((3, 2, 1, 0), 4),
        ((2, 2, 2, 1), 18),
        ((2, 2, 1, 0), 3),
        ((6, 2, 1, 2), 42),
        ((0, 0, 0, 0), 1),
    ])
    def test_values(self, args, expected):
        assert hilbert_dim(*args) == expected

    def test_resultant_shape_example(self):
        # the 18 x 15 shift matrix: 18 rows, 5 forms x 3 shifts columns
        assert hilbert_dim(2, 2, 2, 1) == 18
        assert 5 * hilbert_dim(2, 2, 1, 0) == 15

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            hilbert_dim(2, 2, -1, 0)

    def test_exact_big_integers(self):
        # must not overflow or round
        assert hilbert_dim(1049, 5, 2, 1) == math.comb(1051, 2) * 6


class TestRankBound:
    def test_known_values(self):
        assert rank_bound(6, 2, 2, 1) == Fraction(21, 2)
        assert rank_bound(6, 2, 3, 1) == Fraction(112, 9)

    def test_infinite_at_bilinear_degree(self):
        assert rank_bound(5, 3, 1, 1) == math.inf
        assert rank_bound(2, 2, 1, 1) == math.inf

    def test_closed_form_oracle(self):
        # independent closed form for e = 1 in exact rationals
        for m in range(1, 11):
            for n in range(1, 11):
                for d in range(2, 7):
                    c = math.comb(m + d - 1, d - 1)
                    closed = Fraction(c, c - 1) * (
                        Fraction((m + 1) * (n + 1)) - Fraction(n + 1, d) * (m + d)
                    )
                    assert rank_bound(m, n, d, 1) == closed

    def test_symmetric_roles(self):
        assert rank_bound(4, 2, 1, 3) == rank_bound(2, 4, 3, 1)

    @pytest.mark.parametrize("args, name", [((0, 2, 2, 1), "m"), ((2, 0, 2, 1), "n"),
                                            ((0, 2, 1, 1), "m"), ((2, -1, 1, 3), "n")])
    def test_sizes_below_one_rejected(self, args, name):
        with pytest.raises(ValueError, match=f"^{name} must be at least 1, got {min(args[:2])}$"):
            rank_bound(*args)


class TestMonomialBasis:
    def test_bilinear_order_matches_flattening_columns(self):
        basis = monomial_basis(2, 2, (1, 1))
        labels = [(a.index(1), b.index(1)) for a, b in basis.exponents]
        assert labels == [(k, l) for k in range(3) for l in range(3)]

    def test_degree21_leading_entries(self):
        basis = monomial_basis(2, 2, (2, 1))
        first = basis.exponents[:3]
        assert [a for a, _ in first] == [(2, 0, 0)] * 3
        assert [b for _, b in first] == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        # the x-blocks descend lexicographically
        xs = [a for a, _ in basis.exponents[::3]]
        assert xs == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]

    def test_degree_zero(self):
        basis = monomial_basis(1, 1, (0, 0))
        assert len(basis) == 1
        assert basis.exponents == (((0, 0), (0, 0)),)

    def test_index_of_inverts_enumeration(self):
        basis = monomial_basis(3, 2, (2, 2))
        for i, (a, b) in enumerate(basis.exponents):
            assert basis.index_of(a, b) == i

    def test_index_of_rejects_wrong_degree(self):
        basis = monomial_basis(2, 2, (2, 1))
        with pytest.raises(ValueError):
            basis.index_of((1, 0, 0), (1, 0, 0))

    def test_monomial_index_inverts_enumeration(self):
        # m = 49 at degree 2 would overflow int64 if rows were packed as
        # base-(d+1) numbers
        for m, n, degree in [(3, 2, (2, 2)), (4, 1, (0, 3)), (49, 2, (2, 1))]:
            basis = monomial_basis(m, n, degree)
            assert np.array_equal(monomial_index(m, n, degree, exponent_rows(m, n, degree)),
                                  np.arange(len(basis)))

    @pytest.mark.parametrize("row", [
        (1, 0, 0, 1, 0, 0),     # degree (1, 1), not (2, 1)
        (3, -1, 0, 1, 0, 0),    # right degree, negative entry
        (2, 0, 0, 0, 0, 0),     # y-degree 0
        (2, 0, 0, 1, 0),        # too short
    ])
    def test_monomial_index_rejects_rows_outside_basis(self, row):
        with pytest.raises(ValueError):
            monomial_index(2, 2, (2, 1), np.array([row]))

    def test_index_of_rejects_misaligned_blocks(self):
        basis = monomial_basis(2, 2, (2, 1))
        with pytest.raises(ValueError):
            basis.index_of((2, 0, 0, 1), (0, 0))

    @given(m=st.integers(1, 8), n=st.integers(1, 8),
           d=st.integers(1, 6), e=st.integers(0, 3))
    @settings(max_examples=30, deadline=None)
    def test_size_matches_hilbert_dim(self, m, n, d, e):
        assert len(monomial_basis(m, n, (d, e))) == hilbert_dim(m, n, d, e)


class TestShiftTable:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(20)
        cases = {(2, 2, (2, 1)), (6, 4, (3, 2)), (5, 5, (3, 3)), (1, 6, (2, 4))}
        while len(cases) < 30:
            m, n, d, e = (int(x) for x in rng.integers(1, [7, 7, 5, 5]))
            if hilbert_dim(m, n, d, e) <= 20000:
                cases.add((m, n, (d, e)))
        assert sum(e >= 2 and d >= 2 for _, _, (d, e) in cases) >= 5
        for m, n, degree in sorted(cases):
            table = shift_table(m, n, degree)
            assert table.dtype == np.int64
            assert np.array_equal(table, loop_shift_table(m, n, degree)), (m, n, degree)

    def test_shared_table_is_read_only(self):
        table = shift_table(3, 2, (2, 1))
        assert shift_table(3, 2, (2, 1)) is table
        # one cache entry however the default columns are spelled
        assert shift_table(3, 2, (2, 1), (1, 1)) is table
        assert shift_table(3, 2, [2, 1], columns=[1, 1]) is table
        with pytest.raises(ValueError):
            table[0, 0] = 1


    def test_matches_whole_row_ranking(self):
        degrees = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (3, 2), (4, 1)]
        for m, n, degree in itertools.product(range(1, 6), range(1, 6), degrees):
            for columns in [(1, 1), (0, 1), (1, 0), (2, 1)]:
                if min(degree[0] - columns[0], degree[1] - columns[1]) < 0:
                    continue
                expected = shift_table_rows(m, n, degree, columns)
                assert np.array_equal(shift_table(m, n, degree, columns), expected), \
                    (m, n, degree, columns)

    def test_peak_memory_stays_near_the_table(self):
        """The x and y products are ranked apart, so no intermediate holds
        an exponent row per table entry."""
        tracemalloc.start()
        try:
            table = _shift_table.__wrapped__(20, 20, Bidegree(4, 1), Bidegree(1, 1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (hilbert_dim(20, 20, 3, 0), 21 * 21)
        assert peak <= 4 * table.nbytes

    @pytest.mark.parametrize("m, n", [(1, 1), (2, 4), (5, 3)])
    def test_pencil_columns_index_the_bilinear_piece(self, m, n):
        """At (1, 1) with y-variable columns, row k holds x_k y_l for every
        l: the reshape of the bilinear piece to (m+1) x (n+1)."""
        expected = np.arange((m + 1) * (n + 1)).reshape(m + 1, n + 1)
        assert np.array_equal(shift_table(m, n, (1, 1), (0, 1)), expected)

    def test_columns_of_other_degrees_match_the_basis(self):
        # (2, 1) columns on the degree-(3, 2) basis leave (1, 1) shifts
        m, n = 3, 2
        index = {ab: i for i, ab in enumerate(monomial_basis(m, n, (3, 2)).exponents)}
        table = shift_table(m, n, (3, 2), (2, 1))
        for i, (a1, b1) in enumerate(monomial_basis(m, n, (1, 1)).exponents):
            for j, (a2, b2) in enumerate(monomial_basis(m, n, (2, 1)).exponents):
                ab = (tuple(map(sum, zip(a1, a2))), tuple(map(sum, zip(b1, b2))))
                assert table[i, j] == index[ab]


class TestSelectDegree:
    def test_unbalanced_example(self):
        plan = select_degree(6, 2, 12, 11)
        assert tuple(plan.degree) == (3, 1)
        assert plan.path == "normal-form"

    def test_square_small_example(self):
        plan = select_degree(2, 2, 4, 3)
        assert plan.path == "normal-form"
        assert tuple(plan.degree) == (2, 1)
        assert (plan.rows, plan.cols) == (18, 15)

    def test_pencil_when_rank_small(self):
        plan = select_degree(5, 4, 4, 9, path="auto")
        assert plan.path == "pencil"
        assert tuple(plan.degree) == (1, 1)

    def test_rank_out_of_range(self):
        with pytest.raises(RankOutOfRange):
            select_degree(2, 2, 5, 99)
        with pytest.raises(RankOutOfRange):
            select_degree(6, 2, 13, 6)

    def test_swapped_branch_when_cheaper(self):
        # tall-and-skinny second factor: raising the y-degree gives a much
        # smaller matrix at the same raised degree
        plan = select_degree(342, 5, 1000, 1049)
        assert tuple(plan.degree) == (1, 2)
        assert plan.rows == hilbert_dim(342, 5, 1, 2) == 7203

    def test_minimality_of_degree(self):
        for m, n, r, ell in [(6, 2, 12, 20), (9, 4, 30, 40), (7, 3, 16, 30)]:
            plan = select_degree(m, n, r, ell, path="normal-form")
            d, e = plan.degree
            if d >= 2:
                assert rank_bound(m, n, d, e) >= r
                if d >= 3:
                    assert rank_bound(m, n, d - 1, 1) < r
            else:
                assert rank_bound(m, n, d, e) >= r
                if e >= 3:
                    assert rank_bound(m, n, 1, e - 1) < r

    def test_never_selects_excluded_region(self):
        # degrees whose bound falls below the rank are never returned
        for m, n, ell in [(4, 3, 30), (6, 2, 30), (5, 5, 40)]:
            for r in range(2, m * n + 1):
                try:
                    plan = select_degree(m, n, r, ell, path="normal-form")
                except RankOutOfRange:
                    continue
                assert rank_bound(m, n, *plan.degree) >= r

    def test_forced_degree_skips_the_range_check(self):
        # the (3, 3, 2) core has m*n = 2 < 3, yet a forced (2, 1), the
        # automatic pencil and the normal form all plan it: the rank bounds
        # of (2, 1) and (1, 2) both reach 3, and (1, 2) is the smaller
        assert select_degree(2, 1, 3, 2, degree=(2, 1)) == _plan(2, 1, 3, (2, 1))
        assert select_degree(2, 1, 3, 2).path == "pencil"
        assert select_degree(2, 1, 3, 2, path="normal-form") == _plan(2, 1, 3, (1, 2))

    def test_pencil_above_its_rank(self):
        for kwargs in [{"path": "pencil"}, {"degree": (1, 1)}]:
            with pytest.raises(RankOutOfRange, match=r"^pencil degree \(1, 1\) needs rank <= 6, got 8$"):
                select_degree(5, 4, 8, 8, **kwargs)

    def test_matches_the_rules_it_replaces(self):
        """Every compressed shape with m, n <= 7, every admissible rank and
        the two above it, each path and forced degree: the same plan, or
        the same error type and message, wherever the old rules did not
        stop at their range check r <= min(l+1, m*n).  Where they did, the
        plan is the best of every (d, 1) and (1, e) in the search whose
        rank bound reaches r, or RankOutOfRange when r > l+1 or none does."""
        degrees = [None, (1, 1), (2, 1), (1, 2), (2, 2), (3, 1)]
        cases, flipped = 0, {"plan": 0, "error": 0}
        for m, n in itertools.product(range(1, 8), repeat=2):
            for ell in range(0, 9):
                for r in range(1, min(ell + 1, m * n) + 3):
                    for path, degree in itertools.product(["auto", "pencil", "normal-form"], degrees):
                        try:
                            options = DecomposeOptions(degree=degree, path=path)
                        except ValueError:
                            continue
                        cases += 1
                        expected = _outcome(lambda: _reference_plan(options, r, m, n, ell))
                        got = _outcome(lambda: select_degree(m, n, r, ell, degree, path))
                        if expected[0] == "RankOutOfRange" and "min(l+1, m*n)" in expected[1]:
                            expected = _outcome(lambda: _best_reaching_plan(m, n, r, ell))
                            planned = isinstance(expected, DegreePlan)
                            flipped["plan" if planned else "error"] += 1
                            if not planned:
                                expected, got = expected[0], got[0]
                        assert got == expected, (m, n, r, ell, path, degree)
        assert cases > 20000
        assert min(flipped.values()) > 0, flipped

    def test_every_validated_shape_plans_its_core(self):
        """Every order-3 shape with 2 <= dims <= 10 and 2 <= r <= min(l+1,
        m*n) plans its compressed core under "auto" and "normal-form", at a
        degree whose rank bound reaches r, including the cores that
        compression leaves with m*n < r."""
        below = 0
        for l1, m1, n1 in itertools.product(range(2, 11), repeat=3):
            for r in range(2, min(l1, (m1 - 1) * (n1 - 1)) + 1):
                lc, mc, nc = (min(dim, r) for dim in (l1, m1, n1))
                below += (mc - 1) * (nc - 1) < r
                for path in ("auto", "normal-form"):
                    plan = select_degree(mc - 1, nc - 1, r, lc - 1, path=path)
                    assert rank_bound(mc - 1, nc - 1, *plan.degree) >= r, (l1, m1, n1, r, path)
        assert below > 0

    def test_default_matches_the_flagged_selection(self):
        for m, n, ell in itertools.product(range(1, 8), range(1, 8), range(0, 9)):
            for r in range(1, min(ell + 1, m * n) + 1):
                assert select_degree(m, n, r, ell) == select_degree_flagged(m, n, r, ell)


def _reference_plan(options, r, m, n, ell):
    degree, path = resolve_degree(options, r, m + 1, n + 1, ell + 1)
    plan = _plan(m, n, r, degree)
    assert plan.path == path
    return plan


def _best_reaching_plan(m, n, r, ell):
    if r > ell + 1:
        raise RankOutOfRange("rank above l+1")
    plans = [_plan(m, n, r, deg) for deg in [(d, 1) for d in range(2, n + 2)]
             + [(1, e) for e in range(2, m + 2)] if rank_bound(m, n, *deg) >= r]
    if not plans:
        raise RankOutOfRange("no degree reaches the rank")
    return min(plans, key=lambda plan: (max(plan.degree), plan.rows * plan.cols))


def _outcome(call):
    try:
        return call()
    except (RankOutOfRange, ValueError) as exc:
        return type(exc).__name__, str(exc)


class TestCheckRank:
    def test_message(self):
        with pytest.raises(RankOutOfRange) as exc:
            check_rank((5, 4, 3), 20)
        assert str(exc.value) == "rank 20 exceeds min(l+1, m*n) = 5 for shape (5, 4, 3)"

    @pytest.mark.parametrize("shape, largest", [((5, 4, 3), 5), ((12, 7, 3), 12), ((9, 3, 3), 4)])
    def test_largest_rank_in_range(self, shape, largest):
        check_rank(shape, largest)
        with pytest.raises(RankOutOfRange):
            check_rank(shape, largest + 1)
