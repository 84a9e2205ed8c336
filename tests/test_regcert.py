from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdhnf import (ConfigNotInW, PointConfigFp, RankOutOfRange,
                    certify_regularity, fp_rank, hilbert_from_points,
                    random_config, rank_bound, regcert)
from cpdhnf.bigraded import hilbert_dim, shift_table
from cpdhnf.regcert import (_GATHER_BLOCK, _PANEL, _fp_kernel, _row_echelon, _shift_corank,
                             _unit_upper_inverse)

from conftest import NO_SCIPY, run_fresh
from oracles import catalecticant_corank


def rational_rank(M):
    """Independent oracle: Gaussian elimination over exact rationals."""
    rows = [[Fraction(int(x)) for x in row] for row in np.atleast_2d(M)]
    rank = 0
    cols = len(rows[0]) if rows else 0
    row = 0
    for col in range(cols):
        piv = next((i for i in range(row, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[row], rows[piv] = rows[piv], rows[row]
        inv = 1 / rows[row][col]
        rows[row] = [inv * x for x in rows[row]]
        for i in range(len(rows)):
            if i != row and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[row])]
        rank += 1
        row += 1
    return rank


def modular_rank(M, p):
    """Independent oracle: Gaussian elimination mod p in Python integers,
    one pivot at a time, with every entry kept a residue."""
    rows = [[int(x) % p for x in row] for row in np.atleast_2d(M).tolist()]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        pivot = [x * inv % p for x in rows[rank][col:]]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i][col:] = [(a - f * b) % p for a, b in zip(rows[i][col:], pivot)]
        rank += 1
    return rank


class TestFpRank:
    def test_identity(self):
        assert fp_rank(np.eye(5, dtype=np.int64), 8191) == 5

    def test_duplicate_rows(self):
        M = np.array([[1, 2, 3], [1, 2, 3], [4, 5, 6]], dtype=np.int64)
        assert fp_rank(M, 8191) <= 2

    def test_against_rational_oracle(self):
        rng = np.random.default_rng(0)
        M = rng.integers(0, 50, size=(20, 30))
        # small entries, p large: no accidental characteristic-p drop
        assert fp_rank(M, 8191) == rational_rank(M)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rational_oracle_property(self, seed):
        rng = np.random.default_rng(seed)
        rows, cols = rng.integers(1, 7, size=2)
        # entries in {-1, 0, 1}: every minor is below the modulus by the
        # Hadamard bound, so the mod-p rank cannot drop and must agree
        M = rng.integers(-1, 2, size=(rows, cols))
        assert fp_rank(M % 8191, 8191) == rational_rank(M)

    def test_rejects_composite_modulus(self):
        with pytest.raises(ValueError):
            fp_rank(np.eye(2, dtype=np.int64), 8192)

    def test_huge_and_negative_entries(self):
        # float64 rounds entries this large, so they must be reduced mod p
        # in integer arithmetic before the conversion
        rng = np.random.default_rng(13)
        for p in (2, 3, 8191, 32749):
            M = rng.integers(-2 ** 63, 2 ** 63 - 1, size=(45, 80), dtype=np.int64)
            M[:, :3] = 2 ** 63 - 1
            M[0] = -2 ** 63
            assert fp_rank(M, p) == _row_echelon(M, p)[0]
            assert fp_rank(M.T, p) == _row_echelon(M, p)[0]
            assert fp_rank(M, p) == modular_rank(M, p)


def _blocked_rank_cases(rng):
    """Inputs several panels wide: full-rank, low-rank products, zero
    panels and zero columns, in wide and tall shapes."""
    for p in (2, 3, 8191, 32749):
        for rows, cols in ((40, 150), (150, 40), (97, 97), (70, 260)):
            yield p, rng.integers(0, p, size=(rows, cols))
            # the second rank falls short only after several panels, when
            # the trailing block has grown furthest from its residues
            for k in (int(rng.integers(1, min(rows, cols))), min(rows, cols) - 3):
                yield p, (rng.integers(0, p, size=(rows, k))
                          @ rng.integers(0, p, size=(k, cols))) % p
            M = rng.integers(0, p, size=(rows, cols))
            M[:, :min(cols, 70)] = 0
            M[:, rng.integers(0, cols, size=cols // 3)] = 0
            yield p, M
            M = rng.integers(0, p, size=(rows, cols))
            M[rng.integers(0, rows, size=rows // 2)] = 0
            yield p, M


def _spread_rank(rng, p, rows, cols, k):
    """A rows x cols matrix of rank at most k whose independent columns are
    spread over the whole width: every other column combines the ones before
    it, so most panels find fewer than _PANEL pivots."""
    fresh = np.sort(rng.choice(cols, size=k, replace=False))
    W = rng.integers(0, p, size=(k, cols)) * (fresh[:, None] < np.arange(cols))
    W[range(k), fresh] = 1
    return rng.integers(0, p, size=(rows, k)) @ (rng.integers(0, p, size=(k, k)) @ W % p) % p


class TestBlockedRank:
    """fp_rank factors panels of columns and updates the rest by GEMM; the
    per-pivot elimination over the whole matrix and the pure-Python oracle
    are the references."""

    def test_matches_per_pivot_elimination(self):
        for p, M in _blocked_rank_cases(np.random.default_rng(14)):
            assert fp_rank(M, p) == _row_echelon(M, p)[0]
            assert fp_rank(M, p) == modular_rank(M, p)

    def test_one_elimination_per_panel(self, monkeypatch):
        # the multipliers of the panel pass give the Schur update, so no
        # second elimination inverts the pivot block
        calls = []
        row_echelon = regcert._row_echelon

        def counted(M, p, reduced=False):
            calls.append(np.shape(M))
            return row_echelon(M, p, reduced)

        monkeypatch.setattr(regcert, "_row_echelon", counted)
        M = np.random.default_rng(16).integers(0, 8191, size=(3 * _PANEL + 5, 4 * _PANEL))
        assert fp_rank(M, 8191) == modular_rank(M, 8191) == 3 * _PANEL + 5
        assert len(calls) == 4
        assert all(cols == _PANEL for _, cols in calls)

    def test_several_outer_blocks(self):
        # every case spans several panels, so each panel's multipliers
        # update the columns of all the panels after it; _rank itself
        # transposes the tall cases
        for p, M in _blocked_rank_cases(np.random.default_rng(17)):
            assert fp_rank(M, p) == _row_echelon(M, p)[0]
            assert fp_rank(M, p) == modular_rank(M, p)
            if M.shape[0] > M.shape[1]:
                A = np.ascontiguousarray(M, dtype=np.float64)
                assert regcert._rank(A, p) == modular_rank(M, p)

    def test_pivots_spread_over_many_panels(self):
        # rank is lost inside panels, so many panels find fewer than _PANEL
        # pivots; with k = rows the rank is still full
        rng = np.random.default_rng(18)
        for p in (2, 8191, 32749):
            for rows, cols, k in ((150, 900, 120), (150, 900, 150), (300, 300, 250)):
                M = _spread_rank(rng, p, rows, cols, k)
                assert fp_rank(M, p) == _row_echelon(M, p)[0]
                assert fp_rank(M, p) == modular_rank(M, p)

    def test_zero_panels_skipped(self, monkeypatch):
        # two panels of zero columns, and the rows left over once the rank
        # is found, take no per-pivot pass
        p, rows, cols = 8191, 100, 12 * _PANEL
        M = _spread_rank(np.random.default_rng(19), p, rows, cols, 90)
        M[:, 2 * _PANEL:4 * _PANEL] = 0
        panels = []
        row_echelon = regcert._row_echelon

        def recorded(panel, p, reduced=False):
            panels.append(np.array(panel))
            return row_echelon(panel, p, reduced)

        monkeypatch.setattr(regcert, "_row_echelon", recorded)
        assert fp_rank(M, p) == modular_rank(M, p) == 90
        assert all(np.any(panel % p) for panel in panels)
        assert len(panels) <= cols // _PANEL - 2


def _panels(rng):
    """Tall, wide and square panels, full-rank, rank-deficient and with zero
    columns."""
    for p in (2, 3, 8191, 32749):
        for rows, cols in ((150, 32), (20, 60), (48, 48)):
            yield p, rng.integers(0, p, size=(rows, cols))
            k = int(rng.integers(1, min(rows, cols)))
            yield p, rng.integers(0, p, size=(rows, k)) @ rng.integers(0, p, size=(k, cols))
            M = rng.integers(0, p, size=(rows, cols))
            M[:, rng.integers(0, cols, size=cols // 2)] = 0
            yield p, M


def _check_multipliers(M, p, reduced=False):
    """Checks the relations _row_echelon promises for M and returns its rank."""
    rank, E, pivots, order, L = _row_echelon(M, p, reduced)
    A = (np.asarray(M, dtype=np.int64) % p)[order]
    assert L.shape == (A.shape[0], rank) and L.min() >= 0 and L.max() < p
    # rows at and beyond the rank are -L times the pivot rows ...
    assert np.all((A[rank:] + L[rank:] @ A[:rank]) % p == 0)
    # ... and the echelon rows are L times them, with unit pivots
    assert np.array_equal(E[:rank], (L[:rank] @ A[:rank]) % p)
    assert np.all(E[np.arange(rank), pivots] == 1) and np.all(E[rank:] == 0)
    if reduced:
        assert np.array_equal(E[:rank, pivots], np.eye(rank, dtype=np.int64))
    return rank


class TestRowEchelon:
    @pytest.mark.parametrize("reduced", [False, True])
    def test_multipliers_reproduce_the_panel(self, reduced):
        for p, M in _panels(np.random.default_rng(17)):
            assert _check_multipliers(M, p, reduced) == modular_rank(M, p)

    def test_worst_growth_stays_exact(self):
        # M = L U with every multiplier and every entry right of the pivot
        # in every normalized pivot row equal to p - 1, so no update cancels
        # another: after t pivots the unreduced entries come near t (p-1)^2
        p, rank = 32749, 80
        lower = np.tril(np.full((100, rank), p - 1), -1)
        lower[np.arange(rank), np.arange(rank)] = 1
        upper = np.triu(np.full((rank, 120), p - 1), 1)
        upper[np.arange(rank), np.arange(rank)] = 1
        cases = [((lower @ upper) % p, rank)]
        # fp_rank's worst case, a rank of eight panels: each panel's pivot
        # rows are I on the panel and (p-1)/2, the largest reduced factor,
        # beyond it, and every later row adds them all, so every multiplier
        # is p - 1.  Each panel adds _PANEL (p-1)^2 / 2 to the trailing
        # entries with no reduction, 112 p^2 by the last panel
        rank = 8 * _PANEL
        row_block, col_block = np.arange(rank + 8) // _PANEL, np.arange(rank + 16) // _PANEL
        lower = (row_block[:, None] > row_block[:rank]) + np.eye(rank + 8, rank, dtype=np.int64)
        upper = np.where(col_block > row_block[:rank, None], (p - 1) // 2,
                         np.eye(rank, rank + 16, dtype=np.int64))
        cases.append(((lower @ upper) % p, rank))
        for M, rank in cases:
            assert _check_multipliers(M, p) == modular_rank(M, p) == rank
            assert fp_rank(M, p) == rank


class TestFpKernel:
    def test_annihilates_evaluation_matrix(self):
        for m, n, r, seed in [(2, 2, 4, 1), (6, 4, 20, 2), (3, 5, 9, 3)]:
            config = random_config(m, n, r, seed=seed)
            w = config.w_matrix()
            basis = _fp_kernel(w, config.p)
            cols = (m + 1) * (n + 1)
            assert basis.shape == (cols - fp_rank(w, config.p), cols)
            assert np.all((w @ basis.T) % config.p == 0)
            assert fp_rank(basis, config.p) == basis.shape[0]


    def test_distinct_unit_leading_entries(self):
        # the kernel, read as forms, is in echelon form for the monomial
        # order, with the row count of the plain elimination; small primes
        # and repeated points give rank-deficient evaluation matrices
        rng = np.random.default_rng(20)
        deficient = 0
        for trial in range(60):
            p = (2, 3, 8191)[trial % 3]
            m, n = (int(x) for x in rng.integers(1, 6, size=2))
            r = int(rng.integers(1, (m + 1) * (n + 1)))
            config = random_config(m, n, r, p, seed=trial)
            w = config.w_matrix()
            if trial % 4 == 0:
                w[-1] = w[0]
            basis = _fp_kernel(w, p)
            rank = _row_echelon(w, p)[0]
            deficient += rank < r
            assert basis.shape == (w.shape[1] - rank, w.shape[1])
            assert np.all((w @ basis.T) % p == 0)
            lead = (basis != 0).argmax(axis=1)
            assert len(set(lead.tolist())) == len(lead)
            assert np.all(basis[np.arange(len(lead)), lead] == 1)
        assert deficient > 0


def dense_shift_corank(forms, m, n, degree, p):
    """Oracle: the shift matrix built dense, with column j * nshift + i
    holding form j at the rows of shift i, and eliminated by ``_rank``."""
    table = shift_table(m, n, degree)
    nrows = hilbert_dim(m, n, *degree)
    ncols = len(forms) * len(table)
    cols = np.arange(ncols).reshape(len(forms), len(table), 1)
    R = np.zeros((nrows, ncols))
    R[table, cols] = np.asarray(forms)[:, None, :] % p
    return nrows - regcert._rank(R, p)


def _random_cells(rng, count):
    """Seeded (p, m, n, r, degree) with m, n <= 5 and d, e <= 3."""
    for trial in range(count):
        p = (2, 3, 8191)[trial % 3]
        m, n = (int(x) for x in rng.integers(1, 6, size=2))
        r = int(rng.integers(1, (m + 1) * (n + 1)))
        d, e = (int(x) for x in rng.integers(1, 4, size=2))
        yield p, m, n, r, (d, e)


class TestShiftCorank:
    """The leading-row Schur complement against the dense shift matrix."""

    def test_shift_table_rows_increase(self):
        # the premise of the split: the basis order is a monomial order
        for m in range(1, 6):
            for n in range(1, 6):
                for degree in [(d, e) for d in range(1, 4) for e in range(1, 4)]:
                    assert np.all(np.diff(shift_table(m, n, degree), axis=1) > 0)

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(21)
        deficient = 0
        for p, m, n, r, degree in _random_cells(rng, 150):
            config = random_config(m, n, r, p, seed=int(rng.integers(1 << 30)))
            w = config.w_matrix()
            if rng.random() < 0.25:
                # a repeated point: the evaluation rank falls below r
                w[-1] = w[0]
            forms = _fp_kernel(w, p)
            deficient += w.shape[1] - len(forms) < r
            expected = dense_shift_corank(forms, m, n, degree, p)
            assert _shift_corank(forms, m, n, degree, p) == expected
        assert deficient > 10

    def test_forms_not_in_echelon_form(self):
        # forms that share leading entries, and dependent forms: the split
        # needs only a unit first nonzero in each form
        rng = np.random.default_rng(22)
        for p, m, n, r, degree in _random_cells(rng, 100):
            s = int(rng.integers(1, 8))
            forms = rng.integers(0, p, size=(s, (m + 1) * (n + 1)))
            forms[:, :int(rng.integers(0, (m + 1) * (n + 1) - 1))] = 0
            forms[-1] = forms[0] * 2
            forms = forms[(forms % p).any(axis=1)] % p
            lead = forms[np.arange(len(forms)), (forms != 0).argmax(axis=1)]
            forms = forms * np.array([pow(int(c), p - 2, p) for c in lead])[:, None] % p
            expected = dense_shift_corank(forms, m, n, degree, p)
            assert _shift_corank(forms, m, n, degree, p) == expected

    def test_every_row_leading(self):
        # the forms are every monomial, the kernel of no points: every row
        # of the shift matrix is a leading row and Q is empty
        for m, n, degree in [(1, 1, (2, 1)), (2, 3, (3, 2)), (4, 2, (1, 3))]:
            forms = np.eye((m + 1) * (n + 1), dtype=np.int64)
            for p in (2, 8191):
                assert _shift_corank(forms, m, n, degree, p) == 0
                assert dense_shift_corank(forms, m, n, degree, p) == 0

    def test_every_column_pivot(self):
        # at degree (1, 1) there is one shift, so every column leads at its
        # own row and K is empty
        for m, n, r in [(2, 2, 4), (4, 3, 7), (5, 5, 20)]:
            for p in (3, 8191):
                w = random_config(m, n, r, p, seed=r).w_matrix()
                forms = _fp_kernel(w, p)
                value = _shift_corank(forms, m, n, (1, 1), p)
                assert value == dense_shift_corank(forms, m, n, (1, 1), p)
                assert value == w.shape[1] - len(forms)

    @pytest.mark.parametrize("p", [2, 3, 8191, 32749])
    def test_unit_upper_inverse(self, p):
        rng = np.random.default_rng(p)
        for b in (1, 2, 3, 17, _GATHER_BLOCK - 1, _GATHER_BLOCK):
            U = np.triu(rng.integers(0, p, size=(b, b)), 1) + np.eye(b, dtype=np.int64)
            inverse = _unit_upper_inverse(U.astype(np.float64), p)
            assert np.all(inverse == np.round(inverse)) and np.abs(inverse).max() <= p
            product = (U @ inverse.astype(np.int64)) % p
            assert np.array_equal(product, np.eye(b, dtype=np.int64))


class TestHilbertFromPoints:
    def test_square_small_table(self):
        config = random_config(2, 2, 4, seed=1)
        for degree in [(1, 1), (2, 1), (1, 2), (2, 2)]:
            assert hilbert_from_points(config, degree) == 4

    def test_unbalanced_table(self):
        config = random_config(6, 2, 12, seed=2)
        expected = {(1, 1): 12, (2, 1): 21, (3, 1): 12, (1, 2): 15, (1, 5): 12}
        for degree, value in expected.items():
            assert hilbert_from_points(config, degree) == value

    def test_blocked_size_value(self):
        # a 1260 x 2100 shift matrix, many panels wide
        for seed in range(3):
            assert hilbert_from_points(random_config(6, 4, 20, seed=seed), (3, 2)) == 20

    def test_bilinear_degree_equals_point_count(self):
        for m, n, r, seed in [(3, 2, 5, 3), (4, 4, 9, 4), (5, 2, 8, 5)]:
            config = random_config(m, n, r, seed=seed)
            assert hilbert_from_points(config, (1, 1)) == r

    def test_dependent_configuration_rejected(self):
        base = random_config(2, 2, 1, seed=6)
        dup = PointConfigFp(base.p,
                            np.repeat(base.beta, 2, axis=1),
                            np.repeat(base.gamma, 2, axis=1))
        with pytest.raises(ConfigNotInW):
            hilbert_from_points(dup, (2, 1))
        # one point repeated among others, also at small primes
        for m, n, r, p in [(2, 2, 3, 2), (3, 2, 5, 3), (4, 4, 9, 8191)]:
            base = random_config(m, n, r - 1, p, seed=r)
            dup = PointConfigFp(p, np.hstack([base.beta, base.beta[:, :1]]),
                                np.hstack([base.gamma, base.gamma[:, :1]]))
            with pytest.raises(ConfigNotInW):
                hilbert_from_points(dup, (2, 1))

    def test_lower_bound_never_violated(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            m, n = rng.integers(1, 5, size=2)
            r = rng.integers(1, max(m * n, 2))
            d, e = rng.integers(1, 4, size=2)
            config = random_config(m, n, r, seed=int(rng.integers(1 << 30)))
            hf = hilbert_from_points(config, (int(d), int(e)))
            h11 = (m + 1) * (n + 1)
            import math
            hde = math.comb(m + d, d) * math.comb(n + e, e)
            hshift = math.comb(m + d - 1, d - 1) * math.comb(n + e - 1, e - 1)
            assert hf >= max(r, hde + r * hshift - h11 * hshift)

    def test_excluded_region_exceeds_point_count(self):
        # whenever the rational bound falls below r, the value must exceed r
        cases = [(6, 2, 12, (2, 1)), (4, 3, 11, (2, 1)), (6, 2, 12, (1, 2))]
        for m, n, r, degree in cases:
            assert rank_bound(m, n, *degree) < r <= m * n
            config = random_config(m, n, r, seed=8)
            assert hilbert_from_points(config, degree) > r


class TestCatalecticantCorank:
    def test_worked_example_corank(self):
        config = random_config(3, 2, 6, seed=9)
        assert catalecticant_corank(config) == 6

    def test_known_null_vectors(self):
        config = random_config(3, 2, 6, seed=10)
        m1, r, p = 4, 6, config.p
        # stacked diagonal blocks of first-factor coordinates annihilate A(Z)
        null = np.zeros((m1 * r, r), dtype=np.int64)
        for q in range(m1):
            null[q * r:(q + 1) * r] = np.diag(config.beta[q])
        npairs = (m1 * 3) // 2
        A = np.zeros((npairs * 3, m1 * r), dtype=np.int64)
        row = 0
        for q in range(m1):
            for q2 in range(q + 1, m1):
                band = slice(row * 3, (row + 1) * 3)
                A[band, q * r:(q + 1) * r] = config.gamma * config.beta[q2]
                A[band, q2 * r:(q2 + 1) * r] = -(config.gamma * config.beta[q])
                row += 1
        assert np.all((A @ null) % p == 0)
        assert catalecticant_corank(config) >= r

    def test_agrees_with_hilbert_value(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            m, n = rng.integers(1, 5, size=2)
            r = int(rng.integers(1, max(m * n, 2) + 1))
            config = random_config(int(m), int(n), r, seed=trial)
            assert catalecticant_corank(config) == hilbert_from_points(config, (2, 1))


class TestCertifyRegularity:
    def test_square_cell_success(self):
        cert = certify_regularity(2, 2, 2, 4, p=8191)
        assert cert["success"] and cert["hf"] == 4 and cert["rankN"] == 4

    def test_worked_cell_success(self):
        cert = certify_regularity(3, 2, 2, 6, p=8191)
        assert cert["success"]

    def test_out_of_range_rejected(self):
        # the degree-(2,1) bound is 21/2 < 12
        with pytest.raises(RankOutOfRange):
            certify_regularity(6, 2, 2, 12)

    def test_rank_above_mn_rejected(self):
        with pytest.raises(RankOutOfRange):
            certify_regularity(2, 2, 2, 5)

    def test_sizes_below_one_rejected(self):
        # checked before rank_bound divides by zero (m = 0) and before w is
        # reshaped from no points (r = 0)
        for args, name in [((0, 2, 2, 1), "m"), ((2, 0, 2, 1), "n"),
                           ((2, 2, 0, 1), "d"), ((2, 2, 2, 0), "r")]:
            with pytest.raises(ValueError, match=f"^{name} must be at least 1"):
                certify_regularity(*args)

    def test_certificate_schema(self):
        cert = certify_regularity(3, 2, 2, 6)
        assert cert["format"] == "cpdhnf-cert v1"
        assert set(cert) >= {"m", "n", "d", "r", "p", "seed", "rankN", "hf", "success"}

    def test_higher_degree_cell(self):
        # rank 12 at (6, 2) needs degree 3
        cert = certify_regularity(6, 2, 3, 12, p=8191)
        assert cert["success"] and cert["hf"] == 12

    @pytest.mark.parametrize("p", [2, 3])
    def test_rank_from_kernel_matches_fp_rank(self, p):
        # tiny primes give rank-deficient evaluation matrices on some seeds
        deficient = 0
        for seed in range(12):
            cert = certify_regularity(2, 2, 2, 4, p=p, trials=1, seed=seed)
            w = random_config(2, 2, 4, p, seed=cert["seed"]).w_matrix()
            assert cert["rankN"] == fp_rank(w, p)
            deficient += cert["rankN"] < 4
        assert deficient > 0


def test_certifier_runs_without_scipy():
    """Certificates, Hilbert values and Z_p ranks never load scipy; the
    first decomposition in the same process loads it and succeeds."""
    run_fresh("""
import sys
import numpy as np
import cpdhnf
assert cpdhnf.certify_regularity(5, 4, 2, 12)["success"]
assert cpdhnf.hilbert_from_points(cpdhnf.random_config(3, 2, 4), (2, 1)) == 4
assert cpdhnf.fp_rank(np.arange(12).reshape(3, 4)) == 2
""" + NO_SCIPY + """
t, _ = cpdhnf.random_cpd((12, 7, 3), 12, seed=36)
assert cpdhnf.backward_error(t, cpdhnf.decompose(t, 12)) <= 1e-12
assert "scipy.linalg" in sys.modules
""")
