from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdhnf import (ConfigNotInW, PointConfigFp, RankOutOfRange,
                    catalecticant_corank, certify_regularity, fp_rank,
                    hilbert_from_points, random_config, rank_bound, regcert)
from cpdhnf.regcert import _PANEL, _fp_kernel, _grow_bound, _row_echelon


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


class TestBlockedRank:
    """fp_rank factors panels of columns and updates the rest by GEMM; the
    per-pivot elimination over the whole matrix and the pure-Python oracle
    are the references."""

    def test_matches_per_pivot_elimination(self):
        for p, M in _blocked_rank_cases(np.random.default_rng(14)):
            assert fp_rank(M, p) == _row_echelon(M, p)[0]
            assert fp_rank(M, p) == modular_rank(M, p)

    def test_full_reduction_path(self, monkeypatch):
        # below any bound, the trailing block is reduced in full before
        # every update
        rng = np.random.default_rng(15)
        monkeypatch.setattr(regcert, "_LAZY_LIMIT", 1)
        for p, M in _blocked_rank_cases(rng):
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

    def test_lazy_bound_stays_exact(self):
        # 300,000 full panels, 9.6 million columns, never allocated: only
        # the largest prime needs full reductions, and no bound reaches 2^52
        for p, expected in ((2, 0), (8191, 0), (32749, 2)):
            bound, reductions = p, 0
            for _ in range(300_000):
                bound, reduce_first = _grow_bound(bound, 32, p)
                reductions += reduce_first
                assert bound < 2 ** 52
            assert reductions == expected
        assert _grow_bound(8191, 32, 8191) == (8191 + 32 * 8191 ** 2, False)
        assert _grow_bound(2 ** 52 - 10, 1, 3) == (2 ** 52 - 1, False)
        assert _grow_bound(2 ** 52 - 9, 1, 3) == (3 + 9, True)


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
    rank, E, pivots, swaps, L = _row_echelon(M, p, reduced)
    A = np.asarray(M, dtype=np.int64) % p
    for i, j in swaps:
        A[[i, j]] = A[[j, i]]
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
        M = (lower @ upper) % p
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
