import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from cpdhnf import (COMPLEX, REAL, BilinearSystem, CorankMismatch,
                    FlatteningRankMismatch, build_resultant, evaluate,
                    flatten_mode1, jacobian, kernel_flattening, left_nullspace,
                    monomial_basis, polysys, random_cpd)
from cpdhnf.bigraded import shift_table
from cpdhnf.config import EIGS_MAXITER, EIGS_TOL, SEP_RATIO
from cpdhnf.linalg import subspace_distance
from cpdhnf.tensors import add_noise

from conftest import (GOLDEN_BETAS, GOLDEN_FLATTENING, GOLDEN_GAMMAS,
                      GOLDEN_KERNEL, golden_resultant_dense)


def system_from_points(m, n, r, seed=0):
    """Forms vanishing at r random points, plus the points themselves."""
    rng = np.random.default_rng(seed)
    betas = rng.standard_normal((m + 1, r))
    gammas = rng.standard_normal((n + 1, r))
    w = (betas.T[:, :, None] * gammas.T[:, None, :]).reshape(r, -1)
    kernel = np.linalg.svd(w, full_matrices=True)[2][r:].conj()
    return BilinearSystem(kernel.reshape(-1, m + 1, n + 1)), betas, gammas


class TestBilinearSystem:
    def test_single_form_gets_a_leading_axis(self):
        f = np.arange(12.0).reshape(3, 4)
        system = BilinearSystem(f)
        assert (system.s, system.m, system.n) == (1, 2, 3)
        assert np.array_equal(system.coeffs[0], f)

    @pytest.mark.parametrize("shape", [(), (5,), (2, 3, 4, 5)])
    def test_other_ndim_rejected(self, shape):
        with pytest.raises(ValueError):
            BilinearSystem(np.zeros(shape))


class TestKernelFlattening:
    def test_golden_span(self, golden_tensor):
        system = kernel_flattening(flatten_mode1(golden_tensor), 4, (3, 3))
        assert system.s == 5
        found = system.coeffs.reshape(5, 9)
        assert subspace_distance(found, GOLDEN_KERNEL) <= 1e-12
        gram = found @ found.conj().T
        assert np.allclose(gram, np.eye(5), atol=1e-12)

    def test_wrong_rank_rejected(self, golden_tensor):
        flat = flatten_mode1(golden_tensor)
        with pytest.raises(FlatteningRankMismatch):
            kernel_flattening(flat, 3, (3, 3))
        with pytest.raises(FlatteningRankMismatch):
            kernel_flattening(flat, 5, (3, 3))

    def test_full_rank_square_gives_empty_system(self):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((4, 4))
        system = kernel_flattening(M, 4, (2, 2))
        assert system.s == 0

    def test_forms_vanish_at_generating_points(self):
        t, dec = random_cpd((7, 4, 3), 6, seed=21)
        system = kernel_flattening(flatten_mode1(t), 6, (4, 3))
        assert system.s == 6
        for i in range(6):
            res = evaluate(system, dec.factors[1][:, i], dec.factors[2][:, i])
            assert np.linalg.norm(res) <= 1e-12 * np.linalg.norm(dec.factors[1][:, i])


class TestBuildResultant:
    def test_golden_entry_for_entry(self, golden_system):
        res = build_resultant(golden_system, (2, 1))
        assert res.shape == (18, 15)
        assert np.array_equal(res.toarray(), golden_resultant_dense())

    def test_column_structural_count(self, golden_system):
        res = build_resultant(golden_system, (2, 1))
        nnz_per_col = np.diff(res.matrix.indptr)
        assert np.all(nnz_per_col == 9)

    def test_bilinear_degree_columns_are_vectorized_forms(self, golden_tensor):
        system = kernel_flattening(flatten_mode1(golden_tensor), 4, (3, 3))
        res = build_resultant(system, (1, 1))
        expected = system.coeffs.reshape(system.s, -1).T
        assert np.allclose(res.toarray(), expected)
        sv = np.linalg.svd(res.toarray(), compute_uv=False)
        corank = 9 - np.sum(sv > 1e-10 * sv[0])
        assert corank == 4

    def test_corank_jump_on_harder_format(self):
        # rank-12 instance in (12, 7, 3): the first raised degree overshoots
        t, _ = random_cpd((12, 7, 3), 12, seed=22)
        system = kernel_flattening(flatten_mode1(t), 12, (7, 3))
        for degree, corank in [((2, 1), 21), ((3, 1), 12)]:
            dense = build_resultant(system, degree).toarray()
            sv = np.linalg.svd(dense, compute_uv=False)
            rank = np.sum(sv > 1e-8 * sv[0])
            assert dense.shape[0] - rank == corank

    def test_columns_vanish_at_generating_points(self):
        system, betas, gammas = system_from_points(3, 2, 5, seed=4)
        degree = (2, 1)
        res = build_resultant(system, degree).toarray()
        basis = monomial_basis(3, 2, degree)
        for i in range(5):
            b, g = betas[:, i], gammas[:, i]
            vals = np.array([
                np.prod(b ** np.array(a)) * np.prod(g ** np.array(bb))
                for a, bb in basis.exponents
            ])
            assert np.linalg.norm(vals @ res) <= 1e-10 * np.linalg.norm(vals) * np.linalg.norm(res)

    def test_corank_at_least_r_property(self):
        for m, n, r, degree, seed in [
            (2, 2, 4, (2, 1), 0), (3, 2, 6, (2, 1), 1), (4, 3, 8, (2, 2), 2),
            (3, 3, 7, (1, 2), 3), (4, 2, 7, (3, 1), 4),
        ]:
            system, _, _ = system_from_points(m, n, r, seed=seed)
            dense = build_resultant(system, degree).toarray()
            sv = np.linalg.svd(dense, compute_uv=False)
            rank = np.sum(sv > 1e-8 * sv[0])
            assert dense.shape[0] - rank >= r

    @pytest.mark.parametrize("scalars", [REAL, COMPLEX])
    def test_csc_arrays_match_coordinate_assembly(self, scalars):
        """The CSC arrays written directly equal those of the coordinate
        (row, column, value) assembly, dtypes included, so every product
        taken with the matrix sums in the same order."""
        for m, n, r, degree, seed in [(2, 2, 4, (1, 1), 0), (3, 2, 6, (2, 1), 1),
                                      (4, 3, 8, (2, 2), 2), (3, 3, 7, (1, 2), 3),
                                      (4, 2, 7, (3, 1), 4), (5, 4, 12, (3, 2), 5)]:
            system, _, _ = system_from_points(m, n, r, seed=seed)
            if scalars == COMPLEX:
                system = BilinearSystem(system.coeffs * (1 + 2j))
            mat = build_resultant(system, degree).matrix
            table = shift_table(m, n, degree)
            nshift, block = table.shape
            ref = scipy.sparse.coo_matrix((
                np.tile(system.coeffs.reshape(-1, 1, block), (1, nshift, 1)).ravel(),
                (np.tile(table.ravel(), system.s),
                 np.repeat(np.arange(system.s * nshift), block)),
            ), shape=mat.shape).tocsc()
            assert mat.has_canonical_format
            for name in ("indptr", "indices", "data"):
                got, want = getattr(mat, name), getattr(ref, name)
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_rejects_empty_system(self):
        empty = BilinearSystem(np.empty((0, 3, 3)))
        with pytest.raises(ValueError):
            build_resultant(empty, (2, 1))


class TestStructuredProducts:
    """The shift matrix applied through its table and forms against sparse
    products with its CSC form, on random forms.  At (2, 2) with (m, n) =
    (6, 4) there are 35 shifts, so ``projected_gram`` ends on a partial
    chunk."""

    CASES = [(3, 2, (1, 1)), (4, 3, (2, 1)), (3, 2, (3, 1)), (6, 4, (2, 2)),
             (2, 3, (1, 3))]

    @staticmethod
    def _random(shape, scalars, rng):
        z = rng.standard_normal(shape)
        return z + 1j * rng.standard_normal(shape) if scalars == COMPLEX else z

    def test_a_case_ends_on_a_partial_chunk(self):
        chunk = polysys._SHIFT_CHUNK
        assert any(len(shift_table(m, n, degree)) > chunk
                   and len(shift_table(m, n, degree)) % chunk
                   for m, n, degree in self.CASES)

    @pytest.mark.parametrize("scalars", [REAL, COMPLEX])
    @pytest.mark.parametrize("m, n, degree", CASES)
    def test_match_sparse_products(self, m, n, degree, scalars):
        rng = np.random.default_rng(40 + m + 10 * n)
        s = (m + 1) * (n + 1) // 2
        res = build_resultant(BilinearSystem(self._random((s, m + 1, n + 1), scalars, rng)),
                              degree)
        R = res.matrix
        nrows = R.shape[0]

        def close(got, want):
            return np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

        gram = res.gram()
        assert gram.flags.f_contiguous
        assert close(gram, (R @ R.conj().T).toarray())

        Q = np.linalg.qr(self._random((nrows, min(nrows, 9)), scalars, rng))[0]
        RHQ = R.conj().T @ Q
        assert close(res.projected_gram(Q), RHQ.conj().T @ RHQ)

        N = np.linalg.qr(self._random((nrows, 4), scalars, rng))[0].conj().T
        assert close(res.residual_norm(N) / res.norm(),
                     np.linalg.norm(N @ R) / scipy.sparse.linalg.norm(R))


class TestLeftNullspace:
    def test_golden_nullspace(self, golden_tensor):
        system = kernel_flattening(flatten_mode1(golden_tensor), 4, (3, 3))
        res = build_resultant(system, (2, 1))
        N = left_nullspace(res, 4, method="svd")
        assert N.shape == (4, 18)
        assert np.allclose(N @ N.conj().T, np.eye(4), atol=1e-12)
        assert np.linalg.norm(N @ res.toarray()) <= 1e-12

    def test_corank_mismatch_detected(self):
        t, _ = random_cpd((12, 7, 3), 12, seed=23)
        system = kernel_flattening(flatten_mode1(t), 12, (7, 3))
        res = build_resultant(system, (2, 1))
        with pytest.raises(CorankMismatch):
            left_nullspace(res, 12, method="svd")

    def test_methods_span_same_subspace(self):
        t, _ = random_cpd((12, 7, 3), 12, seed=24)
        system = kernel_flattening(flatten_mode1(t), 12, (7, 3))
        res = build_resultant(system, (3, 1))
        n_svd = left_nullspace(res, 12, method="svd")
        n_eigs = left_nullspace(res, 12, method="eigs")
        for N in (n_svd, n_eigs):
            assert np.allclose(N @ N.conj().T, np.eye(12), atol=1e-12)
            assert np.linalg.norm(N @ res.toarray()) <= 1e-8 * np.linalg.norm(res.toarray())
        assert subspace_distance(n_svd, n_eigs) <= 1e-6

    def test_one_gram_eigensolve(self, monkeypatch):
        """(24, 7, 7) r=24 at (2, 1): a draw whose near-zero cluster a
        narrow Lanczos basis undercounted; the Gram is factored once."""
        t, _ = random_cpd((24, 7, 7), 24, seed=1)
        system = kernel_flattening(flatten_mode1(t), 24, (7, 7))
        res = build_resultant(system, (2, 1))
        calls = []
        cho_factor = scipy.linalg.cho_factor

        def counting(*args, **kwargs):
            calls.append(args[0].shape)
            return cho_factor(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_factor", counting)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            n_eigs = left_nullspace(res, 24, method="eigs")
        assert len(calls) == 1
        assert subspace_distance(n_eigs, left_nullspace(res, 24, method="svd")) <= 1e-8

    def test_block_iteration_steps(self, monkeypatch):
        """(20, 8, 4) r=20 at (4, 1), exact: the iteration stops once the
        pairs the result reads have converged.  Testing all r+3 pairs took
        5 solves here; the cap is this instance's measured count."""
        t, _ = random_cpd((20, 8, 4), 20, seed=7)
        system = kernel_flattening(flatten_mode1(t), 20, (8, 4))
        res = build_resultant(system, (4, 1))
        calls = []
        cho_solve = scipy.linalg.cho_solve

        def counting(*args, **kwargs):
            calls.append(1)
            return cho_solve(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "cho_solve", counting)
        polysys._nullspace_eigs(res, 20)
        assert len(calls) <= 4

    @pytest.mark.parametrize("scalars", [REAL, COMPLEX])
    def test_bilinear_degree_reads_flattening_row_space(self, scalars):
        """At (1, 1), auto returns the flattening row space that the kernel's
        SVD computed, on the system and on its transpose; it spans the
        nullspace that svd and eigs compute."""
        t, _ = random_cpd((30, 20, 20), 20, seed=25, scalars=scalars)
        system = kernel_flattening(flatten_mode1(t), 20, (20, 20))
        for solved in (system, system.transposed()):
            res = build_resultant(solved, (1, 1))
            assert res.cokernel is not None
            N = left_nullspace(res, 20)
            assert N is res.cokernel
            assert np.allclose(N @ N.conj().T, np.eye(20), atol=1e-12)
            assert np.linalg.norm(N @ res.toarray()) <= 1e-13
            for method in ("svd", "eigs"):
                assert subspace_distance(N, left_nullspace(res, 20, method)) <= 1e-8
        assert build_resultant(system, (2, 1)).cokernel is None

    def test_unknown_row_space_is_computed(self):
        """A system without a known cokernel, or a rank that does not match
        it, goes to the computed methods."""
        system, _, _ = system_from_points(3, 2, 5, seed=6)
        res = build_resultant(system, (1, 1))
        assert res.cokernel is None
        assert np.linalg.norm(left_nullspace(res, 5) @ res.toarray()) <= 1e-12
        t, _ = random_cpd((9, 6, 5), 5, seed=26)
        res = build_resultant(kernel_flattening(flatten_mode1(t), 5, (6, 5)), (1, 1))
        with pytest.raises(CorankMismatch):
            left_nullspace(res, 6)

    def test_rejects_empty(self):
        empty = BilinearSystem(np.empty((0, 2, 2)))
        with pytest.raises(ValueError):
            build_resultant(empty, (1, 1))

    def test_unknown_method(self, golden_system):
        res = build_resultant(golden_system, (2, 1))
        with pytest.raises(ValueError):
            left_nullspace(res, 4, method="qr")


def shift_invert_reference(res, r):
    """The cokernel eigensolver the block iteration replaced: one
    shift-invert ARPACK call on the dense Gram, with the same gap test.
    Returns the nullspace rows, or None when the gap test rejects."""
    R = res.matrix
    gram = (R @ R.conj().T).toarray()
    nrows = gram.shape[0]
    k = min(r + 3, nrows - 1)
    v0 = np.random.default_rng(0x5EED).standard_normal(nrows).astype(gram.dtype)
    vals, vecs = scipy.sparse.linalg.eigsh(
        gram, k=k, sigma=-1e-8 * np.linalg.norm(gram), which="LM",
        ncv=min(nrows, max(4 * k + 1, 40)), v0=v0, tol=EIGS_TOL, maxiter=EIGS_MAXITER,
    )
    order = np.argsort(np.abs(vals))
    vals, vecs = vals[order], vecs[:, order]
    small, nxt = abs(vals[r - 1]), abs(vals[r])
    if small == 0 or nxt / small >= SEP_RATIO ** 2:
        return vecs[:, :r].conj().T
    return None


class TestBlockIterationAgainstShiftInvert:
    """The block inverse subspace iteration against the ARPACK call it
    replaced, on exact and noisy, real and complex instances."""

    @pytest.mark.parametrize("shape, r, degree, scalars, e", [
        ((8, 5, 4), 8, (2, 1), REAL, None),
        ((8, 5, 4), 8, (2, 1), COMPLEX, -5),
        ((12, 7, 3), 12, (3, 1), REAL, -10),
        ((12, 7, 3), 12, (3, 1), COMPLEX, None),
        ((12, 7, 3), 12, (3, 1), REAL, -5),
        ((24, 7, 7), 24, (2, 1), REAL, None),
        ((24, 7, 7), 24, (2, 1), COMPLEX, -10),
        ((20, 8, 4), 20, (4, 1), REAL, None),
        ((20, 8, 4), 20, (4, 1), REAL, -5),
        ((20, 8, 4), 20, (4, 1), COMPLEX, -10),
        ((50, 10, 5), 30, (3, 1), REAL, -10),
        ((50, 10, 5), 30, (3, 1), COMPLEX, None),
        ((50, 10, 5), 30, (3, 1), REAL, -5),
    ])
    def test_same_subspace_and_gap_decision(self, shape, r, degree, scalars, e,
                                            monkeypatch):
        t, _ = random_cpd(shape, r, seed=7, scalars=scalars)
        t = add_noise(t, e, seed=8)
        with warnings.catch_warnings():
            # noisy flattenings warn that they are not exactly rank r
            warnings.simplefilter("ignore")
            system = kernel_flattening(flatten_mode1(t), r, shape[1:])
        res = build_resultant(system, degree)
        reference = shift_invert_reference(res, r)
        thetas = []
        rayleigh_ritz = polysys._rayleigh_ritz

        def recording(RH, Y):
            theta, X = rayleigh_ritz(RH, Y)
            thetas.append(theta)
            return theta, X

        monkeypatch.setattr(polysys, "_rayleigh_ritz", recording)
        try:
            block = polysys._nullspace_eigs(res, r)
        except CorankMismatch:
            block = None
        assert (block is None) == (reference is None)
        if block is not None:
            # orthonormal rows, real for real input
            assert np.linalg.norm(block @ block.conj().T - np.eye(r)) <= 1e-12
            assert np.isrealobj(block) == np.isrealobj(res.matrix.data)
        # theta_{r+1}, which the gap test reads, is tested only at
        # EIGS_TOL ** 0.5; its error is quadratic in that residual
        sv = np.linalg.svd(res.toarray(), compute_uv=False)
        gram_eigs = np.sort(np.concatenate([sv ** 2, np.zeros(res.shape[0] - len(sv))]))
        assert abs(thetas[-1][r] - gram_eigs[r]) <= 1e-6 * gram_eigs[r]
        if e is None:
            assert subspace_distance(block, reference) <= 1e-8
            for wrong in (r - 1, r + 1):
                with pytest.raises(CorankMismatch):
                    left_nullspace(res, wrong, method="eigs")


class TestEvaluateJacobian:
    def test_golden_point_vanishes(self, golden_system):
        res = evaluate(golden_system, np.array([1.0, 0.0, 2.0]), np.array([1.0, 0.0, 0.0]))
        assert np.allclose(res, 0.0, atol=1e-14)

    def test_basis_point_reads_corner(self, golden_system):
        e0 = np.eye(3)[0]
        res = evaluate(golden_system, e0, e0)
        assert np.allclose(res, golden_system.coeffs[:, 0, 0])

    def test_jacobian_matches_finite_differences(self, golden_system):
        rng = np.random.default_rng(6)
        beta, gamma = rng.standard_normal(3), rng.standard_normal(3)
        J = jacobian(golden_system, beta, gamma)
        h = 1e-6
        fd = np.zeros_like(J)
        x = np.concatenate([beta, gamma])
        for j in range(6):
            xp, xm = x.copy(), x.copy()
            xp[j] += h
            xm[j] -= h
            fd[:, j] = (evaluate(golden_system, xp[:3], xp[3:])
                        - evaluate(golden_system, xm[:3], xm[3:])) / (2 * h)
        assert np.linalg.norm(J - fd) <= 1e-6

    def test_transposed_system_swaps_roles(self, golden_system):
        rng = np.random.default_rng(7)
        beta, gamma = rng.standard_normal(3), rng.standard_normal(3)
        direct = evaluate(golden_system, beta, gamma)
        swapped = evaluate(golden_system.transposed(), gamma, beta)
        assert np.allclose(direct, swapped)

    def test_transposed_system_keeps_its_cokernel(self, golden_tensor):
        system = kernel_flattening(flatten_mode1(golden_tensor), 4, (3, 3))
        flipped = system.transposed()
        assert np.array_equal(flipped.cokernel, system.cokernel.transpose(0, 2, 1))
        # the cokernel annihilates every form, in either orientation
        for s in (system, flipped):
            assert np.abs(np.einsum("ikl,jkl->ij", s.cokernel, s.coeffs)).max() <= 1e-13
