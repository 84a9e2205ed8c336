import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from cpdhnf import (COMPLEX, REAL, BilinearSystem, CorankMismatch,
                    DecomposeOptions, FlatteningRankMismatch, InsufficientMemory,
                    build_resultant,
                    decompose_with_info, evaluate, flatten_mode1, jacobian,
                    kernel_flattening, left_nullspace, monomial_basis, polysys,
                    random_cpd, recovery)
from cpdhnf.bigraded import shift_table
from cpdhnf.config import EIGS_ENTRY_THRESHOLD, EIGS_MAXITER, EIGS_TOL, SEP_RATIO
from cpdhnf.tensors import add_noise

from conftest import (GOLDEN_BETAS, GOLDEN_FLATTENING, GOLDEN_GAMMAS,
                      GOLDEN_KERNEL, golden_resultant_dense)
from oracles import subspace_distance


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
        assert np.array_equal(res.toarray(), R.toarray())

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
        """A bad name is a ValueError before any test of the matrix, also on
        one whose shape alone puts the degree outside the regularity."""
        res = build_resultant(golden_system, (2, 1))
        with pytest.raises(ValueError):
            left_nullspace(res, 4, method="qr")
        system, _, _ = system_from_points(2, 2, 4)
        res = build_resultant(system, (2, 1))
        with pytest.raises(CorankMismatch, match="outside the regularity"):
            left_nullspace(res, 2)
        with pytest.raises(ValueError, match="^unknown nullspace method 'qr'$"):
            left_nullspace(res, 2, method="qr")


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
        thetas, factored = [], []
        rayleigh_ritz = polysys._rayleigh_ritz

        def recording(RH, Y):
            theta, X = rayleigh_ritz(RH, Y)
            thetas.append(theta)
            factored.append(RH)
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
        # EIGS_TOL ** 0.5; its error is quadratic in that residual.  It is
        # an eigenvalue of the matrix the iteration factors: the stacked
        # matrix S S^H when R splits along x_0, not R R^H
        S = factored[-1].toarray()
        sv = np.linalg.svd(S, compute_uv=False)
        gram_eigs = np.sort(np.concatenate([sv ** 2, np.zeros(S.shape[0] - len(sv))]))
        assert abs(thetas[-1][r] - gram_eigs[r]) <= 1e-6 * gram_eigs[r]
        if e is None:
            assert subspace_distance(block, reference) <= 1e-8
            for wrong in (r - 1, r + 1):
                with pytest.raises(CorankMismatch):
                    left_nullspace(res, wrong, method="eigs")


def solved_resultant(t, shape, r, degree):
    """The shift matrix that the driver's cokernel sees: (1, e) goes
    through the transposed forms at (e, 1)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        system = kernel_flattening(flatten_mode1(t), r, shape[1:])
    d, e = degree
    return build_resultant(*((system.transposed(), (e, d)) if d == 1 else (system, degree)))


def nullspace_or_none(res, r, method):
    """The nullspace, or None where the gap test rejects; noisy residuals
    above NULL_REL only warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return left_nullspace(res, r, method)
        except CorankMismatch:
            return None


class TestSplitAlongX0:
    """The cokernel that factors only the stacked matrix [N B; D] of the top
    level, against the dense SVD nullspace of the whole shift matrix R."""

    CELLS = [((8, 5, 4), 8, (2, 1), REAL), ((8, 5, 4), 8, (2, 1), COMPLEX),
             ((12, 7, 3), 12, (3, 1), REAL), ((12, 7, 3), 12, (3, 1), COMPLEX),
             ((20, 8, 4), 20, (4, 1), REAL), ((12, 3, 7), 12, (1, 3), REAL),
             ((24, 8, 6), 24, (1, 2), COMPLEX)]

    @pytest.mark.parametrize("shape, r, degree, scalars", CELLS)
    def test_exact_matches_svd(self, shape, r, degree, scalars):
        t, _ = random_cpd(shape, r, seed=7, scalars=scalars)
        res = solved_resultant(t, shape, r, degree)
        assert polysys.lower_chain(res, r) is not None
        N = left_nullspace(res, r, "eigs")
        assert np.linalg.norm(N @ N.conj().T - np.eye(r)) <= 1e-12
        assert np.isrealobj(N) == (scalars == REAL)
        assert subspace_distance(N, left_nullspace(res, r, "svd")) <= 1e-8
        for wrong in (r - 1, r + 1):
            with pytest.raises(CorankMismatch):
                left_nullspace(res, wrong, "eigs")

    @pytest.mark.parametrize("shape, r, degree, scalars, seed, e",
                             [cell + (7, e) for cell in CELLS for e in (-10, -5)]
                             + [((12, 3, 7), 12, (1, 3), COMPLEX, 30, -5)])
    @pytest.mark.filterwarnings("ignore:nullspace residual")
    def test_noisy_as_close_as_svd(self, shape, r, degree, scalars, seed, e):
        """On noisy forms both routes approximate the exact nullspace; the
        split stays within 3x of the SVD's distance to it.  Its gap test
        reads S S^H, and it rejects whatever the SVD rejects.  The seed-30
        draw is the one of 400 noisy draws of five shapes at e = -5 where it
        also rejects a draw that the SVD accepts, and auto falls back."""
        t0, _ = random_cpd(shape, r, seed=seed, scalars=scalars)
        exact = left_nullspace(solved_resultant(t0, shape, r, degree), r, "svd")
        res = solved_resultant(add_noise(t0, e, seed=8), shape, r, degree)
        split, svd = (nullspace_or_none(res, r, method) for method in ("eigs", "svd"))
        if svd is None:
            assert split is None
        elif split is None:
            with pytest.warns(UserWarning, match="fell back to svd"):
                assert np.array_equal(left_nullspace(res, r), svd)
        else:
            assert subspace_distance(split, exact) <= 3 * subspace_distance(svd, exact)

    def test_nf_small_gram_cells(self, monkeypatch):
        """The cells of the nf-small benchmark workload at or above the Gram
        route's entry count: four at (2, 1) and the grouped order-5 one at
        (3, 1).  (24,8,6), (28,8,7) and (32,8,8) sit at the rank bound, so
        eigs takes the complement of the stacked matrix's columns there;
        (24,7,7) and the order-5 cell take the Gram."""
        built = []
        build = recovery.build_resultant

        def recording(system, degree):
            built.append(build(system, degree))
            return built[-1]

        monkeypatch.setattr(recovery, "build_resultant", recording)
        cells = [((24, 7, 7), 24), ((24, 8, 6), 24), ((28, 8, 7), 28), ((32, 8, 8), 32),
                 ((4, 4, 3, 3, 3), 16)]
        for dims, r in cells:
            built.clear()
            decompose_with_info(random_cpd(dims, r, seed=101)[0], r,
                                DecomposeOptions(kernel="svd"))
            res = built[0]
            assert res.shape[0] * res.shape[1] >= EIGS_ENTRY_THRESHOLD
            assert polysys.lower_chain(res, r) is not None
            N = left_nullspace(res, r, "eigs")
            assert subspace_distance(N, left_nullspace(res, r, "svd")) <= 1e-8

    @pytest.mark.parametrize("shape, r, degree, scalars, e", [
        ((20, 8, 4), 20, (4, 1), REAL, None),
        ((20, 8, 4), 20, (4, 1), COMPLEX, -5),
        ((12, 3, 7), 12, (1, 3), COMPLEX, None),
    ])
    def test_chain_levels(self, shape, r, degree, scalars, e):
        """Each level k below the top gives orthonormal rows spanning the
        left nullspace of R_k, exactly rows - cols of them, on noisy forms
        too."""
        t, _ = random_cpd(shape, r, seed=9, scalars=scalars)
        t = add_noise(t, e, seed=10)
        top = solved_resultant(t, shape, r, degree)
        d, e = top.degree
        system = BilinearSystem(top.forms.reshape(-1, top.m + 1, top.n + 1))
        for k in range(1, d):
            N = polysys.lower_chain(build_resultant(system, (k + 1, e)), r)
            R = build_resultant(system, (k, e)).toarray()
            assert N.shape == (R.shape[0] - R.shape[1], R.shape[0])
            assert np.linalg.norm(N @ N.conj().T - np.eye(len(N))) <= 1e-13
            assert np.linalg.norm(N @ R) <= 1e-13 * np.linalg.norm(R)

    def test_repeated_form_raises_and_auto_falls_back(self, monkeypatch):
        """A repeated form makes level 1 rank deficient: the chain raises,
        and auto hands the decision to the SVD."""
        system, _, _ = system_from_points(6, 6, 24, seed=5)
        coeffs = system.coeffs.copy()
        coeffs[-1] = coeffs[0]
        res = build_resultant(BilinearSystem(coeffs), (2, 1))
        with pytest.raises(CorankMismatch, match="rank deficient"):
            polysys.lower_chain(res, 24)
        svd_calls = []
        nullspace_svd = polysys._nullspace_svd

        def counting_svd(res, r):
            svd_calls.append(r)
            return nullspace_svd(res, r)

        monkeypatch.setattr(polysys, "_nullspace_svd", counting_svd)
        assert res.shape[0] * res.shape[1] >= EIGS_ENTRY_THRESHOLD
        # the repeated form leaves R with corank above 24, which the SVD sees
        with pytest.raises(CorankMismatch):
            left_nullspace(res, 24)
        assert svd_calls == [24]

    def test_unsplit_degree_factors_R_as_before(self, monkeypatch):
        """(12, 7, 3) r=12 forced to (4, 1): level 3 is 252 x 252, not r
        rows taller, so R itself is factored, with its Gram and projections
        summed exactly as the per-shift loops on R did."""
        t, _ = random_cpd((12, 7, 3), 12, seed=24)
        res = solved_resultant(t, (12, 7, 3), 12, (4, 1))
        assert polysys.lower_chain(res, 12) is None
        per_shift = res.forms.T @ res.forms.conj()
        gram = np.zeros(2 * (res.shape[0],))
        for rows in res.table:
            gram[np.ix_(rows, rows)] += per_shift
        assert np.array_equal(res.gram(), gram)
        Q = np.linalg.qr(np.random.default_rng(3).standard_normal((res.shape[0], 30)))[0]
        projected = np.zeros((30, 30))
        for lo in range(0, len(res.table), polysys._SHIFT_CHUNK):
            B = np.matmul(res.forms, Q[res.table[lo:lo + polysys._SHIFT_CHUNK]]).reshape(-1, 30)
            projected += B.T @ B
        assert np.array_equal(res.projected_gram(Q), projected)
        seen = []
        rayleigh_ritz = polysys._rayleigh_ritz

        def recording(op, Y):
            seen.append(op)
            return rayleigh_ritz(op, Y)

        monkeypatch.setattr(polysys, "_rayleigh_ritz", recording)
        left_nullspace(res, 12, "eigs")
        assert seen and all(op is res for op in seen)

    @pytest.mark.parametrize("scalars", [REAL, COMPLEX])
    def test_stacked_products(self, scalars):
        """A bordered StackedMatrix's Gram and projections against its dense
        form; 40 shifts end on a partial chunk."""
        rng = np.random.default_rng(11)

        def draw(*shape):
            z = rng.standard_normal(shape)
            return z + 1j * rng.standard_normal(shape) if scalars == COMPLEX else z

        h, nshift, s, p, below = 5, 40, 3, 6, 30
        table = np.sort(np.argsort(rng.random((nshift, below)), axis=1)[:, :p], axis=1) + h
        S = polysys.StackedMatrix(table, draw(s, p), h + below, draw(h, nshift, s))
        dense = S.toarray()
        assert dense.shape == S.shape == (h + below, nshift * s)
        assert np.allclose(dense[:h], S.top.reshape(h, -1), rtol=0, atol=0)
        gram = S.gram()
        assert gram.flags.f_contiguous
        assert np.linalg.norm(gram - dense @ dense.conj().T) <= 1e-13 * np.linalg.norm(gram)
        Q = np.linalg.qr(draw(h + below, 7))[0]
        SHQ = dense.conj().T @ Q
        want = SHQ.conj().T @ SHQ
        assert np.linalg.norm(S.projected_gram(Q) - want) <= 1e-13 * np.linalg.norm(want)


def at_bound(res, r):
    return res.shape[0] - res.shape[1] == r


class TestComplementAtTheBound:
    """At the rank bound, where the shift matrix has exactly r more rows
    than columns, auto and eigs take the complement of the columns of its
    stacked top level (of R itself when R does not split), against the
    dense SVD nullspace."""

    @pytest.mark.parametrize("shape, r", [((12, 6, 4), 12), ((21, 7, 6), 21),
                                          ((32, 8, 8), 32)])
    @pytest.mark.parametrize("scalars", [REAL, COMPLEX])
    @pytest.mark.parametrize("e", [None, -12, -8, -5])
    @pytest.mark.filterwarnings("ignore:nullspace residual")
    def test_matches_svd(self, shape, r, scalars, e):
        t, _ = random_cpd(shape, r, seed=12, scalars=scalars)
        res = solved_resultant(add_noise(t, e, seed=13), shape, r, (2, 1))
        assert at_bound(res, r) and polysys.lower_chain(res, r) is not None
        svd = left_nullspace(res, r, "svd")
        for method in ("auto", "eigs"):
            N = left_nullspace(res, r, method)
            assert np.linalg.norm(N @ N.conj().T - np.eye(r)) <= 1e-12
            assert np.isrealobj(N) == (scalars == REAL)
            assert subspace_distance(N, svd) <= 1e-10

    @pytest.mark.parametrize("scalars", [REAL, COMPLEX])
    def test_pencil_matrix_under_eigs(self, scalars):
        """The pencil's (1, 1) matrix is always at the bound and does not
        split: eigs factors R itself."""
        t, _ = random_cpd((30, 20, 20), 20, seed=25, scalars=scalars)
        res = build_resultant(kernel_flattening(flatten_mode1(t), 20, (20, 20)), (1, 1))
        assert at_bound(res, 20) and polysys.lower_chain(res, 20) is None
        N = left_nullspace(res, 20, "eigs")
        assert np.linalg.norm(N @ N.conj().T - np.eye(20)) <= 1e-12
        assert subspace_distance(N, res.cokernel) <= 1e-10
        assert subspace_distance(N, left_nullspace(res, 20, "svd")) <= 1e-10

    @pytest.mark.parametrize("shape, r", [((12, 6, 4), 12), ((32, 8, 8), 32)])
    def test_auto_takes_neither_svd_nor_gram(self, shape, r, monkeypatch):
        """(12,6,4) is below the Gram route's entry count and (32,8,8)
        above it; at the bound auto runs neither the SVD nor the block
        iteration, and warns of nothing."""
        t, _ = random_cpd(shape, r, seed=14)
        res = solved_resultant(t, shape, r, (2, 1))
        want = left_nullspace(res, r, "svd")

        def refuse(*args):
            raise AssertionError("off the complement route")

        monkeypatch.setattr(polysys, "_nullspace_svd", refuse)
        monkeypatch.setattr(polysys, "_block_iteration", refuse)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            N = left_nullspace(res, r)
        assert subspace_distance(N, want) <= 1e-10

    @pytest.mark.parametrize("degree", [(1, 1), (2, 1)])
    def test_lost_column_rank(self, degree, monkeypatch):
        """Two equal forms cost R a column's rank: the SVD oracle raises,
        and auto raises the QR's CorankMismatch as eigs does, with no SVD
        call and no warning.  At (1, 1) the check on R itself decides; at
        (2, 1) the chain's first level does."""
        t, _ = random_cpd((12, 6, 4), 12, seed=15)
        coeffs = solved_resultant(t, (12, 6, 4), 12, (2, 1)).forms.reshape(-1, 6, 4).copy()
        coeffs[-1] = coeffs[0]
        res = build_resultant(BilinearSystem(coeffs), degree)
        assert at_bound(res, 12) and res.cokernel is None
        with pytest.raises(CorankMismatch):
            left_nullspace(res, 12, "svd")
        svd_calls = []
        nullspace_svd = polysys._nullspace_svd

        def counting_svd(res, r):
            svd_calls.append(r)
            return nullspace_svd(res, r)

        monkeypatch.setattr(polysys, "_nullspace_svd", counting_svd)
        messages = []
        for method in ("eigs", "auto"):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(CorankMismatch, match="rank deficient: QR diagonal") as exc:
                    left_nullspace(res, 12, method)
            messages.append(str(exc.value))
        assert svd_calls == []
        assert messages[0] == messages[1]

    @pytest.mark.parametrize("shape, r, degree", [((12, 6, 4), 12, (2, 1)),
                                                  ((12, 8, 3), 12, (2, 1)),
                                                  ((8, 3, 5), 8, (3, 1)),
                                                  ((14, 6, 4), 14, (3, 1))])
    @pytest.mark.parametrize("scalars", [REAL, COMPLEX])
    @pytest.mark.filterwarnings("ignore:nullspace residual")
    def test_complement_rejects_only_what_svd_rejects(self, shape, r, degree, scalars):
        """One form perturbed from another by 10^e, e = -3 to -13, nears a
        lost column rank.  A QR diagonal ratio below RANK_REL bounds
        sigma_min(R) / sigma_max(R) below it, so whenever the complement
        rejects, the dense SVD rejects too, and dropping the SVD re-check
        under auto loses no input.  The sweep crosses the threshold, so it
        holds both verdicts."""
        t, _ = random_cpd(shape, r, seed=17, scalars=scalars)
        forms = solved_resultant(t, shape, r, (2, 1)).forms
        rng = np.random.default_rng(18)
        rejected = []
        for e in range(-3, -14, -1):
            coeffs = forms.reshape(-1, *shape[1:]).copy()
            noise = rng.standard_normal(coeffs[0].shape).astype(coeffs.dtype)
            if scalars == COMPLEX:
                noise += 1j * rng.standard_normal(coeffs[0].shape)
            coeffs[-1] = coeffs[0] + 10.0 ** e * noise / np.linalg.norm(noise)
            res = build_resultant(BilinearSystem(coeffs), degree)
            assert at_bound(res, r)
            try:
                left_nullspace(res, r, "eigs")
            except CorankMismatch:
                rejected.append(e)
                with pytest.raises(CorankMismatch):
                    polysys._nullspace_svd(res, r)
        assert 0 < len(rejected) < 11

    def test_dense_stacked_matrix_out_of_memory(self, monkeypatch):
        """A dense S that cannot be allocated is InsufficientMemory, with no
        fallback, as for the Gram."""
        t, _ = random_cpd((12, 6, 4), 12, seed=16)
        res = solved_resultant(t, (12, 6, 4), 12, (2, 1))
        qr = scipy.linalg.qr

        def top_out_of_memory(a, *args, **kwargs):
            # the chain's one level is 24 x 12, the top level 72 x 60
            if a.shape == (72, 60):
                raise MemoryError
            return qr(a, *args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "qr", top_out_of_memory)
        for method in ("auto", "eigs"):
            with pytest.raises(InsufficientMemory):
                left_nullspace(res, 12, method)


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
