import warnings

import numpy as np
import pytest

from cpdhnf import (BasisDeficient, DefectiveEigenvectors, build_resultant,
                    choose_basis, cpd_eval, flatten_mode1, kernel_flattening,
                    left_nullspace, make_h0, monomial_basis,
                    multiplication_matrices, pencil_prenormal,
                    prenormal_general, shifted_submatrix,
                    simultaneous_diagonalize)
from cpdhnf.normalform import MultiplicationFamily, PreNormalForm
from cpdhnf.tensors import CPDecomposition

from oracles import subspace_distance


def evaluation_prenormal(betas, gammas, degree, rng, h0_coeffs=None):
    """Independent pre-normal form: rows evaluate the degree-(d, e) monomial
    basis at the points.  Exact kernel equals the ideal's graded piece when
    the degree certifies the point count."""
    m, n = betas.shape[0] - 1, gammas.shape[0] - 1
    basis = monomial_basis(m, n, degree)
    r = betas.shape[1]
    N = np.empty((r, len(basis)))
    for i in range(r):
        b, g = betas[:, i], gammas[:, i]
        N[i] = [np.prod(b ** np.array(a)) * np.prod(g ** np.array(bb))
                for a, bb in basis.exponents]
    return prenormal_general(N, m, n, degree, rng=rng, h0_coeffs=h0_coeffs)


def random_points(m, n, r, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((m + 1, r)), rng.standard_normal((n + 1, r))


def poly_eval(coeffs, basis_exponents, b, g):
    return sum(c * np.prod(b ** np.array(a)) * np.prod(g ** np.array(bb))
               for c, (a, bb) in zip(coeffs, basis_exponents))


class TestShiftedSubmatrix:
    def test_bilinear_degree_is_identity(self):
        rng = np.random.default_rng(0)
        N = rng.standard_normal((4, 9))
        out = shifted_submatrix(N, 2, 2, (1, 1), ((0, 0, 0), (0, 0, 0)))
        assert np.array_equal(out, N)

    def test_degree21_column_pull(self):
        # shifting by x_2 pulls the x_2 x_k y_l columns: indices 6..8, 12..14, 15..17
        rng = np.random.default_rng(1)
        N = rng.standard_normal((4, 18))
        out = shifted_submatrix(N, 2, 2, (2, 1), ((0, 0, 1), (0, 0, 0)))
        expected = N[:, [6, 7, 8, 12, 13, 14, 15, 16, 17]]
        assert np.array_equal(out, expected)

    def test_single_monomial_combination_is_selector(self):
        rng = np.random.default_rng(2)
        N = rng.standard_normal((3, 18))
        shifts = monomial_basis(2, 2, (1, 0)).exponents
        for idx, shift in enumerate(shifts):
            coeffs = np.zeros(len(shifts))
            coeffs[idx] = 1.0
            _, combined = make_h0(N, 2, 2, (2, 1), coeffs=coeffs)
            assert np.array_equal(combined, shifted_submatrix(N, 2, 2, (2, 1), shift))

    def test_rejects_wrong_shift_degree(self):
        N = np.zeros((2, 18))
        with pytest.raises(ValueError):
            shifted_submatrix(N, 2, 2, (2, 1), ((1, 0, 1), (0, 0, 0)))


class TestMakeH0:
    def test_deterministic_per_rng_seed(self):
        rng = np.random.default_rng(4)
        N = np.random.default_rng(9).standard_normal((3, 18))
        c1, m1 = make_h0(N, 2, 2, (2, 1), rng=np.random.default_rng(7))
        c2, m2 = make_h0(N, 2, 2, (2, 1), rng=np.random.default_rng(7))
        assert np.array_equal(c1, c2) and np.array_equal(m1, m2)


def loop_combination(N, m, n, degree, coeffs, shifts):
    """Reference: sum of coeffs[i] * shifted_submatrix(shifts[i]), one
    shift at a time, with the bound on how far any other summation order
    can be from it: 2 (number of summands) eps times the sum of |terms|."""
    out = np.zeros((N.shape[0], (m + 1) * (n + 1)))
    size = np.zeros_like(out)
    for c, shift in zip(coeffs, shifts):
        term = c * shifted_submatrix(N, m, n, degree, shift)
        out += term
        size += np.abs(term)
    return out, 2 * len(shifts) * np.finfo(float).eps * size


@pytest.mark.parametrize("degree", [(2, 1), (3, 1), (2, 2), (3, 2)])
class TestGatheredProducts:
    def test_make_h0_matches_per_shift_loop(self, degree):
        m, n = 3, 2
        rng = np.random.default_rng(30)
        N = rng.standard_normal((5, len(monomial_basis(m, n, degree))))
        coeffs, nh0 = make_h0(N, m, n, degree, rng=rng)
        shifts = monomial_basis(m, n, (degree[0] - 1, degree[1] - 1)).exponents
        ref, tol = loop_combination(N, m, n, degree, coeffs, shifts)
        assert np.all(np.abs(nh0 - ref) <= tol)

    def test_multiplication_matches_per_shift_loop(self, degree):
        # with q = I and an identity pivot block, M_k is the h * x_k
        # combination restricted to the pivot columns, with no rounding
        m, n, r = 3, 2, 5
        d, e = degree
        rng = np.random.default_rng(31)
        ncols = len(monomial_basis(m, n, degree))
        N = rng.standard_normal((r, ncols))
        h_shifts = monomial_basis(m, n, (d - 2, e - 1)).exponents
        h = rng.standard_normal(len(h_shifts))
        pivots = rng.permutation((m + 1) * (n + 1))
        tri = np.hstack([np.eye(r), rng.standard_normal((r, len(pivots) - r))])
        pnf = PreNormalForm(N, m, n, degree, None, h, np.eye(r), tri, pivots, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # random N: the family does not commute
            family = multiplication_matrices(pnf)
        for k in range(m + 1):
            shifts = [(tuple(x + (i == k) for i, x in enumerate(a)), b) for a, b in h_shifts]
            ref, tol = loop_combination(N, m, n, degree, h, shifts)
            sel = pivots[:r]
            assert np.all(np.abs(family.matrices[k] - ref[:, sel]) <= tol[:, sel])


class TestChooseBasis:
    def test_golden_manual_basis_invertible(self, golden_tensor):
        system = kernel_flattening(flatten_mode1(golden_tensor), 4, (3, 3))
        res = build_resultant(system, (2, 1))
        N = left_nullspace(res, 4, method="svd")
        _, nh0 = make_h0(N, 2, 2, (2, 1), coeffs=np.ones(3))
        # the worked basis {x0 y0, x0 y1, x0 y2, x1 y0} = columns 0..3
        sub = nh0[:, [0, 1, 2, 3]]
        assert np.linalg.cond(sub) < 1e3

    def test_qr_reconstruction(self):
        rng = np.random.default_rng(5)
        nh0 = rng.standard_normal((4, 9))
        q, tri, piv, cond = choose_basis(nh0)
        assert np.linalg.norm(q @ tri - nh0[:, piv]) <= 1e-12 * np.linalg.norm(nh0)
        assert cond >= 1.0

    def test_rank_one_picks_largest_column(self):
        nh0 = np.array([[1.0, 3.0, 2.0]])
        _, _, piv, _ = choose_basis(nh0)
        assert piv[0] == 1

    def test_deficient_matrix_rejected(self):
        nh0 = np.ones((3, 5))  # rank 1 < 3
        with pytest.raises(BasisDeficient):
            choose_basis(nh0)


class TestMultiplicationMatrices:
    def test_golden_eigenvalue_rows(self, golden_tensor):
        from conftest import GOLDEN_EIG_ROWS
        system = kernel_flattening(flatten_mode1(golden_tensor), 4, (3, 3))
        res = build_resultant(system, (2, 1))
        N = left_nullspace(res, 4, method="svd")
        pnf = prenormal_general(N, 2, 2, (2, 1), rng=np.random.default_rng(0),
                                h0_coeffs=np.ones(3))
        family = multiplication_matrices(pnf)
        assert len(family) == 3
        for k in range(3):
            eigs = np.sort(np.linalg.eigvals(family.matrices[k]).real)
            assert np.allclose(eigs, np.sort(GOLDEN_EIG_ROWS[k]), atol=1e-8)

    def test_rank_one_scalar_value(self):
        betas, gammas = random_points(2, 2, 1, seed=6)
        rng = np.random.default_rng(7)
        pnf = evaluation_prenormal(betas, gammas, (2, 1), rng)
        family = multiplication_matrices(pnf)
        b, g = betas[:, 0], gammas[:, 0]
        shifts = monomial_basis(2, 2, (1, 0)).exponents
        h0_val = poly_eval(pnf.h0, shifts, b, g)
        for k in range(3):
            assert family.matrices[k].reshape(()) == pytest.approx(b[k] / h0_val, rel=1e-10)

    def test_known_points_eigenvalues(self):
        betas, gammas = random_points(3, 2, 6, seed=8)
        rng = np.random.default_rng(9)
        pnf = evaluation_prenormal(betas, gammas, (2, 1), rng)
        family = multiplication_matrices(pnf)
        shifts = monomial_basis(3, 2, (1, 0)).exponents
        h0_vals = np.array([poly_eval(pnf.h0, shifts, betas[:, i], gammas[:, i])
                            for i in range(6)])
        for k in range(4):
            eigs = np.sort(np.linalg.eigvals(family.matrices[k]).real)
            expected = np.sort(betas[k] / h0_vals)
            assert np.allclose(eigs, expected, atol=1e-8 * max(1, np.abs(expected).max()))

    def test_commutation_up_to_rank_50(self):
        for m, n, r, seed in [(3, 2, 6, 0), (5, 4, 15, 1), (9, 6, 50, 2)]:
            betas, gammas = random_points(m, n, r, seed=seed)
            rng = np.random.default_rng(seed + 100)
            pnf = evaluation_prenormal(betas, gammas, (2, 1), rng)
            family = multiplication_matrices(pnf)
            assert family.commutation_residual() <= 1e-8

    def test_shared_left_eigenvectors(self):
        # evaluation functionals of the pivot monomials are joint left
        # eigenvectors of the whole family
        betas, gammas = random_points(3, 2, 6, seed=12)
        rng = np.random.default_rng(13)
        pnf = evaluation_prenormal(betas, gammas, (2, 1), rng)
        family = multiplication_matrices(pnf)
        bilinear = monomial_basis(3, 2, (1, 1)).exponents
        shifts = monomial_basis(3, 2, (1, 0)).exponents
        sel = [bilinear[j] for j in pnf.basis]
        for i in range(6):
            b, g = betas[:, i], gammas[:, i]
            w = np.array([np.prod(b ** np.array(a)) * np.prod(g ** np.array(bb))
                          for a, bb in sel])
            h0_val = poly_eval(pnf.h0, shifts, b, g)
            for k in range(4):
                lam = b[k] / h0_val
                resid = np.linalg.norm(w @ family.matrices[k] - lam * w)
                assert resid <= 1e-8 * np.linalg.norm(w) * max(1.0, abs(lam))


class TestSimultaneousDiagonalize:
    def test_diagonal_family_reads_off(self):
        d1, d2 = np.diag([1.0, 2.0, 3.0]), np.diag([4.0, 5.0, 6.0])
        fam = MultiplicationFamily(np.array([d1, d2]))
        coords = simultaneous_diagonalize(fam, seed=0)
        order = np.argsort(coords[0].real)
        assert np.allclose(coords[:, order].real, [[1, 2, 3], [4, 5, 6]], atol=1e-12)

    def test_known_points_recovery(self):
        betas, gammas = random_points(4, 3, 8, seed=14)
        rng = np.random.default_rng(15)
        pnf = evaluation_prenormal(betas, gammas, (2, 1), rng)
        family = multiplication_matrices(pnf)
        coords = simultaneous_diagonalize(family, rng=rng).real
        # columns match the true direction set up to scale and permutation
        found = coords / np.linalg.norm(coords, axis=0)
        truth = betas / np.linalg.norm(betas, axis=0)
        corr = np.abs(truth.T @ found)
        assert np.allclose(np.sort(corr.max(axis=0)), 1.0, atol=1e-8)
        assert len(set(corr.argmax(axis=0))) == 8

    def test_seed_stability(self):
        betas, gammas = random_points(3, 2, 5, seed=16)
        pnf = evaluation_prenormal(betas, gammas, (2, 1), np.random.default_rng(17))
        family = multiplication_matrices(pnf)
        a = simultaneous_diagonalize(family, seed=1).real
        b = simultaneous_diagonalize(family, seed=2).real
        an = np.sort((a / np.linalg.norm(a, axis=0))[0])
        bn = np.sort((b / np.linalg.norm(b, axis=0))[0])
        assert np.allclose(an, bn, atol=1e-8)

    def test_non_commuting_family_rejected(self):
        rng = np.random.default_rng(30)
        m1, m2 = rng.standard_normal((2, 4, 4))
        fam = MultiplicationFamily(np.array([m1, m2]))
        assert fam.commutation_residual() > 1e-2
        with pytest.raises(DefectiveEigenvectors):
            simultaneous_diagonalize(fam, seed=0)


def pencil_cokernel(t, r):
    """The degree-(1, 1) cokernel of the transposed kernel forms of t, with
    the (m, n) of that transposed system."""
    system = kernel_flattening(flatten_mode1(t), r, t.shape[1:]).transposed()
    return left_nullspace(build_resultant(system, (1, 1)), r), system.m, system.n


class TestPencilPrenormal:
    def test_row_space_and_contraction_consistency(self):
        from cpdhnf import random_cpd
        t, dec = random_cpd((5, 4, 3), 3, seed=18)
        N, m, n = pencil_cokernel(t, 3)
        h0 = np.random.default_rng(19).standard_normal(3)
        pnf = pencil_prenormal(N, m, n, h0_coeffs=h0)
        assert pnf.N.shape == (3, 12)
        # the flattening row space, with its columns in (y, x) order
        flat_yx = flatten_mode1(t).reshape(5, 4, 3).transpose(0, 2, 1).reshape(5, 12)
        assert subspace_distance(pnf.N, flat_yx) <= 1e-12
        # the combined matrix spans the same rows as the third-mode
        # contraction of the tensor with the h0 coefficients
        contraction = np.einsum("jkl,l->jk", t.data, h0)
        combined = np.tensordot(h0, pnf.N.reshape(3, 3, 4), axes=([0], [1]))
        assert subspace_distance(combined, contraction) <= 1e-12

    def test_family_recovers_second_point_coordinates(self):
        from cpdhnf import random_cpd
        t, dec = random_cpd((6, 5, 4), 4, seed=20)
        rng = np.random.default_rng(21)
        pnf = pencil_prenormal(*pencil_cokernel(t, 4), rng=rng)
        family = multiplication_matrices(pnf)
        assert len(family) == 4
        coords = simultaneous_diagonalize(family, rng=rng).real
        found = coords / np.linalg.norm(coords, axis=0)
        truth = dec.factors[2] / np.linalg.norm(dec.factors[2], axis=0)
        corr = np.abs(truth.T @ found)
        assert np.allclose(np.sort(corr.max(axis=0)), 1.0, atol=1e-8)

    def test_dependent_second_factors_rejected(self):
        rng = np.random.default_rng(22)
        alphas = rng.standard_normal((6, 2))
        beta = rng.standard_normal(4)
        betas = np.column_stack([beta, beta])  # dependent
        gammas = rng.standard_normal((3, 2))
        t = cpd_eval(CPDecomposition([alphas, betas, gammas]))
        N, m, n = pencil_cokernel(t, 2)
        with pytest.raises(BasisDeficient):
            pencil_prenormal(N, m, n, rng=rng)

    def test_rank_one(self):
        from cpdhnf import random_cpd
        t, dec = random_cpd((4, 3, 2), 1, seed=23)
        pnf = pencil_prenormal(*pencil_cokernel(t, 1), rng=np.random.default_rng(0))
        family = multiplication_matrices(pnf)
        coords = simultaneous_diagonalize(family, seed=1).real
        found = coords[:, 0] / np.linalg.norm(coords[:, 0])
        truth = dec.factors[2][:, 0] / np.linalg.norm(dec.factors[2][:, 0])
        assert min(np.linalg.norm(found - truth), np.linalg.norm(found + truth)) <= 1e-10
