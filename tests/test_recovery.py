import warnings

import numpy as np
import pytest
import scipy.linalg

from cpdhnf import (COMPLEX, REAL, AmbiguousKernel, BasisDeficient,
                    BilinearSystem, CorankMismatch, CPDecomposition,
                    DecomposeOptions, DenseTensor, Grouping,
                    InsufficientMemory, RankDeficientKR, RankOutOfRange,
                    add_noise, backward_error, build_resultant, cpd_eval,
                    decompose, decompose_with_info, flatten_mode1,
                    hilbert_from_points, kernel_flattening, newton_refine,
                    normalform, polysys, random_config, random_cpd,
                    rank1_factorization, rank_bound, recovery, solve_alpha,
                    solve_gamma, st_hosvd)
from cpdhnf.config import GN_DAMPING, GN_FLOOR

from conftest import (GOLDEN_ALPHAS, GOLDEN_BETAS, GOLDEN_GAMMAS,
                      fail_dense_buffers, stacked_rows)
from oracles import (factor_set_distance, gauss_newton_step, rank1_factorization_column,
                     solve_gamma_point)


class TestSolveGamma:
    def test_golden_points(self, golden_system):
        g1 = solve_gamma(golden_system, np.array([1.0, 0.0, 2.0]))
        assert np.linalg.norm(np.cross(g1, [1.0, 0.0, 0.0])) <= 1e-12
        g4 = solve_gamma(golden_system, np.array([0.0, 1.0, 0.0]))
        target = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        assert min(np.linalg.norm(g4 - target), np.linalg.norm(g4 + target)) <= 1e-12

    def test_known_points_instance(self):
        t, dec = random_cpd((10, 5, 4), 8, seed=30)
        system = kernel_flattening(flatten_mode1(t), 8, (5, 4))
        for i in range(8):
            g = solve_gamma(system, dec.factors[1][:, i])
            truth = dec.factors[2][:, i] / np.linalg.norm(dec.factors[2][:, i])
            assert min(np.linalg.norm(g - truth), np.linalg.norm(g + truth)) <= 1e-10

    def test_ambiguous_kernel(self):
        # all forms proportional: the stacked matrix has a 2-dim kernel
        f = np.random.default_rng(0).standard_normal((3, 3))
        system = BilinearSystem(np.array([f, 2 * f, -f]))
        with pytest.raises(AmbiguousKernel):
            solve_gamma(system, np.array([1.0, 0.5, -0.3]))

    def test_zero_point_rejected(self, golden_system):
        with pytest.raises(ValueError):
            solve_gamma(golden_system, np.zeros(3))


GOLDEN_FACTORS = [GOLDEN_ALPHAS, GOLDEN_BETAS, GOLDEN_GAMMAS]


def _perturbed(factors, scale, rng):
    return [f + scale * rng.standard_normal(f.shape) for f in factors]


class TestNewtonRefine:
    """The joint Gauss-Newton refinement of all factors against the tensor."""

    def test_exact_zero_is_fixed_point(self, golden_tensor):
        # exact factors fit to the floor: no step, and the given factors
        # come back normalized
        dec, err, steps, unrefined = newton_refine(golden_tensor, GOLDEN_FACTORS, iters=3)
        ref = CPDecomposition(GOLDEN_FACTORS).normalize()
        assert steps == 0 and err == unrefined <= GN_FLOOR
        assert all(np.array_equal(a, b) for a, b in zip(dec.factors, ref.factors))

    def test_perturbed_golden_point_converges(self, golden_tensor):
        rng = np.random.default_rng(31)
        factors = _perturbed(GOLDEN_FACTORS, 1e-4, rng)
        dec, err, steps, unrefined = newton_refine(golden_tensor, factors, iters=3)
        assert steps >= 1 and err <= 1e-12 < unrefined
        assert dec.normalized and err == backward_error(golden_tensor, dec)

    def test_residual_reduction_factor(self, golden_tensor):
        rng = np.random.default_rng(32)
        for _ in range(10):
            factors = _perturbed(GOLDEN_FACTORS, 1e-5, rng)
            _, pre, _, unrefined = newton_refine(golden_tensor, factors, iters=0)
            _, post, steps, _ = newton_refine(golden_tensor, factors, iters=1)
            assert pre == unrefined and steps == 1 and post <= 0.1 * pre

    def test_monotone_per_point(self, golden_tensor):
        """From near and far starting points the error never rises, and each
        kept step lowers it strictly."""
        rng = np.random.default_rng(33)
        for scale in (1e-1, 1e-3, 1e-6):
            factors = _perturbed(GOLDEN_FACTORS, scale, rng)
            errs = [newton_refine(golden_tensor, factors, iters=k)[1:3] for k in range(4)]
            for (before, kept), (after, more) in zip(errs, errs[1:]):
                assert after < before if more > kept else after == before


class TestGaussNewtonStep:
    """The step with the first mode eliminated against the damped normal
    equations of the explicit Jacobian (``oracles.gauss_newton_step``)."""

    @pytest.mark.parametrize("shape, r", [((10, 6, 4), 8), ((6, 5, 4, 3), 12),
                                          ((4, 3, 3, 2, 2), 8), ((3, 9, 7), 4),
                                          ((4, 8, 3, 6), 3)])
    @pytest.mark.parametrize("scalars", [REAL, COMPLEX])
    def test_one_step_matches(self, monkeypatch, shape, r, scalars):
        t, dec = random_cpd(shape, r, seed=40, scalars=scalars)
        t = add_noise(t, -3, seed=41)
        rng = np.random.default_rng(42)
        factors = _perturbed(dec.factors, 0.1, rng)
        res = t.data - cpd_eval(CPDecomposition(factors)).data
        # the model change J delta at the default damping; the step itself
        # is only fixed up to rounding divided by the damping along the
        # scaling directions, where J vanishes
        ref, J = gauss_newton_step(factors, res, GN_DAMPING)
        step = np.concatenate([d.ravel() for d in recovery._gn_step(factors, res)])
        assert np.linalg.norm(J @ (step - np.concatenate(ref))) <= 1e-12 * np.linalg.norm(
            J @ np.concatenate(ref))
        # the step itself where the damping makes the equations well posed
        monkeypatch.setattr(recovery, "GN_DAMPING", 1e-2)
        ref, _ = gauss_newton_step(factors, res, 1e-2)
        for d, e in zip(recovery._gn_step(factors, res), ref):
            assert np.linalg.norm(d.ravel() - e) <= 1e-12 * np.linalg.norm(np.concatenate(ref))

    def test_noisy_order5_reaches_the_noise(self):
        """Recovered through a grouping, this draw fits to 2.96e-8; one joint
        step on the ungrouped factors brings it under the noise level."""
        t, _ = random_cpd((4, 4, 3, 3, 3), 16, seed=300)
        noisy = add_noise(t, -10, seed=400)
        _, info = decompose_with_info(noisy, 16, DecomposeOptions(seed=0))
        assert info["unrefined_backward_error"] > 1e-8
        assert info["backward_error"] <= 1e-10

    def test_complex_reaches_the_noise(self):
        t, _ = random_cpd((50, 10, 5), 10, seed=700, scalars=COMPLEX)
        noisy = add_noise(t, -15, seed=800)
        _, info = decompose_with_info(noisy, 10, DecomposeOptions(seed=0))
        assert info["backward_error"] <= 1e-15

    def test_schur_complement_that_does_not_fit_keeps_the_iterate(self, monkeypatch):
        """(9, 6, 5) at rank 5 takes the pencil, whose 25 x 25 cokernel buffer
        fits in 10 kB; the 50 x 50 Schur complement of a step does not, so
        refinement returns the recovered factors."""
        t, _ = random_cpd((9, 6, 5), 5, seed=1)
        noisy = add_noise(t, -8, seed=2)
        monkeypatch.setattr(polysys, "_physical_memory", lambda: 10_000)
        plain, plain_info = decompose_with_info(noisy, 5, DecomposeOptions(newton_iters=0))
        dec, info = decompose_with_info(noisy, 5)
        assert info["path"] == "pencil" and info["refinement_steps"] == 0
        assert info["backward_error"] == plain_info["backward_error"]
        assert all(np.array_equal(a, b) for a, b in zip(dec.factors, plain.factors))

    def test_tall_modes_keep_the_schur_complement_small(self, monkeypatch):
        """Modes 2 and 3 of (6, 40, 30) at rank 5 enter the Schur complement
        with 5 rows each: 50 x 50 fits in 100 kB, where the 350 x 350 of the
        raw dimensions would not."""
        t, _ = random_cpd((6, 40, 30), 5, seed=3)
        noisy = add_noise(t, -8, seed=4)
        monkeypatch.setattr(polysys, "_physical_memory", lambda: 100_000)
        _, info = decompose_with_info(noisy, 5)
        assert info["refinement_steps"] >= 1
        assert info["backward_error"] < info["unrefined_backward_error"]

    def test_factorization_failure_keeps_the_iterate(self, monkeypatch):
        t, _ = random_cpd((12, 7, 3), 12, seed=53)
        noisy = add_noise(t, -8, seed=54)
        # the SVD cokernel, so that only the refinement factors anything
        plain, plain_info = decompose_with_info(
            noisy, 12, DecomposeOptions(kernel="svd", newton_iters=0))

        def not_definite(*args, **kwargs):
            raise np.linalg.LinAlgError("injected")
        monkeypatch.setattr(scipy.linalg, "cho_factor", not_definite)
        dec, info = decompose_with_info(noisy, 12, DecomposeOptions(kernel="svd"))
        assert info["refinement_steps"] == 0
        assert info["backward_error"] == plain_info["backward_error"]
        assert all(np.array_equal(a, b) for a, b in zip(dec.factors, plain.factors))


def _draw(rng, shape, scalars):
    x = rng.standard_normal(shape)
    return x + 1j * rng.standard_normal(shape) if scalars == COMPLEX else x


def _noisy_system(shape, r, seed, scalars, e):
    t, dec = random_cpd(shape, r, seed=seed, scalars=scalars)
    if e is not None:
        t = recovery.add_noise(t, e, seed=seed + 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # e = -5 leaves a visible trailing gap
        system = kernel_flattening(flatten_mode1(t), r, shape[1:])
    return system, dec.factors[1], dec.factors[2]


class TestStackedAgainstLoops:
    """The stacked back end against the one-point-at-a-time loops it
    replaced (``oracles``): each column matches its own call."""

    @pytest.mark.parametrize("e", [None, -10, -5])
    @pytest.mark.parametrize("scalars", [REAL, COMPLEX])
    def test_solve_gamma_columns(self, scalars, e):
        system, betas, _ = _noisy_system((10, 6, 4), 8, 70, scalars, e)
        gammas = solve_gamma(system, betas)
        assert gammas.shape == (4, 8)
        for i in range(8):
            assert np.array_equal(gammas[:, i], solve_gamma_point(system, betas[:, i]))

    @pytest.mark.parametrize("scalars", [REAL, COMPLEX])
    def test_solve_gamma_square_system(self, scalars):
        # s == n: four forms in five y-unknowns, a kernel at every beta
        rng = np.random.default_rng(74)
        system = BilinearSystem(_draw(rng, (4, 4, 5), scalars))
        betas = _draw(rng, (4, 6), scalars)
        gammas = solve_gamma(system, betas)
        for i in range(6):
            assert np.array_equal(gammas[:, i], solve_gamma_point(system, betas[:, i]))

    def test_solve_gamma_names_the_first_degenerate_point(self):
        # columns 1 and 3 share their beta, so beta_1^T F has a 2-dim kernel
        rng = np.random.default_rng(75)
        factors = [rng.standard_normal((10, 8)), rng.standard_normal((6, 8)),
                   rng.standard_normal((4, 8))]
        factors[1][:, 3] = factors[1][:, 1]
        system = kernel_flattening(flatten_mode1(cpd_eval(CPDecomposition(factors))), 8, (6, 4))
        with pytest.raises(AmbiguousKernel, match="second-smallest"):
            solve_gamma_point(system, factors[1][:, 1])
        with pytest.raises(AmbiguousKernel, match="point 1: second-smallest"):
            solve_gamma(system, factors[1])

    @pytest.mark.parametrize("shape", [(3, 2, 4, 2), (5,), (4, 6)])
    @pytest.mark.parametrize("scalars", [REAL, COMPLEX])
    def test_rank1_factorization_columns(self, shape, scalars):
        rng = np.random.default_rng(77)
        cols = _draw(rng, (int(np.prod(shape)), 5), scalars)
        sigma, vecs = rank1_factorization(cols, shape)
        assert sigma.shape == (5,) and [v.shape for v in vecs] == [(d, 5) for d in shape]
        for i in range(5):
            ref_sigma, ref_vecs = rank1_factorization_column(cols[:, i], shape)
            assert sigma[i] == pytest.approx(ref_sigma, rel=1e-14)
            for v, ref in zip(vecs, ref_vecs):
                assert np.linalg.norm(v[:, i] - ref) <= 1e-14


class TestBackEndCalls:
    """A decomposition solves all points in one solve_gamma call and fits the
    factors, refining them or not, in one newton_refine call."""

    @pytest.mark.parametrize("shape, r", [((9, 6, 5), 5), ((12, 7, 3), 12),
                                          ((4, 4, 3, 3), 6)])
    @pytest.mark.parametrize("newton_iters", [0, 3])
    def test_one_call_per_candidate_set(self, monkeypatch, shape, r, newton_iters):
        calls = {"solve_gamma": 0, "newton_refine": 0}

        def counting(name):
            original = getattr(recovery, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(recovery, name, counted)
        for name in calls:
            counting(name)
        t, _ = random_cpd(shape, r, seed=78)
        _, info = decompose_with_info(t, r, DecomposeOptions(newton_iters=newton_iters))
        assert info["backward_error"] <= 1e-10
        assert calls["solve_gamma"] == 1
        assert calls["newton_refine"] == 1


class TestSolveAlpha:
    def test_golden_alphas(self, golden_tensor):
        flat = flatten_mode1(golden_tensor)
        alphas, resid = solve_alpha(flat, GOLDEN_BETAS, GOLDEN_GAMMAS)
        assert np.allclose(alphas, GOLDEN_ALPHAS, atol=1e-12)
        assert resid <= 1e-13

    def test_rank_one_normal_equations(self):
        t, dec = random_cpd((5, 4, 3), 1, seed=34)
        flat = flatten_mode1(t)
        b, g = dec.factors[1][:, 0], dec.factors[2][:, 0]
        alphas, _ = solve_alpha(flat, b[:, None], g[:, None])
        kr = np.kron(b, g)
        expected = flat @ kr / (kr @ kr)
        assert np.allclose(alphas[:, 0], expected, atol=1e-12)

    def test_random_residual(self):
        t, dec = random_cpd((9, 4, 3), 7, seed=35)
        _, resid = solve_alpha(flatten_mode1(t), dec.factors[1], dec.factors[2])
        assert resid <= 1e-12

    def test_duplicate_points_rejected(self, golden_tensor):
        betas = GOLDEN_BETAS.copy()
        gammas = GOLDEN_GAMMAS.copy()
        betas[:, 1], gammas[:, 1] = betas[:, 0], gammas[:, 0]
        with pytest.raises(RankDeficientKR):
            solve_alpha(flatten_mode1(golden_tensor), betas, gammas)


class TestDecompose:
    def test_golden_example(self, golden_tensor):
        dec, info = decompose_with_info(golden_tensor, 4)
        assert info["backward_error"] <= 1e-12
        assert factor_set_distance(dec.factors[1], GOLDEN_BETAS) <= 1e-8
        assert factor_set_distance(dec.factors[2], GOLDEN_GAMMAS) <= 1e-8

    def test_unbalanced_raised_degree(self):
        t, _ = random_cpd((12, 7, 3), 12, seed=36)
        dec, info = decompose_with_info(t, 12)
        assert tuple(info["degree_used"]) == (3, 1)
        assert info["backward_error"] <= 1e-10

    def test_full_pipeline_random_small(self):
        t, _ = random_cpd((4, 3, 3), 4, seed=37)
        assert backward_error(t, decompose(t, 4)) <= 1e-12

    def test_bit_for_bit_determinism(self):
        t, _ = random_cpd((12, 7, 3), 12, seed=38)
        opts = DecomposeOptions(kernel="eigs", seed=5)
        d1 = decompose(t, 12, opts)
        d2 = decompose(t, 12, opts)
        assert all(np.array_equal(a, b) for a, b in zip(d1.factors, d2.factors))

    def test_pencil_and_general_agree(self):
        t, _ = random_cpd((9, 6, 5), 5, seed=39)
        d1 = decompose(t, 5, DecomposeOptions(path="pencil", seed=3))
        d2 = decompose(t, 5, DecomposeOptions(path="normal-form", seed=3))
        for k in (1, 2):
            assert factor_set_distance(d1.factors[k], d2.factors[k]) <= 1e-9

    def test_forced_mixed_degree(self, golden_tensor):
        # the worked example certifies every raised degree, including (2, 2)
        dec, info = decompose_with_info(golden_tensor, 4,
                                        DecomposeOptions(degree=(2, 2)))
        assert tuple(info["degree_used"]) == (2, 2)
        assert info["backward_error"] <= 1e-12

    def test_forced_swapped_degree(self, golden_tensor):
        dec, info = decompose_with_info(golden_tensor, 4,
                                        DecomposeOptions(degree=(1, 2)))
        assert tuple(info["degree_used"]) == (1, 2)
        assert info["backward_error"] <= 1e-12

    def test_rank_one(self):
        t, _ = random_cpd((6, 5, 4), 1, seed=40)
        dec, info = decompose_with_info(t, 1)
        assert info["path"] == "rank-1"
        assert info["backward_error"] <= 1e-13

    @pytest.mark.parametrize("scalars", [REAL, COMPLEX])
    @pytest.mark.parametrize("shape, r, path", [((6, 2, 8), 6, "auto"), ((3, 2, 4), 3, "auto"),
                                                ((5, 6, 2), 3, "normal-form"),
                                                ((4, 3, 2, 2), 3, "normal-form")])
    def test_core_below_its_range_decomposes(self, shape, r, path, scalars):
        """The compressed core (grouped, for order 4) has m*n < r although
        the input passes validation; the rank bound still reaches r."""
        t, _ = random_cpd(shape, r, seed=43, scalars=scalars)
        dec, info = decompose_with_info(t, r, DecomposeOptions(path=path))
        assert info["path"] == "normal-form"
        assert info["backward_error"] <= 1e-12

    def test_rank_out_of_range(self, golden_tensor):
        with pytest.raises(RankOutOfRange) as exc:
            decompose(golden_tensor, 5)
        assert exc.value.stage == "validation"

    @pytest.mark.parametrize("shape", [(6, 5, 4), (3, 2, 2, 2)])
    @pytest.mark.parametrize("r", [0, -2])
    def test_rank_below_one_rejected(self, shape, r):
        """Every order rejects a rank below 1 with the same message, before
        the flattening kernel or the grouping sees it."""
        t, _ = random_cpd(shape, 2, seed=42)
        with pytest.raises(ValueError, match="rank must be positive"):
            decompose_with_info(t, r)

    def test_rank_must_be_an_integer(self, golden_tensor):
        with pytest.raises(TypeError):
            decompose(golden_tensor, 1.5)
        dec = decompose(golden_tensor, np.int64(4))
        assert dec.rank == 4

    def test_corank_mismatch_carries_stage(self):
        t, _ = random_cpd((12, 7, 3), 12, seed=41)
        with pytest.raises(CorankMismatch) as exc:
            decompose(t, 12, DecomposeOptions(degree=(2, 1)))
        assert exc.value.stage == "cokernel"

    def test_deficient_basis_draws_once_more(self):
        """The first combination drawn for this (24, 7, 7) draw leaves a
        pivot ratio of 6.46e-9, below PIV_REL; the second one succeeds."""
        t, _ = random_cpd((24, 7, 7), 24, seed=2252851237)
        _, info = decompose_with_info(t, 24)
        assert info["backward_error"] <= 1e-13

    def test_deficient_basis_raises_after_the_second_draw(self, monkeypatch):
        draws = []

        def deficient(n_h0):
            draws.append(n_h0)
            raise BasisDeficient("injected")
        monkeypatch.setattr(normalform, "choose_basis", deficient)
        t, _ = random_cpd((12, 7, 3), 12, seed=36)
        with pytest.raises(BasisDeficient) as exc:
            decompose(t, 12)
        assert exc.value.stage == "multiplication"
        assert len(draws) == 2 and not np.array_equal(*draws)

    def test_stage_timings_reported(self, golden_tensor):
        _, info = decompose_with_info(golden_tensor, 4)
        for stage in ("validation", "compression", "degree", "kernel", "resultant",
                      "cokernel", "multiplication", "diagonalization", "refinement",
                      "recovery"):
            assert stage in info["stage_timings_ms"]

    def test_normalization_convention(self):
        t, _ = random_cpd((8, 5, 4), 6, seed=42)
        dec = decompose(t, 6)
        assert dec.normalized
        for f in dec.factors[1:]:
            assert np.allclose(np.linalg.norm(f, axis=0), 1.0, atol=1e-12)

    def test_complex_field(self):
        t, _ = random_cpd((8, 5, 4), 6, seed=43, scalars="complex")
        dec, info = decompose_with_info(t, 6)
        assert info["backward_error"] <= 1e-10
        assert np.iscomplexobj(dec.factors[0])

    def test_many_seeds_end_to_end(self):
        # exactness across repeated draws of one feasible format
        errs = []
        for seed in range(20):
            t, _ = random_cpd((8, 5, 4), 6, seed=800 + seed)
            _, info = decompose_with_info(t, 6, DecomposeOptions(seed=seed))
            errs.append(info["backward_error"])
        assert max(errs) <= 1e-10

    def test_large_unbalanced_round_trip(self):
        # sized like the noise-protocol instances at full rank budget
        t, _ = random_cpd((150, 25, 10), 70, seed=70)
        dec, info = decompose_with_info(t, 70)
        assert info["backward_error"] <= 1e-10


class TestOneOrientation:
    """(1, e) and the pencil solve the transposed forms; the points come
    back in the tensor's own mode order."""

    @pytest.mark.parametrize("scalars", [REAL, COMPLEX])
    @pytest.mark.parametrize("shape, r, e", [((12, 7, 3), 10, 2), ((10, 5, 4), 10, 2),
                                             ((12, 7, 3), 12, 5)])
    def test_degree_1e_matches_e1_on_swapped_modes(self, shape, r, e, scalars):
        t, _ = random_cpd(shape, r, seed=61, scalars=scalars)
        swapped = DenseTensor(t.data.transpose(0, 2, 1), t.scalars)
        dec, info = decompose_with_info(t, r, DecomposeOptions(degree=(1, e), seed=2))
        ref, ref_info = decompose_with_info(swapped, r, DecomposeOptions(degree=(e, 1), seed=2))
        assert info["degree_used"] == (1, e) and ref_info["degree_used"] == (e, 1)
        assert info["backward_error"] <= 1e-12
        assert factor_set_distance(dec.factors[1], ref.factors[2]) <= 1e-9
        assert factor_set_distance(dec.factors[2], ref.factors[1]) <= 1e-9

    def test_pencil_svd_and_eigs_agree(self):
        t, _ = random_cpd((9, 6, 5), 5, seed=39)
        runs = [decompose_with_info(t, 5, DecomposeOptions(path="pencil", kernel=k, seed=3))
                for k in ("svd", "eigs")]
        for dec, info in runs:
            assert info["path"] == "pencil" and info["backward_error"] <= 1e-12
            assert {"resultant", "cokernel"} <= set(info["stage_timings_ms"])
        for k in (1, 2):
            assert factor_set_distance(runs[0][0].factors[k], runs[1][0].factors[k]) <= 1e-9


class TestDecomposeHigherOrder:
    def test_order4_rank1(self):
        t, _ = random_cpd((3, 3, 2, 2), 1, seed=44)
        dec, info = decompose_with_info(t, 1)
        assert info["backward_error"] <= 1e-12
        assert dec.order == 4

    def test_order5_automatic_grouping(self):
        t, _ = random_cpd((5, 5, 4, 4, 4), 20, seed=45)
        dec, info = decompose_with_info(t, 20)
        assert "grouping" in info
        assert info["backward_error"] <= 1e-10
        assert dec.order == 5 and dec.rank == 20

    def test_order4_forced_grouping(self):
        shape = (4, 4, 3, 3)
        t, _ = random_cpd(shape, 6, seed=46)
        g = Grouping(((1, 3), (2,), (4,)), shape)
        dec, info = decompose_with_info(t, 6, DecomposeOptions(grouping=g))
        assert info["grouping"] == [[1, 3], [2], [4]]
        assert info["backward_error"] <= 1e-10

    def test_recovered_factors_match_truth(self):
        t, truth = random_cpd((4, 4, 3, 3), 5, seed=47)
        dec = decompose(t, 5)
        for k in range(1, 4):
            assert factor_set_distance(dec.factors[k], truth.factors[k]) <= 1e-8


class TestNoise:
    def test_moderate_noise_reaches_benchmark(self):
        from cpdhnf.recovery import add_noise
        t, _ = random_cpd((50, 10, 5), 20, seed=48)
        noisy = add_noise(t, -6, seed=49)
        dec, info = decompose_with_info(noisy, 20)
        assert info["backward_error"] <= 1e-6

    def test_newton_only_helps(self):
        from cpdhnf.recovery import add_noise
        t, _ = random_cpd((20, 8, 4), 10, seed=50)
        noisy = add_noise(t, -8, seed=51)
        _, pre = decompose_with_info(noisy, 10, DecomposeOptions(newton_iters=0))
        _, post = decompose_with_info(noisy, 10, DecomposeOptions(newton_iters=3))
        assert post["backward_error"] <= pre["backward_error"]


    def test_refinement_gain_at_the_driver(self):
        from cpdhnf.recovery import add_noise
        t, _ = random_cpd((50, 10, 5), 30, seed=0)
        noisy = add_noise(t, -12, seed=1)
        _, pre = decompose_with_info(noisy, 30, DecomposeOptions(newton_iters=0))
        _, post = decompose_with_info(noisy, 30, DecomposeOptions(newton_iters=3))
        assert post["backward_error"] <= 0.1 * pre["backward_error"]


class TestCandidates:
    """The driver returns one factor set: the recovered factors, refined when
    a step lowers the backward error.  The alpha residual is that of the
    recovered, unrefined points."""

    def _run(self, newton_iters=3):
        t, _ = random_cpd((12, 7, 3), 12, seed=53)
        noisy = add_noise(t, -8, seed=54)
        return decompose_with_info(noisy, 12, DecomposeOptions(seed=2, newton_iters=newton_iters))

    def test_alpha_residual_describes_the_returned_factors(self, monkeypatch):
        unrefined, plain = self._run(newton_iters=0)
        _, refined = self._run()
        assert refined["refinement_steps"] >= 1
        assert refined["backward_error"] < plain["backward_error"]
        assert refined["alpha_residual"] == plain["alpha_residual"]
        assert refined["unrefined_backward_error"] == plain["backward_error"]
        step = recovery._gn_step

        def worse(factors, res):
            return [d + 1e-3 for d in step(factors, res)]
        monkeypatch.setattr(recovery, "_gn_step", worse)
        dec, info = self._run()
        assert info["refinement_steps"] == 0
        assert all(np.array_equal(a, b) for a, b in zip(dec.factors, unrefined.factors))
        assert info["backward_error"] == plain["backward_error"]
        assert info["alpha_residual"] == plain["alpha_residual"]

    def test_error_when_no_candidate_fits(self, monkeypatch):
        def never_fits(flat, betas, gammas):
            raise RankDeficientKR("injected")
        monkeypatch.setattr(recovery, "solve_alpha", never_fits)
        with pytest.raises(RankDeficientKR, match="injected") as exc:
            self._run()
        assert exc.value.stage == "recovery"

    def test_rank_one_has_no_alpha_residual(self):
        t, _ = random_cpd((6, 5, 4), 1, seed=40)
        _, info = decompose_with_info(t, 1)
        assert info["alpha_residual"] is None


class TestStageTags:
    def test_forced_pencil_above_its_rank_is_tagged_degree(self):
        t, _ = random_cpd((9, 6, 5), 8, seed=54)
        with pytest.raises(RankOutOfRange) as exc:
            decompose(t, 8, DecomposeOptions(path="pencil"))
        assert exc.value.stage == "degree"
        assert str(exc.value) == "[degree] pencil degree (1, 1) needs rank <= 6, got 8"

    def test_inner_stage_tags_first(self):
        timings = {}
        with pytest.raises(CorankMismatch) as exc:
            with recovery._stage(timings, "outer"):
                with recovery._stage(timings, "inner"):
                    raise CorankMismatch("injected")
        assert exc.value.stage == "inner"
        with pytest.raises(CorankMismatch) as exc:
            with recovery._stage(timings, "outer"):
                raise CorankMismatch("injected", stage="given")
        assert exc.value.stage == "given"
        assert timings == {}


class TestCokernelFallback:
    """(12, 7, 3) at rank 12 has a 252 x 252 shift matrix, so auto picks eigs."""

    def _check(self, detail):
        t, _ = random_cpd((12, 7, 3), 12, seed=52)
        dec, info = decompose_with_info(t, 12, DecomposeOptions(seed=1))
        ref = decompose(t, 12, DecomposeOptions(kernel="svd", seed=1))
        assert all(np.array_equal(a, b) for a, b in zip(dec.factors, ref.factors))
        assert any("fell back to svd" in w and detail in w for w in info["warnings"])
        with pytest.raises(CorankMismatch) as exc:
            decompose(t, 12, DecomposeOptions(kernel="eigs", seed=1))
        assert exc.value.stage == "cokernel"

    def test_gap_failure_falls_back(self, monkeypatch):
        def no_gap(res, r):
            raise CorankMismatch("injected: no Gram gap")
        monkeypatch.setattr(polysys, "_nullspace_eigs", no_gap)
        self._check("injected: no Gram gap")

    def test_no_convergence_falls_back(self, monkeypatch):
        monkeypatch.setattr(polysys, "EIGS_MAXITER", 0)
        self._check("did not converge")

    def test_cholesky_failure_falls_back(self, monkeypatch):
        def not_definite(*args, **kwargs):
            raise np.linalg.LinAlgError("injected: not positive definite")
        monkeypatch.setattr(scipy.linalg, "cho_factor", not_definite)
        self._check("injected: not positive definite")

    @pytest.mark.parametrize("kernel", ["auto", "eigs", "svd"])
    def test_allocation_failure_is_typed_not_fallen_back(self, monkeypatch, kernel):
        """A dense buffer that cannot be allocated is an InsufficientMemory
        tagged cokernel on every method; the SVD fallback does not catch it."""
        t, _ = random_cpd((12, 7, 3), 12, seed=52)
        svd_calls = []
        nullspace_svd = polysys._nullspace_svd

        def counting_svd(res, r):
            svd_calls.append(r)
            return nullspace_svd(res, r)

        # the SVD densifies the 252-row shift matrix; the Gram route factors
        # the smaller stacked matrix of degree (3, 1)
        rows = 252 if kernel == "svd" else stacked_rows(6, 2, 12, (3, 1))
        fail_dense_buffers(monkeypatch, rows)
        monkeypatch.setattr(polysys, "_nullspace_svd", counting_svd)
        with pytest.raises(InsufficientMemory) as exc:
            decompose(t, 12, DecomposeOptions(kernel=kernel, seed=1))
        assert len(svd_calls) == (kernel == "svd")
        assert exc.value.stage == "cokernel"
        assert exc.value.nbytes == rows * rows * 8
        assert f"{rows} x {rows}" in str(exc.value)


class TestPlanMemoryCheck:
    """(12, 7, 3) at rank 12 and degree (3, 1) has 252 shift-matrix rows, so
    the cokernel needs a dense 252 x 252 float64 buffer."""

    NBYTES = 252 * 252 * 8

    def _decompose(self, monkeypatch, memory):
        t, _ = random_cpd((12, 7, 3), 12, seed=52)
        built = []

        def recording(system, degree):
            built.append(degree)
            return build_resultant(system, degree)

        monkeypatch.setattr(polysys, "_physical_memory", lambda: memory)
        monkeypatch.setattr(recovery, "build_resultant", recording)
        return lambda: decompose(t, 12, DecomposeOptions(seed=1)), built

    def test_fails_before_the_shift_matrix(self, monkeypatch):
        run, built = self._decompose(monkeypatch, self.NBYTES - 1)
        with pytest.raises(InsufficientMemory) as exc:
            run()
        assert built == []
        assert exc.value.stage == "cokernel"
        assert exc.value.nbytes == self.NBYTES
        assert "252 x 252" in str(exc.value)

    @pytest.mark.parametrize("memory", [NBYTES, None])
    def test_runs_when_it_fits_or_is_unknown(self, monkeypatch, memory):
        run, built = self._decompose(monkeypatch, memory)
        run()
        assert built == [(3, 1)]


class TestPlanBeforeCompression:
    """The degree plan and its memory check run before the HOSVD, so a plan
    that fails costs no arithmetic."""

    @pytest.mark.parametrize("case", ["pencil-above-rank", "no-memory"])
    def test_no_hosvd_when_the_plan_fails(self, monkeypatch, case):
        t, _ = random_cpd((9, 6, 5), 8, seed=54)
        calls = []

        def recording(*args):
            calls.append(args)
            return st_hosvd(*args)

        monkeypatch.setattr(recovery, "st_hosvd", recording)
        if case == "no-memory":
            monkeypatch.setattr(polysys, "_physical_memory", lambda: 1)
            error, stage, options = InsufficientMemory, "cokernel", DecomposeOptions()
        else:
            error, stage, options = RankOutOfRange, "degree", DecomposeOptions(path="pencil")
        with pytest.raises(error) as exc:
            decompose(t, 8, options)
        assert exc.value.stage == stage
        assert calls == []
        monkeypatch.setattr(polysys, "_physical_memory", lambda: None)
        decompose(t, 8)
        assert len(calls) == 1


class TestDegreeGuards:
    """Degrees are compared componentwise, so (2, 0) is rejected like (0, 2)."""

    @pytest.mark.parametrize("degree", [(2, 0), (0, 2)])
    def test_every_entry_point_rejects(self, degree, golden_system, golden_tensor):
        calls = [
            lambda: build_resultant(golden_system, degree),
            lambda: hilbert_from_points(random_config(3, 2, 4), degree),
            lambda: rank_bound(3, 2, *degree),
            lambda: decompose_with_info(golden_tensor, 4, DecomposeOptions(degree=degree)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=r"\(1, 1\)"):
                call()


class TestOptionChecks:
    """A bad path or nullspace method is rejected whichever route the input
    would take: rank 1, the pencil or the normal form."""

    @pytest.mark.parametrize("bad", [{"path": "bogus"}, {"kernel": "qr"}])
    @pytest.mark.parametrize("shape, r", [((6, 5, 4), 1), ((9, 6, 5), 5), ((12, 7, 3), 12)])
    def test_rejected_on_every_route(self, shape, r, bad):
        t, _ = random_cpd(shape, r, seed=62)
        with pytest.raises(ValueError, match="unknown"):
            decompose_with_info(t, r, DecomposeOptions(**bad))

    @pytest.mark.parametrize("degree, path", [((2, 1), "pencil"), ((1, 3), "pencil"),
                                              ((1, 1), "normal-form")])
    def test_forced_degree_contradicting_path_rejected(self, degree, path):
        with pytest.raises(ValueError, match="contradicts the forced degree"):
            DecomposeOptions(degree=degree, path=path)

    @pytest.mark.parametrize("degree, path", [((1, 1), "pencil"), ((2, 1), "normal-form"),
                                              ((1, 2), "normal-form"), ((1, 1), "auto"),
                                              ((2, 1), "auto")])
    def test_forced_degree_agreeing_with_path_runs(self, degree, path):
        t, _ = random_cpd((9, 6, 5), 5, seed=1)
        _, info = decompose_with_info(t, 5, DecomposeOptions(degree=degree, path=path))
        assert info["degree_used"] == degree
        assert info["path"] == ("pencil" if degree == (1, 1) else "normal-form")
        assert info["backward_error"] <= 1e-12

    @pytest.mark.parametrize("fields", [{"newton_iters": 1.5}, {"degree": (1.7, 1)},
                                        {"degree": (2, 1.0)}])
    def test_non_integer_counts_rejected(self, fields):
        with pytest.raises(TypeError):
            DecomposeOptions(**fields)

    def test_numpy_integer_counts_accepted(self):
        options = DecomposeOptions(newton_iters=np.int64(3), degree=(np.int64(2), 1))
        assert options.newton_iters == 3 and type(options.newton_iters) is int
        assert options.degree == (2, 1)
        t, _ = random_cpd((9, 6, 5), 5, seed=1)
        _, info = decompose_with_info(t, 5, options)
        assert info["backward_error"] <= 1e-12

    @pytest.mark.parametrize("iters", [-1, -2])
    def test_negative_newton_iters_rejected(self, iters):
        with pytest.raises(ValueError, match=f"newton_iters must be at least 0, got {iters}"):
            DecomposeOptions(newton_iters=iters)

    def test_grouping_that_is_not_a_grouping_rejected(self):
        # the parts alone, without the Grouping that checks them
        with pytest.raises(TypeError, match="grouping must be a Grouping, got tuple"):
            DecomposeOptions(grouping=((1, 3), (2,), (4,)))
        t, _ = random_cpd((4, 4, 3, 3), 6, seed=46)
        grouping = Grouping(((1, 3), (2,), (4,)), t.shape)
        _, info = decompose_with_info(t, 6, DecomposeOptions(grouping=grouping))
        assert info["grouping"] == [[1, 3], [2], [4]]

    def test_grouping_on_order_three_rejected(self):
        t, _ = random_cpd((6, 5, 4), 3, seed=46)
        grouping = Grouping(((1,), (2,), (3,)), t.shape)
        with pytest.raises(ValueError, match="grouping applies to tensors of order >= 4"):
            decompose_with_info(t, 3, DecomposeOptions(grouping=grouping))
