import numpy as np
import pytest
import scipy.linalg

from cpdhnf import (COMPLEX, REAL, AmbiguousKernel, BilinearSystem,
                    CorankMismatch, CPDecomposition, DecomposeOptions,
                    DenseTensor, Grouping,
                    InsufficientMemory, RankDeficientKR, RankOutOfRange,
                    SingularJacobian, backward_error, build_resultant,
                    cpd_eval, decompose, decompose_with_info, evaluate,
                    flatten_mode1, hilbert_from_points, jacobian,
                    kernel_flattening, newton_refine, polysys, random_config,
                    random_cpd, rank_bound, recovery, solve_alpha, solve_gamma)
from cpdhnf.config import NEWTON_RCOND

from conftest import (GOLDEN_ALPHAS, GOLDEN_BETAS, GOLDEN_GAMMAS,
                      fail_dense_buffers, stacked_rows)
from oracles import factor_set_distance


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


class TestNewtonRefine:
    def test_exact_zero_is_fixed_point(self, golden_system):
        b = np.array([1.0, 0.0, 2.0]) / np.sqrt(5)
        g = np.array([1.0, 0.0, 0.0])
        nb, ng = newton_refine(golden_system, b, g, iters=3)
        assert np.allclose(nb, b, atol=1e-15) and np.allclose(ng, g, atol=1e-15)

    def test_perturbed_golden_point_converges(self, golden_system):
        rng = np.random.default_rng(31)
        b = np.array([1.0, 0.0, 2.0]) + 1e-4 * rng.standard_normal(3)
        g = np.array([1.0, 0.0, 0.0]) + 1e-4 * rng.standard_normal(3)
        nb, ng = newton_refine(golden_system, b, g, iters=3)
        assert np.linalg.norm(evaluate(golden_system, nb, ng)) <= 1e-12

    def test_residual_reduction_factor(self, golden_system):
        rng = np.random.default_rng(32)
        for _ in range(10):
            b = np.array([1.0, 0.0, 2.0]) + 1e-5 * rng.standard_normal(3)
            g = np.array([1.0, 0.0, 0.0]) + 1e-5 * rng.standard_normal(3)
            pre = np.linalg.norm(evaluate(golden_system, b / np.linalg.norm(b),
                                          g / np.linalg.norm(g)))
            nb, ng = newton_refine(golden_system, b, g, iters=3)
            post = np.linalg.norm(evaluate(golden_system, nb, ng))
            if pre >= 1e-10:
                assert post <= 0.1 * pre

    def test_monotone_per_point(self, golden_system):
        rng = np.random.default_rng(33)
        for scale in (1e-1, 1e-3, 1e-6):
            b = np.array([1.0, 0.0, 2.0]) + scale * rng.standard_normal(3)
            g = np.array([1.0, 0.0, 0.0]) + scale * rng.standard_normal(3)
            b /= np.linalg.norm(b)
            g /= np.linalg.norm(g)
            pre = np.linalg.norm(evaluate(golden_system, b, g))
            nb, ng = newton_refine(golden_system, b, g, iters=3)
            assert np.linalg.norm(evaluate(golden_system, nb, ng)) <= pre

    def test_singular_jacobian_detected(self):
        f = np.random.default_rng(1).standard_normal((4, 4))
        system = BilinearSystem(np.array([f, 3 * f]))
        rng = np.random.default_rng(2)
        with pytest.raises(SingularJacobian):
            newton_refine(system, rng.standard_normal(4), rng.standard_normal(4))


def chart_step_reference(system, beta, gamma):
    """One refinement step in product-of-charts coordinates: the Jacobian
    restricted to QR bases of the hyperplanes orthogonal to the unit point,
    applied through an SVD pseudo-inverse cut at NEWTON_RCOND * sigma_1."""
    def complement(v):
        return np.linalg.qr(np.column_stack([v, np.eye(v.shape[0])]))[0][:, 1:]

    b = beta / np.linalg.norm(beta)
    g = gamma / np.linalg.norm(gamma)
    res = evaluate(system, b, g)
    chart = scipy.linalg.block_diag(complement(b), complement(g))
    u, sv, vh = np.linalg.svd(jacobian(system, b, g) @ chart, full_matrices=False)
    rank = int(np.sum(sv > NEWTON_RCOND * sv[0]))
    delta = chart @ (vh[:rank].conj().T @ ((u.conj().T @ res)[:rank] / sv[:rank]))
    nb, ng = b - delta[:system.m + 1], g - delta[system.m + 1:]
    return nb / np.linalg.norm(nb), ng / np.linalg.norm(ng)


class TestNewtonStepAgainstCharts:
    """The projected-Jacobian step against the product-of-charts step."""

    @pytest.mark.parametrize("shape, r", [((10, 6, 4), 8), ((12, 7, 3), 12),
                                          ((8, 5, 5), 8)])
    @pytest.mark.parametrize("scalars", [REAL, COMPLEX])
    def test_one_step_matches(self, shape, r, scalars):
        t, dec = random_cpd(shape, r, seed=40, scalars=scalars)
        system = kernel_flattening(flatten_mode1(t), r, shape[1:])
        rng = np.random.default_rng(41)
        for i in range(r):
            for scale in (1e-2, 1e-4, 1e-6):
                b, g = (f[:, i] + scale * rng.standard_normal(f.shape[0])
                        for f in dec.factors[1:])
                if scalars == COMPLEX:
                    b = b + 1j * scale * rng.standard_normal(b.shape)
                    g = g + 1j * scale * rng.standard_normal(g.shape)
                pre = np.linalg.norm(evaluate(system, b / np.linalg.norm(b),
                                              g / np.linalg.norm(g)))
                nb, ng = newton_refine(system, b, g, iters=1)
                rb, rg = chart_step_reference(system, b, g)
                # the step was taken, not rejected by the monotone rule
                assert np.linalg.norm(evaluate(system, nb, ng)) < pre
                assert np.linalg.norm(nb - rb) <= 1e-13
                assert np.linalg.norm(ng - rg) <= 1e-13


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
    """The driver fits every candidate point set, refined first, and returns
    the one with the smallest backward error together with its own alpha
    residual."""

    def _run(self, newton_iters=3):
        t, _ = random_cpd((12, 7, 3), 12, seed=53)
        return decompose_with_info(t, 12, DecomposeOptions(seed=2, newton_iters=newton_iters))

    def test_alpha_residual_describes_the_returned_factors(self, monkeypatch):
        unrefined, plain = self._run(newton_iters=0)
        refine = recovery.newton_refine

        def worse(system, beta, gamma, iters=3):
            b, g = refine(system, beta, gamma, iters)
            return b + 1e-3, g
        monkeypatch.setattr(recovery, "newton_refine", worse)
        dec, info = self._run()
        assert all(np.array_equal(a, b) for a, b in zip(dec.factors, unrefined.factors))
        assert info["backward_error"] == plain["backward_error"]
        assert info["alpha_residual"] == plain["alpha_residual"]

    def test_candidate_that_cannot_be_fitted_is_skipped(self, monkeypatch):
        unrefined, plain = self._run(newton_iters=0)
        fit = recovery.solve_alpha
        calls = []

        def first_fails(flat, betas, gammas):
            calls.append(1)
            if len(calls) == 1:
                raise RankDeficientKR("injected")
            return fit(flat, betas, gammas)
        monkeypatch.setattr(recovery, "solve_alpha", first_fails)
        dec, info = self._run()
        assert len(calls) == 2
        assert all(np.array_equal(a, b) for a, b in zip(dec.factors, unrefined.factors))
        assert info["alpha_residual"] == plain["alpha_residual"]

    def test_error_when_no_candidate_fits(self, monkeypatch):
        messages = iter(["refined", "unrefined"])

        def never_fits(flat, betas, gammas):
            raise RankDeficientKR(next(messages))
        monkeypatch.setattr(recovery, "solve_alpha", never_fits)
        with pytest.raises(RankDeficientKR) as exc:
            self._run()
        assert exc.value.stage == "recovery"
        assert "refined" in str(exc.value) and "unrefined" not in str(exc.value)

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
