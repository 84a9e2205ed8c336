import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpdhnf import (CPDecomposition, DenseTensor, Grouping, NoFeasibleGrouping,
                    backward_error, choose_grouping, cpd_eval, flatten_mode1,
                    random_cpd, rank1_factorization, read_tensor, reshape_group,
                    st_hosvd, write_tensor)
from cpdhnf.recovery import add_noise

from conftest import GOLDEN_ALPHAS, GOLDEN_BETAS, GOLDEN_FLATTENING, GOLDEN_GAMMAS
from oracles import st_hosvd_expand, ungroup


def golden_cpd():
    return CPDecomposition([GOLDEN_ALPHAS, GOLDEN_BETAS, GOLDEN_GAMMAS])


class TestFlatten:
    def test_golden_matrix(self, golden_tensor):
        assert np.array_equal(flatten_mode1(golden_tensor), GOLDEN_FLATTENING)
        assert flatten_mode1(golden_tensor)[0].tolist() == [1, 0, 0, 0, 0, 0, 2, 0, 0]

    def test_rank_one_is_outer_product(self):
        rng = np.random.default_rng(0)
        a, b, g = rng.standard_normal(4), rng.standard_normal(3), rng.standard_normal(2)
        t = cpd_eval(CPDecomposition([a[:, None], b[:, None], g[:, None]]))
        assert np.allclose(flatten_mode1(t), np.outer(a, np.kron(b, g)))

    def test_round_trip(self):
        t, _ = random_cpd((3, 3, 3), 2, seed=1)
        flat = flatten_mode1(t)
        assert np.array_equal(flat.reshape(3, 3, 3), t.data)

    def test_rejects_wrong_order(self):
        t, _ = random_cpd((2, 2, 2, 2), 1, seed=0)
        with pytest.raises(ValueError):
            flatten_mode1(t)

    def test_flattening_factors_through_khatri_rao(self):
        from cpdhnf import khatri_rao
        t, dec = random_cpd((6, 4, 3), 5, seed=3)
        flat = flatten_mode1(t)
        expected = dec.factors[0] @ khatri_rao(dec.factors[1:]).T
        assert np.linalg.norm(flat - expected) <= 1e-13 * np.linalg.norm(flat)


class TestCpdEval:
    def test_golden_decomposition(self, golden_tensor):
        assert np.array_equal(cpd_eval(golden_cpd()).data, golden_tensor.data)

    def test_all_ones(self):
        ones = [np.ones((d, 1)) for d in (2, 3, 4)]
        t = cpd_eval(CPDecomposition(ones))
        assert np.array_equal(t.data, np.ones((2, 3, 4)))

    def test_deterministic(self):
        _, dec = random_cpd((4, 3, 2), 3, seed=5)
        assert np.array_equal(cpd_eval(dec).data, cpd_eval(dec).data)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            cpd_eval(golden_cpd(), shape=(4, 3, 2))


class TestBackwardError:
    def test_exact_decomposition(self, golden_tensor):
        assert backward_error(golden_tensor, golden_cpd()) <= 1e-15

    def test_zero_factors(self, golden_tensor):
        zero = CPDecomposition([np.zeros((4, 1)), np.zeros((3, 1)), np.zeros((3, 1))])
        assert backward_error(golden_tensor, zero) == pytest.approx(1.0)

    def test_zero_tensor_rejected(self):
        data = np.zeros((2, 2, 2))
        data[0, 0, 0] = 1.0
        t = DenseTensor(data)
        shifted = DenseTensor(t.data - t.data)
        with pytest.raises(ValueError):
            backward_error(shifted, golden_cpd())

    @given(lam=st.floats(0.1, 10), mu=st.floats(0.1, 10), term=st.integers(0, 2))
    @settings(max_examples=20, deadline=None)
    def test_invariant_under_term_rescaling(self, lam, mu, term):
        t, dec = random_cpd((4, 3, 3), 3, seed=9)
        factors = [f.copy() for f in dec.factors]
        factors[0][:, term] *= lam
        factors[1][:, term] *= mu
        factors[2][:, term] /= lam * mu
        base = backward_error(t, dec)
        assert backward_error(t, CPDecomposition(factors)) == pytest.approx(base, abs=1e-12)


class TestRandomCpd:
    def test_reproducible(self):
        t1, d1 = random_cpd((5, 4, 3), 3, seed=11)
        t2, d2 = random_cpd((5, 4, 3), 3, seed=11)
        assert np.array_equal(t1.data, t2.data)
        assert all(np.array_equal(a, b) for a, b in zip(d1.factors, d2.factors))

    def test_large_unbalanced_flattening_rank(self):
        t, _ = random_cpd((150, 25, 10), 70, seed=3)
        sv = np.linalg.svd(flatten_mode1(t), compute_uv=False)
        assert np.sum(sv >= 1e-8 * sv[0]) >= 70

    def test_small_format_rank_condition(self):
        t, dec = random_cpd((4, 3, 3), 4, seed=1)
        ell1, m1, n1 = t.shape
        assert dec.rank <= min(ell1, (m1 - 1) * (n1 - 1))

    def test_complex_field(self):
        t, _ = random_cpd((4, 3, 3), 2, seed=0, scalars="complex")
        assert t.scalars == "complex"
        assert np.iscomplexobj(t.data)


class TestReshapeGroup:
    def test_order8_grouping_shape(self):
        shape = (7, 7, 7, 7, 6, 6, 5, 5)
        g = Grouping(((4, 6, 7, 8), (1, 2, 3), (5,)), shape)
        assert g.grouped_shape == (1050, 343, 6)
        rng = np.random.default_rng(0)
        t = DenseTensor(rng.standard_normal(shape))
        t3 = reshape_group(t, g)
        assert t3.shape == (1050, 343, 6)
        assert t3.norm() == pytest.approx(t.norm(), rel=0)
        assert np.array_equal(ungroup(t3, g).data, t.data)

    def test_identity_grouping_order3(self):
        t, _ = random_cpd((4, 3, 2), 2, seed=2)
        g = Grouping(((1,), (2,), (3,)), t.shape)
        assert np.array_equal(reshape_group(t, g).data, t.data)

    def test_rank_one_maps_to_rank_one(self):
        _, dec = random_cpd((3, 3, 2, 2), 1, seed=4)
        t = cpd_eval(dec)
        g = Grouping(((1, 2), (3,), (4,)), t.shape)
        flat = flatten_mode1(reshape_group(t, g))
        sv = np.linalg.svd(flat, compute_uv=False)
        assert sv[1] <= 1e-12 * sv[0]

    def test_invalid_partition(self):
        with pytest.raises(ValueError):
            Grouping(((1, 2), (2, 3), (4,)), (2, 2, 2, 2))
        with pytest.raises(ValueError):
            Grouping(((1,), (2, 3, 4)), (2, 2, 2, 2))

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_group_ungroup_bit_exact(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(2, 4, size=5))
        labels = [0, 1, 2] + list(rng.integers(0, 3, size=2))
        rng.shuffle(labels)
        parts = tuple(tuple(i + 1 for i, l in enumerate(labels) if l == p) for p in range(3))
        parts = tuple(sorted(parts, key=lambda q: (-math.prod(shape[i - 1] for i in q), q)))
        g = Grouping(parts, shape)
        t = DenseTensor(rng.standard_normal(shape))
        t3 = reshape_group(t, g)
        assert t3.norm() == pytest.approx(t.norm(), rel=0)
        assert np.array_equal(ungroup(t3, g).data, t.data)


class TestChooseGrouping:
    def test_order8_rank_1000(self):
        g = choose_grouping((7, 7, 7, 7, 6, 6, 5, 5), 1000)
        l1, m1, n1 = g.grouped_shape
        assert l1 >= 1000 and (m1 - 1) * (n1 - 1) >= 1000

    def test_infeasible(self):
        with pytest.raises(NoFeasibleGrouping):
            choose_grouping((2, 2, 2, 2), 16)

    def test_small_feasible(self):
        g = choose_grouping((4, 4, 4, 4), 4)
        l1, m1, n1 = g.grouped_shape
        assert 4 <= min(l1, (m1 - 1) * (n1 - 1))

    def test_rejects_order3(self):
        with pytest.raises(ValueError):
            choose_grouping((4, 3, 3), 2)


class TestStHosvd:
    def test_lossless_at_rank_targets(self):
        t, _ = random_cpd((8, 6, 5), 4, seed=7)
        targets = (min(8, 4), min(6, 4), min(5, 4))
        core, us = st_hosvd(t, targets)
        assert core.shape == targets
        for u in us:
            assert np.allclose(u.conj().T @ u, np.eye(u.shape[1]), atol=1e-12)
        rec = st_hosvd_expand(core, us)
        assert np.linalg.norm(rec.data - t.data) <= 1e-12 * t.norm()

    def test_full_targets_exact(self):
        t, _ = random_cpd((4, 3, 3), 6, seed=8)
        core, us = st_hosvd(t, t.shape)
        rec = st_hosvd_expand(core, us)
        assert np.allclose(rec.data, t.data, atol=1e-12)

    def test_truncation_error_matches_tail_energy(self):
        # independent reference: rerun the sequential truncations with plain
        # SVDs, adding up the discarded singular-value energy per mode
        rng = np.random.default_rng(3)
        t = DenseTensor(rng.standard_normal((6, 5, 4)))
        targets = (3, 3, 2)
        core, us = st_hosvd(t, targets)
        err = np.linalg.norm(st_hosvd_expand(core, us).data - t.data)

        work = t.data
        tail = 0.0
        for k in sorted(range(3), key=lambda k: -t.shape[k]):
            mat = np.moveaxis(work, k, 0).reshape(work.shape[k], -1)
            u, sv, _ = np.linalg.svd(mat, full_matrices=False)
            tail += np.sum(sv[targets[k]:] ** 2)
            u = u[:, : targets[k]]
            work = np.moveaxis(np.tensordot(u.T, work, axes=(1, k)), 0, k)
        assert err == pytest.approx(np.sqrt(tail), rel=1e-10)


class TestRank1Factorization:
    def test_golden_pair(self):
        v = np.kron([1.0, 0.0, 2.0], [1.0, 0.0, 0.0])
        sigma, (u, w) = rank1_factorization(v, (3, 3))
        assert abs(abs(u @ np.array([1, 0, 2]) / np.sqrt(5)) - 1) <= 1e-12
        assert abs(abs(w[0]) - 1) <= 1e-12
        rec = sigma * np.kron(u, w)
        assert np.linalg.norm(rec - v) <= 1e-12

    def test_basis_vector(self):
        sigma, (u, w) = rank1_factorization(np.eye(6)[0], (2, 3))
        assert sigma == pytest.approx(1.0)
        assert np.allclose(np.abs(u), [1, 0])
        assert np.allclose(np.abs(w), [1, 0, 0])

    def test_random_order4(self):
        rng = np.random.default_rng(5)
        vecs = [rng.standard_normal(d) for d in (3, 2, 4, 2)]
        v = vecs[0]
        for w in vecs[1:]:
            v = np.kron(v, w)
        sigma, units = rank1_factorization(v, (3, 2, 4, 2))
        rec = units[0]
        for w in units[1:]:
            rec = np.kron(rec, w)
        assert np.linalg.norm(sigma * rec - v) <= 1e-12 * np.linalg.norm(v)

    def test_zero_vector(self):
        with pytest.raises(ValueError):
            rank1_factorization(np.zeros(6), (2, 3))


class TestAddNoise:
    def test_exact_relative_magnitude(self):
        # the scaling enforces the magnitude exactly; re-measuring it in
        # floating point adds ~sqrt(size) eps of rounding
        t, _ = random_cpd((5, 4, 3), 2, seed=1)
        noisy = add_noise(t, -3, seed=2)
        rel = np.linalg.norm((noisy.data - t.data).ravel()) / t.norm()
        assert rel == pytest.approx(1e-3, rel=1e-13)

    def test_none_sentinel(self):
        t, _ = random_cpd((5, 4, 3), 2, seed=1)
        assert np.array_equal(add_noise(t, None).data, t.data)

    def test_deterministic(self):
        t, _ = random_cpd((5, 4, 3), 2, seed=1)
        assert np.array_equal(add_noise(t, -5, seed=9).data, add_noise(t, -5, seed=9).data)


class TestTensorFile:
    def test_round_trip_real(self, tmp_path):
        t, _ = random_cpd((4, 3, 2), 3, seed=13)
        path = tmp_path / "t.txt"
        write_tensor(path, t)
        back = read_tensor(path)
        assert back.scalars == "real"
        assert np.array_equal(back.data, t.data)

    def test_round_trip_complex(self, tmp_path):
        t, _ = random_cpd((3, 2, 2), 2, seed=14, scalars="complex")
        path = tmp_path / "t.txt"
        write_tensor(path, t)
        back = read_tensor(path)
        assert back.scalars == "complex"
        assert np.array_equal(back.data, t.data)

    def test_header_layout(self, tmp_path, golden_tensor):
        path = tmp_path / "g.txt"
        write_tensor(path, golden_tensor)
        lines = path.read_text().splitlines()
        assert lines[0] == "cpdhnf-tensor v1"
        assert lines[1] == "real"
        assert lines[2] == "3"
        assert lines[3] == "4 3 3"

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("nope\nreal\n1\n2\n0 0\n")
        with pytest.raises(ValueError):
            read_tensor(path)


class TestDenseTensorInvariants:
    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            DenseTensor(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    def test_rejects_unknown_field(self):
        with pytest.raises(ValueError):
            DenseTensor(np.ones((2, 2)), scalars="rational")

    def test_normalized_flag_checked(self):
        with pytest.raises(ValueError):
            CPDecomposition([np.ones((3, 1)), 2 * np.ones((3, 1)), np.ones((3, 1))],
                            normalized=True)
