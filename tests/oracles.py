"""Reference computations that only the tests use: distances between
subspaces and factor sets, the inverses of grouping and ST-HOSVD, and an
independent route to the degree-(2, 1) Hilbert value."""

import numpy as np

from cpdhnf import DenseTensor, fp_rank
from cpdhnf.linalg import unitize


def subspace_distance(A, B):
    """Largest principal angle sine between the row spaces of A and B.

    Measured as the residual of projecting the smaller space onto the
    larger one, which resolves angles down to rounding; the cosine route
    sqrt(1 - cos^2) cannot see angles below about 1e-8.
    """
    qa = np.linalg.qr(np.asarray(A).conj().T)[0]
    qb = np.linalg.qr(np.asarray(B).conj().T)[0]
    if qa.shape[1] > qb.shape[1]:
        qa, qb = qb, qa
    return float(np.linalg.norm(qa - qb @ (qb.conj().T @ qa), 2))


def match_columns(found, truth):
    """Greedy permutation matching columns of `found` to columns of `truth`.

    Scores pairs by normalized absolute correlation and assigns greedily,
    which is adequate for well-separated factors at test scale.  Returns
    perm with found[:, perm[i]] matched to truth[:, i].
    """
    found = np.asarray(found)
    truth = np.asarray(truth)
    r = truth.shape[1]
    fn = found / np.maximum(np.linalg.norm(found, axis=0), 1e-300)
    tn = truth / np.maximum(np.linalg.norm(truth, axis=0), 1e-300)
    corr = np.abs(tn.conj().T @ fn)
    perm = [-1] * r
    for _ in range(r):
        i, j = np.unravel_index(np.argmax(corr), corr.shape)
        perm[i] = int(j)
        corr[i, :] = -1.0
        corr[:, j] = -1.0
    return perm


def factor_set_distance(found, truth):
    """Max column-wise deviation between two factor-column sets.

    Both inputs are matrices with r columns; columns are compared after
    unit normalization and leading-sign fixing, under the greedy matching.
    """
    perm = match_columns(found, truth)
    worst = 0.0
    for i in range(truth.shape[1]):
        a = unitize(truth[:, i])
        b = unitize(found[:, perm[i]])
        worst = max(worst, float(np.linalg.norm(a - b)))
    return worst


def ungroup(t3, grouping):
    """Inverse of :func:`cpdhnf.reshape_group`."""
    perm = [i - 1 for p in grouping.parts for i in p]
    dims = [grouping.shape[i] for i in perm]
    data = t3.data.reshape(dims).transpose(np.argsort(perm))
    return DenseTensor(data, t3.scalars)


def st_hosvd_expand(core, factors):
    """The tensor core x_1 U_1 x_2 U_2 ... that :func:`cpdhnf.st_hosvd`
    compresses."""
    data = core.data
    for k, u in enumerate(factors):
        data = np.moveaxis(np.tensordot(u, data, axes=(1, k)), 0, k)
    return DenseTensor(data, core.scalars)


def catalecticant_corank(config):
    """Corank of the stacked pairwise-symmetry constraint matrix at (2, 1).

    For each pair q < q' of first-factor coordinates the block row
    [Gamma H_{q'} | -Gamma H_q] (placed at block columns q and q')
    expresses the partial-symmetry conditions for membership in the
    catalecticant image; the corank of the stack over Z_p equals the
    degree-(2,1) Hilbert value of the finite-field configuration.
    """
    beta, gamma = config.beta, config.gamma
    m1, r = beta.shape
    n1 = gamma.shape[0]
    m = m1 - 1
    npairs = (m1 * m) // 2
    A = np.zeros((npairs * n1, m1 * r), dtype=np.int64)
    row = 0
    for q in range(m1):
        for q2 in range(q + 1, m1):
            band = slice(row * n1, (row + 1) * n1)
            A[band, q * r:(q + 1) * r] = gamma * beta[q2]
            A[band, q2 * r:(q2 + 1) * r] = -(gamma * beta[q])
            row += 1
    return m1 * r - fp_rank(A, config.p)
