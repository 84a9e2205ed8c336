"""Small shared linear-algebra helpers."""

import numpy as np


def khatri_rao(factors):
    """Column-wise Kronecker product of a list of matrices.

    All matrices must have the same number of columns; column i of the
    result is the Kronecker product of the i-th columns, with the first
    factor varying slowest (row-major pair order).
    """
    factors = [np.asarray(f) for f in factors]
    r = factors[0].shape[1]
    if any(f.shape[1] != r for f in factors):
        raise ValueError("all factors need the same column count")
    out = factors[0]
    for f in factors[1:]:
        out = (out[:, None, :] * f[None, :, :]).reshape(-1, r)
    return out


def _column_scales(M, rel=1e-12):
    """Per-column scale of the output normalization convention.

    The scale of a column is its 2-norm times the phase of its leading
    entry, the first entry above ``rel`` times the column's largest
    magnitude; dividing by it leaves unit norm and a real positive leading
    entry.  A zero column has scale 1.
    """
    M = np.asarray(M)
    mag = np.abs(M)
    cols = np.arange(M.shape[1])
    rows = np.argmax(mag > rel * mag.max(axis=0), axis=0)
    lead, lead_mag = M[rows, cols], mag[rows, cols]
    scale = np.linalg.norm(M, axis=0) * lead / np.where(lead_mag > 0, lead_mag, 1)
    return np.where(scale == 0, 1, scale)


def normalize_columns(factors):
    """Apply the output normalization convention to a CPD factor list.

    Columns of every factor except the first are divided by their
    :func:`_column_scales`, and the scales are absorbed into the first
    factor's columns.
    """
    factors = [np.asarray(f) for f in factors]
    for k in range(1, len(factors)):
        scale = _column_scales(factors[k])
        factors[k] = factors[k] / scale
        factors[0] = factors[0] * scale
    return factors


def unitize(v):
    """Unit 2-norm copy of v with real nonnegative leading entry."""
    v = np.asarray(v, dtype=complex if np.iscomplexobj(v) else float)
    if not np.any(v):
        raise ValueError("zero vector")
    return v / _column_scales(v[:, None])[0]


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
