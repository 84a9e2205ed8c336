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
