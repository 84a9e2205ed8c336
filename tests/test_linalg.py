import numpy as np
import pytest

from cpdhnf.linalg import normalize_columns, unitize


def _leading_entry_reference(v, rel=1e-12):
    cutoff = rel * np.max(np.abs(v))
    for x in v:
        if abs(x) > cutoff:
            return x
    return v[0]


def normalize_columns_reference(factors):
    """The per-column loop the vectorized normalization replaced."""
    factors = [np.array(f) for f in factors]
    r = factors[0].shape[1]
    for k in range(1, len(factors)):
        for i in range(r):
            col = factors[k][:, i]
            nrm = np.linalg.norm(col)
            if nrm == 0:
                continue
            col /= nrm
            lead = _leading_entry_reference(col)
            phase = lead / abs(lead) if lead != 0 else 1.0
            col /= phase
            factors[k][:, i] = col
            factors[0][:, i] *= nrm * phase
    return factors


def unitize_reference(v):
    v = np.asarray(v, dtype=complex if np.iscomplexobj(v) else float)
    v = v / np.linalg.norm(v)
    lead = _leading_entry_reference(v)
    return v / (lead / abs(lead)) if lead != 0 else v


def edge_case_factors(seed, scalars):
    """Three 6 x 7 factors whose columns probe every branch of the rule:
    zero columns, leading entries just above and just below the 1e-12
    cutoff, negative and complex leading entries, and a leading zero."""
    rng = np.random.default_rng(seed)

    def draw():
        f = rng.standard_normal((6, 7))
        if scalars == "complex":
            f = f + 1j * rng.standard_normal((6, 7))
        return f

    factors = [draw() for _ in range(3)]
    for f in factors[1:]:
        big = np.max(np.abs(f[:, 1:5]), axis=0)
        f[:, 0] = 0
        f[0, 1] = 1.001e-12 * big[0] * f[0, 1] / abs(f[0, 1])
        f[0, 2] = 0.999e-12 * big[1] * f[0, 2] / abs(f[0, 2])
        f[0, 3] = -abs(f[0, 3])
        f[0, 4] = 0
    factors[2][:, 5] = 0
    return factors


@pytest.mark.parametrize("scalars", ["real", "complex"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_normalize_columns_matches_the_loop(seed, scalars):
    factors = edge_case_factors(seed, scalars)
    got = normalize_columns(factors)
    want = normalize_columns_reference(factors)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.allclose(g, w, rtol=0, atol=1e-15 * np.max(np.abs(w)))
    for f in got[1:]:
        nrm = np.linalg.norm(f, axis=0)
        assert np.all((np.abs(nrm - 1) <= 1e-15) | (nrm == 0))
    # the leading entry just above the cutoff is made real positive; the
    # one just below it is skipped for the next entry
    for f in got[1:]:
        assert f[0, 1].real > 0 and abs(f[0, 1].imag) <= 1e-15 * f[0, 1].real
        assert f[1, 2].real > 0 and abs(f[1, 2].imag) <= 1e-15 * f[1, 2].real


@pytest.mark.parametrize("scalars", ["real", "complex"])
def test_unitize_matches_the_loop(scalars):
    for f in edge_case_factors(3, scalars)[1:]:
        for i in np.flatnonzero(np.any(f, axis=0)):
            assert np.allclose(unitize(f[:, i]), unitize_reference(f[:, i]),
                               rtol=0, atol=1e-15)
    with pytest.raises(ValueError):
        unitize(np.zeros(3))
