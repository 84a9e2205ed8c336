"""Combinatorics of the bigraded polynomial ring on P^m x P^n.

Monomial bases of the graded pieces, the ring's Hilbert function, the
rational rank bound controlling which bidegrees can work for a given
number of points, and automatic degree selection for the solver.

The monomial order lives here alone: ``monomial_index`` ranks exponent rows
in it, and ``shift_table`` maps each shift monomial times each column
monomial to a row of the (d, e) basis, which is the index map of the shift
matrix and of every pull-back through its left nullspace.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import RankOutOfRange


class Bidegree(NamedTuple):
    d: int
    e: int


def hilbert_dim(m, n, d, e):
    """Dimension of the bidegree-(d, e) piece: C(m+d, d) * C(n+e, e).

    Exact integer arithmetic; Python integers never wrap.
    """
    if min(m, n, d, e) < 0:
        raise ValueError("all arguments must be nonnegative")
    return math.comb(m + d, d) * math.comb(n + e, e)


def _exponents(nvars, total):
    """Exponent tuples of the given total degree, lexicographically
    descending (first variable greatest)."""
    if nvars == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in _exponents(nvars - 1, total - first):
            out.append((first,) + rest)
    return out


@dataclass(frozen=True)
class MonomialBasis:
    """Ordered monomial basis of the (d, e) graded piece.

    Entries are (a, b) exponent-tuple pairs, x-block major / y-block minor,
    each block in lexicographic order with the 0-th variable greatest.  For
    degree (1, 1) this reproduces the row-major (k, l) pair order used by
    the mode-1 flattening columns.
    """

    m: int
    n: int
    degree: Bidegree

    @property
    def exponents(self):
        return _basis_exponents(self.m, self.n, self.degree)

    @property
    def rows(self):
        """The exponents as an int64 array of shape (len, m+n+2), x first."""
        return np.array([a + b for a, b in self.exponents],
                        dtype=np.int64).reshape(-1, self.m + self.n + 2)

    def __len__(self):
        return len(self.exponents)

    def index_of(self, a, b):
        a, b = tuple(a), tuple(b)
        if (len(a), len(b)) != (self.m + 1, self.n + 1):
            raise ValueError(f"exponents {(a, b)} do not have {self.m + 1} + {self.n + 1} entries")
        return int(monomial_index(self.m, self.n, self.degree, a + b))


@lru_cache(maxsize=256)
def _basis_exponents(m, n, degree):
    d, e = degree
    return tuple(
        (a, b) for a in _exponents(m + 1, d) for b in _exponents(n + 1, e)
    )


def monomial_basis(m, n, degree):
    basis = MonomialBasis(m, n, Bidegree(*degree))
    assert len(basis) == hilbert_dim(m, n, *degree)
    return basis


@lru_cache(maxsize=256)
def _binomials(total, nvars):
    """Table C[x, j] = C(x, j) for x <= total + nvars - 2 and j < nvars."""
    return np.array([[math.comb(x, j) for j in range(nvars)]
                     for x in range(total + nvars - 1)], dtype=np.int64)


def _lex_rank(a, total):
    """Positions of exponent rows of the given total degree in the
    lexicographically descending order of ``_exponents``.

    Tuples before ``a`` are those larger at the first position i where
    they differ; with s_i = total - (a_0 + ... + a_i) there are
    C(s_i + nvars-2-i, nvars-1-i) of them for each i (combinatorial number
    system).  Every term is below the block size, so int64 is exact.
    """
    nvars = a.shape[-1]
    if nvars == 1:
        return np.zeros(a.shape[:-1], dtype=np.int64)
    rest = total - np.cumsum(a[..., :-1], axis=-1)
    i = np.arange(nvars - 1)
    return _binomials(total, nvars)[rest + (nvars - 2 - i), nvars - 1 - i].sum(axis=-1)


def monomial_index(m, n, degree, exps):
    """Positions of exponent rows in ``monomial_basis(m, n, degree)``.

    ``exps`` is an integer array of shape (..., m+n+2): the m+1 x-exponents,
    then the n+1 y-exponents.  Raises ValueError if any row is not a
    monomial of that degree, so no row can land on a neighbour's index.
    """
    d, e = degree
    exps = np.asarray(exps, dtype=np.int64)
    if exps.shape[-1:] != (m + n + 2,):
        raise ValueError(f"exponent rows must have {m + n + 2} entries")
    a, b = exps[..., :m + 1], exps[..., m + 1:]
    if (exps < 0).any() or (a.sum(axis=-1) != d).any() or (b.sum(axis=-1) != e).any():
        raise ValueError(f"exponents not of degree {(d, e)}")
    return _lex_rank(a, d) * math.comb(n + e, e) + _lex_rank(b, e)


def shift_table(m, n, degree, columns=(1, 1)):
    """Row of the (d, e) basis of each shift monomial of degree
    (d, e) - columns times each monomial of degree ``columns``.

    int64 array of shape (n_shifts, n_columns); row i follows the shift
    basis order and column j the ``columns`` basis order, which at the
    default (1, 1) runs over the pairs x_k y_l row-major and at (0, 1)
    over the y_l.  Cached and shared by every caller, so it is read-only.
    """
    return _shift_table(m, n, Bidegree(*degree), Bidegree(*columns))


@lru_cache(maxsize=256)
def _shift_table(m, n, degree, columns):
    shifts = monomial_basis(m, n, (degree.d - columns.d, degree.e - columns.e)).rows
    cols = monomial_basis(m, n, columns).rows
    table = monomial_index(m, n, degree, shifts[:, None, :] + cols)
    table.flags.writeable = False
    return table


def rank_bound(m, n, d, e):
    """Rational threshold on the point count for bidegree (d, e).

    Above this bound the quotient's Hilbert function provably exceeds the
    point count, so (d, e) cannot certify the points.  Infinite at (1, 1).
    Returned as an exact Fraction (or math.inf).
    """
    if min(d, e) < 1:
        raise ValueError("degree must be at least (1, 1) componentwise")
    if min(m, n) < 1:
        raise ValueError("%s must be at least 1, got %d" % (("m", m) if m < 1 else ("n", n)))
    if (d, e) == (1, 1):
        return math.inf
    h11 = hilbert_dim(m, n, 1, 1)
    hde = hilbert_dim(m, n, d, e)
    hshift = hilbert_dim(m, n, d - 1, e - 1)
    return Fraction(h11 * hshift - hde, hshift - 1)


class DegreePlan(NamedTuple):
    """Chosen bidegree with its predicted resultant-matrix footprint."""

    degree: Bidegree
    path: str          # "pencil" | "normal-form"
    rows: int
    cols: int


def _plan(m, n, r, degree):
    d, e = degree
    s = (m + 1) * (n + 1) - r
    rows = hilbert_dim(m, n, d, e)
    cols = s * hilbert_dim(m, n, d - 1, e - 1)
    path = "pencil" if (d, e) == (1, 1) else "normal-form"
    return DegreePlan(Bidegree(d, e), path, rows, cols)


def select_degree(m, n, r, ell, beta_independent=True):
    """Pick the bidegree for the solver.

    Ranks up to m+1 with independent second-mode factors go to the pencil
    shortcut at (1, 1).  Otherwise the smallest workable (d, 1) and (1, e)
    are compared: the lower raised degree wins, matrix size breaks ties,
    and a residual tie goes to (d, 1).  Mixed degrees with both entries
    >= 2 are never selected automatically.
    """
    if r < 1:
        raise ValueError("rank must be positive")
    if r > min(ell + 1, m * n):
        raise RankOutOfRange(
            f"rank {r} exceeds min(l+1, m*n) = {min(ell + 1, m * n)} "
            f"for shape ({ell + 1}, {m + 1}, {n + 1})"
        )
    if r <= m + 1 and beta_independent:
        return _plan(m, n, r, (1, 1))

    d = next(d for d in range(2, n + 2) if rank_bound(m, n, d, 1) >= r)
    e = next(e for e in range(2, m + 2) if rank_bound(m, n, 1, e) >= r)
    plan_d = _plan(m, n, r, (d, 1))
    plan_e = _plan(m, n, r, (1, e))
    if (d, plan_d.rows * plan_d.cols) <= (e, plan_e.rows * plan_e.cols):
        return plan_d
    return plan_e
