"""Combinatorics of the bigraded polynomial ring on P^m x P^n.

Monomial bases of the graded pieces, the ring's Hilbert function, the
rational rank bound controlling which bidegrees can work for a given
number of points, the certifier's rank cap and the solver's degree plan,
which alone decides the ranks the solver can reach.

The monomial order and the rank rules live here alone: ``shift_table``
maps each shift monomial times each column monomial to a row of the
(d, e) basis, the index map of the shift matrix, of every pull-back
through its left nullspace and of the multiplication maps.
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


def _product_ranks(nvars, total, col):
    """Ranks among the degree-``total`` exponents of each shift of degree
    total - col times each column of degree col, one block of variables."""
    shifts = np.array(_exponents(nvars, total - col), dtype=np.int64)
    return np.stack([_lex_rank(shifts + c, total) for c in _exponents(nvars, col)], axis=1)


@lru_cache(maxsize=256)
def _shift_table(m, n, degree, columns):
    # x^a y^b sits at rank_x(a) * C(n+e, e) + rank_y(b), so the x and the
    # y products are ranked apart and added by broadcasting
    rx = _product_ranks(m + 1, degree.d, columns.d) * math.comb(n + degree.e, degree.e)
    ry = _product_ranks(n + 1, degree.e, columns.e)
    table = (rx[:, None, :, None] + ry[None, :, None, :]).reshape(len(rx) * len(ry), -1)
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


def certifiable_rank(m, n, d):
    """The largest rank whose points degree (d, 1) may certify on
    P^m x P^n: floor(min(rank_bound(m, n, d, 1), m*n))."""
    return math.floor(min(rank_bound(m, n, d, 1), m * n))


# the paths a solve may ask for; a plan takes one of the last two
PATHS = ("auto", "pencil", "normal-form")


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


def select_degree(m, n, r, ell, degree=None, path="auto"):
    """Plan the bidegree and path of a solve on an (ell+1, m+1, n+1) core;
    the solver's one rule for which ranks it can reach.

    A path outside ``PATHS`` raises ValueError.  Then, whatever the degree
    and path, RankOutOfRange comes first when
    r > ell+1, which compression preserves, or when r >= 2 and a mode has
    size 1.  A forced degree is then taken as given.  Otherwise path
    "pencil", or "auto" at ranks up to m+1, takes the pencil shortcut at
    (1, 1); every other case compares the lowest (d, 1) and (1, e) whose
    rank bound reaches r, whichever exist: the lower raised degree wins,
    matrix size breaks ties, and a residual tie goes to (d, 1).  Mixed
    degrees with both entries >= 2 are never selected automatically.  The
    pencil needs r <= m+1.
    """
    if path not in PATHS:
        raise ValueError(f"unknown path {path!r}")
    if r < 1:
        raise ValueError("rank must be positive")
    shape = (ell + 1, m + 1, n + 1)
    if r > ell + 1:
        raise RankOutOfRange(f"rank {r} exceeds l+1 = {ell + 1} for shape {shape}")
    if r > 1 and min(m, n) < 1:
        raise RankOutOfRange(f"rank {r} needs every mode of size >= 2, got shape {shape}")
    if degree is None and (path == "normal-form" or (path == "auto" and r > m + 1)):
        plans = [_plan(m, n, r, deg) for deg in (
            next(((d, 1) for d in range(2, n + 2) if rank_bound(m, n, d, 1) >= r), None),
            next(((1, e) for e in range(2, m + 2) if rank_bound(m, n, 1, e) >= r), None)) if deg]
        if not plans:
            raise RankOutOfRange(
                f"no (d, 1) or (1, e) has a rank bound reaching {r} for m, n = {m}, {n}")
        return min(plans, key=lambda plan: (max(plan.degree), plan.rows * plan.cols))
    degree = (1, 1) if degree is None else tuple(degree)
    if degree == (1, 1) and r > m + 1:
        raise RankOutOfRange(f"pencil degree (1, 1) needs rank <= {m + 1}, got {r}")
    return _plan(m, n, r, degree)
