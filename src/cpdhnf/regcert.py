"""Finite-field certification of the degree choice.

For a configuration of points sampled over Z_p, the Hilbert function of
the ideal generated by the kernel of their evaluation matrix can be
computed exactly by modular Gaussian elimination.  The finite-field value
upper-bounds the characteristic-zero one, and together with the universal
lower bound r this sandwiches it: finding one configuration with value r
certifies the degree for generic configurations (semicontinuity).
"""

import math
from dataclasses import dataclass

import numpy as np

from .bigraded import hilbert_dim, rank_bound, shift_table
from .errors import ConfigNotInW, RankOutOfRange

DEFAULT_PRIME = 8191


# Columns factored per panel of the blocked elimination.  Wider panels make
# the one per-pivot pass per panel slower.  On one core, widths 16-48 tied
# on the certification sweep and 64 made it 15% slower; 24-64 tied on a
# 1260 x 2100 Hilbert value.  The columns beyond a panel's outer block wait
# for the block's one update, so the panel width does not set the inner
# dimension of the large GEMMs.
_PANEL = 32

# The Schur update runs over blocks of this many trailing rows, so that each
# GEMM product is a small temporary rather than one as large as the trailing
# block.  On a 3136 x 14553 matrix this cut peak memory from 792 to 433 MB
# and the time by a third.
_ROW_BLOCK = 64

# Columns per outer block.  The columns beyond a block take one update of
# inner dimension the block's pivot count, instead of one rank-_PANEL update
# per panel, which is bound by memory traffic.  On one core the 3136 x 14553
# Hilbert value of criterion 11 took 9.4 s with one level and 5.0, 4.5, 4.1
# and 4.4 s with blocks of 128, 256, 384 and 512 columns; the four tied on a
# 1260 x 2100 one.  A matrix of at most _BLOCK columns is one block.
_BLOCK = 256

# Unreduced entries are kept below 2^52, so that they, every partial sum of
# a GEMM that updates them (an inner dimension of up to _BLOCK, factors at
# most p in magnitude), and the multiples of p that _reduce subtracts from
# them are all integers that float64 represents exactly.
_LAZY_LIMIT = 2 ** 52


def _check_prime(p):
    if p < 2 or p >= 1 << 15:
        raise ValueError("prime must satisfy 2 <= p < 2^15, so that products of "
                         "residues stay below 2^30 and float64 sums of them are exact")
    for q in range(2, int(math.isqrt(p)) + 1):
        if p % q == 0:
            raise ValueError(f"{p} is not prime")


def _row_echelon(M, p, reduced=False):
    """Modular elimination, one pivot per step, recording the multipliers.

    Returns (rank, echelon matrix, pivot columns, row swaps, L), the swaps as
    (row, pivot row) pairs in the order they were made.  A side block of
    min(rows, cols) columns takes the same row operations and gets a 1 in
    column t when a row becomes pivot t, so it ends as L: after the swaps,
    every row i >= rank of M satisfies M[i] = -L[i] M[:rank] mod p.

    Entries start as residues of p < 2^15, and only the pivot column (for
    the nonzero test) and the pivot row are reduced before use.  Each update
    subtracts at most (p-1)^2, so after t pivots every entry is below
    p + t (p-1)^2 < 2^63 in magnitude and int64 arithmetic is exact; one
    reduction at the end makes every entry a residue again.
    """
    rows, w = np.shape(M)
    E = np.zeros((rows, w + min(rows, w)), dtype=np.int64)
    E[:, :w] = np.asarray(M, dtype=np.int64) % p
    pivots, swaps = [], []
    row = 0
    for col in range(w):
        if row >= rows:
            break
        column = E[row:, col]
        column %= p
        nz = np.flatnonzero(column)
        if nz.size == 0:
            continue
        piv = row + nz[0]
        if piv != row:
            E[[row, piv]] = E[[piv, row]]
            swaps.append((row, piv))
        hi = w + row + 1
        E[row, hi - 1] = 1
        prow = E[row, col:hi]
        prow[...] = prow % p * pow(int(prow[0]), p - 2, p) % p
        last = row + nz[-1] + 1
        E[row + 1:last, col:hi] -= E[row + 1:last, col, None] * prow
        if reduced:
            E[:row, col] %= p
            E[:row, col:hi] -= E[:row, col, None] * prow
        pivots.append(col)
        row += 1
    E %= p
    return row, E[:, :w], pivots, swaps, E[:, w:w + row]


def _reduce(X, p):
    """X minus the nearest multiple of p, for float64 integers below 2^52.

    x / p is correctly rounded, so it is within 1/p of the exact quotient;
    the result is congruent to x mod p, at most p/2 + 1 <= p in magnitude,
    and exact.  Unlike ``np.fmod``, whose cost grows with the quotient, this
    costs three vector operations.
    """
    q = X / p
    np.rint(q, out=q)
    q *= p
    return X - q


def _grow_bound(bound, k, p):
    """Bound on the trailing entries after a rank-k Schur update.

    ``bound`` bounds the magnitude of every unreduced trailing entry.  The
    update adds sums of k products of entries at most p in magnitude, so it
    adds at most k p^2.  Returns the new bound and whether the block must
    first be reduced mod p to stay below ``_LAZY_LIMIT``.
    """
    step = k * p * p
    if bound + step < _LAZY_LIMIT:
        return bound + step, False
    return p + step, True


def _rank(A, p):
    """Rank over Z_p of a float64 matrix of integers, by two-level blocked
    elimination.

    ``A`` must be C-contiguous with no more rows than columns and entries
    at most p in magnitude; it is overwritten.  Columns are factored in
    outer blocks of ``_BLOCK``, each in panels of ``_PANEL``.  One
    ``_row_echelon`` pass factors a panel and returns its k pivots and
    multipliers L; its row swaps bring the pivot rows to the top, and since
    every other row of the panel is -L times the pivot rows mod p, the rest
    of the block takes the Schur update ``S += L[k:] @ (pivot rows mod p)``
    by GEMM over blocks of ``_ROW_BLOCK`` rows.

    The columns beyond the block take one update, ``S += Lc @ (the block's
    pivot rows mod p)``, of inner dimension the block's pivot count.  The
    composite multipliers Lc are kept where LU keeps L, in the block's
    eliminated columns: each panel's columns are zeroed from its first pivot
    row down, with a 1 at (pivot t, column t of the panel), and its update
    starts at the block's first column, so the same GEMM writes L[k:] into
    the panel's columns and carries the earlier panels' multipliers forward,
    ``Lc[i] += L[i] @ Lc[pivots]``.  Row swaps run from the block's first
    column, so the multipliers move with their rows.  The last block has
    nothing beyond it and keeps no multipliers.

    Both factors of every product are reduced to at most p in magnitude, so
    ``_grow_bound`` keeps every sum an exact float64 integer.  Entries are
    reduced only when they enter a panel or a pivot row, or when
    ``_grow_bound`` says the next update could reach 2^52: a block's pivot
    rows in place once they are final, Lc one chunk of rows at a time.
    """
    rows, cols = A.shape
    rank, bound = 0, p
    for b0 in range(0, cols, _BLOCK):
        b1 = min(b0 + _BLOCK, cols)
        keep = b1 < cols
        top, kept = rank, []
        for c0 in range(b0, b1, _PANEL):
            if rank == rows:
                return rank
            c1 = min(c0 + _PANEL, b1)
            k, _, _, swaps, L = _row_echelon(A[rank:, c0:c1], p)
            if not k:
                continue
            # with columns beyond the block, rows move and update from the
            # block's first column, so the kept multipliers go with them
            lo = b0 if keep else c1
            active = A[rank:, lo:]
            if swaps:
                # the swaps in one move of the rows they permute
                perm = list(range(max(j for _, j in swaps) + 1))
                for i, j in swaps:
                    perm[i], perm[j] = perm[j], perm[i]
                perm = np.array(perm)
                moved = np.flatnonzero(perm != np.arange(len(perm)))
                active[moved] = active[perm[moved]]
            if keep:
                # the update below writes this panel's multipliers here
                active[:, c0 - lo:c1 - lo] = 0
                active[range(k), range(c0 - lo, c0 - lo + k)] = 1
                kept.extend(range(c0, c0 + k))
            if rank + k < rows and lo < b1:
                X = _reduce(active[:k, :b1 - lo], p)
                trailing = active[k:]
                bound, reduce_first = _grow_bound(bound, k, p)
                if reduce_first:
                    trailing[...] = _reduce(trailing, p)
                rest = L[k:].astype(np.float64)
                for i in range(0, len(rest), _ROW_BLOCK):
                    trailing[i:i + _ROW_BLOCK, :b1 - lo] += rest[i:i + _ROW_BLOCK] @ X
            rank += k
        if kept and rank < rows:
            # the block's pivot rows are final beyond it: reduce them in place
            X = A[top:rank, b1:]
            for i in range(0, len(X), _PANEL):
                X[i:i + _PANEL] = _reduce(X[i:i + _PANEL], p)
            trailing = A[rank:, b1:]
            bound, reduce_first = _grow_bound(bound, len(kept), p)
            if reduce_first:
                trailing[...] = _reduce(trailing, p)
            for i in range(rank, rows, _ROW_BLOCK):
                Lc = _reduce(A[i:i + _ROW_BLOCK, kept], p)
                trailing[i - rank:i - rank + _ROW_BLOCK] += Lc @ X
    return rank


def fp_rank(M, p=DEFAULT_PRIME):
    """Exact rank over Z_p, by blocked elimination in float64."""
    _check_prime(p)
    M = np.atleast_2d(np.asarray(M))
    if M.size == 0:
        return 0
    # reduce in integer arithmetic first: float64 cannot hold int64 entries
    # of 2^53 or more exactly, and _rank takes residues
    W = np.asarray(M, dtype=np.int64) % p
    if W.shape[0] > W.shape[1]:
        W = W.T
    return _rank(W.astype(np.float64, order="C"), p)


def _fp_kernel(M, p):
    """Basis of the right nullspace over Z_p, one vector per free column."""
    rank, rref, pivots, _, _ = _row_echelon(M, p, reduced=True)
    cols = M.shape[1]
    free = np.delete(np.arange(cols), pivots)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-rref[:rank, free]).T % p
    return basis


@dataclass(frozen=True)
class PointConfigFp:
    """r points on P^m x P^n with coordinates in Z_p.

    The rows beta_i (x) gamma_i of the evaluation matrix must be linearly
    independent over Z_p for the configuration to define the intended
    ideal; that is checked where it matters, not at construction.
    """

    p: int
    beta: np.ndarray   # (m+1) x r
    gamma: np.ndarray  # (n+1) x r

    def __post_init__(self):
        _check_prime(self.p)
        object.__setattr__(self, "beta", np.asarray(self.beta, dtype=np.int64) % self.p)
        object.__setattr__(self, "gamma", np.asarray(self.gamma, dtype=np.int64) % self.p)
        if self.beta.shape[1] != self.gamma.shape[1]:
            raise ValueError("beta and gamma must have the same number of points")

    @property
    def m(self):
        return self.beta.shape[0] - 1

    @property
    def n(self):
        return self.gamma.shape[0] - 1

    @property
    def r(self):
        return self.beta.shape[1]

    def w_matrix(self):
        """r x (m+1)(n+1) matrix with rows beta_i (x) gamma_i (row-major
        pair order, matching the flattening column convention)."""
        outer = self.beta.T[:, :, None] * self.gamma.T[:, None, :]
        return (outer.reshape(self.r, -1)) % self.p


def random_config(m, n, r, p=DEFAULT_PRIME, seed=0):
    rng = np.random.default_rng(seed)
    beta = rng.integers(0, p, size=(m + 1, r), dtype=np.int64)
    gamma = rng.integers(0, p, size=(n + 1, r), dtype=np.int64)
    return PointConfigFp(p, beta, gamma)


def hilbert_from_points(config, degree):
    """Hilbert function of the quotient at (d, e), exactly over Z_p.

    Builds the kernel of the evaluation matrix, assembles the shift matrix
    with the same column-placement rule as the floating-point solver, and
    returns the corank.
    """
    d, e = degree
    if min(d, e) < 1:
        raise ValueError("degree must be at least (1, 1)")
    w = config.w_matrix()
    forms = _fp_kernel(w, config.p)
    # the kernel has one row per free column: rank(w) = cols - s
    if w.shape[1] - forms.shape[0] < config.r:
        raise ConfigNotInW(f"point evaluations have rank < {config.r} over Z_{config.p}")
    return _shift_corank(forms, config.m, config.n, (d, e), config.p)


def _shift_corank(forms, m, n, degree, p):
    """Corank over Z_p of the shift matrix of ``forms`` at ``degree``."""
    s = forms.shape[0]
    shift_rows = shift_table(m, n, degree)
    nshift = len(shift_rows)
    nrows = hilbert_dim(m, n, *degree)
    ncols = s * nshift
    # column j * nshift + i holds form j placed at the rows of shift i; the
    # matrix is built in float64 with no more rows than columns, as _rank
    # takes it, so it is never copied
    cols = np.arange(ncols).reshape(s, nshift, 1)
    values = forms[:, None, :]
    if nrows <= ncols:
        R = np.zeros((nrows, ncols))
        R[shift_rows, cols] = values
    else:
        R = np.zeros((ncols, nrows))
        R[cols, shift_rows] = values
    return nrows - _rank(R, p)


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


def certify_regularity(m, n, d, r, p=DEFAULT_PRIME, trials=3, seed=0):
    """Search for a witness configuration certifying degree (d, 1).

    Success on the first sampled configuration whose evaluation matrix has
    full rank r and whose Hilbert value at (d, 1) equals r; by upper
    semicontinuity this certifies the degree for generic configurations.
    Failure after all trials is inconclusive, never a refutation.  Trial t
    uses seed + t.
    """
    _check_prime(p)
    bound = rank_bound(m, n, d, 1)
    if r > min(bound, m * n):
        raise RankOutOfRange(
            f"rank {r} outside the certifiable range min({bound}, {m * n})"
        )
    cert = {
        "format": "cpdhnf-cert v1",
        "m": m, "n": n, "d": d, "r": r, "p": p,
        "seed": None, "rankN": None, "hf": None, "success": False,
    }
    for trial in range(trials):
        trial_seed = seed + trial
        config = random_config(m, n, r, p, seed=trial_seed)
        # one elimination per trial: the kernel gives rank(w) = cols - s
        forms = _fp_kernel(config.w_matrix(), p)
        rank_w = forms.shape[1] - forms.shape[0]
        cert["seed"], cert["rankN"] = trial_seed, rank_w
        if rank_w < r:
            cert["hf"] = None
            continue
        hf = int(_shift_corank(forms, m, n, (d, 1), p))
        cert["hf"] = hf
        if hf == r:
            cert["success"] = True
            break
    return cert
