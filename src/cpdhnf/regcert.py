"""Finite-field certification of the degree choice.

For a configuration of points sampled over Z_p, the Hilbert function of
the ideal generated by the kernel of their evaluation matrix can be
computed exactly by modular Gaussian elimination.  The finite-field value
upper-bounds the characteristic-zero one, and together with the universal
lower bound r this sandwiches it: finding one configuration with value r
certifies the degree for generic configurations (semicontinuity).
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .bigraded import certifiable_rank, hilbert_dim, rank_bound, shift_table
from .errors import ConfigNotInW, InsufficientMemory, RankOutOfRange
from .polysys import check_dense_fits, dense_too_large

DEFAULT_PRIME = 8191


# Columns factored per panel of the blocked elimination.  Wider panels put
# more of the work into each GEMM but make the one per-pivot pass per panel
# slower.  On one core, widths 16-64 tied within noise on the 300 x 1140
# Schur complement of a 1260 x 2100 shift matrix and on the certification
# sweep's 81 Schur complements.
_PANEL = 32

# The Schur update runs over blocks of this many trailing rows, so that each
# GEMM product is a small temporary.  On the 300 x 1140 Schur complement of
# a 1260 x 2100 shift matrix, one unblocked GEMM made the Hilbert value 20%
# slower (median of 4 seeds at 1 thread) and took 1.9 MiB more peak memory.
_ROW_BLOCK = 64

# Work of one chunk of a level in the back-substitution of _shift_corank.  A
# chunk of b rows of T gathers up to b times a form's nonzero count of
# solved rows, so its product costs about b^2 |Q| multiply-adds, against a
# fixed cost per chunk; chunks take b = isqrt(_GATHER_WORK // |Q|) rows.
# On one core (least CPU time of 30 interleaved runs), criterion 11's
# largest Hilbert value (|Q| = 10, 77 rows) took 18.4 ms against 23.4 ms
# with 32 rows, the 1260 x 2100 value (|Q| = 300, 14 rows) 28.8 against
# 30.6 ms, and the certification sweep 101 against 100 ms.  A bound on
# entries (rows x |Q|) suits only one of the first two: 1280 entries gave
# 17.3 and 35.8 ms, 2400 entries 23.9 and 30.7 ms.
_GATHER_WORK = 60_000


@functools.lru_cache(maxsize=None)
def _check_prime(p):
    # a rejected p raises, and lru_cache stores no exception, so the cache
    # holds only primes below 2^15
    if p < 2 or p >= 1 << 15:
        raise ValueError("prime must satisfy 2 <= p < 2^15, so that products of "
                         "residues stay below 2^30 and float64 sums of them are exact")
    for q in range(2, int(math.isqrt(p)) + 1):
        if p % q == 0:
            raise ValueError(f"{p} is not prime")


def _row_echelon(M, p, reduced=False):
    """Modular elimination, one pivot per step, recording the multipliers.

    Returns (rank, echelon matrix, pivot columns, order, L): row i of the
    echelon matrix comes from row order[i] of M.  A side block of
    min(rows, cols) columns takes the same row operations and gets a 1 in
    column t when a row becomes pivot t, so it ends as L: every row
    i >= rank of M[order] is -L[i] M[order][:rank] mod p.

    A step reduces the pivot column and takes the current row's entry as
    the pivot unless it is zero; only then does it search the column for
    the first nonzero below and swap that row up.  It scales the pivot row
    by the inverse of its pivot and reduces it in place, and then updates
    every row below in one statement (a row whose multiplier is zero is
    left unchanged), or in reduced mode every row, with the pivot row's
    own multiplier zeroed.  That is about seven numpy calls a step, and on
    one core of a 2-vCPU Xeon VM a pivot costs about 11 us in the panels
    of ``_rank`` and 12 us in the kernels of ``_fp_kernel`` (the 3,283
    pivots of criterion 5's sweep, on matrices of at most 150 x 100).

    Entries start as residues of p < 2^15, and the other entries are
    reduced only when they enter the pivot column or the pivot row.  So
    both factors of every update are residues, each update subtracts at
    most (p-1)^2, and after t pivots every entry is below p + t (p-1)^2 in
    magnitude.  The pivot row is scaled before it is reduced, so its
    entries reach p (p + t (p-1)^2) < 2^30 (1 + t 2^15), which is below
    2^63 for t < 2^17, and a matrix with that many pivots holds at least
    2^34 entries.  So int64 arithmetic is exact, and one reduction at the
    end makes every entry a residue again.
    """
    rows, w = np.shape(M)
    E = np.zeros((rows, w + min(rows, w)), dtype=np.int64)
    E[:, :w] = np.asarray(M, dtype=np.int64) % p
    pivots, order = [], np.arange(rows)
    row = 0
    for col in range(w):
        if row == rows:
            break
        top = 0 if reduced else row
        column = E[top:, col]
        column %= p
        if not column[row - top]:
            nz = np.flatnonzero(column[row - top:])
            if not nz.size:
                continue
            piv = row + nz[0]
            E[[row, piv]] = E[[piv, row]]
            order[[row, piv]] = order[[piv, row]]
        hi = w + row + 1
        prow = E[row, col:hi]
        prow[-1] = 1
        prow *= pow(int(prow[0]), -1, p)
        prow %= p
        if reduced:
            update = column[:, None] * prow
            update[row] = 0
            E[:, col:hi] -= update
        else:
            E[row + 1:, col:hi] -= E[row + 1:, col, None] * prow
        pivots.append(col)
        row += 1
    E %= p
    return row, E[:, :w], pivots, order, E[:, w:w + row]


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


def _rank(A, p):
    """Rank over Z_p of a float64 matrix of integers, by blocked elimination.

    ``A`` must be C-contiguous with entries at most p in magnitude, and it
    is overwritten (a tall one is transposed into a copy first).  Each
    panel of ``_PANEL`` columns is reduced once, for the test that skips a
    panel of zeros, and that reduced copy is what one ``_row_echelon`` pass
    factors into k pivots, a row order that brings the pivot rows to the
    top, and multipliers L; every other row of the panel is -L times the
    pivot rows mod p, so the trailing block takes the Schur complement update
    ``S += L[k:] @ (pivot rows mod p)`` by GEMM over blocks of
    ``_ROW_BLOCK`` rows.  Trailing entries are reduced only when they enter
    a panel or a pivot row.  Both factors are at most p in magnitude, and
    the k of all panels sum to the rank, so every entry and partial sum
    stays below p + rows p^2: below 2^52 for p < 2^15 and fewer than 2^22
    rows, and with rows <= cols a matrix of more rows would hold 2^44
    entries.  So every value is an integer that float64 holds exactly.
    """
    if A.shape[0] > A.shape[1]:
        A = np.ascontiguousarray(A.T)
    rows, cols = A.shape
    rank = 0
    for c0 in range(0, cols, _PANEL):
        if rank == rows:
            break
        c1 = min(c0 + _PANEL, cols)
        panel = A[rank:, c0:c1] % p
        if not panel.any():
            # rows that are already zero need no per-pivot pass
            continue
        k, _, _, order, L = _row_echelon(panel, p)
        if k and c1 < cols and rank + k < rows:
            active = A[rank:, c1:]
            moved = np.flatnonzero(order != np.arange(len(order)))
            active[moved] = active[order[moved]]
            X = _reduce(active[:k], p)
            trailing = active[k:]
            rest = L[k:].astype(np.float64)
            for i in range(0, len(rest), _ROW_BLOCK):
                trailing[i:i + _ROW_BLOCK] += rest[i:i + _ROW_BLOCK] @ X
        rank += k
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
    return _rank(W.astype(np.float64, order="C"), p)


def _fp_kernel(M, p):
    """Basis of the right nullspace over Z_p, one vector per free column.

    The columns are eliminated in reverse order, so that every pivot column
    of a basis vector lies after its free column: each vector has its first
    nonzero, a 1, at its own free column.  So the vectors, read as forms,
    have distinct leading monomials, and the shift matrix that
    ``_shift_corank`` splits has as many distinct leading rows as it can.
    """
    rank, rref, pivots, _, _ = _row_echelon(M[:, ::-1], p, reduced=True)
    cols = M.shape[1]
    free = np.delete(np.arange(cols), pivots)
    basis = np.zeros((free.size, cols), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = (-rref[:rank, free]).T % p
    return basis[:, ::-1]


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

    Takes the kernel of the evaluation matrix and returns the corank of its
    shift matrix, which has the same column-placement rule as the
    floating-point solver's.
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
    """Corank over Z_p of the shift matrix of ``forms`` at ``degree``.

    ``forms`` are residues, each with its first nonzero equal to 1, as
    ``_fp_kernel`` returns them.  Column j * nshift + i of the shift matrix
    R holds form j placed at the rows ``table[i]`` of shift i.  Every row of
    ``shift_table`` strictly increases, because the basis order is a
    monomial order, so if form j has its first nonzero at entry l, column
    j * nshift + i has its first nonzero, a 1, at row ``table[i, l]``.  One
    column J is taken for each distinct such leading row, the rows P; the
    other rows are Q and the other columns K.  Then A = R[P, J] is unit
    lower triangular, and

        rank R = |P| + rank(R[Q, K] - X R[P, K]),  where X A = R[Q, J],

    the A/B/C/D split of Faugere and Lachartre (PASCO 2010).  Only R[Q, :]
    is built, transposed, and one back-substitution overwrites it in place
    with X^T and then S^T, the Schur complement: each row of T less the
    rows of X^T at the other rows of P where its column is nonzero.  The
    columns of J come ordered by dependency level, so those rows all lie in
    earlier ranges, and the K rows, which need only X^T, form the last
    range; each range is solved in chunks of isqrt(``_GATHER_WORK`` // |Q|)
    rows, each by one gather (level scheduling; Anderson and Saad, IJHSC
    1989).  ``_rank`` eliminates only S.  Every product has both factors
    reduced to at most p in magnitude and at most (m+1)(n+1) nonzero terms
    in each sum, so every sum is an integer below 2^52 that float64 holds
    exactly.  Raises
    InsufficientMemory when the shift table or T cannot be allocated, and
    before T is allocated when it exceeds physical memory.
    """
    nrows = hilbert_dim(m, n, *degree)
    try:
        table = shift_table(m, n, degree)
    except MemoryError as exc:
        shifts, cols = hilbert_dim(m, n, degree[0] - 1, degree[1] - 1), (m + 1) * (n + 1)
        raise InsufficientMemory(f"cannot build the {shifts} x {cols} shift table of "
                                 f"degree {tuple(degree)}", shifts * cols * 8) from exc
    T, entries, bounds = _leading_split(forms, table, nrows)
    # the first range, level 0 or K when P is empty, depends on no row
    block = max(1, math.isqrt(_GATHER_WORK // max(1, T.shape[1])))
    for lo, hi in zip(bounds[1:-1], bounds[2:]):
        for t0 in range(lo, hi, block):
            t1 = min(t0 + block, hi)
            rows, coefs = entries(t0, t1)
            T[t0:t1] = _reduce(T[t0:t1] - _gathered(T, rows, coefs, lo), p)
    return nrows - bounds[-2] - _rank(T[bounds[-2]:], p)


def _leading_split(forms, table, nrows):
    """R[Q, :] transposed, and the shift-table view of its columns.

    J[t] is the first column that leads at the t-th smallest leading row.
    It is at level 0 if it is nonzero at no later row of P, and otherwise
    one above the highest level of the columns of J that lead at the later
    rows of P where it is nonzero.  Returns T, the float64 transpose of
    R[Q, :] with its rows in the column order J, stably by level, then K; a
    function ``entries(t0, t1)`` that gives, for the columns of rows t0:t1
    of T, the row of T of the column of J that leads at each row of R where
    they can be nonzero (-1 for rows in Q) and their coefficients there;
    and the bounds of every level's rows of T and then of K's.  T is
    scattered one form at a time, so no index array of the scatter is
    larger than the shift table, and those of the levels have one row per
    column of J and one column per nonzero entry of the densest form.
    """
    nshift = len(table)
    nonzero = forms != 0
    leading = table[:, nonzero.argmax(axis=1)].T.ravel()
    pivots, first = np.unique(leading, return_index=True)
    shape = (len(leading), nrows - len(pivots))
    check_dense_fits(shape, np.float64)
    pivot_index = np.full(nrows, -1)
    pivot_index[pivots] = np.arange(len(pivots))
    # each form's nonzero entries, padded with its first one, give the rows
    # of P each column of J reaches; those after its own are dependencies
    lists = np.argsort(~nonzero, axis=1, kind="stable")[:, :nonzero.sum(axis=1).max(initial=0)]
    lists = np.where(np.take_along_axis(nonzero, lists, axis=1), lists, lists[:, :1])
    form_of, shift_of = np.divmod(first, nshift)
    reach = pivot_index[table[shift_of[:, None], lists[form_of]]]
    col, k = np.nonzero(reach > np.arange(len(first))[:, None])
    dep = reach[col, k]
    # relaxed until no level changes, one pass more than the deepest level;
    # np.nonzero lists each column's dependencies together, from ``heads``
    heads = np.flatnonzero(np.diff(col, prepend=-1))
    level, relaxed = None, np.zeros(len(first), dtype=np.int64)
    while not np.array_equal(level, relaxed):
        level, relaxed = relaxed, np.zeros_like(relaxed)
        relaxed[col[heads]] = np.maximum.reduceat(level[dep] + 1, heads)
    by_level = np.argsort(level, kind="stable")
    pivot_index[pivots[by_level]] = np.arange(len(pivots))
    order = np.concatenate([first[by_level], np.delete(np.arange(len(leading)), first)])
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    q_index = np.full(nrows, -1)
    q_index[pivot_index < 0] = np.arange(nrows - len(pivots))
    q_table = q_index[table]
    shift, entry = np.nonzero(q_table >= 0)
    q_cols = q_table[shift, entry]
    try:
        T = np.zeros(shape)
    except MemoryError as exc:
        raise dense_too_large(shape, np.float64) from exc
    for j, form in enumerate(forms):
        T[position[j * nshift + shift], q_cols] = form[entry]
    form_of, shift_of = np.divmod(order, nshift)

    def entries(t0, t1):
        return pivot_index[table[shift_of[t0:t1]]], forms[form_of[t0:t1]]

    bounds = np.concatenate([[0], np.cumsum(np.bincount(level)), [len(order)]])
    return T, entries, bounds.tolist()


def _gathered(T, rows, coefs, lo):
    """For each column, the sum of its coefficients times the rows of T at
    its positions 0 <= ``rows`` < lo.

    The rows used are gathered once and multiplied by the columns'
    coefficient matrix.  A column has at most (m+1)(n+1) nonzero
    coefficients, so each sum has at most that many nonzero terms.
    """
    col, k = np.nonzero((rows >= 0) & (rows < lo) & (coefs != 0))
    used, inverse = np.unique(rows[col, k], return_inverse=True)
    C = np.zeros((len(rows), len(used)))
    C[col, inverse] = coefs[col, k]
    return C @ T[used]


def certify_regularity(m, n, d, r, p=DEFAULT_PRIME, trials=3, seed=0):
    """Search for a witness configuration certifying degree (d, 1).

    Success on the first sampled configuration whose evaluation matrix has
    full rank r and whose Hilbert value at (d, 1) equals r; by upper
    semicontinuity this certifies the degree for generic configurations.
    Failure after all trials is inconclusive, never a refutation.  Trial t
    uses seed + t.
    """
    for name, value in (("m", m), ("n", n), ("d", d), ("r", r), ("trials", trials)):
        if value < 1:
            raise ValueError(f"{name} must be at least 1, got {value}")
    _check_prime(p)
    if r > certifiable_rank(m, n, d):
        raise RankOutOfRange(
            f"rank {r} outside the certifiable range min({rank_bound(m, n, d, 1)}, {m * n})"
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
