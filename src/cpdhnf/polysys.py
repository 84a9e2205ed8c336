"""From flattening kernel to structured polynomial system.

The kernel of the mode-1 flattening yields bilinear forms f_j(x, y) =
x^T F_j y.  Shifting these forms by monomials gives a sparse structured
matrix R whose left nullspace carries the normal-form data; R is kept as
its shift table, from ``bigraded.shift_table``, where the monomial order
lives, and the form coefficients.  The nullspace comes from a dense SVD
or from a Gram matrix: one in-place Cholesky factorization of its
shifted dense form and blocked inverse subspace iteration.  At (d, e)
with d >= 2 the basis puts x_0 first, so R = [[R_{d-1}, B], [0, D]]
after a column reordering, and the Gram is that of the smaller stacked
matrix [N B; D], with N from a chain of exact QR steps down the degrees
(the recursive orthogonalization of Batselier, Dreesen and De Moor, J.
Comput. Appl. Math. 2014); R is the stacked matrix with no border.  At
the rank bound, where R has exactly r more rows than columns, the same
exact QR step on the top level gives the nullspace, with no Gram.  The
Gram, its projections and the nullspace residual are formed one block
per shift, with no sparse matrix.  At degree (1, 1) the nullspace is the
flattening row space, which the kernel's SVD already holds.  scipy is
imported in the functions that call it.
"""

import os
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bigraded import Bidegree, hilbert_dim, shift_table
from .config import (EIGS_ENTRY_THRESHOLD, EIGS_MAXITER, EIGS_TOL, GAP_REL,
                     KERNEL_SEP, NULL_REL, NULLSPACE_METHODS, RANK_REL, SEP_RATIO)
from .errors import CorankMismatch, FlatteningRankMismatch, InsufficientMemory


@dataclass
class BilinearSystem:
    """s bilinear forms on P^m x P^n given by (m+1) x (n+1) coefficient
    matrices; f_j(x, y) = x^T F_j y.  ``cokernel``, when known, holds
    orthonormal rows C with sum_kl C[k, l] F_j[k, l] = 0 for every j; from
    ``kernel_flattening`` it is the flattening row space."""

    coeffs: np.ndarray  # shape (s, m+1, n+1)
    cokernel: np.ndarray | None = None  # shape (r, m+1, n+1)

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs)
        if coeffs.ndim == 2:
            coeffs = coeffs[None]  # a single form
        if coeffs.ndim != 3:
            raise ValueError(
                f"coefficients must have shape (s, m+1, n+1) or (m+1, n+1), "
                f"got {coeffs.shape}"
            )
        self.coeffs = coeffs

    @property
    def s(self):
        return self.coeffs.shape[0]

    @property
    def m(self):
        return self.coeffs.shape[1] - 1

    @property
    def n(self):
        return self.coeffs.shape[2] - 1

    def transposed(self):
        """The same system with the roles of the two factors swapped."""
        cokernel = None if self.cokernel is None else self.cokernel.transpose(0, 2, 1)
        return BilinearSystem(np.ascontiguousarray(self.coeffs.transpose(0, 2, 1)), cokernel)


def kernel_flattening(M, r, dims):
    """Orthonormal basis of the flattening kernel as a bilinear system.

    ``dims = (m+1, n+1)`` fixes how the (m+1)(n+1) columns split into the
    two factor modes.  Takes the s = (m+1)(n+1) - r right singular vectors
    attached to the smallest singular values.  The spectrum must be
    compatible with the supplied rank: sigma_r clearly nonzero and well
    separated from sigma_{r+1}.  The top r, the row space, become the
    system's ``cokernel``.
    """
    M = np.asarray(M)
    m1, n1 = (int(x) for x in dims)
    ell1, cols = M.shape
    if cols != m1 * n1:
        raise ValueError(f"flattening has {cols} columns, dims give {m1 * n1}")
    if r > min(ell1, cols):
        raise FlatteningRankMismatch(f"rank {r} impossible for a {ell1} x {cols} flattening")
    _, sv, vh = np.linalg.svd(M, full_matrices=True)
    if sv[0] == 0:
        raise FlatteningRankMismatch("zero flattening")
    if sv[r - 1] / sv[0] < RANK_REL:
        raise FlatteningRankMismatch(
            f"sigma_{r}/sigma_1 = {sv[r - 1] / sv[0]:.2e} below {RANK_REL:.0e}: "
            "flattening rank appears smaller than the requested rank"
        )
    if r < len(sv):
        if sv[r] > 0 and sv[r - 1] / sv[r] < KERNEL_SEP:
            raise FlatteningRankMismatch(
                f"sigma_{r}/sigma_{r + 1} = {sv[r - 1] / sv[r]:.2e}: no clear rank gap"
            )
        if sv[r] / sv[0] > GAP_REL:
            warnings.warn(
                f"trailing singular value ratio {sv[r] / sv[0]:.2e} exceeds "
                f"{GAP_REL:.0e}; input is not exactly rank {r}",
                stacklevel=2,
            )
    s = cols - r
    if s == 0:
        return BilinearSystem(np.empty((0, m1, n1), dtype=M.dtype))
    # right singular vectors for the smallest singular values
    kernel = vh[r:, :].conj()
    return BilinearSystem(kernel.reshape(s, m1, n1), vh[:r, :].reshape(r, m1, n1))


def evaluate(system, beta, gamma):
    """Residuals f_j(beta, gamma).  Points are columns: beta (m+1,) and
    gamma (n+1,) give the s-vector, (m+1, k) and (n+1, k) an s x k matrix."""
    return np.einsum("jkl,k...,l...->j...", system.coeffs, beta, gamma)


def jacobian(system, beta, gamma):
    """Jacobian of the forms, derivatives w.r.t. beta first, then gamma.

    One point gives the s x (m+n+2) matrix; points as columns, (m+1, k)
    and (n+1, k), give the k x s x (m+n+2) stack, one matrix per point.
    """
    dbeta = np.einsum("jkl,l...->...jk", system.coeffs, gamma)
    dgamma = np.einsum("jkl,k...->...jl", system.coeffs, beta)
    return np.concatenate([dbeta, dgamma], axis=-1)


# shifts per gather in projected_gram.  At (40,8,8) r=39 (120 shifts of 64
# rows, 84 columns) every chunk from 8 shifts to all 120 took 2.1-2.4 ms at
# one BLAS thread, so the chunk only bounds the gather: 1.4 MB there
_SHIFT_CHUNK = 32


@dataclass
class StackedMatrix:
    """S = [T; D]: an optional dense border T of h rows over a shift block
    D, whose column (mu, j) holds row j of ``forms`` at the rows
    ``table[mu]`` (counted from the top of S).  Columns run shift major.
    With no border, S is a shift matrix with its columns reordered, which
    leaves S S^H unchanged."""

    table: np.ndarray  # shape (n_shifts, p)
    forms: np.ndarray  # shape (s, p)
    nrows: int
    top: np.ndarray | None = None  # shape (h, n_shifts, s)

    @property
    def shape(self):
        return self.nrows, self.table.shape[0] * self.forms.shape[0]

    def toarray(self):
        """Dense S in Fortran order, so a QR can overwrite it in place."""
        out = np.zeros(self.shape, dtype=self.forms.dtype, order="F")
        if self.top is not None:
            out[:len(self.top)] = self.top.reshape(len(self.top), -1)
        cols = np.arange(self.shape[1]).reshape(len(self.table), -1, 1)
        out[self.table[:, None, :], cols] = self.forms
        return out

    def gram(self):
        """Dense S S^H in Fortran order: D D^H is the sum over shifts mu of
        K = F^T conj(F) placed at rows and columns ``table[mu]``; the rows
        of one shift are distinct, so no update of a block is lost.  The
        border adds T T^H and, per shift, T_mu conj(F) at columns
        ``table[mu]``."""
        forms = self.forms.conj()
        per_shift = self.forms.T @ forms
        gram = np.zeros((self.nrows, self.nrows), dtype=per_shift.dtype, order="F")
        for rows in self.table:
            gram[np.ix_(rows, rows)] += per_shift
        if self.top is not None:
            h = len(self.top)
            top = self.top.reshape(h, -1)
            gram[:h, :h] = top @ top.conj().T
            for block, rows in zip(self.top.transpose(1, 0, 2), self.table):
                gram[:h, rows] += block @ forms
            gram[h:, :h] = gram[:h, h:].conj().T
        return gram

    def projected_gram(self, Q):
        """Q^H S S^H Q = (S^H Q)^H (S^H Q) = sum over shifts mu of B^H B,
        with B = conj(F) Q[table[mu]] + T_mu^H Q[:h], accumulated over
        chunks of shifts without holding S^H Q or the whole gather."""
        width = Q.shape[1]
        forms = self.forms.conj()
        out = np.zeros((width, width), dtype=np.result_type(forms, Q))
        for lo in range(0, len(self.table), _SHIFT_CHUNK):
            B = np.matmul(forms, Q[self.table[lo:lo + _SHIFT_CHUNK]])
            if self.top is not None:
                top = self.top[:, lo:lo + _SHIFT_CHUNK]
                B += top.conj().transpose(1, 2, 0) @ Q[:len(top)]
            B = B.reshape(-1, width)
            out += B.conj().T @ B
        return out


@dataclass(kw_only=True)
class ResultantMatrix(StackedMatrix):
    """The shift matrix R of all monomial shifts of the system's forms at a
    bidegree: the border-free ``StackedMatrix`` with its columns in form
    order.

    Rows are indexed by the monomial basis of the (d, e) piece; columns by
    (form j, shift monomial) with the form index major.  Each column is a
    copy of vec(F_j), row j of ``forms``, placed at the rows
    ``table[mu]`` of its shift mu.  The column order leaves ``shape``,
    ``gram``, ``projected_gram``, ``norm`` and ``residual_norm`` unchanged,
    and they read only ``table`` and ``forms``; ``toarray`` writes R in
    form order, and ``matrix``, built on first use, holds it in CSC form.
    At (1, 1) the columns are the forms, so the system's ``cokernel`` is
    the left nullspace; it is None elsewhere.
    """

    degree: Bidegree
    m: int
    n: int
    s: int
    cokernel: np.ndarray | None = None

    def toarray(self):
        out = np.zeros(self.shape, dtype=self.forms.dtype)
        cols = np.arange(self.shape[1]).reshape(self.s, -1, 1)
        out[self.table, cols] = self.forms[:, None]
        return out

    @cached_property
    def matrix(self):
        """R in CSC form; every column holds (m+1)(n+1) entries, and their
        rows ascend because the shift table's rows follow a monomial
        order."""
        import scipy.sparse
        nshift, block = self.table.shape
        vals = np.tile(self.forms[:, None], (1, nshift, 1)).ravel()
        indptr = np.arange(0, self.s * nshift * block + 1, block)
        return scipy.sparse.csc_matrix((vals, np.tile(self.table.ravel(), self.s), indptr),
                                       shape=self.shape)

    def norm(self):
        """Frobenius norm of R: every shift holds each form once."""
        return np.sqrt(len(self.table)) * np.linalg.norm(self.forms)

    def residual_norm(self, N):
        """||N R||_F as ||N[:, table] F^T||_F: the column order of R does
        not change the norm."""
        gathered = N[:, self.table.ravel()].reshape(-1, self.table.shape[1])
        return np.linalg.norm(gathered @ self.forms.T)


def build_resultant(system, degree):
    """The shift matrix at a bidegree, without polynomial multiplication:
    each column copies the coefficients of one form into the rows of the
    shifted monomials.  Only the shift table and the forms are kept; the
    nullspace methods apply R through them, and the dense and CSC forms
    are built when asked for."""
    d, e = degree
    if min(d, e) < 1:
        raise ValueError("degree must be at least (1, 1)")
    m, n, s = system.m, system.n, system.s
    if s == 0:
        raise ValueError("empty system")
    table = shift_table(m, n, (d, e))
    block = table.shape[1]
    cokernel = None
    if (d, e) == (1, 1) and system.cokernel is not None:
        # the (1, 1) rows are the pairs (k, l) in row-major order
        cokernel = system.cokernel.reshape(-1, block)
    return ResultantMatrix(table, system.coeffs.reshape(s, block), hilbert_dim(m, n, d, e),
                           degree=Bidegree(d, e), m=m, n=n, s=s, cokernel=cokernel)


def left_nullspace(res, r, method="auto"):
    """Orthonormal rows spanning the left nullspace of the shift matrix.

    ``svd`` runs a full dense SVD and keeps the last r left singular
    vectors.  ``eigs`` works on the top level's stacked matrix S = [N B; D]
    when R splits along x_0 (``lower_chain``, which gives N), else on R
    itself for forced degrees where it does not; S's null rows [c, v] lift
    to [c N, v].  At the rank bound, where R (and so S) has exactly r more
    rows than columns, the nullspace is the ``_complement`` of S's
    columns: one Householder QR and no gap decision.  Off the bound it
    forms the dense Gram G = S S^H from the shift table, adds 1e-8 ||G||_F
    to the diagonal and Cholesky-factors G in place, then runs inverse
    subspace iteration on a block of 2k columns (k = r + 3) with
    Rayleigh-Ritz on Q^H G Q, also formed per shift, until the r smallest
    Ritz pairs have relative residual EIGS_TOL and pair r + 1, whose Ritz
    value the gap test reads, has EIGS_TOL ** 0.5.  The gap test reads the
    factored G: S S^H = P R R^H P^H with P = diag(N, I) of orthonormal
    rows, so it has R's corank, and by Cauchy interlacing each eigenvalue
    is at least R R^H's of the same index.
    ``auto`` returns a known ``cokernel`` of r rows (at (1, 1), the row
    space ``kernel_flattening`` computed and certified), else uses
    ``eigs`` at the rank bound or at or above ``EIGS_ENTRY_THRESHOLD`` (in
    ``config``) matrix entries and ``svd`` below.  At the bound the QR
    decides alone: S = diag(N, I) R with its columns reordered, and each
    chain level holds a subset of R's columns, so a QR diagonal ratio
    below RANK_REL puts sigma_min(R) / sigma_max(R) below it, the SVD's
    own rejection.  The bound is one-sided: when sigma_min(R) /
    sigma_max(R) lies between about 1e-9 and RANK_REL, the QR diagonal
    ratio can stay above RANK_REL, and ``auto`` and ``eigs`` then accept a
    matrix that ``svd`` rejects.  Off the bound, when ``eigs`` cannot certify the corank
    (a small QR diagonal, no gap, a failed factorization, or no
    convergence in EIGS_MAXITER steps) ``auto`` falls back to the dense
    SVD and warns with the detail.
    An unknown method raises ValueError before any test of the matrix.
    Raises CorankMismatch when the spectrum does not show a corank-r gap,
    which signals a degree outside the regularity or a misspecified rank;
    under ``auto`` off the bound only when the SVD agrees.  Raises
    InsufficientMemory, with no fallback, when the dense S, Gram or SVD
    cannot be allocated.  Every method's result is checked by
    ||N R||_F / ||R||_F, computed from the shift table; above NULL_REL it
    warns.
    """
    if method not in NULLSPACE_METHODS:
        raise ValueError(f"unknown nullspace method {method!r}")
    nrows, ncols = res.shape
    if res.s == 0 or ncols == 0:
        raise ValueError("left_nullspace needs a nonempty system")
    if r < 1 or r >= nrows:
        raise ValueError(f"corank {r} out of range for {nrows} rows")
    if nrows - ncols > r:
        raise CorankMismatch(
            f"shift matrix is {nrows} x {ncols}: corank is at least "
            f"{nrows - ncols} > {r}; the degree is outside the regularity"
        )
    at_bound = nrows - ncols == r
    if method == "auto" and res.cokernel is not None and len(res.cokernel) == r:
        N = res.cokernel
    elif method == "svd" or (method == "auto" and not at_bound
                             and nrows * ncols < EIGS_ENTRY_THRESHOLD):
        N = _nullspace_svd(res, r)
    elif at_bound:
        N = _nullspace_eigs(res, r, at_bound=True)
    else:
        try:
            N = _nullspace_eigs(res, r)
        except CorankMismatch as exc:
            if method == "eigs":
                raise
            N = _nullspace_svd(res, r)
            warnings.warn(
                f"eigs could not certify corank {r} ({exc}); fell back to svd",
                stacklevel=2,
            )
    scale = res.norm()
    rel = res.residual_norm(N) / scale if scale else 0.0
    if rel > NULL_REL:
        warnings.warn(
            f"nullspace residual ||N R||/||R|| = {rel:.2e} exceeds {NULL_REL:.0e}",
            stacklevel=2,
        )
    return N


def dense_too_large(shape, dtype):
    """The typed error for a dense rows x cols buffer that could not be
    allocated."""
    dtype = np.dtype(dtype)
    rows, cols = shape
    nbytes = rows * cols * dtype.itemsize
    return InsufficientMemory(
        f"cannot allocate a dense {rows} x {cols} {dtype.name} matrix "
        f"({nbytes / 2 ** 30:.2f} GiB)",
        nbytes,
    )


def _physical_memory():
    """Bytes of physical memory, or None where sysconf cannot tell."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_dense_fits(shape, dtype):
    """Raise InsufficientMemory when a dense rows x cols buffer exceeds the
    machine's physical memory.  Lets ``decompose`` and the certifier fail
    from their plan alone."""
    memory = _physical_memory()
    rows, cols = shape
    if memory is not None and rows * cols * np.dtype(dtype).itemsize > memory:
        raise dense_too_large(shape, dtype)


def _nullspace_svd(res, r):
    nrows = res.shape[0]
    try:
        u, sv, _ = np.linalg.svd(res.toarray(), full_matrices=True)
    except MemoryError as exc:
        raise dense_too_large((nrows, nrows), res.forms.dtype) from exc
    expected_rank = nrows - r
    if expected_rank < len(sv):
        small, large = sv[expected_rank], sv[expected_rank - 1]
        if small > 0 and large / small < SEP_RATIO:
            raise CorankMismatch(
                f"singular values {large:.3e} / {small:.3e} not separated by "
                f"{SEP_RATIO:.0e}: corank differs from {r}"
            )
    elif sv[expected_rank - 1] / sv[0] < RANK_REL:
        raise CorankMismatch("shift matrix rank deficient beyond the expected corank")
    return u[:, expected_rank:].conj().T


def _stacked(res, k, N):
    """The stacked matrix [N B; D] of level k of R's degree chain (k, e).

    The basis puts x_0 first, so the rows of R_k with x_0 are x_0 times the
    rows of R_{k-1}, in order, and the columns whose shift holds x_0 are
    R_{k-1} on them and zero below: R_k = [[R_{k-1}, B], [0, D]] with its
    columns reordered.  B and D are the columns of the x_0-free shifts on
    the rows with and without x_0; their pairs x_0 y_l come first.  With
    N spanning the left nullspace of R_{k-1}, every left null vector of R_k
    is [c N, v] with [c, v] a left null vector of S = [N B; D]."""
    (_, e), m, n = res.degree, res.m, res.n
    table = shift_table(m, n, (k, e))
    free = table[hilbert_dim(m, n, k - 2, e - 1) if k > 1 else 0:]
    above = hilbert_dim(m, n, k - 1, e)
    top = N[:, free[:, :n + 1]] @ res.forms[:, :n + 1].T
    return StackedMatrix(free[:, n + 1:] - above + len(N),
                         np.ascontiguousarray(res.forms[:, n + 1:]),
                         len(N) + hilbert_dim(m, n, k, e) - above, top)


def _lift(X, N):
    """Rows [c N, v] from the rows [c, v] of a stacked matrix's nullspace."""
    return np.concatenate([X[:, :len(N)] @ N, X[:, len(N):]], axis=1)


def lower_chain(res, r):
    """Orthonormal rows spanning the left nullspace of R_{d-1}, the shift
    matrix one degree below R's (d, e); None when R does not split.

    R splits when d >= 2 and every level (k, e), 1 <= k < d, has at least
    r more rows than columns.  Level 1, (1, e), has no column on its rows
    with x_0, so the chain starts from the identity there.  Each level is
    tall and of full column rank, so its left nullspace needs no rank
    decision: it is the ``_complement`` of its stacked matrix.
    """
    (d, e), m, n = res.degree, res.m, res.n
    if d < 2 or any(hilbert_dim(m, n, k, e) - res.s * hilbert_dim(m, n, k - 1, e - 1) < r
                    for k in range(1, d)):
        return None
    N = np.eye(hilbert_dim(m, n, 0, e), dtype=res.forms.dtype)
    for k in range(1, d):
        N = _lift(_complement(_stacked(res, k, N), f"degree-({k}, {e}) level"), N)
    return N


def _complement(S, name):
    """Orthonormal rows spanning the left nullspace of a StackedMatrix S of
    full column rank: the last rows - cols columns of the Q of a
    Householder QR of dense S, applied to those columns only.  A QR
    diagonal below RANK_REL times its largest entry raises CorankMismatch
    naming S; a dense S that cannot be allocated, InsufficientMemory."""
    import scipy.linalg
    rows, cols = S.shape
    try:
        (qr, tau), _ = scipy.linalg.qr(S.toarray(), mode="raw", overwrite_a=True,
                                       check_finite=False)
    except MemoryError as exc:
        raise dense_too_large(S.shape, S.forms.dtype) from exc
    diag = np.abs(np.diagonal(qr))
    if diag.min() < RANK_REL * diag.max():
        raise CorankMismatch(f"{name} is rank deficient: QR diagonal "
                             f"{diag.min():.2e} below {RANK_REL:.0e} x {diag.max():.2e}")
    ormqr = scipy.linalg.get_lapack_funcs("ormqr", (qr,))
    trailing = np.zeros((rows, rows - cols), dtype=qr.dtype, order="F")
    trailing[cols:] = np.eye(rows - cols)
    lwork = int(ormqr("L", "N", qr, tau, trailing, -1)[1][0].real)
    return ormqr("L", "N", qr, tau, trailing, lwork, overwrite_c=True)[0].conj().T


def _nullspace_eigs(res, r, at_bound=False):
    """The complement of the columns of R's stacked top level at the rank
    bound, which ``left_nullspace`` decides, else block iteration on it;
    R itself when R does not split."""
    lower = lower_chain(res, r)
    top = res if lower is None else _stacked(res, res.degree.d, lower)
    N = (_complement(top, f"degree-{tuple(res.degree)} shift matrix")
         if at_bound else _block_iteration(top, r))
    return N if lower is None else _lift(N, lower)


def _block_iteration(res, r):
    """Left nullspace rows of a StackedMatrix: R itself, or the stacked
    top level of R's split."""
    import scipy.linalg
    nrows = res.shape[0]
    try:
        # Fortran order, so the Cholesky below overwrites it in place
        gram = res.gram()
    except MemoryError as exc:
        raise dense_too_large((nrows, nrows), res.forms.dtype) from exc
    k = min(r + 3, nrows - 1)
    # small positive shift keeps the factorization definite
    shift = 1e-8 * np.linalg.norm(gram)
    gram.flat[::nrows + 1] += shift
    try:
        factor = scipy.linalg.cho_factor(gram, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise CorankMismatch(f"shifted Gram matrix is not definite: {exc}") from exc
    # inverse subspace iteration with Rayleigh-Ritz on G, which is applied
    # only through the shift table from here on.  Pair i converges at the
    # rate (lambda_i + shift) / (lambda_{width+1} + shift).  With all k
    # pairs tested, on two draws each of (20,8,4), (50,10,5) and (40,8,8),
    # a block of k columns did not converge in 25 steps, 2k took 5-8
    # steps, and 3k took 3-6 steps but was slower on 5 of the 6.  The
    # start block is fixed for run-to-run determinism.
    width = min(nrows, 2 * k)
    X = np.random.default_rng(0x5EED).standard_normal((nrows, width)).astype(res.forms.dtype)
    theta, X = _rayleigh_ritz(res, scipy.linalg.cho_solve(factor, X, check_finite=False))
    for _ in range(EIGS_MAXITER):
        Y = scipy.linalg.cho_solve(factor, X, check_finite=False)
        # Y holds F^{-1} x_i, and a Ritz pair is converged once it is an
        # eigenpair of F^{-1} to a relative residual.  Only what the
        # result reads is tested: the r returned vectors at EIGS_TOL, and
        # theta_{r+1}, which the gap test reads, at EIGS_TOL ** 0.5,
        # because a Ritz value's error is quadratic in its residual
        # (Parlett, The Symmetric Eigenvalue Problem, ch. 11).  Pairs r+2
        # to k are not read; on (40,8,8) they sit in a cluster, and testing
        # them took 8 solves instead of 4.  The pairs returned come from
        # Y, one step further on at no extra solve: on a (12,7,3) draw the
        # tested pairs were 2.4e-8 from the SVD nullspace, and those from
        # Y 2e-12
        mu = 1.0 / (theta[:r + 1] + shift)
        resid = np.linalg.norm(Y[:, :r + 1] - X[:, :r + 1] * mu, axis=0)
        resid /= np.abs(mu)
        done = np.all(resid[:r] <= EIGS_TOL) and resid[r] <= EIGS_TOL ** 0.5
        theta, X = _rayleigh_ritz(res, Y)
        if done:
            break
    else:
        raise CorankMismatch(
            f"iterative eigensolver did not converge in {EIGS_MAXITER} steps"
        )
    small, nxt = np.abs(theta[:r]).max(), abs(theta[r])
    if small == 0 or nxt / small >= SEP_RATIO ** 2:
        return X[:, :r].conj().T
    raise CorankMismatch(
        f"Gram eigenvalues {nxt:.3e} / {small:.3e} not separated by "
        f"{SEP_RATIO ** 2:.0e}: corank differs from {r}"
    )


def _rayleigh_ritz(res, Y):
    """Ritz values (ascending) and vectors of G = R R^H on the span of Y,
    which it overwrites; Q^H G Q comes from ``res.projected_gram``."""
    import scipy.linalg
    Q = scipy.linalg.qr(Y, mode="economic", overwrite_a=True, check_finite=False)[0]
    theta, W = np.linalg.eigh(res.projected_gram(Q))
    return theta, Q @ W
