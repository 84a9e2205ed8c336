"""Reference computations that only the tests use: distances between
subspaces and factor sets, the inverses of grouping and ST-HOSVD, an
independent route to the degree-(2, 1) Hilbert value, the pencil's
pre-normal form as slices of the reshaped degree-(1, 1) cokernel, and the
one-point-at-a-time back end that the stacked routines replace: the
per-point kernel solve, the per-variable multiplication matrices and the
per-column rank-1 peeling, the shift table ranked one full exponent row
at a time, the degree planning of ``_decompose_order3`` before
``select_degree`` took over its rules, the Gauss-Newton step from an
explicit Jacobian, and the Z_p elimination that searched every pivot
column for its first nonzero."""

import numpy as np

from cpdhnf import AmbiguousKernel, DenseTensor, choose_basis, fp_rank
from cpdhnf.config import RANK_REL, SOLVE_GAP
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


def pencil_slices(N, m, n, rng):
    """The pencil's pre-normal form and maps read off N as an
    r x (m+1) x (n+1) array.

    h0 is linear in the x-variables, so the combined map contracts the
    middle axis with it; the pivots lie among the y-variables, and the map
    of x_k is the slice N[:, k, basis].  Returns h0, the pivots, the maps
    (one per k) and the family solved against the restricted h0-map.
    """
    import scipy.linalg
    r = N.shape[0]
    cube = N.reshape(r, m + 1, n + 1)
    h0 = rng.standard_normal(m + 1)
    q, tri, piv, _ = choose_basis(np.tensordot(h0, cube, axes=([0], [1])))
    maps = np.moveaxis(cube[:, :, piv[:r]], 1, 0)
    family = np.array([scipy.linalg.solve_triangular(tri[:, :r], q.conj().T @ nk)
                       for nk in maps])
    return h0, piv, maps, family


def solve_gamma_point(system, beta):
    """Second-point coordinates from the forms at a fixed first point.

    Stacks the rows beta^T F_j and takes the right singular vector of the
    smallest singular value; a clear gap between the two smallest singular
    values certifies the one-dimensional kernel the genericity assumption
    promises.
    """
    if system.s < 1:
        raise ValueError("need at least one form")
    beta = np.asarray(beta)
    if not np.any(beta):
        raise ValueError("zero point")
    A = np.einsum("jkl,k->jl", system.coeffs, beta)
    n1 = system.n + 1
    if system.s < system.n:
        raise AmbiguousKernel(
            f"only {system.s} forms for {n1} unknowns: kernel cannot be one-dimensional"
        )
    _, sv, vh = np.linalg.svd(A, full_matrices=True)
    if len(sv) >= n1:
        small, nxt = sv[n1 - 1], sv[n1 - 2]
    else:
        # s == n: square-ish system, kernel dimension is 1 iff full row rank
        small, nxt = 0.0, sv[-1]
    # one-dimensional kernel: exactly one singular value collapses
    if sv[0] == 0 or nxt <= RANK_REL * sv[0]:
        raise AmbiguousKernel(
            f"second-smallest singular value {nxt:.3e} vanishes: kernel has "
            "dimension greater than one"
        )
    if small > SOLVE_GAP * nxt:
        raise AmbiguousKernel(
            f"two smallest singular values {small:.3e}, {nxt:.3e} not separated"
        )
    return vh[-1, :].conj()


def gauss_newton_step(factors, res, damping):
    """Damped Gauss-Newton step for all factors of a CPD from the explicit
    Jacobian: column (k, i, r) is the model's derivative in A_k(i, r), the
    rank-one tensor of the r-th columns with e_i in mode k.  Solves
    (J^H J + lam I) delta = J^H res with lam = damping times the trace of
    the Hadamard product of the Grams of modes 2..d, and returns the
    increments per factor together with J."""
    r = factors[0].shape[1]
    cols = []
    for k, f in enumerate(factors):
        for i in range(len(f)):
            for c in range(r):
                vecs = [g[:, c] for g in factors]
                vecs[k] = np.eye(len(f))[i]
                col = vecs[0]
                for v in vecs[1:]:
                    col = np.multiply.outer(col, v)
                cols.append(col.ravel())
    J = np.array(cols).T
    block = np.prod([f.conj().T @ f for f in factors[1:]], axis=0)
    lam = damping * np.trace(block).real
    delta = np.linalg.solve(J.conj().T @ J + lam * np.eye(J.shape[1]),
                            J.conj().T @ res.ravel())
    return np.split(delta, np.cumsum([f.size for f in factors])[:-1]), J


def multiplication_per_variable(pnf):
    """The multiplication family with one gather and one back-substitution
    per x-variable."""
    import scipy.linalg
    from cpdhnf.bigraded import monomial_index, shift_table
    from cpdhnf.normalform import _split_degree
    r, m, n = pnf.r, pnf.m, pnf.n
    columns, h_degree = _split_degree(pnf.degree)
    h_rows = exponent_rows(m, n, h_degree)
    x_rows = exponent_rows(m, n, (1, 0))
    shifts = monomial_index(m, n, (h_degree.d + 1, h_degree.e), x_rows[:, None, :] + h_rows)
    maps = (np.tensordot(pnf.h, pnf.N[:, cols], axes=([0], [1]))
            for cols in shift_table(m, n, pnf.degree, columns)[shifts][..., pnf.basis])
    return np.array([scipy.linalg.solve_triangular(pnf.tri[:, :r], pnf.q.conj().T @ nk)
                     for nk in maps])


def rank1_factorization_column(v, shape):
    """Dominant-SVD peeling of one vector reshaped to `shape`; returns
    (sigma, [unit mode vectors])."""
    vectors = []
    rest = np.asarray(v).reshape(shape)
    for dim in shape[:-1]:
        u, s, vh = np.linalg.svd(rest.reshape(dim, -1), full_matrices=False)
        vectors.append(u[:, 0])
        rest = s[0] * vh[0, :]
    sigma = float(np.linalg.norm(rest))
    vectors.append(rest / sigma)
    return sigma, vectors


def exponent_rows(m, n, degree):
    """The exponents of ``monomial_basis(m, n, degree)`` as an int64 array
    of shape (len, m+n+2), x first."""
    from cpdhnf.bigraded import monomial_basis
    return np.array([a + b for a, b in monomial_basis(m, n, degree).exponents],
                    dtype=np.int64).reshape(-1, m + n + 2)


def shift_table_rows(m, n, degree, columns):
    """The shift table with every shift x column exponent row ranked whole
    by ``monomial_index``."""
    from cpdhnf.bigraded import monomial_index
    shifts = exponent_rows(m, n, (degree[0] - columns[0], degree[1] - columns[1]))
    cols = exponent_rows(m, n, columns)
    return monomial_index(m, n, degree, shifts[:, None, :] + cols)


def select_degree_flagged(m, n, r, ell, beta_independent=True):
    """Degree selection with the range check up front and a flag that only
    decides whether small ranks go to the pencil."""
    from cpdhnf import RankOutOfRange
    from cpdhnf.bigraded import _plan, rank_bound
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


def resolve_degree(options, r, mc, nc, lc):
    """The degree and path ``_decompose_order3`` chose for an (lc, mc, nc)
    core on top of ``select_degree_flagged``; returns (degree, path)."""
    from cpdhnf import RankOutOfRange
    if options.degree is not None:
        degree = options.degree
    elif options.path == "pencil" or (options.path == "auto" and r <= mc):
        degree = (1, 1)
    else:
        degree = select_degree_flagged(mc - 1, nc - 1, r, lc - 1, beta_independent=False).degree
    if degree != (1, 1):
        return tuple(degree), "normal-form"
    if r > mc:
        raise RankOutOfRange(f"pencil degree (1, 1) needs rank <= {mc}, got {r}")
    return (1, 1), "pencil"


def choose_grouping_flagged(shape, r):
    """The mode partition of ``choose_grouping``, with feasibility read
    from ``select_degree_flagged``'s range error; returns the parts."""
    import itertools
    import math
    from cpdhnf import RankOutOfRange
    best, seen = None, set()
    for labels in itertools.product(range(3), repeat=len(shape)):
        parts = tuple(tuple(i + 1 for i, lab in enumerate(labels) if lab == k) for k in range(3))
        if not all(parts):
            continue
        ordered = tuple(sorted(parts, key=lambda p: (-math.prod(shape[i - 1] for i in p), p)))
        if ordered in seen:
            continue
        seen.add(ordered)
        l1, m1, n1 = (math.prod(shape[i - 1] for i in p) for p in ordered)
        try:
            plan = select_degree_flagged(m1 - 1, n1 - 1, r, l1 - 1)
        except RankOutOfRange:
            continue
        key = (plan.rows * plan.rows * plan.cols, (l1, m1, n1), ordered)
        if best is None or key < best[0]:
            best = (key, ordered)
    return None if best is None else best[1]


def row_echelon_per_pivot(M, p, reduced=False):
    """``regcert._row_echelon`` as it was before the current row's entry
    became the pivot: each step lists the nonzeros of the reduced pivot
    column, takes the first as the pivot and updates the rows through the
    last; the reduced mode updates the rows above in a second statement.
    Returns the same (rank, echelon matrix, pivot columns, order, L)."""
    rows, w = np.shape(M)
    E = np.zeros((rows, w + min(rows, w)), dtype=np.int64)
    E[:, :w] = np.asarray(M, dtype=np.int64) % p
    pivots, order = [], np.arange(rows)
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
            order[[row, piv]] = order[[piv, row]]
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
    return row, E[:, :w], pivots, order, E[:, w:w + row]
