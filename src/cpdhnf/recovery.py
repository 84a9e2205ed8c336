"""Back end of the solver: per-point recovery, with all points as the
columns of stacked calls, first-mode factors, a joint Gauss-Newton
refinement of all factors against the input tensor, and the end-to-end
decomposition driver."""

import operator
import time
import warnings
from contextlib import contextmanager
from functools import reduce

import numpy as np

from .bigraded import select_degree
from .config import GN_DAMPING, GN_FLOOR, RANK_REL, SOLVE_GAP, DecomposeOptions
from .errors import AmbiguousKernel, BasisDeficient, CpdError, InsufficientMemory, RankDeficientKR
from .linalg import khatri_rao
from .normalform import (multiplication_matrices, prenormal_general,
                         simultaneous_diagonalize)
from .polysys import (build_resultant, check_dense_fits, kernel_flattening,
                      left_nullspace)
from .tensors import (REAL, CPDecomposition, add_noise, choose_grouping, flatten_mode1,
                      rank1_factorization, reshape_group, residual, st_hosvd)

__all__ = [
    "solve_gamma", "newton_refine", "solve_alpha", "decompose",
    "decompose_with_info", "add_noise",
]


def solve_gamma(system, betas):
    """Second-point coordinates from the forms at fixed first points.

    Points are columns: betas (m+1, k) give gammas (n+1, k), and a 1-D
    beta is the k = 1 case.  For each point the rows beta^T F_j are
    stacked, and the right singular vector of the smallest singular value
    is its gamma; a clear gap between the two smallest singular values
    certifies the one-dimensional kernel the genericity assumption
    promises.  One stacked SVD serves all points, and an AmbiguousKernel
    names the first point that fails.
    """
    if system.s < 1:
        raise ValueError("need at least one form")
    betas = np.asarray(betas)
    cols = betas.reshape(len(betas), -1)
    if not np.all(np.any(cols, axis=0)):
        raise ValueError("zero point")
    n1 = system.n + 1
    if system.s < system.n:
        raise AmbiguousKernel(
            f"only {system.s} forms for {n1} unknowns: kernel cannot be one-dimensional"
        )
    # at s == n the kernel vector is the row that only the full V holds
    _, sv, vh = np.linalg.svd(np.einsum("jkl,ki->ijl", system.coeffs, cols),
                              full_matrices=system.s < n1)
    if sv.shape[1] >= n1:
        small, nxt = sv[:, n1 - 1], sv[:, n1 - 2]
    else:
        # s == n: square-ish system, kernel dimension is 1 iff full row rank
        small, nxt = np.zeros(len(sv)), sv[:, -1]
    # one-dimensional kernel: exactly one singular value collapses
    vanishes = (sv[:, 0] == 0) | (nxt <= RANK_REL * sv[:, 0])
    failed = vanishes | (small > SOLVE_GAP * nxt)
    if failed.any():
        i = int(np.argmax(failed))
        raise AmbiguousKernel(
            f"point {i}: second-smallest singular value {nxt[i]:.3e} vanishes: kernel "
            "has dimension greater than one" if vanishes[i] else
            f"point {i}: two smallest singular values {small[i]:.3e}, {nxt[i]:.3e} "
            "not separated"
        )
    return vh[:, -1, :].T.conj().reshape((n1,) + betas.shape[1:])


def _gn_step(factors, res):
    """Damped Gauss-Newton step for all factors of a CPD at residual res.

    Solves (J^H J + lam I) delta = J^H res, J the Jacobian in the factor
    entries.  With G_k = A_k^H A_k and W_K the Hadamard product of the G_j,
    j not in K, J^H J has blocks I (x) W_{k} on its diagonal and A_k(i, s)
    conj(A_l(j, r)) W_{k,l}(r, s) off it; J^H res is the MTTKRP of res.  A
    mode k >= 2 with n_k > r couples only through the span of A_k = Q_k R_k,
    so its step off that span solves its diagonal block alone.  Eliminating
    mode 1's block I (x) P, P = W_{1} + lam I, lam = GN_DAMPING trace(W_{1}),
    leaves a Schur complement S of order r * sum_{k>=2} min(n_k, r): G_1(r, s)
    (U P^-1 U^H)[(j, r), (j', s)], U[(l, j, r), t] = A_l(j, t) W_{1,l}(r, t),
    corrects it.  InsufficientMemory: S too large; LinAlgError: not definite.
    """
    from scipy.linalg import cho_factor, cho_solve, get_blas_funcs
    first, rest, r = factors[0], list(factors[1:]), factors[0].shape[1]
    grams = [f.conj().T @ f for f in factors]

    def hadamard(*skip):
        return reduce(np.multiply, (g for k, g in enumerate(grams) if k not in skip),
                      np.ones((r, r)))

    grad = [np.moveaxis(res, k, 0).reshape(res.shape[k], -1)
            @ khatri_rao([f.conj() for j, f in enumerate(factors) if j != k])
            for k in range(len(factors))]
    W = [hadamard(0, l) for l in range(1, len(factors))]
    lam = GN_DAMPING * np.trace(W[0] * grams[1]).real
    tall = {}
    for k, f in enumerate(rest, 1):
        if len(f) > r:
            (q, rest[k - 1]), full = np.linalg.qr(f), grad[k]
            grad[k] = q.conj().T @ full
            tall[k] = q, np.linalg.solve(hadamard(k) + lam * np.eye(r), (full - q @ grad[k]).T).T
    Linv = np.linalg.inv(np.linalg.cholesky(W[0] * grams[1] + lam * np.eye(r)))
    Pinv_t = (Linv.conj().T @ Linv).T
    U = np.concatenate([f[:, None, :] * w for f, w in zip(rest, W)])
    check_dense_fits((len(U) * r,) * 2, U.dtype)
    # U P^-1 U^H = V V^H, V^H = L^-1 U^H, fills the upper triangle of the
    # Fortran-ordered S, factored in place; its transpose St holds conj(S) in
    # the lower one, where the rest goes in conjugated, all times G_1(r, s)
    Vh = Linv @ U.reshape(-1, r).conj().T
    S = get_blas_funcs("herk" if np.iscomplexobj(Vh) else "syrk", (Vh,))(-1.0, Vh, trans=2)
    St = S.T.reshape(len(U), r, len(U), r)
    g1 = grams[0].conj()
    St *= g1[None, :, None, :]
    ends = np.cumsum([len(f) for f in rest])
    for a, (fa, end, w) in enumerate(zip(rest, ends, W), 1):
        rows = slice(end - len(fa), end)
        np.einsum("jrjs->jrs", St[rows, :, rows, :])[...] += g1 * w.conj()
        for b, (fb, stop) in enumerate(zip(rest[:a - 1], ends), 1):
            St[rows, :, stop - len(fb):stop, :] += (
                fa.conj()[:, None, None, :] * fb.T[None, :, :, None]
                * (g1 * hadamard(0, a, b).conj())[None, :, None, :])
    S[np.diag_indices(len(S))] += lam
    rhs = np.concatenate(grad[1:]) - np.einsum("nrt,rt->nr", U, first.conj().T @ grad[0] @ Pinv_t)
    x = cho_solve(cho_factor(S, overwrite_a=True, check_finite=False), rhs.reshape(-1),
                  check_finite=False).reshape(-1, r)
    coupled = first @ np.einsum("nsr,ns->sr", U.conj(), x)
    steps = [(grad[0] - coupled) @ Pinv_t] + np.split(x, ends[:-1])
    return [tall[k][0] @ s + tall[k][1] if k in tall else s for k, s in enumerate(steps)]


def newton_refine(t, factors, iters=3):
    """Damped Gauss-Newton refinement of all factors against the tensor t.

    Keeps a :func:`_gn_step` step only if the normalized factors' backward
    error strictly falls; stops after ``iters`` steps, at the first rejected
    or failed step (not definite, or too large), or at an error <= GN_FLOOR.
    Returns (normalized CPDecomposition, error, steps kept, unrefined error).
    """
    def fit(factors):
        dec = CPDecomposition(factors).normalize()
        return (dec, *residual(t, dec))

    (dec, res, err), steps = fit(factors), 0
    unrefined = err
    while steps < iters and err > GN_FLOOR:
        try:
            trial = fit([f + d for f, d in zip(dec.factors, _gn_step(dec.factors, res))])
        except (np.linalg.LinAlgError, InsufficientMemory):
            break
        if not trial[2] < err:
            break
        (dec, res, err), steps = trial, steps + 1
    return dec, err, steps, unrefined


def solve_alpha(flat, betas, gammas):
    """First-mode factors by least squares against the flattening.

    Solves K A = flat^T for the Khatri-Rao matrix K of the recovered point
    coordinates.  Returns (alphas, relative residual).
    """
    K = khatri_rao([np.asarray(betas), np.asarray(gammas)])
    r = K.shape[1]
    if r > K.shape[0]:
        raise RankDeficientKR(f"rank {r} exceeds the {K.shape[0]} Khatri-Rao rows")
    sol, _, rank, _ = np.linalg.lstsq(K, np.asarray(flat).T, rcond=None)
    if rank < r:
        raise RankDeficientKR(f"Khatri-Rao matrix rank {rank} < {r}")
    scale = np.linalg.norm(flat)
    resid = np.linalg.norm(K @ sol - np.asarray(flat).T) / scale if scale else 0.0
    return sol.T, float(resid)


@contextmanager
def _stage(timings, name):
    """Time the block under ``name``; a CpdError raised in it without a
    stage is tagged with ``name`` (an inner stage tags first)."""
    start = time.perf_counter()
    try:
        yield
    except CpdError as exc:
        if exc.stage is None:
            exc.stage = name
        raise
    timings[name] = timings.get(name, 0.0) + (time.perf_counter() - start) * 1e3


def _decompose_order3(t, r, options, rng, timings, info):
    """Rank-r factors of an order-3 tensor from the recovered points, with
    their alpha residual; the residual is None on the rank-1 path, which
    fits no alphas."""
    # st_hosvd compresses to exactly these targets, so the plan, which
    # alone decides whether rank r is reachable, and its memory check run
    # before any arithmetic
    targets = tuple(min(dim, r) for dim in t.shape)
    if r > 1:
        lc, mc, nc = targets
        with _stage(timings, "degree"):
            plan = select_degree(mc - 1, nc - 1, r, lc - 1, options.degree, options.path)
        info.update(degree_used=tuple(plan.degree), path=plan.path)
        with _stage(timings, "cokernel"):
            # the cokernel needs a dense rows x rows buffer
            check_dense_fits((plan.rows, plan.rows), t.data.dtype)

    with _stage(timings, "compression"):
        core, us = st_hosvd(t, targets)
    if r == 1:
        info.update(degree_used=(1, 1), path="rank-1")
        return [us[0] * core.data.reshape(()), us[1].copy(), us[2].copy()], None

    flat = flatten_mode1(core)
    with _stage(timings, "kernel"):
        system = kernel_flattening(flat, r, (mc, nc))
    # the joint eigenvalues give the x side of the solved system; degrees
    # (1, e), the pencil's (1, 1) among them, solve the transposed forms
    # at (e, 1)
    d, e = plan.degree
    solved, degree = (system.transposed(), (e, d)) if d == 1 else (system, (d, e))
    with _stage(timings, "resultant"):
        res = build_resultant(solved, degree)
    with _stage(timings, "cokernel"):
        N = left_nullspace(res, r, options.kernel)
    with _stage(timings, "multiplication"):
        try:
            pnf = prenormal_general(N, solved.m, solved.n, degree, rng=rng)
        except BasisDeficient:
            # a drawn combination close to vanishing at a point leaves the
            # basis deficient; one more draw from rng comes before giving up
            pnf = prenormal_general(N, solved.m, solved.n, degree, rng=rng)
        info["basis_cond"] = pnf.cond
        family = multiplication_matrices(pnf)
    with _stage(timings, "diagonalization"):
        coords = simultaneous_diagonalize(family, rng=rng)
    if t.scalars == REAL:
        coords = coords.real

    # the forms restricted to each point give the other side
    with _stage(timings, "recovery"):
        xs = coords / np.linalg.norm(coords, axis=0)
        ys = solve_gamma(solved, xs)
        betas, gammas = (xs, ys) if solved is system else (ys, xs)
        alphas, resid = solve_alpha(flat, betas, gammas)
    return [us[0] @ alphas, us[1] @ betas, us[2] @ gammas], resid


def _ungroup_factors(factors3, grouping):
    """Split grouped rank-1 factor columns back into per-mode vectors."""
    out = [None] * len(grouping.shape)
    scales = 1.0
    for part, fac in zip(grouping.parts, factors3):
        sigma, vecs = rank1_factorization(fac, [grouping.shape[i - 1] for i in part])
        scales = scales * sigma
        for mode, vec in zip(part, vecs):
            out[mode - 1] = vec
    out[0] = out[0] * scales
    return out


def decompose_with_info(t, r, options=None):
    """Full decomposition pipeline; returns (CPDecomposition, info dict).

    info carries the degree used, the path taken, the backward errors after
    and before refinement, the refinement steps kept, the unrefined points'
    alpha residual (None on the rank-1 path), the basis condition number,
    per-stage timings in milliseconds, and any warnings raised.  A CpdError
    carries the stage that raised it; a non-integer rank raises TypeError,
    one below 1 ValueError.  Deterministic for fixed options.seed.
    """
    if operator.index(r) < 1:
        raise ValueError(f"rank must be positive, got {r}")
    options = options or DecomposeOptions()
    rng = np.random.default_rng(options.seed)
    timings = {}
    info = {"seed": options.seed, "warnings": []}
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if t.order < 3:
            raise ValueError("decompose expects a tensor of order >= 3")
        if t.order == 3:
            if options.grouping is not None:
                raise ValueError("grouping applies to tensors of order >= 4")
            factors, resid = _decompose_order3(t, r, options, rng, timings, info)
        else:
            with _stage(timings, "grouping"):
                grouping = options.grouping or choose_grouping(t.shape, r)
                info["grouping"] = [list(p) for p in grouping.parts]
                t3 = reshape_group(t, grouping)
            factors, resid = _decompose_order3(t3, r, options, rng, timings, info)
            with _stage(timings, "recovery"):
                factors = _ungroup_factors(factors, grouping)
        with _stage(timings, "refinement"):
            dec, err, steps, unrefined = newton_refine(t, factors, options.newton_iters)
        info.update(backward_error=err, unrefined_backward_error=unrefined,
                    refinement_steps=steps, alpha_residual=resid)
    info["warnings"] = [str(w.message) for w in caught]
    info["stage_timings_ms"] = {k: round(v, 3) for k, v in timings.items()}
    return dec, info


def decompose(t, r, options=None):
    """Compute a rank-r CPD of a tensor of order >= 3.

    Tensors of order above three are reshaped through an automatically
    chosen mode grouping and the grouped rank-1 factors are split back
    afterwards.  The returned decomposition follows the normalization
    convention (unit non-first-mode columns, scale in mode 1).
    """
    return decompose_with_info(t, r, options)[0]
